"""The capability registry contract: every declared claim is exercised.

``repro.core.capabilities`` is the single source of truth for the
backend × suspend matrix.  This module walks :data:`JOB_KINDS` with one
pinned fixture job per kind and *proves* each declared capability
instead of trusting the table:

* a kind claiming the ``fast`` backend runs the differential oracle —
  the object and fast streams must be byte-identical, under each fast
  sweep strategy;
* every kind survives a random-interrupt/restore round trip at
  several cut points, on the object backend and on both
  fast sweep strategies — the restored tail must equal the
  uninterrupted tail;
* the registry itself is checked for shape (every kind fixtured, every
  shape legal, the retired frozenset aliases gone).
"""

from __future__ import annotations

import random

import pytest

from conftest import fixture_job, sweep_strategy
from repro.core.capabilities import (
    BACKEND_NAMES,
    JOB_KINDS,
    KIND_REGISTRY,
    RESULT_SHAPES,
    capability_matrix,
    require_backend,
    spec,
    supported_backends,
)
from repro.engine.jobs import EnumerationJob, run_job
from repro.engine.suspend import JobSearch
from repro.exceptions import InvalidInstanceError, UnsupportedBackendError


# ----------------------------------------------------------------------
# registry shape
# ----------------------------------------------------------------------
def test_every_kind_has_a_fixture():
    for kind in JOB_KINDS:
        assert fixture_job(kind).kind == kind


def test_registry_shapes_are_legal():
    for kind, kind_spec in KIND_REGISTRY.items():
        assert kind_spec.kind == kind
        assert kind_spec.result_shape in RESULT_SHAPES
        assert kind_spec.backends
        assert set(kind_spec.backends) <= set(BACKEND_NAMES)


def test_matrix_is_closed_since_pr7():
    # Every kind runs on both backends.
    assert BACKEND_NAMES == ("object", "fast")
    for kind in JOB_KINDS:
        assert supported_backends(kind) == BACKEND_NAMES
        assert capability_matrix()[kind]["backends"] == ["object", "fast"]


def test_capability_matrix_is_json_ready():
    matrix = capability_matrix()
    assert set(matrix) == set(JOB_KINDS)
    for row in matrix.values():
        assert set(row) == {"result_shape", "directed", "backends", "relabelable"}


def test_unknown_kind_rejected():
    with pytest.raises(InvalidInstanceError):
        spec("not-a-kind")


def test_require_backend_uniform_rejection():
    for kind in JOB_KINDS:
        assert require_backend(kind, "object") == "object"
        with pytest.raises(UnsupportedBackendError):
            require_backend(kind, "gpu")


def test_vector_is_an_alias_of_fast():
    """The retired backend name validates everywhere and resolves to
    ``fast`` before anything below the validation sees it."""
    for kind in JOB_KINDS:
        assert require_backend(kind, "vector") == "fast"
        job = fixture_job(kind, "vector")
        assert job.backend == "fast"
        assert job.to_dict()["backend"] == "fast"
        assert EnumerationJob.from_dict(dict(job.to_dict(), backend="vector")) == job


def test_retired_frozenset_aliases_are_gone():
    import repro.engine.jobs as jobs

    for name in (
        "EDGE_SET_KINDS",
        "ARC_SET_KINDS",
        "VERTEX_SET_KINDS",
        "PATH_KINDS",
        "RELABELABLE_KINDS",
        "SUSPENDABLE_KINDS",
    ):
        with pytest.raises(AttributeError):
            getattr(jobs, name)


# ----------------------------------------------------------------------
# claimed capabilities, proven per kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(JOB_KINDS))
def test_fast_claim_differential_oracle(kind, fast_strategy):
    """A kind declaring the fast backend must stream byte-identically."""
    kind_spec = spec(kind)
    if "fast" not in kind_spec.backends:
        pytest.skip(f"{kind} does not claim the fast backend")
    reference = run_job(fixture_job(kind, "object")).lines
    assert reference, f"fixture for {kind} must produce solutions"
    assert run_job(fixture_job(kind, "fast")).lines == reference


@pytest.mark.parametrize("leg", ["object", "fast/bitset", "fast/scalar"])
@pytest.mark.parametrize("kind", sorted(JOB_KINDS))
def test_suspendable_claim_interrupt_restore(kind, leg):
    """Every kind must survive snapshot round trips."""
    backend, _, strategy = leg.partition("/")
    kind_spec = spec(kind)
    if backend not in kind_spec.backends:
        pytest.skip(f"{kind} does not claim the {backend} backend")
    job = fixture_job(kind, backend)
    with sweep_strategy(strategy or "scalar"):
        reference = [line for line, _s in JobSearch(job)]
        assert reference, f"fixture for {kind} must produce solutions"
        rng = random.Random(f"{kind}/{backend}")
        cuts = {0, 1, len(reference) - 1, rng.randrange(len(reference))}
        for cut in sorted(c for c in cuts if 0 <= c <= len(reference)):
            search = JobSearch(job)
            for _ in range(cut):
                search.next()
            restored = JobSearch.restore(job, search.snapshot())
            assert [line for line, _s in restored] == reference[cut:]
