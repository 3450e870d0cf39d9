"""The capability registry contract: every declared claim is exercised.

``repro.core.capabilities`` is the single source of truth for the
backend × suspend matrix.  This module walks :data:`JOB_KINDS` with one
pinned fixture job per kind and *proves* each declared capability
instead of trusting the table:

* a kind claiming the ``fast`` backend runs the differential oracle —
  the object and fast streams must be byte-identical, under each fast
  sweep strategy;
* a kind claiming ``suspendable`` survives a random-interrupt/restore
  round trip at several cut points, on the object backend and on both
  fast sweep strategies — the restored tail must equal the
  uninterrupted tail;
* the registry itself is checked for shape (every kind fixtured, every
  shape legal, deprecated aliases still importable but warning).
"""

from __future__ import annotations

import random

import pytest

from conftest import sweep_strategy
from repro.core.capabilities import (
    BACKEND_NAMES,
    JOB_KINDS,
    KIND_REGISTRY,
    RESULT_SHAPES,
    capability_matrix,
    kinds_where,
    require_backend,
    spec,
    supported_backends,
)
from repro.datagraph.model import DataGraph
from repro.engine.jobs import EnumerationJob, run_job
from repro.engine.suspend import JobSearch
from repro.exceptions import InvalidInstanceError, UnsupportedBackendError


def _demo_datagraph() -> DataGraph:
    dg = DataGraph()
    for node, kws in [
        ("a", ["x"]),
        ("b", []),
        ("c", ["y"]),
        ("d", ["x", "z"]),
        ("e", ["z"]),
    ]:
        dg.add_node(node, kws)
    for u, v in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d"), ("d", "e")]:
        dg.add_link(u, v)
    return dg


def _fixture_job(kind: str, backend: str = "object") -> EnumerationJob:
    """A small pinned instance with a non-trivial stream, per kind."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3), (3, 4), (2, 4)]
    cycle = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (2, 4)]
    if kind == "steiner-tree":
        return EnumerationJob.steiner_tree(edges, [0, 4], backend=backend)
    if kind == "steiner-forest":
        return EnumerationJob.steiner_forest(
            edges, [[0, 4], [1, 2]], backend=backend
        )
    if kind == "terminal-steiner":
        return EnumerationJob.terminal_steiner(edges, [0, 4], backend=backend)
    if kind == "directed-steiner":
        return EnumerationJob.directed_steiner(arcs, [3, 4], 0, backend=backend)
    if kind == "induced-steiner":
        return EnumerationJob.induced_steiner(cycle, [0, 3], backend=backend)
    if kind == "st-path":
        return EnumerationJob.st_path(edges, 0, 4, backend=backend)
    if kind == "chordless-path":
        return EnumerationJob.chordless_path(edges, 0, 4, backend=backend)
    if kind == "kfragments":
        return EnumerationJob.kfragments(
            _demo_datagraph(), ["x", "y"], backend=backend
        )
    raise AssertionError(f"no fixture for kind {kind!r} — add one")


# ----------------------------------------------------------------------
# registry shape
# ----------------------------------------------------------------------
def test_every_kind_has_a_fixture():
    for kind in JOB_KINDS:
        assert _fixture_job(kind).kind == kind


def test_registry_shapes_are_legal():
    for kind, kind_spec in KIND_REGISTRY.items():
        assert kind_spec.kind == kind
        assert kind_spec.result_shape in RESULT_SHAPES
        assert kind_spec.backends
        assert set(kind_spec.backends) <= set(BACKEND_NAMES)


def test_matrix_is_closed_since_pr7():
    # Every kind runs on both backends and suspends.
    assert BACKEND_NAMES == ("object", "fast")
    assert kinds_where(suspendable=True) == JOB_KINDS
    for kind in JOB_KINDS:
        assert supported_backends(kind) == BACKEND_NAMES
        assert capability_matrix()[kind]["backends"] == ["object", "fast"]


def test_capability_matrix_is_json_ready():
    matrix = capability_matrix()
    assert set(matrix) == set(JOB_KINDS)
    for row in matrix.values():
        assert set(row) == {
            "result_shape",
            "directed",
            "backends",
            "suspendable",
            "relabelable",
            "cacheable",
        }


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
        job = _fixture_job(kind, "vector")
        assert job.backend == "fast"
        assert job.to_dict()["backend"] == "fast"
        assert EnumerationJob.from_dict(dict(job.to_dict(), backend="vector")) == job


def test_deprecated_frozenset_aliases_warn():
    import repro.engine.jobs as jobs

    with pytest.warns(DeprecationWarning):
        legacy = jobs.SUSPENDABLE_KINDS
    assert set(legacy) == kinds_where(suspendable=True)


# ----------------------------------------------------------------------
# claimed capabilities, proven per kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(JOB_KINDS))
def test_fast_claim_differential_oracle(kind, fast_strategy):
    """A kind declaring the fast backend must stream byte-identically."""
    kind_spec = spec(kind)
    if "fast" not in kind_spec.backends:
        pytest.skip(f"{kind} does not claim the fast backend")
    reference = run_job(_fixture_job(kind, "object")).lines
    assert reference, f"fixture for {kind} must produce solutions"
    assert run_job(_fixture_job(kind, "fast")).lines == reference


@pytest.mark.parametrize("leg", ["object", "fast/bitset", "fast/scalar"])
@pytest.mark.parametrize("kind", sorted(JOB_KINDS))
def test_suspendable_claim_interrupt_restore(kind, leg):
    """A kind declaring suspendable must survive snapshot round trips."""
    backend, _, strategy = leg.partition("/")
    kind_spec = spec(kind)
    if not kind_spec.suspendable:
        pytest.skip(f"{kind} does not claim suspendability")
    if backend not in kind_spec.backends:
        pytest.skip(f"{kind} does not claim the {backend} backend")
    job = _fixture_job(kind, backend)
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
