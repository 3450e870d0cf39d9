"""The kind-capability registry: one :class:`KindSpec` per job kind.

Every layer (cache, cursor, serve, front door) consults this single
declarative registry instead of encoding the capability split itself:

* ``result_shape`` — what one solution *is* (``"edge-set"``,
  ``"arc-set"``, ``"vertex-set"``, ``"path"`` or ``"fragment"``), which
  fixes both the canonical text rendering and the cache's canonical
  translation.
* ``directed`` — whether the instance is a digraph.
* ``backends`` — the backends the kind's solver accepts; every kind
  listing ``"fast"`` is covered by the differential oracle wall
  (byte-identical streams on integer-compact instances).
* ``relabelable`` — cache entries translate between relabeled
  isomorphic instances (:mod:`repro.engine.cache`).
* ``shared_kernel`` — fast-backend queries on one graph share one
  compiled kernel (:mod:`repro.engine.suspend`): the kind's machine
  only reads the kernel's incidence arrays and version-keyed derived
  data, never changes them.  An engine detail, so it is left out of the
  published capability rows.

Every kind runs on an explicit-state search machine
(:mod:`repro.engine.suspend`), so every stream suspends, checkpoints
with an O(state) snapshot, and caches its finished results; those are
properties of the engine, not flags of a kind.
``tests/test_capabilities.py`` asserts every claim by construction:
each kind claiming ``fast`` runs the differential oracle, and each kind
survives a random-interrupt/restore round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.exceptions import InvalidInstanceError
from repro.graphs.fastgraph import BACKENDS, check_backend

#: Solution shapes a kind may declare.
RESULT_SHAPES: Tuple[str, ...] = (
    "edge-set",
    "arc-set",
    "vertex-set",
    "path",
    "fragment",
)

#: Enumeration backends the library ships.
BACKEND_NAMES: Tuple[str, ...] = BACKENDS


@dataclass(frozen=True)
class KindSpec:
    """The declared capabilities of one job kind.

    Instances live in :data:`KIND_REGISTRY`; look them up with
    :func:`spec` (which raises on unknown kinds) rather than indexing
    the dict directly.
    """

    kind: str
    result_shape: str
    directed: bool
    backends: Tuple[str, ...]
    relabelable: bool
    shared_kernel: bool = False

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready capability row (used by ``/stats`` and ``/metrics``)."""
        return {
            "result_shape": self.result_shape,
            "directed": self.directed,
            "backends": list(self.backends),
            "relabelable": self.relabelable,
        }


def _spec(
    kind: str, shape: str, *, directed: bool = False, shared_kernel: bool = False
) -> KindSpec:
    # Every kind runs on both backends; only kfragments (keyword queries
    # are bound to concrete node labels) refuses relabeled cache
    # translation.
    return KindSpec(
        kind=kind,
        result_shape=shape,
        directed=directed,
        backends=BACKEND_NAMES,
        relabelable=kind != "kfragments",
        shared_kernel=shared_kernel,
    )


#: The registry: every kind the engine can execute, with its capabilities.
KIND_REGISTRY: Dict[str, KindSpec] = {
    s.kind: s
    for s in (
        # The Steiner-tree traversal and the Read-Tarjan path search only
        # read their kernel.
        _spec("steiner-tree", "edge-set", shared_kernel=True),
        _spec("steiner-forest", "edge-set"),
        _spec("terminal-steiner", "edge-set"),
        _spec("directed-steiner", "arc-set", directed=True),
        _spec("induced-steiner", "vertex-set"),
        _spec("st-path", "path", shared_kernel=True),
        _spec("chordless-path", "path"),
        _spec("kfragments", "fragment"),
    )
}

#: All job kinds the engine can execute (registry-derived).
JOB_KINDS: FrozenSet[str] = frozenset(KIND_REGISTRY)


def spec(kind: str) -> KindSpec:
    """The :class:`KindSpec` of ``kind``.

    Raises :class:`~repro.exceptions.InvalidInstanceError` for unknown
    kinds, with the same message shape job validation has always used.
    """
    try:
        return KIND_REGISTRY[kind]
    except KeyError:
        raise InvalidInstanceError(
            f"unknown job kind {kind!r}; expected one of {sorted(KIND_REGISTRY)}"
        ) from None


def kinds_where(**flags: object) -> FrozenSet[str]:
    """Kinds whose spec matches every given attribute value.

    Examples
    --------
    >>> sorted(kinds_where(result_shape="path"))
    ['chordless-path', 'st-path']
    >>> sorted(kinds_where(relabelable=False))
    ['kfragments']
    """
    out = []
    for kind_spec in KIND_REGISTRY.values():
        if all(getattr(kind_spec, name) == value for name, value in flags.items()):
            out.append(kind_spec.kind)
    return frozenset(out)


def supported_backends(kind: str) -> Tuple[str, ...]:
    """The backends ``kind`` accepts (in preference order)."""
    return spec(kind).backends


def require_backend(kind: str, backend: str) -> str:
    """Validate ``backend`` against the registry; returns the resolved
    name (aliases mapped by :func:`repro.graphs.fastgraph.resolve_backend`).

    Raises :class:`~repro.exceptions.UnsupportedBackendError` naming the
    kind and the supported set — the uniform validation every
    enumerator and :class:`~repro.engine.jobs.EnumerationJob` shares.
    """
    return check_backend(backend, kind=kind, supported=spec(kind).backends)


def capability_matrix() -> Dict[str, Dict[str, object]]:
    """The full kind → capabilities mapping, JSON-ready.

    This is the document ``GET /stats`` and ``GET /metrics`` publish
    under ``"capabilities"`` so clients stop hardcoding the split.
    """
    return {kind: KIND_REGISTRY[kind].as_dict() for kind in sorted(KIND_REGISTRY)}
