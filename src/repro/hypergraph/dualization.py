"""Fredman–Khachiyan hypergraph dualization (the paper's reference [13]).

Section 6 of the paper reduces minimal group Steiner tree enumeration to
Minimal Transversal Enumeration and notes that the best known
algorithm for the latter is Fredman and Khachiyan's quasi-polynomial
duality test.  This module implements that machinery:

* :func:`minimize_antichain` — prune a set family to its inclusion-minimal
  members;
* :func:`fk_witness` — the FK "algorithm A" recursion: decide whether two
  antichains ``F`` and ``G`` are *dual* (``G`` is exactly the family of
  minimal transversals of ``F``); on failure return a witness set ``X``
  with ``f(X) ≠ ¬g(U \\ X)``;
* :func:`are_dual` — boolean convenience wrapper;
* :func:`enumerate_minimal_transversals_fk` — incremental transversal
  enumeration driven by the duality test: each failed test yields a
  witness whose complement minimizes to a *new* minimal transversal, the
  textbook incremental-polynomial enumeration loop.

The recursion here favours clarity over the last log factor (sets are
frozensets, subfamilies are rebuilt per call); the quasi-polynomial
branching variable choice — the most frequent variable — is kept, so the
recursion-depth behaviour matches the published algorithm.  For bulk
workloads :func:`repro.hypergraph.hypergraph.enumerate_minimal_transversals`
(Berge multiplication) is usually faster in Python; the tests cross-check
the two on hundreds of random instances.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.exceptions import InvalidInstanceError
from repro.graphs.fastgraph import check_backend
from repro.hypergraph.hypergraph import Hypergraph

Element = Hashable
SetFamily = Tuple[FrozenSet[Element], ...]


def _order_key(value: Element):
    return (repr(value), str(type(value)))


def minimize_antichain(family: Iterable[Iterable[Element]]) -> SetFamily:
    """Inclusion-minimal members of a set family, deduplicated.

    Order of the result is deterministic (by size, then repr).

    Examples
    --------
    >>> [sorted(s) for s in minimize_antichain([{1, 2}, {1}, {2, 3}])]
    [[1], [2, 3]]
    """
    sets = sorted({frozenset(s) for s in family}, key=lambda s: (len(s), sorted(map(repr, s))))
    kept: List[FrozenSet[Element]] = []
    for cand in sets:
        if not any(k <= cand for k in kept):
            kept.append(cand)
    return tuple(kept)


def _most_frequent_element(family_f: SetFamily, family_g: SetFamily) -> Element:
    counts: dict = {}
    for fam in (family_f, family_g):
        for s in fam:
            for x in s:
                counts[x] = counts.get(x, 0) + 1
    return max(counts, key=lambda x: (counts[x], _order_key(x)))


def fk_witness(
    family_f: Iterable[Iterable[Element]],
    family_g: Iterable[Iterable[Element]],
    universe: Iterable[Element],
) -> Optional[FrozenSet[Element]]:
    """Fredman–Khachiyan duality test with witness extraction.

    ``family_f`` and ``family_g`` are treated as antichains (they are
    minimized internally).  Returns ``None`` when ``family_g`` is exactly
    the family of minimal transversals of ``family_f`` restricted to the
    given universe; otherwise returns a *witness* ``X ⊆ universe`` on
    which duality fails, i.e. exactly one of the following is violated:

    * ``f(X)`` — some member of ``family_f`` is a subset of ``X``;
    * ``g(universe \\ X)`` — some member of ``family_g`` avoids ``X``.

    Duality demands exactly one of the two on every ``X``; the witness
    has both or neither.

    Examples
    --------
    >>> fk_witness([{1, 2}], [{1}, {2}], {1, 2}) is None
    True
    >>> sorted(fk_witness([{1, 2}], [{1}], {1, 2}))
    [1]
    """
    u = frozenset(universe)
    f = minimize_antichain(family_f)
    g = minimize_antichain(family_g)
    for fam in (f, g):
        for s in fam:
            if not s <= u:
                raise InvalidInstanceError(f"set {set(s)!r} leaves the universe")
    return _fk(f, g, u)


def _fk(
    f: SetFamily, g: SetFamily, universe: FrozenSet[Element]
) -> Optional[FrozenSet[Element]]:
    # --- constant cases -------------------------------------------------
    if not f:
        # f ≡ 0, dual g must be ≡ 1, i.e. G = {∅}.
        if g == (frozenset(),):
            return None
        if not g:
            return universe  # neither f(U) nor g(∅)
        # g has only non-empty members: X = U gives f(U)=0 and g(∅)=0.
        return universe
    if f[0] == frozenset():
        # f ≡ 1 (minimized family led by ∅), dual g must be ≡ 0.
        if not g:
            return None
        # both f(X) and g(U\X) hold for X = U \ B, any B ∈ g.
        return universe - g[0]
    if not g:
        # f ≢ 0 but g ≡ 0: some transversal is missing.  X = U \ T for a
        # greedy transversal T: f(X)=0 because X misses T∩A ≠ ∅... build
        # directly: X = U minus one element per set of f.
        hit = {min(s, key=_order_key) for s in f}
        return universe - frozenset(hit)
    if g[0] == frozenset():
        # g ≡ 1 but f ≢ 0: witness X = A for any A ∈ f (both true).
        return f[0]

    # --- pairwise intersection (soundness of g) -------------------------
    for a in f:
        for b in g:
            if not (a & b):
                # f(A)=1 and B ⊆ U\A so g(U\A)=1: both true on X = A.
                return a

    # --- small base cases ------------------------------------------------
    if len(f) == 1:
        a = f[0]
        # tr({A}) = singletons of A; g ⊆ that family iff every B ∈ g is a
        # singleton of A (intersection + minimality make |B|=1 possible
        # only); duality iff g covers *all* singletons of A.
        singles = {frozenset([x]) for x in a}
        extra = [b for b in g if b not in singles]
        if extra:
            # B intersects A but is not a singleton subset: pick x in A∩B,
            # X = U \ {x} falsifies both (since B ⊄ {x} for all B? not
            # necessarily) — handle by deferring to the generic recursion.
            pass
        else:
            missing = [x for x in sorted(a, key=_order_key) if frozenset([x]) not in set(g)]
            if not missing:
                return None
            return universe - frozenset([missing[0]])
    if len(g) == 1 and len(f) > 1:
        # Duality is symmetric: test (g, f) and complement the witness.
        y = _fk(g, f, universe)
        return None if y is None else universe - y

    # --- FK recursion on the most frequent variable ----------------------
    v = _most_frequent_element(f, g)
    rest = universe - {v}
    f1 = tuple(a - {v} for a in f if v in a)
    f0 = tuple(a for a in f if v not in a)
    g1 = tuple(b - {v} for b in g if v in b)
    g0 = tuple(b for b in g if v not in b)

    # Condition A: (f1 ∨ f0) dual to g0 on universe \ {v}.
    y = _fk(minimize_antichain(f1 + f0), minimize_antichain(g0), rest)
    if y is not None:
        return y | {v}
    # Condition B: f0 dual to (g1 ∨ g0) on universe \ {v}.
    y = _fk(minimize_antichain(f0), minimize_antichain(g1 + g0), rest)
    if y is not None:
        return y
    return None


def are_dual(
    family_f: Iterable[Iterable[Element]],
    family_g: Iterable[Iterable[Element]],
    universe: Iterable[Element],
) -> bool:
    """True iff ``family_g`` is exactly the minimal transversals of ``family_f``.

    Examples
    --------
    >>> are_dual([{1, 2}, {2, 3}], [{2}, {1, 3}], {1, 2, 3})
    True
    >>> are_dual([{1, 2}, {2, 3}], [{2}], {1, 2, 3})
    False
    """
    return fk_witness(family_f, family_g, universe) is None


def _minimize_transversal(
    edges: Sequence[FrozenSet[Element]], transversal: FrozenSet[Element]
) -> FrozenSet[Element]:
    """Greedily shrink a transversal to a minimal one (deterministic)."""
    current = set(transversal)
    for x in sorted(transversal, key=_order_key):
        trimmed = current - {x}
        if all(trimmed & e for e in edges):
            current = trimmed
    return frozenset(current)


# ----------------------------------------------------------------------
# bitmask backend
# ----------------------------------------------------------------------
# Elements are ranked by ``_order_key`` and sets become single-int
# bitmasks, so every set operation of the FK recursion (subset tests,
# intersections, the antichain sort, the greedy transversal trim) is one
# integer instruction.  Bit ``i`` carries rank ``i``, which makes
# ascending-bit iteration coincide with the object backend's
# ``_order_key``-sorted iteration — every tie-break lands on the same
# element, so the witness sequence (and hence the transversal stream)
# is byte-identical.


def _bits_ascending(mask: int) -> Iterator[int]:
    while mask:
        low = mask & (-mask)
        mask ^= low
        yield low.bit_length() - 1


@lru_cache(maxsize=1 << 16)
def _mask_bits(mask: int) -> Tuple[int, ...]:
    """Ascending bit positions of ``mask``, memoized.

    The FK recursion re-sorts the same masks thousands of times; caching
    the expansion turns the antichain sort key into a dict hit.
    """
    return tuple(_bits_ascending(mask))


def _mask_key(mask: int) -> Tuple[int, Tuple[int, ...]]:
    bits = _mask_bits(mask)
    return (len(bits), bits)


def _minimize_masks(family: Iterable[int]) -> Tuple[int, ...]:
    """Bitmask form of :func:`minimize_antichain` (same result order)."""
    sets = sorted(set(family), key=_mask_key)
    kept: List[int] = []
    for cand in sets:
        for k in kept:
            if k & cand == k:
                break
        else:
            kept.append(cand)
    return tuple(kept)


def _most_frequent_bit(f: Tuple[int, ...], g: Tuple[int, ...]) -> int:
    counts: Dict[int, int] = {}
    get = counts.get
    for fam in (f, g):
        for m in fam:
            for x in _mask_bits(m):
                counts[x] = get(x, 0) + 1
    return max(counts, key=lambda x: (counts[x], x))


def _fk_masks(f: Tuple[int, ...], g: Tuple[int, ...], universe: int) -> Optional[int]:
    """Bitmask mirror of :func:`_fk` (identical witness decisions)."""
    if not f:
        if g == (0,):
            return None
        return universe
    if f[0] == 0:
        if not g:
            return None
        return universe & ~g[0]
    if not g:
        hit = 0
        for m in f:
            hit |= m & (-m)
        return universe & ~hit
    if g[0] == 0:
        return f[0]

    for a in f:
        for b in g:
            if not (a & b):
                return a

    if len(f) == 1:
        a = f[0]
        if all(b.bit_count() == 1 for b in g):
            gset = set(g)
            for x in _bits_ascending(a):
                if (1 << x) not in gset:
                    return universe & ~(1 << x)
            return None
    if len(g) == 1 and len(f) > 1:
        y = _fk_masks(g, f, universe)
        return None if y is None else universe & ~y

    v = _most_frequent_bit(f, g)
    bit = 1 << v
    rest = universe & ~bit
    f1 = tuple(a & ~bit for a in f if a & bit)
    f0 = tuple(a for a in f if not (a & bit))
    g1 = tuple(b & ~bit for b in g if b & bit)
    g0 = tuple(b for b in g if not (b & bit))

    y = _fk_masks(_minimize_masks(f1 + f0), _minimize_masks(g0), rest)
    if y is not None:
        return y | bit
    y = _fk_masks(_minimize_masks(f0), _minimize_masks(g1 + g0), rest)
    if y is not None:
        return y
    return None


def _minimize_transversal_masks(edges: Tuple[int, ...], transversal: int) -> int:
    current = transversal
    for x in _bits_ascending(transversal):
        trimmed = current & ~(1 << x)
        if all(trimmed & e for e in edges):
            current = trimmed
    return current


def _fast_fk_transversals(hypergraph: Hypergraph) -> Iterator[FrozenSet[Element]]:
    """Bitmask backend of :func:`enumerate_minimal_transversals_fk`."""
    elements = sorted(hypergraph.universe, key=_order_key)
    rank = {e: i for i, e in enumerate(elements)}
    universe = (1 << len(elements)) - 1

    def to_mask(members) -> int:
        m = 0
        for e in members:
            m |= 1 << rank[e]
        return m

    edges = _minimize_masks(to_mask(e) for e in hypergraph.edges)
    if not edges:
        yield frozenset()
        return
    found: List[int] = []
    while True:
        witness = _fk_masks(edges, _minimize_masks(found), universe)
        if witness is None:
            return
        transversal = _minimize_transversal_masks(edges, universe & ~witness)
        if transversal in found:  # pragma: no cover - defensive guard
            raise AssertionError("FK witness produced a repeated transversal")
        found.append(transversal)
        yield frozenset(elements[i] for i in _bits_ascending(transversal))


def enumerate_minimal_transversals_fk(
    hypergraph: Hypergraph,
    backend: str = "object",
) -> Iterator[FrozenSet[Element]]:
    """Incremental minimal-transversal enumeration via FK duality tests.

    The loop maintains the family ``G`` of transversals found so far and
    asks :func:`fk_witness` whether ``G`` is complete.  A witness ``X``
    satisfies "``universe \\ X`` is a transversal containing no member of
    ``G``", so minimizing it yields a provably new minimal transversal.
    This is the classic reduction from dualization to enumeration; the
    delay between solutions is one duality test (quasi-polynomial), i.e.
    the enumeration is incremental quasi-polynomial overall — exactly the
    state of the art the paper's Section 6 refers to.

    Examples
    --------
    >>> h = Hypergraph([1, 2, 3], [{1, 2}, {2, 3}])
    >>> [sorted(t) for t in enumerate_minimal_transversals_fk(h)]
    [[2], [1, 3]]
    """
    backend = check_backend(backend, kind="fk-dualization")
    if backend == "fast":
        yield from _fast_fk_transversals(hypergraph)
        return
    universe = frozenset(hypergraph.universe)
    edges = minimize_antichain(hypergraph.edges)
    if not edges:
        yield frozenset()
        return
    found: List[FrozenSet[Element]] = []
    while True:
        witness = _fk(edges, minimize_antichain(found), universe)
        if witness is None:
            return
        transversal = _minimize_transversal(edges, universe - witness)
        if transversal in found:  # pragma: no cover - defensive guard
            raise AssertionError("FK witness produced a repeated transversal")
        found.append(transversal)
        yield transversal


def count_minimal_transversals_fk(
    hypergraph: Hypergraph, backend: str = "object"
) -> int:
    """Number of minimal transversals, via the FK enumeration loop."""
    return sum(
        1 for _ in enumerate_minimal_transversals_fk(hypergraph, backend=backend)
    )
