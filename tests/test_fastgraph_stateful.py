"""Stateful property tests for the fast kernel's undo-log invariants.

A hypothesis rule-based machine drives random interleavings of
``add_vertex`` / ``add_edge`` / ``remove_edge`` / ``remove_vertex`` /
``contract_edge`` / ``set_weight`` / ``checkpoint`` / ``rollback``
(including *nested* checkpoints) against two oracles:

* an **object graph** mirror (plus a weight dict) receiving the same
  mutations — the kernel must agree with it structurally (alive sets,
  endpoints, degrees, weights) after every rule;
* a **byte-exact snapshot** of the kernel's own internals taken at each
  checkpoint — a later rollback must restore it *exactly*, including
  per-vertex incidence order and the ``_posu``/``_posv`` swap-and-pop
  bookkeeping (DESIGN.md §3.2's "rollback is byte-exact" invariant).

The machine also checks the kernel's version-cached overlays — the
incidence pairs, the adjacency bit rows of the bitset sweeps, the base
forest — always describe the live kernel, never a stale version, and
that the base-forest-restricted spanning scan (the forcing lemma of
:func:`repro.graphs.fastgraph.fast_spanning_forest`) agrees with the
full greedy scan kept here as its oracle.

This is the stateful coverage the differential tests in
``test_backend_equivalence.py`` assume: those check that enumeration
streams agree *given* a healthy kernel; this machine checks the kernel
stays healthy under arbitrary mutation interleavings.
"""

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import NoSolutionError
from repro.graphs.fastgraph import (
    FastGraph,
    fast_minimal_steiner_completion,
    fast_spanning_forest,
)
from repro.graphs.graph import Graph
from repro.graphs.spanning import minimal_steiner_completion
from repro.paths import fastpaths

VERTICES = st.integers(min_value=0, max_value=7)
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.25, 7.0])


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def full_greedy_scan(fg: FastGraph, required=(), order=None):
    """The greedy spanning scan over *every* live edge (what
    ``fast_spanning_forest`` did before the forcing lemma restricted
    it), in ``order`` (default: the kernel's scan order).  Returns the
    chosen set and the vertex partition as a set of frozensets."""
    parent = list(range(fg.n_space))
    chosen = set()
    for eid in required:
        u, v = fg.endpoints(eid)
        ru, rv = _find(parent, u), _find(parent, v)
        assert ru != rv
        parent[ru] = rv
        chosen.add(eid)
    for eid in fg.edge_ids() if order is None else order:
        if eid in chosen:
            continue
        u, v = fg.endpoints(eid)
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            chosen.add(eid)
    return chosen, partition(fg, parent)


def partition(fg: FastGraph, parent) -> set:
    groups = {}
    for v in fg.vertices():
        groups.setdefault(_find(parent, v), set()).add(v)
    return {frozenset(g) for g in groups.values()}


def reverse_forest_prefix(fg: FastGraph, k: int = 2) -> list:
    """An acyclic ``required`` set that mostly avoids the base forest:
    the first edges of the greedy forest scanned in reverse order."""
    forest, _ = full_greedy_scan(fg, order=list(fg.edge_ids())[::-1])
    return [eid for eid in reversed(list(fg.edge_ids())) if eid in forest][:k]


def kernel_fingerprint(fg: FastGraph) -> dict:
    """Everything rollback promises to restore, byte for byte."""
    return {
        "n": fg.num_vertices,
        "m": fg.num_edges,
        "vorder": list(fg.vertices()),
        "eorder": list(fg.edge_ids()),
        "endpoints": {eid: fg.endpoints(eid) for eid in fg.edge_ids()},
        "inc": {v: list(fg.incident_ids(v)) for v in fg.vertices()},
        "posu": {eid: fg._posu[eid] for eid in fg.edge_ids()},
        "posv": {eid: fg._posv[eid] for eid in fg.edge_ids()},
        "wf": {eid: fg._wf[eid] for eid in fg.edge_ids()},
        "wi": {eid: fg._wi[eid] for eid in fg.edge_ids()},
    }


class FastGraphMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.fg = FastGraph()
        self.oracle = Graph()  # structural oracle
        self.weights = {}  # eid -> weight oracle
        # stack of (undo mark, kernel fingerprint, oracle copy, weights copy)
        self.marks = []

    # -- mutations ------------------------------------------------------
    @rule(v=VERTICES)
    def add_vertex(self, v):
        self.fg.add_vertex(v)
        self.oracle.add_vertex(v)

    @rule(u=VERTICES, v=VERTICES, w=WEIGHTS)
    def add_edge(self, u, v, w):
        if u == v:
            return
        eid = self.fg.add_edge(u, v)
        self.oracle.add_edge(u, v, eid=eid)
        self.fg.set_weight(eid, w)
        self.weights[eid] = float(w)

    @precondition(lambda self: self.fg.num_edges > 0)
    @rule(data=st.data(), w=WEIGHTS)
    def set_weight(self, data, w):
        eid = data.draw(st.sampled_from(sorted(self.fg.edge_ids())))
        self.fg.set_weight(eid, w)
        self.weights[eid] = float(w)

    @precondition(lambda self: self.fg.num_edges > 0)
    @rule(data=st.data())
    def remove_edge(self, data):
        eid = data.draw(st.sampled_from(sorted(self.fg.edge_ids())))
        u, v = self.fg.remove_edge(eid)
        assert {u, v} == set(self.oracle.endpoints(eid))
        self.oracle.remove_edge(eid)
        self.weights.pop(eid, None)

    @precondition(lambda self: self.fg.num_vertices > 0)
    @rule(data=st.data())
    def remove_vertex(self, data):
        v = data.draw(st.sampled_from(sorted(self.fg.vertices())))
        self.fg.remove_vertex(v)
        self.oracle.remove_vertex(v)
        live = set(self.oracle.edge_ids())
        self.weights = {e: w for e, w in self.weights.items() if e in live}

    @precondition(lambda self: self.fg.num_edges > 0)
    @rule(data=st.data())
    def contract_edge(self, data):
        eid = data.draw(st.sampled_from(sorted(self.fg.edge_ids())))
        u, v = self.fg.endpoints(eid)
        survivor = self.fg.contract_edge(eid)
        loser = v if survivor == u else u
        # Mirror on the object oracle: re-point the loser's edges at the
        # survivor (parallel edges become self-loops and are dropped).
        self.oracle.remove_edge(eid)
        self.weights.pop(eid, None)
        for other_eid in list(self.oracle.incident_ids(loser)):
            a, b = self.oracle.endpoints(other_eid)
            other = b if a == loser else a
            self.oracle.remove_edge(other_eid)
            if other == survivor:
                self.weights.pop(other_eid, None)
            else:
                self.oracle.add_edge(survivor, other, eid=other_eid)
        self.oracle.remove_vertex(loser)

    # -- checkpoint / rollback (nested) ---------------------------------
    @rule()
    def checkpoint(self):
        self.marks.append(
            (
                self.fg.checkpoint(),
                kernel_fingerprint(self.fg),
                self.oracle.copy(),
                dict(self.weights),
            )
        )

    @precondition(lambda self: self.marks)
    @rule(data=st.data())
    def rollback(self, data):
        # Roll back to a random (possibly outer) checkpoint, discarding
        # the nested ones above it — the nested-checkpoint case.
        depth = data.draw(st.integers(min_value=0, max_value=len(self.marks) - 1))
        mark, fingerprint, oracle, weights = self.marks[depth]
        del self.marks[depth:]
        self.fg.rollback(mark)
        assert kernel_fingerprint(self.fg) == fingerprint, (
            "rollback did not restore the byte-exact checkpoint state"
        )
        self.oracle = oracle
        self.weights = weights

    # -- invariants (kernel ≡ object oracle, structurally) --------------
    @invariant()
    def counts_match(self):
        assert self.fg.num_vertices == self.oracle.num_vertices
        assert self.fg.num_edges == self.oracle.num_edges

    @invariant()
    def structure_matches(self):
        assert set(self.fg.vertices()) == set(self.oracle.vertices())
        assert set(self.fg.edge_ids()) == set(self.oracle.edge_ids())
        for eid in self.fg.edge_ids():
            assert set(self.fg.endpoints(eid)) == set(self.oracle.endpoints(eid))
        for v in self.fg.vertices():
            assert self.fg.degree(v) == self.oracle.degree(v)
            assert set(self.fg.incident_ids(v)) == set(self.oracle.incident_ids(v))

    @invariant()
    def weights_match(self):
        for eid in self.fg.edge_ids():
            expected = self.weights.get(eid, 0.0)
            assert self.fg.weight(eid) == expected
            wi = self.fg._wi[eid]
            if float(expected).is_integer():
                assert wi == int(expected)
            else:
                assert wi is None

    @invariant()
    def position_bookkeeping_consistent(self):
        fg = self.fg
        for eid in fg.edge_ids():
            u, v = fg.endpoints(eid)
            assert fg._inc[u][fg._posu[eid]] == eid
            assert fg._inc[v][fg._posv[eid]] == eid

    @invariant()
    def caches_rebuild_consistently(self):
        fg = self.fg
        pairs = fg.incidence_pairs()
        for v in fg.vertices():
            expected = [(e, fg._esum[e] - v) for e in fg._inc[v]]
            assert pairs[v] == expected

    @invariant()
    def bit_rows_describe_live_kernel(self):
        fg = self.fg
        rows = fg.bit_rows()
        assert fg.bit_rows() is rows  # cached while the version holds
        adj, deg = rows
        assert len(adj) == len(deg) == fg.n_space
        for v in range(fg.n_space):
            others = [fg._esum[e] - v for e in fg._inc[v]]
            assert adj[v] == sum({1 << w for w in others})
            assert deg[v] == len(others)

    @invariant()
    def base_forest_is_the_greedy_scan(self):
        fg = self.fg
        forest = fg.base_forest()
        assert fg.base_forest() is forest  # cached while the version holds
        chosen, _ = full_greedy_scan(fg)
        assert set(forest) == chosen
        scan_order = [e for e in fg.edge_ids() if e in chosen]
        assert forest == scan_order

    @invariant()
    def restricted_scan_matches_full_scan(self):
        fg = self.fg
        for required in ((), reverse_forest_prefix(fg)):
            chosen, parent = fast_spanning_forest(fg, required=required)
            assert (chosen, partition(fg, parent)) == full_greedy_scan(fg, required)


FastGraphMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestFastGraphMachine = FastGraphMachine.TestCase


@st.composite
def completion_instances(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    m = draw(st.integers(min_value=1, max_value=18))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    terminals = draw(st.permutations(range(n)))[:k]
    return Graph.from_edges(edges, vertices=range(n)), list(terminals)


@settings(max_examples=80, deadline=None)
@given(completion_instances())
def test_completion_identical_to_object(case):
    """The restricted-scan completion equals the object backend's
    Lemma 13 completion, on the full instance and with a required
    partial forest that mostly avoids the base forest."""
    graph, terminals = case
    fg = FastGraph.from_graph(graph)

    def run(fn, g, partial):
        try:
            return fn(g, terminals, partial_eids=partial)
        except NoSolutionError:
            return "no-solution"

    for partial in ((), reverse_forest_prefix(fg)):
        assert run(fast_minimal_steiner_completion, fg, partial) == run(
            minimal_steiner_completion, graph, partial
        )


def test_large_moderate_degree_kernel_stays_scalar():
    """n = 20,000 at average degree 30 clears the degree threshold, but
    its bit rows (n^2 / 8 bytes) would outgrow the incidence lists: the
    context takes the scalar sweeps and the kernel builds no bit rows."""
    n = 20_000
    fg = FastGraph.from_edges(
        [(v, (v + k) % n) for k in range(1, 16) for v in range(n)], vertices=range(n)
    )
    assert 2 * fg.num_edges == 30 * fg.num_vertices
    assert 30 >= fastpaths.BITSET_MIN_DEGREE
    machine = fastpaths.fast_st_path_search(fg, 0, n // 2)
    assert machine.ctx.bits is None
    assert machine.ctx.backward is fastpaths._backward_und_plain
    assert machine.next_path() is not None
    assert fg._bits is None
    # the same degree on a small kernel takes the bitset sweeps
    small = FastGraph.from_edges(
        [(v, (v + k) % 100) for k in range(1, 16) for v in range(100)]
    )
    assert fastpaths.fast_st_path_search(small, 0, 50).ctx.bits is not None
    assert small._bits is not None


def test_rollback_restores_order_after_revive():
    """Pinned machine counterexample: removing a vertex/edge and re-adding
    it inside a checkpoint scope used to leave the revived id at the
    *end* of the iteration order after rollback instead of its original
    position (the undo log never restored the order tombstone)."""
    fg = FastGraph.from_edges([(0, 1), (1, 2), (0, 2)])
    mark = fg.checkpoint()
    fg.remove_vertex(0)
    fg.add_vertex(0)
    fg.add_edge(0, 1, eid=0)  # revive a dead edge id with new endpoints
    fg.rollback(mark)
    assert list(fg.vertices()) == [0, 1, 2]
    assert list(fg.edge_ids()) == [0, 1, 2]
    assert fg.endpoints(0) == (0, 1)
    assert [list(fg.incident_ids(v)) for v in (0, 1, 2)] == [[0, 2], [0, 1], [1, 2]]


def test_total_weight_matches_tree_weight_order():
    """total_weight must reproduce tree_weight's float result exactly
    (same additions, same order) — the ranked contract's foundation."""
    from repro.core.optimum import tree_weight

    fg = FastGraph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    mapping = {0: 0.1, 1: 0.2, 2: 0.30000000000000004, 3: 7.0, 4: 1e-9}
    fg.load_weights(mapping)
    for eids in [frozenset(), frozenset({0}), frozenset({0, 1, 2}),
                 frozenset({0, 1, 2, 3, 4})]:
        assert fg.total_weight(eids) == tree_weight(mapping, eids)
    assert fg.exact_total_weight(frozenset({3})) == 7
    assert fg.exact_total_weight(frozenset({0, 3})) is None


def test_weighted_contraction_folds_parallel_minima():
    from repro.graphs.fastgraph import contracted_kernel_weighted

    # 0-1 contracted; parallel bundle between {0,1} and 2 folds to the
    # lightest edge (id 2, weight 0.5); tie on {0,1}-3 keeps smaller id.
    fg = FastGraph.from_edges(
        [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    )
    fg.load_weights({0: 1.0, 1: 2.0, 2: 0.5, 3: 4.0, 4: 4.0, 5: 9.0})
    ck, vmap = contracted_kernel_weighted(fg, [0])
    assert vmap[0] == vmap[1]
    kept = sorted(ck.edge_ids())
    assert kept == [2, 3, 5]  # min of {1,2}, min-id of tied {3,4}, lone 5
    assert ck.weight(2) == 0.5 and ck.weight(3) == 4.0 and ck.weight(5) == 9.0
    assert ck.exact_total_weight(frozenset({3, 5})) == 13
