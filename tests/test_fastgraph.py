"""Unit tests for the integer graph kernel (repro.graphs.fastgraph)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    EdgeNotFound,
    InvalidInstanceError,
    NoSolutionError,
    SelfLoopError,
    VertexNotFound,
)
from repro.graphs.bridges import find_bridges, two_edge_connected_components
from repro.graphs.fastgraph import (
    ConnectivityIndex,
    FastDiGraph,
    FastGraph,
    compile_directed,
    compile_undirected,
    contracted_kernel,
    contracted_kernel_directed,
    fast_bridges,
    fast_component_labels,
    fast_minimal_steiner_completion,
    fast_prune_non_terminal_leaves,
    fast_spanning_tree_edges,
    is_integer_compact,
)
from repro.graphs.generators import random_connected_graph
from repro.graphs.graph import Graph
from repro.graphs.spanning import (
    minimal_steiner_completion,
    prune_non_terminal_leaves,
    spanning_tree_edges,
)


def _random_multigraph(rng, n, m):
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            g.add_edge(u, v)
    return g


def _assert_same_structure(g: Graph, fg: FastGraph):
    assert list(g.vertices()) == list(fg.vertices())
    assert [e.eid for e in g.edges()] == [e.eid for e in fg.edges()]
    assert g.num_vertices == fg.num_vertices
    assert g.num_edges == fg.num_edges
    for v in g.vertices():
        assert list(g.incident_ids(v)) == list(fg.incident_ids(v))
        assert list(g.neighbors(v)) == list(fg.neighbors(v))
        assert g.neighbor_set(v) == fg.neighbor_set(v)
        assert g.degree(v) == fg.degree(v)
        assert list(g.incident_items(v)) == list(fg.incident_items(v))
    for eid in g.edge_ids():
        assert g.endpoints(eid) == fg.endpoints(eid)
    assert g.edge_endpoint_multiset() == fg.edge_endpoint_multiset()


class TestProtocolParity:
    def test_compile_preserves_structure_and_order(self):
        rng = random.Random(7)
        for _ in range(20):
            g = _random_multigraph(rng, rng.randrange(1, 9), rng.randrange(0, 16))
            _assert_same_structure(g, FastGraph.from_graph(g))

    def test_mirrors_graph_mutations(self):
        """The same add/remove sequence leaves both structures identical."""
        rng = random.Random(13)
        for _ in range(15):
            g = Graph()
            fg = FastGraph()
            for step in range(40):
                op = rng.random()
                if op < 0.55 or g.num_edges == 0:
                    u = rng.randrange(8)
                    v = rng.randrange(8)
                    if u == v:
                        continue
                    eid = g.add_edge(u, v)
                    assert fg.add_edge(u, v, eid=eid) == eid
                else:
                    eid = rng.choice(list(g.edge_ids()))
                    assert g.remove_edge(eid) == fg.remove_edge(eid)
                    if rng.random() < 0.4:
                        # Re-adding a removed id appends at the end, like
                        # the object graph's dict semantics.
                        u, v = rng.randrange(8), rng.randrange(8)
                        if u != v:
                            g.add_edge(u, v, eid=eid)
                            fg.add_edge(u, v, eid=eid)
            # Orders may legally differ after swap-and-pop removal; the
            # object graph preserves insertion order while the kernel
            # fills the hole.  Structure (sets/multisets) must agree.
            assert set(g.vertices()) == set(fg.vertices())
            assert set(g.edge_ids()) == set(fg.edge_ids())
            assert g.edge_endpoint_multiset() == fg.edge_endpoint_multiset()
            for v in g.vertices():
                assert set(g.incident_ids(v)) == set(fg.incident_ids(v))

    def test_errors_match_object_graph(self):
        fg = FastGraph.from_graph(Graph.from_edges([(0, 1), (1, 2)]))
        with pytest.raises(SelfLoopError):
            fg.add_edge(1, 1)
        with pytest.raises(EdgeNotFound):
            fg.remove_edge(99)
        with pytest.raises(EdgeNotFound):
            fg.endpoints(99)
        with pytest.raises(VertexNotFound):
            fg.degree(42)
        with pytest.raises(VertexNotFound):
            list(fg.neighbors("x"))
        with pytest.raises(ValueError):
            fg.add_edge(0, 2, eid=0)
        with pytest.raises(InvalidInstanceError):
            FastGraph.from_graph(Graph.from_edges([("a", "b")]))

    def test_derived_graphs(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
        fg = FastGraph.from_graph(g)
        sub = fg.subgraph([0, 1, 2])
        assert isinstance(sub, Graph)
        assert sorted(sub.edge_ids()) == [0, 1, 2]
        esub = fg.edge_subgraph([0, 3])
        assert sorted(esub.edge_ids()) == [0, 3]
        without = fg.without_vertices([3])
        assert sorted(without.edge_ids()) == [0, 1, 2]
        d = fg.to_directed()
        assert d.num_arcs == 2 * g.num_edges
        again = fg.as_graph()
        _assert_same_structure(again, fg)
        cp = fg.copy()
        cp.remove_edge(0)
        assert fg.has_edge_id(0) and not cp.has_edge_id(0)

    def test_is_integer_compact(self):
        assert is_integer_compact(Graph.from_edges([(0, 1), (1, 2)]))
        assert not is_integer_compact(Graph.from_edges([(0, 2)]))
        assert not is_integer_compact(Graph.from_edges([("a", "b")]))

    def test_compile_relabels_non_compact(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        fg, index = compile_undirected(g)
        assert index == {"a": 0, "b": 1, "c": 2}
        assert sorted(fg.edge_ids()) == [0, 1]
        fg2, index2 = compile_undirected(fg)
        assert fg2 is fg and index2 is None


def _slots(fg: FastGraph) -> dict:
    """Every slot's value; the order dicts as item lists, so their order
    counts."""
    values = {name: getattr(fg, name) for name in FastGraph.__slots__}
    return {k: list(v.items()) if isinstance(v, dict) else v for k, v in values.items()}


class TestFromEdges:
    """``FastGraph.from_edges`` builds, without an object graph, the
    kernel ``from_graph(Graph.from_edges(...))`` compiles."""

    @given(
        st.integers(0, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
                    .filter(lambda e: e[0] != e[1]),
                    max_size=0 if n < 2 else 30,
                ),
            )
        ),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_slot_identical_to_compiling_an_object_graph(self, case, listed):
        n, edges = case  # parallel edges and isolated vertices included
        vertices = range(n) if listed else ()
        expected = FastGraph.from_graph(Graph.from_edges(edges, vertices=vertices))
        assert _slots(FastGraph.from_edges(edges, vertices)) == _slots(expected)

    def test_corpus_and_empty_graph(self):
        from conftest import load_corpus

        for case in load_corpus():
            edges = [(e.u, e.v) for e in case.graph.edges()]
            expected = FastGraph.from_graph(Graph.from_edges(edges, range(len(case.graph))))
            got = FastGraph.from_edges(edges, range(len(case.graph)))
            assert _slots(got) == _slots(expected), case.name
        assert _slots(FastGraph.from_edges([])) == _slots(FastGraph.from_graph(Graph()))

    def test_self_loop_and_bad_vertex_raise_like_the_object_path(self):
        with pytest.raises(SelfLoopError):
            FastGraph.from_edges([(0, 1), (2, 2)])
        with pytest.raises(InvalidInstanceError):
            FastGraph.from_edges([(0, -1)])
        with pytest.raises(InvalidInstanceError):
            FastGraph.from_edges([(0, 1)], vertices=["a"])


class TestUndoLog:
    def test_rollback_restores_exact_incidence_order(self):
        rng = random.Random(99)
        for _ in range(30):
            g = _random_multigraph(rng, rng.randrange(2, 9), rng.randrange(1, 18))
            fg = FastGraph.from_graph(g)
            before = {v: list(fg.incident_ids(v)) for v in fg.vertices()}
            mark = fg.checkpoint()
            eids = list(fg.edge_ids())
            if not eids:
                continue
            rng.shuffle(eids)
            for eid in eids[: rng.randrange(1, len(eids) + 1)]:
                if rng.random() < 0.3 and fg.has_edge_id(eid):
                    fg.contract_edge(eid)
                elif fg.has_edge_id(eid):
                    fg.remove_edge(eid)
            fg.rollback(mark)
            after = {v: list(fg.incident_ids(v)) for v in fg.vertices()}
            assert before == after
            _assert_same_structure(g, fg)

    def test_nested_checkpoints(self):
        fg = FastGraph.from_graph(Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)]))
        outer = fg.checkpoint()
        fg.remove_edge(1)
        inner = fg.checkpoint()
        fg.remove_edge(3)
        fg.rollback(inner)
        assert fg.has_edge_id(3) and not fg.has_edge_id(1)
        fg.rollback(outer)
        assert fg.num_edges == 4

    def test_contract_edge_merges_and_restores(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (0, 1)])
        fg = FastGraph.from_graph(g)
        mark = fg.checkpoint()
        survivor = fg.contract_edge(0)
        # The parallel (0,1) edge becomes a self-loop and is dropped;
        # the two (·,2) edges become parallel edges at the survivor.
        assert fg.num_vertices == 2
        assert sorted(fg.edge_ids()) == [1, 2]
        assert sorted(fg.edges_between(survivor, 2)) == [1, 2]
        fg.rollback(mark)
        _assert_same_structure(g, fg)

    def test_remove_vertex_logged(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        fg = FastGraph.from_graph(g)
        mark = fg.checkpoint()
        fg.remove_vertex(1)
        assert 1 not in fg and fg.num_edges == 1
        fg.rollback(mark)
        _assert_same_structure(g, fg)


class TestArrayAlgorithms:
    def test_bridges_match_object_backend(self):
        rng = random.Random(5)
        for _ in range(30):
            g = _random_multigraph(rng, rng.randrange(1, 10), rng.randrange(0, 18))
            fg = FastGraph.from_graph(g)
            assert fast_bridges(fg) == find_bridges(g)

    def test_component_labels(self):
        g = Graph.from_edges([(0, 1), (2, 3)], vertices=[4])
        labels = fast_component_labels(FastGraph.from_graph(g))
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert len({labels[0], labels[2], labels[4]}) == 3

    def test_spanning_and_prune_match_object_backend(self):
        rng = random.Random(23)
        for _ in range(25):
            g = _random_multigraph(rng, rng.randrange(2, 10), rng.randrange(1, 18))
            fg = FastGraph.from_graph(g)
            assert fast_spanning_tree_edges(fg) == spanning_tree_edges(g)
            tree = spanning_tree_edges(g)
            terminals = [v for v in g.vertices() if rng.random() < 0.4]
            assert fast_prune_non_terminal_leaves(
                fg, tree, terminals
            ) == prune_non_terminal_leaves(g, tree, terminals)

    def test_completion_matches_object_backend(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_connected_graph(rng.randrange(4, 12), rng.randrange(0, 8), rng.randrange(999))
            fg = FastGraph.from_graph(g)
            terminals = rng.sample(range(g.num_vertices), rng.randrange(1, 4))
            assert fast_minimal_steiner_completion(
                fg, terminals
            ) == minimal_steiner_completion(g, terminals)

    def test_completion_raises_on_disconnected_terminals(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        fg = FastGraph.from_graph(g)
        with pytest.raises(NoSolutionError):
            fast_minimal_steiner_completion(fg, [0, 2])

    def test_contracted_kernel_matches_contract_edges(self):
        from repro.graphs.contraction import contract_edges

        rng = random.Random(17)
        for _ in range(25):
            g = _random_multigraph(rng, rng.randrange(2, 9), rng.randrange(1, 16))
            fg = FastGraph.from_graph(g)
            eids = [e for e in g.edge_ids() if rng.random() < 0.4]
            ck, vmap = contracted_kernel(fg, eids)
            obj = contract_edges(g, eids)
            assert ck.num_vertices == obj.graph.num_vertices
            assert sorted(ck.edge_ids()) == sorted(obj.graph.edge_ids())
            # Same partition: two vertices merge in one iff in the other.
            for u in g.vertices():
                for v in g.vertices():
                    assert (vmap[u] == vmap[v]) == (
                        obj.vertex_map[u] == obj.vertex_map[v]
                    )
            # Surviving edges keep their global order.
            assert [e.eid for e in ck.edges()] == [e.eid for e in obj.graph.edges()]


class TestConnectivityIndex:
    def test_tracks_mutations_incrementally(self):
        rng = random.Random(41)
        for _ in range(10):
            g = _random_multigraph(rng, 10, 16)
            fg = FastGraph.from_graph(g)
            index = ConnectivityIndex(fg)
            for _step in range(25):
                if rng.random() < 0.5 and fg.num_edges:
                    fg.remove_edge(rng.choice(list(fg.edge_ids())))
                else:
                    u, v = rng.randrange(10), rng.randrange(10)
                    if u != v:
                        fg.add_edge(u, v)
                # Oracle: recompute everything from scratch.
                expected_bridges = fast_bridges(fg)
                expected_labels = fast_component_labels(fg)
                assert index.bridges() == expected_bridges
                for a in fg.vertices():
                    for b in fg.vertices():
                        assert index.same_component(a, b) == (
                            expected_labels[a] == expected_labels[b]
                        )

    def test_matches_object_bridge_analysis(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3)])
        fg = FastGraph.from_graph(g)
        index = ConnectivityIndex(fg)
        # Triangle + parallel pair: only the (2,3) edge is a bridge.
        assert index.bridges() == find_bridges(g) == {3}
        assert index.num_components == 1
        # Removing the bridge splits the graph like the 2ecc structure.
        fg.remove_edge(3)
        assert index.num_components == len(two_edge_connected_components(g))

    def test_rollback_then_query(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
        fg = FastGraph.from_graph(g)
        index = ConnectivityIndex(fg)
        assert len(index.bridges()) == 3
        mark = fg.checkpoint()
        fg.remove_edge(1)
        assert not index.same_component(0, 3)
        fg.rollback(mark)
        assert index.same_component(0, 3)
        assert index.bridges() == fast_bridges(fg)


class TestDirectedKernel:
    def test_from_digraph_parity(self):
        from repro.graphs.digraph import DiGraph

        rng = random.Random(3)
        for _ in range(20):
            d = DiGraph()
            for v in range(6):
                d.add_vertex(v)
            for _e in range(rng.randrange(0, 14)):
                u, v = rng.randrange(6), rng.randrange(6)
                if u != v:
                    d.add_arc(u, v)
            fd = FastDiGraph.from_digraph(d)
            assert list(d.vertices()) == list(fd.vertices())
            assert [a.aid for a in d.arcs()] == [a.aid for a in fd.arcs()]
            for v in d.vertices():
                assert list(d.out_items(v)) == list(fd.out_items(v))
                assert list(d.in_items(v)) == list(fd.in_items(v))
                assert d.out_degree(v) == fd.out_degree(v)
                assert d.in_degree(v) == fd.in_degree(v)

    def test_contracted_kernel_directed_identity_labels(self):
        from repro.graphs.digraph import DiGraph

        d = DiGraph.from_arcs([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        fd = FastDiGraph.from_digraph(d)
        ck, vmap = contracted_kernel_directed(fd, {0, 1})
        assert vmap[0] == vmap[1] == 0
        assert vmap[2] == 2 and vmap[3] == 3
        # Arc 0 (0->1) vanished inside the group; others survive.
        assert sorted(ck.arc_ids()) == [1, 2, 3, 4]

    def test_compile_directed_relabel(self):
        from repro.graphs.digraph import DiGraph

        d = DiGraph.from_arcs([("r", "x"), ("x", "w")])
        fd, index = compile_directed(d)
        assert index == {"r": 0, "x": 1, "w": 2}
        assert fd.arc_endpoints(0) == (0, 1)
