"""Tests for the ZDD substrate and the frontier Steiner construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.steiner_tree import enumerate_minimal_steiner_trees
from repro.core.verification import is_steiner_subgraph
from repro.exceptions import InvalidInstanceError
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_terminals,
    theta_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.spanning import is_tree, tree_leaves
from repro.zdd.steiner import (
    bfs_edge_order,
    build_steiner_tree_zdd,
    count_steiner_trees_zdd,
    enumerate_minimal_steiner_trees_zdd,
    spanning_tree_zdd,
)
from repro.zdd.zdd import BOTTOM, TOP, ZDDBuilder, family_zdd


class TestZDDSubstrate:
    def test_family_round_trip(self):
        sets = [{1, 2}, {2}, set(), {1, 3}]
        z = family_zdd(sets, [1, 2, 3])
        assert z.count() == 4
        assert {frozenset(s) for s in z} == {frozenset(s) for s in sets}

    def test_empty_family(self):
        z = family_zdd([], [1, 2])
        assert z.is_empty()
        assert z.count() == 0
        assert list(z) == []

    def test_unit_family(self):
        z = family_zdd([set()], [1])
        assert z.count() == 1
        assert list(z) == [frozenset()]

    def test_membership(self):
        z = family_zdd([{1, 2}, {3}], [1, 2, 3])
        assert {1, 2} in z
        assert {3} in z
        assert {1} not in z
        assert {1, 2, 3} not in z
        assert {99} not in z

    def test_min_size_and_histogram(self):
        z = family_zdd([{1, 2}, {3}, {1, 2, 3}], [1, 2, 3])
        assert z.min_size() == 1
        assert z.count_by_size() == {1: 1, 2: 1, 3: 1}

    def test_min_size_of_empty_family_raises(self):
        with pytest.raises(InvalidInstanceError):
            family_zdd([], [1]).min_size()

    def test_element_outside_universe_rejected(self):
        with pytest.raises(InvalidInstanceError):
            family_zdd([{9}], [1])

    def test_zero_suppression_shares_structure(self):
        builder = ZDDBuilder({7: 0})
        assert builder.make(7, TOP, BOTTOM) == TOP

    def test_hash_consing(self):
        builder = ZDDBuilder({5: 0, 6: 1})
        a = builder.make(6, BOTTOM, TOP)
        b = builder.make(6, BOTTOM, TOP)
        assert a == b

    def test_variable_order_enforced(self):
        builder = ZDDBuilder({5: 0, 6: 1})
        child = builder.make(5, BOTTOM, TOP)
        with pytest.raises(InvalidInstanceError):
            builder.make(6, child, TOP)


def bareiss_det(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination:
    every division is exact, so no rounding ever enters the oracle."""
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def matrix_tree_count(graph: Graph) -> int:
    """Kirchhoff's theorem: spanning tree count = any cofactor of the
    Laplacian.  Independent oracle for the ZDD construction."""
    vertices = sorted(graph.vertices(), key=repr)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[0] * n for _ in range(n)]
    for edge in graph.edges():
        i, j = index[edge.u], index[edge.v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    return bareiss_det([row[1:] for row in lap[1:]])


class TestSpanningTrees:
    @pytest.mark.parametrize(
        "graph, expected",
        [
            (cycle_graph(3), 3),
            (cycle_graph(5), 5),
            (complete_graph(4), 16),
            (complete_graph(5), 125),  # Cayley: 5^3
            (path_graph(6), 1),
        ],
    )
    def test_known_counts(self, graph, expected):
        assert spanning_tree_zdd(graph).count() == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_matrix_tree_theorem(self, seed):
        g = random_connected_graph(7, 6 + seed % 4, seed=seed)
        assert spanning_tree_zdd(g).count() == matrix_tree_count(g)

    def test_grid_graph(self):
        g = grid_graph(3, 3)
        assert spanning_tree_zdd(g).count() == 192
        assert matrix_tree_count(g) == 192

    def test_bareiss_determinant(self):
        assert bareiss_det([]) == 1
        assert bareiss_det([[7]]) == 7
        assert bareiss_det([[0, 1], [1, 0]]) == -1  # needs a pivot swap
        assert bareiss_det([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        assert matrix_tree_count(complete_graph(6)) == 6**4  # Cayley

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidInstanceError):
            spanning_tree_zdd(Graph())


class TestSteinerZDD:
    def test_doc_example(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        z = build_steiner_tree_zdd(g, ["a", "d"])
        assert sorted(sorted(s) for s in z) == [[0, 1, 3], [2, 3]]

    def test_single_terminal_minimal_is_bare_vertex(self):
        g = Graph.from_edges([(0, 1)])
        z = build_steiner_tree_zdd(g, [0])
        assert list(z) == [frozenset()]

    def test_single_terminal_nonminimal_counts_subtrees(self):
        # path 0-1-2: subtrees containing 0: {}, {01}, {01,12}
        g = path_graph(3)
        z = build_steiner_tree_zdd(g, [0], minimal=False)
        assert z.count() == 3

    def test_isolated_terminal_pair_infeasible(self):
        g = Graph.from_edges([(0, 1)], vertices=[2])
        assert build_steiner_tree_zdd(g, [0, 2]).is_empty()

    def test_isolated_single_terminal(self):
        g = Graph.from_edges([(0, 1)], vertices=[2])
        assert build_steiner_tree_zdd(g, [2], minimal=False).count() == 1

    def test_disconnected_terminals_infeasible(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert build_steiner_tree_zdd(g, [0, 3]).is_empty()

    def test_terminal_not_in_graph_rejected(self):
        with pytest.raises(InvalidInstanceError):
            build_steiner_tree_zdd(Graph.from_edges([(0, 1)]), [5])

    def test_no_terminals_rejected(self):
        with pytest.raises(InvalidInstanceError):
            build_steiner_tree_zdd(Graph.from_edges([(0, 1)]), [])

    def test_edgeless_graph_two_terminals(self):
        g = Graph.from_edges([], vertices=[0, 1])
        assert build_steiner_tree_zdd(g, [0, 1]).is_empty()

    def test_theta_graph_st_paths(self):
        # theta(3, 4): 3 internally disjoint s-t paths; minimal Steiner
        # trees of the two hubs are exactly those paths
        g = theta_graph(3, 4)
        z = build_steiner_tree_zdd(g, ["s", "t"])
        assert z.count() == 3

    def test_multiedges_counted_separately(self):
        g = Graph()
        g.add_edge("u", "v")
        g.add_edge("u", "v")
        z = build_steiner_tree_zdd(g, ["u", "v"])
        assert z.count() == 2

    def test_nonminimal_superset_of_minimal(self):
        g = random_connected_graph(8, 7, seed=4)
        terms = random_terminals(g, 3, seed=4)
        minimal = set(build_steiner_tree_zdd(g, terms, minimal=True))
        trees = set(build_steiner_tree_zdd(g, terms, minimal=False))
        assert minimal <= trees
        # filtering the tree family by all-leaves-terminal = minimal family
        filtered = set()
        for eids in trees:
            if all(leaf in set(terms) for leaf in tree_leaves(g, eids)):
                filtered.add(eids)
        assert filtered == minimal

    def test_explicit_edge_order_same_family(self):
        g = random_connected_graph(7, 6, seed=9)
        terms = random_terminals(g, 3, seed=9)
        default = set(build_steiner_tree_zdd(g, terms))
        reversed_order = sorted(g.edge_ids(), reverse=True)
        other = set(build_steiner_tree_zdd(g, terms, edge_order=reversed_order))
        assert default == other

    def test_bad_edge_order_rejected(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(InvalidInstanceError):
            build_steiner_tree_zdd(g, [0, 2], edge_order=[0])

    def test_count_helper(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
        assert count_steiner_trees_zdd(g, [0, 2]) == 2
        assert count_steiner_trees_zdd(g, [0, 2], minimal=False) == 4

    def test_every_member_is_a_steiner_tree(self):
        g = random_connected_graph(9, 9, seed=17)
        terms = random_terminals(g, 4, seed=17)
        for eids in build_steiner_tree_zdd(g, terms, minimal=False):
            sub = g.edge_subgraph(eids)
            assert is_tree(sub)
            assert is_steiner_subgraph(g, eids, terms)


class TestBfsEdgeOrder:
    def test_is_permutation(self):
        g = random_connected_graph(10, 12, seed=1)
        order = bfs_edge_order(g, 0)
        assert sorted(order) == sorted(g.edge_ids())

    def test_covers_disconnected_edges(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert sorted(bfs_edge_order(g, 0)) == [0, 1]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=9),
    extra=st.integers(min_value=0, max_value=8),
    t=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_zdd_equals_direct_enumeration(n, extra, t, seed):
    """The compiled family is exactly the linear-delay enumerator's output."""
    g = random_connected_graph(n, extra, seed=seed)
    terms = random_terminals(g, min(t, n), seed=seed)
    direct = {frozenset(s) for s in enumerate_minimal_steiner_trees(g, terms)}
    compiled = set(enumerate_minimal_steiner_trees_zdd(g, terms))
    assert compiled == direct


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    extra=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_spanning_count_matches_kirchhoff(n, extra, seed):
    g = random_connected_graph(n, extra, seed=seed)
    assert spanning_tree_zdd(g).count() == matrix_tree_count(g)
