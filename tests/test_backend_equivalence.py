"""Property tests: the fast kernel backend ≡ the object backend.

For every enumerator with a ``backend`` switch, the two backends must
produce *identical ordered solution streams* on integer-compact
instances (the engine's relabeled normal form) — not just the same
solution sets.  Every fast leg runs twice, once per sweep strategy
(:data:`conftest.FAST_STRATEGIES`), so both the scalar and the bitset
sweeps are held to the oracle whatever density hypothesis draws.
Hypothesis drives random multigraph instances through all six core
enumerators plus the path layer, and separately checks the kernel's
delete/contract/restore cycle round-trips exactly.
"""

from itertools import islice

from hypothesis import given, settings, strategies as st

from conftest import FAST_STRATEGIES, sweep_strategy
from repro.core.directed_steiner import enumerate_minimal_directed_steiner_trees
from repro.core.induced_paths import enumerate_chordless_st_paths
from repro.core.induced_steiner import enumerate_minimal_induced_steiner_subgraphs
from repro.core.steiner_forest import enumerate_minimal_steiner_forests
from repro.core.steiner_tree import (
    enumerate_minimal_steiner_trees,
    enumerate_minimal_steiner_trees_simple,
)
from repro.core.group_steiner import enumerate_minimal_group_steiner_trees_brute
from repro.core.minimum_enum import enumerate_minimum_steiner_trees_dp
from repro.core.terminal_steiner import enumerate_minimal_terminal_steiner_trees
from repro.exceptions import NoSolutionError
from repro.graphs.digraph import DiGraph
from repro.hypergraph.dualization import enumerate_minimal_transversals_fk
from repro.hypergraph.hypergraph import Hypergraph
from repro.graphs.fastgraph import FastGraph
from repro.graphs.graph import Graph
from repro.graphs.linegraph import line_graph
from repro.paths.read_tarjan import (
    enumerate_set_paths,
    enumerate_set_paths_directed,
    enumerate_st_paths_undirected,
)

CAP = 400  # per-instance solution cap keeps worst cases bounded


def _streams_equal(factory):
    """Drain the object backend and the fast one under each sweep
    strategy (capped) and assert identical order."""
    reference = list(islice(factory("object"), CAP))
    for strategy in FAST_STRATEGIES:
        with sweep_strategy(strategy):
            assert list(islice(factory("fast"), CAP)) == reference, strategy
    return reference


@st.composite
def undirected_instances(draw):
    """A small integer-compact multigraph plus a vertex sample."""
    n = draw(st.integers(min_value=2, max_value=9))
    m = draw(st.integers(min_value=1, max_value=18))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    sample = draw(st.permutations(range(n)))[:k]
    return Graph.from_edges(edges, vertices=range(n)), list(sample)


@st.composite
def directed_instances(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=16))
    arcs = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            arcs.append((u, v))
    order = draw(st.permutations(range(n)))
    return DiGraph.from_arcs(arcs, vertices=range(n)), list(order)


@settings(max_examples=60, deadline=None)
@given(undirected_instances())
def test_steiner_tree_streams_identical(case):
    graph, terminals = case
    _streams_equal(
        lambda backend: enumerate_minimal_steiner_trees(
            graph, terminals, backend=backend
        )
    )


@settings(max_examples=30, deadline=None)
@given(undirected_instances())
def test_steiner_tree_simple_streams_identical(case):
    graph, terminals = case
    _streams_equal(
        lambda backend: enumerate_minimal_steiner_trees_simple(
            graph, terminals, backend=backend
        )
    )


@settings(max_examples=50, deadline=None)
@given(undirected_instances())
def test_steiner_forest_streams_identical(case):
    graph, terminals = case
    families = [terminals[:2], terminals[1:]] if len(terminals) > 2 else [terminals]
    _streams_equal(
        lambda backend: enumerate_minimal_steiner_forests(
            graph, families, backend=backend
        )
    )


@settings(max_examples=50, deadline=None)
@given(undirected_instances())
def test_terminal_steiner_streams_identical(case):
    graph, terminals = case
    if len(terminals) < 2:
        terminals = list(range(2))
    _streams_equal(
        lambda backend: enumerate_minimal_terminal_steiner_trees(
            graph, terminals, backend=backend
        )
    )


@settings(max_examples=50, deadline=None)
@given(directed_instances())
def test_directed_steiner_streams_identical(case):
    digraph, order = case
    root, terminals = order[0], order[1:3]
    _streams_equal(
        lambda backend: enumerate_minimal_directed_steiner_trees(
            digraph, terminals, root, backend=backend
        )
    )


@settings(max_examples=40, deadline=None)
@given(undirected_instances())
def test_induced_steiner_streams_identical(case):
    """Line graphs are claw-free, so Theorem 42's precondition holds."""
    base, sample = case
    lg = line_graph(base)
    if lg.num_vertices < 2:
        return
    # Relabel the line graph (edge-labelled vertices) to compact ints.
    index = {v: i for i, v in enumerate(lg.vertices())}
    relabeled = Graph.from_edges(
        [(index[e.u], index[e.v]) for e in lg.edges()], vertices=range(len(index))
    )
    terminals = [i % relabeled.num_vertices for i in sample[:2]]
    _streams_equal(
        lambda backend: enumerate_minimal_induced_steiner_subgraphs(
            relabeled, terminals, backend=backend
        )
    )


@settings(max_examples=50, deadline=None)
@given(undirected_instances())
def test_chordless_path_streams_identical(case):
    graph, sample = case
    source, target = sample[0], sample[-1]
    _streams_equal(
        lambda backend: enumerate_chordless_st_paths(
            graph, source, target, backend=backend
        )
    )


@settings(max_examples=60, deadline=None)
@given(undirected_instances())
def test_st_path_streams_identical(case):
    graph, sample = case
    source, target = sample[0], sample[-1]
    _streams_equal(
        lambda backend: enumerate_st_paths_undirected(
            graph, source, target, backend=backend
        )
    )


@settings(max_examples=50, deadline=None)
@given(undirected_instances())
def test_set_path_streams_identical(case):
    graph, sample = case
    if len(sample) < 2:
        return
    sources = frozenset(sample[:-1])
    targets = (sample[-1],)
    _streams_equal(
        lambda backend: enumerate_set_paths(graph, sources, targets, backend=backend)
    )


@settings(max_examples=40, deadline=None)
@given(directed_instances())
def test_set_path_directed_streams_identical(case):
    digraph, order = case
    sources = frozenset(order[:2])
    targets = tuple(order[2:4]) or (order[-1],)
    if set(sources) & set(targets):
        return
    _streams_equal(
        lambda backend: enumerate_set_paths_directed(
            digraph, sources, targets, backend=backend
        )
    )


# ----------------------------------------------------------------------
# newly ported layers: ranked, datagraph, ZDD (PR 3)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(undirected_instances())
def test_group_steiner_brute_streams_identical(case):
    graph, terminals = case
    families = [terminals, terminals[:1] + [0]]
    _streams_equal(
        lambda backend: enumerate_minimal_group_steiner_trees_brute(
            graph, families, max_edges=4, backend=backend
        )
    )


@settings(max_examples=40, deadline=None)
@given(undirected_instances(), st.booleans())
def test_minimum_steiner_dp_streams_identical(case, unit_weights):
    graph, terminals = case
    weights = (
        None
        if unit_weights
        else {eid: 1.0 + (eid % 3) for eid in graph.edge_ids()}
    )

    def run(backend):
        try:
            return list(
                enumerate_minimum_steiner_trees_dp(
                    graph, terminals, weights, backend=backend
                )
            )
        except NoSolutionError:
            return "no-solution"

    assert run("object") == run("fast")


@st.composite
def hypergraph_instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ne = draw(st.integers(min_value=0, max_value=5))
    edges = []
    for _ in range(ne):
        k = draw(st.integers(min_value=1, max_value=n))
        edges.append(set(draw(st.permutations(range(n)))[:k]))
    return Hypergraph(range(n), edges)


@settings(max_examples=60, deadline=None)
@given(hypergraph_instances())
def test_fk_transversal_streams_identical(h):
    _streams_equal(
        lambda backend: enumerate_minimal_transversals_fk(h, backend=backend)
    )


@st.composite
def weighted_instances(draw):
    """An undirected instance plus weights drawn from a tiny value set,
    so duplicate total weights (ranked-order ties) are the norm."""
    graph, sample = draw(undirected_instances())
    values = st.sampled_from([1.0, 1.0, 2.0, 0.5])
    weights = {eid: draw(values) for eid in graph.edge_ids()}
    return graph, sample, weights


@settings(max_examples=40, deadline=None)
@given(weighted_instances(), st.integers(min_value=1, max_value=8))
def test_ranked_approx_streams_identical(case, lookahead):
    """Approximate-order ranked streams agree, including tie order
    (RANKED ORDER: weight, then canonical edge-id tuple)."""
    from repro.core.ranked import enumerate_approximately_by_weight

    graph, terminals, weights = case
    _streams_equal(
        lambda backend: enumerate_approximately_by_weight(
            graph, terminals, weights, lookahead=lookahead, backend=backend
        )
    )


@settings(max_examples=40, deadline=None)
@given(weighted_instances(), st.integers(min_value=1, max_value=6))
def test_ranked_topk_identical(case, k):
    from repro.core.ranked import k_lightest_minimal_steiner_trees

    graph, terminals, weights = case
    _streams_equal(
        lambda backend: iter(
            k_lightest_minimal_steiner_trees(
                graph, terminals, weights, k, backend=backend
            )
        )
    )


@settings(max_examples=40, deadline=None)
@given(undirected_instances())
def test_zdd_construction_identical(case):
    """The compiled ZDD — count, solution sets, iteration order — is
    backend-independent."""
    from repro.zdd.steiner import build_steiner_tree_zdd

    graph, terminals = case
    reference = build_steiner_tree_zdd(graph, terminals, backend="object")
    candidate = build_steiner_tree_zdd(graph, terminals, backend="fast")
    assert reference.count() == candidate.count()
    assert list(reference) == list(candidate)


@st.composite
def datagraph_instances(draw):
    """A small integer-node data graph with a 2-keyword query that is
    guaranteed to match."""
    from repro.datagraph.model import DataGraph

    n = draw(st.integers(min_value=3, max_value=8))
    m = draw(st.integers(min_value=2, max_value=14))
    alphabet = ["x", "y", "z"]
    dg = DataGraph()
    for v in range(n):
        kws = draw(st.lists(st.sampled_from(alphabet), max_size=2))
        dg.add_node(v, kws)
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            dg.add_link(u, v)
    dg.add_keywords(draw(st.integers(min_value=0, max_value=n - 1)), ["x"])
    dg.add_keywords(draw(st.integers(min_value=0, max_value=n - 1)), ["y"])
    return dg


@settings(max_examples=30, deadline=None)
@given(datagraph_instances())
def test_kfragment_streams_identical(dg):
    from repro.datagraph.kfragments import strong_kfragments, undirected_kfragments

    _streams_equal(
        lambda backend: undirected_kfragments(dg, ["x", "y"], backend=backend)
    )
    _streams_equal(
        lambda backend: strong_kfragments(dg, ["x", "y"], backend=backend)
    )


@settings(max_examples=20, deadline=None)
@given(datagraph_instances())
def test_directed_kfragment_streams_identical(dg):
    from repro.datagraph.kfragments import directed_kfragments

    root = next(iter(dg.graph.vertices()))
    _streams_equal(
        lambda backend: directed_kfragments(dg, ["x", "y"], root, backend=backend)
    )


@settings(max_examples=25, deadline=None)
@given(datagraph_instances(), st.integers(min_value=1, max_value=8))
def test_ranked_kfragment_streams_identical(dg, lookahead):
    from repro.datagraph.ranked import ranked_kfragments, top_k_weighted_fragments

    for model in ("uniform", "degree"):
        _streams_equal(
            lambda backend, m=model: ranked_kfragments(
                dg, ["x", "y"], model=m, lookahead=lookahead, backend=backend
            )
        )
        _streams_equal(
            lambda backend, m=model: iter(
                top_k_weighted_fragments(dg, ["x", "y"], 4, m, backend=backend)
            )
        )


@settings(max_examples=40, deadline=None)
@given(undirected_instances(), st.integers(min_value=0, max_value=20))
def test_midstream_limit_stops_identical(case, limit):
    """Stopping either backend after ``limit`` solutions yields the same
    truncated stream — cancellation points cannot diverge."""
    graph, terminals = case
    reference = list(
        islice(
            enumerate_minimal_steiner_trees(graph, terminals, backend="object"),
            limit,
        )
    )
    for strategy in FAST_STRATEGIES:
        with sweep_strategy(strategy):
            candidate = list(
                islice(
                    enumerate_minimal_steiner_trees(graph, terminals, backend="fast"),
                    limit,
                )
            )
        assert reference == candidate, strategy


@settings(max_examples=15, deadline=None)
@given(datagraph_instances(), st.integers(min_value=1, max_value=6))
def test_engine_limit_stops_identical_across_backends(dg, limit):
    """EnumerationJob limit stops truncate both backends at the same
    prefix, and a deadline stop is always a prefix of the full stream."""
    from dataclasses import replace

    from repro.engine.jobs import EnumerationJob, run_job

    job = EnumerationJob.kfragments(dg, ["x", "y"], limit=limit)
    by_backend = {}
    for backend in ("object", "fast"):
        by_backend[backend] = run_job(replace(job, backend=backend)).lines
    assert by_backend["object"] == by_backend["fast"]
    full = run_job(replace(job, limit=None, backend="fast")).lines
    assert full[:limit] == by_backend["fast"]
    # an expired deadline stops cleanly at a prefix on both backends
    for backend in ("object", "fast"):
        stopped = run_job(
            replace(job, limit=None, deadline=0.0, backend=backend)
        )
        assert tuple(stopped.lines) == full[: len(stopped.lines)]


@st.composite
def mutation_scripts(draw):
    """An instance plus a random delete/contract script."""
    graph, _sample = draw(undirected_instances())
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["remove", "contract"]), st.integers(0, 10**6)),
            min_size=1,
            max_size=8,
        )
    )
    return graph, ops


@settings(max_examples=60, deadline=None)
@given(mutation_scripts())
def test_delete_contract_restore_round_trip(case):
    """A kernel mutation batch rolls back to the byte-exact start state —
    including incidence order — and enumeration streams after the
    rollback are unchanged."""
    graph, ops = case
    terminals = sorted(graph.vertices())[:2]
    fg = FastGraph.from_graph(graph)
    before_inc = {v: list(fg.incident_ids(v)) for v in fg.vertices()}
    before_stream = list(
        islice(enumerate_minimal_steiner_trees(graph, terminals, backend="fast"), CAP)
    )
    mark = fg.checkpoint()
    for kind, pick in ops:
        alive = list(fg.edge_ids())
        if not alive:
            break
        eid = alive[pick % len(alive)]
        if kind == "remove":
            fg.remove_edge(eid)
        else:
            fg.contract_edge(eid)
    fg.rollback(mark)
    after_inc = {v: list(fg.incident_ids(v)) for v in fg.vertices()}
    assert before_inc == after_inc
    after_stream = list(
        islice(enumerate_minimal_steiner_trees(fg, terminals, backend="fast"), CAP)
    )
    assert before_stream == after_stream
