"""Shared fixtures and instance builders for the test suite."""

from __future__ import annotations

import json
import math
import os
import random
from contextlib import contextmanager
from typing import Iterator, List, NamedTuple, Optional

import pytest

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.paths import fastpaths

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: The fast backend's two sweep strategies.  The density rule would put
#: small test instances on the scalar side, so the differential walls
#: run every fast leg once per strategy with the rule's threshold forced.
FAST_STRATEGIES = ("bitset", "scalar")


@contextmanager
def sweep_strategy(strategy: str) -> Iterator[None]:
    """Force the fast backend's sweep strategy inside the block.

    Contexts are built lazily, so a stream must be drained inside the
    block for the forced strategy to apply to all of it.
    """
    threshold = {"bitset": 0, "scalar": math.inf}[strategy]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastpaths, "BITSET_MIN_DEGREE", threshold)
        yield


@pytest.fixture(params=FAST_STRATEGIES)
def fast_strategy(request) -> Iterator[str]:
    """Run the test once per fast sweep strategy (the object backend
    ignores the threshold, so whole tests can run under it)."""
    with sweep_strategy(request.param):
        yield request.param


class CorpusCase(NamedTuple):
    """One regression-corpus instance (see tests/corpus/README.md)."""

    name: str
    description: str
    graph: Graph
    terminals: List[int]
    weights: dict
    keywords: Optional[dict]  # node -> keyword list, or None
    query: Optional[List[str]]
    expected_solutions: int
    expected_fragments: Optional[int]

    def datagraph(self):
        """The instance as a DataGraph (keyword corpora only)."""
        from repro.datagraph.model import DataGraph

        dg = DataGraph()
        for v in self.graph.vertices():
            dg.add_node(v, (self.keywords or {}).get(str(v), []))
        for edge in self.graph.edges():
            dg.add_link(edge.u, edge.v)
        return dg


def load_corpus() -> List[CorpusCase]:
    """Load every pinned instance from tests/corpus/*.json."""
    cases = []
    for fname in sorted(os.listdir(CORPUS_DIR)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(CORPUS_DIR, fname)) as fh:
            raw = json.load(fh)
        graph = Graph.from_edges(
            [tuple(e) for e in raw["edges"]], vertices=range(raw["num_vertices"])
        )
        cases.append(
            CorpusCase(
                name=raw["name"],
                description=raw["description"],
                graph=graph,
                terminals=list(raw["terminals"]),
                weights={int(k): v for k, v in raw.get("weights", {}).items()},
                keywords=raw.get("keywords"),
                query=raw.get("query"),
                expected_solutions=raw["expected_solutions"],
                expected_fragments=raw.get("expected_fragments"),
            )
        )
    assert cases, "regression corpus is empty"
    return cases


def random_simple_graph(rng: random.Random, max_n: int = 7, p: float = 0.5) -> Graph:
    """A random simple undirected graph on 2..max_n vertices."""
    n = rng.randint(2, max_n)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(edges, vertices=range(n))


def random_simple_digraph(rng: random.Random, max_n: int = 6, p: float = 0.4) -> DiGraph:
    """A random simple digraph on 2..max_n vertices."""
    n = rng.randint(2, max_n)
    arcs = [
        (u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p
    ]
    return DiGraph.from_arcs(arcs, vertices=range(n))


@pytest.fixture
def triangle_with_tail() -> Graph:
    """A triangle a-b-c plus pendant edge c-d; the smallest graph with both
    a cycle and a bridge."""
    return Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])


@pytest.fixture
def diamond() -> Graph:
    """s-a-t / s-b-t: two internally disjoint s-t paths."""
    return Graph.from_edges([("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")])


@pytest.fixture
def two_triangles_bridge() -> Graph:
    """Two triangles joined by one bridge (classic bridge test case)."""
    return Graph.from_edges(
        [
            ("a", "b"), ("b", "c"), ("c", "a"),
            ("c", "d"),
            ("d", "e"), ("e", "f"), ("f", "d"),
        ]
    )


@pytest.fixture
def rooted_dag() -> DiGraph:
    """A small rooted digraph with branching used by directed tests."""
    return DiGraph.from_arcs(
        [
            ("r", "a"), ("r", "b"),
            ("a", "w1"), ("b", "w1"),
            ("a", "w2"), ("b", "w2"),
        ]
    )
