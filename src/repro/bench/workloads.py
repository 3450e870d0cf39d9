"""Workload definitions shared by the benchmark files.

Each experiment in DESIGN.md §3 sweeps instance size (``n + m``) and,
where the claim demands it, the number of terminals ``t``.  Sizes are
chosen so that every instance has *many more solutions than its size*
(delay claims are vacuous otherwise) while the full harness still runs in
minutes on a laptop.  All instances are deterministic in the seed.
"""

from __future__ import annotations

from typing import Hashable, List, NamedTuple, Tuple

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    grid_graph,
    random_bipartite_terminal_instance,
    random_connected_graph,
    random_rooted_digraph,
    random_terminals,
    theta_graph,
)
from repro.graphs.graph import Graph

Vertex = Hashable


class SteinerInstance(NamedTuple):
    """An undirected instance with a terminal list."""

    name: str
    graph: Graph
    terminals: List[Vertex]

    @property
    def size(self) -> int:
        """``n + m``."""
        return self.graph.size


class ForestInstance(NamedTuple):
    """A Steiner-forest instance with terminal families."""

    name: str
    graph: Graph
    families: List[List[Vertex]]

    @property
    def size(self) -> int:
        """``n + m``."""
        return self.graph.size


class DirectedInstance(NamedTuple):
    """A directed instance with root + terminals."""

    name: str
    digraph: DiGraph
    terminals: List[Vertex]
    root: Vertex

    @property
    def size(self) -> int:
        """``n + m``."""
        return self.digraph.size


#: (n, extra edge) sweep used by the size-scaling experiments.
SIZE_SWEEP: Tuple[Tuple[int, int], ...] = (
    (30, 20),
    (60, 40),
    (120, 80),
    (240, 160),
    (480, 320),
)

#: terminal-count sweep at fixed size (delay should NOT scale with t).
TERMINAL_SWEEP: Tuple[int, ...] = (2, 4, 8, 16)


def steiner_tree_size_sweep(seed: int = 2022, terminals: int = 4) -> List[SteinerInstance]:
    """T1-st: random connected graphs of growing size, fixed |W|."""
    out = []
    for n, extra in SIZE_SWEEP:
        g = random_connected_graph(n, extra, seed + n)
        w = random_terminals(g, terminals, seed + n + 1)
        out.append(SteinerInstance(f"rand(n={n},m={g.num_edges})", g, w))
    return out


def dense_vector_instance(
    n: int = 480, extra: int = 40000, seed: int = 2502
) -> SteinerInstance:
    """T-dense: the pinned dense instance behind the dense-pair gate.

    The fast backend's bitset sweeps gain over scalar sweeps with
    average degree (one Python-int OR consumes a whole adjacency row),
    so the aggregate dense gate in ``benchmarks/bench_trajectory.py``
    pins a dense instance instead of reusing the sparse size sweep,
    where the intrinsic ratio is only ~2x.
    """
    g = random_connected_graph(n, extra, seed)
    w = random_terminals(g, 4, seed + 1)
    return SteinerInstance(f"dense(n={n},m={g.num_edges})", g, w)


def steiner_tree_terminal_sweep(
    seed: int = 2022, n: int = 120, extra: int = 80
) -> List[SteinerInstance]:
    """T1-st: fixed size, growing |W| (delay must stay flat)."""
    g = random_connected_graph(n, extra, seed)
    out = []
    for t in TERMINAL_SWEEP:
        w = random_terminals(g, t, seed + t)
        out.append(SteinerInstance(f"rand(n={n},t={t})", g, w))
    return out


#: (n, extra edge) sweep for experiments that must drain the FULL
#: solution set (tree-shape and output-queue tables): solution counts
#: stay in the tens-to-thousands range so a complete traversal is cheap.
SHAPE_SWEEP: Tuple[Tuple[int, int], ...] = (
    (12, 6),
    (18, 9),
    (24, 12),
    (30, 15),
)


def tree_shape_sweep(seed: int = 2022, terminals: int = 4) -> List[SteinerInstance]:
    """F1-tree: instances small enough to walk the whole enumeration tree.

    The structural claims (every internal node of the improved tree has
    ≥ 2 children; the queue regulator never starves) are per-node
    invariants, so small full traversals witness them exactly; the big
    :data:`SIZE_SWEEP` instances have 10^5–10^7 solutions and are
    reserved for the delay experiments that cap the solution count.
    """
    out = []
    for n, extra in SHAPE_SWEEP:
        g = random_connected_graph(n, extra, seed + n)
        w = random_terminals(g, terminals, seed + n + 1)
        out.append(SteinerInstance(f"rand(n={n},m={g.num_edges})", g, w))
    return out


def steiner_tree_grid_instance(rows: int = 4, cols: int = 5) -> SteinerInstance:
    """A small grid with opposite corners: dense solution space."""
    g = grid_graph(rows, cols)
    return SteinerInstance(
        f"grid{rows}x{cols}", g, [(0, 0), (rows - 1, cols - 1)]
    )


def path_theta_sweep() -> List[Tuple[str, Graph, Vertex, Vertex]]:
    """T1-paths: theta graphs — solution count fixed, size growing."""
    out = []
    for k, length in ((8, 4), (8, 16), (8, 64), (8, 256)):
        g = theta_graph(k, length)
        out.append((f"theta(k={k},len={length})", g, "s", "t"))
    return out


def path_grid_sweep() -> List[Tuple[str, Graph, Vertex, Vertex]]:
    """T1-paths: grids — huge solution count, small size."""
    out = []
    for rows, cols in ((3, 4), (3, 6), (4, 5)):
        g = grid_graph(rows, cols)
        out.append((f"grid{rows}x{cols}", g, (0, 0), (rows - 1, cols - 1)))
    return out


def forest_size_sweep(seed: int = 2022, pairs: int = 3) -> List[ForestInstance]:
    """T1-sf: random graphs with ``pairs`` random terminal pairs."""
    from repro.graphs.generators import random_terminal_pairs

    out = []
    for n, extra in SIZE_SWEEP:
        g = random_connected_graph(n, extra, seed + n)
        fams = [list(p) for p in random_terminal_pairs(g, pairs, seed + n + 7)]
        out.append(ForestInstance(f"rand(n={n},m={g.num_edges})", g, fams))
    return out


def terminal_steiner_size_sweep(
    seed: int = 2022, terminals: int = 4
) -> List[SteinerInstance]:
    """T1-tst: independent-terminal instances of growing size."""
    out = []
    for n, extra in SIZE_SWEEP:
        g, w = random_bipartite_terminal_instance(n, terminals, extra, seed + n)
        out.append(SteinerInstance(f"core(n={n},t={terminals})", g, w))
    return out


def forced_tail_instance(num_diamonds: int, tail_terminals: int) -> SteinerInstance:
    """Adversarial instance exposing the prior work's |W|·|T_i| delay factor.

    A chain of ``num_diamonds`` diamonds from ``s`` to a junction (2^D
    minimal trees) followed by a forced path of ``tail_terminals``
    terminal vertices.  Unimproved branching walks the forced tail one
    terminal at a time between solutions (delay ~ t·(n+m)); the improved
    algorithm recognises the unique completion in one linear-time step
    (Lemma 16), so its delay is independent of the tail length.
    """
    from repro.graphs.generators import gadget_chain

    g, s, junction = gadget_chain(num_diamonds)
    terminals: List[Vertex] = [s]
    prev = junction
    for i in range(tail_terminals):
        p = ("tail", i)
        g.add_edge(prev, p)
        terminals.append(p)
        prev = p
    return SteinerInstance(
        f"forced(d={num_diamonds},t={tail_terminals})", g, terminals
    )


#: tail lengths for the forced-tail terminal sweep.
FORCED_TAIL_SWEEP: Tuple[int, ...] = (2, 4, 8, 16, 32)


def directed_size_sweep(seed: int = 2022, terminals: int = 4) -> List[DirectedInstance]:
    """T1-dst: rooted digraphs of growing size, fixed |W|."""
    import random as _random

    out = []
    for n, extra in SIZE_SWEEP:
        d = random_rooted_digraph(n, extra, seed + n, root=0)
        rng = _random.Random(seed + n + 3)
        w = rng.sample(range(1, n), terminals)
        out.append(DirectedInstance(f"rand(n={n},m={d.num_arcs})", d, w, 0))
    return out


def directed_terminal_sweep(
    seed: int = 2022, n: int = 120, extra: int = 80
) -> List[DirectedInstance]:
    """T1-dst: fixed size, growing t — prior work pays O(mt·|T_i|), the
    paper's delay is t-independent."""
    import random as _random

    d = random_rooted_digraph(n, extra, seed, root=0)
    out = []
    for t in TERMINAL_SWEEP:
        rng = _random.Random(seed + t)
        w = rng.sample(range(1, n), t)
        out.append(DirectedInstance(f"rand(n={n},t={t})", d, w, 0))
    return out
