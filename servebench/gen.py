"""Seeded workload generator: JSON-safe job specs for the served path.

Every instance is built from ``random.Random`` seeded with a string, so
one ``--seed`` gives the same specs in every process and on every host.
Vertex labels are the integers ``0..n-1`` after a seeded permutation:
JSON keeps ints as ints, so a spec survives the wire unchanged (the
repo's own ``terminal_steiner_size_sweep`` labels terminals ``('w', i)``,
which JSON turns into unhashable lists; see README.md).

Symmetry is controlled, not left to chance.  The engine canonicalises
every instance (``engine/cache.instance_key``) with an individualisation
search whose cost doubles with every pair of interchangeable vertices.
On the plain random-tree-plus-chords family that cost has a tail three
orders of magnitude above its median at n=240, so a run would
measure which seeds drew symmetric graphs.  The generator therefore
breaks every accidental symmetry (until colour refinement is discrete)
and then plants twin-leaf pairs: canonicalisation does ~2^(twins+1)
refinement passes on an instance.  The twin count is fixed per schedule
slot: the natural median at n=60 and n=120, and at n=240 the median in
eleven requests of a round and the measured p90 in the twelfth.  The
cost is then steady across seeds and every round carries the same tail.

The dense corpus is the same for every seed (a few data graphs queried
many times, as in keyword search); the seed draws the queries.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Sequence, Tuple

#: Kinds served on the cold workloads, in schedule order.
COLD_KINDS: Tuple[str, ...] = (
    "steiner-tree",
    "steiner-forest",
    "terminal-steiner",
    "directed-steiner",
    "st-path",
    "kfragments",
)

#: Kinds whose relabelled copies the store can serve (kfragments is not
#: relabelable).
WARM_KINDS: Tuple[str, ...] = COLD_KINDS[:5]

#: Sparse size classes in schedule order: (n, twin pairs planted); m is
#: about 1.66 n.  n=240 requests cost ~5x an n=60 one and carry most of
#: the per-instance variance, so they come once per five.
COLD_SIZES: Tuple[Tuple[int, int], ...] = (
    (60, 1), (120, 3), (60, 1), (120, 3), (240, 5),
)

#: Requests per round on the cold workloads: two passes over kinds x
#: size classes, so every round holds the same mix, 12 of it at n=240.
COLD_ROUND = 2 * len(COLD_KINDS) * len(COLD_SIZES)

#: Canonicalisation's tail, planted once per round.  On plain random
#: instances at n=240 canonicalising took a median of 41 ms and a tenth
#: of them about 0.9 s or more (README.md).  5 twin pairs cost ~47 ms;
#: request TAIL_INDEX of every round, an n=240 terminal-steiner request
#: (a kind that canonicalises; kfragments is keyed exactly), carries
#: TAIL_TWINS pairs instead, ~0.73 s: one n=240 request in twelve.
TAIL_INDEX = 26
TAIL_TWINS = 9

#: Exhaustible instances for the warm workload: (core n, chords, twins).
WARM_SIZES: Tuple[Tuple[int, int, int], ...] = ((40, 6, 1), (80, 8, 2))

#: Chords per kind on warm instances, relative to WARM_SIZES: solution
#: counts grow with the number of cycles at kind-specific rates, and a
#: candidate that does not exhaust under the cap is redrawn.
WARM_CHORD_SCALE = {
    "steiner-tree": 1.0,
    "steiner-forest": 0.75,
    "terminal-steiner": 0.25,
    "directed-steiner": 3.0,
    "st-path": 1.5,
}

COLD_LIMIT = 256
DENSE_LIMIT = 64  # one worker chunk: the first flush
DENSE_N = 240
DENSE_CHORDS = 10000  # ~35% of all pairs, the density of n=480, m=40k


def rng_for(seed: Any, *salt: Any) -> random.Random:
    """A generator keyed on ``seed`` and ``salt`` (string seeding is
    stable across processes, unlike ``hash``)."""
    return random.Random(":".join(map(str, (seed,) + salt)))


# ----------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------
def _refine(adj: Sequence[Sequence[int]]) -> List[int]:
    """Colour refinement from degrees to its fixed point."""
    colors = [len(a) for a in adj]
    classes = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in adj[v])))
            for v in range(len(adj))
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [palette[sig] for sig in sigs]
        if len(palette) == classes:
            return colors
        classes = len(palette)


def _break_symmetry(
    rng: random.Random, adj: List[set], anchors: Sequence[int], leaves: bool
) -> None:
    """Grow the graph until colour refinement separates every vertex.

    Each round gives one member of every non-singleton colour class a
    chord to a random ``anchors`` vertex or, with ``leaves``, a fresh
    pendant vertex (which adds no cycle, so solution counts stay put).
    """
    while True:
        colors = _refine([sorted(a) for a in adj])
        members: Dict[int, List[int]] = {}
        for v, c in enumerate(colors):
            members.setdefault(c, []).append(v)
        crowded = [vs for vs in members.values() if len(vs) > 1]
        if not crowded:
            return
        for vs in crowded:
            v = vs[0]
            if leaves:
                adj.append({v})
                adj[v].add(len(adj) - 1)
                continue
            while True:
                w = rng.choice(anchors)
                if w != v and w not in adj[v]:
                    break
            adj[v].add(w)
            adj[w].add(v)


def _tree_plus_chords(
    rng: random.Random, n: int, chords: int
) -> Tuple[List[set], List[Tuple[int, int]]]:
    """A random recursive tree on ``0..n-1`` plus ``chords`` extra edges.

    Returns the adjacency sets and the tree edges (parent, child).
    """
    adj: List[set] = [set() for _ in range(n)]
    tree = []
    for v in range(1, n):
        p = rng.randrange(v)
        adj[p].add(v)
        adj[v].add(p)
        tree.append((p, v))
    added = 0
    while added < chords:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            added += 1
    return adj, tree


def _plant_twins(
    rng: random.Random, adj: List[set], twins: int, avoid: Sequence[int]
) -> None:
    """Hang two fresh leaves off ``twins`` distinct vertices."""
    core = len(adj)
    # A parent with a pendant neighbour would make a class of three.
    eligible = [
        v
        for v in range(core)
        if v not in set(avoid) and all(len(adj[u]) > 1 for u in adj[v])
    ]
    parents = rng.sample(eligible, twins)
    for p in parents:
        for _ in range(2):
            leaf = len(adj)
            adj.append({p})
            adj[p].add(leaf)


def _relabel(rng: random.Random, n: int) -> List[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _edge_list(
    rng: random.Random, adj: Sequence[set], perm: Sequence[int]
) -> List[List[int]]:
    edges = [[perm[u], perm[v]] for u in range(len(adj)) for v in adj[u] if u < v]
    for e in edges:
        if rng.random() < 0.5:
            e.reverse()
    rng.shuffle(edges)
    return edges


def sparse_spec(
    seed: Any, index: Any, kind: str, n: int, twins: int, chords: int,
    limit: Any, leaves: bool = False,
) -> Dict[str, Any]:
    """One job spec of ``kind`` on a fresh sparse instance.

    ``n`` counts every vertex; the core (before twins and, for
    terminal-steiner, the terminal vertices) is built as a random tree
    plus ``chords`` chords, then made asymmetric.
    """
    rng = rng_for(seed, "sparse", index, kind, n)
    extra_terminals = 4 if kind == "terminal-steiner" else 0
    core = n - 2 * twins - extra_terminals
    adj, tree = _tree_plus_chords(rng, core, chords)
    anchors = list(range(core))
    terminals: List[int] = []
    if kind == "terminal-steiner":
        # Terminals form an independent set hung off 1-3 core vertices
        # (the paper's normal form after Lemma 27).
        for _ in range(extra_terminals):
            t = len(adj)
            adj.append(set())
            for a in rng.sample(anchors, rng.randint(1, 3)):
                adj[t].add(a)
                adj[a].add(t)
            terminals.append(t)
    _break_symmetry(rng, adj, anchors, leaves)
    picks = rng.sample(range(1, core), 6)
    _plant_twins(rng, adj, twins, avoid=picks + [0])
    total = len(adj)
    perm = _relabel(rng, total)
    spec: Dict[str, Any] = {"kind": kind, "backend": "fast"}
    if limit is not None:
        spec["limit"] = limit
    if kind == "directed-steiner":
        # Tree edges point away from the root (vertex 0), so every
        # vertex is reachable; chords get a random direction.
        tree_set = {(p, c) for p, c in tree}
        arcs = []
        for u in range(total):
            for v in adj[u]:
                if u < v:
                    if (u, v) in tree_set or v >= core:
                        arcs.append([perm[u], perm[v]])
                    elif (v, u) in tree_set:
                        arcs.append([perm[v], perm[u]])
                    elif rng.random() < 0.5:
                        arcs.append([perm[u], perm[v]])
                    else:
                        arcs.append([perm[v], perm[u]])
        rng.shuffle(arcs)
        spec["edges"] = arcs
        spec["root"] = perm[0]
        spec["terminals"] = [perm[v] for v in picks[:4]]
        return spec
    spec["edges"] = _edge_list(rng, adj, perm)
    if kind == "steiner-tree":
        spec["terminals"] = [perm[v] for v in picks[:4]]
    elif kind == "terminal-steiner":
        spec["terminals"] = [perm[t] for t in terminals]
    elif kind == "steiner-forest":
        spec["families"] = [
            [perm[picks[0]], perm[picks[1]]],
            [perm[picks[2]], perm[picks[3]]],
            [perm[picks[4]], perm[picks[5]]],
        ]
    elif kind == "st-path":
        spec["source"], spec["target"] = perm[picks[0]], perm[picks[1]]
    elif kind == "kfragments":
        # Keyword search (Kimelfeld-Sagiv): a few keywords, each on a
        # handful of nodes; the query asks for two of them.
        table: Dict[int, List[str]] = {}
        for k in range(4):
            for v in rng.sample(anchors, 3):
                table.setdefault(perm[v], []).append(f"k{k}")
        spec["node_keywords"] = sorted([v, sorted(kws)] for v, kws in table.items())
        spec["keywords"] = sorted(rng.sample(["k0", "k1", "k2", "k3"], 2))
    else:  # pragma: no cover - schedule only uses the kinds above
        raise ValueError(f"no generator for kind {kind!r}")
    return spec


def cold_specs(seed: Any, start: int = 0) -> Iterator[Dict[str, Any]]:
    """The endless cold schedule from request ``start`` on: kinds x size
    classes, round robin.

    The kind/size/twins pattern is fixed; only the graphs and queries
    depend on ``seed``, so every round of every run sees the same mix.
    """
    index = start
    while True:
        kind = COLD_KINDS[index % len(COLD_KINDS)]
        n, twins = COLD_SIZES[(index // len(COLD_KINDS)) % len(COLD_SIZES)]
        if index % COLD_ROUND == TAIL_INDEX:
            twins = TAIL_TWINS
        chords = round(0.66 * n)
        yield sparse_spec(seed, index, kind, n, twins, chords, COLD_LIMIT)
        index += 1


def warm_spec(seed: int, index: int, attempt: int) -> Dict[str, Any]:
    """Candidate ``attempt`` for warm instance ``index`` (no limit; the
    caller keeps the first candidate that exhausts under a cap)."""
    kind = WARM_KINDS[index % len(WARM_KINDS)]
    core, chords, twins = WARM_SIZES[(index // len(WARM_KINDS)) % len(WARM_SIZES)]
    extra = 4 if kind == "terminal-steiner" else 0
    return sparse_spec(
        seed, f"warm{index}.{attempt}", kind, core + 2 * twins + extra, twins,
        round(chords * WARM_CHORD_SCALE[kind]), None, leaves=True,
    )


def relabel_line(kind: str, line: str, pi: Dict[int, int]) -> str:
    """``line`` of an instance rendered for its image under ``pi``.

    Mirrors the engine's rendering: undirected edges print their
    endpoints in ``repr`` order, edge and arc sets sort by
    ``(repr(u), repr(v))``, paths keep their traversal order.
    """
    if kind == "st-path":
        return "->".join(str(pi[int(v)]) for v in line.split("->"))
    if line == "(single-vertex tree)":
        return line
    sep = "->" if kind == "directed-steiner" else "-"
    pairs = []
    for token in line.split(" "):
        a, b = token.split(sep)
        u, v = pi[int(a)], pi[int(b)]
        pairs.append((u, v) if sep == "->" else tuple(sorted((u, v), key=repr)))
    pairs.sort(key=lambda p: (repr(p[0]), repr(p[1])))
    return " ".join(f"{u}{sep}{v}" for u, v in pairs)


def relabelled(
    spec: Dict[str, Any], seed: int, index: int
) -> Tuple[Dict[str, Any], Dict[int, int]]:
    """An isomorphic copy of ``spec`` under a seeded permutation.

    Returns the copy and the vertex map (old label -> new label).
    """
    rng = rng_for(seed, "relabel", index)
    labels = sorted({v for e in spec["edges"] for v in e})
    image = list(labels)
    rng.shuffle(image)
    pi = dict(zip(labels, image))
    copy = dict(spec)
    copy["edges"] = [[pi[u], pi[v]] for u, v in spec["edges"]]
    rng.shuffle(copy["edges"])
    if "terminals" in spec:
        copy["terminals"] = [pi[v] for v in spec["terminals"]]
    if "families" in spec:
        copy["families"] = [[pi[v] for v in f] for f in spec["families"]]
    for key in ("root", "source", "target"):
        if key in spec:
            copy[key] = pi[spec[key]]
    return copy, pi


def dense_graphs(
    count: int, n: int = DENSE_N, extra: int = DENSE_CHORDS
) -> List[List[List[int]]]:
    """``count`` dense random graphs (tree + ``extra`` chords), like the
    repo's ``dense_vector_instance``.  The corpus does not depend on the
    workload seed: which graphs a seed drew once moved serve-dense's
    throughput by 15 %, while repeats of one seed agreed within 2 %."""
    graphs = []
    for g in range(count):
        rng = rng_for("corpus", "dense", g)
        adj, _tree = _tree_plus_chords(rng, n, min(extra, n * (n - 1) // 2 - n))
        graphs.append(_edge_list(rng, adj, _relabel(rng, n)))
    return graphs


def dense_specs(
    seed: int, datasets: Sequence[str], start: int = 0, n: int = DENSE_N
) -> Iterator[Dict[str, Any]]:
    """Endless steiner-tree / st-path queries naming the datasets, from
    query ``start`` on.

    Terminal sets are distinct per query; backends alternate
    fast / vector.
    """
    index = start
    while True:
        rng = rng_for(seed, "dense-query", index)
        name = datasets[index % len(datasets)]
        kind = ("steiner-tree", "st-path")[(index // 2) % 2]
        backend = ("fast", "vector")[index % 2]
        spec: Dict[str, Any] = {
            "kind": kind, "dataset": name, "backend": backend, "limit": DENSE_LIMIT,
        }
        picks = rng.sample(range(n), 4)
        if kind == "steiner-tree":
            spec["terminals"] = picks
        else:
            spec["source"], spec["target"] = picks[0], picks[1]
        yield spec
        index += 1
