"""Canonicalization: the twin-pruned search against the full search.

:func:`repro.engine.cache.canonical_signature` individualizes only the
first member of each twin class (same query role, same neighbour
multiset) at a branch.  :func:`reference_signature` below is the search
without that pruning; on every instance the full search finishes within
the budget, both must return the same ``(order, certificate)``, also on
near-twins colour refinement cannot split.  The remaining tests pin
what the pruning changes: twin-heavy instances that used to overrun the
budget now get relabel-stable keys, the budget fallback still fires on
symmetric twin-free instances, and a tiered cache canonicalizes a
request once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
import random
from typing import Dict, List, Optional

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.capabilities import kinds_where, spec as kind_spec
from repro.engine import cache as cache_mod
from repro.engine.cache import (
    _CANON_BUDGET,
    InstanceCache,
    _CanonBudgetExceeded,
    _refine,
    canonical_signature,
    instance_key,
)
from repro.engine.jobs import EnumerationJob, run_job
from repro.frontdoor.registry import DatasetRegistry, dataset_digest
from repro.jsonfile import write_atomic
from repro.serve.store import ResultStore, TieredCache

RELABELABLE = sorted(kinds_where(relabelable=True))


def _job_vertices_and_roles(job: EnumerationJob):
    """All instance vertices (edge endpoints, isolated vertices, then
    query vertices outside the graph) plus a query-role token each."""
    vertices: list = []
    seen = set()

    def add(v):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for u, v in job.edges:
        add(u)
        add(v)
    for v in job.vertices:
        add(v)
    roles: Dict = {v: () for v in vertices}
    for t in job.terminals:
        add(t)
        roles[t] = roles.get(t, ()) + ("T",)
    for i, family in enumerate(job.families):
        for t in family:
            add(t)
            roles[t] = roles.get(t, ()) + (("F", i),)
    for name in ("root", "source", "target"):
        v = getattr(job, name)
        if v is not None:
            add(v)
            roles[v] = roles.get(v, ()) + (name,)
    return vertices, {v: tuple(sorted(map(repr, roles[v]))) for v in vertices}


def reference_signature(job: EnumerationJob):
    """The individualization search with no twin pruning (test oracle)."""
    if not kind_spec(job.kind).relabelable:
        return None
    vertices, roles = _job_vertices_and_roles(job)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    directed = job.is_directed
    out_adj: List[List[int]] = [[] for _ in range(n)]
    in_adj: Optional[List[List[int]]] = [[] for _ in range(n)] if directed else None
    edge_pairs = []
    for u, v in job.edges:
        iu, iv = index[u], index[v]
        edge_pairs.append((iu, iv))
        out_adj[iu].append(iv)
        if in_adj is not None:
            in_adj[iv].append(iu)
        else:
            out_adj[iv].append(iu)
    role_palette = {r: i for i, r in enumerate(sorted(set(roles.values())))}
    budget = [_CANON_BUDGET]
    best: list = [None]

    def refine(colors):
        budget[0] -= 1
        if budget[0] < 0:
            raise _CanonBudgetExceeded
        return _refine(n, out_adj, in_adj, colors)

    def certificate(order):
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        role_seq = tuple(roles[vertices[v]] for v in order)
        if directed:
            enc = tuple(sorted((pos[a], pos[b]) for a, b in edge_pairs))
        else:
            enc = tuple(
                sorted((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in edge_pairs)
            )
        return (role_seq, enc)

    def search(colors):
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        cells = sorted((len(m), c) for c, m in classes.items() if len(m) > 1)
        if not cells:
            order = sorted(range(n), key=lambda v: colors[v])
            cert = certificate(order)
            if best[0] is None or cert < best[0][0]:
                best[0] = (cert, order)
            return
        for v in classes[cells[0][1]]:
            branched = list(colors)
            branched[v] = n
            search(refine(branched))

    try:
        search(refine([role_palette[roles[v]] for v in vertices]))
    except _CanonBudgetExceeded:
        return None
    cert, order = best[0]
    return ([vertices[v] for v in order], cert)


def relabeled(job: EnumerationJob, rng: random.Random) -> EnumerationJob:
    """An isomorphic copy: labels permuted, edges shuffled, undirected
    edges randomly reoriented."""
    labels = sorted(
        set(job.label_table()) | set(job.terminals) | {v for f in job.families for v in f}
        | {v for v in (job.root, job.source, job.target) if v is not None},
        key=repr,
    )
    image = list(labels)
    rng.shuffle(image)
    pi = dict(zip(labels, image))
    edges = [(pi[u], pi[v]) for u, v in job.edges]
    if not job.is_directed:
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(edges)

    def one(v):
        return None if v is None else pi[v]

    return dataclasses.replace(
        job,
        edges=tuple(edges),
        vertices=tuple(pi[v] for v in job.vertices),
        terminals=tuple(pi[v] for v in job.terminals),
        families=tuple(tuple(pi[v] for v in f) for f in job.families),
        root=one(job.root),
        source=one(job.source),
        target=one(job.target),
    )


def _blind_spot(edges: list, total: int, directed: bool) -> int:
    """Append near-twins that colour refinement cannot tell apart;
    returns the new vertex count.

    Colour refinement sees a union of short cycles as it sees one long
    cycle, though no automorphism maps one onto the other.  On digraphs
    each vertex of a 3- and a 4-cycle gets a pendant with one arc to a
    shared hub: the pendants share a colour and their out-neighbours,
    not their in-neighbours.  On graphs vertex i of two triangles and
    vertex i of a hexagon get two common neighbours with swapped edge
    multiplicities: equal neighbour *sets*, unequal multisets.  Pruning
    either kind of pair as twins loses the least certificate on some
    labelings.
    """
    if directed:
        cycles = _ring(edges, total, 3) + _ring(edges, total + 3, 4)
        hub = total + 7
        for i, c in enumerate(cycles, start=1):
            edges += [(c, hub + i), (hub + i, hub)]
        return hub + 1 + len(cycles)
    short = _ring(edges, total, 3) + _ring(edges, total + 3, 3)
    long = _ring(edges, total + 6, 6)
    total += 12
    for a, b in zip(short, long):
        edges += [(total, a), (total, a), (total, b)]
        edges += [(total + 1, a), (total + 1, b), (total + 1, b)]
        total += 2
    return total


def _ring(edges: list, start: int, length: int) -> List[int]:
    """Append a cycle on ``start .. start + length - 1``; its vertices."""
    ring = list(range(start, start + length))
    edges.extend((ring[i], ring[(i + 1) % length]) for i in range(length))
    return ring


@st.composite
def twin_instances(draw):
    """A small instance of a relabelable kind with planted twin groups.

    A random base multigraph (parallel edges and self-loops allowed)
    gets up to three groups of vertices that all share one neighbour
    multiset (out and in on digraphs).  Some groups also carry a
    self-loop each, which makes them symmetric but not twins; some are
    made terminals as a whole, so twins can share a query role.  Half
    the instances also get the near-twins of :func:`_blind_spot`.
    """
    kind = draw(st.sampled_from(RELABELABLE))
    directed = kind_spec(kind).directed
    n = draw(st.integers(min_value=2, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = [
        (draw(vertex), draw(vertex))
        for _ in range(draw(st.integers(min_value=0, max_value=12)))
    ]
    groups = []
    total = n
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        size = draw(st.integers(min_value=2, max_value=3))
        earlier = st.integers(min_value=0, max_value=total - 1)
        outs = draw(st.lists(earlier, max_size=3))
        ins = draw(st.lists(earlier, max_size=2)) if directed else []
        looped = draw(st.integers(min_value=0, max_value=3)) == 0
        members = list(range(total, total + size))
        total += size
        for t in members:
            edges.extend((t, w) for w in outs)
            edges.extend((w, t) for w in ins)
            if looped:
                edges.append((t, t))
        groups.append(members)
    if draw(st.booleans()):
        total = _blind_spot(edges, total, directed)
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=total - 1), min_size=2, max_size=4, unique=True)
    )
    if draw(st.booleans()):
        pool += [v for v in draw(st.sampled_from(groups)) if v not in pool]
    fields: dict = {"vertices": tuple(range(total))}
    if kind_spec(kind).result_shape == "path":
        fields.update(source=pool[0], target=pool[1])
    elif kind == "steiner-forest":
        cut = draw(st.integers(min_value=1, max_value=len(pool) - 1))
        fields["families"] = (tuple(pool[:cut]), tuple(pool[cut:]))
    else:
        fields["terminals"] = tuple(pool[1:] if directed else pool)
        if directed:
            fields["root"] = pool[0]
    job = EnumerationJob(kind=kind, edges=tuple(edges), **fields)
    return relabeled(job, random.Random(draw(st.integers(min_value=0, max_value=2**32))))


@settings(max_examples=150, deadline=None)
@given(twin_instances(), st.integers(min_value=0, max_value=2**32))
def test_pruned_search_equals_full_search(job, seed):
    reference = reference_signature(job)
    assume(reference is not None)  # the claim covers the old budget only
    assert canonical_signature(job) == reference
    # Relabeled copies agree on the tier and, being isomorphic, on the
    # certificate.
    copy = canonical_signature(relabeled(job, random.Random(seed)))
    assert copy is not None and copy[1] == reference[1]


@pytest.mark.parametrize("kind", ["steiner-tree", "directed-steiner"])
def test_near_twins_are_searched_on_every_labeling(kind):
    # The query sits on its own component, so nothing breaks the
    # near-twins' symmetry and the search branches on their cell first.
    directed = kind_spec(kind).directed
    edges = [(0, 1)]
    total = _blind_spot(edges, 2, directed)
    query = {"terminals": (1,), "root": 0} if directed else {"terminals": (0, 1)}
    job = EnumerationJob(kind=kind, edges=tuple(edges), vertices=tuple(range(total)), **query)
    for seed in range(8):
        copy = relabeled(job, random.Random(seed))
        assert canonical_signature(copy) == reference_signature(copy)


def _twin_leaf_pairs(pairs: int) -> EnumerationJob:
    """A path with terminal ends and two leaves on each of its vertices
    ``1 .. pairs``: colour refinement leaves exactly ``pairs`` cells, each
    a twin pair."""
    length = pairs + 3
    edges = [(i, i + 1) for i in range(length - 1)]
    leaf = length
    for parent in range(1, pairs + 1):
        edges += [(parent, leaf), (parent, leaf + 1)]
        leaf += 2
    return EnumerationJob.steiner_tree(edges, [0, length - 1])


def _tiered(tmp_path) -> TieredCache:
    return TieredCache(InstanceCache(), ResultStore(str(tmp_path)))


def test_star_gets_a_canonical_key_and_relabeled_copies_hit(tmp_path):
    star = EnumerationJob.steiner_tree([(0, i) for i in range(1, 41)], [1, 2])
    assert reference_signature(star) is None  # the full search overran
    copy = relabeled(star, random.Random(7))
    key, order = instance_key(star)
    assert order is not None and instance_key(copy)[0] == key
    tier = _tiered(tmp_path)
    tier.store(star, run_job(star))
    hit = _tiered(tmp_path).lookup(copy)  # a fresh process: disk tier
    assert hit is not None and set(hit.lines) == set(run_job(copy).lines)


def test_twin_leaf_pairs_cost_one_refinement_each(monkeypatch):
    job = _twin_leaf_pairs(9)
    calls = []

    def counting(*args):
        calls.append(1)
        return _refine(*args)

    monkeypatch.setattr(cache_mod, "_refine", counting)
    signature = canonical_signature(job)
    assert len(calls) == 1 + 9  # the full search took 2**10 - 1
    monkeypatch.undo()
    assert signature == reference_signature(job)
    copy = relabeled(job, random.Random(3))
    assert instance_key(copy)[0] == instance_key(job)[0]
    cache = InstanceCache()
    cache.store(job, run_job(job))
    hit = cache.lookup(copy)
    assert hit is not None and set(hit.lines) == set(run_job(copy).lines)


def test_budget_fallback_on_twin_free_symmetric_instance():
    # Triangle vertices see each other, not a shared neighbourhood, so
    # nothing is pruned and 12 interchangeable triangles overrun.
    edges = []
    for k in range(12):
        a, b, c = 3 * k, 3 * k + 1, 3 * k + 2
        edges += [(a, b), (b, c), (a, c)]
    job = EnumerationJob.steiner_tree(edges, [0, 1])
    copy = relabeled(job, random.Random(5))
    assert canonical_signature(job) is None
    assert canonical_signature(copy) is None
    (key, order), (copy_key, copy_order) = instance_key(job), instance_key(copy)
    assert order is None and copy_order is None  # both fall back to exact keys
    assert key != copy_key
    cache = InstanceCache()
    cache.store(job, run_job(job))
    assert cache.lookup(job) is not None  # the exact key still serves repeats


def test_tiered_cache_canonicalizes_a_request_once(tmp_path, monkeypatch):
    calls = []

    def counting(job):
        calls.append(job)
        return canonical_signature(job)

    # instance_key canonicalizes through this module global, whichever
    # tier calls it.
    monkeypatch.setattr(cache_mod, "canonical_signature", counting)
    tier = _tiered(tmp_path)
    job = _twin_leaf_pairs(3)
    assert tier.lookup(job) is None
    assert tier.prefix(job) is None
    tier.store(job, run_job(job))
    assert tier.lookup(job) is not None
    assert calls == [job]


def test_a_job_keeps_the_key_a_cache_gave_it(tmp_path, monkeypatch):
    """Once a tiered cache has keyed a job, a store used on its own
    keys that job without calling ``instance_key`` again."""
    job = _twin_leaf_pairs(3)
    assert _tiered(tmp_path / "tiered").lookup(job) is None
    calls = []

    def counting(job):
        calls.append(job)
        return canonical_signature(job)

    monkeypatch.setattr(cache_mod, "canonical_signature", counting)
    store = ResultStore(str(tmp_path / "alone"))
    store.store(job, run_job(job))
    assert calls == [] and store.lookup(job) is not None


# ----------------------------------------------------------------------
# the base family: queries on graphs with no non-trivial automorphism
# ----------------------------------------------------------------------
def _uniform_classes(edges, n: int, directed: bool) -> List[List[int]]:
    """The non-singleton cells of colour refinement from one colour."""
    out_adj: List[List[int]] = [[] for _ in range(n)]
    in_adj: Optional[List[List[int]]] = [[] for _ in range(n)] if directed else None
    for u, v in edges:
        out_adj[u].append(v)
        if in_adj is not None:
            in_adj[v].append(u)
        else:
            out_adj[v].append(u)
    cells: Dict[int, List[int]] = {}
    for v, c in enumerate(_refine(n, out_adj, in_adj, [0] * n)):
        cells.setdefault(c, []).append(v)
    return [cell for cell in cells.values() if len(cell) > 1]


@st.composite
def base_instances(draw):
    """A small query on a twin-free graph that refines to discrete.

    A random multigraph (self-loops allowed) gets a pendant vertex on
    the first member of every cell colour refinement leaves, until no
    cell is left: the graph then has a base form.  Every query vertex
    lies in the graph.
    """
    kind = draw(st.sampled_from(RELABELABLE))
    directed = kind_spec(kind).directed
    n = draw(st.integers(min_value=2, max_value=6))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = [
        (draw(vertex), draw(vertex))
        for _ in range(draw(st.integers(min_value=1, max_value=9)))
    ]
    for _ in range(8):
        cells = _uniform_classes(edges, n, directed)
        if not cells:
            break
        for cell in cells:
            edges.append((cell[0], n) if draw(st.booleans()) or not directed else (n, cell[0]))
            n += 1
    assume(not _uniform_classes(edges, n, directed))
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=2, max_size=4, unique=True)
    )
    fields: dict = {"vertices": tuple(range(n))}
    if kind_spec(kind).result_shape == "path":
        fields.update(source=pool[0], target=pool[1])
    elif kind == "steiner-forest":
        cut = draw(st.integers(min_value=1, max_value=len(pool) - 1))
        fields["families"] = (tuple(pool[:cut]), tuple(pool[cut:]))
    else:
        fields["terminals"] = tuple(pool[1:] if directed else pool)
        if directed:
            fields["root"] = pool[0]
    job = EnumerationJob(kind=kind, edges=tuple(edges), **fields)
    return relabeled(job, random.Random(draw(st.integers(min_value=0, max_value=2**32))))


def _moved_role(job: EnumerationJob, rng: random.Random) -> EnumerationJob:
    """``job`` with one query vertex moved onto a vertex without a role."""
    _, roles = _job_vertices_and_roles(job)
    free = [v for v, role in roles.items() if not role]
    if not free:
        return job
    target = rng.choice(sorted(free, key=repr))
    if job.source is not None:
        return dataclasses.replace(job, target=target)
    if job.families:
        first = (target,) + job.families[0][1:]
        return dataclasses.replace(job, families=(first,) + job.families[1:])
    return dataclasses.replace(job, terminals=(target,) + job.terminals[1:])


#: Vertex count up to which the brute-force isomorphism test runs.
BRUTE_FORCE_MAX = 8


def _isomorphic(a: EnumerationJob, b: EnumerationJob) -> bool:
    """Brute force: is there a role- and edge-preserving bijection?

    Tries every bijection that keeps roles and degrees; only for
    instances of at most :data:`BRUTE_FORCE_MAX` vertices.
    """
    va, ra = _job_vertices_and_roles(a)
    vb, rb = _job_vertices_and_roles(b)
    if len(va) != len(vb) or a.kind != b.kind:
        return False

    def code(job, pos):
        pairs = [(pos[u], pos[v]) for u, v in job.edges]
        if not job.is_directed:
            pairs = [tuple(sorted(p)) for p in pairs]
        return sorted(pairs)

    def label(job, roles, v):
        outs = sum(1 for x, _ in job.edges if x == v)
        ins = sum(1 for _, y in job.edges if y == v)
        return (roles[v], outs, ins) if job.is_directed else (roles[v], outs + ins)

    target = code(b, {v: i for i, v in enumerate(vb)})
    la = [label(a, ra, v) for v in va]
    lb = [label(b, rb, v) for v in vb]
    if sorted(la) != sorted(lb):
        return False
    for image in itertools.permutations(range(len(vb))):
        if all(lb[image[i]] == la[i] for i in range(len(va))):
            if code(a, {v: image[i] for i, v in enumerate(va)}) == target:
                return True
    return False


@settings(max_examples=150, deadline=None)
@given(base_instances(), st.integers(min_value=0, max_value=2**32))
def test_base_family_keys_are_relabel_stable_and_role_exact(job, seed):
    rng = random.Random(seed)
    signature = canonical_signature(job)
    assert signature is not None and signature[1][0] == "base"
    copy = relabeled(job, rng)
    assert instance_key(copy)[0] == instance_key(job)[0]
    # No automorphism moves a role: any other role placement is
    # another instance.
    moved = _moved_role(job, rng)
    if moved != job:
        assert instance_key(moved)[0] != instance_key(job)[0]
    # On instances small enough, keys agree exactly when the instances
    # are isomorphic.
    if len(job.vertices) <= BRUTE_FORCE_MAX:
        other = _moved_role(copy, rng) if rng.random() < 0.5 else copy
        same = instance_key(other)[0] == instance_key(job)[0]
        assert same == _isomorphic(job, other)


def test_base_family_relabeled_copy_hits_in_its_own_labels(tmp_path):
    # A random tree on 12 vertices plus chords, 17 edges: asymmetric.
    rng = random.Random(0)
    edges = [(v, rng.randrange(v)) for v in range(1, 12)]
    while len(edges) < 17:
        u, v = rng.sample(range(12), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    job = EnumerationJob.steiner_tree(edges, [1, 2, 3], backend="fast")
    assert canonical_signature(job)[1][0] == "base"
    copy = relabeled(job, random.Random(9))
    tier = _tiered(tmp_path)
    tier.store(job, run_job(job))
    for cache in (tier, _tiered(tmp_path)):  # memory, then a fresh disk tier
        hit = cache.lookup(copy)
        assert hit is not None and set(hit.lines) == set(run_job(copy).lines)


def test_role_free_probe_and_outside_vertices_keep_the_search():
    # The path 0-1-2-3-4-5 plus a pendant on 2 refines to discrete.
    edges = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6))
    job = EnumerationJob.steiner_tree(edges, [0, 3])
    assert canonical_signature(job)[1][0] == "base"
    probe = EnumerationJob(kind="steiner-tree", edges=edges)
    assert canonical_signature(probe)[1] == reference_signature(probe)[1]
    outside = EnumerationJob.steiner_tree(edges, [0, 9])
    assert canonical_signature(outside) == reference_signature(outside)


# ----------------------------------------------------------------------
# values written by the parent of the base family
# ----------------------------------------------------------------------
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "canon_keys.json")


def _fixture() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)


def _servebench_gen():
    """``servebench/gen.py``, which generates the benchmark's graphs."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "servebench", "gen.py")
    module_spec = importlib.util.spec_from_file_location("servebench_gen", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def _sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_keys_outside_the_base_family_are_the_parents():
    for entry in _fixture()["corpus"]:
        job = EnumerationJob.from_dict(entry["job"])
        assert instance_key(job)[0] == entry["key"], entry["job"]


def test_fleet_cold_keys_are_the_parents():
    pinned = _fixture()["fleet_cold"]
    gen = _servebench_gen()
    specs = list(itertools.islice(gen.cold_specs(pinned["seed"], 0), pinned["count"]))
    assert _sha256(specs) == pinned["specs_sha256"], "servebench/gen.py changed"
    for spec, key in zip(specs, pinned["keys"]):
        assert instance_key(EnumerationJob.from_dict(spec))[0] == key


def test_store_entry_under_an_unchanged_key_is_byte_identical(tmp_path):
    pinned = _fixture()["store_entry"]
    job = EnumerationJob.from_dict(pinned["job"])
    ResultStore(str(tmp_path)).store(job, run_job(job))
    (entry,) = (tmp_path / "entries").iterdir()
    assert entry.read_text() == pinned["text"]


@pytest.fixture(scope="module")
def dense_graphs():
    pinned = _fixture()["serve_dense"]
    graphs = _servebench_gen().dense_graphs(pinned["count"])
    assert hashlib.sha256(json.dumps(graphs).encode()).hexdigest() == pinned[
        "graphs_sha256"
    ], "servebench/gen.py changed"
    return graphs, pinned["digests"]


def test_dense_dataset_digests_are_the_parents(dense_graphs):
    graphs, digests = dense_graphs
    assert [dataset_digest([tuple(e) for e in g]) for g in graphs] == digests


def test_registry_written_by_the_parent_takes_its_dataset_again(tmp_path, dense_graphs):
    # The files the parent's registry wrote for dataset "dense0".
    graphs, digests = dense_graphs
    root = str(tmp_path)
    name, edges = "dense0", graphs[0]
    record = {
        "schema": 1,
        "name": name,
        "digest": digests[0],
        "num_vertices": len({v for e in edges for v in e}),
        "num_edges": len(edges),
        "created": 0.0,
    }
    payload = {"schema": 1, "edges": edges, "vertices": [], "node_keywords": []}
    name_file = hashlib.sha256(name.encode()).hexdigest()[:40]
    write_atomic(os.path.join(root, "names", f"{name_file}.json"), record)
    write_atomic(os.path.join(root, "payloads", f"{digests[0]}.json"), payload)
    registry = DatasetRegistry(root)
    assert registry.payload(name)["edges"] == edges  # read as the parent wrote it
    record, deduped = registry.add(name, edges)
    assert record.digest == digests[0] and deduped
    # A dense query now keys through the base form.
    spec = registry.resolve_spec({"kind": "steiner-tree", "dataset": name, "terminals": [0, 1]})
    assert canonical_signature(EnumerationJob.from_dict(spec))[1][0] == "base"


# ----------------------------------------------------------------------
# registration seeds the base form
# ----------------------------------------------------------------------
def _first_query_after_registration(job: EnumerationJob, monkeypatch):
    """Register ``job``'s graph, then key its query on the dataset.

    Returns the query's key, the number of refinements keying it ran,
    and the key the lazy path (memos cleared first) gives the same job.
    """
    cache_mod._graph_forms.cache_clear()
    registry = DatasetRegistry(None)
    registry.add("g", list(job.edges), vertices=list(job.vertices))
    query = EnumerationJob.from_dict(
        registry.resolve_spec(dict(job.to_dict(instance=False), dataset="g"))
    )
    calls = []

    def counting(*args):
        calls.append(1)
        return _refine(*args)

    with monkeypatch.context() as patch:
        patch.setattr(cache_mod, "_refine", counting)
        key = instance_key(query)
    cache_mod._graph_forms.cache_clear()
    return key, len(calls), instance_key(job)


def test_registration_seeds_the_dense_base_forms(dense_graphs, monkeypatch):
    graphs, _digests = dense_graphs
    for edges in graphs:
        job = EnumerationJob.steiner_tree([tuple(e) for e in edges], [1, 2, 3])
        key, refinements, lazy = _first_query_after_registration(job, monkeypatch)
        assert refinements == 0 and key == lazy


@settings(max_examples=80, deadline=None)
@given(base_instances())
def test_registration_seeds_every_undirected_base_form(job):
    assume(not job.is_directed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        key, refinements, lazy = _first_query_after_registration(job, monkeypatch)
    assert refinements == 0 and key == lazy


def test_a_graph_with_twins_stays_unseeded(monkeypatch):
    job = _twin_leaf_pairs(3)
    cache_mod._graph_forms.cache_clear()
    DatasetRegistry(None).add("g", list(job.edges))
    form = cache_mod._graph_forms(False, job.edges, job.vertices)
    assert "base" not in form.__dict__
    key, _refinements, lazy = _first_query_after_registration(job, monkeypatch)
    assert key == lazy and canonical_signature(job)[1][0] != "base"


def test_memos_agree_under_concurrent_servers():
    """Threads keying and fingerprinting queries on a few shared graphs,
    with the memos smaller than the graph count and a short switch
    interval, get the single-threaded values."""
    import sys
    import threading

    from repro.engine.cache import job_fingerprint

    rng = random.Random(11)
    graphs = []
    for g in range(cache_mod._GRAPH_MEMO + 2):
        edges = [(v, rng.randrange(v)) for v in range(1, 30)]
        edges += [(rng.randrange(30), rng.randrange(30)) for _ in range(25)]
        graphs.append(tuple(edges))
    jobs = [
        EnumerationJob.steiner_tree(graphs[i % len(graphs)], [i % 7, 20 + i % 9])
        for i in range(60)
    ]
    expected = [
        (instance_key(job), job_fingerprint(dataclasses.replace(job)))
        for job in jobs
    ]
    failures: list = []

    def worker(offset: int) -> None:
        for i in range(len(jobs)):
            j = (i + offset) % len(jobs)
            job = dataclasses.replace(jobs[j])  # no cached fingerprint
            if (instance_key(job), job_fingerprint(job)) != expected[j]:
                failures.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(7 * k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert cache_mod._graph_forms.cache_info().currsize <= cache_mod._GRAPH_MEMO
