"""The render wall: every solution's line and structure, as the engine
renders them from its per-instance table, against the rule the engine
rendered by before the table, kept here as a reference copy.

Instances are hypothesis multigraphs with parallel edges, isolated
vertices and mixed labels: negative ints, floats, bools, and strings
holding quotes, backslashes, spaces or non-ASCII characters, among them
pairs whose ``str`` order differs from their ``repr`` order.  An edge
may write a vertex as another object equal to its label (``True`` or
``1.0`` for ``1``, ``-0.0`` for ``0``), which prints otherwise.  Every
kind runs on both backends, and the shared-kernel kinds also on a kernel
and table another query on the same graph left in the memo.  The cache's
translation of canonical entries back to labels is held to the same
reference.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.capabilities import JOB_KINDS, kinds_where, spec as kind_spec
from repro.engine import suspend
from repro.engine.cache import from_canonical, instance_key, to_canonical
from repro.engine.jobs import EnumerationJob, solution_edge_structure
from repro.engine.suspend import JobSearch

#: Solutions compared per stream.
LIMIT = 40

#: Vertex labels, pairwise unequal.  ``"a"``/``"a+"``, ``1``/``"a"`` and
#: ``-3``/``2`` sort differently by ``str`` and by ``repr``.
LABELS = [
    0, 1, 2, -3, -12, 2.5, -0.5, "a", "a+", "b", 'q"uote', "it's",
    "back\\slash", "sp ace", "ñandú", "日本", "", "-1",
]

#: Objects an edge may write for a label: equal to it, printed otherwise.
ALIASES = {0: [0, False, 0.0, -0.0], 1: [1, True, 1.0], 2: [2, 2.0], -3: [-3, -3.0]}

KEYWORDS = ["k1", "k2", "k3"]


# ----------------------------------------------------------------------
# the reference: the rendering rule as written before the table
# ----------------------------------------------------------------------
def _ref_edge_structure(job, eids):
    if job.is_directed:
        pairs = [job.edges[a] for a in eids]
    else:
        pairs = [tuple(sorted(job.edges[e], key=repr)) for e in eids]
    return tuple(sorted(pairs, key=lambda p: (repr(p[0]), repr(p[1]))))


def _ref_render(kind, structure):
    shape = kind_spec(kind).result_shape
    if shape == "edge-set":
        return " ".join(f"{u}-{v}" for u, v in structure) if structure else "(single-vertex tree)"
    if shape == "arc-set":
        return " ".join(f"{u}->{v}" for u, v in structure) if structure else "(single-vertex tree)"
    if shape == "vertex-set":
        return " ".join(map(str, structure))
    return "->".join(map(str, structure))


def _ref_fragment(job, labels, fragment):
    pairs = sorted(
        "{}-{}".format(*sorted(map(str, job.edges[e]))) for e in fragment.structural_edges
    )
    edges = " ".join(pairs) if pairs else "(single node)"
    matches = ",".join(f"{kw}={labels[node]}" for kw, node in fragment.matches)
    return f"[{fragment.size}] {edges} | {matches}"


def _reference(job, labels, raw):
    shape = kind_spec(job.kind).result_shape
    if shape == "fragment":
        line = _ref_fragment(job, labels, raw)
        return line, line
    if shape in ("edge-set", "arc-set"):
        structure = _ref_edge_structure(job, raw)
    elif shape == "vertex-set":
        structure = tuple(sorted((labels[v] for v in raw), key=repr))
    else:
        structure = tuple(labels[v] for v in raw)
    return _ref_render(job.kind, structure), structure


def _ref_from_canonical(job, canonical, order):
    shape = kind_spec(job.kind).result_shape
    if shape == "vertex-set":
        return tuple(tuple(sorted((order[i] for i in s), key=repr)) for s in canonical)
    if shape == "path":
        return tuple(tuple(order[i] for i in s) for s in canonical)
    structures = []
    for s in canonical:
        if job.is_directed:
            pairs = [(order[i], order[j]) for i, j in s]
        else:
            pairs = [tuple(sorted((order[i], order[j]), key=repr)) for i, j in s]
        pairs.sort(key=lambda p: (repr(p[0]), repr(p[1])))
        structures.append(tuple(pairs))
    return tuple(structures)


def _same(got, expected) -> bool:
    """Equal, and printed alike: ``(True,) == (1,)`` but not here."""
    return got == expected and repr(got) == repr(expected)


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
@st.composite
def instances(draw):
    """``(labels, pairs, aliased, isolated, picks)``: vertex labels, edges
    as position pairs, the edges written through aliases, the isolated
    vertices and the query's vertex positions."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=4, max_size=8, unique=True))
    isolated = draw(st.integers(0, min(2, len(labels) - 4)))
    core = len(labels) - isolated
    pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, core)]
    pairs += draw(
        st.lists(st.tuples(st.integers(0, core - 1), st.integers(0, core - 1)), max_size=8)
    )
    pairs = [(u, v) for u, v in pairs if u != v]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # parallel edges
    pairs = draw(st.permutations(pairs))
    pairs = [p if draw(st.booleans()) else p[::-1] for p in pairs]

    def alias(i):
        return draw(st.sampled_from(ALIASES.get(labels[i], [labels[i]])))

    aliased = tuple((alias(u), alias(v)) for u, v in pairs)
    picks = draw(st.lists(st.integers(0, core - 1), min_size=4, max_size=4, unique=True))
    return labels, tuple(pairs), aliased, tuple(labels[core:]), picks


def _job(kind, backend, labels, edges, isolated, picks, keyworded):
    opts = {"backend": backend}
    t = [labels[i] for i in picks]
    if kind in ("steiner-tree", "terminal-steiner", "induced-steiner"):
        return EnumerationJob(kind, edges, isolated, terminals=tuple(t[:3]), **opts)
    if kind == "steiner-forest":
        return EnumerationJob(kind, edges, isolated, families=((t[0], t[1]), (t[2], t[3])), **opts)
    if kind == "directed-steiner":
        return EnumerationJob(kind, edges, isolated, terminals=tuple(t[1:3]), root=t[0], **opts)
    if kind in ("st-path", "chordless-path"):
        return EnumerationJob(kind, edges, isolated, source=t[0], target=t[1], **opts)
    node_keywords = tuple((labels[i], kws) for i, kws in keyworded)
    return EnumerationJob(
        kind, edges, isolated, keywords=("k1", "k2"), node_keywords=node_keywords, **opts
    )


def _stream(job):
    """``(raw, (line, structure), labels)`` per solution, at most
    :data:`LIMIT`; ``None`` when the instance does not suit the kind."""
    try:
        search = JobSearch(job)
        out = []
        while len(out) < LIMIT:
            raw = search._kind.pull(search._machine)
            if raw is None:
                break
            out.append((raw, search._kind.render(search.table, raw), search.table.labels))
    except Exception:  # noqa: BLE001 — e.g. a claw for induced-steiner
        return None
    return out


def _check(job, stream):
    for raw, got, labels in stream:
        expected = _reference(job, labels, raw)
        assert _same(got, expected), (job.kind, job.backend, got, expected)
        if kind_spec(job.kind).result_shape in ("edge-set", "arc-set"):
            fresh = EnumerationJob(**{f: getattr(job, f) for f in ("kind", "edges", "vertices",
                                   "terminals", "families", "root", "backend")})
            assert _same(solution_edge_structure(fresh, raw), expected[1])


def _check_translation(job, stream):
    if not kind_spec(job.kind).relabelable or not stream:
        return
    order = instance_key(job)[1]
    if order is None:
        return
    canonical = to_canonical(job.kind, [got[1] for _raw, got, _l in stream], order)
    lines, structures = from_canonical(job, canonical, order)
    expected = _ref_from_canonical(job, canonical, order)
    assert _same(structures, expected)
    assert _same(lines, tuple(_ref_render(job.kind, s) for s in expected))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    instance=instances(),
    keyworded=st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.sampled_from(KEYWORDS), min_size=1,
                                               max_size=2, unique=True).map(tuple)),
        min_size=2, max_size=3, unique_by=lambda p: p[0],
    ),
)
def test_every_kind_renders_by_the_reference_rule(instance, keyworded):
    labels, _pairs, aliased, isolated, picks = instance
    ran = 0
    for kind in sorted(JOB_KINDS):
        for backend in ("object", "fast"):
            suspend._KERNELS.entries.clear()
            job = _job(kind, backend, labels, aliased, isolated, picks, keyworded)
            stream = _stream(job)
            if stream is None:
                continue
            ran += 1
            _check(job, stream)
            _check_translation(job, stream)
    assume(ran)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(instance=instances())
def test_a_shared_kernel_renders_each_query_by_its_own_edges(instance):
    """Queries on one graph share the memo's kernel and labels: a second
    query on the same edges object reuses the table, and a query on equal
    edges written with other objects gets a table of its own."""
    labels, pairs, aliased, isolated, picks = instance
    plain = tuple((labels[u], labels[v]) for u, v in pairs)
    for kind in sorted(kinds_where(shared_kernel=True)):
        suspend._KERNELS.entries.clear()
        first = _job(kind, "fast", labels, aliased, isolated, picks, ())
        again = _job(kind, "fast", labels, aliased, isolated, picks[::-1], ())
        other = _job(kind, "fast", labels, plain, isolated, picks, ())
        streams = [_stream(job) for job in (first, again, other)]
        if None in streams:
            continue
        assert again.__dict__["_render"] is first.__dict__["_render"]
        assert other.__dict__["_render"] is not first.__dict__["_render"]
        for job, stream in zip((first, again, other), streams):
            _check(job, stream)


def test_a_pickled_job_leaves_its_table_behind():
    import pickle

    job = EnumerationJob.steiner_tree([("a", "b"), ("b", "c")], ["a", "c"])
    JobSearch(job).next()
    assert "_render" in job.__dict__
    thawed = pickle.loads(pickle.dumps(job))
    assert "_render" not in thawed.__dict__ and thawed == job
