"""Result cache: canonical instance hashing, one set of serve rules, tiers.

Two jobs that describe the *same* instance should pay for enumeration
once.  "Same" is stronger than textual equality: a relabeled copy of a
solved graph (vertex names permuted, edge list reordered) is the same
instance, and serving it from cache only needs the relabeling map.

:func:`canonical_signature` computes a complete isomorphism invariant
for a job's instance-plus-query: colour-refinement (1-WL) seeded with
the vertices' query roles (terminal / family membership / root / source
/ target / keyword bag), followed by an individualization search that
returns the lexicographically least certificate over all refinement-
consistent vertex orders.  Because the certificate *contains* the full
adjacency under the chosen order, equal certificates imply genuinely
isomorphic instances — the key is sound, never merely probabilistic.
Twins (vertices with the same query role and the same neighbours, such
as two leaves on one parent) are interchangeable, so at each branch the
search individualizes only the first member of each twin class; the
pruned subtrees mirror kept ones, and the result is the one the full
search would return.  What symmetry remains can still make the search
exponential, so it carries a work budget; when exceeded,
:func:`instance_key` falls back to an exact label-sensitive key (still
correct, just not relabel-stable for that instance).  The budget depends
only on the instance's symmetry structure, never on its labels, so
relabeled copies agree on which tier they use.

A graph that has no twins and refines to discrete without any roles has
no non-trivial automorphism; its refinement order is then canonical by
itself.  Such a graph's *base form* (that order plus the digest of the
adjacency under it) is computed once per process, by the role-free
search that keys a dataset's registration when it gets there first, and
a query on it keys as the base digest plus the query roles along the
base order, in O(n) instead of a refinement and a certificate per query
(:func:`canonical_signature`).

Cached solutions are stored as canonical-index structures and translated
back through the requesting job's own canonical order on a hit, so a hit
for a relabeled instance is rendered in the *caller's* vertex names.
A hit replays the donor's enumeration order; for a relabeled instance
that may be a permutation of the order a fresh run would use, but the
solution set is identical.  Order-sensitive serves are therefore gated
on an exact-instance fingerprint: relabeled hits serve only *complete*
solution sets (a ``limit`` that would truncate one misses instead — a
limit at or above the complete count serves it whole), and
cursor prefixes are served only to the identical instance (splicing a
donor-ordered prefix onto a different job's live stream would duplicate
and drop solutions).

:class:`ResultCache` writes these rules once, over an ordered list of
tiers that get and put entries by key: :class:`InstanceCache` is the
memory tier (an LRU; evicted entries are dropped),
:class:`repro.serve.store.ResultStore` the disk tier (plain JSON files:
nothing read back can execute code), and
:class:`repro.serve.store.TieredCache` puts the memory tier in front of
the disk tier.  Each tier alone is a result cache too.
"""

from __future__ import annotations

import functools
import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.capabilities import spec as kind_spec
from repro.engine.jobs import EnumerationJob, JobResult, RenderTable

#: Abort the individualization search after this many refinement passes,
#: i.e. nodes of the twin-pruned search tree.  Twin subtrees are mirror
#: images, so the count depends only on structure (never on labels):
#: relabeled copies of an instance always agree on canonical-vs-exact
#: key tier.
_CANON_BUDGET = 4096


class _CanonBudgetExceeded(Exception):
    pass


#: Graphs whose vertex list, index, adjacency and base form, and whose
#: fingerprint instance repr, the process keeps (the least recently used
#: goes first); every query on a served graph reuses them.
_GRAPH_MEMO = 8

#: Kind-and-instance pairs whose fingerprint prefix the process keeps.
_FINGERPRINT_MEMO = 16

class _GraphForm:
    """The query-free canonical data of one graph.

    ``vertices`` lists the graph's vertices in first appearance (edge
    endpoints, then isolated vertices), ``index`` inverts it, and
    ``out_adj`` / ``in_adj`` (digraphs only) are the adjacency lists
    over those indices, in edge order.
    """

    def __init__(self, directed: bool, edges, isolated) -> None:
        vertices: List[Any] = []
        index: Dict[Any, int] = {}
        for u, v in edges:
            for x in (u, v):
                if x not in index:
                    index[x] = len(vertices)
                    vertices.append(x)
        for x in isolated:
            if x not in index:
                index[x] = len(vertices)
                vertices.append(x)
        n = len(vertices)
        out_adj: List[List[int]] = [[] for _ in range(n)]
        in_adj: Optional[List[List[int]]] = [[] for _ in range(n)] if directed else None
        for u, v in edges:
            iu, iv = index[u], index[v]
            out_adj[iu].append(iv)
            if in_adj is not None:
                in_adj[iv].append(iu)
            else:
                out_adj[iv].append(iu)
        self.directed = directed
        self.edges = edges
        self.vertices = vertices
        self.index = index
        self.out_adj = out_adj
        self.in_adj = in_adj

    def edge_pairs(self) -> List[Tuple[int, int]]:
        """The edges over vertex indices, in edge order."""
        index = self.index
        return [(index[u], index[v]) for u, v in self.edges]

    @functools.cached_property
    def base(self) -> Optional[Tuple[List[int], str]]:
        """The graph's base form, or ``None`` when it has none.

        A graph has one when it has no twins and colour refinement from
        the uniform colouring makes it discrete; the form is that
        colouring's vertex order (a canonical order: refinement commutes
        with relabelling) and the digest of the adjacency under it.
        Twins keep one colour under every refinement, so the twin test
        skips, at the price of one sort per vertex, the graphs that
        refinement could never make discrete.  Computed on first need,
        unless a role-free :func:`canonical_signature` (a dataset's
        digest probe) refined the graph to discrete first and recorded
        it.
        """
        n, out_adj, in_adj = len(self.vertices), self.out_adj, self.in_adj
        if _has_twins(n, out_adj, in_adj):
            return None
        colors = _refine(n, out_adj, in_adj, [0] * n)
        if len(set(colors)) < n:
            return None
        return _base_form(
            self.directed, colors, _edge_code(self.edge_pairs(), colors, self.directed)
        )


def _base_form(directed: bool, colors: Sequence[int], code: tuple) -> Tuple[List[int], str]:
    """The base form of a graph whose uniform refinement is the discrete
    ``colors``, with ``code`` its edge code under them."""
    # Discrete dense colours are the canonical positions.
    order = [0] * len(colors)
    for v, position in enumerate(colors):
        order[position] = v
    return order, _digest(("base", directed, len(colors), code))


def _has_twins(
    n: int, out_adj: Sequence[Sequence[int]], in_adj: Optional[Sequence[Sequence[int]]]
) -> bool:
    """True when two vertices without a self-loop share their neighbour
    multiset (out- and in-neighbours on digraphs)."""
    seen = set()
    for v in range(n):
        if v in out_adj[v]:
            continue
        key = (
            tuple(sorted(out_adj[v])),
            tuple(sorted(in_adj[v])) if in_adj is not None else (),
        )
        if key in seen:
            return True
        seen.add(key)
    return False


def _edge_code(edge_pairs, pos: Sequence[int], directed: bool) -> tuple:
    """The sorted edge list under vertex positions ``pos``."""
    if directed:
        return tuple(sorted((pos[a], pos[b]) for a, b in edge_pairs))
    return tuple(
        sorted((min(pos[a], pos[b]), max(pos[a], pos[b])) for a, b in edge_pairs)
    )


#: The memo of :class:`_GraphForm` per graph (``lru_cache`` is
#: thread-safe: several servers can share one process).
_graph_forms = functools.lru_cache(maxsize=_GRAPH_MEMO)(_GraphForm)


def _graph_form(job: EnumerationJob) -> _GraphForm:
    """The memoised :class:`_GraphForm` of ``job``'s graph."""
    try:
        return _graph_forms(job.is_directed, job.edges, job.vertices)
    except TypeError:  # an unhashable (unvalidated) job: no memo
        return _GraphForm(job.is_directed, job.edges, job.vertices)


def _role_tokens(job: EnumerationJob) -> Dict[Any, tuple]:
    """A hashable query-role token for every vertex that has a role,
    in order of first mention."""
    roles: Dict[Any, tuple] = {}
    for t in job.terminals:
        roles[t] = roles.get(t, ()) + ("T",)
    for i, family in enumerate(job.families):
        for t in family:
            roles[t] = roles.get(t, ()) + (("F", i),)
    for name in ("root", "source", "target"):
        v = getattr(job, name)
        if v is not None:
            roles[v] = roles.get(v, ()) + (name,)
    return {v: tuple(sorted(map(repr, role))) for v, role in roles.items()}


def _refine(
    n: int,
    out_adj: Sequence[Sequence[int]],
    in_adj: Optional[Sequence[Sequence[int]]],
    colors: List[int],
) -> List[int]:
    """Colour refinement (1-WL) to a fixed point; returns dense colours."""
    while True:
        if in_adj is None:
            sigs = [
                (colors[v], tuple(sorted(colors[u] for u in out_adj[v])))
                for v in range(n)
            ]
        else:
            sigs = [
                (
                    colors[v],
                    tuple(sorted(colors[u] for u in out_adj[v])),
                    tuple(sorted(colors[u] for u in in_adj[v])),
                )
                for v in range(n)
            ]
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [palette[sig] for sig in sigs]
        if new == colors:
            return colors
        colors = new


def canonical_signature(job: EnumerationJob) -> Optional[Tuple[List[Any], tuple]]:
    """Canonical vertex order and certificate for ``job``'s instance.

    Returns ``(order, certificate)`` where ``order[i]`` is the vertex in
    canonical position ``i``, or ``None`` when the kind is not
    relabelable or the symmetry search exceeds its budget.  Two jobs get
    equal certificates iff their role-annotated instances are isomorphic.

    A query on a graph with a base form (:attr:`_GraphForm.base`) whose
    role vertices all lie in the graph takes the base order, and its
    certificate is the base digest plus the role tokens along that
    order: such a graph has no non-trivial automorphism, so every
    isomorphism between two copies maps one base order onto the other.
    Every other instance, role-free ones included, takes the search; a
    role-free one whose first refinement is discrete records the
    graph's base form on the way.
    """
    if not kind_spec(job.kind).relabelable:
        return None
    form = _graph_form(job)
    roles = _role_tokens(job)
    if any(v not in form.index for v in roles):
        # A query vertex outside the graph joins it as an isolated vertex.
        form = _GraphForm(job.is_directed, job.edges, tuple(job.vertices) + tuple(roles))
    elif roles:
        base = form.base
        if base is not None:
            order = [form.vertices[v] for v in base[0]]
            return order, ("base", base[1], tuple(roles.get(v, ()) for v in order))
    vertices, out_adj, in_adj = form.vertices, form.out_adj, form.in_adj
    n = len(vertices)
    directed = in_adj is not None
    tokens = [roles.get(v, ()) for v in vertices]
    edge_pairs = form.edge_pairs()

    role_palette = {r: i for i, r in enumerate(sorted(set(tokens)))}
    role_color = [role_palette[token] for token in tokens]
    budget = [_CANON_BUDGET]
    twin_of: List[int] = []  # filled at the first branch

    def refine(colors: List[int]) -> List[int]:
        budget[0] -= 1
        if budget[0] < 0:
            raise _CanonBudgetExceeded
        return _refine(n, out_adj, in_adj, colors)

    def twin_classes() -> List[int]:
        # The first vertex with v's role and neighbour multiset (out and
        # in on digraphs).  A self-loop puts v in its own neighbourhood,
        # so such a vertex is a class of its own.
        first: Dict[tuple, int] = {}
        twin: List[int] = []
        for v in range(n):
            if v in out_adj[v]:
                twin.append(v)
                continue
            key = (
                role_color[v],
                tuple(sorted(out_adj[v])),
                tuple(sorted(in_adj[v])) if in_adj is not None else (),
            )
            twin.append(first.setdefault(key, v))
        return twin

    def certificate(order: List[int]) -> tuple:
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        role_seq = tuple(tokens[v] for v in order)
        return (role_seq, _edge_code(edge_pairs, pos, directed))

    best: List[Optional[Tuple[tuple, List[int]]]] = [None]

    def search(colors: List[int]) -> None:
        classes: Dict[int, List[int]] = {}
        for v in range(n):
            classes.setdefault(colors[v], []).append(v)
        non_singleton = sorted(
            (len(members), color)
            for color, members in classes.items()
            if len(members) > 1
        )
        if not non_singleton:
            order = sorted(range(n), key=lambda v: colors[v])
            cert = certificate(order)
            if best[0] is None or cert < best[0][0]:
                best[0] = (cert, order)
            return
        _, color = non_singleton[0]
        if not twin_of:
            # Lazily: instances that refine to discrete never pay for it.
            twin_of.extend(twin_classes())
        next_color = n  # strictly larger than any dense colour in use
        searched: Set[int] = set()
        for v in classes[color]:
            # Swapping v with an earlier twin in this cell is an
            # automorphism fixing every vertex individualized so far, so
            # v's subtree mirrors that twin's and holds no earlier least
            # certificate: searching one member per class is enough.
            if twin_of[v] in searched:
                continue
            searched.add(twin_of[v])
            branched = list(colors)
            branched[v] = next_color
            search(refine(branched))

    try:
        colors = refine(role_color)
    except _CanonBudgetExceeded:
        return None
    if not roles and len(set(colors)) == n:
        # The uniform refinement is discrete, so the graph has no twins
        # and this is its base form: record it for the queries to come,
        # with the one edge code the certificate and the digest share.
        code = _edge_code(edge_pairs, colors, directed)
        form.base = base = _base_form(directed, colors, code)
        order = base[0]
        return [vertices[v] for v in order], (tuple(tokens[v] for v in order), code)
    try:
        search(colors)
    except _CanonBudgetExceeded:
        return None
    assert best[0] is not None
    cert, order = best[0]
    return ([vertices[v] for v in order], cert)


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@functools.lru_cache(maxsize=_GRAPH_MEMO)
def instance_repr(edges, vertices) -> bytes:
    """The instance part of a fingerprint's repr, encoded; one per graph
    (a dense graph's is ~110 KB), shared by every kind queried on it."""
    return f"{edges!r}, {vertices!r}, ".encode()


def _prefix(kind: str, instance: bytes):
    return hashlib.sha256(f"('fp', {kind!r}, ".encode() + instance)


@functools.lru_cache(maxsize=_FINGERPRINT_MEMO)
def _fingerprint_prefix(kind: str, edges, vertices):
    """SHA-256 state after the kind and instance part of a fingerprint's
    repr (callers copy it before adding the query part)."""
    return _prefix(kind, instance_repr(edges, vertices))


def job_fingerprint(job: EnumerationJob) -> str:
    """Exact-instance identity (labels, edge order, query params).

    Two jobs with equal fingerprints produce identical enumeration
    streams, so order-sensitive serves (cursor prefixes, limit
    truncation) are gated on fingerprint equality; canonical-key hits
    with a different fingerprint are relabelings whose stream is a
    permutation of the requester's own.

    Computed once per job object (and kept on it) from a hash of the
    instance part that is computed once per instance.
    """
    fingerprint = job.__dict__.get("_fingerprint")
    if fingerprint is None:
        # The digest of repr(("fp", kind, edges, vertices, <query>)),
        # resumed from a memoised hash of the instance part.
        query = (
            job.terminals,
            job.families,
            job.root,
            job.source,
            job.target,
            job.keywords,
            job.node_keywords,
        )
        try:
            digest = _fingerprint_prefix(job.kind, job.edges, job.vertices).copy()
        except TypeError:  # an unhashable (unvalidated) job: no memo
            digest = _prefix(job.kind, instance_repr.__wrapped__(job.edges, job.vertices))
        digest.update((", ".join(map(repr, query)) + ")").encode())
        fingerprint = digest.hexdigest()
        object.__setattr__(job, "_fingerprint", fingerprint)
    return fingerprint


def instance_key(job: EnumerationJob) -> Tuple[str, Optional[List[Any]]]:
    """The cache key for ``job`` plus its canonical order (if available).

    Execution-envelope fields (``limit``, ``deadline``, ``budget``,
    ``shards``, ``job_id``) are deliberately excluded: they shape *how
    much* of the result is delivered, not what the result is.
    """
    signature = canonical_signature(job)
    if signature is not None:
        order, cert = signature
        return _digest(("canon", job.kind, tuple(job.keywords), cert)), order
    exact = (
        "exact",
        job.kind,
        job.edges,
        job.vertices,
        job.terminals,
        job.families,
        job.root,
        job.source,
        job.target,
        job.keywords,
        job.node_keywords,
    )
    return _digest(exact), None


def to_canonical(kind: str, structures, order: List[Any]) -> tuple:
    """Re-express label-level ``structures`` in canonical vertex indices.

    Each distinct edge or arc pair is translated once per call (a
    stream's structures share one tuple per edge).
    """
    pos = {v: i for i, v in enumerate(order)}
    if kind_spec(kind).result_shape in ("vertex-set", "path"):
        return tuple(tuple([pos[v] for v in s]) for s in structures)
    pairs: Dict[tuple, tuple] = {}
    return tuple(
        tuple([pairs.get(p) or pairs.setdefault(p, (pos[p[0]], pos[p[1]])) for p in s])
        for s in structures
    )


def from_canonical(job: EnumerationJob, canonical, order: List[Any]) -> Tuple[tuple, tuple]:
    """Translate canonical-index structures into ``job``'s own labels:
    ``(lines, structures)``, rendered by a :class:`RenderTable` over
    ``order`` (one ``repr`` and one ``str`` per vertex per call)."""
    table = RenderTable(order, directed=job.is_directed)
    render = {
        "vertex-set": table.vertex_set,
        "path": table.path,
    }.get(kind_spec(job.kind).result_shape, table.edge_set)
    rendered = [render(s) for s in canonical]
    return tuple([r[0] for r in rendered]), tuple([r[1] for r in rendered])


@dataclass
class _Entry:
    """One cached enumeration of ``kind``: solutions plus completeness."""

    kind: str
    payload: tuple  # canonical structures, or rendered lines when order is None
    canonical: bool
    exhausted: bool
    fingerprint: str  # exact-instance identity of the donor job
    # The donor's own rendered lines (canonical entries only): lets an
    # exact-fingerprint hit skip the canonical->label translation and
    # re-rendering entirely — the donor's stream IS the requester's.
    lines: Optional[tuple] = None
    # The largest vertex index a canonical payload holds (-1: none, or
    # not known to be out of range); an entry read from disk records it.
    top: int = -1

    def serves(self, job: EnumerationJob, same: bool) -> bool:
        """Whether :meth:`ResultCache.lookup` may serve this entry to ``job``.

        The job's own entry (``same`` fingerprint) is its own stream, so
        a stored prefix may satisfy a ``limit`` by truncation.  A
        relabelled copy's is a permutation of the job's stream, so only
        the *complete* solution set may be served (truncating it would
        return a different subset than a fresh limited run would).
        """
        count = len(self.payload)
        if same:
            return self.exhausted or (job.limit is not None and count >= job.limit)
        return self.exhausted and (job.limit is None or job.limit >= count)

    def result(
        self, job: EnumerationJob, order: Optional[List[Any]], verbatim: bool, apply_limit: bool
    ) -> JobResult:
        """This entry as a cached :class:`JobResult` for ``job``.

        With ``verbatim`` the stored lines come back as they are, without
        structures; otherwise a canonical payload is translated through
        ``order`` into the job's own labels.  With ``apply_limit`` the
        job's ``limit`` truncates the stream (the entry may know more
        solutions than the job asked for).
        """
        lines = self.lines if self.canonical else self.payload
        structures: Optional[tuple] = None
        if lines is None or (self.canonical and not verbatim):
            assert order is not None  # canonical entries fit canonical keys only
            lines, structures = from_canonical(job, self.payload, order)
        exhausted, stop_reason = self.exhausted, None
        if apply_limit and job.limit is not None and len(lines) >= job.limit:
            lines, exhausted, stop_reason = lines[: job.limit], False, "limit"
            if structures is not None:
                structures = structures[: job.limit]
        elif not exhausted:
            stop_reason = "limit"
        return JobResult(
            job_id=job.job_id,
            kind=job.kind,
            lines=lines,
            exhausted=exhausted,
            stop_reason=stop_reason,
            elapsed=0.0,
            ops=0,
            cached=True,
            structures=structures,
        )


@dataclass
class CacheStats:
    """Counters exposed for tests, benchmarks and the service stats op."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    stores: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON serving."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "stores": self.stores,
        }


class ResultCache:
    """The result cache: one set of rules over an ordered list of tiers.

    A tier gets and puts entries by key (:meth:`get` / :meth:`put`): the
    memory LRU, :class:`InstanceCache`, and the JSON entry files of
    :class:`repro.serve.store.ResultStore` are tiers, and each is also a
    result cache whose one tier is itself;
    :class:`repro.serve.store.TieredCache` names a memory tier in front
    of a disk tier.  A job is keyed by :func:`instance_key` once, through
    the cache's bounded memo (:attr:`key_of`, for equal jobs across
    requests), and keeps its key, so later calls on the job by any cache
    skip the hashing.  The rules:

    * :meth:`lookup` serves a result that satisfies the job in full.
      The job's own entry (same fingerprint) serves when it is complete
      or holds at least the job's ``limit`` solutions, which then cut
      it; a relabelled copy's serves only when it is complete and the
      ``limit`` would not cut it.  Tiers are asked front to back, each
      counting a hit or a miss, and a hit is put into every tier in
      front of the one that had it.
    * :meth:`prefix` serves the longest of the job's own entries across
      the tiers, complete or not, never cut.
    * :meth:`store` writes a result through to every tier whose entry it
      upgrades, building (and canonicalising) the entry once.

    An entry whose kind or shape does not fit the job's key, or whose
    vertex indices lie past the key's order, is a miss (the next store
    rewrites it).
    """

    #: The tiers, front first.
    tiers: List["ResultCache"]
    stats: CacheStats
    key_of: Callable[[EnumerationJob], Tuple[str, Optional[List[Any]]]]
    #: Whether a hit in this tier also counts as a disk hit.
    persistent = False

    def __init__(self, key_memo: int) -> None:
        self.tiers = [self]
        self.stats = CacheStats()
        self.key_of = functools.lru_cache(maxsize=key_memo)(instance_key)

    def get(self, key: str) -> Optional[_Entry]:
        """The entry stored under ``key`` in this tier, or ``None``."""
        raise NotImplementedError

    def put(self, key: str, entry: _Entry) -> None:
        """Store ``entry`` under ``key`` in this tier."""
        raise NotImplementedError

    def __len__(self) -> int:
        # The entries across the tiers (a tier counts its own).
        return sum(len(tier) for tier in self.tiers)

    # ------------------------------------------------------------------
    def lookup(self, job: EnumerationJob) -> Optional[JobResult]:
        """A complete :class:`JobResult` for ``job`` (marked ``cached``),
        or ``None``."""
        for i, (tier, entry) in enumerate(self._walk(job)):
            same = entry is not None and entry.fingerprint == job_fingerprint(job)
            if entry is None or not entry.serves(job, same):
                tier.stats.misses += 1
                continue
            tier.stats.hits += 1
            if tier.persistent:
                tier.stats.disk_hits += 1
            key, order = self._key(job)
            for front in self.tiers[:i]:
                front.put(key, entry)
            return entry.result(job, order, verbatim=same, apply_limit=True)
        return None

    def prefix(self, job: EnumerationJob) -> Optional[JobResult]:
        """The longest stored solution prefix of ``job``'s own stream.

        Unlike :meth:`lookup` this serves incomplete entries (e.g. a
        checkpointed cursor's delivered prefix) and never truncates to
        the job's ``limit``; the result's ``exhausted`` flag says whether
        the prefix is the whole enumeration.  A relabelled donor's
        prefix is in the donor's order, and splicing it onto this job's
        live stream would duplicate some solutions and drop others, so
        only the job's own entries serve.  A complete stream comes back
        as its stored lines, without structures: nothing is ever stored
        over a complete entry.
        """
        best: Optional[_Entry] = None
        for _tier, entry in self._walk(job):
            if entry is not None and entry.fingerprint == job_fingerprint(job):
                if best is None or len(entry.payload) > len(best.payload):
                    best = entry
            if best is not None and best.exhausted:
                break
        if best is None:
            return None
        order = self._key(job)[1]
        return best.result(job, order, verbatim=best.exhausted, apply_limit=False)

    def store(self, job: EnumerationJob, result: JobResult) -> None:
        """Record ``result`` for ``job`` in every tier it upgrades.

        Deadline- and budget-stopped runs are not stored (their cut
        point is timing-dependent, so replaying them would be
        nondeterministic), nor are errored ones.  An entry is replaced
        only by one that knows strictly more solutions, or completes it;
        a complete entry is final.
        """
        stopped = result.stop_reason in ("deadline", "budget") or result.error is not None
        if stopped or not self.tiers:
            return
        key, order = self._key(job)
        if order is not None and result.structures is None:
            return  # canonical entries need structures to translate on hit
        entry: Optional[_Entry] = None
        for tier, existing in self._walk(job):
            if existing is not None and (
                existing.exhausted
                or (len(existing.payload) >= result.count and not result.exhausted)
            ):
                continue
            if entry is None:  # built and canonicalised once, for every tier
                lines = tuple(result.lines)
                fingerprint = job_fingerprint(job)
                if order is None:
                    entry = _Entry(job.kind, lines, False, result.exhausted, fingerprint)
                else:
                    payload = to_canonical(job.kind, result.structures, order)
                    entry = _Entry(job.kind, payload, True, result.exhausted, fingerprint, lines)
            tier.put(key, entry)

    # ------------------------------------------------------------------
    def _key(self, job: EnumerationJob) -> Tuple[str, Optional[List[Any]]]:
        keyed = job.__dict__.get("_cache_key")
        if keyed is None:
            keyed = self.key_of(job)
            object.__setattr__(job, "_cache_key", keyed)
        return keyed

    def _walk(self, job: EnumerationJob) -> Iterator[Tuple["ResultCache", Optional[_Entry]]]:
        """Each tier with its entry for ``job``, front first."""
        for tier in self.tiers:
            key, order = self._key(job)
            entry = tier.get(key)
            if entry is not None and (
                entry.kind != job.kind
                or entry.canonical != (order is not None)
                or (order is not None and entry.top >= len(order))
            ):
                entry = None
            yield tier, entry


class InstanceCache(ResultCache):
    """The memory tier: an LRU of entries keyed by canonical instance hash.

    Parameters
    ----------
    maxsize:
        In-memory entry cap; least-recently-used entries beyond it are
        evicted (and dropped: a :class:`~repro.serve.store.TieredCache`
        keeps them on disk).

    Examples
    --------
    >>> from repro.engine.jobs import EnumerationJob, run_job
    >>> cache = InstanceCache(maxsize=8)
    >>> job = EnumerationJob.steiner_tree([("a", "b"), ("b", "c")], ["a", "c"])
    >>> cache.store(job, run_job(job))
    >>> relabeled = EnumerationJob.steiner_tree([("x", "y"), ("y", "z")], ["x", "z"])
    >>> cache.lookup(relabeled).lines
    ('x-y y-z',)
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        super().__init__(key_memo=4 * maxsize)
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()

    def get(self, key: str) -> Optional[_Entry]:
        """The entry under ``key`` (now the most recently used), or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: _Entry) -> None:
        """Insert ``entry`` as the most recently used; evict past ``maxsize``."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop all entries."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
