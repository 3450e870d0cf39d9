"""Declarative enumeration jobs: one record per solver invocation.

An :class:`EnumerationJob` captures everything needed to reproduce one
enumeration run — the problem kind, the instance (as a plain edge list so
jobs survive JSON and pickling), the query parameters, and the execution
envelope (solution limit, wall-clock deadline, operation budget, shard
count).  Jobs are immutable, hashable and cheap to ship to worker
processes; :func:`run_job` executes one and returns a :class:`JobResult`
whose ``lines`` are the canonical text rendering the CLI has always
printed, so batch output composes with the existing pipeline idiom.

Kinds cover the six enumerators of :mod:`repro.core` plus the path and
keyword-search layers:

========================  ==================================================
kind                      solver
========================  ==================================================
``steiner-tree``          :func:`repro.core.enumerate_minimal_steiner_trees`
``steiner-forest``        :func:`repro.core.enumerate_minimal_steiner_forests`
``terminal-steiner``      :func:`repro.core.enumerate_minimal_terminal_steiner_trees`
``directed-steiner``      :func:`repro.core.enumerate_minimal_directed_steiner_trees`
``induced-steiner``       :func:`repro.core.enumerate_minimal_induced_steiner_subgraphs`
``chordless-path``        :func:`repro.core.enumerate_chordless_st_paths`
``st-path``               :func:`repro.paths.enumerate_st_paths_undirected`
``kfragments``            :func:`repro.datagraph.undirected_kfragments`
========================  ==================================================

Deadlines and budgets stop an enumeration *cleanly*: the job result
reports the partial solution list and a ``stop_reason`` instead of
raising, which is what a serving layer needs.
"""

from __future__ import annotations

import json
import threading
import time
from operator import itemgetter
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Tuple,
)

from repro.core import capabilities
from repro.core.capabilities import require_backend, spec as kind_spec
from repro.enumeration.delay import CostMeter
from repro.exceptions import InvalidInstanceError, ReproError
from repro.graphs.digraph import DiGraph
from repro.graphs.fastgraph import resolve_backend
from repro.graphs.graph import Graph

Vertex = Hashable

#: All job kinds the engine can execute — derived from the kind
#: capability registry (:mod:`repro.core.capabilities`), which is the
#: single source of truth for result shapes, backend support and
#: relabelability.
JOB_KINDS = capabilities.JOB_KINDS


class BudgetExceeded(ReproError):
    """Raised internally when a job overruns its deadline or op budget."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"enumeration stopped: {reason}")
        self.reason = reason


class _BudgetMeter(CostMeter):
    """A :class:`CostMeter` that enforces an op budget and a deadline.

    The deadline is checked every ``_CHECK_EVERY`` ticks so the clock read
    does not dominate the enumerators' O(1) edge scans.
    """

    _CHECK_EVERY = 1024

    __slots__ = ("budget", "deadline_at", "_until_check")

    def __init__(
        self, budget: Optional[int] = None, deadline_at: Optional[float] = None
    ) -> None:
        super().__init__()
        self.budget = budget
        self.deadline_at = deadline_at
        self._until_check = self._CHECK_EVERY

    def tick(self, amount: int = 1) -> None:
        """Charge ``amount`` ops; raise :class:`BudgetExceeded` on overrun."""
        self.count += amount
        if self.budget is not None and self.count > self.budget:
            raise BudgetExceeded("budget")
        self._until_check -= 1
        if self._until_check <= 0:
            self._until_check = self._CHECK_EVERY
            if self.deadline_at is not None and time.monotonic() > self.deadline_at:
                raise BudgetExceeded("deadline")


#: Edge tuples :func:`_edge_pairs` kept as they were, by identity (each
#: held, so its id is not reused); the oldest goes first.
_ACCEPTED_MEMO = 8
_accepted: Dict[int, tuple] = {}
_accepted_lock = threading.Lock()


def _edge_pairs(edges) -> Tuple[Tuple[Vertex, Vertex], ...]:
    """``edges`` as a tuple of pairs.

    A tuple of 2-tuples is kept as it is, so every job built on one
    shared instance (a dataset, an arena spool) shares one edges object
    and the per-instance memos find it by identity.  Such a shared tuple
    is walked once: the last few accepted are recognised by identity.
    """
    if _accepted.get(id(edges)) is edges:
        return edges
    if (
        type(edges) is tuple
        and {*map(type, edges)} <= {tuple}
        and {*map(len, edges)} <= {2}
    ):
        with _accepted_lock:
            _accepted[id(edges)] = edges
            while len(_accepted) > _ACCEPTED_MEMO:
                del _accepted[next(iter(_accepted))]
        return edges
    return tuple((u, v) for u, v in edges)


@dataclass(frozen=True)
class EnumerationJob:
    """One declarative enumeration request.

    The instance is stored as plain tuples (edge list, terminal list,
    keyword table) so a job round-trips through JSON (``to_dict`` /
    ``from_dict``) and pickles cheaply to worker processes.  Edge ids are
    implied by position: edge ``i`` of the rebuilt graph is ``edges[i]``.

    Parameters
    ----------
    kind:
        One of :data:`JOB_KINDS`.
    edges:
        Endpoint pairs (arcs ``(tail, head)`` for directed kinds).
    vertices:
        Extra isolated vertices not mentioned by any edge.
    terminals, families, root, source, target, keywords, node_keywords:
        Query parameters; which ones are required depends on ``kind``.
    limit:
        Stop after this many solutions (``None`` = exhaust).
    deadline:
        Wall-clock allowance in seconds (``None`` = unlimited).
    budget:
        Allowance in metered substrate operations (``None`` = unlimited).
    shards:
        Requested shard count for parallel decomposition of this single
        job (honoured for ``steiner-tree`` jobs without a ``limit``; see
        :mod:`repro.engine.pool`).
    job_id:
        Caller-chosen identifier echoed into the result.
    backend:
        ``"object"`` (reference) or ``"fast"`` (integer kernel,
        :mod:`repro.graphs.fastgraph`).  Both produce the same solution
        stream on the engine's integer-relabeled instances; ``"fast"``
        is measurably quicker on the path-driven enumerators.  An alias
        is resolved on construction
        (:func:`~repro.graphs.fastgraph.resolve_backend`).

    Examples
    --------
    >>> job = EnumerationJob.steiner_tree(
    ...     [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], ["a", "d"])
    >>> run_job(job).lines
    ('a-c c-d', 'a-b b-c c-d')
    """

    kind: str
    edges: Tuple[Tuple[Vertex, Vertex], ...] = ()
    vertices: Tuple[Vertex, ...] = ()
    terminals: Tuple[Vertex, ...] = ()
    families: Tuple[Tuple[Vertex, ...], ...] = ()
    root: Optional[Vertex] = None
    source: Optional[Vertex] = None
    target: Optional[Vertex] = None
    keywords: Tuple[str, ...] = ()
    node_keywords: Tuple[Tuple[Vertex, Tuple[str, ...]], ...] = ()
    limit: Optional[int] = None
    deadline: Optional[float] = None
    budget: Optional[int] = None
    shards: int = 1
    job_id: Optional[str] = None
    backend: str = "object"

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", resolve_backend(self.backend))

    def __getstate__(self) -> Dict[str, Any]:
        # The render table is rebuilt where the job runs, not shipped.
        state = dict(self.__dict__)
        state.pop("_render", None)
        return state

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _edge_tuple(graph_or_edges) -> Tuple[Tuple[Vertex, Vertex], ...]:
        if isinstance(graph_or_edges, Graph):
            return tuple(
                graph_or_edges.endpoints(e) for e in sorted(graph_or_edges.edge_ids())
            )
        if isinstance(graph_or_edges, DiGraph):
            return tuple(
                graph_or_edges.arc_endpoints(a) for a in sorted(graph_or_edges.arc_ids())
            )
        return tuple((u, v) for u, v in graph_or_edges)

    @staticmethod
    def _isolated_vertices(graph_or_edges) -> Tuple[Vertex, ...]:
        """Vertices a bare edge list would lose (degree 0 in the input)."""
        if isinstance(graph_or_edges, Graph):
            return tuple(
                v for v in graph_or_edges.vertices() if graph_or_edges.degree(v) == 0
            )
        if isinstance(graph_or_edges, DiGraph):
            return tuple(
                v
                for v in graph_or_edges.vertices()
                if graph_or_edges.out_degree(v) == 0 and graph_or_edges.in_degree(v) == 0
            )
        return ()

    @classmethod
    def steiner_tree(cls, graph_or_edges, terminals, **opts) -> "EnumerationJob":
        """A minimal-Steiner-tree job over a :class:`Graph` or edge list."""
        opts.setdefault("vertices", cls._isolated_vertices(graph_or_edges))
        return cls(
            kind="steiner-tree",
            edges=cls._edge_tuple(graph_or_edges),
            terminals=tuple(terminals),
            **opts,
        )

    @classmethod
    def steiner_forest(cls, graph_or_edges, families, **opts) -> "EnumerationJob":
        """A minimal-Steiner-forest job for a family collection."""
        opts.setdefault("vertices", cls._isolated_vertices(graph_or_edges))
        return cls(
            kind="steiner-forest",
            edges=cls._edge_tuple(graph_or_edges),
            families=tuple(tuple(f) for f in families),
            **opts,
        )

    @classmethod
    def terminal_steiner(cls, graph_or_edges, terminals, **opts) -> "EnumerationJob":
        """A minimal-terminal-Steiner-tree job."""
        opts.setdefault("vertices", cls._isolated_vertices(graph_or_edges))
        return cls(
            kind="terminal-steiner",
            edges=cls._edge_tuple(graph_or_edges),
            terminals=tuple(terminals),
            **opts,
        )

    @classmethod
    def directed_steiner(
        cls, digraph_or_arcs, terminals, root, **opts
    ) -> "EnumerationJob":
        """A minimal-directed-Steiner-tree job rooted at ``root``."""
        opts.setdefault("vertices", cls._isolated_vertices(digraph_or_arcs))
        return cls(
            kind="directed-steiner",
            edges=cls._edge_tuple(digraph_or_arcs),
            terminals=tuple(terminals),
            root=root,
            **opts,
        )

    @classmethod
    def induced_steiner(cls, graph_or_edges, terminals, **opts) -> "EnumerationJob":
        """A minimal-induced-Steiner-subgraph job (claw-free input)."""
        opts.setdefault("vertices", cls._isolated_vertices(graph_or_edges))
        return cls(
            kind="induced-steiner",
            edges=cls._edge_tuple(graph_or_edges),
            terminals=tuple(terminals),
            **opts,
        )

    @classmethod
    def st_path(cls, graph_or_edges, source, target, **opts) -> "EnumerationJob":
        """A simple s-t path enumeration job (undirected)."""
        opts.setdefault("vertices", cls._isolated_vertices(graph_or_edges))
        return cls(
            kind="st-path",
            edges=cls._edge_tuple(graph_or_edges),
            source=source,
            target=target,
            **opts,
        )

    @classmethod
    def chordless_path(cls, graph_or_edges, source, target, **opts) -> "EnumerationJob":
        """A chordless (induced) s-t path enumeration job."""
        opts.setdefault("vertices", cls._isolated_vertices(graph_or_edges))
        return cls(
            kind="chordless-path",
            edges=cls._edge_tuple(graph_or_edges),
            source=source,
            target=target,
            **opts,
        )

    @classmethod
    def kfragments(cls, datagraph, keywords, **opts) -> "EnumerationJob":
        """An undirected K-fragment (keyword-search) job over a data graph."""
        return cls(
            kind="kfragments",
            edges=cls._edge_tuple(datagraph.graph),
            vertices=tuple(
                v for v in datagraph.graph.vertices() if datagraph.graph.degree(v) == 0
            ),
            keywords=tuple(keywords),
            node_keywords=tuple(
                (node, tuple(sorted(datagraph.keywords_of(node))))
                for node in sorted(datagraph.graph.vertices(), key=repr)
                if datagraph.keywords_of(node)
            ),
            **opts,
        )

    # ------------------------------------------------------------------
    # validation / (de)serialization
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`InvalidInstanceError` on a malformed spec.

        A job that passed is not checked again: the fields are frozen,
        and the check hashes the whole instance.
        """
        if self.__dict__.get("_valid"):
            return
        try:
            # Caches key on the job itself, so every field must hash; a
            # JSON array used as a vertex label would not.
            hash(self)
        except TypeError as exc:
            raise InvalidInstanceError(
                "vertex labels and keywords must be hashable scalars, not "
                f"JSON arrays or objects: {exc}"
            ) from exc
        if self.kind not in JOB_KINDS:
            raise InvalidInstanceError(
                f"unknown job kind {self.kind!r}; expected one of {sorted(JOB_KINDS)}"
            )
        if self.kind == "steiner-forest":
            if not self.families:
                raise InvalidInstanceError("steiner-forest jobs need 'families'")
        elif kind_spec(self.kind).result_shape == "path":
            if self.source is None or self.target is None:
                raise InvalidInstanceError(f"{self.kind} jobs need 'source'/'target'")
        elif self.kind == "kfragments":
            if not self.keywords:
                raise InvalidInstanceError("kfragments jobs need 'keywords'")
        else:
            if not self.terminals:
                raise InvalidInstanceError(f"{self.kind} jobs need 'terminals'")
            if self.kind == "directed-steiner" and self.root is None:
                raise InvalidInstanceError("directed-steiner jobs need 'root'")
        if self.limit is not None and self.limit < 0:
            raise InvalidInstanceError("limit must be >= 0")
        if self.deadline is not None and self.deadline < 0:
            raise InvalidInstanceError("deadline must be >= 0")
        if self.budget is not None and self.budget < 0:
            raise InvalidInstanceError("budget must be >= 0")
        if self.shards < 1:
            raise InvalidInstanceError("shards must be >= 1")
        require_backend(self.kind, self.backend)
        object.__setattr__(self, "_valid", True)

    def to_dict(self, instance: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; omits defaulted fields for compact job files.

        ``instance=False`` leaves out the graph (``edges`` and
        ``vertices``): the query and envelope fields alone, for a caller
        that ships the graph another way.
        """
        spec: Dict[str, Any] = {"kind": self.kind}
        if instance:
            spec["edges"] = [list(e) for e in self.edges]
            if self.vertices:
                spec["vertices"] = list(self.vertices)
        if self.terminals:
            spec["terminals"] = list(self.terminals)
        if self.families:
            spec["families"] = [list(f) for f in self.families]
        for key in ("root", "source", "target", "limit", "deadline", "budget", "job_id"):
            value = getattr(self, key)
            if value is not None:
                spec["id" if key == "job_id" else key] = value
        if self.keywords:
            spec["keywords"] = list(self.keywords)
        if self.node_keywords:
            # A list of pairs, not a dict: JSON object keys are forcibly
            # strings, which would corrupt non-string node ids.
            spec["node_keywords"] = [
                [node, list(kws)] for node, kws in self.node_keywords
            ]
        if self.shards != 1:
            spec["shards"] = self.shards
        if self.backend != "object":
            spec["backend"] = self.backend
        return spec

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "EnumerationJob":
        """Rebuild a job from :meth:`to_dict` output (or hand-written JSON)."""
        known = {f.name for f in fields(cls)}
        kwargs: Dict[str, Any] = {}
        for key, value in spec.items():
            name = "job_id" if key == "id" else key
            if name not in known:
                raise InvalidInstanceError(f"unknown job field {key!r}")
            kwargs[name] = value
        try:
            kwargs["edges"] = _edge_pairs(kwargs.get("edges", ()))
            for key in ("vertices", "terminals", "keywords"):
                if key in kwargs:
                    kwargs[key] = tuple(kwargs[key])
            if "families" in kwargs:
                kwargs["families"] = tuple(tuple(f) for f in kwargs["families"])
            if "node_keywords" in kwargs:
                table = kwargs["node_keywords"]
                if isinstance(table, dict):
                    items = sorted(table.items(), key=lambda kv: repr(kv[0]))
                else:
                    items = [(node, kws) for node, kws in table]
                kwargs["node_keywords"] = tuple(
                    (node, tuple(kws)) for node, kws in items
                )
        except (TypeError, ValueError) as exc:
            raise InvalidInstanceError(f"malformed job spec: {exc}") from exc
        try:
            job = cls(**kwargs)
        except TypeError as exc:
            # e.g. a spec with no "kind" at all: the dataclass raises a
            # bare TypeError, which HTTP surfaces must see as a 400.
            raise InvalidInstanceError(f"malformed job spec: {exc}") from exc
        job.validate()
        return job

    @classmethod
    def from_json(cls, text: str) -> "EnumerationJob":
        """Parse one JSON object (one ``jobs.jsonl`` line) into a job."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------
    @property
    def is_directed(self) -> bool:
        """True for kinds whose instance is a digraph."""
        return kind_spec(self.kind).directed

    def instantiate(self):
        """Build the concrete :class:`Graph` / :class:`DiGraph` / data graph."""
        if self.kind == "kfragments":
            from repro.datagraph.model import DataGraph

            dg = DataGraph()
            for v in self.vertices:
                dg.add_node(v)
            for u, v in self.edges:
                dg.add_link(u, v)
            for node, kws in self.node_keywords:
                dg.add_node(node, kws)
            return dg
        if self.is_directed:
            return DiGraph.from_arcs(self.edges, vertices=self.vertices)
        return Graph.from_edges(self.edges, vertices=self.vertices)

    def label_table(self) -> List[Vertex]:
        """All instance vertices in first-appearance order (edges, then
        isolated vertices) — the label for index ``i`` of the indexed
        instance built by :meth:`instantiate_indexed`."""
        labels: List[Vertex] = []
        seen = set()
        for u, v in self.edges:
            for x in (u, v):
                if x not in seen:
                    seen.add(x)
                    labels.append(x)
        for x in self.vertices:
            if x not in seen:
                seen.add(x)
                labels.append(x)
        for node, _kws in self.node_keywords:
            if node not in seen:
                seen.add(node)
                labels.append(node)
        return labels

    def index_pairs(self):
        """``(labels, index_of, pairs)``: the :meth:`label_table`, its
        inverse, and the edges over its indices in edge order."""
        labels = self.label_table()
        index_of = {v: i for i, v in enumerate(labels)}
        return labels, index_of, [(index_of[u], index_of[v]) for u, v in self.edges]

    def instantiate_indexed(self):
        """The instance over integer vertex indices, plus the label table.

        Integers hash to themselves, so enumeration order over the
        indexed instance is identical in every Python process —
        string-labeled instances would inherit ``PYTHONHASHSEED``-
        dependent set/dict iteration order from the solvers.  Edge ids
        are positional either way, so solutions translate back through
        the returned table.  Returns ``(instance, labels, index_of)``.
        """
        labels, index_of, edges = self.index_pairs()
        if self.kind == "kfragments":
            from repro.datagraph.model import DataGraph

            dg = DataGraph()
            for i in range(len(labels)):
                dg.add_node(i)
            for u, v in edges:
                dg.add_link(u, v)
            for node, kws in self.node_keywords:
                dg.add_node(index_of[node], kws)
            return dg, labels, index_of
        if self.is_directed:
            return DiGraph.from_arcs(edges, vertices=range(len(labels))), labels, index_of
        return Graph.from_edges(edges, vertices=range(len(labels))), labels, index_of


@dataclass(frozen=True)
class JobResult:
    """The outcome of one job: rendered solutions plus run metadata.

    ``lines`` is the deterministic text rendering (one solution per
    entry, in enumeration order); ``structures`` is the label-level form
    the cache stores (see :mod:`repro.engine.cache`) and is excluded from
    serialization.  ``exhausted`` is True iff the enumeration ran to
    completion; otherwise ``stop_reason`` says why it stopped
    (``limit`` / ``deadline`` / ``budget``).  A cleanly stopped run
    also carries a search-state ``snapshot``: pass it back as
    ``run_job(job, resume=...)`` to continue the stream in O(state)
    instead of replaying the delivered prefix.  Like ``structures`` it
    is excluded from serialization and comparison.
    """

    job_id: Optional[str]
    kind: str
    lines: Tuple[str, ...]
    exhausted: bool
    stop_reason: Optional[str]
    elapsed: float
    ops: int
    cached: bool = False
    error: Optional[str] = None
    structures: Optional[Tuple[Any, ...]] = field(
        default=None, repr=False, compare=False
    )
    snapshot: Optional[bytes] = field(default=None, repr=False, compare=False)

    @property
    def count(self) -> int:
        """Number of solutions produced."""
        return len(self.lines)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic JSON payload (timing kept out so batch output is
        byte-identical across worker counts)."""
        payload = {
            "id": self.job_id,
            "kind": self.kind,
            "count": self.count,
            "exhausted": self.exhausted,
            "stop_reason": self.stop_reason,
            "lines": list(self.lines),
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload


# ----------------------------------------------------------------------
# structures and rendering
# ----------------------------------------------------------------------
def render_structure(kind: str, structure) -> str:
    """Render a label-level solution structure as the CLI's text line."""
    shape = kind_spec(kind).result_shape
    if shape == "edge-set":
        return (
            " ".join(f"{u}-{v}" for u, v in structure)
            if structure
            else "(single-vertex tree)"
        )
    if shape == "arc-set":
        return (
            " ".join(f"{u}->{v}" for u, v in structure)
            if structure
            else "(single-vertex tree)"
        )
    if shape == "vertex-set":
        return " ".join(map(str, structure))
    if shape == "path":
        return "->".join(map(str, structure))
    raise InvalidInstanceError(f"no structure rendering for kind {kind!r}")


class _Rerank(Exception):
    """An edge endpoint prints unlike its vertex's label (``True`` for a
    vertex first written ``1``): the ranks must take its ``repr`` in."""


#: Types whose equal values have equal ``repr`` and ``str``.
_PLAIN_TYPES = (int, str)

#: An edge entry's rank key.
_KEY = itemgetter(0)


class RenderTable:
    """How one instance's solutions become structures and lines.

    The rule: an undirected edge lists its endpoints in ``repr`` order, a
    set of edges or arcs lists its pairs in their endpoints' ``repr``
    order, a vertex set lists its labels in ``repr`` order, a path keeps
    its traversal order, and a keyword fragment lists the ``str``-sorted
    ``u-v`` tokens of its edges as sorted strings.  Lines join the
    labels' ``str``.

    Per vertex (an index into ``labels``) the table holds the label's
    ``str`` and its dense rank by ``repr``: one ``repr`` and one ``str``
    per vertex.  Per edge, on its first use, it holds the edge's rank
    key, its label pair (one tuple, shared by every solution holding the
    edge) and its tokens, ``u-v`` or ``u->v`` and the fragment token.  A
    solution is then an integer sort plus a join.  An edge is read from
    ``edges`` by edge id, or given as a pair of vertex indices.

    An edge renders the endpoint objects ``edges`` lists.  One that
    equals its vertex's label but prints otherwise (``True`` where the
    vertex was first written ``1``) takes a rank of its own ``repr``:
    the ranks are rebuilt to include it and the edge entries dropped.
    """

    def __init__(self, labels, index_of=None, edges=(), directed: bool = False) -> None:
        self.labels = labels
        self.index_of = index_of
        self.edges = edges
        self.directed = directed
        self.text = [str(x) for x in labels]
        self._reprs = [repr(x) for x in labels]
        self._rerank(())

    def _rerank(self, extra) -> None:
        """Dense ranks over the labels' reprs and ``extra``; drops the
        edge entries, whose keys used the old ranks."""
        order = sorted({*self._reprs, *extra})
        self._rank_of = {r: i for i, r in enumerate(order)}
        self.rank = [self._rank_of[r] for r in self._reprs]
        self._width = len(order)
        self._edge: Dict[Any, tuple] = {}

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def _vertex(self, x) -> Tuple[int, str]:
        """Rank and text of endpoint object ``x``."""
        i = self.index_of[x]
        label = self.labels[i]
        if label is x or (type(x) is type(label) and type(x) in _PLAIN_TYPES):
            return self.rank[i], self.text[i]
        r = repr(x)
        rank = self._rank_of.get(r)
        if rank is None:
            raise _Rerank(r)
        return rank, str(x)

    def _entry(self, u, v, a: Tuple[int, str], b: Tuple[int, str], pair) -> tuple:
        """``(key, pair, token, fragment token)`` of edge ``u``-``v``."""
        (ra, sa), (rb, sb) = a, b
        fragment = f"{sa}-{sb}" if sa <= sb else f"{sb}-{sa}"
        if self.directed:
            return ra * self._width + rb, pair, f"{sa}->{sb}", fragment
        if rb < ra:
            return rb * self._width + ra, (v, u), f"{sb}-{sa}", fragment
        return ra * self._width + rb, (u, v), f"{sa}-{sb}", fragment

    def _fill(self, e) -> tuple:
        if type(e) is tuple:  # a pair of vertex indices
            i, j = e
            labels, rank, text = self.labels, self.rank, self.text
            u, v = labels[i], labels[j]
            entry = self._entry(u, v, (rank[i], text[i]), (rank[j], text[j]), (u, v))
        else:
            pair = self.edges[e]
            u, v = pair
            entry = self._entry(u, v, self._vertex(u), self._vertex(v), pair)
        self._edge[e] = entry
        return entry

    def _entries(self, eids) -> List[tuple]:
        while True:
            edge = self._edge
            try:
                return [edge.get(e) or self._fill(e) for e in eids]
            except _Rerank as exc:
                # Entries filled before the alias used the old ranks:
                # re-rank with its repr and fill them again.
                self._rerank([*self._rank_of, exc.args[0]])

    # ------------------------------------------------------------------
    # one solution: (line, structure)
    # ------------------------------------------------------------------
    def edge_set(self, eids) -> Tuple[str, tuple]:
        """An edge- or arc-set solution, by edge ids or index pairs."""
        entries = self._entries(eids)
        if not entries:
            return "(single-vertex tree)", ()
        entries.sort(key=_KEY)
        return " ".join([e[2] for e in entries]), tuple([e[1] for e in entries])

    def vertex_set(self, vertices) -> Tuple[str, tuple]:
        """A vertex-set solution of vertex indices."""
        ordered = sorted(vertices, key=self.rank.__getitem__)
        labels, text = self.labels, self.text
        return " ".join([text[v] for v in ordered]), tuple([labels[v] for v in ordered])

    def path(self, vertices) -> Tuple[str, tuple]:
        """A path of vertex indices, in traversal order."""
        labels, text = self.labels, self.text
        return "->".join([text[v] for v in vertices]), tuple([labels[v] for v in vertices])

    def fragment(self, fragment) -> Tuple[str, str]:
        """A keyword fragment; its structure is its line."""
        tokens = sorted([e[3] for e in self._entries(fragment.structural_edges)])
        edges = " ".join(tokens) if tokens else "(single node)"
        text = self.text
        matches = ",".join([f"{kw}={text[node]}" for kw, node in fragment.matches])
        line = f"[{fragment.size}] {edges} | {matches}"
        return line, line


def render_table(job: EnumerationJob) -> RenderTable:
    """``job``'s :class:`RenderTable`, built on first need and kept on
    the job (never pickled with it)."""
    table = job.__dict__.get("_render")
    if table is None:
        labels = job.label_table()
        index_of = {v: i for i, v in enumerate(labels)}
        table = RenderTable(labels, index_of, job.edges, job.is_directed)
        object.__setattr__(job, "_render", table)
    return table


def solution_edge_structure(job: EnumerationJob, eids) -> tuple:
    """Label-level form of an edge/arc-set solution via positional ids.

    Edge ids of any instantiation of ``job`` are positions into
    ``job.edges``, so the original endpoint labels are recovered without
    touching the (possibly integer-relabeled) instance; the job's
    :class:`RenderTable` orders them.
    """
    return render_table(job).edge_set(eids)[1]


def run_job(job: EnumerationJob, resume: Optional[bytes] = None) -> JobResult:
    """Execute ``job`` to its limit/deadline/budget; never raises on overrun.

    The job runs as one :class:`repro.engine.suspend.Segment`, which
    states the execution envelope.  A run stopped cleanly (limit
    reached, or the deadline observed between solutions) carries a
    search-state ``snapshot`` in its result; passing that blob back as
    ``resume`` continues the stream where it stopped — the job's
    ``limit`` always bounds the *total* stream position, resumed
    segments included.  A run aborted by its op budget has no clean
    machine state and returns no snapshot.  A ``resume`` snapshot bound
    to another job raises :class:`~repro.exceptions.CursorStateError`.
    """
    from repro.engine.suspend import Segment

    start = time.perf_counter()
    segment = Segment(job, snapshot=resume)
    lines: List[str] = []
    structures: List[Any] = []
    for line, structure in segment:
        lines.append(line)
        structures.append(structure)
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        lines=tuple(lines),
        exhausted=segment.exhausted,
        stop_reason=segment.stop_reason,
        elapsed=time.perf_counter() - start,
        ops=segment.meter.count,
        structures=tuple(structures),
        snapshot=segment.snapshot(),
    )


def load_jobs_jsonl(path: str) -> List[EnumerationJob]:
    """Read a ``jobs.jsonl`` file: one JSON job spec per non-blank line."""
    jobs: List[EnumerationJob] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            try:
                jobs.append(EnumerationJob.from_json(body))
            except (json.JSONDecodeError, InvalidInstanceError) as exc:
                raise InvalidInstanceError(f"{path}:{line_no}: {exc}") from exc
    return jobs
