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
import time
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
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
#: single source of truth for result shapes, backend support,
#: suspendability, relabelability and cacheability.
JOB_KINDS = capabilities.JOB_KINDS

# ----------------------------------------------------------------------
# deprecated capability frozensets
# ----------------------------------------------------------------------
# The capability split used to be encoded here as five frozensets that
# serve/cursor/cache each imported.  They are now derived views of the
# registry, kept importable for one release; new code should consult
# :func:`repro.core.capabilities.spec` / ``kinds_where`` instead.
_DEPRECATED_KIND_SETS = {
    "EDGE_SET_KINDS": {"result_shape": "edge-set"},
    "ARC_SET_KINDS": {"result_shape": "arc-set"},
    "VERTEX_SET_KINDS": {"result_shape": "vertex-set"},
    "PATH_KINDS": {"result_shape": "path"},
    "RELABELABLE_KINDS": {"relabelable": True},
    "SUSPENDABLE_KINDS": {"suspendable": True},
}


def __getattr__(name: str):
    flags = _DEPRECATED_KIND_SETS.get(name)
    if flags is not None:
        import warnings

        warnings.warn(
            f"repro.engine.jobs.{name} is deprecated and will be removed "
            f"one release after 0.7; use "
            f"repro.core.capabilities.kinds_where({', '.join(f'{k}={v!r}' for k, v in flags.items())}) "
            f"or repro.core.capabilities.spec(kind) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return capabilities.kinds_where(**flags)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        """Raise :class:`InvalidInstanceError` on a malformed spec."""
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

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict; omits defaulted fields for compact job files."""
        spec: Dict[str, Any] = {"kind": self.kind, "edges": [list(e) for e in self.edges]}
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
            kwargs["edges"] = tuple((u, v) for u, v in kwargs.get("edges", ()))
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

    def instantiate_indexed(self):
        """The instance over integer vertex indices, plus the label table.

        Integers hash to themselves, so enumeration order over the
        indexed instance is identical in every Python process —
        string-labeled instances would inherit ``PYTHONHASHSEED``-
        dependent set/dict iteration order from the solvers.  Edge ids
        are positional either way, so solutions translate back through
        the returned table.  Returns ``(instance, labels, index_of)``.
        """
        labels = self.label_table()
        index_of = {v: i for i, v in enumerate(labels)}
        edges = [(index_of[u], index_of[v]) for u, v in self.edges]
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
    (``limit`` / ``deadline`` / ``budget``).  For suspendable kinds
    (``suspendable`` in :mod:`repro.core.capabilities`) a cleanly
    stopped run also carries a
    search-state ``snapshot``: pass it back as ``run_job(job,
    resume=...)`` to continue the stream in O(state) instead of
    replaying the delivered prefix.  Like ``structures`` it is excluded
    from serialization and comparison.
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


def solution_edge_structure(job: EnumerationJob, eids) -> tuple:
    """Label-level form of an edge/arc-set solution via positional ids.

    Edge ids of any instantiation of ``job`` are positions into
    ``job.edges``, so the original endpoint labels are recovered without
    touching the (possibly integer-relabeled) instance.
    """
    if job.is_directed:
        pairs = [job.edges[a] for a in eids]
    else:
        pairs = [tuple(sorted(job.edges[e], key=repr)) for e in eids]
    return tuple(sorted(pairs, key=lambda p: (repr(p[0]), repr(p[1]))))


def _render_fragment(job: EnumerationJob, labels, fragment) -> str:
    """Deterministic one-line rendering of a keyword-search fragment."""
    pairs = sorted(
        "{}-{}".format(*sorted(map(str, job.edges[e])))
        for e in fragment.structural_edges
    )
    edges = " ".join(pairs) if pairs else "(single node)"
    matches = ",".join(f"{kw}={labels[node]}" for kw, node in fragment.matches)
    return f"[{fragment.size}] {edges} | {matches}"


def iter_structures(job: EnumerationJob, meter: Optional[CostMeter] = None) -> Iterator:
    """Drive the solver for ``job``, yielding label-level structures.

    The solver runs on the integer-indexed instance (see
    :meth:`EnumerationJob.instantiate_indexed`) so the solution order is
    identical in every process; yields are translated back to the job's
    own labels.  For ``kfragments`` jobs the yields are pre-rendered
    lines (fragments carry match metadata that does not survive
    relabeling, so the cache never translates them).
    """
    job.validate()
    instance, labels, raw_index = job.instantiate_indexed()

    class _QueryIndex(dict):
        """index_of with instance-membership errors instead of KeyErrors."""

        def __missing__(self, vertex):
            raise InvalidInstanceError(
                f"query vertex {vertex!r} is not in the instance"
            )

    index_of = _QueryIndex(raw_index)
    backend = job.backend
    if job.kind == "steiner-tree":
        from repro.core.steiner_tree import enumerate_minimal_steiner_trees

        for sol in enumerate_minimal_steiner_trees(
            instance, [index_of[t] for t in job.terminals], meter=meter,
            backend=backend,
        ):
            yield solution_edge_structure(job, sol)
    elif job.kind == "steiner-forest":
        from repro.core.steiner_forest import enumerate_minimal_steiner_forests

        for sol in enumerate_minimal_steiner_forests(
            instance,
            [[index_of[t] for t in f] for f in job.families],
            meter=meter,
            backend=backend,
        ):
            yield solution_edge_structure(job, sol)
    elif job.kind == "terminal-steiner":
        from repro.core.terminal_steiner import enumerate_minimal_terminal_steiner_trees

        for sol in enumerate_minimal_terminal_steiner_trees(
            instance, [index_of[t] for t in job.terminals], meter=meter,
            backend=backend,
        ):
            yield solution_edge_structure(job, sol)
    elif job.kind == "directed-steiner":
        from repro.core.directed_steiner import enumerate_minimal_directed_steiner_trees

        for sol in enumerate_minimal_directed_steiner_trees(
            instance,
            [index_of[t] for t in job.terminals],
            index_of[job.root],
            meter=meter,
            backend=backend,
        ):
            yield solution_edge_structure(job, sol)
    elif job.kind == "induced-steiner":
        from repro.core.induced_steiner import enumerate_minimal_induced_steiner_subgraphs

        for sol in enumerate_minimal_induced_steiner_subgraphs(
            instance, [index_of[t] for t in job.terminals], meter=meter,
            backend=backend,
        ):
            yield tuple(sorted((labels[v] for v in sol), key=repr))
    elif job.kind == "chordless-path":
        from repro.core.induced_paths import enumerate_chordless_st_paths

        for path in enumerate_chordless_st_paths(
            instance, index_of[job.source], index_of[job.target], meter=meter,
            backend=backend,
        ):
            yield tuple(labels[v] for v in path)
    elif job.kind == "st-path":
        from repro.paths.read_tarjan import enumerate_st_paths_undirected

        for path in enumerate_st_paths_undirected(
            instance, index_of[job.source], index_of[job.target], meter=meter,
            backend=backend,
        ):
            yield tuple(labels[v] for v in path.vertices)
    elif job.kind == "kfragments":
        from repro.datagraph.kfragments import undirected_kfragments

        for fragment in undirected_kfragments(
            instance, list(job.keywords), meter=meter, backend=backend
        ):
            yield _render_fragment(job, labels, fragment)
    else:  # pragma: no cover - validate() rejects unknown kinds
        raise InvalidInstanceError(f"unhandled job kind {job.kind!r}")


def structure_line(job: EnumerationJob, structure) -> str:
    """Render one structure yielded by :func:`iter_structures` for ``job``."""
    if job.kind == "kfragments":
        return structure
    return render_structure(job.kind, structure)


def run_job(job: EnumerationJob, resume: Optional[bytes] = None) -> JobResult:
    """Execute ``job`` to its limit/deadline/budget; never raises on overrun.

    Suspendable kinds (``suspendable`` in the capability registry,
    :mod:`repro.core.capabilities`) run on their search
    machine: a run stopped cleanly (limit reached, or the deadline
    observed between solutions) carries a search-state ``snapshot`` in
    its result, and passing that blob back as ``resume`` continues the
    stream where it stopped — the job's ``limit`` always bounds the
    *total* stream position, resumed segments included.  A run aborted
    mid-step (op budget / deadline tripped inside the substrate) has no
    clean machine state and returns no snapshot; such streams resume by
    replay.  ``resume`` for a replay-only kind raises
    :class:`InvalidInstanceError`.
    """
    start = time.perf_counter()
    deadline_at = (
        (time.monotonic() + job.deadline) if job.deadline is not None else None
    )
    meter = _BudgetMeter(budget=job.budget, deadline_at=deadline_at)
    structures: List[Any] = []
    stop_reason: Optional[str] = None
    exhausted = False
    snapshot_out: Optional[bytes] = None
    if kind_spec(job.kind).suspendable:
        from repro.engine.suspend import JobSearch

        # Machine-driven runs enforce the deadline between solutions —
        # a clean suspension point, so the stop keeps its snapshot —
        # instead of letting the substrate meter abort mid-step.
        meter.deadline_at = None
        lines_list: List[str] = []
        search = (
            JobSearch.restore(job, resume, meter)
            if resume is not None
            else JobSearch(job, meter)
        )
        remaining = (
            None if job.limit is None else max(0, job.limit - search.emitted)
        )
        clean = True
        try:
            while True:
                if remaining is not None and len(structures) >= remaining:
                    stop_reason = "limit"
                    break
                pair = search.next()
                if pair is None:
                    exhausted = True
                    break
                line, structure = pair
                lines_list.append(line)
                structures.append(structure)
                # Limit before deadline, matching the replay-only branch:
                # reaching the cap reports "limit" even when the clock
                # has also just run out.
                if remaining is not None and len(structures) >= remaining:
                    stop_reason = "limit"
                    break
                if deadline_at is not None and time.monotonic() > deadline_at:
                    stop_reason = "deadline"
                    break
        except BudgetExceeded as exc:
            stop_reason = exc.reason
            clean = False  # the machine state is mid-step: not resumable
        if not exhausted and clean:
            snapshot_out = search.snapshot()
        lines = tuple(lines_list)
    else:
        if resume is not None:
            raise InvalidInstanceError(
                f"job kind {job.kind!r} is replay-only (no snapshot resume)"
            )
        if job.limit == 0:
            stop_reason = "limit"
        else:
            try:
                for structure in iter_structures(job, meter):
                    structures.append(structure)
                    if job.limit is not None and len(structures) >= job.limit:
                        stop_reason = "limit"
                        break
                    if (
                        meter.deadline_at is not None
                        and time.monotonic() > meter.deadline_at
                    ):
                        stop_reason = "deadline"
                        break
                else:
                    exhausted = True
            except BudgetExceeded as exc:
                stop_reason = exc.reason
        lines = tuple(structure_line(job, s) for s in structures)
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        lines=lines,
        exhausted=exhausted,
        stop_reason=stop_reason,
        elapsed=time.perf_counter() - start,
        ops=meter.count,
        structures=tuple(structures),
        snapshot=snapshot_out,
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
