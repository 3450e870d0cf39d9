"""Job-level suspendable streams and the one envelope every stream runs in.

:class:`JobSearch` runs a job on its kind's explicit-state search
machine (:mod:`repro.core.suspend`) and produces the job's
``(line, structure)`` stream, with :meth:`JobSearch.snapshot` /
:meth:`JobSearch.restore` — a serialized search-state blob bound to
the job's exact-instance fingerprint
(:func:`repro.engine.cache.job_fingerprint`) and backend.  A snapshot
freezes the branch-and-bound stack itself, so resuming a stream at
solution ``k`` costs the snapshot's size, not a re-enumeration of
``k`` solutions.

:class:`Segment` is the execution envelope: it positions a search at a
stream offset and delivers the pairs after it under the job's limit,
deadline and op budget.  :func:`repro.engine.jobs.run_job`,
:class:`repro.engine.cursor.EnumerationCursor` and the serve workers
(:mod:`repro.serve.workers`) all run their streams through it.

Snapshots are taken at *clean suspension points* — between delivered
solutions.  A stream aborted by its op budget stops inside a step, has
no clean machine state, and resumes by fast-forward instead.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from repro.core.capabilities import kinds_where
from repro.core.directed_steiner import DirectedSteinerSearch
from repro.core.induced_paths import ChordlessPathSearch
from repro.core.induced_steiner import InducedSteinerSearch
from repro.core.steiner_forest import SteinerForestSearch
from repro.core.steiner_tree import SteinerTreeSearch
from repro.core.suspend import (
    SnapshotError,
    pack_snapshot,
    read_snapshot_header,
    unpack_snapshot,
)
from repro.core.terminal_steiner import TerminalSteinerSearch
from repro.datagraph.kfragments import KFragmentSearch
from repro.engine.cache import job_fingerprint
from repro.engine.jobs import (
    BudgetExceeded,
    EnumerationJob,
    RenderTable,
    _BudgetMeter,
)
from repro.enumeration.events import SOLUTION
from repro.exceptions import CursorStateError, InvalidInstanceError
from repro.graphs.fastgraph import FastGraph, resolve_backend
from repro.paths.fastpaths import FastPathSearch, fast_st_path_search
from repro.paths.read_tarjan import StPathSearch


def _binds(header: Dict[str, Any], job: EnumerationJob) -> bool:
    """True when a snapshot header names ``job``'s kind, backend and instance."""
    return (
        header.get("kind") == job.kind
        and resolve_backend(header["backend"]) == job.backend
        and header.get("fingerprint") == job_fingerprint(job)
    )


def snapshot_usable(
    blob: bytes,
    job: Optional[EnumerationJob] = None,
    allow_cross_version: bool = False,
) -> bool:
    """Cheaply decide whether ``blob`` could thaw (header-only check).

    Validates the envelope magic + header and, when ``job`` is given,
    that kind / backend / fingerprint / Python version all line up —
    without deserializing any machine state.  The serve layer uses this
    to drop an unusable checkpoint snapshot before the stream starts,
    so it is neither shipped to a worker nor re-issued in the next
    checkpoint.
    """
    try:
        header = read_snapshot_header(blob)
    except SnapshotError:
        return False
    if not allow_cross_version:
        import sys

        tag = f"{sys.version_info.major}.{sys.version_info.minor}"
        if header.get("python") != tag:
            return False
    return job is None or _binds(header, job)


# ----------------------------------------------------------------------
# the kind table
# ----------------------------------------------------------------------
class _Machine(NamedTuple):
    """How one kind's search machine is built, thawed and read."""

    #: ``(job, vertex) -> args``: the query in indexed vertices.
    query: Callable[..., tuple]
    #: ``(instance, args, meter, backend) -> machine``.
    build: Callable[..., Any]
    #: ``(instance, state, meter, backend) -> machine``.
    restore: Callable[..., Any]
    #: ``machine -> raw solution``, ``None`` at the end of the stream.
    pull: Callable[[Any], Any]
    #: ``(render table, raw solution) -> (line, label-level structure)``.
    render: Callable[..., Tuple[str, Any]]


def _terminals(job, vertex):
    return ([vertex(t) for t in job.terminals],)


def _families(job, vertex):
    return ([[vertex(t) for t in family] for family in job.families],)


def _rooted(job, vertex):
    return ([vertex(t) for t in job.terminals], vertex(job.root))


def _endpoints(job, vertex):
    return (vertex(job.source), vertex(job.target))


def _keywords(job, vertex):
    return (list(job.keywords),)


def _next_solution(machine):
    """The next SOLUTION payload of an event-stream machine."""
    while True:
        event = machine.advance()
        if event is None:
            return None
        if event[0] == SOLUTION:
            return event[1]


def _next_path(machine):
    path = machine.next_path()
    return None if path is None else path.vertices


def _advance(machine):
    return machine.advance()


def _steiner(cls, query) -> _Machine:
    return _Machine(
        query,
        lambda g, args, meter, backend: cls(
            g, *args, meter=meter, improved=True, backend=backend
        ),
        lambda g, state, meter, _backend: cls.restore(g, state, meter),
        _next_solution,
        RenderTable.edge_set,
    )


def _plain(cls, query, render) -> _Machine:
    return _Machine(
        query,
        lambda g, args, meter, backend: cls(g, *args, meter=meter, backend=backend),
        lambda g, state, meter, _backend: cls.restore(g, state, meter),
        _advance,
        render,
    )


# ----------------------------------------------------------------------
# one kernel per graph
# ----------------------------------------------------------------------
#: Kinds whose queries on one graph share one compiled fast kernel
#: (``shared_kernel`` in :mod:`repro.core.capabilities`).
_SHARED_KERNEL_KINDS = kinds_where(shared_kernel=True)

#: Compiled graphs each thread keeps (least recently used out first).
_KERNEL_MEMO = 4


class _Kernels(threading.local):
    """Per-thread memo: instance -> ``(kernel, version, render table)``.

    Per thread because a kernel's sweep buffers (``_scratch``) serve one
    search call at a time.
    """

    def __init__(self) -> None:
        self.entries: "OrderedDict[tuple, tuple]" = OrderedDict()


_KERNELS = _Kernels()


def _kernel_key(job: EnumerationJob) -> Optional[tuple]:
    """The memo key of ``job``'s instance, ``None`` when it is not shared."""
    if job.backend != "fast" or job.kind not in _SHARED_KERNEL_KINDS:
        return None
    return (job.edges, job.vertices, job.node_keywords)


def _indexed_instance(job: EnumerationJob) -> Tuple[Any, RenderTable]:
    """``job.instantiate_indexed()`` as ``(instance, render table)``,
    except that a shared kind gets its graph's kernel and table from the
    memo, the kernel compiled on the first query straight from the index
    pairs (the kernel ``instantiate_indexed`` plus compilation would
    give, without the object graph between).  The table is kept on the
    job too (:func:`repro.engine.jobs.render_table`)."""
    key = _kernel_key(job)
    if key is None:
        instance, labels, index_of = job.instantiate_indexed()
        table = job.__dict__.get("_render") or RenderTable(
            labels, index_of, job.edges, job.is_directed
        )
    else:
        entries = _KERNELS.entries
        entry = entries.get(key)
        if entry is not None and entry[0].version == entry[1]:
            entries.move_to_end(key)
            instance, table = entry[0], entry[2]
            if table.edges is not job.edges:
                # Equal pairs in other objects, which an edge renders.
                table = RenderTable(table.labels, table.index_of, job.edges, job.is_directed)
                entries[key] = (instance, entry[1], table)
        else:
            labels, index_of, pairs = job.index_pairs()
            instance = FastGraph.from_edges(pairs, range(len(labels)))
            table = RenderTable(labels, index_of, job.edges, job.is_directed)
            entries[key] = (instance, instance.version, table)
            while len(entries) > _KERNEL_MEMO:
                entries.popitem(last=False)
    object.__setattr__(job, "_render", table)
    return instance, table


def _forget_kernel(job: EnumerationJob) -> None:
    """Drop ``job``'s kernel: a search stopped inside a step with it."""
    key = _kernel_key(job)
    if key is not None:
        _KERNELS.entries.pop(key, None)


#: Every job kind's search machine, in one place.
_MACHINES: Dict[str, _Machine] = {
    "steiner-tree": _steiner(SteinerTreeSearch, _terminals),
    "terminal-steiner": _steiner(TerminalSteinerSearch, _terminals),
    "steiner-forest": _steiner(SteinerForestSearch, _families),
    "directed-steiner": _steiner(DirectedSteinerSearch, _rooted),
    "induced-steiner": _plain(InducedSteinerSearch, _terminals, RenderTable.vertex_set),
    "chordless-path": _plain(ChordlessPathSearch, _endpoints, RenderTable.path),
    # On the fast backend the instance is the memo's compiled kernel.
    "st-path": _Machine(
        _endpoints,
        lambda g, args, meter, backend: (
            fast_st_path_search if backend == "fast" else StPathSearch
        )(g, *args, meter=meter),
        lambda g, state, meter, backend: (
            FastPathSearch if backend == "fast" else StPathSearch
        ).restore(g, state, meter),
        _next_path,
        RenderTable.path,
    ),
    "kfragments": _plain(KFragmentSearch, _keywords, RenderTable.fragment),
}


class JobSearch:
    """A suspendable ``(line, structure)`` stream for one job.

    :meth:`next` returns one pair at a time, ``None`` at exhaustion.
    The stream is byte-identical on both backends.  ``emitted`` counts
    the absolute stream position — solutions produced across every
    suspended segment — so a snapshot's position always matches the
    cursor offset it was checkpointed with.
    """

    def __init__(self, job: EnumerationJob, meter=None) -> None:
        kind = self._prepare(job, meter)
        args = kind.query(job, self._query_vertex)
        self._machine = kind.build(self._instance, args, meter, job.backend)

    def _prepare(self, job: EnumerationJob, meter) -> _Machine:
        """Shared by :meth:`__init__` and :meth:`restore`: validation,
        fingerprint and the integer-indexed instance."""
        job.validate()
        self.job = job
        self.meter = meter
        self.fingerprint = job_fingerprint(job)
        self.emitted = 0
        self._instance, self.table = _indexed_instance(job)
        self._kind = _MACHINES[job.kind]
        return self._kind

    def _query_vertex(self, vertex: Any) -> int:
        try:
            return self.table.index_of[vertex]
        except KeyError:
            raise InvalidInstanceError(
                f"query vertex {vertex!r} is not in the instance"
            ) from None

    # ------------------------------------------------------------------
    def next(self) -> Optional[Tuple[str, Any]]:
        """The next ``(line, structure)`` pair, or ``None`` at the end."""
        raw = self._kind.pull(self._machine)
        if raw is None:
            return None
        pair = self._kind.render(self.table, raw)
        self.emitted += 1
        return pair

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        while True:
            pair = self.next()
            if pair is None:
                return
            yield pair

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Search-stack depth (header bookkeeping for inspection tools)."""
        return self._machine.frame_count

    def snapshot(self) -> bytes:
        """Freeze the search state into a fingerprint-bound envelope."""
        state = {"machine": self._machine.state(), "emitted": self.emitted}
        return pack_snapshot(
            self.job.kind,
            self.job.backend,
            self.fingerprint,
            state,
            frames=self.frame_count,
            emitted=self.emitted,
        )

    @classmethod
    def restore(
        cls,
        job: EnumerationJob,
        blob: bytes,
        meter=None,
        allow_cross_version: bool = False,
    ) -> "JobSearch":
        """Thaw a snapshot against ``job``.

        The envelope's kind, backend and instance fingerprint must all
        match ``job``; a mismatch raises :class:`CursorStateError`
        before any state is deserialized.  Snapshots are bound to the
        writing Python minor version unless ``allow_cross_version``.
        """
        try:
            _header, state = unpack_snapshot(
                blob,
                expect_kind=job.kind,
                expect_backend=job.backend,
                expect_fingerprint=job_fingerprint(job),
                allow_cross_version=allow_cross_version,
            )
        except SnapshotError as exc:
            raise CursorStateError(f"cannot resume snapshot: {exc}") from exc
        search = cls.__new__(cls)
        kind = search._prepare(job, meter)
        search._machine = kind.restore(
            search._instance, state["machine"], meter, job.backend
        )
        search.emitted = state["emitted"]
        return search


# ----------------------------------------------------------------------
# the envelope
# ----------------------------------------------------------------------
class Segment:
    """One run of a job's stream from ``offset``, under the job's envelope.

    Iterating a segment yields the ``(line, structure)`` pairs at stream
    positions ``offset, offset + 1, ...`` and applies these rules:

    * **Positioning.**  A ``snapshot`` taken at ``offset`` is thawed.
      Without a usable one the search restarts and fast-forwards past
      the first ``offset`` solutions without delivering them.
      ``offset=None`` means the snapshot's own position (0 without one).
    * **Limit.**  ``job.limit`` bounds the absolute stream position,
      and is checked before the deadline: a segment that reaches it
      stops with ``"limit"`` even when the clock has also run out.
    * **Deadline.**  ``job.deadline`` runs from the start of the
      segment, covers positioning and fast-forward, and is checked
      between solutions.  Such a stop is clean and keeps its snapshot.
    * **Op budget.**  ``job.budget`` covers the whole segment when it
      starts at position 0.  A positioned segment arms it at its first
      delivered solution, so a budget-stopped stream still progresses
      across resumes instead of re-spending its allowance on the
      fast-forward.
    * **Budget abort.**  The budget trips inside a step, so the stop is
      not clean and keeps no snapshot.  Such a stop, and an error, also
      drops the job's shared kernel from the memo: the step may have
      left its sweep buffers mid-use.
    * **Offset past the end** of the stream raises
      :class:`InvalidInstanceError`.
    * **Foreign snapshot.**  A snapshot bound to another job, or at a
      position other than ``offset``, raises :class:`CursorStateError`.
      With ``degrade`` it restarts and fast-forwards instead (thawing a
      snapshot behind ``offset`` and fast-forwarding the gap), the rule
      fleet migration depends on.  A snapshot whose header matches but
      whose payload does not thaw (damaged, written by another Python
      minor version) restarts either way.

    ``on_skip(position, line, structure)`` sees each fast-forwarded
    solution.  When iteration ends, ``stop_reason`` (``"limit"``,
    ``"deadline"``, ``"budget"`` or ``None``), ``exhausted`` and
    ``clean`` report why; ``position`` is the stream position reached
    and :meth:`snapshot` freezes the search there.
    """

    def __init__(
        self,
        job: EnumerationJob,
        offset: Optional[int] = None,
        snapshot: Optional[bytes] = None,
        *,
        degrade: bool = False,
        on_skip: Optional[Callable[[int, str, Any], None]] = None,
    ) -> None:
        job.validate()
        self.job = job
        self.offset = offset
        self.position = offset
        self.degrade = degrade
        self.on_skip = on_skip
        self.meter = _BudgetMeter()
        self.search: Optional[JobSearch] = None
        self.stop_reason: Optional[str] = None
        self.exhausted = False
        self.clean = True
        self._given = snapshot

    def __iter__(self) -> Iterator[Tuple[str, Any]]:
        job, meter = self.job, self.meter
        deadline_at = None if job.deadline is None else time.monotonic() + job.deadline
        blob, offset = self._reconcile()
        self.offset = self.position = offset
        if job.limit is not None and offset >= job.limit:
            self.stop_reason = "limit"
            return
        armed = offset == 0
        if armed:
            meter.budget = job.budget
        try:
            search = None
            if blob is not None:
                try:
                    search = JobSearch.restore(job, blob, meter)
                except CursorStateError:
                    pass  # the header matched, the payload does not thaw
            if search is None:
                search = JobSearch(job, meter)
            self.search = search
            while True:
                pair = search.next()
                if pair is None:
                    self.exhausted = True
                    break
                if search.emitted <= offset:
                    if self.on_skip is not None:
                        self.on_skip(search.emitted - 1, *pair)
                    if deadline_at is not None and time.monotonic() > deadline_at:
                        self.stop_reason = "deadline"
                        return
                    continue
                if not armed:
                    armed = True
                    if job.budget is not None:
                        meter.budget = meter.count + job.budget
                self.position = search.emitted
                yield pair
                if job.limit is not None and self.position >= job.limit:
                    self.stop_reason = "limit"
                    return
                if deadline_at is not None and time.monotonic() > deadline_at:
                    self.stop_reason = "deadline"
                    return
        except BudgetExceeded as exc:
            self.stop_reason = exc.reason
            self.clean = False
            _forget_kernel(job)
            return
        except Exception:
            self.clean = False
            _forget_kernel(job)
            raise
        if search.emitted < offset:
            self.exhausted = False
            raise InvalidInstanceError(
                f"offset {offset} exceeds the job's solution stream "
                f"({search.emitted} solutions)"
            )

    def _reconcile(self) -> Tuple[Optional[bytes], int]:
        """The snapshot to thaw (``None``: restart) and the offset."""
        blob, offset = self._given, self.offset
        if blob is None:
            return None, offset or 0
        try:
            header = read_snapshot_header(blob)
        except SnapshotError as exc:
            if offset is None:
                raise CursorStateError(f"cannot resume snapshot: {exc}") from exc
            return None, offset
        if not _binds(header, self.job):
            if self.degrade:
                return None, offset
            raise CursorStateError(
                "snapshot was taken for a different job (snapshot "
                f"kind={header['kind']!r} backend={header['backend']!r})"
            )
        emitted = header.get("emitted")
        if offset is None or emitted == offset:
            return blob, emitted
        if not self.degrade:
            raise CursorStateError(
                f"snapshot position {emitted!r} does not match the offset {offset}"
            )
        return (blob if emitted < offset else None), offset

    def snapshot(self) -> Optional[bytes]:
        """The search state at :attr:`position`, or ``None`` when there is
        no clean one (budget abort, exhausted, or stopped short of the
        offset)."""
        search = self.search
        if (
            search is None
            or not self.clean
            or self.exhausted
            or search.emitted != self.position
        ):
            return None
        return search.snapshot()
