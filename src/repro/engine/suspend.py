"""Job-level suspendable streams: O(state) resume instead of O(offset).

:class:`JobSearch` adapts the suspendable core machines
(:mod:`repro.core.suspend`) to the engine's job vocabulary: it produces
the same ``(line, structure)`` stream as
:func:`repro.engine.jobs.iter_structures` for the kinds in
:data:`repro.engine.jobs.SUSPENDABLE_KINDS`, and adds
:meth:`JobSearch.snapshot` / :meth:`JobSearch.restore` — a serialized
search-state blob bound to the job's exact-instance fingerprint
(:func:`repro.engine.cache.job_fingerprint`) and backend.

A snapshot freezes the branch-and-bound stack itself, so resuming a
stream at solution ``k`` costs the snapshot's size, not a re-enumeration
of ``k`` solutions — the property the cursor layer
(:mod:`repro.engine.cursor`), the batch pool (:mod:`repro.engine.pool`)
and the serving layer (:mod:`repro.serve`) build on.

Snapshots are taken at *clean suspension points* — between delivered
solutions — which is where the cursor, the batch runner and the serve
workers naturally sit.  A stream aborted by a mid-step exception
(deadline/budget overrun raises from inside the substrate) has no clean
machine state; those resume by replay fast-forward instead.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.core.suspend import (
    SnapshotError,
    pack_snapshot,
    read_snapshot_header,
    unpack_snapshot,
)
from repro.engine.cache import job_fingerprint
from repro.core.capabilities import kinds_where, spec as kind_spec
from repro.engine.jobs import (
    EnumerationJob,
    _render_fragment,
    solution_edge_structure,
    structure_line,
)
from repro.exceptions import CursorStateError, InvalidInstanceError
from repro.graphs.fastgraph import resolve_backend

from repro.enumeration.events import SOLUTION


def supports_snapshot(job_or_kind) -> bool:
    """True when the job's kind has a suspendable machine."""
    kind = getattr(job_or_kind, "kind", job_or_kind)
    return kind in kinds_where(suspendable=True)


def snapshot_usable(
    blob: bytes,
    job: Optional[EnumerationJob] = None,
    allow_cross_version: bool = False,
) -> bool:
    """Cheaply decide whether ``blob`` could thaw (header-only check).

    Validates the envelope magic + header and, when ``job`` is given,
    that kind / backend / fingerprint / Python version all line up —
    without deserializing any machine state.  The serve layer uses this
    to degrade an unusable checkpoint snapshot to a deterministic
    offset replay instead of failing the stream (the property the fleet
    router's migration path leans on when replicas run under different
    interpreters or a snapshot in the shared store is damaged).
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
    if job is None:
        return True
    return (
        header.get("kind") == job.kind
        and resolve_backend(header["backend"]) == job.backend
        and header.get("fingerprint") == job_fingerprint(job)
    )


class JobSearch:
    """A suspendable ``(line, structure)`` stream for one job.

    The stream is byte-identical to
    :func:`repro.engine.jobs.iter_structures` on the same job (both
    backends); :meth:`next` returns one pair at a time, ``None`` at
    exhaustion.  ``emitted`` counts the absolute stream position —
    solutions produced across every suspended segment — so a snapshot's
    position always matches the cursor offset it was checkpointed with.
    """

    def __init__(self, job: EnumerationJob, meter=None) -> None:
        self._prepare(job, meter)
        instance = self._instance
        kind = job.kind
        backend = job.backend
        if kind == "steiner-tree":
            from repro.core.steiner_tree import SteinerTreeSearch

            self._machine = SteinerTreeSearch(
                instance,
                self._indexed_terminals,
                meter=meter,
                improved=True,
                backend=backend,
            )
        elif kind == "terminal-steiner":
            from repro.core.terminal_steiner import TerminalSteinerSearch

            self._machine = TerminalSteinerSearch(
                instance,
                self._indexed_terminals,
                meter=meter,
                improved=True,
                backend=backend,
            )
        elif kind == "steiner-forest":
            from repro.core.steiner_forest import SteinerForestSearch

            self._machine = SteinerForestSearch(
                instance,
                self._indexed_families,
                meter=meter,
                improved=True,
                backend=backend,
            )
        elif kind == "directed-steiner":
            from repro.core.directed_steiner import DirectedSteinerSearch

            self._machine = DirectedSteinerSearch(
                instance,
                self._indexed_terminals,
                self._indexed_root,
                meter=meter,
                improved=True,
                backend=backend,
            )
        elif kind == "induced-steiner":
            from repro.core.induced_steiner import InducedSteinerSearch

            self._machine = InducedSteinerSearch(
                instance, self._indexed_terminals, meter=meter, backend=backend
            )
        elif kind == "chordless-path":
            from repro.core.induced_paths import ChordlessPathSearch

            self._machine = ChordlessPathSearch(
                instance, self._source, self._target, meter=meter, backend=backend
            )
        elif kind == "st-path":
            if backend == "fast":
                from repro.paths.fastpaths import fast_st_path_search

                self._machine = fast_st_path_search(
                    self._substrate, self._source, self._target, meter=meter
                )
            else:
                from repro.paths.read_tarjan import StPathSearch

                self._machine = StPathSearch(
                    self._substrate, self._source, self._target, meter=meter
                )
        else:  # kfragments
            from repro.datagraph.kfragments import KFragmentSearch

            self._machine = KFragmentSearch(
                instance, list(job.keywords), meter=meter, backend=backend
            )

    def _prepare(self, job: EnumerationJob, meter) -> None:
        """Shared constructor body: validation, indexing, substrates.

        Factored out so :meth:`restore` can set up the search without
        building (and immediately discarding) a fresh machine — the
        static analysis runs once, inside the kind machine's own
        ``restore``.
        """
        job.validate()
        if not kind_spec(job.kind).suspendable:
            raise InvalidInstanceError(
                f"job kind {job.kind!r} has no suspendable machine; "
                f"suspendable kinds: {sorted(kinds_where(suspendable=True))}"
            )
        self.job = job
        self.meter = meter
        self.fingerprint = job_fingerprint(job)
        self.emitted = 0
        instance, labels, index_of = job.instantiate_indexed()
        self.labels = labels
        self._instance = instance
        if job.kind in ("steiner-tree", "terminal-steiner", "induced-steiner"):
            self._indexed_terminals = [
                self._query_vertex(index_of, t) for t in job.terminals
            ]
        elif job.kind == "steiner-forest":
            self._indexed_families = [
                [self._query_vertex(index_of, t) for t in family]
                for family in job.families
            ]
        elif job.kind == "directed-steiner":
            self._indexed_terminals = [
                self._query_vertex(index_of, t) for t in job.terminals
            ]
            self._indexed_root = self._query_vertex(index_of, job.root)
        elif job.kind == "chordless-path":
            self._source = self._query_vertex(index_of, job.source)
            self._target = self._query_vertex(index_of, job.target)
        elif job.kind == "st-path":
            self._source = self._query_vertex(index_of, job.source)
            self._target = self._query_vertex(index_of, job.target)
            if job.backend == "fast":
                from repro.core.backend import compile_undirected

                self._substrate, _idx = compile_undirected(instance)
            else:
                self._substrate = instance

    @staticmethod
    def _query_vertex(index_of: Dict[Any, int], vertex: Any) -> int:
        try:
            return index_of[vertex]
        except KeyError:
            raise InvalidInstanceError(
                f"query vertex {vertex!r} is not in the instance"
            ) from None

    # ------------------------------------------------------------------
    def next(self) -> Optional[Tuple[str, Any]]:
        """The next ``(line, structure)`` pair, or ``None`` at the end."""
        job = self.job
        kind = job.kind
        if kind in (
            "steiner-tree",
            "terminal-steiner",
            "steiner-forest",
            "directed-steiner",
        ):
            while True:
                event = self._machine.advance()
                if event is None:
                    return None
                if event[0] == SOLUTION:
                    structure = solution_edge_structure(job, event[1])
                    break
        elif kind == "induced-steiner":
            solution = self._machine.advance()
            if solution is None:
                return None
            structure = tuple(
                sorted((self.labels[v] for v in solution), key=repr)
            )
        elif kind == "chordless-path":
            path = self._machine.advance()
            if path is None:
                return None
            structure = tuple(self.labels[v] for v in path)
        elif kind == "st-path":
            path = self._machine.next_path()
            if path is None:
                return None
            structure = tuple(self.labels[v] for v in path.vertices)
        else:  # kfragments
            fragment = self._machine.advance()
            if fragment is None:
                return None
            structure = _render_fragment(job, self.labels, fragment)
        self.emitted += 1
        return structure_line(job, structure), structure

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
        machine = self._machine
        if self.job.kind == "st-path":
            if hasattr(machine, "machine"):  # object-backend wrapper
                return len(machine.machine.stack)
            return len(machine.stack)
        return machine.frame_count

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
        search._prepare(job, meter)
        inner = state["machine"]
        kind = job.kind
        if kind == "steiner-tree":
            from repro.core.steiner_tree import SteinerTreeSearch

            search._machine = SteinerTreeSearch.restore(
                search._instance, inner, meter
            )
        elif kind == "terminal-steiner":
            from repro.core.terminal_steiner import TerminalSteinerSearch

            search._machine = TerminalSteinerSearch.restore(
                search._instance, inner, meter
            )
        elif kind == "steiner-forest":
            from repro.core.steiner_forest import SteinerForestSearch

            search._machine = SteinerForestSearch.restore(
                search._instance, inner, meter
            )
        elif kind == "directed-steiner":
            from repro.core.directed_steiner import DirectedSteinerSearch

            search._machine = DirectedSteinerSearch.restore(
                search._instance, inner, meter
            )
        elif kind == "induced-steiner":
            from repro.core.induced_steiner import InducedSteinerSearch

            search._machine = InducedSteinerSearch.restore(
                search._instance, inner, meter
            )
        elif kind == "chordless-path":
            from repro.core.induced_paths import ChordlessPathSearch

            search._machine = ChordlessPathSearch.restore(
                search._instance, inner, meter
            )
        elif kind == "st-path":
            if job.backend == "fast":
                from repro.paths.fastpaths import FastPathSearch

                search._machine = FastPathSearch.restore(
                    search._substrate, inner, meter
                )
            else:
                from repro.paths.read_tarjan import StPathSearch

                search._machine = StPathSearch.restore(
                    search._substrate, inner, meter
                )
        else:  # kfragments
            from repro.datagraph.kfragments import KFragmentSearch

            search._machine = KFragmentSearch.restore(
                search._instance, inner, meter
            )
        search.emitted = state["emitted"]
        return search


def snapshot_header(blob: bytes) -> Dict[str, Any]:
    """The envelope header of a snapshot blob (no payload deserialization)."""
    return read_snapshot_header(blob)
