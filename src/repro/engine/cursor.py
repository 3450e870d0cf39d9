"""Resumable streaming cursors over enumeration jobs.

A :class:`EnumerationCursor` turns a job into a pull-based stream: take
the first ``k`` solutions, :meth:`checkpoint` (a small JSON-able dict:
job spec + delivered offset + a digest of the delivered prefix + — for
suspendable kinds — a serialized search-state snapshot), persist it
anywhere, and :meth:`resume` later to receive *exactly* the remaining
tail — the concatenation of the two passes equals one uninterrupted run.

Resumption cost, in order of preference:

1. **Snapshot resume** (kinds in
   ``suspendable`` in :mod:`repro.core.capabilities`): the checkpoint embeds
   the frozen branch-and-bound stack (:mod:`repro.engine.suspend`), so
   the resumed cursor continues in O(state) — no re-enumeration, no
   matter how deep the stream position is.
2. **Cache replay**: with a cache attached, delivered prefixes are
   stored on :meth:`checkpoint`, so resuming replays cached solutions
   and only enumerates what was never produced.
3. **Replay fast-forward** (the fallback, and the only option for
   replay-only kinds or ``resume_mode="replay"``): re-run the
   (deterministic) enumerator and discard ``offset`` solutions without
   rendering them — correct, but O(offset).

Every resume is fingerprint-checked: a checkpoint replayed against a
job whose kind, backend or exact-instance fingerprint differs raises
:class:`repro.exceptions.CursorStateError` instead of silently
fast-forwarding the wrong stream, and the prefix digest still guards
against spec tampering on the replay path.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.cache import InstanceCache, job_fingerprint
from repro.core.capabilities import spec as kind_spec
from repro.engine.jobs import (
    BudgetExceeded,
    EnumerationJob,
    JobResult,
    _BudgetMeter,
    iter_structures,
    structure_line,
)
from repro.exceptions import CursorStateError, InvalidInstanceError
from repro.graphs.fastgraph import resolve_backend

import time

#: Valid values for ``resume_mode``.
RESUME_MODES = ("snapshot", "replay")


class _CleanStop(BudgetExceeded):
    """A deadline observed *between* solutions (machine-driven segments).

    Unlike a mid-step abort raised by the substrate meter, the machine
    is at a clean suspension point, so the cursor keeps its snapshot:
    deadline-bounded rounds stay O(state)-resumable.
    """


class EnumerationCursor:
    """A chunked, checkpointable view of one job's solution stream.

    Parameters
    ----------
    job:
        The job to stream.  Its ``limit`` bounds the *total* stream
        length.  Each live enumeration segment gets a fresh allowance:
        the ``deadline`` bounds the segment's wall clock (fast-forward
        included), while the op ``budget`` arms only once delivery
        begins, so budget-stopped cursors always progress across
        resumes.
    cache:
        Optional :class:`InstanceCache`.  Delivered prefixes are stored
        into it on :meth:`checkpoint`/exhaustion so later resumes (and
        unrelated identical jobs) skip recomputation.
    offset:
        Internal — number of solutions already delivered (set by
        :meth:`resume`).
    snapshot:
        Internal — serialized search state to resume from (set by
        :meth:`resume` from the checkpoint's ``snapshot`` field).
    resume_mode:
        ``"snapshot"`` (default) resumes suspendable kinds from the
        embedded search-state snapshot; ``"replay"`` forces the
        fast-forward path (used for benchmarking and as an escape
        hatch).  Replay-only kinds always fast-forward.

    Examples
    --------
    >>> job = EnumerationJob.steiner_tree(
    ...     [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], ["a", "d"])
    >>> cur = EnumerationCursor(job)
    >>> cur.take(1)
    ['a-c c-d']
    >>> state = cur.checkpoint()
    >>> EnumerationCursor.resume(state).take(5)
    ['a-b b-c c-d']
    """

    def __init__(
        self,
        job: EnumerationJob,
        cache: Optional[InstanceCache] = None,
        offset: int = 0,
        _expected_digest: Optional[str] = None,
        snapshot: Optional[bytes] = None,
        resume_mode: str = "snapshot",
    ) -> None:
        job.validate()
        if resume_mode not in RESUME_MODES:
            raise InvalidInstanceError(
                f"unknown resume_mode {resume_mode!r}; expected one of {RESUME_MODES}"
            )
        self.job = job
        self.cache = cache
        self.offset = offset  # solutions delivered so far (across resumes)
        self.resume_mode = resume_mode
        self.exhausted = False
        self.stop_reason: Optional[str] = None
        self._delivered: List[str] = []  # lines delivered by THIS cursor object
        # Everything known about positions [0, offset): replayed cache
        # prefix + fast-forwarded lines + delivered lines, with parallel
        # label-level structures (None where unknown).  Complete coverage
        # lets checkpoint() upgrade the cache and digest the full prefix.
        self._known_lines: List[str] = []
        self._known_structures: List[Any] = []
        self._initial_offset = offset
        self._expected_digest = _expected_digest
        self._snapshot_blob = snapshot
        self._iterator: Optional[Iterator[Tuple[str, Any]]] = None
        self._meter: Optional[_BudgetMeter] = None
        self._search = None  # live JobSearch (suspendable kinds only)
        self._dirty = False  # True after a mid-step abort: state unusable

    # ------------------------------------------------------------------
    def take(self, k: int) -> List[str]:
        """Deliver up to ``k`` further solution lines (fewer at the end)."""
        if k < 0:
            raise ValueError("take() needs k >= 0")
        out: List[str] = []
        if self.exhausted:
            return out
        iterator = self._ensure_iterator()
        while len(out) < k:
            if self._remaining_limit() == 0:
                self.exhausted = True
                self.stop_reason = "limit"
                break
            try:
                line, structure = next(iterator)
            except StopIteration:
                self.exhausted = True
                self._record_final()
                break
            except BudgetExceeded as exc:
                self.exhausted = True
                self.stop_reason = exc.reason
                # A between-solutions deadline stop keeps the machine at
                # a clean suspension point; only mid-step aborts (budget
                # or a substrate-raised deadline) poison the snapshot.
                self._dirty = not isinstance(exc, _CleanStop)
                break
            out.append(line)
            self._delivered.append(line)
            self._known_lines.append(line)
            self._known_structures.append(structure)
            self.offset += 1
        return out

    def drain(self, chunk: int = 256) -> List[str]:
        """Deliver everything that remains, reading ``chunk`` at a time."""
        out: List[str] = []
        while not self.exhausted:
            got = self.take(chunk)
            out.extend(got)
            if not got and not self.exhausted:  # pragma: no cover - safety
                break
        return out

    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-serializable resume token for the current position.

        Also stores the delivered prefix into the attached cache so the
        matching :meth:`resume` costs no re-enumeration, and — for
        suspendable kinds at a clean suspension point — embeds the
        serialized search state so :meth:`resume` is O(state).
        """
        self._store_prefix()
        state: Dict[str, Any] = {
            "version": 1,
            "job": self.job.to_dict(),
            "offset": self.offset,
            "digest": self._prefix_digest(),
        }
        blob = self._current_snapshot()
        if blob is not None:
            state["snapshot"] = base64.b64encode(blob).decode("ascii")
        return state

    def save(self, path: str) -> None:
        """Write :meth:`checkpoint` to ``path`` as JSON."""
        with open(path, "w") as handle:
            json.dump(self.checkpoint(), handle, sort_keys=True)
            handle.write("\n")

    @classmethod
    def resume(
        cls,
        state: Dict[str, Any],
        cache: Optional[InstanceCache] = None,
        job: Optional[EnumerationJob] = None,
        resume_mode: str = "snapshot",
    ) -> "EnumerationCursor":
        """Rebuild a cursor from a :meth:`checkpoint` dict.

        The resumed cursor continues at ``state['offset']``: its next
        :meth:`take` returns exactly what the original cursor would have
        returned next.  When ``job`` is given, the checkpoint must have
        been taken for that job — same kind, same backend, same
        exact-instance fingerprint — or :class:`CursorStateError` is
        raised (a mismatched spec would silently replay the wrong
        stream); the cursor then runs under the *caller's* job, whose
        execution envelope (limit/deadline/budget) may legitimately
        differ from the checkpointed one.
        """
        if state.get("version") != 1:
            raise InvalidInstanceError(f"unknown cursor version {state.get('version')!r}")
        checkpoint_job = EnumerationJob.from_dict(state["job"])
        if job is not None:
            job.validate()
            if (
                job.kind != checkpoint_job.kind
                or job.backend != checkpoint_job.backend
                or job_fingerprint(job) != job_fingerprint(checkpoint_job)
            ):
                raise CursorStateError(
                    "checkpoint does not belong to the job it is resumed "
                    f"against (checkpointed kind={checkpoint_job.kind!r} "
                    f"backend={checkpoint_job.backend!r}, resuming "
                    f"kind={job.kind!r} backend={job.backend!r}, "
                    "fingerprints "
                    + (
                        "match"
                        if job_fingerprint(job) == job_fingerprint(checkpoint_job)
                        else "differ"
                    )
                    + ")"
                )
            checkpoint_job = job
        encoded = state.get("snapshot")
        blob = base64.b64decode(encoded) if encoded else None
        return cls(
            checkpoint_job,
            cache=cache,
            offset=int(state["offset"]),
            _expected_digest=state.get("digest"),
            snapshot=blob,
            resume_mode=resume_mode,
        )

    @classmethod
    def load(
        cls,
        path: str,
        cache: Optional[InstanceCache] = None,
        job: Optional[EnumerationJob] = None,
        resume_mode: str = "snapshot",
    ) -> "EnumerationCursor":
        """Read a JSON checkpoint written by :meth:`save` and resume it."""
        with open(path) as handle:
            return cls.resume(
                json.load(handle), cache=cache, job=job, resume_mode=resume_mode
            )

    # ------------------------------------------------------------------
    def _remaining_limit(self) -> Optional[int]:
        if self.job.limit is None:
            return None
        return max(0, self.job.limit - self.offset)

    def _ensure_iterator(self) -> Iterator[Tuple[str, Any]]:
        if self._iterator is None:
            self._iterator = self._open_stream()
        return self._iterator

    def _try_restore_search(self):
        """A :class:`JobSearch` thawed from the resume snapshot.

        Returns ``None`` to fall back to replay (no snapshot, replay
        mode, replay-only kind, or an unreadable/cross-version payload —
        replay is always correct).  A snapshot that *identifies* a
        different job — kind, backend or fingerprint mismatch, or a
        position that contradicts the checkpoint offset — raises
        :class:`CursorStateError` instead: that is corruption, not a
        degraded path.
        """
        blob = self._snapshot_blob
        if (
            blob is None
            or self.resume_mode != "snapshot"
            or not kind_spec(self.job.kind).suspendable
        ):
            return None
        from repro.core.suspend import SnapshotError, read_snapshot_header
        from repro.engine.suspend import JobSearch

        try:
            header = read_snapshot_header(blob)
        except SnapshotError:
            return None  # unreadable envelope: replay still works
        if (
            header["kind"] != self.job.kind
            or resolve_backend(header["backend"]) != self.job.backend
            or header["fingerprint"] != job_fingerprint(self.job)
        ):
            raise CursorStateError(
                "cursor snapshot was taken for a different job "
                f"(snapshot kind={header['kind']!r} backend={header['backend']!r})"
            )
        if header.get("emitted") != self.offset:
            raise CursorStateError(
                f"cursor snapshot position {header.get('emitted')!r} does not "
                f"match the checkpoint offset {self.offset}"
            )
        # Machine-driven segments keep the clock out of the substrate
        # meter: the deadline is enforced *between* solutions (see
        # :class:`_CleanStop`), so deadline stops stay snapshotable.
        meter = _BudgetMeter()
        try:
            search = JobSearch.restore(self.job, blob, meter)
        except CursorStateError:
            # Fingerprint already matched above, so this is a payload
            # problem (cross-version pickle, truncation): fall back.
            return None
        # Delivery starts immediately (no fast-forward): arm the budget.
        if self.job.budget is not None:
            meter.budget = meter.count + self.job.budget
        self._meter = meter
        return search

    def _open_stream(self) -> Iterator[Tuple[str, Any]]:
        """Line iterator starting at ``self.offset``.

        Prefers, in order: a complete cached result (zero enumeration),
        the search-state snapshot (O(state) resume), a cached prefix
        replay + live continuation, and finally live enumeration with a
        replay fast-forward.
        """
        start = self.offset
        cached_lines: Tuple[str, ...] = ()
        cached_structures: Optional[Tuple[Any, ...]] = None
        cache_complete = False
        if self.cache is not None:
            stored = self.cache.prefix(self.job)
            if stored is not None:
                cached_lines = stored.lines
                cached_structures = stored.structures
                cache_complete = stored.exhausted

        expected = self._expected_digest
        prefix_hasher = hashlib.sha256() if expected is not None else None

        def check_prefix() -> None:
            if prefix_hasher is not None and prefix_hasher.hexdigest() != expected:
                raise InvalidInstanceError(
                    "cursor checkpoint does not match this job's solution stream"
                )

        def hash_prefix_line(line: str) -> None:
            if prefix_hasher is not None:
                prefix_hasher.update(line.encode())
                prefix_hasher.update(b"\n")

        def remember(line: str, structure: Any) -> None:
            self._known_lines.append(line)
            self._known_structures.append(structure)

        if not (cache_complete and len(cached_lines) >= start):
            search = self._try_restore_search()
            if search is not None:
                if len(cached_lines) >= start:
                    # The cache knows the whole delivered prefix: adopt
                    # it (and verify the digest) so a later checkpoint /
                    # exhaustion can still upgrade the cache entry.
                    for i in range(start):
                        hash_prefix_line(cached_lines[i])
                        remember(
                            cached_lines[i],
                            cached_structures[i]
                            if cached_structures is not None
                            else None,
                        )
                    check_prefix()
                self._search = search
                deadline_at = (
                    (time.monotonic() + self.job.deadline)
                    if self.job.deadline is not None
                    else None
                )

                def snapshot_stream() -> Iterator[Tuple[str, Any]]:
                    while True:
                        pair = search.next()
                        if pair is None:
                            return
                        yield pair
                        if deadline_at is not None and time.monotonic() > deadline_at:
                            raise _CleanStop("deadline")

                return snapshot_stream()

        def stream() -> Iterator[Tuple[str, Any]]:
            covered = min(start, len(cached_lines))
            for i in range(covered):
                hash_prefix_line(cached_lines[i])
                remember(
                    cached_lines[i],
                    cached_structures[i] if cached_structures is not None else None,
                )
            if covered == start:
                check_prefix()
            position = start
            for i in range(start, len(cached_lines)):
                structure = (
                    cached_structures[i] if cached_structures is not None else None
                )
                yield cached_lines[i], structure
                position += 1
            if cache_complete:
                if covered < start:
                    raise InvalidInstanceError(
                        "cursor checkpoint offset exceeds the job's solution stream"
                    )
                return
            # The deadline covers the whole live segment (it is a wall-
            # clock latency bound, fast-forward included), but the op
            # budget arms only when *delivery* begins: otherwise a
            # budget-stopped cursor would re-spend its whole fresh
            # allowance re-skipping the prefix and never make progress
            # across resumes.  With a cache attached the fast-forward is
            # free, so deadline-stopped cursors also progress.
            suspendable = kind_spec(self.job.kind).suspendable
            deadline_at = (
                (time.monotonic() + self.job.deadline)
                if self.job.deadline is not None
                else None
            )
            # Machine-driven segments enforce the deadline between
            # solutions (clean stop, snapshot preserved) instead of
            # letting the substrate meter abort mid-step.
            meter = _BudgetMeter(deadline_at=None if suspendable else deadline_at)
            self._meter = meter
            armed = position == 0
            if armed:
                meter.budget = self.job.budget
            if suspendable:
                # Drive the live segment through the suspendable machine
                # so checkpoints taken later embed a search snapshot.
                from repro.engine.suspend import JobSearch

                search = JobSearch(self.job, meter)
                self._search = search
                source: Iterator[Tuple[str, Any]] = iter(search)
            else:
                source = (
                    (structure_line(self.job, s), s)
                    for s in iter_structures(self.job, meter)
                )
            seen = 0
            for line, structure in source:
                seen += 1
                if seen <= position:
                    if covered < seen <= start:
                        hash_prefix_line(line)
                        remember(line, structure)
                        if seen == start:
                            check_prefix()
                    if (
                        suspendable
                        and deadline_at is not None
                        and time.monotonic() > deadline_at
                    ):
                        raise _CleanStop("deadline")
                    continue
                if not armed:
                    armed = True
                    if self.job.budget is not None:
                        meter.budget = meter.count + self.job.budget
                yield line, structure
                if (
                    suspendable
                    and deadline_at is not None
                    and time.monotonic() > deadline_at
                ):
                    raise _CleanStop("deadline")
            if seen < start:
                # The enumeration ended before reaching the checkpoint
                # offset: the checkpoint belongs to a different job spec.
                raise InvalidInstanceError(
                    "cursor checkpoint offset exceeds the job's solution stream"
                )

        return stream()

    # ------------------------------------------------------------------
    def _current_snapshot(self) -> Optional[bytes]:
        """The search-state blob for :meth:`checkpoint`, if sound."""
        if not kind_spec(self.job.kind).suspendable or self._dirty:
            return None
        if self._search is not None and self._search.emitted == self.offset:
            return self._search.snapshot()
        if self.offset == self._initial_offset:
            # A resumed cursor that has not advanced (or has replayed
            # only cached lines) re-issues the snapshot it was resumed
            # with, so checkpoint-of-a-checkpoint chains stay O(state).
            return self._snapshot_blob
        return None

    def _prefix_digest(self) -> Optional[str]:
        if self.offset and self.offset == len(self._known_lines):
            digest = hashlib.sha256()
            for line in self._known_lines:
                digest.update(line.encode())
                digest.update(b"\n")
            return digest.hexdigest()
        if self.offset == self._initial_offset:
            # A resumed cursor that has not advanced re-issues the digest
            # it was resumed with, so tamper detection survives
            # checkpoint-of-a-checkpoint chains.
            return self._expected_digest
        return None  # prefix not fully known (resumed without cache/digest)

    def _store_prefix(self) -> None:
        if self.cache is None or not self._known_lines:
            return
        if self.offset != len(self._known_lines):
            return  # holes in the prefix: nothing sound to store
        structures: Optional[Tuple[Any, ...]] = tuple(self._known_structures)
        if any(s is None for s in structures):
            structures = None
        complete = self.exhausted and self.stop_reason is None
        # The delivered lines are the stream's first `offset` solutions —
        # a sound prefix to cache no matter *why* the cursor stopped
        # (store() would reject a raw deadline/budget stop_reason, but a
        # prefix at a known offset is deterministic content).
        result = JobResult(
            job_id=self.job.job_id,
            kind=self.job.kind,
            lines=tuple(self._known_lines),
            exhausted=complete,
            stop_reason=None if complete else "limit",
            elapsed=0.0,
            ops=self._meter.count if self._meter else 0,
            structures=structures,
        )
        self.cache.store(self.job, result)

    def _record_final(self) -> None:
        self._store_prefix()
