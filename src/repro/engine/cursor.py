"""Resumable streams over enumeration jobs, and their checkpoints.

A :class:`EnumerationCursor` turns a job into a pull-based stream: take
the first ``k`` solutions, :meth:`~EnumerationCursor.checkpoint` (a
small JSON-able record: job spec + delivered offset + a digest of the
delivered prefix + a serialized search-state snapshot), persist it
anywhere, and :meth:`~EnumerationCursor.resume` later to receive
*exactly* the remaining tail — the concatenation of the two passes
equals one uninterrupted run.

What a resumed stream replays, what it knows of its prefix, what it
stores back and what its checkpoint says is decided in one place,
:class:`StreamLedger`.  The cursor and the streaming server
(:mod:`repro.serve.server`) each keep one per stream and differ only in
how they run the live leg: the cursor in process, through a strict
:class:`repro.engine.suspend.Segment`; the server on a pooled worker,
whose segment degrades a foreign snapshot to a fast-forward.

Resumption cost, in order of preference:

1. **Cache replay**: a stored entry whose first ``offset`` solutions are
   the ones already delivered replays its tail with no enumeration.
2. **Snapshot resume**: the checkpoint embeds the frozen
   branch-and-bound stack (:mod:`repro.engine.suspend`), so the live leg
   continues in O(state), no matter how deep the stream position is.
3. **Fast-forward** (the fallback, and ``resume_mode="replay"``):
   re-run the (deterministic) enumerator and discard ``offset``
   solutions — correct, but O(offset).

The checkpoint record is built by :func:`checkpoint_record` and read by
:func:`read_checkpoint` — here and in the serving layer, whose store
persists the same records.  Every resume is fingerprint-checked: a
checkpoint replayed against a job whose kind, backend or exact-instance
fingerprint differs raises :class:`repro.exceptions.CursorStateError`
instead of silently fast-forwarding the wrong stream, and the prefix
digest (:func:`prefix_digest`) guards against spec tampering and
against splicing two solution orders together.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache, job_fingerprint
from repro.engine.jobs import EnumerationJob, JobResult
from repro.engine.suspend import Segment
from repro.exceptions import CursorStateError, InvalidInstanceError
from repro.jsonfile import write_atomic

#: Valid values for ``resume_mode``.
RESUME_MODES = ("snapshot", "replay")

#: The checkpoint record layout version.
CHECKPOINT_VERSION = 1


# ----------------------------------------------------------------------
# the checkpoint record
# ----------------------------------------------------------------------
def prefix_digest(lines: Iterable[str]) -> str:
    """SHA-256 of a delivered prefix, one newline-terminated line each."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def checkpoint_record(
    job: EnumerationJob,
    offset: int,
    digest: Optional[str] = None,
    snapshot: Optional[bytes] = None,
) -> Dict[str, Any]:
    """The JSON-able checkpoint of ``job``'s stream at ``offset``."""
    record: Dict[str, Any] = {
        "version": CHECKPOINT_VERSION,
        "job": job.to_dict(),
        "offset": offset,
        "digest": digest,
    }
    if snapshot is not None:
        record["snapshot"] = base64.b64encode(snapshot).decode("ascii")
    return record


class Checkpoint(NamedTuple):
    """A checkpoint record, validated and decoded by :func:`read_checkpoint`."""

    job: EnumerationJob
    offset: int
    digest: Optional[str]
    snapshot: Optional[bytes]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def read_checkpoint(
    record: Any, job: Optional[EnumerationJob] = None
) -> Checkpoint:
    """Validate and decode a :func:`checkpoint_record` dict.

    Raises :class:`InvalidInstanceError` for a record that is not a
    version-1 object with a job object, a non-negative integer offset
    and string-or-null ``digest`` / ``snapshot`` fields.  When ``job``
    is given the checkpoint must belong to it — same kind, backend and
    exact-instance fingerprint — or :class:`CursorStateError` is
    raised; the returned checkpoint then carries the *caller's* job,
    whose envelope (limit/deadline/budget) may legitimately differ.  A
    snapshot that is not valid base64 decodes to ``None``: the stream
    fast-forwards instead.
    """
    if not isinstance(record, dict):
        raise InvalidInstanceError("a cursor checkpoint must be a JSON object")
    version = record.get("version")
    if not (_is_int(version) and version == CHECKPOINT_VERSION):
        raise InvalidInstanceError(f"unknown cursor version {version!r}")
    offset = record.get("offset")
    if not (_is_int(offset) and offset >= 0):
        raise InvalidInstanceError(
            f"checkpoint offset must be a non-negative integer, not {offset!r}"
        )
    spec = record.get("job")
    if not isinstance(spec, dict):
        raise InvalidInstanceError("checkpoint job must be a JSON object")
    for field in ("digest", "snapshot"):
        if not isinstance(record.get(field), (str, type(None))):
            raise InvalidInstanceError(f"checkpoint {field} must be a string or null")
    try:
        checkpointed = EnumerationJob.from_dict(spec)
    except TypeError as exc:  # e.g. a string limit compared with 0
        raise InvalidInstanceError(f"malformed checkpoint job: {exc}") from exc
    if job is not None:
        job.validate()
        if (
            job.kind != checkpointed.kind
            or job.backend != checkpointed.backend
            or job_fingerprint(job) != job_fingerprint(checkpointed)
        ):
            raise CursorStateError(
                "checkpoint was taken for a different job (checkpointed "
                f"kind={checkpointed.kind!r} backend={checkpointed.backend!r}, "
                f"resuming kind={job.kind!r} backend={job.backend!r})"
            )
        checkpointed = job
    snapshot = None
    if record.get("snapshot"):
        try:
            snapshot = base64.b64decode(record["snapshot"])
        except ValueError:
            snapshot = None
    return Checkpoint(checkpointed, offset, record.get("digest"), snapshot)


# ----------------------------------------------------------------------
# the resume policy
# ----------------------------------------------------------------------
class StreamPlan(NamedTuple):
    """How a stream goes on from its resume position (:meth:`StreamLedger.plan`)."""

    source: str  # "replay", "partial-replay" or "live"
    replay_to: int  # known lines [start, replay_to) replay
    live_from: Optional[int]  # where the live leg starts; None: no live leg
    snapshot: Optional[bytes]  # the search state the live leg thaws


class StreamLedger:
    """The resume policy of one stream of ``job``.

    The stream resumes at position ``offset`` (0 when fresh) with the
    ``snapshot`` and ``digest`` of the checkpoint being resumed there;
    ``cache`` is any :class:`ResultCache`.  The ledger decides what
    replays, tracks the known prefix, stores it back and builds the
    checkpoint record; its caller runs the live leg and reports what it
    produced.  The rules:

    1. **Replay** (:meth:`plan`).  A stored entry serves the stream from
       position ``k`` only when its first ``k`` solutions are the ones
       the client already holds.  At ``k = 0`` that is the entry
       ``cache.lookup`` accepts (exact, or a relabelled copy when
       complete), else the job's own ``cache.prefix``.  At ``k > 0`` it
       is the job's own exact-instance prefix, else an entry ``lookup``
       returns whose first ``k`` lines hash to ``digest``.  Otherwise
       the stream runs live from ``k``.
    2. **Snapshot against a stored prefix.**  With a snapshot no stored
       line past ``k`` replays and the live leg thaws it at ``k``,
       unless the entry covers the job's whole stream (to its end or to
       its limit), whose tail replays.  Without one the stored prefix
       past ``k`` replays and the live leg fast-forwards past it.
    3. **Known prefix** (:attr:`lines`).  Positions ``[0, n)`` while they
       are contiguous: stored lines, fast-forwarded or produced ones
       (:meth:`know`) and delivered ones (:meth:`deliver`).  When it
       first covers ``[0, k)`` it must hash to ``digest``, or
       :class:`InvalidInstanceError`.
    4. **Store-back** (:meth:`store_back`).  Only a stream that ran a
       live leg stores its known prefix, complete only when the
       enumeration ran out.
    5. **Checkpoint** (:meth:`record`).  The snapshot frozen at exactly
       the position (:meth:`freeze`), else the resumed one while the
       stream has not moved; the digest of ``[0, position)`` when all of
       it is known (none at position 0), else the resumed digest while
       the stream has not moved.  Each known line is hashed once.
    """

    def __init__(
        self,
        job: EnumerationJob,
        cache: Optional[ResultCache] = None,
        offset: int = 0,
        snapshot: Optional[bytes] = None,
        digest: Optional[str] = None,
    ) -> None:
        self.job = job
        self.cache = cache
        self.start = offset  # the position being resumed
        self.position = offset  # the stream position reached
        self.snapshot = snapshot
        self.digest = digest
        self.lines: List[str] = []  # the known prefix, [0, len(lines))
        self.structures: List[Any] = []  # their label-level forms (None: unknown)
        self.live = False  # set by the caller once its live leg starts
        self.exhausted = False  # the enumeration ran out
        self.stop_reason: Optional[str] = None
        self._frozen: Tuple[int, Optional[bytes]] = (-1, None)
        self._hasher = hashlib.sha256()
        self._hashed = 0  # known lines folded into _hasher

    def plan(self) -> StreamPlan:
        """Choose the stored entry (rule 1) and lay out replay and live leg."""
        start, limit = self.start, self.job.limit
        at_limit = limit is not None and start >= limit
        entry = None if at_limit else self._entry()
        count, covers = 0, False
        if entry is not None:
            count = len(entry.lines)
            structures = entry.structures
            if structures is None or len(structures) != count:
                structures = (None,) * count
            self.know(0, entry.lines, structures)
            covers = start <= count and (
                entry.exhausted or (limit is not None and count >= limit)
            )
        if self.snapshot is not None and not covers:
            count = min(count, start)  # the snapshot continues from `start`
        replay_to = max(start, count if limit is None else min(count, limit))
        if limit is not None and replay_to >= limit:
            self.stop_reason = "limit"
        elif covers:
            self.exhausted = True
        else:
            source = "partial-replay" if replay_to > start else "live"
            snapshot = self.snapshot if replay_to == start else None
            return StreamPlan(source, replay_to, replay_to, snapshot)
        return StreamPlan("replay", replay_to, None, None)

    def _entry(self) -> Optional[JobResult]:
        cache, job = self.cache, self.job
        if cache is None:
            return None
        if self.start == 0:
            found = cache.lookup(job)
            return found if found is not None else cache.prefix(job)
        own = cache.prefix(job)
        if own is not None or self.digest is None:
            return own
        donor = cache.lookup(job)
        if donor is not None and len(donor.lines) >= self.start:
            if prefix_digest(donor.lines[: self.start]) == self.digest:
                return donor
        return None

    # ------------------------------------------------------------------
    def know(self, position: int, lines: Sequence[str], structures: Sequence[Any]) -> None:
        """Solutions at ``position`` onward, delivered or not (rule 3)."""
        known = len(self.lines)
        if position <= known < position + len(lines):
            self.lines.extend(lines[known - position :])
            self.structures.extend(structures[known - position :])
            if known < self.start <= len(self.lines) and self.digest is not None:
                if self._digest(self.start) != self.digest:
                    raise InvalidInstanceError(
                        "cursor checkpoint does not match this job's solution stream"
                    )

    def skip(self, position: int, line: str, structure: Any) -> None:
        """One fast-forwarded solution (a :class:`Segment`'s ``on_skip``)."""
        self.know(position, (line,), (structure,))

    def deliver(self, lines: Sequence[str], structures: Sequence[Any]) -> None:
        """Solutions at :attr:`position` onward reached the client."""
        self.know(self.position, lines, structures)
        self.position += len(lines)

    def freeze(self, snapshot: Optional[bytes], position: int) -> None:
        """Keep ``snapshot``, the search state at stream ``position``."""
        if snapshot is not None:
            self._frozen = (position, snapshot)

    # ------------------------------------------------------------------
    def store_back(self) -> None:
        """Store the known prefix into the cache (rule 4)."""
        lines, job = self.lines, self.job
        # A known prefix with a hole (shorter than the position) is not stored.
        if self.cache is None or not self.live or not lines or len(lines) < self.position:
            return
        structures: Optional[Tuple[Any, ...]] = tuple(self.structures)
        if any(s is None for s in structures):
            structures = None
        # A prefix at a known position is deterministic content however
        # the stream stopped, so it is stored as a "limit" stop.
        self.cache.store(
            job,
            JobResult(
                job_id=job.job_id,
                kind=job.kind,
                lines=tuple(lines),
                exhausted=self.exhausted,
                stop_reason=None if self.exhausted else "limit",
                elapsed=0.0,
                ops=0,
                structures=structures,
            ),
        )

    def record(self) -> Dict[str, Any]:
        """The checkpoint record at :attr:`position` (rule 5)."""
        position = self.position
        moved = position != self.start
        digest = None if moved else self.digest
        if 0 < position <= len(self.lines):
            digest = self._digest(position)
        at, snapshot = self._frozen
        if at != position:
            snapshot = None if moved else self.snapshot
        return checkpoint_record(self.job, position, digest, snapshot)

    def _digest(self, count: int) -> str:
        """:func:`prefix_digest` of the first ``count`` known lines.

        Callers ask for counts that never decrease — the resume
        position, then stream positions past it — so each line is
        folded in once.
        """
        hasher = self._hasher
        for line in self.lines[self._hashed : count]:
            hasher.update(line.encode())
            hasher.update(b"\n")
        self._hashed = count
        return hasher.copy().hexdigest()


# ----------------------------------------------------------------------
# the cursor
# ----------------------------------------------------------------------
class EnumerationCursor:
    """A chunked, checkpointable view of one job's solution stream.

    Parameters
    ----------
    job:
        The job to stream.  Its ``limit`` bounds the *total* stream
        length; each live enumeration segment gets a fresh ``deadline``
        and ``budget`` allowance under the rules of
        :class:`repro.engine.suspend.Segment`.
    cache:
        Optional :class:`ResultCache`.  The stream replays from it and
        stores its known prefix back into it under the rules of
        :class:`StreamLedger`, so later resumes (and unrelated identical
        jobs) skip recomputation.
    offset:
        Internal — number of solutions already delivered (set by
        :meth:`resume`).
    snapshot:
        Internal — serialized search state to resume from (set by
        :meth:`resume` from the checkpoint's ``snapshot`` field).
    resume_mode:
        ``"snapshot"`` (default) resumes from the embedded search-state
        snapshot; ``"replay"`` forces the fast-forward path (used for
        benchmarking and as an escape hatch).

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
        cache: Optional[ResultCache] = None,
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
        self.resume_mode = resume_mode
        self.exhausted = False
        self.ledger = StreamLedger(job, cache, offset, snapshot, _expected_digest)
        self._iterator: Optional[Iterator[Tuple[str, Any]]] = None
        self._segment: Optional[Segment] = None  # the live segment, once started

    @property
    def offset(self) -> int:
        """Solutions delivered so far, across resumes."""
        return self.ledger.position

    @property
    def stop_reason(self) -> Optional[str]:
        """Why the stream stopped before the enumeration ran out
        (``"limit"``, ``"deadline"`` or ``"budget"``), else ``None``."""
        return self.ledger.stop_reason

    # ------------------------------------------------------------------
    def take(self, k: int) -> List[str]:
        """Deliver up to ``k`` further solution lines (fewer at the end)."""
        if k < 0:
            raise ValueError("take() needs k >= 0")
        out: List[str] = []
        if self.exhausted:
            return out
        if self._iterator is None:
            self._iterator = self._stream()
        structures: List[Any] = []
        while len(out) < k:
            try:
                line, structure = next(self._iterator)
            except StopIteration:
                self.exhausted = True
                break
            out.append(line)
            structures.append(structure)
        self.ledger.deliver(out, structures)
        if self.exhausted:
            self.ledger.store_back()
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

        Also stores the known prefix into the attached cache so the
        matching :meth:`resume` costs no re-enumeration, and — at a
        clean suspension point — embeds the serialized search state so
        :meth:`resume` is O(state).
        """
        self.ledger.store_back()
        segment = self._segment
        if segment is not None:
            self.ledger.freeze(segment.snapshot(), segment.position)
        return self.ledger.record()

    def save(self, path: str) -> None:
        """Write :meth:`checkpoint` to ``path`` as JSON, atomically."""
        write_atomic(path, self.checkpoint())

    @classmethod
    def resume(
        cls,
        state: Dict[str, Any],
        cache: Optional[ResultCache] = None,
        job: Optional[EnumerationJob] = None,
        resume_mode: str = "snapshot",
    ) -> "EnumerationCursor":
        """Rebuild a cursor from a :meth:`checkpoint` dict.

        The resumed cursor continues at ``state['offset']``: its next
        :meth:`take` returns exactly what the original cursor would have
        returned next.  ``state`` is validated by
        :func:`read_checkpoint`; when ``job`` is given the checkpoint
        must belong to it, and the cursor runs under the *caller's*
        job.
        """
        checkpoint = read_checkpoint(state, job)
        return cls(
            checkpoint.job,
            cache=cache,
            offset=checkpoint.offset,
            _expected_digest=checkpoint.digest,
            snapshot=checkpoint.snapshot,
            resume_mode=resume_mode,
        )

    @classmethod
    def load(
        cls,
        path: str,
        cache: Optional[ResultCache] = None,
        job: Optional[EnumerationJob] = None,
        resume_mode: str = "snapshot",
    ) -> "EnumerationCursor":
        """Read a JSON checkpoint written by :meth:`save` and resume it.

        A file that is not JSON (torn, truncated, not UTF-8) raises
        :class:`InvalidInstanceError`.
        """
        try:
            with open(path) as handle:
                state = json.load(handle)
        except ValueError as exc:
            raise InvalidInstanceError(
                f"unreadable cursor checkpoint {path!r}: {exc}"
            ) from exc
        return cls.resume(state, cache=cache, job=job, resume_mode=resume_mode)

    # ------------------------------------------------------------------
    def _stream(self) -> Iterator[Tuple[str, Any]]:
        """Pairs from the resume position on: the planned replay, then
        the live leg as one strict :class:`Segment`."""
        ledger = self.ledger
        plan = ledger.plan()
        for i in range(ledger.start, plan.replay_to):
            yield ledger.lines[i], ledger.structures[i]
        if plan.live_from is None:
            return
        snapshot = plan.snapshot if self.resume_mode == "snapshot" else None
        segment = Segment(self.job, plan.live_from, snapshot, on_skip=ledger.skip)
        self._segment = segment
        ledger.live = True
        yield from segment
        ledger.exhausted, ledger.stop_reason = segment.exhausted, segment.stop_reason
