"""Resumable streaming cursors over enumeration jobs, and their checkpoints.

A :class:`EnumerationCursor` turns a job into a pull-based stream: take
the first ``k`` solutions, :meth:`~EnumerationCursor.checkpoint` (a
small JSON-able record: job spec + delivered offset + a digest of the
delivered prefix + a serialized search-state snapshot), persist it
anywhere, and :meth:`~EnumerationCursor.resume` later to receive
*exactly* the remaining tail — the concatenation of the two passes
equals one uninterrupted run.

Resumption cost, in order of preference:

1. **Snapshot resume**: the checkpoint embeds the frozen
   branch-and-bound stack (:mod:`repro.engine.suspend`), so the resumed
   cursor continues in O(state) — no re-enumeration, no matter how deep
   the stream position is.
2. **Cache replay**: with a cache attached, delivered prefixes are
   stored on checkpoint, so resuming replays cached solutions and only
   enumerates what was never produced.
3. **Fast-forward** (the fallback, and ``resume_mode="replay"``):
   re-run the (deterministic) enumerator and discard ``offset``
   solutions — correct, but O(offset).

Live enumeration runs as one :class:`repro.engine.suspend.Segment`,
which states the execution envelope (limit, deadline, op budget).

The checkpoint record is built by :func:`checkpoint_record` and read by
:func:`read_checkpoint` — here and in the serving layer, whose store
persists the same records.  Every resume is fingerprint-checked: a
checkpoint replayed against a job whose kind, backend or exact-instance
fingerprint differs raises :class:`repro.exceptions.CursorStateError`
instead of silently fast-forwarding the wrong stream, and the prefix
digest (:func:`prefix_digest`) guards against spec tampering on the
fast-forward path.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.engine.cache import InstanceCache, job_fingerprint
from repro.engine.jobs import EnumerationJob, JobResult
from repro.engine.suspend import Segment
from repro.exceptions import CursorStateError, InvalidInstanceError

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
        self._segment: Optional[Segment] = None  # the live segment, once started

    # ------------------------------------------------------------------
    def take(self, k: int) -> List[str]:
        """Deliver up to ``k`` further solution lines (fewer at the end)."""
        if k < 0:
            raise ValueError("take() needs k >= 0")
        out: List[str] = []
        if self.exhausted:
            return out
        if self._iterator is None:
            self._iterator = self._open_stream()
        while len(out) < k:
            try:
                line, structure = next(self._iterator)
            except StopIteration:
                self.exhausted = True
                if self.stop_reason is None:
                    self._store_prefix()
                break
            out.append(line)
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
        matching :meth:`resume` costs no re-enumeration, and — at a
        clean suspension point — embeds the serialized search state so
        :meth:`resume` is O(state).
        """
        self._store_prefix()
        return checkpoint_record(
            self.job, self.offset, self._prefix_digest(), self._current_snapshot()
        )

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
    def _open_stream(self) -> Iterator[Tuple[str, Any]]:
        """Pairs from ``self.offset`` on.

        A complete cached result replays with no enumeration.  Otherwise
        the snapshot thaws at the offset (O(state)), or the cached prefix
        replays and a live segment fast-forwards past it.
        """
        start, limit = self.offset, self.job.limit
        lines: Tuple[str, ...] = ()
        structures: Optional[Tuple[Any, ...]] = None
        complete = False
        if self.cache is not None:
            stored = self.cache.prefix(self.job)
            if stored is not None:
                lines, structures, complete = (
                    stored.lines,
                    stored.structures,
                    stored.exhausted,
                )
        snapshot = self._snapshot_blob if self.resume_mode == "snapshot" else None
        if snapshot is not None and not complete:
            lines = lines[:start]  # the snapshot continues from `start`

        def structure_at(i: int) -> Any:
            return structures[i] if structures is not None else None

        def known(position: int, line: str, structure: Any) -> None:
            # Positions below `start` are the delivered prefix: remember
            # them for later checkpoints and check the digest once whole.
            if position < start and position == len(self._known_lines):
                self._known_lines.append(line)
                self._known_structures.append(structure)
                if position + 1 == start and self._expected_digest is not None:
                    if prefix_digest(self._known_lines) != self._expected_digest:
                        raise InvalidInstanceError(
                            "cursor checkpoint does not match this job's "
                            "solution stream"
                        )

        def stream() -> Iterator[Tuple[str, Any]]:
            for i in range(min(start, len(lines))):
                known(i, lines[i], structure_at(i))
            end = len(lines) if limit is None else min(limit, len(lines))
            for i in range(start, end):
                yield lines[i], structure_at(i)
            position = max(start, end)
            if limit is not None and position >= limit:
                self.stop_reason = "limit"
                return
            if complete:
                if start > len(lines):
                    raise InvalidInstanceError(
                        "cursor checkpoint offset exceeds the job's solution stream"
                    )
                return
            segment = Segment(
                self.job,
                position,
                snapshot if position == start else None,
                on_skip=known,
            )
            self._segment = segment
            yield from segment
            self.stop_reason = segment.stop_reason

        return stream()

    # ------------------------------------------------------------------
    def _current_snapshot(self) -> Optional[bytes]:
        """The search-state blob for :meth:`checkpoint`, if sound."""
        segment = self._segment
        if segment is not None and not segment.clean:
            return None  # a budget abort left the machine mid-step
        blob = segment.snapshot() if segment is not None else None
        if blob is None and self.offset == self._initial_offset:
            # A resumed cursor that has not advanced (or has replayed
            # only cached lines) re-issues the snapshot it was resumed
            # with, so checkpoint-of-a-checkpoint chains stay O(state).
            blob = self._snapshot_blob
        return blob

    def _prefix_digest(self) -> Optional[str]:
        if self.offset and self.offset == len(self._known_lines):
            return prefix_digest(self._known_lines)
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
            ops=self._segment.meter.count if self._segment is not None else 0,
            structures=structures,
        )
        self.cache.store(self.job, result)
