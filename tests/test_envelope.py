"""The envelope wall: one set of stop rules, seen through every caller.

Every stream runs through :class:`repro.engine.suspend.Segment`.  This
wall drives it through each of its three callers — :func:`run_job`,
:class:`EnumerationCursor` and a serve :class:`WorkerPool` handle (no
HTTP) — on every job kind, and checks the rules a caller can observe:

(a) rounds at ``deadline=0`` each deliver at least one solution, stop
    with ``deadline`` and a snapshot, and concatenate to the unbounded
    stream;
(b) rounds stopped by the op budget make progress and concatenate the
    same way (cursor and worker: ``run_job`` has no offset to resume a
    snapshot-less stop from);
(c) ``limit=1, deadline=0`` stops with ``limit`` — the limit is checked
    before the deadline;
(d) an offset past the end of the stream is an error (cursor and
    worker).
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional

import pytest

from conftest import fixture_job
from repro.core.suspend import read_snapshot_header
from repro.engine.cursor import EnumerationCursor, checkpoint_record
from repro.engine.jobs import JOB_KINDS, run_job
from repro.exceptions import InvalidInstanceError
from repro.serve.workers import WorkerPool


class Round(NamedTuple):
    """What one resumable round of a stream reports."""

    lines: List[str]
    stop_reason: Optional[str]
    exhausted: bool
    snapshot: Any  # the state a clean stop keeps (None when there is none)
    carry: Any  # what the next round resumes from


class RunJob:
    def round(self, job, carry) -> Round:
        result = run_job(job, resume=carry)
        return Round(
            list(result.lines),
            result.stop_reason,
            result.exhausted,
            result.snapshot,
            result.snapshot,
        )


class Cursor:
    def round(self, job, carry) -> Round:
        cursor = (
            EnumerationCursor(job)
            if carry is None
            else EnumerationCursor.resume(carry, job=job)
        )
        lines = cursor.drain()
        state = cursor.checkpoint()
        return Round(
            lines,
            cursor.stop_reason,
            cursor.stop_reason is None,
            state.get("snapshot"),
            state,
        )

    def past_end(self, job, offset) -> Optional[str]:
        try:
            EnumerationCursor.resume(checkpoint_record(job, offset)).drain()
        except InvalidInstanceError as exc:
            return str(exc)
        return None


class Worker:
    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool

    def _stream(self, job, offset, snapshot):
        handle = self.pool.acquire()
        try:
            handle.start_stream(job, offset, 2, snapshot)
            lines: List[str] = []
            while True:
                msg = handle.recv()
                if msg[0] == "end":
                    return lines, msg[1]
                lines.extend(msg[1])
                handle.credit()
        finally:
            self.pool.release(handle)

    def round(self, job, carry) -> Round:
        offset, snapshot = carry or (0, None)
        lines, meta = self._stream(job, offset, snapshot)
        assert meta["error"] is None, meta
        return Round(
            lines,
            meta["stop_reason"],
            meta["exhausted"],
            meta["snapshot"],
            (offset + len(lines), meta["snapshot"]),
        )

    def past_end(self, job, offset) -> Optional[str]:
        lines, meta = self._stream(job, offset, None)
        assert not lines and meta["stop_reason"] == "error"
        return meta["error"]


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(1) as workers:
        yield workers


@pytest.fixture(params=["run_job", "cursor", "worker"])
def caller(request, pool):
    if request.param == "worker":
        return Worker(pool)
    return RunJob() if request.param == "run_job" else Cursor()


def _resume_until_exhausted(caller, job, stop_reason, max_rounds):
    """Resume ``job`` round after round until it exhausts; every round
    before the last must deliver and stop with ``stop_reason``.  Returns
    the delivered lines and the rounds that stopped early."""
    delivered: List[str] = []
    stopped: List[Round] = []
    carry = None
    for _ in range(max_rounds):
        got = caller.round(job, carry)
        delivered.extend(got.lines)
        if got.exhausted:
            assert got.stop_reason is None
            return delivered, stopped
        assert got.stop_reason == stop_reason, got
        assert got.lines, f"a {stop_reason} round must deliver"
        stopped.append(got)
        carry = got.carry
    raise AssertionError("the rounds never exhausted the stream")


@pytest.mark.parametrize("kind", sorted(JOB_KINDS))
def test_envelope_rules_hold_for_every_caller(caller, kind):
    full = list(run_job(fixture_job(kind)).lines)
    assert len(full) >= 2, "the fixture must have a multi-solution stream"
    max_rounds = len(full) + 2

    # (a) deadline stops are clean: each keeps its snapshot
    job = fixture_job(kind, deadline=0)
    delivered, stopped = _resume_until_exhausted(caller, job, "deadline", max_rounds)
    assert delivered == full
    assert all(got.snapshot is not None for got in stopped)

    if not isinstance(caller, RunJob):
        # (b) budget stops abort mid-step and keep no snapshot, yet the
        # rounds progress: a positioned round arms its budget at its
        # first delivered solution, after the fast-forward
        first = run_job(fixture_job(kind, limit=1)).ops
        job = fixture_job(kind, budget=first)
        delivered, stopped = _resume_until_exhausted(caller, job, "budget", max_rounds)
        assert delivered == full
        assert all(got.snapshot is None for got in stopped)

    # (c) the limit is checked before the deadline
    got = caller.round(fixture_job(kind, limit=1, deadline=0), None)
    assert got.lines == full[:1]
    assert got.stop_reason == "limit"

    if not isinstance(caller, RunJob):
        # (d) an offset past the end of the stream is an error
        error = caller.past_end(fixture_job(kind), len(full) + 1)
        assert error is not None and "exceeds" in error


def test_worker_chunks_carry_snapshots_and_end_reuses_the_last(pool):
    """The first solution is a chunk of its own, then chunk-sized ones;
    every chunk carries a snapshot at its boundary and the clean end
    reuses the final flush's."""
    job = fixture_job("st-path", limit=4)
    handle = pool.acquire()
    try:
        handle.start_stream(job, 0, 2)
        sizes, snaps = [], []
        while True:
            msg = handle.recv()
            if msg[0] == "end":
                meta = msg[1]
                break
            sizes.append(len(msg[1]))
            snaps.append(msg[3])
            handle.credit()
    finally:
        pool.release(handle)
    assert sizes == [1, 2, 1]
    assert [read_snapshot_header(s)["emitted"] for s in snaps] == [1, 3, 4]
    assert meta["stop_reason"] == "limit" and meta["snapshot"] == snaps[-1]
