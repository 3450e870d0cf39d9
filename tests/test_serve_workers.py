"""The serve worker's stream protocol, driven on a pool handle (no HTTP).

A worker sends the first solution of a run as a chunk of its own, then
``chunk`` solutions at a time, and runs at most two chunks ahead of the
server's credits.  These tests pin the protocol the server's
backpressure, cancellation and quota charge rest on.
"""

from __future__ import annotations

import time
from typing import List

import pytest

from conftest import fixture_job
from repro.core.suspend import read_snapshot_header
from repro.engine.jobs import run_job
from repro.serve.workers import WorkerPool


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(1) as workers:
        yield workers


@pytest.fixture
def handle(pool):
    handle = pool.acquire()
    yield handle
    pool.release(handle)


def _recv(handle):
    """The next worker message; fails instead of hanging when none comes."""
    assert handle.conn.poll(10), "the worker sent nothing"
    return handle.recv()


def _stream(handle, job, offset=0, chunk=2, snapshot=None):
    """Run one stream to its end, crediting every chunk; returns the
    chunk messages and the end meta."""
    handle.start_stream(job, offset, chunk, snapshot)
    chunks: List[tuple] = []
    while True:
        msg = handle.recv()
        if msg[0] == "end":
            return chunks, msg[1]
        chunks.append(msg)
        handle.credit()


@pytest.mark.parametrize("resume", ["fresh", "snapshot", "fast-forward"])
def test_first_chunk_is_one_solution(handle, resume):
    """A run's first message holds exactly one solution and a snapshot
    at the position after it — for a resumed or migrated segment too."""
    job = fixture_job("steiner-forest")
    full = run_job(job).lines
    offset, snapshot = 0, None
    if resume != "fresh":
        chunks, _ = _stream(handle, job, chunk=2)
        offset = 3  # the boundary after the second chunk
        if resume == "snapshot":
            snapshot = chunks[1][3]
            assert read_snapshot_header(snapshot)["emitted"] == offset
    chunks, meta = _stream(handle, job, offset, chunk=8, snapshot=snapshot)
    first = chunks[0]
    assert first[1] == [full[offset]]
    assert read_snapshot_header(first[3])["emitted"] == offset + 1
    assert [len(c[1]) for c in chunks[1:-1]] == [8] * (len(chunks) - 2)
    assert [line for c in chunks for line in c[1]] == list(full[offset:])
    assert meta["stop_reason"] is None and meta["exhausted"]


def test_worker_runs_at_most_two_chunks_ahead(handle):
    """Without credits exactly two chunks arrive and then nothing; each
    credit lets exactly one more through."""
    job = fixture_job("steiner-forest")
    handle.start_stream(job, 0, 1)
    try:
        assert [_recv(handle)[0] for _ in range(2)] == ["chunk", "chunk"]
        assert not handle.conn.poll(0.5)
        handle.credit()
        assert handle.recv()[0] == "chunk"
        assert not handle.conn.poll(0.5)
    finally:
        handle.cancel()
        meta = handle.drain_to_end()
    assert meta is not None and meta["stop_reason"] == "cancelled"


def test_cancel_one_chunk_ahead_ends_the_run_and_leaks_nothing(handle):
    """A cancel sent while the worker computes ahead stops it within that
    one chunk; late credits and cancels of a finished run never reach
    the next one."""
    job = fixture_job("steiner-forest")
    handle.start_stream(job, 0, 2)
    assert len(handle.recv()[1]) == 1  # the worker now computes chunk 2
    handle.cancel()
    after = []
    while True:
        msg = handle.recv()
        if msg[0] == "end":
            break
        after.append(msg)
    assert len(after) <= 1 and msg[1]["stop_reason"] == "cancelled"
    assert msg[1]["snapshot"] is None
    # What a server sends when its credit or cancel crosses an `end`.
    handle.credit()
    handle.cancel()
    other = fixture_job("st-path")
    chunks, meta = _stream(handle, other)
    assert tuple(line for c in chunks for line in c[1]) == run_job(other).lines
    assert meta["stop_reason"] is None and meta["exhausted"]


def test_busy_time_excludes_the_credit_wait(handle):
    """The busy time a worker reports is its wall time minus the time it
    spent blocked on credits."""
    job = fixture_job("steiner-forest")
    handle.start_stream(job, 0, 1)
    for _ in range(2):
        assert _recv(handle)[0] == "chunk"
    time.sleep(0.5)  # the worker is parked on a full window
    busy = []
    while True:
        handle.credit()
        msg = handle.recv()
        if msg[0] == "end":
            meta = msg[1]
            break
        busy.append(msg[4])
    assert busy == sorted(busy)
    assert meta["busy"] >= busy[-1]
    assert meta["busy"] < meta["elapsed"] - 0.4
