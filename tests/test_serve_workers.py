"""The serve worker's stream protocol, driven on a pool handle (no HTTP).

A worker sends the first solution of a run as a chunk of its own, then
``chunk`` solutions at a time, and runs at most two chunks ahead of the
server's credits.  These tests pin the protocol the server's
backpressure, cancellation and quota charge rest on.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

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


def test_run_sent_to_a_dead_worker_raises_worker_died():
    """A worker that died while idle fails the dispatch as WorkerDied,
    the error the server replaces workers on, not as a broken pipe."""
    from repro.serve.workers import WorkerDied, WorkerHandle

    handle = WorkerHandle(multiprocessing.get_context("fork"))
    try:
        handle.process.kill()
        handle.process.join(5)
        with pytest.raises(WorkerDied):
            handle.start_stream(fixture_job("st-path"), 0, 2)
        assert not handle.alive
    finally:
        handle.close()


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


# ----------------------------------------------------------------------
# one kernel per graph: queries on a dataset share its compiled kernel
# ----------------------------------------------------------------------
class _Conn:
    """The worker's end of the pipe, in process: keeps what the worker
    sends, credits every chunk at once, and cancels the run once
    ``cancel_after`` chunks are out."""

    def __init__(self, cancel_after: Optional[int] = None) -> None:
        self.sent: List[tuple] = []
        self.cancel_after = cancel_after
        self._credits = 0

    def send_bytes(self, data: bytes) -> None:
        self.sent.append(pickle.loads(data))
        self._credits += 1

    def send(self, msg) -> None:
        self.sent.append(msg)

    def poll(self) -> bool:
        return self._credits > 0

    def recv(self) -> tuple:
        if self.cancel_after is not None and len(self.sent) >= self.cancel_after:
            return ("cancel",)
        self._credits -= 1
        return ("more",)


def _dataset_edges() -> List[Tuple[int, int]]:
    """A 24-vertex graph dense enough for long streams of both kinds."""
    rng = random.Random(18)
    edges = [(v, rng.randrange(v)) for v in range(1, 24)]
    while len(edges) < 70:
        u, v = rng.sample(range(24), 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    return edges


#: The streams of the reuse test, in order: query fields, plus
#: ``cancel_after`` (messages out before the cancel) and ``resume`` (the
#: stream whose second-chunk snapshot this one thaws).  The budget of
#: the fourth is set from the second's ops.
_REUSE_STREAMS: List[Dict[str, Any]] = [
    {"kind": "steiner-tree", "terminals": [0, 9, 17], "limit": 40},
    {"kind": "st-path", "source": 3, "target": 21, "limit": 30},
    {"kind": "steiner-tree", "terminals": [2, 5, 23], "cancel_after": 3},
    {"kind": "st-path", "source": 3, "target": 21, "limit": 30, "budget": None},
    {"kind": "st-path", "source": 3, "target": 21, "limit": 30},
    {"kind": "steiner-tree", "terminals": [0, 9, 17], "limit": 40, "resume": 0},
]

_CHUNK = 4


def _normal(sent: List[tuple]) -> List[tuple]:
    """Worker messages without their timings."""
    out = []
    for msg in sent:
        if msg[0] == "chunk":
            out.append(msg[:4])
        else:
            meta = {k: v for k, v in msg[1].items() if k not in ("elapsed", "busy")}
            out.append(("end", meta))
    return out


def _run_streams(specs, fresh: bool, observe=None) -> List[List[tuple]]:
    """Run the reuse streams through ``_stream_job``; ``fresh`` drops
    every compiled kernel before each stream (as a new process would
    start without one)."""
    from repro.engine import suspend
    from repro.serve.workers import _stream_job

    runs: List[List[tuple]] = []
    for index, stream in enumerate(_REUSE_STREAMS):
        if fresh:
            suspend._KERNELS.entries.clear()
        spec = dict(specs[index])
        snapshot, offset = None, 0
        if "resume" in stream:
            # The snapshot the first stream sent with its second chunk.
            chunk = runs[stream["resume"]][1]
            snapshot, offset = chunk[3], 1 + _CHUNK
        conn = _Conn(stream.get("cancel_after"))
        _stream_job(conn, spec, offset, _CHUNK, snapshot)
        runs.append(_normal(conn.sent))
        if observe is not None:
            observe(index)
    return runs


def _reference_runs(specs) -> List[List[tuple]]:
    """The streams on kernels compiled as before the direct path: an
    object ``Graph`` copied into a ``FastGraph`` (run in a spawned
    process, so the patch dies with it)."""
    from repro.graphs.fastgraph import FastGraph
    from repro.graphs.graph import Graph

    FastGraph.from_edges = classmethod(
        lambda cls, pairs, vertices=(): cls.from_graph(Graph.from_edges(pairs, vertices))
    )
    return _run_streams(specs, fresh=True)


def test_queries_on_one_dataset_share_one_kernel_and_stream_unchanged(tmp_path):
    """Steiner-tree and st-path queries on one dataset, through one
    worker's ``_stream_job``, against a fresh process running each
    stream on its inline spec without a kept kernel, on a kernel
    compiled through an object ``Graph``.  The same streams on a kernel
    compiled afresh from the index pairs for each stream match too.

    The streams include a cancelled one, a budget-aborted one and a
    resume from a chunk snapshot; lines, structures, chunk snapshots,
    ``ops`` and stop reasons must all equal the fresh process's.  No
    query can be built that fails on the kernel a budget abort leaves
    behind: the st-path and Steiner-tree machines never write the
    kernel's arrays, and every sweep stamps the shared buffers with a
    fresh generation and writes its parent pointers before it reads
    them.  So the test checks the defence itself: the aborted kernel is
    dropped, and the next query compiles one and streams unchanged.
    """
    from repro.engine import suspend
    from repro.engine.jobs import EnumerationJob
    from repro.frontdoor.registry import DatasetRegistry
    from repro.serve.arena import InstanceArena

    registry = DatasetRegistry(None)
    registry.add("g", _dataset_edges())
    arena = InstanceArena(str(tmp_path / "arena"))
    inline, dispatched = [], []
    for stream in _REUSE_STREAMS:
        query = {
            k: v for k, v in stream.items() if k not in ("cancel_after", "resume")
        }
        query["backend"] = "fast"
        inline.append(dict(query, edges=_dataset_edges()))
        job = EnumerationJob.from_dict(registry.resolve_spec(dict(query, dataset="g")))
        # What WorkerHandle.start_stream sends for a dataset query.
        spec = job.to_dict(instance=False)
        spec["arena"] = arena.ref(job.edges, job.vertices)
        dispatched.append(spec)
    # The budget-aborted stream gets half the ops of the full one.
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        probe = pool.submit(_reference_runs, inline).result()
        budget = probe[1][-1][1]["ops"] // 2
        for specs in (inline, dispatched):
            specs[3]["budget"] = budget
        expected = pool.submit(_reference_runs, inline).result()

    suspend._KERNELS.entries.clear()
    kernels = []

    def observe(index: int) -> None:
        entries = list(suspend._KERNELS.entries.values())
        assert len(entries) <= 1
        kernels.append(entries[0] if entries else None)

    got = _run_streams(dispatched, fresh=False, observe=observe)
    assert got == expected
    assert _run_streams(dispatched, fresh=True) == expected
    stop = [run[-1][1]["stop_reason"] for run in got]
    assert stop == ["limit", "limit", "cancelled", "budget", "limit", "limit"]
    assert got[3][-1][1]["snapshot"] is None
    first = kernels[0][0]
    # Both kinds ran on one kernel until the abort dropped it; a new one
    # served the rest.  No kernel's version ever moved.
    assert [k[0] is first for k in kernels[:3]] == [True] * 3
    assert kernels[3] is None
    assert kernels[4][0] is not first and kernels[5][0] is kernels[4][0]
    assert all(k[0].version == k[1] for k in kernels if k is not None)


def test_a_shared_kernel_is_the_kernel_its_object_graph_compiles():
    """``_indexed_instance`` builds a shared kind's kernel from the index
    pairs, slot for slot the one the object graph compiles to, for the
    reuse dataset (string labels too) and the pinned corpus."""
    from conftest import load_corpus
    from repro.engine import suspend
    from repro.engine.jobs import EnumerationJob
    from repro.graphs.fastgraph import FastGraph

    def slots(fg):
        values = [getattr(fg, name) for name in FastGraph.__slots__]
        return [list(v.items()) if isinstance(v, dict) else v for v in values]

    graphs = [_dataset_edges(), [(f"v{u}", f"v{v}") for u, v in _dataset_edges()]]
    graphs += [[(e.u, e.v) for e in case.graph.edges()] for case in load_corpus()]
    for edges in graphs:
        job = EnumerationJob.st_path(edges, edges[0][0], edges[-1][1], backend="fast")
        suspend._KERNELS.entries.clear()
        kernel, table = suspend._indexed_instance(job)
        graph, expected_labels, expected_index = job.instantiate_indexed()
        assert slots(kernel) == slots(FastGraph.from_graph(graph))
        assert (table.labels, table.index_of) == (expected_labels, expected_index)
    suspend._KERNELS.entries.clear()
