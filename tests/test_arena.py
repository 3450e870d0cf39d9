"""The zero-copy instance arena (:mod:`repro.serve.arena`).

Covers the spool format round trip (through the memoryview decode), the
integer-compactness gate (and its inline fallback), digest dedupe,
torn-file detection, and — end to end — a :class:`WorkerPool` whose
forked workers receive arena refs instead of inline edge lists and
still produce byte-identical streams.
"""

import os

import pytest

from repro.engine.jobs import EnumerationJob, run_job
from repro.serve import arena
from repro.serve.arena import InstanceArena
from repro.serve.workers import WorkerPool

EDGES = ((0, 1), (1, 2), (0, 2), (2, 3))


def test_publish_load_round_trip(tmp_path):
    inst = InstanceArena(str(tmp_path))
    ref = inst.publish(EDGES, vertices=(7,))
    assert ref is not None
    assert ref["edges"] == 4 and ref["vertices"] == 1
    assert os.path.exists(ref["path"])
    arena._DECODED.pop(ref["digest"], None)  # decode from the spool itself
    edges, vertices = arena.load(ref)
    assert edges == EDGES
    assert vertices == (7,)
    # decode cache: same object back on a second load
    assert arena.load(ref) is not arena.load.__defaults__  # sanity
    assert arena.load(ref)[0] is edges


def test_publish_dedupes_by_digest(tmp_path):
    inst = InstanceArena(str(tmp_path))
    first = inst.publish(EDGES)
    second = inst.publish(EDGES)
    assert first["path"] == second["path"]
    spools = [p for p in os.listdir(tmp_path) if p.endswith(".arena")]
    assert len(spools) == 1


def test_non_integer_instances_stay_inline(tmp_path):
    inst = InstanceArena(str(tmp_path))
    assert inst.publish([("a", "b")]) is None
    assert inst.publish([(0, 1)], vertices=("x",)) is None
    assert inst.publish([(0, 2**40)]) is None  # beyond int32
    assert inst.publish([(0, True)]) is None  # bools are not vertex ids
    spec = {"kind": "st-path", "edges": [["a", "b"]], "source": "a", "target": "b"}
    assert inst.publish_spec(spec) is spec  # untouched → inline path


def test_publish_spec_swaps_payload_for_ref(tmp_path):
    inst = InstanceArena(str(tmp_path))
    job = EnumerationJob.steiner_tree(EDGES, [0, 3], limit=5)
    spec = inst.publish_spec(job.to_dict())
    assert "edges" not in spec and "arena" in spec
    resolved = arena.resolve_spec(spec)
    assert "arena" not in resolved
    assert EnumerationJob.from_dict(resolved) == job


def test_torn_spool_is_rejected(tmp_path):
    inst = InstanceArena(str(tmp_path))
    ref = inst.publish(EDGES)
    arena._DECODED.pop(ref["digest"], None)
    with open(ref["path"], "r+b") as handle:
        handle.truncate(10)
    with pytest.raises(ValueError, match="bytes"):
        arena.load(ref)


def test_mismatched_header_is_rejected(tmp_path):
    inst = InstanceArena(str(tmp_path))
    ref = inst.publish(EDGES)
    arena._DECODED.pop(ref["digest"], None)
    lied = dict(ref, edges=3, vertices=2)  # same total, wrong split
    with pytest.raises(ValueError, match="header"):
        arena.load(lied)


def test_worker_pool_streams_through_arena(tmp_path):
    """Forked workers resolve arena refs and the streams stay
    byte-identical — including the inline fallback for labeled graphs
    and the per-process decode cache on a repeated dataset."""
    int_job = EnumerationJob.steiner_tree(EDGES, [0, 3], limit=10)
    str_job = EnumerationJob.steiner_tree(
        [("a", "b"), ("b", "c"), ("a", "c")], ["a", "c"], limit=5
    )
    with WorkerPool(1, arena_dir=str(tmp_path)) as pool:
        handle = pool.acquire()
        try:
            for job in (int_job, int_job, str_job):
                expect = run_job(job).lines
                handle.start_stream(job, 0, 64)
                lines = []
                while True:
                    msg = handle.recv()
                    if msg[0] == "chunk":
                        lines.extend(msg[1])
                        handle.credit()
                    elif msg[0] == "end":
                        assert msg[1]["error"] is None, msg[1]
                        break
                assert tuple(lines) == expect
        finally:
            pool.release(handle)
    spools = [p for p in os.listdir(tmp_path) if p.endswith(".arena")]
    assert len(spools) == 1  # one integer dataset → one spool, reused


def test_pool_without_arena_unchanged(tmp_path):
    """No arena_dir → specs travel inline exactly as before."""
    job = EnumerationJob.steiner_tree(EDGES, [0, 3], limit=10)
    expect = run_job(job).lines
    with WorkerPool(1) as pool:
        handle = pool.acquire()
        try:
            assert handle.arena is None
            handle.start_stream(job, 0, 64)
            lines = []
            while True:
                msg = handle.recv()
                if msg[0] == "chunk":
                    lines.extend(msg[1])
                    handle.credit()
                elif msg[0] == "end":
                    assert msg[1]["error"] is None, msg[1]
                    break
            assert tuple(lines) == expect
        finally:
            pool.release(handle)
