"""The resume wall: one replay rule, seen through every caller.

A stream of a job resumed at position ``k`` must continue with exactly
the solutions the client has not seen.  What replays from a store, and
what runs live, is decided once (:class:`repro.engine.cursor.StreamLedger`);
this wall drives that decision through each caller — an in-process
:class:`EnumerationCursor`, a :class:`ServerThread` resumed by explicit
``offset`` and by ``stream_id``, and a :class:`FleetRouter` over two
embedded replicas — against every store state:

* empty;
* the job's own complete stream;
* the job's own prefix, shorter and longer than ``k``;
* a complete relabelled copy whose order differs from the job's own
  (found by search over relabellings);
* an incomplete relabelled copy;

at ``k = 0``, ``k`` inside the stream (where the two orders disagree)
and ``k`` at the end, each with and without a resume snapshot.  The
expected tail is the job's own, except where the client's head came
from the relabelled copy (its checkpoint digest says so) or where
nothing was delivered yet and the complete copy replays whole.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
from typing import List, Optional, Tuple

import pytest

from repro.engine.cache import InstanceCache
from repro.engine.cursor import EnumerationCursor, checkpoint_record, prefix_digest
from repro.engine.jobs import EnumerationJob, run_job
from repro.engine.suspend import JobSearch
from repro.exceptions import InvalidInstanceError
from repro.serve.client import ServeClient, ServeError
from repro.serve.fleet import FleetRouter
from repro.serve.server import EnumerationServer, ServerThread
from repro.serve.store import ResultStore

#: A steiner-tree job with 13 solutions.
JOB = EnumerationJob.steiner_tree(
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (3, 5), (4, 5)],
    [3, 0, 1],
    job_id="wall",
)


def _find_donor(job: EnumerationJob) -> Tuple[EnumerationJob, Tuple[str, ...]]:
    """A relabelling of ``job`` (vertices renamed, edges reordered) whose
    stored stream, replayed in ``job``'s labels, comes out in another
    order — and that order.  The search is seeded, so it is the same
    donor every run."""
    own = run_job(job).lines
    vertices = sorted({v for edge in job.edges for v in edge})
    rng = random.Random(20)
    for _ in range(500):
        image = dict(zip(vertices, rng.sample(vertices, len(vertices))))
        edges = [(image[u], image[v]) for u, v in job.edges]
        rng.shuffle(edges)
        donor = EnumerationJob.steiner_tree(
            edges, [image[t] for t in job.terminals], job_id="donor"
        )
        cache = InstanceCache()
        cache.store(donor, run_job(donor))
        hit = cache.lookup(job)
        if hit is not None and hit.lines != own:
            return donor, hit.lines
    raise AssertionError("no relabelling reorders the stream")


DONOR, DONOR_ORDER = _find_donor(JOB)
OWN = run_job(JOB).lines
#: The first position the two orders disagree on, plus one: resuming
#: here after the donor's head splices two orders together.
INSIDE = next(i for i, (a, b) in enumerate(zip(OWN, DONOR_ORDER)) if a != b) + 1
END = len(OWN)

STATES = (
    "empty",
    "own-complete",
    "own-shorter",
    "own-longer",
    "donor-complete",
    "donor-incomplete",
)


def _limited(job: EnumerationJob, limit: int):
    return run_job(dataclasses.replace(job, limit=limit))


def _exists(state: str, k: int) -> bool:
    """Whether ``state`` can be built around position ``k``."""
    if state == "own-shorter":
        return k >= 2
    if state == "own-longer":
        return k + 2 < END
    return True


def _fill(root: str, state: str, k: int) -> None:
    """Make the store at ``root`` hold ``state``'s entries and no cursor."""
    for sub in ("entries", "cursors"):
        shutil.rmtree(os.path.join(root, sub), ignore_errors=True)
    store = ResultStore(root)
    if state == "own-complete":
        store.store(JOB, run_job(JOB))
    elif state == "own-shorter":
        store.store(JOB, _limited(JOB, k - 1))
    elif state == "own-longer":
        store.store(JOB, _limited(JOB, k + 2))
    elif state == "donor-complete":
        store.store(DONOR, run_job(DONOR))
    elif state == "donor-incomplete":
        store.store(DONOR, _limited(DONOR, 5))


def _snapshot_at(k: int) -> bytes:
    search = JobSearch(JOB)
    for _ in range(k):
        assert search.next() is not None
    return search.snapshot()


def _digest(order, k: int) -> Optional[str]:
    return prefix_digest(order[:k]) if k else None


def _expected(state: str, k: int, head) -> Tuple[str, ...]:
    """The tail a client holding ``head`` (OWN or DONOR_ORDER) must get."""
    if state == "donor-complete" and (k == 0 or head is DONOR_ORDER):
        return DONOR_ORDER[k:]
    return OWN[k:]


def _cases():
    for state in STATES:
        for k in (0, INSIDE, END):
            if not _exists(state, k):
                continue
            for snapshot in (False, True):
                case = f"{state}-k{k}-snap{int(snapshot)}"
                yield pytest.param(state, k, snapshot, id=case)


def _lines(events) -> List[str]:
    return [e["line"] for e in events if e.get("event") == "solution"]


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """One server without a memory tier: every request reads the store
    the case just wrote."""
    root = str(tmp_path_factory.mktemp("wall-store"))
    with ServerThread(EnumerationServer(workers=1, store=root, cache=False)) as thread:
        yield root, ServeClient(port=thread.port)


@pytest.mark.parametrize("state, k, with_snapshot", list(_cases()))
def test_every_caller_resumes_to_the_expected_tail(
    served, tmp_path, state, k, with_snapshot
):
    root, client = served
    _fill(root, state, k)
    snapshot = _snapshot_at(k) if with_snapshot else None
    record = checkpoint_record(JOB, k, _digest(OWN, k), snapshot)
    expected = list(_expected(state, k, OWN))

    # the cursor, on its own copy of the store
    local = str(tmp_path / "cursor-store")
    _fill(local, state, k)
    cursor = EnumerationCursor.resume(record, cache=ResultStore(local))
    assert cursor.drain() == expected

    # the server, by stream_id
    ResultStore(root).save_cursor("wall", record)
    assert _lines(client.enumerate(JOB, stream_id="wall")) == expected

    # the server, by explicit offset (no checkpoint, so no snapshot)
    if not with_snapshot:
        _fill(root, state, k)
        assert _lines(client.enumerate(JOB, offset=k)) == expected


@pytest.mark.parametrize("k", [INSIDE, END])
def test_a_head_replayed_from_the_relabelled_copy_resumes_in_its_order(
    served, tmp_path, k
):
    """The client's head came from the complete relabelled copy: its
    checkpoint digest picks that copy again, so the tail follows it."""
    root, client = served
    record = checkpoint_record(JOB, k, _digest(DONOR_ORDER, k))
    expected = list(DONOR_ORDER[k:])
    _fill(root, "donor-complete", k)
    ResultStore(root).save_cursor("wall-donor", record)
    assert _lines(client.enumerate(JOB, stream_id="wall-donor")) == expected
    local = str(tmp_path / "cursor-store")
    _fill(local, "donor-complete", k)
    cursor = EnumerationCursor.resume(record, cache=ResultStore(local))
    assert cursor.drain() == expected


def test_a_limited_first_leg_resumed_by_stream_id_keeps_its_order(served):
    """The relabelled copy completed first; a capped first leg of the
    job and its stream_id resume concatenate to the job's own stream."""
    root, client = served
    _fill(root, "donor-complete", 0)
    # The capped leg cannot use the relabelled copy (it is not the job's
    # own order), so it runs live and checkpoints the job's own head.
    capped = dataclasses.replace(JOB, limit=INSIDE)
    head = _lines(client.enumerate(capped, stream_id="wall-capped"))
    tail_events = list(client.enumerate(JOB, stream_id="wall-capped"))
    assert head + _lines(tail_events) == list(OWN)
    assert tail_events[0]["offset"] == INSIDE


def test_the_router_resumes_an_explicit_offset_in_the_jobs_own_order(tmp_path):
    """The relabelled copy runs to completion through the fleet; a
    migration-style explicit offset for the job then gets its own tail."""
    store = str(tmp_path / "store")
    replicas = [
        ServerThread(
            EnumerationServer(workers=1, store=store, checkpoint_every=2)
        ).start()
        for _ in range(2)
    ]
    router = FleetRouter(registry=os.path.join(store, "datasets"))
    thread = ServerThread(router).start()
    try:
        for i, replica in enumerate(replicas):
            router.add_replica(f"wall-{i}", "127.0.0.1", replica.port)
        client = ServeClient(port=thread.port)
        donor = _lines(client.enumerate(DONOR))
        assert sorted(donor) == sorted(run_job(DONOR).lines)
        tail = _lines(client.enumerate(JOB, offset=INSIDE))
        assert tail == list(OWN[INSIDE:])
    finally:
        thread.stop()
        for replica in replicas:
            replica.stop()


def test_a_cursor_that_replayed_a_relabelled_copy_never_splices(tmp_path):
    """A fresh cursor replays the complete relabelled copy; resumed
    against the same cache it stays in that order, and against an empty
    one the digest check refuses instead of splicing."""
    root = str(tmp_path / "store")
    _fill(root, "donor-complete", 0)
    cursor = EnumerationCursor(JOB, cache=ResultStore(root))
    head = cursor.take(INSIDE)
    assert head == list(DONOR_ORDER[:INSIDE])
    record = cursor.checkpoint()
    assert record["digest"] == prefix_digest(DONOR_ORDER[:INSIDE])
    assert "snapshot" not in record  # a replay freezes no search state
    assert len(ResultStore(root)) == 1  # a pure replay stores nothing back

    same = EnumerationCursor.resume(record, cache=ResultStore(root))
    assert head + same.drain() == list(DONOR_ORDER)

    empty = EnumerationCursor.resume(record, cache=ResultStore(str(tmp_path / "empty")))
    with pytest.raises(InvalidInstanceError):
        empty.drain()
    with pytest.raises(InvalidInstanceError):
        EnumerationCursor.resume(record).drain()


def test_a_snapshot_resume_replays_no_stored_line_past_its_position(served):
    """Against a stored prefix longer than ``k``, a resume without a
    snapshot replays it and goes live past it; one with a snapshot goes
    live at ``k`` (the worker thaws it there) and replays nothing."""
    root, client = served
    for snapshot, source in ((None, "partial-replay"), (_snapshot_at(INSIDE), "live")):
        _fill(root, "own-longer", INSIDE)
        record = checkpoint_record(JOB, INSIDE, _digest(OWN, INSIDE), snapshot)
        ResultStore(root).save_cursor("wall-source", record)
        events = list(client.enumerate(JOB, stream_id="wall-source"))
        assert events[0]["source"] == source
        assert _lines(events) == list(OWN[INSIDE:])


def test_server_checkpoints_follow_the_shared_record_rule(served):
    """Position 0 carries no digest; a resumed stream that has not moved
    re-issues the digest it resumed with; a stream resumed at its limit
    is a replay that re-saves its checkpoint."""
    root, client = served
    _fill(root, "empty", 0)
    store = ResultStore(root)
    starved = dataclasses.replace(JOB, budget=1)  # stops before a first solution
    events = list(client.enumerate(starved, stream_id="wall-zero"))
    assert _lines(events) == [] and events[-1]["stop_reason"] == "budget"
    assert store.load_cursor("wall-zero")["digest"] is None

    # deadline 0 stops the fast-forward to INSIDE before the stream moves
    record = checkpoint_record(JOB, INSIDE, _digest(OWN, INSIDE))
    store.save_cursor("wall-still", record)
    stalled = dataclasses.replace(JOB, deadline=0)
    events = list(client.enumerate(stalled, stream_id="wall-still"))
    assert _lines(events) == [] and events[-1]["stop_reason"] == "deadline"
    assert store.load_cursor("wall-still")["digest"] == record["digest"]

    replays = client.stats()["replays"]
    capped = dataclasses.replace(JOB, limit=INSIDE)
    record = checkpoint_record(capped, INSIDE, _digest(OWN, INSIDE))
    store.save_cursor("wall-capped-end", record)
    events = list(client.enumerate(capped, stream_id="wall-capped-end"))
    assert events[0]["source"] == "replay" and events[-1]["stop_reason"] == "limit"
    assert client.stats()["replays"] == replays + 1
    assert store.load_cursor("wall-capped-end") == record


def test_only_a_live_leg_stores_back_and_it_stores_at_its_end():
    cache = InstanceCache()
    cursor = EnumerationCursor(dataclasses.replace(JOB, limit=3), cache=cache)
    assert cursor.drain() == list(OWN[:3])
    assert cache.stats.stores == 1  # at the end, without a checkpoint
    assert cache.prefix(JOB).lines == OWN[:3]
    replay = EnumerationCursor(dataclasses.replace(JOB, limit=2), cache=cache)
    assert replay.drain() == list(OWN[:2]) and replay.checkpoint()["offset"] == 2
    assert cache.stats.stores == 1  # a pure replay stores nothing


def test_an_offset_past_a_stored_complete_stream_is_an_error(served):
    """A complete entry has no first ``k`` solutions to vouch for when
    ``k`` is past its end, so the stream runs live and fails there — as
    it does with nothing stored."""
    root, client = served
    _fill(root, "own-complete", 0)
    with pytest.raises(ServeError, match="exceeds"):
        list(client.enumerate(JOB, offset=END + 1))
    cursor = EnumerationCursor.resume(
        checkpoint_record(JOB, END + 1), cache=ResultStore(root)
    )
    with pytest.raises(InvalidInstanceError, match="exceeds"):
        cursor.drain()
