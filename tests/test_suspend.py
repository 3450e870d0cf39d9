"""The suspendable-enumerator contract: snapshot/restore ≡ uninterrupted.

Every converted machine (paths, Steiner tree, terminal Steiner,
K-fragments, internal-Steiner brute force) is interrupted at a random
solution index, its search state serialized, and the restored machine's
remaining stream compared byte-for-byte with the uninterrupted tail —
on both the ``object`` and ``fast`` backends, in-process and (for the
engine layer) in a fresh subprocess.  Fast machines are interrupted
under one sweep strategy and restored under the other (the per-frame
reach caches are rebuilt on restore, whichever strategy the restoring
kernel takes).  The pinned corpus instances are
round-tripped the same way so a regression can never hide behind the
random generator.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import subprocess
import sys
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FAST_STRATEGIES, load_corpus, sweep_strategy
from repro.core.steiner_tree import SteinerTreeSearch
from repro.core.suspend import (
    RegulatedSearch,
    SnapshotError,
    pack_snapshot,
    read_snapshot_header,
    unpack_snapshot,
)
from repro.core.terminal_steiner import TerminalSteinerSearch
from repro.core.internal_steiner import (
    InternalSteinerSearch,
    enumerate_internal_steiner_trees_brute,
)
from repro.datagraph.kfragments import KFragmentSearch
from repro.datagraph.model import DataGraph
from repro.engine.cursor import EnumerationCursor
from repro.core.capabilities import kinds_where
from repro.engine.jobs import (
    EnumerationJob,
    run_job,
)

SUSPENDABLE_KINDS = kinds_where(suspendable=True)
from repro.engine.pool import run_batch
from repro.engine.suspend import JobSearch
from repro.enumeration.events import SOLUTION
from repro.enumeration.queue_method import regulate
from repro.exceptions import CursorStateError
from repro.graphs.fastgraph import compile_undirected
from repro.graphs.graph import Graph
from repro.paths.fastpaths import FastPathSearch, fast_set_path_search, fast_st_path_search
from repro.paths.read_tarjan import PathSearch, SetPathSearch, StPathSearch

BACKENDS = ("object", "fast")

#: (backend, interrupt strategy, restore strategy): the object backend
#: (which ignores the strategy), then each fast strategy restored under
#: the other one.
LEGS = (
    ("object", "scalar", "scalar"),
    ("fast", "bitset", "scalar"),
    ("fast", "scalar", "bitset"),
)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def undirected_instances(draw):
    """A small integer-compact multigraph plus a terminal sample."""
    n = draw(st.integers(min_value=3, max_value=9))
    m = draw(st.integers(min_value=2, max_value=18))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            edges.append((u, v))
    k = draw(st.integers(min_value=2, max_value=min(4, n)))
    sample = draw(st.permutations(range(n)))[:k]
    cut = draw(st.integers(min_value=0, max_value=60))
    return Graph.from_edges(edges, vertices=range(n)), list(sample), cut


def _drain_solutions(machine):
    out = []
    while True:
        event = machine.advance()
        if event is None:
            return out
        if event[0] == SOLUTION:
            out.append(event[1])


def _interrupt_solutions(machine, cut):
    """Run ``machine`` until ``cut`` solutions were produced."""
    produced = 0
    while produced < cut:
        event = machine.advance()
        assert event is not None
        if event[0] == SOLUTION:
            produced += 1


def _roundtrip(state):
    """Serialize/deserialize the state the way a snapshot payload does."""
    return pickle.loads(pickle.dumps(state, protocol=4))


# ----------------------------------------------------------------------
# snapshot envelope
# ----------------------------------------------------------------------
class TestEnvelope:
    def test_header_roundtrip(self):
        blob = pack_snapshot("st-path", "fast", "f" * 64, {"x": 1}, frames=3, emitted=7)
        header = read_snapshot_header(blob)
        assert header["kind"] == "st-path"
        assert header["backend"] == "fast"
        assert header["frames"] == 3
        assert header["emitted"] == 7
        _header, state = unpack_snapshot(blob)
        assert state == {"x": 1}

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            read_snapshot_header(b"not a snapshot")

    def test_mismatches_rejected(self):
        blob = pack_snapshot("st-path", "fast", "f" * 64, {})
        with pytest.raises(SnapshotError, match="kind"):
            unpack_snapshot(blob, expect_kind="steiner-tree")
        with pytest.raises(SnapshotError, match="backend"):
            unpack_snapshot(blob, expect_backend="object")
        with pytest.raises(SnapshotError, match="fingerprint"):
            unpack_snapshot(blob, expect_fingerprint="0" * 64)

    def test_corrupt_payload_rejected(self):
        blob = pack_snapshot("st-path", "fast", "f" * 64, {"x": 1})
        with pytest.raises(SnapshotError, match="corrupt"):
            unpack_snapshot(blob[:-3] + b"zzz")


# ----------------------------------------------------------------------
# path machines
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(undirected_instances())
def test_st_path_interrupt_restore(case):
    graph, sample, cut = case
    s, t = sample[0], sample[1]
    fg, _ = compile_undirected(graph)

    def paths(machine):
        out = []
        while (p := machine.next_path()) is not None:
            out.append(p)
        return out

    reference = paths(StPathSearch(graph, s, t))
    cut = min(cut, len(reference))
    machine = StPathSearch(graph, s, t)
    for _ in range(cut):
        machine.next_path()
    restored = StPathSearch.restore(graph, _roundtrip(machine.state()))
    assert paths(restored) == reference[cut:]
    for before, after in zip(FAST_STRATEGIES, reversed(FAST_STRATEGIES)):
        with sweep_strategy(before):
            assert reference == paths(fast_st_path_search(fg, s, t))
            machine = fast_st_path_search(fg, s, t)
            for _ in range(cut):
                machine.next_path()
            state = _roundtrip(machine.state())
        with sweep_strategy(after):
            assert paths(FastPathSearch.restore(fg, state)) == reference[cut:]


@settings(max_examples=60, deadline=None)
@given(undirected_instances())
def test_set_path_interrupt_restore(case):
    graph, sample, cut = case
    sources, targets = tuple(sample[:-1]), (sample[-1],)
    fg, _ = compile_undirected(graph)

    def paths(machine):
        out = []
        while (p := machine.next_path()) is not None:
            out.append(p)
        return out

    reference = paths(SetPathSearch(graph, sources, targets))
    cut = min(cut, len(reference))
    machine = SetPathSearch(graph, sources, targets)
    for _ in range(cut):
        machine.next_path()
    restored = SetPathSearch.restore(graph, _roundtrip(machine.state()))
    assert paths(restored) == reference[cut:]
    for before, after in zip(FAST_STRATEGIES, reversed(FAST_STRATEGIES)):
        with sweep_strategy(before):
            assert reference == paths(fast_set_path_search(fg, sources, targets))
            machine = fast_set_path_search(fg, sources, targets)
            for _ in range(cut):
                machine.next_path()
            state = _roundtrip(machine.state())
        with sweep_strategy(after):
            assert paths(FastPathSearch.restore(fg, state)) == reference[cut:]


def test_path_event_machine_restores_mid_event_queue():
    """Event-level machines restore with their pending queue intact."""
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    digraph = graph.to_directed()
    machine = PathSearch(digraph, 0, 3)
    reference = []
    while (e := machine.advance()) is not None:
        reference.append(e)
    machine = PathSearch(digraph, 0, 3)
    seen = [machine.advance() for _ in range(5)]
    restored = PathSearch.restore(digraph, _roundtrip(machine.state()))
    tail = []
    while (e := restored.advance()) is not None:
        tail.append(e)
    assert seen + tail == reference


# ----------------------------------------------------------------------
# Steiner machines (all variants, both backends)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(undirected_instances(), st.booleans())
def test_steiner_tree_interrupt_restore(case, improved):
    graph, terminals, cut = case
    for backend, before, after in LEGS:
        with sweep_strategy(before):
            reference = _drain_solutions(
                SteinerTreeSearch(graph, terminals, improved=improved, backend=backend)
            )
            k = min(cut, len(reference))
            machine = SteinerTreeSearch(
                graph, terminals, improved=improved, backend=backend
            )
            _interrupt_solutions(machine, k)
            state = _roundtrip(machine.state())
        with sweep_strategy(after):
            restored = SteinerTreeSearch.restore(graph, state)
            assert _drain_solutions(restored) == reference[k:]


@settings(max_examples=40, deadline=None)
@given(undirected_instances(), st.booleans())
def test_terminal_steiner_interrupt_restore(case, improved):
    graph, terminals, cut = case
    for backend, before, after in LEGS:
        with sweep_strategy(before):
            reference = _drain_solutions(
                TerminalSteinerSearch(
                    graph, terminals, improved=improved, backend=backend
                )
            )
            k = min(cut, len(reference))
            machine = TerminalSteinerSearch(
                graph, terminals, improved=improved, backend=backend
            )
            _interrupt_solutions(machine, k)
            state = _roundtrip(machine.state())
        with sweep_strategy(after):
            restored = TerminalSteinerSearch.restore(graph, state)
            assert _drain_solutions(restored) == reference[k:]


def test_linear_delay_variant_suspends():
    """The regulated (Theorem 20) variant freezes its queue too."""
    graph = Graph.from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3), (3, 4), (2, 4)]
    )
    events = SteinerTreeSearch(graph, [0, 4])
    reference = list(
        regulate(
            iter(lambda: events.advance(), None), prime=graph.num_vertices
        )
    )
    machine = RegulatedSearch(SteinerTreeSearch(graph, [0, 4]), prime=graph.num_vertices)
    head = [machine.advance() for _ in range(3)]
    inner_state = _roundtrip(machine.machine.state())
    outer_state = _roundtrip(machine.state())
    restored = RegulatedSearch(
        SteinerTreeSearch.restore(graph, inner_state), prime=1
    )
    restored.restore_state(outer_state)
    tail = []
    while (s := restored.advance()) is not None:
        tail.append(s)
    assert head + tail == reference


@settings(max_examples=25, deadline=None)
@given(undirected_instances())
def test_internal_steiner_interrupt_restore(case):
    graph, terminals, cut = case
    if graph.num_edges > 10:  # brute force: keep the lattice small
        graph = Graph.from_edges(
            [graph.endpoints(e) for e in sorted(graph.edge_ids())[:10]],
            vertices=range(graph.num_vertices),
        )
    reference = list(enumerate_internal_steiner_trees_brute(graph, terminals[:2]))
    k = min(cut, len(reference))
    machine = InternalSteinerSearch(graph, terminals[:2])
    for _ in range(k):
        machine.advance()
    restored = InternalSteinerSearch.restore(graph, _roundtrip(machine.state()))
    tail = []
    while (t := restored.advance()) is not None:
        tail.append(t)
    assert tail == reference[k:]


def _demo_datagraph():
    dg = DataGraph()
    for node, kws in [
        ("a", ["x"]),
        ("b", []),
        ("c", ["y"]),
        ("d", ["x", "z"]),
        ("e", ["z"]),
    ]:
        dg.add_node(node, kws)
    for u, v in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d"), ("d", "e")]:
        dg.add_link(u, v)
    return dg


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant", ["undirected", "strong"])
def test_kfragments_interrupt_restore(backend, variant):
    dg = _demo_datagraph()
    keywords = ["x", "y", "z"]

    def fragments(machine):
        out = []
        while (f := machine.advance()) is not None:
            out.append(f)
        return out

    reference = fragments(
        KFragmentSearch(dg, keywords, backend=backend, variant=variant)
    )
    assert reference, "demo data graph must produce fragments"
    for cut in range(len(reference) + 1):
        machine = KFragmentSearch(dg, keywords, backend=backend, variant=variant)
        for _ in range(cut):
            machine.advance()
        restored = KFragmentSearch.restore(dg, _roundtrip(machine.state()))
        assert fragments(restored) == reference[cut:]


# ----------------------------------------------------------------------
# engine layer: JobSearch / run_job / pool / cursor
# ----------------------------------------------------------------------
def _suspendable_jobs(limit=None, backend="object"):
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3), (3, 4), (2, 4)]
    cycle = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (2, 4)]
    dg = _demo_datagraph()
    return [
        EnumerationJob.steiner_tree(edges, [0, 4], limit=limit, backend=backend),
        EnumerationJob.steiner_forest(
            edges, [[0, 4], [1, 2]], limit=limit, backend=backend
        ),
        EnumerationJob.terminal_steiner(edges, [0, 4], limit=limit, backend=backend),
        EnumerationJob.directed_steiner(
            arcs, [3, 4], 0, limit=limit, backend=backend
        ),
        EnumerationJob.induced_steiner(cycle, [0, 3], limit=limit, backend=backend),
        EnumerationJob.chordless_path(edges, 0, 4, limit=limit, backend=backend),
        EnumerationJob.st_path(edges, 0, 4, limit=limit, backend=backend),
        EnumerationJob.kfragments(dg, ["x", "y"], limit=limit, backend=backend),
    ]


def test_suspendable_kinds_have_machines():
    assert {job.kind for job in _suspendable_jobs()} == set(SUSPENDABLE_KINDS)


@pytest.mark.parametrize("backend", BACKENDS)
def test_job_search_snapshot_tail(backend, fast_strategy):
    for job in _suspendable_jobs(backend=backend):
        reference = [line for line, _s in JobSearch(job)]
        assert reference == list(run_job(job).lines)
        for cut in (0, 1, len(reference) // 2, max(0, len(reference) - 1)):
            search = JobSearch(job)
            for _ in range(cut):
                search.next()
            blob = search.snapshot()
            header = read_snapshot_header(blob)
            assert header["kind"] == job.kind
            assert header["backend"] == backend
            assert header["emitted"] == cut
            restored = JobSearch.restore(job, blob)
            assert [line for line, _s in restored] == reference[cut:]


def test_job_search_rejects_wrong_job():
    job = _suspendable_jobs()[2]
    search = JobSearch(job)
    search.next()
    blob = search.snapshot()
    other = dataclasses.replace(job, target=3)
    with pytest.raises(CursorStateError):
        JobSearch.restore(other, blob)
    with pytest.raises(CursorStateError):
        JobSearch.restore(dataclasses.replace(job, backend="fast"), blob)


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_job_resume_concatenates(backend):
    for job in _suspendable_jobs(limit=2, backend=backend):
        first = run_job(job)
        assert first.stop_reason == "limit"
        assert first.snapshot is not None
        rest = run_job(dataclasses.replace(job, limit=None), resume=first.snapshot)
        full = run_job(dataclasses.replace(job, limit=None))
        assert full.lines == first.lines + rest.lines
        assert rest.exhausted


def test_run_batch_resume_rounds():
    jobs = [dataclasses.replace(j, job_id=f"j{i}") for i, j in enumerate(_suspendable_jobs(limit=2))]
    round1 = run_batch(jobs, workers=2)
    snaps = [r.snapshot for r in round1]
    assert all(s is not None for s in snaps)
    cont = [dataclasses.replace(j, limit=None) for j in jobs]
    round2 = run_batch(cont, workers=2, resume_snapshots=snaps)
    for job, r1, r2 in zip(cont, round1, round2):
        assert run_batch([job])[0].lines == r1.lines + r2.lines


def test_cursor_checkpoint_embeds_snapshot_and_resumes():
    job = _suspendable_jobs()[0]
    full = EnumerationCursor(job).drain()
    for cut in (0, 1, 3):
        cursor = EnumerationCursor(job)
        head = cursor.take(cut)
        state = json.loads(json.dumps(cursor.checkpoint()))
        if cut:
            assert "snapshot" in state
        resumed = EnumerationCursor.resume(state)
        assert head + resumed.drain() == full
        # replay mode must agree
        resumed = EnumerationCursor.resume(state, resume_mode="replay")
        assert head + resumed.drain() == full


def test_cursor_checkpoint_chain_keeps_snapshot():
    job = _suspendable_jobs()[2]
    cursor = EnumerationCursor(job)
    head = cursor.take(2)
    state = cursor.checkpoint()
    # resume, take nothing, checkpoint again: the snapshot must survive
    again = EnumerationCursor.resume(state).checkpoint()
    assert again.get("snapshot") == state.get("snapshot")
    full = EnumerationCursor(job).drain()
    assert head + EnumerationCursor.resume(again).drain() == full


def test_cursor_resume_rejects_mismatched_job():
    job = _suspendable_jobs()[2]
    cursor = EnumerationCursor(job)
    cursor.take(1)
    state = cursor.checkpoint()
    with pytest.raises(CursorStateError):
        EnumerationCursor.resume(state, job=dataclasses.replace(job, target=3))
    with pytest.raises(CursorStateError):
        EnumerationCursor.resume(state, job=dataclasses.replace(job, backend="fast"))
    # the matching job is accepted even with a different envelope
    ok = EnumerationCursor.resume(state, job=dataclasses.replace(job, limit=2))
    assert ok.take(1)


def test_cursor_rejects_tampered_snapshot_offset():
    job = _suspendable_jobs()[2]
    cursor = EnumerationCursor(job)
    cursor.take(2)
    state = cursor.checkpoint()
    state["offset"] = 1  # snapshot position no longer matches
    resumed = EnumerationCursor.resume(state)
    with pytest.raises(CursorStateError):
        resumed.take(1)


def test_deadline_stop_keeps_snapshot_and_progresses():
    """Deadline stops are clean suspension points: the checkpoint keeps
    its snapshot, and deadline-bounded rounds make progress (at least
    one solution per round) until the stream exhausts."""
    job = dataclasses.replace(_suspendable_jobs()[0], deadline=0.0)
    full = EnumerationCursor(dataclasses.replace(job, deadline=None)).drain()
    delivered: List = []
    cursor = EnumerationCursor(job)
    for _round in range(len(full) + 1):
        got = cursor.take(len(full) + 1)
        delivered.extend(got)
        if cursor.exhausted and cursor.stop_reason is None:
            break
        assert cursor.stop_reason == "deadline"
        assert got, "a deadline round must deliver at least one solution"
        state = cursor.checkpoint()
        assert "snapshot" in state, "deadline stop must keep the snapshot"
        cursor = EnumerationCursor.resume(state)
    assert delivered == full


def test_run_job_deadline_stop_carries_snapshot():
    job = dataclasses.replace(_suspendable_jobs()[2], deadline=0.0)
    result = run_job(job)
    if not result.exhausted:
        assert result.stop_reason == "deadline"
        assert result.snapshot is not None
        rest = run_job(
            dataclasses.replace(job, deadline=None), resume=result.snapshot
        )
        full = run_job(dataclasses.replace(job, deadline=None))
        assert full.lines == result.lines + rest.lines


def test_formerly_replay_only_kind_checkpoints_with_snapshot():
    # induced-steiner used to resume by O(offset) replay; now every kind
    # carries a suspendable machine, so the checkpoint embeds a snapshot.
    job = EnumerationJob.induced_steiner(
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)], [0, 3]
    )
    full = EnumerationCursor(job).drain()
    cursor = EnumerationCursor(job)
    head = cursor.take(1)
    state = cursor.checkpoint()
    assert "snapshot" in state
    assert head + EnumerationCursor.resume(state).drain() == full


# ----------------------------------------------------------------------
# cross-process restore
# ----------------------------------------------------------------------
_SUBPROCESS_DRIVER = """
import base64, json, sys
sys.path.insert(0, {src!r})
from repro.engine.jobs import EnumerationJob
from repro.engine.suspend import JobSearch

payload = json.loads(sys.stdin.read())
job = EnumerationJob.from_dict(payload["job"])
search = JobSearch.restore(job, base64.b64decode(payload["snapshot"]))
print(json.dumps([line for line, _s in search]))
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_snapshot_restores_in_fresh_process(backend):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    for job in _suspendable_jobs(backend=backend):
        reference = [line for line, _s in JobSearch(job)]
        cut = max(1, len(reference) // 2)
        search = JobSearch(job)
        for _ in range(cut):
            search.next()
        payload = json.dumps(
            {
                "job": job.to_dict(),
                "snapshot": base64.b64encode(search.snapshot()).decode(),
            }
        )
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_DRIVER.format(src=os.path.abspath(src))],
            input=payload,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == reference[cut:]


# ----------------------------------------------------------------------
# pinned corpus round-trips
# ----------------------------------------------------------------------
def _corpus_jobs(case):
    edges = [case.graph.endpoints(e) for e in sorted(case.graph.edge_ids())]
    vertices = tuple(
        v for v in case.graph.vertices() if case.graph.degree(v) == 0
    )
    jobs = []
    if case.terminals:
        jobs.append(
            EnumerationJob(
                kind="steiner-tree",
                edges=tuple(edges),
                vertices=vertices,
                terminals=tuple(case.terminals),
            )
        )
        if len(case.terminals) >= 2:
            jobs.append(
                EnumerationJob(
                    kind="terminal-steiner",
                    edges=tuple(edges),
                    vertices=vertices,
                    terminals=tuple(case.terminals),
                )
            )
            jobs.append(
                EnumerationJob(
                    kind="st-path",
                    edges=tuple(edges),
                    vertices=vertices,
                    source=case.terminals[0],
                    target=case.terminals[1],
                )
            )
    return jobs


@pytest.mark.parametrize("case", load_corpus(), ids=lambda c: c.name)
@pytest.mark.parametrize("backend", BACKENDS)
def test_corpus_snapshot_roundtrip(case, backend, fast_strategy):
    for job in _corpus_jobs(case):
        job = dataclasses.replace(job, backend=backend)
        reference = [line for line, _s in JobSearch(job)]
        for cut in sorted({0, 1, len(reference) // 2, len(reference)}):
            if cut > len(reference):
                continue
            search = JobSearch(job)
            for _ in range(cut):
                search.next()
            restored = JobSearch.restore(job, search.snapshot())
            assert [line for line, _s in restored] == reference[cut:], (
                case.name,
                job.kind,
                cut,
            )
