"""``backend="vector"`` is an alias of ``fast`` everywhere a name arrives.

The retired third backend's name must keep working for one release:
in job specs, over HTTP, on the CLI, through the Python entry points,
and in the RSNAP1 headers and cursor checkpoints older releases wrote.
The checkpoint half replays artifacts committed under
``tests/fixtures/`` (see its README): a snapshot and a serve cursor
checkpoint written by the release that still had the vector backend.
"""

from __future__ import annotations

import base64
import io
import json
import os
import sys

import pytest

from conftest import FAST_STRATEGIES, sweep_strategy
from repro.cli import main
from repro.core.steiner_tree import enumerate_minimal_steiner_trees
from repro.core.suspend import read_snapshot_header, unpack_snapshot
from repro.engine.cursor import EnumerationCursor
from repro.engine.jobs import EnumerationJob, run_job
from repro.engine.suspend import JobSearch, snapshot_usable
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.paths.read_tarjan import enumerate_set_paths_directed
from repro.serve import EnumerationServer, ServeClient, ServerThread
from repro.serve.store import ResultStore

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def _fixture(name: str, mode: str = "r"):
    with open(os.path.join(FIXTURES, name), mode) as handle:
        return handle.read()


def test_python_entry_points_accept_the_alias():
    graph = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    assert list(enumerate_minimal_steiner_trees(graph, [0, 3], backend="vector")) == list(
        enumerate_minimal_steiner_trees(graph, [0, 3])
    )
    # kinds the old vector backend refused now resolve to fast as well
    digraph = DiGraph.from_arcs([(0, 1), (1, 2), (0, 2)])
    assert list(enumerate_set_paths_directed(digraph, [0], [2], backend="vector")) == list(
        enumerate_set_paths_directed(digraph, [0], [2])
    )


def test_cli_accepts_the_alias(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("a b\nb c\na c\nc d\n")

    def run(*extra):
        out = io.StringIO()
        assert main(["steiner-tree", str(path), "--terminals", "a", "d", *extra], out=out) == 0
        return out.getvalue()

    assert run("--backend", "vector") == run()
    with pytest.raises(SystemExit):
        run("--backend", "gpu")


@pytest.mark.parametrize("strategy", FAST_STRATEGIES)
def test_old_vector_snapshot_resumes(strategy):
    """The old release's RSNAP1 snapshot (header backend ``vector``)
    thaws against the resolved job and continues byte-identically."""
    blob = _fixture("vector_steiner_tree.rsnap", "rb")
    spec = json.loads(_fixture("vector_steiner_tree.job.json"))
    assert read_snapshot_header(blob)["backend"] == "vector"
    job = EnumerationJob.from_dict(spec)
    assert job.backend == "fast"
    reference = run_job(
        EnumerationJob.from_dict(dict(spec, backend="object", limit=46))
    ).lines
    assert snapshot_usable(blob, job, allow_cross_version=True)
    if read_snapshot_header(blob)["python"] == PYTHON:
        assert snapshot_usable(blob, job)
    unpack_snapshot(blob, expect_backend="fast", allow_cross_version=True)
    with sweep_strategy(strategy):
        search = JobSearch.restore(job, blob, allow_cross_version=True)
        tail = [search.next()[0] for _ in range(40)]
    assert search.emitted == 46
    assert tuple(tail) == reference[6:]


def test_old_vector_cursor_checkpoint_resumes_in_process():
    record = json.loads(_fixture("vector_st_path_cursor.json"))
    state = record["state"]
    job = EnumerationJob.from_dict(state["job"])
    reference = run_job(EnumerationJob.from_dict(dict(state["job"], backend="object"))).lines
    cursor = EnumerationCursor.resume(state, job=job)
    assert cursor.drain() == list(reference[state["offset"] :])


@pytest.mark.parametrize("strategy", FAST_STRATEGIES)
def test_old_vector_cursor_checkpoint_resumes_on_server(tmp_path, strategy):
    """A rolling upgrade: the new server finds the old release's cursor
    for stream ``vector-stream`` in its store, and the client re-sends
    its ``vector`` request with the same stream id."""
    record = json.loads(_fixture("vector_st_path_cursor.json"))
    state = record["state"]
    spec = state["job"]
    assert spec["backend"] == "vector"
    store = str(tmp_path / "store")
    ResultStore(store).save_cursor(record["stream_id"], state)
    job = EnumerationJob.from_dict(spec)
    blob = base64.b64decode(state["snapshot"])
    if read_snapshot_header(blob)["python"] == PYTHON:
        # the server's own gate: the snapshot is thawed, not replayed
        assert snapshot_usable(blob, job)
    reference = run_job(EnumerationJob.from_dict(dict(spec, backend="object"))).lines
    with sweep_strategy(strategy):
        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            events = list(
                ServeClient(port=thread.port).enumerate(spec, stream_id=record["stream_id"])
            )
    assert events[0]["offset"] == state["offset"]
    tail = [e["line"] for e in events if e["event"] == "solution"]
    assert tuple(tail) == reference[state["offset"] :]
    assert events[-1]["total"] == len(reference)
