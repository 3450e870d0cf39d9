"""Committed RSNAP1 snapshots of the tree machines keep thawing.

``tests/fixtures/tree_machines.json`` names one job per instance; each
has a snapshot per backend (``<name>.<backend>.rsnap``), taken by an
older release after ``position`` solutions (see the fixtures README).
A fixture must thaw on the current code and continue with the same tail
as a fresh object-backend run, and on the Python minor that wrote it a
fresh snapshot at the same position must reproduce its bytes: the
snapshot layout is a wire format shared by every fleet replica.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from conftest import FAST_STRATEGIES, sweep_strategy
from repro.core.suspend import read_snapshot_header
from repro.engine.jobs import EnumerationJob, run_job
from repro.engine.suspend import JobSearch

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

with open(os.path.join(FIXTURES, "tree_machines.json")) as _handle:
    MANIFEST = {entry["name"]: entry for entry in json.load(_handle)}


@pytest.mark.parametrize("strategy", FAST_STRATEGIES)
@pytest.mark.parametrize("backend", ["object", "fast"])
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_tree_machine_fixture_resumes(name, backend, strategy):
    entry = MANIFEST[name]
    position, tail = entry["position"], entry["tail"]
    with open(os.path.join(FIXTURES, f"{name}.{backend}.rsnap"), "rb") as handle:
        blob = handle.read()
    header = read_snapshot_header(blob)
    assert (header["kind"], header["backend"]) == (entry["job"]["kind"], backend)
    assert header["emitted"] == position
    job = EnumerationJob.from_dict(dict(entry["job"], backend=backend))
    reference = run_job(
        EnumerationJob.from_dict(
            dict(entry["job"], backend="object", limit=position + tail)
        )
    ).lines
    with sweep_strategy(strategy):
        search = JobSearch.restore(job, blob, allow_cross_version=True)
        resumed = [search.next()[0] for _ in range(tail)]
        if header["python"] == PYTHON:
            fresh = JobSearch(job)
            for _ in range(position):
                fresh.next()
            assert fresh.snapshot() == blob
    assert search.emitted == position + tail
    assert tuple(resumed) == reference[position:]
