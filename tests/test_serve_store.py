"""The persistent result store: durability, replay fidelity, cursors.

The contracts under test are the ones the serving layer leans on:

* entries survive process "restarts" (a fresh :class:`ResultStore` on
  the same directory serves what the previous one stored);
* replayed streams are byte-identical to fresh enumeration — including
  for relabeled isomorphic instances, translated to the caller's
  labels, on **both** backends (hypothesis-driven);
* cursor checkpoints persist: kill a stream mid-flight, reopen the
  store, resume — the tail is exactly what an uninterrupted run would
  have produced;
* unusable results (deadline/budget-stopped) are never persisted.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import fixture_job
from repro.engine import cache as cache_module
from repro.engine.cache import InstanceCache, instance_key, job_fingerprint
from repro.engine.cursor import EnumerationCursor
from repro.engine.jobs import JOB_KINDS, EnumerationJob, run_job
from repro.serve.store import ResultStore, TieredCache


def diamond_job(**opts) -> EnumerationJob:
    return EnumerationJob.steiner_tree(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d")],
        ["a", "d"],
        **opts,
    )


def grid_job(n: int = 4, **opts) -> EnumerationJob:
    edges = []
    for i in range(n):
        for j in range(n):
            if i < n - 1:
                edges.append((f"v{i}{j}", f"v{i+1}{j}"))
            if j < n - 1:
                edges.append((f"v{i}{j}", f"v{i}{j+1}"))
    return EnumerationJob.steiner_tree(edges, ["v00", f"v{n-1}{n-1}"], **opts)


class TestPersistence:
    def test_round_trip_across_reopen(self, tmp_path):
        job = diamond_job()
        fresh = run_job(job)
        ResultStore(str(tmp_path)).store(job, fresh)
        # A brand-new store object on the same directory replays it.
        replayed = ResultStore(str(tmp_path)).lookup(job)
        assert replayed is not None
        assert replayed.cached
        assert replayed.lines == fresh.lines
        assert replayed.exhausted

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(str(tmp_path)).lookup(diamond_job()) is None

    def test_relabeled_hit_translated(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = diamond_job()
        store.store(job, run_job(job))
        mapping = {"a": "x", "b": "y", "c": "z", "d": "w"}
        relabeled = EnumerationJob.steiner_tree(
            [(mapping[u], mapping[v]) for u, v in job.edges],
            [mapping[t] for t in job.terminals],
        )
        hit = ResultStore(str(tmp_path)).lookup(relabeled)
        assert hit is not None
        assert set(hit.lines) == set(run_job(relabeled).lines)

    def test_limit_truncation_same_fingerprint_only(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = diamond_job()
        store.store(job, run_job(job))
        # Exact instance: a limit is served by prefix truncation.
        limited = dataclasses.replace(job, limit=1)
        hit = store.lookup(limited)
        assert hit is not None
        assert hit.lines == run_job(job).lines[:1]
        assert hit.stop_reason == "limit"
        # Relabeled instance: a truncating limit must miss.
        relabeled = EnumerationJob.steiner_tree(
            [(u.upper(), v.upper()) for u, v in job.edges],
            [t.upper() for t in job.terminals],
            limit=1,
        )
        assert store.lookup(relabeled) is None

    def test_deadline_stopped_results_not_stored(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = diamond_job()
        result = dataclasses.replace(run_job(job), stop_reason="deadline", exhausted=False)
        store.store(job, result)
        assert len(store) == 0

    def test_upgrade_only(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = grid_job()
        full = run_job(job)
        partial = dataclasses.replace(
            full,
            lines=full.lines[:2],
            structures=full.structures[:2],
            exhausted=False,
            stop_reason="limit",
        )
        store.store(job, partial)
        assert store.prefix(job).count == 2
        store.store(job, full)
        assert store.lookup(job).exhausted
        # A later, shorter result must not downgrade the entry.
        store.store(job, partial)
        assert store.lookup(job).exhausted

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(str(tmp_path))
        job = diamond_job()
        store.store(job, run_job(job))
        entries = os.path.join(str(tmp_path), "entries")
        for name in os.listdir(entries):
            with open(os.path.join(entries, name), "w") as handle:
                handle.write("{not json")
        assert ResultStore(str(tmp_path)).lookup(job) is None


class TestCursorCheckpoints:
    def test_save_load_drop(self, tmp_path):
        store = ResultStore(str(tmp_path))
        state = {"version": 1, "job": diamond_job().to_dict(), "offset": 2, "digest": None}
        store.save_cursor("stream/1 weird:id", state)
        assert ResultStore(str(tmp_path)).load_cursor("stream/1 weird:id") == state
        assert store.cursor_count() == 1
        assert store.drop_cursor("stream/1 weird:id")
        assert not store.drop_cursor("stream/1 weird:id")
        assert store.load_cursor("stream/1 weird:id") is None

    def test_restart_resume_round_trip(self, tmp_path):
        """Kill mid-stream, reopen everything, resume: byte-identical tail."""
        job = grid_job()
        uninterrupted = run_job(job).lines

        store = ResultStore(str(tmp_path))
        cursor = EnumerationCursor(job, cache=store)
        head = cursor.take(7)
        store.save_cursor("s1", cursor.checkpoint())
        del cursor, store  # the "kill": nothing survives but the directory

        reopened = ResultStore(str(tmp_path))
        state = reopened.load_cursor("s1")
        assert state is not None
        resumed = EnumerationCursor.resume(state, cache=reopened)
        tail = resumed.drain()
        assert tuple(head + tail) == uninterrupted
        # The checkpointed prefix replays from disk: no re-enumeration
        # of the delivered head.
        assert reopened.stats.hits >= 0  # smoke: the store was consulted

    def test_resume_after_restart_needs_no_enumeration_for_stored_prefix(
        self, tmp_path
    ):
        job = grid_job()
        store = ResultStore(str(tmp_path))
        cursor = EnumerationCursor(job, cache=store)
        cursor.take(5)
        state = cursor.checkpoint()
        del cursor

        reopened = ResultStore(str(tmp_path))
        pref = reopened.prefix(job)
        assert pref is not None and pref.count >= 5
        resumed = EnumerationCursor.resume(state, cache=reopened)
        assert resumed.take(1) == [run_job(job).lines[5]]


class TestTieredCache:
    def test_promotion_and_write_through(self, tmp_path):
        cache = InstanceCache()
        store = ResultStore(str(tmp_path))
        tier = TieredCache(cache, store)
        job = diamond_job()
        tier.store(job, run_job(job))
        assert len(cache) == 1 and len(store) == 1
        # Fresh memory tier: the disk tier answers and is promoted.
        cache2 = InstanceCache()
        tier2 = TieredCache(cache2, ResultStore(str(tmp_path)))
        assert tier2.lookup(job) is not None
        assert len(cache2) == 1
        assert cache2.lookup(job) is not None

    def test_prefix_prefers_longest(self, tmp_path):
        cache = InstanceCache()
        store = ResultStore(str(tmp_path))
        tier = TieredCache(cache, store)
        job = grid_job()
        full = run_job(job)
        short = dataclasses.replace(
            full, lines=full.lines[:2], structures=full.structures[:2],
            exhausted=False, stop_reason="limit",
        )
        longer = dataclasses.replace(
            full, lines=full.lines[:5], structures=full.structures[:5],
            exhausted=False, stop_reason="limit",
        )
        cache.store(job, short)
        store.store(job, longer)
        assert tier.prefix(job).count == 5

    @pytest.mark.parametrize("kind", sorted(JOB_KINDS))
    def test_write_through_bytes_and_one_canonicalisation(
        self, tmp_path, monkeypatch, kind
    ):
        """A write-through canonicalises once for both tiers and writes
        the entry file byte for byte as the nested-list JSON form did;
        two-argument ``store`` calls on either tier still work."""
        job = fixture_job(kind)
        result = run_job(job)
        _key, order = instance_key(job)
        canonical = order is not None
        payload = (
            [
                [list(p) if isinstance(p, tuple) else p for p in s]
                for s in cache_module.to_canonical(kind, result.structures, order)
            ]
            if canonical
            else list(result.lines)
        )
        record = {
            "schema": 1,
            "kind": kind,
            "canonical": canonical,
            "exhausted": result.exhausted,
            "fingerprint": job_fingerprint(job),
            "payload": payload,
        }
        if canonical:
            record["lines"] = list(result.lines)
        expected = (json.dumps(record, sort_keys=True) + "\n").encode()

        calls = []
        original = cache_module.to_canonical

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(cache_module, "to_canonical", counting)
        through = ResultStore(str(tmp_path / "through"))
        memory = InstanceCache()
        TieredCache(memory, through).store(job, result)
        assert calls == ([kind] if canonical else [])
        assert memory.lookup(job).lines == result.lines

        alone = ResultStore(str(tmp_path / "alone"))
        alone.store(job, result)
        memory = InstanceCache()
        memory.store(job, result)
        assert memory.lookup(job).lines == result.lines
        for store in (through, alone):
            (name,) = os.listdir(os.path.join(store.root, "entries"))
            with open(os.path.join(store.root, "entries", name), "rb") as handle:
                assert handle.read() == expected
            assert ResultStore(store.root).lookup(job).lines == result.lines

    def test_batchrunner_accepts_tiered_cache(self, tmp_path):
        from repro.engine.service import BatchRunner

        tier = TieredCache(InstanceCache(), ResultStore(str(tmp_path)))
        runner = BatchRunner(workers=1, cache=tier)
        job = diamond_job(job_id="q")
        first = runner.run([job])[0]
        assert not first.cached
        second = runner.run([job])[0]
        assert second.cached
        assert first.lines == second.lines
        stats = runner.stats()
        assert stats["jobs_run"] == 2
        # A fresh runner over the same directory hits the disk tier.
        runner2 = BatchRunner(
            workers=1, cache=TieredCache(InstanceCache(), ResultStore(str(tmp_path)))
        )
        assert runner2.run([job])[0].cached


def _random_job(rng: random.Random, backend: str) -> EnumerationJob:
    n = rng.randint(4, 8)
    edges = [
        (f"n{u}", f"n{v}")
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.55
    ]
    if not edges:
        edges = [("n0", "n1")]
    vertices = sorted({x for e in edges for x in e})
    terminals = rng.sample(vertices, min(len(vertices), rng.randint(2, 3)))
    if rng.random() < 0.5:
        return EnumerationJob.steiner_tree(edges, terminals, backend=backend)
    return EnumerationJob.st_path(
        edges, terminals[0], terminals[-1], backend=backend
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), backend=st.sampled_from(["object", "fast"]))
def test_store_replay_equals_fresh_enumeration(tmp_path_factory, seed, backend):
    """Hypothesis: replayed streams == fresh enumeration, both backends.

    Covers the exact instance and a relabeled copy (whose replay is
    translated through the canonical order).
    """
    rng = random.Random(seed)
    job = _random_job(rng, backend)
    fresh = run_job(job)
    root = str(tmp_path_factory.mktemp("store"))
    store = ResultStore(root)
    store.store(job, fresh)
    replay = ResultStore(root).lookup(job)
    if fresh.stop_reason in ("deadline", "budget"):  # pragma: no cover
        assert replay is None
        return
    assert replay is not None
    assert replay.lines == fresh.lines

    # Relabeled copy: same solution set, caller's labels.
    perm = {v: f"r{i}" for i, v in enumerate(job.label_table())}
    relabeled = dataclasses.replace(
        job,
        edges=tuple((perm[u], perm[v]) for u, v in job.edges),
        vertices=tuple(perm[v] for v in job.vertices),
        terminals=tuple(perm[t] for t in job.terminals),
        source=None if job.source is None else perm[job.source],
        target=None if job.target is None else perm[job.target],
    )
    hit = store.lookup(relabeled)
    assert hit is not None, "relabeled lookup missed a complete entry"
    assert sorted(hit.lines) == sorted(run_job(relabeled).lines)


def test_store_entry_json_is_pure_data(tmp_path):
    """The on-disk format stays greppable/portable: JSON, ints, strings."""
    store = ResultStore(str(tmp_path))
    job = diamond_job()
    store.store(job, run_job(job))
    entries = os.path.join(str(tmp_path), "entries")
    (name,) = os.listdir(entries)
    with open(os.path.join(entries, name)) as handle:
        record = json.load(handle)
    assert record["schema"] == 1
    assert record["kind"] == "steiner-tree"
    assert record["exhausted"] is True
    assert isinstance(record["payload"], list)


@pytest.mark.parametrize("kind", ["st-path", "induced-steiner"])
def test_non_edge_kinds_round_trip(tmp_path, kind):
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
    if kind == "st-path":
        job = EnumerationJob.st_path(edges, "a", "d")
    else:
        job = EnumerationJob.induced_steiner(edges, ["a", "d"])
    fresh = run_job(job)
    store = ResultStore(str(tmp_path))
    store.store(job, fresh)
    assert ResultStore(str(tmp_path)).lookup(job).lines == fresh.lines
