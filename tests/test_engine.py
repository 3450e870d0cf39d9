"""The batch-enumeration engine: jobs, cache, pool, cursors, service.

The contracts under test are the ones a serving deployment leans on:

* identical solution streams for every worker count (and for sharded
  vs. whole-job execution, as sets);
* cursor checkpoint/resume reproduces exactly the tail of an
  uninterrupted pass;
* a cache hit answers without re-enumeration, including for relabeled
  isomorphic instances (translated into the caller's labels);
* deadline/budget jobs stop cleanly with partial results, never raise.
"""

from __future__ import annotations

import io
import json
import pickle
import random

import pytest

from repro.engine.cache import InstanceCache, canonical_signature, instance_key
from repro.engine.cursor import EnumerationCursor
from repro.engine.jobs import EnumerationJob, load_jobs_jsonl, run_job
from repro.engine.pool import run_batch, run_steiner_shard, shard_anchor
from repro.engine.service import BatchRunner, serve
from repro.exceptions import InvalidInstanceError
from repro.serve.store import ResultStore, TieredCache

from conftest import random_simple_graph

#: Calls made by unpickling a :class:`_Planted` payload (must stay empty).
_PLANTED_LOADS: list = []


def _record_planted_load() -> None:
    _PLANTED_LOADS.append(True)


class _Planted:
    """A pickle payload that runs code when it is loaded."""

    def __reduce__(self):
        return (_record_planted_load, ())


def _random_edges(rng: random.Random, n: int, p: float):
    return [
        (f"v{u}", f"v{v}")
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]


def mixed_batch(seed: int = 11, copies: int = 1):
    """A small batch covering every relabelable job kind."""
    rng = random.Random(seed)
    jobs = []
    for c in range(copies):
        edges = _random_edges(rng, 8, 0.45)
        jobs.append(
            EnumerationJob.steiner_tree(
                edges, ["v0", "v4", "v7"], job_id=f"st{c}"
            )
        )
        jobs.append(
            EnumerationJob.steiner_forest(
                _random_edges(rng, 7, 0.5),
                [["v0", "v1"], ["v2", "v3"]],
                job_id=f"sf{c}",
            )
        )
        jobs.append(
            EnumerationJob.terminal_steiner(
                _random_edges(rng, 7, 0.5), ["v0", "v6"], job_id=f"ts{c}"
            )
        )
        jobs.append(
            EnumerationJob.st_path(
                _random_edges(rng, 7, 0.5), "v0", "v6", job_id=f"p{c}"
            )
        )
        jobs.append(
            EnumerationJob.directed_steiner(
                [("r", "a"), ("r", "b"), ("a", "w"), ("b", "w"), ("a", "b")],
                ["w"],
                "r",
                job_id=f"ds{c}",
            )
        )
    return jobs


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
class TestJobs:
    def test_json_round_trip(self):
        for job in mixed_batch():
            clone = EnumerationJob.from_json(json.dumps(job.to_dict()))
            assert clone == job
            assert run_job(clone).lines == run_job(job).lines

    def test_from_graph_object_matches_edge_list(self, triangle_with_tail):
        from_graph = EnumerationJob.steiner_tree(triangle_with_tail, ["a", "d"])
        from_edges = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], ["a", "d"]
        )
        assert from_graph == from_edges

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(InvalidInstanceError):
            EnumerationJob(kind="nonsense").validate()
        with pytest.raises(InvalidInstanceError):
            EnumerationJob(kind="steiner-tree", edges=(("a", "b"),)).validate()
        with pytest.raises(InvalidInstanceError):
            EnumerationJob.from_dict({"kind": "st-path", "edges": [], "typo": 1})

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "steiner-tree", "edges": [[["w", 0], 1], [1, 2]], "terminals": [1, 2]},
            {"kind": "steiner-tree", "edges": [[0, 1]], "vertices": [[5]], "terminals": [0]},
            {"kind": "steiner-tree", "edges": [[0, 1]], "terminals": [[0], 1]},
            {"kind": "steiner-forest", "edges": [[0, 1]], "families": [[[0], 1]]},
            {"kind": "directed-steiner", "edges": [[0, 1]], "terminals": [1], "root": [0]},
            {"kind": "st-path", "edges": [[0, 1]], "source": {"v": 0}, "target": 1},
            {"kind": "st-path", "edges": [[0, 1]], "source": 0, "target": [1]},
            {
                "kind": "kfragments", "edges": [[0, 1]], "keywords": ["x"],
                "node_keywords": [[[0], ["x"]]],
            },
        ],
    )
    def test_unhashable_labels_rejected(self, spec):
        # JSON has no tuples, so a ("w", 0) label arrives as a list; the
        # caches would raise on it mid-stream.
        with pytest.raises(InvalidInstanceError, match="hashable"):
            EnumerationJob.from_dict(spec)

    def test_limit_zero_and_limit(self):
        job = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], ["a", "d"], limit=0
        )
        result = run_job(job)
        assert result.lines == () and result.stop_reason == "limit"
        one = run_job(
            EnumerationJob.steiner_tree(
                [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], ["a", "d"], limit=1
            )
        )
        assert one.count == 1 and one.stop_reason == "limit" and not one.exhausted

    def test_deadline_job_stops_cleanly(self):
        rng = random.Random(5)
        job = EnumerationJob.steiner_tree(
            _random_edges(rng, 18, 0.5), ["v0", "v9", "v17"], deadline=0.02
        )
        result = run_job(job)  # must return quickly with a partial answer
        assert result.stop_reason == "deadline"
        assert not result.exhausted

    def test_budget_job_stops_cleanly(self):
        rng = random.Random(5)
        job = EnumerationJob.steiner_tree(
            _random_edges(rng, 12, 0.5), ["v0", "v11"], budget=200
        )
        result = run_job(job)
        assert result.stop_reason == "budget"
        assert result.ops <= 600  # final tick may overshoot by its amount

    def test_deadline_zero_stops_immediately(self):
        rng = random.Random(5)
        job = EnumerationJob.steiner_tree(
            _random_edges(rng, 14, 0.5), ["v0", "v13"], deadline=0
        )
        result = run_job(job)
        assert result.stop_reason == "deadline" and not result.exhausted
        with pytest.raises(InvalidInstanceError):
            EnumerationJob.steiner_tree([("a", "b")], ["a"], deadline=-1).validate()
        with pytest.raises(InvalidInstanceError):
            EnumerationJob.steiner_tree([("a", "b")], ["a"], budget=-1).validate()

    def test_kfragments_job(self):
        from repro.datagraph.model import DataGraph

        dg = DataGraph()
        dg.add_node("a", ["x"])
        dg.add_node("b", ["y"])
        dg.add_link("a", "b")
        job = EnumerationJob.kfragments(dg, ["x", "y"])
        assert run_job(job).lines == ("[1] a-b | x=a,y=b",)
        assert EnumerationJob.from_dict(job.to_dict()) == job

    def test_kfragments_node_only_in_node_keywords(self):
        # A keyword-bearing node absent from edges/vertices is still an
        # instance node; single-keyword queries can answer with it alone.
        job = EnumerationJob.from_dict(
            {
                "kind": "kfragments",
                "edges": [["a", "b"]],
                "keywords": ["x"],
                "node_keywords": [["lonely", ["x"]]],
            }
        )
        result = run_job(job)  # must not KeyError on the edge-less node
        assert result.exhausted and result.count == 1
        # Unreachable keyword node: connecting fragments don't exist.
        two = EnumerationJob.from_dict(
            {
                "kind": "kfragments",
                "edges": [["a", "b"]],
                "keywords": ["x", "y"],
                "node_keywords": [["lonely", ["x"]], ["a", ["y"]]],
            }
        )
        assert run_job(two).lines == ()

    def test_kfragments_non_string_nodes_round_trip(self):
        from repro.datagraph.model import DataGraph

        dg = DataGraph()
        dg.add_node(1, ["x"])
        dg.add_node(2, ["y"])
        dg.add_link(1, 2)
        job = EnumerationJob.kfragments(dg, ["x", "y"])
        clone = EnumerationJob.from_json(json.dumps(job.to_dict()))
        assert clone == job
        assert run_job(clone).lines == run_job(job).lines

    def test_sharded_job_with_missing_terminal_errors_cleanly(self):
        bad = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c")], ["a", "zz"], shards=2, job_id="bad"
        )
        for workers in (1, 2):
            result = run_batch([bad], workers=workers)[0]
            assert result.stop_reason == "error" and "zz" in result.error

    def test_jobs_jsonl_loader(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        jobs = mixed_batch()
        path.write_text(
            "# comment\n\n"
            + "\n".join(json.dumps(j.to_dict(), sort_keys=True) for j in jobs)
            + "\n"
        )
        assert load_jobs_jsonl(str(path)) == jobs
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "steiner-tree"}\n')
        with pytest.raises(InvalidInstanceError):
            load_jobs_jsonl(str(bad))

    def test_a_shared_edge_tuple_is_walked_once_and_a_job_checked_once(
        self, monkeypatch
    ):
        from repro.engine import jobs

        edges = tuple((i, i + 1) for i in range(50))
        spec = {"kind": "st-path", "edges": edges, "source": 0, "target": 50}
        walks = []

        def counting_map(function, *iterables):
            walks.append(function)
            return map(function, *iterables)

        monkeypatch.setattr(jobs, "map", counting_map, raising=False)
        first = EnumerationJob.from_dict(spec)
        assert len(walks) == 2  # the pair check's two passes
        second = EnumerationJob.from_dict(dict(spec))
        assert first.edges is second.edges is edges and len(walks) == 2
        # A list is rebuilt, and a tuple that is not all pairs is too.
        assert EnumerationJob.from_dict(dict(spec, edges=list(edges))).edges == edges
        ragged = edges[:-1] + ([50, 49],)
        assert EnumerationJob.from_dict(dict(spec, edges=ragged)).edges[-1] == (50, 49)
        monkeypatch.undo()

        hashes = []
        job_hash = EnumerationJob.__hash__

        def counting_hash(job):
            hashes.append(job)
            return job_hash(job)

        monkeypatch.setattr(EnumerationJob, "__hash__", counting_hash)
        job = EnumerationJob.st_path(edges, 0, 50)
        job.validate()
        job.validate()
        assert len(hashes) == 1
        with pytest.raises(InvalidInstanceError):
            EnumerationJob.st_path(edges, 0, None).validate()


# ----------------------------------------------------------------------
# pool
# ----------------------------------------------------------------------
class TestPool:
    @pytest.mark.parametrize("workers", [2, 8])
    def test_identical_across_worker_counts(self, workers):
        jobs = mixed_batch(copies=2)
        serial = run_batch(jobs, workers=1)
        parallel = run_batch(jobs, workers=workers)
        assert [r.lines for r in serial] == [r.lines for r in parallel]
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_sharded_job_partitions_solutions(self):
        rng = random.Random(9)
        edges = _random_edges(rng, 10, 0.5)
        terminals = ["v0", "v5", "v9"]
        whole = run_batch([EnumerationJob.steiner_tree(edges, terminals)], workers=1)[0]
        sharded_job = EnumerationJob.steiner_tree(edges, terminals, shards=3)
        s1 = run_batch([sharded_job], workers=1)[0]
        s4 = run_batch([sharded_job], workers=4)[0]
        assert set(s1.lines) == set(whole.lines)
        assert len(s1.lines) == len(set(s1.lines))  # duplicate-free partition
        assert s1.lines == s4.lines  # shard order independent of workers

    def test_duplicate_jobs_enumerate_once(self, monkeypatch):
        import repro.engine.pool as pool_mod

        calls = []
        real = pool_mod.run_job
        monkeypatch.setattr(
            pool_mod, "run_job", lambda job, **kw: calls.append(job) or real(job, **kw)
        )
        job = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c"), ("a", "c")], ["a", "c"]
        )
        twin = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c"), ("a", "c")], ["a", "c"], job_id="twin"
        )
        results = run_batch([job, twin, job], workers=1)
        assert len(calls) == 1  # one enumeration serves all three
        assert results[0].lines == results[1].lines == results[2].lines
        assert results[1].job_id == "twin" and results[2].job_id is None

    def test_failing_job_does_not_poison_batch(self):
        bad = EnumerationJob.steiner_tree([("a", "b")], ["a", "zz"], job_id="bad")
        good = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c")], ["a", "c"], job_id="good"
        )
        for workers in (1, 2):
            results = run_batch([bad, good], workers=workers)
            assert results[0].stop_reason == "error"
            assert "zz" in results[0].error
            assert results[1].lines == ("a-b b-c",)

    def test_shard_anchor_policy(self):
        shardable = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c"), ("a", "c")], ["a", "c"]
        )
        assert shard_anchor(shardable) is not None
        limited = EnumerationJob.steiner_tree(
            [("a", "b"), ("b", "c")], ["a", "c"], limit=5
        )
        assert shard_anchor(limited) is None  # limits disable sharding
        single = EnumerationJob.steiner_tree([("a", "b")], ["a"])
        assert shard_anchor(single) is None

    def test_run_steiner_shard_range(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        job = EnumerationJob.steiner_tree(edges, ["a", "d"], shards=2)
        _, incident = shard_anchor(job)
        pieces = [
            run_steiner_shard(job, i, i + 1).lines for i in range(len(incident))
        ]
        flat = [line for piece in pieces for line in piece]
        whole = run_job(EnumerationJob.steiner_tree(edges, ["a", "d"]))
        assert set(flat) == set(whole.lines) and len(flat) == whole.count


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
class TestCache:
    def test_hit_skips_reenumeration(self, monkeypatch):
        cache = InstanceCache()
        job = mixed_batch()[0]
        first = run_batch([job], cache=cache)[0]
        assert not first.cached
        # Any attempt to enumerate again would blow up:
        monkeypatch.setattr(
            "repro.engine.pool.run_job",
            lambda *a, **k: pytest.fail("cache miss re-ran the enumerator"),
        )
        second = run_batch([job], cache=cache)[0]
        assert second.cached and second.lines == first.lines
        assert cache.stats.hits == 1

    def test_relabeled_instance_hits_and_translates(self):
        cache = InstanceCache()
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        job = EnumerationJob.steiner_tree(edges, ["a", "d"])
        cache.store(job, run_job(job))
        relabel = {"a": "p", "b": "q", "c": "r", "d": "s"}
        rel_edges = [(relabel[u], relabel[v]) for u, v in reversed(edges)]
        rel_job = EnumerationJob.steiner_tree(rel_edges, ["p", "s"])
        hit = cache.lookup(rel_job)
        assert hit is not None and hit.cached
        assert set(hit.lines) == set(run_job(rel_job).lines)

    def test_directed_relabeling_preserves_arc_directions(self):
        cache = InstanceCache()
        job = EnumerationJob.directed_steiner(
            [("r", "a"), ("a", "w"), ("r", "w")], ["w"], "r"
        )
        cache.store(job, run_job(job))
        rel = EnumerationJob.directed_steiner(
            [("R", "W"), ("R", "A"), ("A", "W")], ["W"], "R"
        )
        assert cache.lookup(rel).lines == run_job(rel).lines

    def test_relabeled_vertex_set_hit_renders_sorted(self):
        cache = InstanceCache()
        donor = EnumerationJob.induced_steiner([("a", "b"), ("b", "c")], ["a", "c"])
        cache.store(donor, run_job(donor))
        req = EnumerationJob.induced_steiner([("z", "y"), ("y", "x")], ["z", "x"])
        assert cache.lookup(req).lines == run_job(req).lines == ("x y z",)

    def test_canonical_signature_distinguishes_roles(self):
        edges = [("a", "b"), ("b", "c")]
        key_ab, _ = instance_key(EnumerationJob.steiner_tree(edges, ["a", "b"]))
        key_ac, _ = instance_key(EnumerationJob.steiner_tree(edges, ["a", "c"]))
        assert key_ab != key_ac
        assert canonical_signature(
            EnumerationJob.steiner_tree(edges, ["a", "c"])
        ) is not None

    def test_limit_semantics_match_direct_run(self):
        cache = InstanceCache()
        edges = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
        cache.store(
            EnumerationJob.steiner_tree(edges, ["a", "d"]),
            run_job(EnumerationJob.steiner_tree(edges, ["a", "d"])),
        )
        limited = EnumerationJob.steiner_tree(edges, ["a", "d"], limit=1)
        hit, direct = cache.lookup(limited), run_job(limited)
        assert hit.lines == direct.lines
        assert (hit.exhausted, hit.stop_reason) == (direct.exhausted, direct.stop_reason)

    def test_exhausted_run_upgrades_limit_stopped_entry(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c")]
        cache = InstanceCache()
        # Instance has exactly 2 minimal trees; a limit=2 run caches a
        # non-exhausted prefix of equal length...
        limited = EnumerationJob.steiner_tree(edges, ["a", "c"], limit=2)
        cache.store(limited, run_job(limited))
        unlimited = EnumerationJob.steiner_tree(edges, ["a", "c"])
        assert cache.lookup(unlimited) is None
        # ...which an exhaustive run of equal count must still upgrade.
        cache.store(unlimited, run_job(unlimited))
        hit = cache.lookup(unlimited)
        assert hit is not None and hit.exhausted

    def test_partial_results_not_poisoning(self):
        cache = InstanceCache()
        rng = random.Random(5)
        job = EnumerationJob.steiner_tree(
            _random_edges(rng, 12, 0.5), ["v0", "v11"], budget=200
        )
        cache.store(job, run_job(job))  # budget-stopped: must not be cached
        assert cache.lookup(job) is None

    def test_relabeled_hit_never_truncates_to_a_different_subset(self):
        # A limited job must get its own first-k solutions; a relabeled
        # donor's order is a permutation, so the cache declines instead
        # of serving the donor's first-k (a different set).
        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        donor = EnumerationJob.steiner_tree(cycle, ["a", "c"])
        cache = InstanceCache()
        cache.store(donor, run_job(donor))
        relabeled = EnumerationJob.steiner_tree(
            [("q", "r"), ("r", "s"), ("s", "p"), ("p", "q")], ["p", "r"], limit=1
        )
        assert cache.lookup(relabeled) is None  # declined, not wrong
        unlimited = EnumerationJob.steiner_tree(
            [("q", "r"), ("r", "s"), ("s", "p"), ("p", "q")], ["p", "r"]
        )
        hit = cache.lookup(unlimited)  # complete set still serves
        assert hit is not None
        assert set(hit.lines) == set(run_job(unlimited).lines)

    def test_lru_eviction_and_disk_tier(self, tmp_path):
        memory = InstanceCache(maxsize=2)
        cache = TieredCache(memory, ResultStore(str(tmp_path)))
        jobs = mixed_batch()
        results = {j.job_id: run_job(j) for j in jobs[:3]}
        for job in jobs[:3]:
            cache.store(job, results[job.job_id])
        assert len(memory) == 2 and memory.stats.evictions == 1
        # The evicted entry comes back from disk with identical lines.
        for job in jobs[:3]:
            assert cache.lookup(job).lines == results[job.job_id].lines
        assert cache.as_dict()["tiered"]["disk_hits"] >= 1

    def test_planted_pickle_is_never_unpickled(self, tmp_path):
        """A ``<key>.pkl`` in the disk tier's directory is not a cache
        entry: nothing read back from disk may execute code."""
        from repro.cli import main

        job = mixed_batch()[0]
        key = InstanceCache().key_of(job)[0]
        planted = pickle.dumps(_Planted())
        for directory in (tmp_path, tmp_path / "entries"):
            directory.mkdir(exist_ok=True)
            (directory / f"{key}.pkl").write_bytes(planted)
        cache = TieredCache(InstanceCache(maxsize=1), ResultStore(str(tmp_path)))
        assert cache.lookup(job) is None and cache.prefix(job) is None
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(json.dumps(job.to_dict()) + "\n")
        out = io.StringIO()
        assert main(["batch", str(jobs_file), "--spill-dir", str(tmp_path)], out=out) == 0
        assert json.loads(out.getvalue())["lines"] == list(run_job(job).lines)
        assert _PLANTED_LOADS == []

    def test_random_relabeled_instances_roundtrip(self):
        # Property-style: random graphs, shuffled labels, every kind of
        # solution must translate back exactly (as a set) on a hit.
        rng = random.Random(2022)
        for _ in range(10):
            g = random_simple_graph(rng, max_n=7)
            vertices = sorted(g.vertices())
            if len(vertices) < 2:
                continue
            terminals = rng.sample(vertices, 2)
            job = EnumerationJob.steiner_tree(g, terminals)
            perm = list(vertices)
            rng.shuffle(perm)
            mapping = dict(zip(vertices, perm))
            rel_edges = [(mapping[u], mapping[v]) for u, v in job.edges]
            rng.shuffle(rel_edges)
            rel_job = EnumerationJob.steiner_tree(
                rel_edges,
                [mapping[t] for t in terminals],
                vertices=tuple(mapping[v] for v in vertices),
            )
            cache = InstanceCache()
            cache.store(job, run_job(job))
            hit = cache.lookup(rel_job)
            assert hit is not None, "relabeled copy missed the cache"
            assert set(hit.lines) == set(run_job(rel_job).lines)


# ----------------------------------------------------------------------
# cursors
# ----------------------------------------------------------------------
class TestCursor:
    @pytest.fixture
    def dense_job(self):
        rng = random.Random(3)
        return EnumerationJob.steiner_tree(
            _random_edges(rng, 9, 0.5), ["v0", "v4", "v8"]
        )

    def test_resume_equals_uninterrupted_pass(self, dense_job):
        full = run_job(dense_job).lines
        for cut in (0, 1, 10, len(full)):
            cursor = EnumerationCursor(dense_job)
            head = cursor.take(cut)
            tail = EnumerationCursor.resume(cursor.checkpoint()).drain()
            assert tuple(head + tail) == full, f"mismatch at cut {cut}"

    def test_cached_resume_skips_recomputation(self, dense_job):
        cache = InstanceCache()
        cursor = EnumerationCursor(dense_job, cache=cache)
        head = cursor.take(10)
        state = cursor.checkpoint()
        assert cache.stats.stores == 1  # delivered prefix checkpointed
        resumed = EnumerationCursor.resume(state, cache=cache)
        tail = resumed.drain()
        assert tuple(head + tail) == run_job(dense_job).lines
        # Once exhausted, a fresh cursor replays fully from cache: no
        # live segment is ever started.
        replay = EnumerationCursor(dense_job, cache=cache)
        assert tuple(replay.drain()) == run_job(dense_job).lines
        assert replay._segment is None

    def test_budget_stopped_cursor_makes_progress_across_resumes(self, dense_job):
        import dataclasses

        job = dataclasses.replace(dense_job, budget=4000)
        full = run_job(dense_job).lines  # unbudgeted reference stream
        cache = InstanceCache()
        collected = []
        cursor = EnumerationCursor(job, cache=cache)
        collected.extend(cursor.drain())
        assert cursor.stop_reason == "budget" and collected  # partial start
        for _ in range(40):
            state = cursor.checkpoint()
            cursor = EnumerationCursor.resume(state, cache=cache)
            got = cursor.drain()
            assert got or cursor.stop_reason is None, "resume made no progress"
            collected.extend(got)
            if cursor.stop_reason is None:
                break
        assert tuple(collected) == full  # whole stream, in order, no loop

    def test_save_load_roundtrip(self, dense_job, tmp_path):
        full = run_job(dense_job).lines
        cursor = EnumerationCursor(dense_job)
        cursor.take(7)
        path = tmp_path / "cursor.json"
        cursor.save(str(path))
        tail = EnumerationCursor.load(str(path)).drain()
        assert tuple(full[:7]) + tuple(tail) == full

    def test_relabeled_prefix_never_splices_into_live_stream(self):
        # An incomplete donor prefix in donor order must not be replayed
        # for a relabeled job ahead of its own live enumeration.
        cycle = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        donor = EnumerationJob.steiner_tree(cycle, ["a", "c"])
        cache = InstanceCache()
        donor_cursor = EnumerationCursor(donor, cache=cache)
        donor_cursor.take(1)
        donor_cursor.checkpoint()  # stores a 1-solution prefix
        relabeled = EnumerationJob.steiner_tree(
            [("q", "r"), ("r", "s"), ("s", "p"), ("p", "q")], ["p", "r"]
        )
        got = EnumerationCursor(relabeled, cache=cache).drain()
        assert tuple(got) == run_job(relabeled).lines  # no dupes, no drops

    def test_shortened_job_spec_fails_loudly(self, dense_job):
        cursor = EnumerationCursor(dense_job)
        cursor.take(20)
        state = cursor.checkpoint()
        state["job"]["edges"] = state["job"]["edges"][:2]  # tiny stream now
        with pytest.raises(InvalidInstanceError):
            EnumerationCursor.resume(state).drain()

    def test_tampered_checkpoint_detected(self, dense_job):
        cursor = EnumerationCursor(dense_job)
        cursor.take(10)
        state = cursor.checkpoint()
        state["offset"] = 5  # digest no longer matches the claimed prefix
        with pytest.raises(InvalidInstanceError):
            EnumerationCursor.resume(state).take(1)

    def test_digest_survives_checkpoint_chains(self, dense_job):
        cursor = EnumerationCursor(dense_job)
        cursor.take(10)
        first = cursor.checkpoint()
        # Checkpoint a resumed cursor before it delivers anything: the
        # original digest must carry over so tampering is still caught.
        rechkpt = EnumerationCursor.resume(first).checkpoint()
        assert rechkpt["digest"] == first["digest"]
        rechkpt["job"]["terminals"] = ["v0", "v1"]  # different stream
        with pytest.raises(InvalidInstanceError):
            EnumerationCursor.resume(rechkpt).drain()

    def test_limit_cursor(self, dense_job):
        import dataclasses

        job = dataclasses.replace(dense_job, limit=12)
        cursor = EnumerationCursor(job)
        got = cursor.take(8) + cursor.take(8)
        assert len(got) == 12 and cursor.exhausted and cursor.stop_reason == "limit"


# ----------------------------------------------------------------------
# service + CLI
# ----------------------------------------------------------------------
class TestService:
    def test_batch_runner_stats(self):
        runner = BatchRunner(workers=1)
        jobs = mixed_batch()
        runner.run(jobs)
        stats = runner.stats()
        assert stats["jobs_run"] == len(jobs) and stats["solutions"] > 0
        assert runner.run(jobs)[0].cached

    def test_serve_loop(self):
        requests = [
            {"kind": "steiner-tree", "edges": [["a", "b"], ["b", "c"]],
             "terminals": ["a", "c"], "id": "j1"},
            {"op": "batch", "jobs": [
                {"kind": "st-path",
                 "edges": [["s", "a"], ["a", "t"], ["s", "b"], ["b", "t"]],
                 "source": "s", "target": "t"}]},
            {"op": "nope"},
            {"op": "stats"},
            {"op": "quit"},
            {"op": "stats"},  # after quit: never served
        ]
        out = io.StringIO()
        served = serve(
            io.StringIO("\n".join(json.dumps(r) for r in requests)), out, workers=1
        )
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 5 and len(responses) == 5
        assert responses[0]["result"]["lines"] == ["a-b b-c"]
        assert responses[1]["results"][0]["count"] == 2
        assert responses[2]["ok"] is False
        assert responses[3]["stats"]["jobs_run"] == 2
        assert responses[4]["bye"] is True

    def test_serve_survives_type_confused_payloads(self):
        requests = [
            '{"op": "run", "job": {"kind": "steiner-tree", "edges": 5, "terminals": ["a"]}}',
            '{"op": "run", "job": "hello"}',
            '{"op": "quit"}',
        ]
        out = io.StringIO()
        served = serve(io.StringIO("\n".join(requests)), out, workers=1)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 3
        assert responses[0]["ok"] is False and responses[1]["ok"] is False
        assert responses[2]["bye"] is True

    def test_cli_batch_byte_identical_across_workers(self, tmp_path):
        from repro.cli import main

        jobs = mixed_batch(copies=2)
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            "\n".join(json.dumps(j.to_dict(), sort_keys=True) for j in jobs) + "\n"
        )
        outputs = []
        for workers in ("1", "2"):
            out = io.StringIO()
            assert main(["batch", str(path), "--workers", workers], out=out) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == len(jobs)

    def test_cli_batch_spill_dir_is_a_json_tier(self, tmp_path):
        """``--spill-dir`` puts a JSON result store behind the LRU, on
        the plain and the ``--checkpoints`` paths alike."""
        from repro.cli import main

        jobs = mixed_batch()
        path = tmp_path / "jobs.jsonl"
        path.write_text("\n".join(json.dumps(j.to_dict()) for j in jobs) + "\n")
        expected = [list(run_job(j).lines) for j in jobs]
        for extra in ([], ["--checkpoints", str(tmp_path / "ck"), "--text"]):
            spill = tmp_path / f"spill{len(extra)}"
            for _run in range(2):  # the second run is served from disk
                out = io.StringIO()
                argv = ["batch", str(path), "--spill-dir", str(spill), "--cache-size", "1"]
                assert main(argv + extra, out=out) == 0
                if extra:
                    assert out.getvalue().splitlines() == sum(expected, [])
                else:
                    lines = [json.loads(r)["lines"] for r in out.getvalue().splitlines()]
                    assert lines == expected
            stored = sorted(p.name for p in (spill / "entries").iterdir())
            assert stored and all(name.endswith(".json") for name in stored)

    def test_cli_batch_torn_checkpoint_stops_with_the_job_not_a_traceback(
        self, tmp_path, monkeypatch
    ):
        """A truncated ``--checkpoints`` file ends the next run with the
        job's id and the reason; checkpoints are written atomically, in
        the same bytes as before, also under a bare file name."""
        from repro.cli import main
        from repro.jsonfile import write_atomic

        path = tmp_path / "jobs.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "steiner-tree", "id": "j1", "limit": 1,
                 "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
                 "terminals": ["a", "c"]}
            )
            + "\n"
        )
        argv = ["batch", str(path), "--checkpoints", str(tmp_path / "ck"), "--text"]
        assert main(argv, out=io.StringIO()) == 0
        (saved,) = (tmp_path / "ck").iterdir()
        text = saved.read_text()
        record = json.loads(text)
        assert text == json.dumps(record, sort_keys=True) + "\n"
        saved.write_text(text[: len(text) // 2])
        with pytest.raises(SystemExit) as stopped:
            main(argv, out=io.StringIO())
        assert str(stopped.value).startswith("job 'j1': unreadable cursor checkpoint")
        monkeypatch.chdir(tmp_path)
        write_atomic("bare.json", record)
        assert (tmp_path / "bare.json").read_text() == text

    def test_cli_batch_text_mode(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "jobs.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "steiner-tree", "edges": [["a", "b"], ["b", "c"]],
                 "terminals": ["a", "c"]}
            )
            + "\n"
        )
        out = io.StringIO()
        main(["batch", str(path), "--text"], out=out)
        assert out.getvalue() == "a-b b-c\n"

    def test_cli_serve(self, monkeypatch):
        import sys as _sys

        from repro.cli import main

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO('{"op": "quit"}\n')
        )
        out = io.StringIO()
        assert main(["serve"], out=out) == 0
        assert json.loads(out.getvalue())["bye"] is True
