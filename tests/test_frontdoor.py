"""End-to-end + unit tests for the multi-tenant query front door.

The e2e classes drive a real :class:`EnumerationServer` over a real
socket through :class:`ServeClient` — datasets, API keys, quotas, the
``/answer`` endpoint and the ops surface.  The unit classes pin the
registry/tenant/scheduling semantics the server builds on (sliding
windows use a fake clock; the priority gate runs under a private
event loop).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.engine.jobs import EnumerationJob, run_job
from repro.exceptions import ReproError
from repro.frontdoor import (
    AnswerEngine,
    AnswerTimeout,
    AuthError,
    DatasetError,
    DatasetRegistry,
    PriorityGate,
    QuotaExceeded,
    TenantRegistry,
)
from repro.frontdoor.registry import dataset_digest
from repro.serve import EnumerationServer, ServeClient, ServerThread

#: A diamond with a chord; keyworded nodes at the corners.
EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("b", "d")]
NODE_KEYWORDS = [("a", ["alpha"]), ("c", ["beta"]), ("d", ["gamma"])]
#: The same graph with every label shifted — isomorphic, not identical.
RELABELED_EDGES = [(u.upper(), v.upper()) for u, v in EDGES]
RELABELED_KEYWORDS = [(n.upper(), kws) for n, kws in NODE_KEYWORDS]
#: A query naming the dataset registered as "demo".
QUERY = {"kind": "steiner-tree", "dataset": "demo", "terminals": ["a", "c"]}


# ---------------------------------------------------------------------------
# dataset registry (unit)
# ---------------------------------------------------------------------------
class TestDatasetRegistry:
    def test_digest_is_isomorphism_stable(self):
        assert dataset_digest(EDGES) == dataset_digest(RELABELED_EDGES)
        assert dataset_digest(EDGES) != dataset_digest(EDGES[:-1])

    def test_digest_distinguishes_keyword_tables(self):
        plain = dataset_digest(EDGES)
        keyworded = dataset_digest(EDGES, node_keywords=NODE_KEYWORDS)
        other = dataset_digest(EDGES, node_keywords=[("b", ["alpha"])])
        assert len({plain, keyworded, other}) == 3
        # registering the structural twin of a keyworded dataset must
        # not merge into (and silently drop) the annotations
        reg = DatasetRegistry(None)
        reg.add("plain", EDGES)
        record, deduped = reg.add("kw", EDGES, node_keywords=NODE_KEYWORDS)
        assert not deduped
        assert reg.payload("kw")["node_keywords"]

    def test_add_list_remove(self, tmp_path):
        reg = DatasetRegistry(str(tmp_path))
        record, deduped = reg.add("demo", EDGES, node_keywords=NODE_KEYWORDS)
        assert not deduped
        assert record.num_vertices == 4 and record.num_edges == 5
        assert [r.name for r in reg.list()] == ["demo"]
        assert reg.remove("demo")
        assert not reg.remove("demo")
        assert reg.list() == []

    def test_relabeled_duplicate_dedupes_payload(self, tmp_path):
        reg = DatasetRegistry(str(tmp_path))
        first, _ = reg.add("demo", EDGES)
        second, deduped = reg.add("twin", RELABELED_EDGES)
        assert deduped
        assert first.digest == second.digest
        # Each name keeps its own labels: a relabeled copy stores its own
        # payload, an identical copy under a third name none.
        assert reg.add("copy", EDGES)[1]
        payloads = list((tmp_path / "payloads").iterdir())
        assert len(payloads) == 2
        assert reg.payload("twin")["edges"] == [list(e) for e in RELABELED_EDGES]
        # removing one name keeps the shared payload alive
        reg.remove("copy")
        assert reg.payload("demo")["edges"] == [list(e) for e in EDGES]
        reg.remove("twin")
        assert len(list((tmp_path / "payloads").iterdir())) == 1

    def test_same_name_different_content_conflicts(self, tmp_path):
        reg = DatasetRegistry(str(tmp_path))
        reg.add("demo", EDGES)
        reg.add("demo", RELABELED_EDGES)  # same digest: idempotent
        with pytest.raises(DatasetError):
            reg.add("demo", EDGES[:-1])

    def test_bad_names_rejected(self, tmp_path):
        reg = DatasetRegistry(str(tmp_path))
        for bad in ("", ".hidden", "has space", "a" * 65, "../escape"):
            with pytest.raises(DatasetError):
                reg.add(bad, EDGES)

    def test_persistence_across_reopen(self, tmp_path):
        DatasetRegistry(str(tmp_path)).add("demo", EDGES, node_keywords=NODE_KEYWORDS)
        reg = DatasetRegistry(str(tmp_path))
        record = reg.describe("demo")
        assert record is not None and record.num_edges == 5
        assert reg.payload("demo")["node_keywords"]

    def test_resolve_spec_inlines_dataset(self, tmp_path):
        reg = DatasetRegistry(str(tmp_path))
        reg.add("demo", EDGES)
        spec = reg.resolve_spec(
            {"kind": "steiner-tree", "dataset": "demo", "terminals": ["a", "d"]}
        )
        assert "dataset" not in spec
        assert sorted(map(tuple, spec["edges"])) == sorted(EDGES)
        with pytest.raises(DatasetError):
            reg.resolve_spec({"dataset": "demo", "edges": [["x", "y"]]})
        with pytest.raises(DatasetError):
            reg.resolve_spec({"dataset": "nope"})

    def test_usage_tracking_feeds_popularity(self, tmp_path):
        reg = DatasetRegistry(str(tmp_path))
        reg.add("hot", EDGES)
        reg.add("cold", EDGES[:-1])
        for _ in range(3):
            reg.record_use("hot", ["alpha", "beta"])
        reg.record_use("cold", ["gamma"])
        assert reg.popular(2) == ["hot", "cold"]
        assert reg.last_keywords("hot") == ["alpha", "beta"]
        # popularity and last-keywords survive a reopen once flushed
        reg.flush()
        reopened = DatasetRegistry(str(tmp_path))
        assert reopened.popular(1) == ["hot"]
        assert reopened.last_keywords("hot") == ["alpha", "beta"]

    def test_usage_is_written_at_most_once_per_interval(self, tmp_path, monkeypatch):
        from repro.frontdoor import registry as registry_module

        reg = DatasetRegistry(str(tmp_path))
        reg.add("demo", EDGES)
        usage = str(tmp_path / "usage.json")
        writes = []
        write_atomic = registry_module.write_atomic

        def counting(path, payload):
            writes.append(path)
            write_atomic(path, payload)

        monkeypatch.setattr(registry_module, "write_atomic", counting)
        monkeypatch.setattr(registry_module, "USAGE_FLUSH_SECONDS", 3600.0)
        for _ in range(200):
            reg.resolve_spec(QUERY)
        assert writes.count(usage) <= 1
        reg.flush()
        assert DatasetRegistry(str(tmp_path)).list()[0].uses == 200
        reg.flush()  # nothing new: no write
        assert writes.count(usage) <= 2
        monkeypatch.setattr(registry_module, "USAGE_FLUSH_SECONDS", 0.0)
        reg.record_use("demo")
        assert DatasetRegistry(str(tmp_path)).list()[0].uses == 201

    def test_a_stopped_server_leaves_its_use_counts_on_disk(self, tmp_path):
        root = str(tmp_path / "datasets")
        server = EnumerationServer(workers=1, registry=root)
        server.registry.add("demo", EDGES)
        with ServerThread(server) as thread:
            client = ServeClient(port=thread.port)
            for _ in range(5):
                client.solutions(QUERY)
        (record,) = DatasetRegistry(root).list()
        assert record.uses == 5


# ---------------------------------------------------------------------------
# tenants + quotas (unit, fake clock)
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestTenantRegistry:
    def test_issue_defaults_follow_tier(self):
        reg = TenantRegistry(None)
        free = reg.issue("f")
        paid = reg.issue("p", tier="paid")
        assert paid.priority > free.priority
        assert paid.quota.requests > free.quota.requests
        with pytest.raises(ReproError):
            reg.issue("x", tier="platinum")

    def test_authenticate_missing_unknown_revoked(self):
        reg = TenantRegistry(None)
        tenant = reg.issue("acme")
        with pytest.raises(AuthError):
            reg.authenticate(None)
        with pytest.raises(AuthError):
            reg.authenticate("not-a-key")
        assert reg.authenticate(tenant.key).name == "acme"
        reg.revoke("acme")
        with pytest.raises(AuthError):
            reg.authenticate(tenant.key)

    def test_rekey_invalidates_old_key(self):
        reg = TenantRegistry(None)
        old = reg.issue("acme")
        new = reg.issue("acme")
        assert new.key != old.key
        with pytest.raises(AuthError):
            reg.authenticate(old.key)
        assert reg.authenticate(new.key).name == "acme"

    def test_exact_boundary_exhaustion(self):
        clock = FakeClock()
        reg = TenantRegistry(None, clock=clock)
        tenant = reg.issue("acme", requests=3, window=60.0)
        for _ in range(3):
            reg.admit(tenant.key)
        with pytest.raises(QuotaExceeded) as exc:
            reg.admit(tenant.key)
        # the oldest event is at t=1000, so one unit frees at t=1060
        assert exc.value.retry_after == pytest.approx(60.0)

    def test_window_slides_and_frees_quota(self):
        clock = FakeClock()
        reg = TenantRegistry(None, clock=clock)
        tenant = reg.issue("acme", requests=2, window=60.0)
        reg.admit(tenant.key)
        clock.now += 30
        reg.admit(tenant.key)
        with pytest.raises(QuotaExceeded) as exc:
            reg.admit(tenant.key)
        assert exc.value.retry_after == pytest.approx(30.0)
        clock.now += 31  # the first event leaves the window
        reg.admit(tenant.key)

    def test_solution_and_compute_caps(self):
        clock = FakeClock()
        reg = TenantRegistry(None, clock=clock)
        tenant = reg.issue("acme", requests=100, solutions=10, window=60.0)
        reg.admit(tenant.key)
        reg.record(tenant, solutions=10)
        with pytest.raises(QuotaExceeded, match="solutions"):
            reg.admit(tenant.key)
        capped = reg.issue("b", requests=100, compute_seconds=1.0, window=60.0)
        reg.admit(capped.key)
        reg.record(capped, compute_seconds=1.5)
        with pytest.raises(QuotaExceeded, match="compute_seconds"):
            reg.admit(capped.key)

    def test_concurrent_race_for_last_unit(self):
        reg = TenantRegistry(None)
        tenant = reg.issue("acme", requests=1, window=3600.0)
        outcomes = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            try:
                reg.admit(tenant.key)
                outcomes.append("ok")
            except QuotaExceeded:
                outcomes.append("429")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("429") == 7

    def test_retry_after_tracks_the_exhausted_resource(self):
        # An old solutions-only event must not shorten the requests
        # Retry-After: freeing it frees no request unit.
        clock = FakeClock()
        reg = TenantRegistry(None, clock=clock)
        tenant = reg.issue("acme", requests=1, solutions=100, window=60.0)
        reg.record(tenant, solutions=5)  # t=1000, zero requests
        clock.now += 30
        reg.admit(tenant.key)  # t=1030: the only request unit
        clock.now += 10
        with pytest.raises(QuotaExceeded) as exc:
            reg.admit(tenant.key)
        # the request unit frees at 1030+60, not at 1000+60
        assert exc.value.retry_after == pytest.approx(50.0)

    def test_retry_after_for_solutions_ignores_request_events(self):
        clock = FakeClock()
        reg = TenantRegistry(None, clock=clock)
        tenant = reg.issue("acme", requests=100, solutions=5, window=60.0)
        reg.admit(tenant.key)  # t=1000: request-only event
        clock.now += 40
        reg.record(tenant, solutions=5)  # t=1040: fills the solutions cap
        clock.now += 10
        with pytest.raises(QuotaExceeded, match="solutions") as exc:
            reg.admit(tenant.key)
        # the solutions free at 1040+60, not at 1000+60
        assert exc.value.retry_after == pytest.approx(50.0)

    def test_accounting_survives_reopen(self, tmp_path):
        clock = FakeClock()
        reg = TenantRegistry(str(tmp_path), clock=clock)
        tenant = reg.issue("acme", requests=2, window=3600.0)
        reg.admit(tenant.key)
        reg.admit(tenant.key)
        reopened = TenantRegistry(str(tmp_path), clock=clock)
        with pytest.raises(QuotaExceeded):
            reopened.admit(tenant.key)
        assert reopened.usage("acme")["requests"] == 2

    def test_usage_table_has_quota_and_tier(self):
        reg = TenantRegistry(None)
        tenant = reg.issue("acme", tier="standard")
        reg.admit(tenant.key)
        table = reg.usage_table()
        assert table["acme"]["requests"] == 1
        assert table["acme"]["tier"] == "standard"
        assert table["acme"]["quota"]["window"] == 60.0


# ---------------------------------------------------------------------------
# priority scheduling (unit)
# ---------------------------------------------------------------------------
class TestPriorityGate:
    def test_priority_order_with_fifo_ties(self):
        async def run():
            gate = PriorityGate(1, fairness_every=1000)
            order = []

            async def task(name, priority):
                async with gate.slot(priority):
                    order.append(name)
                    await asyncio.sleep(0)

            async with gate.slot(0):  # hold the only slot
                tasks = []
                for name, pri in [("free-1", 0), ("paid", 10), ("free-2", 0), ("std", 5)]:
                    tasks.append(asyncio.ensure_future(task(name, pri)))
                    await asyncio.sleep(0.01)  # deterministic arrival order
                assert gate.waiting == 4
            await asyncio.gather(*tasks)
            return order

        assert asyncio.run(run()) == ["paid", "std", "free-1", "free-2"]

    def test_fairness_grant_prevents_starvation(self):
        async def run():
            gate = PriorityGate(1, fairness_every=2)
            order = []

            async def task(name, priority):
                async with gate.slot(priority):
                    order.append(name)
                    await asyncio.sleep(0)

            async with gate.slot(0):
                tasks = [asyncio.ensure_future(task("old-free", 0))]
                await asyncio.sleep(0.01)
                for i in range(4):
                    tasks.append(asyncio.ensure_future(task(f"paid-{i}", 10)))
                    await asyncio.sleep(0.01)
            await asyncio.gather(*tasks)
            return order

        order = asyncio.run(run())
        # every 2nd grant goes to the longest waiter, so the free-tier
        # request is served long before the paid backlog drains
        assert order.index("old-free") <= 1

    def test_as_dict_counters(self):
        async def run():
            gate = PriorityGate(2)
            async with gate.slot(0):
                snap = gate.as_dict()
                assert snap["slots"] == 2 and snap["free"] == 1
            return gate.as_dict()

        snap = asyncio.run(run())
        assert snap["free"] == 2 and snap["grants"] >= 1


# ---------------------------------------------------------------------------
# answer engine (unit)
# ---------------------------------------------------------------------------
class TestAnswerEngine:
    def test_concurrent_answers_race_safely(self):
        # Tiny LRUs force evictions while 8 threads hammer two datasets
        # with mixed queries; every document must match the
        # single-threaded reference (no KeyError, no corrupted caches).
        reg = DatasetRegistry(None)
        reg.add("d1", EDGES, node_keywords=NODE_KEYWORDS)
        reg.add("d2", EDGES[:-1], node_keywords=NODE_KEYWORDS)
        queries = [
            ("d1", ["alpha", "beta"]),
            ("d1", ["alpha", "gamma"]),
            ("d2", ["alpha", "beta"]),
            ("d2", ["beta", "gamma"]),
        ]
        reference = {
            (name, tuple(kws)): AnswerEngine(reg).answer(name, kws)["answers"]
            for name, kws in queries
        }
        engine = AnswerEngine(reg, graph_cache_size=1, answer_cache_size=2)
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed: int) -> None:
            barrier.wait()
            for i in range(25):
                name, kws = queries[(seed + i) % len(queries)]
                try:
                    doc = engine.answer(name, kws)
                    if doc["answers"] != reference[(name, tuple(kws))]:
                        errors.append(f"mismatch on {name}/{kws}")
                except Exception as exc:  # noqa: BLE001 — the race is the test
                    errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = engine.as_dict()
        assert stats["answers_served"] == 200

    def test_deadline_overrun_raises_answer_timeout(self, monkeypatch):
        from repro.engine import jobs as engine_jobs

        # Check the deadline on every tick so the tiny graph trips it.
        monkeypatch.setattr(engine_jobs._BudgetMeter, "_CHECK_EVERY", 1)
        reg = DatasetRegistry(None)
        reg.add("slow", EDGES, node_keywords=NODE_KEYWORDS)
        engine = AnswerEngine(reg)
        with pytest.raises(AnswerTimeout):
            engine.answer("slow", ["alpha", "beta"], deadline=0.0)
        # the aborted computation must not be cached as an answer
        assert engine.as_dict()["answers_cached"] == 0


# ---------------------------------------------------------------------------
# e2e: datasets + /answer + ops surface
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("frontdoor-store"))
    tenants = str(tmp_path_factory.mktemp("frontdoor-tenants"))
    srv = EnumerationServer(workers=2, store=store, tenants=tenants)
    with ServerThread(srv) as thread:
        yield thread


@pytest.fixture
def client(server):
    return ServeClient(port=server.port)


class TestDatasetEndpoints:
    def test_register_list_remove_roundtrip(self, client):
        reply = client.register_dataset("rt", EDGES, node_keywords=NODE_KEYWORDS)
        assert reply["ok"] and not reply["deduped"]
        assert reply["num_vertices"] == 4 and reply["num_edges"] == 5
        names = [d["name"] for d in client.datasets()]
        assert "rt" in names
        assert client.remove_dataset("rt")["ok"]
        assert "rt" not in [d["name"] for d in client.datasets()]

    def test_relabeled_register_dedupes(self, client):
        first = client.register_dataset("iso-a", EDGES)
        second = client.register_dataset("iso-b", RELABELED_EDGES)
        assert second["deduped"]
        assert second["digest"] == first["digest"]

    def test_malformed_register_is_400(self, client, server):
        from repro.serve.client import ServeError

        with pytest.raises(ServeError) as exc:
            client.register_dataset("bad name!", EDGES)
        assert exc.value.status == 400
        with pytest.raises(ServeError) as exc:
            client.register_dataset("noedges", [])
        assert exc.value.status == 400

    def test_enumerate_by_dataset_name(self, client):
        client.register_dataset("byname", EDGES)
        by_name = client.solutions(
            {"kind": "steiner-tree", "dataset": "byname", "terminals": ["a", "d"]}
        )
        inline = client.solutions(EnumerationJob.steiner_tree(EDGES, ["a", "d"]))
        assert by_name == inline and by_name


#: Relabeled copies registered after their originals: the original's
#: graph, the copy's, and a query on the copy (the examples that used to
#: answer in the original's labels).
RELABELED_CASES = {
    "int": (
        [(0, 1), (1, 2), (2, 3), (0, 2)],
        [(3, 2), (2, 1), (1, 0), (3, 1)],
        {"kind": "steiner-tree", "terminals": [0, 3]},
    ),
    "str": (
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")],
        [("w", "z"), ("z", "y"), ("y", "x"), ("w", "y")],
        {"kind": "steiner-tree", "terminals": ["x", "w"]},
    ),
    "directed": (
        [(0, 1), (1, 2), (0, 2)],
        [(1, 0), (2, 1), (2, 0)],
        {"kind": "directed-steiner", "root": 2, "terminals": [0]},
    ),
}


@pytest.mark.parametrize("case", sorted(RELABELED_CASES))
def test_relabeled_copy_answers_in_its_own_labels(case, tmp_path):
    original, copy, query = RELABELED_CASES[case]
    expected = run_job(EnumerationJob.from_dict(dict(query, edges=copy))).lines
    assert expected
    with ServerThread(EnumerationServer(workers=1, store=str(tmp_path))) as thread:
        client = ServeClient(port=thread.port)
        client.register_dataset("original", original)
        assert client.register_dataset("copy", copy)["deduped"]
        assert tuple(client.solutions(dict(query, dataset="copy"))) == expected


def test_relabeled_keyword_copy_answers_in_its_own_labels():
    registry = DatasetRegistry(None)
    registry.add("demo", EDGES, node_keywords=NODE_KEYWORDS)
    registry.add("twin", RELABELED_EDGES, node_keywords=RELABELED_KEYWORDS)
    engine = AnswerEngine(registry)
    demo = engine.answer("demo", ["alpha", "beta"], k=2)
    twin = engine.answer("twin", ["alpha", "beta"], k=2)
    assert demo["provenance"]["digest"] == twin["provenance"]["digest"]
    upper = [[[u.upper(), v.upper()] for u, v in a["edges"]] for a in demo["answers"]]
    assert [a["edges"] for a in twin["answers"]] == upper
    assert not twin["provenance"]["answer_cached"]


def test_registration_spools_the_graph_and_its_first_query_publishes_nothing(tmp_path):
    edges = [(v, (v + 1) % 11) for v in range(11)] + [(0, 5), (2, 8), (3, 9)]
    server = EnumerationServer(workers=1, store=str(tmp_path))
    with ServerThread(server) as thread:
        client = ServeClient(port=thread.port)
        client.register_dataset("spooled", edges)
        assert len(list((tmp_path / "arena").glob("*.arena"))) == 1
        ref = server._pool.arena.ref
        assert ref.cache_info().misses == 1
        query = {"kind": "st-path", "dataset": "spooled", "source": 0, "target": 5}
        lines = client.solutions(dict(query, backend="fast"))
        assert ref.cache_info().misses == 1 and ref.cache_info().hits == 1
        assert tuple(lines) == run_job(
            EnumerationJob.st_path(edges, 0, 5, backend="fast")
        ).lines


class TestAnswerEndpoint:
    def test_topk_document_with_provenance(self, client):
        client.register_dataset("ans", EDGES, node_keywords=NODE_KEYWORDS)
        doc = client.answer("ans", ["alpha", "beta"], k=3)
        assert doc["ok"] and doc["count"] >= 1
        weights = [a["weight"] for a in doc["answers"]]
        assert weights == sorted(weights)
        assert [a["rank"] for a in doc["answers"]] == list(
            range(1, len(weights) + 1)
        )
        first = doc["answers"][0]
        assert set(first["matches"]) == {"alpha", "beta"}
        assert first["edges"] and all(len(e) == 2 for e in first["edges"])
        prov = doc["provenance"]
        assert prov["backend"] == "fast" and prov["scanned"] >= doc["count"]
        assert prov["compiled_query_warm"] is False

    def test_repeat_hits_answer_and_compiled_caches(self, client):
        client.register_dataset("warmans", EDGES, node_keywords=NODE_KEYWORDS)
        cold = client.answer("warmans", ["alpha", "gamma"], k=2)
        warm = client.answer("warmans", ["alpha", "gamma"], k=2)
        assert cold["provenance"]["answer_cached"] is False
        assert cold["provenance"]["compiled_query_warm"] is False
        assert warm["provenance"]["answer_cached"] is True
        assert warm["answers"] == cold["answers"]
        # a different k misses the answer cache but still finds the
        # compiled query warm
        other_k = client.answer("warmans", ["alpha", "gamma"], k=3)
        assert other_k["provenance"]["answer_cached"] is False
        assert other_k["provenance"]["compiled_query_warm"] is True

    def test_backends_agree(self, client):
        client.register_dataset("be", EDGES, node_keywords=NODE_KEYWORDS)
        fast = client.answer("be", ["alpha", "beta"], k=5, backend="fast")
        obj = client.answer("be", ["alpha", "beta"], k=5, backend="object")
        assert fast["answers"] == obj["answers"]

    def test_get_form_with_query_params(self, client, server):
        import http.client

        client.register_dataset("getform", EDGES, node_keywords=NODE_KEYWORDS)
        conn = http.client.HTTPConnection("127.0.0.1", server.port)
        conn.request("GET", "/answer?dataset=getform&q=alpha,beta&k=2")
        resp = conn.getresponse()
        doc = json.loads(resp.read())
        conn.close()
        assert resp.status == 200
        assert doc["keywords"] == ["alpha", "beta"] and doc["count"] <= 2

    def test_deadline_overrun_maps_to_503(self, monkeypatch):
        from repro.engine import jobs as engine_jobs
        from repro.serve.client import ServeError

        # Per-tick deadline checks + a zero allowance: the /answer
        # enumeration trips the cap immediately and the endpoint must
        # refuse (503) rather than return a silently-truncated top-k.
        monkeypatch.setattr(engine_jobs._BudgetMeter, "_CHECK_EVERY", 1)
        srv = EnumerationServer(workers=1, max_deadline=0.0)
        with ServerThread(srv) as thread:
            c = ServeClient(port=thread.port)
            c.register_dataset("dl", EDGES, node_keywords=NODE_KEYWORDS)
            with pytest.raises(ServeError) as exc:
                c.answer("dl", ["alpha", "beta"])
            assert exc.value.status == 503

    def test_unknown_dataset_404_and_bad_input_400(self, client):
        from repro.serve.client import ServeError

        with pytest.raises(ServeError) as exc:
            client.answer("missing", ["alpha"])
        assert exc.value.status == 404
        client.register_dataset("bads", EDGES, node_keywords=NODE_KEYWORDS)
        with pytest.raises(ServeError) as exc:
            client.answer("bads", ["alpha"], k=0)
        assert exc.value.status == 400
        with pytest.raises(ServeError) as exc:
            client.answer("bads", ["no-such-keyword"])
        assert exc.value.status == 400


class TestOpsSurface:
    def test_stats_exposes_tiered_store_counters(self, client):
        client.solutions(EnumerationJob.st_path(EDGES, "a", "d", job_id="ops"))
        client.solutions(EnumerationJob.st_path(EDGES, "a", "d", job_id="ops"))
        stats = client.stats()
        tiered = stats["tiered"]
        assert set(tiered) == {
            "memory_hits",
            "disk_hits",
            "misses",
            "evictions",
            "stores",
        }
        assert tiered["memory_hits"] + tiered["disk_hits"] >= 1
        assert tiered["stores"] >= 1
        assert stats["datasets"] == len(client.datasets())

    def test_metrics_document_shape(self, client, server):
        client.register_dataset("mx", EDGES, node_keywords=NODE_KEYWORDS)
        client.answer("mx", ["alpha", "beta"])
        tenant = server.server.tenants.issue("metrics-tenant")
        ServeClient(port=server.port, api_key=tenant.key).answer("mx", ["alpha"])
        doc = client.metrics()
        assert doc["ok"]
        hist = doc["latency"]["answer"]
        assert hist["count"] >= 2 and hist["sum_ms"] > 0
        assert any(v for v in hist["buckets"].values())
        assert doc["tenants"]["metrics-tenant"]["requests"] == 1
        assert doc["scheduler"]["slots"] == 2
        assert doc["datasets"]["mx"] >= 2
        assert doc["answers"]["answers_served"] >= 2
        assert "worker_replacements" in doc

    def test_startup_warming_restores_hot_dataset(self, tmp_path):
        store = str(tmp_path / "store")
        first = EnumerationServer(workers=1, store=store)
        with ServerThread(first) as thread:
            c = ServeClient(port=thread.port)
            c.register_dataset("hot", EDGES, node_keywords=NODE_KEYWORDS)
            c.answer("hot", ["alpha", "beta"])
        second = EnumerationServer(workers=1, store=store, warm=1)
        with ServerThread(second) as thread:
            c = ServeClient(port=thread.port)
            assert c.metrics()["counters"].get("datasets_warmed") == 1
            # the last-queried keywords were compiled at startup, so the
            # first post-restart answer finds the compiled query warm
            doc = c.answer("hot", ["alpha", "beta"])
            assert doc["provenance"]["compiled_query_warm"] is True
            assert doc["provenance"]["answer_cached"] is False

    def test_access_log_lines_are_structured(self, client, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.frontdoor.access"):
            client.health()
            # the log line lands on the server's event-loop thread just
            # after the response bytes; poll briefly instead of racing it
            records = []
            for _ in range(200):
                records = [
                    r for r in caplog.records if r.name == "repro.frontdoor.access"
                ]
                if records:
                    break
                time.sleep(0.01)
        assert records
        line = json.loads(records[-1].getMessage())
        assert line["path"] == "/healthz" and line["status"] == 200
        assert "ms" in line and line["method"] == "GET"


# ---------------------------------------------------------------------------
# e2e: auth + quota edge cases
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def auth_setup(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("auth-store"))
    tenants = str(tmp_path_factory.mktemp("auth-tenants"))
    srv = EnumerationServer(
        workers=2, store=store, tenants=tenants, require_auth=True
    )
    with ServerThread(srv) as thread:
        yield thread, tenants


class TestAuthQuota:
    def test_healthz_stays_open(self, auth_setup):
        server, _ = auth_setup
        assert ServeClient(port=server.port).health()["ok"]

    def test_missing_key_is_401(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        with pytest.raises(ServeError) as exc:
            ServeClient(port=server.port).stats()
        assert exc.value.status == 401

    def test_invalid_key_is_401(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        with pytest.raises(ServeError) as exc:
            ServeClient(port=server.port, api_key="bogus").stats()
        assert exc.value.status == 401

    def test_revoked_key_is_401(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        tenant = server.server.tenants.issue("revokee")
        client = ServeClient(port=server.port, api_key=tenant.key)
        assert client.stats()["ok"]
        server.server.tenants.revoke("revokee")
        with pytest.raises(ServeError) as exc:
            client.stats()
        assert exc.value.status == 401

    def test_exact_boundary_429_with_retry_after(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        tenant = server.server.tenants.issue(
            "boundary", requests=2, window=3600.0
        )
        client = ServeClient(port=server.port, api_key=tenant.key)
        client.register_dataset("bdry", EDGES, node_keywords=NODE_KEYWORDS)
        client.answer("bdry", ["alpha"])  # request 2 of 2
        with pytest.raises(ServeError) as exc:
            client.answer("bdry", ["alpha"])
        assert exc.value.status == 429
        assert exc.value.retry_after is not None and exc.value.retry_after >= 1
        # uncharged ops endpoints still answer
        assert client.stats()["ok"]

    def test_concurrent_race_admits_exactly_one(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        admin = server.server.tenants
        tenant = admin.issue("racer", requests=4, window=3600.0)
        client = ServeClient(port=server.port, api_key=tenant.key)
        client.register_dataset("race", EDGES, node_keywords=NODE_KEYWORDS)
        client.answer("race", ["alpha"])
        client.answer("race", ["alpha"])  # 3 of 4 used; one unit left
        outcomes = []
        lock = threading.Lock()
        barrier = threading.Barrier(6)

        def worker():
            barrier.wait()
            try:
                ServeClient(port=server.port, api_key=tenant.key).answer(
                    "race", ["alpha"]
                )
                result = "ok"
            except ServeError as exc:
                result = str(exc.status)
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("429") == 5

    def test_answer_charges_solutions_and_compute(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        admin = server.server.tenants
        tenant = admin.issue("solcap", requests=100, solutions=1, window=3600.0)
        client = ServeClient(port=server.port, api_key=tenant.key)
        client.register_dataset("solq", EDGES, node_keywords=NODE_KEYWORDS)
        doc = client.answer("solq", ["alpha", "beta"])
        assert doc["count"] >= 1
        # usage lands just after the response bytes; poll it in
        deadline = time.time() + 5
        while time.time() < deadline and admin.usage("solcap")["solutions"] < 1:
            time.sleep(0.01)
        usage = admin.usage("solcap")
        assert usage["solutions"] >= 1
        assert usage["compute_seconds"] > 0
        with pytest.raises(ServeError) as exc:
            client.answer("solq", ["alpha"])
        assert exc.value.status == 429
        assert "solutions" in str(exc.value)

    def test_read_only_surfaces_stay_uncharged(self, auth_setup):
        from repro.serve.client import ServeError

        server, _ = auth_setup
        tenant = server.server.tenants.issue("reader", requests=1, window=3600.0)
        client = ServeClient(port=server.port, api_key=tenant.key)
        for _ in range(3):  # none of these consume the single request unit
            client.datasets()
            client.stats()
            client.metrics()
        client.register_dataset("rdr", EDGES)  # the one charged request
        with pytest.raises(ServeError) as exc:
            client.register_dataset("rdr2", EDGES[:-1])
        assert exc.value.status == 429
        client.datasets()  # reads keep working after the 429

    def test_quota_accounting_survives_restart(self, tmp_path):
        from repro.serve.client import ServeError

        tenants_dir = str(tmp_path / "tenants")
        first = EnumerationServer(workers=1, tenants=tenants_dir)
        with ServerThread(first) as thread:
            tenant = first.tenants.issue("durable", requests=2, window=3600.0)
            client = ServeClient(port=thread.port, api_key=tenant.key)
            client.register_dataset("dur", EDGES, node_keywords=NODE_KEYWORDS)
            client.answer("dur", ["alpha"])  # window now full (2 requests)
        second = EnumerationServer(workers=1, tenants=tenants_dir)
        with ServerThread(second) as thread:
            client = ServeClient(port=thread.port, api_key=tenant.key)
            with pytest.raises(ServeError) as exc:
                client.register_dataset("dur2", EDGES)
            assert exc.value.status == 429
            assert second.tenants.usage("durable")["requests"] == 2
