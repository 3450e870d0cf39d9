"""Router end-to-end tests: routing, membership, admission, ops surfaces.

These run the :class:`FleetRouter` against **embedded**
:class:`ServerThread` replicas (fast, in-process).  The crash/migration
paths that need real SIGKILL-able replica processes live in
``tests/test_fleet_chaos.py``; the deterministic admission-control unit
tests live at the bottom of this file.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.frontdoor.tenants import TenantRegistry
from repro.serve.client import ServeClient, ServeError
from repro.serve.fleet import (
    AdmissionController,
    FleetRouter,
    RateLimitExceeded,
    routing_key,
)
from repro.serve.server import EnumerationServer, ServerThread

JOB = {
    "kind": "steiner-tree",
    "edges": [[1, 2], [2, 3], [1, 3], [3, 4], [2, 4]],
    "terminals": [1, 4],
}
RELABELED = {
    "kind": "steiner-tree",
    "edges": [["d", "b"], ["b", "c"], ["a", "c"], ["a", "b"], ["c", "d"]],
    "terminals": ["d", "a"],
}
PATH_JOB = {
    "kind": "st-path",
    "edges": [[1, 2], [2, 3], [1, 3], [3, 4]],
    "source": 1,
    "target": 4,
}


@pytest.fixture
def fleet(tmp_path):
    """A router over two embedded replicas sharing one store."""
    store = str(tmp_path / "store")
    servers = [
        ServerThread(
            EnumerationServer(workers=1, store=store, checkpoint_every=2)
        ).start()
        for _ in range(2)
    ]
    router = FleetRouter(registry=str(tmp_path / "store" / "datasets"))
    thread = ServerThread(router).start()
    for i, server in enumerate(servers):
        router.add_replica(f"embedded-{i}", "127.0.0.1", server.port)
    try:
        yield router, thread, servers
    finally:
        thread.stop()
        for server in servers:
            server.stop()


def post_json(client, path, payload):
    return client._request_json("POST", path, json.dumps(payload).encode())


def events_of(client, job, **kw):
    return list(client.enumerate(job, **kw))


def lines_of(events):
    return [e["line"] for e in events if e.get("event") == "solution"]


class TestRoutingThroughTheFleet:
    def test_stream_matches_single_server(self, fleet, tmp_path):
        router, thread, servers = fleet
        client = ServeClient(port=thread.port)
        events = events_of(client, JOB, chunk=2)
        assert events[0]["event"] == "accepted"
        end = events[-1]
        assert end["event"] == "end" and end["exhausted"]
        assert end["count"] == len(lines_of(events))
        solo = ServeClient(port=servers[0].port).solutions(JOB)
        assert lines_of(events) == solo

    def test_relabeled_duplicates_share_a_replica(self, fleet):
        router, thread, _servers = fleet
        assert routing_key(JOB) == routing_key(RELABELED)
        owner = router.ring.route(routing_key(JOB))
        assert owner == router.ring.route(routing_key(RELABELED))
        client = ServeClient(port=thread.port)
        first = events_of(client, JOB)
        second = events_of(client, RELABELED)
        # Same instance digest -> same replica -> the relabeled copy
        # replays from that replica's now-warm cache.
        assert second[-1]["cached"] is True
        assert len(lines_of(first)) == len(lines_of(second))

    def test_stream_id_resume_via_router(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        capped = dict(JOB, limit=2)
        first = events_of(client, capped, stream_id="fleet-resume-1")
        assert len(lines_of(first)) == 2
        rest = events_of(client, dict(JOB), stream_id="fleet-resume-1")
        full = events_of(client, dict(JOB, **{"id": "fresh"}))
        assert lines_of(first) + lines_of(rest) == lines_of(full)

    def test_explicit_offset_wins(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        full = lines_of(events_of(client, JOB))
        tail = events_of(client, JOB, offset=2)
        assert lines_of(tail) == full[2:]
        assert tail[-1]["count"] == len(full) - 2

    def test_bad_job_is_a_400_not_a_migration(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        with pytest.raises(ServeError) as err:
            events_of(client, {"kind": "no-such-kind", "edges": []})
        assert err.value.status == 400
        assert router.stats.migrations == 0

    def test_empty_fleet_is_503(self, tmp_path):
        import http.client

        router = FleetRouter()
        with ServerThread(router) as thread:
            client = ServeClient(port=thread.port)
            with pytest.raises(ServeError) as err:
                events_of(client, JOB)
            assert err.value.status == 503
            conn = http.client.HTTPConnection("127.0.0.1", thread.port, timeout=30)
            try:
                conn.request("POST", "/enumerate", body=json.dumps(JOB).encode())
                resp = conn.getresponse()
                assert (resp.status, resp.reason) == (503, "Service Unavailable")
                assert json.loads(resp.read())["error"] == "no healthy replica available"
            finally:
                conn.close()

    def test_solutions_spread_across_replicas(self, fleet):
        """Distinct instances land on both replicas (sharding, not
        primary/backup)."""
        router, thread, _servers = fleet
        keys = [f"spread-{i}" for i in range(64)]
        owners = {router.ring.route(k) for k in keys}
        assert owners == {"embedded-0", "embedded-1"}


class TestFleetMembership:
    def test_fleet_topology_surface(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        doc = client._request_json("GET", "/fleet")
        names = [r["name"] for r in doc["replicas"]]
        assert names == ["embedded-0", "embedded-1"]
        assert doc["ring"]["nodes"] == names
        assert all(r["healthy"] for r in doc["replicas"])

    def test_join_probes_before_accepting(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        # A join pointing at a dead port must be rejected (409), and
        # must not enter the ring.
        with pytest.raises(ServeError) as err:
            post_json(
                client,
                "/fleet/join",
                {"name": "ghost", "host": "127.0.0.1", "port": 1},
            )
        assert err.value.status == 409
        assert "ghost" not in router.ring

    def test_join_and_leave_roundtrip(self, fleet, tmp_path):
        router, thread, servers = fleet
        extra = ServerThread(
            EnumerationServer(workers=1, store=str(tmp_path / "store"))
        ).start()
        try:
            client = ServeClient(port=thread.port)
            doc = post_json(
                client,
                "/fleet/join",
                {"name": "embedded-2", "host": "127.0.0.1", "port": extra.port},
            )
            assert doc["replicas"] == 3
            assert "embedded-2" in router.ring
            doc = post_json(client, "/fleet/leave", {"name": "embedded-2"})
            assert doc["removed"] == "embedded-2"
            assert "embedded-2" not in router.ring
            with pytest.raises(ServeError) as err:
                post_json(client, "/fleet/leave", {"name": "embedded-2"})
            assert err.value.status == 404
        finally:
            extra.stop()

    def test_malformed_join_payload_is_400(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        with pytest.raises(ServeError) as err:
            post_json(client, "/fleet/join", {"port": "nope"})
        assert err.value.status == 400


class TestDatasetsAndAnswer:
    def test_dataset_broadcast_reaches_every_replica(self, fleet):
        router, thread, servers = fleet
        client = ServeClient(port=thread.port)
        record = client.register_dataset(
            "grid", edges=[[1, 2], [2, 3], [1, 3], [3, 4]]
        )
        assert record["ok"] and record["digest"]
        for server in servers:
            direct = ServeClient(port=server.port).datasets()
            assert [d["name"] for d in direct] == ["grid"]
        assert [d["name"] for d in client.datasets()] == ["grid"]

    def test_answer_routes_by_dataset_digest(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        client.register_dataset(
            "grid",
            edges=[["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
            node_keywords=[("a", ["alpha"]), ("c", ["beta"])],
        )
        doc = client.answer("grid", ["alpha", "beta"], k=3)
        assert doc["count"] >= 1 and doc["answers"]
        # The routed replica is the digest's ring owner.
        digest = router.registry.describe("grid").digest
        assert router.ring.route(digest) in ("embedded-0", "embedded-1")

    def test_answer_get_form_through_router(self, fleet):
        """``GET /answer?q=...`` answers through the router as it does
        on a replica: both parse the request the same way."""
        import http.client

        _router, thread, servers = fleet
        ServeClient(port=thread.port).register_dataset(
            "g",
            edges=[["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
            node_keywords=[("a", ["alpha"]), ("c", ["beta"])],
        )

        def get(port, query):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("GET", "/answer?" + query)
                resp = conn.getresponse()
                return resp.status, json.loads(resp.read())
            finally:
                conn.close()

        direct = get(servers[0].port, "dataset=g&q=alpha,beta&k=2")
        assert direct[0] == 200
        for query in ("dataset=g&q=alpha,beta&k=2", "dataset=g&keywords=alpha,beta&k=2"):
            status, doc = get(thread.port, query)
            assert status == 200, doc
            assert doc["keywords"] == ["alpha", "beta"]
            assert doc["answers"] == direct[1]["answers"]

    def test_dataset_remove_broadcasts(self, fleet):
        router, thread, servers = fleet
        client = ServeClient(port=thread.port)
        client.register_dataset("gone", edges=[[1, 2]])
        client.remove_dataset("gone")
        assert client.datasets() == []
        for server in servers:
            assert ServeClient(port=server.port).datasets() == []

    def test_enumerate_by_dataset_name_through_router(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        client.register_dataset("grid", edges=[[1, 2], [2, 3], [1, 3], [3, 4]])
        spec = {"kind": "steiner-tree", "dataset": "grid", "terminals": [1, 4]}
        events = events_of(client, spec)
        assert events[-1]["event"] == "end"
        assert len(lines_of(events)) > 0


class TestFleetAuthAndQuota:
    @pytest.fixture
    def authed(self, tmp_path):
        store = str(tmp_path / "store")
        server = ServerThread(EnumerationServer(workers=1, store=store)).start()
        tenants = TenantRegistry(None)
        tenant = tenants.issue("acme", requests=4, window=300.0)
        router = FleetRouter(tenants=tenants, require_auth=True)
        thread = ServerThread(router).start()
        router.add_replica("only", "127.0.0.1", server.port)
        try:
            yield router, thread, tenant
        finally:
            thread.stop()
            server.stop()

    def test_anonymous_is_401_healthz_open(self, authed):
        router, thread, _tenant = authed
        anon = ServeClient(port=thread.port)
        assert anon.health()["ok"]
        with pytest.raises(ServeError) as err:
            events_of(anon, JOB)
        assert err.value.status == 401

    def test_quota_enforced_fleet_wide_with_retry_after(self, authed):
        router, thread, tenant = authed
        client = ServeClient(port=thread.port, api_key=tenant.key)
        for _ in range(4):
            events_of(client, PATH_JOB)
        with pytest.raises(ServeError) as err:
            events_of(client, PATH_JOB)
        assert err.value.status == 429
        assert err.value.retry_after is not None

    def test_solutions_charged_at_the_router(self, authed):
        import time

        router, thread, tenant = authed
        client = ServeClient(port=thread.port, api_key=tenant.key)
        delivered = len(client.solutions(PATH_JOB))
        assert delivered > 0
        # The router records usage just after the final chunk reaches
        # the client; give it a moment.
        usage = {}
        for _ in range(500):
            usage = router.tenants.usage_table()["acme"]
            if usage["solutions"] == delivered:
                break
            time.sleep(0.01)
        assert usage["solutions"] == delivered


class TestRouterAdmission:
    def test_rate_limit_is_429_with_retry_after(self, fleet):
        router, thread, _servers = fleet
        router.admission.rate = 1.0
        router.admission.burst = 2.0
        client = ServeClient(port=thread.port)
        statuses = []
        for _ in range(4):
            try:
                events_of(client, PATH_JOB)
                statuses.append(200)
            except ServeError as err:
                statuses.append(err.status)
                assert err.retry_after is not None and err.retry_after > 0
        assert statuses.count(429) >= 1 and statuses[0] == 200
        assert router.stats.rate_limited >= 1

    def test_ops_surfaces_are_never_rate_limited(self, fleet):
        router, thread, _servers = fleet
        router.admission.rate = 0.001
        router.admission.burst = 1.0
        client = ServeClient(port=thread.port)
        for _ in range(5):
            assert client.health()["ok"]
            assert client.stats()["ok"]

    def test_queued_streams_all_complete(self, fleet):
        """More concurrent streams than slots: they serialize, not fail."""
        import threading

        router, thread, _servers = fleet
        router.admission.max_streams = 1
        results = []
        errors = []

        def run(i):
            try:
                client = ServeClient(port=thread.port)
                results.append(len(client.solutions(dict(PATH_JOB, id=f"q{i}"))))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert results == [2, 2, 2, 2]


class TestOpsSurfaces:
    def test_stats_aggregates_replicas(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        client.solutions(PATH_JOB)
        doc = client.stats()
        assert doc["role"] == "router"
        assert set(doc["replicas"]) == {"embedded-0", "embedded-1"}
        assert doc["fleet_totals"]["streams"] >= 1
        assert doc["streams"] >= 1
        assert "admission" in doc

    def test_metrics_includes_fleet_and_admission(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        client.solutions(PATH_JOB)
        doc = client.metrics()
        assert doc["fleet"]["ring"]["nodes"] == ["embedded-0", "embedded-1"]
        assert doc["admission"]["max_streams"] == 64
        assert doc["migrations"] == 0

    def test_unknown_route_is_404(self, fleet):
        router, thread, _servers = fleet
        client = ServeClient(port=thread.port)
        with pytest.raises(ServeError) as err:
            client._request_json("GET", "/no-such-path")
        assert err.value.status == 404


class FakeClock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class TestAdmissionControllerUnit:
    """Deterministic unit tests (injected clock, explicit event loop)."""

    def test_token_bucket_refill_and_retry_after(self):
        clock = FakeClock()
        ctl = AdmissionController(rate=2.0, burst=2.0, clock=clock)
        ctl.check_rate("c")
        ctl.check_rate("c")
        with pytest.raises(RateLimitExceeded) as err:
            ctl.check_rate("c")
        # Empty bucket at rate 2/s: one token back in exactly 0.5s.
        assert err.value.retry_after == pytest.approx(0.5)
        clock.advance(0.5)
        ctl.check_rate("c")  # refilled
        assert ctl.rejected_rate == 1

    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        ctl = AdmissionController(rate=1.0, burst=1.0, clock=clock)
        ctl.check_rate("a")
        with pytest.raises(RateLimitExceeded):
            ctl.check_rate("a")
        ctl.check_rate("b")  # an unrelated client is unaffected

    def test_no_rate_means_no_limit(self):
        ctl = AdmissionController(rate=None)
        for _ in range(100):
            ctl.check_rate("c")
        assert ctl.rejected_rate == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_streams=0)
        with pytest.raises(ValueError):
            AdmissionController(per_client_streams=0)
        with pytest.raises(ValueError):
            AdmissionController(rate=-1)

    def test_round_robin_fairness_across_clients(self):
        """A client with many queued streams cannot starve the others:
        freed slots are granted round-robin, one client at a time."""

        async def scenario():
            ctl = AdmissionController(max_streams=2, per_client_streams=2)
            grants = []

            async def hold(client, tag):
                await ctl.acquire_stream(client)
                grants.append(tag)

            # Fill both slots with A, then queue A,A,A then B then C.
            await ctl.acquire_stream("A")
            await ctl.acquire_stream("A")
            waiters = [
                asyncio.create_task(hold("A", "A1")),
                asyncio.create_task(hold("A", "A2")),
                asyncio.create_task(hold("A", "A3")),
                asyncio.create_task(hold("B", "B1")),
                asyncio.create_task(hold("C", "C1")),
            ]
            await asyncio.sleep(0)  # let everyone queue
            ctl.release_stream("A")
            ctl.release_stream("A")
            await asyncio.sleep(0)
            # The two freed slots go to two DIFFERENT clients (B and C
            # each get one before A's queue drains twice).
            assert sorted(grants[:2]) != ["A1", "A2"], grants
            ctl.release_stream(grants[0][0])
            ctl.release_stream(grants[1][0])
            await asyncio.sleep(0)
            for _ in range(4):
                for client in ("A", "B", "C"):
                    while ctl._held.get(client):
                        ctl.release_stream(client)
                await asyncio.sleep(0)
            await asyncio.gather(*waiters)
            assert sorted(grants) == ["A1", "A2", "A3", "B1", "C1"]

        asyncio.run(scenario())

    def test_per_client_cap_respected(self):
        async def scenario():
            ctl = AdmissionController(max_streams=8, per_client_streams=1)
            await ctl.acquire_stream("A")
            waiter = asyncio.create_task(ctl.acquire_stream("A"))
            await asyncio.sleep(0)
            assert not waiter.done()  # blocked by the per-client cap
            assert ctl.active_streams == 1
            ctl.release_stream("A")
            await asyncio.sleep(0)
            assert waiter.done()
            ctl.release_stream("A")

        asyncio.run(scenario())

    def test_cancelled_waiter_does_not_leak_a_slot(self):
        async def scenario():
            ctl = AdmissionController(max_streams=1)
            await ctl.acquire_stream("A")
            waiter = asyncio.create_task(ctl.acquire_stream("B"))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            ctl.release_stream("A")
            await asyncio.sleep(0)
            assert ctl.active_streams == 0
            assert ctl.waiting == 0
            # The slot is still usable.
            await ctl.acquire_stream("C")
            ctl.release_stream("C")

        asyncio.run(scenario())

    def test_as_dict_shape(self):
        ctl = AdmissionController(rate=5.0)
        doc = ctl.as_dict()
        assert doc["max_streams"] == 64 and doc["rate"] == 5.0
        assert json.dumps(doc)  # JSON-serializable
