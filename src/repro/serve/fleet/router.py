"""The fleet front door: consistent-hash routing + stream migration.

:class:`FleetRouter` is a standalone asyncio process that fronts ``N``
:class:`~repro.serve.server.EnumerationServer` replicas sharing one
tiered disk store.  It speaks the exact client protocol of a single
server (``POST /enumerate`` NDJSON streams, ``/answer``, ``/datasets``,
``/stats``…), so :class:`~repro.serve.client.ServeClient` and ``repro
client`` work against a fleet unchanged.

Per request the router:

1. **authenticates + admits** — tenant API keys and quotas apply
   fleet-wide here (replicas run anonymous behind the router), then the
   :class:`~repro.serve.fleet.admission.AdmissionController` spends a
   rate-limit token and takes a fair concurrent-stream slot;
2. **routes** — the job's isomorphism-stable instance digest picks the
   owning replica on the :class:`~repro.serve.fleet.hashring.HashRing`,
   so relabeled duplicates of a hot graph hit the same warm cache;
3. **proxies** — events stream through with per-read backpressure:
   the solutions one upstream read holds go to the client in one write
   and one drain (a slow client stalls the router's reads, which stalls
   the replica's credit flow, which suspends the worker — bounded
   memory end to end);
4. **migrates** — when a replica dies mid-stream the router marks it
   down, re-routes to the surviving owner, and re-issues the stream at
   the exact next position.  The replacement replica thaws the last
   ``RSNAP1`` checkpoint from the shared store, or fast-forwards
   deterministically when it cannot use it, and the router
   de-duplicates on event ``seq`` — the client sees one gap-free,
   byte-identical stream.

Replicas register themselves (``repro serve --join``) via
``POST /fleet/join`` and are health-checked continuously; ``GET
/fleet`` exposes the live topology.  See ``docs/guides/fleet.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import InvalidInstanceError, ReproError
from repro.frontdoor.registry import DatasetRegistry
from repro.frontdoor.tenants import TenantRegistry
from repro.serve.fleet.admission import AdmissionController, RateLimitExceeded
from repro.serve.fleet.hashring import HashRing, routing_key
from repro.serve.fleet.proxy import (
    fetch_json,
    read_events,
    read_response_head,
    read_sized_body,
    send_request,
)
from repro.serve.httpd import (
    Disconnect,
    FrontDoor,
    Request,
    api_key,
    refuse,
    respond,
)
from repro.serve.protocol import (
    FINAL_CHUNK,
    ProtocolError,
    encode_event,
    json_response,
    response_head,
)
from repro.serve.server import EnumerationServer


@dataclass
class ReplicaInfo:
    """One registered replica and its observed health."""

    name: str
    host: str
    port: int
    healthy: bool = True
    failures: int = 0
    streams: int = 0  # streams proxied to it since it joined

    def as_dict(self) -> Dict[str, Any]:
        """Topology entry for ``GET /fleet``."""
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "streams": self.streams,
        }


@dataclass
class RouterStats:
    """Aggregate router counters exposed at ``GET /stats``."""

    requests: int = 0
    streams: int = 0
    solutions: int = 0
    migrations: int = 0  # mid-stream replica failovers
    replicas_joined: int = 0
    replicas_lost: int = 0
    rate_limited: int = 0
    errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON serving."""
        return dataclasses.asdict(self)


class FleetRouter(FrontDoor):
    """Consistent-hash router over a fleet of enumeration replicas.

    The listener, auth, quotas, the access log and the dataset endpoints
    come from :class:`~repro.serve.httpd.FrontDoor`; the router adds the
    per-client rate limit to admission, replays dataset changes on every
    replica, and serves ``/enumerate`` and ``/answer`` by proxy plus
    ``/healthz``, ``/stats``, ``/metrics`` and ``/fleet*`` itself.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port.
    vnodes:
        Virtual points per replica on the hash ring.
    registry:
        A :class:`DatasetRegistry`, a directory path, or ``None``
        (memory-only).  Point it at the same directory the replicas
        use so the fleet shares one dataset namespace.
    tenants:
        A :class:`TenantRegistry`, a directory path, or ``None`` —
        fleet-wide authentication and quotas live here; replicas
        behind the router run anonymous.
    require_auth:
        Reject anonymous requests (``/healthz`` stays open).
    max_streams, per_client_streams, rate, burst:
        Admission-control knobs (see :class:`AdmissionController`).
    health_interval:
        Seconds between replica health probes (0 disables the prober —
        failures are then detected only by proxy errors).
    migration_budget:
        Mid-stream failovers allowed per stream before the router
        surfaces an error event (defaults to ``replicas + 2``).
    sndbuf:
        Bound each connection's buffering to ~this many bytes: the
        downstream client socket's send buffer and the upstream replica
        socket's receive buffer are both clamped, so a slow consumer's
        backpressure reaches the replica's worker instead of vanishing
        into multi-megabyte loopback autotuning.  ``None`` leaves the
        OS defaults (fastest for trusted LAN clients that always drain).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = 64,
        registry: Union[DatasetRegistry, str, None] = None,
        tenants: Union[TenantRegistry, str, None] = None,
        require_auth: bool = False,
        max_streams: int = 64,
        per_client_streams: int = 8,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        health_interval: float = 1.0,
        migration_budget: Optional[int] = None,
        sndbuf: Optional[int] = None,
    ) -> None:
        super().__init__(host, port, registry, tenants, require_auth, sndbuf)
        self.ring = HashRing(vnodes=vnodes)
        self.replicas: Dict[str, ReplicaInfo] = {}
        self.admission = AdmissionController(
            max_streams=max_streams,
            per_client_streams=per_client_streams,
            rate=rate,
            burst=burst,
        )
        self.health_interval = health_interval
        self.migration_budget = migration_budget
        self.stats = RouterStats()
        self._health_task: Optional[asyncio.Task] = None
        self._stream_seq = 0
        self.route("/healthz", GET=self._healthz)
        self.route("/fleet", GET=lambda r: respond(r.writer, 200, self._fleet_payload()))
        self.route("/fleet/join", POST=self._join)
        self.route("/fleet/leave", POST=self._leave)
        self.route("/stats", GET=self._stats)
        self.route(
            "/metrics", GET=lambda r: respond(r.writer, 200, self._metrics_payload())
        )
        self.route("/enumerate", POST=self._proxy_enumerate)
        self.route("/answer", GET=self._proxy_answer, POST=self._proxy_answer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        """The router's base URL (for ``repro serve --join``)."""
        return f"http://{self.host}:{self.port}"

    async def _open(self) -> None:
        """Start the executor for tenant disk writes and the health prober."""
        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-router"
        )
        if self.health_interval > 0:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )

    async def _close(self) -> None:
        """Stop the health prober."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None

    # ------------------------------------------------------------------
    # replica membership
    # ------------------------------------------------------------------
    def add_replica(self, name: str, host: str, port: int) -> ReplicaInfo:
        """Register a replica (programmatic form of ``/fleet/join``)."""
        existing = self.replicas.get(name)
        if existing is not None:
            self.ring.remove(name)
        info = ReplicaInfo(name=name, host=host, port=port)
        self.replicas[name] = info
        self.ring.add(name)
        self.stats.replicas_joined += 1
        return info

    def remove_replica(self, name: str) -> bool:
        """Forget a replica entirely (``/fleet/leave``)."""
        self.ring.remove(name)
        return self.replicas.pop(name, None) is not None

    def _mark_down(self, info: ReplicaInfo) -> None:
        """Take a failed replica out of the routing rotation."""
        if info.healthy:
            info.healthy = False
            self.stats.replicas_lost += 1
            self.metrics.inc("replicas_lost")
        self.ring.remove(info.name)

    def _mark_up(self, info: ReplicaInfo) -> None:
        if not info.healthy:
            info.healthy = True
            self.metrics.inc("replicas_recovered")
        info.failures = 0
        if info.name not in self.ring:
            self.ring.add(info.name)

    def _owner(self, key: str) -> Optional[ReplicaInfo]:
        name = self.ring.route(key)
        return self.replicas.get(name) if name is not None else None

    def healthy_replicas(self) -> List[ReplicaInfo]:
        """Replicas currently in the routing rotation."""
        return [r for r in self.replicas.values() if r.healthy]

    async def _probe(self, info: ReplicaInfo) -> bool:
        try:
            status, payload, _headers = await fetch_json(
                info.host, info.port, "GET", "/healthz", timeout=5.0
            )
        except (OSError, ProtocolError, asyncio.TimeoutError, asyncio.IncompleteReadError):
            return False
        return status == 200 and bool(payload.get("ok"))

    async def _health_loop(self) -> None:
        """Continuously probe replicas; drop dead ones, readmit revived."""
        while True:
            await asyncio.sleep(self.health_interval)
            for info in list(self.replicas.values()):
                ok = await self._probe(info)
                if ok:
                    self._mark_up(info)
                    continue
                info.failures += 1
                self._mark_down(info)
                if info.failures >= 30:
                    # A replica dead for ~30 probe intervals is gone
                    # for good (killed processes never reuse the port).
                    self.remove_replica(info.name)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @staticmethod
    def _client_key(request: Request) -> str:
        """The admission-control identity of one request's sender."""
        if request.tenant is not None:
            return f"tenant:{request.tenant.name}"
        key = api_key(request.headers)
        if key is not None:
            return f"key:{key}"
        peer = request.writer.get_extra_info("peername")
        return f"addr:{peer[0]}" if peer else "addr:unknown"

    async def admit(self, request: Request) -> None:
        """Charge the tenant's quota, then spend the client's rate token.

        An empty token bucket raises :class:`RateLimitExceeded`, which
        the front door answers like any quota refusal: ``429`` with
        ``Retry-After``.
        """
        await super().admit(request)
        try:
            self.admission.check_rate(self._client_key(request))
        except RateLimitExceeded:
            self.stats.rate_limited += 1
            raise

    # ------------------------------------------------------------------
    # fleet membership endpoints
    # ------------------------------------------------------------------
    async def _join(self, request: Request) -> int:
        try:
            spec = json.loads(request.body.decode() or "{}")
            name = str(spec["name"])
            host = str(spec.get("host", "127.0.0.1"))
            port = int(spec["port"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
            return await refuse(request.writer, 400, f"bad join payload: {exc}")
        probe = ReplicaInfo(name=name, host=host, port=port)
        if not await self._probe(probe):
            return await refuse(
                request.writer, 409, f"replica {name!r} failed its health probe"
            )
        self.add_replica(name, host, port)
        self.metrics.inc("replicas_joined")
        return await respond(
            request.writer,
            200,
            {"ok": True, "name": name, "replicas": len(self.healthy_replicas())},
        )

    async def _leave(self, request: Request) -> int:
        try:
            spec = json.loads(request.body.decode() or "{}")
            name = str(spec["name"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
            return await refuse(request.writer, 400, f"bad leave payload: {exc}")
        if not self.remove_replica(name):
            return await refuse(request.writer, 404, f"unknown replica {name!r}")
        return await respond(request.writer, 200, {"ok": True, "removed": name})

    def _fleet_payload(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "replicas": [
                self.replicas[name].as_dict() for name in sorted(self.replicas)
            ],
            "ring": {"nodes": self.ring.nodes(), "vnodes": self.ring.vnodes},
            "migrations": self.stats.migrations,
        }

    # ------------------------------------------------------------------
    # aggregated ops surfaces
    # ------------------------------------------------------------------
    async def _replica_docs(self, path: str) -> Dict[str, Any]:
        """Fetch ``path`` from every healthy replica concurrently."""
        docs: Dict[str, Any] = {}
        replicas = self.healthy_replicas()

        async def one(info: ReplicaInfo) -> None:
            try:
                status, payload, _headers = await fetch_json(
                    info.host, info.port, "GET", path, timeout=10.0
                )
            except (OSError, ProtocolError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                docs[info.name] = {"ok": False, "error": "unreachable"}
                return
            docs[info.name] = payload if status == 200 else {"ok": False}

        await asyncio.gather(*(one(info) for info in replicas))
        return docs

    async def _healthz(self, request: Request) -> int:
        return await respond(
            request.writer,
            200,
            {"ok": True, "role": "router", "replicas": len(self.healthy_replicas())},
        )

    async def _stats(self, request: Request) -> int:
        return await respond(request.writer, 200, await self._stats_payload())

    async def _stats_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"ok": True, "role": "router"}
        payload.update(self.stats.as_dict())
        replica_stats = await self._replica_docs("/stats")
        payload["replicas"] = {
            name: replica_stats.get(name, {}) for name in sorted(replica_stats)
        }
        totals = {"streams": 0, "solutions": 0, "replays": 0, "live_runs": 0}
        for doc in replica_stats.values():
            for counter in totals:
                value = doc.get(counter)
                if isinstance(value, int):
                    totals[counter] += value
        payload["fleet_totals"] = totals
        payload["admission"] = self.admission.as_dict()
        payload["datasets"] = len(self.registry)
        return payload

    def _metrics_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"ok": True, "role": "router"}
        payload.update(self.metrics.as_dict())
        payload["admission"] = self.admission.as_dict()
        payload["fleet"] = self._fleet_payload()
        payload["migrations"] = self.stats.migrations
        payload["streams"] = self.stats.streams
        payload["solutions"] = self.stats.solutions
        payload["tenants"] = (
            self.tenants.usage_table() if self.tenants is not None else {}
        )
        return payload

    # ------------------------------------------------------------------
    # dataset fan-out
    # ------------------------------------------------------------------
    async def datasets_changed(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> None:
        """Replay a dataset mutation on every healthy replica (best effort).

        Replicas share the registry directory on disk, but each caches
        records in memory — the broadcast keeps the live processes
        coherent; a replica that misses it (marked down here) reloads
        the shared directory when it restarts and re-joins.
        """

        async def one(info: ReplicaInfo) -> None:
            try:
                await fetch_json(
                    info.host, info.port, method, path, payload, timeout=15.0
                )
            except (OSError, ProtocolError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                self._mark_down(info)

        await asyncio.gather(*(one(info) for info in self.healthy_replicas()))

    # ------------------------------------------------------------------
    # /answer: dataset-affine proxy with failover
    # ------------------------------------------------------------------
    async def _proxy_answer(self, request: Request) -> int:
        writer = request.writer
        started = time.perf_counter()
        try:
            spec = EnumerationServer._parse_answer_request(
                request.method, request.params, request.body
            )
        except InvalidInstanceError as exc:
            return await refuse(writer, 400, str(exc))
        dataset = str(spec.get("dataset", ""))
        record = self.registry.describe(dataset) if dataset else None
        key = record.digest if record is not None else f"dataset:{dataset}"
        solutions = 0
        compute = 0.0
        try:
            for name in self.ring.route_order(key) or []:
                info = self.replicas.get(name)
                if info is None:
                    continue
                info.streams += 1
                try:
                    status, payload, headers = await fetch_json(
                        info.host,
                        info.port,
                        "POST",
                        "/answer",
                        spec,
                        timeout=300.0,
                    )
                except (OSError, ProtocolError, asyncio.TimeoutError, asyncio.IncompleteReadError):
                    self._mark_down(info)
                    self.metrics.inc("answer_failovers")
                    continue
                solutions = int(payload.get("count", 0) or 0)
                provenance = payload.get("provenance") or {}
                compute = float(provenance.get("elapsed_ms", 0.0) or 0.0) / 1000.0
                self.metrics.observe("answer", time.perf_counter() - started)
                return await respond(writer, status, payload)
            return await refuse(writer, 503, "no healthy replica can answer")
        finally:
            await self.record_usage(
                request.tenant, solutions=solutions, compute_seconds=compute
            )

    # ------------------------------------------------------------------
    # /enumerate: the migrating stream proxy
    # ------------------------------------------------------------------
    async def _proxy_enumerate(self, request: Request) -> int:
        try:
            spec, stream_id, chunk, offset = EnumerationServer._parse_enumerate_body(
                request.body
            )
        except (InvalidInstanceError, ReproError) as exc:
            self.stats.errors += 1
            return await refuse(request.writer, 400, str(exc))
        key = routing_key(spec, self.registry)
        if stream_id is None:
            self._stream_seq += 1
            stream_id = f"fleet-{key[:12]}-{self._stream_seq}"
        self.stats.streams += 1
        delivered = 0
        compute = 0.0
        try:
            async with self.admission.stream_slot(self._client_key(request)):
                delivered, compute, status = await self._drive_stream(
                    spec, stream_id, chunk, offset, key, request.writer
                )
            return status
        finally:
            await self.record_usage(
                request.tenant, solutions=delivered, compute_seconds=compute
            )

    async def _drive_stream(
        self,
        spec: Dict[str, Any],
        stream_id: str,
        chunk: Optional[int],
        offset: Optional[int],
        key: str,
        writer,
    ) -> Tuple[int, float, int]:
        """Proxy one stream across however many replicas it takes.

        Returns ``(solutions delivered, compute seconds, http status)``.
        Each upstream read's solution events go out in one write;
        ``expected``, where a migration resumes, counts only the
        solutions forwarded, and a leg that fails partway through a
        read forwards the solutions parsed before the failure first.
        """
        head_sent = False
        expected: Optional[int] = None  # next absolute seq the client needs
        client_start: Optional[int] = None
        batch: List[bytes] = []  # framed solutions of this read, not yet sent
        compute = 0.0
        leg_offset = offset
        attempts = 0
        last_error: Optional[str] = None

        async def forward(data: bytes) -> None:
            if writer.is_closing():
                raise Disconnect
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                raise Disconnect from exc

        async def flush() -> None:
            nonlocal expected
            if batch:
                data, count = b"".join(batch), len(batch)
                batch.clear()
                await forward(data)
                expected = (expected or 0) + count
                self.stats.solutions += count

        while True:
            budget = (
                self.migration_budget
                if self.migration_budget is not None
                else len(self.replicas) + 2
            )
            info = self._owner(key)
            if info is None or attempts > budget:
                self.stats.errors += 1
                reason = (
                    "no healthy replica available"
                    if info is None
                    else f"stream failed after {attempts} replicas: {last_error}"
                )
                if head_sent:
                    await forward(encode_event({"event": "error", "error": reason}))
                    await forward(FINAL_CHUNK)
                    return (
                        (expected or 0) - (client_start or 0),
                        compute,
                        200,
                    )
                return 0, compute, await refuse(writer, 503, reason)
            attempts += 1
            info.streams += 1
            payload: Dict[str, Any] = {"job": spec, "stream_id": stream_id}
            if chunk is not None:
                payload["chunk"] = chunk
            if leg_offset is not None:
                payload["offset"] = leg_offset
            migrated = head_sent
            up_writer = None
            try:
                # Bound the upstream leg too (pre-connect — the TCP
                # window can't shrink later): otherwise the replica
                # dumps the whole stream into this socket's receive
                # buffer and the client's backpressure stops here.
                reader, up_writer = await send_request(
                    info.host,
                    info.port,
                    "POST",
                    "/enumerate",
                    json.dumps(payload).encode(),
                    rcvbuf=self.sndbuf,
                )
                status, headers = await read_response_head(reader)
                if status != 200:
                    raw = await read_sized_body(reader, headers)
                    try:
                        parsed = json.loads(raw.decode() or "{}")
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        parsed = {"event": "error", "error": f"HTTP {status}"}
                    if head_sent:
                        self.stats.errors += 1
                        await forward(
                            encode_event(
                                {
                                    "event": "error",
                                    "error": parsed.get("error", f"HTTP {status}"),
                                }
                            )
                        )
                        await forward(FINAL_CHUNK)
                        return (expected or 0) - (client_start or 0), compute, 200
                    writer.write(json_response(status, parsed))
                    await writer.drain()
                    return 0, compute, status
                async for lines in read_events(reader):
                    for line in lines:
                        try:
                            event = json.loads(line)
                        except json.JSONDecodeError as exc:
                            raise ProtocolError(f"bad event from replica: {exc}") from exc
                        etype = event.get("event")
                        if etype == "solution":
                            seq = int(event.get("seq", -1))
                            if expected is None:
                                expected = client_start = seq
                            if seq < expected + len(batch):
                                continue  # overlap from a migration resume
                            if seq > expected + len(batch):
                                raise ProtocolError(
                                    f"stream gap: expected seq {expected + len(batch)}, "
                                    f"got {seq}"
                                )
                            # One HTTP chunk per event, as the client reads.
                            batch.append(b"%x\r\n%s\r\n" % (len(line) + 1, line + b"\n"))
                            continue
                        await flush()
                        if etype == "accepted":
                            if migrated:
                                continue  # the client saw the first leg's accept
                            if expected is None:
                                expected = client_start = int(event.get("offset", 0))
                            if not head_sent:
                                await forward(response_head(200, "application/x-ndjson"))
                                head_sent = True
                            await forward(encode_event(event))
                        elif etype == "end":
                            compute += float(event.get("compute_seconds", 0.0) or 0.0)
                            event["count"] = (expected or 0) - (client_start or 0)
                            if migrated:
                                event["migrated"] = True
                            await forward(encode_event(event) + FINAL_CHUNK)
                            return event["count"], compute, 200
                        elif etype == "error":
                            # Deterministic job-level failure: every replica
                            # would refuse identically, so relay it.
                            self.stats.errors += 1
                            await forward(encode_event(event) + FINAL_CHUNK)
                            return (expected or 0) - (client_start or 0), compute, 200
                        else:
                            await forward(b"%x\r\n%s\r\n" % (len(line) + 1, line + b"\n"))
                    await flush()
                # Chunked body ended without a terminal event: treat as
                # a replica failure and migrate.
                raise asyncio.IncompleteReadError(b"", None)
            except (
                OSError,
                ConnectionError,
                ProtocolError,
                asyncio.TimeoutError,
                asyncio.IncompleteReadError,
            ) as exc:
                # The solutions parsed before the failure go out first:
                # the migration resumes after them.
                await flush()
                self._mark_down(info)
                last_error = f"{type(exc).__name__}: {exc}"
                if head_sent:
                    self.stats.migrations += 1
                    self.metrics.inc("stream_migrations")
                # Resume exactly where the client's stream stopped; the
                # replacement replica thaws the checkpointed snapshot
                # from the shared store (or replays deterministically).
                if expected is not None:
                    leg_offset = expected
                continue
            finally:
                if up_writer is not None:
                    up_writer.close()

