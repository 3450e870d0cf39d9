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
3. **proxies** — events stream through with per-event backpressure
   (a slow client stalls the router's reads, which stalls the
   replica's credit flow, which suspends the worker — bounded memory
   end to end);
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
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.exceptions import InvalidInstanceError, ReproError
from repro.frontdoor.metrics import MetricsRegistry
from repro.frontdoor.registry import DatasetError, DatasetRegistry
from repro.frontdoor.tenants import AuthError, QuotaExceeded, Tenant, TenantRegistry
from repro.serve.fleet.admission import AdmissionController, RateLimitExceeded
from repro.serve.fleet.hashring import HashRing, routing_key
from repro.serve.fleet.proxy import (
    fetch_json,
    iter_chunked_lines,
    read_response_head,
    read_sized_body,
    send_request,
)
from repro.serve.protocol import (
    FINAL_CHUNK,
    ProtocolError,
    clamp_connection_buffers,
    encode_event,
    json_response,
    read_request,
    response_head,
    split_target,
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


class _Disconnect(Exception):
    """The downstream client went away mid-stream."""


class _NoCapacity(ReproError):
    """No healthy replica is available to own the stream."""


class FleetRouter:
    """Consistent-hash router over a fleet of enumeration replicas.

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
        if sndbuf is not None and sndbuf < 4096:
            raise ValueError("sndbuf must be >= 4096 bytes (or None)")
        self.sndbuf = sndbuf
        self.host = host
        self._requested_port = port
        self.ring = HashRing(vnodes=vnodes)
        self.replicas: Dict[str, ReplicaInfo] = {}
        if isinstance(registry, str):
            self.registry: DatasetRegistry = DatasetRegistry(registry)
        elif registry is not None:
            self.registry = registry
        else:
            self.registry = DatasetRegistry(None)
        if isinstance(tenants, str):
            self.tenants: Optional[TenantRegistry] = TenantRegistry(tenants)
        else:
            self.tenants = tenants
        if require_auth and self.tenants is None:
            self.tenants = TenantRegistry(None)
        self.require_auth = require_auth
        self.admission = AdmissionController(
            max_streams=max_streams,
            per_client_streams=per_client_streams,
            rate=rate,
            burst=burst,
        )
        self.health_interval = health_interval
        self.migration_budget = migration_budget
        self.stats = RouterStats()
        self.metrics = MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._health_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._stream_seq = 0
        self._executor = None  # lazy ThreadPoolExecutor for tenant disk writes

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    @property
    def url(self) -> str:
        """The router's base URL (for ``repro serve --join``)."""
        return f"http://{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind the listener and start the health prober."""
        if self._server is not None:
            raise RuntimeError("router already started")
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-router"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        if self.health_interval > 0:
            self._health_task = asyncio.get_running_loop().create_task(
                self._health_loop()
            )

    async def stop(self) -> None:
        """Close the listener and drain in-flight proxied streams."""
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=10)
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

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
    # connection handling (mirrors EnumerationServer)
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        if self.sndbuf is not None:
            clamp_connection_buffers(writer, sndbuf=self.sndbuf)
        try:
            await self._handle_request(reader, writer)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)

    @staticmethod
    def _client_key(headers: Dict[str, str], writer, tenant: Optional[Tenant]) -> str:
        """The admission-control identity of one request's sender."""
        if tenant is not None:
            return f"tenant:{tenant.name}"
        key = EnumerationServer._api_key(headers)
        if key is not None:
            return f"key:{key}"
        peer = writer.get_extra_info("peername")
        return f"addr:{peer[0]}" if peer else "addr:unknown"

    async def _handle_request(self, reader, writer) -> None:
        started = time.perf_counter()
        method, path, tenant_name, status = "-", "-", None, 0
        try:
            try:
                request = await asyncio.wait_for(read_request(reader), timeout=30)
            except ProtocolError as exc:
                status = 400
                writer.write(json_response(400, {"event": "error", "error": str(exc)}))
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError):
                return
            if request is None:
                return
            method, target, headers, body = request
            path, params = split_target(target)
            self.stats.requests += 1
            try:
                tenant = await self._authorize(method, path, headers)
                client = self._client_key(headers, writer, tenant)
                if EnumerationServer._charged(method, path):
                    self.admission.check_rate(client)
            except AuthError as exc:
                status = 401
                self.metrics.inc("auth_failures")
                writer.write(json_response(401, {"event": "error", "error": str(exc)}))
                await writer.drain()
                return
            except (QuotaExceeded, RateLimitExceeded) as exc:
                status = 429
                if isinstance(exc, RateLimitExceeded):
                    self.stats.rate_limited += 1
                self.metrics.inc("quota_rejections")
                writer.write(
                    json_response(
                        429,
                        {
                            "event": "error",
                            "error": str(exc),
                            "retry_after": round(exc.retry_after, 3),
                        },
                        headers={"Retry-After": str(max(1, math.ceil(exc.retry_after)))},
                    )
                )
                await writer.drain()
                return
            tenant_name = tenant.name if tenant is not None else None
            status = await self._route(
                method, path, params, body, writer, tenant, client
            )
        except (ConnectionError, _Disconnect, OSError):
            status = status or 499
        finally:
            if path != "-":
                self.metrics.access(
                    method,
                    path,
                    status,
                    time.perf_counter() - started,
                    tenant=tenant_name,
                )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _authorize(
        self, method: str, path: str, headers: Dict[str, str]
    ) -> Optional[Tenant]:
        if self.tenants is None or path == "/healthz":
            return None
        key = EnumerationServer._api_key(headers)
        if key is None and not self.require_auth:
            return None
        tenant = self.tenants.authenticate(key)
        if EnumerationServer._charged(method, path):
            await asyncio.get_running_loop().run_in_executor(
                self._executor, self.tenants.admit, tenant
            )
        return tenant

    async def _record_usage(
        self,
        tenant: Optional[Tenant],
        solutions: int = 0,
        compute_seconds: float = 0.0,
    ) -> None:
        if tenant is None or self.tenants is None or self._executor is None:
            return
        if not solutions and not compute_seconds:
            return
        registry = self.tenants
        await asyncio.get_running_loop().run_in_executor(
            self._executor,
            lambda: registry.record(
                tenant, solutions=solutions, compute_seconds=compute_seconds
            ),
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        path: str,
        params: Dict[str, str],
        body: bytes,
        writer,
        tenant: Optional[Tenant],
        client: str,
    ) -> int:
        if path == "/healthz" and method == "GET":
            return await self._simple(
                writer,
                200,
                {"ok": True, "role": "router", "replicas": len(self.healthy_replicas())},
            )
        if path == "/fleet" and method == "GET":
            return await self._simple(writer, 200, self._fleet_payload())
        if path == "/fleet/join" and method == "POST":
            return await self._join(body, writer)
        if path == "/fleet/leave" and method == "POST":
            return await self._leave(body, writer)
        if path == "/stats" and method == "GET":
            return await self._simple(writer, 200, await self._stats_payload())
        if path == "/metrics" and method == "GET":
            return await self._simple(writer, 200, self._metrics_payload())
        if path == "/enumerate":
            if method != "POST":
                return await self._simple(
                    writer, 405, {"event": "error", "error": "POST required"}
                )
            return await self._proxy_enumerate(body, writer, tenant, client)
        if path == "/datasets" and method == "POST":
            return await self._register_dataset(body, writer)
        if path == "/datasets" and method == "GET":
            return await self._simple(
                writer,
                200,
                {"ok": True, "datasets": [r._asdict() for r in self.registry.list()]},
            )
        if path.startswith("/datasets/") and method == "DELETE":
            return await self._remove_dataset(path[len("/datasets/"):], writer)
        if path == "/answer" and method in ("GET", "POST"):
            return await self._proxy_answer(method, params, body, writer, tenant)
        return await self._simple(
            writer, 404, {"event": "error", "error": f"no route {path}"}
        )

    async def _simple(
        self,
        writer,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> int:
        writer.write(json_response(status, payload, headers))
        await writer.drain()
        return status

    # ------------------------------------------------------------------
    # fleet membership endpoints
    # ------------------------------------------------------------------
    async def _join(self, body: bytes, writer) -> int:
        try:
            spec = json.loads(body.decode() or "{}")
            name = str(spec["name"])
            host = str(spec.get("host", "127.0.0.1"))
            port = int(spec["port"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
            return await self._simple(
                writer, 400, {"event": "error", "error": f"bad join payload: {exc}"}
            )
        probe = ReplicaInfo(name=name, host=host, port=port)
        if not await self._probe(probe):
            return await self._simple(
                writer,
                409,
                {"event": "error", "error": f"replica {name!r} failed its health probe"},
            )
        self.add_replica(name, host, port)
        self.metrics.inc("replicas_joined")
        return await self._simple(
            writer,
            200,
            {"ok": True, "name": name, "replicas": len(self.healthy_replicas())},
        )

    async def _leave(self, body: bytes, writer) -> int:
        try:
            spec = json.loads(body.decode() or "{}")
            name = str(spec["name"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
            return await self._simple(
                writer, 400, {"event": "error", "error": f"bad leave payload: {exc}"}
            )
        removed = self.remove_replica(name)
        if not removed:
            return await self._simple(
                writer, 404, {"event": "error", "error": f"unknown replica {name!r}"}
            )
        return await self._simple(writer, 200, {"ok": True, "removed": name})

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
    async def _broadcast(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> None:
        """Apply a mutation on every healthy replica (best effort).

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

    async def _register_dataset(self, body: bytes, writer) -> int:
        try:
            spec = json.loads(body.decode() or "{}")
            if not isinstance(spec, dict):
                raise DatasetError("request body must be a JSON object")
            record, deduped = self.registry.add(
                str(spec.get("name", "")),
                spec.get("edges") or [],
                vertices=spec.get("vertices") or [],
                node_keywords=spec.get("node_keywords") or None,
            )
        except (json.JSONDecodeError, UnicodeDecodeError, TypeError, ValueError) as exc:
            return await self._simple(
                writer, 400, {"event": "error", "error": f"bad dataset payload: {exc}"}
            )
        except ReproError as exc:
            return await self._simple(writer, 400, {"event": "error", "error": str(exc)})
        await self._broadcast("POST", "/datasets", spec)
        self.metrics.inc("datasets_deduped" if deduped else "datasets_registered")
        return await self._simple(
            writer,
            200,
            {
                "ok": True,
                "name": record.name,
                "digest": record.digest,
                "deduped": deduped,
                "num_vertices": record.num_vertices,
                "num_edges": record.num_edges,
            },
        )

    async def _remove_dataset(self, name: str, writer) -> int:
        removed = self.registry.remove(name)
        if not removed:
            return await self._simple(
                writer, 404, {"event": "error", "error": f"unknown dataset {name!r}"}
            )
        await self._broadcast("DELETE", f"/datasets/{name}", None)
        return await self._simple(writer, 200, {"ok": True, "removed": name})

    # ------------------------------------------------------------------
    # /answer: dataset-affine proxy with failover
    # ------------------------------------------------------------------
    async def _proxy_answer(
        self,
        method: str,
        params: Dict[str, str],
        body: bytes,
        writer,
        tenant: Optional[Tenant],
    ) -> int:
        started = time.perf_counter()
        try:
            spec = EnumerationServer._parse_answer_request(method, params, body)
        except InvalidInstanceError as exc:
            return await self._simple(writer, 400, {"event": "error", "error": str(exc)})
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
                return await self._simple(writer, status, payload)
            return await self._simple(
                writer,
                503,
                {"event": "error", "error": "no healthy replica can answer"},
            )
        finally:
            await self._record_usage(tenant, solutions=solutions, compute_seconds=compute)

    # ------------------------------------------------------------------
    # /enumerate: the migrating stream proxy
    # ------------------------------------------------------------------
    async def _proxy_enumerate(
        self, body: bytes, writer, tenant: Optional[Tenant], client: str
    ) -> int:
        try:
            spec, stream_id, chunk, offset = EnumerationServer._parse_enumerate_body(
                body
            )
        except (InvalidInstanceError, ReproError) as exc:
            self.stats.errors += 1
            return await self._simple(writer, 400, {"event": "error", "error": str(exc)})
        key = routing_key(spec, self.registry)
        if stream_id is None:
            self._stream_seq += 1
            stream_id = f"fleet-{key[:12]}-{self._stream_seq}"
        self.stats.streams += 1
        delivered = 0
        compute = 0.0
        try:
            async with self.admission.stream_slot(client):
                delivered, compute, status = await self._drive_stream(
                    spec, stream_id, chunk, offset, key, writer
                )
            return status
        finally:
            await self._record_usage(
                tenant, solutions=delivered, compute_seconds=compute
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
        """
        head_sent = False
        expected: Optional[int] = None  # next absolute seq the client needs
        client_start: Optional[int] = None
        compute = 0.0
        leg_offset = offset
        attempts = 0
        last_error: Optional[str] = None

        async def forward(data: bytes) -> None:
            if writer.is_closing():
                raise _Disconnect
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError) as exc:
                raise _Disconnect from exc

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
                await self._simple(writer, 503, {"event": "error", "error": reason})
                return 0, compute, 503
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
                async for line in iter_chunked_lines(reader):
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise ProtocolError(f"bad event from replica: {exc}") from exc
                    etype = event.get("event")
                    if etype == "accepted":
                        if migrated:
                            continue  # the client saw the first leg's accept
                        if expected is None:
                            expected = int(event.get("offset", 0))
                            client_start = expected
                        if not head_sent:
                            await forward(response_head(200, "application/x-ndjson"))
                            head_sent = True
                        await forward(encode_event(event))
                    elif etype == "solution":
                        seq = int(event.get("seq", -1))
                        if expected is None:
                            expected = seq
                            client_start = seq
                        if seq < expected:
                            continue  # overlap from a migration resume
                        if seq > expected:
                            raise ProtocolError(
                                f"stream gap: expected seq {expected}, got {seq}"
                            )
                        await forward(
                            b"%x\r\n%s\r\n" % (len(line) + 1, line + b"\n")
                        )
                        expected += 1
                        self.stats.solutions += 1
                    elif etype == "end":
                        compute += float(event.get("compute_seconds", 0.0) or 0.0)
                        event["count"] = (expected or 0) - (client_start or 0)
                        if migrated:
                            event["migrated"] = True
                        await forward(encode_event(event))
                        await forward(FINAL_CHUNK)
                        return event["count"], compute, 200
                    elif etype == "error":
                        # Deterministic job-level failure: every replica
                        # would refuse identically, so relay it.
                        self.stats.errors += 1
                        await forward(encode_event(event))
                        await forward(FINAL_CHUNK)
                        return (expected or 0) - (client_start or 0), compute, 200
                    else:
                        await forward(
                            b"%x\r\n%s\r\n" % (len(line) + 1, line + b"\n")
                        )
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


class RouterThread:
    """Run a :class:`FleetRouter` on a background event loop (embedding).

    The tests, the chaos harness and the benchmarks drive routers
    through this, exactly like
    :class:`~repro.serve.server.ServerThread` drives a single server.
    """

    def __init__(self, router: FleetRouter) -> None:
        self.router = router
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "RouterThread":
        """Start the loop thread and block until the socket is bound."""
        if self._thread is not None:
            raise RuntimeError("router thread already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("router failed to start") from self._startup_error
        if not self._started.is_set():  # pragma: no cover - startup is fast
            raise RuntimeError("router did not start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.router.start()
            except BaseException as exc:  # pragma: no cover - bind errors
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self._stop.wait()
            await self.router.stop()

        asyncio.run(main())

    @property
    def port(self) -> int:
        """The router's bound port."""
        return self.router.port

    def stop(self) -> None:
        """Stop the router and join the loop thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "RouterThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
