"""The HTTP front door shared by the server and the fleet router.

:class:`FrontDoor` is the one request pipeline both serving tiers run:

1. **listen** — bind, track in-flight connections (``stop`` gives them
   10 s to finish) and clamp each connection's send buffer;
2. **read** — one request per connection, within 30 s; a malformed
   request is a ``400``;
3. **authenticate and admit** — an unknown key is a ``401``, an
   exhausted quota a ``429`` with ``Retry-After``;
4. **route** — through a table of path → method → handler.  A path
   nobody registered is a ``404``; a registered path asked with a
   method it does not serve is a ``405`` naming the allowed methods in
   an ``Allow`` header;
5. **log** — one ``repro.frontdoor.access`` line per request, status
   ``499`` when the client went away mid-response.

It also serves the dataset endpoints (``GET``/``POST /datasets`` and
``DELETE /datasets/<name>``), which are the same on both tiers.
:class:`~repro.serve.server.EnumerationServer` and
:class:`~repro.serve.fleet.router.FleetRouter` subclass it and register
only their own handlers; :class:`ServerThread` runs either one on a
background event loop.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Union

from repro.exceptions import ReproError
from repro.frontdoor.metrics import MetricsRegistry
from repro.frontdoor.registry import DatasetError, DatasetRegistry
from repro.frontdoor.tenants import AuthError, QuotaExceeded, Tenant, TenantRegistry
from repro.serve.protocol import (
    ProtocolError,
    clamp_connection_buffers,
    json_response,
    read_request,
    split_target,
)


class Disconnect(Exception):
    """The client went away mid-response."""


@dataclass
class Request:
    """One parsed request on its way through the front door.

    ``tenant`` is set once the request is authenticated (``None`` for
    anonymous requests).
    """

    method: str
    path: str
    params: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    writer: Any
    tenant: Optional[Tenant] = None


#: A route handler writes the whole response and returns its status.
Handler = Callable[[Request], Awaitable[int]]


def api_key(headers: Dict[str, str]) -> Optional[str]:
    """The API key a request presents: a bearer token, else ``X-Api-Key``."""
    auth = headers.get("authorization", "")
    if auth.lower().startswith("bearer "):
        return auth[7:].strip() or None
    return headers.get("x-api-key") or None


def charged(method: str, path: str) -> bool:
    """Does this request consume request quota?

    Only compute and mutation surfaces are charged: enumeration,
    answers and dataset writes.  Read-only ops surfaces (/stats,
    /metrics, GET /datasets, /healthz) stay free.
    """
    if path == "/enumerate":
        return method == "POST"
    if path == "/answer":
        return method in ("GET", "POST")
    if path == "/datasets":
        return method == "POST"
    if path.startswith("/datasets/"):
        return method == "DELETE"
    return False


async def respond(
    writer, status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
) -> int:
    """Write one plain-JSON response; returns ``status`` for the access log."""
    writer.write(json_response(status, payload, headers))
    await writer.drain()
    return status


async def refuse(
    writer,
    status: int,
    message: str,
    headers: Optional[Dict[str, str]] = None,
    **fields: Any,
) -> int:
    """Write an ``{"event": "error", "error": message, **fields}`` response."""
    return await respond(
        writer, status, {"event": "error", "error": message, **fields}, headers
    )


class FrontDoor:
    """The listener, request pipeline and route table of a serving tier.

    Subclasses register their handlers with :meth:`route`, keep their
    counters in ``stats`` (the front door bumps ``stats.requests``), put
    their own start and stop steps in :meth:`_open` and :meth:`_close`,
    and set ``_executor`` there: admission and usage accounting run on
    it, off the event loop.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    registry:
        A :class:`DatasetRegistry`, a directory path, or ``None``
        (memory-only).
    tenants:
        A :class:`TenantRegistry`, a directory path, or ``None`` to run
        without authentication and quotas.
    require_auth:
        Reject requests without a valid API key (``/healthz`` stays
        open).  Without it, keys are validated and charged when
        presented but anonymous requests pass.
    sndbuf:
        Bound each client connection's send-side buffering to about
        this many bytes (``None`` keeps the OS sizing).
    """

    #: The tier's counters; the front door counts ``requests`` in it.
    stats: Any

    def __init__(
        self,
        host: str,
        port: int,
        registry: Union[DatasetRegistry, str, None],
        tenants: Union[TenantRegistry, str, None],
        require_auth: bool,
        sndbuf: Optional[int],
    ) -> None:
        if sndbuf is not None and sndbuf < 4096:
            raise ValueError("sndbuf must be >= 4096 bytes (or None)")
        self.host = host
        self._requested_port = port
        self.sndbuf = sndbuf
        if registry is None or isinstance(registry, str):
            registry = DatasetRegistry(registry)
        self.registry: DatasetRegistry = registry
        if isinstance(tenants, str):
            tenants = TenantRegistry(tenants)
        if require_auth and tenants is None:
            tenants = TenantRegistry(None)
        self.tenants: Optional[TenantRegistry] = tenants
        self.require_auth = require_auth
        self.metrics = MetricsRegistry()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._conn_tasks: set = set()
        self._routes: Dict[str, Dict[str, Handler]] = {}
        self.route("/datasets", POST=self._register_dataset, GET=self._list_datasets)
        self.route("/datasets/", DELETE=self._remove_dataset)

    def route(self, path: str, **handlers: Handler) -> None:
        """Serve ``path`` with one handler per method (``GET=...``).

        A path ending in ``/`` also serves every path below it.  A 405
        names the allowed methods in registration order.
        """
        self._routes.setdefault(path, {}).update(handlers)

    def _handlers(self, path: str) -> Optional[Dict[str, Handler]]:
        if path in self._routes:
            return self._routes[path]
        for prefix, handlers in self._routes.items():
            if prefix.endswith("/") and path.startswith(prefix):
                return handlers
        return None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._requested_port

    async def start(self) -> None:
        """Run the tier's start steps, then bind the listener."""
        if self._server is not None:
            raise RuntimeError(f"{type(self).__name__} already started")
        await self._open()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def stop(self) -> None:
        """Close the listener, drain in-flight connections, run the
        tier's stop steps and write the datasets' pending use counts."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._conn_tasks:
            # Let in-flight streams finish (they checkpoint on the way
            # out); anything still running after the grace period is
            # torn down with the tier.
            await asyncio.wait(set(self._conn_tasks), timeout=10)
        await self._close()
        self.registry.flush()  # the use counts not yet written
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

    async def _open(self) -> None:
        """The tier's start steps, run before the listener binds."""

    async def _close(self) -> None:
        """The tier's stop steps, run once in-flight connections drained."""

    async def offload(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run a blocking call on the tier's executor, off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    # ------------------------------------------------------------------
    # the request pipeline
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        if self.sndbuf is not None:
            clamp_connection_buffers(writer, sndbuf=self.sndbuf)
        started = time.perf_counter()
        request: Optional[Request] = None
        status = 0
        try:
            try:
                raw = await asyncio.wait_for(read_request(reader), timeout=30)
            except ProtocolError as exc:
                await refuse(writer, 400, str(exc))
                return
            except (asyncio.IncompleteReadError, asyncio.TimeoutError, OSError):
                return
            if raw is None:
                return
            method, target, headers, body = raw
            path, params = split_target(target)
            request = Request(method, path, params, headers, body, writer)
            self.stats.requests += 1
            status = await self._dispatch(request)
        except (ConnectionError, Disconnect, OSError):
            status = 499  # the client went away mid-response
        finally:
            if request is not None:
                tenant = request.tenant
                self.metrics.access(
                    request.method,
                    request.path,
                    status,
                    time.perf_counter() - started,
                    tenant=tenant.name if tenant is not None else None,
                )
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _dispatch(self, request: Request) -> int:
        writer = request.writer
        try:
            request.tenant = self._authenticate(request)
            if charged(request.method, request.path):
                await self.admit(request)
        except AuthError as exc:
            self.metrics.inc("auth_failures")
            return await refuse(writer, 401, str(exc))
        except QuotaExceeded as exc:
            self.metrics.inc("quota_rejections")
            return await refuse(
                writer,
                429,
                str(exc),
                headers={"Retry-After": str(max(1, math.ceil(exc.retry_after)))},
                retry_after=round(exc.retry_after, 3),
            )
        handlers = self._handlers(request.path)
        if handlers is None:
            return await refuse(writer, 404, f"no route {request.path}")
        handler = handlers.get(request.method)
        if handler is None:
            return await refuse(
                writer,
                405,
                " or ".join(handlers) + " required",
                headers={"Allow": ", ".join(handlers)},
            )
        return await handler(request)

    # ------------------------------------------------------------------
    # authentication, admission, accounting
    # ------------------------------------------------------------------
    def _authenticate(self, request: Request) -> Optional[Tenant]:
        """The request's tenant; ``None`` for anonymous requests.

        With ``require_auth`` every route except ``/healthz`` needs a
        valid key; otherwise keys are checked only when presented.
        """
        if self.tenants is None or request.path == "/healthz":
            return None
        key = api_key(request.headers)
        if key is None and not self.require_auth:
            return None
        return self.tenants.authenticate(key)

    async def admit(self, request: Request) -> None:
        """Admit one request on a charged route, or raise :class:`QuotaExceeded`.

        Charges the tenant's request quota atomically, off the event
        loop: admission persists usage.json and the loop must keep
        serving streams during that disk write.
        """
        if request.tenant is not None:
            assert self.tenants is not None
            await self.offload(self.tenants.admit, request.tenant)

    async def record_usage(
        self,
        tenant: Optional[Tenant],
        solutions: int = 0,
        compute_seconds: float = 0.0,
    ) -> None:
        """Attach delivered solutions and compute seconds to the
        tenant's window, off the event loop."""
        if tenant is None or self.tenants is None or self._executor is None:
            return
        if not solutions and not compute_seconds:
            return
        await self.offload(
            functools.partial(
                self.tenants.record,
                tenant,
                solutions=solutions,
                compute_seconds=compute_seconds,
            )
        )

    # ------------------------------------------------------------------
    # the dataset endpoints
    # ------------------------------------------------------------------
    async def _list_datasets(self, request: Request) -> int:
        datasets = [r._asdict() for r in self.registry.list()]
        return await respond(request.writer, 200, {"ok": True, "datasets": datasets})

    async def _register_dataset(self, request: Request) -> int:
        started = time.perf_counter()
        try:
            spec = json.loads(request.body.decode() or "{}")
            if not isinstance(spec, dict):
                raise DatasetError("request body must be a JSON object")
            record, deduped = self.registry.add(
                str(spec.get("name", "")),
                spec.get("edges") or [],
                vertices=spec.get("vertices") or [],
                node_keywords=spec.get("node_keywords") or None,
            )
        except (TypeError, ValueError) as exc:
            return await refuse(request.writer, 400, f"bad dataset payload: {exc}")
        except ReproError as exc:
            return await refuse(request.writer, 400, str(exc))
        await self.datasets_changed(request.method, request.path, spec)
        self.metrics.observe("datasets", time.perf_counter() - started)
        self.metrics.inc("datasets_deduped" if deduped else "datasets_registered")
        return await respond(
            request.writer,
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

    async def _remove_dataset(self, request: Request) -> int:
        name = request.path[len("/datasets/"):]
        if not self.registry.remove(name):
            return await refuse(request.writer, 404, f"unknown dataset {name!r}")
        await self.datasets_changed(request.method, request.path, None)
        return await respond(request.writer, 200, {"ok": True, "removed": name})

    async def datasets_changed(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> None:
        """Hook run after a dataset request changed the registry.

        ``method``, ``path`` and ``payload`` repeat the request.  The
        front door itself has nothing more to do.
        """


class ServerThread:
    """Run a :class:`FrontDoor` on a background event loop.

    For embedding either tier — an
    :class:`~repro.serve.server.EnumerationServer` or a
    :class:`~repro.serve.fleet.router.FleetRouter` — in synchronous
    programs: the CLI, the tests and the benchmarks drive both through
    this.

    Examples
    --------
    ::

        with ServerThread(EnumerationServer(workers=2)) as server:
            client = ServeClient(port=server.port)
            ...

    The context exit stops the loop and joins the thread.
    """

    def __init__(self, server: FrontDoor) -> None:
        self.server = server
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        """Start the loop thread and block until the socket is bound."""
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        if not self._started.is_set():  # pragma: no cover - startup is fast
            raise RuntimeError("server did not start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:  # pragma: no cover - bind errors
                self._startup_error = exc
                self._started.set()
                raise
            self._started.set()
            await self._stop.wait()
            await self.server.stop()

        asyncio.run(main())

    @property
    def port(self) -> int:
        """The server's bound port."""
        return self.server.port

    def stop(self) -> None:
        """Stop the server and join the loop thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
