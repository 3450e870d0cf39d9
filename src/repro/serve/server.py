"""Asyncio streaming enumeration server (HTTP/1.1 + NDJSON).

:class:`EnumerationServer` is the network front end of the engine: it
accepts :class:`repro.engine.jobs.EnumerationJob` payloads over
``POST /enumerate`` and streams solutions back **incrementally** —
clients see the first solution as soon as the enumerator's
linear-delay guarantee produces it, not when the run finishes.

Data path per request::

    client ──HTTP──> server ──pipe──> pooled worker process
           <─NDJSON─        <─chunks─

* **Backpressure** — a worker sends the first solution as a chunk of
  its own, then ``chunk`` solutions at a time, and blocks for a flow
  credit while two chunks are unacknowledged; the server grants a
  credit only after the chunk is written to the socket and ``drain()``
  returns.  The worker computes the next chunk while the server writes
  the last, and a slow client still suspends its own enumeration
  (bounded memory per stream: at most two chunks in flight between the
  worker and the socket buffer) without affecting other clients.
* **Cancellation** — a disconnected client turns the pending credit
  into a ``cancel``; the worker stops within one chunk and returns to
  the pool warm.  Deadlines and op budgets ride on the job itself
  (:mod:`repro.engine.jobs`) and stop streams server-side.
* **Warm replay** — completed enumerations land in the
  :class:`~repro.serve.store.ResultStore` (disk) and the
  :class:`~repro.engine.cache.InstanceCache` (memory) keyed by the
  isomorphism-stable instance digest, so a repeated — or *relabeled* —
  query replays the stored stream (translated to the caller's labels)
  without touching a worker.
* **Resumable streams** — a request may carry a ``stream_id``; the
  server checkpoints the delivered offset (and the solution prefix) on
  disconnect or completion, and a later request with the same
  ``stream_id`` resumes exactly where the stream stopped, **across
  server restarts**, because checkpoints live in the store.

The server binds ``port=0`` by default (ephemeral, for tests and
embedding); ``repro serve --port N`` runs it standalone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.capabilities import capability_matrix
from repro.engine.cache import InstanceCache, ResultCache
from repro.engine.cursor import StreamLedger, StreamPlan, read_checkpoint
from repro.engine.jobs import EnumerationJob
from repro.engine.suspend import snapshot_usable
from repro.exceptions import CursorStateError, InvalidInstanceError, ReproError
from repro.frontdoor.answers import AnswerEngine, AnswerTimeout
from repro.frontdoor.registry import DatasetError, DatasetRegistry
from repro.frontdoor.scheduling import PriorityGate
from repro.frontdoor.tenants import TenantRegistry
from repro.serve.httpd import (
    Disconnect,
    FrontDoor,
    Request,
    ServerThread as ServerThread,
    refuse,
    respond,
)
from repro.serve.protocol import FINAL_CHUNK, encode_event, response_head
from repro.serve.store import ResultStore, TieredCache
from repro.serve.workers import DEFAULT_CHUNK, WorkerDied, WorkerPool


@dataclass
class ServerStats:
    """Aggregate counters exposed at ``GET /stats``."""

    requests: int = 0
    streams: int = 0
    solutions: int = 0
    replays: int = 0
    live_runs: int = 0
    resumed: int = 0
    cancelled: int = 0
    errors: int = 0
    worker_replacements: int = 0  # crashed workers replaced mid-stream
    checkpoints: int = 0  # periodic mid-stream checkpoints written
    degraded_resumes: int = 0  # corrupt checkpoints degraded to fresh runs

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for JSON serving."""
        return dataclasses.asdict(self)


@dataclass
class _StreamState:
    """One in-flight stream: its ledger plus what serving it needs."""

    ledger: StreamLedger  # replay, known prefix, store-back, checkpoints
    stream_id: Optional[str]
    priority: int = 0  # tenant tier priority for worker-slot scheduling
    compute_seconds: float = 0.0  # accumulated worker-busy time (quota charge)


def _json_object(body: bytes) -> Dict[str, Any]:
    """A request body that must be one JSON object."""
    try:
        payload = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInstanceError(f"request body is not JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInstanceError("request body must be a JSON object")
    return payload


class EnumerationServer(FrontDoor):
    """The asyncio streaming service over a persistent worker pool.

    The listener, auth, quotas, the access log and the dataset endpoints
    come from :class:`~repro.serve.httpd.FrontDoor`; this tier adds
    ``/enumerate``, ``/answer``, ``/healthz``, ``/stats`` and
    ``/metrics``.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`port` after :meth:`start`).
    workers:
        Size of the persistent enumeration worker pool — the cap on
        concurrently *enumerating* streams (replayed streams don't
        occupy a worker).
    cache:
        The memory tier: an :class:`InstanceCache` (or another
        :class:`ResultCache` tier), ``None`` to build a default one, or
        ``False`` to disable it.
    store:
        A :class:`ResultStore`, a directory path to open one, or
        ``None`` to run memory-only (no persistence, no resumable
        streams across restarts).
    chunk:
        Solutions per flow-control chunk (the per-client queue bound).
    max_deadline:
        Server-side cap in seconds applied to every job's ``deadline``
        (jobs without one get exactly this allowance).
    registry:
        A :class:`DatasetRegistry`, a directory path to open one, or
        ``None`` to derive one from the store (``<store>/datasets``
        when a store is configured, memory-only otherwise).
    tenants:
        A :class:`TenantRegistry`, a directory path, or ``None`` to run
        without authentication/quotas.
    require_auth:
        Reject requests without a valid API key (``/healthz`` stays
        open).  Without it, keys are validated and accounted when
        presented but anonymous requests pass.
    warm:
        Warm the graphs + last compiled queries of this many of the
        most-queried datasets at startup (store-stats-driven).
    checkpoint_every:
        Write a mid-stream cursor checkpoint to the store every this
        many live solutions (``None`` checkpoints only at stream end /
        disconnect).  Periodic checkpoints are what make a SIGKILLed
        replica resumable: the fleet router migrates the stream to a
        surviving replica, which thaws the last checkpoint from the
        shared store instead of replaying from scratch.
    sndbuf:
        Bound each client connection's send-side buffering (kernel
        ``SO_SNDBUF`` + asyncio write buffer) to ~this many bytes.
        Loopback autotuning otherwise grows the buffers into the
        megabytes, letting a slow consumer hold whole streams in kernel
        memory while its worker free-runs; with the bound, ``drain()``
        tracks the consumer's pace and backpressure parks the worker at
        the credit wait.  ``None`` (default) keeps the OS sizing.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache: Union[ResultCache, None, bool] = None,
        store: Union[ResultStore, str, None] = None,
        chunk: int = DEFAULT_CHUNK,
        mp_context: Optional[str] = None,
        max_deadline: Optional[float] = None,
        registry: Union[DatasetRegistry, str, None] = None,
        tenants: Union[TenantRegistry, str, None] = None,
        require_auth: bool = False,
        warm: int = 0,
        checkpoint_every: Optional[int] = None,
        sndbuf: Optional[int] = None,
    ) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 (or None)")
        self.store: Optional[ResultStore]
        if isinstance(store, str):
            self.store = ResultStore(store)
        else:
            self.store = store
        if registry is None and self.store is not None:
            registry = os.path.join(self.store.root, "datasets")
        super().__init__(host, port, registry, tenants, require_auth, sndbuf)
        self.workers = workers
        self.chunk = chunk
        self.mp_context = mp_context
        self.max_deadline = max_deadline
        self.checkpoint_every = checkpoint_every
        self.stats = ServerStats()
        memory: Optional[InstanceCache]
        if cache is False:
            memory = None
        elif cache is None:
            memory = InstanceCache()
        else:
            memory = cache  # type: ignore[assignment]
        self.tier = TieredCache(memory, self.store)
        self.warm = warm
        self.answers = AnswerEngine(self.registry)
        self._pool: Optional[WorkerPool] = None
        self._answer_executor: Optional[ThreadPoolExecutor] = None
        self._gate: Optional[PriorityGate] = None
        self.route("/healthz", GET=lambda r: respond(r.writer, 200, {"ok": True}))
        self.route("/stats", GET=lambda r: respond(r.writer, 200, self._stats_payload()))
        self.route(
            "/metrics", GET=lambda r: respond(r.writer, 200, self._metrics_payload())
        )
        self.route("/enumerate", POST=self._enumerate)
        self.route("/answer", GET=self._answer, POST=self._answer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Spin up the worker pool and the executors."""
        # A disk-backed store doubles as the home of the zero-copy
        # instance arena: every worker — and every fleet replica sharing
        # the store directory — maps one spool copy per dataset.
        arena_dir = (
            os.path.join(self.store.root, "arena") if self.store is not None else None
        )
        self._pool = WorkerPool(
            self.workers, mp_context=self.mp_context, arena_dir=arena_dir
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers + 2, thread_name_prefix="repro-serve"
        )
        # /answer enumerations run in their own executor: a burst of
        # expensive answers must never pin the threads the /enumerate
        # streams (handle.recv) and quota admissions run on.  The
        # PriorityGate still bounds total concurrent enumeration work.
        self._answer_executor = ThreadPoolExecutor(
            max_workers=max(2, self.workers), thread_name_prefix="repro-answer"
        )
        self._gate = PriorityGate(self.workers)
        if self.warm > 0:
            warmed = self.answers.warm_popular(self.warm)
            if warmed:
                self.metrics.inc("datasets_warmed", len(warmed))

    async def _close(self) -> None:
        """Stop the worker pool and the answer executor."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._answer_executor is not None:
            self._answer_executor.shutdown(wait=False)
            self._answer_executor = None

    async def datasets_changed(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> None:
        """Spool a dataset the moment it is registered.

        Registration already computed its digest (which records the
        graph's base form) and its fingerprint repr; publishing the
        shared ``(edges, vertices)`` through the arena's ref memo here
        leaves the first query on it nothing to prepare on the server.
        """
        if method != "POST" or payload is None:
            return
        arena = self._pool.arena if self._pool is not None else None
        if arena is not None:
            arena.ref(*self.registry.instance(str(payload.get("name", ""))))

    # ------------------------------------------------------------------
    # /answer and the ops documents
    # ------------------------------------------------------------------
    async def _answer(self, request: Request) -> int:
        writer, tenant = request.writer, request.tenant
        started = time.perf_counter()
        count = 0
        compute_seconds = 0.0
        try:
            try:
                spec = self._parse_answer_request(
                    request.method, request.params, request.body
                )
                keywords = spec["keywords"]
                assert self._gate is not None and self._answer_executor is not None
                # /answer burns real enumeration CPU, so it takes a
                # worker-pool slot exactly like a live /enumerate stream
                # — priority-aware, with the same fairness hatch — and
                # runs under the server's deadline cap.
                priority = tenant.priority if tenant is not None else 0
                async with self._gate.slot(priority):
                    compute_started = time.perf_counter()
                    try:
                        payload = await asyncio.get_running_loop().run_in_executor(
                            self._answer_executor,
                            lambda: self.answers.answer(
                                str(spec.get("dataset", "")),
                                keywords,
                                k=int(spec.get("k", 5)),
                                model=str(spec.get("model", "degree")),
                                backend=str(spec.get("backend", "fast")),
                                deadline=self.max_deadline,
                            ),
                        )
                    finally:
                        compute_seconds = time.perf_counter() - compute_started
                count = int(payload.get("count", 0))
            except AnswerTimeout as exc:
                self.metrics.inc("answer_deadlines")
                return await refuse(writer, 503, str(exc), stop_reason="deadline")
            except DatasetError as exc:
                return await refuse(writer, 404, str(exc))
            except (
                json.JSONDecodeError,
                UnicodeDecodeError,
                TypeError,
                ValueError,
                ReproError,
            ) as exc:
                return await refuse(writer, 400, str(exc))
            self.metrics.observe("answer", time.perf_counter() - started)
            return await respond(writer, 200, payload)
        finally:
            # Charge what actually ran — a deadline abort burned CPU
            # too; delivered answers count toward the solutions quota.
            await self.record_usage(
                tenant, solutions=count, compute_seconds=compute_seconds
            )

    def _stats_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"ok": True, "workers": self.workers}
        payload.update(self.stats.as_dict())
        payload.update(self.tier.as_dict())
        # The per-kind capability matrix is the contract clients should
        # consult (see docs/contracts/capabilities.md).
        payload["capabilities"] = capability_matrix()
        payload["datasets"] = len(self.registry)
        return payload

    def _metrics_payload(self) -> Dict[str, Any]:
        """The structured ops document behind ``GET /metrics``."""
        payload: Dict[str, Any] = {"ok": True}
        payload.update(self.metrics.as_dict())
        payload["capabilities"] = capability_matrix()
        payload["tenants"] = (
            self.tenants.usage_table() if self.tenants is not None else {}
        )
        payload["scheduler"] = self._gate.as_dict() if self._gate is not None else {}
        payload["store"] = self.tier.as_dict()
        payload["answers"] = self.answers.as_dict()
        payload["datasets"] = {r.name: r.uses for r in self.registry.list()}
        payload["streams"] = self.stats.streams
        payload["solutions"] = self.stats.solutions
        payload["worker_replacements"] = self.stats.worker_replacements
        payload["errors"] = self.stats.errors
        return payload

    @staticmethod
    def _parse_answer_request(
        method: str, params: Dict[str, str], body: bytes
    ) -> Dict[str, Any]:
        """An ``/answer`` request as a spec whose ``keywords`` is a list.

        A POST carries a JSON object, a GET its query parameters.  Either
        names the keywords as ``keywords`` (a list, or one comma-separated
        string) or as ``q`` (comma-separated).  The fleet router parses
        with this too and forwards the spec, so both tiers accept the
        same requests.
        """
        spec = _json_object(body) if method == "POST" else dict(params)
        if "keywords" not in spec and "q" in spec:
            spec["keywords"] = spec.pop("q")
        keywords = spec.get("keywords") or []
        if isinstance(keywords, str):
            keywords = [kw for kw in keywords.split(",") if kw]
        spec["keywords"] = keywords
        return spec

    # ------------------------------------------------------------------
    # the /enumerate stream
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_enumerate_body(
        body: bytes,
    ) -> Tuple[Dict[str, Any], Optional[str], Optional[int], Optional[int]]:
        payload = _json_object(body)
        if "job" in payload:
            spec = payload["job"]
            stream_id = payload.get("stream_id")
            chunk = payload.get("chunk")
            offset = payload.get("offset")
        else:
            spec, stream_id, chunk, offset = payload, None, None, None
        if not isinstance(spec, dict):
            raise InvalidInstanceError("'job' must be a JSON object")
        if stream_id is not None and not isinstance(stream_id, str):
            raise InvalidInstanceError("'stream_id' must be a string")
        if chunk is not None:
            if not isinstance(chunk, int) or chunk < 1:
                raise InvalidInstanceError("'chunk' must be a positive integer")
        if offset is not None:
            if not isinstance(offset, int) or offset < 0:
                raise InvalidInstanceError("'offset' must be a non-negative integer")
        return spec, stream_id, chunk, offset

    def _apply_deadline_cap(self, job: EnumerationJob) -> EnumerationJob:
        cap = self.max_deadline
        if cap is None:
            return job
        if job.deadline is None or job.deadline > cap:
            return dataclasses.replace(job, deadline=cap)
        return job

    def _resume(
        self, job: EnumerationJob, stream_id: Optional[str], offset: Optional[int]
    ) -> Tuple[StreamLedger, StreamPlan, bool]:
        """The ledger and plan of a stream resumed from ``stream_id``'s
        checkpoint (fresh without one), and whether it counts as resumed.

        An explicit ``offset`` wins over the checkpoint's: the client
        knows exactly what it consumed (the server checkpoint can run
        ahead by in-flight bytes the client never read).  The worker
        reconciles the checkpoint's snapshot with it, and the
        checkpoint's digest stays behind unless it was taken there.  The
        record is validated by :func:`repro.engine.cursor.read_checkpoint`:
        a malformed one raises :class:`InvalidInstanceError`, one taken
        for a different job :class:`CursorStateError`.
        """
        record = None
        if stream_id is not None and self.store is not None:
            record = self.store.load_cursor(stream_id)
        position, snapshot, digest = 0, None, None
        if record is not None:
            checkpoint = read_checkpoint(record, job)
            position, digest = checkpoint.offset, checkpoint.digest
            snapshot = checkpoint.snapshot
            if snapshot is not None and not snapshot_usable(snapshot, job):
                # Damaged or cross-version: drop it here (header check
                # only) so the worker fast-forwards and the next
                # checkpoint does not re-issue it.
                snapshot = None
        if offset is not None and offset != position:
            position, digest = offset, None
        ledger = StreamLedger(job, self.tier, position, snapshot, digest)
        return ledger, ledger.plan(), record is not None or position > 0

    async def _enumerate(self, request: Request) -> int:
        writer, tenant = request.writer, request.tenant
        started = time.perf_counter()
        try:
            spec, stream_id, chunk_override, explicit_offset = self._parse_enumerate_body(
                request.body
            )
            spec = self.registry.resolve_spec(spec)
            job = EnumerationJob.from_dict(spec)
            job = self._apply_deadline_cap(job)
            try:
                ledger, plan, resumed = self._resume(job, stream_id, explicit_offset)
            except (InvalidInstanceError, CursorStateError):
                if explicit_offset is None:
                    raise
                # The caller pinned the exact resume position, so a
                # corrupt or mismatched checkpoint is not fatal: run
                # fresh and fast-forward to the requested offset.  The
                # fleet router always migrates with an explicit offset,
                # which is what makes store corruption survivable.
                self.stats.degraded_resumes += 1
                self.metrics.inc("degraded_resumes")
                ledger, plan, resumed = self._resume(job, None, explicit_offset)
        except (InvalidInstanceError, ReproError) as exc:
            self.stats.errors += 1
            return await refuse(writer, 400, str(exc))
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            self.stats.errors += 1
            return await refuse(writer, 500, f"{type(exc).__name__}: {exc}")
        self.stats.streams += 1
        if resumed:
            self.stats.resumed += 1
        chunk = chunk_override or self.chunk
        state = _StreamState(
            ledger, stream_id, priority=tenant.priority if tenant is not None else 0
        )

        writer.write(response_head(200, "application/x-ndjson"))
        try:
            try:
                await self._run_stream(state, plan, chunk, writer)
            except Disconnect:
                self.stats.cancelled += 1
                self._finish_stream(state)  # checkpoint what was delivered
                raise
            except WorkerDied as exc:
                self.stats.errors += 1
                # Persist what was soundly delivered (prefix + checkpoint)
                # so a resume after the failure does not restart from
                # scratch.
                self._finish_stream(state)
                await self._write_event(writer, {"event": "error", "error": str(exc)})
                writer.write(FINAL_CHUNK)
                await writer.drain()
                return 200
            writer.write(FINAL_CHUNK)
            await writer.drain()
            return 200
        finally:
            elapsed = time.perf_counter() - started
            self.metrics.observe(job.kind, elapsed)
            # Solutions delivered + compute seconds land in the same
            # sliding window the admission check reads, so the next
            # request sees them (429 once the caps are consumed).
            # compute_seconds is accumulated worker-busy time, not wall
            # clock: queueing behind other tenants in the gate or a
            # slow-reading client must not eat the tenant's quota.
            await self.record_usage(
                tenant,
                solutions=max(0, ledger.position - ledger.start),
                compute_seconds=state.compute_seconds,
            )

    async def _run_stream(
        self, state: _StreamState, plan: StreamPlan, chunk: int, writer
    ) -> None:
        ledger = state.ledger
        job = ledger.job
        await self._write_event(
            writer,
            {
                "event": "accepted",
                "id": job.job_id,
                "kind": job.kind,
                "offset": ledger.start,
                "source": plan.source,
            },
        )
        # Replays have no worker pacing to respect; batch writes harder
        # (drain() still applies socket backpressure per batch).
        step = max(chunk, 256)
        for start in range(ledger.start, plan.replay_to, step):
            stop = min(start + step, plan.replay_to)
            await self._emit(
                writer, ledger, ledger.lines[start:stop], ledger.structures[start:stop]
            )
        if plan.live_from is None:
            self.stats.replays += 1
        else:
            ledger.live = True
            self.stats.live_runs += 1
            await self._stream_live(writer, state, plan, chunk)
        self._finish_stream(state)
        await self._write_end(writer, state)

    # ------------------------------------------------------------------
    # stream segments
    # ------------------------------------------------------------------
    async def _write_event(self, writer, event: Dict[str, Any]) -> None:
        if writer.is_closing():
            raise Disconnect
        writer.write(encode_event(event))
        try:
            await writer.drain()
        except (ConnectionError, OSError) as exc:
            raise Disconnect from exc

    async def _emit(self, writer, ledger: StreamLedger, lines, structures) -> None:
        """Write the solution events at the ledger's position and deliver them."""
        if writer.is_closing():
            raise Disconnect
        out = bytearray()
        for seq, line in enumerate(lines, ledger.position):
            out += encode_event({"event": "solution", "seq": seq, "line": line})
        ledger.deliver(lines, structures)
        self.stats.solutions += len(lines)
        writer.write(bytes(out))
        try:
            await writer.drain()
        except (ConnectionError, OSError) as exc:
            raise Disconnect from exc

    async def _stream_live(
        self, writer, state: _StreamState, plan: StreamPlan, chunk: int
    ) -> None:
        """Drive one worker stream; crashed workers are replaced in place.

        Workers ship a search-state snapshot with every chunk, so when
        a worker process dies mid-stream the replacement thaws the
        freshest snapshot held — the last chunk's, else the one the
        stream resumed from — and fast-forwards any gap to the last
        delivered position; the client sees an uninterrupted solution
        stream.  Without any snapshot the replacement fast-forwards
        from the start.

        Each worker leg is charged the busy time its worker reports
        with every message (wall time minus the waits for credits and
        pipe room).  Time queued in the gate or blocked on a
        slow-reading client burns no worker and is free; only a leg
        whose worker died before reporting is charged its recv waits
        instead.
        """
        assert self._pool is not None and self._gate is not None
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        ledger = state.ledger
        position = plan.live_from
        assert position is not None
        cadence = self.checkpoint_every
        if state.stream_id is None or self.store is None:
            cadence = None  # nowhere (or no identity) to checkpoint under
        next_checkpoint = position + cadence if cadence is not None else None
        snapshot = freshest = plan.snapshot
        replacements = 0
        async with self._gate.slot(state.priority):
            while True:  # one iteration per worker (original + replacements)
                handle = self._pool.acquire()
                busy: Optional[float] = None  # the worker's last report
                waited = 0.0
                try:
                    handle.start_stream(ledger.job, position, chunk, snapshot)
                    while True:
                        recv_started = time.perf_counter()
                        msg = await loop.run_in_executor(self._executor, handle.recv)
                        waited += time.perf_counter() - recv_started
                        if msg[0] == "chunk":
                            lines, structures, snap, busy = msg[1:]
                            # Known and frozen now, even if the client
                            # disconnects mid-write below.
                            ledger.know(position, lines, structures)
                            position += len(lines)
                            ledger.freeze(snap, position)
                            if snap is not None:
                                freshest = snap
                            try:
                                await self._emit(writer, ledger, lines, structures)
                            except Disconnect:
                                handle.cancel()
                                meta = await loop.run_in_executor(
                                    self._executor, handle.drain_to_end
                                )
                                if meta is not None:
                                    busy = meta["busy"]
                                raise
                            handle.credit()
                            if (
                                next_checkpoint is not None
                                and position >= next_checkpoint
                            ):
                                # Credit first: the checkpoint write
                                # overlaps the worker computing ahead
                                # instead of stalling it.
                                await self._checkpoint_midstream(state)
                                next_checkpoint = position + cadence
                        elif msg[0] == "end":
                            meta = msg[1]
                            busy = meta["busy"]
                            if meta.get("error"):
                                raise WorkerDied(meta["error"])
                            ledger.exhausted = bool(meta.get("exhausted"))
                            ledger.stop_reason = meta.get("stop_reason")
                            ledger.freeze(meta.get("snapshot"), position)
                            return
                except WorkerDied:
                    if handle.alive or replacements >= 2:
                        # A job-level error (deterministic) or too many
                        # process deaths: surface it.
                        raise
                    replacements += 1
                    self.stats.worker_replacements += 1
                    # Retry on a fresh worker from the freshest snapshot
                    # held; it thaws one behind `position` and
                    # fast-forwards the gap.
                    snapshot = freshest
                    continue
                finally:
                    state.compute_seconds += waited if busy is None else busy
                    if self._pool is not None:
                        self._pool.release(handle)
                    else:  # pragma: no cover - server stopped mid-stream
                        handle.close()

    async def _checkpoint_midstream(self, state: _StreamState) -> None:
        """Persist a cursor at the current chunk boundary (off the loop).

        Cheap on purpose — no tier store, and the ledger hashes each
        line once — just the job + offset + prefix digest (+ the search
        snapshot frozen at exactly this boundary), which is everything a
        surviving replica needs to thaw the stream after this process is
        SIGKILLed mid-stream.  The payload is captured synchronously;
        only the atomic disk write runs in the executor.
        """
        assert self.store is not None and state.stream_id is not None
        store, stream_id, record = self.store, state.stream_id, state.ledger.record()
        await self.offload(store.save_cursor, stream_id, record)
        self.stats.checkpoints += 1

    # ------------------------------------------------------------------
    # completion: persist results + checkpoints
    # ------------------------------------------------------------------
    def _finish_stream(self, state: _StreamState) -> None:
        """Store the known prefix back and update the stream's checkpoint."""
        ledger = state.ledger
        ledger.store_back()
        if state.stream_id is None or self.store is None:
            return
        if ledger.exhausted:
            self.store.drop_cursor(state.stream_id)
        else:
            self.store.save_cursor(state.stream_id, ledger.record())

    async def _write_end(self, writer, state: _StreamState) -> None:
        ledger = state.ledger
        await self._write_event(
            writer,
            {
                "event": "end",
                "count": ledger.position - ledger.start,
                "total": ledger.position,
                "exhausted": ledger.exhausted,
                "stop_reason": ledger.stop_reason,
                "cached": not ledger.live,
                # Worker-busy time for this stream: the fleet router
                # reads this to charge the owning tenant fleet-wide.
                "compute_seconds": round(state.compute_seconds, 6),
            },
        )

