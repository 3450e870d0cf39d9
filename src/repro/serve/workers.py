"""Persistent enumeration workers streaming solution chunks over pipes.

The serving layer needs incremental results (a request must start
streaming before the enumeration finishes), which the batch pool's
run-to-completion workers cannot provide.  :class:`WorkerPool` keeps
``workers`` long-lived processes, each on a duplex pipe, speaking a
tiny credit-based protocol:

==========================================  ==========================================
parent → worker                             worker → parent
==========================================  ==========================================
``("run", spec, offset, chunk, snapshot)``  ``("chunk", lines, structures, snap, busy)``
``("more",)``  (flow credit)                ``("end", meta)``
``("cancel",)``                             —
``("quit",)``                               —
==========================================  ==========================================

The worker sends the first solution of a run as a chunk of its own, so
a client sees it after one delay instead of ``chunk`` delays, and then
every ``chunk`` solutions.  The server answers each chunk with a credit
(``more``) once it has written it.  The worker may run :data:`WINDOW`
chunks ahead of those credits: after each send it takes the credits
that already arrived without blocking, and it **blocks for a credit
only while two chunks are unacknowledged**.  So it computes the next
chunk while the server writes the last one, and a slow consumer still
parks it after two chunks — the bounded per-stream queue the server's
backpressure rests on.  A ``cancel`` (the server's answer to a client
that went away) is read at the next send or at the credit wait, so it
stops the run within one chunk of computation; the worker abandons the
enumeration and returns to its idle loop, ready for the next job — no
process churn.  ``busy`` (and ``meta["busy"]``) is the worker's wall
time so far minus the time it spent blocked on the server (waiting for
a credit, or for room in the pipe): the compute the server charges to
the stream's tenant.

Resumable streams: the ``run`` message may carry a serialized
search-state ``snapshot`` (:mod:`repro.engine.suspend`) — the worker
thaws it and continues in O(state) instead of fast-forwarding, and
every ``chunk``, the one-solution first chunk included, carries a
fresh snapshot of the state *after* that chunk (the clean-``end`` meta
reuses the last one), which is what lets the server checkpoint streams
for O(state) resume and transparently replace a crashed worker
mid-stream.  Without a snapshot, ``offset`` fast-forwards past the
first ``offset`` solutions of the (deterministic) enumeration without
rendering them.  The stream runs as one
:class:`repro.engine.suspend.Segment`, the execution envelope shared
with :func:`repro.engine.jobs.run_job` and
:class:`repro.engine.cursor.EnumerationCursor`; the worker's own rule
is to degrade a snapshot it cannot use (damaged, written by another
Python, bound to another job, or past ``offset``) to a restart plus
fast-forward instead of failing the stream.

A worker that dies mid-stream (OOM-killed, crashed) surfaces as a
:class:`WorkerDied` to the caller and is replaced by a fresh process;
the server restarts the stream on the replacement from the freshest
snapshot it holds.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.reduction import ForkingPickler
from typing import Any, Dict, Optional, Tuple

from repro.engine.jobs import EnumerationJob
from repro.engine.suspend import Segment

#: Default number of solutions per streamed chunk.
DEFAULT_CHUNK = 64

#: Chunks a worker may send ahead of the server's credits.
WINDOW = 2


def _stream_job(
    conn,
    spec: Dict[str, Any],
    offset: int,
    chunk: int,
    snapshot: Optional[bytes] = None,
) -> None:
    """Run one streaming enumeration on the worker side of ``conn``."""
    start = time.perf_counter()
    blocked = 0.0  # seconds spent waiting for credits or pipe room
    unacked = 0  # chunks sent and not yet credited
    segment: Optional[Segment] = None
    delivered = 0
    error: Optional[str] = None
    cancelled = False
    buf_lines: list = []
    buf_structures: list = []
    last_snap: list = [None, -1]  # [blob, stream position] from flush()

    def busy() -> float:
        return round(time.perf_counter() - start - blocked, 6)

    def flush() -> bool:
        """Send the buffered chunk; False when the stream was cancelled."""
        nonlocal blocked, unacked
        if not buf_lines:
            return True
        snap = segment.snapshot() if error is None else None
        if snap is not None:
            last_snap[0], last_snap[1] = snap, segment.position
        data = ForkingPickler.dumps(("chunk", buf_lines, buf_structures, snap, busy()))
        buf_lines.clear()
        buf_structures.clear()
        # A chunk ahead of the server can wait for room in the pipe.
        waited = time.perf_counter()
        conn.send_bytes(data)
        blocked += time.perf_counter() - waited
        unacked += 1
        # Take the credits that already arrived; wait only on a full window.
        while unacked >= WINDOW or conn.poll():
            waited = time.perf_counter()
            msg = conn.recv()
            blocked += time.perf_counter() - waited
            if msg[0] == "cancel":
                return False
            unacked -= 1
        return True

    try:
        if "arena" in spec:
            from repro.serve import arena as _arena

            spec = _arena.resolve_spec(spec)
        # Fleet migration thaws checkpoints written by other replicas:
        # a snapshot this worker cannot use degrades to a fast-forward.
        job = EnumerationJob.from_dict(spec)
        segment = Segment(job, offset, snapshot, degrade=True)
        for line, structure in segment:
            buf_lines.append(line)
            buf_structures.append(structure)
            delivered += 1
            # The first solution goes out alone: time to first solution
            # is one delay, not `chunk` of them.
            if (delivered == 1 or len(buf_lines) >= chunk) and not flush():
                cancelled = True
                break
    except Exception as exc:  # noqa: BLE001 — a bad job must not kill the worker
        error = f"{type(exc).__name__}: {exc}"
    try:
        if not cancelled and segment is not None:
            cancelled = not flush()
        final_snap = None
        # drain_to_end discards a cancelled stream's meta, and a budget
        # abort leaves no clean state to end on.
        if error is None and not cancelled and segment.clean:
            # The final flush usually froze the state at this exact
            # position already; reuse it instead of re-serializing.
            if last_snap[1] == segment.position:
                final_snap = last_snap[0]
            else:
                final_snap = segment.snapshot()
        if cancelled:
            stop_reason: Optional[str] = "cancelled"
        elif error is not None:
            stop_reason = "error"
        else:
            stop_reason = segment.stop_reason
        conn.send(
            (
                "end",
                {
                    "delivered": delivered,
                    "exhausted": error is None and segment.exhausted,
                    "stop_reason": stop_reason,
                    "ops": segment.meter.count if segment is not None else 0,
                    "elapsed": round(time.perf_counter() - start, 6),
                    "busy": busy(),
                    "error": error,
                    "snapshot": final_snap,
                },
            )
        )
    except (EOFError, OSError):
        return  # the parent went away; the idle loop will see EOF too


def _worker_main(conn, server_end) -> None:
    """Worker process loop: serve ``run`` requests until ``quit``/EOF.

    ``server_end`` is the server's end of the pipe, which a forked child
    inherits.  Once this worker closes its copy, the server's exit —
    SIGKILL included — reads here as EOF, and the worker exits instead
    of living on as an orphan.

    The loop ignores any other message.  That is what keeps the credits
    and the cancel of a finished stream out of the next one: a run may
    send ``end`` with chunks still unacknowledged, and their late
    ``more`` (or a ``cancel`` that crossed the ``end``) arrive here,
    before the next ``run``.
    """
    server_end.close()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "quit":
            return
        if msg[0] == "ping":
            conn.send(("pong", os.getpid()))
            continue
        if msg[0] == "run":
            _, spec, offset, chunk, snapshot = msg
            _stream_job(conn, spec, offset, chunk, snapshot)


class WorkerDied(RuntimeError):
    """The worker process exited while a stream was in flight."""


class WorkerHandle:
    """One pooled worker process and its parent-side pipe end."""

    def __init__(self, ctx, arena=None) -> None:
        self._ctx = ctx
        self.arena = arena
        parent, child = ctx.Pipe(duplex=True)
        self.conn = parent
        self.process = ctx.Process(
            target=_worker_main, args=(child, parent), daemon=True
        )
        self.process.start()
        child.close()
        self.failed = False

    # -- blocking half: the server calls these through an executor -----
    def start_stream(
        self,
        job: EnumerationJob,
        offset: int,
        chunk: int,
        snapshot: Optional[bytes] = None,
    ) -> None:
        """Dispatch a streaming run to this worker.

        ``snapshot`` thaws the enumeration at ``offset`` in O(state)
        instead of fast-forwarding.  With an arena attached,
        integer-compact instances travel as a spool-file ref instead of
        an inline edge list — the worker maps the spool read-only, so
        repeated streams of one dataset share a single physical copy
        across every worker (and fleet replica) on the machine.  The
        arena remembers each instance's ref, so a repeated graph costs
        the query fields alone.  A worker that died while idle raises
        :class:`WorkerDied`.
        """
        ref = self.arena.ref(job.edges, job.vertices) if self.arena is not None else None
        if ref is None:
            spec = job.to_dict()
        else:
            spec = job.to_dict(instance=False)
            spec["arena"] = ref
        try:
            self.conn.send(("run", spec, offset, chunk, snapshot))
        except OSError as exc:
            self.failed = True
            raise WorkerDied(f"worker pid={self.process.pid} is gone") from exc

    def recv(self) -> Tuple[Any, ...]:
        """Receive the next protocol message (raises :class:`WorkerDied`)."""
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            self.failed = True
            raise WorkerDied(f"worker pid={self.process.pid} died mid-stream") from exc

    def credit(self) -> None:
        """Grant the worker one more chunk of flow-control credit."""
        self._send(("more",))

    def cancel(self) -> None:
        """Ask the worker to abandon the in-flight stream."""
        self._send(("cancel",))

    def drain_to_end(self) -> Optional[Dict[str, Any]]:
        """Consume messages until ``end`` so the worker is idle again.

        The worker reads every message at each send and at the credit
        wait, so one ``cancel`` ends the run: the chunks before its
        ``end`` are skipped.
        """
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                self.failed = True
                return None
            if msg[0] == "end":
                return msg[1]

    def _send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self.failed = True

    def close(self) -> None:
        """Shut the worker down (gracefully, then forcibly)."""
        self._send(("quit",))
        self.process.join(timeout=2)
        if self.process.is_alive():  # pragma: no cover - graceful quit suffices
            self.process.terminate()
            self.process.join(timeout=2)
        self.conn.close()

    @property
    def alive(self) -> bool:
        """True while the worker process is healthy."""
        return not self.failed and self.process.is_alive()


class WorkerPool:
    """A fixed-size pool of persistent streaming workers.

    Parameters
    ----------
    workers:
        Process count; each serves one stream at a time.
    mp_context:
        Multiprocessing start method (default: fork where available —
        workers inherit the warm interpreter).
    arena_dir:
        Optional spool directory for the zero-copy instance arena
        (:mod:`repro.serve.arena`).  When set, integer-compact
        instances are shipped to workers as mmap-backed spool refs
        instead of inline edge lists.

    The pool is synchronous (``acquire`` blocks); the asyncio server
    wraps acquisition and the per-message ``recv`` in its executor.  A
    worker returned in a failed state is replaced transparently.
    """

    def __init__(
        self,
        workers: int = 2,
        mp_context: Optional[str] = None,
        arena_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self.size = workers
        self.arena = None
        if arena_dir is not None:
            from repro.serve.arena import InstanceArena

            self.arena = InstanceArena(arena_dir)
        self._idle: list = [
            WorkerHandle(self._ctx, arena=self.arena) for _ in range(workers)
        ]
        self._all: list = list(self._idle)
        self._closed = False

    def acquire(self) -> WorkerHandle:
        """Take an idle worker (caller must :meth:`release` it); one that
        died while idle is replaced first."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if not self._idle:
            raise RuntimeError("no idle worker (acquire/release imbalance)")
        return self._healthy(self._idle.pop())

    def release(self, handle: WorkerHandle) -> None:
        """Return ``handle`` to the pool, replacing it if it failed."""
        if self._closed:
            handle.close()
            return
        self._idle.append(self._healthy(handle))

    def _healthy(self, handle: WorkerHandle) -> WorkerHandle:
        """``handle``, or a fresh worker in its place when it failed."""
        if handle.alive:
            return handle
        try:
            handle.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass
        if handle in self._all:
            self._all.remove(handle)
        handle = WorkerHandle(self._ctx, arena=self.arena)
        self._all.append(handle)
        return handle

    def _all_handles(self) -> list:
        """Every live handle, busy ones included (introspection/tests)."""
        return list(self._all)

    def close(self) -> None:
        """Terminate every pooled worker."""
        self._closed = True
        while self._idle:
            self._idle.pop().close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
