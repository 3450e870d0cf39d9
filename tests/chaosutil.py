"""Deterministic chaos harness for the serve-fleet test wall.

:class:`FleetHarness` stands up a real fleet — an embedded
:class:`~repro.serve.fleet.router.FleetRouter` fronting N ``repro
serve`` **subprocess** replicas sharing one store directory — and
exposes seeded fault-injection primitives:

* :meth:`kill_replica` — ``SIGKILL`` (no shutdown hooks, no final
  checkpoint: a crashed host);
* :meth:`restart_router` — tear the router down mid-fleet and bring a
  fresh one up over the same replicas (routing must be reproducible
  across the restart);
* :meth:`corrupt_cursor` — scribble garbage over a stream's checkpoint
  file in the shared store;
* :meth:`spawn_replica` — grow the fleet.

Every random choice flows from one :class:`random.Random` seeded by
:func:`chaos_seed`, so a failing schedule replays exactly:
``CHAOS_SEED=<printed seed> pytest tests/test_fleet_chaos.py``.
Always include :attr:`FleetHarness.seed` in assertion messages (see
:meth:`FleetHarness.note`) — CI prints it on failure.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional

from repro.serve.client import ServeClient
from repro.serve.fleet import (
    FleetRouter,
    ReplicaProcess,
    join_router,
    routing_key,
)
from repro.serve.server import ServerThread

#: Default seed when ``CHAOS_SEED`` is unset — fixed so plain CI runs
#: are reproducible; override the env var to replay a failure.
DEFAULT_CHAOS_SEED = 20220822


def chaos_seed(default: Optional[int] = None) -> int:
    """The chaos seed for this run (``CHAOS_SEED`` env override wins)."""
    raw = os.environ.get("CHAOS_SEED")
    if raw:
        return int(raw)
    return DEFAULT_CHAOS_SEED if default is None else default


class FleetHarness:
    """A live fleet with seeded fault injection (context manager).

    Parameters
    ----------
    store:
        The shared store directory (use ``tmp_path``); created if
        missing.
    replicas:
        Subprocess replica count to start with.
    seed:
        Chaos seed; defaults to :func:`chaos_seed` (``CHAOS_SEED``
        env override, else a fixed default).
    checkpoint_every, chunk, workers:
        Forwarded to every replica.  Small values on purpose: frequent
        chunk boundaries give migration many valid cut points.
    rate, burst, max_streams, per_client_streams, tenants, require_auth:
        Router admission / auth knobs.
    """

    def __init__(
        self,
        store: str,
        replicas: int = 2,
        seed: Optional[int] = None,
        checkpoint_every: int = 2,
        chunk: int = 2,
        workers: int = 1,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_streams: int = 64,
        per_client_streams: int = 8,
        tenants: Optional[str] = None,
        require_auth: bool = False,
        health_interval: float = 0.2,
        vnodes: int = 32,
    ) -> None:
        self.store = str(store)
        os.makedirs(self.store, exist_ok=True)
        self.registry_dir = os.path.join(self.store, "datasets")
        self.seed = chaos_seed(seed) if seed is None else seed
        self.rng = random.Random(self.seed)
        self.checkpoint_every = checkpoint_every
        self.chunk = chunk
        self.workers = workers
        self._router_config = dict(
            vnodes=vnodes,
            registry=self.registry_dir,
            tenants=tenants,
            require_auth=require_auth,
            max_streams=max_streams,
            per_client_streams=per_client_streams,
            rate=rate,
            burst=burst,
            health_interval=health_interval,
        )
        self.initial_replicas = replicas
        self.replicas: Dict[str, ReplicaProcess] = {}
        self.router: Optional[FleetRouter] = None
        self._thread: Optional[ServerThread] = None
        self._next_index = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetHarness":
        """Bring up the router, then the replicas, then join them."""
        self.router = FleetRouter(**self._router_config)
        self._thread = ServerThread(self.router).start()
        for _ in range(self.initial_replicas):
            self.spawn_replica()
        return self

    def stop(self) -> None:
        """Kill every replica and stop the router."""
        for proc in self.replicas.values():
            proc.kill()
        self.replicas.clear()
        if self._thread is not None:
            self._thread.stop()
            self._thread = None
        self.router = None

    def __enter__(self) -> "FleetHarness":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The router's current port (changes across restart_router)."""
        assert self._thread is not None, "harness not started"
        return self._thread.port

    @property
    def url(self) -> str:
        """The router's base URL."""
        return f"http://127.0.0.1:{self.port}"

    def client(self, api_key: Optional[str] = None) -> ServeClient:
        """A client pointed at the router."""
        return ServeClient(port=self.port, api_key=api_key)

    def note(self, message: str = "") -> str:
        """Seed-stamped context for assertion messages."""
        suffix = f" [replay with CHAOS_SEED={self.seed}]"
        return message + suffix if message else suffix.strip()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def spawn_replica(self, name: Optional[str] = None) -> str:
        """Start one subprocess replica and register it with the router.

        The join runs from the harness (not ``--join``) so membership
        is fully established when this returns — no startup races in
        the seeded schedules.
        """
        if name is None:
            name = f"chaos-{self._next_index}"
            self._next_index += 1
        proc = ReplicaProcess(
            name,
            store=self.store,
            registry=self.registry_dir,
            workers=self.workers,
            chunk=self.chunk,
            checkpoint_every=self.checkpoint_every,
        )
        proc.start()
        self.replicas[name] = proc
        assert proc.port is not None
        join_router(self.url, name, "127.0.0.1", proc.port)
        return name

    def running_replicas(self) -> List[str]:
        """Names of replicas whose processes are alive, sorted."""
        return sorted(n for n, p in self.replicas.items() if p.running)

    def owner_of(self, spec: Dict) -> Optional[str]:
        """Which replica the router currently routes ``spec`` to."""
        assert self.router is not None
        return self.router.ring.route(routing_key(spec, self.router.registry))

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def kill_replica(self, name: Optional[str] = None) -> str:
        """SIGKILL one running replica; seeded-random unless named."""
        running = self.running_replicas()
        assert running, self.note("no running replica to kill")
        if name is None:
            name = self.rng.choice(running)
        self.replicas[name].kill()
        return name

    def restart_router(self) -> int:
        """Stop the router and start a fresh one over the live replicas.

        The new router rebuilds its ring from the same replica set, so
        placement (pure SHA-256, no process state) must come out
        identical — pinned by the routing-stability tests.  Returns the
        new port (ephemeral binding: it changes).
        """
        assert self._thread is not None
        self._thread.stop()
        self.router = FleetRouter(**self._router_config)
        self._thread = ServerThread(self.router).start()
        for name in self.running_replicas():
            proc = self.replicas[name]
            assert proc.port is not None
            join_router(self.url, name, "127.0.0.1", proc.port)
        return self.port

    def corrupt_cursor(self, stream_id: str) -> bool:
        """Overwrite ``stream_id``'s checkpoint file with garbage bytes.

        Uses seeded randomness for the garbage; True when a checkpoint
        file existed to corrupt.
        """
        from repro.serve.store import ResultStore

        path = ResultStore(self.store)._cursor_path(stream_id)
        if not os.path.exists(path):
            return False
        garbage = bytes(self.rng.randrange(256) for _ in range(64))
        with open(path, "wb") as handle:
            handle.write(b"\x00corrupt\x00" + garbage)
        return True

    def wait_for_checkpoint(self, stream_id: str, timeout: float = 30.0) -> None:
        """Block until a checkpoint for ``stream_id`` exists on disk."""
        from repro.serve.store import ResultStore

        path = ResultStore(self.store)._cursor_path(stream_id)
        deadline = time.monotonic() + timeout
        while not os.path.exists(path):
            assert time.monotonic() < deadline, self.note(
                f"no checkpoint for {stream_id!r} within {timeout:g}s"
            )
            time.sleep(0.01)
