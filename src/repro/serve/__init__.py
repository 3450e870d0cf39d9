"""Streaming enumeration service: async server, worker pool, result store.

This package turns :mod:`repro.engine` into a network service:

* :class:`ResultStore` (:mod:`repro.serve.store`) — a disk-backed result
  store keyed by the engine's isomorphism-stable instance digest, with
  cursor checkpoints that survive process restarts.  It is the disk
  tier of :class:`repro.engine.cache.ResultCache`, and a result cache
  itself, so cursors and the batch pool accept it as they accept an
  :class:`repro.engine.cache.InstanceCache`; :class:`TieredCache` puts
  the two tiers together.
* :class:`WorkerPool` (:mod:`repro.serve.workers`) — a persistent pool
  of enumeration worker processes streaming solution chunks back over
  pipes with credit-based flow control and cooperative cancellation.
* :class:`EnumerationServer` (:mod:`repro.serve.server`) — an asyncio
  HTTP/1.1 endpoint (``POST /enumerate``) that streams newline-
  delimited JSON events with per-client backpressure, replays
  warm-store hits without re-enumerating, and checkpoints interrupted
  streams for resumption.
* :class:`~repro.serve.httpd.FrontDoor` (:mod:`repro.serve.httpd`) — the
  HTTP front door the server and the fleet router share: listener,
  auth and quotas, route table, access log and dataset endpoints.
  :class:`ServerThread` runs either tier on a background event loop.
* :class:`ServeClient` (:mod:`repro.serve.client`) — a blocking
  stdlib-only client used by ``repro client``, the tests, and the
  benchmarks.

See ``docs/guides/serve.md`` for the architecture walkthrough and the
wire protocol reference.
"""

from repro.serve.client import ServeClient
from repro.serve.httpd import ServerThread
from repro.serve.server import EnumerationServer
from repro.serve.store import ResultStore, TieredCache
from repro.serve.workers import WorkerPool

__all__ = [
    "EnumerationServer",
    "ResultStore",
    "ServeClient",
    "ServerThread",
    "TieredCache",
    "WorkerPool",
]
