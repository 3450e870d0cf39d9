"""Router-side admission control: rate limits + fair stream slots.

Tenant quotas (:mod:`repro.frontdoor.tenants`) meter *aggregate* usage
over a sliding window; the fleet router additionally needs to protect
itself from instantaneous abuse — one client opening hundreds of
concurrent streams or hammering requests in a tight loop — without a
well-behaved client ever noticing.  :class:`AdmissionController`
combines the two guards the tentpole calls for:

* **Per-client rate limiting** — a token bucket per client key
  (API key, else the peer address).  Refill is continuous; an empty
  bucket rejects with :class:`RateLimitExceeded` carrying the exact
  ``retry_after`` until one token regenerates (the router maps it to
  ``429`` + ``Retry-After``).
* **Fair backpressure across concurrent streams** — a bounded pool of
  stream slots (global and per-client caps).  Waiters queue *per
  client* and freed slots are granted **round-robin across clients**,
  so a client with fifty queued streams cannot starve a client with
  one: each release serves the next client in rotation, FIFO within a
  client.

The controller is deterministic given its clock — tests inject a fake
``clock`` and drive refills explicitly, which is what keeps the chaos
wall's rate-limit schedules seed-reproducible.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional

from repro.frontdoor.tenants import QuotaExceeded


class RateLimitExceeded(QuotaExceeded):
    """The client's token bucket is empty; retry after ``retry_after``.

    A :class:`QuotaExceeded`, so the front door answers it with the
    same ``429`` and ``Retry-After``.
    """


class _Bucket:
    """One client's token bucket (continuous refill)."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, tokens: float, stamp: float) -> None:
        self.tokens = tokens
        self.stamp = stamp


class _StreamSlot:
    """``async with`` context holding one admitted stream slot."""

    __slots__ = ("_controller", "_client")

    def __init__(self, controller: "AdmissionController", client: str) -> None:
        self._controller = controller
        self._client = client

    async def __aenter__(self) -> None:
        await self._controller.acquire_stream(self._client)

    async def __aexit__(self, *exc: Any) -> None:
        self._controller.release_stream(self._client)


class AdmissionController:
    """Rate limits + fair concurrent-stream admission for the router.

    Parameters
    ----------
    max_streams:
        Concurrent proxied streams across all clients (the global slot
        pool).
    per_client_streams:
        Concurrent streams any single client may hold.
    rate:
        Sustained requests/second per client; ``None`` disables rate
        limiting entirely.
    burst:
        Bucket capacity — how many requests a client may fire
        back-to-back before the sustained rate applies (defaults to
        ``max(1, 2 * rate)``).
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        max_streams: int = 64,
        per_client_streams: int = 8,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        if per_client_streams < 1:
            raise ValueError("per_client_streams must be >= 1")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None)")
        self.max_streams = max_streams
        self.per_client_streams = per_client_streams
        self.rate = rate
        self.burst = float(burst if burst is not None else max(1.0, 2 * (rate or 1)))
        self._clock = clock
        self._buckets: Dict[str, _Bucket] = {}
        self._free = max_streams
        self._held: Dict[str, int] = {}
        # client -> FIFO of waiter futures; _rotation orders the clients.
        self._queues: Dict[str, List[asyncio.Future]] = {}
        self._rotation: List[str] = []
        self.rejected_rate = 0
        self.granted = 0
        self.fairness_rotations = 0

    # ------------------------------------------------------------------
    # rate limiting
    # ------------------------------------------------------------------
    def check_rate(self, client: str) -> None:
        """Spend one request token for ``client`` (raises when empty)."""
        if self.rate is None:
            return
        now = self._clock()
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = _Bucket(self.burst, now)
            if len(self._buckets) > 4096:
                # Drop the stalest buckets; a re-appearing client just
                # starts from a full (most permissive) bucket again.
                for stale in sorted(self._buckets, key=lambda c: self._buckets[c].stamp)[
                    :1024
                ]:
                    del self._buckets[stale]
        bucket.tokens = min(self.burst, bucket.tokens + (now - bucket.stamp) * self.rate)
        bucket.stamp = now
        if bucket.tokens < 1.0:
            self.rejected_rate += 1
            retry_after = (1.0 - bucket.tokens) / self.rate
            raise RateLimitExceeded(
                f"rate limit exceeded ({self.rate:g} requests/s sustained, "
                f"burst {self.burst:g})",
                retry_after,
            )
        bucket.tokens -= 1.0

    # ------------------------------------------------------------------
    # fair concurrent-stream slots
    # ------------------------------------------------------------------
    def stream_slot(self, client: str) -> _StreamSlot:
        """An ``async with`` context for one concurrent-stream slot."""
        return _StreamSlot(self, client)

    def _may_grant(self, client: str) -> bool:
        return (
            self._free > 0
            and self._held.get(client, 0) < self.per_client_streams
        )

    async def acquire_stream(self, client: str) -> None:
        """Take one stream slot for ``client``, queueing fairly."""
        if self._may_grant(client) and client not in self._queues:
            self._free -= 1
            self._held[client] = self._held.get(client, 0) + 1
            self.granted += 1
            return
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queues.setdefault(client, []).append(future)
        if client not in self._rotation:
            self._rotation.append(client)
        try:
            await future
        except asyncio.CancelledError:
            queue = self._queues.get(client)
            if queue is not None and future in queue:
                queue.remove(future)
                self._drop_if_idle(client)
            elif future.done() and not future.cancelled():
                # Granted and cancelled in the same tick: hand it back.
                self.release_stream(client)
            raise

    def release_stream(self, client: str) -> None:
        """Return ``client``'s slot and wake the next client in rotation."""
        held = self._held.get(client, 0)
        if held <= 1:
            self._held.pop(client, None)
        else:
            self._held[client] = held - 1
        self._free += 1
        self._wake()

    def _drop_if_idle(self, client: str) -> None:
        if not self._queues.get(client):
            self._queues.pop(client, None)
            if client in self._rotation:
                self._rotation.remove(client)

    def _wake(self) -> None:
        """Grant free slots round-robin across the waiting clients."""
        scanned = 0
        while self._free > 0 and self._rotation and scanned < len(self._rotation):
            client = self._rotation.pop(0)
            self._rotation.append(client)
            self.fairness_rotations += 1
            if not self._may_grant(client):
                scanned += 1
                continue
            queue = self._queues.get(client)
            if not queue:
                self._drop_if_idle(client)
                continue
            future = queue.pop(0)
            self._drop_if_idle(client)
            if future.done():
                continue  # cancelled while queued
            self._free -= 1
            self._held[client] = self._held.get(client, 0) + 1
            self.granted += 1
            future.set_result(None)
            scanned = 0  # a grant may unblock per-client caps; rescan

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active_streams(self) -> int:
        """Stream slots currently held."""
        return self.max_streams - self._free

    @property
    def waiting(self) -> int:
        """Streams queued for a slot."""
        return sum(len(q) for q in self._queues.values())

    def as_dict(self) -> Dict[str, Any]:
        """Admission counters for the router's metrics endpoint."""
        return {
            "max_streams": self.max_streams,
            "per_client_streams": self.per_client_streams,
            "active_streams": self.active_streams,
            "waiting": self.waiting,
            "granted": self.granted,
            "rejected_rate": self.rejected_rate,
            "rate": self.rate,
            "burst": self.burst,
        }
