"""Tenants: API keys, tiers and sliding-window quotas.

A **tenant** is one API-key holder with a tier (which sets its scheduling
priority in the worker queue) and a :class:`Quota` — caps on requests,
delivered solutions and compute seconds inside a sliding window.  The
registry persists both the tenant table (``tenants.json``) and the
usage events (``usage.json``) atomically, so quota accounting survives
a server restart: a client that exhausted its window cannot reset it by
bouncing the server.

Admission is a single atomic check-and-record under a lock
(:meth:`TenantRegistry.admit`), so two requests racing for the last
quota unit admit exactly one.  Violations raise:

* :class:`AuthError` — missing / unknown / revoked key (HTTP 401);
* :class:`QuotaExceeded` — quota exhausted; carries ``retry_after``
  seconds until the window frees a unit (HTTP 429 + ``Retry-After``).
"""

from __future__ import annotations

import dataclasses
import os
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import InvalidInstanceError, ReproError
from repro.jsonfile import read_json, write_atomic

_SCHEMA = 1

#: Column of each quota resource in a usage event row
#: ``[timestamp, requests, solutions, compute_seconds]``.
_FIELD_COLUMN = {"requests": 1, "solutions": 2, "compute_seconds": 3}

#: Scheduling priority per tier; higher preempts the worker queue.
TIER_PRIORITIES = {"free": 0, "standard": 5, "paid": 10}

#: Default quotas per tier: (requests, solutions, compute seconds).
TIER_QUOTAS = {
    "free": (60, 5_000, 30.0),
    "standard": (600, 100_000, 300.0),
    "paid": (6_000, 2_000_000, 3_000.0),
}


class AuthError(ReproError):
    """Missing, unknown or revoked API key (served as HTTP 401)."""


class QuotaExceeded(ReproError):
    """A sliding-window quota is exhausted (served as HTTP 429).

    ``retry_after`` is the number of seconds until the window slides
    far enough to free one unit of the exhausted resource.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = max(0.0, retry_after)


@dataclass(frozen=True)
class Quota:
    """Sliding-window caps; ``None`` means uncapped.

    ``requests`` / ``solutions`` / ``compute_seconds`` are totals
    allowed inside any ``window``-second span.
    """

    requests: Optional[int] = None
    solutions: Optional[int] = None
    compute_seconds: Optional[float] = None
    window: float = 60.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view."""
        return dataclasses.asdict(self)


@dataclass
class Tenant:
    """One API-key holder."""

    name: str
    key: str
    tier: str = "free"
    priority: int = 0
    quota: Quota = dataclasses.field(default_factory=Quota)
    revoked: bool = False

    def public_dict(self) -> Dict[str, Any]:
        """Tenant description without the secret key."""
        return {
            "name": self.name,
            "tier": self.tier,
            "priority": self.priority,
            "quota": self.quota.as_dict(),
            "revoked": self.revoked,
        }


class TenantRegistry:
    """Persistent tenant table + sliding-window usage accounting.

    Parameters
    ----------
    root:
        Directory for ``tenants.json`` and ``usage.json``; ``None``
        keeps everything in memory (tests, ephemeral servers).
    clock:
        Injectable time source (defaults to :func:`time.time`; the
        tests use a fake clock to pin window arithmetic).

    Examples
    --------
    >>> reg = TenantRegistry(None)
    >>> t = reg.issue("acme", tier="paid", requests=2, window=60)
    >>> reg.admit(t.key).name
    'acme'
    """

    def __init__(
        self, root: Optional[str], clock: Callable[[], float] = time.time
    ) -> None:
        self.root = root
        self.clock = clock
        self._lock = threading.Lock()
        # usage.json writes happen *outside* ``_lock`` (admission of
        # other tenants must not serialize behind disk I/O); ``_io_lock``
        # orders the writers and ``_usage_seq`` versions the snapshots.
        self._io_lock = threading.Lock()
        self._usage_seq = 0
        self._usage_written = 0
        self._tenants: Dict[str, Tenant] = {}  # name -> tenant
        self._by_key: Dict[str, str] = {}  # key -> name
        # name -> [[ts, requests, solutions, seconds], ...] events
        self._events: Dict[str, List[List[float]]] = {}
        self._load()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _path(self, name: str) -> str:
        assert self.root is not None
        return os.path.join(self.root, name)

    def _load(self) -> None:
        if self.root is None:
            return
        record = read_json(self._path("tenants.json"))
        if record and record.get("schema") == _SCHEMA:
            for raw in record.get("tenants", []):
                tenant = Tenant(
                    name=raw["name"],
                    key=raw["key"],
                    tier=raw.get("tier", "free"),
                    priority=int(raw.get("priority", 0)),
                    quota=Quota(**raw.get("quota", {})),
                    revoked=bool(raw.get("revoked", False)),
                )
                self._tenants[tenant.name] = tenant
                self._by_key[tenant.key] = tenant.name
        usage = read_json(self._path("usage.json"))
        if usage and usage.get("schema") == _SCHEMA:
            for name, events in usage.get("events", {}).items():
                self._events[name] = [list(map(float, e)) for e in events]

    def _persist_tenants(self) -> None:
        if self.root is None:
            return
        write_atomic(
            self._path("tenants.json"),
            {
                "schema": _SCHEMA,
                "tenants": [
                    {
                        "name": t.name,
                        "key": t.key,
                        "tier": t.tier,
                        "priority": t.priority,
                        "quota": t.quota.as_dict(),
                        "revoked": t.revoked,
                    }
                    for t in self._tenants.values()
                ],
            },
        )

    def _snapshot_usage(
        self,
    ) -> Optional[Tuple[int, Dict[str, List[List[float]]]]]:
        """Version + copy the usage table (call under ``_lock``)."""
        if self.root is None:
            return None
        self._usage_seq += 1
        events = {
            name: [list(event) for event in rows]
            for name, rows in self._events.items()
        }
        return self._usage_seq, events

    def _flush_usage(
        self, snapshot: Optional[Tuple[int, Dict[str, List[List[float]]]]]
    ) -> None:
        """Write a usage snapshot to disk, outside the tenant lock.

        Snapshots are totally ordered by ``_usage_seq`` (taken under
        ``_lock``), so a writer that lost the race to a newer snapshot
        skips its write — the newer file already contains every event
        this snapshot holds.
        """
        if snapshot is None:
            return
        seq, events = snapshot
        with self._io_lock:
            if seq <= self._usage_written:
                return
            write_atomic(
                self._path("usage.json"), {"schema": _SCHEMA, "events": events}
            )
            self._usage_written = seq

    # ------------------------------------------------------------------
    # tenant management
    # ------------------------------------------------------------------
    def issue(
        self,
        name: str,
        tier: str = "free",
        requests: Optional[int] = None,
        solutions: Optional[int] = None,
        compute_seconds: Optional[float] = None,
        window: Optional[float] = None,
        key: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> Tenant:
        """Create (or re-key) a tenant and return it, secret included.

        Quota fields default to the tier's table entry; explicit
        arguments override per field.
        """
        if tier not in TIER_QUOTAS:
            raise InvalidInstanceError(
                f"unknown tier {tier!r}; expected one of {sorted(TIER_QUOTAS)}"
            )
        base_req, base_sol, base_sec = TIER_QUOTAS[tier]
        quota = Quota(
            requests=base_req if requests is None else requests,
            solutions=base_sol if solutions is None else solutions,
            compute_seconds=(
                base_sec if compute_seconds is None else compute_seconds
            ),
            window=60.0 if window is None else float(window),
        )
        with self._lock:
            old = self._tenants.get(name)
            if old is not None:
                self._by_key.pop(old.key, None)
            tenant = Tenant(
                name=name,
                key=key or secrets.token_hex(16),
                tier=tier,
                priority=TIER_PRIORITIES[tier] if priority is None else priority,
                quota=quota,
            )
            self._tenants[name] = tenant
            self._by_key[tenant.key] = name
            self._persist_tenants()
            return tenant

    def revoke(self, name: str) -> bool:
        """Mark ``name``'s key revoked; True if the tenant existed."""
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                return False
            tenant.revoked = True
            self._persist_tenants()
            return True

    def get(self, name: str) -> Optional[Tenant]:
        """The tenant named ``name``, or ``None``."""
        return self._tenants.get(name)

    def list(self) -> List[Tenant]:
        """All tenants, sorted by name."""
        return sorted(self._tenants.values(), key=lambda t: t.name)

    def __len__(self) -> int:
        return len(self._tenants)

    # ------------------------------------------------------------------
    # authentication + quota admission
    # ------------------------------------------------------------------
    def authenticate(self, key: Optional[str]) -> Tenant:
        """The live tenant owning ``key``; :class:`AuthError` otherwise."""
        if not key:
            raise AuthError("missing API key")
        name = self._by_key.get(key)
        tenant = self._tenants.get(name) if name is not None else None
        if tenant is None or tenant.key != key:
            raise AuthError("unknown API key")
        if tenant.revoked:
            raise AuthError(f"API key for {tenant.name!r} is revoked")
        return tenant

    def _window_totals(
        self, tenant: Tenant, now: float
    ) -> Dict[str, float]:
        window = tenant.quota.window
        events = self._events.get(tenant.name, [])
        kept = [e for e in events if e[0] > now - window]
        if len(kept) != len(events):
            if kept:
                self._events[tenant.name] = kept
            else:
                self._events.pop(tenant.name, None)
        return {
            "requests": sum(e[1] for e in kept),
            "solutions": sum(e[2] for e in kept),
            "compute_seconds": sum(e[3] for e in kept),
        }

    def _retry_after(self, tenant: Tenant, now: float, field: str) -> float:
        """Seconds until the window frees one unit of ``field``.

        Only events that contribute to the exhausted resource matter:
        when the requests cap trips, a solutions-only event sliding out
        of the window frees nothing, so the clock runs to the oldest
        event with a nonzero amount in ``field``'s column.
        """
        column = _FIELD_COLUMN[field]
        stamps = [e[0] for e in self._events.get(tenant.name, []) if e[column] > 0]
        if not stamps:
            return tenant.quota.window
        return min(stamps) + tenant.quota.window - now

    def admit(self, key_or_tenant: Any) -> Tenant:
        """Authenticate + atomically charge one request against the quota.

        Raises :class:`QuotaExceeded` (with ``retry_after``) when any of
        the window caps is already met; otherwise records the request
        event and persists usage before returning the tenant, so the
        decision is durable even against an immediate crash.
        """
        with self._lock:
            if isinstance(key_or_tenant, Tenant):
                tenant = key_or_tenant
            else:
                tenant = self.authenticate(key_or_tenant)
            now = self.clock()
            totals = self._window_totals(tenant, now)
            quota = tenant.quota
            for field, cap in (
                ("requests", quota.requests),
                ("solutions", quota.solutions),
                ("compute_seconds", quota.compute_seconds),
            ):
                if cap is not None and totals[field] >= cap:
                    raise QuotaExceeded(
                        f"tenant {tenant.name!r} exceeded its {field} quota "
                        f"({totals[field]:g}/{cap:g} in {quota.window:g}s)",
                        retry_after=self._retry_after(tenant, now, field),
                    )
            self._events.setdefault(tenant.name, []).append([now, 1, 0, 0.0])
            snapshot = self._snapshot_usage()
        # Durable before returning: when _flush_usage comes back, this
        # snapshot — or a newer one containing the same event — is on
        # disk, but other tenants were free to admit during the write.
        self._flush_usage(snapshot)
        return tenant

    def record(
        self, tenant: Tenant, solutions: int = 0, compute_seconds: float = 0.0
    ) -> None:
        """Attach delivered-solution / compute-second usage to the window."""
        if not solutions and not compute_seconds:
            return
        with self._lock:
            self._events.setdefault(tenant.name, []).append(
                [self.clock(), 0, float(solutions), float(compute_seconds)]
            )
            snapshot = self._snapshot_usage()
        self._flush_usage(snapshot)

    def usage(self, name: str) -> Dict[str, float]:
        """Current window totals for tenant ``name``."""
        tenant = self._tenants.get(name)
        if tenant is None:
            return {"requests": 0, "solutions": 0, "compute_seconds": 0.0}
        with self._lock:
            return self._window_totals(tenant, self.clock())

    def usage_table(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant usage + quota snapshot for ``GET /metrics``."""
        table: Dict[str, Dict[str, Any]] = {}
        with self._lock:
            now = self.clock()
            for name, tenant in sorted(self._tenants.items()):
                entry = dict(self._window_totals(tenant, now))
                entry["tier"] = tenant.tier
                entry["revoked"] = tenant.revoked
                entry["quota"] = tenant.quota.as_dict()
                table[name] = entry
        return table
