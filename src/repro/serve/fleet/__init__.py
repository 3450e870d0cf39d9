"""Sharded multi-replica serving: router, hash ring, admission, replicas.

One :class:`~repro.serve.fleet.router.FleetRouter` process fronts ``N``
:class:`~repro.serve.server.EnumerationServer` replicas that share a
tiered disk store.  Requests route by the **isomorphism-stable instance
digest** over a :class:`~repro.serve.fleet.hashring.HashRing`, so
relabeled duplicates of a hot graph land on the replica whose caches
are already warm; replica death mid-stream triggers **snapshot-based
stream migration** (the router thaws the last ``RSNAP1`` checkpoint on
a surviving replica and the client sees a gap-free, byte-identical
stream); and the router's
:class:`~repro.serve.fleet.admission.AdmissionController` applies
per-client rate limits and fair backpressure across concurrent
streams.  See ``docs/guides/fleet.md`` for the topology, the migration
protocol and the failure-mode catalogue.
"""

from repro.serve.fleet.admission import AdmissionController, RateLimitExceeded
from repro.serve.fleet.hashring import HashRing, routing_key
from repro.serve.fleet.replicas import (
    ReplicaExited,
    ReplicaProcess,
    join_router,
    leave_router,
)
from repro.serve.fleet.router import FleetRouter

__all__ = [
    "AdmissionController",
    "FleetRouter",
    "HashRing",
    "RateLimitExceeded",
    "ReplicaExited",
    "ReplicaProcess",
    "join_router",
    "leave_router",
    "routing_key",
]
