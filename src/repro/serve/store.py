"""Disk-backed result store: persistent replay across process restarts.

:class:`ResultStore` is the durable sibling of
:class:`repro.engine.cache.InstanceCache`.  Entries are keyed by the
same isomorphism-stable instance digest (:func:`repro.engine.cache.instance_key`),
so a *relabeled* copy of a solved instance replays the stored stream
translated into the caller's vertex names, and the same serve-gating
rules apply (relabeled hits serve only complete solution sets; exact
fingerprint matches may satisfy a ``limit`` by prefix truncation).

The store speaks the cache's ``lookup`` / ``prefix`` / ``store``
protocol, so every consumer that accepts an ``InstanceCache`` — the
batch pool, :class:`repro.engine.cursor.EnumerationCursor`, the serving
layer — accepts a ``ResultStore`` unchanged.  On top of that it
persists **cursor checkpoints** (`save_cursor` / `load_cursor`), which
is what lets an interrupted server stream resume after a restart.

Storage format: one JSON file per entry under ``<root>/entries/``
(canonical payloads are pure integer structures, so they round-trip
through JSON exactly), one JSON file per checkpoint under
``<root>/cursors/``.  Writes are atomic (tempfile + ``os.replace``), so
a killed process never leaves a half-written entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.cache import (
    CacheStats,
    InstanceCache,
    entry_result,
    entry_usable,
    instance_key,
    job_fingerprint,
    line_result,
    storable,
    to_canonical,
)
from repro.core.capabilities import spec as kind_spec
from repro.engine.jobs import (
    EnumerationJob,
    JobResult,
)
from repro.exceptions import InvalidInstanceError
from repro.jsonfile import read_json, write_atomic

_SCHEMA = 1


def _payload_from_json(kind: str, raw: list, canonical: bool) -> tuple:
    """Rebuild the exact tuple payload an entry was written from (JSON
    writes its nested tuples as arrays)."""
    if not canonical:
        return tuple(raw)
    if kind_spec(kind).result_shape in ("edge-set", "arc-set"):
        return tuple(tuple((int(a), int(b)) for a, b in s) for s in raw)
    return tuple(tuple(int(x) for x in s) for s in raw)


class ResultStore:
    """Persistent enumeration results + cursor checkpoints on disk.

    Parameters
    ----------
    root:
        Directory for the store (created on demand).  Layout:
        ``entries/<key>.json`` for results, ``cursors/<id>.json`` for
        checkpoints.

    Examples
    --------
    >>> import tempfile
    >>> from repro.engine.jobs import EnumerationJob, run_job
    >>> root = tempfile.mkdtemp()
    >>> store = ResultStore(root)
    >>> job = EnumerationJob.steiner_tree([("a", "b"), ("b", "c")], ["a", "c"])
    >>> store.store(job, run_job(job))
    >>> ResultStore(root).lookup(job).lines  # a fresh process replays it
    ('a-b b-c',)
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.stats = CacheStats()
        #: Memoized :func:`~repro.engine.cache.instance_key` (replaced by
        #: the memory tier's under a :class:`TieredCache`).
        self.key_of = functools.lru_cache(maxsize=1024)(instance_key)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _entries_dir(self) -> str:
        return os.path.join(self.root, "entries")

    def _cursors_dir(self) -> str:
        return os.path.join(self.root, "cursors")

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._entries_dir(), f"{key}.json")

    def _cursor_path(self, stream_id: str) -> str:
        # Stream ids are caller-chosen; hash them so any string is a
        # safe, fixed-length file name.
        digest = hashlib.sha256(stream_id.encode()).hexdigest()[:40]
        return os.path.join(self._cursors_dir(), f"{digest}.json")

    def _read_entry(self, key: str) -> Optional[Dict[str, Any]]:
        # An unreadable entry is a miss; a future store rewrites it.
        record = read_json(self._entry_path(key))
        if record is None or record.get("schema") != _SCHEMA:
            return None
        return record

    # ------------------------------------------------------------------
    # the cache protocol: lookup / prefix / store
    # ------------------------------------------------------------------
    def lookup(self, job: EnumerationJob) -> Optional[JobResult]:
        """A complete :class:`JobResult` for ``job`` from disk, or ``None``.

        Same gating as :meth:`InstanceCache.lookup`: exact-fingerprint
        entries may satisfy a ``limit`` by truncation, relabeled entries
        serve only complete solution sets (translated to the caller's
        labels).
        """
        key, order = self.key_of(job)
        record = self._read_entry(key)
        if record is None:
            self.stats.misses += 1
            return None
        same = record["fingerprint"] == job_fingerprint(job)
        if not entry_usable(job, same, record["exhausted"], len(record["payload"])):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.disk_hits += 1
        if same and record["canonical"] and record.get("lines") is not None:
            # Exact instance: the donor's rendered lines ARE this job's
            # stream — skip the canonical translation entirely.
            return line_result(job, tuple(record["lines"]), record["exhausted"])
        payload = _payload_from_json(job.kind, record["payload"], record["canonical"])
        return entry_result(job, payload, record["canonical"], record["exhausted"], order)

    def prefix(self, job: EnumerationJob) -> Optional[JobResult]:
        """The stored solution prefix for ``job`` (exact matches only).

        Like :meth:`InstanceCache.prefix`: serves incomplete entries and
        never truncates to the job's ``limit``; relabeled donors are
        skipped because their stream order is a permutation of this
        job's; a complete stream comes back as its stored lines.
        """
        key, order = self.key_of(job)
        record = self._read_entry(key)
        if record is None or record["fingerprint"] != job_fingerprint(job):
            return None
        if record["exhausted"] and record.get("lines") is not None:
            lines = tuple(record["lines"])
            return entry_result(job, lines, False, True, None, apply_limit=False)
        payload = _payload_from_json(job.kind, record["payload"], record["canonical"])
        return entry_result(
            job, payload, record["canonical"], record["exhausted"], order,
            apply_limit=False,
        )

    def store(
        self,
        job: EnumerationJob,
        result: JobResult,
        canonicalize: Optional[Callable[[str, Any, List[Any]], tuple]] = None,
    ) -> None:
        """Persist ``result`` for ``job`` (upgrade-only, atomic write).

        Deadline/budget-stopped and errored results are rejected (their
        cut point is not deterministic); an existing entry is replaced
        only by one that knows strictly more solutions.
        ``canonicalize`` stands in for :func:`to_canonical`, as in
        :meth:`InstanceCache.store`.
        """
        if not storable(result):
            return
        key, order = self.key_of(job)
        if order is not None and result.structures is None:
            return  # canonical entries need structures to translate on hit
        existing = self._read_entry(key)
        if existing is not None:
            upgrades = result.exhausted and not existing["exhausted"]
            if existing["exhausted"] or (
                len(existing["payload"]) >= result.count and not upgrades
            ):
                return
        if order is not None:
            canonical = True
            payload = (canonicalize or to_canonical)(job.kind, result.structures, order)
        else:
            canonical = False
            payload = result.lines
        # json.dumps writes the payload's nested tuples as arrays.
        record = {
            "schema": _SCHEMA,
            "kind": job.kind,
            "canonical": canonical,
            "exhausted": result.exhausted,
            "fingerprint": job_fingerprint(job),
            "payload": payload,
        }
        if canonical:
            record["lines"] = result.lines
        write_atomic(self._entry_path(key), record)
        self.stats.stores += 1

    def raw_entry(
        self, job: EnumerationJob
    ) -> Optional[Tuple[tuple, bool, bool, str, Optional[tuple]]]:
        """The stored entry in :class:`InstanceCache` shape, for promotion.

        Returns ``(payload, canonical, exhausted, fingerprint, lines)``
        or ``None`` on a miss.
        """
        key, _order = self.key_of(job)
        record = self._read_entry(key)
        if record is None:
            return None
        payload = _payload_from_json(job.kind, record["payload"], record["canonical"])
        lines = tuple(record["lines"]) if record.get("lines") is not None else None
        return (
            payload,
            record["canonical"],
            record["exhausted"],
            record["fingerprint"],
            lines,
        )

    # ------------------------------------------------------------------
    # cursor checkpoints
    # ------------------------------------------------------------------
    def save_cursor(self, stream_id: str, state: Dict[str, Any]) -> None:
        """Persist a cursor checkpoint dict under ``stream_id`` (atomic)."""
        write_atomic(
            self._cursor_path(stream_id),
            {"schema": _SCHEMA, "stream_id": stream_id, "state": state},
        )

    def load_cursor(self, stream_id: str) -> Optional[Dict[str, Any]]:
        """The checkpoint saved under ``stream_id``, or ``None``."""
        try:
            with open(self._cursor_path(stream_id)) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            # ValueError covers both malformed JSON and undecodable
            # bytes (a corrupted file is rarely valid UTF-8).
            raise InvalidInstanceError(
                f"unreadable cursor checkpoint for {stream_id!r}: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise InvalidInstanceError(
                f"corrupt cursor checkpoint for {stream_id!r}: not a record"
            )
        if record.get("schema") != _SCHEMA or record.get("stream_id") != stream_id:
            return None
        return record["state"]

    def drop_cursor(self, stream_id: str) -> bool:
        """Delete the checkpoint for ``stream_id``; True if one existed."""
        try:
            os.unlink(self._cursor_path(stream_id))
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        try:
            return sum(
                1 for name in os.listdir(self._entries_dir()) if name.endswith(".json")
            )
        except FileNotFoundError:
            return 0

    def cursor_count(self) -> int:
        """Number of persisted cursor checkpoints."""
        try:
            return sum(
                1 for name in os.listdir(self._cursors_dir()) if name.endswith(".json")
            )
        except FileNotFoundError:
            return 0

    def as_dict(self) -> Dict[str, Any]:
        """Stats payload for the service ``/stats`` endpoint."""
        payload: Dict[str, Any] = dict(self.stats.as_dict())
        payload["entries"] = len(self)
        payload["cursors"] = self.cursor_count()
        return payload


class TieredCache:
    """Memory-LRU front + persistent-store back, one cache protocol.

    ``lookup``/``prefix`` consult the in-memory :class:`InstanceCache`
    first and fall back to the :class:`ResultStore`; disk hits are
    promoted into memory.  ``store`` writes through to both tiers.
    ``repro serve --store DIR`` and ``repro batch --spill-dir DIR`` use
    this so repeated queries are memory-fast while every completed
    enumeration survives eviction and restarts.
    """

    def __init__(self, cache: Optional[InstanceCache], store: Optional[ResultStore]) -> None:
        self.cache = cache
        self.store_tier = store
        if cache is not None and store is not None:
            # Both tiers key through one memo: a request that misses
            # memory and falls through to disk is canonicalized once.
            store.key_of = cache.key_of

    def _tiers(self):
        return [t for t in (self.cache, self.store_tier) if t is not None]

    def lookup(self, job: EnumerationJob) -> Optional[JobResult]:
        """First complete hit across the tiers (disk hits are promoted)."""
        for tier in self._tiers():
            result = tier.lookup(job)
            if result is not None:
                if tier is self.store_tier and self.cache is not None:
                    raw = self.store_tier.raw_entry(job)
                    if raw is not None:
                        self.cache.adopt_entry(job, *raw)
                return result
        return None

    def prefix(self, job: EnumerationJob) -> Optional[JobResult]:
        """The longest stored prefix across the tiers (exact matches only)."""
        best: Optional[JobResult] = None
        for tier in self._tiers():
            result = tier.prefix(job)
            if result is not None and (best is None or result.count > best.count):
                best = result
            if best is not None and best.exhausted:
                break
        return best

    def store(self, job: EnumerationJob, result: JobResult) -> None:
        """Write ``result`` through to every tier.

        The tiers share one key memo and so one canonical order: the
        first tier that writes canonicalises ``result``, the other
        reuses its payload.
        """
        memo: list = []

        def canonicalize(kind: str, structures: Any, order: List[Any]) -> tuple:
            if not memo:
                memo.append(to_canonical(kind, structures, order))
            return memo[0]

        for tier in self._tiers():
            tier.store(job, result, canonicalize)

    @property
    def stats(self) -> CacheStats:
        """The front tier's counters (keeps :class:`BatchRunner` happy)."""
        tiers = self._tiers()
        return tiers[0].stats if tiers else CacheStats()

    def __len__(self) -> int:
        return sum(len(tier) for tier in self._tiers())

    def as_dict(self) -> Dict[str, Any]:
        """Per-tier stats payload plus the cross-tier aggregate.

        ``tiered`` folds both tiers into the counters an operator
        actually watches: where hits land (memory vs disk), how many
        lookups missed everywhere, and eviction/store churn.
        """
        payload: Dict[str, Any] = {}
        if self.cache is not None:
            payload["cache"] = self.cache.stats.as_dict()
            payload["cache_entries"] = len(self.cache)
        if self.store_tier is not None:
            payload["store"] = self.store_tier.as_dict()
        mem = self.cache.stats if self.cache is not None else CacheStats()
        disk = self.store_tier.stats if self.store_tier is not None else CacheStats()
        # A lookup that misses memory falls through to disk, so the
        # true end-to-end misses are the *last* tier's misses (or the
        # memory tier's when no store is configured).
        misses = disk.misses if self.store_tier is not None else mem.misses
        payload["tiered"] = {
            "memory_hits": mem.hits,
            "disk_hits": disk.disk_hits,
            "misses": misses,
            "evictions": mem.evictions + disk.evictions,
            "stores": mem.stores + disk.stores,
        }
        return payload
