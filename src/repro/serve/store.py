"""Disk-backed result store: persistent replay across process restarts.

:class:`ResultStore` is the disk tier of the result cache
(:class:`repro.engine.cache.ResultCache`): it gets and puts the cache's
entries as JSON files, keyed by the same isomorphism-stable instance
digest (:func:`repro.engine.cache.instance_key`), and the cache's rules
decide what serves — a *relabeled* copy of a solved instance replays
the stored stream translated into the caller's vertex names, relabeled
hits serve only complete solution sets, and exact fingerprint matches
may satisfy a ``limit`` by prefix truncation.  Used alone it is a
result cache of its own; :class:`TieredCache` puts an
:class:`~repro.engine.cache.InstanceCache` in front of it.  On top of
that it persists **cursor checkpoints** (`save_cursor` /
`load_cursor`), which is what lets an interrupted server stream resume
after a restart.

Storage format: one JSON file per entry under ``<root>/entries/``
(canonical payloads are pure integer structures, so they round-trip
through JSON exactly), one JSON file per checkpoint under
``<root>/cursors/``.  Writes are atomic (tempfile + ``os.replace``), so
a killed process never leaves a half-written entry; a file that does
not decode to an entry is a miss, and the next store rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain
from typing import Any, Dict, Optional, Tuple

from repro.core.capabilities import spec as kind_spec
from repro.engine.cache import CacheStats, InstanceCache, ResultCache, _Entry, instance_key
from repro.exceptions import InvalidInstanceError
from repro.jsonfile import read_json, write_atomic

_SCHEMA = 1


def _payload_from_json(kind: str, raw: list, canonical: bool) -> Tuple[tuple, int]:
    """Rebuild the exact tuple payload an entry was written from (JSON
    writes its nested tuples as arrays), with its largest vertex index
    (-1 when it has none).  A negative index is a ``ValueError``."""
    if not canonical:
        return tuple(raw), -1
    pairs = kind_spec(kind).result_shape in ("edge-set", "arc-set")
    if pairs:
        payload = tuple(tuple((int(a), int(b)) for a, b in s) for s in raw)
    else:
        payload = tuple(tuple(int(x) for x in s) for s in raw)

    def indices():
        """Every index of the payload, chained in C: no list is built."""
        items = chain.from_iterable(payload)
        return chain.from_iterable(items) if pairs else items

    if min(indices(), default=0) < 0:
        raise ValueError("negative vertex index")
    return payload, max(indices(), default=-1)


def _decode(record: Any) -> Optional[_Entry]:
    """The entry a JSON record holds; ``None`` when it holds none."""
    if not isinstance(record, dict) or record.get("schema") != _SCHEMA:
        return None
    try:
        kind, raw, lines = record["kind"], record["payload"], record.get("lines")
        canonical, exhausted = record["canonical"], record["exhausted"]
        fingerprint = record["fingerprint"]
        if not (
            isinstance(raw, list)
            and isinstance(lines, (list, type(None)))
            and isinstance(fingerprint, str)
            and type(canonical) is bool
            and type(exhausted) is bool
        ):
            return None
        payload, top = _payload_from_json(kind, raw, canonical)
    except (KeyError, TypeError, ValueError):
        return None
    return _Entry(
        kind,
        payload,
        canonical,
        exhausted,
        fingerprint,
        None if lines is None else tuple(lines),
        top,
    )


class ResultStore(ResultCache):
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

    persistent = True

    def __init__(self, root: str) -> None:
        super().__init__(key_memo=1024)
        self.root = root

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

    # ------------------------------------------------------------------
    # the tier: one JSON file per entry
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[_Entry]:
        """The entry in ``key``'s file; ``None`` when the file is missing
        or does not decode to an entry (the next store rewrites it)."""
        return _decode(read_json(self._entry_path(key)))

    def put(self, key: str, entry: _Entry) -> None:
        """Write ``entry`` to ``key``'s file (atomically)."""
        # json.dumps writes the payload's nested tuples as arrays.
        record = {
            "schema": _SCHEMA,
            "kind": entry.kind,
            "canonical": entry.canonical,
            "exhausted": entry.exhausted,
            "fingerprint": entry.fingerprint,
            "payload": entry.payload,
        }
        if entry.canonical:
            record["lines"] = entry.lines
        write_atomic(self._entry_path(key), record)
        self.stats.stores += 1

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


class TieredCache(ResultCache):
    """A memory tier in front of a disk tier; either may be ``None``.

    The result cache's rules run over the two tiers: lookups ask memory
    first and put a disk hit into memory, and stores write through to
    both.  ``repro serve --store DIR`` and ``repro batch --spill-dir
    DIR`` use this so repeated queries are memory-fast while every
    completed enumeration survives eviction and restarts.  The front
    tier's counters are :attr:`stats` (what :class:`BatchRunner`
    reports) and its key memo is the cache's.
    """

    def __init__(self, cache: Optional[InstanceCache], store: Optional[ResultStore]) -> None:
        self.cache = cache
        self.store_tier = store
        self.tiers = [t for t in (cache, store) if t is not None]
        front = self.tiers[0] if self.tiers else None
        self.stats = front.stats if front is not None else CacheStats()
        self.key_of = front.key_of if front is not None else instance_key

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
