"""Named datasets: register a graph once, query it by name forever.

``POST /datasets`` (or ``repro dataset add``) stores a graph under a
caller-chosen name; every later request references the name instead of
shipping the edge list.  Each name carries the **isomorphism-stable
digest** of its graph (:func:`repro.engine.cache.instance_key` over a
terminal-free probe job), the key the result store and the fleet's
ring use: a relabeled copy of a registered dataset is reported as
``deduped`` and shares its canonical result cache.  Payloads are
**content-addressed by their exact content** (labels, edge order,
keyword table), so each name answers in its own labels: a relabeled
copy stores its own payload, an identical one none.

Layout under ``root`` (all writes atomic; ``root=None`` = memory only)::

    names/<sha256(name)>.json   {"name", "digest", "payload", counts, created}
    payloads/<payload>.json     {"edges", "vertices", "node_keywords"}
    usage.json                  per-name use counts + last keywords

A name record without ``"payload"`` (written before payloads were keyed
by content) names its payload by ``digest``.

Use counts drive the server's cache warming: the most-queried datasets
get their data graphs (and last compiled queries) rebuilt at startup.
They are counted in memory and reach ``usage.json`` at most every
:data:`USAGE_FLUSH_SECONDS`, on :meth:`DatasetRegistry.remove`, and on
:meth:`DatasetRegistry.flush` (which a stopping server calls).
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.cache import instance_key, instance_repr
from repro.engine.jobs import EnumerationJob, _edge_pairs
from repro.exceptions import ReproError
from repro.jsonfile import read_json, write_atomic

_SCHEMA = 1
#: Seconds between ``usage.json`` rewrites while queries are counted.
USAGE_FLUSH_SECONDS = 1.0
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class DatasetError(ReproError):
    """Invalid dataset operation (bad name, unknown dataset, conflict)."""


class DatasetRecord(NamedTuple):
    """One registered dataset name."""

    name: str
    digest: str
    num_vertices: int
    num_edges: int
    created: float
    uses: int = 0


def dataset_digest(
    edges: Sequence[Tuple[Any, Any]],
    vertices: Sequence[Any] = (),
    node_keywords: Optional[Sequence[Tuple[Any, Sequence[str]]]] = None,
) -> str:
    """The isomorphism-stable digest of a graph payload.

    A terminal-free Steiner probe job feeds the same canonical-signature
    machinery the result store keys on, so relabeled copies of one graph
    collapse to one digest (falling back to the exact digest when the
    symmetry-refinement budget trips — dedupe then needs label equality).
    Keyword annotations are folded in through the canonical vertex
    order, so two structurally identical graphs with *different*
    keyword tables never collide, while a relabeled copy whose keywords
    moved with its labels still can (dedupe misses are harmless; a
    false merge would silently drop annotations).
    """
    probe = EnumerationJob(
        kind="steiner-tree", edges=_edge_pairs(edges), vertices=tuple(vertices)
    )
    digest, order = instance_key(probe)
    if not node_keywords:
        return digest
    pos = (
        {v: i for i, v in enumerate(order)} if order is not None else {}
    )
    canon = sorted(
        (
            (0, pos[node]) if node in pos else (1, repr(node)),
            tuple(sorted(str(kw) for kw in kws)),
        )
        for node, kws in node_keywords
        if kws
    )
    if not canon:
        return digest
    return hashlib.sha256((digest + repr(canon)).encode()).hexdigest()


def _pair(item: Any) -> bool:
    return isinstance(item, (list, tuple)) and len(item) == 2


def _check_shapes(edges: Any, vertices: Any, node_keywords: Any) -> None:
    """Refuse a payload that would unpack into a different graph.

    Strings and objects iterate too: unchecked, the edge ``"ab"`` would
    become a-b and the keyword list ``"alpha"`` five one-letter keywords.
    """
    if not isinstance(edges, (list, tuple)) or not all(_pair(e) for e in edges):
        raise DatasetError("'edges' must be a list of [u, v] pairs")
    if not isinstance(vertices, (list, tuple)):
        raise DatasetError("'vertices' must be a list")
    if node_keywords is not None and not (
        isinstance(node_keywords, (list, tuple))
        and all(
            _pair(pair)
            and isinstance(pair[1], (list, tuple))
            and all(isinstance(kw, str) for kw in pair[1])
            for pair in node_keywords
        )
    ):
        raise DatasetError(
            "'node_keywords' must be a list of [node, [keyword, ...]] pairs"
        )


class DatasetRegistry:
    """Content-addressed named graph store.

    Parameters
    ----------
    root:
        Directory for the registry files; ``None`` keeps the registry
        in memory (useful for tests and ephemeral servers).

    Examples
    --------
    >>> reg = DatasetRegistry(None)
    >>> rec, deduped = reg.add("tri", [("a", "b"), ("b", "c"), ("a", "c")])
    >>> rec.num_edges, deduped
    (3, False)
    >>> reg.add("tri2", [("x", "y"), ("y", "z"), ("x", "z")])[1]
    True
    """

    def __init__(self, root: Optional[str]) -> None:
        self.root = root
        self._lock = threading.Lock()
        # memory tier (always populated; the disk tier mirrors it)
        self._names: Dict[str, Dict[str, Any]] = {}
        self._payloads: Dict[str, Dict[str, Any]] = {}
        # payload key -> the (edges, vertices) tuples every resolved
        # spec shares; never written to disk
        self._instances: Dict[str, Tuple[tuple, tuple]] = {}
        self._uses: Dict[str, int] = {}
        self._last_keywords: Dict[str, List[str]] = {}
        self._usage_written = float("-inf")  # monotonic time of the last write
        self._usage_dirty = False  # counts changed since that write
        self._load()

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _names_dir(self) -> str:
        assert self.root is not None
        return os.path.join(self.root, "names")

    def _payloads_dir(self) -> str:
        assert self.root is not None
        return os.path.join(self.root, "payloads")

    def _name_path(self, name: str) -> str:
        digest = hashlib.sha256(name.encode()).hexdigest()[:40]
        return os.path.join(self._names_dir(), f"{digest}.json")

    def _load(self) -> None:
        if self.root is None:
            return
        try:
            listing = os.listdir(self._names_dir())
        except FileNotFoundError:
            listing = []
        for entry in listing:
            if not entry.endswith(".json"):
                continue
            record = read_json(os.path.join(self._names_dir(), entry))
            if record and record.get("schema") == _SCHEMA:
                record.setdefault("payload", record["digest"])
                self._names[record["name"]] = record
        for key in {r["payload"] for r in self._names.values()}:
            payload = read_json(os.path.join(self._payloads_dir(), f"{key}.json"))
            if payload and payload.get("schema") == _SCHEMA:
                self._payloads[key] = payload
        usage = read_json(os.path.join(self.root, "usage.json"))
        if usage and usage.get("schema") == _SCHEMA:
            self._uses = {str(k): int(v) for k, v in usage.get("uses", {}).items()}
            self._last_keywords = {
                str(k): list(v) for k, v in usage.get("keywords", {}).items()
            }

    def _persist_usage(self) -> None:
        self._usage_dirty = False
        if self.root is None:
            return
        write_atomic(
            os.path.join(self.root, "usage.json"),
            {
                "schema": _SCHEMA,
                "uses": self._uses,
                "keywords": self._last_keywords,
            },
        )
        self._usage_written = time.monotonic()

    def flush(self) -> None:
        """Write the use counts to ``usage.json`` if they changed."""
        with self._lock:
            if self._usage_dirty:
                self._persist_usage()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(
        self,
        name: str,
        edges: Sequence[Tuple[Any, Any]],
        vertices: Sequence[Any] = (),
        node_keywords: Optional[Sequence[Tuple[Any, Sequence[str]]]] = None,
    ) -> Tuple[DatasetRecord, bool]:
        """Register ``edges`` under ``name``; returns ``(record, deduped)``.

        ``deduped`` is True when an isomorphic dataset was already
        registered: the two share the canonical result cache, while
        each name keeps its own labels.  Re-adding an existing name is
        idempotent for the same graph, takes the new labels for a
        relabeled copy, and is a :class:`DatasetError` for a graph that
        is not isomorphic.  So is a payload of the wrong shape:
        ``edges`` must be a list of ``[u, v]`` pairs, ``vertices`` a list
        and ``node_keywords`` a list of ``[node, [keyword, ...]]`` pairs.

        The graph's fingerprint repr (:func:`instance_repr`, which the
        payload's content key hashes) and its canonical base form
        (through the digest probe) stay in the engine's per-graph
        memos, so the first query on the dataset does not pay for them.
        """
        if not _NAME_RE.match(name or ""):
            raise DatasetError(
                f"invalid dataset name {name!r} (want [A-Za-z0-9._-], "
                "max 64 chars, leading alphanumeric)"
            )
        _check_shapes(edges, vertices, node_keywords)
        edge_tuple = tuple((u, v) for u, v in edges)
        vertex_tuple = tuple(vertices)
        if not edge_tuple and not vertex_tuple:
            raise DatasetError("dataset needs at least one edge or vertex")
        digest = dataset_digest(edge_tuple, vertex_tuple, node_keywords)
        table = [[node, sorted(kws)] for node, kws in (node_keywords or [])]
        key = hashlib.sha256(
            instance_repr(edge_tuple, vertex_tuple) + repr(table).encode()
        ).hexdigest()
        with self._lock:
            existing = self._names.get(name)
            if existing is not None and existing["digest"] != digest:
                raise DatasetError(
                    f"dataset {name!r} already registered with a different graph"
                )
            deduped = any(r["digest"] == digest for r in self._names.values())
            if key not in self._payloads:
                # The probe's tuple: the canonical memo already knows it.
                self._instances[key] = (edge_tuple, vertex_tuple)
                payload = {
                    "schema": _SCHEMA,
                    "edges": [[u, v] for u, v in edge_tuple],
                    "vertices": list(vertex_tuple),
                    "node_keywords": table,
                }
                self._payloads[key] = payload
                if self.root is not None:
                    write_atomic(
                        os.path.join(self._payloads_dir(), f"{key}.json"), payload
                    )
            vertex_set = {v for e in edge_tuple for v in e} | set(vertex_tuple)
            record = {
                "schema": _SCHEMA,
                "name": name,
                "digest": digest,
                "payload": key,
                "num_vertices": len(vertex_set),
                "num_edges": len(edge_tuple),
                "created": existing["created"] if existing else time.time(),
            }
            self._names[name] = record
            if self.root is not None:
                write_atomic(self._name_path(name), record)
            if existing is not None:
                self._drop_unused(existing["payload"])
            return self._record(record), deduped

    def _record(self, raw: Dict[str, Any]) -> DatasetRecord:
        return DatasetRecord(
            name=raw["name"],
            digest=raw["digest"],
            num_vertices=int(raw["num_vertices"]),
            num_edges=int(raw["num_edges"]),
            created=float(raw["created"]),
            uses=self._uses.get(raw["name"], 0),
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def describe(self, name: str) -> Optional[DatasetRecord]:
        """The record for ``name``, or ``None``."""
        raw = self._names.get(name)
        return self._record(raw) if raw is not None else None

    def payload(self, name: str) -> Dict[str, Any]:
        """The stored graph payload for ``name``.

        Raises :class:`DatasetError` for unknown names (the server maps
        this to a 404).
        """
        return self.stored(name)[1]

    def stored(self, name: str) -> Tuple[str, Dict[str, Any]]:
        """``(key, payload)``: the content key of ``name``'s stored
        payload, equal for two names exactly when their payloads are,
        and the payload itself (:meth:`payload`)."""
        raw = self._names.get(name)
        if raw is None:
            raise DatasetError(f"unknown dataset {name!r}")
        payload = self._payloads.get(raw["payload"])
        if payload is None:
            raise DatasetError(f"dataset {name!r} payload is missing")
        return raw["payload"], payload

    def list(self) -> List[DatasetRecord]:
        """All registered datasets, sorted by name."""
        return [self._record(self._names[n]) for n in sorted(self._names)]

    def remove(self, name: str) -> bool:
        """Unregister ``name``; drops the payload when unreferenced."""
        with self._lock:
            raw = self._names.pop(name, None)
            if raw is None:
                return False
            if self.root is not None:
                try:
                    os.unlink(self._name_path(name))
                except FileNotFoundError:
                    pass
            self._drop_unused(raw["payload"])
            self._uses.pop(name, None)
            self._last_keywords.pop(name, None)
            self._persist_usage()
            return True

    def _drop_unused(self, key: str) -> None:
        """Delete payload ``key`` when no name points at it (lock held)."""
        if any(r["payload"] == key for r in self._names.values()):
            return
        self._payloads.pop(key, None)
        self._instances.pop(key, None)
        if self.root is not None:
            try:
                os.unlink(os.path.join(self._payloads_dir(), f"{key}.json"))
            except FileNotFoundError:
                pass

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    # usage + warming hints
    # ------------------------------------------------------------------
    def record_use(self, name: str, keywords: Sequence[str] = ()) -> None:
        """Count one query against ``name`` (drives cache warming).

        The count is written at most every :data:`USAGE_FLUSH_SECONDS`;
        :meth:`flush` writes the rest.
        """
        with self._lock:
            self._uses[name] = self._uses.get(name, 0) + 1
            if keywords:
                self._last_keywords[name] = list(keywords)
            self._usage_dirty = True
            if time.monotonic() - self._usage_written >= USAGE_FLUSH_SECONDS:
                self._persist_usage()

    def popular(self, k: int) -> List[str]:
        """The ``k`` most-used dataset names (most queried first)."""
        ranked = sorted(
            self._names, key=lambda n: (-self._uses.get(n, 0), n)
        )
        return ranked[: max(0, k)]

    def last_keywords(self, name: str) -> List[str]:
        """The keywords of ``name``'s most recent answer query."""
        return list(self._last_keywords.get(name, []))

    # ------------------------------------------------------------------
    # job-spec resolution
    # ------------------------------------------------------------------
    def resolve_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Expand a ``{"dataset": name, ...}`` job spec into edges.

        Leaves specs without a ``dataset`` reference untouched.  The
        dataset's edges / vertices / keyword table are injected; a spec
        that also ships its own ``edges`` is rejected as ambiguous.
        Every spec resolved from one payload gets the same immutable
        ``edges`` and ``vertices`` tuples (:meth:`instance`), so the
        engine's per-instance memos (:mod:`repro.engine.cache`, the
        arena ref, the worker's kernel) recognise the graph without
        walking it.
        """
        if "dataset" not in spec:
            return spec
        name = spec["dataset"]
        if not isinstance(name, str):
            raise DatasetError("'dataset' must be a string name")
        if spec.get("edges"):
            raise DatasetError("give either 'dataset' or 'edges', not both")
        payload = self.payload(name)
        edges, vertices = self.instance(name)
        resolved = {k: v for k, v in spec.items() if k != "dataset"}
        resolved["edges"] = edges
        if vertices:
            resolved["vertices"] = vertices
        if payload.get("node_keywords") and "node_keywords" not in resolved:
            resolved["node_keywords"] = [
                [node, list(kws)] for node, kws in payload["node_keywords"]
            ]
        self.record_use(name, resolved.get("keywords") or ())
        return resolved

    def instance(self, name: str) -> Tuple[tuple, tuple]:
        """The ``(edges, vertices)`` tuples every query on ``name``
        shares (built from the payload once, if it was read from disk)."""
        key, payload = self.stored(name)
        instance = self._instances.get(key)
        if instance is None:
            instance = (
                tuple((u, v) for u, v in payload["edges"]),
                tuple(payload.get("vertices") or ()),
            )
            with self._lock:
                instance = self._instances.setdefault(key, instance)
        return instance
