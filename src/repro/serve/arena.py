"""Zero-copy instance arena: digest-keyed mmap spool for serve workers.

A streamed ``run`` message used to carry the full edge list of its
instance — pickled through the pipe for every request, materialized
again in every worker.  For the serving layer's common shape (one
registered dataset, many queries; several workers and fleet replicas on
one machine) that is the same few-megabyte payload copied per request
per process.

The arena replaces the payload with a pointer.  ``publish`` packs an
integer-compact instance into a flat binary spool file named by the
content digest::

    <root>/<sha256[:40]>.arena
        magic    b"REPROAR1"
        header   two little-endian uint64s: edge count, vertex count
        payload  int32 endpoint pairs (2m values), then the isolated
                 vertex ids (k values)

and the ``run`` message ships the small ``{"digest", "path", ...}``
ref.  Workers map the file **read-only** (:mod:`mmap`), so every worker
process — and every fleet replica pointed at the same store directory —
shares one physical copy of the instance in the page cache; nothing is
pickled, and re-publishing an already-spooled instance is a pure
existence check.  The mapped bytes are decoded through a
:class:`memoryview` cast to int32 (native-endian, like the writer — the
spool is a same-host handoff, not an interchange format).

Only integer-compact instances (every endpoint a non-negative int32 —
the engine's relabeled normal form, and everything the dataset registry
serves) are eligible; ``publish`` returns ``None`` for anything else
and the caller falls back to the inline payload.  Each worker keeps a
per-process digest-keyed cache of decoded edge tuples, so a long-lived
worker pays the decode once per dataset, not per stream.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import tempfile
from typing import Any, Dict, Optional, Tuple

_MAGIC = b"REPROAR1"
_HEADER = struct.Struct("<QQ")
_INT32_MAX = 2**31 - 1

#: Per-process decode cache: digest -> (edges tuple, vertices tuple).
_DECODED: Dict[str, Tuple[tuple, tuple]] = {}


def _pack_int32(values) -> Optional[bytes]:
    """Native-LE int32 packing, or ``None`` if any value is ineligible."""
    try:
        return struct.pack(f"<{len(values)}i", *values)
    except (struct.error, TypeError):
        return None


class InstanceArena:
    """Digest-keyed spool directory of integer-compact instances."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._published: set = set()  # digests known to be on disk

    def publish(self, edges, vertices=()) -> Optional[Dict[str, Any]]:
        """Spool ``(edges, vertices)``; return the ref, or ``None``.

        ``None`` means the instance is not integer-compact (labels that
        are not non-negative int32s) and must travel inline.
        """
        flat = []
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                return None
            flat.append(u)
            flat.append(v)
        for v in vertices:
            if type(v) is not int:
                return None
            flat.append(v)
        if any(v < 0 or v > _INT32_MAX for v in flat):
            return None
        payload = _pack_int32(flat)
        if payload is None:  # pragma: no cover - guarded above
            return None
        digest = hashlib.sha256(payload).hexdigest()[:40]
        ref = {
            "digest": digest,
            "path": os.path.join(self.root, f"{digest}.arena"),
            "edges": len(edges),
            "vertices": len(vertices),
        }
        if digest in self._published or os.path.exists(ref["path"]):
            self._published.add(digest)
            return ref
        blob = _MAGIC + _HEADER.pack(len(edges), len(vertices)) + payload
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, ref["path"])
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._published.add(digest)
        return ref

    def publish_spec(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """Swap a job spec's inline payload for an arena ref if eligible.

        Returns the original spec untouched when the instance cannot be
        spooled (non-integer labels) — the stream then degrades to the
        inline path, never fails.
        """
        ref = self.publish(spec.get("edges") or (), spec.get("vertices") or ())
        if ref is None:
            return spec
        slim = {
            k: v for k, v in spec.items() if k not in ("edges", "vertices")
        }
        slim["arena"] = ref
        return slim


def load(ref: Dict[str, Any]) -> Tuple[tuple, tuple]:
    """Decode an arena ref into ``(edges, vertices)`` tuples.

    The file is mapped read-only; decoded tuples are cached per process
    by digest.  Raises ``ValueError`` on a torn or mismatched spool
    (the worker surfaces that as a stream error, not a crash).
    """
    digest = ref["digest"]
    cached = _DECODED.get(digest)
    if cached is not None:
        return cached
    m = int(ref["edges"])
    k = int(ref["vertices"])
    expect = len(_MAGIC) + _HEADER.size + 4 * (2 * m + k)
    with open(ref["path"], "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size != expect:
            raise ValueError(
                f"arena spool {ref['path']} is {size} bytes, expected {expect}"
            )
        with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            if mapped[: len(_MAGIC)] != _MAGIC:
                raise ValueError(f"arena spool {ref['path']} has a bad magic")
            hm, hk = _HEADER.unpack_from(mapped, len(_MAGIC))
            if (hm, hk) != (m, k):
                raise ValueError(
                    f"arena spool {ref['path']} header ({hm}, {hk}) does not"
                    f" match the ref ({m}, {k})"
                )
            body = memoryview(mapped)[len(_MAGIC) + _HEADER.size :]
            try:
                cast = body.cast("i")
                try:
                    flat = cast.tolist()
                finally:
                    cast.release()
            finally:
                # every view must be gone before the map closes
                body.release()
    it = iter(flat[: 2 * m])
    edges = tuple(zip(it, it))
    vertices = tuple(flat[2 * m :])
    decoded = (edges, vertices)
    _DECODED[digest] = decoded
    return decoded


def resolve_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :meth:`InstanceArena.publish_spec` (worker side)."""
    ref = spec.get("arena")
    if ref is None:
        return spec
    edges, vertices = load(ref)
    resolved = {k: v for k, v in spec.items() if k != "arena"}
    resolved["edges"] = edges
    if vertices:
        resolved["vertices"] = vertices
    return resolved
