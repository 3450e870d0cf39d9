"""The ``Suspendable`` protocol: serializable search-state snapshots.

The paper's enumerators are polynomial-delay, but a *resume* that
re-runs the enumeration and discards the first ``offset`` solutions
costs as much as producing them.  This module defines the contract that
turns every converted enumerator into a machine whose search state —
the branch-and-bound stack, undo-log positions and per-frame caches —
can be frozen to bytes and thawed in another process, making resume
O(state) instead of O(offset):

* a **search machine** exposes ``advance()`` (produce the next event or
  solution, ``None`` when exhausted) and ``state()`` /
  ``restore_state()`` over plain-data structures;
* :func:`pack_snapshot` / :func:`unpack_snapshot` wrap that state in a
  versioned envelope binding it to a deterministic **instance
  fingerprint**, so a snapshot can never silently resume against a
  different instance, query, or backend;
* :func:`read_snapshot_header` parses the envelope header *without*
  deserializing the payload — the safe operation for inspection tools
  (``repro snapshot``).

Snapshot contract
-----------------
Restoring a snapshot and draining the machine yields a stream
byte-identical to the tail the uninterrupted machine would have
produced, on both the ``object`` and ``fast`` backends.  Two properties
of the converted enumerators make this sound:

1. every order-sensitive decision is a deterministic function of
   explicitly ordered state (lists / insertion-ordered dicts), never of
   hash-table history — the partial-tree vertex order, path-machine
   source lists and pending event queues are all serialized verbatim;
2. derived caches (backward-reachability arrays, compiled kernels,
   auxiliary digraphs) are *not* serialized: they are recomputed from
   the instance on restore and are deterministic in the serialized
   state.

The payload is a :mod:`pickle` of plain containers (ints, strings,
tuples, lists, dicts), compressed with :mod:`zlib`.  Snapshots are an
internal persistence format: load them only from sources you trust, and
treat them as bound to the Python *minor* version that wrote them (the
envelope records it; a mismatch raises :class:`SnapshotError` on
restore unless ``allow_cross_version`` is set).

Wire format (version 1)::

    b"RSNAP1\\n" + <header JSON, one line> + b"\\n" + zlib(pickle(state))

The header carries ``kind``, ``backend``, ``fingerprint``, ``frames``
(search-stack depth), ``emitted`` (solutions produced so far) and
``python`` (``"major.minor"``).
"""

from __future__ import annotations

import json
import pickle
import sys
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.exceptions import ReproError
from repro.graphs.fastgraph import resolve_backend

#: Envelope magic + version tag.
SNAPSHOT_MAGIC = b"RSNAP1\n"

#: Envelope schema version (bump when the header layout changes).
SNAPSHOT_VERSION = 1


class SnapshotError(ReproError):
    """A snapshot is malformed or does not match the resuming context."""


def _python_tag() -> str:
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


def pack_snapshot(
    kind: str,
    backend: str,
    fingerprint: str,
    state: Any,
    frames: int = 0,
    emitted: int = 0,
    extra: Optional[Dict[str, Any]] = None,
) -> bytes:
    """Serialize machine ``state`` into a fingerprint-bound envelope.

    ``frames`` and ``emitted`` are informational header fields (surfaced
    by ``repro snapshot``); the authoritative state lives in the
    payload.  ``extra`` merges additional JSON-able header fields.
    """
    header: Dict[str, Any] = {
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "backend": backend,
        "fingerprint": fingerprint,
        "frames": int(frames),
        "emitted": int(emitted),
        "python": _python_tag(),
    }
    if extra:
        header.update(extra)
    payload = zlib.compress(pickle.dumps(state, protocol=4))
    return SNAPSHOT_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def read_snapshot_header(blob: bytes) -> Dict[str, Any]:
    """Parse and validate the envelope header; never touches the payload.

    Safe on untrusted input (no unpickling happens).  Raises
    :class:`SnapshotError` on anything that is not a version-1 snapshot.
    """
    if not isinstance(blob, (bytes, bytearray)) or not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError("not a repro snapshot (bad magic)")
    rest = bytes(blob[len(SNAPSHOT_MAGIC) :])
    newline = rest.find(b"\n")
    if newline < 0:
        raise SnapshotError("truncated snapshot header")
    try:
        header = json.loads(rest[:newline].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot header: {exc}") from exc
    if not isinstance(header, dict) or header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {header.get('version')!r}"
            if isinstance(header, dict)
            else "malformed snapshot header"
        )
    for field in ("kind", "backend", "fingerprint"):
        if not isinstance(header.get(field), str):
            raise SnapshotError(f"snapshot header is missing {field!r}")
    return header


def unpack_snapshot(
    blob: bytes,
    expect_kind: Optional[str] = None,
    expect_backend: Optional[str] = None,
    expect_fingerprint: Optional[str] = None,
    allow_cross_version: bool = False,
) -> Tuple[Dict[str, Any], Any]:
    """Validate the envelope and deserialize the state payload.

    Every ``expect_*`` argument that is not ``None`` must match the
    header exactly (backends after alias resolution) — the caller states
    what it is resuming against, and a snapshot taken for anything else
    is rejected *before* the payload is unpickled.  Returns
    ``(header, state)``.
    """
    header = read_snapshot_header(blob)
    if expect_kind is not None and header["kind"] != expect_kind:
        raise SnapshotError(
            f"snapshot is for kind {header['kind']!r}, not {expect_kind!r}"
        )
    if expect_backend is not None and resolve_backend(
        header["backend"]
    ) != resolve_backend(expect_backend):
        raise SnapshotError(
            f"snapshot was taken on backend {header['backend']!r}, "
            f"not {expect_backend!r}"
        )
    if expect_fingerprint is not None and header["fingerprint"] != expect_fingerprint:
        raise SnapshotError(
            "snapshot fingerprint does not match the resuming instance"
        )
    if not allow_cross_version and header.get("python") != _python_tag():
        raise SnapshotError(
            f"snapshot was written by Python {header.get('python')}, "
            f"this is {_python_tag()} (set allow_cross_version to override)"
        )
    newline = blob.index(b"\n", len(SNAPSHOT_MAGIC))
    try:
        state = pickle.loads(zlib.decompress(blob[newline + 1 :]))
    except Exception as exc:  # zlib.error / pickle errors / EOF
        raise SnapshotError(f"corrupt snapshot payload: {exc}") from exc
    return header, state


def drain(machine) -> "_DrainIterator":
    """Iterate a search machine's ``advance()`` until exhaustion."""
    return _DrainIterator(machine)


class _DrainIterator:
    """Thin iterator adapter so generator-based APIs keep their shape."""

    __slots__ = ("machine",)

    def __init__(self, machine) -> None:
        self.machine = machine

    def __iter__(self) -> "_DrainIterator":
        return self

    def __next__(self):
        item = self.machine.advance()
        if item is None:
            raise StopIteration
        return item


class RegulatedSearch:
    """Suspendable form of the output-queue regulator (Theorem 20).

    Wraps an *event-level* search machine and re-times its stream the
    way :func:`repro.enumeration.queue_method.regulate` does: buffer the
    first ``prime`` solutions, then release one buffered solution per
    ``window`` traversal events.  The buffer, priming flag and window
    counter are part of the machine state, so the linear-delay variants
    suspend and resume exactly like the raw enumerators.
    """

    def __init__(self, machine, prime: int, window: int = 4) -> None:
        from repro.enumeration.events import SOLUTION

        self._solution = SOLUTION
        self.machine = machine
        self.prime = max(1, int(prime))
        self.window = max(1, int(window))
        self.buffer: list = []
        self.primed = False
        self.events_since_release = 0
        self.drained = False

    def advance(self):
        """The next regulated solution, or ``None`` when exhausted."""
        while True:
            if self.drained:
                if self.buffer:
                    return self.buffer.pop(0)
                return None
            event = self.machine.advance()
            if event is None:
                self.drained = True
                continue
            if event[0] == self._solution:
                self.buffer.append(event[1])
                if not self.primed and len(self.buffer) >= self.prime:
                    self.primed = True
                    self.events_since_release = 0
                continue
            self.events_since_release += 1
            if (
                self.primed
                and self.buffer
                and self.events_since_release >= self.window
            ):
                self.events_since_release = 0
                return self.buffer.pop(0)

    # -- snapshot plumbing ---------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Plain-data state: the wrapped machine's state plus the queue."""
        return {
            "machine": self.machine.state(),
            "prime": self.prime,
            "window": self.window,
            "buffer": list(self.buffer),
            "primed": self.primed,
            "events_since_release": self.events_since_release,
            "drained": self.drained,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Adopt a :meth:`state` dict (the wrapped machine is restored
        by the caller before this is invoked)."""
        self.prime = state["prime"]
        self.window = state["window"]
        self.buffer = list(state["buffer"])
        self.primed = state["primed"]
        self.events_since_release = state["events_since_release"]
        self.drained = state["drained"]
