"""Closed-loop load generator and the client side of a stream.

Each client sends its next request only after its previous stream has
ended.  The client speaks HTTP/1.1 over a raw socket and decodes the
chunked NDJSON itself, so client cost stays small and measurable
(``client.decode_us_per_sol``), and the solution lines are hashed as they
arrive for the byte-for-byte check against the in-process reference.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from sut import HOST


@dataclass
class Item:
    """One scheduled request."""

    rid: int
    spec: Dict[str, Any]  # the job as sent
    body: bytes  # the POST /enumerate payload
    expect: Optional[Tuple[int, str]] = None  # (count, digest) when known up front
    expect_cached: bool = False


@dataclass
class Stream:
    """What one client saw of one request."""

    item: Item
    sent: float
    done: float
    status: int = 0
    first: Optional[float] = None
    count: int = 0
    digest: str = ""
    gap_max: float = 0.0
    end: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    decode_s: float = 0.0
    solution_times: List[float] = field(default_factory=list)


def lines_digest(lines) -> str:
    """SHA-256 over the solution lines, each ``\\n``-terminated."""
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _request(body: bytes) -> bytes:
    return (
        b"POST /enumerate HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % (HOST.encode(), len(body))
    ) + body


def stream_once(port: int, item: Item, traced: bool) -> Stream:
    """Send one request and consume its stream to the end."""
    hasher = hashlib.sha256()
    out = Stream(item=item, sent=time.perf_counter(), done=0.0)
    last = None
    loads = json.loads
    clock = time.perf_counter
    try:
        with socket.create_connection((HOST, port), timeout=300) as sock:
            sock.sendall(_request(item.body))
            reader = sock.makefile("rb")
            out.status = int(reader.readline().split()[1])
            headers: Dict[str, str] = {}
            while True:
                raw = reader.readline()
                if raw in (b"\r\n", b"\n", b""):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            if out.status != 200 or "chunked" not in headers.get("transfer-encoding", ""):
                payload = reader.read(int(headers.get("content-length", "0") or 0))
                out.error = f"HTTP {out.status}: {payload[:200]!r}"
                return out
            while out.end is None and out.error is None:
                size = int(reader.readline().strip() or b"0", 16)
                if size == 0:
                    break
                for raw in reader.read(size + 2)[:-2].splitlines():
                    if traced:
                        t0 = clock()
                        event = loads(raw)
                        out.decode_s += clock() - t0
                    else:
                        event = loads(raw)
                    kind = event.get("event")
                    if kind == "solution":
                        now = clock()
                        if last is None:
                            out.first = now
                        elif now - last > out.gap_max:
                            out.gap_max = now - last
                        last = now
                        if traced:
                            out.solution_times.append(now)
                        hasher.update(event["line"].encode())
                        hasher.update(b"\n")
                        out.count += 1
                    elif kind == "end":
                        out.end = event
                    elif kind == "error":
                        out.error = str(event.get("error"))
            if out.end is None and out.error is None:
                out.error = "stream ended without a terminal event"
    except (OSError, ValueError, IndexError) as exc:
        out.error = f"{type(exc).__name__}: {exc}"
    finally:
        out.done = time.perf_counter()
        out.digest = hasher.hexdigest()
    return out


def closed_loop(
    port: int, queues: Sequence[Iterator[Item]], traced: bool
) -> Tuple[List[Stream], float, float]:
    """One closed-loop client per queue (queues may be one shared
    iterator) until the items run out.  Returns the streams and the
    first-send / last-end times."""
    lock = threading.Lock()
    streams: List[Stream] = []

    def client(queue: Iterator[Item]) -> None:
        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            result = stream_once(port, item, traced)
            with lock:
                streams.append(result)

    threads = [threading.Thread(target=client, args=(q,)) for q in queues]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((s.done for s in streams), default=start)
    streams.sort(key=lambda s: s.item.rid)
    return streams, start, end
