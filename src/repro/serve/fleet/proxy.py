"""Minimal asyncio HTTP/1.1 client used by the router to reach replicas.

The replicas speak the exact protocol of :mod:`repro.serve.protocol`
(one request per connection, plain-JSON responses with
``Content-Length``, streams as ``Transfer-Encoding: chunked`` NDJSON),
so the router needs only this small, dependency-free client: open a
connection, send one request, read the response head, then either the
sized body or the chunked NDJSON events.

A stream is read one upstream read at a time: :func:`read_events`
yields, per read, every complete event that read finished
(:class:`ChunkedEvents` decodes the framing across read boundaries), so
the router relays a read's solutions with one write and one drain
instead of one per event.

Kept separate from the router so the chaos tests can hit the framing
edge cases (truncated chunk, missing terminator, oversized head)
directly.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.serve.protocol import ProtocolError

#: Guard against a misbehaving upstream streaming an unbounded header
#: block or a single absurd NDJSON event at the router.
MAX_HEAD_LINE = 64 * 1024
MAX_EVENT_BYTES = 16 * 1024 * 1024

#: Bytes asked of an upstream stream per read.
READ_SIZE = 64 * 1024


async def send_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Dict[str, str]] = None,
    connect_timeout: float = 10.0,
    rcvbuf: Optional[int] = None,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a connection to a replica and write one request.

    ``rcvbuf`` bounds the connection's receive buffering.  It must be
    applied *before* the TCP handshake: the receive window is
    advertised at connect time and can never shrink afterwards, so a
    post-connect clamp would leave the replica free to dump an entire
    stream into kernel memory (defeating per-stream backpressure).
    """

    async def _connect() -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if rcvbuf is None:
            return await asyncio.open_connection(host, port)
        raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
            raw.setblocking(False)
            await asyncio.get_running_loop().sock_connect(raw, (host, port))
        except BaseException:
            raw.close()
            raise
        # The StreamReader's user-space buffer must be bounded too (its
        # default limit is 64KiB, enough to swallow a whole stream).
        # Chunk *data* is read with readexactly, which tolerates sizes
        # beyond the limit, so large events still work; only buffering
        # ahead of the consumer is capped.
        return await asyncio.open_connection(sock=raw, limit=rcvbuf)

    reader, writer = await asyncio.wait_for(_connect(), timeout=connect_timeout)
    head = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        "Connection: close",
        f"Content-Length: {len(body)}",
        "Content-Type: application/json",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()
    return reader, writer


async def read_response_head(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str]]:
    """Parse a response's status line + headers: ``(status, headers)``."""
    line = await reader.readline()
    if not line:
        raise ProtocolError("upstream closed before the status line")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ProtocolError(f"malformed status line {line!r}")
    status = int(parts[1])
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError("upstream closed inside the header block")
        if len(raw) > MAX_HEAD_LINE:
            raise ProtocolError("oversized header line from upstream")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def read_sized_body(
    reader: asyncio.StreamReader, headers: Dict[str, str]
) -> bytes:
    """The ``Content-Length`` body (or read-to-EOF when unsized)."""
    raw_length = headers.get("content-length")
    if raw_length is None:
        return await reader.read()
    try:
        length = int(raw_length)
    except ValueError as exc:
        raise ProtocolError(f"malformed Content-Length {raw_length!r}") from exc
    if length < 0 or length > MAX_EVENT_BYTES:
        raise ProtocolError(f"unreasonable Content-Length {length}")
    return await reader.readexactly(length) if length else b""


class ChunkedEvents:
    """Incremental decoder of a chunked NDJSON body into event lines.

    :meth:`feed` takes the bytes of one upstream read and returns every
    complete event line (no trailing LF) they finish, in order.  The
    replica frames one event per HTTP chunk, but TCP does not owe us
    that alignment: a read may end inside a chunk-size line, a chunk or
    its CRLF, and decoded bytes are re-split on newlines, so an event
    split across chunks comes out whole and a chunk holding several
    comes out as several.  ``done`` turns true at the zero-size chunk
    (its CRLF need not arrive).  Malformed framing (a bad or oversized
    chunk size, an event over :data:`MAX_EVENT_BYTES`) stops decoding:
    the events before it are still returned, and ``error`` holds the
    :class:`ProtocolError` for the caller to raise.
    """

    def __init__(self) -> None:
        self._buf = bytearray()  # bytes not decoded yet
        self._size: Optional[int] = None  # data bytes of the open chunk
        self._pending = bytearray()  # decoded bytes of an unfinished event
        self.done = False
        self.error: Optional[ProtocolError] = None

    def feed(self, data: bytes) -> List[bytes]:
        """The event lines ``data`` completes."""
        lines: List[bytes] = []
        if self.done or self.error is not None:
            return lines
        self._buf += data
        if self._size is not None and len(self._buf) < self._size + 2:
            # The open chunk is still short: it is decoded once, whole,
            # so an event that spans many reads is not copied per read.
            return lines
        try:
            self._decode(lines)
        except ProtocolError as exc:
            self.error = exc
        return lines

    def _decode(self, lines: List[bytes]) -> None:
        buf = bytes(self._buf)
        pos, end = 0, len(buf)
        try:
            while True:
                size = self._size
                if size is None:
                    newline = buf.find(b"\n", pos)
                    if newline < 0:
                        if end - pos > MAX_HEAD_LINE:
                            raise ProtocolError("oversized chunk-size line from upstream")
                        return
                    size_line = buf[pos : newline + 1]
                    pos = newline + 1
                    try:
                        size = int(size_line.strip().split(b";")[0], 16)
                    except ValueError as exc:
                        raise ProtocolError(f"malformed chunk size {size_line!r}") from exc
                    if size < 0 or size > MAX_EVENT_BYTES:
                        raise ProtocolError(f"unreasonable chunk size {size}")
                    if size == 0:
                        self.done = True
                        if self._pending.strip():
                            lines.append(bytes(self._pending))
                        return
                    self._size = size
                if end - pos < size + 2:  # the data and the CRLF after it
                    return
                *events, rest = buf[pos : pos + size].split(b"\n")
                pos += size + 2
                self._size = None
                if events and self._pending:
                    events[0] = bytes(self._pending + events[0])
                    self._pending.clear()
                lines += [event for event in events if event.strip()]
                self._pending += rest
                if len(self._pending) > MAX_EVENT_BYTES:
                    raise ProtocolError("oversized NDJSON event from upstream")
        finally:
            del self._buf[:pos]


async def read_events(reader: asyncio.StreamReader) -> AsyncIterator[List[bytes]]:
    """Decode a chunked NDJSON body: per upstream read, the complete
    event lines it finished (reads that finish none yield nothing).

    Raises :class:`ProtocolError` on malformed framing, after yielding
    the events before it, and ``IncompleteReadError`` when the upstream
    ends before the zero-size chunk (the router turns either into a
    migration).
    """
    decoder = ChunkedEvents()
    while not decoder.done:
        data = await reader.read(READ_SIZE)
        if not data:
            raise asyncio.IncompleteReadError(b"", None)
        lines = decoder.feed(data)
        if lines:
            yield lines
        if decoder.error is not None:
            raise decoder.error


async def fetch_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """One plain-JSON request/response round trip with a replica.

    Returns ``(status, parsed body, response headers)``; the body falls
    back to ``{}`` when the upstream response is not a JSON object.
    """

    async def _go() -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        body = json.dumps(payload).encode() if payload is not None else b""
        reader, writer = await send_request(
            host, port, method, path, body, headers=headers
        )
        try:
            status, response_headers = await read_response_head(reader)
            raw = await read_sized_body(reader, response_headers)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        try:
            parsed = json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {}
        if not isinstance(parsed, dict):
            parsed = {"value": parsed}
        return status, parsed, response_headers

    return await asyncio.wait_for(_go(), timeout=timeout)
