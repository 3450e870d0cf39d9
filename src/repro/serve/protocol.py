"""Wire protocol helpers for the streaming service.

The service speaks **HTTP/1.1 + NDJSON**: a request is a normal HTTP
``POST`` whose body is one JSON object, and a streaming response is
``Transfer-Encoding: chunked`` with ``Content-Type:
application/x-ndjson`` — one JSON event object per line.  Event shapes:

``{"event": "accepted", "id": ..., "kind": ..., "offset": N,
"source": "live" | "replay" | "partial-replay"}``
    First line of every stream; ``offset`` is the resume position
    (0 for fresh streams) and ``source`` says how the stream is fed.

``{"event": "solution", "seq": N, "line": "..."}``
    One enumerated solution.  ``seq`` is the absolute position in the
    job's solution stream (resumed streams continue their numbering),
    ``line`` the CLI's canonical text rendering.

``{"event": "end", "count": N, "total": N, "exhausted": bool,
"stop_reason": ..., "cached": bool}``
    Terminal event of a successful stream.  ``count`` is the number of
    solutions this response delivered, ``total`` the stream position
    reached, ``cached`` whether the whole response was replayed from
    the store/cache without enumerating.

``{"event": "error", "error": "..."}``
    Terminal event of a failed stream (also sent as the body of
    non-200 responses).

Plain-JSON endpoints (``GET /healthz``, ``GET /stats``) return a single
object with ``Content-Length``.  This module contains the framing
helpers shared by the asyncio server; the blocking client
(:mod:`repro.serve.client`) uses :mod:`http.client`, which decodes
chunked NDJSON transparently.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Optional, Tuple

#: Reason phrases for the status codes the server emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """Malformed HTTP request (surfaces as a 400 response)."""


def clamp_connection_buffers(
    writer, sndbuf: Optional[int] = None, rcvbuf: Optional[int] = None
) -> None:
    """Bound one connection's kernel/transport buffering (fairness knob).

    Loopback TCP autotunes socket buffers into the megabytes, which lets
    a whole solution stream sit in kernel memory while the consumer sips
    from it — ``drain()`` never blocks, so per-stream backpressure (the
    worker credit protocol) never engages and a slow client holds megabytes
    of buffered state instead of parking its worker.  Clamping ``SO_SNDBUF``
    (plus the asyncio transport's user-space write buffer) and/or
    ``SO_RCVBUF`` restores the bound: buffering per connection is O(limit)
    and ``drain()`` tracks the consumer's real pace.

    No-op directions are skipped; a transport without a raw socket is
    left alone.
    """
    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            if sndbuf is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
            if rcvbuf is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        except OSError:  # pragma: no cover - exotic transports
            pass
    if sndbuf is not None:
        transport = getattr(writer, "transport", None)
        if transport is not None:
            try:
                transport.set_write_buffer_limits(high=sndbuf)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass


def encode_event(event: Dict[str, Any]) -> bytes:
    """One NDJSON event line, HTTP-chunk framed."""
    data = (json.dumps(event, sort_keys=True) + "\n").encode()
    return b"%x\r\n%s\r\n" % (len(data), data)


#: The zero-length chunk that terminates a chunked response body.
FINAL_CHUNK = b"0\r\n\r\n"


def response_head(
    status: int,
    content_type: str,
    length: Optional[int] = None,
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """HTTP/1.1 response head; chunked when ``length`` is ``None``."""
    head = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    if length is None:
        head.append("Transfer-Encoding: chunked")
    else:
        head.append(f"Content-Length: {length}")
    return ("\r\n".join(head) + "\r\n\r\n").encode()


def json_response(
    status: int,
    payload: Dict[str, Any],
    headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """A complete plain-JSON HTTP response (optionally extra headers)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return response_head(status, "application/json", len(body), headers) + body


def split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """Split a request target into ``(path, query-params)``.

    Query values are percent-decoded (``+`` means space); a repeated
    parameter keeps its last value.  The front-door endpoints
    (``GET /answer?dataset=...&q=...``) route through this; the legacy
    routes see their unchanged path.
    """
    from urllib.parse import parse_qsl, unquote

    path, _sep, raw_query = target.partition("?")
    params: Dict[str, str] = {}
    for key, value in parse_qsl(raw_query, keep_blank_values=True):
        params[key] = value
    return unquote(path), params


async def read_request(reader) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Parse one HTTP/1.1 request: ``(method, path, headers, body)``.

    Returns ``None`` at EOF (client closed without sending a request);
    raises :class:`ProtocolError` on malformed input.
    """
    line = await reader.readline()
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").split()
    except ValueError as exc:
        raise ProtocolError(f"malformed request line {line!r}") from exc
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ProtocolError("connection closed inside the header block")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        # Request bodies are read by Content-Length only; silently
        # treating a chunked body as empty would smuggle its frames
        # into the connection as a phantom second request.
        raise ProtocolError(
            "chunked request bodies are not supported; send Content-Length"
        )
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as exc:
        raise ProtocolError("malformed Content-Length") from exc
    if length < 0 or length > 64 * 1024 * 1024:
        raise ProtocolError(f"unreasonable Content-Length {length}")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body
