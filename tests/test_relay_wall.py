"""The relay wall: the router reads a replica's chunked NDJSON stream one
upstream read at a time and relays each read's solutions in one write.

* The reader (:func:`repro.serve.fleet.proxy.read_events`) is fed a
  recorded upstream byte stream split at hypothesis-chosen offsets —
  chunk-size lines split across reads, an event split across chunks,
  several events in one chunk, the final zero chunk with and without
  its CRLF — and must yield the lines the per-event reader the router
  used before yielded (a reference copy is kept here).  Malformed
  framing still raises, after the events before it.  A chunk that
  arrives over many reads is decoded once, when whole.
* A router over scripted replicas must send the client the bytes the
  per-event relay sent, whatever the upstream's read boundaries.
* A replica leg that delivers ``k`` solutions and then a malformed
  event in one read: the client gets those ``k``, then the survivor's
  tail from ``k``, with no gap and no repeat.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.jobs import EnumerationJob
from repro.serve.fleet import proxy
from repro.serve.fleet.proxy import MAX_EVENT_BYTES, read_events
from repro.serve.fleet.router import FleetRouter
from repro.serve.protocol import FINAL_CHUNK, ProtocolError, encode_event, response_head
from repro.serve.server import ServerThread

JOB = EnumerationJob.st_path([(0, 1), (1, 2), (0, 2)], 0, 2)


# ----------------------------------------------------------------------
# the reference: the per-event reader and relay as written before
# ----------------------------------------------------------------------
async def _ref_iter_chunked_lines(reader):
    pending = b""
    while True:
        size_line = await reader.readline()
        if not size_line:
            raise asyncio.IncompleteReadError(b"", None)
        try:
            size = int(size_line.strip().split(b";")[0], 16)
        except ValueError as exc:
            raise ProtocolError(f"malformed chunk size {size_line!r}") from exc
        if size < 0 or size > MAX_EVENT_BYTES:
            raise ProtocolError(f"unreasonable chunk size {size}")
        if size == 0:
            await reader.readline()
            if pending.strip():
                yield pending
            return
        data = await reader.readexactly(size)
        await reader.readexactly(2)
        pending += data
        while True:
            newline = pending.find(b"\n")
            if newline < 0:
                break
            line = pending[:newline]
            pending = pending[newline + 1 :]
            if line.strip():
                yield line


def _reference_lines(body: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(body)
        reader.feed_eof()
        return [line async for line in _ref_iter_chunked_lines(reader)]

    return asyncio.run(go())


def _reference_relay(lines) -> bytes:
    """What the per-event relay sent a client for one clean leg."""
    out = response_head(200, "application/x-ndjson")
    count = 0
    for line in lines:
        event = json.loads(line)
        if event["event"] == "accepted":
            out += encode_event(event)
        elif event["event"] == "end":
            event["count"] = count
            return out + encode_event(event) + FINAL_CHUNK
        else:
            count += event["event"] == "solution"
            out += b"%x\r\n%s\r\n" % (len(line) + 1, line + b"\n")
    raise AssertionError("no end event")


# ----------------------------------------------------------------------
# recorded streams
# ----------------------------------------------------------------------
def _events(n: int, offset: int = 0):
    yield {"event": "accepted", "offset": offset, "stream_id": "s"}
    for seq in range(offset, n):
        yield {"event": "solution", "seq": seq, "line": f"0->{seq}->é \"q\""}
        if seq == offset + 1:
            yield {"event": "progress", "seq": seq}
    yield {"event": "end", "count": n - offset, "compute_seconds": 0.25}


@st.composite
def bodies(draw):
    """A chunked body of one stream: mostly one event per chunk, with
    events split across chunks and chunks holding several events."""
    n = draw(st.integers(0, 12))
    lines = [(json.dumps(e, sort_keys=True) + "\n").encode() for e in _events(n)]
    payloads, i = [], 0
    while i < len(lines):
        shape = draw(st.sampled_from(["one", "one", "split", "several"]))
        if shape == "split" and len(lines[i]) > 2:
            cut = draw(st.integers(1, len(lines[i]) - 1))
            payloads += [lines[i][:cut], lines[i][cut:]]
            i += 1
        elif shape == "several":
            k = draw(st.integers(2, 4))
            payloads.append(b"".join(lines[i : i + k]))
            i += k
        else:
            payloads.append(lines[i])
            i += 1
    body = b"".join(b"%x\r\n%s\r\n" % (len(p), p) for p in payloads)
    return body + (b"0\r\n\r\n" if draw(st.booleans()) else b"0\r\n")


def _split(body: bytes, cuts):
    cuts = sorted({c % (len(body) + 1) for c in cuts} | {0, len(body)})
    return [body[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


class _Reads:
    """A reader whose reads return the given pieces, then EOF."""

    def __init__(self, pieces) -> None:
        self.pieces = list(pieces)

    async def read(self, n: int) -> bytes:
        if not self.pieces:
            return b""
        piece = self.pieces.pop(0)
        assert len(piece) <= n
        return piece


def _read_all(pieces):
    async def go():
        batches, error = [], None
        try:
            async for batch in read_events(_Reads(pieces)):
                batches.append(batch)
        except (ProtocolError, asyncio.IncompleteReadError) as exc:
            error = exc
        return batches, error

    return asyncio.run(go())


@settings(max_examples=200, deadline=None)
@given(body=bodies(), cuts=st.lists(st.integers(0, 10_000), max_size=12))
def test_the_reader_yields_the_per_event_readers_lines(body, cuts):
    pieces = _split(body, cuts)
    batches, error = _read_all(pieces)
    assert error is None
    assert all(batches)
    assert len(batches) <= len(pieces)
    assert [line for batch in batches for line in batch] == _reference_lines(body)


@pytest.mark.parametrize(
    "tail, error",
    [
        (b"zz\r\n", ProtocolError),  # malformed size
        (b"%x\r\n" % (MAX_EVENT_BYTES + 1), ProtocolError),  # oversized chunk
        (b"-5\r\n", ProtocolError),  # negative size
        (b"40\r\n" + b"x" * 10, asyncio.IncompleteReadError),  # truncated body
        (b"", asyncio.IncompleteReadError),  # no zero chunk
    ],
)
def test_bad_framing_raises_after_the_events_before_it(tail, error):
    good = b"".join(encode_event(e) for e in list(_events(3))[:3])
    batches, raised = _read_all([good + tail])
    assert isinstance(raised, error)
    assert [line for batch in batches for line in batch] == _reference_lines(good + b"0\r\n\r\n")


def test_an_oversized_event_across_chunks_raises(monkeypatch):
    monkeypatch.setattr(proxy, "MAX_EVENT_BYTES", 64)
    body = b"".join(b"%x\r\n%s\r\n" % (20, b"y" * 20) for _ in range(4))
    batches, raised = _read_all([body])
    assert isinstance(raised, ProtocolError) and "oversized" in str(raised)
    assert batches == []


def test_an_oversized_chunk_size_line_raises():
    line = b"1" * (proxy.MAX_HEAD_LINE + 1)
    batches, raised = _read_all([line[:1000], line[1000:]])
    assert isinstance(raised, ProtocolError) and batches == []


def test_an_event_spanning_many_reads_is_decoded_once_it_is_whole(monkeypatch):
    # Decoding the open chunk on each read would copy its buffered part
    # each time, quadratic in the event's size: it waits until whole.
    body = encode_event({"event": "solution", "seq": 0, "line": "x" * 100_000}) + FINAL_CHUNK
    buffered = []
    decode = proxy.ChunkedEvents._decode

    def counting(self, lines):
        buffered.append(len(self._buf))
        return decode(self, lines)

    monkeypatch.setattr(proxy.ChunkedEvents, "_decode", counting)
    decoder = proxy.ChunkedEvents()
    lines = []
    for at in range(0, len(body), 1000):
        lines += decoder.feed(body[at : at + 1000])
    assert decoder.done and lines == _reference_lines(body)
    assert len(buffered) <= 3, buffered  # the size line, the whole chunk, the zero chunk


# ----------------------------------------------------------------------
# the router over scripted replicas
# ----------------------------------------------------------------------
class ScriptedReplica:
    """A replica that answers ``/healthz`` and streams ``script(payload)``
    (a list of byte pieces, sent with a pause between them) to
    ``/enumerate``."""

    def __init__(self, script) -> None:
        self.script = script
        self.legs: list = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._handle, args=(conn,), daemon=True).start()

    def _handle(self, conn) -> None:
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            data = b""
            while b"\r\n\r\n" not in data:
                more = conn.recv(65536)
                if not more:
                    return
                data += more
            head, body = data.split(b"\r\n\r\n", 1)
            length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
            while len(body) < length:
                body += conn.recv(65536)
            if b" /healthz " in head.split(b"\r\n")[0]:
                reply = b'{"ok": true}'
                conn.sendall(response_head(200, "application/json", len(reply)) + reply)
                return
            payload = json.loads(body)
            self.legs.append(payload)
            try:
                for piece in self.script(payload):
                    conn.sendall(piece)
                    time.sleep(0.002)
            except OSError:
                pass

    def close(self) -> None:
        self.sock.close()


def _client_bytes(port: int) -> bytes:
    body = json.dumps({"job": JOB.to_dict()}).encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            b"POST /enumerate HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        out = b""
        while True:
            more = sock.recv(65536)
            if not more:
                return out
            out += more


_UPSTREAM_HEAD = response_head(200, "application/x-ndjson")


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(body=bodies(), cuts=st.lists(st.integers(0, 10_000), max_size=6))
def test_the_router_sends_the_per_event_relays_bytes(body, cuts):
    replica = ScriptedReplica(lambda _payload: [_UPSTREAM_HEAD, *_split(body, cuts)])
    router = FleetRouter()
    try:
        with ServerThread(router) as thread:
            router.add_replica("only", "127.0.0.1", replica.port)
            got = _client_bytes(thread.port)
    finally:
        replica.close()
    assert got == _reference_relay(_reference_lines(body))


def test_a_leg_failing_mid_read_forwards_what_it_parsed_then_migrates():
    n, k = 9, 4

    def script(payload):
        offset = payload.get("offset")
        if offset is None:  # the first leg: k solutions, then garbage, in one read
            events = [e for e in _events(n) if e["event"] != "progress"][: k + 1]
            garbage = b"{not json}\n"
            return [
                _UPSTREAM_HEAD
                + b"".join(map(encode_event, events))
                + b"%x\r\n%s\r\n" % (len(garbage), garbage)
            ]
        return [_UPSTREAM_HEAD, *map(encode_event, _events(n, offset))]

    replicas = [ScriptedReplica(script), ScriptedReplica(script)]
    router = FleetRouter()
    try:
        with ServerThread(router) as thread:
            for i, replica in enumerate(replicas):
                router.add_replica(f"r{i}", "127.0.0.1", replica.port)
            got = _client_bytes(thread.port)
    finally:
        for replica in replicas:
            replica.close()
    legs = sorted((leg.get("offset") for r in replicas for leg in r.legs), key=str)
    assert legs == [k, None]
    head, body = got.split(b"\r\n\r\n", 1)
    events = [json.loads(line) for line in _reference_lines(body)]
    assert [e["seq"] for e in events if e["event"] == "solution"] == list(range(n))
    assert events[0]["event"] == "accepted" and events[0]["offset"] == 0
    assert events[-1]["event"] == "end"
    assert events[-1]["count"] == n and events[-1]["migrated"] is True
