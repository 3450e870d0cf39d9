"""One route table, two tiers: the bare server and the fleet router answer alike.

Every row below goes to a bare :class:`EnumerationServer` and to a
:class:`FleetRouter` over two embedded replicas, each started fresh for
the row.  Both tiers run the same front door
(:class:`repro.serve.httpd.FrontDoor`), so each row must get the same
status line, the same reason phrase, the same headers (lengths aside)
and the same body.  Only timing fields are scrubbed.  The per-tier
documents (``/healthz``, ``/stats``, ``/metrics``, ``/fleet*``) differ by
design and keep their own tests.
"""

from __future__ import annotations

import http.client
import io
import json
import re
import socket
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.frontdoor.tenants import TenantRegistry
from repro.serve.fleet import FleetRouter
from repro.serve.server import EnumerationServer, ServerThread

JOB = {
    "kind": "steiner-tree",
    "edges": [[1, 2], [2, 3], [1, 3], [3, 4], [2, 4]],
    "terminals": [1, 4],
}
DATASET = {
    "name": "grid",
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    "node_keywords": [["a", ["alpha"]], ["c", ["beta"]]],
}
REGISTER = ("POST", "/datasets", DATASET)

#: Wall-clock fields: the only parts of a body allowed to differ.
_TIMING = re.compile(
    rb'"(compute_seconds|elapsed_ms|created|retry_after)": [0-9.e+-]+'
)
#: Headers whose values follow from the scrubbed body or the clock.
_VOLATILE_HEADERS = {"content-length", "retry-after"}


class Tier(NamedTuple):
    name: str
    port: int
    key: Optional[str]  # the tenant's API key on an authed tier


class Reply(NamedTuple):
    status: int
    reason: str
    headers: Tuple[Tuple[str, str], ...]
    body: bytes


class _Recorded:
    """A socket stand-in that replays a recorded response to http.client."""

    def __init__(self, data: bytes) -> None:
        self._data = data

    def makefile(self, *_args: Any, **_kwargs: Any) -> io.BytesIO:
        return io.BytesIO(self._data)


def exchange(port: int, data: bytes) -> Reply:
    """Send raw request bytes; parse the response (chunked bodies decoded)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        raw = b""
        while True:
            got = sock.recv(65536)
            if not got:
                break
            raw += got
    response = http.client.HTTPResponse(_Recorded(raw))  # type: ignore[arg-type]
    response.begin()
    headers = tuple(
        sorted(
            (name.lower(), "*" if name.lower() in _VOLATILE_HEADERS else value)
            for name, value in response.getheaders()
        )
    )
    return Reply(response.status, response.reason, headers, response.read())


def request_bytes(
    method: str, target: str, body: Any = None, key: Optional[str] = None
) -> bytes:
    if body is None:
        payload = b""
    elif isinstance(body, bytes):
        payload = body
    else:
        payload = json.dumps(body).encode()
    head = f"{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(payload)}\r\n"
    if key is not None:
        head += f"X-Api-Key: {key}\r\n"
    return head.encode() + b"\r\n" + payload


def call(tier: Tier, method: str, target: str, body: Any = None, key: bool = False) -> Reply:
    return exchange(tier.port, request_bytes(method, target, body, tier.key if key else None))


def registered(tier: Tier) -> List[str]:
    reply = call(tier, "GET", "/datasets")
    assert reply.status == 200, reply
    return [d["name"] for d in json.loads(reply.body)["datasets"]]


def _tiers(tenants_of=lambda: None, require_auth: bool = False):
    """Start a bare server and a two-replica fleet; yields their Tiers."""
    started: List[ServerThread] = []

    def run(frontdoor):
        started.append(ServerThread(frontdoor).start())
        return started[-1]

    def key_of(registry):
        if registry is None:
            return None
        return registry.issue("acme", requests=1, window=300.0).key

    try:
        server_tenants = tenants_of()
        bare = run(
            EnumerationServer(
                workers=1, tenants=server_tenants, require_auth=require_auth
            )
        )
        replicas = [run(EnumerationServer(workers=1)) for _ in range(2)]
        router_tenants = tenants_of()
        router = FleetRouter(
            tenants=router_tenants, require_auth=require_auth, health_interval=0
        )
        front = run(router)
        for i, replica in enumerate(replicas):
            router.add_replica(f"replica-{i}", "127.0.0.1", replica.port)
        yield [
            Tier("server", bare.port, key_of(server_tenants)),
            Tier("router", front.port, key_of(router_tenants)),
        ]
    finally:
        for thread in reversed(started):
            thread.stop()


@pytest.fixture
def tiers():
    yield from _tiers()


@pytest.fixture
def authed_tiers():
    yield from _tiers(lambda: TenantRegistry(None), require_auth=True)


class Row(NamedTuple):
    method: str
    target: str
    body: Any
    status: int
    setup: Tuple[Tuple[str, str, Any], ...] = ()
    registers_nothing: bool = False


def _bad_dataset(**fields: Any) -> Dict[str, Any]:
    return {"name": "bad", "edges": [["a", "b"]], **fields}


ROWS = {
    # /enumerate
    "enumerate-get": Row("GET", "/enumerate", None, 405),
    "enumerate-not-json": Row("POST", "/enumerate", b"{nope", 400),
    "enumerate-not-an-object": Row("POST", "/enumerate", b"[1, 2]", 400),
    "enumerate-bad-job": Row(
        "POST", "/enumerate", {"job": {"kind": "no-such-kind", "edges": []}}, 400
    ),
    "enumerate-valid-job": Row("POST", "/enumerate", {"job": JOB}, 200),
    "enumerate-by-dataset": Row(
        "POST",
        "/enumerate",
        {"job": {"kind": "steiner-tree", "dataset": "grid", "terminals": ["a", "c"]}},
        200,
        setup=(REGISTER,),
    ),
    # /datasets
    "datasets-post": Row("POST", "/datasets", DATASET, 200),
    "datasets-repost-dedupes": Row("POST", "/datasets", DATASET, 200, setup=(REGISTER,)),
    "datasets-array": Row("POST", "/datasets", b"[]", 400, registers_nothing=True),
    "datasets-not-json": Row("POST", "/datasets", b"{bad", 400, registers_nothing=True),
    "datasets-object-keywords": Row(
        "POST",
        "/datasets",
        _bad_dataset(node_keywords={"ab": ["alpha"]}),
        400,
        registers_nothing=True,
    ),
    "datasets-string-keywords": Row(
        "POST",
        "/datasets",
        _bad_dataset(node_keywords=[["ab", "alpha"]]),
        400,
        registers_nothing=True,
    ),
    "datasets-string-edge": Row(
        "POST", "/datasets", {"name": "bad", "edges": ["ab"]}, 400, registers_nothing=True
    ),
    "datasets-string-vertices": Row(
        "POST", "/datasets", _bad_dataset(vertices="xyz"), 400, registers_nothing=True
    ),
    "datasets-get": Row("GET", "/datasets", None, 200, setup=(REGISTER,)),
    "datasets-put": Row("PUT", "/datasets", None, 405),
    "datasets-delete-unknown": Row("DELETE", "/datasets/nope", None, 404),
    "datasets-delete-known": Row(
        "DELETE", "/datasets/grid", None, 200, setup=(REGISTER,), registers_nothing=True
    ),
    # /answer
    "answer-get-q": Row(
        "GET", "/answer?dataset=grid&q=alpha,beta&k=2", None, 200, setup=(REGISTER,)
    ),
    "answer-post-keywords": Row(
        "POST",
        "/answer",
        {"dataset": "grid", "keywords": ["alpha", "beta"], "k": 2},
        200,
        setup=(REGISTER,),
    ),
    "answer-unknown-dataset": Row(
        "POST", "/answer", {"dataset": "nope", "keywords": ["alpha"]}, 404
    ),
    "answer-no-keywords": Row(
        "POST", "/answer", {"dataset": "grid"}, 400, setup=(REGISTER,)
    ),
    "answer-bad-k": Row(
        "POST",
        "/answer",
        {"dataset": "grid", "keywords": ["alpha"], "k": "x"},
        400,
        setup=(REGISTER,),
    ),
    "answer-delete": Row("DELETE", "/answer", None, 405),
    # request level
    "unknown-path": Row("GET", "/no-such-path", None, 404),
}

#: Requests http.client cannot send: raw bytes and their status.
RAW_ROWS = {
    "malformed-request-line": (b"\x16\x03\x01 garbage\r\n\r\n", 400),
    "chunked-request-body": (
        b"POST /enumerate HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n"
        b'6\r\n{"a":1\r\n0\r\n\r\n',
        400,
    ),
}


def scrubbed(reply: Reply) -> Reply:
    return reply._replace(body=_TIMING.sub(rb'"\1": 0', reply.body))


def assert_same(replies: Dict[str, Reply], status: int) -> Reply:
    server, router = scrubbed(replies["server"]), scrubbed(replies["router"])
    assert server.status == status, replies["server"]
    assert router == server, f"router {router!r}\nserver {server!r}"
    return server


@pytest.mark.parametrize("row_id", sorted(ROWS))
def test_route_table(tiers, row_id):
    row = ROWS[row_id]
    replies = {}
    for tier in tiers:
        for method, target, body in row.setup:
            assert call(tier, method, target, body).status == 200
        replies[tier.name] = call(tier, row.method, row.target, row.body)
        if row.registers_nothing:
            assert registered(tier) == [], tier.name
    reply = assert_same(replies, row.status)
    if reply.status == 405:
        allowed = dict(reply.headers)["allow"]
        message = " or ".join(allowed.split(", ")) + " required"
        assert json.loads(reply.body)["error"] == message
    if row_id == "enumerate-valid-job":
        events = [json.loads(line) for line in reply.body.splitlines()]
        assert events[-1]["event"] == "end" and events[-1]["exhausted"]
        assert sum(e["event"] == "solution" for e in events) == events[-1]["count"] > 0
    if row_id == "datasets-repost-dedupes":
        assert json.loads(reply.body)["deduped"] is True


def test_wrong_method_keeps_the_old_405_bodies(tiers):
    """The two 405s the tiers always sent keep their exact bodies."""
    for tier in tiers:
        reply = call(tier, "GET", "/enumerate")
        assert (reply.status, json.loads(reply.body)["error"]) == (405, "POST required")
        reply = call(tier, "PUT", "/datasets")
        assert json.loads(reply.body)["error"] == "POST or GET required"
        assert dict(reply.headers)["allow"] == "POST, GET"


@pytest.mark.parametrize("row_id", sorted(RAW_ROWS))
def test_malformed_requests(tiers, row_id):
    data, status = RAW_ROWS[row_id]
    assert_same({tier.name: exchange(tier.port, data) for tier in tiers}, status)


def test_auth_anonymous_is_401(authed_tiers):
    replies = {t.name: call(t, "POST", "/enumerate", {"job": JOB}) for t in authed_tiers}
    assert_same(replies, 401)


def test_auth_healthz_stays_open(authed_tiers):
    # The /healthz documents differ by design; the status does not.
    for tier in authed_tiers:
        reply = call(tier, "GET", "/healthz")
        assert (reply.status, reply.reason) == (200, "OK")
        assert json.loads(reply.body)["ok"] is True


def test_auth_over_quota_is_429_with_retry_after(authed_tiers):
    replies = {}
    for tier in authed_tiers:
        first = call(tier, "POST", "/enumerate", {"job": JOB}, key=True)
        assert first.status == 200, tier.name
        replies[tier.name] = call(tier, "POST", "/enumerate", {"job": JOB}, key=True)
        assert "retry-after" in dict(replies[tier.name].headers)
    assert_same(replies, 429)
