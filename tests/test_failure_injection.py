"""Failure injection: the public API must fail loudly and predictably.

Every enumerator and substrate gets fed malformed input — missing
vertices, empty terminal sets, self-loops, negative weights, disconnected
instances — and must raise the documented :mod:`repro.exceptions` types
(or yield nothing where emptiness is the documented contract), never a
bare ``KeyError`` from internal dictionaries.

The same discipline applies one layer up: the serve/front-door HTTP
surface (both a single replica and the fleet router, which share the
request parser) gets fed malformed job bodies, truncated and chunked
requests, mid-handshake disconnects and oversized payloads, and must
answer with a documented 4xx — never a traceback-bearing 500 and never
a hung connection (see the ``TestServeHTTP*`` classes).  Cursor
checkpoints read back from the store get the same treatment
(``TestHostileCheckpoints``); result entry files that do not decode are
misses that the next store rewrites (``TestHostileEntries``)."""

import json
import socket

import pytest

from repro.core.directed_steiner import enumerate_minimal_directed_steiner_trees
from repro.core.induced_paths import enumerate_chordless_st_paths
from repro.core.optimum import dreyfus_wagner
from repro.core.ranked import k_lightest_minimal_steiner_trees
from repro.core.steiner_forest import enumerate_minimal_steiner_forests
from repro.core.steiner_tree import enumerate_minimal_steiner_trees
from repro.core.terminal_steiner import enumerate_minimal_terminal_steiner_trees
from repro.exceptions import (
    InvalidInstanceError,
    NoSolutionError,
    ReproError,
    SelfLoopError,
    VertexNotFound,
)
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.shortest_paths import dijkstra, shortest_path
from repro.hypergraph.hypergraph import Hypergraph
from repro.paths.yen import yen_k_shortest_paths
from repro.zdd.steiner import build_steiner_tree_zdd


@pytest.fixture
def small():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3)])


class TestGraphSubstrate:
    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            Graph().add_edge("x", "x")

    def test_self_loop_is_repro_and_value_error(self):
        with pytest.raises(ReproError):
            Graph().add_edge("x", "x")
        with pytest.raises(ValueError):
            Graph().add_edge("x", "x")

    def test_unknown_vertex_query(self, small):
        with pytest.raises(VertexNotFound):
            small.degree(99)

    def test_duplicate_edge_id_rejected(self, small):
        with pytest.raises(ValueError):
            small.add_edge(0, 3, eid=0)

    def test_digraph_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            DiGraph().add_arc("x", "x")


class TestEnumerators:
    def test_steiner_tree_missing_terminal(self, small):
        with pytest.raises(ReproError):
            list(enumerate_minimal_steiner_trees(small, [0, 99]))

    def test_steiner_tree_no_terminals(self, small):
        with pytest.raises(ReproError):
            list(enumerate_minimal_steiner_trees(small, []))

    def test_steiner_tree_disconnected_terminals_yield_nothing(self):
        # infeasibility is an empty enumeration, not an exception (an
        # enumerator's contract: the solution set happens to be empty)
        g = Graph.from_edges([(0, 1), (2, 3)])
        assert list(enumerate_minimal_steiner_trees(g, [0, 3])) == []

    def test_forest_empty_family_list_trivial_solution(self, small):
        # the empty forest is the unique minimal Steiner forest of an
        # empty family collection
        assert list(enumerate_minimal_steiner_forests(small, [])) == [frozenset()]

    def test_forest_family_with_unknown_vertex(self, small):
        with pytest.raises(ReproError):
            list(enumerate_minimal_steiner_forests(small, [[0, 42]]))

    def test_terminal_steiner_edges_between_terminals_unused(self):
        # Lemma 27: solutions never use terminal-terminal edges, but the
        # instance stays feasible through the non-terminal component
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 0)])
        terminal_edge = 0  # the 0-1 edge joins two terminals
        solutions = list(enumerate_minimal_terminal_steiner_trees(g, [0, 1, 3]))
        assert solutions
        assert all(terminal_edge not in sol for sol in solutions)

    def test_directed_root_among_terminals(self):
        d = DiGraph.from_arcs([("r", "a"), ("a", "b")])
        with pytest.raises(ReproError):
            list(enumerate_minimal_directed_steiner_trees(d, ["r", "b"], "r"))

    def test_directed_unreachable_terminal_yields_nothing(self):
        d = DiGraph.from_arcs([("r", "a"), ("b", "a")])
        assert list(enumerate_minimal_directed_steiner_trees(d, ["b"], "r")) == []

    def test_chordless_unknown_endpoint(self, small):
        with pytest.raises(VertexNotFound):
            list(enumerate_chordless_st_paths(small, 0, 77))


class TestWeightedLayers:
    def test_dijkstra_negative_weight(self, small):
        with pytest.raises(InvalidInstanceError):
            dijkstra(small, 0, {0: -3.0})

    def test_shortest_path_unreachable(self):
        g = Graph.from_edges([(0, 1)], vertices=[5])
        with pytest.raises(NoSolutionError):
            shortest_path(g, 0, 5)

    def test_dreyfus_wagner_negative_weight(self, small):
        with pytest.raises(InvalidInstanceError):
            dreyfus_wagner(small, [0, 3], {0: -1.0})

    def test_dreyfus_wagner_disconnected(self):
        g = Graph.from_edges([(0, 1), (2, 3)])
        with pytest.raises(NoSolutionError):
            dreyfus_wagner(g, [0, 3])

    def test_ranked_empty_terminals(self, small):
        with pytest.raises(ReproError):
            k_lightest_minimal_steiner_trees(small, [], {}, 3)

    def test_yen_no_path(self):
        g = Graph.from_edges([(0, 1)], vertices=[9])
        with pytest.raises(NoSolutionError):
            list(yen_k_shortest_paths(g, 0, 9))


class TestCompiledStructures:
    def test_zdd_unknown_terminal(self, small):
        with pytest.raises(InvalidInstanceError):
            build_steiner_tree_zdd(small, [0, 99])

    def test_zdd_empty_terminals(self, small):
        with pytest.raises(InvalidInstanceError):
            build_steiner_tree_zdd(small, [])

    def test_hypergraph_empty_edge(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph([1, 2], [set()])

    def test_hypergraph_edge_outside_universe(self):
        with pytest.raises(InvalidInstanceError):
            Hypergraph([1], [{2}])


@pytest.fixture(scope="module", params=["replica", "router"])
def http_surface(request, tmp_path_factory):
    """A live serve port: one bare replica, or the fleet router.

    Both run :class:`repro.serve.httpd.FrontDoor`, but the router relays
    bodies to a replica that parses them again, so the battery runs
    against both.
    """
    from repro.serve.fleet import FleetRouter
    from repro.serve.server import EnumerationServer, ServerThread

    server = ServerThread(EnumerationServer(workers=1)).start()
    if request.param == "replica":
        yield server.port
        server.stop()
        return
    registry = tmp_path_factory.mktemp("http-surface") / "datasets"
    router = FleetRouter(registry=str(registry))
    thread = ServerThread(router).start()
    router.add_replica("probe", "127.0.0.1", server.port)
    yield thread.port
    thread.stop()
    server.stop()


def _exchange(port: int, data: bytes, timeout: float = 10.0) -> bytes:
    """Send raw bytes, half-close, and read the full response to EOF.

    ``socket.timeout`` escaping here *is* the failure being tested for:
    a surface that neither answers nor closes has hung the connection.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        out = b""
        while True:
            got = sock.recv(65536)
            if not got:
                return out
            out += got


def _post(port: int, path: str, body: bytes) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return _exchange(port, head.encode() + body)


def _status(response: bytes) -> int:
    assert response.startswith(b"HTTP/1.1 "), response[:80]
    return int(response.split(b" ", 2)[1])


def _assert_clean_4xx(response: bytes) -> None:
    status = _status(response)
    assert 400 <= status < 500, response[:200]
    assert b"Traceback" not in response
    body = response.split(b"\r\n\r\n", 1)[1]
    assert "error" in json.loads(body)  # machine-readable, documented shape


def _healthy(port: int) -> bool:
    response = _exchange(port, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
    return _status(response) == 200


class TestServeHTTPMalformedBodies:
    """Garbage /enumerate, /datasets and /answer bodies: documented 400s."""

    BAD_ENUMERATE = {
        "not-json": b"{nope",
        "not-utf8": b'{"job": "\xff\xfe"}',
        "json-array": b"[1, 2, 3]",
        "json-scalar": b'"hello"',
        "empty-object": b"{}",
        "job-not-object": b'{"job": 7}',
        "unknown-kind": b'{"job": {"kind": "no-such-kind"}}',
        "missing-kind": b'{"job": {"edges": [[1, 2]]}}',
        "edges-garbage": b'{"job": {"kind": "steiner-tree", "edges": "zzz", "terminals": [1]}}',
        "unknown-field": b'{"job": {"kind": "st-path", "edges": [[1, 2]], "exploit": 1}}',
        "bad-chunk": b'{"job": {"kind": "st-path", "edges": [[1, 2]], "source": 1, "target": 2}, "chunk": -5}',
        "bad-offset": b'{"job": {"kind": "st-path", "edges": [[1, 2]], "source": 1, "target": 2}, "offset": "x"}',
        "bad-stream-id": b'{"job": {"kind": "st-path", "edges": [[1, 2]], "source": 1, "target": 2}, "stream_id": 9}',
    }

    @pytest.mark.parametrize("case", sorted(BAD_ENUMERATE))
    def test_enumerate_rejects_malformed_bodies(self, http_surface, case):
        _assert_clean_4xx(_post(http_surface, "/enumerate", self.BAD_ENUMERATE[case]))
        assert _healthy(http_surface)

    def test_datasets_rejects_malformed_bodies(self, http_surface):
        _assert_clean_4xx(_post(http_surface, "/datasets", b'{"name": 5, "edges": 1}'))
        _assert_clean_4xx(_post(http_surface, "/datasets", b"!!"))
        assert _healthy(http_surface)

    def test_answer_rejects_malformed_bodies(self, http_surface):
        _assert_clean_4xx(_post(http_surface, "/answer", b"[1]"))
        _assert_clean_4xx(_post(http_surface, "/answer", b'{"dataset": 3}'))
        assert _healthy(http_surface)


class TestServeHTTPFraming:
    """Broken HTTP framing: 400 or a prompt close, never a hang."""

    def test_garbage_request_line(self, http_surface):
        response = _exchange(http_surface, b"\x16\x03\x01\x02\x00 garbage\r\n\r\n")
        _assert_clean_4xx(response)

    def test_malformed_header_line(self, http_surface):
        response = _exchange(
            http_surface, b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n"
        )
        _assert_clean_4xx(response)

    def test_malformed_content_length(self, http_surface):
        response = _exchange(
            http_surface,
            b"POST /enumerate HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n",
        )
        _assert_clean_4xx(response)

    def test_oversized_payload_rejected_unread(self, http_surface):
        # The 64 MiB body cap is enforced on the *declared* length: the
        # server answers 400 without ever reading the body.
        response = _exchange(
            http_surface,
            b"POST /enumerate HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
        )
        _assert_clean_4xx(response)

    def test_chunked_request_body_rejected(self, http_surface):
        response = _exchange(
            http_surface,
            b"POST /enumerate HTTP/1.1\r\nHost: t\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n6\r\n{\"a\":1\r\n0\r\n\r\n",
        )
        _assert_clean_4xx(response)
        assert b"Content-Length" in response  # the fix is in the message

    def test_mid_request_line_disconnect(self, http_surface):
        # Half-close after a partial request line: the surface must
        # close its side promptly (EOF), not wait out a read timeout.
        response = _exchange(http_surface, b"POST /enum")
        if response:  # a 400 is fine too; silence + close is the contract
            assert _status(response) >= 400
        assert _healthy(http_surface)

    def test_mid_header_block_disconnect(self, http_surface):
        response = _exchange(http_surface, b"GET /healthz HTTP/1.1\r\nHost: t\r\nTrunc")
        if response:
            assert _status(response) >= 400
        assert _healthy(http_surface)

    def test_truncated_body_disconnect(self, http_surface):
        response = _exchange(
            http_surface,
            b"POST /enumerate HTTP/1.1\r\nHost: t\r\n"
            b'Content-Length: 500\r\n\r\n{"job"',
        )
        if response:
            assert _status(response) >= 400
        assert _healthy(http_surface)

    def test_surface_survives_a_malformed_burst(self, http_surface):
        for _ in range(5):
            _exchange(http_surface, b"\r\n\r\n")
            _exchange(http_surface, b"POST /enumerate HTTP/1.1\r\nX")
            _post(http_surface, "/enumerate", b"{broken")
        assert _healthy(http_surface)


@pytest.fixture(scope="module")
def checkpoint_server(tmp_path_factory):
    """A replica with a cursor store, for hand-planted checkpoints."""
    from repro.serve.server import EnumerationServer, ServerThread

    store = str(tmp_path_factory.mktemp("hostile-checkpoints") / "store")
    server = ServerThread(EnumerationServer(workers=1, store=store)).start()
    yield server.port, store
    server.stop()


class TestHostileCheckpoints:
    """A damaged or hand-edited cursor record must be refused — by the
    cursor with :class:`InvalidInstanceError`, by the server with a 400
    before the stream head — never replayed into a torn stream."""

    PATCHES = {
        "version-2": {"version": 2},
        "version-string": {"version": "1"},
        "version-bool": {"version": True},
        "offset-negative": {"offset": -3},
        "offset-float": {"offset": 2.9},
        "offset-string": {"offset": "2"},
        "offset-bool": {"offset": True},
        "offset-missing": {"offset": None},
        "job-string": {"job": "st-path"},
        "job-list": {"job": [[0, 1]]},
        "job-malformed": {
            "job": {"kind": "st-path", "edges": [[0, 1]], "source": 0, "target": 1, "limit": "x"}
        },
        "digest-number": {"digest": 5},
        "snapshot-number": {"snapshot": 5},
        "snapshot-object": {"snapshot": {"blob": "x"}},
    }

    @staticmethod
    def _job():
        from repro.engine.jobs import EnumerationJob

        return EnumerationJob.st_path([(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)], 0, 3)

    def _record(self, case):
        from repro.engine.cursor import EnumerationCursor

        cursor = EnumerationCursor(self._job())
        cursor.take(2)
        return dict(cursor.checkpoint(), **self.PATCHES[case])

    @pytest.mark.parametrize("case", sorted(PATCHES))
    def test_cursor_rejects_the_record(self, case):
        from repro.engine.cursor import EnumerationCursor

        with pytest.raises(InvalidInstanceError):
            EnumerationCursor.resume(self._record(case)).drain()

    @pytest.mark.parametrize("case", sorted(PATCHES))
    def test_server_answers_400_before_the_head(self, checkpoint_server, case):
        from repro.serve.store import ResultStore

        port, store = checkpoint_server
        ResultStore(store).save_cursor(case, self._record(case))
        body = json.dumps({"job": self._job().to_dict(), "stream_id": case})
        response = _post(port, "/enumerate", body.encode())
        assert _status(response) == 400, response[:200]
        _assert_clean_4xx(response)
        assert _healthy(port)

    def test_pinned_offset_degrades_to_a_fresh_run(self, checkpoint_server):
        from repro.engine.jobs import run_job
        from repro.serve.client import ServeClient
        from repro.serve.store import ResultStore

        port, store = checkpoint_server
        ResultStore(store).save_cursor("pinned", self._record("offset-negative"))
        client = ServeClient(port=port)
        before = client.stats()["degraded_resumes"]
        events = list(client.enumerate(self._job(), stream_id="pinned", offset=1))
        lines = [e["line"] for e in events if e["event"] == "solution"]
        assert tuple(lines) == run_job(self._job()).lines[1:]
        assert events[-1]["event"] == "end"
        assert client.stats()["degraded_resumes"] == before + 1


class TestHostileEntries:
    """An entry file that does not decode to an entry is a miss for every
    cache shape over its directory, and the next store rewrites it."""

    #: Raw file bodies, and patches over a well-formed record of the job.
    BODIES = {
        "list": b"[1, 2]",
        "string": b'"text"',
        "schema-only": b'{"schema": 1}',
        "not-utf8": b"\xff\xfe\x00",
        "string-index": {"payload": [[["a", 1]]]},
        "index-past-instance": {"payload": [[[0, 99]]]},
        "negative-index": {"payload": [[[0, -1]]]},
        "payload-string": {"payload": "text"},
        "other-kind": {"kind": "st-path", "payload": [[0, 1]]},
        "not-canonical": {"canonical": False, "payload": ["0-1"], "lines": None},
    }

    @staticmethod
    def _job(n: int = 4):
        from repro.engine.jobs import EnumerationJob

        cycle = [(i, (i + 1) % n) for i in range(n)] + [(0, 2)]
        return EnumerationJob.steiner_tree(cycle, [0, 1, n - 1])

    @staticmethod
    def _plant(root: str, job, case: str) -> str:
        """Write ``case``'s body where ``job``'s entry lives; its path."""
        import os

        from repro.engine.cache import instance_key, job_fingerprint

        path = os.path.join(root, "entries", f"{instance_key(job)[0]}.json")
        body = TestHostileEntries.BODIES[case]
        if isinstance(body, dict):
            record = {"schema": 1, "kind": job.kind, "canonical": True, "exhausted": True,
                      "fingerprint": job_fingerprint(job), "payload": [[[0, 1]]],
                      "lines": ["0-1"]}
            body = json.dumps(dict(record, **body)).encode()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(body)
        return path

    @pytest.mark.parametrize("case", sorted(BODIES))
    @pytest.mark.parametrize("shape", ["store", "tiered", "disk-only-tiered"])
    def test_every_shape_misses_and_rewrites(self, tmp_path, case, shape):
        from repro.engine.cache import InstanceCache
        from repro.engine.jobs import EnumerationJob, run_job
        from repro.serve.store import ResultStore, TieredCache

        root = str(tmp_path)
        job = self._job()
        copy = EnumerationJob.steiner_tree(
            [(f"v{(v + 1) % 4}", f"v{(u + 1) % 4}") for u, v in reversed(job.edges)],
            ["v1", "v2", "v0"],
        )
        path = self._plant(root, job, case)
        cache = {
            "store": lambda: ResultStore(root),
            "tiered": lambda: TieredCache(InstanceCache(), ResultStore(root)),
            "disk-only-tiered": lambda: TieredCache(None, ResultStore(root)),
        }[shape]()
        assert cache.lookup(job) is None and cache.lookup(copy) is None
        assert cache.prefix(job) is None
        cache.store(job, run_job(job))
        with open(path) as handle:
            assert json.load(handle)["exhausted"] is True
        assert ResultStore(root).lookup(copy).count == run_job(copy).count

    @pytest.mark.parametrize("case", sorted(BODIES))
    def test_server_streams_in_full_and_rewrites(self, checkpoint_server, case):
        from repro.engine.jobs import run_job
        from repro.serve.client import ServeClient

        port, store = checkpoint_server
        # One graph per case: the server's memory tier must not know it.
        job = self._job(5 + sorted(self.BODIES).index(case))
        path = self._plant(store, job, case)
        events = list(ServeClient(port=port).enumerate(job))
        lines = [e["line"] for e in events if e["event"] == "solution"]
        assert tuple(lines) == run_job(job).lines
        assert events[-1]["event"] == "end"
        with open(path) as handle:
            assert json.load(handle)["lines"] == lines


class TestExceptionHierarchy:
    """Every library error is catchable as ReproError, and the graph
    lookup errors double as KeyError for dict-style call sites."""

    def test_vertex_not_found_is_key_error(self, small):
        with pytest.raises(KeyError):
            small.degree(99)

    def test_invalid_instance_is_value_error(self):
        with pytest.raises(ValueError):
            Hypergraph([1], [{2}])

    def test_no_solution_is_invalid_instance(self):
        assert issubclass(NoSolutionError, InvalidInstanceError)
        assert issubclass(InvalidInstanceError, ReproError)
