"""End-to-end tests for the asyncio streaming service.

Every test talks to a real server over a real socket through the
blocking :class:`ServeClient` — the same path `repro client` uses.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.jobs import EnumerationJob, run_job
from repro.serve import EnumerationServer, ServeClient, ServerThread
from repro.serve.client import ServeError

EDGES = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("b", "d")]


def steiner_job(**opts) -> EnumerationJob:
    return EnumerationJob.steiner_tree(EDGES, ["a", "d"], **opts)


def grid_job(n: int = 4, **opts) -> EnumerationJob:
    edges = []
    for i in range(n):
        for j in range(n):
            if i < n - 1:
                edges.append((f"v{i}{j}", f"v{i+1}{j}"))
            if j < n - 1:
                edges.append((f"v{i}{j}", f"v{i}{j+1}"))
    return EnumerationJob.steiner_tree(edges, ["v00", f"v{n-1}{n-1}"], **opts)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = str(tmp_path_factory.mktemp("serve-store"))
    with ServerThread(EnumerationServer(workers=2, store=store)) as thread:
        yield thread


@pytest.fixture
def client(server):
    return ServeClient(port=server.port)


class TestStreaming:
    def test_live_stream_matches_run_job(self, client):
        job = steiner_job(job_id="live-1")
        events = list(client.enumerate(job, chunk=2))
        assert events[0]["event"] == "accepted"
        assert events[-1]["event"] == "end"
        lines = [e["line"] for e in events if e["event"] == "solution"]
        assert tuple(lines) == run_job(job).lines
        assert [e["seq"] for e in events if e["event"] == "solution"] == list(
            range(len(lines))
        )
        assert events[-1]["exhausted"] is True

    def test_warm_replay_is_cached(self, client):
        job = EnumerationJob.st_path(EDGES, "a", "d", job_id="warm")
        cold = list(client.enumerate(job))
        warm = list(client.enumerate(job))
        assert cold[-1]["cached"] is False or cold[0]["source"] != "live"
        assert warm[0]["source"] == "replay"
        assert warm[-1]["cached"] is True
        assert [e for e in warm if e["event"] == "solution"] == [
            e for e in cold if e["event"] == "solution"
        ]

    def test_relabeled_instance_replays_translated(self, client):
        base = EnumerationJob.steiner_tree(
            [("p", "q"), ("q", "r"), ("p", "r"), ("r", "s")], ["p", "s"]
        )
        client.solutions(base)  # seed the store
        relabeled = EnumerationJob.steiner_tree(
            [("P", "Q"), ("Q", "R"), ("P", "R"), ("R", "S")], ["P", "S"]
        )
        events = list(client.enumerate(relabeled))
        assert events[0]["source"] == "replay"
        assert sorted(e["line"] for e in events if e["event"] == "solution") == sorted(
            run_job(relabeled).lines
        )

    def test_limit_is_enforced(self, client):
        job = grid_job(job_id="lim", limit=5)
        lines = client.solutions(job)
        assert tuple(lines) == run_job(grid_job())  .lines[:5]
        end = list(client.enumerate(job))[-1]
        assert end["stop_reason"] == "limit"
        assert end["exhausted"] is False

    def test_explicit_offset_resume(self, client):
        job = grid_job(job_id="off")
        full = run_job(job).lines
        head = client.solutions(grid_job(limit=6))
        tail = [
            e["line"]
            for e in client.enumerate(job, offset=6)
            if e["event"] == "solution"
        ]
        assert tuple(head + tail) == full

    def test_concurrent_streaming_clients(self, server):
        """Four clients stream four distinct jobs concurrently, all exact."""
        jobs = [
            EnumerationJob.steiner_tree(EDGES, ["a", "d"], job_id="c0"),
            EnumerationJob.st_path(EDGES, "a", "d", job_id="c1"),
            grid_job(job_id="c2"),
            EnumerationJob.steiner_tree(
                [("x", "y"), ("y", "z"), ("x", "z"), ("z", "w")], ["x", "w"],
                job_id="c3",
            ),
        ]
        expected = [run_job(job).lines for job in jobs]
        results: list = [None] * len(jobs)
        errors: list = []

        def stream(i: int) -> None:
            try:
                results[i] = tuple(
                    ServeClient(port=server.port).solutions(jobs[i], chunk=3)
                )
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append((i, exc))

        threads = [
            threading.Thread(target=stream, args=(i,)) for i in range(len(jobs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors
        assert results == expected


class TestErrors:
    def test_unknown_kind_is_a_clean_error(self, client):
        """The regression the stdio stub documented: no hang, a real error."""
        with pytest.raises(ServeError, match="unknown job kind"):
            list(client.enumerate({"kind": "bogus", "edges": [["a", "b"]]}))
        # The server survives and keeps serving.
        assert client.health() == {"ok": True}

    def test_query_vertex_not_in_instance(self, client):
        job = {
            "kind": "steiner-tree",
            "edges": [["a", "b"]],
            "terminals": ["a", "zz"],
        }
        with pytest.raises(ServeError, match="not in the instance"):
            list(client.enumerate(job))

    def test_malformed_body(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/enumerate", body=b"{nope", headers={})
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_unhashable_label_is_a_400_before_the_head(self, client):
        import http.client
        import json

        body = {"kind": "steiner-tree", "edges": [[["w", 0], 1], [1, 2]], "terminals": [1, 2]}
        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("POST", "/enumerate", body=json.dumps(body).encode())
            response = conn.getresponse()
            assert response.status == 400
            assert "hashable" in json.loads(response.read())["error"]
        finally:
            conn.close()
        assert tuple(client.solutions(steiner_job())) == run_job(steiner_job()).lines

    def test_unknown_route_404(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_stats_and_health(self, client):
        assert client.health() == {"ok": True}
        stats = client.stats()
        assert stats["ok"] is True
        assert stats["workers"] == 2
        assert stats["streams"] >= 1


class TestRestartResume:
    def test_disconnect_checkpoints_and_restart_resumes(self, tmp_path):
        """Kill the client mid-stream, restart the *server*, resume the
        stream: the concatenation is byte-identical to one uninterrupted
        run."""
        store = str(tmp_path / "store")
        job = grid_job(job_id="rr")
        full = run_job(job).lines

        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            consumed = []
            stream = ServeClient(port=thread.port).enumerate(
                job, stream_id="rr-1", chunk=2
            )
            for event in stream:
                if event["event"] == "solution":
                    consumed.append(event["line"])
                    if len(consumed) == 9:
                        stream.close()  # mid-stream disconnect
                        break

        # A brand-new server process-equivalent on the same store.
        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            events = list(
                ServeClient(port=thread.port).enumerate(
                    job, stream_id="rr-1", offset=len(consumed)
                )
            )
            assert events[0]["offset"] == 9
            tail = [e["line"] for e in events if e["event"] == "solution"]
            assert tuple(consumed + tail) == full
            assert events[-1]["exhausted"] is True

    def test_disconnect_checkpoint_embeds_search_snapshot(self, tmp_path):
        """Suspendable kinds checkpoint the frozen search state itself,
        and the restarted server resumes from it (not by replaying the
        prefix) with a byte-identical tail."""
        import time

        from repro.core.suspend import read_snapshot_header
        from repro.serve.store import ResultStore

        store = str(tmp_path / "store")
        job = grid_job(job_id="snap")
        full = run_job(job).lines

        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            consumed = []
            stream = ServeClient(port=thread.port).enumerate(
                job, stream_id="snap-1", chunk=2
            )
            for event in stream:
                if event["event"] == "solution":
                    consumed.append(event["line"])
                    if len(consumed) == 8:
                        stream.close()
                        break
            reader = ResultStore(store)
            state = None
            for _ in range(100):
                state = reader.load_cursor("snap-1")
                if state is not None:
                    break
                time.sleep(0.05)
            assert state is not None and "snapshot" in state
            import base64

            header = read_snapshot_header(base64.b64decode(state["snapshot"]))
            assert header["kind"] == "steiner-tree"
            assert header["emitted"] == state["offset"]

        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            tail = [
                e["line"]
                for e in ServeClient(port=thread.port).enumerate(
                    job, stream_id="snap-1", offset=len(consumed)
                )
                if e["event"] == "solution"
            ]
        assert tuple(consumed + tail) == full

    def test_worker_crash_is_replaced_mid_stream(self, tmp_path):
        """SIGKILL the enumerating worker: the server replaces it and
        the client's stream continues without a gap or duplicate."""
        import os
        import signal
        import time

        store = str(tmp_path / "store")
        job = grid_job(job_id="crash")
        full = run_job(job).lines
        server = EnumerationServer(workers=1, store=store, chunk=2)
        with ServerThread(server) as thread:
            got = []
            killed = False
            for event in ServeClient(port=thread.port).enumerate(job):
                if event["event"] != "solution":
                    continue
                got.append(event["line"])
                if not killed and len(got) == 6:
                    # The pool has one worker and it is busy (not idle):
                    # find and kill its process.
                    assert server._pool is not None
                    idle = {h.process.pid for h in server._pool._idle}
                    busy = [
                        h.process.pid
                        for h in server._pool._all_handles()
                        if h.process.pid not in idle
                    ]
                    assert busy
                    os.kill(busy[0], signal.SIGKILL)
                    killed = True
                    time.sleep(0.05)
            assert killed
            assert tuple(got) == full
            assert server.stats.worker_replacements >= 1

    def test_worker_killed_while_idle_is_replaced_before_the_stream(self, tmp_path):
        """SIGKILL the pool's only worker while it idles: the next stream
        runs whole on a replacement, and the server still stops."""
        import os
        import signal
        import time

        job = grid_job(job_id="idle-kill")
        server = EnumerationServer(workers=1, store=str(tmp_path / "store"))
        thread = ServerThread(server).start()
        try:
            assert server._pool is not None
            (idle,) = server._pool._idle
            os.kill(idle.process.pid, signal.SIGKILL)
            idle.process.join(5)
            started = time.monotonic()
            events = list(ServeClient(port=thread.port, timeout=10).enumerate(job))
            assert time.monotonic() - started < 5
        finally:
            loop_thread = thread._thread
            thread.stop()
        assert loop_thread is not None and not loop_thread.is_alive()
        assert events[-1]["event"] == "end" and events[-1]["exhausted"]
        lines = tuple(e["line"] for e in events if e["event"] == "solution")
        assert lines == run_job(job).lines

    def test_checkpoint_conflict_is_rejected(self, tmp_path):
        import time

        from repro.serve.store import ResultStore

        store = str(tmp_path / "store")
        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            client = ServeClient(port=thread.port)
            stream = client.enumerate(grid_job(), stream_id="s", chunk=1)
            got = 0
            for event in stream:
                if event["event"] == "solution":
                    got += 1
                    if got == 3:
                        stream.close()
                        break
            # The disconnect checkpoint is written asynchronously once
            # the server notices the dead socket; wait for it.
            reader = ResultStore(store)
            deadline = time.monotonic() + 30
            while reader.load_cursor("s") is None:
                assert time.monotonic() < deadline, "checkpoint never appeared"
                time.sleep(0.02)
            other = steiner_job()
            with pytest.raises(ServeError, match="different job"):
                list(client.enumerate(other, stream_id="s"))

    def test_server_side_checkpoint_alone_resumes(self, tmp_path):
        """Without an explicit offset the server's checkpoint drives the
        resume position; the resumed tail continues the stream with no
        duplicates relative to the checkpoint."""
        store = str(tmp_path / "store")
        job = grid_job(job_id="ck")
        full = run_job(job).lines
        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            stream = ServeClient(port=thread.port).enumerate(
                job, stream_id="ck-1", chunk=1
            )
            seen = 0
            for event in stream:
                if event["event"] == "solution":
                    seen += 1
                    if seen == 4:
                        stream.close()
                        break
        with ServerThread(EnumerationServer(workers=1, store=store)) as thread:
            events = list(
                ServeClient(port=thread.port).enumerate(job, stream_id="ck-1")
            )
            offset = events[0]["offset"]
            assert offset >= 4  # at least what the client consumed
            tail = [(e["seq"], e["line"]) for e in events if e["event"] == "solution"]
            for seq, line in tail:
                assert full[seq] == line
            if tail:
                assert tail[0][0] == offset
            assert events[-1]["total"] == len(full)

    def test_crash_before_the_first_chunk_thaws_the_resume_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A resumed stream whose worker dies before sending anything is
        retried from the checkpoint's snapshot, not fast-forwarded from
        position 0, and still delivers the exact tail."""
        import os
        import signal

        from repro.engine.cursor import EnumerationCursor, read_checkpoint
        from repro.serve.store import ResultStore
        from repro.serve.workers import WorkerHandle

        store = str(tmp_path / "store")
        job = grid_job(job_id="thaw")
        full = run_job(job).lines
        cursor = EnumerationCursor(job)
        head = cursor.take(5)
        record = cursor.checkpoint()
        ResultStore(store).save_cursor("thaw-1", record)
        resume = read_checkpoint(record).snapshot
        assert resume is not None

        dispatched = []
        start_stream = WorkerHandle.start_stream

        def start_then_kill(handle, job, offset, chunk, snapshot=None):
            first = not dispatched
            if first:  # stopped, the worker cannot answer before the kill
                os.kill(handle.process.pid, signal.SIGSTOP)
            start_stream(handle, job, offset, chunk, snapshot)
            dispatched.append((offset, snapshot))
            if first:
                os.kill(handle.process.pid, signal.SIGKILL)
                handle.process.join()

        monkeypatch.setattr(WorkerHandle, "start_stream", start_then_kill)
        server = EnumerationServer(workers=1, store=store, chunk=2)
        with ServerThread(server) as thread:
            events = list(
                ServeClient(port=thread.port).enumerate(job, stream_id="thaw-1")
            )
        assert server.stats.worker_replacements == 1
        assert dispatched == [(5, resume), (5, resume)]
        assert events[0]["offset"] == 5
        tail = [e["line"] for e in events if e["event"] == "solution"]
        assert tuple(head + tail) == full


class TestComputeCharge:
    def test_stalled_client_is_charged_worker_busy_time(self):
        """A client that stalls at every chunk boundary is charged the
        worker's busy time: at least half the in-process enumeration
        time, and not the stalls.  With two chunks in flight the worker
        computes during a stall, so the stream's recv waits alone would
        undercharge it."""
        import http.client
        import json
        import socket
        import time

        pad = "x" * 10  # ~2.6 KB lines: each chunk overflows the buffers
        n, chunk, chunks = 12, 64, 10
        edges = []
        for i in range(n):
            for j in range(n):
                if i < n - 1:
                    edges.append((f"{pad}{i}_{j}", f"{pad}{i + 1}_{j}"))
                if j < n - 1:
                    edges.append((f"{pad}{i}_{j}", f"{pad}{i}_{j + 1}"))
        job = EnumerationJob.steiner_tree(
            edges, [f"{pad}0_0", f"{pad}{n - 1}_{n - 1}"], limit=1 + chunks * chunk
        )
        in_process = []
        for _ in range(2):
            started = time.perf_counter()
            run_job(job)
            in_process.append(time.perf_counter() - started)
        # Each stall lasts at least four chunks' compute on this host, so
        # the worker, two chunks ahead at most, is parked for at least
        # half of it however fast or slow the host runs.
        stall = max(0.08, 4 * min(in_process) / chunks)

        # A tight send buffer and receive window make the server's
        # drain() wait on the stalled reader, which parks the worker.
        server = EnumerationServer(workers=1, sndbuf=4096)
        with ServerThread(server) as thread:
            conn = http.client.HTTPConnection("127.0.0.1", thread.port, timeout=60)
            conn.connect()
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
            started = time.perf_counter()
            conn.request(
                "POST",
                "/enumerate",
                body=json.dumps({"job": job.to_dict(), "chunk": chunk}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            stalls, end = 0.0, None
            while True:
                raw = response.readline()
                if not raw:
                    break
                if not raw.strip():
                    continue
                event = json.loads(raw)
                if event["event"] == "solution" and event["seq"] % chunk == 0:
                    time.sleep(stall)  # the last solution of a chunk
                    stalls += stall
                elif event["event"] == "end":
                    end = event
            wall = time.perf_counter() - started
            conn.close()
        assert end is not None and end["count"] == 1 + chunks * chunk
        charged = end["compute_seconds"]
        assert charged >= 0.5 * min(in_process), (charged, in_process)
        # At least half of every stall finds the worker parked on a full
        # window.
        assert charged < wall - stalls / 2, (charged, wall, stalls)
