"""The system under test as child processes: start, probe, account, stop.

``repro serve`` and ``repro fleet`` run from the checkout's ``src``
tree in their own session (process group), so the load generator never
shares an interpreter lock with the server loop and a stop can reap
every descendant: workers, replicas and their workers.  This process is
made a child subreaper, so descendants orphaned by a stop are re-parented
to it and reaped here rather than left as zombies.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HOST = "127.0.0.1"
#: prctl option: orphaned descendants re-parent to the calling process.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Make orphaned descendants this process's children (Linux)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_children(timeout: float) -> None:
    """Kill and reap every child of this process (the system under test
    is the only thing this process runs while it stops)."""
    deadline = time.monotonic() + timeout
    me = os.getpid()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            raise RuntimeError("children of the benchmark did not end")
        for pid, ppid in _ppid_map().items():
            if ppid == me:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        time.sleep(0.02)


def http_json(
    port: int, method: str, path: str, payload: Any = None, timeout: float = 60.0
) -> Dict[str, Any]:
    """One plain-JSON request; raises ``RuntimeError`` on a non-200."""
    conn = http.client.HTTPConnection(HOST, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {response.status}: {raw[:200]!r}")
        return json.loads(raw.decode() or "{}")
    finally:
        conn.close()


def _ppid_map() -> Dict[int, int]:
    """pid -> parent pid for every live (non-zombie) process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] != "Z":
            out[int(name)] = int(fields[1])
    return out


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (``VmHWM``) of ``pid`` in KiB; 0 once gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Sut:
    """One ``python -m repro ...`` process tree.

    ``ready`` is the stderr prefix announcing readiness; the port is
    parsed from the line starting with ``port_prefix`` (``HOST:PORT``).
    """

    def __init__(
        self,
        root: str,
        args: List[str],
        port_prefix: str,
        ready: str,
        log_path: str,
    ) -> None:
        self.argv = [sys.executable, "-m", "repro"] + args
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )
        self.root = root
        self.port_prefix = port_prefix
        self.ready_prefix = ready
        self.log_path = log_path
        self.port: Optional[int] = None
        self.proc: Optional[subprocess.Popen] = None
        self._ready = threading.Event()
        self._reader: Optional[threading.Thread] = None
        self._seen: List[int] = []

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and block until the ready line (raises on early exit)."""
        become_subreaper()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout) or self.port is None:
            self.stop()
            raise RuntimeError(
                f"{' '.join(self.argv[3:])} did not come up; see {self.log_path}"
            )

    def _read_stderr(self) -> None:
        assert self.proc is not None and self.proc.stderr is not None
        with open(self.log_path, "ab") as log:
            for raw in self.proc.stderr:
                log.write(raw)
                line = raw.decode(errors="replace")
                if line.startswith(self.port_prefix):
                    self.port = int(line.rsplit(":", 1)[1])
                if line.startswith(self.ready_prefix):
                    self._ready.set()
        self._ready.set()  # EOF: unblock start(), which then reports it

    def pids(self) -> List[int]:
        """The live process tree (remembered for the final reap)."""
        assert self.proc is not None
        pids = descendants(self.proc.pid)
        self._seen = sorted(set(self._seen) | set(pids))
        return pids

    def rss_peak_mb(self) -> float:
        """``VmHWM`` summed over the tree, in MiB."""
        return sum(vm_hwm_kb(pid) for pid in self.pids()) / 1024.0

    def stop(self, grace: float = 15.0) -> None:
        """SIGINT (graceful), then SIGKILL the group; wait for every pid."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.pids()
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        live = _ppid_map()
        while any(pid in live for pid in self._seen) and time.monotonic() < deadline:
            # Anything that left the process group is killed one by one.
            for pid in self._seen:
                if pid in live:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except (ProcessLookupError, PermissionError):
                        pass
            time.sleep(0.02)
            live = _ppid_map()
        reap_children(timeout=30)
        if self._reader is not None:
            self._reader.join(timeout=10)
        stray = [pid for pid in self._seen if pid in live]
        if stray:
            raise RuntimeError(f"processes outlived the server: {stray}")
