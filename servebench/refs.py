"""In-process references: what ``run_job`` says every stream must be.

References run after the timed region, once the system under test has
stopped, in two child processes (this file run as a script) that are
waited for before the run goes on.  They are cached in the checkout, one
file per state of the ``src`` tree and keyed by the spec's JSON inside
it, so a seed that runs twice on the same code pays for them once, and
code that changes a stream is never checked against the old stream.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Tuple

from load import lines_digest


def code_id(src: str) -> str:
    """Digest of every file under ``src`` (relative path and bytes)."""
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            hasher.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as handle:
                hasher.update(hashlib.sha256(handle.read()).digest())
    return hasher.hexdigest()[:16]


def refs_path(directory: str, src: str) -> str:
    """The reference file for the code under ``src``."""
    return os.path.join(directory, f"refs-{code_id(src)}.json")


def spec_key(spec: Dict[str, Any]) -> str:
    """Cache key of one job spec."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def reference(spec: Dict[str, Any]) -> Tuple[int, str]:
    """``(count, digest)`` of the in-process ``run_job`` on ``spec``."""
    from repro.engine.jobs import EnumerationJob, run_job

    result = run_job(EnumerationJob.from_dict(spec))
    return result.count, lines_digest(result.lines)


class References:
    """Reference ``(count, digest)`` per spec, persisted at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            with open(path) as handle:
                self._table: Dict[str, list] = json.load(handle)
        except (OSError, ValueError):
            self._table = {}

    def ensure(self, specs: Iterable[Dict[str, Any]], procs: int = 2) -> None:
        """Compute the references not cached yet."""
        missing = {}
        for spec in specs:
            key = spec_key(spec)
            if key not in self._table:
                missing[key] = spec
        if not missing:
            return
        keys = list(missing)
        # Interleaved shares, one plain child process each: no pool, so
        # nothing (a pool's resource tracker, say) outlives the run.
        shares = [keys[i::procs] for i in range(procs)]
        children = []
        try:
            for share in shares:
                child = subprocess.Popen(
                    [sys.executable, os.path.abspath(__file__)],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
                children.append(child)
            # Feed every child before reading any, so both compute at once.
            for child, share in zip(children, shares):
                assert child.stdin is not None
                child.stdin.write(json.dumps([missing[k] for k in share]).encode())
                child.stdin.close()
            for child, share in zip(children, shares):
                assert child.stdout is not None
                out = child.stdout.read()
                if child.wait() != 0:
                    raise RuntimeError(f"reference process exited {child.returncode}")
                for key, value in zip(share, json.loads(out)):
                    self._table[key] = value
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self._table, handle)
        os.replace(tmp, self.path)

    def get(self, spec: Dict[str, Any]) -> Tuple[int, str]:
        """The cached reference for ``spec`` (after :meth:`ensure`)."""
        count, digest = self._table[spec_key(spec)]
        return count, digest


def main() -> None:
    """Child process: references of the JSON spec list on stdin, as a
    JSON list of ``[count, digest]`` on stdout."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    specs: List[Dict[str, Any]] = json.load(sys.stdin)
    json.dump([list(reference(spec)) for spec in specs], sys.stdout)


if __name__ == "__main__":
    main()
