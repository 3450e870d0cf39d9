"""Batch/serving front end: the layer the CLI and deployments talk to.

:class:`BatchRunner` bundles the engine's moving parts — worker pool,
instance cache, cursors — behind three calls: :meth:`BatchRunner.run`
(a batch, in order), :meth:`BatchRunner.run_file` (a ``jobs.jsonl``),
and :meth:`BatchRunner.open_cursor` (a resumable stream).

:func:`serve` is a line-oriented service loop: one JSON request per
stdin line, one JSON response per stdout line.  The protocol is the
simplest thing a client can speak from any language::

    {"op": "run", "job": {"kind": "steiner-tree", ...}}
    {"op": "batch", "jobs": [{...}, {...}]}
    {"op": "stats"}
    {"op": "quit"}

A bare job object (anything with a ``"kind"`` key) is accepted as
shorthand for ``{"op": "run", "job": ...}``.  Errors come back as
``{"ok": false, "error": ...}`` instead of killing the server, and every
response carries the request's ``seq`` number (its 1-based line number)
so clients can pipeline requests.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from repro.engine.cache import InstanceCache, ResultCache
from repro.engine.cursor import EnumerationCursor
from repro.engine.jobs import EnumerationJob, JobResult, load_jobs_jsonl
from repro.engine.pool import run_batch
from repro.exceptions import InvalidInstanceError


class BatchRunner:
    """Execute enumeration jobs with worker fan-out and instance caching.

    Parameters
    ----------
    workers:
        Worker process count; ``1`` runs everything in-process (no
        multiprocessing import cost, identical output).
    cache:
        A :class:`ResultCache` (such as an :class:`InstanceCache` or a
        :class:`~repro.serve.store.TieredCache`), ``None`` to build a
        default :class:`InstanceCache`, or ``False`` to disable caching
        entirely.
    mp_context:
        Multiprocessing start method override (default: fork if
        available).

    Examples
    --------
    >>> runner = BatchRunner(workers=1)
    >>> job = EnumerationJob.steiner_tree([("a", "b"), ("b", "c")], ["a", "c"])
    >>> runner.run([job])[0].lines
    ('a-b b-c',)
    >>> runner.run([job])[0].cached  # second time: served from cache
    True
    """

    def __init__(
        self,
        workers: int = 1,
        cache=None,
        mp_context: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.cache: Optional[ResultCache]
        if cache is False:
            self.cache = None
        elif cache is None:
            self.cache = InstanceCache()
        else:
            self.cache = cache
        self.mp_context = mp_context
        self.jobs_run = 0
        self.solutions = 0
        self.wall_seconds = 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: Sequence[EnumerationJob],
        resume_snapshots: Optional[Sequence[Optional[bytes]]] = None,
    ) -> List[JobResult]:
        """Run a batch; results are returned in job order, deterministic
        in the worker count.  ``resume_snapshots`` continues jobs
        from serialized search states (see
        :func:`repro.engine.pool.run_batch`)."""
        start = time.perf_counter()
        results = run_batch(
            jobs,
            workers=self.workers,
            cache=self.cache,
            mp_context=self.mp_context,
            resume_snapshots=resume_snapshots,
        )
        self.wall_seconds += time.perf_counter() - start
        self.jobs_run += len(results)
        self.solutions += sum(r.count for r in results)
        return results

    def run_stream(
        self, jobs: Sequence[EnumerationJob]
    ) -> Iterator[Tuple[EnumerationJob, JobResult]]:
        """Like :meth:`run` but yields ``(job, result)`` pairs lazily in
        job order (the whole batch is still scheduled up front)."""
        results = self.run(jobs)
        for job, result in zip(jobs, results):
            yield job, result

    def run_file(self, path: str) -> List[JobResult]:
        """Run every job spec in a ``jobs.jsonl`` file."""
        return self.run(load_jobs_jsonl(path))

    def open_cursor(self, job: EnumerationJob) -> EnumerationCursor:
        """A resumable cursor over ``job`` wired to this runner's cache."""
        return EnumerationCursor(job, cache=self.cache)

    def resume_cursor(
        self,
        state: Dict[str, Any],
        job: Optional[EnumerationJob] = None,
        resume_mode: str = "snapshot",
    ) -> EnumerationCursor:
        """Resume a checkpointed cursor against this runner's cache.

        ``job`` (when given) must match the checkpoint's fingerprint and
        backend — see :meth:`EnumerationCursor.resume`.
        """
        return EnumerationCursor.resume(
            state, cache=self.cache, job=job, resume_mode=resume_mode
        )

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters (plus cache stats when caching is on)."""
        payload: Dict[str, Any] = {
            "workers": self.workers,
            "jobs_run": self.jobs_run,
            "solutions": self.solutions,
            "wall_seconds": round(self.wall_seconds, 6),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats.as_dict()
            payload["cache_entries"] = len(self.cache)
        return payload


def _handle_request(runner: BatchRunner, request: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one parsed service request; raises on malformed input."""
    if "kind" in request and "op" not in request:
        request = {"op": "run", "job": request}
    op = request.get("op")
    if op == "run":
        spec = request.get("job")
        if not isinstance(spec, dict):
            raise InvalidInstanceError("'run' requests need a 'job' object")
        job = EnumerationJob.from_dict(spec)
        result = runner.run([job])[0]
        return {"ok": True, "result": result.to_dict()}
    if op == "batch":
        specs = request.get("jobs")
        if not isinstance(specs, list):
            raise InvalidInstanceError("'batch' requests need a 'jobs' array")
        jobs = [EnumerationJob.from_dict(spec) for spec in specs]
        results = runner.run(jobs)
        return {"ok": True, "results": [r.to_dict() for r in results]}
    if op == "stats":
        return {"ok": True, "stats": runner.stats()}
    if op == "quit":
        return {"ok": True, "bye": True}
    raise InvalidInstanceError(f"unknown op {op!r}")


def serve(
    in_stream: Optional[TextIO] = None,
    out_stream: Optional[TextIO] = None,
    workers: int = 1,
    cache=None,
    mp_context: Optional[str] = None,
) -> int:
    """Run the JSONL request/response loop until EOF or ``quit``.

    Returns the number of requests served.  Malformed requests produce
    an ``{"ok": false, ...}`` response and the loop continues; only EOF
    and an explicit ``quit`` stop it.
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    runner = BatchRunner(workers=workers, cache=cache, mp_context=mp_context)
    served = 0
    for seq, line in enumerate(in_stream, 1):
        body = line.strip()
        if not body:
            continue
        try:
            request = json.loads(body)
            if not isinstance(request, dict):
                raise InvalidInstanceError("request must be a JSON object")
            response = _handle_request(runner, request)
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the loop
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        response["seq"] = seq
        print(json.dumps(response, sort_keys=True), file=out_stream, flush=True)
        served += 1
        if response.get("bye"):
            break
    return served
