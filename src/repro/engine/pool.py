"""Worker pool: fan batches of jobs (and shards of one job) across cores.

:func:`run_batch` executes a list of :class:`EnumerationJob` records on
``workers`` processes and returns results **in job order, bit-identical
for every worker count**: work is distributed with an unordered imap for
throughput, then reassembled by index, and cache reads/writes happen in
the parent in deterministic job order.

A single large ``steiner-tree`` job can additionally be *sharded*
(``job.shards > 1``) using the paper's own top-level branching: every
minimal Steiner tree contains at least one edge incident to a fixed
anchor terminal ``w`` (any terminal of maximal degree).  With ``w``'s
incident edges ``e_0 < e_1 < … < e_{d-1}``, shard ``i`` enumerates
exactly the solutions that contain ``e_i`` and avoid ``e_0 … e_{i-1}``:
delete the earlier edges, contract ``e_i`` (Section 5's ``G/e`` step —
edge ids survive contraction), enumerate minimal Steiner trees of the
contracted instance, map each back by re-adding ``e_i``, and keep the
candidates that are minimal in the original graph (the contraction
correspondence is onto but not one-to-one-minimal, so the membership
filter makes each shard exact).  The shards partition the solution set,
so concatenating them in edge order is a complete, duplicate-free
enumeration whose order is independent of the worker count.

Sharding is skipped for jobs with a ``limit`` (a global cap across
shards would reintroduce cross-shard coordination) and for instances
with fewer than two distinct terminals.  Deadlines/budgets apply per
shard.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.jobs import EnumerationJob, JobResult, _BudgetMeter, BudgetExceeded
from repro.engine.jobs import render_table, run_job


class _Task(NamedTuple):
    """One unit shipped to a worker: a whole job or a shard range."""

    index: int  # position in the batch
    piece: int  # 0 for whole jobs; shard chunk number otherwise
    job: EnumerationJob
    lo: int  # first forced-edge index of the shard chunk (inclusive)
    hi: int  # last forced-edge index (exclusive); -1 = whole job
    incident: Optional[Tuple[int, ...]] = None  # anchor plan, parent-computed
    snapshot: Optional[bytes] = None  # search-state resume blob (whole jobs)


def shard_anchor(job: EnumerationJob) -> Optional[Tuple[int, List[int]]]:
    """The anchor terminal (as vertex index) and its sorted incident edge
    ids, or ``None``.

    Returns ``None`` when the job cannot be sharded soundly: not a
    ``steiner-tree`` job, carries a ``limit``, or has fewer than two
    distinct terminals.  The anchor is the maximum-degree terminal (ties
    broken by smallest index), picked on the integer-indexed instance so
    the plan is identical in every process.
    """
    if job.kind != "steiner-tree" or job.limit is not None:
        return None
    terminals = list(dict.fromkeys(job.terminals))
    if len(terminals) < 2:
        return None
    graph, _labels, index_of = job.instantiate_indexed()
    if any(t not in index_of for t in terminals):
        return None  # invalid instance: run unsharded for a clean error
    anchor = max(
        (index_of[t] for t in terminals),
        key=lambda i: (graph.degree(i), -i),
    )
    incident = sorted(graph.incident_ids(anchor))
    if not incident:
        return None
    return anchor, incident


def run_steiner_shard(
    job: EnumerationJob,
    lo: int,
    hi: int,
    incident: Optional[Sequence[int]] = None,
) -> JobResult:
    """Enumerate shard chunk ``[lo, hi)`` of a sharded ``steiner-tree`` job.

    For each forced-edge index ``i`` in the range: delete the anchor's
    earlier incident edges, contract the forced edge, enumerate the
    contracted instance, lift each solution by re-adding the forced edge
    and keep it iff it is a minimal Steiner tree of the original graph.
    ``incident`` is the anchor's sorted incident edge id plan (from
    :func:`shard_anchor`); it is recomputed when omitted.
    """
    from repro.core.steiner_tree import enumerate_minimal_steiner_trees
    from repro.core.verification import is_minimal_steiner_tree
    from repro.graphs.contraction import contract_edges

    start = time.perf_counter()
    if incident is None:
        anchored = shard_anchor(job)
        if anchored is None:
            raise ValueError(f"job {job.job_id!r} is not shardable")
        _, incident = anchored
    graph, _labels, index_of = job.instantiate_indexed()
    terminals = [index_of[t] for t in dict.fromkeys(job.terminals)]
    meter = _BudgetMeter(
        budget=job.budget,
        deadline_at=(
            (time.monotonic() + job.deadline) if job.deadline is not None else None
        ),
    )
    table = render_table(job)
    rendered = []
    stop_reason: Optional[str] = None
    try:
        pruned = graph.copy()
        for earlier in incident[:lo]:
            pruned.remove_edge(earlier)
        for i in range(lo, hi):
            forced = incident[i]
            contracted = contract_edges(pruned, [forced])
            shard_terminals = list(
                dict.fromkeys(contracted.vertex_map[t] for t in terminals)
            )
            for sol in enumerate_minimal_steiner_trees(
                contracted.graph, shard_terminals, meter=meter, backend=job.backend
            ):
                candidate = frozenset(sol) | {forced}
                if is_minimal_steiner_tree(graph, candidate, terminals):
                    rendered.append(table.edge_set(candidate))
            pruned.remove_edge(forced)
    except BudgetExceeded as exc:
        stop_reason = exc.reason
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        lines=tuple([r[0] for r in rendered]),
        exhausted=stop_reason is None,
        stop_reason=stop_reason,
        elapsed=time.perf_counter() - start,
        ops=meter.count,
        structures=tuple([r[1] for r in rendered]),
    )


def _execute_task(task: _Task) -> Tuple[int, int, JobResult]:
    """Worker entry point (module-level so it pickles under spawn too).

    A job that raises (e.g. a query vertex missing from the instance)
    becomes an error result instead of poisoning the whole batch — the
    other jobs still complete and the caller sees which one failed.
    """
    try:
        if task.hi < 0:
            result = run_job(task.job, resume=task.snapshot)
        else:
            result = run_steiner_shard(task.job, task.lo, task.hi, task.incident)
    except Exception as exc:  # noqa: BLE001 — isolate per-job failures
        result = JobResult(
            job_id=task.job.job_id,
            kind=task.job.kind,
            lines=(),
            exhausted=False,
            stop_reason="error",
            elapsed=0.0,
            ops=0,
            error=f"{type(exc).__name__}: {exc}",
        )
    return task.index, task.piece, result


def _plan_tasks(index: int, job: EnumerationJob, anchored) -> List[_Task]:
    """Expand one job into tasks: itself, or contiguous shard chunks.

    ``anchored`` is the job's precomputed :func:`shard_anchor` plan (or
    ``None``), so the indexed instance is built once per batch job.
    """
    if anchored is None:
        return [_Task(index, 0, job, 0, -1)]
    _, incident = anchored
    incident = tuple(incident)
    chunks = min(job.shards, len(incident))
    size, extra = divmod(len(incident), chunks)
    tasks = []
    lo = 0
    for piece in range(chunks):
        hi = lo + size + (1 if piece < extra else 0)
        tasks.append(_Task(index, piece, job, lo, hi, incident))
        lo = hi
    return tasks


def _merge_pieces(job: EnumerationJob, pieces: Dict[int, JobResult]) -> JobResult:
    """Concatenate shard chunk results in chunk order."""
    ordered = [pieces[p] for p in sorted(pieces)]
    lines: List[str] = []
    structures: List[object] = []
    stop_reason: Optional[str] = None
    error: Optional[str] = None
    for piece in ordered:
        lines.extend(piece.lines)
        if piece.structures is not None:
            structures.extend(piece.structures)
        if piece.stop_reason is not None and stop_reason is None:
            stop_reason = piece.stop_reason
        if piece.error is not None and error is None:
            error = piece.error
    return JobResult(
        job_id=job.job_id,
        kind=job.kind,
        lines=tuple(lines),
        exhausted=all(p.exhausted for p in ordered),
        stop_reason=stop_reason,
        elapsed=sum(p.elapsed for p in ordered),
        ops=sum(p.ops for p in ordered),
        error=error,
        structures=tuple(structures),
    )


def run_batch(
    jobs: Sequence[EnumerationJob],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    mp_context: Optional[str] = None,
    resume_snapshots: Optional[Sequence[Optional[bytes]]] = None,
) -> List[JobResult]:
    """Run ``jobs`` on ``workers`` processes; results come back in job order.

    The output is deterministic in the worker count: identical ``jobs``
    (and identical starting ``cache`` contents) produce identical results
    for any ``workers``.  Cache lookups happen up front in job order;
    completed results are stored back in job order.  Sharded jobs bypass
    the cache (their shard-ordered output would not match a future
    unsharded run of the same instance).

    ``resume_snapshots`` (parallel to ``jobs``) continues jobs from
    serialized search states (see :mod:`repro.engine.suspend`):
    a resumed job delivers only its remaining tail, so it bypasses the
    cache (a tail is not a full result), duplicate coalescing and
    sharding.  Cleanly stopped jobs return fresh snapshots on their
    results, so a driver can run a batch in deadline-bounded rounds.

    Examples
    --------
    >>> jobs = [EnumerationJob.steiner_tree([("a", "b"), ("b", "c")], ["a", "c"])]
    >>> [r.lines for r in run_batch(jobs, workers=1)]
    [('a-b b-c',)]
    """
    jobs = list(jobs)
    for job in jobs:
        job.validate()
    if resume_snapshots is None:
        resumes: List[Optional[bytes]] = [None] * len(jobs)
    else:
        resumes = list(resume_snapshots)
        if len(resumes) != len(jobs):
            raise ValueError("resume_snapshots must parallel jobs")
    results: List[Optional[JobResult]] = [None] * len(jobs)
    plans = [
        shard_anchor(job) if job.shards > 1 and resumes[i] is None else None
        for i, job in enumerate(jobs)
    ]
    sharded = [plan is not None for plan in plans]
    tasks: List[_Task] = []
    # Exact-duplicate jobs (same work, possibly different job_id) run
    # once: later occurrences borrow the first occurrence's result.
    # Deadline/budget jobs are exempt (their results are timing-
    # dependent, so each must pay its own way); resumed jobs are exempt
    # too (their position makes the work unique).
    leaders: Dict[tuple, int] = {}
    follower_of: Dict[int, int] = {}
    for i, job in enumerate(jobs):
        if resumes[i] is not None:
            tasks.append(_Task(i, 0, job, 0, -1, None, resumes[i]))
            continue
        if cache is not None and not sharded[i]:
            hit = cache.lookup(job)
            if hit is not None:
                results[i] = hit
                continue
        if not sharded[i] and job.deadline is None and job.budget is None:
            work_key = dataclasses.replace(job, job_id=None)
            leader = leaders.setdefault(work_key, i)
            if leader != i:
                follower_of[i] = leader
                continue
        tasks.extend(_plan_tasks(i, job, plans[i]))

    pieces: Dict[int, Dict[int, JobResult]] = {}
    expected: Dict[int, int] = {}
    for task in tasks:
        expected[task.index] = expected.get(task.index, 0) + 1

    def finish(index: int, piece: int, result: JobResult) -> None:
        bucket = pieces.setdefault(index, {})
        bucket[piece] = result
        if len(bucket) == expected[index]:
            if expected[index] == 1:
                results[index] = result
            else:
                results[index] = _merge_pieces(jobs[index], bucket)

    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            index, piece, result = _execute_task(task)
            finish(index, piece, result)
    else:
        import multiprocessing

        ctx = multiprocessing.get_context(mp_context or _default_context())
        with ctx.Pool(processes=min(workers, len(tasks))) as pool:
            for index, piece, result in pool.imap_unordered(
                _execute_task, tasks, chunksize=1
            ):
                finish(index, piece, result)
            pool.close()
            pool.join()

    final: List[JobResult] = []
    for i, result in enumerate(results):
        if result is None and i in follower_of:
            result = dataclasses.replace(
                results[follower_of[i]], job_id=jobs[i].job_id
            )
            results[i] = result
        if result is None:  # pragma: no cover - every job produces a result
            raise RuntimeError(f"job {i} produced no result")
        if cache is not None and not result.cached and not sharded[i] and (
            i not in follower_of
        ) and resumes[i] is None:
            # Resumed jobs deliver a tail, not the full stream: caching
            # one would poison later lookups of the same instance.
            cache.store(jobs[i], result)
        final.append(result)
    return final


def _default_context() -> str:
    """Prefer fork (cheap, inherits the interpreter) where available."""
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"  # pragma: no cover - non-POSIX platforms
