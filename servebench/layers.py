"""Layer attribution from outside the program.

The traced run records two kinds of span, kept in memory and written
out when the run ends:

* client spans: per stream, send / first solution / every solution /
  end, tagged with the request id (``rid``);
* in-process spans: the benchmark replays the run's own specs through
  the program's public functions, in the order the server calls them,
  and times each call (name, start, end, parent, rid).

A span's layer is the first component of its name.  Self time is the
span minus its children; the ``replay.request`` root's own self time is
the benchmark's bookkeeping and belongs to no layer.
"""

from __future__ import annotations

import base64
import contextlib
import itertools
import json
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Sequence

from load import Stream

#: Layers from the router down to the kernel, in table order.
LAYERS = (
    "fleet", "serve", "store", "arena", "cache", "jobs", "suspend",
    "core", "graphs",
)

#: Solutions per worker chunk (the server's default flush size).
CHUNK = 64


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, parent, name, rid, start, end)
        self._stack: List[int] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, rid: int) -> Iterator[None]:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((sid, parent, name, rid, start, time.perf_counter()))
            self._stack.pop()

    def durations(self, name: str) -> List[float]:
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        child = defaultdict(float)
        for _sid, parent, _name, _rid, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for sid, _parent, name, _rid, start, end in self.spans:
            out[name.split(".")[0]] += end - start - child[sid]
        return dict(out)


def _median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def _edge_index(job) -> Dict[tuple, int]:
    """Label-level edge -> edge id, to re-apply the public renderer."""
    if job.is_directed:
        return {tuple(e): i for i, e in enumerate(job.edges)}
    return {tuple(sorted(e, key=repr)): i for i, e in enumerate(job.edges)}


def replay(wl, streams: Sequence[Stream], tracer: Tracer, budget_s: float) -> Dict[str, Any]:
    """Replay distinct requests of ``streams`` through the public layer
    functions until ``budget_s`` runs out; returns the raw samples."""
    from repro.core.backend import compile_directed, compile_undirected
    from repro.engine.cache import InstanceCache, instance_key
    from repro.engine.jobs import (
        EnumerationJob,
        JobResult,
        render_structure,
        solution_edge_structure,
    )
    from repro.engine.suspend import JobSearch
    from repro.enumeration.delay import CostMeter
    from repro.serve import arena as arena_mod
    from repro.serve.fleet.hashring import routing_key
    from repro.serve.protocol import encode_event
    from repro.serve.store import ResultStore, TieredCache

    workdir = wl.fresh("replay")
    store = ResultStore(wl.filled if not wl.live else os.path.join(workdir, "store"))
    tier = TieredCache(InstanceCache(), store)
    arena = arena_mod.InstanceArena(os.path.join(workdir, "arena"))
    registry = wl.registry()
    samples: Dict[str, Any] = defaultdict(list)
    done = set()
    stop_at = time.perf_counter() + budget_s
    for stream in streams:
        rid, spec = stream.item.rid, stream.item.spec
        if rid in done:
            continue
        if time.perf_counter() > stop_at:
            break
        done.add(rid)
        span = tracer.span
        with span("replay.request", rid):
            if wl.routed:
                with span("fleet.route_key", rid):
                    routing_key(spec)
            with span("serve.parse", rid):
                job = EnumerationJob.from_dict(
                    registry.resolve_spec(spec) if registry is not None else spec
                )
            t0 = time.perf_counter()
            with span("cache.lookup", rid):
                hit = tier.lookup(job)
            if hit is not None:
                lines = hit.lines
            else:
                samples["lookup_miss"].append(time.perf_counter() - t0)
                with span("cache.prefix", rid):
                    tier.prefix(job)
                with span("arena.publish", rid):
                    wire = arena.publish_spec(job.to_dict())
                instantiate_start = time.perf_counter()
                with span("jobs.instantiate", rid):
                    with span("arena.load", rid):
                        resolved = arena_mod.resolve_spec(wire)
                    worker_job = EnumerationJob.from_dict(resolved)
                    meter = CostMeter()
                    search = JobSearch(worker_job, meter)
                instance = worker_job.instantiate_indexed()[0]
                with span("graphs.build", rid):
                    if worker_job.is_directed:
                        compile_directed(instance)
                    elif worker_job.kind != "kfragments":
                        compile_undirected(instance, vec=worker_job.backend == "vector")
                edges = _edge_index(worker_job)
                shape_edges = worker_job.kind not in ("st-path", "kfragments")
                lines, structures, gaps = [], [], []
                advance = render = 0.0
                snapshot = b""
                exhausted = False
                ticks = meter.count
                while job.limit is None or len(lines) < job.limit:
                    t0 = time.perf_counter()
                    with span("core.advance", rid):
                        pair = search.next()
                    advance += time.perf_counter() - t0
                    if pair is None:
                        exhausted = True
                        break
                    line, structure = pair
                    if worker_job.kind != "kfragments":
                        t0 = time.perf_counter()
                        with span("jobs.render", rid):
                            if shape_edges:
                                eids = [edges[p] for p in structure]
                                structure = solution_edge_structure(worker_job, eids)
                            render_structure(worker_job.kind, structure)
                        render += time.perf_counter() - t0
                    gaps.append(meter.count - ticks)
                    ticks = meter.count
                    lines.append(line)
                    structures.append(pair[1])
                    if len(lines) == CHUNK:
                        samples["first_chunk"].append(time.perf_counter() - instantiate_start)
                    if len(lines) % CHUNK == 0:
                        with span("suspend.snapshot", rid):
                            snapshot = search.snapshot()
                        samples["snapshot_bytes"].append(len(snapshot))
                if len(lines) < CHUNK:
                    samples["first_chunk"].append(time.perf_counter() - instantiate_start)
                size = len({v for e in worker_job.edges for v in e}) + len(worker_job.edges)
                samples["solve"].append(
                    {
                        "backend": worker_job.backend,
                        "rendered": worker_job.kind != "kfragments",
                        "solutions": len(lines),
                        "advance": advance,
                        "render": render,
                        "ticks": sum(gaps),
                        "delay": max(gaps[1:], default=0) / size,
                    }
                )
                result = JobResult(
                    job_id=job.job_id,
                    kind=job.kind,
                    lines=tuple(lines),
                    exhausted=exhausted,
                    stop_reason=None if exhausted else "limit",
                    elapsed=0.0,
                    ops=0,
                    structures=tuple(structures),
                )
                with span("cache.store", rid):
                    tier.cache.store(job, result)
                with span("store.write", rid):
                    store.store(job, result)
                if wl.checkpoints and snapshot:
                    checkpoint = {
                        "version": 1,
                        "job": job.to_dict(),
                        "offset": len(lines),
                        "digest": None,
                        "snapshot": base64.b64encode(snapshot).decode("ascii"),
                    }
                    with span("store.cursor_write", rid):
                        store.save_cursor(f"replay-{rid}", checkpoint)
            with span("serve.encode", rid):
                for seq, line in enumerate(lines):
                    encode_event({"event": "solution", "seq": seq, "line": line})
            samples["encoded"].append(len(lines))
        # Calls the server does not make once per request are timed
        # outside the request tree, so the layer table follows the
        # server's own call sequence: one canonicalisation on its own
        # (each tier memoises its own), and a stored entry read back.
        t0 = time.perf_counter()
        instance_key(job)
        samples["instance_key"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        store.lookup(job)
        samples["store_hit"].append(time.perf_counter() - t0)
    samples["requests"] = len(done)
    return samples


def layer_metrics(tracer: Tracer, samples: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Per-layer metrics from the replay (None where a layer did no work)."""
    ms = lambda name: [d * 1e3 for d in tracer.durations(name)]  # noqa: E731
    keys = [d * 1e3 for d in samples["instance_key"]]
    encoded = sum(samples["encoded"])
    out: Dict[str, Optional[float]] = {
        "fleet.route_key_ms": _median(ms("fleet.route_key")),
        "serve.first_chunk_ms": _median([s * 1e3 for s in samples["first_chunk"]]),
        "serve.encode_us_per_sol": (
            sum(tracer.durations("serve.encode")) / encoded * 1e6 if encoded else None
        ),
        "store.hit_ms": _median([d * 1e3 for d in samples["store_hit"]]),
        "store.write_ms": _median(ms("store.write")),
        "store.cursor_write_ms": _median(ms("store.cursor_write")),
        "arena.publish_ms": _median(ms("arena.publish")),
        "cache.instance_key_ms_p50": _median(keys),
        "cache.instance_key_ms_max": max(keys) if keys else None,
        "cache.lookup_miss_ms": _median([d * 1e3 for d in samples["lookup_miss"]]),
        "jobs.render_us_per_sol": None,
        "jobs.render_frac": None,
        "suspend.snapshot_us": _median([d * 1e6 for d in tracer.durations("suspend.snapshot")]),
        "suspend.snapshot_kb": _median([b / 1024 for b in samples["snapshot_bytes"]]),
        "graphs.build_ms": _median(ms("graphs.build")),
        "graphs.ops_per_ms": None,
    }
    children = defaultdict(float)
    for sid, parent, name, _rid, start, end in tracer.spans:
        if name == "arena.load":
            children[parent] += end - start
    inst = [
        (end - start - children[sid]) * 1e3
        for sid, _p, name, _rid, start, end in tracer.spans
        if name == "jobs.instantiate"
    ]
    out["jobs.instantiate_ms"] = _median(inst)
    solves = samples["solve"]
    rendered = [s for s in solves if s["rendered"]]
    sols = sum(s["solutions"] for s in rendered)
    if sols:
        render = sum(s["render"] for s in rendered)
        out["jobs.render_us_per_sol"] = render / sols * 1e6
        out["jobs.render_frac"] = render / sum(s["advance"] for s in rendered)
    solver_s = sum(s["advance"] - s["render"] for s in solves)
    if solver_s > 0:
        out["graphs.ops_per_ms"] = sum(s["ticks"] for s in solves) / (solver_s * 1e3)
    for backend in ("fast", "vector"):
        mine = [s for s in solves if s["backend"] == backend]
        n = sum(s["solutions"] for s in mine)
        out[f"core.solver_us_per_sol.{backend}"] = (
            sum(s["advance"] - s["render"] for s in mine) / n * 1e6 if n else None
        )
        out[f"core.ops_per_sol.{backend}"] = (
            sum(s["ticks"] for s in mine) / n if n else None
        )
        out[f"core.delay_ops_per_nm_max.{backend}"] = (
            max(s["delay"] for s in mine) if n else None
        )
    return out


def dump(path: str, header: Dict[str, Any], tracer: Tracer, streams: Sequence[Stream], docs) -> None:
    """Write the spans, the client timelines and the server documents."""
    client = [
        {
            "rid": s.item.rid,
            "send": s.sent,
            "first_solution": s.first,
            "solutions": s.solution_times,
            "end": s.done,
            "error": s.error,
        }
        for s in streams
    ]
    spans = [
        {"id": sid, "parent": parent, "name": name, "rid": rid, "start": start, "end": end}
        for sid, parent, name, rid, start, end in tracer.spans
    ]
    with open(path, "w") as handle:
        json.dump(dict(header, spans=spans, client=client, server=docs), handle)
