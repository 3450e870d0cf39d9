"""Client-observed serving benchmark for ``repro serve`` and ``repro fleet``.

Usage (from the repository root)::

    python3 servebench/run.py --workload serve-cold --seed 1 --seconds 40 --trace 0

Workloads: serve-cold, serve-warm, serve-dense, fleet-cold (README.md).
The system under test runs as child processes built from ``src/``; two
closed-loop clients in this process drive it for ``--seconds`` and every
stream is checked byte for byte against the in-process ``run_job``.

Prints a report, then, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``; with ``--trace 1`` an untraced and a traced
run, an in-process replay through each layer's public functions, and the
per-layer metrics.  Exits non-zero when any stream fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".servebench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from load import Stream, closed_loop  # noqa: E402
from refs import References, refs_path  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Set-ups per run at least (one per round, then extra starts); setup_s
#: is their median.
SETUP_SAMPLES = 5
#: Seconds the traced run may spend replaying requests in process.
REPLAY_BUDGET = 12.0

END_TO_END = (
    ("sols_per_s", "1/s"),
    ("ttfs_p50_ms", "ms"),
    ("ttfs_p90_ms", "ms"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
)

PER_LAYER = (
    ("fleet.route_key_ms", "ms"),
    ("fleet.replica_skew", "ratio"),
    ("fleet.migrations", "count"),
    ("fleet.errors", "count"),
    ("serve.worker_busy_s", "s"),
    ("serve.unattributed_frac", "ratio"),
    ("serve.first_chunk_ms", "ms"),
    ("serve.encode_us_per_sol", "us"),
    ("client.decode_us_per_sol", "us"),
    ("client.gap_max_p50_ms", "ms"),
    ("client.gap_max_p90_ms", "ms"),
    ("serve.live_runs", "count"),
    ("serve.replays", "count"),
    ("serve.checkpoints", "count"),
    ("store.hit_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.cursor_write_ms", "ms"),
    ("arena.publish_ms", "ms"),
    ("cache.instance_key_ms_p50", "ms"),
    ("cache.instance_key_ms_max", "ms"),
    ("cache.lookup_miss_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("jobs.instantiate_ms", "ms"),
    ("jobs.render_us_per_sol", "us"),
    ("jobs.render_frac", "ratio"),
    ("suspend.snapshot_us", "us"),
    ("suspend.snapshot_kb", "KiB"),
    ("core.solver_us_per_sol.fast", "us"),
    ("core.solver_us_per_sol.vector", "us"),
    ("core.ops_per_sol.fast", "count"),
    ("core.ops_per_sol.vector", "count"),
    ("core.delay_ops_per_nm_max.fast", "ratio"),
    ("core.delay_ops_per_nm_max.vector", "ratio"),
    ("graphs.build_ms", "ms"),
    ("graphs.ops_per_ms", "1/ms"),
    ("trace.overhead_frac", "ratio"),
)

#: Layer metric -> which end-to-end metric it should move, and where.
LAYER_MAP = (
    ("fleet.route_key_ms", "ttfs_p90_ms on fleet-cold"),
    ("fleet.replica_skew", "sols_per_s on fleet-cold"),
    ("fleet.migrations / fleet.errors", "error_rate on fleet-cold (must stay 0)"),
    ("serve.worker_busy_s", "sols_per_s on serve-cold, serve-dense"),
    ("serve.unattributed_frac", "sols_per_s, ttfs_p90_ms on serve-cold, fleet-cold; ~0 on serve-dense"),
    ("serve.first_chunk_ms", "ttfs_p50_ms on serve-dense"),
    ("serve.encode_us_per_sol", "sols_per_s on serve-warm"),
    ("client.decode_us_per_sol", "sols_per_s on serve-warm"),
    ("client.gap_max_p50_ms / _p90_ms", "tracks serve.unattributed_frac, suspend.snapshot_us"),
    ("serve.live_runs / replays / checkpoints", "sanity counts per workload"),
    ("store.hit_ms", "ttfs_p50_ms on serve-warm"),
    ("store.write_ms", "sols_per_s on serve-cold"),
    ("store.cursor_write_ms", "sols_per_s on fleet-cold"),
    ("arena.publish_ms", "ttfs_p50_ms on serve-dense"),
    ("cache.instance_key_ms_p50 / _max", "ttfs_p90_ms on serve-cold, serve-warm, fleet-cold; small on serve-dense"),
    ("cache.lookup_miss_ms", "ttfs_p90_ms on serve-cold"),
    ("cache.hit_ratio", "serve-warm"),
    ("jobs.instantiate_ms", "ttfs_p50_ms on serve-dense"),
    ("jobs.render_us_per_sol / render_frac", "sols_per_s on serve-cold; ~0 on serve-dense, serve-warm"),
    ("suspend.snapshot_us / snapshot_kb", "sols_per_s on serve-cold, fleet-cold"),
    ("core.solver_us_per_sol.*", "sols_per_s on serve-dense (most), serve-cold; 0 on serve-warm"),
    ("core.ops_per_sol.* / delay_ops_per_nm_max.*", "the paper's delay bound; client.gap_max_*"),
    ("graphs.build_ms", "ttfs_p50_ms on serve-dense"),
    ("graphs.ops_per_ms", "sols_per_s on serve-dense"),
)


def measure(wl: Workload, seconds: float, traced: bool) -> Dict[str, Any]:
    """Drive whole rounds for about ``seconds`` of load, each on a freshly
    started system under test.

    Every round is the same mix, so a run ends between rounds: the next
    one starts only while the load time left is at least the longest
    round so far (the first always runs).  A round's memory is read when
    it ends, after the same work in every round.
    """
    setups: List[float] = []
    streams: List[Stream] = []
    walls: List[float] = []
    rss, docs = [], []
    for queues in wl.rounds():
        if walls and sum(walls) + max(walls) > seconds:
            break
        sut, elapsed = wl.start()
        setups.append(elapsed)
        try:
            got, start, end = closed_loop(sut.port, queues, traced)
            rss.append(sut.rss_peak_mb())
            docs.append(wl.docs(sut))
        finally:
            sut.stop()
        streams += got
        walls.append(end - start)
    while len(setups) < SETUP_SAMPLES:
        sut, elapsed = wl.start()
        setups.append(elapsed)
        sut.stop()
    return {"streams": streams, "wall": sum(walls), "setups": setups, "rss": rss, "docs": docs}


def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    streams = run["streams"]
    ttfs = [(s.first - s.sent) * 1e3 for s in streams if s.first is not None]
    return {
        "sols_per_s": sum(s.count for s in streams) / run["wall"],
        "ttfs_p50_ms": statistics.median(ttfs),
        "ttfs_p90_ms": statistics.quantiles(ttfs, n=10)[8],
        "setup_s": statistics.median(run["setups"]),
        "rss_peak_mb": statistics.median(run["rss"]),
    }


def verify(wl: Workload, run: Dict[str, Any]) -> List[str]:
    """One message per failed stream (or failed run-level check)."""
    streams = run["streams"]
    wl.refs.ensure(wl.reference_spec(s.item) for s in streams if s.item.expect is None)
    failures = []
    for s in streams:
        why = None
        if s.error is not None:
            why = s.error
        elif s.end is None:
            why = "no end event"
        elif (s.count, s.digest) != wl.expected(s.item):
            why = f"byte mismatch ({s.count} solutions)"
        elif s.end.get("count") != s.count:
            why = "end count disagrees with the stream"
        elif s.item.expect_cached and not s.end.get("cached"):
            why = "not served from the cache"
        if why is not None:
            failures.append(f"rid {s.item.rid} ({s.item.spec['kind']}): {why}")
    if wl.checkpoints and server_counters(run["docs"])["checkpoints"] == 0:
        failures.append("replica /stats shows no checkpoints")
    return failures


def server_counters(docs_list: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Counters summed over the run's server starts (and replicas)."""
    out: Dict[str, Any] = {
        "live_runs": 0, "replays": 0, "checkpoints": 0, "hits": 0, "lookups": 0,
        "migrations": None, "errors": None, "skew": None,
    }
    for docs in docs_list:
        stats = docs["stats"]
        replicas = [stats]
        if stats.get("role") == "router":
            replicas = [r for r in stats["replicas"].values() if r.get("ok")]
            out["migrations"] = (out["migrations"] or 0) + stats["migrations"]
            out["errors"] = (out["errors"] or 0) + stats["errors"]
            lives = [r["live_runs"] for r in replicas]
            if lives and statistics.mean(lives) > 0:
                out["skew"] = max(lives) / statistics.mean(lives)
        for r in replicas:
            for key in ("live_runs", "replays", "checkpoints"):
                out[key] += r[key]
            tiered = r["tiered"]
            hits = tiered["memory_hits"] + tiered["disk_hits"]
            out["hits"] += hits
            out["lookups"] += hits + tiered["misses"]
    return out


def client_metrics(run: Dict[str, Any]) -> Dict[str, Optional[float]]:
    streams = run["streams"]
    busy = sum(float(s.end.get("compute_seconds", 0.0)) for s in streams if s.end)
    wall = sum(s.done - s.sent for s in streams)
    sols = sum(s.count for s in streams)
    gaps = sorted(s.gap_max * 1e3 for s in streams if s.count >= 2)
    counters = server_counters(run["docs"])
    return {
        "serve.worker_busy_s": busy,
        "serve.unattributed_frac": 1.0 - busy / wall,
        "client.decode_us_per_sol": sum(s.decode_s for s in streams) / sols * 1e6,
        "client.gap_max_p50_ms": statistics.median(gaps) if gaps else None,
        "client.gap_max_p90_ms": statistics.quantiles(gaps, n=10)[8] if len(gaps) > 1 else None,
        "serve.live_runs": counters["live_runs"],
        "serve.replays": counters["replays"],
        "serve.checkpoints": counters["checkpoints"],
        "cache.hit_ratio": counters["hits"] / counters["lookups"] if counters["lookups"] else None,
        "fleet.replica_skew": counters["skew"],
        "fleet.migrations": counters["migrations"],
        "fleet.errors": counters["errors"],
    }


def layer_table(tracer: layers.Tracer, requests: int, wall: float, busy: float) -> None:
    selfs = tracer.self_times()
    total = sum(selfs.get(layer, 0.0) for layer in layers.LAYERS) or 1.0
    print(f"\nlayer self time, in-process replay of {requests} requests:")
    print(f"  {'layer':<8} {'self ms':>10} {'ms/request':>11} {'share':>7}")
    for layer in layers.LAYERS:
        if layer in selfs:
            ms = selfs[layer] * 1e3
            print(f"  {layer:<8} {ms:>10.1f} {ms / max(requests, 1):>11.3f} {selfs[layer] / total:>7.1%}")
    print("  (core.advance includes the render re-measured under jobs.render)")
    print(
        f"client stream wall {wall:.2f} s = worker busy {busy:.2f} s"
        f" + unattributed {wall - busy:.2f} s (loop, gate, pipe, framing)"
    )


def traced_report(
    wl: Workload, traced: Dict[str, Any], e2e: Dict[str, float], path: str
) -> Dict[str, Any]:
    """Replay, print the per-layer report, dump the trace; returns the
    per-layer metrics for the JSON line."""
    tracer = layers.Tracer()
    samples = layers.replay(wl, traced["streams"], tracer, REPLAY_BUDGET)
    values = layers.layer_metrics(tracer, samples)
    values.update(client_metrics(traced))
    traced_rate = end_to_end(traced)["sols_per_s"]
    values["trace.overhead_frac"] = 1.0 - traced_rate / e2e["sols_per_s"]
    print("\nper-layer metrics (traced run; n/a = not on this workload's path):")
    metrics = {}
    for name, unit in PER_LAYER:
        value = values[name]
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<32} {shown:>12} {unit}")
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    wall = sum(s.done - s.sent for s in traced["streams"])
    layer_table(tracer, samples["requests"], wall, values["serve.worker_busy_s"])
    print("\nlayer metric -> end-to-end metric it should move:")
    for name, effect in LAYER_MAP:
        print(f"  {name:<42} {effect}")
    print(
        f"tracing overhead: sols_per_s {-values['trace.overhead_frac']:+.1%} "
        f"(traced {traced_rate:.1f} vs untraced {e2e['sols_per_s']:.1f} 1/s)"
    )
    header = {"workload": wl.name, "seed": wl.seed}
    layers.dump(path, header, tracer, traced["streams"], traced["docs"])
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the system under test (measure's
    # finally blocks) before it exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import repro  # noqa: F401 — fail before starting anything without src/

    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    refs = References(refs_path(OUT, os.path.join(ROOT, "src")))
    wl = WORKLOADS[args.workload](ROOT, out, args.seed, refs)
    wl.prepare()
    runs = [measure(wl, args.seconds, traced=False)]
    if args.trace:
        runs.append(measure(wl, args.seconds, traced=True))
    failures = [f for run in runs for f in verify(wl, run)]
    attempted = sum(len(run["streams"]) for run in runs)
    e2e = end_to_end(runs[0])
    counts = {
        "sols_per_s": sum(s.count for s in runs[0]["streams"]),
        "setup_s": len(runs[0]["setups"]),
        "rss_peak_mb": len(runs[0]["rss"]),
    }
    print(
        f"workload {args.workload}, seed {args.seed}, {runs[0]['wall']:.1f} s of load"
        f" in {len(runs[0]['rss'])} rounds, 2 closed-loop clients"
    )
    for name, unit in END_TO_END:
        n = counts.get(name, len(runs[0]["streams"]))
        print(f"  {name:<14} {e2e[name]:>12.4f} {unit:<4} (n={n})")
    print(f"  {'error_rate':<14} {len(failures) / max(attempted, 1):>12.4f} ratio (n={attempted})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    metrics: Dict[str, Any] = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        metrics = traced_report(wl, runs[1], e2e, os.path.join(out, f"trace-{args.seed}.json"))
    for entry in os.listdir(out):
        if entry.startswith(("store", "filled", "replay")):
            shutil.rmtree(os.path.join(out, entry), ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
