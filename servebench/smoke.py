"""Smoke test for the benchmark itself (tiny runs, well under a minute).

Checks that the generator is deterministic per seed and JSON-safe, that
a corrupted reference makes a run fail (non-zero exit, ``failed`` > 0),
and that the printed metric names equal those in ``BENCHMARK.json``::

    python3 servebench/smoke.py
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from refs import refs_path, spec_key  # noqa: E402
from run import OUT  # noqa: E402
from workloads import ServeCold  # noqa: E402


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke FAILED: {message}")
    print(f"ok  {message}")


def bench(workload: str, seed: int, trace: int):
    """Run the benchmark for one second; returns (exit code, JSON result)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    def cold(seed):
        return list(itertools.islice(gen.cold_specs(seed), 12))

    check(cold(7) == cold(7), "cold generator is deterministic per seed")
    check(cold(7) != cold(8), "another seed gives other cold inputs")
    check(
        gen.warm_spec(7, 3, 0) == gen.warm_spec(7, 3, 0)
        and list(itertools.islice(gen.dense_specs(7, ["a"]), 8))
        == list(itertools.islice(gen.dense_specs(7, ["a"]), 8))
        and gen.dense_graphs(1, n=40, extra=200) == gen.dense_graphs(1, n=40, extra=200),
        "warm and dense generators are deterministic per seed",
    )
    check(
        all(json.loads(json.dumps(s)) == s for s in cold(7)),
        "specs survive JSON unchanged (integer labels)",
    )

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    code, result = bench("serve-cold", 424242, 0)
    check(code == 0 and result["correct"] and result["failed"] == 0, "a clean run passes")
    check(
        sorted(result["metrics"]) == sorted(m["name"] for m in declared["end_to_end"]),
        "--trace 0 prints exactly the end-to-end metrics of BENCHMARK.json",
    )
    code, result = bench("serve-cold", 424242, 1)
    check(code == 0, "a traced run passes")
    check(
        sorted(result["metrics"]) == sorted(m["name"] for m in declared["per_layer"]),
        "--trace 1 prints exactly the per-layer metrics of BENCHMARK.json",
    )

    # Poison the cached references of a fresh seed's first requests.
    seed = 424243
    os.makedirs(OUT, exist_ok=True)
    path = refs_path(OUT, os.path.join(ROOT, "src"))
    try:
        with open(path) as handle:
            table = json.load(handle)
    except (OSError, ValueError):
        table = {}
    keys = [spec_key(s) for s in itertools.islice(gen.cold_specs(seed), 200)]
    try:
        with open(path, "w") as handle:
            json.dump(dict(table, **{k: [256, "0" * 64] for k in keys}), handle)
        code, result = bench(ServeCold.name, seed, 0)
    finally:
        with open(path, "w") as handle:
            json.dump(table, handle)
    check(
        code != 0 and not result["correct"] and result["failed"] > 0,
        "a corrupted reference fails the run (error_rate > 0, non-zero exit)",
    )
    print("smoke passed")


if __name__ == "__main__":
    main()
