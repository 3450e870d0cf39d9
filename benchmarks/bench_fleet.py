"""Fleet benchmark: throughput scaling across replicas + kill-trial wall.

Two gates, run against real ``repro serve`` child processes behind a
:class:`~repro.serve.fleet.FleetRouter`:

1. **Scaling** — the same many-client paced workload is pushed through
   a 1-replica fleet and an N-replica fleet (fresh stores, so nothing
   replays).  Streams are *consumer-paced*: every connection's
   buffering is bounded (``sndbuf`` on the replicas and router, a small
   ``SO_RCVBUF`` on the clients), so a stream occupies its replica's
   worker for as long as the client takes to drain it.  That makes the
   workload idle-dominated — exactly the regime where adding replicas
   must help even on a single-core box — and the benchmark asserts
   aggregate throughput scales by at least ``BENCH_FLEET_GATE`` (2.5x
   by default at 4 replicas).  Every stream is byte-checked against
   :func:`repro.engine.jobs.run_job`.

2. **Migration** — ``BENCH_FLEET_TRIALS`` seeded trials SIGKILL the
   replica that owns an in-flight stream; the router must migrate to
   the survivor and the client must still see a gap-free,
   byte-identical stream.  The gate is 100%: a single lost or
   corrupted stream fails the benchmark.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py \
        [--out BENCH_fleet_abc1234.json] \
        [--baseline benchmarks/BENCH_fleet_baseline.json]

Environment knobs: ``BENCH_FLEET_REPLICAS`` (default 4),
``BENCH_FLEET_JOBS`` (default 8), ``BENCH_FLEET_PACE_MS`` (default
1.0), ``BENCH_FLEET_GATE`` (default 2.5), ``BENCH_FLEET_TRIALS``
(default 10), ``BENCH_FLEET_SEED`` (default 20220822),
``BENCH_FLEET_TOLERANCE`` (baseline slack, default 0.75).

Exits non-zero on any gate failure; prints the seed so a failing
migration trial can be replayed exactly.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import shutil
import socket
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.engine.jobs import EnumerationJob, run_job
from repro.serve.client import ServeClient
from repro.serve.fleet import (
    FleetRouter,
    HashRing,
    ReplicaProcess,
    join_router,
    routing_key,
)
from repro.serve.server import ServerThread

REPLICAS = int(os.environ.get("BENCH_FLEET_REPLICAS", "4"))
JOBS = int(os.environ.get("BENCH_FLEET_JOBS", "8"))
PACE = float(os.environ.get("BENCH_FLEET_PACE_MS", "2.0")) / 1000.0
GATE = float(os.environ.get("BENCH_FLEET_GATE", "2.5"))
TRIALS = int(os.environ.get("BENCH_FLEET_TRIALS", "10"))
SEED = int(os.environ.get("BENCH_FLEET_SEED", "20220822"))

#: Per-connection buffering bound (replica sndbuf, router both legs,
#: client rcvbuf).  Small enough that a paced consumer parks its
#: worker; large enough to stay above the kernel's SO_SNDBUF floor.
SNDBUF = 4096
CHUNK = 16
VNODES = 64  # must match FleetRouter's default so owner prediction holds


# ----------------------------------------------------------------------
# workload: K8 s-t paths (1957 solutions) + a pendant tail off "b".
# The tail is a dead end — it never appears on an a->h path, so every
# variant streams the *identical* 1957 lines — but it changes the
# graph's structure, hence its isomorphism-stable digest, hence its
# routing key and its store identity (no cross-stream replay).
# ----------------------------------------------------------------------
def make_spec(tail: int) -> Dict:
    verts = list("abcdefgh")
    edges = [[verts[i], verts[j]] for i in range(8) for j in range(i + 1, 8)]
    prev = "b"
    for c in range(tail):
        nxt = f"t{c}"
        edges.append([prev, nxt])
        prev = nxt
    return {"kind": "st-path", "edges": edges, "source": "a", "target": "h"}


def reference_lines() -> List[str]:
    return list(run_job(EnumerationJob.from_dict(make_spec(1))).lines)


def describe_divergence(lines: List[str], expected: List[str]) -> str:
    """A diagnostic for a stream that is not byte-identical to run_job."""
    if len(lines) != len(expected):
        return f"({len(lines)} vs {len(expected)} lines)"
    for index, (got, want) in enumerate(zip(lines, expected)):
        if got != want:
            return (
                f"(first diff at line {index}: got {got[:80]!r}, "
                f"want {want[:80]!r})"
            )
    return "(no positional diff: duplicate or reordered lines)"


def balanced_tails(names: List[str], per_replica: int) -> List[int]:
    """Pendant-tail lengths whose routing keys spread evenly over ``names``.

    Consistent hashing is only *statistically* balanced; for a scaling
    measurement we want exactly ``per_replica`` streams per replica, so
    candidate structures are scanned until each replica owns its share.
    """
    ring = HashRing(vnodes=VNODES)
    for name in names:
        ring.add(name)
    picked: Dict[str, List[int]] = {name: [] for name in names}
    tail = 1
    while any(len(v) < per_replica for v in picked.values()):
        owner = ring.route(routing_key(make_spec(tail)))
        if owner is not None and len(picked[owner]) < per_replica:
            picked[owner].append(tail)
        tail += 1
        if tail > 10000:  # pragma: no cover - ring pathologies only
            raise RuntimeError("could not balance tails over the ring")
    ordered: List[int] = []
    for index in range(per_replica):
        for name in names:
            ordered.append(picked[name][index])
    return ordered


# ----------------------------------------------------------------------
# fleet harness: a router thread + N real replica child processes
# ----------------------------------------------------------------------
class Fleet:
    def __init__(
        self, replicas: int, prefix: str, checkpoint_every: Optional[int] = None
    ) -> None:
        self.tmp = tempfile.mkdtemp(prefix="bench-fleet-")
        self.store = os.path.join(self.tmp, "store")
        self.checkpoint_every = checkpoint_every
        self.prefix = prefix
        self.router = FleetRouter(
            registry=os.path.join(self.store, "datasets"),
            max_streams=128,
            per_client_streams=128,
            health_interval=0.2,
            sndbuf=SNDBUF,
        )
        self.thread = ServerThread(self.router).start()
        self.procs: Dict[str, ReplicaProcess] = {}
        self._spawned = 0
        for _ in range(replicas):
            self.spawn()

    @property
    def port(self) -> int:
        return self.thread.port

    def spawn(self) -> ReplicaProcess:
        """Start one replica; membership is established when this returns
        (the join runs here, not via ``--join``, so there is no race)."""
        name = f"{self.prefix}-r{self._spawned}"
        self._spawned += 1
        proc = ReplicaProcess(
            name,
            store=self.store,
            workers=1,
            chunk=CHUNK,
            checkpoint_every=self.checkpoint_every,
            sndbuf=SNDBUF,
        )
        proc.start()
        assert proc.port is not None
        join_router(f"http://127.0.0.1:{self.port}", name, "127.0.0.1", proc.port)
        self.procs[name] = proc
        return proc

    def live_names(self) -> List[str]:
        return [name for name, proc in self.procs.items() if proc.running]

    def owner_of(self, spec: Dict) -> ReplicaProcess:
        ring = HashRing(vnodes=VNODES)
        for name in self.live_names():
            ring.add(name)
        owner = ring.route(routing_key(spec))
        assert owner is not None
        return self.procs[owner]

    def metrics(self) -> Dict:
        return ServeClient("127.0.0.1", self.port).metrics()

    def close(self) -> None:
        for proc in self.procs.values():
            proc.terminate()
        self.thread.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# one paced streaming client (raw socket: needs the SO_RCVBUF clamp)
# ----------------------------------------------------------------------
def drain_stream(
    port: int,
    spec: Dict,
    stream_id: str,
    pace: float,
    kill_at: Optional[int] = None,
    kill: Optional[ReplicaProcess] = None,
) -> Tuple[List[str], Dict]:
    """Stream one job to completion; returns ``(solution lines, end event)``.

    When ``kill_at`` is given, ``kill`` is SIGKILLed as soon as that
    many solutions have been consumed — the stream must keep going.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    # The receive-buffer clamp must precede the TCP handshake: the
    # advertised window can never shrink, so a post-connect clamp
    # would let the fleet push the whole stream at us unpaced.
    raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SNDBUF)
    raw.settimeout(600)
    raw.connect(("127.0.0.1", port))
    conn.sock = raw
    body = json.dumps({"job": spec, "stream_id": stream_id, "chunk": CHUNK}).encode()
    conn.request(
        "POST", "/enumerate", body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    if response.status != 200:
        raise RuntimeError(
            f"stream {stream_id} rejected: HTTP {response.status} "
            f"{response.read(500)!r}"
        )
    lines: List[str] = []
    end: Dict = {}
    while True:
        raw = response.readline()
        if not raw:
            break
        event = json.loads(raw)
        etype = event.get("event")
        if etype == "solution":
            lines.append(event["line"])
            if kill_at is not None and kill is not None and len(lines) == kill_at:
                kill.kill()
            if pace:
                time.sleep(pace)
        elif etype == "end":
            end = event
            break
        elif etype == "error":
            raise RuntimeError(f"stream {stream_id} errored: {event.get('error')}")
    conn.close()
    return lines, end


def run_phase(
    replicas: int, tails: List[int], expected: List[str], failures: List[str]
) -> Tuple[float, int]:
    """Run the paced workload against a fresh fleet; returns (wall, solutions)."""
    fleet = Fleet(replicas, prefix=f"bench{replicas}")
    results: Dict[int, Tuple[List[str], Dict]] = {}
    errors: List[str] = []

    def worker(index: int, tail: int) -> None:
        try:
            results[index] = drain_stream(
                fleet.port, make_spec(tail), f"scale{replicas}-{index}", PACE
            )
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            errors.append(f"phase x{replicas} stream {index}: {exc}")

    try:
        threads = [
            threading.Thread(target=worker, args=(index, tail))
            for index, tail in enumerate(tails)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
    finally:
        fleet.close()
    failures.extend(errors)
    total = 0
    for index in range(len(tails)):
        if index not in results:
            continue
        lines, end = results[index]
        total += len(lines)
        if lines != expected:
            failures.append(
                f"phase x{replicas} stream {index}: diverged from run_job "
                + describe_divergence(lines, expected)
            )
        if not end.get("exhausted"):
            failures.append(f"phase x{replicas} stream {index}: not exhausted")
    return wall, total


def run_kill_trials(trials: int, expected: List[str], failures: List[str]) -> int:
    """Seeded SIGKILL-mid-stream trials; returns the gap-free count."""
    fleet = Fleet(2, prefix="chaos", checkpoint_every=32)
    gap_free = 0
    try:
        for trial in range(trials):
            rng = random.Random(f"{SEED}:{trial}")
            spec = make_spec(500 + trial)
            victim = fleet.owner_of(spec)
            kill_at = rng.randrange(200, 1500)
            try:
                lines, end = drain_stream(
                    fleet.port,
                    spec,
                    f"trial-{trial}",
                    pace=0.0003,
                    kill_at=kill_at,
                    kill=victim,
                )
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                failures.append(
                    f"trial {trial} (seed {SEED}, kill_at {kill_at}): {exc}"
                )
                continue
            if lines == expected and end.get("exhausted"):
                gap_free += 1
            else:
                failures.append(
                    f"trial {trial} (seed {SEED}, kill_at {kill_at}): stream "
                    f"not byte-identical {describe_divergence(lines, expected)}"
                )
            fleet.spawn()
        migrations = fleet.metrics().get("migrations", 0)
        if migrations < trials:
            failures.append(
                f"only {migrations} migrations recorded across {trials} kill "
                f"trials — kills are not landing mid-stream (seed {SEED})"
            )
    finally:
        fleet.close()
    return gap_free


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None, help="write results as JSON here")
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "BENCH_fleet_baseline.json"),
        help="committed baseline to gate against ('' disables the gate)",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    expected = reference_lines()
    names = [f"bench{REPLICAS}-r{i}" for i in range(REPLICAS)]
    tails = balanced_tails(names, max(1, JOBS // REPLICAS))

    print(
        f"fleet bench: {len(tails)} jobs x {len(expected)} solutions, "
        f"pace {PACE * 1000:g}ms, sndbuf {SNDBUF}, seed {SEED}"
    )
    wall_one, solutions = run_phase(1, tails, expected, failures)
    rate_one = solutions / wall_one
    print(f"  1 replica : {wall_one:6.2f}s  {rate_one:8.1f} solutions/s")
    wall_many, solutions = run_phase(REPLICAS, tails, expected, failures)
    rate_many = solutions / wall_many
    scaling = wall_one / wall_many
    print(
        f"  {REPLICAS} replicas: {wall_many:6.2f}s  {rate_many:8.1f} solutions/s "
        f"-> {scaling:.2f}x scaling (gate {GATE:.2f}x)"
    )
    if scaling < GATE:
        failures.append(
            f"aggregate throughput scaled only {scaling:.2f}x at {REPLICAS} "
            f"replicas (gate {GATE:.2f}x)"
        )

    gap_free = run_kill_trials(TRIALS, expected, failures)
    print(f"  kill trials: {gap_free}/{TRIALS} gap-free byte-identical streams")
    if gap_free != TRIALS:
        failures.append(
            f"{TRIALS - gap_free}/{TRIALS} kill trials lost stream bytes "
            f"(seed {SEED})"
        )

    results = {
        "fleet": {
            "replicas": REPLICAS,
            "jobs": len(tails),
            "solutions_per_stream": len(expected),
            "pace_ms": PACE * 1000,
            "wall_one": round(wall_one, 3),
            "wall_many": round(wall_many, 3),
            "scaling": round(scaling, 3),
            "rate_many": round(rate_many, 1),
            "trials": TRIALS,
            "gap_free": gap_free,
            "seed": SEED,
        }
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")

    tolerance = float(os.environ.get("BENCH_FLEET_TOLERANCE", "0.75"))
    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline) as handle:
            base = json.load(handle).get("fleet", {})
        base_scaling = base.get("scaling")
        if base_scaling and scaling < base_scaling * tolerance:
            failures.append(
                f"scaling regressed: {scaling:.2f}x is below {tolerance:.0%} "
                f"of baseline {base_scaling:.2f}x"
            )
        else:
            print(
                f"gate passed vs {args.baseline} "
                f"(scaling {scaling:.2f}x vs baseline {base_scaling}, "
                f"tolerance {tolerance:.0%})"
            )
    elif args.baseline:
        print(f"no baseline at {args.baseline}; gate skipped", file=sys.stderr)

    if failures:
        print("\nFAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("all fleet gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
