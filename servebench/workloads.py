"""The four workloads: inputs, the system under test, expected streams.

A workload prepares its inputs from the seed (untimed), starts the
system under test (timed: that is ``setup_s``), hands the load
generator rounds of requests, one queue per client, and says what each
stream must be.  Every round is the same mix on a freshly started
system under test, so rounds, and runs made of them, compare.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import Any, Dict, Iterator, List, Tuple

import gen
from load import Item, lines_digest
from refs import References
from sut import Sut, http_json

#: Mid-stream checkpoint cadence on fleet-cold (one per 64-solution chunk).
CHECKPOINT_EVERY = 64
#: Instances stored for serve-warm; each is requested three times.
WARM_POOL = 120
#: A warm candidate must exhaust within this many solutions.
WARM_CAP = 600
DENSE_DATASETS = 3
#: Queries per serve-dense round: each dataset x kind x backend, four times.
DENSE_ROUND = 48


class Workload:
    """Base: one ``repro serve --workers 2 --store`` per start."""

    name = ""
    port_prefix = ready = "serving on "
    routed = False  # requests go through the fleet router
    checkpoints = False  # streams carry a stream_id and checkpoint
    live = True  # streams enumerate (False: every stream replays)

    def __init__(self, root: str, out: str, seed: int, refs: References) -> None:
        self.root = root
        self.out = out
        self.seed = seed
        self.refs = refs
        self._dirs = itertools.count()

    def fresh(self, tag: str) -> str:
        """A new empty directory under the run's output directory."""
        path = os.path.join(self.out, f"{tag}{next(self._dirs)}")
        os.makedirs(path)
        return path

    def prepare(self) -> None:
        """Build the inputs (untimed)."""

    def command(self, store: str) -> List[str]:
        return ["serve", "--port", "0", "--workers", "2", "--store", store]

    def store_dir(self) -> str:
        return self.fresh("store")

    def ready_check(self, sut: Sut) -> None:
        """Extra set-up after the ready line (timed)."""

    def start(self) -> Tuple[Sut, float]:
        """Bring the system under test to ready; returns it and the
        seconds that took."""
        store = self.store_dir()
        started = time.perf_counter()
        sut = Sut(
            self.root,
            self.command(store),
            self.port_prefix,
            self.ready,
            os.path.join(self.out, "sut.log"),
        )
        sut.start()
        try:
            self.ready_check(sut)
        except BaseException:
            sut.stop()
            raise
        return sut, time.perf_counter() - started

    def rounds(self) -> Iterator[List[Iterator[Item]]]:
        """Endless rounds; per round (one server start) one finite
        request queue per client."""
        raise NotImplementedError

    def docs(self, sut: Sut) -> Dict[str, Any]:
        """The server's ``/stats`` and ``/metrics`` documents."""
        return {
            "stats": http_json(sut.port, "GET", "/stats"),
            "metrics": http_json(sut.port, "GET", "/metrics"),
        }

    def reference_spec(self, item: Item) -> Dict[str, Any]:
        """The spec whose in-process ``run_job`` the stream must equal."""
        return item.spec

    def expected(self, item: Item) -> Tuple[int, str]:
        if item.expect is not None:
            return item.expect
        return self.refs.get(self.reference_spec(item))

    def registry(self):
        """A dataset registry resolving the workload's specs, or None."""
        return None


class ServeCold(Workload):
    """Never-seen sparse instances of six kinds through one server."""

    name = "serve-cold"

    def gen_seed(self) -> Any:
        return self.seed

    def item(self, rid: int, spec: Dict[str, Any]) -> Item:
        return Item(rid, spec, json.dumps({"job": spec}).encode())

    def rounds(self) -> Iterator[List[Iterator[Item]]]:
        # Round r is requests r*COLD_ROUND onwards: never-seen instances,
        # the same mix (and tail) as every other round.
        for first in itertools.count(0, gen.COLD_ROUND):
            specs = itertools.islice(gen.cold_specs(self.gen_seed(), first), gen.COLD_ROUND)
            shared = iter([self.item(first + i, s) for i, s in enumerate(specs)])
            yield [shared, shared]


class FleetCold(ServeCold):
    """serve-cold's generator (another seed) through a 2-replica fleet."""

    name = "fleet-cold"
    port_prefix = "router on "
    ready = "fleet up:"
    routed = True
    checkpoints = True

    def gen_seed(self) -> Any:
        return f"{self.seed}-fleet"

    def item(self, rid: int, spec: Dict[str, Any]) -> Item:
        body = {"job": spec, "stream_id": f"bench-{rid}"}
        return Item(rid, spec, json.dumps(body).encode())

    def command(self, store: str) -> List[str]:
        return [
            "fleet", "--replicas", "2", "--port", "0", "--store", store,
            "--workers", "2", "--checkpoint-every", str(CHECKPOINT_EVERY),
        ]

    def ready_check(self, sut: Sut) -> None:
        # "fleet up" follows the replicas' "serving on", which precedes
        # their join: wait until the ring holds both.
        deadline = time.monotonic() + 60
        while True:
            replicas = http_json(sut.port, "GET", "/fleet")["replicas"]
            if sum(1 for r in replicas if r["healthy"]) == 2:
                return
            if time.monotonic() > deadline:
                raise RuntimeError("fleet replicas did not join within 60s")
            time.sleep(0.005)


class ServeWarm(Workload):
    """Replays from a filled store: exact, relabelled copy, exact."""

    name = "serve-warm"
    live = False

    def prepare(self) -> None:
        from repro.engine.jobs import EnumerationJob, run_job
        from repro.serve.store import ResultStore

        self.filled = self.fresh("filled")
        store = ResultStore(self.filled)
        self.triples: List[List[Item]] = []
        for index in range(WARM_POOL):
            for attempt in itertools.count():
                spec = gen.warm_spec(self.seed, index, attempt)
                result = run_job(EnumerationJob.from_dict(dict(spec, limit=WARM_CAP + 1)))
                if result.exhausted:
                    break
            store.store(EnumerationJob.from_dict(spec), result)
            copy, pi = gen.relabelled(spec, self.seed, index)
            exact = (result.count, lines_digest(result.lines))
            mapped = (
                result.count,
                lines_digest(gen.relabel_line(spec["kind"], l, pi) for l in result.lines),
            )
            rid = 3 * index
            body, copy_body = (json.dumps({"job": s}).encode() for s in (spec, copy))
            self.triples.append(
                [
                    Item(rid, spec, body, exact, True),
                    Item(rid + 1, copy, copy_body, mapped, True),
                    Item(rid + 2, spec, body, exact, True),
                ]
            )

    def store_dir(self) -> str:
        return self.filled

    def _queue(self, client: int) -> Iterator[Item]:
        # Each client owns every other instance, so an instance's three
        # requests always arrive in order.
        for triple in self.triples[client::2]:
            yield from triple

    def rounds(self) -> Iterator[List[Iterator[Item]]]:
        while True:
            yield [self._queue(0), self._queue(1)]


class ServeDense(Workload):
    """Dense named datasets; kernel-bound steiner-tree / st-path queries."""

    name = "serve-dense"

    def prepare(self) -> None:
        self.graphs = gen.dense_graphs(DENSE_DATASETS)
        self.names = [f"dense{g}" for g in range(DENSE_DATASETS)]

    def ready_check(self, sut: Sut) -> None:
        for name, edges in zip(self.names, self.graphs):
            http_json(sut.port, "POST", "/datasets", {"name": name, "edges": edges})

    def rounds(self) -> Iterator[List[Iterator[Item]]]:
        for first in itertools.count(0, DENSE_ROUND):
            specs = itertools.islice(gen.dense_specs(self.seed, self.names, first), DENSE_ROUND)
            shared = iter(
                [Item(first + i, s, json.dumps({"job": s}).encode()) for i, s in enumerate(specs)]
            )
            yield [shared, shared]

    def reference_spec(self, item: Item) -> Dict[str, Any]:
        # fast and vector streams are byte-identical by contract, so the
        # cheaper vector run is the reference for both.
        spec = dict(item.spec)
        spec["edges"] = self.graphs[self.names.index(spec.pop("dataset"))]
        spec["backend"] = "vector"
        return spec

    def registry(self):
        from repro.frontdoor.registry import DatasetRegistry

        registry = DatasetRegistry(None)
        for name, edges in zip(self.names, self.graphs):
            registry.add(name, edges)
        return registry


WORKLOADS = {w.name: w for w in (ServeCold, ServeWarm, ServeDense, FleetCold)}

