"""The result cache's answers, pinned by values an older release wrote.

One seeded operation trace runs through every cache shape: an
:class:`InstanceCache` of two entries, a :class:`ResultStore`, a
:class:`TieredCache` over both, and two tiered caches over one
directory, as fleet replicas share one.  The trace stores full,
limited, deadline-stopped, budget-stopped and structure-less results;
asks ``lookup`` and ``prefix`` of exact jobs, relabelled copies and
limited jobs; and reopens every shape from its directory now and then
(the memory cache starts empty).  Every answer (its lines digest,
count, ``exhausted``, ``stop_reason``, ``cached`` and structures), each
shape's counters and every entry file's text must be what
``tests/fixtures/cache_trace.json`` holds (see ``tests/fixtures/README.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from conftest import fixture_job
from repro.engine.cache import InstanceCache
from repro.engine.jobs import EnumerationJob, JobResult, run_job
from repro.serve.store import ResultStore, TieredCache

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cache_trace.json")

#: Kinds of every result shape: edge sets, arc sets, vertex sets, paths,
#: and one kind that is not relabelable (its entries store raw lines).
KINDS = ("steiner-tree", "directed-steiner", "induced-steiner", "st-path", "kfragments")
SEED = 2301
OPERATIONS = 240


def _relabelled(job: EnumerationJob, rng: random.Random) -> EnumerationJob:
    """``job`` with its vertices renamed and its edges reordered."""
    labels = job.label_table()
    image = dict(zip(labels, [f"r{i}" for i in rng.sample(range(len(labels)), len(labels))]))
    edges = [(image[u], image[v]) for u, v in job.edges]
    rng.shuffle(edges)

    def name(v: Any) -> Any:
        return None if v is None else image[v]

    return dataclasses.replace(
        job,
        edges=tuple(edges),
        vertices=tuple(image[v] for v in job.vertices),
        terminals=tuple(image[t] for t in job.terminals),
        families=tuple(tuple(image[t] for t in f) for f in job.families),
        root=name(job.root),
        source=name(job.source),
        target=name(job.target),
    )


def _pool(rng: random.Random) -> Dict[str, EnumerationJob]:
    """The trace's jobs by name: ``<kind>/<variant>``."""
    jobs: Dict[str, EnumerationJob] = {}
    for kind in KINDS:
        own = fixture_job(kind)
        variants = {"own": own, "own-1": dataclasses.replace(own, limit=1),
                    "own-3": dataclasses.replace(own, limit=3)}
        if kind != "kfragments":
            copy = _relabelled(own, rng)
            variants.update({"copy": copy, "copy-2": dataclasses.replace(copy, limit=2),
                             "copy-big": dataclasses.replace(copy, limit=1000)})
        for variant, job in variants.items():
            jobs[f"{kind}/{variant}"] = job
    return jobs


#: How a stored result is bent before the store sees it.
_BENDS: Dict[str, Callable[[JobResult], JobResult]] = {
    "plain": lambda r: r,
    "deadline": lambda r: dataclasses.replace(r, stop_reason="deadline", exhausted=False),
    "budget": lambda r: dataclasses.replace(r, stop_reason="budget", exhausted=False),
    "no-structures": lambda r: dataclasses.replace(r, structures=None),
}


def _operations(jobs: Dict[str, EnumerationJob], rng: random.Random) -> List[Tuple[str, ...]]:
    names = sorted(jobs)
    # Results cut by a small limit are stored more often than complete
    # ones, which end an entry's upgrades.
    weights = [6 if (jobs[name].limit or 1000) < 1000 else 1 for name in names]
    ops: List[Tuple[str, ...]] = []
    for _ in range(OPERATIONS):
        roll = rng.random()
        if roll < 0.03:
            ops.append(("reopen",))
        elif roll < 0.38:
            bend = rng.choices(list(_BENDS), weights=[8, 1, 1, 1])[0]
            ops.append(("store", rng.choices(names, weights)[0], bend))
        elif roll < 0.7:
            ops.append(("lookup", rng.choice(names)))
        else:
            ops.append(("prefix", rng.choice(names)))
    return ops


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def _answer(result: Optional[JobResult]) -> Optional[Dict[str, Any]]:
    if result is None:
        return None
    return {
        "lines": _digest(result.lines),
        "count": result.count,
        "exhausted": result.exhausted,
        "stop_reason": result.stop_reason,
        "cached": result.cached,
        "structures": None if result.structures is None else _digest(result.structures),
    }


def _counters(cache: Any) -> Dict[str, Any]:
    if isinstance(cache, InstanceCache):
        return {"stats": cache.stats.as_dict(), "entries": len(cache)}
    return {"stats": cache.stats.as_dict(), "document": cache.as_dict(), "entries": len(cache)}


def _entry_files(root: str) -> Dict[str, str]:
    entries = os.path.join(root, "entries")
    files = {}
    for name in sorted(os.listdir(entries)) if os.path.isdir(entries) else []:
        with open(os.path.join(entries, name)) as handle:
            files[name] = handle.read()
    return files


def _shapes(root: str) -> Dict[str, Tuple[Callable[[], List[Any]], Optional[str]]]:
    """Each shape: a factory for its caches (reopened from the same
    directory every call) and that directory."""
    disk, tiered, shared = (os.path.join(root, name) for name in ("disk", "tiered", "shared"))
    return {
        "memory": (lambda: [InstanceCache(maxsize=2)], None),
        "disk": (lambda: [ResultStore(disk)], disk),
        "tiered": (lambda: [TieredCache(InstanceCache(maxsize=2), ResultStore(tiered))], tiered),
        "replicas": (
            lambda: [TieredCache(InstanceCache(maxsize=2), ResultStore(shared)) for _ in "ab"],
            shared,
        ),
    }


def trace(root: str) -> Dict[str, Any]:
    """Run the trace through every shape under directory ``root``."""
    rng = random.Random(SEED)
    jobs = _pool(rng)
    ops = _operations(jobs, rng)
    results = {name: run_job(job) for name, job in jobs.items()}
    out: Dict[str, Any] = {"operations": [list(op) for op in ops]}
    for shape, (factory, directory) in _shapes(root).items():
        pick = random.Random(SEED + 1)  # which replica serves each operation
        caches = factory()
        answers: List[Any] = []
        closed: List[Any] = []  # counters of each cache set at its reopen
        for op in ops:
            if op[0] == "reopen":
                closed.append([_counters(c) for c in caches])
                caches = factory()
                continue
            cache = caches[pick.randrange(len(caches))]
            job = jobs[op[1]]
            if op[0] == "store":
                cache.store(job, _BENDS[op[2]](results[op[1]]))
            elif op[0] == "lookup":
                answers.append(_answer(cache.lookup(job)))
            else:
                answers.append(_answer(cache.prefix(job)))
        out[shape] = {
            "answers": answers,
            "reopened": closed,
            "final": [_counters(c) for c in caches],
            "entry_files": _entry_files(directory) if directory else {},
        }
    return out


def test_every_shape_answers_as_the_fixture_says(tmp_path):
    with open(FIXTURE) as handle:
        pinned = json.load(handle)
    got = json.loads(json.dumps(trace(str(tmp_path))))
    assert got["operations"] == pinned["operations"], "the trace itself changed"
    for shape in ("memory", "disk", "tiered", "replicas"):
        for part in ("answers", "reopened", "final", "entry_files"):
            assert got[shape][part] == pinned[shape][part], (shape, part)
