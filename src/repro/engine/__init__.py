"""repro.engine — parallel batch-enumeration runtime.

The serving layer above the paper's enumerators: everything needed to
turn "a generator per problem" into "a system that answers many
enumeration requests fast".

* :mod:`repro.engine.jobs` — declarative :class:`EnumerationJob` specs
  covering all six Steiner enumerators plus paths and K-fragments, with
  clean deadline/budget stops and JSONL (de)serialization.
* :mod:`repro.engine.cache` — :class:`ResultCache`: canonical
  (relabeling-stable) instance hashing and the result cache's rules over
  its tiers; :class:`InstanceCache` is the in-memory LRU tier
  (:class:`repro.serve.store.TieredCache` puts a JSON disk tier
  behind it).
* :mod:`repro.engine.pool` — :func:`run_batch`: multiprocessing fan-out
  with deterministic, worker-count-independent output, plus sound
  sharding of a single large Steiner-tree job along the paper's own
  top-level branching.
* :mod:`repro.engine.cursor` — :class:`EnumerationCursor`: chunked
  streaming with JSON checkpoint/resume that reproduces the exact tail.
* :mod:`repro.engine.service` — :class:`BatchRunner` and :func:`serve`,
  the front end behind ``repro batch`` and ``repro serve``.

Quickstart
----------
>>> from repro.engine import BatchRunner, EnumerationJob
>>> runner = BatchRunner(workers=1)
>>> job = EnumerationJob.steiner_tree(
...     [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")], ["a", "d"])
>>> [r.lines for r in runner.run([job])]
[('a-c c-d', 'a-b b-c c-d')]
"""

from repro.engine.cache import (
    CacheStats,
    InstanceCache,
    ResultCache,
    canonical_signature,
    instance_key,
)
from repro.engine.cursor import EnumerationCursor
from repro.engine.jobs import (
    EnumerationJob,
    JOB_KINDS,
    JobResult,
    load_jobs_jsonl,
    run_job,
)
from repro.engine.pool import run_batch, run_steiner_shard, shard_anchor
from repro.engine.service import BatchRunner, serve

__all__ = [
    "BatchRunner",
    "CacheStats",
    "canonical_signature",
    "EnumerationCursor",
    "EnumerationJob",
    "instance_key",
    "InstanceCache",
    "JOB_KINDS",
    "JobResult",
    "load_jobs_jsonl",
    "ResultCache",
    "run_batch",
    "run_job",
    "run_steiner_shard",
    "serve",
    "shard_anchor",
]
