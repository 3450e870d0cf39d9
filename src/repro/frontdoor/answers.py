"""The compact answer path: named dataset + keywords → top-k answers.

``GET /answer`` wants a small, stable JSON document — not an NDJSON
stream — with the ``k`` lightest keyword-search answers, their weights
and enough provenance to audit where each answer came from.
:class:`AnswerEngine` produces it:

* the named dataset is materialized into a :class:`DataGraph` once and
  cached (LRU by content digest, so two names sharing one deduped
  payload share one graph);
* the query runs through the datagraph **compiled-query cache**
  (:meth:`DataGraph.compiled_query` — augmented graph + integer
  relabeling + pre-built kernel, memoized per keyword set) and
  :func:`repro.core.ranked.top_k_minimal_steiner_trees`, so a warm
  repeat pays only the enumeration;
* answers follow the RANKED ORDER contract — ``(weight, canonical
  edge-id tuple)`` — which is backend-invariant, so ``backend=fast``
  (the default) returns byte-identical answers to the reference
  implementation;
* finished answer documents are LRU-cached by ``(digest, keywords, k,
  model, backend)`` — ``/answer`` is idempotent, and the
  content-addressed digest makes invalidation automatic — so a repeat
  of a hot query skips even the enumeration (``provenance.
  answer_cached`` says which path served the response).

Warming: :meth:`AnswerEngine.warm_popular` rebuilds the graphs (and the
last-queried compiled query) of the registry's most-used datasets —
the server runs it at startup so a restart doesn't turn the hottest
datasets cold.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.backend import check_backend
from repro.core.ranked import top_k_minimal_steiner_trees
from repro.datagraph.kfragments import _project_compiled
from repro.datagraph.model import DataGraph
from repro.datagraph.ranked import _model_weights
from repro.engine.jobs import BudgetExceeded, _BudgetMeter
from repro.exceptions import InvalidInstanceError, ReproError
from repro.frontdoor.registry import DatasetError, DatasetRegistry

#: Answer cap per request: /answer is the compact endpoint; bulk
#: retrieval belongs to the /enumerate stream.
MAX_K = 100


class AnswerTimeout(ReproError):
    """An /answer enumeration overran the server's deadline cap.

    Unlike /enumerate — where a deadline is a clean stop with partial
    results — /answer promises the *exact* top-k, so an overrun is an
    error (the server maps it to HTTP 503).
    """


def build_data_graph(payload: Dict[str, Any]) -> DataGraph:
    """A :class:`DataGraph` from a registry payload dict."""
    dg = DataGraph()
    for node, kws in payload.get("node_keywords", []):
        dg.add_node(node, kws)
    for vertex in payload.get("vertices", []):
        if vertex not in dg.graph:
            dg.add_node(vertex)
    for u, v in payload.get("edges", []):
        dg.add_link(u, v)
    return dg


class AnswerEngine:
    """Cached dataset graphs + the top-k answer computation.

    Parameters
    ----------
    registry:
        The dataset registry answers resolve names against.
    graph_cache_size:
        Materialized :class:`DataGraph` LRU capacity (keyed by content
        digest; each entry also holds its compiled-query memo).
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        graph_cache_size: int = 16,
        answer_cache_size: int = 256,
    ) -> None:
        self.registry = registry
        self.graph_cache_size = graph_cache_size
        self.answer_cache_size = answer_cache_size
        # The engine is driven from multiple server executor threads:
        # ``_lock`` guards the two LRUs and the counters; ``_compute``
        # holds one lock per cached digest serializing computation on
        # that graph (the compiled-query memo and the shared kernel
        # behind it are not safe to drive from two threads at once —
        # distinct datasets still answer in parallel).
        self._lock = threading.Lock()
        self._compute: Dict[str, threading.Lock] = {}
        self._graphs: "OrderedDict[str, DataGraph]" = OrderedDict()
        # (digest, keywords, k, model, backend) -> finished answer doc;
        # content-addressed keys make invalidation automatic (a dataset
        # with different content has a different digest)
        self._answers: "OrderedDict[Tuple, Dict[str, Any]]" = OrderedDict()
        self.graph_hits = 0
        self.graph_misses = 0
        self.answer_hits = 0
        self.answer_misses = 0
        self.answers_served = 0

    # ------------------------------------------------------------------
    def dataset_graph(self, name: str) -> Tuple[DataGraph, str]:
        """The (cached) data graph for dataset ``name`` + its digest."""
        record = self.registry.describe(name)
        if record is None:
            raise DatasetError(f"unknown dataset {name!r}")
        with self._lock:
            cached = self._graphs.get(record.digest)
            if cached is not None:
                self._graphs.move_to_end(record.digest)
                self.graph_hits += 1
                return cached, record.digest
            self.graph_misses += 1
        dg = build_data_graph(self.registry.payload(name))
        with self._lock:
            existing = self._graphs.get(record.digest)
            if existing is not None:
                # A racer materialized the same digest while we built;
                # keep its copy so every thread computes on one object.
                self._graphs.move_to_end(record.digest)
                return existing, record.digest
            self._graphs[record.digest] = dg
            while len(self._graphs) > self.graph_cache_size:
                evicted, _ = self._graphs.popitem(last=False)
                self._compute.pop(evicted, None)
        return dg, record.digest

    def _lookup_answer(self, cache_key: Tuple) -> Optional[Dict[str, Any]]:
        with self._lock:
            cached = self._answers.get(cache_key)
            if cached is not None:
                self._answers.move_to_end(cache_key)
            return cached

    # ------------------------------------------------------------------
    def answer(
        self,
        name: str,
        keywords: Sequence[str],
        k: int = 5,
        model: str = "degree",
        backend: str = "fast",
        deadline: Optional[float] = None,
    ) -> Dict[str, Any]:
        """The top-``k`` answer document for ``keywords`` on ``name``.

        ``deadline`` caps the enumeration's wall clock in seconds (the
        server passes its ``max_deadline``); an overrun raises
        :class:`AnswerTimeout`.  Raises the usual
        :class:`~repro.exceptions.ReproError` family on bad input
        (unknown dataset/keyword, bad k/model/backend); the server maps
        those to 4xx responses.
        """
        backend = check_backend(backend)
        if not isinstance(k, int) or k < 1 or k > MAX_K:
            raise InvalidInstanceError(f"k must be in 1..{MAX_K}, got {k!r}")
        keywords = [str(kw) for kw in keywords if str(kw)]
        if not keywords:
            raise InvalidInstanceError("a query needs at least one keyword")
        started = time.perf_counter()
        dg, digest = self.dataset_graph(name)
        cache_key = (digest, tuple(keywords), k, model, backend)
        cached = self._lookup_answer(cache_key)
        if cached is None:
            with self._lock:
                compute = self._compute.setdefault(digest, threading.Lock())
            with compute:
                # A racer on the same dataset may have finished this
                # exact query while we waited for the compute lock.
                cached = self._lookup_answer(cache_key)
                if cached is None:
                    document = self._compute_answer(
                        dg,
                        cache_key,
                        name,
                        keywords,
                        k,
                        model,
                        backend,
                        deadline,
                        started,
                    )
                    self.registry.record_use(name, keywords)
                    return document
        with self._lock:
            self.answer_hits += 1
            self.answers_served += 1
        self.registry.record_use(name, keywords)
        elapsed = time.perf_counter() - started
        return {
            **cached,
            "dataset": name,
            "provenance": {
                **cached["provenance"],
                "answer_cached": True,
                "elapsed_ms": round(elapsed * 1000.0, 3),
            },
        }

    def _compute_answer(
        self,
        dg: DataGraph,
        cache_key: Tuple,
        name: str,
        keywords: List[str],
        k: int,
        model: str,
        backend: str,
        deadline: Optional[float],
        started: float,
    ) -> Dict[str, Any]:
        """Enumerate one answer document (caller holds the compute lock)."""
        digest = cache_key[0]
        with self._lock:
            self.answer_misses += 1
        meter = None
        if deadline is not None:
            meter = _BudgetMeter(deadline_at=time.monotonic() + float(deadline))
        compiled_warm = dg.has_compiled_query(keywords)
        compiled = dg.compiled_query(keywords)
        weights = _model_weights(dg, compiled.query, model)
        try:
            ranked, scanned = top_k_minimal_steiner_trees(
                compiled.instance(backend),
                compiled.terminals,
                weights,
                k,
                meter=meter,
                backend=backend,
            )
        except BudgetExceeded as exc:
            raise AnswerTimeout(
                f"/answer on {name!r} exceeded the {deadline:g}s deadline "
                "before the exact top-k was known"
            ) from exc
        answers: List[Dict[str, Any]] = []
        for rank, (weight, solution) in enumerate(ranked, 1):
            fragment = _project_compiled(compiled, solution)
            answers.append(
                {
                    "rank": rank,
                    "weight": weight,
                    "size": fragment.size,
                    "edges": sorted(
                        [list(dg.graph.endpoints(eid)) for eid in fragment.structural_edges]
                    ),
                    "matches": {kw: node for kw, node in fragment.matches},
                }
            )
        elapsed = time.perf_counter() - started
        document = {
            "ok": True,
            "dataset": name,
            "keywords": keywords,
            "k": k,
            "count": len(answers),
            "answers": answers,
            "provenance": {
                "digest": digest,
                "model": model,
                "backend": backend,
                "scanned": scanned,
                "compiled_query_warm": compiled_warm,
                "answer_cached": False,
                "elapsed_ms": round(elapsed * 1000.0, 3),
            },
        }
        with self._lock:
            self.answers_served += 1
            self._answers[cache_key] = document
            while len(self._answers) > self.answer_cache_size:
                self._answers.popitem(last=False)
        return document

    # ------------------------------------------------------------------
    def warm(self, name: str, keywords: Optional[Sequence[str]] = None) -> bool:
        """Materialize ``name``'s graph (and compile ``keywords``).

        Returns True when anything was built; unknown datasets and
        stale keyword hints are skipped silently (warming is advisory).
        """
        try:
            dg, _digest = self.dataset_graph(name)
        except Exception:  # noqa: BLE001 — warming must never fail the server
            return False
        if keywords:
            try:
                dg.compiled_query(keywords)
            except Exception:  # noqa: BLE001
                pass
        return True

    def warm_popular(self, count: int) -> List[str]:
        """Warm the ``count`` most-used datasets (store-stats driven).

        Each dataset's most recent query keywords — persisted by the
        registry — are compiled too, so the first post-restart answer
        on a hot dataset is a full cache hit.
        """
        warmed = []
        for name in self.registry.popular(count):
            if self.warm(name, self.registry.last_keywords(name) or None):
                warmed.append(name)
        return warmed

    def as_dict(self) -> Dict[str, Any]:
        """Counters for the metrics endpoint."""
        with self._lock:
            return {
                "graphs_cached": len(self._graphs),
                "graph_hits": self.graph_hits,
                "graph_misses": self.graph_misses,
                "answers_cached": len(self._answers),
                "answer_hits": self.answer_hits,
                "answer_misses": self.answer_misses,
                "answers_served": self.answers_served,
            }
