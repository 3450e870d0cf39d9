"""Replay the pinned regression corpus against both backends.

Every instance in ``tests/corpus/*.json`` is small and adversarial —
bridges, parallel edges, weight ties, disconnected terminals — and is
replayed on every run through the layers the backends share: core
Steiner enumeration, ranked enumeration (approximate and top-k), the
ZDD construction, and (for keyword corpora) K-fragment search.  Each
file pins the expected solution count, so the corpus also guards
against both backends drifting wrong *together* — the failure mode
cross-validation alone cannot see.  Tests taking the ``fast_strategy``
fixture run once per fast sweep strategy (bitset and scalar), since
bridges, parallel edges and weight ties are exactly the shapes the
bitset sweeps could get wrong silently.

Hypothesis counterexamples get promoted into the corpus (one JSON file
each) so they are re-checked deterministically forever; see
``tests/corpus/README.md``.
"""

import pytest

from conftest import load_corpus

CORPUS = load_corpus()
IDS = [case.name for case in CORPUS]


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_steiner_streams_identical_and_count_pinned(case, fast_strategy):
    from repro.core.steiner_tree import enumerate_minimal_steiner_trees

    reference = list(
        enumerate_minimal_steiner_trees(case.graph, case.terminals, backend="object")
    )
    candidate = list(
        enumerate_minimal_steiner_trees(case.graph, case.terminals, backend="fast")
    )
    assert reference == candidate
    assert len(reference) == case.expected_solutions


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_ranked_streams_identical(case, fast_strategy):
    from repro.core.ranked import (
        enumerate_approximately_by_weight,
        k_lightest_minimal_steiner_trees,
    )

    for lookahead in (1, 3, 1000):
        reference = list(
            enumerate_approximately_by_weight(
                case.graph, case.terminals, case.weights,
                lookahead=lookahead, backend="object",
            )
        )
        candidate = list(
            enumerate_approximately_by_weight(
                case.graph, case.terminals, case.weights,
                lookahead=lookahead, backend="fast",
            )
        )
        assert reference == candidate
        assert len(reference) == case.expected_solutions
    assert k_lightest_minimal_steiner_trees(
        case.graph, case.terminals, case.weights, 5, backend="object"
    ) == k_lightest_minimal_steiner_trees(
        case.graph, case.terminals, case.weights, 5, backend="fast"
    )


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_ranked_order_contract_holds(case, fast_strategy):
    """With full lookahead the stream is exactly sorted by RANKED ORDER
    (weight, then canonical edge-id tuple) on both backends."""
    from repro.core.backend import ranked_key
    from repro.core.ranked import enumerate_approximately_by_weight

    for backend in ("object", "fast"):
        stream = list(
            enumerate_approximately_by_weight(
                case.graph, case.terminals, case.weights,
                lookahead=10**6, backend=backend,
            )
        )
        keys = [ranked_key(w, sol) for w, sol in stream]
        assert keys == sorted(keys)


@pytest.mark.parametrize("case", CORPUS, ids=IDS)
def test_zdd_identical_and_count_pinned(case):
    from repro.zdd.steiner import build_steiner_tree_zdd

    reference = build_steiner_tree_zdd(case.graph, case.terminals, backend="object")
    candidate = build_steiner_tree_zdd(case.graph, case.terminals, backend="fast")
    assert reference.count() == candidate.count() == case.expected_solutions
    assert list(reference) == list(candidate)


@pytest.mark.parametrize(
    "case", [c for c in CORPUS if c.query], ids=[c.name for c in CORPUS if c.query]
)
def test_kfragment_streams_identical_and_count_pinned(case, fast_strategy):
    from repro.datagraph.kfragments import undirected_kfragments
    from repro.datagraph.ranked import ranked_kfragments

    dg = case.datagraph()
    reference = list(undirected_kfragments(dg, case.query, backend="object"))
    candidate = list(undirected_kfragments(dg, case.query, backend="fast"))
    assert reference == candidate
    assert len(reference) == case.expected_fragments
    assert list(ranked_kfragments(dg, case.query, lookahead=2)) == list(
        ranked_kfragments(dg, case.query, lookahead=2, backend="fast")
    )
