"""Coordinator: merge exactness, routing, stats folding, shedding."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config import ServingConfig
from repro.errors import DocumentNotIndexedError, OverloadShedError
from repro.serving import Coordinator


def as_tuples(results):
    return [
        (r.doc_id, r.score, r.bow_score, r.bon_score) for r in results
    ]


@pytest.fixture(scope="module")
def inline_coordinator(oracle):
    coordinator = Coordinator.build(
        oracle.engine,
        ServingConfig(num_shards=3, transport="inline"),
    )
    yield coordinator
    coordinator.close()


class TestSearchMerge:
    def test_matches_oracle_bitwise(self, oracle, inline_coordinator):
        for query in oracle.queries:
            want = oracle.engine.search(query, k=8)
            got = inline_coordinator.search(query, k=8)
            assert as_tuples(got) == as_tuples(want)

    def test_detailed_outcome_is_complete(self, oracle, inline_coordinator):
        outcome = inline_coordinator.search_detailed(oracle.queries[0], k=5)
        assert outcome.partial is False
        assert outcome.failed_shards == ()

    def test_k_larger_than_any_shard(self, oracle, inline_coordinator):
        want = oracle.engine.search(oracle.queries[0], k=500)
        got = inline_coordinator.search(oracle.queries[0], k=500)
        assert as_tuples(got) == as_tuples(want)

    def test_beta_override_matches_oracle(self, oracle, inline_coordinator):
        for beta in (0.0, 0.4, 1.0):
            want = oracle.engine.search(oracle.queries[1], k=6, beta=beta)
            got = inline_coordinator.search(oracle.queries[1], k=6, beta=beta)
            assert as_tuples(got) == as_tuples(want)

    def test_degraded_deadline_matches_oracle(self, oracle):
        coordinator = Coordinator.build(
            oracle.engine, ServingConfig(num_shards=2, transport="inline")
        )
        try:
            # A fresh query (not in either LRU) with a microscopic
            # budget degrades deterministically on both sides.
            query = oracle.queries[2] + " degraded probe"
            want = oracle.engine.search(query, k=6, deadline_ms=0.001)
            got = coordinator.search(query, k=6, deadline_ms=0.001)
            assert want and want[0].degraded
            assert got and got[0].degraded
            assert as_tuples(got) == as_tuples(want)
            assert got[0].degraded_reason == want[0].degraded_reason
            assert coordinator.serving_stats.degraded_queries == 1
        finally:
            coordinator.close()


class TestRouting:
    def test_snippet_document_explanation_match_oracle(
        self, oracle, inline_coordinator
    ):
        query = oracle.queries[0]
        doc_id = oracle.engine.search(query, k=1)[0].doc_id
        assert (
            inline_coordinator.document_text(doc_id)
            == oracle.engine.document_text(doc_id)
        )
        assert inline_coordinator.snippet(
            query, doc_id
        ) == oracle.engine.snippet(query, doc_id)
        assert (
            inline_coordinator.explanation(query, doc_id).lines()
            == oracle.engine.explanation(query, doc_id).lines()
        )

    @pytest.mark.parametrize("transport", ["inline", "process"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_snippets_match_oracle_in_one_scatter(
        self, oracle, transport, num_shards
    ):
        query = oracle.queries[0]
        doc_ids = [hit.doc_id for hit in oracle.engine.search(query, k=10)]
        doc_ids += doc_ids[:2]  # duplicates allowed, order kept
        want = oracle.engine.snippets(query, doc_ids)
        with Coordinator.build(
            oracle.engine,
            ServingConfig(num_shards=num_shards, transport=transport),
        ) as coordinator:
            scatters = []
            scatter = coordinator.shard_group.scatter
            coordinator.shard_group.scatter = lambda kind, *args, **kwargs: (
                scatters.append(kind) or scatter(kind, *args, **kwargs)
            )
            assert coordinator.snippets(query, doc_ids) == want
            assert coordinator.snippets_detailed(query, doc_ids) == (want, ())
            assert scatters == ["snippets", "snippets"]
            assert coordinator.snippets(query, []) == []
            with pytest.raises(DocumentNotIndexedError):
                coordinator.snippets(query, [doc_ids[0], "no-such-doc"])
            assert coordinator.snippet(query, doc_ids[0]) == want[0]
            assert scatters == ["snippets", "snippets"]
            assert coordinator.serving_stats.partial_queries == 0

    def test_unknown_document_raises_not_indexed(self, inline_coordinator):
        with pytest.raises(DocumentNotIndexedError):
            inline_coordinator.document_text("no-such-doc")


class TestStatsFolding:
    def test_logical_vs_per_shard_counters(self, oracle):
        coordinator = Coordinator.build(
            oracle.engine, ServingConfig(num_shards=3, transport="inline")
        )
        try:
            for query in oracle.queries[:4]:
                coordinator.search(query, k=5)
            payload = coordinator.stats_payload()
            assert payload["serving"]["queries"] == 4
            # Each logical query scatters to all 3 shards.
            assert payload["query_stats"]["queries"] == 12
            assert payload["indexed"] == oracle.engine.num_indexed
            assert payload["serving"]["doc_counts"] == list(
                coordinator.plan.doc_counts
            )
        finally:
            coordinator.close()

    def test_metrics_snapshot_folds_shard_registries(self, oracle):
        coordinator = Coordinator.build(
            oracle.engine, ServingConfig(num_shards=2, transport="inline")
        )
        try:
            coordinator.search(oracle.queries[0], k=5)
            snapshot = coordinator.metrics_snapshot()
            queries = snapshot["counters"]["newslink_queries_total"]
            total = sum(value for _, value in queries["samples"])
            assert total == 2  # one ranked query per shard
        finally:
            coordinator.close()


class TestAdmissionIntegration:
    def test_queue_full_sheds_with_429_reason(self, oracle):
        coordinator = Coordinator.build(
            oracle.engine,
            ServingConfig(
                num_shards=2, transport="inline", max_inflight=1, max_queue=0
            ),
        )
        try:
            coordinator.admission.acquire()  # hold the only slot
            with pytest.raises(OverloadShedError) as excinfo:
                coordinator.search(oracle.queries[0], k=3)
            assert excinfo.value.reason == "queue_full"
            coordinator.admission.release()
            assert coordinator.serving_stats.shed_queries == 1
            # After the slot frees the same query serves normally.
            assert coordinator.search(oracle.queries[0], k=3)
        finally:
            coordinator.close()


class TestProcessTransport:
    @pytest.fixture(scope="class")
    def process_coordinator(self, oracle):
        coordinator = Coordinator.build(
            oracle.engine,
            ServingConfig(
                num_shards=2, workers_per_shard=2, transport="process"
            ),
        )
        yield coordinator
        coordinator.close()

    def test_matches_oracle_bitwise(self, oracle, process_coordinator):
        for query in oracle.queries[:5]:
            want = oracle.engine.search(query, k=8)
            got = process_coordinator.search(query, k=8)
            assert as_tuples(got) == as_tuples(want)

    def test_worker_pool_size(self, process_coordinator):
        assert process_coordinator.shard_group.live_workers() == 4

    def test_worker_stats_fold_across_processes(
        self, oracle, process_coordinator
    ):
        before = process_coordinator.folded_query_stats().queries
        process_coordinator.search(oracle.queries[0], k=4)
        after = process_coordinator.folded_query_stats().queries
        assert after == before + 2  # one ranked query per shard

    def test_close_leaves_no_orphans(self, oracle):
        coordinator = Coordinator.build(
            oracle.engine,
            ServingConfig(
                num_shards=2, workers_per_shard=1, transport="process"
            ),
        )
        pids = coordinator.shard_group.worker_pids()
        assert len(pids) == 2
        coordinator.close()
        live = {child.pid for child in multiprocessing.active_children()}
        assert not (set(pids) & live)
