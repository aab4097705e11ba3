"""Fault injection: killed/failing workers yield flagged partials, never hangs.

Workers are forked, so arming ``serving.worker_request`` *before*
``Coordinator.build`` makes every worker inherit the trigger; a parent-side
``faults.reset`` does not reach already-running children (their module
state is a fork-time copy), which these tests exploit and document.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.config import ServingConfig
from repro.errors import ShardFailedError
from repro.reliability import faults
from repro.serving import Coordinator


@pytest.fixture(autouse=True)
def clean_faults():
    yield
    faults.reset()


def build(oracle, **overrides) -> Coordinator:
    defaults = dict(
        num_shards=2, workers_per_shard=1, transport="process"
    )
    defaults.update(overrides)
    return Coordinator.build(oracle.engine, ServingConfig(**defaults))


class TestWorkerKilledMidQuery:
    def test_all_workers_dying_flags_partial_then_recovers(self, oracle):
        # Every worker exits hard on its first request (inherited at
        # fork).  The query must come back quickly — flagged partial,
        # empty — not hang on the dead pipes.
        faults.arm("serving.worker_request", callback=lambda: os._exit(1))
        coordinator = build(oracle)
        try:
            outcome = coordinator.search_detailed(oracle.queries[0], k=5)
            assert outcome.partial
            assert set(outcome.failed_shards) == {0, 1}
            assert outcome.results == []
            assert coordinator.shard_group.worker_failures >= 2
            assert coordinator.serving_stats.partial_queries == 1

            # Recovery: respawned workers forked while the parent was
            # still armed die once more at most; after the reset the
            # next respawn wave is clean and serves the full answer.
            faults.reset()
            for _ in range(4):
                outcome = coordinator.search_detailed(oracle.queries[0], k=5)
                if not outcome.partial:
                    break
            assert not outcome.partial
            want = oracle.engine.search(oracle.queries[0], k=5)
            assert [
                (r.doc_id, r.score) for r in outcome.results
            ] == [(r.doc_id, r.score) for r in want]
        finally:
            coordinator.close()

    def test_single_shard_kill_keeps_other_shards_results(self, oracle):
        coordinator = build(oracle)
        try:
            victim = coordinator.shard_group._all[0][0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=5.0)

            outcome = coordinator.search_detailed(oracle.queries[0], k=10)
            assert outcome.partial
            assert outcome.failed_shards == (0,)
            assert outcome.results, "surviving shard's hits were dropped"
            plan = coordinator.plan
            assert all(
                plan.assignments[r.doc_id] == 1 for r in outcome.results
            )

            # The shard respawned: the next query is whole again.
            outcome = coordinator.search_detailed(oracle.queries[0], k=10)
            assert not outcome.partial
            want = oracle.engine.search(oracle.queries[0], k=10)
            assert [
                (r.doc_id, r.score) for r in outcome.results
            ] == [(r.doc_id, r.score) for r in want]
        finally:
            coordinator.close()


class TestWorkerException:
    def test_request_exception_fails_shard_but_worker_survives(self, oracle):
        # times=1 → each forked worker raises on exactly its first
        # request, then serves normally; no process ever dies.
        faults.arm(
            "serving.worker_request",
            exception=RuntimeError("injected request failure"),
            times=1,
        )
        coordinator = build(oracle)
        try:
            outcome = coordinator.search_detailed(oracle.queries[1], k=5)
            assert outcome.partial
            assert set(outcome.failed_shards) == {0, 1}
            assert coordinator.shard_group.worker_failures == 0
            assert coordinator.shard_group.live_workers() == 2

            outcome = coordinator.search_detailed(oracle.queries[1], k=5)
            assert not outcome.partial
            want = oracle.engine.search(oracle.queries[1], k=5)
            assert [
                (r.doc_id, r.score) for r in outcome.results
            ] == [(r.doc_id, r.score) for r in want]
        finally:
            coordinator.close()


class TestSnippetStage:
    def test_lost_shard_blanks_its_hits_single_form_still_raises(self, oracle):
        coordinator = build(oracle)
        try:
            query = oracle.queries[0]
            doc_ids = [hit.doc_id for hit in coordinator.search(query, k=10)]
            want = oracle.engine.snippets(query, doc_ids)
            owners = [coordinator.plan.assignments[d] for d in doc_ids]
            assert set(owners) == {0, 1}

            def kill_shard_0():
                victim = coordinator.shard_group._all[0][-1]
                os.kill(victim.process.pid, signal.SIGKILL)
                victim.process.join(timeout=5.0)

            kill_shard_0()
            got, lost = coordinator.snippets_detailed(query, doc_ids)
            assert lost == (0,)
            for owner, snippet, expected in zip(owners, got, want):
                assert snippet == expected if owner == 1 else snippet.text == ""
            assert coordinator.serving_stats.partial_queries == 1

            # The shard respawned: the next reply's snippets are whole.
            assert coordinator.snippets_detailed(query, doc_ids) == (want, ())

            # The one-document form has no partial answer to give.
            kill_shard_0()
            with pytest.raises(ShardFailedError):
                coordinator.snippet(query, doc_ids[owners.index(0)])
        finally:
            coordinator.close()
