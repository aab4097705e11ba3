"""The scatter-gather coordinator: one logical engine over N shards.

A :class:`Coordinator` serves the same request surface as a single
:class:`~repro.search.engine.NewsLinkEngine` — search, snippets,
documents, explanations, stats — but fans the ranking work out to
document-partitioned shard workers:

1. **Admission** — the query takes a slot from the
   :class:`~repro.serving.admission.AdmissionController`; under
   overload it is shed (:class:`~repro.errors.OverloadShedError`,
   HTTP 429) instead of queueing unboundedly.
2. **Embed once** — the frontend engine (graph + NLP pipeline, zero
   documents) runs the NLP and NE stages exactly once, behind the same
   query-embedding LRU and per-query deadline the single engine uses.
   A deadline expiry degrades to text-only terms, exactly like
   ``NewsLinkEngine._search_degraded``.
3. **Scatter** — the analyzed term lists (never the text, never the
   embedding) go to one leased worker per shard, each asked for a full
   top ``k`` of its partition.
4. **Gather & merge** — per-shard hits are merged under the oracle's
   own ordering (descending score, ascending doc id; shards partition
   the corpus, so no doc appears twice).  Because shards score with
   corpus-wide BM25 statistics (see :mod:`repro.serving.planner`), the
   merged list is **bit-identical** to the whole-corpus engine's.  A
   shard that fails or misses the gather budget yields a *partial*
   result, flagged, never a hang.

Stats model
-----------
Worker processes accumulate their own ``QueryStats`` and metric
registries; :meth:`stats_payload`/:meth:`metrics_snapshot` fold them at
scrape time with the :mod:`repro.obs` merge algebra (counters and
histogram buckets add, gauges max), then fold in the frontend's
registry.  Folded ``query_stats`` count *per-shard ranking work* (one
logical query scatters to N shards, so ``queries`` grows by N); the
coordinator's own :class:`ServingStats` count *logical* queries,
degradations, partials and sheds.  Both are reported side by side.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.config import ServingConfig
from repro.core.serialization import embedding_to_dict
from repro.errors import (
    DocumentNotIndexedError,
    DeadlineExpiredError,
    OverloadShedError,
)
from repro.obs.instruments import ServingInstruments
from repro.obs.metrics import Snapshot, merge_snapshots
from repro.search.bon import bon_terms
from repro.search.engine import SearchResult
from repro.search.snippets import Snippet
from repro.serving.admission import AdmissionController
from repro.serving.planner import ShardPlan, ShardPlanner
from repro.serving.shard import InlineShardGroup, ProcessShardGroup
from repro.utils.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.presentation import Explanation
    from repro.search.engine import NewsLinkEngine
    from repro.search.pruned import QueryStats


@dataclass
class ServingStats:
    """Logical (per-request) counters the coordinator owns.

    Attributes:
        queries: logical queries admitted and answered.
        degraded_queries: answered text-only (deadline expired in NE).
        partial_queries: answered with >= 1 shard missing, in the
            ranking scatter or in the snippet scatter.
        shed_queries: rejected by admission control (never ranked).
    """

    queries: int = 0
    degraded_queries: int = 0
    partial_queries: int = 0
    shed_queries: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class GatherOutcome(NamedTuple):
    """A merged search answer plus its completeness flags."""

    results: list[SearchResult]
    partial: bool
    failed_shards: tuple[int, ...]


class Coordinator:
    """Scatter-gather serving over a planned shard group."""

    def __init__(
        self,
        frontend: "NewsLinkEngine",
        plan: ShardPlan,
        group: "ProcessShardGroup | InlineShardGroup",
        config: ServingConfig | None = None,
    ) -> None:
        self._frontend = frontend
        self._plan = plan
        self._group = group
        self._config = config or ServingConfig()
        self._admission = AdmissionController(
            self._config.effective_max_inflight,
            self._config.max_queue,
            self._config.shed_on_deadline,
        )
        self._serving_stats = ServingStats()
        self._obs = ServingInstruments(frontend.metrics_registry)
        self._obs.bind(self)
        self._closed = False

    @classmethod
    def build(
        cls,
        source: "NewsLinkEngine",
        config: ServingConfig | None = None,
        frontend: "NewsLinkEngine | None" = None,
    ) -> "Coordinator":
        """Plan shards from an indexed ``source`` engine and start serving.

        ``source`` must already hold the corpus; it is left untouched
        (tests keep using it as the differential oracle).  The frontend
        — the engine that runs per-query NLP/NE — defaults to a fresh
        document-free engine sharing ``source``'s graph, label index and
        configuration.
        """
        from repro.search.engine import NewsLinkEngine

        config = config or ServingConfig()
        plan, shards = ShardPlanner(source, config.num_shards).build()
        if frontend is None:
            frontend = NewsLinkEngine(
                source.graph, source.config, label_index=source.label_index
            )
        if config.transport == "process":
            group: "ProcessShardGroup | InlineShardGroup" = ProcessShardGroup(
                shards, workers_per_shard=config.workers_per_shard
            )
        else:
            group = InlineShardGroup(shards)
        return cls(frontend, plan, group, config)

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop the shard group (terminates every worker).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._group.close()

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    @property
    def config(self) -> ServingConfig:
        return self._config

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def frontend(self) -> "NewsLinkEngine":
        """The document-free engine running per-query NLP/NE."""
        return self._frontend

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def shard_group(self) -> "ProcessShardGroup | InlineShardGroup":
        return self._group

    @property
    def serving_stats(self) -> ServingStats:
        return self._serving_stats

    @property
    def num_indexed(self) -> int:
        """Documents indexed across all shards."""
        return len(self._plan.assignments)

    # -- search --------------------------------------------------------
    def search(
        self,
        text: str,
        k: int = 10,
        beta: float | None = None,
        ranking: str | None = None,
        deadline_ms: float | None = None,
        profile=None,
        session=None,
        gamma: float | None = None,
        advance_session: bool = False,
    ) -> list[SearchResult]:
        """Merged top-``k`` (drops the completeness flags; see
        :meth:`search_detailed`)."""
        return self.search_detailed(
            text,
            k,
            beta=beta,
            ranking=ranking,
            deadline_ms=deadline_ms,
            profile=profile,
            session=session,
            gamma=gamma,
            advance_session=advance_session,
        ).results

    def search_detailed(
        self,
        text: str,
        k: int = 10,
        beta: float | None = None,
        ranking: str | None = None,
        deadline_ms: float | None = None,
        profile=None,
        session=None,
        gamma: float | None = None,
        advance_session: bool = False,
    ) -> GatherOutcome:
        """Admission → embed once → scatter → gather → merge.

        Raises :class:`OverloadShedError` when admission control rejects
        the query; every other failure mode answers (possibly degraded
        and/or partial).  The deadline bounds admission waiting and the
        NE stage — ranking itself always runs to completion, exactly
        like the single engine's deadline contract.

        ``profile`` / ``session`` / ``gamma`` personalize exactly like
        :meth:`NewsLinkEngine.search`: context terms are resolved on the
        document-free frontend and shipped inside the scatter payload,
        so shard workers stay stateless.  ``advance_session=True`` folds
        the query embedding into ``session`` after a non-degraded
        gather.
        """
        budget = (
            self._frontend.config.deadline_ms
            if deadline_ms is None
            else deadline_ms
        )
        deadline = Deadline(budget) if budget is not None else None
        obs = self._obs
        start = time.perf_counter() if obs.enabled else 0.0
        try:
            self._admission.acquire(deadline)
        except OverloadShedError:
            self._serving_stats.shed_queries += 1
            if obs.enabled:
                obs.requests.inc(outcome="shed")
            raise
        try:
            outcome, degraded = self._search_admitted(
                text, k, beta, ranking, deadline,
                profile, session, gamma, advance_session,
            )
        finally:
            self._admission.release()
        self._serving_stats.queries += 1
        if degraded:
            self._serving_stats.degraded_queries += 1
        if outcome.partial:
            self._serving_stats.partial_queries += 1
        if obs.enabled:
            obs.request_latency.observe(
                time.perf_counter() - start, stage="total"
            )
            if degraded:
                obs.requests.inc(outcome="degraded")
            if outcome.partial:
                obs.requests.inc(outcome="partial")
            if not degraded and not outcome.partial:
                obs.requests.inc(outcome="served")
        return outcome

    def _search_admitted(
        self,
        text: str,
        k: int,
        beta: float | None,
        ranking: str | None,
        deadline: Deadline | None,
        profile=None,
        session=None,
        gamma: float | None = None,
        advance_session: bool = False,
    ) -> tuple[GatherOutcome, bool]:
        """The post-admission serving path; returns (outcome, degraded)."""
        frontend = self._frontend
        obs = self._obs
        # Stage 1: NLP + NE, once, behind the frontend's query LRU.  The
        # beta gating below replicates NewsLinkEngine._rank bit for bit.
        fusion = frontend.config.fusion
        if beta is not None and beta != fusion.beta:
            fusion = replace(fusion, beta=beta)
        effective_beta = fusion.beta
        degraded = False
        degraded_reason: str | None = None
        query_embedding = None
        embed_start = time.perf_counter() if obs.enabled else 0.0
        try:
            _, query_embedding, ctx_terms, ctx_gamma = (
                frontend.contextual_query_state(
                    text,
                    profile=profile,
                    session=session,
                    gamma=gamma,
                    deadline=deadline,
                )
            )
            bow = (
                frontend.analyzer.analyze(text)
                if effective_beta < 1.0
                else []
            )
            bon = (
                bon_terms(query_embedding)
                if effective_beta > 0.0 and not query_embedding.is_empty
                else []
            )
        except DeadlineExpiredError as exc:
            # Same fallback as NewsLinkEngine._search_degraded: rank the
            # text channel alone (beta=0, context dropped) and flag
            # every result.
            degraded = True
            degraded_reason = str(exc)
            effective_beta = 0.0
            bow = frontend.analyzer.analyze(text)
            bon = []
            ctx_terms, ctx_gamma = (), 0.0
        if obs.enabled:
            obs.request_latency.observe(
                time.perf_counter() - embed_start, stage="embed"
            )
        # Stages 2-4: scatter the terms, gather per-shard top-k, merge.
        payload = {
            "bow": bow,
            "bon": bon,
            "k": k,
            "beta": effective_beta,
            "ranking": ranking,
            "profile": list(ctx_terms),
            "gamma": ctx_gamma,
        }
        scatter_start = time.perf_counter() if obs.enabled else 0.0
        replies = self._group.scatter(
            "search",
            [payload] * self._plan.num_shards,
            timeout_ms=self._config.gather_timeout_ms,
        )
        if obs.enabled:
            obs.request_latency.observe(
                time.perf_counter() - scatter_start, stage="scatter"
            )
        hits: list[SearchResult] = []
        failed: list[int] = []
        for reply in replies:
            if reply.ok:
                hits.extend(reply.value)
            else:
                failed.append(reply.shard_id)
        # Shards partition the corpus, so the global top-k is a plain
        # k-way selection under the oracle ordering of
        # repro.search.topk.top_k (descending score, ascending doc id).
        merged = heapq.nsmallest(
            k, hits, key=lambda hit: (-hit.score, hit.doc_id)
        )
        if degraded:
            merged = [
                replace(hit, degraded=True, degraded_reason=degraded_reason)
                for hit in merged
            ]
        outcome = GatherOutcome(
            results=list(merged),
            partial=bool(failed),
            failed_shards=tuple(failed),
        )
        if (
            advance_session
            and session is not None
            and not degraded
            and query_embedding is not None
        ):
            session.advance(text, query_embedding)
        return outcome, degraded

    # -- single-document requests (routed to the owning shard) ---------
    def _shard_of(self, doc_id: str) -> int:
        shard_id = self._plan.shard_of(doc_id)
        if shard_id is None:
            raise DocumentNotIndexedError(doc_id)
        return shard_id

    def snippet(self, query_text: str, doc_id: str) -> Snippet:
        """A query-biased snippet, generated on the owning shard."""
        return self._group.request(
            self._shard_of(doc_id),
            "snippets",
            {"query": query_text, "doc_ids": [doc_id]},
            self._config.gather_timeout_ms,
        )[0]

    def snippets(
        self, query_text: str, doc_ids: Sequence[str]
    ) -> list[Snippet]:
        """One snippet per entry of ``doc_ids``, in order (drops the
        completeness flag; see :meth:`snippets_detailed`)."""
        return self.snippets_detailed(query_text, doc_ids)[0]

    def snippets_detailed(
        self, query_text: str, doc_ids: Sequence[str]
    ) -> tuple[list[Snippet], tuple[int, ...]]:
        """A reply's snippets in **one** scatter, plus the shards lost.

        The hits are grouped by owning shard and every shard extracts
        its own in parallel.  A shard that fails or misses the gather
        budget is reported in the second element and its hits get the
        empty snippet — the ranking scatter's ``partial`` contract, not
        a :class:`~repro.errors.ShardFailedError`: the ranked reply is
        still worth sending.
        """
        owned: list[list[str]] = [[] for _ in range(self._plan.num_shards)]
        for doc_id in doc_ids:
            owned[self._shard_of(doc_id)].append(doc_id)
        if not doc_ids:
            return [], ()
        replies = self._group.scatter(
            "snippets",
            [
                {"query": query_text, "doc_ids": ids} if ids else None
                for ids in owned
            ],
            timeout_ms=self._config.gather_timeout_ms,
        )
        extracted: dict[str, Snippet] = {}
        failed = []
        for ids, reply in zip(owned, replies):
            if reply.ok:
                extracted.update(zip(ids, reply.value))
            elif ids:
                failed.append(reply.shard_id)
        if failed:
            self._serving_stats.partial_queries += 1
            if self._obs.enabled:
                self._obs.requests.inc(outcome="partial")
        blank = Snippet(text="", start=0, end=0, score=0.0)
        return (
            [extracted.get(doc_id, blank) for doc_id in doc_ids],
            tuple(failed),
        )

    def document_text(self, doc_id: str) -> str:
        """The stored raw text, fetched from the owning shard."""
        return self._group.request(
            self._shard_of(doc_id),
            "document",
            {"doc_id": doc_id},
            self._config.gather_timeout_ms,
        )

    def explanation(
        self, query_text: str, doc_id: str, query_embedding=None
    ) -> "Explanation":
        """A presentable explanation; the query embeds at the frontend
        (LRU-shared with :meth:`search`), paths compute on the owning
        shard where the result embedding lives.  ``query_embedding``
        overrides the query's own embedding — the server passes a
        session's dialogue embedding here so explanations re-anchor on
        the whole conversation."""
        shard_id = self._shard_of(doc_id)
        if query_embedding is None:
            _, query_embedding = self._frontend.query_state(query_text)
        return self._group.request(
            shard_id,
            "explain",
            {
                "query": query_text,
                "doc_id": doc_id,
                "embedding": embedding_to_dict(query_embedding),
            },
            self._config.gather_timeout_ms,
        )

    # -- stats ---------------------------------------------------------
    def folded_query_stats(self) -> "QueryStats":
        """Every shard worker's ``QueryStats``, summed (scrape-time)."""
        folded, _ = self._group.fold_stats()
        folded.merge(self._frontend.query_stats)
        return folded

    def metrics_snapshot(self) -> Snapshot:
        """The frontend registry folded with every worker's registry."""
        _, worker_metrics = self._group.fold_stats()
        return merge_snapshots(
            self._frontend.metrics_registry.snapshot(), worker_metrics
        )

    def stats_payload(self) -> dict:
        """The ``/stats`` JSON body (see ``docs/serving.md``)."""
        from repro.obs import render_json

        folded_stats, worker_metrics = self._group.fold_stats()
        folded_stats.merge(self._frontend.query_stats)
        merged = merge_snapshots(
            self._frontend.metrics_registry.snapshot(), worker_metrics
        )
        return {
            "indexed": self.num_indexed,
            "serving": {
                "num_shards": self._plan.num_shards,
                "doc_counts": list(self._plan.doc_counts),
                "transport": self._group.transport,
                "live_workers": self._group.live_workers(),
                "worker_failures": self._group.worker_failures,
                "admission": self._admission.snapshot(),
                **self._serving_stats.as_dict(),
            },
            "query_stats": folded_stats.as_dict(),
            "search_stats": self._frontend.search_stats.as_dict(),
            "metrics": render_json(merged),
            "traces": self._frontend.observability.tracer.records(),
        }
