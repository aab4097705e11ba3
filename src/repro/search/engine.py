"""The end-to-end NewsLink engine (architecture of Figure 2).

``NewsLinkEngine`` wires the three components together:

* **NLP** — sentence segmentation, NER, maximal entity co-occurrence sets;
* **NE**  — one ``G*`` per entity group, unioned into a document embedding;
* **NS**  — two inverted indexes (text terms and embedding nodes), BM25 on
  each, Equation 3 fusion, top-k ranking, and path explanations.

Each stage can be timed into a :class:`TimingBreakdown` for the Fig 7 and
Table VIII experiments.
"""

from __future__ import annotations

import gzip
import io
import json
import logging
import mmap as mmap_module
import os
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from repro.config import EngineConfig
from repro.core.document_embedding import (
    DocumentEmbedding,
    SegmentEmbedder,
    embed_document,
)
from typing import TYPE_CHECKING, NamedTuple, Sequence

from repro.core.explain import RelationshipPath, explain_pair, verbalize_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import CacheStats
    from repro.core.presentation import Explanation, ExplanationOptions
    from repro.parallel.merge import IndexReport
    from repro.personalize import Session, UserProfile
    from repro.search.snippets import Snippet
from repro.core.lcag import LcagEmbedder, SearchStats
from repro.core.tree_emb import TreeEmbedder
from repro.data.document import Corpus, NewsDocument
from repro.errors import (
    DataError,
    DeadlineExpiredError,
    DocumentNotIndexedError,
    IndexCorruptError,
)
from repro.kg.graph import KnowledgeGraph
from repro.kg.label_index import LabelIndex
from repro.nlp.pipeline import NlpPipeline, ProcessedDocument
from repro.obs import EngineInstruments, disabled_registry, get_registry
from repro.obs.metrics import MetricsRegistry
from repro.reliability import faults
from repro.utils.deadline import Deadline
from repro.search.analyzer import Analyzer
from repro.search.bm25 import Bm25Scorer
from repro.search.bon import bon_terms
from repro.search.fusion import fuse_scores, supports_pruned_ranking
from repro.search.inverted_index import InvertedIndex
from repro.search.planner import QueryPlanner
from repro.search.pruned import FusedRanker, QueryStats
from repro.search.topk import top_k
from repro.utils.timing import TimingBreakdown

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchResult:
    """One ranked search result.

    Attributes:
        doc_id: the retrieved document.
        score: the fused Equation 3 score.
        bow_score: the text channel's (normalized) contribution basis.
        bon_score: the node channel's (normalized) contribution basis.
        profile_score: the personalization/session context channel's
            contribution basis (0.0 for anonymous queries or gamma=0).
        degraded: True when the query's deadline expired and this result
            came from the text-only fallback ranking.
        degraded_reason: human-readable reason for the degradation
            (None on the normal path).
    """

    doc_id: str
    score: float
    bow_score: float
    bon_score: float
    profile_score: float = 0.0
    degraded: bool = False
    degraded_reason: str | None = None


class _Crc32Writer:
    """Text-writer proxy that CRC32s everything written through it.

    Lets the streaming index writer checksum the payload without ever
    materializing it in memory.
    """

    __slots__ = ("_fh", "crc")

    def __init__(self, fh) -> None:
        self._fh = fh
        self.crc = 0

    def write(self, data: str) -> None:
        self.crc = zlib.crc32(data.encode("utf-8"), self.crc)
        self._fh.write(data)


class _QueryContext(NamedTuple):
    """Resolved personalization context for one query.

    ``key`` is the hashable identity — ``(kind, id, revision)`` triples
    for the supplied profile/session — that, together with ``gamma``,
    distinguishes this query's cache entry from the anonymous one and
    from any other context revision.  ``terms`` are the context-channel
    node terms the ranking consumes.
    """

    key: tuple
    terms: tuple[str, ...]
    gamma: float


class NewsLinkEngine:
    """Index a news corpus against a KG and search it with Equation 3."""

    def __init__(
        self,
        graph: KnowledgeGraph,
        config: EngineConfig | None = None,
        label_index: LabelIndex | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._graph = graph
        self._config = config or EngineConfig()
        # Observability: metrics + tracing bind to an explicit registry,
        # the process-wide default, or (metrics_enabled=False) the shared
        # permanently-off registry, in that order of preference.
        if registry is None:
            registry = (
                get_registry()
                if self._config.metrics_enabled
                else disabled_registry()
            )
        self._obs = EngineInstruments(
            registry, trace_capacity=self._config.trace_capacity
        )
        self._label_index = label_index or LabelIndex(graph)
        self._pipeline = NlpPipeline(
            self._label_index,
            self._config.ner,
            segment_window=self._config.segment_window,
        )
        self._embedder: SegmentEmbedder
        if self._config.use_tree_embedder:
            self._embedder = TreeEmbedder(graph, self._config.tree_emb)
        else:
            self._embedder = LcagEmbedder(graph, self._config.lcag)
        if self._config.disambiguate:
            from repro.nlp.disambiguation import DisambiguatingEmbedder

            self._embedder = DisambiguatingEmbedder(
                graph, self._embedder, self._config.disambiguation_distance
            )
        if self._config.cache_embeddings:
            from repro.core.cache import CachingEmbedder

            self._embedder = CachingEmbedder(
                self._embedder, self._config.cache_size
            )
        # Aggregate G* instrumentation across every embed this engine runs
        # (serial indexing, queries, and merged parallel-worker counters).
        self._search_stats = SearchStats()
        from repro.parallel.executor import sink_target

        base = sink_target(self._embedder)
        if base is not None:
            base.stats_sink = self._search_stats
        self._analyzer = Analyzer()
        self._text_index = InvertedIndex()
        self._node_index = InvertedIndex()
        # Optional corpus-wide BM25 statistics (document-partitioned
        # shard engines score their partial indexes with the whole
        # corpus's statistics so scatter-gather merges bit-identically).
        self._corpus_stats: "tuple | None" = None
        self._rebuild_scorers()
        self._query_stats = QueryStats()
        self._snippet_generator = None
        self._embeddings: dict[str, DocumentEmbedding] = {}
        self._texts: dict[str, str] = {}
        # Keyed (text, graph_version, context_key, gamma): personalized
        # and anonymous variants of the same query text are distinct
        # entries — see _cached_query_state and docs/personalization.md.
        self._query_cache: OrderedDict[
            tuple,
            tuple[ProcessedDocument, DocumentEmbedding, tuple[str, ...]],
        ] = OrderedDict()
        self._last_index_report: "IndexReport | None" = None
        # The mmap-backed bundle the frozen stores view into (None when
        # the engine holds heap structures); see load_index/_thaw_if_frozen.
        self._frozen_bundle = None
        self._last_load_info: dict | None = None
        # The KG version the engine's derived caches (query-embedding
        # LRU, segment cache) were populated under; a mismatch flushes
        # them (see _sync_graph_version).
        self._graph_version_seen = graph.version
        self._obs.bind(self)

    def _rebuild_scorers(self) -> None:
        """(Re)create the scoring stack over the current indexes.

        Shared by construction, :meth:`load_index` and
        :meth:`set_corpus_stats` — anything that swaps the indexes or
        their statistics must rebuild the scorers, the fused ranker, the
        planner and the snippet generator together so they never mix
        state from two index generations.
        """
        text_stats, node_stats = self._corpus_stats or (None, None)
        self._text_scorer = Bm25Scorer(
            self._text_index, self._config.bm25, stats=text_stats
        )
        self._node_scorer = Bm25Scorer(
            self._node_index, self._config.bm25, stats=node_stats
        )
        self._fused_ranker = FusedRanker(
            self._text_scorer,
            self._node_scorer,
            backend=self._config.pruned_backend,
        )
        self._planner = QueryPlanner(self._fused_ranker)
        self._snippet_generator = None

    def set_corpus_stats(self, text_stats, node_stats) -> None:
        """Score this engine's indexes with corpus-wide BM25 statistics.

        ``text_stats`` / ``node_stats`` are
        :class:`repro.search.bm25.CorpusStats` records (or None to drop
        back to index-local statistics).  This is the seam the shard
        planner (:mod:`repro.serving.planner`) uses: a shard engine
        holds one partition of the corpus but must score it with the
        *whole* corpus's document count, document frequencies and
        average length so its per-document scores — and therefore the
        coordinator's merged top-k — are bit-identical to a single
        whole-corpus engine.  Survives :meth:`load_index`.
        """
        self._corpus_stats = (
            None if text_stats is None and node_stats is None
            else (text_stats, node_stats)
        )
        self._rebuild_scorers()

    def precompile(self) -> None:
        """Eagerly build every lazily-compiled, shareable structure.

        Called once in the parent before forking shard workers (the same
        trick the parallel indexer uses for the CSR graph snapshot): the
        compiled graph, both packed posting snapshots, the BM25 norm
        caches and the per-term IDF caches are materialized now, so
        forked children share the frozen pages copy-on-write instead of
        each paying the compile — and then holding a private duplicate.
        """
        self._graph.compiled()
        if self._config.pruned_backend == "compiled":
            self._text_index.compiled()
            self._node_index.compiled()
        for scorer, index in (
            (self._text_scorer, self._text_index),
            (self._node_scorer, self._node_index),
        ):
            scorer.norms()
            for term in index.vocabulary():
                scorer.idf(term)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> KnowledgeGraph:
        """The knowledge graph documents are embedded into."""
        return self._graph

    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def label_index(self) -> LabelIndex:
        """The exact-match label index (``S(l)``)."""
        return self._label_index

    @property
    def pipeline(self) -> NlpPipeline:
        """The NLP component."""
        return self._pipeline

    @property
    def embedder(self) -> SegmentEmbedder:
        """The NE component's segment embedder (full decorator stack)."""
        return self._embedder

    @property
    def analyzer(self) -> Analyzer:
        """The text analyzer both channels' query terms come from."""
        return self._analyzer

    @property
    def text_index(self) -> InvertedIndex:
        """The text-term (BOW channel) inverted index."""
        return self._text_index

    @property
    def node_index(self) -> InvertedIndex:
        """The embedding-node (BON channel) inverted index."""
        return self._node_index

    def indexed_doc_ids(self) -> list[str]:
        """Ids of every indexed document, in insertion order."""
        return list(self._embeddings)

    @property
    def is_frozen(self) -> bool:
        """True while the engine serves from mmap-backed frozen stores."""
        return self._frozen_bundle is not None

    @property
    def last_load_info(self) -> dict | None:
        """Details of the most recent :meth:`load_index` (None before one).

        Keys: ``path``, ``version``, ``mode`` (``"mmap"``/``"heap"``),
        ``bytes``, ``load_seconds``, ``mmap_requested``, ``fallback``
        (None, or the reason mmap was refused).  Surfaced on ``/stats``.
        """
        return self._last_load_info

    @property
    def search_stats(self) -> SearchStats:
        """Aggregate ``G*`` counters across every embed this engine ran.

        Parallel indexing merges the per-worker counters in here, so the
        numbers read the same whether indexing forked or not.
        """
        return self._search_stats

    @property
    def cache_stats(self) -> "CacheStats | None":
        """Segment-cache counters, or None when caching is disabled.

        After a parallel ``index_corpus`` the planner's exact dedup is
        accounted here (duplicates as hits), matching what a perfectly
        sized LRU would have reported on the serial path.
        """
        from repro.core.cache import CachingEmbedder

        if isinstance(self._embedder, CachingEmbedder):
            return self._embedder.stats
        return None

    @property
    def query_stats(self) -> QueryStats:
        """Aggregate query-serving counters across every ranked query.

        Tracks which path served each query (pruned vs exhaustive
        fallback), how many candidate documents were scored vs pruned,
        and how much posting-list work the cursors did — the query-side
        counterpart of :attr:`search_stats`.  ``matching_docs`` is only
        counted on the exhaustive path: not enumerating that set is
        precisely what the pruned path saves.
        """
        return self._query_stats

    @property
    def last_index_report(self) -> "IndexReport | None":
        """Observability record of the most recent parallel-path
        ``index_corpus`` run (None before one happens)."""
        return self._last_index_report

    @property
    def observability(self) -> EngineInstruments:
        """The engine's metric handles + tracer (see :mod:`repro.obs`)."""
        return self._obs

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The registry this engine publishes into."""
        return self._obs.registry

    @property
    def num_indexed(self) -> int:
        """Number of indexed documents."""
        return self._text_index.num_docs

    def embedding(self, doc_id: str) -> DocumentEmbedding:
        """The stored subgraph embedding of ``doc_id``."""
        embedding = self._embeddings.get(doc_id)
        if embedding is None:
            raise DocumentNotIndexedError(doc_id)
        return embedding

    def has_embedding(self, doc_id: str) -> bool:
        """True when ``doc_id`` was indexed with a non-empty embedding."""
        return doc_id in self._embeddings

    def _sync_graph_version(self) -> None:
        """Flush KG-derived caches when the graph has been mutated.

        The query-embedding LRU and the segment-embedding cache both
        hold ``G*`` results computed against a specific graph state; the
        graph's monotonic ``version`` counter detects mutation, and a
        mismatch flushes them so no stale embedding is ever served.
        (Stored *document* embeddings are intentionally untouched:
        re-embedding an indexed corpus is an explicit re-index, not a
        cache concern — see ``docs/observability.md``.)
        """
        version = self._graph.version
        if version == self._graph_version_seen:
            return
        self._graph_version_seen = version
        obs = self._obs
        if self._query_cache:
            self._query_cache.clear()
            if obs.enabled:
                obs.cache_invalidations.inc(cache="query")
        from repro.core.cache import CachingEmbedder

        target = self._embedder
        seen: set[int] = set()
        while target is not None and id(target) not in seen:
            seen.add(id(target))
            if isinstance(target, CachingEmbedder) and target.size:
                target.clear()
                if obs.enabled:
                    obs.cache_invalidations.inc(cache="segment")
            target = getattr(target, "inner", None)

    # ------------------------------------------------------------------
    # index building (§VI)
    # ------------------------------------------------------------------
    def index_document(
        self,
        document: NewsDocument,
        timing: TimingBreakdown | None = None,
    ) -> bool:
        """Process, embed and index one document.

        Returns False (and indexes nothing) when no subgraph embedding can
        be found — the paper filters such documents from the corpus
        (§VII-A2).
        """
        self._sync_graph_version()
        timing = timing or TimingBreakdown()
        obs = self._obs
        with timing.measure("nlp"):
            processed = self._pipeline.process(document.text, document.doc_id)
        with timing.measure("ne"):
            if faults.ACTIVE:
                faults.fire("engine.embed_document")
            embed_start = time.perf_counter() if obs.enabled else 0.0
            embedding = embed_document(processed, self._embedder)
            if obs.enabled:
                obs.embed_seconds.observe(time.perf_counter() - embed_start)
        if embedding.is_empty:
            return False
        with timing.measure("ns"):
            return self.add_embedded_document(
                document.doc_id, document.text, embedding
            )

    def add_embedded_document(
        self, doc_id: str, text: str, embedding: DocumentEmbedding
    ) -> bool:
        """Index a document whose embedding was computed elsewhere.

        This is the NS ingest step on its own: both inverted indexes are
        fed and the embedding/text stored.  Returns False (indexing
        nothing) when the embedding is empty.  Used by the parallel merge
        stage and by deployments that precompute embeddings offline.
        """
        if embedding.is_empty:
            return False
        self._thaw_if_frozen()
        self._text_index.add_document(doc_id, self._analyzer.analyze(text))
        self._node_index.add_document(doc_id, bon_terms(embedding))
        self._embeddings[doc_id] = embedding
        self._texts[doc_id] = text
        return True

    def index_corpus(
        self,
        corpus: Corpus,
        timing: TimingBreakdown | None = None,
        workers: int | None = None,
    ) -> list[str]:
        """Index every document of ``corpus``; returns skipped doc ids.

        ``workers`` (default: ``EngineConfig.workers``) selects the path:
        1 runs the serial reference loop; 0 or >1 runs the dedup-planned
        parallel pipeline (:mod:`repro.parallel`), which produces
        bit-identical indexes while embedding each unique entity group
        exactly once and fanning the ``G*`` searches across processes.
        """
        resolved = self._config.workers if workers is None else workers
        if resolved == 0:
            resolved = os.cpu_count() or 1
        if resolved > 1:
            from repro.parallel import index_corpus_parallel

            report = index_corpus_parallel(
                self, corpus, timing=timing, workers=resolved
            )
            self._last_index_report = report
            return report.skipped
        skipped = []
        for document in corpus:
            if not self.index_document(document, timing=timing):
                skipped.append(document.doc_id)
        return skipped

    # ------------------------------------------------------------------
    # query processing (§VI)
    # ------------------------------------------------------------------
    def process_query(
        self,
        text: str,
        timing: TimingBreakdown | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[ProcessedDocument, DocumentEmbedding]:
        """Run the NLP and NE stages on a query text.

        ``deadline`` bounds the NE stage: expiry — checked before the
        embedding starts, between entity groups, and inside the ``G*``
        search loops — raises
        :class:`~repro.errors.DeadlineExpiredError`.
        """
        self._sync_graph_version()
        timing = timing or TimingBreakdown()
        with timing.measure("nlp"):
            processed = self._pipeline.process(text, "__query__")
        with timing.measure("ne"):
            if faults.ACTIVE:
                faults.fire("engine.embed_query")
            if deadline is not None and deadline.expired():
                raise DeadlineExpiredError(
                    "query embedding abandoned: deadline expired before "
                    "the NE stage"
                )
            embedding = embed_document(
                processed, self._embedder, deadline=deadline
            )
        return processed, embedding

    def _resolve_context(
        self,
        profile: "UserProfile | None",
        session: "Session | None",
        gamma: float | None,
    ) -> _QueryContext | None:
        """Fold profile/session into a :class:`_QueryContext` (or None).

        ``gamma`` defaults to the configured ``fusion.gamma``.  Returns
        None — the anonymous context, bit-identical to two-channel
        ranking — when no state is supplied, the effective gamma is 0,
        or the supplied state contributes no terms (e.g. a profile with
        no clicks yet).
        """
        if gamma is None:
            gamma = self._config.fusion.gamma
        elif not 0.0 <= gamma <= 1.0:
            raise DataError(f"gamma must lie in [0, 1], got {gamma!r}")
        if gamma <= 0.0 or (profile is None and session is None):
            return None
        key: list[tuple[str, str, int]] = []
        terms: list[str] = []
        if profile is not None:
            key.append(("p", profile.profile_id, profile.revision))
            terms.extend(profile.bon_terms())
        if session is not None:
            key.append(("s", session.session_id, session.revision))
            terms.extend(session.bon_terms())
        if not terms:
            return None
        return _QueryContext(tuple(key), tuple(terms), gamma)

    def query_state(
        self,
        text: str,
        timing: TimingBreakdown | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[ProcessedDocument, DocumentEmbedding]:
        """Public alias of :meth:`_query_state` (same LRU, same deadline
        contract).  The scatter-gather coordinator runs the NLP and NE
        stages exactly once per logical query through here and ships only
        the resulting term lists to the shards."""
        return self._query_state(text, timing=timing, deadline=deadline)

    def contextual_query_state(
        self,
        text: str,
        profile: "UserProfile | None" = None,
        session: "Session | None" = None,
        gamma: float | None = None,
        timing: TimingBreakdown | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[ProcessedDocument, DocumentEmbedding, tuple[str, ...], float]:
        """:meth:`query_state` plus the resolved context channel.

        Returns ``(processed, embedding, context_terms, gamma)`` where
        ``context_terms``/``gamma`` are ``()``/``0.0`` for anonymous
        queries.  This is what the scatter-gather coordinator calls on
        its document-free frontend: the context terms ship to the shards
        alongside the query term lists, so shard workers stay stateless.
        """
        context = self._resolve_context(profile, session, gamma)
        processed, embedding, ctx_terms = self._cached_query_state(
            text, timing, deadline, context
        )
        return (
            processed,
            embedding,
            ctx_terms,
            context.gamma if context is not None else 0.0,
        )

    def _query_state(
        self,
        text: str,
        timing: TimingBreakdown | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[ProcessedDocument, DocumentEmbedding]:
        """Anonymous :meth:`_cached_query_state` (the common case)."""
        processed, embedding, _ = self._cached_query_state(
            text, timing, deadline, None
        )
        return processed, embedding

    def _cached_query_state(
        self,
        text: str,
        timing: TimingBreakdown | None,
        deadline: Deadline | None,
        context: _QueryContext | None,
    ) -> tuple[ProcessedDocument, DocumentEmbedding, tuple[str, ...]]:
        """:meth:`process_query` behind a small LRU.

        Queries depend only on the pipeline and graph — never on the
        index contents — so entries are invalidated exactly when the
        graph mutates (:meth:`_sync_graph_version` flushes the LRU on a
        ``KnowledgeGraph.version`` change).  ``search`` followed by k
        ``explain*`` calls for the same query costs one embedding.  On a
        hit, zero-duration nlp/ne entries keep timing breakdowns shaped
        the same as on a miss.

        **Cache-key contract:** entries are keyed on
        ``(text, graph_version, context_key, gamma)`` — never on text
        alone.  The cached value includes the context terms the ranking
        consumes, so a personalized entry served for an anonymous query
        (or vice versa, or across profile/session revisions) would leak
        one user's ranking state into another's results; the full key
        makes such cross-contamination structurally impossible.  The
        graph version is part of the key as defense in depth even though
        a version change also flushes the LRU wholesale.  Capacity
        evictions are counted under
        ``newslink_cache_invalidations_total{cache="query"}``.
        Regression-tested in ``tests/search/test_stale_cache.py``.

        **Deadline contract:** a cache hit deliberately never consults
        ``deadline``.  The budget exists to bound the *expensive* NE
        stage; the cached path costs one dict lookup, so serving full
        (non-degraded) results is strictly better than degrading — even
        when the deadline is already expired on entry.  Tested in
        ``tests/search/test_deadline_cache_contract.py``.
        """
        self._sync_graph_version()
        obs = self._obs
        limit = self._config.query_cache_size
        if context is None:
            key = (text, self._graph_version_seen, None, 0.0)
        else:
            key = (text, self._graph_version_seen, context.key, context.gamma)
        if limit:
            state = self._query_cache.get(key)
            if state is not None:
                self._query_cache.move_to_end(key)
                if timing is not None:
                    timing.add("nlp", 0.0)
                    timing.add("ne", 0.0)
                if obs.enabled:
                    obs.query_cache_lookups.inc(result="hit")
                    span = obs.tracer.current
                    if span is not None:
                        span.annotate("query_cache", "hit")
                return state
        if obs.enabled and limit:
            obs.query_cache_lookups.inc(result="miss")
            span = obs.tracer.current
            if span is not None:
                span.annotate("query_cache", "miss")
        if deadline is None:
            processed, embedding = self.process_query(text, timing=timing)
        else:
            processed, embedding = self.process_query(
                text, timing=timing, deadline=deadline
            )
        state = (
            processed,
            embedding,
            context.terms if context is not None else (),
        )
        if limit:
            self._query_cache[key] = state
            if len(self._query_cache) > limit:
                self._query_cache.popitem(last=False)
                if obs.enabled:
                    obs.cache_invalidations.inc(cache="query")
        return state

    def search(
        self,
        text: str,
        k: int = 10,
        timing: TimingBreakdown | None = None,
        beta: float | None = None,
        ranking: str | None = None,
        deadline_ms: float | None = None,
        profile: "UserProfile | None" = None,
        session: "Session | None" = None,
        gamma: float | None = None,
        advance_session: bool = False,
    ) -> list[SearchResult]:
        """Top-``k`` search with Equation 3 fusion.

        ``beta`` overrides the configured fusion weight for this query,
        which lets the Table VII sweep reuse one indexed engine;
        ``ranking`` likewise overrides :attr:`EngineConfig.ranking`
        (``"pruned"`` / ``"exhaustive"``) per query, which is how the
        differential tests and the latency benchmark compare both paths
        on a single index.

        ``profile`` / ``session`` supply personalization context
        (:mod:`repro.personalize`): their subgraph nodes are blended as
        Equation 3's third channel, weighted by ``gamma`` (default
        ``fusion.gamma``).  With ``gamma=0`` or no context the result is
        bit-identical to the anonymous two-channel ranking.
        ``advance_session=True`` additionally folds this query's
        embedding into ``session`` after ranking (conversational
        re-anchoring) — skipped when the query degrades, since no
        embedding was computed.

        ``deadline_ms`` bounds the whole query (overriding
        :attr:`EngineConfig.deadline_ms` for this call).  When the
        budget expires during query embedding the engine degrades
        instead of failing: the embedding is abandoned, ranking falls
        back to the text (BOW) channel alone, and every returned result
        carries ``degraded=True`` plus the reason.  An expired deadline
        never raises out of this method.  A query-embedding cache hit
        intentionally bypasses the deadline check entirely — the cached
        path is cheap, so an already-expired budget still returns full
        non-degraded results (see :meth:`_query_state`).

        When metrics are enabled the whole call runs under a ``query``
        span (stages nlp/ne/ns, cache and serving-path attributes) and
        publishes per-stage latency histograms; when disabled the cost
        is a single branch.
        """
        timing = timing or TimingBreakdown()
        obs = self._obs
        if not obs.enabled:
            return self._search_impl(
                text, k, timing, beta, ranking, deadline_ms,
                profile, session, gamma, advance_session,
            )
        stage_totals_before = dict(timing.totals)
        start = time.perf_counter()
        with obs.tracer.span("query", query=text, k=k) as span:
            previous_span = timing.span
            if span:
                timing.span = span
            try:
                results = self._search_impl(
                    text, k, timing, beta, ranking, deadline_ms,
                    profile, session, gamma, advance_session,
                )
            finally:
                timing.span = previous_span
            if span:
                span.annotate("results", len(results))
                if results and results[0].degraded:
                    span.annotate("degraded_reason", results[0].degraded_reason)
        duration = time.perf_counter() - start
        obs.query_latency.observe(duration, stage="total")
        for component in ("nlp", "ne", "ns"):
            delta = timing.totals.get(component, 0.0) - stage_totals_before.get(
                component, 0.0
            )
            obs.query_latency.observe(delta, stage=component)
        return results

    def _search_impl(
        self,
        text: str,
        k: int,
        timing: TimingBreakdown,
        beta: float | None,
        ranking: str | None,
        deadline_ms: float | None,
        profile: "UserProfile | None" = None,
        session: "Session | None" = None,
        gamma: float | None = None,
        advance_session: bool = False,
    ) -> list[SearchResult]:
        """The uninstrumented serving path (see :meth:`search`)."""
        context = self._resolve_context(profile, session, gamma)
        ctx_gamma = context.gamma if context is not None else None
        budget = self._config.deadline_ms if deadline_ms is None else deadline_ms
        if budget is None:
            _, query_embedding, ctx_terms = self._cached_query_state(
                text, timing, None, context
            )
        else:
            deadline = Deadline(budget)
            try:
                _, query_embedding, ctx_terms = self._cached_query_state(
                    text, timing, deadline, context
                )
            except DeadlineExpiredError as exc:
                # Degradation drops the context channel along with BON:
                # both need the embedding work the deadline just denied.
                return self._search_degraded(text, k, timing, ranking, str(exc))
        with timing.measure("ns"):
            results = self._rank(
                text,
                query_embedding,
                k,
                beta,
                ranking,
                profile_terms=ctx_terms,
                gamma=ctx_gamma,
            )
        if advance_session and session is not None:
            session.advance(text, query_embedding)
        return results

    def _search_degraded(
        self,
        text: str,
        k: int,
        timing: TimingBreakdown,
        ranking: str | None,
        reason: str,
    ) -> list[SearchResult]:
        """Deadline fallback: rank on the text channel only, flag results.

        The node channel needs the query embedding that just timed out,
        so fusion runs with ``beta=0.0`` (pure BOW) regardless of the
        configured weight — degraded results always come from the cheap
        channel.  Degradations are counted in :attr:`query_stats`.
        """
        empty = DocumentEmbedding(doc_id="__query__", graphs=(), node_counts={})
        with timing.measure("ns"):
            results = self._rank(text, empty, k, 0.0, ranking)
        self._query_stats.merge(QueryStats(degraded_queries=1))
        self._annotate_path("degraded")
        return [
            replace(result, degraded=True, degraded_reason=reason)
            for result in results
        ]

    def _annotate_path(self, path: str) -> None:
        """Tag the active query span with the serving path taken."""
        obs = self._obs
        if obs.enabled:
            span = obs.tracer.current
            if span is not None:
                span.annotate("path", path)

    def search_with_embedding(
        self,
        text: str,
        query_embedding: DocumentEmbedding,
        k: int = 10,
        beta: float | None = None,
        ranking: str | None = None,
    ) -> list[SearchResult]:
        """Rank with a precomputed query embedding (used by benchmarks)."""
        return self._rank(text, query_embedding, k, beta, ranking)

    def _rank(
        self,
        text: str,
        query_embedding: DocumentEmbedding,
        k: int,
        beta: float | None = None,
        ranking: str | None = None,
        profile_terms: Sequence[str] = (),
        gamma: float | None = None,
    ) -> list[SearchResult]:
        fusion = self._config.fusion
        if beta is not None and beta != fusion.beta:
            fusion = replace(fusion, beta=beta)
        beta = fusion.beta
        bow_query = self._analyzer.analyze(text) if beta < 1.0 else []
        bon_query = (
            bon_terms(query_embedding)
            if beta > 0.0 and not query_embedding.is_empty
            else []
        )
        return self.rank_terms(
            bow_query,
            bon_query,
            k,
            beta=beta,
            ranking=ranking,
            profile_terms=profile_terms,
            gamma=gamma,
        )

    def rank_terms(
        self,
        bow_query: Sequence[str],
        bon_query: Sequence[str],
        k: int,
        beta: float | None = None,
        ranking: str | None = None,
        profile_terms: Sequence[str] | None = None,
        gamma: float | None = None,
    ) -> list[SearchResult]:
        """Rank from already-analyzed query terms (the NS stage alone).

        ``bow_query`` are analyzed text terms, ``bon_query`` the node
        terms of the query's subgraph embedding (``bon_terms``);
        ``profile_terms`` are optional personalization/session context
        nodes weighted by ``gamma``.  This is the entry point shard
        workers serve: the coordinator runs the NLP and NE stages once
        and scatters the term lists (context included — shards hold no
        per-user state), so every shard ranks without re-embedding the
        query.  Produces exactly what :meth:`search` produces for the
        same terms — the planner, pruned and exhaustive paths all flow
        through here.
        """
        fusion = self._config.fusion
        if beta is not None and beta != fusion.beta:
            fusion = replace(fusion, beta=beta)
        if gamma is not None:
            if not 0.0 <= gamma <= 1.0:
                raise DataError(f"gamma must lie in [0, 1], got {gamma!r}")
            if gamma != fusion.gamma:
                fusion = replace(fusion, gamma=gamma)
        beta = fusion.beta
        if ranking is None:
            ranking = self._config.ranking
        elif ranking not in ("auto", "pruned", "exhaustive"):
            raise DataError(
                f"ranking must be 'auto', 'pruned' or 'exhaustive', got {ranking!r}"
            )
        bow_query = list(bow_query) if beta < 1.0 else []
        bon_query = list(bon_query) if beta > 0.0 else []
        profile_query = (
            list(profile_terms)
            if profile_terms and fusion.gamma > 0.0
            else []
        )
        if profile_query:
            self._query_stats.merge(QueryStats(personalized_queries=1))
            self._annotate_path_attr("personalized", len(profile_query))
        if ranking != "exhaustive" and supports_pruned_ranking(fusion):
            if ranking == "auto":
                decision = self._planner.plan(
                    bow_query, bon_query, k, fusion, profile_terms=profile_query
                )
                self._query_stats.merge(
                    QueryStats(
                        planner_pruned=int(decision.path == "pruned"),
                        planner_exhaustive=int(decision.path == "exhaustive"),
                    )
                )
                self._annotate_planner(decision)
                if decision.path == "exhaustive":
                    return self._rank_exhaustive(
                        bow_query, bon_query, profile_query, k, fusion
                    )
            return self._rank_pruned(
                bow_query, bon_query, profile_query, k, fusion
            )
        return self._rank_exhaustive(
            bow_query, bon_query, profile_query, k, fusion
        )

    def _annotate_path_attr(self, name: str, value) -> None:
        """Tag the active query span with an arbitrary attribute."""
        obs = self._obs
        if obs.enabled:
            span = obs.tracer.current
            if span is not None:
                span.annotate(name, value)

    def _annotate_planner(self, decision) -> None:
        """Tag the active query span with the planner's cost estimate."""
        obs = self._obs
        if obs.enabled:
            span = obs.tracer.current
            if span is not None:
                span.annotate("planner", decision.as_dict())

    def _rank_pruned(
        self,
        bow_query: list[str],
        bon_query: list[str],
        profile_query: list[str],
        k: int,
        fusion,
    ) -> list[SearchResult]:
        """The dynamic-pruning fast path (identical results, less work)."""
        hits, stats = self._fused_ranker.top_k(
            bow_query, bon_query, k, fusion, profile_terms=profile_query
        )
        self._query_stats.merge(stats)
        self._annotate_path("pruned")
        return [
            SearchResult(
                doc_id=hit.doc_id,
                score=hit.score,
                bow_score=hit.bow_score,
                bon_score=hit.bon_score,
                profile_score=hit.profile_score,
            )
            for hit in hits
        ]

    def _rank_exhaustive(
        self,
        bow_query: list[str],
        bon_query: list[str],
        profile_query: list[str],
        k: int,
        fusion,
    ) -> list[SearchResult]:
        """The reference path: full score maps on both channels, then fuse.

        Required whenever the complete fused map is needed — per-query
        max-normalization (``fusion.normalize``) or callers that want
        every matching document's score.  The term lists arrive already
        gated by beta/gamma (:meth:`rank_terms` empties unused channels).
        """
        beta = fusion.beta
        bow_scores: dict[str, float] = {}
        bon_scores: dict[str, float] = {}
        profile_scores: dict[str, float] = {}
        if beta < 1.0:
            bow_scores = self._text_scorer.score(bow_query)
        if beta > 0.0 and bon_query:
            bon_scores = self._node_scorer.score(bon_query)
        if fusion.gamma > 0.0 and profile_query:
            profile_scores = self._node_scorer.score(profile_query)
        fused = fuse_scores(
            bow_scores, bon_scores, fusion, profile_scores=profile_scores
        )
        ranked = top_k(fused, k)
        self._query_stats.merge(
            QueryStats(
                queries=1,
                fallback_queries=1,
                matching_docs=len(fused),
                candidates_examined=len(fused),
            )
        )
        self._annotate_path("exhaustive")
        return [
            SearchResult(
                doc_id=doc_id,
                score=score,
                bow_score=bow_scores.get(doc_id, 0.0),
                bon_score=bon_scores.get(doc_id, 0.0),
                profile_score=profile_scores.get(doc_id, 0.0),
            )
            for doc_id, score in ranked
        ]

    # ------------------------------------------------------------------
    # maintenance & persistence
    # ------------------------------------------------------------------
    def remove_document(self, doc_id: str) -> None:
        """Remove an indexed document from both indexes."""
        if doc_id not in self._embeddings:
            raise DocumentNotIndexedError(doc_id)
        self._thaw_if_frozen()
        self._text_index.remove_document(doc_id)
        self._node_index.remove_document(doc_id)
        del self._embeddings[doc_id]
        self._texts.pop(doc_id, None)

    def document_text(self, doc_id: str) -> str:
        """The stored raw text of an indexed document."""
        text = self._texts.get(doc_id)
        if text is None:
            raise DocumentNotIndexedError(doc_id)
        return text

    def snippet(self, query_text: str, doc_id: str) -> "Snippet":
        """A query-biased, highlighted snippet of an indexed document."""
        return self.snippets(query_text, [doc_id])[0]

    def snippets(
        self, query_text: str, doc_ids: Sequence[str]
    ) -> "list[Snippet]":
        """One snippet per entry of ``doc_ids``, in order (a reply's
        hits): the query is analyzed once for all of them."""
        if self._snippet_generator is None:
            from repro.search.snippets import SnippetGenerator

            self._snippet_generator = SnippetGenerator(
                self._analyzer, self._text_scorer
            )
        generator = self._snippet_generator
        query_terms = generator.query_terms(query_text)
        return [
            generator.extract(self.document_text(doc_id), query_terms)
            for doc_id in doc_ids
        ]

    def save_index(self, path: "str | Path", format: str | None = None) -> None:
        """Persist both inverted indexes and all document embeddings.

        Embedding a corpus dominates indexing cost (Fig 7); saving lets a
        deployment reload in seconds.  The knowledge graph itself is not
        stored — load with the same graph (persist it separately with
        :func:`repro.kg.io.save_graph_json`).

        ``format`` selects the on-disk layout (default:
        :attr:`EngineConfig.index_format`).  ``"v3"`` writes the
        zero-copy binary container — delta-encoded packed postings,
        embedding/text arenas, per-section CRC32s — that
        :meth:`load_index` can mmap directly
        (:mod:`repro.search.storage`); ``"v2"`` streams the JSON format
        one embedding at a time.  Both are deterministic: saving the
        same state twice produces byte-identical files.  A path ending
        in ``.gz`` is gzipped transparently with a zeroed timestamp.

        The write is crash-safe regardless of format: the payload goes
        to a temporary file in the same directory, is fsynced, and is
        atomically renamed over ``path`` — a crash at any point leaves
        the previous index byte-identical and loadable, never a
        half-written file under the final name.
        """
        path = Path(path)
        resolved = format or self._config.index_format
        if resolved not in ("v2", "v3"):
            raise DataError(
                f"index format must be 'v2' or 'v3', got {resolved!r}"
            )
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as raw:
                if faults.ACTIVE:
                    faults.fire("persist.write")
                if resolved == "v3":
                    payload = self._container_bytes()
                    if path.suffix == ".gz":
                        with gzip.GzipFile(
                            filename="", mode="wb", fileobj=raw, mtime=0
                        ) as binary:
                            binary.write(payload)
                    else:
                        raw.write(payload)
                elif path.suffix == ".gz":
                    with gzip.GzipFile(
                        filename="", mode="wb", fileobj=raw, mtime=0
                    ) as binary, io.TextIOWrapper(
                        binary, encoding="utf-8"
                    ) as fh:
                        self._write_index(fh)
                else:
                    fh = io.TextIOWrapper(raw, encoding="utf-8")
                    self._write_index(fh)
                    fh.flush()
                    fh.detach()
                raw.flush()
                os.fsync(raw.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self._fsync_directory(path.parent)

    def _container_bytes(self) -> bytes:
        """The engine's persistence state as v3 container bytes."""
        from repro.search.storage import build_index_container

        return build_index_container(
            self._text_index,
            self._node_index,
            self._embeddings,
            self._texts,
            list(self._embeddings),
        )

    @staticmethod
    def _fsync_directory(directory: Path) -> None:
        """Make the rename durable (best-effort on platforms without
        directory fds)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform dependent
            pass
        finally:
            os.close(fd)

    def _write_index(self, fh) -> None:
        """Stream the index payload as JSON, then a checksum trailer.

        The payload is a single JSON document with no raw newlines; the
        trailer is one final newline-prefixed line recording the CRC32
        of the payload's UTF-8 bytes, so :meth:`load_index` can split
        payload from trailer with a single ``rpartition``.
        """
        from repro.core.serialization import embedding_to_dict

        writer = _Crc32Writer(fh)
        # "sorted_docs" marks both forward maps as written in ascending
        # doc-id order, so load_index can seed the per-term sorted
        # posting lists (and from them the compiled snapshot) without
        # ever re-sorting — see InvertedIndex.load_documents_sorted.
        writer.write(
            '{"format": "newslink-index", "version": 2, '
            '"sorted_docs": true, "text_index": '
        )
        json.dump(self._sorted_forward_map(self._text_index), writer)
        writer.write(', "node_index": ')
        json.dump(self._sorted_forward_map(self._node_index), writer)
        writer.write(', "texts": ')
        # A frozen (mmap-backed) engine stores texts in a packed arena;
        # materialize a plain dict (insertion order preserved) for JSON.
        texts = (
            self._texts
            if isinstance(self._texts, dict)
            else dict(self._texts)
        )
        json.dump(texts, writer)
        writer.write(', "embeddings": [')
        for position, embedding in enumerate(self._embeddings.values()):
            if position:
                writer.write(", ")
            json.dump(embedding_to_dict(embedding), writer)
        writer.write("]}")
        fh.write(
            "\n" + json.dumps(
                {"trailer": "newslink-crc32", "crc32": writer.crc}
            )
        )

    @staticmethod
    def _sorted_forward_map(index: InvertedIndex) -> dict[str, dict[str, int]]:
        """The index's forward map, doc ids and per-doc terms ascending.

        Sorting both levels makes the v2 payload canonical: the bytes
        depend only on the logical index contents, so a heap engine and
        a frozen (v3-loaded) engine holding the same documents save
        byte-identical v2 files.
        """
        forward = index.to_forward_map()
        return {
            doc_id: dict(sorted(forward[doc_id].items()))
            for doc_id in sorted(forward)
        }

    def load_index(self, path: "str | Path", mmap: bool | None = None) -> int:
        """Load an index written by :meth:`save_index`; returns doc count.

        Existing index contents are replaced.  The format is detected by
        magic bytes — v3 binary containers, gzip archives (of either
        format) and legacy v1/v2 JSON all load back regardless of
        suffix.

        ``mmap`` (default: :attr:`EngineConfig.mmap`) selects the v3
        load mode.  True maps the file with ``mmap.mmap`` and installs
        zero-copy frozen stores — no per-posting Python objects are
        built; terms decode lazily on first query touch, and forked
        shard workers share the mapped pages copy-on-write.  False (or
        any non-v3 file) hydrates heap structures.  A gzip archive
        cannot be mapped: with ``mmap=True`` it falls back to the heap
        loader with a logged warning, counted by
        ``newslink_index_load_fallback_total{reason="gzip"}`` (legacy
        JSON files are likewise counted under ``reason="legacy_format"``).

        The load is transactional either way: every CRC (the v2 trailer,
        or all v3 section checksums) is verified and fresh structures
        built *before* any engine state is touched, so a corrupt file
        (raising :class:`~repro.errors.IndexCorruptError` naming the
        failing section) leaves the live index fully intact.  Version-1
        files (no trailer) still load, without checksum verification.
        """
        from repro.search import storage

        path = Path(path)
        if faults.ACTIVE:
            faults.fire("persist.load")
        use_mmap = self._config.mmap if mmap is None else mmap
        started = time.perf_counter()
        fallback: str | None = None
        mode = "heap"
        try:
            size = os.path.getsize(path)
            with open(path, "rb") as probe:
                head = probe.read(len(storage.MAGIC))
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise IndexCorruptError(path, f"unreadable: {exc}") from exc
        if head == storage.MAGIC:
            version = 3
            if use_mmap:
                with open(path, "rb") as fh:
                    mapped = mmap_module.mmap(
                        fh.fileno(), 0, access=mmap_module.ACCESS_READ
                    )
                try:
                    bundle = storage.FrozenIndexBundle(path, mapped, mapped)
                except BaseException:
                    try:
                        mapped.close()
                    except BufferError:
                        # Traceback frames still export memoryviews over
                        # the map; it closes when the exception is
                        # collected.
                        pass
                    raise
                self._install_frozen_bundle(bundle)
                mode = "mmap"
            else:
                bundle = storage.FrozenIndexBundle(path, path.read_bytes())
                self._install_heap_from_bundle(path, bundle)
        elif head[:2] == b"\x1f\x8b":
            try:
                with gzip.open(path, "rb") as fh:
                    data = fh.read()
            except (OSError, EOFError, ValueError, zlib.error) as exc:
                raise IndexCorruptError(
                    path, f"unreadable: {exc}"
                ) from exc
            if use_mmap:
                fallback = "gzip"
                _logger.warning(
                    "index %s is gzip-compressed and cannot be memory-"
                    "mapped; falling back to the heap loader "
                    "(save uncompressed v3 to enable mmap)",
                    path,
                )
            if data[: len(storage.MAGIC)] == storage.MAGIC:
                version = 3
                bundle = storage.FrozenIndexBundle(path, data)
                self._install_heap_from_bundle(path, bundle)
            else:
                try:
                    text = data.decode("utf-8")
                except ValueError as exc:
                    raise IndexCorruptError(
                        path, f"unreadable: {exc}"
                    ) from exc
                version = self._load_legacy(path, text)
        else:
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, ValueError) as exc:
                raise IndexCorruptError(path, f"unreadable: {exc}") from exc
            version = self._load_legacy(path, text)
            if use_mmap:
                fallback = "legacy_format"
        duration = time.perf_counter() - started
        self._last_load_info = {
            "path": str(path),
            "version": version,
            "mode": mode,
            "bytes": size,
            "load_seconds": duration,
            "mmap_requested": bool(use_mmap),
            "fallback": fallback,
        }
        obs = self._obs
        if obs.enabled:
            obs.index_load_seconds.set(duration, mode=mode)
            obs.index_bytes.set(float(size))
            if fallback is not None:
                obs.index_load_fallbacks.inc(reason=fallback)
        return self.num_indexed

    def _install_frozen_bundle(self, bundle) -> None:
        """Swap the engine onto a validated frozen (mmap-backed) bundle."""
        self._text_index = bundle.text_index
        self._node_index = bundle.node_index
        self._embeddings = bundle.embeddings
        self._texts = bundle.texts
        self._frozen_bundle = bundle
        self._rebuild_scorers()

    def _heap_state_from_bundle(self, path, bundle):
        """Hydrate heap structures from a v3 bundle (transactionally)."""
        try:
            text_index = InvertedIndex()
            text_index.load_documents_sorted(
                bundle.text_index.to_forward_map().items()
            )
            node_index = InvertedIndex()
            node_index.load_documents_sorted(
                bundle.node_index.to_forward_map().items()
            )
            embeddings = dict(bundle.embeddings)
            texts = dict(bundle.texts)
        except (DataError, KeyError, TypeError, ValueError) as exc:
            raise IndexCorruptError(
                path, f"malformed v3 payload: {exc!r}"
            ) from exc
        return text_index, node_index, embeddings, texts

    def _install_heap_from_bundle(self, path, bundle) -> None:
        text_index, node_index, embeddings, texts = (
            self._heap_state_from_bundle(path, bundle)
        )
        self._text_index = text_index
        self._node_index = node_index
        self._embeddings = embeddings
        self._texts = texts
        self._frozen_bundle = None
        self._rebuild_scorers()
        if self._config.pruned_backend == "compiled":
            self._text_index.compiled()
            self._node_index.compiled()

    def _thaw_if_frozen(self) -> None:
        """Convert frozen (mmap-backed) stores to mutable heap state.

        Mutation entry points call this first: the packed layout is
        immutable by design, so an add/remove on a frozen engine pays a
        one-time full hydration (decode every posting, embedding and
        text) and proceeds on ordinary heap structures — the mmap
        buffer is then released.  Searches before and after a thaw are
        bit-identical (tests/search/test_v3_format.py).
        """
        bundle = self._frozen_bundle
        if bundle is None:
            return
        self._install_heap_from_bundle("<frozen>", bundle)

    def _load_legacy(self, path: Path, text: str) -> int:
        """Parse + install a v1/v2 JSON index; returns the version."""
        from repro.core.serialization import embedding_from_dict

        payload_text, newline, trailer_text = text.rpartition("\n")
        if newline:
            # Version >= 2: the final line is the checksum trailer.
            try:
                trailer = json.loads(trailer_text)
                expected = trailer["crc32"]
            except (json.JSONDecodeError, TypeError, KeyError) as exc:
                raise IndexCorruptError(
                    path,
                    f"malformed checksum trailer: {trailer_text[:80]!r}",
                ) from exc
            actual = zlib.crc32(payload_text.encode("utf-8"))
            if actual != expected:
                raise IndexCorruptError(
                    path,
                    f"checksum mismatch: stored {expected!r}, "
                    f"computed {actual}",
                )
        else:
            # Version 1 wrote no trailer (and no newlines at all).
            payload_text = text
        try:
            payload = json.loads(payload_text)
        except json.JSONDecodeError as exc:
            raise IndexCorruptError(path, f"invalid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != (
            "newslink-index"
        ):
            raise IndexCorruptError(path, "not a NewsLink index file")
        version = payload.get("version")
        if version not in (1, 2):
            raise IndexCorruptError(
                path, f"unsupported index version {version!r}"
            )
        # Build into fresh structures first; the live engine is swapped
        # only after the whole file parsed and validated.
        text_index = InvertedIndex()
        node_index = InvertedIndex()
        embeddings: dict[str, DocumentEmbedding] = {}
        section = "texts"
        try:
            texts = {
                doc_id: str(doc_text)
                for doc_id, doc_text in payload.get("texts", {}).items()
            }
            sorted_docs = bool(payload.get("sorted_docs"))
            section = "text_index"
            if sorted_docs:
                # Fast path: documents were written in ascending doc-id
                # order, so posting lists ingest pre-sorted and the
                # compiled snapshot builds without any re-sorting.
                text_index.load_documents_sorted(
                    payload["text_index"].items()
                )
            else:
                for doc_id, counts in payload["text_index"].items():
                    text_index.add_document_counts(doc_id, counts)
            section = "node_index"
            if sorted_docs:
                node_index.load_documents_sorted(
                    payload["node_index"].items()
                )
            else:
                for doc_id, counts in payload["node_index"].items():
                    node_index.add_document_counts(doc_id, counts)
            section = "embeddings"
            for raw in payload["embeddings"]:
                embedding = embedding_from_dict(raw)
                embeddings[embedding.doc_id] = embedding
        except (DataError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise IndexCorruptError(
                path, f"invalid {section!r} section: {exc!r}"
            ) from exc
        self._text_index = text_index
        self._node_index = node_index
        self._rebuild_scorers()
        self._embeddings = embeddings
        self._texts = texts
        self._frozen_bundle = None
        if sorted_docs and self._config.pruned_backend == "compiled":
            # Eagerly rebuild the packed snapshots from the pre-sorted
            # posting lists so the first query after a load doesn't pay
            # the compile.
            self._text_index.compiled()
            self._node_index.compiled()
        return version

    # ------------------------------------------------------------------
    # explanations (Tables II & VI)
    # ------------------------------------------------------------------
    def explain(
        self,
        query_text: str,
        result_doc_id: str,
        max_paths: int = 10,
        query_embedding: DocumentEmbedding | None = None,
    ) -> list[RelationshipPath]:
        """Relationship paths linking the query to a retrieved document.

        ``query_embedding`` short-circuits the query NLP+NE stages when
        the caller already holds it; otherwise the query LRU shared with
        :meth:`search` makes explaining a just-searched query free.
        """
        if query_embedding is None:
            _, query_embedding = self._query_state(query_text)
        result_embedding = self.embedding(result_doc_id)
        return explain_pair(query_embedding, result_embedding, max_paths=max_paths)

    def explanation(
        self,
        query_text: str,
        result_doc_id: str,
        options: "ExplanationOptions | None" = None,
        query_embedding: DocumentEmbedding | None = None,
    ) -> "Explanation":
        """A presentable explanation (novelty-ranked, overload-budgeted).

        Implements the presentation improvements the paper's user-study
        feedback motivates (§VII-D); see :mod:`repro.core.presentation`.
        """
        from repro.core.presentation import ExplanationPresenter

        if query_embedding is None:
            _, query_embedding = self._query_state(query_text)
        result_embedding = self.embedding(result_doc_id)
        presenter = ExplanationPresenter(self._graph)
        return presenter.build(query_embedding, result_embedding, options)

    def explain_verbalized(
        self,
        query_text: str,
        result_doc_id: str,
        max_paths: int = 10,
        query_embedding: DocumentEmbedding | None = None,
    ) -> list[str]:
        """Human-readable rendering of :meth:`explain`.

        Entities mentioned in both the query and the result (the trivial
        keyword evidence, Table I's "matched entities") are listed first,
        followed by the relationship paths linking the *unmatched* ones.
        """
        if query_embedding is None:
            _, query_embedding = self._query_state(query_text)
        result_embedding = self.embedding(result_doc_id)
        shared = sorted(
            query_embedding.entity_nodes() & result_embedding.entity_nodes()
        )
        lines = [
            f"{self._graph.node(node_id).label} (mentioned by both)"
            for node_id in shared
        ]
        paths = explain_pair(query_embedding, result_embedding, max_paths=max_paths)
        lines.extend(verbalize_path(path, self._graph) for path in paths)
        return lines
