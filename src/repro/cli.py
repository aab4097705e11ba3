"""Command-line interface.

Subcommands::

    repro generate DIR [--dataset cnn|kaggle] [--scale S] — synthesize a
        dataset: knowledge graph (kg.json) + corpus (corpus.jsonl)
    repro index DIR [--tree] [--beta B]                   — build and save
        the NewsLink index (index.json) for a generated dataset
    repro search DIR QUERY [-k N] [--beta B] [--ranking M] [--explain]
                 [--deadline-ms MS] [--stats]             — query an
        indexed dataset and optionally print relationship paths and the
        query's metrics/trace summary
    repro evaluate DIR [-k N]                             — quick Lucene
        vs NewsLink comparison on the dataset's test split
    repro ingest DIR [--rounds N] [--sources rss,social,filings]
                 [--state-dir D]                          — stream
        simulated feeds through the durable ingestion pipeline (WAL +
        checkpoints under the state dir; rerunning resumes where the
        previous run — clean or crashed — left off)
    repro serve DIR [--ingest] [--profiles]               — serve over
        HTTP; with --ingest, feeds stream into the live engine while
        queries serve (freshness and breaker health on /stats); with
        --profiles, /click and /search?user= maintain per-user
        click-history profiles (single-engine serving only)

Run ``python -m repro <subcommand> --help`` for details.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import EngineConfig, FusionConfig
from repro.data.datasets import cnn_like_config, kaggle_like_config, make_dataset
from repro.data.loaders import load_corpus_jsonl, save_corpus_jsonl
from repro.kg.io import load_graph_json, save_graph_json
from repro.search.engine import NewsLinkEngine

_KG_FILE = "kg.json"
_CORPUS_FILE = "corpus.jsonl"
_INDEX_FILE_V3 = "index.nlx"
_INDEX_FILE_V2 = "index.json"
#: Load-time probe order: v3 binary first (the default the index
#: command writes), then legacy JSON, then the gzipped variants.
_INDEX_CANDIDATES = (
    _INDEX_FILE_V3,
    _INDEX_FILE_V2,
    _INDEX_FILE_V3 + ".gz",
    _INDEX_FILE_V2 + ".gz",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NewsLink reproduction: KG-powered explainable news search",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="synthesize a dataset (KG + news corpus)"
    )
    generate.add_argument("directory", type=Path)
    generate.add_argument(
        "--dataset", choices=("cnn", "kaggle"), default="cnn",
        help="which canned configuration to use",
    )
    generate.add_argument("--scale", type=float, default=0.5)

    index = subparsers.add_parser("index", help="embed + index the corpus")
    index.add_argument("directory", type=Path)
    index.add_argument("--beta", type=float, default=0.2)
    index.add_argument(
        "--tree", action="store_true", help="use the TreeEmb ablation embedder"
    )
    index.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for indexing (0 = one per core, 1 = serial)",
    )
    index.add_argument(
        "--gzip", action="store_true",
        help="write a gzipped index (smaller, but cannot be mmap-loaded)",
    )
    index.add_argument(
        "--format", choices=("v2", "v3"), default="v3",
        help="on-disk index layout: 'v3' (default) is the zero-copy "
        "binary container (index.nlx) that loads via mmap; 'v2' is the "
        "legacy JSON format (index.json)",
    )

    search = subparsers.add_parser("search", help="query an indexed dataset")
    search.add_argument("directory", type=Path)
    search.add_argument("query")
    search.add_argument("-k", type=int, default=5)
    search.add_argument("--beta", type=float, default=None)
    search.add_argument(
        "--ranking", choices=("auto", "pruned", "exhaustive"), default=None,
        help="query-serving path (default: engine config, 'auto' = cost-based planner)",
    )
    search.add_argument(
        "--explain", action="store_true",
        help="print relationship paths for the top result",
    )
    search.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-query time budget in milliseconds; when it expires the "
        "query degrades to text-only ranking instead of failing",
    )
    search.add_argument(
        "--stats", action="store_true",
        help="after the results, print the query's stage timings, serving "
        "path, and the engine's metric counters",
    )
    search.add_argument(
        "--mmap", action=argparse.BooleanOptionalAction, default=True,
        help="memory-map a v3 index instead of hydrating it onto the "
        "heap (default: --mmap; non-v3 files always heap-load)",
    )

    evaluate = subparsers.add_parser(
        "evaluate", help="quick Lucene vs NewsLink HIT@k on the test split"
    )
    evaluate.add_argument("directory", type=Path)
    evaluate.add_argument("-k", type=int, default=5)
    evaluate.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for indexing (0 = one per core, 1 = serial)",
    )

    ingest = subparsers.add_parser(
        "ingest",
        help="stream simulated feeds through the durable ingestion pipeline",
    )
    ingest.add_argument("directory", type=Path)
    ingest.add_argument(
        "--state-dir", type=Path, default=None,
        help="pipeline state directory holding the WAL, snapshots and "
        "manifest (default: DIR/ingest); rerunning with the same state "
        "dir resumes after the last run, crashed or clean",
    )
    ingest.add_argument(
        "--dataset", choices=("cnn", "kaggle"), default="cnn",
        help="canned world configuration the feeds simulate from (must "
        "match what `repro generate` used)",
    )
    ingest.add_argument("--scale", type=float, default=0.5)
    ingest.add_argument(
        "--sources", default="rss,social,filings",
        help="comma-separated feed profiles to stream (rss, social, filings)",
    )
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--rounds", type=int, default=10,
        help="dispatch rounds to run before checkpointing and exiting",
    )
    ingest.add_argument("--batch-size", type=int, default=8)
    ingest.add_argument(
        "--checkpoint-every", type=int, default=256,
        help="applied events between automatic compactions (0 = only "
        "the final checkpoint on exit)",
    )
    ingest.add_argument(
        "--stats", action="store_true",
        help="print the full ingest stats payload as JSON on exit",
    )

    serve = subparsers.add_parser(
        "serve", help="serve the indexed dataset over HTTP (JSON API)"
    )
    serve.add_argument("directory", type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-query time budget in milliseconds for every "
        "served query; expired queries degrade to text-only ranking",
    )
    serve.add_argument(
        "--no-metrics", action="store_true",
        help="disable the metrics registry and query tracing (the "
        "/metrics and /stats endpoints then serve empty views)",
    )
    serve.add_argument(
        "--shards", type=int, default=0,
        help="serve through N document-partitioned shards behind a "
        "scatter-gather coordinator (0 = single-engine serving); "
        "merged results are bit-identical to the single engine",
    )
    serve.add_argument(
        "--shard-workers", type=int, default=1,
        help="forked worker processes per shard (sharded mode only)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=0,
        help="concurrent queries in the serving stage "
        "(0 = one per shard worker; sharded mode only)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="queries allowed to wait for a serving slot before "
        "arrivals are shed with 429 (sharded mode only)",
    )
    serve.add_argument(
        "--no-shedding", action="store_true",
        help="disable admission control entirely (unbounded queueing; "
        "sharded mode only — for load experiments, not production)",
    )
    serve.add_argument(
        "--inline-shards", action="store_true",
        help="run shards in-process instead of forked workers "
        "(for platforms without fork; sharded mode only)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="seconds an accepted connection may idle before its "
        "request line arrives; beyond it the server answers 408",
    )
    serve.add_argument(
        "--mmap", action=argparse.BooleanOptionalAction, default=True,
        help="memory-map a v3 index instead of hydrating it onto the "
        "heap; forked shard workers then share the mapped pages "
        "copy-on-write (default: --mmap)",
    )
    serve.add_argument(
        "--ingest", action="store_true",
        help="stream simulated feeds into the live engine while serving "
        "(single-engine mode only); /stats gains an ingest section with "
        "freshness percentiles and per-source breaker health",
    )
    serve.add_argument(
        "--ingest-dir", type=Path, default=None,
        help="ingest state directory (default: DIR/ingest)",
    )
    serve.add_argument(
        "--ingest-interval", type=float, default=0.5,
        help="seconds between dispatch rounds of the background ingest loop",
    )
    serve.add_argument(
        "--ingest-sources", default="rss,social,filings",
        help="comma-separated feed profiles to stream while serving",
    )
    serve.add_argument("--ingest-seed", type=int, default=0)
    serve.add_argument(
        "--dataset", choices=("cnn", "kaggle"), default="cnn",
        help="world configuration the simulated feeds draw from "
        "(--ingest only; must match `repro generate`)",
    )
    serve.add_argument(
        "--scale", type=float, default=0.5,
        help="world scale for the simulated feeds (--ingest only)",
    )
    serve.add_argument(
        "--profiles", action="store_true",
        help="enable per-user click-history profiles (/click and "
        "/search?user=); single-engine serving only — the coordinator "
        "frontend is document-free",
    )
    serve.add_argument(
        "--gamma", type=float, default=None,
        help="context-channel weight applied to personalized queries "
        "that do not pass an explicit gamma= (default: 0.35)",
    )
    serve.add_argument(
        "--session-capacity", type=int, default=None,
        help="bound on resident sessions (least-recently-used eviction)",
    )
    serve.add_argument(
        "--profile-capacity", type=int, default=None,
        help="bound on resident profiles (least-recently-used eviction)",
    )
    return parser


def _load_engine(
    directory: Path,
    beta: float | None = None,
    deadline_ms: float | None = None,
    metrics_enabled: bool = True,
    mmap: bool = True,
) -> NewsLinkEngine:
    graph = load_graph_json(directory / _KG_FILE)
    fusion = FusionConfig(beta=beta) if beta is not None else FusionConfig()
    config = EngineConfig(
        fusion=fusion,
        deadline_ms=deadline_ms,
        metrics_enabled=metrics_enabled,
        mmap=mmap,
    )
    engine = NewsLinkEngine(graph, config)
    for name in _INDEX_CANDIDATES:
        index_path = directory / name
        if index_path.exists():
            break
    else:
        raise SystemExit(
            f"no index under {directory}; "
            f"run `repro index {directory}` first"
        )
    engine.load_index(index_path)
    return engine


def _cmd_generate(args: argparse.Namespace) -> int:
    factory = cnn_like_config if args.dataset == "cnn" else kaggle_like_config
    world_config, news_config = factory(scale=args.scale)
    dataset = make_dataset(args.dataset, world_config, news_config)
    args.directory.mkdir(parents=True, exist_ok=True)
    save_graph_json(dataset.world.graph, args.directory / _KG_FILE)
    save_corpus_jsonl(dataset.corpus, args.directory / _CORPUS_FILE)
    print(
        f"wrote {dataset.world.graph.num_nodes}-node KG and "
        f"{len(dataset.corpus)}-document corpus to {args.directory}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    graph = load_graph_json(args.directory / _KG_FILE)
    corpus = load_corpus_jsonl(args.directory / _CORPUS_FILE)
    config = EngineConfig(
        fusion=FusionConfig(beta=args.beta),
        use_tree_embedder=args.tree,
        workers=args.workers,
    )
    engine = NewsLinkEngine(graph, config)
    skipped = engine.index_corpus(corpus)
    index_file = _INDEX_FILE_V3 if args.format == "v3" else _INDEX_FILE_V2
    if args.gzip:
        index_file += ".gz"
    engine.save_index(args.directory / index_file, format=args.format)
    print(
        f"indexed {engine.num_indexed} documents "
        f"({len(skipped)} had no subgraph embedding); "
        f"index saved to {args.directory / index_file}"
    )
    report = engine.last_index_report
    if report is not None:
        print(
            f"parallel pipeline: {report.workers} workers, "
            f"{report.unique_groups}/{report.total_groups} unique entity "
            f"groups embedded ({report.dedup_rate:.0%} deduplicated)"
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    engine = _load_engine(args.directory, args.beta, mmap=args.mmap)
    results = engine.search(
        args.query,
        k=args.k,
        beta=args.beta,
        ranking=args.ranking,
        deadline_ms=args.deadline_ms,
    )
    if not results:
        print("no results")
        return 1
    if results[0].degraded:
        print(f"[degraded: {results[0].degraded_reason}]")
    corpus = load_corpus_jsonl(args.directory / _CORPUS_FILE)
    snippets = engine.snippets(args.query, [r.doc_id for r in results])
    for rank, (result, snippet) in enumerate(zip(results, snippets), start=1):
        title = corpus.get(result.doc_id).title if result.doc_id in corpus else ""
        print(f"{rank}. {result.doc_id}  score={result.score:.3f}  {title}")
        if snippet.text:
            print(f"   {snippet.text}")
    if args.explain:
        print("\nwhy the top result is related:")
        explanation = engine.explanation(args.query, results[0].doc_id)
        for line in explanation.lines():
            print("   ", line)
    if args.stats:
        _print_search_stats(engine)
    return 0


def _print_search_stats(engine: NewsLinkEngine) -> None:
    """The ``search --stats`` footer: trace + counters for this query."""
    records = engine.observability.tracer.records()
    if records:
        trace = records[-1]
        print("\nquery trace:")
        print(f"   total      {trace['duration_ms']:.2f} ms")
        for stage, ms in trace.get("stages_ms", {}).items():
            print(f"   {stage:<10} {ms:.2f} ms")
        attributes = trace.get("attributes", {})
        for key in ("path", "query_cache", "degraded_reason"):
            if key in attributes:
                print(f"   {key:<10} {attributes[key]}")
    print("engine counters:")
    for name, value in sorted(engine.query_stats.as_dict().items()):
        print(f"   query.{name:<22} {value}")
    for name, value in sorted(engine.search_stats.as_dict().items()):
        print(f"   gstar.{name:<22} {value}")
    cache = engine.cache_stats
    if cache is not None:
        for name, value in sorted(cache.as_dict().items()):
            formatted = f"{value:.3f}" if name == "hit_rate" else value
            print(f"   segment_cache.{name:<14} {formatted}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.eval.queries import build_query_cases

    graph = load_graph_json(args.directory / _KG_FILE)
    corpus = load_corpus_jsonl(args.directory / _CORPUS_FILE)
    engine = NewsLinkEngine(graph, EngineConfig(workers=args.workers))
    engine.index_corpus(corpus)
    # last 10% of the corpus acts as the query set
    documents = list(corpus)
    test_docs = documents[-max(1, len(documents) // 10):]
    from repro.data.document import Corpus

    cases = build_query_cases(Corpus(test_docs), engine.pipeline, mode="density")
    hits = {"Lucene (beta=0)": 0, "NewsLink (beta=0.2)": 0}
    for case in cases:
        for name, beta in (("Lucene (beta=0)", 0.0), ("NewsLink (beta=0.2)", 0.2)):
            ranked = engine.search(case.query_text, k=args.k, beta=beta)
            if any(r.doc_id == case.query_doc_id for r in ranked):
                hits[name] += 1
    print(f"HIT@{args.k} over {len(cases)} density queries:")
    for name, count in hits.items():
        print(f"  {name:<20} {count}/{len(cases)} = {count / len(cases):.3f}")
    from repro.eval.diagnostics import corpus_diagnostics

    print("\ncorpus diagnostics:")
    for line in corpus_diagnostics(corpus, engine).lines():
        print(f"  {line}")
    return 0


def _feed_world(dataset: str, scale: float):
    """The same world `repro generate` built (feeds simulate from it)."""
    from repro.kg.synthetic import generate_world
    from repro.utils.rng import spawn_rngs

    factory = cnn_like_config if dataset == "cnn" else kaggle_like_config
    world_config, _ = factory(scale=scale)
    world_rng, _, _ = spawn_rngs(world_config.seed, 3)
    return generate_world(world_config, rng=world_rng)


def _build_feeds(sources: str, world, seed: int):
    from repro.ingest import SyntheticFeed

    profiles = [name.strip() for name in sources.split(",") if name.strip()]
    if not profiles:
        raise SystemExit("no feed sources given")
    return [
        SyntheticFeed(profile, world, profile=profile, seed=seed + offset)
        for offset, profile in enumerate(profiles)
    ]


def _open_pipeline(
    directory: Path,
    state_dir: Path | None,
    dataset: str,
    scale: float,
    sources: str,
    seed: int,
    config,
    engine_config=None,
):
    from repro.ingest import IngestPipeline

    world = _feed_world(dataset, scale)
    kg_path = directory / _KG_FILE
    base_graph = load_graph_json(kg_path) if kg_path.exists() else world.graph
    bootstrap = None
    for name in _INDEX_CANDIDATES:
        candidate = directory / name
        if candidate.exists():
            bootstrap = candidate
            break
    return IngestPipeline.open(
        state_dir or (directory / "ingest"),
        base_graph,
        _build_feeds(sources, world, seed),
        config=config,
        engine_config=engine_config,
        bootstrap_index=bootstrap,
    )


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.config import IngestConfig

    pipeline = _open_pipeline(
        args.directory,
        args.state_dir,
        args.dataset,
        args.scale,
        args.sources,
        args.seed,
        IngestConfig(
            batch_size=args.batch_size,
            checkpoint_every=args.checkpoint_every,
        ),
    )
    if pipeline.replayed_records:
        print(
            f"recovered: replayed {pipeline.replayed_records} WAL records "
            f"in {pipeline.last_recovery_seconds:.2f}s "
            f"(generation {pipeline.generation})"
        )
    admitted = pipeline.run(args.rounds)
    pipeline.close()
    stats = pipeline.stats_payload()
    freshness = stats["freshness"]
    print(
        f"ingested {admitted} events over {args.rounds} rounds: "
        f"{pipeline.engine.num_indexed} documents searchable, "
        f"generation {stats['generation']}, dlq {stats['dlq']}, "
        f"freshness p50 {freshness['p50'] * 1000:.1f}ms "
        f"p99 {freshness['p99'] * 1000:.1f}ms"
    )
    for name, source in stats["sources"].items():
        print(
            f"  {name:<10} seq={source['seq_applied']:<6} "
            f"breaker={source['breaker']:<9} "
            f"applied={source['applied']}"
        )
    if args.stats:
        print(json_module.dumps(stats, indent=1, sort_keys=True))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.personalize import ProfileStore, SessionStore
    from repro.server import PersonalizationState, serve

    if args.ingest and args.shards > 0:
        raise SystemExit(
            "--ingest requires single-engine serving (drop --shards); "
            "shard workers hold forked index copies that live mutation "
            "cannot reach"
        )
    if args.profiles and args.shards > 0:
        raise SystemExit(
            "--profiles requires single-engine serving (drop --shards); "
            "the coordinator frontend is document-free, so clicked "
            "documents cannot be folded into user profiles"
        )
    pipeline = None
    if args.ingest:
        from repro.config import IngestConfig

        pipeline = _open_pipeline(
            args.directory,
            args.ingest_dir,
            args.dataset,
            args.scale,
            args.ingest_sources,
            args.ingest_seed,
            IngestConfig(),
            engine_config=EngineConfig(
                deadline_ms=args.deadline_ms,
                metrics_enabled=not args.no_metrics,
                mmap=args.mmap,
            ),
        )
        engine = pipeline.engine
        print(
            f"ingest attached: {sorted(pipeline.source_states)} -> "
            f"{args.ingest_dir or (args.directory / 'ingest')} "
            f"(generation {pipeline.generation}, "
            f"{pipeline.engine.num_indexed} documents at start)",
            flush=True,
        )
    else:
        engine = _load_engine(
            args.directory,
            deadline_ms=args.deadline_ms,
            metrics_enabled=not args.no_metrics,
            mmap=args.mmap,
        )
    target = engine
    if args.shards > 0:
        from repro.config import ServingConfig
        from repro.serving import Coordinator

        serving_config = ServingConfig(
            num_shards=args.shards,
            workers_per_shard=args.shard_workers,
            max_inflight=args.max_inflight,
            max_queue=None if args.no_shedding else args.max_queue,
            transport="inline" if args.inline_shards else "process",
        )
        target = Coordinator.build(engine, serving_config)
        print(
            f"sharded serving: {args.shards} shards x "
            f"{args.shard_workers} workers "
            f"({serving_config.transport} transport), "
            f"max_inflight={serving_config.effective_max_inflight}, "
            f"max_queue={serving_config.max_queue}",
            flush=True,
        )
    session_kwargs = (
        {"capacity": args.session_capacity}
        if args.session_capacity is not None
        else {}
    )
    profile_kwargs = (
        {"capacity": args.profile_capacity}
        if args.profile_capacity is not None
        else {}
    )
    personalization_kwargs = (
        {"default_gamma": args.gamma} if args.gamma is not None else {}
    )
    personalization = PersonalizationState(
        sessions=SessionStore(**session_kwargs),
        profiles=ProfileStore(**profile_kwargs) if args.profiles else None,
        **personalization_kwargs,
    )
    if args.profiles:
        print(
            f"profiles enabled: capacity "
            f"{personalization.profiles.capacity}, default gamma "
            f"{personalization.default_gamma}",
            flush=True,
        )
    if pipeline is not None:
        pipeline.start(args.ingest_interval)
    serve(
        target,
        host=args.host,
        port=args.port,
        request_timeout=args.request_timeout,
        ingest=pipeline,
        personalization=personalization,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "index": _cmd_index,
        "search": _cmd_search,
        "evaluate": _cmd_evaluate,
        "ingest": _cmd_ingest,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
