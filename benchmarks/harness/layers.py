"""Per-layer metrics derived from a traced run's spans and counters.

Layer = module name under ``src/repro``.  Timed values are medians over
requests of span *self* time; counts are deltas of the program's own
public counters over the traced window.
"""

from __future__ import annotations

from benchmarks.harness import stats
from benchmarks.harness.client import LoadReport
from benchmarks.harness.stats import Measure, Span

#: per-layer metric -> the span whose per-request self time it reports
_SELF_MS = {
    "server.self_ms": "server.do_GET",
    "nlp.process_ms": "nlp.process",
    "core.embed_ms": "core.process_query",
    "search.engine_self_ms": "search.search",
    "search.rank_ms": "search.rank_terms",
    "search.snippet_ms": "search.snippet",
    "serving.admission_wait_ms": "serving.admission",
    "serving.frontend_ms": "serving.frontend",
    "serving.scatter_ms": "serving.scatter",
    "serving.merge_self_ms": "serving.search_detailed",
    "serving.snippet_ipc_ms": "serving.snippet",
}
_CALLS = {
    "nlp.calls_per_request": "nlp.process",
    "core.embed_calls_per_request": "core.process_query",
    "search.snippet_calls_per_request": "search.snippet",
}
_PER_QUERY = {
    "search.rank_candidates_per_query": "candidates_examined",
    "search.rank_postings_per_query": "postings_advanced",
    "search.rank_blocks_skipped_per_query": "blocks_skipped",
}
_SERVING_COUNTS = {
    "serving.shed": "shed_queries",
    "serving.partial": "partial_queries",
    "serving.degraded": "degraded_queries",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rate(phase: dict) -> Measure:
    """Events per second of one ingest phase."""
    return Measure(_ratio(phase["events"], phase["elapsed_s"]), phase["events"])


def overhead(untraced: Measure, traced: Measure) -> Measure:
    """(untraced rate - traced rate) / untraced rate."""
    return Measure(_ratio(untraced.value - traced.value, untraced.value), traced.n)


def fixture_layers(ready: dict, restart: dict) -> dict[str, Measure]:
    """Build, save and load stages of the set-up every workload pays."""
    stage = ready["stage_s"]
    return {
        "parallel.build_s": Measure(ready["build_s"], 1),
        "parallel.dedup_rate": Measure(ready["dedup_rate"], 1),
        "nlp.index_s": Measure(stage["nlp"], 1),
        "core.index_ne_s": Measure(stage["ne"], 1),
        "search.index_ns_s": Measure(stage["ns"], 1),
        "search.save_s": Measure(ready["save_s"], 1),
        "search.load_mmap_ms": Measure(ready["load_mmap_ms"], 1),
        "search.load_heap_ms": Measure(restart["load_heap_ms"], 1),
    }


def http_layers(
    report: LoadReport, spans: list[Span], before: dict, after: dict
) -> dict[str, Measure]:
    """The per-layer budget of the requests in ``report``."""
    requests = stats.per_request(spans)
    n = len(requests)
    layers = {
        metric: Measure(stats.layer_median_ms(requests, span), n)
        for metric, span in _SELF_MS.items()
    }
    for metric, span in _CALLS.items():
        layers[metric] = Measure(stats.layer_calls_per_request(requests, span), n)
    # A request's self times add up to its handler span by construction.
    layers["server.handle_ms"] = Measure(
        1000.0
        * stats.median(
            [sum(use.self_s for use in layer.values()) for layer in requests.values()]
        ),
        n,
    )
    embedding = [
        layer["core.process_query"].calls
        for layer in requests.values()
        if "core.process_query" in layer
    ]
    embeds = sum(embedding)
    layers["search.query_cache_hit_share"] = Measure(
        1.0 - _ratio(len(embedding), n), n
    )

    def delta(group: str, key: str) -> float:
        return after[group][key] - before[group][key]

    queries = int(delta("query_stats", "queries"))
    for metric, key in _PER_QUERY.items():
        layers[metric] = Measure(_ratio(delta("query_stats", key), queries), queries)
    pruned = delta("query_stats", "planner_pruned")
    planned = int(pruned + delta("query_stats", "planner_exhaustive"))
    layers["search.planner_pruned_share"] = Measure(_ratio(pruned, planned), planned)
    for metric, key in (
        ("core.gstar_pops_per_embed", "pops"),
        ("core.gstar_relaxations_per_embed", "relaxations"),
    ):
        layers[metric] = Measure(_ratio(delta("search_stats", key), embeds), embeds)
    if "serving_stats" in after:
        for metric, key in _SERVING_COUNTS.items():
            layers[metric] = Measure(delta("serving_stats", key), n)

    latencies = report.latencies_ms
    layers.update(
        {
            "client.latency_p99_ms": Measure(
                stats.percentile(latencies, 0.99), len(latencies)
            ),
            "client.latency_max_ms": Measure(
                max(latencies, default=0.0), len(latencies)
            ),
            "client.connects_per_request": Measure(
                _ratio(report.connects, report.attempted), report.attempted
            ),
            "client.overhead_ms": Measure(
                1000.0 * stats.median(report.overhead_s), len(report.overhead_s)
            ),
            "server.response_bytes": Measure(
                stats.median(report.response_bytes), len(report.response_bytes)
            ),
        }
    )
    return layers


def ingest_layers(
    spans: list[Span],
    before: dict,
    after: dict,
    solo: dict,
    untraced: dict,
    traced: dict,
    reader: LoadReport,
) -> dict[str, Measure]:
    """Write-side layers of a traced ``write_path`` run.

    ``before``/``after`` are ``pipeline.stats_payload()`` around the
    whole window; ``solo``, ``untraced`` and ``traced`` its three ingest
    phases (alone, beside the reader, beside the reader with tracing on).
    """
    own = stats.self_times(spans)
    steps = [1000.0 * own[s.span_id] for s in spans if s.name == "ingest.step"]
    checkpoints = [
        1000.0 * (s.end - s.start) for s in spans if s.name == "ingest.checkpoint"
    ]
    freshness = traced["freshness_ms"]
    latencies = reader.latencies_ms
    records = after["wal"]["records"] - before["wal"]["records"]
    phases = (solo, untraced, traced)
    wal_records = sum(p["wal_records"] for p in phases)
    return {
        "ingest_events_per_s": rate(traced),
        "freshness_p50_ms": Measure(stats.median(freshness), len(freshness)),
        "freshness_p95_ms": Measure(
            stats.percentile(freshness, 0.95), len(freshness)
        ),
        "ingest.freshness_p99_ms": Measure(
            stats.percentile(freshness, 0.99), len(freshness)
        ),
        "read_under_ingest_p50_ms": Measure(stats.median(latencies), len(latencies)),
        "search.read_under_ingest_p90_ms": Measure(
            stats.percentile(latencies, 0.90), len(latencies)
        ),
        "ingest.step_ms": Measure(stats.median(steps), len(steps)),
        "ingest.checkpoint_ms": Measure(stats.median(checkpoints), len(checkpoints)),
        "ingest.checkpoints": Measure(
            after["checkpoints"] - before["checkpoints"], records
        ),
        "ingest.wal_bytes_per_event": Measure(
            _ratio(sum(p["wal_bytes"] for p in phases), wal_records), wal_records
        ),
        "ingest.wal_syncs": Measure(
            after["wal"]["syncs"] - before["wal"]["syncs"], records
        ),
        "ingest.dlq_events": Measure(after["dlq"] - before["dlq"], records),
        "ingest.solo_events_per_s": rate(solo),
        "trace.overhead_share": overhead(rate(untraced), rate(traced)),
    }
