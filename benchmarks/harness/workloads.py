"""One measured run of one workload: set-up, gates, window, checks, metrics."""

from __future__ import annotations

import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field

from repro import cnn_like_config, make_dataset

from benchmarks.harness import layers, stats
from benchmarks.harness.client import (
    LoadReport,
    Reply,
    http_get,
    replay,
    run_load,
)
from benchmarks.harness.process import ChildProcess
from benchmarks.harness.spec import (
    MIN_PASSAGE_HIT_AT_10,
    OUT_DIR,
    TIER_SCALE,
    WORKLOAD_MODES,
    load_spec,
)
from benchmarks.harness.stats import Measure, Span
from benchmarks.harness.traces import KeywordTrace, PassageTrace

RECHECK_SAMPLE = 64
RESTART_REPS = 5
RESTART_PROBE_SEED = 0
FLOOR_REQUESTS = 100
#: write_path's reader draws from a pool this large.  Beside ingest the
#: query LRU is flushed by every entity event anyway, and a reader
#: request costs ~25 or ~70 ms depending on the path the planner picks,
#: so a 48-query pool lets one seed's mix swing every write_path figure.
WRITE_PATH_POOL = 480
#: A traced write_path run first ingests alone for this share of its window.
SOLO_SHARE = 0.3
#: A traced run spends this share of its window untraced, to price tracing.
UNTRACED_SHARE = 1.0 / 3.0


@dataclass
class RunResult:
    workload: str
    tier: str
    seed: int
    seconds: float
    traced: bool
    metrics: dict[str, Measure] = field(default_factory=dict)
    phases: dict[str, dict[str, int]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def count(self, phase: str, attempted: int, failures: list[str]) -> None:
        tally = self.phases.setdefault(phase, {"attempted": 0, "failed": 0})
        tally["attempted"] += attempted
        tally["failed"] += len(failures)
        self.failures.extend(f"[{phase}] {reason}" for reason in failures)

    @property
    def attempted(self) -> int:
        return sum(t["attempted"] for t in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(t["failed"] for t in self.phases.values())

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def as_dict(self) -> dict:
        return {
            "workload": self.workload,
            "tier": self.tier,
            "seed": self.seed,
            "seconds": self.seconds,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "phases": self.phases,
            "failures": self.failures[:20],
            "metrics": {
                name: {"value": m.value, "n": m.n}
                for name, m in self.metrics.items()
            },
            "info": self.info,
        }


def oracle_failures(child, replies: list[Reply], saved: bool = False) -> list[str]:
    """Replies whose (doc_id, score, bow, bon) list differs from the
    in-process exhaustive oracle's, bit for bit."""
    if not replies:
        return []
    rankings = child.call(
        "oracle", queries=[r.query.text for r in replies], saved=saved
    )["rankings"]
    return [
        f"oracle mismatch: {reply.query.text[:60]!r}"
        for reply, expected in zip(replies, rankings)
        if reply.ranking != tuple(map(tuple, expected))
    ]


def _gate(result: RunResult, phase: str, child, port: int, queries) -> None:
    """Send ``queries`` over HTTP and hold every reply to the oracle."""
    report = replay(port, queries)
    result.count(
        phase,
        len(queries),
        report.failures + oracle_failures(child, report.replies),
    )


def _hit_at_10(replies: list[Reply]) -> float:
    hits = sum(
        any(doc_id == reply.query.source_doc for doc_id, *_ in reply.ranking)
        for reply in replies
    )
    return hits / len(replies) if replies else 0.0


def _latency_measures(report: LoadReport) -> dict[str, Measure]:
    latencies = report.latencies_ms
    n = len(latencies)
    return {
        "qps": Measure(n / report.elapsed_s if report.elapsed_s else 0.0, n),
        "latency_p50_ms": Measure(stats.median(latencies), n),
        "latency_p95_ms": Measure(stats.percentile(latencies, 0.95), n),
    }


def run_workload(
    name: str, *, tier: str, seed: int, seconds: float, traced: bool
) -> RunResult:
    """Run ``name`` once in a fresh child process and measure it."""
    result = RunResult(name, tier, seed, seconds, traced)
    # The parent's copy of the corpus only feeds the trace generators.
    dataset = make_dataset("cnn-like", *cnn_like_config(scale=TIER_SCALE[tier]))
    labels = {node.label for node in dataset.world.graph.nodes()}

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spawned = time.perf_counter()
    child = None
    try:
        child = ChildProcess(tier, WORKLOAD_MODES[name], workdir, feed_seed=seed)
        ready = child.ready
        port = ready["port"]
        skipped = set(ready["skipped"])
        documents = [d for d in dataset.corpus if d.doc_id not in skipped]
        if name.startswith("passage"):
            trace = PassageTrace(documents, seed)
        elif name == "write_path":
            trace = KeywordTrace(documents, labels, seed, WRITE_PATH_POOL)
        else:
            trace = KeywordTrace(documents, labels, seed)

        status, _ = http_get(port, "/health")
        warmup = trace.warmup()
        report = replay(port, warmup)
        result.count(
            "setup",
            1 + len(warmup),
            ([] if status == 200 else [f"/health status {status}"])
            + report.failures,
        )
        if name == "write_path":
            # The first step after bootstrap thaws the mmap-loaded
            # index: a once-per-process cost, so it belongs to set-up.
            thaw = child.call("ingest", seconds=0.0)
        setup_s = time.perf_counter() - spawned

        # The restart probe is part of the fixture, not of the traffic:
        # the same 32 queries on every seed.
        probe = KeywordTrace(documents, labels, RESTART_PROBE_SEED).gate()
        restart = child.call(
            "restart", queries=[q.text for q in probe], reps=RESTART_REPS,
            heap=traced,
        )
        # A fresh mmap load must rank exactly like the exhaustive oracle
        # over the index as it was saved.
        result.count(
            "restart",
            len(probe),
            oracle_failures(
                child,
                [
                    Reply(query, tuple(map(tuple, ranking)), 0.0)
                    for query, ranking in zip(probe, restart["rankings"])
                ],
                saved=True,
            ),
        )
        _gate(result, "gate", child, port, trace.gate())

        window = _write_path_window if name == "write_path" else _http_window
        measured, metrics = window(result, child, port, trace)
        hit_at_10 = _hit_at_10(measured.replies)
        if name.startswith("passage") and hit_at_10 < MIN_PASSAGE_HIT_AT_10:
            result.count(
                "quality", 1, [f"hit_at_10 {hit_at_10:.3f} < {MIN_PASSAGE_HIT_AT_10}"]
            )
        rss = child.call("shutdown")
    finally:
        if child is not None:
            child.close()
        shutil.rmtree(workdir, ignore_errors=True)

    docs = ready["docs"]
    if traced:
        metrics.update(layers.fixture_layers(ready, restart))
        metrics["hit_at_10"] = Measure(hit_at_10, len(measured.replies))
        metrics["fail_share"] = Measure(result.fail_share, result.attempted)
        if name == "write_path":
            metrics["ingest.thaw_ms"] = Measure(thaw["first_step_ms"], 1)
        # Every workload reports every per-layer name; a layer the
        # workload never enters reads 0.
        result.metrics = {
            m.name: metrics.get(m.name, Measure(0.0, 0))
            for m in load_spec().per_layer
        }
    else:
        result.metrics = {
            "setup_s": Measure(setup_s, 1),
            **metrics,
            "ok_share": Measure(1.0 - result.fail_share, result.attempted),
            "peak_rss_mb": Measure(rss["rss_self_mb"] + rss["rss_children_mb"], 1),
            "build_docs_per_s": Measure(docs / ready["build_s"], docs),
            "index_bytes_per_doc": Measure(ready["index_bytes"] / docs, docs),
            "restart_ms": Measure(
                stats.median(restart["restart_ms"]), len(restart["restart_ms"])
            ),
        }
    result.info.update(docs=docs, hit_at_10=hit_at_10, setup_s=setup_s)
    return result


def _recheck(result: RunResult, child, report: LoadReport) -> None:
    """Re-check a seeded sample of the window's recorded replies."""
    rng = random.Random(f"{result.seed}:recheck")
    sample = rng.sample(report.replies, min(RECHECK_SAMPLE, len(report.replies)))
    result.count("recheck", len(sample), oracle_failures(child, sample))


def _start_tracing(child, port: int) -> Measure:
    """Turn tracing on; returns ``server.floor_ms``, the p50 of ``GET
    /health``: what the HTTP stack costs with no search behind it."""
    child.call("trace_on")
    samples = []
    for _ in range(FLOOR_REQUESTS):
        start = time.perf_counter()
        http_get(port, "/health")
        samples.append(1000.0 * (time.perf_counter() - start))
    child.call("spans")  # discard: only the measured window's spans are kept
    return Measure(stats.median(samples), FLOOR_REQUESTS)


def _collect_spans(result: RunResult, child, report: LoadReport) -> list[Span]:
    """The traced window's server spans; written out with the client's."""
    spans = [Span(*row) for row in child.call("spans")["spans"]]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{result.workload}.jsonl"
    with open(path, "w") as handle:
        for span in spans + report.spans:
            handle.write(json.dumps(span._asdict()) + "\n")
    result.info["span_file"] = str(path)
    return spans


def _http_window(
    result: RunResult, child, port: int, trace
) -> tuple[LoadReport, dict[str, Measure]]:
    seconds = result.seconds
    if not result.traced:
        report = run_load(port, trace.next, seconds=seconds)
        result.count("window", report.attempted, report.failures)
        _recheck(result, child, report)
        return report, _latency_measures(report)

    untraced = run_load(port, trace.next, seconds=seconds * UNTRACED_SHARE)
    result.count("window", untraced.attempted, untraced.failures)
    floor = _start_tracing(child, port)
    before = child.call("counters")
    report = run_load(
        port, trace.next, seconds=seconds * (1.0 - UNTRACED_SHARE), label="t"
    )
    after = child.call("counters")
    spans = _collect_spans(result, child, report)
    result.count("window", report.attempted, report.failures)
    _recheck(result, child, report)

    metrics = layers.http_layers(report, spans, before, after)
    metrics["server.floor_ms"] = floor
    metrics["trace.overhead_share"] = layers.overhead(
        _latency_measures(untraced)["qps"], _latency_measures(report)["qps"]
    )
    return report, metrics


def _mixed_phase(child, port: int, trace, seconds: float, label: str):
    """Back-to-back ingest beside ONE closed-loop reader."""
    stop = threading.Event()
    holder: list[LoadReport] = []
    reader = threading.Thread(
        target=lambda: holder.append(
            run_load(port, trace.next, clients=1, label=label, stop=stop)
        ),
        name="bench-reader",
    )
    reader.start()
    try:
        ingest = child.call("ingest", seconds=seconds)
    finally:
        stop.set()
        reader.join()
    return ingest, holder[0]


def _write_path_window(
    result: RunResult, child, port: int, trace
) -> tuple[LoadReport, dict[str, Measure]]:
    start = child.call("counters")
    mixed_seconds = result.seconds
    if result.traced:
        solo = child.call("ingest", seconds=result.seconds * SOLO_SHARE)
        mixed_seconds *= 1.0 - SOLO_SHARE
        untraced, reader = _mixed_phase(
            child, port, trace, mixed_seconds * UNTRACED_SHARE, "r"
        )
        result.count("window", reader.attempted, reader.failures)
        floor = _start_tracing(child, port)
        mixed_seconds *= 1.0 - UNTRACED_SHARE
    before = child.call("counters")
    ingest, reader = _mixed_phase(child, port, trace, mixed_seconds, "t")
    after = child.call("counters")
    result.count("window", reader.attempted, reader.failures)
    spans = _collect_spans(result, child, reader) if result.traced else []

    check = child.call("ingest_check")
    problems = []
    if check["indexed"] != check["expected_indexed"]:
        problems.append(
            f"num_indexed {check['indexed']} != {check['expected_indexed']} expected"
        )
    if check["live_without_embedding"] > check["skipped_unembeddable"]:
        problems.append(
            f"{check['live_without_embedding']} ingested adds lack an embedding"
        )
    if check["dlq"]:
        problems.append(f"{check['dlq']} events quarantined to the DLQ")
    applied = after["ingest"]["wal"]["records"] - start["ingest"]["wal"]["records"]
    result.count("ingest", applied + 2, problems)
    # The index stopped changing: the oracle can be consulted again.
    _gate(result, "post_gate", child, port, trace.gate())

    if not result.traced:
        # On the write path an operation is a feed event: qps counts the
        # events applied per second beside the reader (the issue's
        # ingest_events_per_s), and the latency figures are what that
        # reader saw (its read_under_ingest_p50_ms).
        return reader, {**_latency_measures(reader), "qps": layers.rate(ingest)}

    metrics = layers.http_layers(reader, spans, before, after)
    metrics["server.floor_ms"] = floor
    metrics.update(
        layers.ingest_layers(
            spans, start["ingest"], after["ingest"], solo, untraced, ingest, reader
        )
    )
    return reader, metrics
