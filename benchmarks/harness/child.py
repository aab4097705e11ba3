"""The system under test, in its own process.

Started by the harness parent so client threads never share a GIL with
server threads.  It builds the tier's fixture the way ``repro index`` +
``repro serve`` deploy it (parallel build, v3 save, mmap load), serves
it on a free loopback port, and then answers one-line JSON commands on
stdin with one-line JSON replies on stdout until told to shut down.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

from benchmarks.harness.spec import TIER_SCALE, TOP_K
from benchmarks.harness.tracing import SpanRecorder

BUILD_WORKERS = 2


class RecordingFeed:
    """A feed that remembers which of its documents should be live."""

    def __init__(self, feed) -> None:
        self._feed = feed
        self.name = feed.name
        self.profile = feed.profile
        self.live: set[str] = set()

    @property
    def seq(self) -> int:
        return self._feed.seq

    def fetch(self, limit: int):
        events = self._feed.fetch(limit)
        for event in events:
            if event.kind == "add":
                self.live.add(event.payload["doc_id"])
            elif event.kind == "remove":
                self.live.discard(event.payload["doc_id"])
        return events

    def fast_forward(self, seq: int) -> None:
        self._feed.fast_forward(seq)


class RecordingHistogram:
    """Keeps the raw samples a histogram only buckets (freshness)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.samples: list[float] = []

    def observe(self, value: float, **labels) -> None:
        self.samples.append(value)
        self._inner.observe(value, **labels)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _ranking(results) -> list[list]:
    return [[r.doc_id, r.score, r.bow_score, r.bon_score] for r in results]


class SystemUnderTest:
    """Fixture + server + the command handlers."""

    def __init__(self, tier: str, mode: str, workdir: Path, feed_seed: int) -> None:
        from repro import EngineConfig, NewsLinkEngine, cnn_like_config, make_dataset
        from repro.server import make_server
        from repro.utils.timing import TimingBreakdown

        self.recorder: SpanRecorder | None = None
        self.coordinator = None
        self.pipeline = None
        self.feeds: list[RecordingFeed] = []
        self.freshness: RecordingHistogram | None = None

        world_config, news_config = cnn_like_config(scale=TIER_SCALE[tier])
        dataset = make_dataset("cnn-like", world_config, news_config)
        self.graph = dataset.world.graph
        self.index_path = workdir / "index.nlx"

        builder = NewsLinkEngine(self.graph, EngineConfig())
        timing = TimingBreakdown()
        start = time.perf_counter()
        skipped = builder.index_corpus(
            dataset.corpus, timing=timing, workers=BUILD_WORKERS
        )
        build_s = time.perf_counter() - start
        report = builder.last_index_report
        start = time.perf_counter()
        builder.save_index(self.index_path)
        save_s = time.perf_counter() - start
        self.label_index = builder.label_index
        self.base_indexed = builder.num_indexed
        del builder

        # The oracle answers from its own engine so that checking a
        # query never warms the serving engine's caches or counters.
        self.file_oracle = self.oracle = self._load(mmap=True)
        self.oracle_lock = threading.Lock()
        load_mmap_ms = 1000.0 * self.oracle.last_load_info["load_seconds"]

        ingest = None
        if mode != "ingest":
            self.engine = target = self._load(mmap=True)
        if mode == "sharded":
            from repro.config import ServingConfig
            from repro.serving.coordinator import Coordinator

            self.coordinator = target = Coordinator.build(
                self.engine,
                ServingConfig(
                    num_shards=2, workers_per_shard=1, transport="process"
                ),
            )
        elif mode == "ingest":
            from repro.ingest.feeds import SyntheticFeed
            from repro.ingest.pipeline import IngestPipeline

            self.feeds = [
                RecordingFeed(
                    SyntheticFeed(
                        profile, dataset.world, profile=profile,
                        seed=feed_seed + offset,
                    )
                )
                for offset, profile in enumerate(("rss", "social", "filings"))
            ]
            self.pipeline = ingest = IngestPipeline.open(
                workdir / "ingest",
                self.graph,
                self.feeds,
                bootstrap_index=self.index_path,
            )
            self.freshness = RecordingHistogram(ingest.instruments.freshness)
            ingest.instruments.freshness = self.freshness
            # Ingest mutates the index, so the only valid oracle is the
            # live engine itself, read under the pipeline's lock.
            self.engine = self.oracle = target = ingest.engine
            self.oracle_lock = ingest.engine_lock  # re-entrant
        self.target = target
        self.server = make_server(target, ingest=ingest)
        self._accept_loop = threading.Thread(
            target=self.server.serve_forever, name="bench-accept-loop"
        )
        self._accept_loop.start()
        self.ready = {
            "port": self.server.server_address[1],
            "docs": self.base_indexed,
            "skipped": list(skipped),
            "build_s": build_s,
            "stage_s": dict(timing.totals),
            "dedup_rate": report.dedup.hit_rate,
            "save_s": save_s,
            "index_bytes": self.index_path.stat().st_size,
            "load_mmap_ms": load_mmap_ms,
        }

    def _load(self, mmap: bool):
        from repro import EngineConfig, NewsLinkEngine

        engine = NewsLinkEngine(
            self.graph, EngineConfig(), label_index=self.label_index
        )
        engine.load_index(self.index_path, mmap=mmap)
        return engine

    # -- commands ----------------------------------------------------------

    def cmd_oracle(self, queries: list[str], saved: bool = False) -> dict:
        """Exhaustive rankings from the live index, or (``saved``) from
        the index file as it was built — they differ once ingest ran."""
        oracle = self.file_oracle if saved else self.oracle
        with self.oracle_lock:
            return {
                "rankings": [
                    _ranking(oracle.search(q, k=TOP_K, ranking="exhaustive"))
                    for q in queries
                ]
            }

    def cmd_restart(self, queries: list[str], reps: int, heap: bool) -> dict:
        """``reps`` × (fresh engine + mmap load + the queries): restart cost
        including the lazy decode the first queries pay."""
        restart_ms = []
        rankings: list = []
        for _ in range(reps):
            start = time.perf_counter()
            engine = self._load(mmap=True)
            rankings = [_ranking(engine.search(q, k=TOP_K)) for q in queries]
            restart_ms.append(1000.0 * (time.perf_counter() - start))
        reply = {"restart_ms": restart_ms, "rankings": rankings}
        if heap:
            engine = self._load(mmap=False)
            reply["load_heap_ms"] = 1000.0 * engine.last_load_info["load_seconds"]
        return reply

    def cmd_counters(self) -> dict:
        if self.coordinator is not None:
            frontend = self.coordinator.frontend
            counters = {
                "query_stats": self.coordinator.folded_query_stats().as_dict(),
                "search_stats": frontend.search_stats.as_dict(),
                "serving_stats": self.coordinator.serving_stats.as_dict(),
            }
        else:
            counters = {
                "query_stats": self.engine.query_stats.as_dict(),
                "search_stats": self.engine.search_stats.as_dict(),
            }
        if self.pipeline is not None:
            counters["ingest"] = self.pipeline.stats_payload()
        return counters

    def cmd_trace_on(self) -> dict:
        """Wrap the public entry points of every layer on the live instances."""
        recorder = self.recorder = SpanRecorder()
        recorder.wrap_handler(self.server.RequestHandlerClass, "server.do_GET")
        nlp_engine = self.engine
        if self.coordinator is not None:
            coordinator = self.coordinator
            nlp_engine = coordinator.frontend
            recorder.wrap(coordinator, "search_detailed", "serving.search_detailed")
            recorder.wrap(coordinator.admission, "acquire", "serving.admission")
            recorder.wrap(
                coordinator.frontend, "contextual_query_state", "serving.frontend"
            )
            recorder.wrap(coordinator.shard_group, "scatter", "serving.scatter")
            recorder.wrap(coordinator, "snippet", "serving.snippet")
        else:
            recorder.wrap(self.engine, "search", "search.search")
            recorder.wrap(self.engine, "rank_terms", "search.rank_terms")
            recorder.wrap(self.engine, "snippet", "search.snippet")
        recorder.wrap(nlp_engine, "process_query", "core.process_query")
        recorder.wrap(nlp_engine.pipeline, "process", "nlp.process")
        if self.pipeline is not None:
            recorder.wrap(self.pipeline, "step", "ingest.step")
            recorder.wrap(self.pipeline, "checkpoint", "ingest.checkpoint")
        return {}

    def cmd_spans(self) -> dict:
        return {"spans": [list(span) for span in self.recorder.drain()]}

    def cmd_ingest(self, seconds: float) -> dict:
        """Back-to-back ``pipeline.step()`` for ``seconds`` (at least one)."""
        wal = self.pipeline.wal
        first_sample = len(self.freshness.samples)
        events = 0
        first_step_ms = 0.0
        # WAL growth per record, summed over steps that did not truncate it.
        wal_bytes = wal_records = 0
        size, records = wal.size_bytes, wal.appends_total
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            step_start = time.perf_counter()
            events += self.pipeline.step()
            if not first_step_ms:
                first_step_ms = 1000.0 * (time.perf_counter() - step_start)
            new_size, new_records = wal.size_bytes, wal.appends_total
            if new_size >= size:
                wal_bytes += new_size - size
                wal_records += new_records - records
            size, records = new_size, new_records
            if time.perf_counter() >= deadline:
                break
        return {
            "events": events,
            "elapsed_s": time.perf_counter() - start,
            "first_step_ms": first_step_ms,
            "wal_bytes": wal_bytes,
            "wal_records": wal_records,
            "freshness_ms": [
                1000.0 * s for s in self.freshness.samples[first_sample:]
            ],
        }

    def cmd_ingest_check(self) -> dict:
        """What the index must look like after the applied deltas."""
        stats = self.pipeline.stats_payload()
        sources = stats["sources"].values()
        adds = sum(s["applied"]["add"] - s["skipped_unembeddable"] for s in sources)
        removes = sum(s["applied"]["remove"] - s["remove_missing"] for s in sources)
        engine = self.pipeline.engine
        with self.pipeline.engine_lock:
            missing = [
                doc_id
                for feed in self.feeds
                for doc_id in sorted(feed.live)
                if not engine.has_embedding(doc_id)
            ]
            indexed = engine.num_indexed
        return {
            "indexed": indexed,
            "expected_indexed": self.base_indexed + adds - removes,
            "live_without_embedding": len(missing),
            "skipped_unembeddable": sum(
                s["skipped_unembeddable"] for s in sources
            ),
            "dlq": stats["dlq"],
        }

    def cmd_shutdown(self) -> dict:
        from repro.server import shutdown_gracefully

        shutdown_gracefully(self.server, self.target, self.pipeline)
        self._accept_loop.join()
        to_mb = 1.0 / 1024.0  # ru_maxrss is KiB on Linux
        return {
            "rss_self_mb": to_mb
            * resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            # The largest reaped child: a build worker or a shard worker.
            "rss_children_mb": to_mb
            * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.harness.child")
    parser.add_argument("--tier", choices=sorted(TIER_SCALE), required=True)
    parser.add_argument(
        "--mode", choices=("single", "sharded", "ingest"), required=True
    )
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--feed-seed", type=int, default=0)
    args = parser.parse_args(argv)

    # stdout carries the protocol; anything else printed goes to stderr.
    channel = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def send(payload: dict) -> None:
        channel.write(json.dumps(payload) + "\n")
        channel.flush()

    sut = SystemUnderTest(args.tier, args.mode, args.workdir, args.feed_seed)
    send(sut.ready)
    done = False
    try:
        for line in sys.stdin:
            command = json.loads(line)
            handler = getattr(sut, "cmd_" + command.pop("cmd"))
            send(handler(**command))
            if handler.__name__ == "cmd_shutdown":
                done = True
                break
    finally:
        if not done:  # the parent went away: still stop every worker
            sut.cmd_shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
