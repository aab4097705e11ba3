"""Self-tests of the measurement harness and its smoke tier.

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness`` (tier-1's
``testpaths`` does not collect this directory).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from benchmarks.harness import stats
from benchmarks.harness.client import replay
from benchmarks.harness.process import REPO_ROOT
from benchmarks.harness.spec import OUT_DIR, WORKLOAD_MODES, load_spec
from benchmarks.harness.stats import Span
from benchmarks.harness.traces import (
    KEYWORD_POOL,
    KeywordTrace,
    PassageTrace,
    Query,
    materialize,
)
from benchmarks.harness.workloads import RunResult, oracle_failures


# -- the percentile rule ----------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.percentile_supported(200, 0.95)
    assert not stats.percentile_supported(199, 0.95)
    assert stats.percentile_supported(1000, 0.99)
    assert not stats.percentile_supported(999, 0.99)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile([], 0.95) == 0.0
    assert stats.median([]) == 0.0


# -- span self time ---------------------------------------------------------


def test_self_time_on_a_nested_tree():
    spans = [
        Span(1, 0, "server.do_GET", "t1", 0.0, 10.0),
        Span(2, 1, "search.search", "t1", 1.0, 6.0),
        Span(3, 2, "core.process_query", "t1", 1.5, 3.0),
        Span(4, 3, "nlp.process", "t1", 1.5, 2.0),
        Span(5, 2, "search.rank_terms", "t1", 3.0, 5.5),
        Span(6, 1, "search.snippet", "t1", 6.0, 7.0),
        Span(7, 1, "search.snippet", "t1", 7.0, 9.0),
        # two children overlapping on different threads: counted once
        Span(8, 0, "ingest.step", "", 20.0, 30.0),
        Span(9, 8, "ingest.checkpoint", "", 22.0, 26.0),
        Span(10, 8, "ingest.checkpoint", "", 24.0, 28.0),
    ]
    own = stats.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0 - 2.0)
    assert own[2] == pytest.approx(5.0 - 1.5 - 2.5)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(0.5)
    assert own[8] == pytest.approx(10.0 - 6.0)

    requests = stats.per_request(spans)
    assert set(requests) == {"t1"}  # spans outside a request are dropped
    assert requests["t1"]["search.snippet"] == stats.LayerUse(3.0, 2)
    # A request's self times add up to its root span.
    assert sum(use.self_s for use in requests["t1"].values()) == pytest.approx(10.0)
    assert stats.layer_median_ms(requests, "search.snippet") == pytest.approx(3000.0)
    assert stats.layer_median_ms(requests, "serving.scatter") == 0.0
    assert stats.layer_calls_per_request(requests, "search.snippet") == 2.0


# -- traces -----------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus():
    from repro import cnn_like_config, make_dataset

    dataset = make_dataset("cnn-like", *cnn_like_config(scale=1))
    labels = {node.label for node in dataset.world.graph.nodes()}
    return list(dataset.corpus), labels


def test_same_seed_same_trace_different_seed_different(corpus):
    documents, labels = corpus
    for build in (
        lambda seed: KeywordTrace(documents, labels, seed),
        lambda seed: PassageTrace(documents, seed),
    ):
        first = materialize(build(7), 200)
        assert first == materialize(build(7), 200)
        assert first != materialize(build(8), 200)


def test_trace_shapes(corpus):
    documents, labels = corpus
    keywords = KeywordTrace(documents, labels, 7)
    assert len({q.text for q in keywords.pool}) == KEYWORD_POOL
    assert all(2 <= len(q.text.split()) <= 5 for q in keywords.pool)
    passages = PassageTrace(documents, 7)
    drawn = [*passages.gate(), *passages.warmup(), *(passages.next() for _ in range(500))]
    assert len({q.text for q in drawn}) == len(drawn)  # never repeated
    by_id = {d.doc_id: d.text for d in documents}
    assert all(q.text in by_id[q.source_doc] for q in drawn)
    assert all(280 <= len(q.text) <= 340 for q in drawn)


# -- failures land in fail_share --------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def do_GET(self):
        if "bad" in self.path:
            status, body = 400, {"error": "forced"}
        else:
            status, body = 200, {
                "degraded": False,
                "results": [
                    {"doc_id": "d1", "score": 1.5, "bow_score": 1.0, "bon_score": 0.5}
                ],
            }
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class _FakeChild:
    def call(self, cmd, queries, saved):
        assert cmd == "oracle"
        return {"rankings": [[["d1", 1.5, 1.0, 0.25]] for _ in queries]}


def test_forced_400_and_oracle_mismatch_count_as_failures():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        report = replay(
            server.server_address[1],
            [Query("good one", "d1"), Query("bad one", "d1"), Query("good two", "d1")],
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert report.attempted == 3
    assert len(report.replies) == 2  # the 400 misses every latency figure
    assert report.failed == 1 and "status 400" in report.failures[0]

    result = RunResult("keyword_single", "S", 1, 1.0, traced=False)
    result.count("window", report.attempted, report.failures)
    # bon_score differs from the oracle's in both surviving replies
    result.count("recheck", 2, oracle_failures(_FakeChild(), report.replies))
    assert (result.attempted, result.failed) == (5, 3)
    assert not result.correct


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    raw = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(raw) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert raw["paths"] == ["benchmarks/harness"]
    assert 1 <= raw["run_seconds"] <= 60
    assert [w["name"] for w in raw["workloads"]] == list(WORKLOAD_MODES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in raw["workloads"])
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    names = [m["name"] for m in raw["end_to_end"] + raw["per_layer"]]
    names += [w["name"] for w in raw["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert unit.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in raw["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])
    runs = 4 + 22 * len(raw["workloads"])
    assert runs * (raw["run_seconds"] + 14) <= 3420  # ~14 s of set-up + checks a run


# -- the smoke tier ---------------------------------------------------------


def test_smoke_tier_runs_all_four_workloads_cleanly():
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.harness", "--tier", "S", "--duration", "3"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert time.monotonic() - started < 60
    assert completed.returncode == 0, completed.stdout + completed.stderr
    recorded = json.loads((OUT_DIR / "result.json").read_text())
    assert [run["workload"] for run in recorded["runs"]] == list(WORKLOAD_MODES)
    expected = {m.name for m in load_spec().end_to_end}
    for run in recorded["runs"]:
        assert run["failed"] == 0 and run["correct"]
        assert set(run["metrics"]) == expected
        assert all(m["value"] > 0 for m in run["metrics"].values())
    for name in ("passage_single", "passage_sharded"):
        run = next(r for r in recorded["runs"] if r["workload"] == name)
        assert run["info"]["hit_at_10"] >= 0.9
    for line in completed.stdout.splitlines()[:-1]:
        assert re.match(r"\w+ [\w.]+ [-+.\de]+ \S+ n=\d+", line), line
