"""Tests for the HTTP API server."""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.config import ServingConfig
from repro.data.document import Corpus, NewsDocument
from repro.obs import PROMETHEUS_CONTENT_TYPE, validate_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.reliability import faults
from repro.search.engine import NewsLinkEngine
from repro.server import MAX_K, make_server, shutdown_gracefully
from repro.serving import Coordinator


@pytest.fixture(scope="module")
def server_url(figure1_graph):
    engine = NewsLinkEngine(figure1_graph)
    engine.index_corpus(
        Corpus(
            [
                NewsDocument(
                    "t_q", "Pakistan fought Taliban in Upper Dir and Swat Valley."
                ),
                NewsDocument(
                    "t_r", "Taliban bombed Lahore. Peshawar and Pakistan reacted."
                ),
            ]
        )
    )
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()


def get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHealth:
    def test_health(self, server_url):
        status, body = get_json(f"{server_url}/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["indexed"] == 2
        assert body["degraded_queries"] >= 0
        assert body["fallback_queries"] >= 0
        assert body["queries"] >= 0


class TestSearch:
    def test_basic_search(self, server_url):
        status, body = get_json(f"{server_url}/search?q=Taliban+in+Pakistan&k=2")
        assert status == 200
        assert body["query"] == "Taliban in Pakistan"
        assert body["degraded"] is False
        assert len(body["results"]) == 2
        top = body["results"][0]
        assert set(top) == {
            "rank", "doc_id", "score", "bow_score", "bon_score",
            "profile_score", "degraded", "snippet",
        }
        assert top["degraded"] is False
        assert "**Taliban**" in top["snippet"]

    def test_beta_parameter(self, server_url):
        status, body = get_json(
            f"{server_url}/search?q=Upper+Dir+unrest&k=2&beta=1.0"
        )
        assert status == 200
        assert all(r["bow_score"] == 0.0 for r in body["results"])

    def test_missing_query(self, server_url):
        status, body = get_json(f"{server_url}/search")
        assert status == 400
        assert "q" in body["error"]

    def test_bad_k(self, server_url):
        status, _ = get_json(f"{server_url}/search?q=x&k=notanumber")
        assert status == 400

    def test_k_is_bounded(self, server_url):
        # Every hit costs a snippet extraction: k must not be able to
        # ask for the whole corpus.
        for k in (0, -3, MAX_K + 1, 100000):
            status, body = get_json(f"{server_url}/search?q=Taliban&k={k}")
            assert status == 400
            assert str(MAX_K) in body["error"]
        status, body = get_json(f"{server_url}/search?q=Taliban&k={MAX_K}")
        assert status == 200
        assert body["k"] == MAX_K


class TestExplain:
    def test_explanation(self, server_url):
        status, body = get_json(
            f"{server_url}/explain?q=Pakistan+fought+Taliban+in+Upper+Dir&doc=t_r"
        )
        assert status == 200
        assert "Taliban" in body["shared_entities"]
        assert 0.0 <= body["novelty"] <= 1.0

    def test_unknown_doc(self, server_url):
        status, _ = get_json(f"{server_url}/explain?q=Taliban&doc=zzz")
        assert status == 404

    def test_missing_params(self, server_url):
        status, _ = get_json(f"{server_url}/explain?q=Taliban")
        assert status == 400


class TestDocument:
    def test_fetch_text(self, server_url):
        status, body = get_json(f"{server_url}/document?id=t_q")
        assert status == 200
        assert body["text"].startswith("Pakistan fought")

    def test_unknown_id(self, server_url):
        status, _ = get_json(f"{server_url}/document?id=zzz")
        assert status == 404


class TestRouting:
    def test_unknown_path(self, server_url):
        status, _ = get_json(f"{server_url}/nope")
        assert status == 404


@pytest.fixture()
def metrics_server(figure1_graph):
    """A per-test server with a private registry (exact-value asserts)."""
    from repro.config import EngineConfig

    # Pin the ranking path: the exact-value asserts below count pruned
    # vs exhaustive queries, which ranking="auto" would leave to the
    # planner (this corpus is tiny, so it would pick exhaustive).
    engine = NewsLinkEngine(
        figure1_graph,
        EngineConfig(ranking="pruned"),
        registry=MetricsRegistry(),
    )
    engine.index_corpus(
        Corpus(
            [
                NewsDocument(
                    "t_q", "Pakistan fought Taliban in Upper Dir and Swat Valley."
                ),
                NewsDocument(
                    "t_r", "Taliban bombed Lahore. Peshawar and Pakistan reacted."
                ),
            ]
        )
    )
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", engine
    server.shutdown()


def _drive_mixed_traffic(url: str) -> None:
    """One cache-missing query, one cache hit, one degraded query."""
    get_json(f"{url}/search?q=Taliban+in+Pakistan&k=2")
    get_json(f"{url}/search?q=Taliban+in+Pakistan&k=2")
    get_json(f"{url}/search?q=Peshawar+unrest+latest&deadline_ms=0.0001")


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_text(self, metrics_server):
        url, _ = metrics_server
        _drive_mixed_traffic(url)
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        metrics = validate_prometheus_text(text)
        for name in (
            "newslink_queries_total",
            "newslink_query_latency_seconds",
            "newslink_query_cache_lookups_total",
            "newslink_gstar_total",
            "newslink_query_pruning_total",
            "newslink_indexed_documents",
            "newslink_kg_version",
            "newslink_embed_seconds",
        ):
            assert name in metrics, f"missing {name}"

    def test_counters_reflect_the_traffic(self, metrics_server):
        url, _ = metrics_server
        _drive_mixed_traffic(url)
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            metrics = validate_prometheus_text(response.read().decode("utf-8"))

        def sample(base: str, **labels: str) -> float:
            for name, got, value in metrics[base]["samples"]:
                if name == base and got == labels:
                    return value
            raise AssertionError(f"no sample {base}{labels}")

        assert sample("newslink_queries_total", path="degraded") == 1
        assert sample("newslink_queries_total", path="pruned") >= 2
        assert (
            sample("newslink_query_cache_lookups_total", result="hit") == 1
        )
        assert (
            sample("newslink_query_cache_lookups_total", result="miss") == 2
        )
        assert sample("newslink_indexed_documents") == 2

    def test_latency_histogram_counts_every_query(self, metrics_server):
        url, _ = metrics_server
        _drive_mixed_traffic(url)
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            metrics = validate_prometheus_text(response.read().decode("utf-8"))
        samples = metrics["newslink_query_latency_seconds"]["samples"]
        totals = [
            value
            for name, labels, value in samples
            if name.endswith("_count") and labels == {"stage": "total"}
        ]
        assert totals == [3]
        inf_bucket = [
            value
            for name, labels, value in samples
            if name.endswith("_bucket")
            and labels.get("stage") == "total"
            and labels.get("le") == "+Inf"
        ]
        assert inf_bucket == [3]

    def test_gstar_counters_nonzero_after_indexing(self, metrics_server):
        url, _ = metrics_server
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            metrics = validate_prometheus_text(response.read().decode("utf-8"))
        pops = [
            value
            for _, labels, value in metrics["newslink_gstar_total"]["samples"]
            if labels == {"counter": "pops"}
        ]
        assert pops and pops[0] > 0


class TestStatsEndpoint:
    def test_stats_view(self, metrics_server):
        url, _ = metrics_server
        _drive_mixed_traffic(url)
        status, body = get_json(f"{url}/stats")
        assert status == 200
        assert body["indexed"] == 2
        assert body["query_stats"]["degraded_queries"] == 1
        assert body["search_stats"]["pops"] > 0
        assert (
            body["metrics"]["counters"][
                'newslink_query_cache_lookups_total{result="hit"}'
            ]
            == 1
        )
        hist = body["metrics"]["histograms"][
            'newslink_query_latency_seconds{stage="total"}'
        ]
        assert hist["count"] == 3
        assert math.isfinite(hist["mean"])

    def test_stats_exposes_recent_traces(self, metrics_server):
        url, _ = metrics_server
        _drive_mixed_traffic(url)
        status, body = get_json(f"{url}/stats")
        assert status == 200
        traces = body["traces"]
        assert len(traces) == 3
        assert traces[0]["name"] == "query"
        assert traces[0]["attributes"]["query_cache"] == "miss"
        assert traces[1]["attributes"]["query_cache"] == "hit"
        assert traces[2]["attributes"]["path"] == "degraded"
        assert set(traces[0]["stages_ms"]) == {"nlp", "ne", "ns"}

    def test_disabled_metrics_serve_empty_views(self, figure1_graph):
        from repro.config import EngineConfig

        engine = NewsLinkEngine(
            figure1_graph, EngineConfig(metrics_enabled=False)
        )
        engine.index_corpus(
            Corpus([NewsDocument("d", "Taliban bombed Lahore in Pakistan.")])
        )
        server = make_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            get_json(f"{url}/search?q=Taliban+Lahore")
            with urllib.request.urlopen(
                f"{url}/metrics", timeout=5
            ) as response:
                text = response.read().decode("utf-8")
            for line in text.splitlines():
                assert line.startswith("#"), f"unexpected sample: {line}"
            status, body = get_json(f"{url}/stats")
            assert status == 200
            assert body["traces"] == []
        finally:
            server.shutdown()


@pytest.fixture()
def faulty_server(figure1_graph):
    """A per-test server whose engine faults can be armed freely."""
    engine = NewsLinkEngine(figure1_graph)
    engine.index_corpus(
        Corpus([NewsDocument("d", "Taliban bombed Lahore in Pakistan.")])
    )
    server = make_server(engine, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", engine
    faults.reset()
    server.shutdown()


class TestHardening:
    def test_degraded_search_over_http(self, faulty_server):
        url, engine = faulty_server
        # Burn the whole budget inside the query's NE stage.
        faults.arm("engine.embed_query", delay=0.02)
        status, body = get_json(f"{url}/search?q=Taliban+Lahore&deadline_ms=1")
        assert status == 200
        assert body["degraded"] is True
        assert "deadline" in body["degraded_reason"]
        assert body["results"]
        assert all(r["degraded"] for r in body["results"])
        status, health = get_json(f"{url}/health")
        assert health["degraded_queries"] == 1

    def test_unexpected_exception_becomes_500(self, faulty_server):
        url, _ = faulty_server
        faults.arm("engine.embed_query", exception=RuntimeError("boom"))
        status, body = get_json(f"{url}/search?q=Taliban+Lahore")
        assert status == 500
        assert "boom" in body["error"]
        assert body["type"] == "RuntimeError"

    def test_repro_error_becomes_500(self, faulty_server):
        url, _ = faulty_server
        faults.arm("engine.embed_query")  # default FaultInjectedError
        status, body = get_json(f"{url}/search?q=Taliban+Lahore")
        assert status == 500
        assert body["type"] == "FaultInjectedError"

    def test_nonpositive_deadline_is_client_error(self, faulty_server):
        url, _ = faulty_server
        status, body = get_json(f"{url}/search?q=Taliban&deadline_ms=0")
        assert status == 400
        assert "deadline_ms" in body["error"]


def _tiny_engine(figure1_graph) -> NewsLinkEngine:
    engine = NewsLinkEngine(figure1_graph)
    engine.index_corpus(
        Corpus(
            [
                NewsDocument(
                    "t_q", "Pakistan fought Taliban in Upper Dir and Swat Valley."
                ),
                NewsDocument(
                    "t_r", "Taliban bombed Lahore. Peshawar and Pakistan reacted."
                ),
            ]
        )
    )
    return engine


class TestRequestTimeout:
    @pytest.fixture()
    def slow_client_server(self, figure1_graph):
        engine = _tiny_engine(figure1_graph)
        server = make_server(engine, port=0, request_timeout=0.3)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server.server_address[:2]
        server.shutdown()
        server.server_close()

    def test_idle_client_gets_408(self, slow_client_server):
        # A client that connects and never sends its request line must
        # not pin a handler thread: after request_timeout the server
        # answers 408 and closes.
        with socket.create_connection(slow_client_server, timeout=5) as sock:
            sock.settimeout(5)
            reply = sock.recv(4096)
            assert reply.startswith(b"HTTP/1.1 408")
            assert b"Connection: close" in reply
            assert b"request timeout" in reply
            assert sock.recv(4096) == b""  # connection was closed

    def test_mid_request_stall_closes_without_reply(self, slow_client_server):
        # A client that stalls *mid* request line cannot be answered
        # safely (the 408 would corrupt a byte stream the client thinks
        # it owns); the connection is just closed.
        with socket.create_connection(slow_client_server, timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(b"GET /heal")
            assert sock.recv(4096) == b""

    def test_prompt_requests_are_unaffected(self, slow_client_server):
        host, port = slow_client_server
        status, body = get_json(f"http://{host}:{port}/health")
        assert status == 200
        assert body["status"] == "ok"


@pytest.fixture(scope="module")
def coordinator_server(figure1_graph):
    engine = _tiny_engine(figure1_graph)
    coordinator = Coordinator.build(
        engine, ServingConfig(num_shards=2, transport="inline")
    )
    server = make_server(coordinator, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", coordinator, engine
    server.shutdown()
    server.server_close()
    coordinator.close()


class TestCoordinatorEndpoints:
    def test_health_exposes_serving_counters(self, coordinator_server):
        url, _, _ = coordinator_server
        status, body = get_json(f"{url}/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["indexed"] == 2
        assert body["live_workers"] == 2
        for key in ("queries", "degraded_queries", "partial_queries",
                    "shed_queries"):
            assert body[key] >= 0

    def test_search_matches_single_engine(self, coordinator_server):
        url, _, engine = coordinator_server
        status, body = get_json(f"{url}/search?q=Taliban+in+Pakistan&k=2")
        assert status == 200
        assert body["partial"] is False
        assert "failed_shards" not in body
        want = engine.search("Taliban in Pakistan", k=2)
        got = [(r["doc_id"], r["score"]) for r in body["results"]]
        assert got == [(r.doc_id, r.score) for r in want]

    def test_shard_lost_in_snippet_stage_is_partial_not_503(
        self, coordinator_server
    ):
        url, coordinator, engine = coordinator_server
        # Inline shards fire the point once per shard request: hits 1-2
        # are the ranking scatter, hit 3 is shard 0's snippet request.
        faults.arm(
            "serving.worker_request",
            exception=RuntimeError("injected snippet failure"),
            nth=3,
            times=1,
        )
        try:
            status, body = get_json(f"{url}/search?q=Taliban+in+Pakistan&k=2")
        finally:
            faults.reset()
        assert status == 200
        assert body["partial"] is True
        assert body["failed_shards"] == [0]
        want = engine.search("Taliban in Pakistan", k=2)
        got = [(r["doc_id"], r["score"]) for r in body["results"]]
        assert got == [(r.doc_id, r.score) for r in want]
        owners = {r["doc_id"]: coordinator.plan.shard_of(r["doc_id"])
                  for r in body["results"]}
        assert sorted(owners.values()) == [0, 1]
        for result in body["results"]:
            if owners[result["doc_id"]] == 0:
                assert result["snippet"] == ""
            else:
                assert "**Taliban**" in result["snippet"]
        # The next request is whole again.
        status, body = get_json(f"{url}/search?q=Taliban+in+Pakistan&k=2")
        assert status == 200
        assert body["partial"] is False
        assert "failed_shards" not in body
        assert all("**Taliban**" in r["snippet"] for r in body["results"])

    def test_document_and_explain_route_to_the_owning_shard(
        self, coordinator_server
    ):
        url, _, _ = coordinator_server
        status, body = get_json(f"{url}/document?id=t_q")
        assert status == 200
        assert body["text"].startswith("Pakistan fought")
        status, body = get_json(f"{url}/explain?q=Taliban+attack&doc=t_r")
        assert status == 200
        assert "Taliban" in body["shared_entities"]
        status, _ = get_json(f"{url}/document?id=zzz")
        assert status == 404

    def test_stats_carries_a_serving_section(self, coordinator_server):
        url, coordinator, _ = coordinator_server
        get_json(f"{url}/search?q=Taliban+Lahore&k=2")
        status, body = get_json(f"{url}/stats")
        assert status == 200
        serving = body["serving"]
        assert serving["num_shards"] == 2
        assert serving["transport"] == "inline"
        assert sum(serving["doc_counts"]) == 2
        assert serving["queries"] >= 1
        assert "admission" in serving
        # Folded shard counters: each logical query ranks on every shard.
        assert body["query_stats"]["queries"] >= 2

    def test_metrics_scrape_is_valid_and_folded(self, coordinator_server):
        url, _, _ = coordinator_server
        get_json(f"{url}/search?q=Taliban+Peshawar&k=2")
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            assert response.status == 200
            metrics = validate_prometheus_text(response.read().decode("utf-8"))
        assert "newslink_queries_total" in metrics
        assert "newslink_serving_requests_total" in metrics
        assert "newslink_serving_latency_seconds" in metrics

    def test_shed_query_returns_429_with_retry_after(self, figure1_graph):
        engine = _tiny_engine(figure1_graph)
        coordinator = Coordinator.build(
            engine,
            ServingConfig(
                num_shards=2, transport="inline", max_inflight=1, max_queue=0
            ),
        )
        server = make_server(coordinator, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        try:
            coordinator.admission.acquire()  # hold the only slot
            try:
                with urllib.request.urlopen(
                    f"{url}/search?q=Taliban", timeout=5
                ):
                    raise AssertionError("expected HTTP 429")
            except urllib.error.HTTPError as error:
                assert error.code == 429
                assert error.headers["Retry-After"] == "1"
                body = json.loads(error.read())
                assert body["reason"] == "queue_full"
            coordinator.admission.release()
            status, _ = get_json(f"{url}/search?q=Taliban")
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()
            coordinator.close()


class TestGracefulShutdown:
    def test_inflight_request_drains_before_close(self, figure1_graph):
        # A request already past accept() must get its 200 before
        # shutdown_gracefully returns — handler threads are non-daemon
        # and joined by server_close().
        engine = _tiny_engine(figure1_graph)
        server = make_server(engine, port=0)
        accept_loop = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        accept_loop.start()
        host, port = server.server_address[:2]
        faults.arm("engine.embed_query", delay=0.5)
        outcome: list[tuple[int, dict]] = []

        def slow_request() -> None:
            outcome.append(
                get_json(f"http://{host}:{port}/search?q=Peshawar+riots+slow")
            )

        try:
            client = threading.Thread(target=slow_request)
            client.start()
            time.sleep(0.15)  # let the request reach the engine
            shutdown_gracefully(server, engine)
            client.join(timeout=5)
            assert outcome, "request was dropped during shutdown"
            status, body = outcome[0]
            assert status == 200
            assert body["results"]
        finally:
            faults.reset()
            accept_loop.join(timeout=5)

    def test_sigterm_drains_and_terminates_workers(self, tmp_path):
        # End-to-end: CLI serve with forked shard workers, SIGTERM, exit
        # 0, and no orphaned worker processes left behind.
        from repro.cli import main

        directory = tmp_path / "dataset"
        assert main(
            ["generate", str(directory), "--scale", "0.1"]
        ) == 0
        assert main(["index", str(directory)]) == 0

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(directory),
                "--port", "0", "--shards", "2", "--shard-workers", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            port = None
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    port = int(line.rsplit(":", 1)[1])
                    break
            assert port is not None, "server never reported its port"
            status, body = get_json(f"http://127.0.0.1:{port}/health")
            assert status == 200
            assert body["live_workers"] == 2

            proc.send_signal(signal.SIGTERM)
            remaining, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained and stopped" in remaining
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup only
                proc.kill()
                proc.communicate(timeout=10)
        # Forked workers share the parent's argv: any survivor would
        # still mention the dataset directory in /proc/*/cmdline.
        for entry in os.listdir("/proc"):
            if not entry.isdigit() or int(entry) == os.getpid():
                continue
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue
            assert str(directory).encode() not in cmdline, (
                f"orphaned serving process {entry}"
            )


def post_json(url: str) -> tuple[int, dict]:
    request = urllib.request.Request(url, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def personalized_server(figure1_graph):
    """Engine-backed server with sessions *and* profiles enabled."""
    from repro.personalize import ProfileStore
    from repro.server import PersonalizationState

    engine = NewsLinkEngine(figure1_graph, registry=MetricsRegistry())
    engine.index_corpus(
        Corpus(
            [
                NewsDocument(
                    "p_border",
                    "Pakistan security forces increase patrols near Khyber.",
                ),
                NewsDocument("p_lahore", "Protests continue in Lahore streets."),
                NewsDocument(
                    "p_swat", "Pakistan sends aid after floods in Swat Valley."
                ),
            ]
        )
    )
    state = PersonalizationState(profiles=ProfileStore())
    server = make_server(engine, port=0, personalization=state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()


class TestSessionFlow:
    """End-to-end conversational search: create, follow-ups, reset."""

    def test_full_session_lifecycle(self, personalized_server):
        url = personalized_server
        status, body = post_json(f"{url}/session")
        assert status == 200
        sid = body["session_id"]

        # Anonymous baseline for the re-anchored query below.
        status, anonymous = get_json(f"{url}/search?q=Pakistan+security&k=5")
        assert status == 200
        anonymous_ids = [r["doc_id"] for r in anonymous["results"]]
        assert "p_lahore" not in anonymous_ids  # no text/entity overlap

        # Turn 1: an empty session must not change the ranking.
        status, first = get_json(
            f"{url}/search?q=Taliban+attack+in+Khyber&k=5&session={sid}"
        )
        assert status == 200
        assert first["personalized"] is False
        assert first["session"] == {"id": sid, "turns": 1, "advanced": True}

        # Turns 2 and 3: the conversation wanders to Lahore.
        for turn_query in ("Protests+in+Lahore", "Lahore+unrest"):
            status, body = get_json(
                f"{url}/search?q={turn_query}&k=5&session={sid}"
            )
            assert status == 200
        status, info = get_json(f"{url}/session?id={sid}")
        assert status == 200
        assert info["turns"] == 3

        # Turn 4 re-anchors "Pakistan security" on the accumulated
        # context: the Lahore document now surfaces through the
        # context channel even though the query text never matched it.
        status, personalized = get_json(
            f"{url}/search?q=Pakistan+security&k=5&session={sid}"
        )
        assert status == 200
        assert personalized["personalized"] is True
        by_id = {r["doc_id"]: r for r in personalized["results"]}
        assert "p_lahore" in by_id
        assert by_id["p_lahore"]["profile_score"] > 0.0
        assert [r["doc_id"] for r in personalized["results"]] != anonymous_ids

        # Reset forgets the context; ranking returns to anonymous.
        status, body = post_json(f"{url}/session/reset?id={sid}")
        assert status == 200
        assert body["turns"] == 0
        status, after_reset = get_json(
            f"{url}/search?q=Pakistan+security&k=5&session={sid}"
        )
        assert status == 200
        assert after_reset["personalized"] is False
        assert [r["doc_id"] for r in after_reset["results"]] == anonymous_ids

    def test_unknown_session_is_404(self, personalized_server):
        url = personalized_server
        for endpoint in (
            "/search?q=Pakistan&session=s999999",
            "/session?id=s999999",
        ):
            status, body = get_json(f"{url}{endpoint}")
            assert status == 404
            assert "unknown session" in body["error"]
        status, body = post_json(f"{url}/session/reset?id=s999999")
        assert status == 404

    def test_session_info_requires_id(self, personalized_server):
        status, body = get_json(f"{personalized_server}/session")
        assert status == 400

    def test_explain_with_session_context(self, personalized_server):
        url = personalized_server
        _, body = post_json(f"{url}/session")
        sid = body["session_id"]
        get_json(f"{url}/search?q=Protests+in+Lahore&session={sid}")
        get_json(f"{url}/search?q=Pakistan+security&session={sid}")
        status, body = get_json(
            f"{url}/explain?q=Pakistan+security&doc=p_lahore&session={sid}"
        )
        assert status == 200
        assert body["session"] == sid
        # The dialogue embedding carries the Lahore turn's entities.
        assert any("Lahore" in label for label in body["shared_entities"])


class TestProfileEndpoints:
    def test_click_then_personalized_search(self, personalized_server):
        url = personalized_server
        status, body = post_json(f"{url}/click?user=alice&doc=p_lahore")
        assert status == 200
        assert body["clicks"] == 1
        status, body = get_json(
            f"{url}/search?q=Pakistan+security&k=5&user=alice"
        )
        assert status == 200
        assert body["personalized"] is True
        by_id = {r["doc_id"]: r for r in body["results"]}
        assert "p_lahore" in by_id
        assert by_id["p_lahore"]["profile_score"] > 0.0

    def test_gamma_zero_disables_the_channel(self, personalized_server):
        url = personalized_server
        post_json(f"{url}/click?user=bob&doc=p_lahore")
        _, anonymous = get_json(f"{url}/search?q=Pakistan+security&k=5")
        status, body = get_json(
            f"{url}/search?q=Pakistan+security&k=5&user=bob&gamma=0"
        )
        assert status == 200
        assert body["personalized"] is False
        assert body["results"] == anonymous["results"]

    def test_click_unknown_document_is_404(self, personalized_server):
        status, body = post_json(
            f"{personalized_server}/click?user=alice&doc=nope"
        )
        assert status == 404

    def test_click_requires_user_and_doc(self, personalized_server):
        status, _ = post_json(f"{personalized_server}/click?user=alice")
        assert status == 400

    def test_invalid_gamma_is_400(self, personalized_server):
        status, body = get_json(
            f"{personalized_server}/search?q=Pakistan&user=alice&gamma=2.0"
        )
        assert status == 400
        assert "gamma" in body["error"]

    def test_profile_load_fault_surfaces_as_500(self, personalized_server):
        url = personalized_server
        faults.reset()
        try:
            with faults.injected("session.profile_load"):
                status, body = get_json(
                    f"{url}/search?q=Pakistan&user=carol"
                )
                assert status == 500
                assert "session.profile_load" in body["error"]
        finally:
            faults.reset()
        # The outage did not poison the store: carol works afterwards.
        status, _ = get_json(f"{url}/search?q=Pakistan&user=carol")
        assert status == 200

    def test_stats_and_metrics_expose_the_stores(self, personalized_server):
        url = personalized_server
        status, body = get_json(f"{url}/stats")
        assert status == 200
        personalization = body["personalization"]
        assert personalization["sessions"]["created"] >= 1
        assert personalization["profiles"]["created"] >= 1
        assert personalization["default_gamma"] == pytest.approx(0.35)
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as response:
            metrics = validate_prometheus_text(response.read().decode("utf-8"))
        assert "newslink_sessions_active" in metrics
        assert "newslink_profiles_active" in metrics

    def test_user_without_profiles_enabled_is_400(self, figure1_graph):
        engine = _tiny_engine(figure1_graph)
        server = make_server(engine, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            status, body = get_json(
                f"http://{host}:{port}/search?q=Pakistan&user=alice"
            )
            assert status == 400
            assert "--profiles" in body["error"]
        finally:
            server.shutdown()

    def test_user_on_coordinator_is_400(self, coordinator_server):
        url, _, _ = coordinator_server
        status, body = get_json(f"{url}/search?q=Pakistan&user=alice")
        assert status == 400
        assert "single-engine" in body["error"]

    def test_sessions_work_on_the_coordinator(self, coordinator_server):
        url, _, _ = coordinator_server
        status, body = post_json(f"{url}/session")
        assert status == 200
        sid = body["session_id"]
        status, body = get_json(
            f"{url}/search?q=Taliban+in+Pakistan&k=2&session={sid}"
        )
        assert status == 200
        assert body["session"]["turns"] == 1
