"""The closed-loop HTTP load generator (the only one: this process).

``CLIENTS`` threads each keep one connection's worth of work in flight:
the next request is sent only after the previous reply was read in
full.  A connection is reused while the server allows it and reopened
when the server closes it, so ``connects_per_request`` shows what the
server's HTTP version costs.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple
from urllib.parse import urlencode

from benchmarks.harness.spec import TOP_K
from benchmarks.harness.stats import Span
from benchmarks.harness.traces import Query
from benchmarks.harness.tracing import REQUEST_HEADER

CLIENTS = 2  # = nproc on the reference host
HOST = "127.0.0.1"
SOCKET_TIMEOUT_S = 30.0

#: (doc_id, score, bow_score, bon_score) per result, in rank order.
Ranking = tuple[tuple[str, float, float, float], ...]


class Reply(NamedTuple):
    query: Query
    ranking: Ranking
    latency_s: float


@dataclass
class LoadReport:
    """What one closed-loop phase saw."""

    attempted: int = 0
    replies: list[Reply] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    connects: int = 0
    elapsed_s: float = 0.0
    response_bytes: list[int] = field(default_factory=list)
    overhead_s: list[float] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        return [1000.0 * reply.latency_s for reply in self.replies]

    @property
    def failed(self) -> int:
        return len(self.failures)


def ranking_of(results: list[dict]) -> Ranking:
    return tuple(
        (r["doc_id"], r["score"], r["bow_score"], r["bon_score"]) for r in results
    )


def check_reply(status: int, body: bytes) -> tuple[Ranking | None, str]:
    """``(ranking, "")`` for a usable reply, ``(None, reason)`` otherwise.

    Non-200 (shed, bad request, outage), degraded, partial and empty
    replies all fail: they miss every latency figure.
    """
    if status != 200:
        return None, f"status {status}"
    payload = json.loads(body)
    if payload.get("degraded"):
        return None, "degraded"
    if payload.get("partial"):
        return None, "partial"
    if not payload.get("results"):
        return None, "no results"
    return ranking_of(payload["results"]), ""


def http_get(port: int, path: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection(HOST, port, timeout=SOCKET_TIMEOUT_S)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_load(
    port: int,
    source: Callable[[], Query | None],
    *,
    seconds: float | None = None,
    clients: int = CLIENTS,
    label: str = "r",
    stop: threading.Event | None = None,
) -> LoadReport:
    """Drive ``clients`` closed-loop threads until ``source`` returns None,
    ``seconds`` elapse, or ``stop`` is set — whichever comes first."""
    report = LoadReport()
    lock = threading.Lock()
    ids = itertools.count(1)
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def worker() -> None:
        connection: http.client.HTTPConnection | None = None
        try:
            while True:
                if deadline is not None and time.perf_counter() >= deadline:
                    return
                if stop is not None and stop.is_set():
                    return
                loop_start = time.perf_counter()
                query = source()
                if query is None:
                    return
                request_id = f"{label}{next(ids)}"
                path = "/search?" + urlencode({"q": query.text, "k": TOP_K})
                connected = 0
                send = time.perf_counter()
                try:
                    if connection is None:
                        connection = http.client.HTTPConnection(
                            HOST, port, timeout=SOCKET_TIMEOUT_S
                        )
                        connection.connect()
                        connected = 1
                    connection.request(
                        "GET", path, headers={REQUEST_HEADER: request_id}
                    )
                    response = connection.getresponse()
                    body = response.read()
                    done = time.perf_counter()
                    status = response.status
                    if response.will_close:
                        connection.close()
                        connection = None
                except (OSError, http.client.HTTPException) as exc:
                    if connection is not None:
                        connection.close()
                        connection = None
                    with lock:
                        report.attempted += 1
                        report.connects += connected
                        report.failures.append(f"{type(exc).__name__}: {exc}")
                    continue
                ranking, reason = check_reply(status, body)
                finished = time.perf_counter()
                with lock:
                    report.attempted += 1
                    report.connects += connected
                    report.response_bytes.append(len(body))
                    report.overhead_s.append(
                        (finished - loop_start) - (done - send)
                    )
                    report.spans.append(
                        Span(0, 0, "client.request", request_id, send, done)
                    )
                    if ranking is None:
                        report.failures.append(f"{reason}: {query.text[:60]!r}")
                    else:
                        report.replies.append(Reply(query, ranking, done - send))
        finally:
            if connection is not None:
                connection.close()

    threads = [
        threading.Thread(target=worker, name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.elapsed_s = time.perf_counter() - started
    return report


def replay(port: int, queries: list[Query], clients: int = CLIENTS) -> LoadReport:
    """Send each of ``queries`` once (warm-up passes and oracle gates)."""
    iterator = iter(queries)
    lock = threading.Lock()

    def source() -> Query | None:
        with lock:
            return next(iterator, None)

    return run_load(port, source, clients=clients, label="g")
