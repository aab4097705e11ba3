"""A dependency-free HTTP API over an indexed engine or a coordinator.

The paper positions NewsLink as easy to integrate "with most existing
search systems, such as ElasticSearch and Lucene"; this module gives the
engine the corresponding service surface using only the standard library:

* ``GET /health``                         — liveness, index size, degradation counters
* ``GET /search?q=...&k=5&beta=0.2``      — ranked results with snippets
  (``k`` between 1 and :data:`MAX_K`; ``deadline_ms=50`` bounds the
  query; expired queries come back ``degraded`` instead of failing).  Personalization rides along:
  ``session=<id>`` re-anchors the query on the conversation so far and
  advances the session; ``user=<id>`` blends the user's click-history
  profile (single-engine serving only); ``gamma=`` overrides the
  context-channel weight (defaults to :data:`DEFAULT_GAMMA` whenever a
  session or user is given, 0 otherwise)
* ``GET /explain?q=...&doc=<doc_id>``     — shared entities + paths
  (``session=<id>`` renders them against the whole conversation's
  subgraph — dialogue-style explanations)
* ``GET /document?id=<doc_id>``           — the stored raw text
* ``POST /session``                       — mint a conversational session
* ``GET /session?id=<sid>``               — session diagnostics
* ``POST /session/reset?id=<sid>``        — forget accumulated context
* ``POST /click?user=<uid>&doc=<doc_id>`` — fold a clicked document's
  subgraph into the user's profile (single-engine serving only)
* ``GET /metrics``                        — Prometheus text exposition
  (the unified registry: latency histograms, cache hit/miss, degraded
  and G* counters; see ``docs/observability.md``)
* ``GET /stats``                          — the same registry as JSON,
  plus the raw stats silos and the most recent query traces

The ``target`` may be a single :class:`NewsLinkEngine` or a sharded
:class:`~repro.serving.coordinator.Coordinator` — the endpoints are the
same; a coordinator additionally reports ``partial`` results and
answers 429 when admission control sheds a query (see
``docs/serving.md``).

Error mapping: client mistakes (bad parameters, malformed values,
configuration/data errors) are 400, unknown documents are 404, shed
queries are 429, a shard outage on a routed request is 503, an idle
connection that never sends its request line is 408, and any unexpected
server-side failure is a 500 with a JSON body — the handler never lets
an exception escape as a bare connection reset.

Responses are JSON.  Start with::

    from repro.server import serve
    serve(engine, port=8080)            # blocks; SIGTERM/SIGINT drain

or create a server via :func:`make_server` to manage the lifecycle
yourself (the tests do this).  :func:`make_server` returns a
:class:`NewsLinkHTTPServer` whose ``server_close`` *drains*: handler
threads are non-daemon and joined, so no request is cut off mid-reply.
"""

from __future__ import annotations

import contextlib
import json
import select
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    ConfigError,
    DataError,
    DocumentNotIndexedError,
    OverloadShedError,
    ReproError,
    ShardFailedError,
)
from repro.obs import (
    PROMETHEUS_CONTENT_TYPE,
    PersonalizationInstruments,
    render_json,
    render_prometheus,
)
from repro.personalize import ProfileStore, SessionStore
from repro.search.engine import NewsLinkEngine

#: Default seconds an accepted connection may idle before its request
#: line arrives; beyond it the server answers 408 and closes.  Also the
#: socket timeout covering mid-request stalls (closed without a reply —
#: once bytes went missing mid-stream there is no safe write to make).
REQUEST_TIMEOUT_S = 30.0

#: Context-channel weight applied when ``/search`` carries a session or
#: user but no explicit ``gamma=``.  Strong enough to re-rank on shared
#: context, weak enough that the query's own two channels still dominate.
DEFAULT_GAMMA = 0.35

#: Largest ``k`` ``/search`` accepts.  Every hit costs a snippet
#: extraction under the engine lock, so an unbounded ``k`` would let one
#: request walk the whole corpus.
MAX_K = 100


def _is_coordinator(target: object) -> bool:
    """Duck-typed: a sharded coordinator (vs a single engine)."""
    return hasattr(target, "search_detailed")


def _search_payload(target, params: dict, personalization) -> dict:
    query = params.get("q", [""])[0]
    if not query:
        raise _BadRequest("missing required parameter: q")
    k = int(params.get("k", ["10"])[0])
    if not 1 <= k <= MAX_K:
        raise _BadRequest(f"k must be between 1 and {MAX_K}")
    beta_values = params.get("beta")
    beta = float(beta_values[0]) if beta_values else None
    deadline_values = params.get("deadline_ms")
    deadline_ms = float(deadline_values[0]) if deadline_values else None
    if deadline_ms is not None and deadline_ms <= 0:
        raise _BadRequest("deadline_ms must be positive")
    session_values = params.get("session")
    session = (
        personalization.session(session_values[0]) if session_values else None
    )
    user_values = params.get("user")
    profile = (
        personalization.profile(target, user_values[0])
        if user_values
        else None
    )
    gamma_values = params.get("gamma")
    gamma = float(gamma_values[0]) if gamma_values else None
    if gamma is None and (session is not None or profile is not None):
        gamma = personalization.default_gamma
    # Captured *before* the search advances the session: "personalized"
    # mirrors the engine's gate for THIS query — a context channel only
    # engages when gamma is positive and the profile/session had terms.
    has_context = bool(
        (profile is not None and profile.bon_terms())
        or (session is not None and session.bon_terms())
    )
    partial = False
    failed_shards: tuple[int, ...] = ()
    if _is_coordinator(target):
        outcome = target.search_detailed(
            query,
            k,
            beta=beta,
            deadline_ms=deadline_ms,
            profile=profile,
            session=session,
            gamma=gamma,
            advance_session=session is not None,
        )
        results = outcome.results
        # A shard lost while extracting costs its hits their snippets,
        # not the client the ranked reply.
        snippets, lost = target.snippets_detailed(
            query, [result.doc_id for result in results]
        )
        failed_shards = tuple(sorted({*outcome.failed_shards, *lost}))
        partial = bool(failed_shards)
    else:
        results = target.search(
            query,
            k=k,
            beta=beta,
            deadline_ms=deadline_ms,
            profile=profile,
            session=session,
            gamma=gamma,
            advance_session=session is not None,
        )
        snippets = target.snippets(
            query, [result.doc_id for result in results]
        )
    degraded = bool(results) and results[0].degraded
    payload = []
    for rank, (result, snippet) in enumerate(zip(results, snippets), start=1):
        payload.append(
            {
                "rank": rank,
                "doc_id": result.doc_id,
                "score": result.score,
                "bow_score": result.bow_score,
                "bon_score": result.bon_score,
                "profile_score": result.profile_score,
                "degraded": result.degraded,
                "snippet": snippet.text,
            }
        )
    body = {"query": query, "k": k, "degraded": degraded, "results": payload}
    body["personalized"] = bool(
        gamma is not None and gamma > 0.0 and has_context and not degraded
    )
    if session is not None:
        body["session"] = {
            "id": session.session_id,
            "turns": session.num_turns,
            "advanced": not degraded,
        }
    if degraded:
        body["degraded_reason"] = results[0].degraded_reason
    if _is_coordinator(target):
        body["partial"] = partial
        if partial:
            body["failed_shards"] = list(failed_shards)
    return body


def _explain_payload(target, params: dict, personalization) -> dict:
    query = params.get("q", [""])[0]
    doc_id = params.get("doc", [""])[0]
    if not query or not doc_id:
        raise _BadRequest("missing required parameters: q and doc")
    session_values = params.get("session")
    query_embedding = None
    session_id = None
    if session_values:
        # Dialogue-style explanation: LCAG paths are rendered against
        # the conversation's accumulated subgraph (which, after a
        # session search, already contains the current query's turn),
        # so the connections explain the whole thread of questions.
        session = personalization.session(session_values[0])
        session_id = session.session_id
        if session.num_turns:
            query_embedding = session.dialogue_embedding()
    explanation = target.explanation(
        query, doc_id, query_embedding=query_embedding
    )
    body = {
        "query": query,
        "doc_id": doc_id,
        "shared_entities": list(explanation.shared_entity_labels),
        "paths": explanation.lines()[len(explanation.shared_entity_labels):],
        "novelty": explanation.novelty,
        "total_nodes": explanation.total_nodes,
    }
    if session_id is not None:
        body["session"] = session_id
    return body


def _session_info_payload(personalization, params: dict) -> dict:
    session_id = params.get("id", [""])[0]
    if not session_id:
        raise _BadRequest("missing required parameter: id")
    return personalization.session(session_id).as_dict()


def _session_create_payload(personalization) -> dict:
    session = personalization.sessions.create()
    return {"session_id": session.session_id}


def _session_reset_payload(personalization, params: dict) -> dict:
    session_id = params.get("id", [""])[0]
    if not session_id:
        raise _BadRequest("missing required parameter: id")
    session = personalization.session(session_id)
    session.reset()
    return session.as_dict()


def _click_payload(target, params: dict, personalization) -> dict:
    user_id = params.get("user", [""])[0]
    doc_id = params.get("doc", [""])[0]
    if not user_id or not doc_id:
        raise _BadRequest("missing required parameters: user and doc")
    profile = personalization.profile(target, user_id)
    # Raises DocumentNotIndexedError (mapped to 404) for unknown docs,
    # so a bad click can never poison the profile.
    embedding = target.embedding(doc_id)
    profile.record_click(doc_id, embedding)
    return profile.as_dict()


def _document_payload(target, params: dict) -> dict:
    doc_id = params.get("id", [""])[0]
    if not doc_id:
        raise _BadRequest("missing required parameter: id")
    return {"doc_id": doc_id, "text": target.document_text(doc_id)}


def _health_payload(target, ingest=None, personalization=None) -> dict:
    if _is_coordinator(target):
        body = {
            "status": "ok",
            "indexed": target.num_indexed,
            "queries": target.serving_stats.queries,
            "degraded_queries": target.serving_stats.degraded_queries,
            "partial_queries": target.serving_stats.partial_queries,
            "shed_queries": target.serving_stats.shed_queries,
            "live_workers": target.shard_group.live_workers(),
        }
    else:
        stats = target.query_stats
        body = {
            "status": "ok",
            "indexed": target.num_indexed,
            "queries": stats.queries,
            "degraded_queries": stats.degraded_queries,
            "fallback_queries": stats.fallback_queries,
        }
    if ingest is not None:
        body["ingest"] = {
            name: state.breaker.state
            for name, state in ingest.source_states.items()
        }
    if personalization is not None:
        body["sessions"] = len(personalization.sessions)
        if personalization.profiles is not None:
            body["profiles"] = len(personalization.profiles)
    return body


def _stats_payload(target, ingest=None, personalization=None) -> dict:
    """The registry plus the raw stats silos as one JSON document."""
    if _is_coordinator(target):
        body = target.stats_payload()
        if personalization is not None:
            body["personalization"] = personalization.stats_payload()
        return body
    snapshot = target.metrics_registry.snapshot()
    body: dict = {
        "indexed": target.num_indexed,
        "query_stats": target.query_stats.as_dict(),
        "search_stats": target.search_stats.as_dict(),
        "metrics": render_json(snapshot),
        "traces": target.observability.tracer.records(),
    }
    cache = target.cache_stats
    if cache is not None:
        body["segment_cache"] = cache.as_dict()
    report = target.last_index_report
    if report is not None:
        body["index_report"] = report.as_dict()
    load_info = target.last_load_info
    if load_info is not None:
        body["index"] = load_info
    if ingest is not None:
        body["ingest"] = ingest.stats_payload()
    if personalization is not None:
        body["personalization"] = personalization.stats_payload()
    return body


def _metrics_snapshot(target) -> dict:
    if _is_coordinator(target):
        return target.metrics_snapshot()
    return target.metrics_registry.snapshot()


class _BadRequest(Exception):
    pass


class _NotFound(Exception):
    pass


class PersonalizationState:
    """Server-side conversational + per-user search state.

    Sessions are always available — they live entirely on the frontend
    (accumulated *query* subgraphs), so they work identically against a
    single engine and a sharded coordinator.  Profiles additionally need
    per-document embeddings to fold clicks in, and the coordinator
    frontend is document-free, so the profile store exists only under
    single-engine serving (the CLI's ``--profiles`` flag).
    """

    def __init__(
        self,
        sessions: SessionStore | None = None,
        profiles: ProfileStore | None = None,
        default_gamma: float = DEFAULT_GAMMA,
    ) -> None:
        self.sessions = sessions if sessions is not None else SessionStore()
        self.profiles = profiles
        self.default_gamma = default_gamma
        self._instruments: PersonalizationInstruments | None = None

    def bind_instruments(self, registry) -> None:
        """Export the stores' counters through ``registry`` (idempotent)."""
        if self._instruments is not None:
            return
        instruments = PersonalizationInstruments(registry)
        instruments.bind(self.sessions, self.profiles)
        self._instruments = instruments

    def session(self, session_id: str):
        """A live session by id; 404s when unknown or evicted."""
        session = self.sessions.get(session_id)
        if session is None:
            raise _NotFound(f"unknown session: {session_id}")
        return session

    def profile(self, target, user_id: str):
        """The user's profile; 400s when profiles cannot serve here."""
        if _is_coordinator(target):
            raise _BadRequest(
                "user profiles require single-engine serving: the "
                "coordinator frontend is document-free and cannot fold "
                "clicked documents into a profile"
            )
        if self.profiles is None:
            raise _BadRequest(
                "user profiles are not enabled on this server "
                "(start it with --profiles)"
            )
        return self.profiles.get(user_id)

    def stats_payload(self) -> dict:
        body: dict = {
            "default_gamma": self.default_gamma,
            "sessions": self.sessions.snapshot(),
        }
        if self.profiles is not None:
            body["profiles"] = self.profiles.snapshot()
        return body


class NewsLinkHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server whose ``server_close`` **drains**.

    ``ThreadingHTTPServer`` defaults to daemon handler threads, so a
    process exiting right after ``server_close()`` kills requests
    mid-reply.  Handler threads here are non-daemon and joined on close
    (``block_on_close``): stop accepting first (``shutdown()``), then
    ``server_close()`` returns only once every in-flight request has
    been answered.
    """

    daemon_threads = False
    block_on_close = True


def make_handler(
    target,
    request_timeout: float = REQUEST_TIMEOUT_S,
    ingest=None,
    personalization: PersonalizationState | None = None,
) -> type[BaseHTTPRequestHandler]:
    """A request-handler class bound to ``target`` (engine or coordinator).

    With an attached :class:`~repro.ingest.IngestPipeline`, every request
    serializes against its ``engine_lock`` — the ingest thread mutates
    the same engine between requests, never during one — and ``/stats``
    and ``/health`` grow an ``ingest`` section (WAL, DLQ, per-source
    breaker health, freshness percentiles).

    ``personalization`` defaults to a fresh :class:`PersonalizationState`
    with sessions only; pass one with a :class:`ProfileStore` to enable
    per-user profiles (single-engine serving).  Its store counters are
    bound into the target's metrics registry so ``/metrics`` exports the
    ``newslink_session_*`` / ``newslink_profile_*`` series.
    """
    if personalization is None:
        personalization = PersonalizationState()
    registry = (
        target.frontend.metrics_registry
        if _is_coordinator(target)
        else target.metrics_registry
    )
    personalization.bind_instruments(registry)

    class NewsLinkHandler(BaseHTTPRequestHandler):
        # Socket timeout for mid-request stalls: a client that goes
        # silent *after* starting its request gets the connection closed
        # (no reply is safe once a read timed out mid-stream).
        timeout = request_timeout

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass  # keep tests/CLIs quiet; override for access logs

        def handle_one_request(self) -> None:
            """408 for connections that idle before sending a request.

            The base class swallows its socket-timeout internally and
            closes without a word; polling *before* the first read lets
            the server tell an idle client explicitly that it was too
            slow — distinguishable (and testable) client error, not a
            silent reset.  No bytes have been read yet, so writing a
            response here is always safe.
            """
            ready, _, _ = select.select(
                [self.connection], [], [], request_timeout
            )
            if not ready:
                body = json.dumps(
                    {"error": f"request timeout after {request_timeout}s"}
                ).encode("utf-8")
                try:
                    self.wfile.write(
                        b"HTTP/1.1 408 Request Timeout\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
                        b"Connection: close\r\n\r\n" + body
                    )
                    self.wfile.flush()
                except (BrokenPipeError, OSError):
                    pass  # client gave up first; nothing to tell it
                self.close_connection = True
                return
            super().handle_one_request()

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 (http.server API)
            self._dispatch("POST")

        def _route(self, method: str, path: str, params: dict):
            """Payload for one request; None when already replied."""
            if method == "GET":
                if path == "/health":
                    return _health_payload(target, ingest, personalization)
                if path == "/search":
                    return _search_payload(target, params, personalization)
                if path == "/explain":
                    return _explain_payload(target, params, personalization)
                if path == "/document":
                    return _document_payload(target, params)
                if path == "/session":
                    return _session_info_payload(personalization, params)
                if path == "/metrics":
                    self._reply_text(
                        200,
                        render_prometheus(_metrics_snapshot(target)),
                        PROMETHEUS_CONTENT_TYPE,
                    )
                    return None
                if path == "/stats":
                    return _stats_payload(target, ingest, personalization)
            elif method == "POST":
                if path == "/session":
                    return _session_create_payload(personalization)
                if path == "/session/reset":
                    return _session_reset_payload(personalization, params)
                if path == "/click":
                    return _click_payload(target, params, personalization)
            self._reply(
                404, {"error": f"unknown path {path} for {method}"}
            )
            return None

        def _dispatch(self, method: str) -> None:
            parsed = urlparse(self.path)
            params = parse_qs(parsed.query)
            guard = (
                ingest.engine_lock
                if ingest is not None
                else contextlib.nullcontext()
            )
            try:
                with guard:
                    body = self._route(method, parsed.path, params)
                    if body is None:
                        return
            except _BadRequest as exc:
                self._reply(400, {"error": str(exc)})
                return
            except (_NotFound, DocumentNotIndexedError) as exc:
                self._reply(404, {"error": str(exc)})
                return
            except OverloadShedError as exc:
                # Shedding is the overload policy working as designed:
                # tell the client to back off and retry.
                self._reply(
                    429,
                    {"error": str(exc), "reason": exc.reason},
                    extra_headers=(("Retry-After", "1"),),
                )
                return
            except ShardFailedError as exc:
                # A routed single-document request (document/explain)
                # lost its shard: temporarily unavailable.
                self._reply(
                    503, {"error": str(exc), "shard": exc.shard_id}
                )
                return
            except (ValueError, ConfigError, DataError) as exc:
                # The client sent something the engine rejects: malformed
                # numbers, bad ranking names, invalid parameter values.
                self._reply(400, {"error": str(exc)})
                return
            except ReproError as exc:
                # The request was well-formed but serving it failed —
                # that is the server's fault, not the client's.
                self._reply(
                    500, {"error": str(exc), "type": type(exc).__name__}
                )
                return
            except Exception as exc:  # noqa: BLE001 - hardening boundary
                self._reply(
                    500,
                    {
                        "error": f"internal server error: {exc}",
                        "type": type(exc).__name__,
                    },
                )
                return
            self._reply(200, body)

        def _reply(
            self,
            status: int,
            body: dict,
            extra_headers: tuple[tuple[str, str], ...] = (),
        ) -> None:
            data = json.dumps(body).encode("utf-8")
            self._reply_bytes(
                status, data, "application/json", extra_headers
            )

        def _reply_text(
            self, status: int, text: str, content_type: str
        ) -> None:
            self._reply_bytes(status, text.encode("utf-8"), content_type)

        def _reply_bytes(
            self,
            status: int,
            data: bytes,
            content_type: str,
            extra_headers: tuple[tuple[str, str], ...] = (),
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            for name, value in extra_headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

    return NewsLinkHandler


def make_server(
    target,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = REQUEST_TIMEOUT_S,
    ingest=None,
    personalization: PersonalizationState | None = None,
) -> NewsLinkHTTPServer:
    """A ready-to-run server (``port=0`` picks a free port)."""
    return NewsLinkHTTPServer(
        (host, port),
        make_handler(target, request_timeout, ingest, personalization),
    )


def shutdown_gracefully(server: NewsLinkHTTPServer, target, ingest=None) -> None:
    """Stop accepting, drain in-flight requests, release the target.

    The shutdown order matters: ``shutdown()`` stops the accept loop,
    ``server_close()`` joins the (non-daemon) handler threads so every
    accepted request finishes its reply; an attached ingest pipeline is
    then closed — its dispatch thread stops, the WAL is flushed and a
    final checkpoint committed, so the next start recovers O(tail)
    instead of replaying history — and only then is the target closed (a
    coordinator terminates its shard workers here, so no forked process
    outlives the server).
    """
    server.shutdown()
    server.server_close()
    if ingest is not None:
        ingest.close()
    close = getattr(target, "close", None)
    if close is not None:
        close()


def serve(
    target,
    host: str = "127.0.0.1",
    port: int = 8080,
    request_timeout: float = REQUEST_TIMEOUT_S,
    install_signals: bool | None = None,
    stop_event: threading.Event | None = None,
    ingest=None,
    personalization: PersonalizationState | None = None,
) -> None:
    """Serve until SIGTERM/SIGINT (or ``stop_event``), then drain.

    ``install_signals`` defaults to True on the main thread (Python
    forbids installing handlers elsewhere); tests running ``serve`` on a
    helper thread pass their own ``stop_event`` instead.  On shutdown
    the server stops accepting, finishes every in-flight request, closes
    the attached ingest pipeline if any (WAL flush + final checkpoint),
    and closes the target (terminating shard workers when the target is
    a coordinator) before returning.
    """
    server = make_server(
        target, host, port, request_timeout, ingest, personalization
    )
    stop = stop_event or threading.Event()
    if install_signals is None:
        install_signals = (
            threading.current_thread() is threading.main_thread()
        )
    previous: dict[int, object] = {}
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_args: stop.set()
            )
    loop = threading.Thread(
        target=server.serve_forever, name="newslink-accept-loop"
    )
    loop.start()
    print(
        f"NewsLink API listening on http://{host}:{server.server_address[1]}",
        flush=True,
    )
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        shutdown_gracefully(server, target, ingest)
        loop.join()
        for signum, handler in previous.items():
            signal.signal(signum, handler)  # type: ignore[arg-type]
    print("NewsLink API drained and stopped", flush=True)
