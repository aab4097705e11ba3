"""Shard worker pools: forked processes serving one shard's requests.

Transport model
---------------
Each shard gets ``workers_per_shard`` **forked** worker processes (fork,
never spawn: the worker must inherit the planner's precompiled shard
engine copy-on-write — re-pickling the indexes would defeat the whole
pre-fork compile, exactly as in :mod:`repro.parallel.executor`).  Parent
and worker talk over a duplex :func:`multiprocessing.Pipe` carrying
``(req_id, kind, payload)`` requests and ``(req_id, status, payload)``
replies; ``req_id`` is a per-worker monotonic counter so a stale reply
(from a request whose gather timed out) can never be paired with the
wrong request — in practice a timed-out worker is killed and respawned,
so its pipe is never reused.

Failure model
-------------
A worker that dies (EOF on the pipe) or stalls (no reply within the
gather budget) is marked dead, its process terminated, and — by default
— a fresh worker is forked into the pool.  A *scatter* (ranking, a
reply's snippets) reports the affected shard as failed and carries on
with the remaining shards (a partial result, flagged, never a hang);
single-shard requests raise :class:`~repro.errors.ShardFailedError`.  A
killed worker's accumulated counters die with it; the scrape-time stats
fold only sums the workers that are alive to answer (documented in
``docs/serving.md``).

:class:`InlineShardGroup` implements the identical interface with plain
in-process calls — zero forks, used by the differential tests and the
``transport="inline"`` deployment mode (useful on platforms without
``fork``).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.connection import Connection, wait as connection_wait
from threading import Condition, Lock
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

from repro.core.serialization import embedding_from_dict
from repro.errors import ConfigError, ShardFailedError
from repro.obs.metrics import MetricsRegistry, Snapshot, merge_snapshots
from repro.reliability import faults
from repro.search.pruned import QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.engine import NewsLinkEngine

#: Request kinds a shard worker understands.
REQUEST_KINDS = frozenset(
    {"search", "snippets", "document", "explain", "stats", "ping", "shutdown"}
)

#: How long ``close()`` waits for a worker to exit after "shutdown"
#: before escalating to terminate/kill.
_SHUTDOWN_GRACE_S = 5.0


class ShardReply(NamedTuple):
    """One shard's answer to a scattered request."""

    shard_id: int
    ok: bool
    value: Any
    error: str | None


def _handle_request(engine: "NewsLinkEngine", kind: str, payload: dict) -> Any:
    """Serve one request against the (shard) engine.  Runs in the worker."""
    if kind == "search":
        # "profile"/"gamma" are optional for wire compatibility with
        # coordinators that predate the personalization channel; context
        # terms are computed once on the frontend, so shard workers stay
        # stateless.
        return engine.rank_terms(
            payload["bow"],
            payload["bon"],
            payload["k"],
            beta=payload.get("beta"),
            ranking=payload.get("ranking"),
            profile_terms=payload.get("profile"),
            gamma=payload.get("gamma"),
        )
    if kind == "snippets":
        return engine.snippets(payload["query"], payload["doc_ids"])
    if kind == "document":
        return engine.document_text(payload["doc_id"])
    if kind == "explain":
        # The query embedding was computed once at the coordinator; ship
        # it serialized so the shard never re-runs NLP/NE.
        embedding = embedding_from_dict(payload["embedding"])
        return engine.explanation(
            payload["query"],
            payload["doc_id"],
            query_embedding=embedding,
        )
    if kind == "stats":
        return {
            "query_stats": engine.query_stats.as_dict(),
            "metrics": engine.metrics_registry.snapshot(),
        }
    if kind == "ping":
        return "pong"
    raise ValueError(f"unknown request kind {kind!r}")


def _worker_main(
    conn: Connection, engine: "NewsLinkEngine", shard_id: int
) -> None:
    """The forked worker's serve loop (request → reply, until shutdown).

    Every exception is reported as an ``("error", ...)`` reply rather
    than killing the worker — a bad request must not take down the
    shard.  Only pipe loss (parent gone) or "shutdown" ends the loop.
    """
    while True:
        try:
            req_id, kind, payload = conn.recv()
        except (EOFError, OSError):
            break
        if kind == "shutdown":
            try:
                conn.send((req_id, "ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        try:
            if faults.ACTIVE:
                faults.fire("serving.worker_request")
            result = _handle_request(engine, kind, payload)
            reply = (req_id, "ok", result)
        except BaseException as exc:  # noqa: BLE001 - reported, not fatal
            reply = (req_id, "error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerHandle:
    """Parent-side handle to one forked shard worker."""

    def __init__(
        self,
        shard_id: int,
        worker_id: int,
        process: multiprocessing.Process,
        conn: Connection,
    ) -> None:
        self.shard_id = shard_id
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        self.alive = True
        self._next_req_id = 0
        self.inflight: int | None = None  # req_id awaiting a reply

    def send(self, kind: str, payload: dict | None) -> int:
        """Ship a request; returns its ``req_id``.  Raises on a dead pipe."""
        req_id = self._next_req_id
        self._next_req_id += 1
        self.conn.send((req_id, kind, payload or {}))
        self.inflight = req_id
        return req_id

    def receive(self, req_id: int) -> tuple[str, Any]:
        """Read the reply to ``req_id`` (discarding stale predecessors)."""
        while True:
            got_id, status, payload = self.conn.recv()
            if got_id == req_id:
                self.inflight = None
                return status, payload
            # A stale reply from a request we stopped waiting for; skip.


class ProcessShardGroup:
    """A pool of forked workers per shard, with lease/scatter semantics.

    Thread-safe: the HTTP server's handler threads scatter and request
    concurrently.  Workers are leased per shard under a condition
    variable; scatter leases in **fixed shard order** (0, 1, 2, ...) so
    two concurrent scatters can never deadlock on each other's partially
    acquired workers.
    """

    def __init__(
        self,
        shards: "Sequence[NewsLinkEngine]",
        workers_per_shard: int = 1,
        respawn: bool = True,
    ) -> None:
        if workers_per_shard < 1:
            raise ConfigError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - platform dependent
            raise ConfigError(
                "process transport requires the fork start method; use "
                "transport='inline' on this platform"
            ) from exc
        self._shards = list(shards)
        self._workers_per_shard = workers_per_shard
        self._respawn = respawn
        self._lock = Lock()
        self._available = Condition(self._lock)
        self._idle: list[list[WorkerHandle]] = [[] for _ in self._shards]
        self._all: list[list[WorkerHandle]] = [[] for _ in self._shards]
        self._closed = False
        self._worker_failures = 0
        self._next_worker_id = 0
        for shard_id in range(len(self._shards)):
            for _ in range(workers_per_shard):
                self._spawn_locked(shard_id)

    # -- lifecycle -----------------------------------------------------
    def _spawn_locked(self, shard_id: int) -> WorkerHandle:
        """Fork one worker for ``shard_id`` (caller holds no/any lock —
        registration mutates under the group lock)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shards[shard_id], shard_id),
            name=f"newslink-shard{shard_id}-w{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = WorkerHandle(shard_id, worker_id, process, parent_conn)
        self._idle[shard_id].append(handle)
        self._all[shard_id].append(handle)
        return handle

    def close(self) -> None:
        """Shut every worker down; no orphaned processes survive.

        Idle workers get a cooperative "shutdown" request; anything
        still running after the grace period is terminated, then killed.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = [h for pool in self._all for h in pool]
            self._available.notify_all()
        for handle in handles:
            if handle.alive:
                try:
                    handle.conn.send((-1, "shutdown", {}))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - last resort
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "ProcessShardGroup":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- introspection -------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def transport(self) -> str:
        return "process"

    @property
    def worker_failures(self) -> int:
        """Workers declared dead so far (timeouts + crashes)."""
        return self._worker_failures

    def live_workers(self) -> int:
        """Workers currently believed alive (all shards)."""
        with self._lock:
            return sum(
                1 for pool in self._all for h in pool if h.alive
            )

    def worker_pids(self) -> list[int]:
        """PIDs of every live worker process (tests assert no orphans)."""
        with self._lock:
            return [
                h.process.pid
                for pool in self._all
                for h in pool
                if h.alive and h.process.pid is not None
            ]

    # -- leasing -------------------------------------------------------
    def _lease(self, shard_id: int, timeout_s: float) -> WorkerHandle | None:
        """Borrow an idle worker of ``shard_id`` (None on timeout/closed)."""
        deadline = time.monotonic() + timeout_s
        with self._available:
            while True:
                if self._closed:
                    return None
                pool = self._idle[shard_id]
                while pool:
                    handle = pool.pop()
                    if handle.alive:
                        return handle
                if not any(h.alive for h in self._all[shard_id]):
                    return None  # shard has no workers left at all
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._available.wait(timeout=remaining)

    def _release(self, handle: WorkerHandle) -> None:
        with self._available:
            if handle.alive and not self._closed:
                self._idle[handle.shard_id].append(handle)
                self._available.notify_all()

    def _mark_dead(self, handle: WorkerHandle) -> None:
        """Declare a worker dead, reap its process, maybe respawn."""
        with self._available:
            if not handle.alive:
                return
            handle.alive = False
            self._worker_failures += 1
            closed = self._closed
        handle.process.terminate()
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():  # pragma: no cover - stuck in kernel
            handle.process.kill()
            handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        if self._respawn and not closed:
            with self._available:
                if not self._closed:
                    self._spawn_locked(handle.shard_id)
                    self._available.notify_all()

    # -- request fan-out ----------------------------------------------
    def scatter(
        self,
        kind: str,
        payloads: Sequence[dict | None],
        timeout_ms: float,
    ) -> list[ShardReply]:
        """Send one request per shard; gather replies under one budget.

        ``payloads[i]`` goes to shard ``i`` (``None`` skips the shard).
        Shards whose worker cannot be leased, dies, or misses the budget
        come back ``ok=False`` — the caller decides whether partial
        results are acceptable.  Never raises for per-shard failures.
        """
        if len(payloads) != len(self._shards):
            raise ValueError(
                f"expected {len(self._shards)} payloads, got {len(payloads)}"
            )
        deadline = time.monotonic() + timeout_ms / 1000.0
        replies: dict[int, ShardReply] = {}
        pending: dict[int, tuple[WorkerHandle, int]] = {}
        # Lease + send in fixed shard order (deadlock avoidance).
        for shard_id, payload in enumerate(payloads):
            if payload is None:
                continue
            timeout_s = max(0.0, deadline - time.monotonic())
            handle = self._lease(shard_id, timeout_s)
            if handle is None:
                replies[shard_id] = ShardReply(
                    shard_id, False, None, "no worker available"
                )
                continue
            try:
                req_id = handle.send(kind, payload)
            except (BrokenPipeError, OSError):
                self._mark_dead(handle)
                replies[shard_id] = ShardReply(
                    shard_id, False, None, "worker pipe broken"
                )
                continue
            pending[shard_id] = (handle, req_id)
        # Gather: poll all pending pipes together until done or expired.
        while pending:
            timeout_s = max(0.0, deadline - time.monotonic())
            conn_to_shard = {
                handle.conn: shard_id
                for shard_id, (handle, _) in pending.items()
            }
            ready = connection_wait(list(conn_to_shard), timeout=timeout_s)
            if not ready:
                break  # budget exhausted; everything left has timed out
            for conn in ready:
                shard_id = conn_to_shard[conn]
                handle, req_id = pending.pop(shard_id)
                try:
                    status, payload = handle.receive(req_id)
                except (EOFError, OSError):
                    self._mark_dead(handle)
                    replies[shard_id] = ShardReply(
                        shard_id, False, None, "worker died mid-request"
                    )
                    continue
                self._release(handle)
                replies[shard_id] = ShardReply(
                    shard_id, status == "ok", payload if status == "ok" else None,
                    None if status == "ok" else str(payload),
                )
        for shard_id, (handle, _) in pending.items():
            # Missed the budget: the worker may be wedged and its pipe
            # holds a stale reply — kill it rather than ever reuse it.
            self._mark_dead(handle)
            replies[shard_id] = ShardReply(
                shard_id, False, None, "gather timeout"
            )
        return [
            replies.get(
                shard_id, ShardReply(shard_id, False, None, "not queried")
            )
            for shard_id in range(len(self._shards))
        ]

    def request(
        self,
        shard_id: int,
        kind: str,
        payload: dict | None,
        timeout_ms: float,
    ) -> Any:
        """One request to one shard; raises :class:`ShardFailedError`."""
        deadline = time.monotonic() + timeout_ms / 1000.0
        handle = self._lease(shard_id, timeout_ms / 1000.0)
        if handle is None:
            raise ShardFailedError(shard_id, "no worker available")
        try:
            req_id = handle.send(kind, payload)
        except (BrokenPipeError, OSError):
            self._mark_dead(handle)
            raise ShardFailedError(shard_id, "worker pipe broken") from None
        timeout_s = max(0.0, deadline - time.monotonic())
        if not handle.conn.poll(timeout_s):
            self._mark_dead(handle)
            raise ShardFailedError(shard_id, "request timeout")
        try:
            status, reply = handle.receive(req_id)
        except (EOFError, OSError):
            self._mark_dead(handle)
            raise ShardFailedError(
                shard_id, "worker died mid-request"
            ) from None
        self._release(handle)
        if status != "ok":
            raise ShardFailedError(shard_id, str(reply))
        return reply

    # -- stats ---------------------------------------------------------
    def fold_stats(
        self, timeout_ms: float = 5_000.0
    ) -> tuple[QueryStats, Snapshot]:
        """Scrape every live worker and fold its silos.

        ``QueryStats`` counters add (:meth:`QueryStats.merge`); metric
        snapshots fold under :func:`merge_snapshots` (counters/buckets
        add, gauges max) — the same algebra the parallel indexer uses,
        so the totals read as if one process had served everything.
        Workers that died (and their already-counted work) are absent.
        """
        folded_stats = QueryStats()
        folded_metrics: Snapshot = MetricsRegistry().snapshot(
            run_collectors=False
        )
        deadline = time.monotonic() + timeout_ms / 1000.0
        for shard_id in range(len(self._shards)):
            # Lease *every* live worker of the shard at once so each is
            # scraped exactly once (leasing one at a time could hand the
            # same just-released worker back).
            with self._lock:
                target = sum(
                    1 for h in self._all[shard_id] if h.alive
                )
            leased: list[WorkerHandle] = []
            while len(leased) < target:
                timeout_s = max(0.0, deadline - time.monotonic())
                handle = self._lease(shard_id, timeout_s)
                if handle is None:
                    break
                leased.append(handle)
            for handle in leased:
                try:
                    req_id = handle.send("stats", {})
                    if not handle.conn.poll(
                        max(0.0, deadline - time.monotonic())
                    ):
                        self._mark_dead(handle)
                        continue
                    status, reply = handle.receive(req_id)
                except (BrokenPipeError, EOFError, OSError):
                    self._mark_dead(handle)
                    continue
                self._release(handle)
                if status != "ok":
                    continue
                folded_stats.merge(QueryStats(**reply["query_stats"]))
                folded_metrics = merge_snapshots(
                    folded_metrics, reply["metrics"]
                )
        return folded_stats, folded_metrics


class InlineShardGroup:
    """The same interface as :class:`ProcessShardGroup`, zero processes.

    Requests run synchronously against the shard engines in the calling
    thread/process.  This is the reference transport: the differential
    tests drive it to prove merge exactness without fork variance, and
    ``transport="inline"`` deploys it where ``fork`` is unavailable.
    """

    def __init__(self, shards: "Sequence[NewsLinkEngine]") -> None:
        self._shards = list(shards)
        self._closed = False

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def transport(self) -> str:
        return "inline"

    @property
    def worker_failures(self) -> int:
        return 0

    def live_workers(self) -> int:
        return 0 if self._closed else len(self._shards)

    def worker_pids(self) -> list[int]:
        return []

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "InlineShardGroup":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def scatter(
        self,
        kind: str,
        payloads: Sequence[dict | None],
        timeout_ms: float,
    ) -> list[ShardReply]:
        if len(payloads) != len(self._shards):
            raise ValueError(
                f"expected {len(self._shards)} payloads, got {len(payloads)}"
            )
        replies = []
        for shard_id, payload in enumerate(payloads):
            if payload is None:
                replies.append(
                    ShardReply(shard_id, False, None, "not queried")
                )
                continue
            try:
                if faults.ACTIVE:
                    faults.fire("serving.worker_request")
                value = _handle_request(
                    self._shards[shard_id], kind, payload
                )
                replies.append(ShardReply(shard_id, True, value, None))
            except Exception as exc:  # noqa: BLE001 - mirrors process path
                replies.append(
                    ShardReply(
                        shard_id, False, None, f"{type(exc).__name__}: {exc}"
                    )
                )
        return replies

    def request(
        self,
        shard_id: int,
        kind: str,
        payload: dict | None,
        timeout_ms: float,
    ) -> Any:
        try:
            if faults.ACTIVE:
                faults.fire("serving.worker_request")
            return _handle_request(self._shards[shard_id], kind, payload or {})
        except ShardFailedError:
            raise
        except Exception as exc:
            raise ShardFailedError(
                shard_id, f"{type(exc).__name__}: {exc}"
            ) from exc

    def fold_stats(
        self, timeout_ms: float = 5_000.0
    ) -> tuple[QueryStats, Snapshot]:
        folded_stats = QueryStats()
        folded_metrics: Snapshot = MetricsRegistry().snapshot(
            run_collectors=False
        )
        for shard in self._shards:
            folded_stats.merge(QueryStats(**shard.query_stats.as_dict()))
            folded_metrics = merge_snapshots(
                folded_metrics, shard.metrics_registry.snapshot()
            )
        return folded_stats, folded_metrics
