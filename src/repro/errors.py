"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Raised for structural problems in a knowledge graph."""


class NodeNotFoundError(GraphError):
    """Raised when a node id is not present in the graph."""

    def __init__(self, node_id: str) -> None:
        super().__init__(f"node not found: {node_id!r}")
        self.node_id = node_id


class EdgeNotFoundError(GraphError):
    """Raised when an edge lookup fails."""


class LabelNotFoundError(GraphError):
    """Raised when an entity label matches no node in the label index."""

    def __init__(self, label: str) -> None:
        super().__init__(f"label matches no KG node: {label!r}")
        self.label = label


class EmbeddingError(ReproError):
    """Raised when a subgraph embedding cannot be produced."""


class NoCommonAncestorError(EmbeddingError):
    """Raised when no common ancestor graph exists for a label group."""

    def __init__(self, labels: tuple[str, ...]) -> None:
        super().__init__(f"no common ancestor graph exists for labels {labels!r}")
        self.labels = labels


class SearchTimeoutError(EmbeddingError):
    """Raised when the G* search exhausts its pop/time budget."""

    def __init__(self, message: str, pops: int) -> None:
        super().__init__(message)
        self.pops = pops


class DeadlineExpiredError(EmbeddingError):
    """Raised inside embedding when a per-query wall-clock deadline expires.

    The engine's ``search`` never lets this escape: it abandons the query
    embedding and degrades to text-only (BOW) ranking instead.  Direct
    embedding calls (``find_lcag``, ``embed_document``) do raise it so
    callers that own the deadline can react.
    """

    def __init__(self, message: str, pops: int = 0) -> None:
        super().__init__(message)
        self.pops = pops


class IndexError_(ReproError):
    """Raised for retrieval-index misuse (name avoids builtin shadowing)."""


class DocumentNotIndexedError(IndexError_):
    """Raised when a document id is queried but was never indexed."""

    def __init__(self, doc_id: str) -> None:
        super().__init__(f"document not indexed: {doc_id!r}")
        self.doc_id = doc_id


class ModelNotTrainedError(ReproError):
    """Raised when inference is requested from an untrained model."""


class ConfigError(ReproError):
    """Raised for invalid configuration values."""


class DataError(ReproError):
    """Raised for malformed corpus or KG input data."""


class IndexCorruptError(DataError):
    """Raised when a persisted index file fails validation on load.

    Covers truncation, invalid JSON, checksum mismatches, unsupported
    versions, and schema-mismatched records.  ``load_index`` guarantees the
    live engine state is untouched when this is raised.
    """

    def __init__(self, path: object, detail: str) -> None:
        super().__init__(f"{path}: corrupt index file: {detail}")
        self.path = str(path)
        self.detail = detail


class IngestError(ReproError):
    """Raised for failures in the streaming-ingestion pipeline."""


class WalCorruptError(IngestError):
    """Raised when a WAL segment fails validation beyond its torn tail.

    Recovery silently truncates a torn *tail* (the expected signature of a
    crash mid-append); anything else — bad magic, a corrupt frame followed
    by valid data, CRC mismatch in the body — is real corruption and
    raises this error instead of guessing.
    """

    def __init__(self, path: object, detail: str) -> None:
        super().__init__(f"{path}: corrupt WAL segment: {detail}")
        self.path = str(path)
        self.detail = detail


class ServingError(ReproError):
    """Raised for failures in the sharded serving layer."""


class OverloadShedError(ServingError):
    """Raised when admission control rejects a query instead of queueing.

    ``reason`` is ``"queue_full"`` (the bounded wait queue is at
    capacity) or ``"deadline"`` (the query's deadline would expire — or
    already has — before a serving slot could free up).  The HTTP layer
    maps this to 429; shedding is the overload policy working, not a
    server fault (see ``docs/serving.md``).
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        message = f"query shed by admission control ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.reason = reason


class ShardFailedError(ServingError):
    """Raised when a shard cannot serve a request and no fallback applies.

    The two scatters behind a ``/search`` reply — ranking and the
    reply's snippets (``Coordinator.snippets``) — never raise this: a
    failed shard yields a ``partial`` result instead, its hits' snippets
    empty.  Single-document requests (``snippet``, ``document_text``,
    ``explanation``) do raise it when the owning shard's workers are
    unavailable.
    """

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"shard {shard_id} failed: {detail}")
        self.shard_id = shard_id


class FaultInjectedError(ReproError):
    """Default exception raised by an armed fault point (tests only).

    Never raised in production: :mod:`repro.reliability.faults` is a no-op
    unless a test explicitly arms a failure point.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point
