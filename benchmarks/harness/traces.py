"""Seeded query traces: the keyword pool and the never-repeating passages.

The same seed gives byte-identical traces (see :func:`materialize`);
the program under test only ever receives the generated texts.
"""

from __future__ import annotations

import json
import random
import re
import threading
from typing import NamedTuple, Sequence

KEYWORD_POOL = 48  # < the engine's default query LRU (64): cached after warm-up
GATE_QUERIES = 32
#: The Zipf head moves one pool position every this many draws.
ROTATE_EVERY = 8
PASSAGE_WARMUP = 128
PASSAGE_CHARS = 300

_WORD = re.compile(r"[A-Za-z]+")


class Query(NamedTuple):
    text: str
    source_doc: str  # the indexed document the text was cut from


def _keyword_query(text: str, labels: set[str], rng: random.Random) -> str | None:
    """One entity label found in ``text`` + 1-2 content words of its sentence."""
    sentences = [s for s in text.split(". ") if s]
    rng.shuffle(sentences)
    for sentence in sentences:
        words = _WORD.findall(sentence)
        found = None
        for width in (3, 2, 1):
            for i in range(len(words) - width + 1):
                candidate = " ".join(words[i : i + width])
                if candidate in labels:
                    found = candidate
                    break
            if found:
                break
        if not found:
            continue
        content = sorted(
            {w for w in words if w.islower() and len(w) >= 5}
        )
        if not content:
            continue
        extra = rng.sample(content, min(len(content), rng.randint(1, 2)))
        return " ".join([found, *extra])
    return None


def keyword_pool(
    documents: Sequence, labels: set[str], seed: int, size: int = KEYWORD_POOL
) -> list[Query]:
    """``size`` distinct short queries (2-5 tokens) from sampled documents."""
    rng = random.Random(f"{seed}:keyword-pool")
    order = list(range(len(documents)))
    rng.shuffle(order)
    pool: list[Query] = []
    seen: set[str] = set()
    for _ in range(4):  # a small corpus is passed over again for new sentences
        for index in order:
            document = documents[index]
            text = _keyword_query(document.text, labels, rng)
            if text is None or text in seen:
                continue
            seen.add(text)
            pool.append(Query(text, document.doc_id))
            if len(pool) == size:
                return pool
    raise ValueError(f"corpus too small for a {size}-query keyword pool")


class KeywordTrace:
    """Zipf(1.0)-weighted draws from a pool smaller than the query LRU.

    Which query is the hot one drifts round the pool as the trace goes
    on (news interest moves), so a window visits the whole pool and its
    cost does not hang on the one query a seed happened to rank first.
    """

    def __init__(
        self, documents: Sequence, labels: set[str], seed: int,
        size: int = KEYWORD_POOL,
    ) -> None:
        self.pool = keyword_pool(documents, labels, seed, size)
        self._weights = [1.0 / rank for rank in range(1, len(self.pool) + 1)]
        self._rng = random.Random(f"{seed}:keyword-zipf")
        self._gate_rng = random.Random(f"{seed}:keyword-gate")
        self._draws = 0
        self._lock = threading.Lock()

    def gate(self) -> list[Query]:
        return self._gate_rng.sample(self.pool, GATE_QUERIES)

    def warmup(self) -> list[Query]:
        # One pass: every entry of a default-sized pool enters the LRU.
        return self.pool[:KEYWORD_POOL]

    def next(self) -> Query:
        with self._lock:
            rank = self._rng.choices(range(len(self.pool)), self._weights)[0]
            shift = self._draws // ROTATE_EVERY
            self._draws += 1
            return self.pool[(rank + shift) % len(self.pool)]


class PassageTrace:
    """Distinct ~300-character windows cut at word boundaries.

    The paper's partial-text query.  No passage repeats, across gate,
    warm-up and measured stream, so the query LRU always misses.
    """

    def __init__(self, documents: Sequence, seed: int) -> None:
        self._documents = [d for d in documents if len(d.text) > PASSAGE_CHARS]
        self._rng = random.Random(f"{seed}:passage")
        self._seen: set[str] = set()
        self._lock = threading.Lock()

    def _draw(self) -> Query:
        while True:
            document = self._rng.choice(self._documents)
            text = document.text
            offset = self._rng.randrange(0, len(text) - PASSAGE_CHARS)
            # Snap both ends to word boundaries.
            start = text.rfind(" ", 0, offset + 1) + 1
            end = text.find(" ", start + PASSAGE_CHARS)
            passage = text[start : end if end != -1 else len(text)]
            if passage not in self._seen:
                self._seen.add(passage)
                return Query(passage, document.doc_id)

    def gate(self) -> list[Query]:
        return [self.next() for _ in range(GATE_QUERIES)]

    def warmup(self) -> list[Query]:
        return [self.next() for _ in range(PASSAGE_WARMUP)]

    def next(self) -> Query:
        with self._lock:
            return self._draw()


def materialize(trace, count: int) -> bytes:
    """Gate, warm-up and the first ``count`` measured queries as JSON bytes."""
    queries = [*trace.gate(), *trace.warmup(), *(trace.next() for _ in range(count))]
    return json.dumps(queries).encode("utf-8")
