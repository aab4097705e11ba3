"""Percentiles, span self-time and per-request aggregation (pure functions)."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

#: The choosing-metrics rule: a reported percentile needs at least this
#: many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class Measure(NamedTuple):
    """One reported number and how many samples are behind it."""

    value: float
    n: int


class Span(NamedTuple):
    """One timed call into a layer (seconds on one process's perf_counter)."""

    span_id: int
    parent_id: int  # 0 = root
    name: str
    request: str  # the X-Bench-Request id ("" outside a request)
    start: float
    end: float


def median(values: Sequence[float]) -> float:
    """The median, 0.0 for an empty sample (a layer that never ran)."""
    return float(statistics.median(values)) if values else 0.0


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the q-quantile."""
    return count - math.ceil(q * count)


def percentile_supported(count: int, q: float) -> bool:
    """True when the q-quantile of ``count`` samples may be reported."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-quantile (0 < q <= 1); 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover.

    Children are merged as intervals clipped to the parent, so
    overlapping children (two threads under one parent) are not
    subtracted twice.
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id:
            children[span.parent_id].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda c: c.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = max(0.0, (span.end - span.start) - covered)
    return result


class LayerUse(NamedTuple):
    """One request's use of one span name."""

    self_s: float
    calls: int


def per_request(spans: Iterable[Span]) -> dict[str, dict[str, LayerUse]]:
    """``{request id: {span name: (summed self seconds, calls)}}``.

    Spans outside a request (empty ``request``) are dropped.
    """
    spans = list(spans)
    own = self_times(spans)
    grouped: dict[str, dict[str, LayerUse]] = defaultdict(dict)
    for span in spans:
        if not span.request:
            continue
        layers = grouped[span.request]
        before = layers.get(span.name, LayerUse(0.0, 0))
        layers[span.name] = LayerUse(
            before.self_s + own[span.span_id], before.calls + 1
        )
    return dict(grouped)


def layer_median_ms(
    requests: dict[str, dict[str, LayerUse]], name: str
) -> float:
    """Median over requests of the self time spent under ``name`` (ms).

    A request that never entered the layer contributes 0, so a layer
    most requests skip reads 0 — which is the point of the hit/miss
    workload pair.
    """
    return 1000.0 * median(
        [layers[name].self_s if name in layers else 0.0
         for layers in requests.values()]
    )


def layer_calls_per_request(
    requests: dict[str, dict[str, LayerUse]], name: str
) -> float:
    """Mean calls of ``name`` per request."""
    if not requests:
        return 0.0
    total = sum(
        layers[name].calls for layers in requests.values() if name in layers
    )
    return total / len(requests)
