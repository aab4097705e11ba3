"""The benchmark's fixed names, read from ``BENCHMARK.json``.

``BENCHMARK.json`` is the one place metric names, units, directions and
regression bounds are written down; the harness reads them from there so
the file the driver checks and the code that measures cannot disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from benchmarks.harness.process import REPO_ROOT

#: Everything a run writes (work dirs, span files, result.json) goes here.
OUT_DIR = Path(__file__).resolve().parent / "out"

DEFAULT_SEED = 1109
#: corpus tier -> ``cnn_like_config`` scale (M: 2,559 documents)
TIER_SCALE = {"S": 1, "M": 8, "L": 32}
DEFAULT_TIER = "M"
TOP_K = 10

#: workload -> how the child serves the fixture
WORKLOAD_MODES = {
    "keyword_single": "single",
    "passage_single": "single",
    "passage_sharded": "sharded",
    "write_path": "ingest",
}

#: The source document must be in the top 10 for this share of passage
#: queries, or the run is incorrect.
MIN_PASSAGE_HIT_AT_10 = 0.9


@dataclass(frozen=True)
class MetricDef:
    name: str
    unit: str
    better: str
    bound: float | None = None  # per-layer metrics carry no bound


@dataclass(frozen=True)
class Spec:
    run_seconds: int
    workloads: tuple[str, ...]
    end_to_end: tuple[MetricDef, ...]
    per_layer: tuple[MetricDef, ...]


@lru_cache(maxsize=1)
def load_spec() -> Spec:
    raw = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return Spec(
        run_seconds=raw["run_seconds"],
        workloads=tuple(w["name"] for w in raw["workloads"]),
        end_to_end=tuple(MetricDef(**m) for m in raw["end_to_end"]),
        per_layer=tuple(MetricDef(**m) for m in raw["per_layer"]),
    )
