"""One result schema, one printer."""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

from benchmarks.harness import stats
from benchmarks.harness.process import REPO_ROOT
from benchmarks.harness.spec import OUT_DIR, MetricDef, load_spec
from benchmarks.harness.workloads import RunResult

#: A metric named ``..._pNN_ms`` reports the NN-th percentile.
_PERCENTILE_NAME = re.compile(r"_p(\d\d)_ms$")


def host_fingerprint() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def metric_defs(traced: bool) -> tuple[MetricDef, ...]:
    spec = load_spec()
    return spec.per_layer if traced else spec.end_to_end


def print_result(result: RunResult, stream=sys.stdout) -> None:
    """``workload metric value unit n=<samples>``, one line per metric."""
    for definition in metric_defs(result.traced):
        measure = result.metrics[definition.name]
        note = ""
        named = _PERCENTILE_NAME.search(definition.name)
        if named and measure.n and not stats.percentile_supported(
            measure.n, int(named[1]) / 100.0
        ):
            note = (
                f"  (fewer than {stats.MIN_SAMPLES_BEYOND} samples beyond "
                f"p{named[1]})"
            )
        print(
            f"{result.workload} {definition.name} {measure.value:.6g} "
            f"{definition.unit} n={measure.n}{note}",
            file=stream,
        )
    if not result.traced:  # the traced run lists fail_share as a layer metric
        print(
            f"{result.workload} fail_share "
            f"{result.fail_share:.6g} share n={result.attempted}",
            file=stream,
        )
    for reason in result.failures[:10]:
        print(f"{result.workload} FAILED {reason}", file=stream)


def driver_line(result: RunResult) -> str:
    """The JSON object the driver reads from the last line of stdout."""
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                d.name: {"value": result.metrics[d.name].value, "unit": d.unit}
                for d in metric_defs(result.traced)
            },
        }
    )


def write_result_file(results: list[RunResult], durations: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "result.json"
    path.write_text(
        json.dumps(
            {
                "host": host_fingerprint(),
                "durations": durations,
                "runs": [result.as_dict() for result in results],
            },
            indent=2,
        )
        + "\n"
    )
    return path


def compare_aa(sets: list[list[RunResult]], stream=sys.stdout) -> bool:
    """Print every (workload, end-to-end metric) across the A/A sets with
    its worst relative difference and bound; False if any pair disagrees
    beyond its bound."""
    agreed = True
    for runs in zip(*sets):
        for definition in load_spec().end_to_end:
            values = [run.metrics[definition.name].value for run in runs]
            base = min(abs(v) for v in values)
            difference = (max(values) - min(values)) / base if base else 0.0
            within = difference <= definition.bound
            agreed = agreed and within
            print(
                f"{runs[0].workload} {definition.name} "
                + " ".join(f"{v:.6g}" for v in values)
                + f" {definition.unit} diff={difference:.4f} "
                f"bound={definition.bound} {'ok' if within else 'DISAGREE'}",
                file=stream,
            )
    return agreed
