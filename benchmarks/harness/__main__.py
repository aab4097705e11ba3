"""``python3 -m benchmarks.harness`` — the one benchmark command.

With ``--workload`` it measures that workload once and ends with the
one-line JSON object the driver reads; without, it runs all four (plus
the traced runs with ``--trace``) and writes ``out/result.json``;
``--aa N`` runs the untraced set N times on the same code and checks
the sets agree within the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.harness.process import SRC

if not (SRC / "repro").is_dir():
    sys.exit(f"benchmarks.harness: no program to measure at {SRC}")
sys.path.insert(0, str(SRC))

from benchmarks.harness import report  # noqa: E402
from benchmarks.harness.spec import (  # noqa: E402
    DEFAULT_SEED,
    DEFAULT_TIER,
    TIER_SCALE,
    load_spec,
)
from benchmarks.harness.workloads import RunResult, run_workload  # noqa: E402


def _parse(argv: list[str] | None) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.harness")
    parser.add_argument("--workload", choices=spec.workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", "--duration", type=float, default=float(spec.run_seconds),
        help="length of each measured window",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run (per-layer metrics) instead of / beside the "
        "untraced one",
    )
    parser.add_argument("--tier", choices=sorted(TIER_SCALE), default=DEFAULT_TIER)
    parser.add_argument(
        "--aa", type=int, default=0, metavar="N",
        help="run the untraced set N times and compare the sets",
    )
    return parser.parse_args(argv)


def _run_set(args: argparse.Namespace, traced: bool) -> list[RunResult]:
    results = []
    for name in load_spec().workloads:
        result = run_workload(
            name, tier=args.tier, seed=args.seed, seconds=args.seconds,
            traced=traced,
        )
        report.print_result(result)
        results.append(result)
    return results


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload:
        result = run_workload(
            args.workload, tier=args.tier, seed=args.seed,
            seconds=args.seconds, traced=bool(args.trace),
        )
        report.print_result(result)
        print(report.driver_line(result), flush=True)
        return 0 if result.correct else 1

    if args.aa:
        # One discarded run first: on an idle host the first fixture
        # build is ~10 % slower than every later one, and A/A compares
        # single runs, not medians.
        run_workload(
            load_spec().workloads[0], tier=args.tier, seed=args.seed,
            seconds=1.0, traced=False,
        )
        sets = [_run_set(args, traced=False) for _ in range(args.aa)]
        agreed = report.compare_aa(sets)
        correct = all(r.correct for runs in sets for r in runs)
        return 0 if agreed and correct else 1

    results = _run_set(args, traced=False)
    if args.trace:
        results += _run_set(args, traced=True)
    path = report.write_result_file(
        results, {"window_s": args.seconds, "tier": args.tier, "seed": args.seed}
    )
    print(f"wrote {path}")
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
