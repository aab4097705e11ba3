"""One HTTP-level measurement harness for the NewsLink reproduction.

Four workloads driven through the real ``NewsLinkHTTPServer`` over a
loopback socket, end-to-end metrics measured with tracing off and a
separate traced run that yields the per-layer budget.  ``BENCHMARK.json``
at the repository root names the metrics, units and regression bounds;
``README.md`` beside this file is the glossary.

Run as ``python3 -m benchmarks.harness`` from the repository root.
"""
