"""Hot-path performance benchmarks.

``python -m repro bench`` (or :func:`repro.bench.harness.main`) times the
simulator's tracked hot paths — DES event loop, transport deliver,
end-to-end topology throughput, stats-monitor ingest/extract, DRNN fit
and predict, campaign fan-out — under a warmup/repeat/median protocol
and writes a schema-versioned ``BENCH*.json``.  See
``docs/performance.md`` for the protocol and the JSON schema.

The frozen pre-optimisation twins this package used to carry (the old
kernel and monitor copies, the per-tuple data plane, the
calendar-vs-heap queue stream) were removed; the ratios they anchored
stay on record in the checked-in ``BENCH_pr3/6/7/10.json``, and the
surviving code is gated on absolute time against
``benchmarks/perf/baseline_smoke.json``.
"""

from repro.bench.harness import (
    run_benchmarks,
    time_benchmark,
    time_benchmark_pair,
    write_report,
)
from repro.bench.hotpaths import BENCHMARKS, SCALES

__all__ = [
    "BENCHMARKS",
    "SCALES",
    "run_benchmarks",
    "time_benchmark",
    "time_benchmark_pair",
    "write_report",
]
