#!/usr/bin/env python
"""Fail if a benchmark run regressed against a pinned baseline.

Usage::

    python scripts/check_bench_regression.py \
        --bench BENCH_pr3.json \
        --baseline benchmarks/perf/baseline_smoke.json \
        [--tolerance 0.25]

Two checks run per benchmark, both with the same ``tolerance``:

* absolute time — ``min(repeats_s)`` (falling back to ``median_s``) must
  not exceed the baseline's by more than ``tolerance``.  The minimum is
  the noise-robust statistic under additive load drift (see
  ``repro.bench.harness``), but separate runs on a shared machine can
  still drift apart, so this check alone is not enough.
* paired speedup — for benchmarks with a same-code ``_serial`` /
  ``_fullbatch`` twin, the interleaved base-vs-twin speedup must not
  drop below the baseline's by more than ``tolerance``.
  Because both sides run interleaved in one process, this ratio is
  immune to machine-load drift and is the reliable signal on busy CI
  runners.

A run is only comparable with a baseline of the same schema, the same
``scale`` and the same ``protocol.warmup``/``protocol.repeats``; any
mismatch there exits 2 with a message before a single time is compared.

Benchmarks present on one side only are reported and skipped: adding a
benchmark must not break CI, and the gate should complain loudly (not
crash) if one disappears.

Parallel benchmarks (schema ``repro-bench/2``) record the worker count
they ran with in a per-result ``jobs`` field.  Times measured at
different worker counts are not comparable — a 4-core baseline against a
1-core CI runner would flag a phantom regression — so any benchmark (or
paired speedup) whose ``jobs`` differ between run and baseline is
reported and skipped, both time and speedup checks.
"""

from __future__ import annotations

import argparse
import json
import sys


def _best_time(result: dict) -> float:
    repeats = result.get("repeats_s")
    if repeats:
        return float(min(repeats))
    return float(result["median_s"])


def _settings(doc: dict) -> dict:
    """What a report was measured with, beyond its schema."""
    protocol = doc.get("protocol", {})
    return {
        "scale": doc.get("scale"),
        "protocol.warmup": protocol.get("warmup"),
        "protocol.repeats": protocol.get("repeats"),
    }


def compare(bench: dict, baseline: dict, tolerance: float) -> int:
    if bench.get("schema") != baseline.get("schema"):
        print(
            f"schema mismatch: run {bench.get('schema')!r} vs "
            f"baseline {baseline.get('schema')!r}"
        )
        return 2
    # Times taken at another workload size, or with another number of
    # warm-up/timed repeats (min-of-5 and min-of-9 of identical code
    # differ by more than the tolerance), are not comparable either.
    run_settings, base_settings = _settings(bench), _settings(baseline)
    for what, cur in run_settings.items():
        if cur != base_settings[what]:
            print(
                f"{what} mismatch: run {cur!r} vs "
                f"baseline {base_settings[what]!r}"
            )
            return 2
    current = bench["results"]
    pinned = baseline["results"]
    failures = []
    for name in sorted(set(current) | set(pinned)):
        if name not in current:
            print(f"MISSING   {name}: in baseline but not in this run")
            continue
        if name not in pinned:
            print(f"NEW       {name}: no baseline yet (skipped)")
            continue
        cur_jobs = current[name].get("jobs")
        base_jobs = pinned[name].get("jobs")
        if cur_jobs != base_jobs:
            print(
                f"SKIPPED   {name}: jobs mismatch "
                f"(run {cur_jobs} vs baseline {base_jobs}) — "
                "times at different worker counts are not comparable"
            )
            continue
        cur = _best_time(current[name])
        base = _best_time(pinned[name])
        ratio = cur / base if base > 0 else float("inf")
        status = "ok"
        if cur > base * (1.0 + tolerance):
            status = "REGRESSED"
            failures.append(name)
        print(
            f"{status:26s} {name}: best {cur * 1e3:.2f} ms vs baseline "
            f"{base * 1e3:.2f} ms ({ratio:.2f}x)"
        )
    cur_speedups = bench.get("speedups", {})
    base_speedups = baseline.get("speedups", {})
    for name in sorted(set(cur_speedups) & set(base_speedups)):
        cur_jobs = current.get(name, {}).get("jobs")
        base_jobs = pinned.get(name, {}).get("jobs")
        if cur_jobs != base_jobs:
            print(
                f"SKIPPED   {name}: speedup at jobs {cur_jobs} vs "
                f"baseline jobs {base_jobs} — not comparable"
            )
            continue
        cur = float(cur_speedups[name])
        base = float(base_speedups[name])
        status = "ok"
        if cur < base * (1.0 - tolerance):
            status = "REGRESSED"
            failures.append(f"{name} (speedup)")
        print(
            f"{status:26s} {name}: speedup {cur:.2f}x vs "
            f"baseline {base:.2f}x"
        )
    if failures:
        print(
            f"\n{len(failures)} check(s) regressed beyond "
            f"{tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    print(f"\nall gated benchmarks within {tolerance:.0%} of baseline")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True, help="fresh BENCH_*.json")
    parser.add_argument(
        "--baseline", required=True, help="pinned baseline BENCH_*.json"
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed median_s slowdown fraction (default 0.25)",
    )
    args = parser.parse_args(argv)
    with open(args.bench) as fh:
        bench = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    return compare(bench, baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
