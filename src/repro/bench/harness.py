"""Wall-clock benchmark harness for the tracked hot paths.

Protocol: every benchmark callable is invoked ``warmup`` times unmeasured
(JIT-free Python still benefits — allocator pools, branch caches, NumPy
thread-pool spin-up), then ``repeats`` times measured with
``time.perf_counter``; the reported statistic is the **median** repeat, the
standard choice for noisy shared machines (the mean is dragged by
scheduler hiccups, the min overstates what a user will see).

Output is a schema-versioned JSON document (``repro-bench/2``)::

    {
      "schema": "repro-bench/2",
      "created_unix": ..., "scale": "full",
      "protocol": {"warmup": 1, "repeats": 5, "statistic": "median"},
      "env": {"python": ..., "numpy": ..., "platform": ...,
              "cpu_count": ..., "jobs": ...},
      "results": {
        "<name>": {"median_s": ..., "repeats_s": [...],
                    "work_units": ..., "units_per_s": ...,
                    "jobs": ..., "shard_seconds": [...]},   # parallel paths
        ...
      },
      "speedups": {"<name>": <min twin time / min current time>, ...}
    }

``speedups`` pairs every ``<name>_serial`` / ``<name>_fullbatch`` entry
with ``<name>``: ``_serial`` twins run the same workload with
parallelism disabled (``jobs=1``) and ``_fullbatch`` twins run the same
number of optimizer updates full-batch (so the file records the
per-update cost advantage of mini-batched BPTT).  Pairs are measured
with their repeats interleaved (load drift hits both sides) and the
speedup is the ratio of the two per-side minima — noise is additive, so
each minimum is the best estimate of the noise-free time.

Parallel benchmarks additionally record the worker count (``jobs``) and
the last repeat's per-shard wall-clock seconds; results measured at
different ``jobs`` are not comparable, and the regression gate
(``scripts/check_bench_regression.py``) skips any pair whose ``jobs``
differ (schema ``repro-bench/2``).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.bench.hotpaths import BENCHMARKS, SCALES

SCHEMA = "repro-bench/2"
#: suffixes that pair a twin benchmark with its base name for speedups
TWIN_SUFFIXES = ("_serial", "_fullbatch")


def _units_of(ret) -> Tuple[int, Dict[str, object]]:
    """Split a benchmark's return into (work units, extra result fields).

    Plain benchmarks return an int; parallel ones return a dict with
    ``units`` plus accounting (``jobs``, ``shard_seconds``) that is
    copied into the result record.
    """
    if isinstance(ret, dict):
        extras = {k: v for k, v in ret.items() if k != "units"}
        if "shard_seconds" in extras:
            extras["shard_seconds"] = [
                round(float(s), 6) for s in extras["shard_seconds"]
            ]
        return int(ret["units"]), extras
    return int(ret), {}


def _result(times, ret) -> Dict[str, object]:
    median = float(np.median(times))
    work_units, extras = _units_of(ret)
    out = {
        "median_s": median,
        "repeats_s": [round(t, 6) for t in times],
        "work_units": int(work_units),
        "units_per_s": round(work_units / median, 1) if median > 0 else None,
    }
    out.update(extras)
    return out


def time_benchmark(
    fn, warmup: int = 1, repeats: int = 5
) -> Dict[str, object]:
    """Run one benchmark callable under the warmup/repeat/median protocol."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    ret = 0
    for _ in range(warmup):
        ret = fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ret = fn()
        times.append(time.perf_counter() - t0)
    return _result(times, ret)


def time_benchmark_pair(
    fn_a, fn_b, warmup: int = 1, repeats: int = 5
):
    """Time two callables with their repeats interleaved (a, b, a, b, ...).

    Used for base-vs-twin pairs: on a noisy shared machine, load
    drift between two back-to-back sequential runs can swamp the effect
    being measured, while alternating repeats expose both callables to
    the same drift.  Returns ``(result_a, result_b, ratio)`` where
    ``ratio`` is ``min(times_b) / min(times_a)``: scheduler noise is
    strictly additive, so each side's minimum is its best estimate of the
    noise-free time (the same reasoning behind ``timeit``'s
    use-the-minimum advice), and their ratio is far more stable across
    load regimes than any mean- or median-based statistic.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    ret_a = ret_b = 0
    for _ in range(warmup):
        ret_a = fn_a()
        ret_b = fn_b()
    times_a, times_b = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ret_a = fn_a()
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ret_b = fn_b()
        times_b.append(time.perf_counter() - t0)
    ratio = min(times_b) / min(times_a)
    return _result(times_a, ret_a), _result(times_b, ret_b), ratio


def run_benchmarks(
    scale: str = "smoke",
    warmup: int = 1,
    repeats: int = 5,
    only: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
) -> Dict[str, object]:
    """Run the registered hot-path benchmarks; return the report document.

    ``jobs`` sets the worker count used by parallel benchmarks
    (``None`` lets each benchmark pick its default, usually
    ``min(4, cpu_count)``; ``0`` means all cores).
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    params = dict(SCALES[scale])
    if jobs is not None:
        if jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = all cores)")
        params["jobs"] = jobs or (os.cpu_count() or 1)
    selected = set(only) if only is not None else set(BENCHMARKS)
    unknown = selected - set(BENCHMARKS)
    if unknown:
        raise ValueError(f"unknown benchmarks: {sorted(unknown)}")
    results: Dict[str, Dict[str, object]] = {}
    speedups: Dict[str, float] = {}
    paired = set()
    for name, factory in BENCHMARKS.items():
        if name not in selected or name in paired:
            continue
        twin_name = next(
            (
                name + suffix
                for suffix in TWIN_SUFFIXES
                if name + suffix in selected and name + suffix in BENCHMARKS
            ),
            None,
        )
        if twin_name is not None:
            # Interleave the pair's repeats so machine-load drift hits
            # both sides equally and cancels in the ratio.
            fn = factory(params)
            twin_fn = BENCHMARKS[twin_name](params)
            results[name], results[twin_name], ratio = time_benchmark_pair(
                fn, twin_fn, warmup=warmup, repeats=repeats
            )
            speedups[name] = round(ratio, 3)
            paired.add(twin_name)
        else:
            fn = factory(params)
            results[name] = time_benchmark(fn, warmup=warmup, repeats=repeats)
    # Fallback for runs where --only picked a twin without its base name.
    for name, res in results.items():
        for suffix in TWIN_SUFFIXES:
            twin = results.get(name + suffix)
            if twin is not None and name not in speedups:
                speedups[name] = round(
                    float(twin["median_s"]) / float(res["median_s"]), 3
                )
    return {
        "schema": SCHEMA,
        "created_unix": int(time.time()),
        "scale": scale,
        "protocol": {
            "warmup": warmup,
            "repeats": repeats,
            "statistic": "median",
            "legacy_pairing": "interleaved",
            "speedup_statistic": "min(twin) / min(current), interleaved",
        },
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "jobs": params.get("jobs"),
        },
        "results": results,
        "speedups": speedups,
    }


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=False)
        fh.write("\n")


def main(argv=None) -> int:
    """CLI entry point (also reachable as ``python -m repro bench``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench", description="hot-path wall-clock benchmarks"
    )
    parser.add_argument(
        "--scale", choices=sorted(SCALES), default="smoke",
        help="workload size preset (default: smoke)",
    )
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out", default="BENCH.json", help="output JSON path"
    )
    parser.add_argument(
        "--only", nargs="*", default=None,
        help="subset of benchmark names to run",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker count for parallel benchmarks (0 = all cores)",
    )
    args = parser.parse_args(argv)
    report = run_benchmarks(
        scale=args.scale,
        warmup=args.warmup,
        repeats=args.repeats,
        only=args.only,
        jobs=args.jobs,
    )
    write_report(report, args.out)
    for name, res in report["results"].items():
        print(
            f"{name:34s} {res['median_s']*1e3:10.2f} ms"
            f"  ({res['units_per_s']} units/s)"
        )
    for name, ratio in report["speedups"].items():
        print(f"{name:34s} speedup vs twin: {ratio}x")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
