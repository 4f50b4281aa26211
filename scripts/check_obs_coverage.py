#!/usr/bin/env python
"""Fail if observability-layer coverage drops below the floor.

Usage::

    pytest tests/ -q --cov=repro.obs --cov-report=json:/tmp/obs_cov.json
    python scripts/check_obs_coverage.py \
        --report /tmp/obs_cov.json [--floor 85] [--file-floor 70]

Reads a ``coverage.py`` JSON report and enforces two gates over
``src/repro/obs/``:

* total line coverage across the package must be at least ``--floor``;
* every individual module must be at least ``--file-floor``, so a new
  uncovered module cannot hide behind well-tested neighbours;
* the modules named in ``REQUIRED_MODULES`` must appear in the report at
  all — a module whose tests were deleted (or never imported) vanishes
  from coverage JSON entirely and would otherwise skip both gates.

The observability layer gets its own floor (separate from the repo-wide
``--cov-fail-under``) because it is the measurement instrument: a blind
spot here silently corrupts every experiment that reads its numbers.
"""

from __future__ import annotations

import argparse
import json
import sys

#: modules that must be exercised by the suite (per-module floor applies)
REQUIRED_MODULES = (
    "tracer.py",
    "spans.py",
    "attribution.py",
    "audit.py",
)


def check(report: dict, floor: float, file_floor: float) -> int:
    files = {
        path: data
        for path, data in report.get("files", {}).items()
        if "repro/obs/" in path.replace("\\", "/")
    }
    if not files:
        print("no repro/obs files in the coverage report — wrong --cov scope?")
        return 2
    failures = []
    for module in REQUIRED_MODULES:
        if not any(
            path.replace("\\", "/").endswith(f"repro/obs/{module}")
            for path in files
        ):
            failures.append(f"required module {module} missing from report")
    total_covered = total_statements = 0
    for path in sorted(files):
        summary = files[path]["summary"]
        covered = int(summary["covered_lines"])
        statements = int(summary["num_statements"])
        total_covered += covered
        total_statements += statements
        pct = 100.0 * covered / statements if statements else 100.0
        status = "ok"
        if pct < file_floor:
            status = "BELOW FLOOR"
            failures.append(f"{path} ({pct:.1f}% < {file_floor:.0f}%)")
        print(f"{status:12s} {path}: {pct:5.1f}% ({covered}/{statements})")
    total_pct = (
        100.0 * total_covered / total_statements if total_statements else 100.0
    )
    print(f"\ntotal repro.obs coverage: {total_pct:.1f}%")
    if total_pct < floor:
        failures.append(f"package total ({total_pct:.1f}% < {floor:.0f}%)")
    if failures:
        print(f"\n{len(failures)} coverage gate(s) failed:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"all obs modules >= {file_floor:.0f}%, package >= {floor:.0f}%")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report", required=True, help="coverage.py JSON report path"
    )
    parser.add_argument(
        "--floor", type=float, default=85.0,
        help="minimum total line coverage %% for repro.obs (default 85)",
    )
    parser.add_argument(
        "--file-floor", type=float, default=70.0,
        help="minimum per-module line coverage %% (default 70)",
    )
    args = parser.parse_args(argv)
    with open(args.report) as fh:
        report = json.load(fh)
    return check(report, args.floor, args.file_floor)


if __name__ == "__main__":
    sys.exit(main())
