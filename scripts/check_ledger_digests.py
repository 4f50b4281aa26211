"""Check perf-ledger run digests against the pinned seed-7 values.

Usage::

    python3 benchmarks/ledger/run.py --all --seconds 1 --json /tmp/ledger.json
    python scripts/check_ledger_digests.py /tmp/ledger.json

Each ledger record carries the SHA-256 digest of its workload's
simulated-time summary.  Exits 1 when a pinned workload is missing from
the records or its digest differs from ``tests/golden/ledger_digests.json``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden" / "ledger_digests.json"


def check(records, golden) -> list:
    """Problems found: one line per missing or mismatched workload."""
    got = {r["workload"]: r["digest"] for r in records if r["seed"] == golden["seed"]}
    problems = []
    for name, want in sorted(golden["digests"].items()):
        if name not in got:
            problems.append(f"{name}: missing from the ledger records")
        elif got[name] != want:
            problems.append(f"{name}: digest {got[name]} != pinned {want}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", help="JSON written by run.py --json")
    opts = parser.parse_args(argv)
    records = json.loads(Path(opts.records).read_text())
    problems = check(records, json.loads(GOLDEN.read_text()))
    for line in problems:
        print(line, file=sys.stderr)
    if not problems:
        print(f"ledger digests match {GOLDEN}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
