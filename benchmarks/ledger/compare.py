#!/usr/bin/env python3
"""Compare two ledger files: ``compare.py A.json B.json`` (A is the base).

Each file is what ``run.py --json`` appended: any number of records per
workload (more records, e.g. ten seeds, give a spread worth the name).
Per workload and metric it prints both medians, the ratio B/A, the bound
and a verdict:

* ``ok``         B's median is no worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` the run-to-run spread of either side is wider than the
  bound, so the medians cannot tell — unless every run of B reads better
  than every run of A, which is ``ok``;
* ``-``          the metric carries no bound (per-layer numbers).

Simulated-time metrics (``PER_SEED``) repeat exactly for a seed, so they
are judged seed by seed over the seeds both files share: ``equal`` when
every pair is identical, ``worse`` when any pair differs by more than
the bound.

Bounds come from BENCHMARK.json (end-to-end) and ``LEDGER_BOUNDS``.
Exit code 1 when any metric is ``worse``.
"""

import json
import statistics
import sys

from run import load_spec
from workloads import LEDGER_BOUNDS, PER_SEED


def load_bounds():
    """``name -> (better, kind, bound)``; bound is None for unbounded metrics."""
    spec = load_spec()
    bounds = {}
    for m in spec["end_to_end"]:
        bounds[m["name"]] = (m["better"], "ratio", m["bound"])
    for m in spec["per_layer"]:
        kind, bound = LEDGER_BOUNDS.get(m["name"], ("ratio", None))
        bounds[m["name"]] = (m["better"], kind, bound)
    return bounds


def load_samples(path):
    """``(workload, traced) -> metric -> [(value, min, max, seed)]`` plus digests."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    samples, digests = {}, {}
    for rec in records:
        key = (rec["workload"], rec["traced"])
        digests.setdefault(rec["workload"], {})[rec["seed"]] = rec["digest"]
        for name, stat in rec["metrics"].items():
            samples.setdefault(key, {}).setdefault(name, []).append(
                (stat["value"], stat["min"], stat["max"], rec["seed"])
            )
    return samples, digests


def spread(points):
    """Run-to-run spread in the metric's own unit.

    Interquartile range over runs when there are at least four, their
    range when there are two or three, and a lone run's own
    iteration-to-iteration range otherwise.
    """
    values = [p[0] for p in points]
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    if len(values) >= 2:
        return max(values) - min(values)
    return points[0][2] - points[0][1]


def verdict(a, b, better, kind, bound, per_seed=False):
    """``(status, median A, median B)`` of B's points against A's."""
    va = [p[0] for p in a]
    vb = [p[0] for p in b]
    ma, mb = statistics.median(va), statistics.median(vb)
    if bound is None:
        return "-", ma, mb
    sign = 1.0 if better == "lower" else -1.0
    if per_seed:
        by_seed = {p[3]: p[0] for p in a}
        pairs = [(by_seed[p[3]], p[0]) for p in b if p[3] in by_seed]
        if not pairs:
            return "-", ma, mb
        if all(x == y for x, y in pairs):
            return "equal", ma, mb
        worse = any(
            sign * (y - x) > bound * (abs(x) if kind == "ratio" else 1.0)
            for x, y in pairs
        )
        return ("worse" if worse else "ok"), ma, mb
    limit = bound * (abs(ma) if kind == "ratio" else 1.0)
    if max(spread(a), spread(b)) > limit and limit > 0:
        b_all_better = (
            max(vb) < min(va) if better == "lower" else min(vb) > max(va)
        )
        return ("ok" if b_all_better else "unresolved"), ma, mb
    return ("worse" if sign * (mb - ma) > limit else "ok"), ma, mb


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    bounds = load_bounds()
    (sa, da), (sb, db) = load_samples(argv[0]), load_samples(argv[1])
    counts = {"ok": 0, "equal": 0, "worse": 0, "unresolved": 0, "-": 0}
    for key in sorted(set(sa) & set(sb)):
        workload, traced = key
        print(f"== {workload} traced={int(traced)}"
              f" runs A={len(next(iter(sa[key].values())))}"
              f" B={len(next(iter(sb[key].values())))}")
        for name in sa[key]:
            if name not in sb[key] or name not in bounds:
                continue
            better, kind, bound = bounds[name]
            a, b = sa[key][name], sb[key][name]
            status, ma, mb = verdict(a, b, better, kind, bound, name in PER_SEED)
            counts[status] += 1
            ratio = f"{mb / ma:.4f}x A" if ma else "n/a"
            limit = "-" if bound is None else f"{bound:g} {kind}"
            print(f"  {name:<34} A {ma:>12.6g}  B {mb:>12.6g}  {ratio:>12}"
                  f"  bound {limit:<11} {status}")
    for workload in sorted(set(da) & set(db)):
        seeds = sorted(set(da[workload]) & set(db[workload]))
        same = sum(1 for s in seeds if da[workload][s] == db[workload][s])
        print(f"digest {workload}: {same}/{len(seeds)} shared seeds identical")
    print(", ".join(f"{n} {status}" for status, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
