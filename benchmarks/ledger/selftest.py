#!/usr/bin/env python3
"""Self-test of the ledger (run explicitly; pytest's testpaths stay ``tests``).

    python3 benchmarks/ledger/selftest.py                 # every workload, ~5 min
    python3 benchmarks/ledger/selftest.py chaos_crash_loss  # only the named ones

Checks that

* every name in BENCHMARK.json matches ``[A-Za-z0-9_.-]+`` and is used
  once, and the workload table there is the one in ``workloads.py``;
* every span the wrappers can record belongs to a declared layer metric;
* an untraced run emits exactly the end-to-end metrics, none of them
  zero, and a traced run exactly the per-layer metrics;
* the layer self times of a traced run sum to the traced wall within
  1 %, of which what no wrapper covered is at most 1 %;
* every per-layer metric reads non-zero on at least one workload (when
  all workloads are run);
* the wrappers are absent before, and gone after, a traced iteration.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
from run import load_spec  # noqa: E402
from workloads import LEDGER_BOUNDS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def static_checks(spec):
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    check(all(NAME.match(n) for n in names), "every name matches [A-Za-z0-9_.-]+")
    check(len(set(names)) == len(names), "every name is used once")
    check(
        [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(w.name, w.why) for w in WORKLOADS],
        "BENCHMARK.json lists the workloads of workloads.py",
    )
    per_layer = {m["name"] for m in spec["per_layer"]}
    check(set(LEDGER_BOUNDS) <= per_layer, "every LEDGER_BOUNDS metric is declared")
    spans = [s for _, _, s in layers.ENTRY_POINTS]
    spans += [s for _, s in layers.PROCESS_SPANS]
    spans += [f"apps.{a}" for _, attrs in layers.APP_ENTRY_POINTS for a in attrs]
    spans += [layers.ROUTE_SPAN, layers.OTHER_PROCESS_SPAN, layers.ROOT_SPAN,
              "core.controller.step", "models.eval"]
    check(
        {layers.layer_of(s) for s in spans} <= per_layer,
        "every span belongs to a declared per-layer metric",
    )


def wrapper_checks():
    check(layers.wrapped_entry_points() == [], "no wrappers before a traced iteration")
    undo = layers.install(layers.SpanLog(capacity=16))
    installed = len(layers.wrapped_entry_points())
    layers.uninstall(undo)
    check(installed == len(layers.ENTRY_POINTS) + 1, "install wraps every entry point")
    check(layers.wrapped_entry_points() == [], "no wrappers after uninstall")


def run(workload, trace):
    """One time-boxed run in its own process; returns its result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def dynamic_checks(spec, workloads):
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    layer_times = {metric for _, metric in layers.LAYER_OF_SPAN}
    nonzero = set()
    for name in workloads:
        result = run(name, 0)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        check(result["correct"] and result["failed"] == 0, f"{name}: checks pass")
        check(list(values) == end_to_end, f"{name}: emits exactly the end-to-end metrics")
        check(all(v != 0 for v in values.values()), f"{name}: no end-to-end metric is 0")

        result = run(name, 1)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        check(result["correct"], f"{name} traced: checks pass")
        check(list(values) == per_layer, f"{name} traced: emits exactly the per-layer metrics")
        wall = values["trace.wall_s"]
        total = sum(
            values[m] * (1e-3 if m.endswith("_ms") else 1.0) for m in layer_times
        )
        check(abs(total - wall) <= 0.01 * wall,
              f"{name} traced: layer self times sum to the traced wall"
              f" ({total:.4f} s of {wall:.4f} s)")
        check(values["trace.unattributed_s"] <= 0.01 * wall,
              f"{name} traced: at most 1 % unattributed"
              f" ({values['trace.unattributed_s']:.4f} s)")
        nonzero |= {k for k, v in values.items() if v != 0}
    if set(workloads) == {w.name for w in WORKLOADS}:
        # these two read 0 on a healthy run: nothing dropped, nothing failed
        dead = set(per_layer) - nonzero - {"obs.tracer.dropped", "failed_ops_frac"}
        check(not dead, f"every per-layer metric is live on some workload {sorted(dead)}")


def main(argv):
    spec = load_spec()
    static_checks(spec)
    wrapper_checks()
    dynamic_checks(spec, argv or [w.name for w in WORKLOADS])
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
