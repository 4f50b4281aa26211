#!/usr/bin/env python3
"""Perf ledger: run one named workload from a seed and print its metrics.

    python3 benchmarks/ledger/run.py --workload url_count_slow_worker
    python3 benchmarks/ledger/run.py --workload chaos_crash_loss --traced
    python3 benchmarks/ledger/run.py --all --json ledger.json
    python3 benchmarks/ledger/run.py --list

An untraced run (``--trace 0``) sets up, times iterations of the
workload and prints the end-to-end metrics.  A traced run (``--trace 1``)
times one untraced iteration, then one more under the timing wrappers of
``layers.py``, and prints the per-layer metrics.  The last line of
standard output is always the one-object JSON result; the exit code is
non-zero when any output check failed.  See README.md.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import os

# One process, one core: pin BLAS before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCHEMA = "repro-ledger/1"

from workloads import BY_NAME, LEDGER_BOUNDS, WORKLOADS  # noqa: E402


def load_spec():
    """BENCHMARK.json: the metric declarations (names, units, bounds)."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _no_span(_name, fn):
    return fn


def _stat(samples):
    return {
        "value": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _digest(summary):
    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _git_commit():
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(numpy_version, load_start):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_commit": _git_commit(),
    }


def run_workload(name, seed, seconds, traced, spans_path=None):
    """Run one workload; returns the ledger record (all metrics it measured)."""
    load_start = list(os.getloadavg())
    workload = BY_NAME[name]
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"no program to measure: {ROOT}/src/repro is missing")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    import layers
    import program

    import_s = time.perf_counter() - _T0
    set_up, drive = program.DRIVERS[workload.driver]
    args = workload.arguments(seed)
    fixture = set_up(args)
    setup_s = time.perf_counter() - _T0

    outcomes, walls, errors = [], [], 0
    cap = 1 if traced else workload.iterations
    started = time.perf_counter()
    while len(walls) + errors < cap:
        if (
            seconds is not None
            and len(walls) + errors >= 2
            and time.perf_counter() - started >= seconds
        ):
            break
        gc.collect()  # every iteration starts from the same heap
        t0 = time.perf_counter()
        try:
            outcome = drive(args, fixture, _no_span)
        except Exception:
            traceback.print_exc()
            errors += 1
            continue
        walls.append(time.perf_counter() - t0)
        outcomes.append(outcome)

    layer = {}
    if traced and outcomes:
        gc.collect()
        log = layers.SpanLog()
        undo = layers.install(log)
        t0 = time.perf_counter()
        try:
            outcome = log.timed(layers.ROOT_SPAN, drive)(args, fixture, log.timed)
        except Exception:
            traceback.print_exc()
            errors += 1
        else:
            traced_wall = time.perf_counter() - t0
            outcomes.append(outcome)
            layer = layers.reduce(log)
            layer.update(outcome.counts)
            layer["trace.wall_s"] = traced_wall
            layer["trace.overhead_frac"] = (
                traced_wall / statistics.median(walls) - 1.0
            )
            layer["setup.import_s"] = import_s
            layer["setup.fixture_s"] = setup_s - import_s
            if spans_path:
                log.save(spans_path)
        finally:
            layers.uninstall(undo)
    if not outcomes:
        sys.exit("every iteration raised; nothing to report")

    # Every iteration is the same deterministic run: one digest.
    digests = {_digest(o.summary) for o in outcomes}
    ops = [ok for o in outcomes for ok in o.ops.values()]
    ops.append(len(digests) == 1)
    attempted = len(ops) + errors
    failed = errors + sum(1 for ok in ops if not ok)

    timed = outcomes[: len(walls)]
    metrics = {
        "setup_s": _stat([setup_s]),
        "wall_ms_per_sim_s": _stat([1e3 * w / workload.sim_seconds for w in walls]),
        "acked_tuples_per_wall_s": _stat(
            [o.acked / w for o, w in zip(timed, walls)]
        ),
        "peak_rss_mb": _stat(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        ),
        "failed_ops_frac": _stat([failed / attempted]),
    }
    for key in outcomes[0].values:
        metrics[key] = _stat([o.values[key] for o in timed])
    steps = [
        1e3 * s for o in timed for s in o.samples.get("control_step", ())
    ]
    if steps:
        for key, q in (("control_step_p50_ms", 0.50), ("control_step_p95_ms", 0.95)):
            metrics[key] = {**_stat(steps), "value": _percentile(steps, q)}
    refits = [s for o in timed for s in o.samples.get("refit", ())]
    if refits:
        metrics["refit_s"] = _stat(refits)
    for key, value in layer.items():
        metrics[key] = _stat([value])

    return {
        "schema": SCHEMA,
        "workload": name,
        "seed": seed,
        "traced": bool(traced),
        "iterations": len(walls),
        "iterations_cap": workload.iterations,
        "digest": sorted(digests)[0] if len(digests) == 1 else None,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "environment": environment(numpy.__version__, load_start),
    }


def print_record(record, declared):
    """Every metric of the run's mode by name, with unit and bound."""
    print(
        f"== {record['workload']} seed={record['seed']}"
        f" traced={int(record['traced'])} iterations={record['iterations']}"
        f" digest={(record['digest'] or 'MISMATCH')[:16]}"
        f" checks={record['attempted'] - record['failed']}/{record['attempted']}"
    )
    for m in declared:
        stat = record["metrics"].get(m["name"], {"value": 0.0, "n": 0})
        spread = (
            f"  (min {stat['min']:.6g} max {stat['max']:.6g} n={stat['n']})"
            if stat["n"] > 1 else ""
        )
        print(f"  {m['name']:<34} {stat['value']:>14.6g} {m['unit']:<6}{spread}")
    env = record["environment"]
    print(
        f"  -- python {env['python']} numpy {env['numpy']} | {env['cpu_model']}"
        f" x{env['nproc']} | blas threads {env['blas_threads']}"
        f" | load {env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}"
        f" | commit {env['git_commit']}"
    )


def result_line(record, declared):
    """The one-object result the benchmark contract asks for."""
    metrics = {}
    for m in declared:
        stat = record["metrics"].get(m["name"])
        # only end-to-end declarations carry a bound, and every workload
        # measures all of them; a layer a workload never enters reads 0
        if stat is None and "bound" in m:
            raise KeyError(f"end-to-end metric {m['name']} was not measured")
        value = stat["value"] if stat else 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def append_json(path, record):
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def print_list():
    spec = load_spec()
    print("workloads:")
    for w in WORKLOADS:
        print(
            f"  {w.name}: app={w.app} rate={w.rate:g}/s duration={w.duration:g}s"
            f" fault={dict(w.fault)} control={w.control} observed={w.observed}"
            f" iterations={w.iterations}\n      {w.why}"
        )
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<34} {m['unit']:<6} {m['better']:<6} bound {m['bound']}")
    print("per-layer metrics (--trace 1; bounds are compare.py's, not the driver's):")
    for m in spec["per_layer"]:
        kind, bound = LEDGER_BOUNDS.get(m["name"], ("", "-"))
        print(f"  {m['name']:<34} {m['unit']:<6} {m['better']:<6} bound {bound} {kind}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="time box: stop iterating once this much has been measured "
             "(at least 2 iterations); default runs the workload's full count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--json", metavar="PATH", help="append the full record(s)")
    parser.add_argument("--spans", metavar="PATH", help="traced run: save raw spans (.npz)")
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--list", action="store_true", help="print workloads and metrics")
    opts = parser.parse_args(argv)
    traced = bool(opts.trace or opts.traced)

    if opts.list:
        print_list()
        return 0
    if opts.all:
        worst = 0
        for w in WORKLOADS:
            # a process each: set-up time and peak RSS are per workload
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w.name,
                   "--seed", str(opts.seed), "--trace", str(int(traced))]
            if opts.seconds is not None:
                cmd += ["--seconds", str(opts.seconds)]
            if opts.json:
                cmd += ["--json", opts.json]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
        return worst
    if opts.workload is None:
        parser.error("one of --workload, --all, --list is required")

    declared = load_spec()["per_layer" if traced else "end_to_end"]
    record = run_workload(opts.workload, opts.seed, opts.seconds, traced, opts.spans)
    line = result_line(record, declared)
    print_record(record, declared)
    if opts.json:
        append_json(opts.json, record)
    print(line)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
