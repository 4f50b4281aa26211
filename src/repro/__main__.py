"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the quickstart scenario (predictive control around a slowed
    worker) and print the outcome.
``trace``
    Collect a multilevel-statistics trace for one of the paper's
    applications and print summary statistics (optionally save the
    per-worker target series to ``.npz``).  ``--emit-events`` /
    ``--emit-snapshots`` export the structured trace and snapshot
    streams as JSONL; ``--profile`` prints the DES kernel profile.
``predict``
    Collect a trace and run the model-zoo comparison on it (DRNN-LSTM/
    GRU, TCN, SVR, ARIMA, Holt-Winters, ensemble); ``--grid`` evaluates
    a ``(model x app x fault-profile)`` grid and can write the
    byte-stable grid report JSON.
``reliability``
    Run one misbehaving-worker scenario (baseline / reactive / drnn).
``chaos``
    Run a seeded chaos campaign (worker crashes, message loss, delay
    jitter) and print per-run degradation / recovery-time / tuple
    accounting; ``--out`` writes the full campaign report as JSON.
    ``--jobs N`` shards the runs across worker processes and
    ``--cache DIR`` serves repeated runs from disk — both change
    wall-clock only, never a byte of the report.
``report``
    Run one instrumented scenario (metrics + tracing + SLO engine) and
    write a self-contained run report — byte-stable JSON, optionally an
    HTML page and a Prometheus text dump.

Every command accepts ``--seed`` and prints deterministic results.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _jobs_type(value: str) -> int:
    """argparse type for ``--jobs``: non-negative int, 0 = all cores.

    Negative values raise :class:`argparse.ArgumentTypeError`, which
    argparse turns into a usage error (exit code 2) — consistent across
    every subcommand that fans out.
    """
    try:
        jobs = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid jobs value {value!r}") from exc
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"jobs must be >= 0 (0 = all cores), got {jobs}"
        )
    return jobs


def _parallel_flags(p: argparse.ArgumentParser, cache: bool = True) -> None:
    """Attach the shared ``--jobs`` / ``--cache`` flags to a subcommand."""
    p.add_argument(
        "--jobs", type=_jobs_type, default=1, metavar="N",
        help="worker processes for independent runs "
             "(default 1 = in-process serial, 0 = all cores); "
             "results are byte-identical at any value",
    )
    if cache:
        p.add_argument(
            "--cache", metavar="DIR", default=None,
            help="content-addressed result cache directory "
                 "(reruns with identical config/seed are served from disk)",
        )


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import (
        ControllerConfig,
        PerformancePredictor,
        PredictiveController,
    )
    from repro.experiments.reliability import run_reliability_scenario

    res = run_reliability_scenario(
        app=args.app,
        control="reactive",
        k_misbehaving=1,
        base_rate=args.rate,
        duration=args.duration,
        fault_start=args.duration * 0.3,
        fault_duration=args.duration * 0.5,
        seed=args.seed,
    )
    print(f"app                : {args.app}")
    print(f"acked              : {res.result.acked}")
    print(f"healthy throughput : {res.throughput_healthy():.1f} tuples/s")
    print(f"faulty throughput  : {res.throughput_during_fault():.1f} tuples/s")
    print(f"degradation        : {res.degradation_pct():.1f} %")
    assert res.controller is not None
    for t, worker, event in res.controller.flag_intervals():
        print(f"  t={t:7.1f}s worker {worker} {event.upper()}")
    return 0


def _make_observability(args: argparse.Namespace):
    """Build the run's ObservabilityConfig from CLI flags (or None)."""
    from repro.obs import ObservabilityConfig

    trace = bool(
        getattr(args, "emit_events", None)
        or getattr(args, "spans", None)
        or getattr(args, "attribution", False)
        or getattr(args, "folded", None)
        or getattr(args, "audit", False)
    )
    profile = bool(getattr(args, "profile", False))
    if not (trace or profile):
        return None
    return ObservabilityConfig(
        trace=trace,
        profile=profile,
        trace_capacity=int(getattr(args, "trace_capacity", 1 << 16)),
    )


def _export_observability(args: argparse.Namespace, sim) -> None:
    """Write/print whatever observability outputs the flags asked for."""
    from repro.obs import render_live_summary, snapshots_to_jsonl, trace_to_jsonl

    if getattr(args, "emit_events", None):
        tracer = sim.obs.tracer
        assert tracer is not None
        n = trace_to_jsonl(tracer.events(), args.emit_events)
        print(f"wrote {n} trace events to {args.emit_events}"
              f" (dropped {tracer.dropped} beyond ring capacity)")
    if getattr(args, "emit_snapshots", None):
        n = snapshots_to_jsonl(sim.metrics.snapshots, args.emit_snapshots)
        print(f"wrote {n} snapshots to {args.emit_snapshots}")
    if getattr(args, "live_summary", False):
        print()
        print(render_live_summary(sim.metrics.snapshots))
    spans = getattr(args, "spans", None)
    attribution = getattr(args, "attribution", False)
    folded = getattr(args, "folded", None)
    audit = getattr(args, "audit", False)
    if spans or attribution or folded or audit:
        from repro.obs import build_span_forest, render_folded
        tracer = sim.obs.tracer
        assert tracer is not None
        forest = build_span_forest(tracer.records())
        if spans:
            from repro.obs import render_span_tree
            acked = forest.acked_trees()
            print()
            print(f"span trees ({min(spans, len(acked))} of {len(acked)}"
                  f" acked, {forest.replays} replays):")
            for tree in acked[:spans]:
                print(render_span_tree(tree))
        if attribution:
            from repro.obs import attribute_forest
            print()
            print(attribute_forest(forest).render_table())
        if folded:
            text = render_folded(forest)
            with open(folded, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {len(text.splitlines())} folded stacks to {folded}")
        if audit:
            from repro.obs import DecisionAudit
            events = tracer.non_lifecycle_events()
            print()
            print(DecisionAudit.from_events(events).render_table())
    if getattr(args, "profile", False):
        assert sim.obs.profiler is not None
        print()
        print(sim.obs.profiler.report())


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments import collect_trace

    bundle = collect_trace(
        app=args.app, duration=args.duration, base_rate=args.rate,
        seed=args.seed, observability=_make_observability(args),
    )
    mon = bundle.monitor
    print(f"app       : {args.app}")
    print(f"intervals : {mon.n_intervals}")
    print(f"workers   : {len(mon.worker_ids)}")
    print(f"features  : {len(mon.feature_names)} -> {mon.feature_names}")
    print(f"acked     : {bundle.result.acked}  failed: {bundle.result.failed}")
    for wid in mon.worker_ids:
        t = mon.target_series(wid)
        print(
            f"  worker {wid}: target mean={t.mean() * 1e3:7.3f} ms "
            f"std={t.std() * 1e3:7.3f} ms max={t.max() * 1e3:7.3f} ms"
        )
    if args.out:
        data = {
            f"target_w{wid}": mon.target_series(wid) for wid in mon.worker_ids
        }
        data.update(
            {f"features_w{wid}": mon.feature_matrix(wid) for wid in mon.worker_ids}
        )
        np.savez(args.out, **data)
        print(f"saved trace arrays to {args.out}")
    _export_observability(args, bundle.sim)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.experiments import (
        collect_trace,
        evaluate_models_on_trace,
        format_table,
    )

    if args.grid:
        from repro.experiments.prediction import ALL_MODELS, run_prediction_grid
        from repro.obs.report import grid_summary, report_to_json

        grid = run_prediction_grid(
            apps=tuple(args.apps) if args.apps else (args.app,),
            profiles=tuple(args.profiles),
            models=tuple(args.models) if args.models else ALL_MODELS,
            duration=args.duration,
            base_rate=args.rate,
            window=args.window,
            horizon=args.horizon,
            seed=args.seed,
            jobs=args.jobs,
            cache=args.cache,
            drnn_epochs=args.epochs,
        )
        print(
            format_table(
                ["app", "profile", "model", "MAPE %", "RMSE (s)", "MAE (s)"],
                grid.table_rows(),
                title=f"model grid: {args.horizon}-interval-ahead prediction",
            )
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report_to_json(grid_summary(grid)))
            print(f"wrote grid report to {args.out}")
        return 0

    bundle = collect_trace(
        app=args.app, duration=args.duration, base_rate=args.rate, seed=args.seed
    )
    res = evaluate_models_on_trace(
        bundle.monitor,
        app=args.app,
        window=args.window,
        horizon=args.horizon,
        models=(
            tuple(args.models) if args.models else ("drnn", "arima", "svr")
        ),
        drnn_epochs=args.epochs,
        seed=args.seed,
        jobs=args.jobs,
        cache=args.cache,
    )
    print(
        format_table(
            ["model", "MAPE %", "RMSE (s)", "MAE (s)"],
            res.table_rows(),
            title=f"{args.app}: {args.horizon}-interval-ahead prediction",
        )
    )
    return 0


def _cmd_reliability(args: argparse.Namespace) -> int:
    from repro.experiments.reliability import run_reliability_scenario

    control = None if args.arm == "baseline" else args.arm
    res = run_reliability_scenario(
        app=args.app,
        control=control,
        k_misbehaving=args.k,
        base_rate=args.rate,
        duration=args.duration,
        fault_start=args.duration / 3,
        fault_duration=args.duration / 2,
        seed=args.seed,
        observability=_make_observability(args),
        cache=args.cache,
    )
    print(f"arm         : {res.label}")
    print(f"healthy thr : {res.throughput_healthy():.1f} t/s")
    print(f"faulty thr  : {res.throughput_during_fault():.1f} t/s")
    print(f"degradation : {res.degradation_pct():.1f} %")
    print(f"fault lat.  : {res.latency_during_fault() * 1e3:.1f} ms")
    print(f"failed      : {res.result.failed}")
    _export_observability(args, res.sim)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.reliability import run_chaos_campaign
    from repro.obs import summary_to_json
    from repro.storm import ChaosSpec

    spec = ChaosSpec(
        crashes=args.crashes,
        losses=args.losses,
        delays=args.delays,
        slowdowns=args.slowdowns,
    )
    control = None if args.arm == "baseline" else args.arm
    report = run_chaos_campaign(
        app=args.app,
        spec=spec,
        seed=args.seed,
        runs=args.runs,
        horizon=args.duration,
        base_rate=args.rate,
        control=control,
        jobs=args.jobs,
        cache=args.cache,
        retrain_interval=args.retrain_interval,
    )
    print(f"app          : {args.app}  arm: {args.arm}")
    print(f"campaign     : seed={args.seed} runs={args.runs}"
          f" horizon={args.duration:.0f}s")
    header = (
        f"{'run':>3}  {'seed':>10}  {'faults':>6}  {'degr %':>7}"
        f"  {'recovery s':>10}  {'lost':>6}  {'dropped':>7}  {'conserved':>9}"
    )
    print(header)
    for r in report.runs:
        rec = f"{r.recovery_time:10.1f}" if np.isfinite(r.recovery_time) \
            else f"{'never':>10}"
        print(
            f"{r.run_index:>3}  {r.seed:>10}  {len(r.schedule):>6}"
            f"  {100 * r.degradation:7.1f}  {rec}  {r.lost:>6}"
            f"  {r.dropped:>7}  {str(r.conserved):>9}"
        )
    summary = report.summary()
    print(f"mean degradation : {100 * summary['mean_degradation']:.1f} %")
    if summary["recovered_runs"]:
        print(f"mean recovery    : {summary['mean_recovery_time']:.1f} s"
              f" ({summary['recovered_runs']}/{len(report.runs)} runs)")
    print(f"tuple conservation{' holds' if summary['all_conserved'] else ' VIOLATED'}"
          f" across all runs")
    if args.out:
        summary_to_json(summary, args.out)
        print(f"wrote campaign report to {args.out}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import run_scenario_campaign
    from repro.obs import summary_to_json

    report = run_scenario_campaign(
        scenario=args.name,
        seed=args.seed,
        runs=args.runs,
        horizon=args.duration,
        arms=tuple(args.arms),
        jobs=args.jobs,
        cache=args.cache,
    )
    spec = report.scenario
    print(f"scenario     : {spec.name}  ({spec.description})")
    print(f"campaign     : seed={args.seed} runs={args.runs}"
          f" horizon={report.horizon:.0f}s  slo={spec.latency_slo:.2f}s")
    header = (
        f"{'arm':>12}  {'run':>3}  {'breach %':>8}  {'p99 s':>7}"
        f"  {'tput/s':>7}  {'pool':>8}  {'out/in':>6}  {'min rate':>8}"
        f"  {'conserved':>9}"
    )
    print(header)
    for r in report.runs:
        pool = f"{r.workers_min}-{r.workers_max}"
        print(
            f"{r.arm:>12}  {r.run_index:>3}"
            f"  {100 * r.slo_breach_fraction:8.1f}"
            f"  {r.p99_complete_latency:7.3f}"
            f"  {r.mean_throughput:7.1f}  {pool:>8}"
            f"  {r.scale_outs:>3}/{r.scale_ins:<2}"
            f"  {r.min_admission_rate:8.2f}  {str(r.conserved):>9}"
        )
    summary = report.summary()
    for arm in report.arms:
        agg = summary["arms"][arm]
        print(f"{arm:>12}: mean breach "
              f"{100 * agg['mean_slo_breach_fraction']:.1f} %  "
              f"mean p99 {agg['mean_p99_latency']:.3f} s  "
              f"max pool {agg['max_pool']}")
    all_conserved = all(r.conserved for r in report.runs)
    print(f"tuple conservation"
          f"{' holds' if all_conserved else ' VIOLATED'} across all cells")
    if args.out:
        summary_to_json(summary, args.out)
        print(f"wrote scenario report to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.compare:
        import json

        from repro.obs import compare_reports, render_compare
        from repro.obs.report import report_to_json

        path_a, path_b = args.compare
        with open(path_a, encoding="utf-8") as fh:
            report_a = json.load(fh)
        with open(path_b, encoding="utf-8") as fh:
            report_b = json.load(fh)
        diff = compare_reports(report_a, report_b)
        print(render_compare(diff))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(diff))
        print(f"\nwrote diff to {args.out}")
        return 0
    from repro.experiments.reliability import run_reliability_scenario
    from repro.obs import (
        AvailabilitySLO,
        LatencySLO,
        ObservabilityConfig,
        RecoverySLO,
        SLOPolicy,
        write_report_html,
        write_report_json,
    )

    policy = SLOPolicy(
        rules=(
            LatencySLO(name="p99-latency", quantile=0.99,
                       bound=args.latency_bound),
            AvailabilitySLO(name="availability",
                            min_ratio=args.min_availability),
            RecoverySLO(name="recovery", objective=args.rto),
        ),
    )
    control = None if args.arm == "baseline" else args.arm
    res = run_reliability_scenario(
        app=args.app,
        control=control,
        k_misbehaving=args.k,
        base_rate=args.rate,
        duration=args.duration,
        fault_start=args.duration / 3,
        fault_duration=args.duration / 2,
        seed=args.seed,
        # ring sized to hold the whole run, so the attribution and audit
        # report sections cover every tuple and control interval
        observability=ObservabilityConfig(
            trace=True, metrics=True, trace_capacity=1 << 20
        ),
        slo=policy,
        cache=args.cache,
    )
    label = f"{args.app}/{res.label}/seed={args.seed}"
    report = res.result.run_report(label=label)
    write_report_json(report, args.out)
    print(f"wrote run report to {args.out}")
    if args.html:
        write_report_html(report, args.html)
        print(f"wrote HTML report to {args.html}")
    if args.prometheus:
        assert res.sim is not None and res.sim.obs.metrics is not None
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(res.sim.obs.metrics.render_prometheus())
        print(f"wrote Prometheus exposition to {args.prometheus}")
    assert res.sim is not None and res.sim.obs.slo is not None
    episodes = res.sim.obs.slo.episodes()
    print(f"arm {res.label}: acked={res.result.acked}"
          f" failed={res.result.failed}"
          f" slo_breaches={len(episodes)}"
          f" recovered={sum(1 for e in episodes if e.recovered)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, duration):
        p.add_argument("--app", default="url_count",
                       choices=("url_count", "continuous_query"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--rate", type=float, default=200.0)
        p.add_argument("--duration", type=float, default=duration)

    p = sub.add_parser("demo", help="quick misbehaving-worker demo")
    common(p, 180.0)
    p.set_defaults(func=_cmd_demo)

    def obs_flags(p):
        p.add_argument("--emit-events", metavar="PATH", default=None,
                       help="trace the run and write the events as JSONL")
        p.add_argument("--emit-snapshots", metavar="PATH", default=None,
                       help="write the metrics snapshot stream as JSONL")
        p.add_argument("--live-summary", action="store_true",
                       help="print an ASCII summary of the last snapshots")
        p.add_argument("--profile", action="store_true",
                       help="profile the DES kernel and print its report")
        p.add_argument("--spans", type=int, metavar="N", default=None,
                       help="trace the run and dump the first N acked "
                            "span trees (critical path marked with *)")
        p.add_argument("--attribution", action="store_true",
                       help="trace the run and print the per-component "
                            "latency attribution table")
        p.add_argument("--folded", metavar="PATH", default=None,
                       help="trace the run and write critical-path "
                            "folded stacks (flamegraph text format)")
        p.add_argument("--audit", action="store_true",
                       help="trace the run and print the controller "
                            "decision-audit table")
        p.add_argument("--trace-capacity", type=int, default=1 << 16,
                       metavar="N",
                       help="trace ring-buffer size (default 65536); "
                            "size it to the run for full span coverage")

    p = sub.add_parser("trace", help="collect a statistics trace")
    common(p, 240.0)
    p.add_argument("--out", default=None, help="save arrays to this .npz")
    obs_flags(p)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("predict", help="model zoo comparison on a trace")
    common(p, 360.0)
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--models", nargs="*", default=None,
                   help="model subset (default: drnn arima svr; the grid "
                        "defaults to all seven families)")
    p.add_argument("--grid", action="store_true",
                   help="run the (model x app x fault-profile) grid "
                        "instead of a single-trace comparison")
    p.add_argument("--apps", nargs="*", default=None,
                   help="grid apps (default: just --app)")
    p.add_argument("--profiles", nargs="*",
                   default=("interference", "slowdown"),
                   help="grid fault profiles "
                        "(interference/calm/slowdown/crash)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the byte-stable grid report JSON here")
    _parallel_flags(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("reliability", help="one misbehaving-worker scenario")
    common(p, 240.0)
    p.add_argument("--arm", default="reactive",
                   choices=("baseline", "reactive", "drnn"))
    p.add_argument("--k", type=int, default=1, help="misbehaving workers")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="result cache directory (reuses the DRNN arm's "
                        "calibration predictor across runs)")
    obs_flags(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("chaos", help="seeded chaos campaign (crash/loss/delay)")
    common(p, 180.0)
    p.add_argument("--runs", type=int, default=3,
                   help="simulations in the campaign")
    p.add_argument("--arm", default="baseline",
                   choices=("baseline", "reactive", "online", "autoscale"),
                   help="control arm; autoscale never scales at the pinned "
                        "campaign (url_count, seed 7, rate 120), where its "
                        "report equals baseline's")
    p.add_argument("--retrain-interval", type=float, default=30.0,
                   help="online arm: sim-seconds between in-run predictor "
                        "refits (ignored by other arms)")
    p.add_argument("--crashes", type=int, default=1)
    p.add_argument("--losses", type=int, default=1)
    p.add_argument("--delays", type=int, default=0)
    p.add_argument("--slowdowns", type=int, default=0)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the campaign report JSON here")
    _parallel_flags(p)
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "scenario",
        help="elasticity scenario campaign (workload shapes, paired arms)",
    )
    p.add_argument("--name", default="flash_crowd",
                   help="scenario from the pack (see docs/elasticity.md): "
                        "diurnal_ramp, flash_crowd, hot_key_storm, "
                        "slow_burn")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--runs", type=int, default=2,
                   help="paired runs per arm")
    p.add_argument("--duration", type=float, default=None,
                   help="simulated seconds per run (default: the "
                        "scenario's own horizon)")
    p.add_argument("--arms", nargs="+", default=["fixed", "autoscale"],
                   choices=("fixed", "autoscale", "rate_control"),
                   help="control arms to run (each replays the same "
                        "per-run seeds)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the campaign report JSON here")
    _parallel_flags(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser(
        "report", help="instrumented run -> byte-stable JSON/HTML report"
    )
    common(p, 180.0)
    p.add_argument("--arm", default="reactive",
                   choices=("baseline", "reactive", "drnn"))
    p.add_argument("--k", type=int, default=1, help="misbehaving workers")
    p.add_argument("--latency-bound", type=float, default=1.0,
                   help="p99 complete-latency SLO bound, seconds")
    p.add_argument("--min-availability", type=float, default=0.95,
                   help="windowed acked/(acked+failed) SLO floor")
    p.add_argument("--rto", type=float, default=60.0,
                   help="recovery-time objective after a fault, seconds")
    p.add_argument("--out", metavar="PATH", default="report.json",
                   help="JSON report path")
    p.add_argument("--html", metavar="PATH", default=None,
                   help="also render the report as a single HTML page")
    p.add_argument("--prometheus", metavar="PATH", default=None,
                   help="also dump the metrics registry in Prometheus text")
    p.add_argument("--cache", metavar="DIR", default=None,
                   help="result cache directory (reuses the DRNN arm's "
                        "calibration predictor across runs)")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                   default=None,
                   help="diff two existing run reports instead of "
                        "running (latency percentiles, SLO breach "
                        "fraction, attribution shares); the diff JSON "
                        "goes to --out")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
