"""Self-contained run reports: one JSON/HTML artifact per simulation run.

Every entry point (demo, reliability, chaos, ``python -m repro report``)
can reduce a finished run to the same artifact: the segment
summary, the deterministic slice of the metrics registry, the SLO
engine's episode log, trace accounting, and the deterministic kernel
profile.  The JSON form is **byte-stable**: keys are sorted, floats are
emitted by ``repr`` (reproducible under a fixed seed), and every
wall-clock-derived value is excluded (nondeterministic metrics are
filtered by the registry, and only the profiler's deterministic counters
are included), so running the same seed twice produces identical bytes —
CI diffs the artifact exactly like the golden chaos campaign.

The HTML form is a dependency-free single file (inline CSS, no scripts)
rendering the same data as tables for humans.
"""

from __future__ import annotations

import html as _html
import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.runner import SimulationResult

REPORT_SCHEMA = "repro-report/1"


def build_report(
    result: "SimulationResult", label: str = ""
) -> Dict[str, Any]:
    """Reduce one :class:`SimulationResult` segment to a report dict.

    Sections appear only when the matching observability capability was
    enabled for the run: ``metrics`` needs the registry, ``slo`` the SLO
    engine, ``trace`` the tracer, ``profile`` the kernel profiler.  A run
    with observability fully disabled still reports its summary.
    """
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "label": label,
        "run": dict(result.summary()),
    }
    obs = result.obs
    if obs is None:
        return report
    if obs.tracer is not None:
        # Span-tree attribution + decision audit derive purely from the
        # trace, so both sections are deterministic.  Publishing the
        # attribution gauges *before* the metrics section renders makes
        # the decomposition visible next to the raw latency histograms.
        # The span builder reads the raw ring; only the few non-lifecycle
        # records (control, fault, SLO) get TraceEvent views for the audit.
        from repro.obs.attribution import attribute_forest
        from repro.obs.audit import DecisionAudit
        from repro.obs.spans import build_span_forest

        forest = build_span_forest(obs.tracer.records())
        attribution = attribute_forest(forest)
        report["attribution"] = attribution.to_dict()
        if obs.metrics is not None:
            attribution.publish(obs.metrics)
        audit = DecisionAudit.from_events(obs.tracer.non_lifecycle_events())
        if audit.records or audit.samples or audit.skips:
            report["audit"] = audit.summary()
    if obs.metrics is not None:
        report["metrics"] = obs.metrics.to_dict()
    if obs.slo is not None:
        report["slo"] = obs.slo.results()
    if obs.tracer is not None:
        report["trace"] = {
            "retained": len(obs.tracer),
            "dropped": obs.tracer.dropped,
            "kind_counts": dict(sorted(obs.tracer.kind_counts().items())),
        }
    if obs.profiler is not None:
        # Deterministic counters only — events/sec and wall attribution
        # depend on the host machine and would break byte-stability.
        prof = obs.profiler
        report["profile"] = {
            "events_processed": prof.events_processed,
            "max_heap_depth": prof.max_heap_depth,
            "mean_heap_depth": prof.mean_heap_depth,
        }
    return report


def report_to_json(report: Dict[str, Any]) -> str:
    """Canonical byte-stable JSON text of a report."""
    return json.dumps(
        report, indent=2, sort_keys=True, separators=(",", ": ")
    ) + "\n"


def write_report_json(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_json(report))


# -- two-run comparison ------------------------------------------------------------------

DIFF_SCHEMA = "repro-report-diff/1"

#: run-summary keys worth diffing arm-vs-arm
_DIFF_RUN_KEYS = (
    "mean_complete_latency",
    "p50_complete_latency",
    "p99_complete_latency",
    "mean_throughput",
    "acked",
    "failed",
)


def _breach_stats(report: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Breach count + downtime fraction of one report's SLO section.

    Downtime sums per-rule episode spans (an unrecovered episode runs to
    the end of the segment), so overlapping rules count once each — the
    fraction is rule-downtime over run duration, comparable between two
    runs of the same policy.
    """
    slo = report.get("slo")
    if slo is None:
        return None
    run = report.get("run", {})
    end = run.get("start_time", 0.0) + run.get("duration", 0.0)
    duration = run.get("duration", 0.0)
    breaches = 0
    downtime = 0.0
    for rule in slo.get("rules", []):
        breaches += rule.get("breaches", 0)
        for e in rule.get("episodes", []):
            t1 = e["recover_time"] if e.get("recovered") else end
            downtime += max(0.0, t1 - e["breach_time"])
    return {
        "breaches": breaches,
        "downtime": downtime,
        "breach_fraction": downtime / duration if duration > 0 else 0.0,
    }


def compare_reports(
    a: Dict[str, Any], b: Dict[str, Any]
) -> Dict[str, Any]:
    """Minimal two-run diff of ``repro-report/1`` dicts (A = baseline).

    Covers the arm-vs-arm questions: latency percentiles and throughput
    deltas, SLO breach fraction, and attribution share shifts (when both
    runs were traced).  Sections present in only one report are skipped.
    """
    run_a, run_b = a.get("run", {}), b.get("run", {})
    run: Dict[str, Any] = {}
    for key in _DIFF_RUN_KEYS:
        va, vb = run_a.get(key), run_b.get(key)
        if va is None or vb is None:
            continue
        run[key] = {
            "a": va,
            "b": vb,
            "delta": vb - va,
            "ratio": vb / va if va else None,
        }
    diff: Dict[str, Any] = {
        "schema": DIFF_SCHEMA,
        "a": a.get("label", ""),
        "b": b.get("label", ""),
        "run": run,
    }
    sa, sb = _breach_stats(a), _breach_stats(b)
    if sa is not None and sb is not None:
        diff["slo"] = {
            "a": sa,
            "b": sb,
            "breach_fraction_delta": (
                sb["breach_fraction"] - sa["breach_fraction"]
            ),
        }
    at_a, at_b = a.get("attribution"), b.get("attribution")
    if at_a is not None and at_b is not None:
        shares: Dict[str, Any] = {}
        for comp in ("queue", "service", "transit", "replay"):
            va = at_a.get("shares", {}).get(comp)
            vb = at_b.get("shares", {}).get(comp)
            if va is None or vb is None:
                continue
            shares[comp] = {"a": va, "b": vb, "delta": vb - va}
        diff["attribution_shares"] = shares
    return diff


def render_compare(diff: Dict[str, Any]) -> str:
    """Human-readable table of a :func:`compare_reports` diff."""
    lines = [
        f"A: {diff.get('a') or '(unlabelled)'}",
        f"B: {diff.get('b') or '(unlabelled)'}",
        "",
        f"{'metric':>24}  {'A':>12}  {'B':>12}  {'delta':>12}",
    ]
    for key, d in diff.get("run", {}).items():
        lines.append(
            f"{key:>24}  {d['a']:>12.6g}  {d['b']:>12.6g}"
            f"  {d['delta']:>+12.6g}"
        )
    slo = diff.get("slo")
    if slo is not None:
        lines.append(
            f"{'slo_breach_fraction':>24}  {slo['a']['breach_fraction']:>12.4f}"
            f"  {slo['b']['breach_fraction']:>12.4f}"
            f"  {slo['breach_fraction_delta']:>+12.4f}"
        )
    shares = diff.get("attribution_shares")
    if shares:
        lines.append("")
        lines.append(
            f"{'attribution share':>24}  {'A':>12}  {'B':>12}  {'delta':>12}"
        )
        for comp, d in shares.items():
            lines.append(
                f"{comp:>24}  {d['a']:>12.4f}  {d['b']:>12.4f}"
                f"  {d['delta']:>+12.4f}"
            )
    return "\n".join(lines)


# -- model-grid reports ------------------------------------------------------------------

GRID_SCHEMA = "repro-grid/1"


def grid_summary(grid) -> Dict[str, Any]:
    """Reduce a :class:`~repro.experiments.prediction.PredictionGrid` to a
    byte-stable report dict (serialize with :func:`report_to_json`).

    Scores come straight from the deterministic evaluation, so the same
    grid configuration always produces identical bytes — the
    ``model-grid-smoke`` CI job uploads this artifact.
    """
    cells = []
    for (app, profile) in sorted(grid.cells):
        res = grid.cells[(app, profile)]
        cell: Dict[str, Any] = {
            "app": app,
            "profile": profile,
            "scores": {
                model: {k: float(v) for k, v in sorted(s.items())}
                for model, s in sorted(res.scores.items())
            },
        }
        if res.meta:
            cell["meta"] = {
                model: dict(sorted(m.items()))
                for model, m in sorted(res.meta.items())
            }
        cells.append(cell)
    return {
        "schema": GRID_SCHEMA,
        "apps": list(grid.apps),
        "profiles": list(grid.profiles),
        "models": list(grid.models),
        "window": grid.window,
        "horizon": grid.horizon,
        "duration": grid.duration,
        "seed": grid.seed,
        "cells": cells,
    }


# -- HTML rendering ---------------------------------------------------------------------

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 64rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: 0.5rem 0; font-size: 0.85rem; }
th, td { border: 1px solid #ccd; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #eef; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.breach { color: #a22; font-weight: 600; }
.ok { color: #282; }
""".strip()


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _kv_table(rows: Dict[str, Any]) -> List[str]:
    out = ["<table><tr><th>key</th><th>value</th></tr>"]
    for k in sorted(rows):
        out.append(
            f"<tr><td>{_html.escape(str(k))}</td>"
            f"<td class=num>{_html.escape(_fmt(rows[k]))}</td></tr>"
        )
    out.append("</table>")
    return out


def report_to_html(report: Dict[str, Any]) -> str:
    """Render a report as one self-contained HTML page (no scripts)."""
    title = report.get("label") or "simulation run report"
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f"<p>schema <code>{_html.escape(report.get('schema', ''))}</code></p>",
        "<h2>Run summary</h2>",
    ]
    parts.extend(_kv_table(report.get("run", {})))

    slo = report.get("slo")
    if slo is not None:
        parts.append("<h2>SLO objectives</h2>")
        parts.append(
            "<table><tr><th>rule</th><th>spec</th><th>breaches</th>"
            "<th>recovered</th><th>state</th></tr>"
        )
        for rule in slo.get("rules", []):
            spec = ", ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(rule["spec"].items())
            )
            state = (
                "<span class=breach>BREACHED</span>"
                if rule["currently_breached"]
                else "<span class=ok>ok</span>"
            )
            parts.append(
                f"<tr><td>{_html.escape(rule['name'])}</td>"
                f"<td>{_html.escape(spec)}</td>"
                f"<td class=num>{rule['breaches']}</td>"
                f"<td class=num>{rule['recovered_breaches']}</td>"
                f"<td>{state}</td></tr>"
            )
        parts.append("</table>")
        episodes = [e for r in slo.get("rules", []) for e in r["episodes"]]
        if episodes:
            parts.append("<h2>Breach episodes</h2>")
            parts.append(
                "<table><tr><th>rule</th><th>breach t</th>"
                "<th>recover t</th><th>value at breach</th></tr>"
            )
            for e in sorted(episodes, key=lambda e: e["breach_time"]):
                rec = _fmt(e["recover_time"]) if e["recovered"] else "—"
                parts.append(
                    f"<tr><td>{_html.escape(e['rule'])}</td>"
                    f"<td class=num>{_fmt(e['breach_time'])}</td>"
                    f"<td class=num>{rec}</td>"
                    f"<td class=num>{_fmt(e['breach_value'])}</td></tr>"
                )
            parts.append("</table>")

    attribution = report.get("attribution")
    if attribution is not None:
        parts.append("<h2>Latency attribution</h2>")
        parts.append(
            "<table><tr><th>component</th><th>seconds</th>"
            "<th>share</th></tr>"
        )
        totals = attribution.get("totals", {})
        shares = attribution.get("shares", {})
        for comp in ("transit", "queue", "service", "replay"):
            parts.append(
                f"<tr><td>{comp}</td>"
                f"<td class=num>{_fmt(totals.get(comp, 0.0))}</td>"
                f"<td class=num>{100 * shares.get(comp, 0.0):.2f}%</td></tr>"
            )
        parts.append("</table>")
        exact = (
            "<span class=ok>exact</span>"
            if attribution.get("exact")
            else "<span class=breach>INEXACT</span>"
        )
        parts.append(
            f"<p>{attribution.get('attributed', 0)} trees attributed"
            f" ({attribution.get('incomplete', 0)} incomplete),"
            f" decomposition {exact}</p>"
        )
        per_comp = attribution.get("per_component", {})
        if per_comp:
            parts.append(
                "<table><tr><th>pipeline stage</th><th>tuples</th>"
                "<th>queue s</th><th>service s</th><th>transit s</th></tr>"
            )
            for comp in sorted(per_comp):
                b = per_comp[comp]
                parts.append(
                    f"<tr><td>{_html.escape(comp)}</td>"
                    f"<td class=num>{b['tuples']}</td>"
                    f"<td class=num>{_fmt(b['queue'])}</td>"
                    f"<td class=num>{_fmt(b['service'])}</td>"
                    f"<td class=num>{_fmt(b['transit'])}</td></tr>"
                )
            parts.append("</table>")

    audit = report.get("audit")
    if audit is not None:
        parts.append("<h2>Controller decision audit</h2>")
        cal = audit.get("calibration", {})
        act = audit.get("actuation", {})
        flat = {
            "decisions": audit.get("decisions"),
            "samples": audit.get("samples"),
            "calibration mae (s)": cal.get("mae"),
            "rolling error (last)": cal.get("rolling_last"),
            "ratio applies": act.get("applies"),
            "reroutes": act.get("reroutes"),
            "max ratio delta": act.get("max_ratio_delta"),
        }
        parts.extend(_kv_table({k: v for k, v in flat.items() if v is not None}))
        breaches = audit.get("breaches", [])
        if breaches:
            parts.append("<h2>Breach attribution</h2>")
            parts.append(
                "<table><tr><th>breach t</th><th>rule</th>"
                "<th>cause</th><th>evidence</th></tr>"
            )
            for br in breaches:
                evidence = ", ".join(
                    f"{k}={_fmt(v)}" for k, v in br.get("evidence", {}).items()
                )
                parts.append(
                    f"<tr><td class=num>{_fmt(br['time'])}</td>"
                    f"<td>{_html.escape(br['rule'])}</td>"
                    f"<td class=breach>{_html.escape(br['cause'])}</td>"
                    f"<td>{_html.escape(evidence)}</td></tr>"
                )
            parts.append("</table>")

    metrics = report.get("metrics")
    if metrics is not None:
        parts.append("<h2>Metrics</h2>")
        parts.append("<table><tr><th>metric</th><th>value</th></tr>")
        for name in sorted(metrics):
            val = metrics[name]
            if isinstance(val, dict):  # histogram digest
                val = ", ".join(
                    f"{k}={_fmt(v)}" for k, v in sorted(val.items())
                )
            parts.append(
                f"<tr><td>{_html.escape(name)}</td>"
                f"<td class=num>{_html.escape(_fmt(val))}</td></tr>"
            )
        parts.append("</table>")

    trace = report.get("trace")
    if trace is not None:
        parts.append("<h2>Trace accounting</h2>")
        flat = {
            "retained": trace["retained"],
            "dropped": trace["dropped"],
        }
        flat.update(
            {f"kind {k}": v for k, v in trace["kind_counts"].items()}
        )
        parts.extend(_kv_table(flat))

    profile = report.get("profile")
    if profile is not None:
        parts.append("<h2>Kernel profile (deterministic counters)</h2>")
        parts.extend(_kv_table(profile))

    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_report_html(report: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_html(report))
