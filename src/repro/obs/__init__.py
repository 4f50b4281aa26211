"""repro.obs — structured observability for the simulator stack.

Five capabilities, all off by default and zero-cost when disabled:

* **Tracing** (:mod:`~repro.obs.tracer`) — a ring-buffered structured
  event tracer.  The storm layer emits tuple-lifecycle spans
  (emit → transfer → queue → execute → ack/fail/replay), the control
  layer emits decision records (sample/predict/detect/plan/apply with
  inputs and chosen ratios), and the fault injector emits ground-truth
  apply/revert markers.
* **Streaming metrics** (:mod:`~repro.obs.metrics`) — a pull-based
  registry of counters, gauges, and mergeable log-bucket histograms
  threaded through the storm layer, the DES kernel, and the controller
  loop; constant memory, deterministic quantiles, Prometheus-style
  text exposition.
* **SLO evaluation** (:mod:`~repro.obs.slo`) — declarative objectives
  (latency quantile bound, availability ratio, recovery-time objective)
  continuously evaluated during the run, emitting ``slo.breach`` /
  ``slo.recover`` trace events.  Enabling SLOs implies metrics.
* **Metrics export** (:mod:`~repro.obs.export`) — serialise
  :class:`~repro.storm.metrics.MultilevelSnapshot` streams and traces to
  JSONL/CSV for offline analysis, plus an ASCII live summary; and
  :mod:`~repro.obs.report` — one byte-stable JSON/HTML artifact per run.
* **Profiling** (:mod:`~repro.obs.profiler`) — DES kernel hooks:
  event-loop counters, heap depth, events/sec, and per-process
  wall-time attribution, so simulator hot paths are measurable.

Enable through the run API::

    sim = (SimulationBuilder(topology)
           .observability(trace=True, profile=True, metrics=True)
           .slo(AvailabilitySLO(name="avail", min_ratio=0.95))
           .build())
    sim.run(duration=120)
    events = sim.obs.tracer.events("tuple.ack")
    print(sim.obs.metrics.render_prometheus())
    print(sim.obs.profiler.report())

The hot-path contract: when a capability is disabled its handle is
literally ``None``, so instrumented code pays a single ``is not None``
check per event and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.profiler import KernelProfiler
from repro.obs.slo import (
    SLO_BREACH,
    SLO_RECOVER,
    AvailabilitySLO,
    LatencySLO,
    RecoverySLO,
    SLOEngine,
    SLOPolicy,
    SLORule,
)
from repro.obs.tracer import (
    CONTROL_APPLY,
    CONTROL_DECISION,
    CONTROL_SAMPLE,
    CONTROL_SKIP,
    FAULT_APPLY,
    FAULT_REVERT,
    TUPLE_ACK,
    TUPLE_CLOSE_KINDS,
    TUPLE_DROP,
    TUPLE_EMIT,
    TUPLE_EXECUTE,
    TUPLE_FAIL,
    TUPLE_LOSS,
    TUPLE_QUEUE,
    TUPLE_REPLAY,
    TUPLE_SHED,
    TUPLE_TRANSFER,
    TraceEvent,
    Tracer,
    group_tuple_spans,
)
from repro.obs.export import (
    load_snapshots_jsonl,
    load_trace_jsonl,
    render_live_summary,
    snapshots_to_csv,
    snapshots_to_jsonl,
    summary_to_json,
    trace_to_jsonl,
)


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to switch on for one simulation run.

    ``trace`` buys tuple-lifecycle/controller/fault events into a ring
    buffer of ``trace_capacity`` events (oldest dropped first);
    ``profile`` attaches a :class:`KernelProfiler` to the DES kernel;
    ``metrics`` attaches a :class:`MetricsRegistry` to every instrumented
    site; ``slo`` (an :class:`SLOPolicy`) runs the online SLO engine —
    and implies ``metrics``, which its windowed latency rules read.
    """

    trace: bool = False
    profile: bool = False
    trace_capacity: int = 1 << 16
    metrics: bool = False
    slo: Optional[SLOPolicy] = None

    def validate(self) -> None:
        if self.trace_capacity <= 0:
            raise ValueError(
                f"trace_capacity must be positive, got {self.trace_capacity}"
            )
        if self.slo is not None:
            self.slo.validate()


class Observability:
    """Live observability state owned by one simulation.

    Holds the (possibly ``None``) tracer and profiler handles that the
    runner threads through the cluster, executors, ledger, fault
    injector, and controller.
    """

    def __init__(self, config: Optional[ObservabilityConfig] = None) -> None:
        self.config = config or ObservabilityConfig()
        self.config.validate()
        self.tracer: Optional[Tracer] = (
            Tracer(capacity=self.config.trace_capacity)
            if self.config.trace
            else None
        )
        self.profiler: Optional[KernelProfiler] = (
            KernelProfiler() if self.config.profile else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry()
            if self.config.metrics or self.config.slo is not None
            else None
        )
        #: the live SLO engine, wired by the runner once env+ledger exist
        self.slo: Optional[SLOEngine] = None

    @property
    def enabled(self) -> bool:
        return (
            self.tracer is not None
            or self.profiler is not None
            or self.metrics is not None
        )

    def __repr__(self) -> str:
        return (
            f"<Observability trace={self.tracer is not None}"
            f" profile={self.profiler is not None}"
            f" metrics={self.metrics is not None}"
            f" slo={self.slo is not None}>"
        )


from repro.obs.attribution import (
    AttributionSummary,
    TreeAttribution,
    attribute_forest,
)
from repro.obs.audit import (
    AuditConfig,
    BreachAttribution,
    DecisionAudit,
    DecisionRecord,
)
from repro.obs.report import (
    build_report,
    compare_reports,
    grid_summary,
    render_compare,
    report_to_html,
    report_to_json,
    write_report_html,
    write_report_json,
)
from repro.obs.spans import (
    LatencyBreakdown,
    SpanForest,
    SpanHop,
    SpanTree,
    build_span_forest,
    folded_stacks,
    render_folded,
    render_span_tree,
)

__all__ = [
    "AttributionSummary",
    "AuditConfig",
    "AvailabilitySLO",
    "BreachAttribution",
    "CONTROL_APPLY",
    "CONTROL_DECISION",
    "CONTROL_SAMPLE",
    "CONTROL_SKIP",
    "Counter",
    "DecisionAudit",
    "DecisionRecord",
    "FAULT_APPLY",
    "FAULT_REVERT",
    "Gauge",
    "KernelProfiler",
    "LatencyBreakdown",
    "LatencySLO",
    "LogHistogram",
    "MetricsRegistry",
    "Observability",
    "ObservabilityConfig",
    "RecoverySLO",
    "SLO_BREACH",
    "SLO_RECOVER",
    "SLOEngine",
    "SLOPolicy",
    "SLORule",
    "SpanForest",
    "SpanHop",
    "SpanTree",
    "TUPLE_ACK",
    "TUPLE_CLOSE_KINDS",
    "TUPLE_DROP",
    "TUPLE_EMIT",
    "TUPLE_EXECUTE",
    "TUPLE_FAIL",
    "TUPLE_LOSS",
    "TUPLE_QUEUE",
    "TUPLE_REPLAY",
    "TUPLE_SHED",
    "TUPLE_TRANSFER",
    "TraceEvent",
    "Tracer",
    "TreeAttribution",
    "attribute_forest",
    "build_report",
    "build_span_forest",
    "compare_reports",
    "folded_stacks",
    "grid_summary",
    "group_tuple_spans",
    "load_snapshots_jsonl",
    "load_trace_jsonl",
    "render_compare",
    "render_folded",
    "render_live_summary",
    "render_span_tree",
    "report_to_html",
    "report_to_json",
    "snapshots_to_csv",
    "snapshots_to_jsonl",
    "summary_to_json",
    "trace_to_jsonl",
    "write_report_html",
    "write_report_json",
]
