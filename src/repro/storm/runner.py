"""One-call simulation harness and the redesigned run API.

The blessed entry point is the fluent :class:`~repro.storm.builder.
SimulationBuilder`::

    sim = (SimulationBuilder(topology)
           .nodes(NodeSpec("n0", cores=4, slots=2))
           .seed(7)
           .faults(SlowdownFault(start=60, duration=120, worker_id=1,
                                 factor=8))
           .controller(PredictiveController(
               PerformancePredictor(None, window=4)))
           .observability(trace=True)
           .build())
    result = sim.run(duration=300)
    print(result.mean_throughput(), result.latency_percentile(0.99))

Controllers attach explicitly, as built controllers
(``sim.attach(controller)`` or the builder's ``.controller(controller)``),
and must attach *before* the first :meth:`StormSimulation.run`.

The :class:`StormSimulation` constructor is retained as a thin
compatibility shim over the same wiring; new code should build through
:class:`SimulationBuilder` (``scripts/check_api.py`` lints first-party
code for direct construction).  Repeated ``run()`` calls advance the
same simulation and each returns a *per-segment* result — counters and
latencies cover only that segment, never the whole history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.des.environment import Environment
from repro.obs import Observability, ObservabilityConfig
from repro.obs.metrics import (
    COMPLETE_LATENCY_METRIC,
    LogHistogram,
    MetricsRegistry,
)
from repro.obs.slo import SLOEngine
from repro.storm.cluster import Cluster, NodeSpec
from repro.storm.executor import SpoutExecutor
from repro.storm.faults import Fault, FaultInjector
from repro.storm.metrics import MetricsCollector, MultilevelSnapshot
from repro.storm.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import ControlLoop


#: Default cluster shape used by the experiments: 4 nodes, 2 slots each —
#: guarantees co-located workers (the interference the paper studies).
DEFAULT_NODES = (
    NodeSpec("node-0", cores=4, slots=2),
    NodeSpec("node-1", cores=4, slots=2),
    NodeSpec("node-2", cores=4, slots=2),
    NodeSpec("node-3", cores=4, slots=2),
)


class Series(NamedTuple):
    """A named time series: sample times ``t`` and values ``y``.

    Unpacks like the bare 2-tuple it replaces (``t, y = series``), but
    field access (``series.t`` / ``series.y``) is the supported style —
    the API lint flags raw tuple unpacking of the series helpers.
    """

    t: np.ndarray
    y: np.ndarray


@dataclass
class SimulationResult:
    """Everything an experiment needs after one ``run()`` segment."""

    duration: float
    snapshots: List[MultilevelSnapshot]
    acked: int
    failed: int
    dropped: int
    complete_latencies: np.ndarray  # per acked tuple, seconds
    metrics: MetricsCollector
    cluster: Cluster
    #: simulation time at which this segment started (0 for the first run)
    start_time: float = 0.0
    #: tuples dropped in transit by chaos (message loss / crashed worker)
    lost: int = 0
    #: live observability handles of the owning run (shared by segments)
    obs: Optional[Observability] = field(
        default=None, repr=False, compare=False
    )
    #: complete-latency histogram restricted to this segment; ``None``
    #: when metrics were disabled
    latency_hist: Optional[LogHistogram] = field(
        default=None, repr=False, compare=False
    )
    # memoised sort of complete_latencies for repeated percentile queries
    _sorted: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sorted_key: Optional[Tuple[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- summary helpers --------------------------------------------------------------

    def mean_throughput(self, after: float = 0.0) -> float:
        """Mean acked tuples/second over snapshots at time > ``after``."""
        vals = [
            s.topology.throughput for s in self.snapshots if s.time > after
        ]
        return float(np.mean(vals)) if vals else 0.0

    def mean_throughput_between(self, t0: float, t1: float) -> float:
        """Mean acked tuples/second over snapshots with t0 < time <= t1."""
        vals = [
            s.topology.throughput
            for s in self.snapshots
            if t0 < s.time <= t1
        ]
        return float(np.mean(vals)) if vals else 0.0

    def mean_complete_latency(self, after: float = 0.0) -> float:
        lats = [
            s.topology.avg_complete_latency
            for s in self.snapshots
            if s.time > after and s.topology.acked > 0
        ]
        return float(np.mean(lats)) if lats else 0.0

    def latency_percentile(self, q: float, *, approx: bool = False) -> float:
        """Percentile (0..1) of per-tuple complete latency.

        The exact path sorts the sample once and memoises it, so sweeping
        many percentiles costs one sort total; the interpolation
        reproduces ``numpy.quantile``'s default method bit-for-bit.  With
        ``approx=True`` and metrics enabled, the segment's log-bucket
        histogram answers instead — O(buckets) with no sort, within one
        bucket width (relative error ``alpha``) of the exact value.
        """
        if approx and self.latency_hist is not None and self.latency_hist.count:
            return float(self.latency_hist.quantile(q))
        arr = self.complete_latencies
        n = int(arr.size)
        if n == 0:
            return float("nan")
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {q}")
        key = (id(arr), n)
        if self._sorted_key != key:
            self._sorted = np.sort(arr)
            self._sorted_key = key
        s = self._sorted
        if n == 1:
            return float(s[0])
        pos = q * (n - 1)
        lo = int(pos)  # pos >= 0, so truncation is floor
        hi = min(lo + 1, n - 1)
        t = pos - lo
        a = s[lo]
        b = s[hi]
        d = b - a
        # numpy lerps from whichever end is nearer to cut rounding error;
        # mirror it exactly so cached results match np.quantile bitwise
        return float(b - d * (1.0 - t)) if t >= 0.5 else float(a + d * t)

    def throughput_series(self) -> Series:
        return Series(
            t=np.array([s.time for s in self.snapshots]),
            y=np.array([s.topology.throughput for s in self.snapshots]),
        )

    def latency_series(self) -> Series:
        return Series(
            t=np.array([s.time for s in self.snapshots]),
            y=np.array(
                [s.topology.avg_complete_latency for s in self.snapshots]
            ),
        )

    def summary(self) -> Dict[str, float]:
        """Flat scalar summary of this segment (JSON/benchmark-friendly).

        When the run had observability enabled, the summary also surfaces
        trace-buffer accounting, deterministic kernel-profiler counters,
        and SLO breach totals — all gated on the corresponding handle so
        plain runs keep the exact historical key set.
        """
        out: Dict[str, float] = {
            "start_time": self.start_time,
            "duration": self.duration,
            "acked": self.acked,
            "failed": self.failed,
            "dropped": self.dropped,
            "lost": self.lost,
            "snapshots": len(self.snapshots),
            "mean_throughput": self.mean_throughput(),
            "mean_complete_latency": self.mean_complete_latency(),
            "p50_complete_latency": self.latency_percentile(0.5),
            "p99_complete_latency": self.latency_percentile(0.99),
        }
        obs = self.obs
        if obs is not None:
            if obs.tracer is not None:
                out["trace_retained"] = len(obs.tracer)
                out["trace_dropped"] = obs.tracer.dropped
            if obs.profiler is not None:
                prof = obs.profiler
                out["kernel_events"] = prof.events_processed
                out["kernel_max_heap_depth"] = prof.max_heap_depth
                out["kernel_mean_heap_depth"] = prof.mean_heap_depth
            if obs.slo is not None:
                episodes = obs.slo.episodes()
                out["slo_breaches"] = len(episodes)
                out["slo_recovered"] = sum(1 for e in episodes if e.recovered)
        return out

    def run_report(self, label: str = "") -> Dict[str, Any]:
        """Self-contained run report (see :func:`repro.obs.build_report`)."""
        from repro.obs.report import build_report

        return build_report(self, label=label)


class StormSimulation:
    """Owns one environment + cluster + topology and runs it.

    The constructor is the wiring
    :meth:`~repro.storm.builder.SimulationBuilder.build` calls; build
    through the builder, which adds controller attachment, chaos
    schedules and SLO policies on top of these options.
    """

    def __init__(
        self,
        topology: Topology,
        nodes: Sequence[NodeSpec] = DEFAULT_NODES,
        seed: int = 0,
        metrics_interval: float = 1.0,
        faults: Sequence[Fault] = (),
        observability: Optional[ObservabilityConfig] = None,
    ) -> None:
        # Edge ids are per-Environment (each counter starts at 1), so
        # back-to-back simulations in one process stay independent.
        self.obs = Observability(observability)
        self.env = Environment()
        self.env.profiler = self.obs.profiler
        self.cluster = Cluster(
            self.env, nodes, seed=seed, tracer=self.obs.tracer,
            metrics=self.obs.metrics,
        )
        self.cluster.submit(topology)
        registry = self.obs.metrics
        if registry is not None:
            # kernel/cluster pull gauges: evaluated only at collection
            # time, so an idle registry costs the run nothing
            registry.register_pull(
                "des.events_scheduled", lambda: self.env.scheduled_count
            )
            registry.register_pull(
                "des.queue_depth", lambda: self.env.queue_depth
            )
            registry.register_pull(
                "cluster.crashed_workers",
                lambda: len(self.cluster.crashed_workers()),
            )
            self._register_pull_counters(registry)
            tracer = self.obs.tracer
            if tracer is not None:
                registry.register_pull(
                    "trace.retained", lambda: len(tracer)
                )
                registry.register_pull(
                    "trace.dropped", lambda: tracer.dropped
                )
            profiler = self.obs.profiler
            if profiler is not None:
                # deterministic counters only (no wall-clock rates)
                registry.register_pull(
                    "profiler.events_processed",
                    lambda: profiler.events_processed,
                )
                registry.register_pull(
                    "profiler.max_heap_depth",
                    lambda: profiler.max_heap_depth,
                )
        self.metrics = MetricsCollector(
            self.env, self.cluster, interval=metrics_interval
        )
        self.slo: Optional[SLOEngine] = None
        if self.obs.config.slo is not None:
            assert registry is not None and self.cluster.ledger is not None
            self.slo = SLOEngine(
                self.obs.config.slo,
                self.env,
                self.cluster.ledger,
                registry=registry,
                tracer=self.obs.tracer,
            )
            self.obs.slo = self.slo
        self.fault_injector = FaultInjector(
            self.env, self.cluster, faults, tracer=self.obs.tracer,
            slo=self.slo,
        )
        self.topology = topology
        self.controllers: List["ControlLoop"] = []
        self._started = False
        # per-segment baselines for repeated run() calls
        self._completions_seen = 0
        self._snapshots_seen = 0
        self._prev_acked = 0
        self._prev_failed = 0
        self._prev_dropped = 0
        self._prev_lost = 0
        # cumulative complete-latency histogram (None when metrics off);
        # per-segment views come from diffing against the last snapshot
        self._latency_hist: Optional[LogHistogram] = (
            registry.get(COMPLETE_LATENCY_METRIC)
            if registry is not None
            else None
        )
        self._prev_hist: Optional[LogHistogram] = (
            self._latency_hist.copy()
            if self._latency_hist is not None
            else None
        )

    def _register_pull_counters(self, registry: MetricsRegistry) -> None:
        """Expose the data plane's own counts as registry counters.

        Ledger, transport and executors count these facts once, in plain
        attributes; the registry reads them at collection time
        (``tuple.failed{reason}`` appears with a reason's first failure,
        see :meth:`AckLedger._record_failure`).  Per-component counters
        sum over the component's executors.
        """
        ledger, transport = self.cluster.ledger, self.cluster.transport
        assert ledger is not None and transport is not None
        registry.counter("tuple.acked", fn=lambda: ledger.acked_count)
        registry.counter("transport.sent", fn=lambda: transport.sent_count)
        registry.counter("transport.shed", fn=lambda: transport.dropped_count)
        registry.counter(
            "transport.lost", fn=lambda: transport.lost_loss_count,
            reason="loss",
        )
        registry.counter(
            "transport.lost", fn=lambda: transport.lost_crash_count,
            reason="crash",
        )
        by_component: Dict[str, List[Any]] = {}
        for ex in self.cluster.executors.values():
            by_component.setdefault(ex.component_id, []).append(ex)
        for component, execs in by_component.items():
            if isinstance(execs[0], SpoutExecutor):
                registry.counter(
                    "spout.replays", component=component,
                    fn=lambda e=execs: sum(x.replayed_count for x in e),
                )
                registry.counter(
                    "spout.drops", component=component,
                    fn=lambda e=execs: sum(x.dropped_count for x in e),
                )
            else:
                registry.counter(
                    "bolt.executed", component=component,
                    fn=lambda e=execs: sum(x.executed_count for x in e),
                )

    # -- controller attachment ---------------------------------------------------------

    @property
    def started(self) -> bool:
        """Whether :meth:`run` has been called at least once."""
        return self._started

    @property
    def controller(self) -> Optional["ControlLoop"]:
        """The first attached controller, or ``None``."""
        return self.controllers[0] if self.controllers else None

    def attach(self, controller: "ControlLoop") -> "StormSimulation":
        """Attach a (detached) controller to this simulation.

        Must happen before the first :meth:`run` — the controller needs
        to see the warm-up statistics window from t=0 and its loop
        process must start with the simulation.  Returns ``self`` so the
        call chains.
        """
        if self._started:
            raise RuntimeError(
                "cannot attach a controller after run() has started; "
                "attach before the first run (or use "
                "SimulationBuilder.controller(...))"
            )
        controller._bind(self)
        self.controllers.append(controller)
        return self

    # -- running -----------------------------------------------------------------------

    def run(self, duration: float) -> SimulationResult:
        """Advance the simulation by ``duration`` seconds and summarise.

        Each call returns a result covering *only* the newly simulated
        segment: counters, snapshots, and per-tuple latencies since the
        previous ``run()`` call.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._started = True
        start_time = self.env.now
        self.env.run(until=self.env.now + duration)
        ledger = self.cluster.ledger
        assert ledger is not None
        new_completions = ledger.completions[self._completions_seen :]
        self._completions_seen = len(ledger.completions)
        lats = np.array(
            [c.latency for c in new_completions if c.acked], dtype=float
        )
        dropped_total = sum(
            ex.dropped_count
            for ex in self.cluster.executors.values()
            if isinstance(ex, SpoutExecutor)
        )
        transport = self.cluster.transport
        lost_total = transport.lost_count if transport is not None else 0
        latency_hist: Optional[LogHistogram] = None
        if self._latency_hist is not None:
            latency_hist = self._latency_hist.diff(self._prev_hist)
            self._prev_hist = self._latency_hist.copy()
        result = SimulationResult(
            duration=duration,
            snapshots=list(self.metrics.snapshots[self._snapshots_seen :]),
            acked=ledger.acked_count - self._prev_acked,
            failed=ledger.failed_count - self._prev_failed,
            dropped=dropped_total - self._prev_dropped,
            complete_latencies=lats,
            metrics=self.metrics,
            cluster=self.cluster,
            start_time=start_time,
            lost=lost_total - self._prev_lost,
            obs=self.obs,
            latency_hist=latency_hist,
        )
        self._snapshots_seen = len(self.metrics.snapshots)
        self._prev_acked = ledger.acked_count
        self._prev_failed = ledger.failed_count
        self._prev_dropped = dropped_total
        self._prev_lost = lost_total
        return result
