"""Trace collection: run an application, keep its statistics history.

The prediction experiments need traces with real dynamics: time-varying
offered load (diurnal swell + steps + bursts) and co-location interference
episodes (CPU-hog faults on some nodes).  ``default_profile`` and
``default_interference`` encode the standard trace recipe used by E1–E3,
E8 and E9; everything is overridable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.apps import (
    RateProfile,
    build_continuous_query_topology,
    build_url_count_topology,
)
from repro.core.monitor import StatsMonitor
from repro.obs import ObservabilityConfig
from repro.storm import CpuHogFault, SimulationBuilder, StormSimulation
from repro.storm.faults import Fault, RampingHogFault
from repro.storm.runner import SimulationResult
from repro.storm.topology import TopologyConfig

APPS = ("url_count", "continuous_query")


def default_profile(base: float = 200.0, horizon: float = 600.0) -> RateProfile:
    """Time-varying load: diurnal swell, one step change, two bursts."""
    return RateProfile(
        base=base,
        diurnal_amplitude=0.3,
        diurnal_period=horizon / 2.0,
        steps=[(horizon * 0.55, horizon * 0.7, base * 1.6)],
        bursts=[
            (horizon * 0.25, horizon * 0.30, 1.8),
            (horizon * 0.80, horizon * 0.84, 2.2),
        ],
    )


def default_interference(horizon: float = 600.0) -> List[Fault]:
    """Ramping CPU-hog episodes across nodes — the co-location signal.

    Episodes ramp up over ~20 s, so node utilisation (an interference
    feature) *leads* the latency it causes: queues take time to build.
    They recur across the whole trace, so both the chronological train and
    test splits contain several.
    """
    faults: List[Fault] = []
    nodes = ("node-1", "node-2", "node-0", "node-3")
    episode = horizon / 8.0
    for i in range(6):
        start = horizon * (0.08 + i * 0.15)
        faults.append(
            RampingHogFault(
                start=start,
                duration=episode,
                node_name=nodes[i % len(nodes)],
                # Peaks exceed the node's core count: co-located executors
                # dilate ~2x at the plateau, enough to push the hot
                # topology's stateful stage through saturation.
                peak_demand=5.0 + 1.0 * (i % 3),
                ramp=episode * 0.3,
                step_interval=2.0,
            )
        )
    return faults


@dataclass
class TraceBundle:
    """Everything the modelling layer needs from one collection run."""

    app: str
    monitor: StatsMonitor  # interference features INCLUDED
    monitor_no_interference: StatsMonitor  # ablation twin (E8)
    result: SimulationResult
    sim: StormSimulation
    interval: float


def build_app_topology(app: str, profile: RateProfile, grouping: str = "dynamic",
                       config: Optional[TopologyConfig] = None,
                       hot: bool = False):
    """Build one of the two evaluation applications.

    ``hot=True`` is the *trace-collection* variant: the stateful stage is
    costlier and less parallel, so rate bursts and interference episodes
    push it through transient saturation.  Queue state then genuinely
    *leads* future latency — the regime where multilevel features pay off
    and the paper's prediction comparison is meaningful.  Reliability
    scenarios use the default (cool) variant.
    """
    if app == "url_count":
        if hot:
            return build_url_count_topology(
                profile=profile, grouping=grouping, config=config,
                count_parallelism=4, count_cpu_cost=6e-3,
            )
        return build_url_count_topology(
            profile=profile, grouping=grouping, config=config
        )
    if app == "continuous_query":
        if hot:
            return build_continuous_query_topology(
                profile=profile, grouping=grouping, config=config,
                query_parallelism=4, query_cpu_cost=5e-3,
            )
        return build_continuous_query_topology(
            profile=profile, grouping=grouping, config=config
        )
    raise ValueError(f"unknown app {app!r}; choose from {APPS}")


def collect_trace(
    app: str = "url_count",
    duration: float = 600.0,
    base_rate: float = 200.0,
    seed: int = 0,
    interval: float = 1.0,
    profile: Optional[RateProfile] = None,
    faults: Optional[Sequence[Fault]] = None,
    target_feature: str = "avg_process_latency",
    hot: bool = True,
    observability: Optional[ObservabilityConfig] = None,
) -> TraceBundle:
    """Run ``app`` for ``duration`` sim-seconds and return its trace.

    The default target is the paper's "average tuple processing time"
    (queue wait + service); the monitor pair (with/without interference
    features) feeds the E8 ablation at zero extra simulation cost.
    ``hot`` selects the saturating trace variant of the topology (see
    :func:`build_app_topology`); ``observability`` enables tracing and/or
    kernel profiling for the run (see :mod:`repro.obs`).
    """
    profile = profile or default_profile(base=base_rate, horizon=duration)
    faults = list(faults) if faults is not None else default_interference(duration)
    topology = build_app_topology(app, profile, hot=hot)
    sim = (
        SimulationBuilder(topology)
        .seed(seed)
        .metrics_interval(interval)
        .faults(faults)
        .observability(observability)
        .build()
    )
    result = sim.run(duration=duration)
    monitor = StatsMonitor(
        sim.cluster, include_interference=True, target_feature=target_feature
    )
    monitor.observe_all(result.snapshots)
    monitor_abl = StatsMonitor(
        sim.cluster, include_interference=False, target_feature=target_feature
    )
    monitor_abl.observe_all(result.snapshots)
    return TraceBundle(
        app=app,
        monitor=monitor,
        monitor_no_interference=monitor_abl,
        result=result,
        sim=sim,
        interval=interval,
    )
