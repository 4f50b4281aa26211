"""Reliability experiments: misbehaving workers, baseline vs framework.

Arms (``control``):

* ``None`` — plain Storm baseline: shuffle grouping, no controller;
* ``"reactive"`` — dynamic grouping + controller using last-observation
  "prediction" (ablation: what does real prediction buy?);
* ``"drnn"`` — the full framework: a DRNN pretrained on a calibration
  trace of the same topology (including fault episodes on *other*
  workers, so the model has seen elevated service times without seeing
  the evaluation scenario).

Chaos campaigns additionally accept ``control="online"``: the
online-retraining arm, whose DRNN is periodically refit *inside* the
simulation on the monitor's rolling window
(:class:`~repro.core.retraining.RetrainingPredictor`) — no pre-trained
calibration model at all.

The default fault scenario slows ``k`` workers hard enough that the
baseline cannot keep up (queues grow, tuples time out and replay, the
spout throttles) while the framework should degrade only mildly — the
abstract's claim 3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    AutoscaleController,
    AutoscalePolicy,
    ControllerConfig,
    OnlineModelFactory,
    PerformancePredictor,
    PredictiveController,
    RetrainingPredictor,
)
from repro.core.monitor import StatsMonitor
from repro.experiments.traces import build_app_topology
from repro.apps import RateProfile
from repro.models import DRNNRegressor
from repro.storm import (
    ChaosCampaign,
    ChaosSpec,
    SimulationBuilder,
    SlowdownFault,
    TopologyConfig,
    WorkerCrashFault,
)
from repro.storm.chaos import CampaignReport
from repro.storm.faults import Fault
from repro.storm.runner import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import ControlLoop
    from repro.obs import ObservabilityConfig
    from repro.obs.slo import SLOPolicy
    from repro.storm.runner import StormSimulation


@dataclass
class ReliabilityResult:
    """One arm of a reliability scenario."""

    label: str
    result: SimulationResult
    controller: Optional[PredictiveController]
    fault_window: Tuple[float, float]
    #: the simulation behind ``result`` (carries ``sim.obs`` for exports)
    sim: Optional["StormSimulation"] = None

    def throughput_during_fault(self) -> float:
        lo, hi = self.fault_window
        return self.result.mean_throughput_between(lo + 10.0, hi)

    def throughput_healthy(self) -> float:
        lo, _ = self.fault_window
        return self.result.mean_throughput_between(10.0, lo)

    def degradation_pct(self) -> float:
        """Throughput drop during the fault relative to the healthy phase."""
        healthy = self.throughput_healthy()
        if healthy <= 0:
            return float("nan")
        return 100.0 * (1.0 - self.throughput_during_fault() / healthy)

    def latency_during_fault(self) -> float:
        lo, hi = self.fault_window
        lats = [
            s.topology.avg_complete_latency
            for s in self.result.snapshots
            if lo + 10.0 < s.time <= hi and s.topology.acked > 0
        ]
        return float(np.mean(lats)) if lats else float("nan")


def default_faults(
    k: int, start: float, duration: float, factor: float = 25.0,
    worker_ids: Sequence[int] = (2, 4, 1),
    fault_kind: str = "slowdown",
) -> List[Fault]:
    """Degrade ``k`` workers for the window (staggered 10 s).

    ``fault_kind`` selects the archetype: ``"slowdown"`` dilates service
    times by ``factor`` (the paper's scenario); ``"crash"`` kills the
    worker outright, with ``duration`` as the supervisor restart delay.
    """
    if k > len(worker_ids):
        raise ValueError(f"at most {len(worker_ids)} misbehaving workers")
    if fault_kind == "slowdown":
        return [
            SlowdownFault(
                start=start + 10.0 * i,
                duration=duration - 10.0 * i,
                worker_id=worker_ids[i],
                factor=factor,
            )
            for i in range(k)
        ]
    if fault_kind == "crash":
        return [
            WorkerCrashFault(
                start=start + 10.0 * i,
                duration=duration - 10.0 * i,
                worker_id=worker_ids[i],
            )
            for i in range(k)
        ]
    raise ValueError(f"unknown fault_kind {fault_kind!r}")


def chaos_topology_config(app: str = "url_count") -> TopologyConfig:
    """Topology knobs tuned for crash/loss recovery experiments.

    Crash and loss faults recover through the acker's message timeout:
    the default 30 s timeout with 3 replays would leave tuples parked for
    most of a fault window and drop stragglers.  A tighter timeout and a
    deeper replay budget keep recovery fast *and* lossless (at-least-once
    is preserved either way; these only shape the latency tail).
    """
    del app  # same knobs suit both evaluation apps today
    return TopologyConfig(
        num_workers=6,
        tick_interval=1.0,
        message_timeout=10.0,
        max_replays=8,
    )


@dataclass(frozen=True)
class ChaosTopologyFactory:
    """Picklable topology factory for campaign fan-out across processes.

    A frozen dataclass (value-based ``repr``/``eq``) rather than a
    closure: worker processes reconstruct it under the spawn start
    method, and the result cache uses its ``repr`` as key material.
    """

    app: str
    base_rate: float

    def __call__(self):
        return build_app_topology(
            self.app,
            RateProfile(base=self.base_rate),
            grouping="dynamic",
            config=chaos_topology_config(self.app),
        )


@dataclass(frozen=True)
class PredictiveArm:
    """Picklable recipe for a fresh predictive controller per run.

    ``retrain_interval=None`` builds the reactive arm (last-observation
    prediction).  A number builds the online arm: a small DRNN rebuilt
    from scratch and refit every ``retrain_interval`` simulated seconds
    on the monitor's rolling window — no pre-trained calibration model
    ships into the run.  A frozen dataclass (value ``repr``/``eq``)
    rather than a closure, so worker processes can unpickle it and the
    result cache keys on it.
    """

    control_interval: float
    window: int
    retrain_interval: Optional[float] = None

    def __call__(self) -> PredictiveController:
        if self.retrain_interval is None:
            predictor = PerformancePredictor(None, window=self.window)
        else:
            predictor = RetrainingPredictor(
                OnlineModelFactory(),
                window=self.window,
                retrain_interval=self.retrain_interval,
                max_history=48,
            )
        return PredictiveController(
            predictor,
            ControllerConfig(
                control_interval=self.control_interval, window=self.window
            ),
        )


def chaos_arm(
    control: Optional[str],
    control_interval: float,
    window: int,
    retrain_interval: float,
) -> Optional[Callable[[], ControlLoop]]:
    """The picklable per-run controller recipe of one chaos arm.

    ``None`` for the uncontrolled arm.  The autoscale arm is the
    :class:`~repro.core.elasticity.AutoscalePolicy` defaults stepped every
    ``control_interval`` seconds.
    """
    if control is None:
        return None
    if control == "reactive":
        return PredictiveArm(control_interval, window)
    if control == "online":
        return PredictiveArm(control_interval, window, retrain_interval)
    if control == "autoscale":
        return functools.partial(
            AutoscaleController, AutoscalePolicy(interval=control_interval)
        )
    raise ValueError(f"unknown chaos control arm {control!r}")


def run_chaos_campaign(
    app: str = "url_count",
    spec: Optional[ChaosSpec] = None,
    seed: int = 7,
    runs: int = 3,
    horizon: float = 180.0,
    base_rate: float = 200.0,
    control: Optional[str] = None,
    control_interval: float = 5.0,
    window: int = 6,
    trace: bool = False,
    trace_capacity: int = 1 << 16,
    metrics: bool = False,
    jobs: int = 1,
    cache=None,
    retrain_interval: float = 30.0,
) -> CampaignReport:
    """Run a seeded chaos campaign over one evaluation app.

    ``control=None`` runs the uncontrolled arm; ``"reactive"`` attaches a
    last-observation controller per run (its crash reaction reroutes
    around dead workers even before the statistics window fills);
    ``"online"`` attaches the online-retraining controller, whose DRNN is
    refit every ``retrain_interval`` simulation seconds on the monitor's
    rolling window inside the run (no pre-trained model); ``"autoscale"``
    attaches the elastic pool autoscaler, which adds/removes workers on
    backlog/SLO pressure instead of re-splitting ratios (see
    :mod:`repro.core.elasticity` and ``docs/elasticity.md``).  The
    report is a pure function of the arguments — rerunning reproduces it
    bit-for-bit, and sharding it across ``jobs`` worker processes (``0``
    = all cores) or serving runs from ``cache`` changes wall-clock only,
    never a byte of the report (see ``docs/parallel.md``).
    """
    controller_factory = chaos_arm(
        control, control_interval, window, retrain_interval
    )
    spec = spec if spec is not None else ChaosSpec(crashes=1, losses=1)
    campaign = ChaosCampaign(
        ChaosTopologyFactory(app=app, base_rate=base_rate),
        spec,
        seed=seed,
        runs=runs,
        horizon=horizon,
        trace=trace,
        trace_capacity=trace_capacity,
        metrics=metrics,
        app=app,
        controller_factory=controller_factory,
    )
    return campaign.run(jobs=jobs, cache=cache)


def train_calibration_predictor(
    app: str,
    base_rate: float,
    seed: int,
    window: int = 6,
    calibration_duration: float = 240.0,
    hidden: Tuple[int, ...] = (24,),
    epochs: int = 25,
    cache=None,
) -> PerformancePredictor:
    """Pretrain a DRNN predictor on a calibration run of the same app.

    The calibration run includes slowdown episodes on workers *not used*
    by the evaluation scenario (worker 3) so the model sees the elevated
    service-time regime without memorising the test faults.

    ``cache`` (path or :class:`~repro.parallel.ResultCache`) stores the
    fitted predictor keyed by every argument above — calibration is the
    dominant cost of the DRNN arm, and the fit is deterministic in its
    configuration, so a cached predictor is byte-equivalent to retraining.
    """
    if cache is not None:
        from repro.parallel import ResultCache, cache_key, key_material

        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        key = cache_key(key_material(
            "calibration-predictor",
            app=app,
            base_rate=base_rate,
            seed=seed,
            window=window,
            calibration_duration=calibration_duration,
            hidden=list(hidden),
            epochs=epochs,
        ))
        hit, predictor = cache.get(key)
        if hit:
            return predictor
        predictor = train_calibration_predictor(
            app, base_rate, seed, window=window,
            calibration_duration=calibration_duration, hidden=hidden,
            epochs=epochs,
        )
        cache.put(key, predictor)
        return predictor
    topology = build_app_topology(
        app, RateProfile(base=base_rate), grouping="dynamic"
    )
    faults = [
        SlowdownFault(
            start=calibration_duration * 0.3,
            duration=calibration_duration * 0.25,
            worker_id=3,
            factor=15.0,
        )
    ]
    sim = SimulationBuilder(topology).seed(seed + 1000).faults(faults).build()
    result = sim.run(duration=calibration_duration)
    monitor = StatsMonitor(
        sim.cluster, include_interference=True, target_feature="avg_service_time"
    )
    monitor.observe_all(result.snapshots)
    model = DRNNRegressor(
        input_dim=len(monitor.feature_names),
        hidden_sizes=hidden,
        epochs=epochs,
        seed=seed,
        patience=6,
    )
    predictor = PerformancePredictor(model, window=window)
    predictor.fit_from_monitor(monitor)
    return predictor


def run_reliability_scenario(
    app: str = "url_count",
    control: Optional[str] = "drnn",
    k_misbehaving: int = 1,
    base_rate: float = 250.0,
    duration: float = 300.0,
    fault_start: float = 100.0,
    fault_duration: float = 150.0,
    slowdown_factor: float = 25.0,
    seed: int = 0,
    predictor: Optional[PerformancePredictor] = None,
    control_interval: float = 5.0,
    window: int = 6,
    observability: Optional["ObservabilityConfig"] = None,
    fault_kind: str = "slowdown",
    slo: Optional["SLOPolicy"] = None,
    cache=None,
) -> ReliabilityResult:
    """Run one arm of the misbehaving-worker experiment.

    ``slo`` (an :class:`~repro.obs.SLOPolicy`) enables online objective
    evaluation for the arm — breach/recover episodes land on
    ``result.sim.obs.slo`` and in ``result.result.summary()``.
    ``cache`` (path or :class:`~repro.parallel.ResultCache`) is forwarded
    to :func:`train_calibration_predictor` for the DRNN arm, whose
    calibration run dominates the arm's wall-clock.
    """
    if control not in (None, "reactive", "drnn"):
        raise ValueError(f"unknown control arm {control!r}")
    grouping = "shuffle" if control is None else "dynamic"
    config = chaos_topology_config(app) if fault_kind == "crash" else None
    topology = build_app_topology(
        app, RateProfile(base=base_rate), grouping=grouping, config=config
    )
    faults = default_faults(
        k_misbehaving, fault_start, fault_duration, factor=slowdown_factor,
        fault_kind=fault_kind,
    )
    builder = (
        SimulationBuilder(topology)
        .seed(seed)
        .faults(faults)
        .observability(observability)
    )
    if slo is not None:
        builder.slo(slo)
    controller = None
    if control is not None:
        if control == "drnn" and predictor is None:
            predictor = train_calibration_predictor(
                app, base_rate, seed, window=window, cache=cache
            )
        elif control == "reactive":
            predictor = PerformancePredictor(None, window=window)
        assert predictor is not None
        controller = PredictiveController(
            predictor,
            ControllerConfig(control_interval=control_interval, window=window),
        )
        builder.controller(controller)
    sim = builder.build()
    result = sim.run(duration=duration)
    label = control or "baseline"
    return ReliabilityResult(
        label=label,
        result=result,
        controller=controller,
        fault_window=(fault_start, fault_start + fault_duration),
        sim=sim,
    )


def _slim_reliability_result(res: ReliabilityResult) -> ReliabilityResult:
    """Strip live simulation handles so a result can cross processes.

    The DES kernel holds generator frames, so ``sim``/``controller`` and
    the result's cluster references can never pickle; everything the
    sweep consumers read (snapshots, latencies, accounting) survives.
    """
    import dataclasses

    return ReliabilityResult(
        label=res.label,
        result=dataclasses.replace(
            res.result, metrics=None, cluster=None, obs=None
        ),
        controller=None,
        fault_window=res.fault_window,
        sim=None,
    )


def _sweep_shard(**scenario_kw) -> ReliabilityResult:
    """Fan-out worker for one ``(arm, k)`` cell of a sweep."""
    return _slim_reliability_result(run_reliability_scenario(**scenario_kw))


def degradation_sweep(
    app: str = "url_count",
    ks: Sequence[int] = (0, 1, 2),
    arms: Sequence[Optional[str]] = (None, "drnn"),
    seed: int = 0,
    jobs: int = 1,
    **scenario_kw,
) -> Dict[Tuple[str, int], ReliabilityResult]:
    """E7: sweep the number of misbehaving workers across arms.

    The DRNN predictor is fitted once, serially, and shipped to every
    DRNN cell (as the paper's deployment would share it; fitted DRNNs
    are plain numpy state, cheap to pickle).  ``jobs`` fans the
    ``(arm, k)`` grid out across worker processes (``0`` = all cores,
    ``1`` runs inline); every cell is an independently seeded scenario,
    so the metrics do not depend on ``jobs``.  Results carry
    ``sim=None``/``controller=None`` — live handles cannot cross
    processes, and the sweep returns one shape at every ``jobs`` value.
    """
    from repro.parallel import RunSpec, run_sharded

    shared_predictor = None
    if "drnn" in arms:
        shared_predictor = train_calibration_predictor(
            app,
            scenario_kw.get("base_rate", 250.0),
            seed,
            window=scenario_kw.get("window", 6),
        )
    cells = [(arm, k) for arm in arms for k in ks]
    specs = [
        RunSpec(
            fn=_sweep_shard,
            kwargs=dict(
                app=app,
                control=arm,
                k_misbehaving=k,
                seed=seed,
                predictor=shared_predictor if arm == "drnn" else None,
                **scenario_kw,
            ),
            label=f"sweep-{arm or 'baseline'}-k{k}",
        )
        for arm, k in cells
    ]
    results = run_sharded(specs, jobs=jobs)
    return {
        (res.label, k): res for (arm, k), res in zip(cells, results)
    }
