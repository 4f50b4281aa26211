"""Elasticity scenario pack: workload shapes that stress pool sizing.

Chaos campaigns (:mod:`repro.storm.chaos`) perturb the *cluster* —
crashes, slowdowns, loss.  This pack perturbs the *workload*: four named
arrival-rate shapes, each paired with a latency SLO, run as paired
A/B/… campaigns over control arms:

* ``diurnal_ramp`` — a slow sinusoidal swing; the autoscaler should ride
  it up and (with ``scale_in_added_only``) give workers back after the
  peak.
* ``flash_crowd`` — a sudden sustained rate multiplier mid-run; the
  fixed pool saturates and breaches its SLO, the autoscaling arm absorbs
  it (the PR's golden-pinned acceptance scenario).
* ``hot_key_storm`` — the same click stream with a much heavier Zipf
  head *and* a burst: key skew concentrates load on the counting stage,
  so raw throughput understates the pain.
* ``slow_burn`` — staircase growth that never "spikes"; tests that
  consecutive-interval hysteresis still reacts to gradual pressure.

Arms (``ARMS``):

* ``"fixed"`` — the plain pool, no controller at all;
* ``"autoscale"`` — :class:`~repro.core.elasticity.AutoscaleController`
  scaling the pool live (see ``docs/elasticity.md``);
* ``"rate_control"`` — :class:`~repro.core.elasticity.
  SpoutRateController` shedding load at the spouts instead (the arm for
  clusters that cannot scale out).

Every arm of a run replays the *same* derived run seed, so arms differ
only by their controller — a paired comparison, not two random draws.
Reports are pure functions of ``(scenario, seed, runs, horizon, arms)``
and byte-identical across ``jobs`` fan-out, exactly like chaos
campaigns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps import RateProfile, build_url_count_topology
from repro.core.elasticity import (
    AutoscaleController,
    AutoscalePolicy,
    RateControlConfig,
    SpoutRateController,
)
from repro.storm import SimulationBuilder, TopologyConfig
from repro.storm.chaos import _round, derive_run_seed
from repro.storm.cluster import NodeSpec
from repro.storm.runner import DEFAULT_NODES

__all__ = [
    "ARMS",
    "SCENARIOS",
    "ScenarioCampaign",
    "ScenarioReport",
    "ScenarioRunReport",
    "ScenarioSpec",
    "ScenarioTopologyFactory",
    "run_scenario_campaign",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One named workload shape plus its SLO target.

    Burst/step windows are *fractions of the horizon* so a scenario
    stretches with ``--duration`` instead of silently expiring before
    its own event fires.
    """

    name: str
    description: str
    base_rate: float = 150.0
    num_workers: int = 2
    #: Zipf skew of URL popularity (higher = hotter head)
    skew: float = 1.1
    #: counting-stage knobs: parallelism high enough that the stage is
    #: never serial-bound (executors process one tuple at a time, so a
    #: low-parallelism stage caps throughput at ``p / cpu_cost`` no
    #: matter how many workers exist); pressure instead comes from node
    #: CPU contention, which scale-out genuinely relieves by spreading
    #: executors across machines
    count_parallelism: int = 12
    count_cpu_cost: float = 2e-2
    diurnal_amplitude: float = 0.0
    #: diurnal period as a fraction of the horizon
    diurnal_period_frac: float = 1.0
    #: [(start_frac, end_frac, multiplier)] multiplicative bursts
    bursts: Tuple[Tuple[float, float, float], ...] = ()
    #: [(start_frac, end_frac, rate)] absolute-rate overrides
    steps: Tuple[Tuple[float, float, float], ...] = ()
    #: average complete latency (s) the scenario is judged against
    latency_slo: float = 0.75
    default_horizon: float = 120.0
    max_workers: int = 6

    def validate(self) -> None:
        if self.base_rate <= 0:
            raise ValueError("base_rate must be positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.num_workers > self.max_workers:
            raise ValueError("num_workers must be <= max_workers")
        if self.latency_slo <= 0:
            raise ValueError("latency_slo must be positive")
        if self.default_horizon <= 0:
            raise ValueError("default_horizon must be positive")
        for lo, hi, _ in self.bursts + self.steps:
            if not 0.0 <= lo < hi <= 1.0:
                raise ValueError(
                    "burst/step windows must satisfy 0 <= start < end <= 1 "
                    "(they are horizon fractions)"
                )

    def profile(self, horizon: float) -> RateProfile:
        """Materialise the arrival-rate function for one horizon."""
        return RateProfile(
            base=self.base_rate,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period=self.diurnal_period_frac * horizon,
            bursts=[
                (lo * horizon, hi * horizon, mult)
                for lo, hi, mult in self.bursts
            ],
            steps=[
                (lo * horizon, hi * horizon, rate)
                for lo, hi, rate in self.steps
            ],
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "base_rate": _round(self.base_rate),
            "num_workers": self.num_workers,
            "skew": _round(self.skew),
            "count_parallelism": self.count_parallelism,
            "count_cpu_cost": self.count_cpu_cost,
            "diurnal_amplitude": _round(self.diurnal_amplitude),
            "diurnal_period_frac": _round(self.diurnal_period_frac),
            "bursts": [list(b) for b in self.bursts],
            "steps": [list(s) for s in self.steps],
            "latency_slo": _round(self.latency_slo),
            "max_workers": self.max_workers,
        }


#: The pack.  Tuned so each scenario's *fixed* arm visibly struggles at
#: the default horizon while staying recoverable (no unbounded melt).
SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="diurnal_ramp",
            description="slow sinusoidal swing around the base rate",
            base_rate=260.0,
            diurnal_amplitude=0.7,
            diurnal_period_frac=1.0,
            latency_slo=0.75,
        ),
        ScenarioSpec(
            name="flash_crowd",
            description="sudden sustained 3x burst mid-run",
            bursts=((0.3, 0.7, 3.0),),
            latency_slo=0.75,
        ),
        ScenarioSpec(
            name="hot_key_storm",
            description="heavy Zipf head plus a late sustained 3x burst",
            base_rate=160.0,
            skew=1.6,
            bursts=((0.4, 0.85, 3.0),),
            latency_slo=0.75,
        ),
        ScenarioSpec(
            name="slow_burn",
            description="staircase growth with no single spike",
            steps=((0.25, 0.5, 220.0), (0.5, 0.75, 320.0), (0.75, 1.0, 420.0)),
            latency_slo=0.75,
        ),
    )
}


@dataclass(frozen=True)
class ScenarioTopologyFactory:
    """Picklable per-run topology factory (value ``repr`` keys the cache)."""

    spec: ScenarioSpec
    horizon: float

    def __call__(self):
        spec = self.spec
        return build_url_count_topology(
            profile=spec.profile(self.horizon),
            grouping="dynamic",
            config=TopologyConfig(
                num_workers=spec.num_workers,
                tick_interval=1.0,
                message_timeout=10.0,
                max_replays=8,
            ),
            skew=spec.skew,
            count_parallelism=spec.count_parallelism,
            count_cpu_cost=spec.count_cpu_cost,
        )


#: Arm order is report order (and the paired-comparison baseline is
#: whichever arm comes first in the caller's selection).
ARMS: Tuple[str, ...] = ("fixed", "autoscale", "rate_control")


@dataclass
class ScenarioRunReport:
    """One (arm, run) cell of a scenario campaign."""

    arm: str
    run_index: int
    seed: int
    #: fraction of measured intervals (acked > 0) over the latency SLO
    slo_breach_fraction: float
    mean_complete_latency: float
    p99_complete_latency: float
    mean_throughput: float
    emitted: int
    acked: int
    failed: int
    in_flight: int
    dropped: int
    replays: int
    conserved: bool
    workers_min: int
    workers_max: int
    workers_final: int
    scale_outs: int
    scale_ins: int
    min_admission_rate: float
    tuples_lost_to_scale_in: int
    #: latency-attribution digest (``repro.obs.attribution``); present
    #: only for traced campaigns, so untraced reports keep the exact
    #: historical (golden-pinned) key set
    attribution: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "arm": self.arm,
            "run_index": self.run_index,
            "seed": self.seed,
            "slo_breach_fraction": _round(self.slo_breach_fraction),
            "mean_complete_latency": _round(self.mean_complete_latency),
            "p99_complete_latency": _round(self.p99_complete_latency),
            "mean_throughput": _round(self.mean_throughput),
            "emitted": self.emitted,
            "acked": self.acked,
            "failed": self.failed,
            "in_flight": self.in_flight,
            "dropped": self.dropped,
            "replays": self.replays,
            "conserved": self.conserved,
            "workers_min": self.workers_min,
            "workers_max": self.workers_max,
            "workers_final": self.workers_final,
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "min_admission_rate": _round(self.min_admission_rate),
            "tuples_lost_to_scale_in": self.tuples_lost_to_scale_in,
        }
        if self.attribution is not None:
            out["attribution"] = self.attribution
        return out


@dataclass
class ScenarioReport:
    """All (arm × run) cells of one scenario campaign."""

    scenario: ScenarioSpec
    seed: int
    horizon: float
    arms: Tuple[str, ...]
    runs: List[ScenarioRunReport] = field(default_factory=list)

    def arm_runs(self, arm: str) -> List[ScenarioRunReport]:
        return [r for r in self.runs if r.arm == arm]

    def arm_summary(self, arm: str) -> Dict[str, object]:
        rs = self.arm_runs(arm)
        if not rs:
            return {"runs": 0}
        return {
            "runs": len(rs),
            "mean_slo_breach_fraction": _round(
                float(np.mean([r.slo_breach_fraction for r in rs]))
            ),
            "mean_p99_latency": _round(
                float(np.mean([r.p99_complete_latency for r in rs]))
            ),
            "mean_throughput": _round(
                float(np.mean([r.mean_throughput for r in rs]))
            ),
            "max_pool": max(r.workers_max for r in rs),
            "final_pool": [r.workers_final for r in rs],
            "total_scale_outs": sum(r.scale_outs for r in rs),
            "total_scale_ins": sum(r.scale_ins for r in rs),
            "min_admission_rate": _round(
                min(r.min_admission_rate for r in rs)
            ),
            "all_conserved": all(r.conserved for r in rs),
        }

    def summary(self) -> Dict[str, object]:
        """JSON-able digest (write via ``repro.obs.summary_to_json``)."""
        return {
            "scenario": self.scenario.to_dict(),
            "campaign_seed": self.seed,
            "horizon": _round(self.horizon),
            "arms": {arm: self.arm_summary(arm) for arm in self.arms},
            "runs": [r.to_dict() for r in self.runs],
        }


def _run_report(
    arm: str,
    run_index: int,
    run_seed: int,
    spec: ScenarioSpec,
    sim,
    result,
    controller,
) -> ScenarioRunReport:
    from repro.storm.executor import SpoutExecutor

    lats = [
        s.topology.avg_complete_latency
        for s in result.snapshots
        if s.topology.acked > 0
    ]
    breaches = sum(1 for lat in lats if lat > spec.latency_slo)
    pool_sizes = [len(s.workers) for s in result.snapshots]
    spouts = [
        ex
        for ex in sim.cluster.executors.values()
        if isinstance(ex, SpoutExecutor)
    ]
    emitted = sum(ex.trees_opened for ex in spouts)
    replays = sum(ex.replayed_count for ex in spouts)
    ledger = sim.cluster.ledger
    scale_outs = scale_ins = 0
    lost_to_scale_in = 0
    min_rate = 1.0
    if isinstance(controller, AutoscaleController):
        scale_outs = sum(1 for e in controller.log if e.direction == "out")
        scale_ins = sum(1 for e in controller.log if e.direction == "in")
        lost_to_scale_in = sum(
            e.lost for e in sim.cluster.elastic.log if e.kind == "remove"
        )
    elif isinstance(controller, SpoutRateController):
        min_rate = min(
            [e.rate for e in controller.log], default=1.0
        )
    series = result.throughput_series()
    return ScenarioRunReport(
        arm=arm,
        run_index=run_index,
        seed=run_seed,
        slo_breach_fraction=(breaches / len(lats)) if lats else 0.0,
        mean_complete_latency=result.mean_complete_latency(),
        p99_complete_latency=result.latency_percentile(0.99),
        mean_throughput=float(np.mean(series.y)) if len(series.y) else 0.0,
        emitted=emitted,
        acked=ledger.acked_count,
        failed=ledger.failed_count,
        in_flight=ledger.in_flight,
        dropped=result.dropped,
        replays=replays,
        conserved=(
            emitted
            == ledger.acked_count + ledger.failed_count + ledger.in_flight
        ),
        workers_min=min(pool_sizes) if pool_sizes else spec.num_workers,
        workers_max=max(pool_sizes) if pool_sizes else spec.num_workers,
        workers_final=len(sim.cluster.workers),
        scale_outs=scale_outs,
        scale_ins=scale_ins,
        min_admission_rate=min_rate,
        tuples_lost_to_scale_in=lost_to_scale_in,
    )


class ScenarioCampaign:
    """Paired (arm × run) campaign over one workload scenario.

    Mirrors :class:`~repro.storm.chaos.ChaosCampaign`'s execution
    contract: every cell derives its simulation seed from
    ``(campaign_seed, run_index)`` *only* — the same run seed replays in
    every arm, so arm deltas are causal, not sampling noise — and cells
    fan out across processes or serve from a result cache without
    changing a byte of the report.
    """

    def __init__(
        self,
        scenario: ScenarioSpec,
        *,
        seed: int = 0,
        runs: int = 2,
        horizon: Optional[float] = None,
        arms: Sequence[str] = ("fixed", "autoscale"),
        nodes: Sequence[NodeSpec] = DEFAULT_NODES,
        metrics_interval: float = 1.0,
        trace: bool = False,
        trace_capacity: int = 1 << 16,
    ) -> None:
        scenario.validate()
        if runs <= 0:
            raise ValueError("runs must be positive")
        for arm in arms:
            if arm not in ARMS:
                raise ValueError(
                    f"unknown arm {arm!r}; choose from {ARMS}"
                )
        if len(set(arms)) != len(arms):
            raise ValueError("arms must be unique")
        self.scenario = scenario
        self.seed = int(seed)
        self.runs = int(runs)
        self.horizon = float(
            scenario.default_horizon if horizon is None else horizon
        )
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        self.arms = tuple(arms)
        self.nodes = tuple(nodes)
        self.metrics_interval = float(metrics_interval)
        self.trace = bool(trace)
        self.trace_capacity = int(trace_capacity)
        self.last_shard_stats = None

    def _controller_factory(self, arm: str):
        """Picklable per-run controller recipe of ``arm`` (None: fixed)."""
        spec = self.scenario
        if arm == "fixed":
            return None
        if arm == "autoscale":
            # scenario arms react on the first breached interval: the
            # workload shapes here ramp fast, and a 10 s cooldown already
            # bounds flap
            return functools.partial(
                AutoscaleController,
                AutoscalePolicy(
                    latency_slo=spec.latency_slo,
                    consecutive=1,
                    cooldown=10.0,
                    min_workers=spec.num_workers,
                    max_workers=spec.max_workers,
                ),
            )
        if arm == "rate_control":
            return functools.partial(SpoutRateController, RateControlConfig())
        raise ValueError(f"unknown arm {arm!r}")

    def run_one(self, arm: str, run_index: int) -> ScenarioRunReport:
        """Execute a single (arm, run) cell inline and report it."""
        spec = self.scenario
        run_seed = derive_run_seed(self.seed, run_index)
        topology = ScenarioTopologyFactory(spec, self.horizon)()
        builder = (
            SimulationBuilder(topology)
            .nodes(self.nodes)
            .seed(run_seed)
            .metrics_interval(self.metrics_interval)
        )
        if self.trace:
            builder.observability(
                trace=True, trace_capacity=self.trace_capacity
            )
        factory = self._controller_factory(arm)
        controller = factory() if factory is not None else None
        if controller is not None:
            builder.controller(controller)
        sim = builder.build()
        result = sim.run(duration=self.horizon)
        report = _run_report(
            arm, run_index, run_seed, spec, sim, result, controller
        )
        if self.trace and sim.obs.tracer is not None:
            from repro.obs.attribution import attribute_forest
            from repro.obs.spans import build_span_forest

            forest = build_span_forest(sim.obs.tracer.records())
            report.attribution = attribute_forest(forest).to_dict()
        return report

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["last_shard_stats"] = None
        return state

    def run_key(self, arm: str, run_index: int) -> Dict[str, object]:
        """Cache-key material of one cell (config + derived seed)."""
        from repro.parallel.cache import key_material

        return key_material(
            "scenario-run",
            scenario=self.scenario.to_dict(),
            horizon=self.horizon,
            arm=arm,
            controller=repr(self._controller_factory(arm)),
            nodes=[vars(n) for n in self.nodes],
            metrics_interval=self.metrics_interval,
            trace=self.trace,
            trace_capacity=self.trace_capacity,
            campaign_seed=self.seed,
            run_index=run_index,
            seed=derive_run_seed(self.seed, run_index),
        )

    def run(self, jobs: int = 1, cache=None) -> ScenarioReport:
        """Execute every (arm × run) cell and aggregate the report."""
        from repro.parallel import (
            ResultCache,
            RunSpec,
            ShardStats,
            run_sharded,
        )

        jobs = int(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if jobs != 1:
            import pickle

            try:
                pickle.dumps(self)
            except Exception as exc:  # pragma: no cover - defensive
                raise ValueError(
                    "campaign is not picklable, so it cannot fan out "
                    f"across processes (got: {exc!r})"
                ) from exc
        cells = [
            (arm, i) for arm in self.arms for i in range(self.runs)
        ]
        specs = [
            RunSpec(
                fn=_scenario_run_worker,
                kwargs={"campaign": self, "arm": arm, "run_index": i},
                key=self.run_key(arm, i) if cache is not None else None,
                label=f"{self.scenario.name}-{arm}-{i}",
            )
            for arm, i in cells
        ]
        stats = ShardStats(jobs=1, shard_seconds=[])
        reports = run_sharded(specs, jobs=jobs, cache=cache, stats=stats)
        self.last_shard_stats = stats
        return ScenarioReport(
            scenario=self.scenario,
            seed=self.seed,
            horizon=self.horizon,
            arms=self.arms,
            runs=list(reports),
        )


def _scenario_run_worker(
    campaign: ScenarioCampaign, arm: str, run_index: int
) -> ScenarioRunReport:
    """Module-level worker so specs pickle under the spawn start method."""
    return campaign.run_one(arm, run_index)


def run_scenario_campaign(
    scenario: str = "flash_crowd",
    seed: int = 7,
    runs: int = 2,
    horizon: Optional[float] = None,
    arms: Sequence[str] = ("fixed", "autoscale"),
    jobs: int = 1,
    cache=None,
    trace: bool = False,
    trace_capacity: int = 1 << 16,
) -> ScenarioReport:
    """Run one named scenario from :data:`SCENARIOS` (see module docs).

    ``trace=True`` traces every cell and attaches a latency-attribution
    digest to each run report (``attribution`` key; absent — and the
    report bytes unchanged — when off).
    """
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose from "
            f"{sorted(SCENARIOS)}"
        )
    campaign = ScenarioCampaign(
        SCENARIOS[scenario],
        seed=seed,
        runs=runs,
        horizon=horizon,
        arms=arms,
        trace=trace,
        trace_capacity=trace_capacity,
    )
    return campaign.run(jobs=jobs, cache=cache)
