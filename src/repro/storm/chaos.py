"""Deterministic chaos campaigns over the simulated Storm cluster.

The reliability story of the paper rests on a single fault archetype
(worker slowdown).  Real deployments die in more ways than that: worker
processes crash and restart, the network drops and delays messages.  This
module turns those failure modes into *campaigns* — batches of seeded
simulation runs, each with a fault schedule sampled from a
:class:`ChaosSpec` — and reduces every run to a degradation/recovery
report the experiment layer can aggregate.

Reproducibility contract
------------------------

A campaign is a pure function of ``(seed, spec, topology, runs,
horizon)``:

* run *i* simulates with seed ``derive_run_seed(seed, i)`` (split off the
  campaign seed via :class:`numpy.random.SeedSequence`, so runs are
  independent but replayable individually);
* run *i*'s fault schedule is sampled from a generator seeded with
  ``SeedSequence([seed, i, _SCHEDULE_STREAM])`` — sampling never touches
  simulation RNG streams, and vice versa;
* message-loss/delay draws inside the simulation come from the cluster's
  dedicated ``transport/chaos`` stream, so they cannot perturb component
  behaviour.

Re-running any single run — or the whole campaign — with the same inputs
reproduces every metric bit-for-bit; ``tests/storm/test_chaos.py`` pins
this and ``tests/golden/chaos_smoke.json`` pins a 3-run campaign in CI.

Usage::

    from repro.experiments.traces import build_app_topology
    campaign = ChaosCampaign(
        lambda: build_app_topology("url_count"),
        ChaosSpec(crashes=1, losses=1),
        seed=7, runs=3, horizon=180.0,
    )
    report = campaign.run()
    print(report.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.des.rng import derive_seed, spawn_stream
from repro.obs import Observability, ObservabilityConfig
from repro.storm.builder import SimulationBuilder
from repro.storm.cluster import NodeSpec
from repro.storm.faults import (
    Fault,
    MessageLossFault,
    NetworkDelayFault,
    SlowdownFault,
    WorkerCrashFault,
)
from repro.storm.runner import DEFAULT_NODES

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.runner import SimulationResult, StormSimulation
    from repro.storm.topology import Topology

#: SeedSequence lane that separates schedule sampling from run seeds.
_SCHEDULE_STREAM = 0x5EED
#: Recovery = first time a rolling throughput window regains this fraction
#: of the pre-fault baseline.
RECOVERY_FRACTION = 0.9
#: Width (in snapshots) of the rolling recovery window.
RECOVERY_WINDOW = 5


def derive_run_seed(campaign_seed: int, run_index: int) -> int:
    """Deterministic per-run simulation seed (stable across sessions)."""
    return derive_seed(campaign_seed, run_index)


@dataclass(frozen=True)
class ChaosSpec:
    """How many faults of each kind a sampled schedule contains, and the
    parameter ranges they are drawn from (uniformly, via the schedule RNG).

    All windows land inside ``(window_lo, window_hi)`` fractions of the
    horizon so every run keeps a clean pre-fault baseline and a post-fault
    recovery tail for the report to measure against.
    """

    crashes: int = 1
    losses: int = 0
    delays: int = 0
    slowdowns: int = 0
    #: crash outage (supervisor restart delay), seconds
    crash_outage: Tuple[float, float] = (10.0, 25.0)
    #: per-transfer drop probability while a loss fault is active
    loss_probability: Tuple[float, float] = (0.02, 0.08)
    #: duration of loss/delay/slowdown faults, seconds
    fault_duration: Tuple[float, float] = (20.0, 40.0)
    #: mean extra exponential latency while a delay fault is active
    delay_mean: Tuple[float, float] = (0.02, 0.08)
    #: service-time dilation factor of slowdown faults
    slowdown_factor: Tuple[float, float] = (4.0, 12.0)
    #: fault start times fall in [window_lo, window_hi] * horizon
    window_lo: float = 0.3
    window_hi: float = 0.55

    def validate(self) -> None:
        counts = (self.crashes, self.losses, self.delays, self.slowdowns)
        if any(c < 0 for c in counts):
            raise ValueError(f"fault counts must be >= 0, got {counts}")
        if sum(counts) == 0:
            raise ValueError("spec samples no faults at all")
        if not 0.0 <= self.window_lo < self.window_hi <= 1.0:
            raise ValueError(
                f"bad fault window [{self.window_lo}, {self.window_hi}]"
            )
        for name in (
            "crash_outage", "loss_probability", "fault_duration",
            "delay_mean", "slowdown_factor",
        ):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi:
                raise ValueError(f"bad range {name}=({lo}, {hi})")
        if self.loss_probability[1] > 1.0:
            raise ValueError("loss probability range exceeds 1")

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-able record of the spec (campaign provenance)."""
        out: Dict[str, object] = {}
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


def _uniform(rng: np.random.Generator, bounds: Tuple[float, float]) -> float:
    lo, hi = bounds
    return float(lo if lo == hi else rng.uniform(lo, hi))


def sample_schedule(
    spec: ChaosSpec,
    horizon: float,
    num_workers: int,
    rng: np.random.Generator,
) -> List[Fault]:
    """Draw one concrete fault schedule from ``spec``.

    Crash/slowdown victims are drawn without replacement when enough
    workers exist (a doubly-crashed worker would just extend the outage),
    falling back to replacement otherwise.  The sampled list is sorted by
    start time so schedules read chronologically in reports and traces.
    """
    spec.validate()
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")

    def start() -> float:
        return float(
            rng.uniform(spec.window_lo * horizon, spec.window_hi * horizon)
        )

    n_victims = spec.crashes + spec.slowdowns
    victims = list(
        rng.choice(
            num_workers, size=n_victims, replace=n_victims > num_workers
        )
    ) if n_victims else []

    faults: List[Fault] = []
    for _ in range(spec.crashes):
        faults.append(
            WorkerCrashFault(
                start=start(),
                duration=_uniform(rng, spec.crash_outage),
                worker_id=int(victims.pop()),
            )
        )
    for _ in range(spec.slowdowns):
        faults.append(
            SlowdownFault(
                start=start(),
                duration=_uniform(rng, spec.fault_duration),
                worker_id=int(victims.pop()),
                factor=_uniform(rng, spec.slowdown_factor),
            )
        )
    for _ in range(spec.losses):
        faults.append(
            MessageLossFault(
                start=start(),
                duration=_uniform(rng, spec.fault_duration),
                probability=_uniform(rng, spec.loss_probability),
            )
        )
    for _ in range(spec.delays):
        faults.append(
            NetworkDelayFault(
                start=start(),
                duration=_uniform(rng, spec.fault_duration),
                extra_delay=_uniform(rng, spec.delay_mean),
            )
        )
    faults.sort(key=lambda f: f.start)
    return faults


def _round(x: float, digits: int = 6) -> float:
    """Golden-file-friendly float: finite, rounded; NaN → None-safe nan."""
    return float(round(x, digits)) if np.isfinite(x) else float("nan")


@dataclass
class ChaosRunReport:
    """Degradation/recovery/accounting digest of one campaign run."""

    run_index: int
    seed: int
    schedule: List[Fault]
    fault_start: float
    fault_end: float
    #: mean acked throughput before the first fault (tuples/s)
    healthy_throughput: float
    #: mean acked throughput while any fault window is open
    fault_throughput: float
    #: 1 - fault/healthy (0 = unaffected, 1 = fully stalled)
    degradation: float
    #: seconds after the last fault window closes until a rolling
    #: throughput window regains RECOVERY_FRACTION of healthy; NaN = never
    recovery_time: float
    mean_complete_latency: float
    p99_complete_latency: float
    #: tuple accounting (over the whole run)
    emitted: int
    acked: int
    failed: int
    in_flight: int
    dropped: int
    lost: int
    replays: int
    failure_reasons: Dict[str, int]
    #: emitted == acked + failed + in_flight (tuple conservation)
    conserved: bool
    #: full run report (repro.obs.report) when the run had metrics on;
    #: ``None`` otherwise, and then absent from :meth:`to_dict` — golden
    #: campaign files pin the metrics-disabled shape
    run_report: Optional[Dict[str, object]] = None

    def schedule_dict(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for f in self.schedule:
            row: Dict[str, object] = {"fault": type(f).__name__}
            for fl in dataclass_fields(f):
                v = getattr(f, fl.name)
                row[fl.name] = _round(v) if isinstance(v, float) else v
            rows.append(row)
        return rows

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "run_index": self.run_index,
            "seed": self.seed,
            "schedule": self.schedule_dict(),
            "fault_start": _round(self.fault_start),
            "fault_end": _round(self.fault_end),
            "healthy_throughput": _round(self.healthy_throughput),
            "fault_throughput": _round(self.fault_throughput),
            "degradation": _round(self.degradation),
            "recovery_time": _round(self.recovery_time),
            "mean_complete_latency": _round(self.mean_complete_latency),
            "p99_complete_latency": _round(self.p99_complete_latency),
            "emitted": self.emitted,
            "acked": self.acked,
            "failed": self.failed,
            "in_flight": self.in_flight,
            "dropped": self.dropped,
            "lost": self.lost,
            "replays": self.replays,
            "failure_reasons": dict(sorted(self.failure_reasons.items())),
            "conserved": self.conserved,
        }
        if self.run_report is not None:
            out["run_report"] = self.run_report
        return out


@dataclass
class CampaignReport:
    """All runs of one campaign plus campaign-level aggregates."""

    seed: int
    runs: List[ChaosRunReport]
    spec: ChaosSpec
    horizon: float
    app: str = ""

    def summary(self) -> Dict[str, object]:
        """JSON-able campaign digest (exported via ``summary_to_json``)."""
        degradations = [r.degradation for r in self.runs]
        recoveries = [
            r.recovery_time for r in self.runs if np.isfinite(r.recovery_time)
        ]
        return {
            "campaign_seed": self.seed,
            "app": self.app,
            "runs": len(self.runs),
            "horizon": _round(self.horizon),
            "spec": self.spec.to_dict(),
            "mean_degradation": _round(float(np.mean(degradations)))
            if degradations else float("nan"),
            "max_degradation": _round(float(np.max(degradations)))
            if degradations else float("nan"),
            "mean_recovery_time": _round(float(np.mean(recoveries)))
            if recoveries else float("nan"),
            "recovered_runs": len(recoveries),
            "all_conserved": all(r.conserved for r in self.runs),
            "total_lost": sum(r.lost for r in self.runs),
            "total_dropped": sum(r.dropped for r in self.runs),
            "run_reports": [r.to_dict() for r in self.runs],
        }


def recovery_time_of(
    times: Sequence[float],
    throughputs: Sequence[float],
    fault_end: float,
    healthy_throughput: float,
    fraction: float = RECOVERY_FRACTION,
    window: int = RECOVERY_WINDOW,
) -> float:
    """Seconds from ``fault_end`` until recovery, or NaN if never.

    Recovery is declared at the first sample time ``t > fault_end`` whose
    trailing ``window``-sample mean (using only post-fault samples) is at
    least ``fraction * healthy_throughput``.  A rolling window rather than
    a single sample keeps one lucky interval from declaring victory while
    the replay backlog is still draining.
    """
    if healthy_throughput <= 0:
        return float("nan")
    target = fraction * healthy_throughput
    tail: List[float] = []
    for t, y in zip(times, throughputs):
        if t <= fault_end:
            continue
        tail.append(float(y))
        if len(tail) > window:
            tail.pop(0)
        if len(tail) == window and float(np.mean(tail)) >= target:
            return float(t - fault_end)
    return float("nan")


def analyze_run(
    run_index: int,
    seed: int,
    schedule: Sequence[Fault],
    sim: "StormSimulation",
    result: "SimulationResult",
) -> ChaosRunReport:
    """Reduce one finished chaos run to its :class:`ChaosRunReport`.

    Works from the simulation/result objects only, so callers that need
    custom wiring (extra controllers, observability) reuse the same
    analysis as :class:`ChaosCampaign`.
    """
    from repro.storm.executor import SpoutExecutor

    fault_start = min(f.start for f in schedule)
    fault_end = max(f.start + f.duration for f in schedule)
    series = result.throughput_series()
    healthy = result.mean_throughput_between(0.0, fault_start)
    fault_tp = result.mean_throughput_between(fault_start, fault_end)
    degradation = (
        1.0 - fault_tp / healthy if healthy > 0 else float("nan")
    )
    recovery = recovery_time_of(
        series.t, series.y, fault_end, healthy
    )

    ledger = sim.cluster.ledger
    assert ledger is not None
    transport = sim.cluster.transport
    assert transport is not None
    spouts = [
        ex for ex in sim.cluster.executors.values()
        if isinstance(ex, SpoutExecutor)
    ]
    emitted = sum(ex.trees_opened for ex in spouts)
    replays = sum(ex.replayed_count for ex in spouts)
    conserved = (
        emitted == ledger.acked_count + ledger.failed_count + ledger.in_flight
    )
    run_report: Optional[Dict[str, object]] = None
    if sim.obs.metrics is not None:
        from repro.obs.report import build_report

        run_report = build_report(result, label=f"chaos-run-{run_index}")
    return ChaosRunReport(
        run_index=run_index,
        seed=seed,
        schedule=list(schedule),
        fault_start=fault_start,
        fault_end=fault_end,
        healthy_throughput=healthy,
        fault_throughput=fault_tp,
        degradation=degradation,
        recovery_time=recovery,
        mean_complete_latency=result.mean_complete_latency(),
        p99_complete_latency=result.latency_percentile(0.99),
        emitted=emitted,
        acked=ledger.acked_count,
        failed=ledger.failed_count,
        in_flight=ledger.in_flight,
        dropped=result.dropped,
        lost=transport.lost_count,
        replays=replays,
        failure_reasons=dict(ledger.failure_reasons),
        conserved=conserved,
        run_report=run_report,
    )


class ChaosCampaign:
    """Run ``runs`` seeded chaos simulations and collect their reports.

    Parameters
    ----------
    topology_factory:
        Zero-argument callable returning a *fresh* topology per run
        (topologies hold per-run instance state, so they cannot be
        shared).  Keeping this a callable avoids a dependency from the
        storm layer onto the experiments/apps layer.
    spec:
        Fault mix and parameter ranges to sample schedules from.
    seed:
        Campaign seed; everything else derives from it.
    runs / horizon:
        Number of simulations and the simulated seconds of each.
    nodes / metrics_interval:
        Cluster shape and statistics sampling period per run.
    trace:
        Attach a tracer to every run (the last run's observability handle
        is kept on ``self.last_obs`` for export).
    trace_capacity:
        Ring-buffer size per traced run; size it to the run when the
        span-tree attribution must cover every tuple (see
        :mod:`repro.obs.spans`).
    metrics:
        Attach a metrics registry to every run; each
        :class:`ChaosRunReport` then carries a full ``run_report``
        artifact (see :mod:`repro.obs.report`).
    controller_factory:
        Optional zero-argument callable returning a fresh detached
        controller per run (controllers bind to exactly one simulation),
        for campaigns over a controlled arm.
    """

    def __init__(
        self,
        topology_factory: Callable[[], "Topology"],
        spec: ChaosSpec,
        *,
        seed: int = 0,
        runs: int = 3,
        horizon: float = 180.0,
        nodes: Sequence[NodeSpec] = DEFAULT_NODES,
        metrics_interval: float = 1.0,
        trace: bool = False,
        trace_capacity: int = 1 << 16,
        metrics: bool = False,
        app: str = "",
        controller_factory: Optional[Callable[[], object]] = None,
    ) -> None:
        if runs <= 0:
            raise ValueError("runs must be positive")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        spec.validate()
        self.topology_factory = topology_factory
        self.spec = spec
        self.seed = int(seed)
        self.runs = int(runs)
        self.horizon = float(horizon)
        self.nodes = tuple(nodes)
        self.metrics_interval = float(metrics_interval)
        self.trace = trace
        self.trace_capacity = int(trace_capacity)
        self.metrics = metrics
        self.app = app
        self.controller_factory = controller_factory
        self.last_obs: Optional[Observability] = None
        #: execution accounting of the latest :meth:`run` (jobs used,
        #: per-run wall-clock, cache hits) — see ``repro.parallel``
        self.last_shard_stats = None

    def schedule_for(self, run_index: int, num_workers: int) -> List[Fault]:
        """The (deterministic) fault schedule of run ``run_index``."""
        rng = spawn_stream(self.seed, run_index, _SCHEDULE_STREAM)
        return sample_schedule(self.spec, self.horizon, num_workers, rng)

    def run_one(self, run_index: int) -> ChaosRunReport:
        """Execute a single campaign run and report it."""
        topology = self.topology_factory()
        schedule = self.schedule_for(
            run_index, topology.config.num_workers
        )
        run_seed = derive_run_seed(self.seed, run_index)
        builder = (
            SimulationBuilder(topology)
            .nodes(self.nodes)
            .seed(run_seed)
            .metrics_interval(self.metrics_interval)
            .faults(schedule)
        )
        if self.trace or self.metrics:
            builder.observability(
                trace=self.trace, metrics=self.metrics,
                trace_capacity=self.trace_capacity,
            )
        if self.controller_factory is not None:
            builder.controller(self.controller_factory())
        sim = builder.build()
        result = sim.run(duration=self.horizon)
        self.last_obs = sim.obs
        return analyze_run(run_index, run_seed, schedule, sim, result)

    def __getstate__(self) -> Dict[str, object]:
        # Live handles never cross process boundaries: workers rebuild
        # their own simulations, the parent keeps its own accounting.
        state = dict(self.__dict__)
        state["last_obs"] = None
        state["last_shard_stats"] = None
        return state

    def _factory_token(self, factory) -> str:
        """Stable cache-key identity of a topology/controller factory."""
        if factory is None:
            return "none"
        qualname = getattr(factory, "__qualname__", None)
        if qualname is not None and "<" not in qualname:
            return f"{factory.__module__}.{qualname}"
        return repr(factory)

    def run_key(self, run_index: int) -> Dict[str, object]:
        """Cache-key material of run ``run_index`` (config + seed + schema).

        Everything that shapes a run's report is in here: the sampled-from
        spec, the horizon, the cluster shape, observability switches, the
        factories' identities, and the derived per-run seed.  The cache
        layer folds in its own schema version, so semantic changes to the
        report orphan old entries wholesale.
        """
        from repro.parallel.cache import key_material

        return key_material(
            "chaos-run",
            app=self.app,
            spec=self.spec.to_dict(),
            horizon=self.horizon,
            nodes=[vars(n) for n in self.nodes],
            metrics_interval=self.metrics_interval,
            trace=self.trace,
            trace_capacity=self.trace_capacity,
            metrics=self.metrics,
            topology=self._factory_token(self.topology_factory),
            controller=self._factory_token(self.controller_factory),
            campaign_seed=self.seed,
            run_index=run_index,
            seed=derive_run_seed(self.seed, run_index),
        )

    def run(self, jobs: int = 1, cache=None) -> CampaignReport:
        """Execute every run and aggregate the campaign report.

        ``jobs`` shards runs across worker processes (``0`` = all cores;
        the default ``1`` runs inline).  Because each run derives its
        streams from ``(seed, run_index)`` alone and reports are merged
        back in run order, the report is byte-identical at any ``jobs``.
        ``cache`` (a path or :class:`~repro.parallel.ResultCache`)
        serves already-computed runs from disk; with ``jobs > 1`` or any
        cache hit, ``last_obs`` is not populated (the live observability
        handles belong to a worker process).
        """
        from repro.parallel import (
            ResultCache,
            RunSpec,
            ShardStats,
            combine_run_reports,
            run_sharded,
        )

        jobs = int(jobs)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if jobs != 1:
            import pickle

            try:
                pickle.dumps(self)
            except Exception as exc:
                raise ValueError(
                    "campaign is not picklable, so it cannot fan out "
                    "across processes — topology_factory/controller_factory "
                    f"must be module-level callables (got: {exc!r})"
                ) from exc
        specs = [
            RunSpec(
                fn=_campaign_run_worker,
                kwargs={"campaign": self, "run_index": i},
                key=self.run_key(i) if cache is not None else None,
                label=f"chaos-run-{i}",
            )
            for i in range(self.runs)
        ]
        stats = ShardStats(jobs=1, shard_seconds=[])
        reports = run_sharded(specs, jobs=jobs, cache=cache, stats=stats)
        self.last_shard_stats = stats
        return CampaignReport(
            seed=self.seed,
            runs=combine_run_reports(reports),
            spec=self.spec,
            horizon=self.horizon,
            app=self.app,
        )


def _campaign_run_worker(campaign: ChaosCampaign, run_index: int) -> ChaosRunReport:
    """Module-level worker so specs pickle under the spawn start method."""
    return campaign.run_one(run_index)
