"""Elastic control policies: pool autoscaling and spout admission control.

The paper's predictive controller re-splits dynamic-grouping ratios
across a fixed worker pool.  This module adds the two actuator policies
that close the remaining loops.  Both run on the same loop as
:class:`~repro.core.controller.PredictiveController` — a
:class:`~repro.core.controller.ControlLoop`, attached once through
``sim.attach`` or ``SimulationBuilder.controller`` and stepped by its
own DES process — and each acts on the newest metrics snapshot:

* :class:`AutoscaleController` — watches topology complete latency and
  per-worker backlog from the metrics snapshots and scales the pool
  through :attr:`Cluster.elastic`.  Hysteresis on both sides: an action
  needs ``consecutive`` breached intervals *and* an elapsed ``cooldown``
  since the previous action, so one noisy interval never flaps the pool.
* :class:`SpoutRateController` — AIMD admission control on the spouts
  (multiplicative backoff when the topology is over its backlog/pending
  ceiling, additive recovery otherwise) through
  :meth:`Cluster.set_admission_rate`.  This is the load-shedding arm for
  clusters that *cannot* scale out: it trades throughput for bounded
  queueing delay.

Determinism: both controllers read only simulation state (metrics
snapshots, pool membership) and use no randomness or wall-clock, so runs
with them attached stay byte-replayable from the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.controller import ControlLoop

if TYPE_CHECKING:  # pragma: no cover
    from repro.storm.runner import StormSimulation


@dataclass(frozen=True)
class AutoscalePolicy:
    """When and how far the pool may scale.

    ``latency_slo`` and ``backlog_high`` are the pressure signals (either
    breaching counts); ``backlog_low`` gates scale-in, which additionally
    requires latency under the SLO.  ``consecutive`` and ``cooldown``
    are the hysteresis: that many consecutive breached decision
    intervals, and at least that much sim-time since the last action.
    With ``scale_in_added_only`` (default) scale-in only ever removes
    workers the autoscaler itself added — the initial pool, which
    pre-scheduled fault injections target by id, stays intact.
    """

    interval: float = 5.0
    #: topology average complete latency (s) that reads as pressure
    latency_slo: float = 1.0
    #: mean queued tuples per worker that reads as pressure
    backlog_high: float = 50.0
    #: mean queued tuples per worker under which scale-in is considered
    backlog_low: float = 5.0
    consecutive: int = 2
    #: clean intervals before scale-in — deliberately laxer than
    #: ``consecutive``: a premature scale-in crash-drains queues and the
    #: replay burst costs more than holding a spare worker a while
    relief_consecutive: int = 4
    cooldown: float = 15.0
    min_workers: int = 1
    max_workers: int = 8
    scale_in_added_only: bool = True

    def validate(self) -> None:
        # valid ranges, so NaN fails them too (see ControllerConfig)
        inf = math.inf
        for name, ok, rule in (
            ("interval", 0 < self.interval < inf, "finite and > 0"),
            ("latency_slo", 0 < self.latency_slo < inf, "finite and > 0"),
            ("backlog_high", 0 < self.backlog_high < inf, "finite and > 0"),
            (
                "backlog_low",
                0 <= self.backlog_low < self.backlog_high,
                "in [0, backlog_high)",
            ),
            ("consecutive", 1 <= self.consecutive < inf, "finite and >= 1"),
            (
                "relief_consecutive",
                1 <= self.relief_consecutive < inf,
                "finite and >= 1",
            ),
            ("cooldown", 0 <= self.cooldown < inf, "finite and >= 0"),
            ("max_workers", 1 <= self.max_workers < inf, "finite and >= 1"),
            (
                "min_workers",
                1 <= self.min_workers <= self.max_workers,
                "in [1, max_workers]",
            ),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )


@dataclass
class ScaleEvent:
    """One autoscaling decision that acted (for experiment plots)."""

    time: float
    direction: str  # "out" | "in"
    worker_id: int
    pool_size: int  # after the action
    latency: float
    backlog_per_worker: float


class AutoscaleController(ControlLoop):
    """Backlog/SLO-driven elastic scaling of the worker pool."""

    name = "autoscale-controller"

    def __init__(self, policy: Optional[AutoscalePolicy] = None) -> None:
        self.policy = policy or AutoscalePolicy()
        self.policy.validate()
        super().__init__(self.policy.interval)
        self.log: List[ScaleEvent] = []
        self._initial_ids: frozenset = frozenset()
        self._pressure_streak = 0
        self._relief_streak = 0
        self._last_action = -float("inf")

    def _attach(self, sim: "StormSimulation") -> None:
        self._initial_ids = frozenset(
            w.worker_id for w in sim.cluster.workers
        )

    def _step(self) -> None:
        new = self._new_snapshots()
        if not new:
            return
        snap = new[-1]
        policy = self.policy
        cluster = self.sim.cluster
        now = self.sim.env.now
        latency = snap.topology.avg_complete_latency
        n_workers = len(snap.workers)
        backlog = (
            sum(w.backlog for w in snap.workers.values()) / n_workers
            if n_workers
            else 0.0
        )
        pressure = latency > policy.latency_slo or backlog > policy.backlog_high
        relief = latency <= policy.latency_slo and backlog < policy.backlog_low
        self._pressure_streak = self._pressure_streak + 1 if pressure else 0
        self._relief_streak = self._relief_streak + 1 if relief else 0
        if now - self._last_action < policy.cooldown:
            return
        pool = len(cluster.workers)
        if (
            self._pressure_streak >= policy.consecutive
            and pool < policy.max_workers
        ):
            try:
                worker = cluster.elastic.add_worker()
            except RuntimeError:
                return  # no free slot anywhere: scale-out is saturated
            self._acted(now, "out", worker.worker_id, latency, backlog)
        elif (
            self._relief_streak >= policy.relief_consecutive
            and pool > policy.min_workers
        ):
            victim = max(cluster.workers, key=lambda w: w.worker_id)
            if (
                policy.scale_in_added_only
                and victim.worker_id in self._initial_ids
            ):
                return  # only the initial pool is left: hold steady
            cluster.elastic.remove_worker(victim.worker_id)
            self._acted(now, "in", victim.worker_id, latency, backlog)

    def _acted(
        self,
        now: float,
        direction: str,
        worker_id: int,
        latency: float,
        backlog: float,
    ) -> None:
        self._last_action = now
        self._pressure_streak = 0
        self._relief_streak = 0
        self.log.append(
            ScaleEvent(
                time=now,
                direction=direction,
                worker_id=worker_id,
                pool_size=len(self.sim.cluster.workers),
                latency=latency,
                backlog_per_worker=backlog,
            )
        )


@dataclass(frozen=True)
class RateControlConfig:
    """AIMD admission-control parameters for the spout throttle."""

    interval: float = 5.0
    #: topology in-flight tuples above which the spouts back off
    in_flight_high: float = 200.0
    #: multiplicative decrease factor on breach (0 < decrease < 1)
    decrease: float = 0.5
    #: additive recovery per clean interval
    increase: float = 0.1
    #: admission never throttles below this fraction
    min_rate: float = 0.1

    def validate(self) -> None:
        inf = math.inf
        for name, ok, rule in (
            ("interval", 0 < self.interval < inf, "finite and > 0"),
            ("in_flight_high", 0 < self.in_flight_high < inf, "finite and > 0"),
            ("decrease", 0 < self.decrease < 1, "in (0, 1)"),
            ("increase", 0 < self.increase < inf, "finite and > 0"),
            ("min_rate", 0 < self.min_rate <= 1, "in (0, 1]"),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )


@dataclass
class RateEvent:
    """One admission-rate change (for experiment plots)."""

    time: float
    rate: float  # after the change
    in_flight: int


class SpoutRateController(ControlLoop):
    """AIMD spout admission control against the in-flight ceiling."""

    name = "spout-rate-controller"

    def __init__(self, config: Optional[RateControlConfig] = None) -> None:
        self.config = config or RateControlConfig()
        self.config.validate()
        super().__init__(self.config.interval)
        self.rate = 1.0
        self.log: List[RateEvent] = []

    def _step(self) -> None:
        new = self._new_snapshots()
        if not new:
            return
        snap = new[-1]
        cfg = self.config
        in_flight = snap.topology.in_flight
        if in_flight > cfg.in_flight_high:
            new_rate = max(cfg.min_rate, self.rate * cfg.decrease)
        else:
            new_rate = min(1.0, self.rate + cfg.increase)
        if new_rate == self.rate:
            return
        self.rate = new_rate
        self.sim.cluster.set_admission_rate(new_rate)
        self.log.append(
            RateEvent(
                time=self.sim.env.now, rate=new_rate, in_flight=in_flight
            )
        )
