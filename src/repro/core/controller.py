"""The closed control loop: sample → predict → detect → plan → act.

:class:`PredictiveController` is constructed *detached* — from a
predictor and loop configuration — and wired to a simulation explicitly::

    controller = PredictiveController(predictor, ControllerConfig(...))
    sim.attach(controller)    # or SimulationBuilder.controller(controller)
    sim.run(duration=300)

Attachment must happen before the first ``run()``; the simulation raises
a clear error otherwise.

Once attached, the loop iterates every ``control_interval`` simulation
seconds:

1. ingest new metrics snapshots into the :class:`~repro.core.monitor.
   StatsMonitor`;
2. forecast each worker's next-interval tuple processing time with the
   :class:`~repro.core.predictor.PerformancePredictor` (DRNN in the paper;
   ARIMA/SVR/reactive for the comparison experiments);
3. update the :class:`~repro.core.detector.MisbehaviorDetector`;
4. for every controlled dynamic-grouping edge, compute new split ratios
   with the :class:`~repro.core.planner.SplitRatioPlanner`;
5. apply them through :meth:`Cluster.set_split_ratios` — tuples re-route
   around misbehaving workers on the fly.

Every action is logged (:class:`ControlAction`) for the experiment plots,
and — when the simulation runs with tracing enabled — each loop stage
emits a structured ``control.*`` event with its inputs and outputs.

The periodic process itself is :class:`ControlLoop`, the one loop all
three controllers share: this one and the elastic
:class:`~repro.core.elasticity.AutoscaleController` and
:class:`~repro.core.elasticity.SpoutRateController`.  It owns the
attach-once guard, the DES process and the unseen-snapshot cursor; each
controller adds only its policy step and its own state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.config import ControllerConfig
from repro.core.detector import MisbehaviorDetector
from repro.core.monitor import StatsMonitor
from repro.core.planner import SplitRatioPlanner
from repro.core.predictor import PerformancePredictor
from repro.obs.tracer import (
    CONTROL_APPLY,
    CONTROL_DECISION,
    CONTROL_SAMPLE,
    CONTROL_SKIP,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Counter, LogHistogram
    from repro.obs.tracer import Tracer
    from repro.storm.runner import StormSimulation


@dataclass
class ControlAction:
    """One control-loop decision, recorded for analysis."""

    time: float
    predictions: Dict[int, float]
    flagged: Set[int]
    ratios: Dict[Tuple[str, str, str], np.ndarray] = field(default_factory=dict)
    #: workers that were dead (crashed, not restarted) at decision time —
    #: treated as flagged when planning, but recorded separately because
    #: the signal is a hard liveness fact, not a statistical inference
    crashed: Set[int] = field(default_factory=set)
    #: realized per-worker latency/backlog at decision time — the
    #: ground truth the *previous* action's predictions are audited
    #: against (see ``repro.obs.audit``)
    observed: Dict[int, float] = field(default_factory=dict)
    backlogs: Dict[int, int] = field(default_factory=dict)


class ControlLoop:
    """One periodic control process, attachable to one simulation.

    The loop every controller shares: the attach-once guard, the DES
    process (named :attr:`name`) that calls :meth:`_step` every
    ``interval`` simulated seconds, and the cursor over metrics
    snapshots not yet seen.  A subclass supplies its policy step, its
    own state, and an optional :meth:`_attach` hook that resolves
    per-simulation state before the process starts.
    """

    #: DES process name of the loop; each controller sets its own
    name: str

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.sim: Optional["StormSimulation"] = None
        self._seen_snapshots = 0

    @property
    def attached(self) -> bool:
        return self.sim is not None

    def _bind(self, sim: "StormSimulation") -> None:
        """Wire the loop to ``sim`` (called by ``sim.attach``)."""
        if self.sim is not None:
            raise RuntimeError(
                "this controller is already attached to a simulation; "
                "construct a fresh controller per run"
            )
        self._attach(sim)
        self.sim = sim
        sim.env.process(self._loop(), name=self.name)

    def _attach(self, sim: "StormSimulation") -> None:
        """Resolve per-simulation state; raising here leaves it detached."""

    def _loop(self):
        env = self.sim.env
        while True:
            yield env.timeout(self.interval)
            self._step()

    def _step(self) -> None:
        raise NotImplementedError

    def _new_snapshots(self) -> list:
        """Metrics snapshots taken since the previous call."""
        snapshots = self.sim.metrics.snapshots
        new = snapshots[self._seen_snapshots :]
        self._seen_snapshots = len(snapshots)
        return new

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} attached={self.attached}"
            f" interval={self.interval}>"
        )


class PredictiveController(ControlLoop):
    """The paper's framework, attachable to one simulation.

    Controls every dynamic-grouping edge of the topology.

    Parameters
    ----------
    predictor:
        A fitted :class:`PerformancePredictor`; pass
        ``PerformancePredictor(None)`` for the reactive ablation, or a
        :class:`~repro.core.retraining.RetrainingPredictor` to refit
        online inside the run.
    config:
        Loop configuration.
    """

    name = "predictive-controller"

    def __init__(
        self,
        predictor: PerformancePredictor,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        if not isinstance(predictor, PerformancePredictor):
            raise TypeError(
                f"expected a PerformancePredictor, got {predictor!r}"
            )
        self.predictor = predictor
        self.config = config or ControllerConfig()
        self.config.validate()
        super().__init__(self.config.control_interval)
        self.detector = MisbehaviorDetector(self.config)
        self.planner = SplitRatioPlanner(self.config)
        self.actions: List[ControlAction] = []
        # attach-time state
        self.monitor: Optional[StatsMonitor] = None
        self.edges: List[Tuple[str, str, str]] = []
        self._task_worker: Dict[int, int] = {}
        self._membership_epoch = -1
        self._tracer: Optional["Tracer"] = None
        # registry instruments (resolved at attach; None ⇒ metrics disabled)
        self._m_decisions: Optional["Counter"] = None
        self._m_skips: Optional["Counter"] = None
        self._m_applies: Optional["Counter"] = None
        self._m_reroutes: Optional["Counter"] = None
        self._step_wall: Optional["LogHistogram"] = None

    # -- attachment ---------------------------------------------------------------

    def _attach(self, sim: "StormSimulation") -> None:
        self.monitor = StatsMonitor(sim.cluster)
        self.edges = sorted(sim.cluster.ratio_controls)
        if not self.edges:
            raise ValueError(
                "topology has no dynamic-grouping edge for the controller "
                "to actuate"
            )
        self._refresh_task_worker(sim)
        self._tracer = sim.obs.tracer
        registry = sim.obs.metrics
        if registry is not None:
            self._m_decisions = registry.counter("controller.decisions")
            self._m_skips = registry.counter("controller.skips")
            self._m_applies = registry.counter("controller.applies")
            self._m_reroutes = registry.counter("controller.reroutes")
            # wall-clock decision latency: real host time, so excluded
            # from deterministic report output
            self._step_wall = registry.histogram(
                "controller.step_seconds", deterministic=False
            )

    def _bind(self, sim: "StormSimulation") -> None:
        super()._bind(sim)
        # Online retraining runs as its own DES process, registered right
        # after the control loop.  At a tick where both fire, the refit's
        # timeout was scheduled at the previous refit and the loop's at
        # the previous step; with retrain_interval > control_interval the
        # refit's is older, so it runs first.  It trains on the snapshots
        # ingested up to the previous control step, and the step at that
        # tick predicts with the new model — the same order every run.
        from repro.core.retraining import RetrainingPredictor

        if isinstance(self.predictor, RetrainingPredictor):
            sim.env.process(self._retrain_loop(), name="predictor-retrain")

    def _retrain_loop(self):
        """Periodic refit process for a :class:`RetrainingPredictor`.

        Trains on whatever the monitor has ingested up to the last
        control step — metrics ingestion stays the control loop's job, so
        the data the refit sees is exactly what the controller acted on.
        """
        env = self.sim.env
        interval = self.predictor.retrain_interval
        while True:
            yield env.timeout(interval)
            self.predictor.maybe_retrain(self.monitor, env.now)

    def _refresh_task_worker(self, sim: "StormSimulation") -> None:
        """(Re)build the task→worker map when cluster membership moved.

        The map is a snapshot for planning speed; the cluster bumps its
        ``membership_epoch`` whenever the elastic scheduler adds/removes
        a worker or migrates executors, and the controller resyncs here
        instead of trusting a bind-time view forever.
        """
        epoch = sim.cluster.membership_epoch
        if epoch == self._membership_epoch:
            return
        self._task_worker = {
            task_id: ex.worker.worker_id
            for task_id, ex in sim.cluster.executors.items()
        }
        self._membership_epoch = epoch

    # -- the policy step ---------------------------------------------------------

    def _step(self) -> None:
        if self._step_wall is None:
            self._decide()
        else:
            t0 = time.perf_counter()
            self._decide()
            self._step_wall.add(time.perf_counter() - t0)

    def _decide(self) -> None:
        sim = self.sim
        now = sim.env.now
        tr = self._tracer
        # Crash signals bypass the statistical pipeline entirely: a dead
        # worker is a liveness fact (the supervisor knows), not something
        # to infer from latency history — so it can act even during
        # warmup, when the monitor window is still filling.
        self._refresh_task_worker(sim)
        crashed = set(sim.cluster.crashed_workers())
        new = self._new_snapshots()
        self.monitor.observe_all(new)
        if tr is not None:
            tr.record(
                now, CONTROL_SAMPLE, new_snapshots=len(new),
                n_intervals=self.monitor.n_intervals,
            )
        if self.monitor.n_intervals < self.config.window:
            if crashed:
                self._plan_and_apply(now, {}, set(), crashed)
            else:
                if self._m_skips is not None:
                    self._m_skips.inc()
                if tr is not None:
                    tr.record(now, CONTROL_SKIP, reason="warmup",
                              n_intervals=self.monitor.n_intervals)
            return
        if not self.predictor.fitted:
            if crashed:
                self._plan_and_apply(now, {}, set(), crashed)
            else:
                if self._m_skips is not None:
                    self._m_skips.inc()
                if tr is not None:
                    tr.record(now, CONTROL_SKIP, reason="predictor-not-fitted")
            return
        predictions = self.predictor.predict_workers(self.monitor)
        backlogs = self.monitor.latest_backlogs()
        observed = self.monitor.latest_latencies()
        flagged = self.detector.update(
            predictions, observed, backlogs, now=now
        )
        self._plan_and_apply(
            now, predictions, flagged, crashed,
            observed=observed, backlogs=backlogs,
        )

    def _plan_and_apply(
        self,
        now: float,
        predictions: Dict[int, float],
        flagged: Set[int],
        crashed: Set[int],
        observed: Optional[Dict[int, float]] = None,
        backlogs: Optional[Dict[int, int]] = None,
    ) -> None:
        """Plan ratios for every controlled edge and actuate the cluster.

        ``flagged | crashed`` is the avoid set handed to the planner;
        crashed workers need no detector evidence.
        """
        sim = self.sim
        tr = self._tracer
        if self._m_decisions is not None:
            self._m_decisions.inc()
        avoid = set(flagged) | crashed
        action = ControlAction(
            time=now,
            predictions=dict(predictions),
            flagged=set(flagged),
            # defensive copy: ``crashed`` is recomputed per step today,
            # but a recorded action must never alias caller state that
            # could mutate after the fact
            crashed=set(crashed),
            observed=dict(observed or {}),
            backlogs=dict(backlogs or {}),
        )
        if tr is not None:
            tr.record(
                now, CONTROL_DECISION,
                predictions={int(w): float(p) for w, p in predictions.items()},
                observed={
                    int(w): float(v) for w, v in (observed or {}).items()
                },
                backlogs={
                    int(w): int(b) for w, b in (backlogs or {}).items()
                },
                flagged=sorted(flagged),
                crashed=sorted(crashed),
                health_ratios={
                    int(w): float(r) for w, r in self.detector.ratios.items()
                },
            )
        topology = sim.topology
        for edge in self.edges:
            source, consumer, stream = edge
            tasks = topology.task_ids[consumer]
            control = sim.cluster.ratio_controls[edge]
            prev = np.array(control.ratios, dtype=float)
            ratios = self.planner.plan(
                tasks=tasks,
                task_worker=self._task_worker,
                health_ratios=self.detector.ratios,
                flagged=avoid,
                prev_ratios=control.ratios,
                crashed=crashed,
            )
            sim.cluster.set_split_ratios(source, consumer, ratios, stream)
            action.ratios[edge] = ratios
            if self._m_applies is not None:
                self._m_applies.inc()
                if not np.array_equal(np.asarray(ratios, dtype=float), prev):
                    self._m_reroutes.inc()
            if tr is not None:
                tr.record(
                    now, CONTROL_APPLY, edge=edge,
                    ratios=[float(r) for r in ratios],
                    prev_ratios=[float(r) for r in prev],
                )
        self.actions.append(action)

    # -- analysis helpers ---------------------------------------------------------------

    def flag_intervals(self) -> List[Tuple[float, int, str]]:
        """The detector's flag/clear decisions as (time, worker, event)."""
        return list(self.detector.log)

    def prediction_trace(self, worker_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """(times, predicted latency) for one worker across all actions."""
        t, p = [], []
        for a in self.actions:
            if worker_id in a.predictions:
                t.append(a.time)
                p.append(a.predictions[worker_id])
        return np.array(t), np.array(p)
