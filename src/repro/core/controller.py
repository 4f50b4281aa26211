"""The closed control loop: sample → predict → detect → plan → act.

:class:`PredictiveController` is constructed *detached* — from a
predictor and loop configuration — and wired to a simulation explicitly::

    controller = PredictiveController(predictor, ControllerConfig(...))
    sim.attach(controller)          # or SimulationBuilder.controller(...)
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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

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


class PredictiveController:
    """The paper's framework, attachable to one simulation.

    Parameters
    ----------
    predictor:
        A fitted :class:`PerformancePredictor`; pass
        ``PerformancePredictor(None)`` for the reactive ablation.
    config:
        Loop configuration.
    edges:
        Dynamic edges ``(source, consumer, stream)`` to control; defaults
        to every dynamic edge in the topology (resolved at attach time).
    online_fit_after:
        If set, the controller (re)fits its predictor from the monitor's
        own history once that many intervals have been observed — the
        fully-online mode (no pre-training run needed).
    """

    def __init__(
        self,
        predictor: PerformancePredictor,
        config: Optional[ControllerConfig] = None,
        edges: Optional[Sequence[Tuple[str, str, str]]] = None,
        online_fit_after: Optional[int] = None,
    ) -> None:
        if not isinstance(predictor, PerformancePredictor):
            raise TypeError(
                f"expected a PerformancePredictor, got {predictor!r}"
            )
        self.predictor = predictor
        self.config = config or ControllerConfig()
        self.config.validate()
        self.detector = MisbehaviorDetector(self.config)
        self.planner = SplitRatioPlanner(self.config)
        self.online_fit_after = online_fit_after
        self._edges_requested = list(edges) if edges is not None else None
        self.actions: List[ControlAction] = []
        # attach-time state
        self.sim: Optional["StormSimulation"] = None
        self.monitor: Optional[StatsMonitor] = None
        self.edges: List[Tuple[str, str, str]] = []
        self._task_worker: Dict[int, int] = {}
        self._membership_epoch = -1
        self._seen_snapshots = 0
        self._tracer: Optional["Tracer"] = None
        # registry instruments (resolved at _bind; None ⇒ metrics disabled)
        self._m_decisions: Optional["Counter"] = None
        self._m_skips: Optional["Counter"] = None
        self._m_applies: Optional["Counter"] = None
        self._m_reroutes: Optional["Counter"] = None
        self._m_step_wall: Optional["LogHistogram"] = None
        self._proc = None

    # -- attachment ---------------------------------------------------------------

    @property
    def attached(self) -> bool:
        return self.sim is not None

    def _bind(self, sim: "StormSimulation") -> None:
        """Wire the controller to ``sim`` (called by ``sim.attach``)."""
        if self.sim is not None:
            raise RuntimeError(
                "this controller is already attached to a simulation; "
                "construct a fresh controller per run"
            )
        self.monitor = StatsMonitor(sim.cluster)
        if self._edges_requested is None:
            edges = sorted(sim.cluster.ratio_controls)
        else:
            edges = list(self._edges_requested)
            for e in edges:
                if e not in sim.cluster.ratio_controls:
                    raise KeyError(f"{e} is not a dynamic edge of this topology")
        if not edges:
            raise ValueError(
                "topology has no dynamic-grouping edge for the controller "
                "to actuate"
            )
        self.edges = edges
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
            self._m_step_wall = registry.histogram(
                "controller.step_seconds", deterministic=False
            )
        self.sim = sim
        self._proc = sim.env.process(self._loop(), name="predictive-controller")
        # Online retraining runs as its own DES process, registered
        # *after* the control loop: at ticks where both fire, the
        # controller predicts with the previous model, then the refit
        # runs — fixed order, so campaigns stay byte-deterministic.
        from repro.core.retraining import RetrainingPredictor

        if isinstance(self.predictor, RetrainingPredictor):
            self._retrain_proc = sim.env.process(
                self._retrain_loop(), name="predictor-retrain"
            )

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

    def _require_attached(self) -> "StormSimulation":
        if self.sim is None:
            raise RuntimeError(
                "controller is not attached; call sim.attach(controller) "
                "before run()"
            )
        return self.sim

    # -- the loop -----------------------------------------------------------------

    def _loop(self):
        env = self._require_attached().env
        while True:
            yield env.timeout(self.config.control_interval)
            if self._m_step_wall is not None:
                t0 = time.perf_counter()
                self._step()
                self._m_step_wall.add(time.perf_counter() - t0)
            else:
                self._step()

    def _retrain_loop(self):
        """Periodic refit process for a :class:`RetrainingPredictor`.

        Trains on whatever the monitor has ingested up to the last
        control step — metrics ingestion stays the control loop's job, so
        the data the refit sees is exactly what the controller acted on.
        """
        env = self._require_attached().env
        assert self.monitor is not None
        interval = self.predictor.retrain_interval
        while True:
            yield env.timeout(interval)
            self.predictor.maybe_retrain(self.monitor, env.now)

    def _step(self) -> None:
        sim = self._require_attached()
        assert self.monitor is not None
        now = sim.env.now
        tr = self._tracer
        # Crash signals bypass the statistical pipeline entirely: a dead
        # worker is a liveness fact (the supervisor knows), not something
        # to infer from latency history — so it can act even during
        # warmup, when the monitor window is still filling.
        self._refresh_task_worker(sim)
        crashed = set(sim.cluster.crashed_workers())
        snapshots = sim.metrics.snapshots
        new = snapshots[self._seen_snapshots :]
        self._seen_snapshots = len(snapshots)
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
        if (
            self.online_fit_after is not None
            and not self.predictor.fitted
            and self.monitor.n_intervals >= self.online_fit_after
        ):
            self.predictor.fit_from_monitor(self.monitor)
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
        sim = self._require_attached()
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

    def __repr__(self) -> str:
        return (
            f"<PredictiveController attached={self.attached}"
            f" edges={len(self.edges)}"
            f" actions={len(self.actions)}"
            f" flagged={sorted(self.detector.flagged)}>"
        )
