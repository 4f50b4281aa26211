"""Fluent assembly of a :class:`~repro.storm.runner.StormSimulation`.

The builder is the single front door to the run API: cluster shape,
seed, fault schedule, controller attachment, and observability all hang
off one chain instead of a growing constructor signature plus
side-effectful "construct the controller with a sim reference" wiring::

    sim = (SimulationBuilder(topology)
           .nodes(NodeSpec("alpha", cores=4, slots=2),
                  NodeSpec("beta", cores=4, slots=2))
           .seed(7)
           .faults(SlowdownFault(start=60, duration=90, worker_id=1,
                                 factor=20))
           .controller(PredictiveController(
               PerformancePredictor(None, window=4),
               ControllerConfig(control_interval=5.0, window=4)))
           .observability(trace=True, profile=True)
           .build())
    result = sim.run(duration=210)
    print(result.summary())
    print(sim.obs.profiler.report())

Every method returns the builder; ``build()`` materialises the
simulation exactly once, and ``run(duration)`` is sugar for
``build().run(duration)`` when the simulation object itself is not
needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.obs import ObservabilityConfig
from repro.storm.cluster import NodeSpec
from repro.storm.faults import Fault
from repro.storm.runner import (
    DEFAULT_NODES,
    SimulationResult,
    StormSimulation,
)
from repro.storm.topology import Topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import ControlLoop
    from repro.obs.slo import SLOPolicy, SLORule
    from repro.storm.chaos import ChaosSpec


class SimulationBuilder:
    """Collects run options, then builds a :class:`StormSimulation`."""

    def __init__(self, topology: Topology) -> None:
        self._topology = topology
        self._nodes: Sequence[NodeSpec] = DEFAULT_NODES
        self._seed = 0
        self._metrics_interval = 1.0
        self._faults: List[Fault] = []
        self._controllers: List["ControlLoop"] = []
        self._observability: Optional[ObservabilityConfig] = None
        self._chaos: Optional[Tuple["ChaosSpec", Optional[int], float]] = None
        self._slo: Optional["SLOPolicy"] = None
        self._built: Optional[StormSimulation] = None

    # -- cluster & run options ----------------------------------------------------

    def nodes(
        self, *specs: Union[NodeSpec, Sequence[NodeSpec]]
    ) -> "SimulationBuilder":
        """Set the cluster shape: varargs or one sequence of NodeSpecs."""
        if len(specs) == 1 and not isinstance(specs[0], NodeSpec):
            flat: Sequence[NodeSpec] = tuple(specs[0])
        else:
            flat = tuple(specs)  # type: ignore[arg-type]
        if not flat:
            raise ValueError("nodes() needs at least one NodeSpec")
        for s in flat:
            if not isinstance(s, NodeSpec):
                raise TypeError(f"expected NodeSpec, got {s!r}")
        self._nodes = flat
        return self

    def seed(self, seed: int) -> "SimulationBuilder":
        """Root seed for all simulation randomness."""
        self._seed = int(seed)
        return self

    def metrics_interval(self, interval: float) -> "SimulationBuilder":
        """Sampling period of the multilevel statistics collector."""
        if interval <= 0:
            raise ValueError("metrics interval must be positive")
        self._metrics_interval = float(interval)
        return self

    def faults(
        self, *faults: Union[Fault, Sequence[Fault]]
    ) -> "SimulationBuilder":
        """Append faults to the injection schedule (varargs or sequence)."""
        for f in faults:
            if isinstance(f, Fault):
                self._faults.append(f)
            else:
                self._faults.extend(f)
        return self

    def chaos(
        self,
        spec: "ChaosSpec",
        *,
        seed: Optional[int] = None,
        horizon: float = 180.0,
    ) -> "SimulationBuilder":
        """Sample a chaos fault schedule from ``spec`` and inject it.

        Sampling happens at ``build()`` time (it needs the topology's
        worker count) from a generator seeded with ``seed`` — defaulting
        to the builder's simulation seed — so the run stays replayable
        from ``(seed, spec, horizon)`` alone.  ``horizon`` bounds the
        sampled fault windows; run at least that long to see every fault
        revert.  Composes with explicit :meth:`faults`.
        """
        spec.validate()
        if horizon <= 0:
            raise ValueError("chaos horizon must be positive")
        self._chaos = (spec, None if seed is None else int(seed), float(horizon))
        return self

    # -- controller --------------------------------------------------------------

    def controller(self, ctrl: "ControlLoop") -> "SimulationBuilder":
        """Attach a detached controller to the built simulation.

        ``ctrl`` is any :class:`~repro.core.controller.ControlLoop`: a
        :class:`~repro.core.controller.PredictiveController` (whose
        :class:`~repro.core.retraining.RetrainingPredictor`, if it has
        one, also gets its periodic in-sim refit process), an
        :class:`~repro.core.elasticity.AutoscaleController` or a
        :class:`~repro.core.elasticity.SpoutRateController`.  Call it
        once per controller; each binds at ``build()`` time.
        """
        from repro.core.controller import ControlLoop

        if not isinstance(ctrl, ControlLoop):
            raise TypeError(
                f"expected a controller (a ControlLoop), got {ctrl!r}; "
                "wrap a predictor as PredictiveController(predictor, config)"
            )
        self._controllers.append(ctrl)
        return self

    # -- observability ------------------------------------------------------------

    def observability(
        self,
        config: Optional[ObservabilityConfig] = None,
        *,
        trace: bool = False,
        profile: bool = False,
        trace_capacity: int = 1 << 16,
        metrics: bool = False,
    ) -> "SimulationBuilder":
        """Enable tracing/profiling/metrics (see :mod:`repro.obs`).

        Either pass a prepared :class:`ObservabilityConfig` (flags are
        then ignored) or use the keyword flags directly.
        """
        if config is not None:
            self._observability = config
        else:
            self._observability = ObservabilityConfig(
                trace=trace, profile=profile, trace_capacity=trace_capacity,
                metrics=metrics,
            )
        return self

    def slo(
        self,
        *rules: Union["SLORule", "SLOPolicy"],
        eval_interval: float = 5.0,
        window_intervals: int = 6,
        breach_after: int = 1,
        clear_after: int = 2,
    ) -> "SimulationBuilder":
        """Evaluate service-level objectives online during the run.

        Pass either one prepared :class:`~repro.obs.SLOPolicy` (loop
        options are then ignored) or the rules directly and the builder
        assembles the policy.  Enabling SLOs implies metrics — the
        engine's windowed latency rules read the registry's
        complete-latency histogram.
        """
        from repro.obs.slo import SLOPolicy, SLORule

        if len(rules) == 1 and isinstance(rules[0], SLOPolicy):
            policy = rules[0]
        else:
            for r in rules:
                if not isinstance(r, SLORule):
                    raise TypeError(f"expected an SLORule, got {r!r}")
            policy = SLOPolicy(
                rules=tuple(rules),
                eval_interval=eval_interval,
                window_intervals=window_intervals,
                breach_after=breach_after,
                clear_after=clear_after,
            )
        policy.validate()
        self._slo = policy
        return self

    # -- materialisation -----------------------------------------------------------

    def build(self) -> StormSimulation:
        """Materialise the simulation (idempotent: one sim per builder)."""
        if self._built is not None:
            return self._built
        faults = list(self._faults)
        if self._chaos is not None:
            import numpy as np

            from repro.storm.chaos import _SCHEDULE_STREAM, sample_schedule

            spec, chaos_seed, horizon = self._chaos
            if chaos_seed is None:
                chaos_seed = self._seed
            rng = np.random.default_rng(
                np.random.SeedSequence([chaos_seed, _SCHEDULE_STREAM])
            )
            faults.extend(
                sample_schedule(
                    spec,
                    horizon,
                    self._topology.config.num_workers,
                    rng,
                )
            )
        observability = self._observability
        if self._slo is not None:
            import dataclasses

            cfg = observability or ObservabilityConfig()
            observability = dataclasses.replace(cfg, slo=self._slo)
        sim = StormSimulation(
            self._topology,
            nodes=self._nodes,
            seed=self._seed,
            metrics_interval=self._metrics_interval,
            faults=tuple(faults),
            observability=observability,
        )
        for ctrl in self._controllers:
            sim.attach(ctrl)
        self._built = sim
        return sim

    def run(self, duration: float) -> SimulationResult:
        """``build()`` then run one segment of ``duration`` seconds."""
        return self.build().run(duration)

    def __repr__(self) -> str:
        return (
            f"<SimulationBuilder topology={self._topology.name!r}"
            f" nodes={len(self._nodes)} faults={len(self._faults)}"
            f" controllers={len(self._controllers)}"
            f" built={self._built is not None}>"
        )
