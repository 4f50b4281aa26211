"""The ledger's workloads as data: app x rate x fault profile x control arm.

Each row is one closed-loop workload: an iteration is one deterministic
run of the program, the next starts when the previous has finished.
``arguments(seed)`` generates what the program is called with — the
drivers in ``program.py`` never see a workload's name.

Simulated scale (rate, duration, runs) is fixed: it is what makes
``wall_ms_per_sim_s`` comparable across commits.  ``iterations`` is only
a cap; a time-boxed run (``--seconds``) may stop after fewer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

#: the pinned campaign of tests/golden/chaos_smoke.json
GOLDEN_SEED = 7
GOLDEN_CAMPAIGN = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tests", "golden", "chaos_smoke.json",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: function of ``program.py`` that runs one iteration
    driver: str
    app: str
    #: offered load, tuples per simulated second
    rate: float
    #: simulated seconds of one simulation run
    duration: float
    #: fault profile, in the driver's own argument names
    fault: Mapping[str, Any]
    control: Optional[str]
    #: tracing + metrics registry + run report on
    observed: bool
    #: iterations of a full run (a cap under ``--seconds``)
    iterations: int
    why: str

    @property
    def sim_seconds(self) -> float:
        """Simulated seconds covered by one iteration."""
        return self.duration * self.fault.get("runs", 1)

    def arguments(self, seed: int) -> Dict[str, Any]:
        """The program's arguments for one iteration at ``seed``."""
        args: Dict[str, Any] = dict(
            app=self.app, base_rate=self.rate, seed=seed, **self.fault
        )
        if self.driver == "campaign":
            args.update(horizon=self.duration, control=self.control)
            args["golden"] = GOLDEN_CAMPAIGN if seed == GOLDEN_SEED else None
        elif self.driver == "scenario":
            args.update(
                duration=self.duration, control=self.control,
                observed=self.observed,
            )
        else:
            args.update(duration=self.duration)
        return args


_SLOW_WORKER = dict(
    k_misbehaving=1, fault_start=80.0, fault_duration=140.0, slowdown_factor=25.0
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="url_count_slow_worker", driver="scenario", app="url_count",
        rate=250.0, duration=240.0, fault=_SLOW_WORKER, control="drnn",
        observed=False, iterations=3,
        why="paper E5/E6 headline: URL Count, one worker slowed 25x, DRNN "
            "arm; single-emission hops, so des + storm.executor dominate",
    ),
    Workload(
        name="cq_slow_worker", driver="scenario", app="continuous_query",
        rate=250.0, duration=240.0, fault=_SLOW_WORKER, control="drnn",
        observed=False, iterations=3,
        why="same data plane with ~1.5x the per-tuple apps work (QueryBolt "
            "windows), so an apps or executor change separates here",
    ),
    Workload(
        name="chaos_crash_loss", driver="campaign", app="url_count",
        rate=120.0, duration=90.0, fault=dict(crashes=1, losses=1, runs=3),
        control=None, observed=False, iterations=5,
        why="pinned golden campaign: loss draws, timeouts, queue purge and "
            "replay through acker/transport/faults instead of clean acks",
    ),
    Workload(
        name="url_count_observed", driver="scenario", app="url_count",
        rate=250.0, duration=120.0,
        fault=dict(k_misbehaving=1, fault_start=40.0, fault_duration=60.0,
                   slowdown_factor=25.0),
        control="reactive", observed=True, iterations=3,
        why="the repro-report path: tracer + registry on, then run_report; "
            "the only workload where obs does most of the work",
    ),
    Workload(
        name="control_plane_replay", driver="replay", app="url_count",
        rate=200.0, duration=240.0, fault={}, control="online",
        observed=False, iterations=2,
        why="recorded snapshots through monitor/predictor/detector/planner "
            "plus refits and the model zoo: core + models only, no des/storm, "
            "so a data-plane gain must show no change here",
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: Bounds of the ledger's workload-specific and simulated-time metrics,
#: for compare.py.  BENCHMARK.json can bound only metrics that every
#: workload emits, non-zero and steady across seeds, so these are listed
#: under ``per_layer`` there and carry their bounds here:
#: ``("ratio", share of the base's median)`` or ``("abs", absolute)``.
LEDGER_BOUNDS: Dict[str, Tuple[str, float]] = {
    "sim_degradation_pct": ("abs", 1.0),
    "sim_p99_latency_ms": ("ratio", 0.02),
    "sim_failed_tuple_frac": ("abs", 0.001),
    "control_step_p50_ms": ("ratio", 0.15),
    "control_step_p95_ms": ("ratio", 0.15),
    "refit_s": ("ratio", 0.10),
    "zoo_eval_s": ("ratio", 0.10),
    "drnn_mape_pct": ("ratio", 0.02),
    "failed_ops_frac": ("abs", 0.0),
}

#: Simulated-time metrics repeat exactly for a seed and differ between
#: seeds, so compare.py judges them seed by seed, not by medians.
PER_SEED = frozenset({
    "sim_degradation_pct", "sim_p99_latency_ms", "sim_failed_tuple_frac",
    "drnn_mape_pct",
})
