"""Control-loop integration on the Continuous Queries application.

The controller must work identically on the paper's second app (its
actuated edge is filter -> query instead of parse -> count).
"""

import numpy as np

from repro.apps import RateProfile, build_continuous_query_topology
from repro.core import ControllerConfig, PerformancePredictor, PredictiveController
from repro.storm import SlowdownFault, StormSimulation


def test_cq_controller_detects_and_sheds():
    topo = build_continuous_query_topology(profile=RateProfile(base=150))
    fault = SlowdownFault(start=40, duration=80, worker_id=2, factor=15)
    sim = StormSimulation(topo, seed=9, faults=[fault])
    ctrl = PredictiveController(
        PerformancePredictor(None, window=4),
        ControllerConfig(control_interval=5.0, window=4),
    )
    sim.attach(ctrl)
    res = sim.run(duration=120)
    flagged = {w for _t, w, kind in ctrl.flag_intervals() if kind == "flag"}
    assert flagged == {2}
    # The actuated edge is the CQ one.
    assert list(ctrl.actions[-1].ratios) == [("filter", "query", "default")]
    # Query tasks on the misbehaving worker are starved.
    last = ctrl.actions[-1].ratios[("filter", "query", "default")]
    q_tasks = sim.topology.task_ids["query"]
    for i, t in enumerate(q_tasks):
        if sim.cluster.worker_of_task(t).worker_id == 2:
            assert last[i] < 1.0 / len(q_tasks)
    # And the query answers keep flowing despite the fault.
    results = next(
        ex for ex in sim.cluster.executors.values() if ex.component_id == "results"
    ).bolt
    assert results.current  # non-empty: partials kept arriving
