"""Integration tests of the full predictive control loop."""

import numpy as np
import pytest

from repro.apps import RateProfile, build_url_count_topology
from repro.core import ControllerConfig, PerformancePredictor, PredictiveController
from repro.storm import SlowdownFault, StormSimulation
from repro.storm.topology import TopologyConfig


def make_sim(faults=(), seed=3, rate=200):
    topo = build_url_count_topology(profile=RateProfile(base=rate))
    return StormSimulation(topo, seed=seed, faults=list(faults))


def reactive(sim, **cfg_kw):
    cfg = ControllerConfig(control_interval=5.0, window=4, **cfg_kw)
    ctrl = PredictiveController(PerformancePredictor(None, window=4), cfg)
    sim.attach(ctrl)
    return ctrl


def test_requires_dynamic_edge():
    topo = build_url_count_topology(grouping="shuffle")
    sim = StormSimulation(topo, seed=0)
    with pytest.raises(ValueError, match="dynamic"):
        reactive(sim)


def test_no_false_flags_on_healthy_run():
    sim = make_sim()
    ctrl = reactive(sim)
    sim.run(duration=90)
    assert ctrl.detector.flagged == set()
    assert ctrl.flag_intervals() == []


def test_healthy_ratios_stay_near_uniform():
    sim = make_sim()
    ctrl = reactive(sim)
    sim.run(duration=90)
    last = ctrl.actions[-1].ratios[("parse", "count", "default")]
    assert np.allclose(last, 1.0 / len(last), atol=0.08)


def test_detects_misbehaving_worker_and_sheds_load():
    fault = SlowdownFault(start=40, duration=80, worker_id=2, factor=15)
    sim = make_sim(faults=[fault])
    ctrl = reactive(sim)
    sim.run(duration=100)
    events = ctrl.flag_intervals()
    flags = [(t, w) for t, w, kind in events if kind == "flag"]
    assert any(w == 2 and t >= 40 for t, w in flags)
    # No healthy worker was ever flagged.
    assert {w for _t, w, _k in events} == {2}
    # Load on the faulty worker's count tasks is squeezed down.
    last = ctrl.actions[-1].ratios[("parse", "count", "default")]
    count_tasks = sim.topology.task_ids["count"]
    faulty_tasks = [
        i
        for i, t in enumerate(count_tasks)
        if sim.cluster.worker_of_task(t).worker_id == 2
    ]
    assert faulty_tasks  # placement puts at least one count task there
    for i in faulty_tasks:
        assert last[i] < 0.5 / len(count_tasks)


def test_recovery_restores_flags_and_ratios():
    fault = SlowdownFault(start=30, duration=40, worker_id=2, factor=15)
    sim = make_sim(faults=[fault])
    ctrl = reactive(sim)
    sim.run(duration=180)
    assert ctrl.detector.flagged == set()  # cleared after recovery
    kinds = [k for _t, _w, k in ctrl.flag_intervals()]
    assert "flag" in kinds and "clear" in kinds
    last = ctrl.actions[-1].ratios[("parse", "count", "default")]
    assert np.allclose(last, 1.0 / len(last), atol=0.1)


def test_actions_logged_each_interval():
    sim = make_sim()
    ctrl = reactive(sim)
    sim.run(duration=60)
    # First window intervals produce no action; afterwards one per tick.
    assert 8 <= len(ctrl.actions) <= 12
    for a in ctrl.actions:
        assert set(a.ratios) == {("parse", "count", "default")}


def test_prediction_trace_extraction():
    sim = make_sim()
    ctrl = reactive(sim)
    sim.run(duration=60)
    t, p = ctrl.prediction_trace(worker_id=0)
    assert t.shape == p.shape
    assert len(t) > 0
    assert np.all(np.diff(t) > 0)


def test_control_survives_paused_worker():
    # A paused worker produces no latency samples; the backlog guard must
    # still flag it and the loop must keep running.
    from repro.storm import PauseFault

    fault = PauseFault(start=40, duration=40, worker_id=1)
    sim = make_sim(faults=[fault])
    ctrl = reactive(sim)
    sim.run(duration=100)
    flagged_workers = {w for _t, w, k in ctrl.flag_intervals() if k == "flag"}
    assert 1 in flagged_workers
