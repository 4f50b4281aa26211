"""Unit tests for controller config, detector, and planner."""

import numpy as np
import pytest

from repro.core import ControllerConfig, MisbehaviorDetector, SplitRatioPlanner


def cfg(**kw):
    return ControllerConfig(**kw)


# --- config -----------------------------------------------------------------


def test_config_defaults_valid():
    cfg().validate()


@pytest.mark.parametrize(
    "kw",
    [
        {"control_interval": 0},
        {"window": 0},
        {"threshold_factor": 1.0},
        {"smoothing": 0.0},
        {"smoothing": 1.5},
        {"min_ratio": 0.5},
        {"hysteresis_up": 0},
        {"hysteresis_down": 0},
        {"misbehaving_penalty": 0.0},
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        cfg(**kw).validate()


# --- detector ----------------------------------------------------------------

HEALTHY = {0: 0.01, 1: 0.012, 2: 0.011, 3: 0.0095}


def warmed_detector(**kw):
    det = MisbehaviorDetector(cfg(**kw))
    for _ in range(5):
        det.update(dict(HEALTHY), dict(HEALTHY), {w: 0 for w in HEALTHY})
    return det


def test_no_flags_when_healthy():
    det = warmed_detector()
    assert det.flagged == set()
    assert all(abs(r - 1.0) < 0.2 for r in det.ratios.values())


def test_flags_single_slow_worker():
    det = warmed_detector(hysteresis_up=1)
    pred = dict(HEALTHY)
    pred[2] = 0.12  # 10x its baseline
    flagged = det.update(pred, dict(HEALTHY), {w: 0 for w in HEALTHY}, now=7.0)
    assert flagged == {2}
    assert det.log[-1] == (7.0, 2, "flag")


def test_hysteresis_up_delays_flagging():
    det = warmed_detector(hysteresis_up=3)
    pred = dict(HEALTHY)
    pred[1] = 0.2
    assert det.update(pred, dict(HEALTHY), {}) == set()
    assert det.update(pred, dict(HEALTHY), {}) == set()
    assert det.update(pred, dict(HEALTHY), {}) == {1}


def test_hysteresis_down_delays_clearing():
    det = warmed_detector(hysteresis_up=1, hysteresis_down=2)
    bad = dict(HEALTHY)
    bad[0] = 0.3
    det.update(bad, dict(HEALTHY), {})
    assert det.flagged == {0}
    det.update(dict(HEALTHY), dict(HEALTHY), {})
    assert det.flagged == {0}  # one clean interval is not enough
    det.update(dict(HEALTHY), dict(HEALTHY), {})
    assert det.flagged == set()


def test_global_slowdown_flags_nobody():
    # Offered load doubles -> everyone slows together: median-relative
    # normalisation must keep all workers unflagged.
    det = warmed_detector(hysteresis_up=1)
    surged = {w: v * 4 for w, v in HEALTHY.items()}
    for _ in range(4):
        flagged = det.update(surged, surged, {w: 0 for w in HEALTHY})
    assert flagged == set()


def test_heterogeneous_workers_not_flagged():
    # Worker 9 is structurally 10x slower (heavier bolts) but steady:
    # self-baselining must treat it as nominal.
    det = MisbehaviorDetector(cfg(hysteresis_up=1))
    lat = {0: 0.01, 1: 0.011, 9: 0.1}
    for _ in range(6):
        flagged = det.update(dict(lat), dict(lat), {w: 0 for w in lat})
    assert flagged == set()


def test_backlog_guard_catches_paused_worker():
    # A paused worker's latency stats go silent, but its backlog explodes.
    det = warmed_detector(hysteresis_up=1)
    backlogs = {0: 0, 1: 0, 2: 0, 3: 900}
    flagged = det.update(dict(HEALTHY), dict(HEALTHY), backlogs)
    assert 3 in flagged


def test_backlog_floor_suppresses_noise():
    det = warmed_detector(hysteresis_up=1)
    flagged = det.update(dict(HEALTHY), dict(HEALTHY), {0: 0, 1: 0, 2: 0, 3: 30})
    assert flagged == set()  # 30 < backlog_floor


def test_baseline_frozen_while_flagged():
    det = warmed_detector(hysteresis_up=1)
    base_before = det.baseline_of(2)
    bad = dict(HEALTHY)
    bad[2] = 0.5
    for _ in range(10):
        det.update(bad, bad, {})
    assert 2 in det.flagged
    # Despite 10 intervals of 0.5s observations, the baseline must not
    # have absorbed the fault.
    assert det.baseline_of(2) == pytest.approx(base_before, rel=1e-6)


def test_suspect_does_not_refresh_its_own_baseline():
    # At hysteresis_up=2 the first suspect interval does not flag yet, so
    # only the "not currently suspect" clause keeps the fault's own
    # observation out of the worker's healthy reference.
    det = warmed_detector(hysteresis_up=2)
    base_before = det.baseline_of(2)
    bad = dict(HEALTHY)
    bad[2] = 0.5
    assert det.update(bad, bad, {}) == set()
    assert det.baseline_of(2) == base_before
    # healthy peers still refresh theirs in the same interval
    assert det.baseline_of(0) == pytest.approx(HEALTHY[0])


def test_schmitt_trigger_prevents_flapping():
    det = warmed_detector(hysteresis_up=1, hysteresis_down=1)
    bad = dict(HEALTHY)
    bad[2] = 0.2
    det.update(bad, dict(HEALTHY), {})
    assert 2 in det.flagged
    # Ratio drops to ~1.6x the entry threshold's half: still suspect for a
    # flagged worker, so no clear.
    medium = dict(HEALTHY)
    medium[2] = HEALTHY[2] * 1.8
    det.update(medium, dict(HEALTHY), {})
    assert 2 in det.flagged
    # Fully recovered: clears.
    det.update(dict(HEALTHY), dict(HEALTHY), {})
    assert 2 not in det.flagged


def test_reset_clears_state():
    det = warmed_detector(hysteresis_up=1)
    bad = dict(HEALTHY)
    bad[0] = 1.0
    det.update(bad, dict(HEALTHY), {})
    det.reset()
    assert det.flagged == set()
    assert det.baseline_of(0) == 0.0


# --- planner ---------------------------------------------------------------------


TASKS = [10, 11, 12, 13]
TASK_WORKER = {10: 0, 11: 1, 12: 2, 13: 3}


def planner(**kw):
    return SplitRatioPlanner(cfg(**kw))


def test_uniform_health_uniform_ratios():
    p = planner(smoothing=1.0)
    ratios = p.plan(TASKS, TASK_WORKER, {w: 1.0 for w in range(4)}, set())
    assert np.allclose(ratios, 0.25)


def test_slow_worker_gets_less():
    p = planner(smoothing=1.0)
    health = {0: 1.0, 1: 1.0, 2: 4.0, 3: 1.0}
    ratios = p.plan(TASKS, TASK_WORKER, health, set())
    assert ratios[2] < 0.1
    assert ratios[2] == pytest.approx(ratios[0] / 4, rel=0.05)
    assert np.isclose(ratios.sum(), 1.0)


def test_flagged_worker_penalised_beyond_score():
    p = planner(smoothing=1.0, min_ratio=0.02, misbehaving_penalty=0.05)
    health = {0: 1.0, 1: 1.0, 2: 2.0, 3: 1.0}
    free = p.plan(TASKS, TASK_WORKER, health, set())
    flagged = p.plan(TASKS, TASK_WORKER, health, {2})
    assert flagged[2] < free[2]


def test_min_ratio_floor_keeps_probe_traffic():
    p = planner(smoothing=1.0, min_ratio=0.05)
    health = {0: 1.0, 1: 1.0, 2: 100.0, 3: 1.0}
    ratios = p.plan(TASKS, TASK_WORKER, health, {2})
    assert ratios[2] >= 0.04  # floor (≈ min_ratio after renormalisation)


def test_smoothing_damps_changes():
    p = planner(smoothing=0.5)
    prev = np.array([0.25, 0.25, 0.25, 0.25])
    health = {0: 1.0, 1: 1.0, 2: 10.0, 3: 1.0}
    step1 = p.plan(TASKS, TASK_WORKER, health, set(), prev_ratios=prev)
    jump = planner(smoothing=1.0).plan(TASKS, TASK_WORKER, health, set())
    # Damped step lies strictly between previous and target.
    assert jump[2] < step1[2] < prev[2]


def test_unknown_workers_treated_nominal():
    p = planner(smoothing=1.0)
    ratios = p.plan(TASKS, TASK_WORKER, {}, set())
    assert np.allclose(ratios, 0.25)


def test_prev_ratio_shape_validated():
    p = planner()
    with pytest.raises(ValueError):
        p.plan(TASKS, TASK_WORKER, {}, set(), prev_ratios=np.array([0.5, 0.5]))


def test_empty_tasks_rejected():
    with pytest.raises(ValueError):
        planner().plan([], {}, {}, set())


def test_ratios_always_normalised_and_nonnegative():
    rng = np.random.default_rng(0)
    p = planner(smoothing=0.7)
    prev = None
    for _ in range(50):
        health = {w: float(rng.uniform(0.2, 20)) for w in range(4)}
        flagged = set(rng.choice(4, size=rng.integers(0, 3), replace=False))
        ratios = p.plan(TASKS, TASK_WORKER, health, flagged, prev_ratios=prev)
        assert np.isclose(ratios.sum(), 1.0)
        assert np.all(ratios >= 0)
        prev = ratios
