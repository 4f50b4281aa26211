"""Tests for the experiment harness (small scales; the full-scale runs
live in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments import (
    collect_trace,
    evaluate_models_on_trace,
    format_table,
    run_reliability_scenario,
)
from repro.experiments.prediction import _split_index, _windowed_split
from repro.experiments.reliability import default_faults
from repro.experiments.traces import build_app_topology, default_profile
from repro.apps import RateProfile


@pytest.fixture(scope="module")
def small_trace():
    return collect_trace(app="url_count", duration=120, base_rate=150, seed=1)


# --- tables -------------------------------------------------------------------


def test_format_table_alignment():
    out = format_table(["a", "bbb"], [[1, 2.5], ["xx", 0.001234]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert len(lines) == 5


def test_format_table_ragged_rejected():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


# --- traces ---------------------------------------------------------------------


def test_collect_trace_bundles_both_monitors(small_trace):
    b = small_trace
    assert b.monitor.include_interference
    assert not b.monitor_no_interference.include_interference
    assert b.monitor.n_intervals == b.monitor_no_interference.n_intervals
    assert b.monitor.n_intervals == len(b.result.snapshots)
    assert b.result.acked > 1000


def test_default_profile_has_dynamics():
    p = default_profile(base=100, horizon=600)
    rates = [p.rate(t) for t in np.linspace(0, 600, 200)]
    assert max(rates) > 150  # step/burst visible
    assert min(rates) < 90  # diurnal trough visible


def test_build_app_topology_validates():
    with pytest.raises(ValueError, match="unknown app"):
        build_app_topology("bogus", RateProfile(base=10))


def test_trace_target_has_variance(small_trace):
    # The trace recipe must produce a non-degenerate prediction target.
    for wid in small_trace.monitor.worker_ids:
        t = small_trace.monitor.target_series(wid)
        assert t.std() > 0


# --- prediction protocol ---------------------------------------------------------


def test_split_index_validation():
    with pytest.raises(ValueError):
        _split_index(4, 0.1)


def test_windowed_split_alignment(small_trace):
    X_tr, y_tr, X_te, y_te = _windowed_split(
        small_trace.monitor, window=4, train_fraction=0.7, horizon=3
    )
    n_workers = len(small_trace.monitor.worker_ids)
    T = small_trace.monitor.n_intervals
    cut = int(T * 0.7)
    assert y_te.shape[0] == n_workers * (T - cut)
    assert X_tr.shape[1:] == (4, len(small_trace.monitor.feature_names))
    # Train targets never reach into the test region.
    assert X_tr.shape[0] == n_workers * (cut - 4 - 3 + 1)


def test_evaluate_models_small(small_trace):
    res = evaluate_models_on_trace(
        small_trace.monitor,
        app="url_count",
        window=4,
        horizon=2,
        drnn_hidden=(8,),
        drnn_epochs=5,
        seed=0,
    )
    assert set(res.scores) == {"drnn", "arima", "svr"}
    for s in res.scores.values():
        assert np.isfinite(s["mape"]) and s["mape"] >= 0
        assert s["rmse"] >= 0 and s["mae"] >= 0
    # Traces align: every model predicted the same pooled test vector.
    lengths = {len(t[1]) for t in res.traces.values()}
    assert len(lengths) == 1
    rows = res.table_rows()
    assert len(rows) == 3


def test_evaluate_unknown_model_rejected(small_trace):
    with pytest.raises(ValueError, match="unknown model"):
        evaluate_models_on_trace(
            small_trace.monitor, models=["bogus"], window=4, horizon=2
        )


# --- reliability harness -----------------------------------------------------------


def test_default_faults_staggered():
    faults = default_faults(2, start=100, duration=100)
    assert faults[0].start == 100 and faults[1].start == 110
    assert faults[0].worker_id != faults[1].worker_id
    with pytest.raises(ValueError):
        default_faults(5, 0, 10)


def test_reliability_arm_validation():
    with pytest.raises(ValueError, match="unknown control"):
        run_reliability_scenario(control="bogus", duration=10)


def test_reliability_scenario_smoke_reactive():
    res = run_reliability_scenario(
        app="url_count",
        control="reactive",
        k_misbehaving=1,
        base_rate=150.0,
        duration=90.0,
        fault_start=30.0,
        fault_duration=50.0,
        seed=2,
    )
    assert res.label == "reactive"
    assert res.controller is not None
    assert res.result.acked > 1000
    assert np.isfinite(res.degradation_pct())


def test_reliability_slo_breach_both_arms_recover_only_controlled():
    """The paper's reliability claim through the SLO lens: the fault
    breaches the latency objective in BOTH arms, but only the DRNN arm
    reroutes around the slow worker and closes the episode; the baseline
    stays breached until the end of the run."""
    from repro.experiments.reliability import train_calibration_predictor
    from repro.obs import LatencySLO, ObservabilityConfig, SLOPolicy

    policy = SLOPolicy(
        rules=(LatencySLO(name="p99", quantile=0.99, bound=1.0),),
        eval_interval=5.0,
        window_intervals=6,
        breach_after=1,
        clear_after=2,
    )
    predictor = train_calibration_predictor(
        "url_count", 180.0, 3, window=4,
        calibration_duration=140.0, hidden=(12,), epochs=5,
    )
    episodes = {}
    for arm in (None, "drnn"):
        res = run_reliability_scenario(
            app="url_count",
            control=arm,
            k_misbehaving=1,
            base_rate=180.0,
            duration=240.0,
            fault_start=60.0,
            fault_duration=180.0,  # fault window reaches the end of the run
            slowdown_factor=25.0,
            seed=3,
            predictor=predictor if arm else None,
            control_interval=5.0,
            window=4,
            observability=ObservabilityConfig(metrics=True),
            slo=policy,
        )
        engine = res.sim.obs.slo
        assert engine is not None
        episodes[res.label] = engine.episodes("p99")
        summary = res.result.summary()
        assert summary["slo_breaches"] == len(engine.episodes())

    for label, eps in episodes.items():
        assert len(eps) == 1, f"{label}: expected one breach episode"
        assert eps[0].breach_time > 60.0  # after fault injection

    assert not episodes["baseline"][0].recovered
    assert episodes["drnn"][0].recovered
    baseline_breach = episodes["baseline"][0].breach_time
    drnn = episodes["drnn"][0]
    assert drnn.recover_time - drnn.breach_time < 240.0 - baseline_breach


def test_reliability_scenario_smoke_baseline():
    res = run_reliability_scenario(
        app="url_count",
        control=None,
        k_misbehaving=1,
        base_rate=150.0,
        duration=90.0,
        fault_start=30.0,
        fault_duration=50.0,
        seed=2,
    )
    assert res.label == "baseline"
    assert res.controller is None
    assert res.throughput_healthy() > 0


def test_degradation_sweep_is_independent_of_jobs():
    # One RunSpec path at every jobs value: inline and sharded sweeps
    # return the same slim, identical cells.
    from repro.experiments import degradation_sweep

    kw = dict(
        app="url_count", ks=(0, 1), arms=("reactive",), seed=2,
        base_rate=100.0, duration=30.0, fault_start=10.0,
        fault_duration=15.0,
    )
    serial = degradation_sweep(jobs=1, **kw)
    sharded = degradation_sweep(jobs=2, **kw)
    assert list(serial) == list(sharded) == [("reactive", 0), ("reactive", 1)]
    for cell, res in serial.items():
        other = sharded[cell]
        assert res.sim is None and res.controller is None
        assert other.sim is None and other.controller is None
        assert res.result.acked == other.result.acked > 0
        assert np.array_equal(
            res.result.complete_latencies, other.result.complete_latencies
        )
        assert res.result.summary() == other.result.summary()
