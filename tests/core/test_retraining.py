"""Tests for online predictor retraining inside the simulation."""

import numpy as np
import pytest

from repro.apps import RateProfile, build_url_count_topology
from repro.core import (
    ControllerConfig,
    OnlineModelFactory,
    PredictiveController,
    RetrainingPredictor,
)
from repro.storm import SimulationBuilder


def _factory():
    return OnlineModelFactory(hidden=(6,), epochs=8, seed=0)


def _build_sim(seed=3, window=4, retrain_interval=20.0, max_history=None,
               factory=None):
    topo = build_url_count_topology(profile=RateProfile(base=150))
    predictor = RetrainingPredictor(
        factory or _factory(),
        window=window,
        retrain_interval=retrain_interval,
        max_history=max_history,
    )
    ctrl = PredictiveController(
        predictor, ControllerConfig(control_interval=5.0, window=window)
    )
    sim = SimulationBuilder(topo).seed(seed).controller(ctrl).build()
    return sim, predictor, ctrl


# --- construction -----------------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError, match="retrain_interval"):
        RetrainingPredictor(_factory(), retrain_interval=0.0)
    with pytest.raises(ValueError, match="max_history"):
        RetrainingPredictor(_factory(), window=8, max_history=8)


def test_starts_unfitted_despite_model_none():
    # model=None normally means the reactive (last-observation) ablation,
    # which reports fitted from birth; the retraining predictor overrides
    # that — it must not act before its first successful refit.
    pred = RetrainingPredictor(_factory(), window=4)
    assert pred.model is None
    assert not pred.fitted
    assert pred.min_intervals == 8  # defaults to 2 * window
    assert pred.n_retrains == 0


def test_factory_is_picklable_and_builds_fresh_models():
    import pickle

    factory = pickle.loads(pickle.dumps(_factory()))
    m1, m2 = factory(5), factory(5)
    assert m1 is not m2
    assert m1.hidden_sizes == (6,)
    for k in m1.params:  # same seed -> identical fresh weights
        np.testing.assert_array_equal(m1.params[k], m2.params[k])


# --- in-sim behaviour --------------------------------------------------------------


def test_periodic_refit_inside_simulation():
    sim, predictor, ctrl = _build_sim(max_history=24)
    sim.run(duration=90.0)
    # Refit attempts at t=20,40,60,80; the first may be skipped while the
    # monitor warms up, the later ones must have trained.
    assert len(predictor.retrain_log) == 4
    assert [e.time for e in predictor.retrain_log] == [20.0, 40.0, 60.0, 80.0]
    assert predictor.n_retrains >= 3
    assert predictor.fitted
    assert predictor.retrain_log[-1].trained
    # The rolling window caps training-set growth: with max_history=24
    # intervals per worker, row counts stop growing once history exceeds it.
    trained = [e for e in predictor.retrain_log if e.trained]
    rows = [e.n_rows for e in trained]
    assert rows[-1] == rows[-2]  # saturated at the cap
    # The controller actually used the refit model.
    assert any(a.predictions for a in ctrl.actions)


def test_refit_skipped_during_warmup():
    sim, predictor, _ = _build_sim(retrain_interval=5.0)
    sim.run(duration=8.0)
    # At t=5 the monitor (one interval per metrics second) holds ~5
    # intervals, below min_intervals=8: the attempt must be a skip.
    assert [e.trained for e in predictor.retrain_log] == [False]
    assert not predictor.fitted


class _DivergesAfterFirstFit:
    """Factory whose models fit once, then raise like a DRNN whose
    gradient went non-finite."""

    def __init__(self):
        self.models = []

    def __call__(self, input_dim):
        model = _factory()(input_dim)
        if self.models:
            def fit(X, y):
                raise FloatingPointError("non-finite gradient")

            model.fit = fit
        self.models.append(model)
        return model


def test_failed_refit_keeps_the_previous_model():
    factory = _DivergesAfterFirstFit()
    sim, predictor, ctrl = _build_sim(factory=factory)
    sim.run(duration=30.0)  # the t=20 refit trains
    assert [e.trained for e in predictor.retrain_log] == [True]
    scalers = (predictor.scaler_x, predictor.scaler_y)
    sim.run(duration=60.0)  # the t=40, 60, 80 refits raise inside env.run()
    log = predictor.retrain_log
    assert [e.trained for e in log] == [True, False, False, False]
    assert all(e.n_rows >= 4 for e in log)  # fits that failed, not thin data
    assert len(factory.models) == 4
    assert predictor.model is factory.models[0]
    assert (predictor.scaler_x, predictor.scaler_y) == scalers
    assert predictor.fitted and predictor.n_retrains == 1
    # the controller kept predicting with the first model after each failure
    assert any(a.predictions for a in ctrl.actions if a.time > 80.0)
    preds = predictor.predict_workers(ctrl.monitor)
    assert preds and all(np.isfinite(v) for v in preds.values())


def test_in_sim_retraining_is_deterministic():
    summaries = []
    logs = []
    for _ in range(2):
        sim, predictor, _ = _build_sim()
        result = sim.run(duration=60.0)
        summaries.append(repr(result.summary()))
        logs.append(predictor.retrain_log)
    assert summaries[0] == summaries[1]
    assert logs[0] == logs[1]  # RetrainEvents are frozen dataclasses


def test_refit_runs_before_the_control_step_at_shared_ticks():
    # The refit process's timeout at t=30k was scheduled at t=30(k-1), the
    # control step's at t=30k-5, so the refit sorts first: it trains on the
    # snapshots ingested up to the previous control step, and the step at
    # that tick already predicts with the new model.
    sim, predictor, ctrl = _build_sim(
        window=6, retrain_interval=30.0,
        factory=OnlineModelFactory(epochs=2, seed=0),
    )
    calls = []
    refit, step = predictor.maybe_retrain, ctrl._step

    def recorded_refit(monitor, now):
        calls.append(("refit", now))
        return refit(monitor, now)

    def recorded_step():
        calls.append(("step", sim.env.now))
        step()

    predictor.maybe_retrain = recorded_refit
    ctrl._step = recorded_step
    sim.run(duration=95.0)
    shared = [c for c in calls if c[1] in (30.0, 60.0, 90.0)]
    assert shared == [
        ("refit", 30.0), ("step", 30.0),
        ("refit", 60.0), ("step", 60.0),
        ("refit", 90.0), ("step", 90.0),
    ]
    assert [t for kind, t in calls if kind == "step"] == [
        5.0 * k for k in range(1, 20)
    ]
