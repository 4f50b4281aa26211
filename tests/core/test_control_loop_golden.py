"""Golden pins of two controllers' decision sequences, and of every arm.

``tests/golden/control_loop_reactive.json`` pins the reactive arm of::

    run_reliability_scenario(app="url_count", control="reactive",
                             base_rate=250, duration=60, fault_start=20,
                             fault_duration=30, seed=3)

— every :class:`ControlAction`'s time, flagged and crashed sets and
per-edge split ratios at full float precision, the detector's
flag/clear log and the run summary.  ``tests/golden/rate_control_hot_key_storm.json``
pins the ``rate_control`` arm of the ``hot_key_storm`` scenario (seed 7,
one run): the campaign summary and the spout-rate controller's
:class:`RateEvent` log.

Regenerate both (after an *intentional* change, reviewing the diff) with::

    PYTHONPATH=src python -m tests.core.test_control_loop_golden

The arm tests at the bottom pin the exact parameters of the controller
each campaign arm builds per run (a run may never reach the code that
reads them: the pinned chaos autoscale campaign never scales).
"""

import json
from pathlib import Path

import pytest

from repro.core import (
    AutoscalePolicy,
    ControllerConfig,
    OnlineModelFactory,
    PerformancePredictor,
    RateControlConfig,
    RetrainingPredictor,
)
from repro.experiments import run_reliability_scenario
from repro.experiments.reliability import chaos_arm
from repro.experiments.scenarios import SCENARIOS, ScenarioCampaign
from repro.storm.runner import StormSimulation

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
REACTIVE = GOLDEN_DIR / "control_loop_reactive.json"
RATE = GOLDEN_DIR / "rate_control_hot_key_storm.json"


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def reactive_pin() -> str:
    res = run_reliability_scenario(
        app="url_count", control="reactive", base_rate=250, duration=60,
        fault_start=20, fault_duration=30, seed=3,
    )
    actions = [
        {
            "time": a.time,
            "flagged": sorted(a.flagged),
            "crashed": sorted(a.crashed),
            "ratios": {
                "|".join(edge): [float(r) for r in ratios]
                for edge, ratios in a.ratios.items()
            },
        }
        for a in res.controller.actions
    ]
    return _dumps({
        "actions": actions,
        "flag_intervals": [list(f) for f in res.controller.flag_intervals()],
        "summary": res.result.summary(),
    })


def rate_control_pin(monkeypatch) -> str:
    attached = []
    attach = StormSimulation.attach

    def recording_attach(sim, controller):
        attached.append(controller)
        return attach(sim, controller)

    monkeypatch.setattr(StormSimulation, "attach", recording_attach)
    report = ScenarioCampaign(
        SCENARIOS["hot_key_storm"], seed=7, runs=1, arms=("rate_control",)
    ).run()
    (controller,) = attached
    return _dumps({
        "summary": report.summary(),
        "rate_log": [
            {"time": e.time, "rate": e.rate, "in_flight": e.in_flight}
            for e in controller.log
        ],
    })


def test_reactive_control_loop_matches_golden():
    assert reactive_pin() == REACTIVE.read_text(), (
        "reactive control decisions drifted from "
        "tests/golden/control_loop_reactive.json"
    )


def test_reactive_golden_flags_the_slowed_worker():
    data = json.loads(REACTIVE.read_text())
    assert len(data["actions"]) == 11
    assert [25.0, 2, "flag"] in data["flag_intervals"]


def test_rate_control_arm_matches_golden(monkeypatch):
    assert rate_control_pin(monkeypatch) == RATE.read_text(), (
        "rate_control arm drifted from "
        "tests/golden/rate_control_hot_key_storm.json"
    )


def test_rate_control_golden_throttles_the_storm():
    data = json.loads(RATE.read_text())
    min_rate = data["summary"]["arms"]["rate_control"]["min_admission_rate"]
    assert min_rate < 1.0
    assert min(e["rate"] for e in data["rate_log"]) == pytest.approx(min_rate)


def test_chaos_arms_build_their_pinned_controllers():
    assert chaos_arm(None, 5.0, 6, 30.0) is None
    with pytest.raises(ValueError, match="unknown chaos control arm"):
        chaos_arm("magic", 5.0, 6, 30.0)
    auto = chaos_arm("autoscale", 5.0, 6, 30.0)()
    assert (auto.name, auto.interval) == ("autoscale-controller", 5.0)
    assert auto.policy == AutoscalePolicy(
        interval=5.0, latency_slo=1.0, backlog_high=50.0, backlog_low=5.0,
        consecutive=2, relief_consecutive=4, cooldown=15.0,
        min_workers=1, max_workers=8, scale_in_added_only=True,
    )
    loop_config = ControllerConfig(control_interval=5.0, window=6)
    reactive = chaos_arm("reactive", 5.0, 6, 30.0)()
    assert type(reactive.predictor) is PerformancePredictor
    assert reactive.predictor.model is None
    assert reactive.predictor.window == 6
    assert reactive.config == loop_config
    recipe = chaos_arm("online", 5.0, 6, 30.0)
    online = recipe()
    predictor = online.predictor
    assert type(predictor) is RetrainingPredictor
    assert predictor.model_factory == OnlineModelFactory(
        hidden=(8,), epochs=25, cell="gru", lr=3e-3, batch_size=32,
        patience=5, seed=0,
    )
    assert (predictor.window, predictor.retrain_interval) == (6, 30.0)
    assert (predictor.max_history, predictor.min_intervals) == (48, 12)
    assert online.config == loop_config
    # a fresh controller and predictor every run
    assert recipe().predictor is not predictor


def test_scenario_arms_build_their_pinned_controllers():
    spec = SCENARIOS["flash_crowd"]
    campaign = ScenarioCampaign(spec)
    assert campaign._controller_factory("fixed") is None
    auto = campaign._controller_factory("autoscale")()
    assert auto.policy == AutoscalePolicy(
        interval=5.0, latency_slo=spec.latency_slo, backlog_high=50.0,
        backlog_low=5.0, consecutive=1, relief_consecutive=4, cooldown=10.0,
        min_workers=spec.num_workers, max_workers=spec.max_workers,
        scale_in_added_only=True,
    )
    rate = campaign._controller_factory("rate_control")()
    assert (rate.name, rate.interval) == ("spout-rate-controller", 5.0)
    assert rate.config == RateControlConfig(
        interval=5.0, in_flight_high=200.0, decrease=0.5, increase=0.1,
        min_rate=0.1,
    )


if __name__ == "__main__":
    REACTIVE.write_text(reactive_pin())
    with pytest.MonkeyPatch.context() as mp:
        RATE.write_text(rate_control_pin(mp))
