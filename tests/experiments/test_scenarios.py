"""Scenario-pack tests: spec hygiene, golden pin, and parallel identity.

``tests/golden/elasticity_smoke.json`` is the full report of::

    python -m repro scenario --name flash_crowd --seed 7 --runs 2 \
        --arms fixed autoscale --out tests/golden/elasticity_smoke.json

(the exact command the ``elasticity-smoke`` CI job runs).  The byte-pin
covers the whole elastic stack: scale-out/in mechanics, executor
migration, membership-epoch resyncs, and the autoscaler's decision
sequence.  If a change is *intentional*, regenerate with the command
above and review the diff — the acceptance property (the autoscaling arm
holds the latency SLO that the fixed pool breaches) is asserted
separately below, so a regenerated golden that loses the property fails
loudly.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.scenarios import (
    ARMS,
    SCENARIOS,
    ScenarioCampaign,
    ScenarioSpec,
    run_scenario_campaign,
)
from repro.obs.export import summary_to_json

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "elasticity_smoke.json"


class TestSpecHygiene:
    def test_registry_contains_the_pack(self):
        assert set(SCENARIOS) == {
            "diurnal_ramp", "flash_crowd", "hot_key_storm", "slow_burn"
        }
        for spec in SCENARIOS.values():
            spec.validate()

    def test_windows_are_horizon_fractions(self):
        spec = SCENARIOS["flash_crowd"]
        profile = spec.profile(200.0)
        (lo, hi, mult) = profile.bursts[0]
        (flo, fhi, fmult) = spec.bursts[0]
        assert (lo, hi, mult) == (flo * 200.0, fhi * 200.0, fmult)
        assert profile.rate((lo + hi) / 2) == pytest.approx(
            spec.base_rate * fmult
        )

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="horizon fractions"):
            ScenarioSpec(
                name="x", description="", bursts=((0.5, 1.2, 2.0),)
            ).validate()

    def test_unknown_scenario_and_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario_campaign("melting_pot")
        with pytest.raises(ValueError, match="unknown arm"):
            ScenarioCampaign(SCENARIOS["flash_crowd"], arms=("fixed", "magic"))
        with pytest.raises(ValueError, match="unique"):
            ScenarioCampaign(SCENARIOS["flash_crowd"], arms=("fixed", "fixed"))

    def test_arm_registry(self):
        assert ARMS == ("fixed", "autoscale", "rate_control")


class TestGoldenFile:
    """Fast guards on the committed artifact (no simulation)."""

    def test_golden_is_wellformed(self):
        data = json.loads(GOLDEN.read_text())
        assert data["campaign_seed"] == 7
        assert set(data["arms"]) == {"fixed", "autoscale"}
        assert len(data["runs"]) == 4  # 2 arms x 2 runs
        for run in data["runs"]:
            assert run["emitted"] == (
                run["acked"] + run["failed"] + run["in_flight"]
            )
            assert run["conserved"] is True

    def test_golden_shows_autoscale_holding_the_slo(self):
        # The PR's acceptance property, pinned on the committed bytes:
        # the fixed pool breaches the latency SLO hard, the autoscaling
        # arm absorbs the same (seed-identical) flash crowd.
        data = json.loads(GOLDEN.read_text())
        fixed = data["arms"]["fixed"]
        auto = data["arms"]["autoscale"]
        assert fixed["mean_slo_breach_fraction"] > 0.25
        assert auto["mean_slo_breach_fraction"] < 0.10
        assert auto["max_pool"] > fixed["max_pool"]
        # every fixed-arm run individually breaches more than every
        # autoscale run (paired seeds, so this is causal, not noise)
        by_arm = {}
        for run in data["runs"]:
            by_arm.setdefault(run["arm"], []).append(
                run["slo_breach_fraction"]
            )
        assert min(by_arm["fixed"]) > max(by_arm["autoscale"])

    def test_golden_pool_returns_after_the_burst(self):
        data = json.loads(GOLDEN.read_text())
        for run in data["runs"]:
            if run["arm"] != "autoscale":
                continue
            assert run["scale_outs"] >= 1
            assert run["workers_max"] > 2
            # scale-in gave at least one worker back after the burst
            assert run["workers_final"] < run["workers_max"]


@pytest.mark.slow
class TestGoldenByteIdentity:
    """Full recompute of the pinned campaign (CI: elasticity-smoke)."""

    def _bytes(self, tmp_path, **kwargs):
        report = run_scenario_campaign(
            "flash_crowd", seed=7, runs=2, arms=("fixed", "autoscale"),
            **kwargs,
        )
        out = tmp_path / "out.json"
        summary_to_json(report.summary(), out)
        return out.read_text()

    def test_serial_matches_golden(self, tmp_path):
        assert self._bytes(tmp_path) == GOLDEN.read_text(), (
            "scenario campaign drifted from "
            "tests/golden/elasticity_smoke.json; if intentional, "
            "regenerate it (see module docstring) and commit"
        )

    def test_sharded_matches_golden(self, tmp_path):
        got = self._bytes(tmp_path, jobs=2)
        assert got == GOLDEN.read_text(), (
            "scenario report depends on jobs — the "
            "byte-determinism contract is broken"
        )
