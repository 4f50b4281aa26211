"""Golden-file pin of the span-tree attribution summary.

``tests/golden/attribution_smoke.json`` holds the per-run ``attribution``
sections of a small traced chaos campaign (2 × 60 s of ``url_count``
under two message-loss faults, so replay subtrees are exercised).  The
campaign is replayed here serially and sharded across two worker
processes — both must reproduce the golden *byte-for-byte*, pinning
the determinism of the trace pipeline and the bitwise exact-sum invariant
(``exact: true`` inside the golden is the acker-latency identity
holding for every one of the ~14k attributed trees).

Regenerate after an intentional change with::

    PYTHONPATH=src python - <<'PY'
    from repro.experiments.reliability import run_chaos_campaign
    from repro.obs.report import report_to_json
    from repro.storm import ChaosSpec
    report = run_chaos_campaign(
        app="url_count", spec=ChaosSpec(crashes=0, losses=2),
        seed=11, runs=2, horizon=60.0, base_rate=120.0,
        trace=True, trace_capacity=1 << 20, metrics=True)
    golden = {"schema": "repro-attribution-golden/1", "campaign_seed": 11,
              "runs": [r.run_report["attribution"] for r in report.runs]}
    open("tests/golden/attribution_smoke.json", "w").write(
        report_to_json(golden))
    PY
"""

import json
from pathlib import Path

import pytest

from repro.experiments.reliability import run_chaos_campaign
from repro.obs.report import report_to_json
from repro.storm import ChaosSpec

GOLDEN = (
    Path(__file__).resolve().parents[1] / "golden" / "attribution_smoke.json"
)


def campaign_attribution(jobs: int) -> str:
    report = run_chaos_campaign(
        app="url_count",
        spec=ChaosSpec(crashes=0, losses=2),
        seed=11,
        runs=2,
        horizon=60.0,
        base_rate=120.0,
        trace=True,
        trace_capacity=1 << 20,
        metrics=True,
        jobs=jobs,
    )
    return report_to_json({
        "schema": "repro-attribution-golden/1",
        "campaign_seed": 11,
        "runs": [r.run_report["attribution"] for r in report.runs],
    })


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "jobs2"])
def test_attribution_matches_golden(jobs):
    assert campaign_attribution(jobs) == GOLDEN.read_text(), (
        "span-tree attribution drifted from "
        "tests/golden/attribution_smoke.json under "
        f"jobs={jobs}; if intentional, regenerate "
        "it (see module docstring) and commit"
    )


def test_golden_is_wellformed_and_exact():
    # Guard against a hand-edited or truncated golden file.
    data = json.loads(GOLDEN.read_text())
    assert data["campaign_seed"] == 11
    assert len(data["runs"]) == 2
    for run in data["runs"]:
        assert run["schema"] == "repro-attribution/1"
        assert run["exact"] is True  # the bitwise invariant, pinned
        assert run["attributed"] > 1000
        assert run["replays"] > 0  # loss faults actually replayed tuples
        assert run["incomplete"] == 0  # the ring held the whole run
        shares = run["shares"]
        assert abs(sum(shares.values()) - 1.0) < 1e-12
