"""Tests for scripts/check_bench_regression.py (loaded by path)."""

import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).parents[2] / "scripts" / "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _doc(results, speedups=None, schema="repro-bench/1"):
    return {"schema": schema, "results": results, "speedups": speedups or {}}


def _res(times):
    return {"median_s": sorted(times)[len(times) // 2], "repeats_s": times}


def test_identical_runs_pass():
    doc = _doc(
        {"a": _res([0.010, 0.011, 0.012]), "a_fullbatch": _res([0.02, 0.02, 0.02])},
        {"a": 2.0},
    )
    assert gate.compare(doc, doc, tolerance=0.25) == 0


def test_min_based_gate_ignores_noisy_outlier_repeats():
    base = _doc({"a": _res([0.010, 0.010, 0.010])})
    # One clean repeat among load-inflated ones: min is still at baseline.
    cur = _doc({"a": _res([0.030, 0.010, 0.025])})
    assert gate.compare(cur, base, tolerance=0.25) == 0


def test_absolute_regression_fails():
    base = _doc({"a": _res([0.010, 0.010, 0.010])})
    cur = _doc({"a": _res([0.014, 0.015, 0.016])})
    assert gate.compare(cur, base, tolerance=0.25) == 1


def test_speedup_drop_fails_even_when_absolute_times_pass():
    base = _doc({"a": _res([0.010])}, {"a": 3.0})
    cur = _doc({"a": _res([0.010])}, {"a": 1.5})
    assert gate.compare(cur, base, tolerance=0.25) == 1


def test_missing_and_new_benchmarks_are_reported_not_fatal(capsys):
    base = _doc({"gone": _res([0.010])})
    cur = _doc({"fresh": _res([0.010])})
    assert gate.compare(cur, base, tolerance=0.25) == 0
    out = capsys.readouterr().out
    assert "MISSING" in out and "NEW" in out


def test_schema_mismatch_is_its_own_exit_code():
    assert gate.compare(_doc({}), _doc({}, schema="other/9"), 0.25) == 2


def test_scale_or_protocol_mismatch_exits_2_with_a_message(capsys):
    def doc(scale="smoke", warmup=2, repeats=9):
        return dict(
            _doc({"a": _res([0.010])}),
            scale=scale,
            protocol={"warmup": warmup, "repeats": repeats, "statistic": "median"},
        )

    assert gate.compare(doc(), doc(), 0.25) == 0
    capsys.readouterr()
    for other, what in (
        (doc(scale="full"), "scale"),
        (doc(warmup=1), "protocol.warmup"),
        (doc(repeats=5), "protocol.repeats"),
    ):
        assert gate.compare(other, doc(), 0.25) == 2
        assert gate.compare(doc(), other, 0.25) == 2
        out = capsys.readouterr().out
        assert out.count(f"{what} mismatch") == 2 and "ms" not in out
    # a baseline that records neither (older files) only matches its like
    assert gate.compare(_doc({}), doc(), 0.25) == 2


def test_main_reads_files(tmp_path):
    doc = _doc({"a": _res([0.010])}, {"a": 2.0})
    bench = tmp_path / "bench.json"
    baseline = tmp_path / "baseline.json"
    bench.write_text(json.dumps(doc))
    baseline.write_text(json.dumps(doc))
    rc = gate.main(["--bench", str(bench), "--baseline", str(baseline)])
    assert rc == 0


def test_jobs_mismatch_skips_time_and_speedup_checks(capsys):
    # 4-core baseline vs a 1-core CI runner: 3x slower AND a lost
    # speedup, but neither is comparable, so the gate must pass.
    base = _doc(
        {
            "par": dict(_res([0.010]), jobs=4),
            "par_serial": dict(_res([0.040]), jobs=4),
        },
        {"par": 4.0},
    )
    cur = _doc(
        {
            "par": dict(_res([0.030]), jobs=1),
            "par_serial": dict(_res([0.040]), jobs=1),
        },
        {"par": 1.0},
    )
    assert gate.compare(cur, base, tolerance=0.25) == 0
    out = capsys.readouterr().out
    assert out.count("SKIPPED") >= 3  # par, par_serial, and the speedup


def test_equal_jobs_still_gate():
    base = _doc({"par": dict(_res([0.010]), jobs=2)})
    cur = _doc({"par": dict(_res([0.030]), jobs=2)})
    assert gate.compare(cur, base, tolerance=0.25) == 1


def test_checked_in_bench_pr5_speedup():
    """Acceptance pin: BENCH_pr5.json shows >=1.8x fan-out speedup at
    jobs>=4; measured on fewer cores the ratio is meaningless, so skip."""
    import pytest

    path = Path(__file__).parents[2] / "BENCH_pr5.json"
    if not path.exists():
        pytest.skip("BENCH_pr5.json not generated in this checkout")
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro-bench/2"
    res = doc["results"]["campaign_fanout"]
    assert doc["results"]["campaign_fanout_serial"]["jobs"] == 1
    assert len(res["shard_seconds"]) == res["work_units"]
    if (doc["env"]["cpu_count"] or 1) < 4 or res["jobs"] < 4:
        pytest.skip(
            f"fan-out speedup needs >=4 cores (have "
            f"{doc['env']['cpu_count']}, jobs={res['jobs']})"
        )
    assert doc["speedups"]["campaign_fanout"] >= 1.8


def test_checked_in_bench_pr7_minibatch_speedup():
    """Acceptance pin: BENCH_pr7.json shows >=1.5x minibatch-vs-
    fullbatch training throughput on the drnn_minibatch pair
    (interleaved min-ratio per optimizer update — the reason grid-scale
    training uses mini-batched BPTT; see docs/predictors.md)."""
    import pytest

    path = Path(__file__).parents[2] / "BENCH_pr7.json"
    if not path.exists():
        pytest.skip("BENCH_pr7.json not generated in this checkout")
    doc = json.loads(path.read_text())
    assert doc["schema"] == "repro-bench/2"
    assert "drnn_minibatch_fullbatch" in doc["results"]
    assert doc["speedups"]["drnn_minibatch"] >= 1.5
