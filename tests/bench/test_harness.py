"""Smoke tests for the hot-path benchmark harness and its report schema."""

import json

import pytest

from repro.bench.harness import (
    SCHEMA,
    TWIN_SUFFIXES,
    main,
    run_benchmarks,
    time_benchmark,
    time_benchmark_pair,
    write_report,
)
from repro.bench.hotpaths import BENCHMARKS, SCALES, _minibatch_updates

RESULT_KEYS = {"median_s", "repeats_s", "work_units", "units_per_s"}


def test_time_benchmark_protocol():
    calls = []

    def fn():
        calls.append(1)
        return 42

    res = time_benchmark(fn, warmup=2, repeats=3)
    assert len(calls) == 5  # warmup + repeats
    assert set(res) == RESULT_KEYS
    assert res["work_units"] == 42
    assert len(res["repeats_s"]) == 3
    assert res["median_s"] >= 0.0
    with pytest.raises(ValueError):
        time_benchmark(fn, repeats=0)


def test_time_benchmark_pair_interleaves_and_returns_min_ratio():
    order = []

    def work(tag, loops):
        order.append(tag)
        return sum(range(loops)) and 1

    res_a, res_b, ratio = time_benchmark_pair(
        lambda: work("a", 50_000),
        lambda: work("b", 100_000),
        warmup=1,
        repeats=3,
    )
    # warmup pair + 3 interleaved measured pairs, strictly alternating
    assert order == ["a", "b"] * 4
    assert set(res_a) == RESULT_KEYS and set(res_b) == RESULT_KEYS
    # ratio is min(b)/min(a) over the raw (unrounded) repeat times
    assert ratio == pytest.approx(
        min(res_b["repeats_s"]) / min(res_a["repeats_s"]), rel=0.05
    )
    assert ratio > 1.0  # b does twice a's work


def test_run_benchmarks_minibatch_pair_smoke(tmp_path):
    report = run_benchmarks(
        scale="smoke",
        warmup=1,
        repeats=2,
        only=["drnn_minibatch", "drnn_minibatch_fullbatch"],
    )
    assert report["schema"] == SCHEMA
    assert report["scale"] == "smoke"
    assert report["protocol"]["repeats"] == 2
    assert set(report["results"]) == {
        "drnn_minibatch",
        "drnn_minibatch_fullbatch",
    }
    for res in report["results"].values():
        assert res["median_s"] > 0.0
        assert res["work_units"] == _minibatch_updates(SCALES["smoke"])
    assert report["speedups"]["drnn_minibatch"] > 0.0
    out = tmp_path / "bench.json"
    write_report(report, str(out))
    assert json.loads(out.read_text())["schema"] == SCHEMA


def test_dict_returns_record_parallel_extras():
    """Benchmarks may return {'units', 'jobs', 'shard_seconds'} dicts."""
    res = time_benchmark(
        lambda: {"units": 8, "jobs": 2, "shard_seconds": [0.25, 0.125]},
        warmup=0,
        repeats=2,
    )
    assert set(res) == RESULT_KEYS | {"jobs", "shard_seconds"}
    assert res["work_units"] == 8
    assert res["jobs"] == 2
    assert res["shard_seconds"] == [0.25, 0.125]


def test_run_benchmarks_serial_twin_pairing():
    report = run_benchmarks(
        scale="smoke",
        warmup=0,
        repeats=1,
        only=["campaign_fanout", "campaign_fanout_serial"],
        jobs=1,
    )
    results = report["results"]
    assert set(results) == {"campaign_fanout", "campaign_fanout_serial"}
    for res in results.values():
        assert res["work_units"] == SCALES["smoke"]["campaign_runs"]
        assert res["jobs"] == 1
        assert len(res["shard_seconds"]) == SCALES["smoke"]["campaign_runs"]
    assert report["speedups"]["campaign_fanout"] > 0.0
    assert report["env"]["jobs"] == 1
    assert report["env"]["cpu_count"] is not None


def test_run_benchmarks_rejects_unknown_inputs():
    with pytest.raises(ValueError, match="scale"):
        run_benchmarks(scale="galactic")
    with pytest.raises(ValueError, match="unknown benchmarks"):
        run_benchmarks(scale="smoke", only=["nope"])
    with pytest.raises(ValueError, match="jobs"):
        run_benchmarks(scale="smoke", jobs=-1)


def test_twin_names_pair_with_current_benchmarks():
    twins = {n for n in BENCHMARKS if n.endswith(TWIN_SUFFIXES)}
    assert {n[n.rindex("_"):] for n in twins} == set(TWIN_SUFFIXES)
    for name in twins:
        assert name[: name.rindex("_")] in BENCHMARKS


def test_cli_writes_report(tmp_path):
    out = tmp_path / "BENCH_test.json"
    rc = main(
        [
            "--scale", "smoke", "--repeats", "1", "--out", str(out),
            "--only", "drnn_minibatch", "drnn_minibatch_fullbatch",
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert "drnn_minibatch" in doc["speedups"]
