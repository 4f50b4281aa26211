"""Serial/parallel/cached equivalence of real campaigns.

The engine's contract is that ``jobs`` and ``cache`` change wall-clock
only — never a byte of any report.  These tests run genuine chaos
campaigns (small horizons, real topologies and faults) three ways and
compare the full serialized output.
"""

import dataclasses
import time
from pathlib import Path

import pytest

from repro.experiments.reliability import run_chaos_campaign
from repro.obs.export import summary_to_json
from repro.parallel import ResultCache
from repro.storm import ChaosSpec

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "chaos_smoke.json"
ONLINE_GOLDEN = (
    Path(__file__).resolve().parents[1] / "golden" / "online_retraining.json"
)


def _online_campaign(jobs=1, cache=None):
    """Online-retraining arm: the DRNN is refit *inside* each run."""
    return run_chaos_campaign(
        app="url_count",
        spec=ChaosSpec(crashes=1, losses=0),
        seed=11,
        runs=2,
        horizon=80.0,
        base_rate=120.0,
        control="online",
        control_interval=5.0,
        window=4,
        retrain_interval=20.0,
        jobs=jobs,
        cache=cache,
    )


def _small_campaign(jobs=1, cache=None):
    return run_chaos_campaign(
        app="url_count",
        spec=ChaosSpec(crashes=1, losses=1),
        seed=13,
        runs=3,
        horizon=30.0,
        base_rate=60.0,
        jobs=jobs,
        cache=cache,
    )


def _json_bytes(report, tmp_path, name):
    out = tmp_path / name
    summary_to_json(report.summary(), out)
    return out.read_bytes()


def test_sharded_campaign_byte_identical_to_serial(tmp_path):
    serial = _small_campaign(jobs=1)
    sharded = _small_campaign(jobs=2)
    assert _json_bytes(serial, tmp_path, "serial.json") == \
        _json_bytes(sharded, tmp_path, "sharded.json")
    # field-level identity too, not just the summary projection (repr
    # rather than ==: NaN recovery times compare unequal to themselves)
    for a, b in zip(serial.runs, sharded.runs):
        assert repr(dataclasses.asdict(a)) == repr(dataclasses.asdict(b))


def test_golden_campaign_survives_sharding(tmp_path):
    report = run_chaos_campaign(
        app="url_count",
        spec=ChaosSpec(crashes=1, losses=1),
        seed=7,
        runs=3,
        horizon=90.0,
        base_rate=120.0,
        jobs=2,
    )
    assert _json_bytes(report, tmp_path, "j2.json") == GOLDEN.read_bytes(), (
        "sharded chaos campaign drifted from tests/golden/chaos_smoke.json "
        "— the parallel engine must be byte-identical to serial"
    )


@pytest.mark.slow
def test_online_retraining_campaign_golden_across_jobs_and_cache(tmp_path):
    # In-sim model training is the riskiest payload for the engine's
    # byte-identity contract (NumPy training state, fresh models per
    # refit): the sharded and cache-served runs must still reproduce the
    # pinned golden exactly.
    golden = ONLINE_GOLDEN.read_bytes()
    sharded = _online_campaign(jobs=2)
    assert _json_bytes(sharded, tmp_path, "online_j2.json") == golden, (
        "online-retraining campaign drifted from "
        "tests/golden/online_retraining.json under jobs=2"
    )
    cache = ResultCache(tmp_path / "cache")
    cold = _online_campaign(cache=cache)
    assert _json_bytes(cold, tmp_path, "online_cold.json") == golden
    warm = _online_campaign(cache=cache)
    assert _json_bytes(warm, tmp_path, "online_warm.json") == golden
    assert cache.hits == 2  # every warm run served from disk


def test_warm_cache_serves_identical_results_fast(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    t0 = time.perf_counter()
    cold = _small_campaign(cache=cache)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = _small_campaign(cache=cache)
    warm_s = time.perf_counter() - t0
    assert _json_bytes(cold, tmp_path, "cold.json") == \
        _json_bytes(warm, tmp_path, "warm.json")
    assert cache.hits == 3  # every warm run served from disk
    # acceptance bar: a fully warm sweep costs <10% of the cold one
    assert warm_s < 0.1 * cold_s, (cold_s, warm_s)


def test_cache_not_shared_across_configs(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _small_campaign(cache=cache)
    assert cache.hits == 0 and len(cache) == 3
    # different campaign seed: every run must miss and recompute
    run_chaos_campaign(
        app="url_count",
        spec=ChaosSpec(crashes=1, losses=1),
        seed=14,
        runs=3,
        horizon=30.0,
        base_rate=60.0,
        cache=cache,
    )
    assert cache.hits == 0
    assert len(cache) == 6
