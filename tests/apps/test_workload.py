"""Tests for workload generators and rate profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import RateProfile, SensorEventGenerator, ZipfUrlGenerator


# --- rate profile ---------------------------------------------------------------


def test_constant_profile():
    p = RateProfile(base=100.0)
    assert p.rate(0) == 100.0
    assert p.rate(1e4) == 100.0


def test_diurnal_oscillates_around_base():
    p = RateProfile(base=100.0, diurnal_amplitude=0.5, diurnal_period=100.0)
    assert p.rate(25.0) == pytest.approx(150.0)  # sin peak
    assert p.rate(75.0) == pytest.approx(50.0)  # sin trough
    assert p.rate(0.0) == pytest.approx(100.0)


def test_steps_override_base():
    p = RateProfile(base=100.0, steps=[(10, 20, 400.0)])
    assert p.rate(5) == 100.0
    assert p.rate(15) == 400.0
    assert p.rate(25) == 100.0


def test_bursts_multiply():
    p = RateProfile(base=100.0, bursts=[(10, 20, 3.0)])
    assert p.rate(15) == pytest.approx(300.0)


def test_min_rate_clamps():
    p = RateProfile(base=10.0, steps=[(0, 100, 0.0)], min_rate=2.0)
    assert p.rate(50) == 2.0


def test_profile_validation():
    with pytest.raises(ValueError):
        RateProfile(base=0)
    with pytest.raises(ValueError):
        RateProfile(diurnal_amplitude=1.5)
    with pytest.raises(ValueError):
        RateProfile(diurnal_period=0)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0, max_value=1e5))
def test_rate_always_positive_property(t):
    p = RateProfile(
        base=50.0,
        diurnal_amplitude=0.9,
        diurnal_period=123.0,
        steps=[(100, 200, 5.0)],
        bursts=[(150, 160, 10.0)],
    )
    assert p.rate(t) >= p.min_rate


# --- zipf urls --------------------------------------------------------------------------


def test_zipf_rank_ordering():
    gen = ZipfUrlGenerator(np.random.default_rng(0), n_urls=100, skew=1.2)
    counts = {}
    for _ in range(20000):
        _, url = gen.next_event()
        counts[url] = counts.get(url, 0) + 1
    top = gen.hot_urls(3)
    assert counts[top[0]] > counts[top[1]] > counts[top[2]]
    # Rank-0 frequency matches the Zipf head probability.
    p0 = counts[top[0]] / 20000
    weights = 1.0 / np.arange(1, 101) ** 1.2
    assert p0 == pytest.approx(weights[0] / weights.sum(), rel=0.15)


def test_zipf_user_format():
    gen = ZipfUrlGenerator(np.random.default_rng(1), n_users=10)
    user, url = gen.next_event()
    assert user.startswith("user-")
    assert url.startswith("http://site-")


def test_zipf_deterministic_given_rng():
    a = ZipfUrlGenerator(np.random.default_rng(7))
    b = ZipfUrlGenerator(np.random.default_rng(7))
    assert [a.next_event() for _ in range(20)] == [
        b.next_event() for _ in range(20)
    ]


def test_zipf_rank_is_bit_equal_to_searchsorted():
    # The rank comes from bisect_left on the cdf as a list; the reference
    # is np.searchsorted (default side) on the cdf as an array —
    # including u exactly on a cdf value, one ulp either side of it, and
    # u above the last cdf value (float round-off can leave it below 1).
    class ScriptedRng:
        def __init__(self, us):
            self.us = iter(us)

        def random(self):
            return next(self.us)

        def integers(self, n):
            return 0

    gen = ZipfUrlGenerator(np.random.default_rng(0), n_urls=50, skew=1.1)
    weights = 1.0 / np.arange(1, 51, dtype=float) ** 1.1
    cdf = np.cumsum(weights / weights.sum())
    us = [0.0, 1.0, float(np.nextafter(cdf[-1], 2.0))]
    for c in cdf:
        us += [float(c), float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))]
    us += np.random.default_rng(3).random(500).tolist()
    gen.rng = ScriptedRng(us)
    for u in us:
        rank = int(np.searchsorted(cdf, u))
        assert gen.next_event() == ("user-0", f"http://site-{rank}.example/page")


def test_zipf_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ZipfUrlGenerator(rng, n_urls=0)
    with pytest.raises(ValueError):
        ZipfUrlGenerator(rng, skew=0)


# --- sensors -------------------------------------------------------------------------------


def test_sensor_values_mean_revert():
    gen = SensorEventGenerator(
        np.random.default_rng(2), n_sensors=5, mean=50.0, volatility=1.0
    )
    values = [gen.next_event()[1] for _ in range(5000)]
    assert np.mean(values) == pytest.approx(50.0, abs=3.0)
    assert np.std(values) < 20.0


def test_sensor_ids_in_range():
    gen = SensorEventGenerator(np.random.default_rng(3), n_sensors=3)
    ids = {gen.next_event()[0] for _ in range(100)}
    assert ids <= {"sensor-0", "sensor-1", "sensor-2"}


def test_sensor_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        SensorEventGenerator(rng, n_sensors=0)
    with pytest.raises(ValueError):
        SensorEventGenerator(rng, reversion=0)
