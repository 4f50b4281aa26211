"""Synthetic workload generators with time-varying rates.

The paper evaluates on real click/query streams we cannot ship; these
generators produce the same *stresses*:

* **Zipf-skewed keys** (hot URLs) — stress grouping and per-key state;
* **time-varying rates** (diurnal swells, steps, bursts) — give the
  predictor something non-trivial to forecast;
* **drifting sensor values** — make continuous-query output change over
  time.

All randomness flows through an injected ``numpy.random.Generator`` so
runs are reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


def require_positive(name: str, value: float) -> None:
    """Reject a NaN, infinite or non-positive ``value`` of field ``name``."""
    if not math.isfinite(value) or not value > 0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass
class RateProfile:
    """Composable arrival-rate function ``rate(t)`` in tuples/second.

    ``rate(t) = base * (1 + diurnal_amplitude * sin(2πt/diurnal_period))``
    then overridden by any active step, then multiplied by any active
    burst.  Rates are clamped at ``min_rate``.
    """

    base: float = 100.0
    diurnal_amplitude: float = 0.0
    diurnal_period: float = 600.0
    #: [(start, end, rate)] absolute-rate overrides.
    steps: List[Tuple[float, float, float]] = field(default_factory=list)
    #: [(start, end, multiplier)] multiplicative bursts.
    bursts: List[Tuple[float, float, float]] = field(default_factory=list)
    min_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.base <= 0:
            raise ValueError("base rate must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")

    def rate(self, t: float) -> float:
        r = self.base
        if self.diurnal_amplitude > 0:
            r *= 1.0 + self.diurnal_amplitude * math.sin(
                2.0 * math.pi * t / self.diurnal_period
            )
        for start, end, rate in self.steps:
            if start <= t < end:
                r = rate
        for start, end, mult in self.bursts:
            if start <= t < end:
                r *= mult
        return max(self.min_rate, r)

    def __call__(self, t: float) -> float:
        return self.rate(t)


class ZipfUrlGenerator:
    """Click events ``(user, url)`` with Zipf-distributed URL popularity.

    URL popularity follows ``p(rank) ∝ rank^-s``; users are uniform.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_urls: int = 2000,
        n_users: int = 500,
        skew: float = 1.1,
    ) -> None:
        if n_urls < 1 or n_users < 1:
            raise ValueError("need at least one URL and one user")
        if skew <= 0:
            raise ValueError("skew must be positive")
        self.rng = rng
        self.n_urls = n_urls
        self.n_users = n_users
        self.skew = skew
        weights = 1.0 / np.arange(1, n_urls + 1, dtype=float) ** skew
        self._probs = weights / weights.sum()
        #: a list, searched with ``bisect_left`` (= ``np.searchsorted``'s
        #: default side) — one NumPy scalar call less per click
        self._cdf: List[float] = np.cumsum(self._probs).tolist()

    def next_event(self) -> Tuple[str, str]:
        """One click: ``(user_id, url)``."""
        u = self.rng.random()
        rank = bisect_left(self._cdf, u)
        user = int(self.rng.integers(self.n_users))
        return (f"user-{user}", f"http://site-{rank}.example/page")

    def hot_urls(self, k: int = 10) -> List[str]:
        """The k most popular URLs (ground truth for top-k validation)."""
        return [f"http://site-{r}.example/page" for r in range(k)]


class SensorEventGenerator:
    """Sensor readings ``(sensor_id, value)`` with slow per-sensor drift.

    Values follow independent mean-reverting walks so window aggregates
    move smoothly — standing queries flip between matched/unmatched.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_sensors: int = 50,
        mean: float = 50.0,
        reversion: float = 0.02,
        volatility: float = 1.5,
    ) -> None:
        if n_sensors < 1:
            raise ValueError("need at least one sensor")
        if not 0 < reversion <= 1:
            raise ValueError("reversion must be in (0, 1]")
        self.rng = rng
        self.n_sensors = n_sensors
        self.mean = mean
        self.reversion = reversion
        self.volatility = volatility
        self._values = mean + rng.normal(0, 5.0, size=n_sensors)

    def next_event(self) -> Tuple[str, float]:
        """One reading: ``(sensor_id, value)``."""
        i = int(self.rng.integers(self.n_sensors))
        v = self._values[i]
        v += self.reversion * (self.mean - v) + self.rng.normal(
            0, self.volatility
        )
        self._values[i] = v
        return (f"sensor-{i}", float(v))
