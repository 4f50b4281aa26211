"""Configuration of the predictive control loop."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class ControllerConfig:
    """Knobs of :class:`~repro.core.controller.PredictiveController`.

    Defaults are the values used throughout the experiments; DESIGN.md's
    "key design decisions" section explains the rationale for each.
    """

    #: Seconds between control-loop iterations.
    control_interval: float = 5.0
    #: Statistics window length (intervals) fed to the predictor.
    window: int = 8
    #: Detector: a worker is suspect when its predicted processing time
    #: exceeds ``threshold_factor`` × the peer median.
    threshold_factor: float = 2.5
    #: Detector: absolute floor (seconds) under which nothing is flagged
    #: (avoids flagging noise on an idle topology).
    latency_floor: float = 1e-3
    #: Detector: backlog guard — flag when a worker's queued tuples exceed
    #: ``backlog_factor`` × peer median (catches paused workers that emit
    #: no latency samples at all).
    backlog_factor: float = 8.0
    #: Backlog absolute floor (tuples) for the guard.
    backlog_floor: int = 50
    #: Detector hysteresis: consecutive suspect intervals before flagging,
    #: and consecutive clean intervals before unflagging.
    hysteresis_up: int = 1
    hysteresis_down: int = 2
    #: Planner: minimum ratio kept on every (even misbehaving) task so the
    #: monitor keeps receiving fresh statistics from it.
    min_ratio: float = 0.02
    #: Planner: exponential damping toward the target ratios
    #: (1.0 = jump immediately, smaller = smoother).
    smoothing: float = 0.7
    #: Planner: multiplicative score penalty for flagged workers.
    misbehaving_penalty: float = 0.05

    def validate(self) -> None:
        # Each rule is written as the valid range, so NaN (which compares
        # False against everything) fails it too, and ``inf`` as the open
        # upper end rejects infinities: a NaN threshold would otherwise
        # compare False everywhere and silently disable detection.
        inf = math.inf
        for name, ok, rule in (
            ("control_interval", 0 < self.control_interval < inf, "finite and > 0"),
            ("window", 1 <= self.window < inf, "finite and >= 1"),
            ("threshold_factor", 1 < self.threshold_factor < inf, "finite and > 1"),
            ("latency_floor", 0 <= self.latency_floor < inf, "finite and >= 0"),
            ("backlog_factor", 0 <= self.backlog_factor < inf, "finite and >= 0"),
            ("backlog_floor", 0 <= self.backlog_floor < inf, "finite and >= 0"),
            ("hysteresis_up", 1 <= self.hysteresis_up < inf, "finite and >= 1"),
            ("hysteresis_down", 1 <= self.hysteresis_down < inf, "finite and >= 1"),
            ("min_ratio", 0 <= self.min_ratio < 0.5, "in [0, 0.5)"),
            ("smoothing", 0 < self.smoothing <= 1, "in (0, 1]"),
            ("misbehaving_penalty", 0 < self.misbehaving_penalty <= 1, "in (0, 1]"),
        ):
            if not ok:
                raise ValueError(
                    f"{name} must be {rule}, got {getattr(self, name)!r}"
                )
