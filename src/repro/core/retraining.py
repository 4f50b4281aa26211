"""Online predictor retraining inside the simulation.

:class:`RetrainingPredictor` wraps the model-agnostic
:class:`~repro.core.predictor.PerformancePredictor` interface with a
*periodic refit* policy: every ``retrain_interval`` simulation seconds a
fresh model is built from a picklable factory and fitted on the
:class:`~repro.core.monitor.StatsMonitor`'s rolling window (the most
recent ``max_history`` intervals per worker).  The controller adapts to
drift instead of trusting a one-shot pre-fitted model.

Determinism contract
--------------------
Retraining runs as a DES process registered by
:meth:`PredictiveController._bind` right after the control loop.  At a
tick where both fire, the refit's timeout was scheduled at the previous
refit and the control step's at the previous step, so (with
``retrain_interval`` longer than the control interval) the refit runs
first: it trains on the snapshots the controller ingested up to its
previous step, and the step at that tick predicts with the new model —
the same order every run.  Each refit
builds a **fresh** model from the factory with a fixed seed and fresh
scalers, so the fitted weights depend only on the monitor contents at
the refit tick, never on how many refits happened before or on any
cross-run mutable state.  Campaigns with online retraining are therefore
byte-identical across ``--jobs`` and cache states like every other
arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.predictor import PerformancePredictor

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.monitor import StatsMonitor


@dataclass(frozen=True)
class OnlineModelFactory:
    """Picklable recipe for the model built at every refit.

    A frozen dataclass so campaign cache keys can use its ``repr`` and
    worker processes can unpickle it.  Builds a small
    DRNN; GRU by default — at online-retraining cadence the cheaper cell
    matters more than the LSTM's extra gate.
    """

    hidden: Tuple[int, ...] = (8,)
    epochs: int = 25
    cell: str = "gru"
    lr: float = 3e-3
    batch_size: int = 32
    patience: int = 5
    seed: int = 0

    def __call__(self, input_dim: int):
        from repro.models.drnn import DRNNRegressor

        return DRNNRegressor(
            input_dim=input_dim,
            hidden_sizes=self.hidden,
            epochs=self.epochs,
            cell=self.cell,
            lr=self.lr,
            batch_size=self.batch_size,
            patience=self.patience,
            seed=self.seed,
        )


@dataclass(frozen=True)
class RetrainEvent:
    """One completed (or skipped) refit, for analysis and tests."""

    time: float
    n_rows: int
    n_intervals: int
    trained: bool


class RetrainingPredictor(PerformancePredictor):
    """Periodically refit predictor over the monitor's rolling window.

    Parameters
    ----------
    model_factory:
        Callable ``factory(input_dim) -> model``; called afresh at every
        refit so no optimizer state or weights survive between refits.
        Use :class:`OnlineModelFactory` for campaign-picklable configs.
    window:
        History length per prediction (as in the base class).
    retrain_interval:
        Simulation seconds between refit attempts.
    min_intervals:
        Monitor intervals required before the first refit is attempted;
        defaults to ``2 * window``.
    max_history:
        Rolling-window size in intervals per worker handed to
        :meth:`StatsMonitor.pooled_training_data`; ``None`` trains on the
        full history (no forgetting).
    """

    def __init__(
        self,
        model_factory,
        window: int = 8,
        retrain_interval: float = 30.0,
        min_intervals: Optional[int] = None,
        max_history: Optional[int] = None,
    ) -> None:
        super().__init__(model=None, window=window)
        if retrain_interval <= 0:
            raise ValueError("retrain_interval must be > 0")
        if max_history is not None and max_history < window + 1:
            raise ValueError(
                f"max_history ({max_history}) must exceed the prediction "
                f"window ({window})"
            )
        self.model_factory = model_factory
        self.retrain_interval = float(retrain_interval)
        self.min_intervals = (
            int(min_intervals) if min_intervals is not None else 2 * window
        )
        self.max_history = max_history
        self.retrain_log: List[RetrainEvent] = []
        # The base class treats ``model is None`` as the reactive
        # ablation (fitted from birth); here it means "no refit yet".
        self.fitted = False

    def maybe_retrain(self, monitor: "StatsMonitor", now: float) -> bool:
        """Refit on the monitor's rolling window if there is enough data.

        Returns ``True`` when a refit actually trained a model.  Too-thin
        history (warmup, or every worker idle) or a fit that fails
        numerically (a non-finite gradient, a singular system) records a
        skipped :class:`RetrainEvent` and keeps the previous model and
        scalers, if any: the fresh ones are swapped in only on success.
        """
        n_intervals = monitor.n_intervals
        rows = 0
        if n_intervals >= self.min_intervals:
            try:
                X, y = monitor.pooled_training_data(
                    self.window, last=self.max_history
                )
                rows = X.shape[0]
            except ValueError:
                rows = 0
        trained = False
        if rows >= 4:  # the training loop's floor
            fresh = PerformancePredictor(
                self.model_factory(X.shape[2]), window=self.window
            )
            try:
                fresh.fit(X, y)
            except (FloatingPointError, np.linalg.LinAlgError):
                pass
            else:
                self.model = fresh.model
                self.scaler_x, self.scaler_y = fresh.scaler_x, fresh.scaler_y
                self.fitted = trained = True
        self.retrain_log.append(
            RetrainEvent(
                time=float(now), n_rows=rows,
                n_intervals=n_intervals, trained=trained,
            )
        )
        return trained

    @property
    def n_retrains(self) -> int:
        return sum(1 for e in self.retrain_log if e.trained)

    def __repr__(self) -> str:
        return (
            f"<RetrainingPredictor interval={self.retrain_interval}"
            f" window={self.window} max_history={self.max_history}"
            f" retrains={self.n_retrains}>"
        )
