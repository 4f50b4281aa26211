"""Tests for the NumPy DRNN: exact gradients, learning, API contracts."""

import numpy as np
import pytest

from repro.models import Adam, DRNNRegressor, gradient_check
from repro.models.drnn import LSTMLayer, clip_by_global_norm


def toy_data(n=64, T=6, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T, d))
    # Target: a nonlinear function of the window that an RNN can learn.
    y = np.tanh(X[:, -1, 0]) + 0.5 * X[:, :, 1].mean(axis=1)
    return X, y


# --- gradient correctness (the critical test for a from-scratch net) -----------


def test_bptt_gradients_match_finite_differences_single_layer():
    X, y = toy_data(n=8, T=5, d=3)
    model = DRNNRegressor(input_dim=3, hidden_sizes=(7,), seed=1, l2=0.0)
    assert gradient_check(model, X, y, n_checks=15) < 1e-5


def test_bptt_gradients_match_finite_differences_deep():
    X, y = toy_data(n=6, T=4, d=2)
    model = DRNNRegressor(input_dim=2, hidden_sizes=(5, 4, 3), seed=2, l2=0.0)
    assert gradient_check(model, X, y, n_checks=15) < 1e-5


def test_gradients_with_l2_also_exact():
    X, y = toy_data(n=6, T=4, d=2)
    model = DRNNRegressor(input_dim=2, hidden_sizes=(5,), seed=3, l2=1e-3)
    assert gradient_check(model, X, y, n_checks=15) < 1e-5


# --- learning behaviour -------------------------------------------------------------


def test_fit_reduces_training_loss():
    X, y = toy_data(n=128, T=6, d=3)
    model = DRNNRegressor(
        input_dim=3, hidden_sizes=(16,), epochs=30, patience=0, seed=4
    )
    model.fit(X, y)
    losses = model.history.train_loss
    assert losses[-1] < losses[0] * 0.5


def test_fit_learns_linear_last_step_function():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(256, 5, 2))
    y = 2.0 * X[:, -1, 0] - 1.0 * X[:, -1, 1]
    model = DRNNRegressor(
        input_dim=2, hidden_sizes=(24,), epochs=120, lr=5e-3, patience=0, seed=5
    )
    model.fit(X, y)
    pred = model.predict(X)
    resid = np.mean((pred - y) ** 2) / np.var(y)
    assert resid < 0.05  # explains >95% of variance


def test_early_stopping_restores_best_weights():
    X, y = toy_data(n=96, T=5, d=3)
    model = DRNNRegressor(
        input_dim=3,
        hidden_sizes=(8,),
        epochs=200,
        patience=5,
        val_fraction=0.25,
        seed=6,
    )
    model.fit(X, y)
    assert model.history.stopped_epoch <= 200
    assert len(model.history.val_loss) == len(model.history.train_loss)
    # The kept weights correspond to the best validation loss seen.
    X_val = X[-24:]
    y_val = y[-24:]
    final_val = float(np.mean((model.predict(X_val) - y_val) ** 2))
    assert final_val <= min(model.history.val_loss) + 1e-9


def test_deterministic_given_seed():
    X, y = toy_data()
    m1 = DRNNRegressor(input_dim=3, hidden_sizes=(8,), epochs=5, seed=7).fit(X, y)
    m2 = DRNNRegressor(input_dim=3, hidden_sizes=(8,), epochs=5, seed=7).fit(X, y)
    assert np.allclose(m1.predict(X), m2.predict(X))


# --- API contracts -----------------------------------------------------------------


def test_input_shape_validated():
    model = DRNNRegressor(input_dim=3, hidden_sizes=(4,))
    with pytest.raises(ValueError):
        model.predict(np.zeros((5, 4)))  # not 3-D
    with pytest.raises(ValueError):
        model.predict(np.zeros((5, 4, 2)))  # wrong feature dim


def test_fit_validates_lengths():
    model = DRNNRegressor(input_dim=2, hidden_sizes=(4,))
    with pytest.raises(ValueError):
        model.fit(np.zeros((8, 3, 2)), np.zeros(7))
    with pytest.raises(ValueError):
        model.fit(np.zeros((2, 3, 2)), np.zeros(2))  # too few samples


def test_constructor_validation():
    with pytest.raises(ValueError):
        DRNNRegressor(input_dim=2, hidden_sizes=())
    with pytest.raises(ValueError):
        LSTMLayer(0, 4, np.random.default_rng(0), "x")


def test_n_parameters_counts_depth():
    shallow = DRNNRegressor(input_dim=3, hidden_sizes=(8,))
    deep = DRNNRegressor(input_dim=3, hidden_sizes=(8, 8))
    assert deep.n_parameters > shallow.n_parameters


def test_predictions_finite():
    X, y = toy_data(n=32)
    model = DRNNRegressor(input_dim=3, hidden_sizes=(6,), epochs=3, seed=8)
    model.fit(X, y)
    assert np.all(np.isfinite(model.predict(X)))


@pytest.mark.parametrize("patience", [0, 5])
def test_non_finite_gradient_raises_instead_of_poisoning_the_weights(patience):
    # One NaN feature used to flow through clipping (NaN > max_norm is
    # false) and Adam into every weight, and fit() returned a model whose
    # predictions were all NaN.
    X, y = toy_data(n=64)
    X[40, 2, 1] = np.nan  # inside the training head for either patience
    model = DRNNRegressor(
        input_dim=3, hidden_sizes=(6,), epochs=3, patience=patience, seed=11
    )
    with pytest.raises(FloatingPointError, match=r"epoch 0, batch [0-3]\b"):
        model.fit(X, y)
    assert np.all(np.isfinite(model.theta))
    assert np.all(np.isfinite(model.predict(np.nan_to_num(X))))


# --- optimizer utilities ------------------------------------------------------------


def test_adam_decreases_quadratic():
    rng = np.random.default_rng(9)
    params = {"w": rng.normal(size=5)}
    target = np.arange(5.0)
    opt = Adam(params, lr=0.1)
    for _ in range(300):
        grads = {"w": 2 * (params["w"] - target)}
        opt.step(grads)
    assert np.allclose(params["w"], target, atol=1e-2)


def test_adam_lr_validation():
    with pytest.raises(ValueError):
        Adam({"w": np.zeros(1)}, lr=0.0)


def test_clip_by_global_norm():
    grads = {"a": np.array([3.0, 4.0])}  # norm 5
    norm = clip_by_global_norm(grads, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0, rel=1e-6)
    grads2 = {"a": np.array([0.3, 0.4])}
    clip_by_global_norm(grads2, max_norm=1.0)
    assert np.allclose(grads2["a"], [0.3, 0.4])  # under the cap: untouched


def test_lstm_layer_forward_shapes():
    rng = np.random.default_rng(10)
    layer = LSTMLayer(3, 5, rng, "l")
    H = layer.forward(rng.normal(size=(7, 3, 4)))  # time-major (T, d, n)
    assert H.shape == (7, 5, 4)
    assert np.all(np.abs(H) <= 1.0)  # h = o * tanh(c) is bounded


def test_lstm_backward_before_forward_raises():
    layer = LSTMLayer(2, 3, np.random.default_rng(0), "l")
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 1, 3)))
