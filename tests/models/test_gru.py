"""Tests for the GRU variant of the DRNN."""

import numpy as np
import pytest

from repro.models import DRNNRegressor, GRULayer, gradient_check


def toy_data(n=48, T=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T, d))
    y = np.tanh(X[:, -1, 0]) + 0.5 * X[:, :, 1].mean(axis=1)
    return X, y


def test_gru_gradients_match_finite_differences():
    X, y = toy_data(n=6, T=4, d=2)
    model = DRNNRegressor(
        input_dim=2, hidden_sizes=(5,), seed=1, l2=0.0, cell="gru"
    )
    assert gradient_check(model, X, y, n_checks=15) < 1e-5


def test_gru_deep_gradients_exact():
    X, y = toy_data(n=5, T=4, d=2)
    model = DRNNRegressor(
        input_dim=2, hidden_sizes=(4, 3), seed=2, l2=1e-4, cell="gru"
    )
    assert gradient_check(model, X, y, n_checks=15) < 1e-5


def test_gru_learns():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(256, 5, 2))
    y = 1.5 * X[:, -1, 0] - 0.5 * X[:, -1, 1]
    model = DRNNRegressor(
        input_dim=2, hidden_sizes=(24,), epochs=120, lr=5e-3, patience=0,
        seed=3, cell="gru",
    )
    model.fit(X, y)
    resid = np.mean((model.predict(X) - y) ** 2) / np.var(y)
    assert resid < 0.08


def test_gru_fewer_parameters_than_lstm():
    lstm = DRNNRegressor(input_dim=4, hidden_sizes=(16,), cell="lstm")
    gru = DRNNRegressor(input_dim=4, hidden_sizes=(16,), cell="gru")
    assert gru.n_parameters < lstm.n_parameters


def test_gru_layer_shapes_and_bounds():
    rng = np.random.default_rng(4)
    layer = GRULayer(3, 6, rng, "g")
    H = layer.forward(rng.normal(size=(7, 3, 4)))  # time-major (T, d, n)
    assert H.shape == (7, 6, 4)
    assert np.all(np.abs(H) <= 1.0)  # convex mix of tanh candidates


def test_gru_layer_backward_before_forward_raises():
    layer = GRULayer(2, 3, np.random.default_rng(0), "g")
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((1, 1, 3)))


def test_cell_validation():
    with pytest.raises(ValueError):
        DRNNRegressor(input_dim=2, hidden_sizes=(4,), cell="rnn")


def test_gru_save_load_roundtrip(tmp_path):
    X, y = toy_data(n=16)
    model = DRNNRegressor(
        input_dim=3, hidden_sizes=(5,), epochs=2, seed=5, cell="gru"
    )
    model.fit(X, y)
    path = tmp_path / "gru.npz"
    model.save(path)
    restored = DRNNRegressor.load(path)
    assert restored.cell == "gru"
    assert np.allclose(restored.predict(X), model.predict(X))
