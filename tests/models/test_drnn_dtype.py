"""Tests for the DRNN's dtype option and preallocated-buffer reuse."""

import numpy as np
import pytest

from repro.models import DRNNRegressor


def _data(n=24, T=5, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, T, d)), rng.normal(size=n)


def test_invalid_dtype_rejected():
    with pytest.raises(ValueError, match="dtype"):
        DRNNRegressor(input_dim=3, dtype="float16")


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_float32_trains_and_predicts(cell):
    X, y = _data()
    model = DRNNRegressor(
        input_dim=4, hidden_sizes=(6,), epochs=2, patience=0,
        seed=0, cell=cell, dtype="float32",
    )
    assert all(p.dtype == np.float32 for p in model.params.values())
    model.fit(X, y)
    pred = model.predict(X)
    assert pred.dtype == np.float32
    assert np.all(np.isfinite(pred))


def test_float32_initial_weights_round_from_float64():
    m64 = DRNNRegressor(input_dim=4, hidden_sizes=(6,), seed=3)
    m32 = DRNNRegressor(input_dim=4, hidden_sizes=(6,), seed=3, dtype="float32")
    for key in m64.params:
        np.testing.assert_array_equal(
            m64.params[key].astype(np.float32), m32.params[key]
        )


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_save_load_round_trips_dtype(tmp_path, dtype):
    X, y = _data()
    model = DRNNRegressor(
        input_dim=4, hidden_sizes=(5, 3), epochs=2, patience=0,
        seed=1, dtype=dtype,
    )
    model.fit(X, y)
    path = tmp_path / "model.npz"
    model.save(path)
    loaded = DRNNRegressor.load(path)
    assert loaded.dtype == np.dtype(dtype)
    assert loaded.hidden_sizes == (5, 3)
    np.testing.assert_array_equal(model.predict(X), loaded.predict(X))


def test_float32_minibatch_tracks_float64_within_tolerance():
    # The float32 mini-batch/accumulation path starts from the same
    # rounded weights as float64 (see above) and must stay within single
    # precision round-off of the float64 reference over a short training
    # run — the pinned tolerance for the ``dtype="float32"`` fast path.
    X, y = _data(n=32)
    preds = {}
    for dtype in ("float64", "float32"):
        model = DRNNRegressor(
            input_dim=4, hidden_sizes=(6,), epochs=3, patience=0,
            seed=5, batch_size=8, accum_steps=2, dtype=dtype,
        )
        model.fit(X, y)
        preds[dtype] = model.predict(X).astype(np.float64)
    scale = float(np.std(y))
    assert np.max(np.abs(preds["float32"] - preds["float64"])) < 1e-3 * scale


def test_buffer_reuse_does_not_leak_state_between_batches():
    # forward/backward scratch buffers are cached per (kind, n, T): runs
    # with different shapes interleaved must not contaminate each other.
    X1, y1 = _data(n=16, T=5, d=4, seed=0)
    X2, _ = _data(n=7, T=9, d=4, seed=1)
    model = DRNNRegressor(
        input_dim=4, hidden_sizes=(6,), epochs=2, patience=0, seed=0
    )
    model.fit(X1, y1)
    first = model.predict(X1)
    model.predict(X2)  # different (n, T): new buffer set
    again = model.predict(X1)  # back to the first buffer set
    np.testing.assert_array_equal(first, again)
