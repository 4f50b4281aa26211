"""The time-major recurrent layers against a textbook per-timestep oracle.

``oracle_layer`` is the plain formulation — ``(n, T, d)`` arrays, one
timestep at a time, fresh temporaries, weight gradients accumulated step
by step — that the buffered, hoisted implementation in
``repro.models.drnn`` must reproduce to float64 round-off.
"""

import numpy as np
import pytest

from repro.models import DRNNRegressor, gradient_check


def _sig(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_layer(cell, Wx, Wh, b, X, dH_of):
    """Forward ``X (n, T, d)`` to ``H (n, T, h)``; then, with
    ``dH = dH_of(H)``, exact BPTT.  Returns ``H, dX, dWx, dWh, db``."""
    n, T, _ = X.shape
    h = Wh.shape[0]
    H, steps = np.zeros((n, T, h)), []
    h_prev, c_prev = np.zeros((n, h)), np.zeros((n, h))
    for t in range(T):
        if cell == "lstm":
            a = X[:, t] @ Wx + h_prev @ Wh + b
            i, f, o = _sig(a[:, :h]), _sig(a[:, h : 2 * h]), _sig(a[:, 3 * h :])
            g = np.tanh(a[:, 2 * h : 3 * h])
            c = f * c_prev + i * g
            H[:, t] = o * np.tanh(c)
            steps.append((h_prev, c_prev, i, f, g, o, c))
            c_prev = c
        else:
            xw, hw = X[:, t] @ Wx + b, h_prev @ Wh
            r, z = _sig(xw[:, :h] + hw[:, :h]), _sig(xw[:, h : 2 * h] + hw[:, h : 2 * h])
            c = np.tanh(xw[:, 2 * h :] + r * hw[:, 2 * h :])
            H[:, t] = (1.0 - z) * h_prev + z * c
            steps.append((h_prev, hw[:, 2 * h :], r, z, c))
        h_prev = H[:, t]
    dH = dH_of(H)
    dX = np.zeros_like(X)
    dWx, dWh, db = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros_like(b)
    dh_next, dc_next = np.zeros((n, h)), np.zeros((n, h))
    for t in range(T - 1, -1, -1):
        dh = dH[:, t] + dh_next
        if cell == "lstm":
            h_prev, c_prev, i, f, g, o, c = steps[t]
            dc = dh * o * (1.0 - np.tanh(c) ** 2) + dc_next
            da = np.hstack([
                dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g**2), dh * np.tanh(c) * o * (1.0 - o),
            ])
            dah, dh_next, dc_next = da, da @ Wh.T, dc * f
        else:
            h_prev, hw_c, r, z, c = steps[t]
            d_c = dh * z * (1.0 - c**2)
            d_r = d_c * hw_c * r * (1.0 - r)
            d_z = dh * (c - h_prev) * z * (1.0 - z)
            da = np.hstack([d_r, d_z, d_c])
            dah = np.hstack([d_r, d_z, d_c * r])
            dh_next = dh * (1.0 - z) + dah @ Wh.T
        dWx += X[:, t].T @ da
        dWh += h_prev.T @ dah
        db += da.sum(axis=0)
        dX[:, t] = da @ Wx.T
    return H, dX, dWx, dWh, db


def _rel(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("hidden", [(5,), (6, 4)])
@pytest.mark.parametrize("n", [1, 7, 32])
@pytest.mark.parametrize("T", [1, 6])
def test_layers_match_the_textbook_oracle(cell, hidden, n, T):
    d = 3
    rng = np.random.default_rng(n * 10 + T)
    X, y = rng.normal(size=(n, T, d)), rng.normal(size=n)
    model = DRNNRegressor(input_dim=d, hidden_sizes=hidden, cell=cell, seed=1, l2=0.0)
    _, grad = model.loss_and_grads(X, y)
    got = dict(zip(model.params, np.split(grad, np.cumsum(
        [p.size for p in model.params.values()])[:-1])))
    # the model's own hidden states, back in (n, T, h)
    states = [layer._cache[1]["H"][1:].transpose(2, 0, 1).copy() for layer in model.layers]

    W, bias = model.params["head/W"], model.params["head/b"]
    # Oracle, top down: each layer's dH comes from the one above it.
    inputs = [X]
    for li in range(len(hidden)):
        name = f"{cell}{li}"
        H = oracle_layer(cell, *(model.params[f"{name}/{k}"] for k in ("Wx", "Wh", "b")),
                         inputs[-1], np.zeros_like)[0]
        assert _rel(states[li], H) <= 1e-12
        inputs.append(H)
    err = (inputs[-1][:, -1] @ W + bias).ravel() - y
    d_last = (2.0 / n) * err[:, None] @ W.T
    assert _rel(got["head/W"].reshape(W.shape), inputs[-1][:, -1].T @ ((2.0 / n) * err[:, None])) <= 1e-12
    assert _rel(got["head/b"], np.array([(2.0 / n) * err.sum()])) <= 1e-12

    def top(H):
        dH = np.zeros_like(H)
        dH[:, -1] = d_last
        return dH

    dH_of = top
    for li in reversed(range(len(hidden))):
        name = f"{cell}{li}"
        Wx, Wh, b = (model.params[f"{name}/{k}"] for k in ("Wx", "Wh", "b"))
        _, dX, dWx, dWh, db = oracle_layer(cell, Wx, Wh, b, inputs[li], dH_of)
        for key, want in (("Wx", dWx), ("Wh", dWh), ("b", db)):
            assert _rel(got[f"{name}/{key}"].reshape(want.shape), want) <= 1e-12, (name, key)
        dH_of = lambda H, dX=dX: dX  # noqa: E731 - the layer below sees dX


@pytest.mark.parametrize("cell", ["lstm", "gru"])
@pytest.mark.parametrize("hidden", [(6,), (5, 4)])
def test_gradient_check_both_cells_one_and_two_layers(cell, hidden):
    rng = np.random.default_rng(3)
    X, y = rng.normal(size=(7, 6, 3)), rng.normal(size=7)
    model = DRNNRegressor(input_dim=3, hidden_sizes=hidden, cell=cell, seed=2, l2=1e-4)
    assert gradient_check(model, X, y, n_checks=15) < 1e-5


@pytest.mark.parametrize("cell", ["lstm", "gru"])
def test_work_arrays_never_leak_between_fits_and_batch_shapes(cell):
    # 41 samples, val tail 6, batch 16: full batches of 16, a trailing
    # batch of 3 and a validation pass at n=6 all reuse per-shape work
    # arrays; a second fit on other data and a predict at n=8 follow.  A
    # model that only ever saw the second fit must agree bit for bit.
    rng = np.random.default_rng(5)
    X1, y1 = rng.normal(size=(41, 5, 3)), rng.normal(size=41)
    X2, y2 = rng.normal(size=(41, 5, 3)), rng.normal(size=41)
    Xp = rng.normal(size=(8, 5, 3))

    def build():
        return DRNNRegressor(
            input_dim=3, hidden_sizes=(6, 4), cell=cell, epochs=3,
            batch_size=16, patience=2, seed=9,
        )

    used = build()
    used.fit(X1, y1)
    used.predict(Xp)
    # Back to a fresh model's weights, RNG and history: only the dirty
    # work arrays distinguish ``used`` from ``ref`` now.
    blank = build()
    used.theta[:] = blank.theta
    used.rng, used.history = blank.rng, blank.history
    used.fit(X2, y2)
    ref = build().fit(X2, y2)
    np.testing.assert_array_equal(used.theta, ref.theta)
    assert used.history.val_loss == ref.history.val_loss
    np.testing.assert_array_equal(used.predict(Xp), ref.predict(Xp))
    np.testing.assert_array_equal(used.predict(X2[:3]), ref.predict(X2[:3]))
