"""The paper's DRNN: stacked LSTM + dense head, from scratch in NumPy.

Architecture (per the paper's description of a deep recurrent network over
multilevel runtime statistics): the input is a window of ``T`` intervals of
``d`` statistics; one or more LSTM layers encode the window; a dense head
maps the final hidden state to the predicted next-interval performance
value (a scalar regression).

Implementation notes (following the repository's HPC-Python guidelines):

* All math is batched NumPy — loops run only over time steps and layers.
* The recurrent layers work time-major and gate-major (states ``(T, h, n)``,
  gates ``(T, k*h, n)``), so every per-step slice is a contiguous block.
  The input projection of all timesteps is one GEMM before the recurrence
  and each weight gradient one GEMM after it; a step itself is one
  ``(k*h, h) @ (h, n)`` recurrent product plus elementwise gate algebra.
* All parameters of a model live in one flat vector (``theta``; ``params``
  are named views of it), so L2, clipping, Adam and checkpointing are
  whole-vector operations.
* Backpropagation-through-time is exact (verified by finite differences in
  ``tests/models/test_drnn.py`` and against a per-timestep oracle in
  ``tests/models/test_recurrent_oracle.py``); training uses Adam with
  global-norm gradient clipping and early stopping on a chronological
  validation tail.
* All randomness flows through one ``numpy.random.Generator``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def _sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    # Numerically stable and branch-free: with e = exp(-|x|) the value is
    # 1/(1+e) for x >= 0 and e/(1+e) below.  ``out`` may alias ``x``: x is
    # last read before the final divide writes.
    e = np.empty_like(x)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    return np.divide(num, e, out=e if out is None else out)


class _RecurrentLayer:
    """Shared machinery of the recurrent cells, in time-major layout.

    A sequence batch is ``(T, d, n)`` and gates are stacked gate-major as
    ``(T, k*h, n)``, so every per-step, per-gate slice is one contiguous
    block.  The input projection of all timesteps is one GEMM before the
    recurrence and the weight gradients are one GEMM each after it; a
    subclass supplies only the per-step cell algebra (``_steps`` /
    ``_bptt``) and the buffers it needs.
    """

    n_gates: int

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        name: str,
        dtype: np.dtype = np.float64,
    ) -> None:
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.name = name
        self.dtype = np.dtype(dtype)
        width = self.n_gates * hidden_dim
        sx = np.sqrt(6.0 / (input_dim + width))
        sh = np.sqrt(6.0 / (hidden_dim + width))
        self.params: Dict[str, np.ndarray] = {
            f"{name}/Wx": rng.uniform(-sx, sx, size=(input_dim, width)).astype(
                self.dtype, copy=False
            ),
            f"{name}/Wh": rng.uniform(-sh, sh, size=(hidden_dim, width)).astype(
                self.dtype, copy=False
            ),
            f"{name}/b": np.zeros(width, dtype=self.dtype),
        }
        self._cache: Optional[tuple] = None
        # Work arrays per (T, n).  Training touches a handful of shapes
        # (full batch, trailing partial batch, validation tail).  Every
        # array is fully overwritten by each pass except row 0 of the
        # state arrays, the zero initial state, which nothing writes.
        self._buffers: Dict[Tuple[int, int], Dict[str, np.ndarray]] = {}

    def _shapes(self, T: int, n: int) -> Dict[str, tuple]:
        h, w = self.hidden_dim, self.n_gates * self.hidden_dim
        return {
            "G": (T, w, n),  # pre-activations, then gate activations
            "H": (T + 1, h, n),  # H[t + 1] is the state after step t
            "dZ": (T, w, n),  # dL/d(pre-activation), seen through Wx and b
            "dh": (h, n),
            "dh_next": (h, n),
            "tmp": (h, n),
        }

    def forward(self, X: np.ndarray) -> np.ndarray:
        """``(T, d, n) -> (T, h, n)`` hidden states (a view of a work
        array: valid until the next forward pass of the same shape)."""
        T, _, n = X.shape
        buf = self._buffers.get((T, n))
        if buf is None:
            buf = self._buffers[T, n] = {
                k: np.zeros(s, dtype=self.dtype) for k, s in self._shapes(T, n).items()
            }
        G = buf["G"]
        np.matmul(self.params[f"{self.name}/Wx"].T, X, out=G)
        G += self.params[f"{self.name}/b"][:, None]
        self._steps(buf, self.params[f"{self.name}/Wh"].T)
        self._cache = (X, buf)
        return buf["H"][1:]

    def backward(self, dH: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Given ``dL/dH`` ``(T, h, n)`` for every timestep, return
        ``dL/dX`` ``(T, d, n)`` and the parameter gradients."""
        if self._cache is None:
            raise RuntimeError("backward() before forward()")
        X, buf = self._cache
        Wx = self.params[f"{self.name}/Wx"]
        buf["dh_next"][:] = 0.0
        # dZ is dL/d(pre-activation) as Wx and b see it, dZh as Wh sees it
        # (they differ only for the GRU, whose reset gate scales Wh's
        # candidate block).
        dZ, dZh = self._bptt(buf, dH, self.params[f"{self.name}/Wh"])
        grads = {
            f"{self.name}/Wx": np.matmul(X, dZ.transpose(0, 2, 1)).sum(axis=0),
            f"{self.name}/Wh": np.matmul(
                buf["H"][:-1], dZh.transpose(0, 2, 1)
            ).sum(axis=0),
            f"{self.name}/b": dZ.sum(axis=(0, 2)),
        }
        return np.matmul(Wx, dZ), grads


class LSTMLayer(_RecurrentLayer):
    """One LSTM layer processing full sequences with exact BPTT
    (gate order ``i, f, g, o``)."""

    n_gates = 4

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        name: str,
        dtype: np.dtype = np.float64,
    ) -> None:
        super().__init__(input_dim, hidden_dim, rng, name, dtype)
        # Forget-gate bias at 1: standard trick to keep early memory open.
        self.params[f"{name}/b"][hidden_dim : 2 * hidden_dim] = 1.0

    def _shapes(self, T: int, n: int) -> Dict[str, tuple]:
        h = self.hidden_dim
        return {
            **super()._shapes(T, n),
            "C": (T + 1, h, n),
            "tanhC": (T, h, n),
            "rec": (4 * h, n),
            "S": (T, 4 * h, n),
            "Q": (T, h, n),
            "dc": (h, n),
            "dc_next": (h, n),
        }

    def _steps(self, buf: Dict[str, np.ndarray], WhT: np.ndarray) -> None:
        h = self.hidden_dim
        G, H, C, tanhC = buf["G"], buf["H"], buf["C"], buf["tanhC"]
        rec, ig = buf["rec"], buf["tmp"]
        for t in range(len(G)):
            z = G[t]
            np.matmul(WhT, H[t], out=rec)
            z += rec
            i_f, g, o = z[: 2 * h], z[2 * h : 3 * h], z[3 * h :]
            _sigmoid(i_f, out=i_f)
            np.tanh(g, out=g)
            _sigmoid(o, out=o)
            c = C[t + 1]
            np.multiply(i_f[h:], C[t], out=c)
            np.multiply(i_f[:h], g, out=ig)
            c += ig
            np.tanh(c, out=tanhC[t])
            np.multiply(o, tanhC[t], out=H[t + 1])

    def _bptt(
        self, buf: Dict[str, np.ndarray], dH: np.ndarray, Wh: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        h = self.hidden_dim
        G, C, tanhC, S, Q, dZ = (buf[k] for k in ("G", "C", "tanhC", "S", "Q", "dZ"))
        dh, dh_next, dc, dc_next = (
            buf[k] for k in ("dh", "dh_next", "dc", "dc_next")
        )
        i, f, g, o = (G[:, k * h : (k + 1) * h] for k in range(4))
        # Everything that does not depend on the carried dh/dc, for all
        # timesteps at once: S is each gate's local derivative, dZ starts
        # as the factor multiplying (dc, dc, dc, dh) and Q is d(h)/d(c).
        np.subtract(1.0, G, out=S)
        S *= G
        Sg = S[:, 2 * h : 3 * h]
        np.multiply(g, g, out=Sg)
        np.subtract(1.0, Sg, out=Sg)
        dZ[:, :h] = g
        dZ[:, h : 2 * h] = C[:-1]
        dZ[:, 2 * h : 3 * h] = i
        dZ[:, 3 * h :] = tanhC
        dZ *= S
        np.multiply(tanhC, tanhC, out=Q)
        np.subtract(1.0, Q, out=Q)
        Q *= o
        dc_next[:] = 0.0
        n = dh.shape[1]
        for t in reversed(range(len(dH))):
            np.add(dH[t], dh_next, out=dh)
            np.multiply(dh, Q[t], out=dc)
            dc += dc_next
            dz = dZ[t]
            ifg = dz[: 3 * h].reshape(3, h, n)
            ifg *= dc
            dz[3 * h :] *= dh
            np.multiply(dc, f[t], out=dc_next)
            np.matmul(Wh, dz, out=dh_next)
        return dZ, dZ


class GRULayer(_RecurrentLayer):
    """One GRU layer processing full sequences with exact BPTT.

    Alternative recurrent cell for the DRNN (``cell="gru"``): ~25% fewer
    parameters than LSTM at equal width; gates ``r, z, c`` follow the
    standard formulation
    ``h_t = (1-z)*h_prev + z*tanh(W x + r * (U h_prev) + b)``.
    """

    n_gates = 3

    def _shapes(self, T: int, n: int) -> Dict[str, tuple]:
        h = self.hidden_dim
        return {
            **super()._shapes(T, n),
            "HW": (T, 3 * h, n),  # recurrent products Wh.T @ h_prev
            "CmH": (T, h, n),  # candidate minus previous state
            "S": (T, 3 * h, n),
            "one_minus_z": (T, h, n),
            "dZh": (T, 3 * h, n),  # dL/d(HW): the candidate block carries r
        }

    def _steps(self, buf: Dict[str, np.ndarray], WhT: np.ndarray) -> None:
        h = self.hidden_dim
        G, H, HW, CmH, tmp = (buf[k] for k in ("G", "H", "HW", "CmH", "tmp"))
        for t in range(len(G)):
            z, hw = G[t], HW[t]
            np.matmul(WhT, H[t], out=hw)
            r_z, c = z[: 2 * h], z[2 * h :]
            r_z += hw[: 2 * h]
            _sigmoid(r_z, out=r_z)
            np.multiply(r_z[:h], hw[2 * h :], out=tmp)
            c += tmp
            np.tanh(c, out=c)
            np.subtract(c, H[t], out=CmH[t])
            np.multiply(r_z[h:], CmH[t], out=H[t + 1])
            H[t + 1] += H[t]

    def _bptt(
        self, buf: Dict[str, np.ndarray], dH: np.ndarray, Wh: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        h = self.hidden_dim
        G, HW, CmH, S, dZ, dZh, one_minus_z = (
            buf[k] for k in ("G", "HW", "CmH", "S", "dZ", "dZh", "one_minus_z")
        )
        dh, dh_next, tmp = buf["dh"], buf["dh_next"], buf["tmp"]
        r, z, c = (G[:, k * h : (k + 1) * h] for k in range(3))
        # Everything that does not depend on the carried dh, for all
        # timesteps at once: S is each gate's local derivative and dZ
        # starts as the factor multiplying (d_c, dh, dh), d_c being the
        # candidate's own pre-activation gradient.
        np.subtract(1.0, z, out=one_minus_z)
        np.subtract(1.0, G, out=S)
        S *= G
        Sc = S[:, 2 * h :]
        np.multiply(c, c, out=Sc)
        np.subtract(1.0, Sc, out=Sc)
        dZ[:, :h] = HW[:, 2 * h :]
        dZ[:, h : 2 * h] = CmH
        dZ[:, 2 * h :] = z
        dZ *= S
        n = dh.shape[1]
        for t in reversed(range(len(dH))):
            np.add(dH[t], dh_next, out=dh)
            dz, dzh = dZ[t], dZh[t]
            zc = dz[h:].reshape(2, h, n)
            zc *= dh
            dz[:h] *= dz[2 * h :]
            dzh[: 2 * h] = dz[: 2 * h]
            np.multiply(dz[2 * h :], r[t], out=dzh[2 * h :])
            np.matmul(Wh, dzh, out=dh_next)
            np.multiply(dh, one_minus_z[t], out=tmp)
            dh_next += tmp
        return dZ, dZh


class Dense:
    """Affine layer ``y = X @ W + b`` (the regression head)."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        rng: np.random.Generator,
        name: str,
        dtype: np.dtype = np.float64,
    ) -> None:
        s = np.sqrt(6.0 / (input_dim + output_dim))
        self.name = name
        self.params = {
            f"{name}/W": rng.uniform(-s, s, size=(input_dim, output_dim)).astype(
                np.dtype(dtype), copy=False
            ),
            f"{name}/b": np.zeros(output_dim, dtype=np.dtype(dtype)),
        }
        self._cache: Optional[np.ndarray] = None

    def forward(self, X: np.ndarray) -> np.ndarray:
        self._cache = X
        return X @ self.params[f"{self.name}/W"] + self.params[f"{self.name}/b"]

    def backward(self, dY: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        X = self._cache
        if X is None:
            raise RuntimeError("backward() before forward()")
        W = self.params[f"{self.name}/W"]
        grads = {
            f"{self.name}/W": X.T @ dY,
            f"{self.name}/b": dY.sum(axis=0),
        }
        return dY @ W.T, grads


def pack_params(owners: Sequence) -> Tuple[np.ndarray, Dict[str, np.ndarray], np.ndarray]:
    """Move every owner's ``params`` into one flat vector.

    Returns ``(theta, params, decay)``: the vector, the name -> array dict
    over all owners whose arrays are now views of consecutive slices of
    ``theta`` (each owner's own dict is rebound to the same views), and a
    0/1 vector marking the entries L2 applies to (everything but biases).
    Whole-model updates, snapshots and penalties are then single vector
    operations on ``theta``.
    """
    arrays = {k: p for owner in owners for k, p in owner.params.items()}
    theta = np.concatenate([p.ravel() for p in arrays.values()])
    decay = np.concatenate(
        [np.full(p.size, not k.endswith("/b"), theta.dtype) for k, p in arrays.items()]
    )
    cuts = np.cumsum([p.size for p in arrays.values()])[:-1]
    params = {
        k: view.reshape(p.shape)
        for (k, p), view in zip(arrays.items(), np.split(theta, cuts))
    }
    for owner in owners:
        owner.params = {k: params[k] for k in owner.params}
    return theta, params, decay


def flat_loss_and_grad(
    model, loss: float, grads: Dict[str, np.ndarray]
) -> Tuple[float, np.ndarray]:
    """Gather named gradients into one vector aligned with ``model.theta``
    and add the L2 penalty to both the loss and the gradient."""
    grad = np.concatenate([grads[k].ravel() for k in model.params])
    if model.l2 > 0:
        decayed = model.theta * model.decay
        loss += model.l2 * float(decayed @ model.theta)
        decayed *= 2.0 * model.l2
        grad += decayed
    return loss, grad


class Adam:
    """Adam optimiser over a named parameter dict, updated in place."""

    def __init__(
        self,
        params: Dict[str, np.ndarray],
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: np.empty_like(v) for k, v in params.items()}

    def step(self, grads: Dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            m, v, s = self.m[k], self.v[k], self._scratch[k]
            m *= self.beta1
            np.multiply(g, 1 - self.beta1, out=s)
            m += s
            v *= self.beta2
            np.multiply(g, g, out=s)
            s *= 1 - self.beta2
            v += s
            np.divide(v, b2c, out=s)  # v_hat
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, s, out=s)
            s *= self.lr / b1c  # lr * m_hat / (sqrt(v_hat) + eps)
            self.params[k] -= s


def clip_by_global_norm(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    """In-place global-norm clipping; returns the pre-clip norm."""
    total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= scale
    return total


@dataclass
class TrainHistory:
    """Loss trajectory recorded during :meth:`DRNNRegressor.fit`."""

    train_loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    stopped_epoch: int = 0
    #: learning rate in effect after each epoch (changes only when the
    #: validation-driven decay schedule is enabled)
    lr: List[float] = field(default_factory=list)


def fit_regressor(model, X: np.ndarray, y: np.ndarray, verbose: bool = False):
    """Shared mini-batch training loop for the from-scratch regressors.

    Drives any model exposing ``theta`` (its flat parameter vector, see
    :func:`pack_params`), ``loss_and_grads`` (loss and flat gradient for
    one batch) and ``forward`` plus the optimisation attributes (``lr``,
    ``epochs``, ``batch_size``, ``clip_norm``, ``patience``,
    ``val_fraction``, ``rng``, ``dtype``, ``history``) — the DRNN and the
    TCN share this loop so training discipline (Adam, global-norm
    clipping, chronological validation tail, best-checkpoint restore) is
    implemented exactly once.

    Two optional attributes extend the basic loop:

    ``accum_steps``
        Accumulate gradients over that many consecutive mini-batches and
        apply one (averaged) optimiser step per group — large effective
        batches without the memory of materialising them.  ``1`` (the
        default) is a group of one: one step per batch.
    ``lr_decay`` / ``decay_patience``
        When the validation loss has not improved for ``decay_patience``
        consecutive epochs, multiply the learning rate by ``lr_decay``
        (and keep training; early stopping still uses ``patience``).
        ``lr_decay=1.0`` or ``decay_patience=0`` disables the schedule.

    A non-finite gradient raises :class:`FloatingPointError` instead of
    being written into the weights.
    """
    X = np.asarray(X, dtype=model.dtype)
    y = np.asarray(y, dtype=model.dtype).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError("X/y length mismatch")
    if X.shape[0] < 4:
        raise ValueError("need at least 4 training samples")
    n_val = (
        max(1, int(X.shape[0] * model.val_fraction)) if model.patience > 0 else 0
    )
    if n_val and X.shape[0] - n_val < 2:
        n_val = 0
    X_tr, y_tr = (X[:-n_val], y[:-n_val]) if n_val else (X, y)
    X_val, y_val = (X[-n_val:], y[-n_val:]) if n_val else (None, None)

    accum_steps = int(getattr(model, "accum_steps", 1))
    lr_decay = float(getattr(model, "lr_decay", 1.0))
    decay_patience = int(getattr(model, "decay_patience", 0))
    decay_on = lr_decay < 1.0 and decay_patience > 0

    # To the optimiser the whole model is one named array.
    opt = Adam({"theta": model.theta}, lr=model.lr)
    best_val = np.inf
    best_theta: Optional[np.ndarray] = None
    bad_epochs = 0
    decay_bad = 0
    n = X_tr.shape[0]
    starts = range(0, n, model.batch_size)
    for epoch in range(model.epochs):
        order = model.rng.permutation(n)
        epoch_loss = 0.0
        group = None  # gradient sum over the current accumulation group
        group_size = 0
        for batch, start in enumerate(starts):
            idx = order[start : start + model.batch_size]
            loss, grad = model.loss_and_grads(X_tr[idx], y_tr[idx])
            epoch_loss += loss
            # ``loss_and_grads`` returns a fresh vector, so the group's
            # first gradient is taken over as the accumulator in place.
            if group_size:
                group += grad
            else:
                group = grad
            group_size += 1
            if group_size == accum_steps or batch == len(starts) - 1:
                group /= group_size
                step = {"theta": group}
                norm = clip_by_global_norm(step, model.clip_norm)
                if not np.isfinite(norm):
                    raise FloatingPointError(
                        f"non-finite gradient norm ({norm}) at epoch {epoch}, "
                        f"batch {batch}: check the training data for NaN/inf"
                    )
                opt.step(step)
                group_size = 0
        model.history.train_loss.append(epoch_loss / len(starts))
        if n_val:
            val_pred = model.forward(X_val)
            val_loss = float(np.mean((val_pred - y_val) ** 2))
            model.history.val_loss.append(val_loss)
            if val_loss < best_val - 1e-12:
                best_val = val_loss
                best_theta = model.theta.copy()
                bad_epochs = 0
                decay_bad = 0
            else:
                bad_epochs += 1
                decay_bad += 1
                if decay_on and decay_bad >= decay_patience:
                    opt.lr *= lr_decay
                    decay_bad = 0
                if bad_epochs >= model.patience:
                    model.history.lr.append(opt.lr)
                    model.history.stopped_epoch = epoch + 1
                    break
        model.history.lr.append(opt.lr)
        if verbose:  # pragma: no cover - debugging aid
            print(f"epoch {epoch}: loss={model.history.train_loss[-1]:.5f}")
    if best_theta is not None:
        model.theta[:] = best_theta
    if not model.history.stopped_epoch:
        model.history.stopped_epoch = len(model.history.train_loss)
    return model


class DRNNRegressor:
    """Deep recurrent regressor: stacked LSTMs + dense head.

    Parameters
    ----------
    input_dim:
        Feature count per interval.
    hidden_sizes:
        Width of each recurrent layer; depth = ``len(hidden_sizes)``
        (the paper's "deep" RNN — ablated in experiment E9).
    lr, epochs, batch_size, clip_norm, l2:
        Optimisation knobs.
    patience:
        Early-stopping patience on the validation tail (0 disables).
    val_fraction:
        Chronological tail of the training set held out for early stopping.
    accum_steps:
        Mini-batches whose gradients are accumulated (then averaged) per
        optimiser step.  ``1`` (default) steps once per batch; larger
        values give large effective batches at mini-batch memory cost.
    lr_decay, decay_patience:
        Validation-driven learning-rate schedule: after ``decay_patience``
        epochs without validation improvement, multiply the learning rate
        by ``lr_decay``.  Disabled by default (``lr_decay=1.0``).
    seed:
        Initialisation/shuffling seed.
    cell:
        Recurrent cell type: ``"lstm"`` (default, the paper's) or
        ``"gru"`` (lighter alternative from the same DRNN family).
    dtype:
        ``"float64"`` (default, exact BPTT reference precision) or
        ``"float32"`` — halves the working set and speeds up the GEMMs
        at a small accuracy cost.  Initial weights are drawn in float64
        and rounded, so two models differing only in dtype start from
        the same point.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_sizes: Sequence[int] = (32, 32),
        lr: float = 3e-3,
        epochs: int = 60,
        batch_size: int = 32,
        clip_norm: float = 5.0,
        l2: float = 1e-5,
        patience: int = 8,
        val_fraction: float = 0.15,
        seed: int = 0,
        cell: str = "lstm",
        dtype: str = "float64",
        accum_steps: int = 1,
        lr_decay: float = 1.0,
        decay_patience: int = 0,
    ) -> None:
        if not hidden_sizes:
            raise ValueError("need at least one recurrent layer")
        if cell not in ("lstm", "gru"):
            raise ValueError(f"cell must be 'lstm' or 'gru', got {cell!r}")
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        if accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        if not 0.0 < lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if decay_patience < 0:
            raise ValueError("decay_patience must be >= 0")
        self.cell = cell
        self.dtype = np.dtype(dtype)
        self.input_dim = input_dim
        self.hidden_sizes = tuple(hidden_sizes)
        self.lr = lr
        self.epochs = epochs
        self.batch_size = batch_size
        self.clip_norm = clip_norm
        self.l2 = l2
        self.patience = patience
        self.val_fraction = val_fraction
        self.accum_steps = int(accum_steps)
        self.lr_decay = float(lr_decay)
        self.decay_patience = int(decay_patience)
        self.rng = np.random.default_rng(seed)
        layer_cls = LSTMLayer if cell == "lstm" else GRULayer
        self.layers: List = []
        dim = input_dim
        for li, h in enumerate(self.hidden_sizes):
            self.layers.append(
                layer_cls(dim, h, self.rng, name=f"{cell}{li}", dtype=self.dtype)
            )
            dim = h
        self.head = Dense(dim, 1, self.rng, name="head", dtype=self.dtype)
        self.theta, self.params, self.decay = pack_params([*self.layers, self.head])
        self.history = TrainHistory()

    # -- forward / backward --------------------------------------------------------

    def forward(self, X: np.ndarray) -> np.ndarray:
        """``(n, T, d) -> (n,)`` predictions."""
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim != 3 or X.shape[2] != self.input_dim:
            raise ValueError(
                f"expected (n, T, {self.input_dim}), got {X.shape}"
            )
        # The layers work time-major; this is the one transpose per batch.
        H = np.ascontiguousarray(X.transpose(1, 2, 0))
        for layer in self.layers:
            H = layer.forward(H)
        return self.head.forward(H[-1].T).ravel()

    predict = forward

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """MSE loss (+ L2) and its exact gradient for one batch, as one
        vector aligned with ``theta``."""
        y = np.asarray(y, dtype=self.dtype).ravel()
        pred = self.forward(X)
        n = y.shape[0]
        err = pred - y
        loss = float(err @ err) / n
        d_pred = (2.0 / n) * err
        d_last, grads = self.head.backward(d_pred[:, None])
        # Only the final timestep of the top layer receives head gradient.
        dH = np.zeros((X.shape[1], self.hidden_sizes[-1], n), dtype=self.dtype)
        dH[-1] = d_last.T
        for layer in reversed(self.layers):
            dH, layer_grads = layer.backward(dH)
            grads.update(layer_grads)
        return flat_loss_and_grad(self, loss, grads)

    # -- training -------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, verbose: bool = False) -> "DRNNRegressor":
        return fit_regressor(self, X, y, verbose=verbose)

    @property
    def n_parameters(self) -> int:
        return self.theta.size

    # -- persistence -----------------------------------------------------------------

    def save(self, path) -> None:
        """Serialise architecture + weights to an ``.npz`` file."""
        meta = np.array(
            [
                self.input_dim,
                len(self.hidden_sizes),
                *self.hidden_sizes,
                0 if self.cell == "lstm" else 1,
                0 if self.dtype == np.float64 else 1,
            ],
            dtype=np.int64,
        )
        np.savez(path, __meta__=meta, **self.params)

    @classmethod
    def load(cls, path) -> "DRNNRegressor":
        """Restore a model saved with :meth:`save` (weights + architecture;
        training hyper-parameters revert to defaults)."""
        with np.load(path) as data:
            meta = data["__meta__"]
            input_dim = int(meta[0])
            n_layers = int(meta[1])
            hidden = tuple(int(h) for h in meta[2 : 2 + n_layers])
            cell = "lstm"
            if len(meta) > 2 + n_layers and int(meta[2 + n_layers]) == 1:
                cell = "gru"
            dtype = "float64"
            if len(meta) > 3 + n_layers and int(meta[3 + n_layers]) == 1:
                dtype = "float32"
            model = cls(
                input_dim=input_dim, hidden_sizes=hidden, cell=cell, dtype=dtype
            )
            for key in model.params:
                if key not in data:
                    raise ValueError(f"checkpoint is missing parameter {key!r}")
                if data[key].shape != model.params[key].shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: checkpoint "
                        f"{data[key].shape} vs model {model.params[key].shape}"
                    )
                model.params[key][...] = data[key]
        return model


def gradient_check(
    model: DRNNRegressor,
    X: np.ndarray,
    y: np.ndarray,
    n_checks: int = 10,
    eps: float = 1e-6,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error of directional derivatives vs analytic gradients.

    For ``n_checks`` random unit directions ``v`` over the *whole* parameter
    vector, compares ``(L(θ+εv) - L(θ-εv)) / 2ε`` against ``g·v``.  The
    directional form aggregates over all coordinates, so it is immune to
    the roundoff blow-up that per-coordinate checks suffer on the tiny
    gradients deep inside a stacked RNN.  Exact BPTT keeps this < 1e-5 in
    float64; a systematic gradient bug pushes it far above.
    """
    rng = rng or np.random.default_rng(0)
    theta = model.theta
    _, grad = model.loss_and_grads(X, y)
    worst = 0.0
    for _ in range(n_checks):
        direction = rng.normal(size=theta.shape)
        direction /= np.sqrt(direction @ direction)
        analytic = float(grad @ direction)
        theta += eps * direction
        lp, _ = model.loss_and_grads(X, y)
        theta -= 2 * eps * direction
        lm, _ = model.loss_and_grads(X, y)
        theta += eps * direction
        numeric = (lp - lm) / (2 * eps)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst
