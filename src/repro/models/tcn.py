"""A small causal temporal-convolution regressor (TCN), NumPy from scratch.

The convolutional counterpoint to the paper's DRNN: a stack of dilated
causal 1-D convolutions (dilation doubling per layer, left zero-padding,
ReLU) over the statistics window, with a dense head reading the final
timestep.  Convolutions parallelise over the whole window — there is no
sequential state recurrence — so both forward and backward are a handful
of fused GEMMs per layer.

Training reuses the exact optimisation machinery of the DRNN
(:func:`repro.models.drnn.fit_regressor`: Adam, global-norm clipping,
chronological validation tail with best-checkpoint restore, gradient
accumulation, validation-driven LR decay), and gradients are exact —
verified by the same directional-derivative ``gradient_check`` the
recurrent cells are held to.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.drnn import (
    Dense,
    TrainHistory,
    fit_regressor,
    flat_loss_and_grad,
    pack_params,
)


class CausalConv1D:
    """One dilated causal convolution layer over ``(n, T, c_in)`` inputs.

    Output ``Z[:, t] = b + sum_k X[:, t - (K-1-k)*dilation] @ W[k]`` with
    zero padding for negative time indices, optionally followed by ReLU.
    Each tap ``k`` is one ``(n*T, c_in) @ (c_in, c_out)`` GEMM over a
    shifted view of the padded input — no im2col materialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        dilation: int,
        rng: np.random.Generator,
        name: str,
        dtype: np.dtype = np.float64,
        activation: bool = True,
    ) -> None:
        if in_channels < 1 or out_channels < 1:
            raise ValueError("channel counts must be positive")
        if kernel_size < 1 or dilation < 1:
            raise ValueError("kernel_size and dilation must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        self.name = name
        self.dtype = np.dtype(dtype)
        self.activation = activation
        s = np.sqrt(6.0 / (kernel_size * in_channels + out_channels))
        self.params: Dict[str, np.ndarray] = {
            f"{name}/W": rng.uniform(
                -s, s, size=(kernel_size, in_channels, out_channels)
            ).astype(self.dtype, copy=False),
            f"{name}/b": np.zeros(out_channels, dtype=self.dtype),
        }
        self._cache: Optional[tuple] = None

    @property
    def receptive_field(self) -> int:
        return (self.kernel_size - 1) * self.dilation + 1

    def forward(self, X: np.ndarray) -> np.ndarray:
        """``(n, T, c_in) -> (n, T, c_out)``."""
        n, T, ci = X.shape
        K, dil = self.kernel_size, self.dilation
        W = self.params[f"{self.name}/W"]
        b = self.params[f"{self.name}/b"]
        pad = (K - 1) * dil
        Xp = np.zeros((n, T + pad, ci), dtype=self.dtype)
        Xp[:, pad:] = X
        Z = np.broadcast_to(b, (n, T, self.out_channels)).copy()
        flatZ = Z.reshape(n * T, self.out_channels)
        for k in range(K):
            # tap k reads input time ``t - (K-1-k)*dil`` = Xp[:, k*dil + t]
            tap = Xp[:, k * dil : k * dil + T]
            flatZ += tap.reshape(n * T, ci) @ W[k]
        A = np.maximum(Z, 0.0) if self.activation else Z
        self._cache = (Xp, Z)
        return A

    def backward(self, dA: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        if self._cache is None:
            raise RuntimeError("backward() before forward()")
        Xp, Z = self._cache
        n, T, co = dA.shape
        K, dil, ci = self.kernel_size, self.dilation, self.in_channels
        W = self.params[f"{self.name}/W"]
        pad = (K - 1) * dil
        dZ = dA * (Z > 0) if self.activation else dA
        flat_dZ = dZ.reshape(n * T, co)
        dW = np.empty_like(W)
        dXp = np.zeros_like(Xp)
        for k in range(K):
            tap = Xp[:, k * dil : k * dil + T]
            dW[k] = tap.reshape(n * T, ci).T @ flat_dZ
            dXp[:, k * dil : k * dil + T] += (flat_dZ @ W[k].T).reshape(
                n, T, ci
            )
        grads = {
            f"{self.name}/W": dW,
            f"{self.name}/b": dZ.sum(axis=(0, 1)),
        }
        return dXp[:, pad:], grads


class TCNRegressor:
    """Causal temporal-convolution regressor over statistics windows.

    Parameters mirror :class:`repro.models.drnn.DRNNRegressor` where they
    share meaning; ``channels`` sets the width of each conv layer (depth =
    ``len(channels)``, dilation ``2**i`` at layer ``i``) and
    ``kernel_size`` the taps per layer.
    """

    def __init__(
        self,
        input_dim: int,
        channels: Sequence[int] = (16, 16),
        kernel_size: int = 2,
        lr: float = 3e-3,
        epochs: int = 60,
        batch_size: int = 32,
        clip_norm: float = 5.0,
        l2: float = 1e-5,
        patience: int = 8,
        val_fraction: float = 0.15,
        seed: int = 0,
        dtype: str = "float64",
        accum_steps: int = 1,
        lr_decay: float = 1.0,
        decay_patience: int = 0,
    ) -> None:
        if not channels:
            raise ValueError("need at least one convolution layer")
        if dtype not in ("float64", "float32"):
            raise ValueError(
                f"dtype must be 'float64' or 'float32', got {dtype!r}"
            )
        if accum_steps < 1:
            raise ValueError("accum_steps must be >= 1")
        if not 0.0 < lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        self.input_dim = input_dim
        self.channels = tuple(channels)
        self.kernel_size = int(kernel_size)
        self.dtype = np.dtype(dtype)
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
        self.layers: List[CausalConv1D] = []
        dim = input_dim
        for li, c in enumerate(self.channels):
            self.layers.append(
                CausalConv1D(
                    dim, c, self.kernel_size, dilation=2 ** li,
                    rng=self.rng, name=f"tcn{li}", dtype=self.dtype,
                )
            )
            dim = c
        self.head = Dense(dim, 1, self.rng, name="head", dtype=self.dtype)
        self.theta, self.params, self.decay = pack_params([*self.layers, self.head])
        self.history = TrainHistory()

    @property
    def receptive_field(self) -> int:
        """Timesteps of history the final output can see."""
        return 1 + sum(
            (layer.kernel_size - 1) * layer.dilation for layer in self.layers
        )

    # -- forward / backward --------------------------------------------------------

    def forward(self, X: np.ndarray) -> np.ndarray:
        """``(n, T, d) -> (n,)`` predictions (from the final timestep)."""
        X = np.asarray(X, dtype=self.dtype)
        if X.ndim != 3 or X.shape[2] != self.input_dim:
            raise ValueError(
                f"expected (n, T, {self.input_dim}), got {X.shape}"
            )
        H = X
        for layer in self.layers:
            H = layer.forward(H)
        return self.head.forward(H[:, -1, :]).ravel()

    predict = forward

    def loss_and_grads(self, X: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        """MSE loss (+ L2) and its exact gradient for one batch, as one
        vector aligned with ``theta``."""
        y = np.asarray(y, dtype=self.dtype).ravel()
        pred = self.forward(X)
        n = y.shape[0]
        err = pred - y
        loss = float(np.mean(err**2))
        d_pred = (2.0 / n) * err
        d_last, grads = self.head.backward(d_pred[:, None])
        T = X.shape[1]
        dH = np.zeros((n, T, self.channels[-1]), dtype=self.dtype)
        dH[:, -1, :] = d_last
        for layer in reversed(self.layers):
            dH, layer_grads = layer.backward(dH)
            grads.update(layer_grads)
        return flat_loss_and_grad(self, loss, grads)

    # -- training -------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray, verbose: bool = False) -> "TCNRegressor":
        return fit_regressor(self, X, y, verbose=verbose)

    @property
    def n_parameters(self) -> int:
        return self.theta.size

    def __repr__(self) -> str:
        return (
            f"TCNRegressor(channels={self.channels}, "
            f"kernel_size={self.kernel_size}, "
            f"receptive_field={self.receptive_field})"
        )
