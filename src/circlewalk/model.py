"""The dense per-episode model, the test oracle.

f(X) = V X softmax(Xt^T W xt_N), where Xt = [X; P] stacks tokens on
positional columns and the query column xt_N carries positions only.
The softmax has no temperature scaling.  X is K x N, with one-hot columns
for positions 1..N-1 and an all-zero query column N.  Everything here
holds all five blocks of W and the (M, N) positional matrix P; `factor`
and `dense_params` carry parameters between it and the batched path.
The oracle imports the runtime modules, and no runtime module imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .gradients import FactoredParams, Geometry, geometry
from .posembed import build_positional
from .trainer import ZERO, TrainConfig, TrainTrace, gaussian_blocks, init_factors

__all__ = ["Params", "AttentionOutput", "softmax", "augment", "normalize_columns",
           "attention_logits", "forward", "loss_value", "tokens_from_states", "Grads",
           "grad_example", "fd_grad", "factor", "init_params", "dense_params"]


@dataclass(frozen=True)
class Params:
    """Value matrix V (K x K) and the four blocks of the attention matrix
    W = [[W11, W12], [W21, W22]] acting on stacked [token; position] vectors."""

    V: np.ndarray
    W11: np.ndarray  # K x K
    W12: np.ndarray  # K x M
    W21: np.ndarray  # M x K
    W22: np.ndarray  # M x M

    def __post_init__(self):
        K = self.V.shape[0]
        M = self.W22.shape[0]
        expected = {"V": (K, K), "W11": (K, K), "W12": (K, M),
                    "W21": (M, K), "W22": (M, M)}
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")

    @property
    def K(self) -> int:
        return self.V.shape[0]

    @property
    def M(self) -> int:
        return self.W22.shape[0]

    @staticmethod
    def zeros(K: int, M: int) -> "Params":
        return Params(
            V=np.zeros((K, K)), W11=np.zeros((K, K)), W12=np.zeros((K, M)),
            W21=np.zeros((M, K)), W22=np.zeros((M, M)),
        )

    @staticmethod
    def gaussian(K: int, M: int, sigma: float, rng: np.random.Generator) -> "Params":
        V, W11, W12, W21, *W22 = gaussian_blocks(K, M, sigma, rng)
        return Params(V=V, W11=W11, W12=W12, W21=W21, W22=np.concatenate(W22))


@dataclass(frozen=True)
class AttentionOutput:
    """Forward-pass internals for one episode."""

    z: np.ndarray  # attention logits, length N
    S: np.ndarray  # attention weights, length N
    f: np.ndarray  # output vector, length K
    pred: int  # 1-based predicted node


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite attention logits")
    e = np.exp(z - np.max(z))
    return e / e.sum()


def augment(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Stack tokens on top of positions: X_tilde = [X; P], (K+M) x N."""
    if X.ndim != 2 or X.shape[1] != P.shape[1]:
        raise ValueError(f"column mismatch: X has shape {X.shape}, P has shape {P.shape}")
    return np.concatenate([X, P], axis=0)


def normalize_columns(Xt: np.ndarray) -> np.ndarray:
    """Rescale every column to unit Euclidean length."""
    norms = np.linalg.norm(Xt, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a zero column")
    return Xt / norms


def attention_logits(params: Params, X: np.ndarray, P: np.ndarray,
                     normalize: bool = False) -> np.ndarray:
    """z = Xt^T W xt_N computed blockwise; x_N = 0 so the query side only
    sees W12/W22 acting on p_N."""
    Xt = augment(X, P)
    if normalize:
        Xt = normalize_columns(Xt)
    K = params.K
    xq, pq = Xt[:K, -1], Xt[K:, -1]
    w_query = np.concatenate([
        params.W11 @ xq + params.W12 @ pq,
        params.W21 @ xq + params.W22 @ pq,
    ])
    return Xt.T @ w_query


def forward(params: Params, X: np.ndarray, P: np.ndarray,
            normalize: bool = False) -> AttentionOutput:
    z = attention_logits(params, X, P, normalize=normalize)
    S = softmax(z)
    f = params.V @ (X @ S)
    return AttentionOutput(z=z, S=S, f=f, pred=int(np.argmax(f)) + 1)


def loss_value(f: np.ndarray, y: int, eps: float) -> float:
    """-log(f_y + eps); raises if the shifted score is outside the log domain."""
    arg = float(f[y - 1]) + eps
    if arg <= 0.0:
        raise ValueError(f"log-loss argument must be positive, got {arg}")
    return -float(np.log(arg))


def tokens_from_states(states: np.ndarray, K: int) -> np.ndarray:
    """Batch of state paths (B, N) -> token tensors (B, K, N); the final
    column of every matrix is zero (the query slot carries no token)."""
    states = np.asarray(states)
    B, N = states.shape
    X = np.zeros((B, K, N))
    b = np.repeat(np.arange(B), N - 1)
    j = np.tile(np.arange(N - 1), B)
    X[b, states[:, : N - 1].ravel() - 1, j] = 1.0
    return X


@dataclass(frozen=True)
class Grads:
    """Gradient of the log loss with respect to every parameter block."""

    gV: np.ndarray
    gW11: np.ndarray
    gW12: np.ndarray
    gW21: np.ndarray
    gW22: np.ndarray


def grad_example(params: Params, X: np.ndarray, y: int, P: np.ndarray,
                 eps: float, normalize: bool = False) -> Grads:
    """Closed-form gradient for a single episode, all five blocks dense
    (the formulas of the `gradients` docstring)."""
    out = forward(params, X, P, normalize=normalize)
    lp = -1.0 / (float(out.f[y - 1]) + eps)
    K, M = params.K, params.M
    geo = geometry(M, P.shape[1], normalize)
    c = geo.c

    u = params.V.T @ _unit(K, y)
    q = X.T @ u  # q_N = 0 automatically: x_N = 0
    m = float(out.S @ q)
    d = out.S * (q - m)

    a_vec = (X[:, :-1] / c[:-1]) @ d[:-1]
    b_vec = (P / c) @ d
    return Grads(
        gV=lp * np.outer(_unit(K, y), X @ out.S),
        gW11=np.zeros((K, K)),
        gW12=lp * np.outer(a_vec, geo.pnh),
        gW21=np.zeros((M, K)),
        gW22=lp * np.outer(b_vec, geo.pnh),
    )


def fd_grad(params: Params, X: np.ndarray, y: int, P: np.ndarray,
            eps: float, normalize: bool = False, h: float = 1e-6) -> Grads:
    """Central-difference gradient oracle over every parameter entry.

    O(h^2) accurate and dense in all five blocks; intended for small K, M.
    """

    def loss_at(p: Params) -> float:
        return loss_value(forward(p, X, P, normalize=normalize).f, y, eps)

    out = {}
    for name in ("V", "W11", "W12", "W21", "W22"):
        bumped = getattr(params, name).copy()
        at = replace(params, **{name: bumped})
        g = np.zeros_like(bumped)
        for idx in np.ndindex(bumped.shape):
            x = bumped[idx]
            bumped[idx] = x + h
            plus = loss_at(at)
            bumped[idx] = x - h
            minus = loss_at(at)
            bumped[idx] = x
            g[idx] = (plus - minus) / (2.0 * h)
        out["g" + name] = g
    return Grads(**out)


def _unit(K: int, y: int) -> np.ndarray:
    e = np.zeros(K)
    e[y - 1] = 1.0
    return e


def factor(params: Params, P: np.ndarray, geo: Geometry) -> FactoredParams:
    """Factored view of dense parameters on the (M, N) positional matrix P:
    the dense oracle's way into the batched path."""
    return FactoredParams(V=params.V, wtok=params.W12 @ geo.pnh,
                          zpos=(P.T @ (params.W22 @ geo.pnh)) / geo.c)


def init_params(cfg: TrainConfig) -> Params:
    """Zero blocks, or Gaussian ones drawn with the "init" seed."""
    wc = cfg.walk_config()
    if cfg.init == ZERO:
        return Params.zeros(wc.K, cfg.M)
    return Params.gaussian(wc.K, cfg.M, cfg.sigma, np.random.default_rng(cfg.seeds["init"]))


def dense_params(trace: TrainTrace, t: int) -> Params:
    """Dense parameters of snapshot t, W12 = W12_0 + alpha p^_N^T and
    W22 = W22_0 + (P gamma) p^_N^T with alpha = (wtok - wtok_0) / |p^_N|^2
    and gamma = (zpos - zpos_0) / zrate, built on each call, the init, its
    factored view (`init_factors`) and P regenerated from the config
    (K x M and M x M blocks).  At t = 0 it is the init, bit for bit."""
    cfg, snap, geo = trace.config, trace.snapshots[t], trace.geometry
    init, fp0 = init_params(cfg), init_factors(cfg, geo)
    W12 = np.outer((snap.wtok - fp0.wtok) / geo.pnh_sq, geo.pnh)
    W12 += init.W12
    P = build_positional(cfg.M, len(geo.c))
    W22 = np.outer(P @ ((snap.zpos - fp0.zpos) / geo.zrate), geo.pnh)
    W22 += init.W22
    return replace(init, V=snap.V, W12=W12, W22=W22)
