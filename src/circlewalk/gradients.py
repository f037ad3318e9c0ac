"""Closed-form log-loss gradients and a finite-difference oracle.

With u = V^T e_y, q_j = x_j^T u and m = sum_j S_j q_j, the attention-side
gradient factors through d_j = S_j * (q_j - m):

    dL/dV   = l' * e_y (sum_{j<N} S_j x_j)^T
    dL/dW12 = l' * (sum_{j<N} d_j x_j / c_j) (p_N / c_N)^T
    dL/dW22 = l' * (sum_{j<=N} d_j p_j / c_j) (p_N / c_N)^T

where l' = -1/(f_y + eps) and c_j is the augmented column norm when the
attention input is column-normalized (1 otherwise).  dL/dW11 and dL/dW21
vanish identically because the query carries no token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Params, forward, loss_value
from .posembed import PositionalMatrix

__all__ = ["Grads", "BatchGrad", "attention", "grad_example", "grad_batch", "fd_grad"]


@dataclass(frozen=True)
class Grads:
    """Gradient of the log loss with respect to every parameter block."""

    gV: np.ndarray
    gW11: np.ndarray
    gW12: np.ndarray
    gW21: np.ndarray
    gW22: np.ndarray


@dataclass(frozen=True)
class BatchGrad:
    """Uniform-average gradient over a batch plus per-example diagnostics."""

    grads: Grads
    loss: float
    lprime_mean: float
    lprimes: np.ndarray


def _column_norms(N: int, pos: PositionalMatrix, normalize: bool) -> np.ndarray:
    """Norms of the augmented columns [x_j; p_j]; ones when not normalizing."""
    if not normalize:
        return np.ones(N)
    pn = np.linalg.norm(pos.P, axis=0)
    c = np.sqrt(1.0 + pn**2)
    c[-1] = pn[-1]  # the query column has no token part
    return c


def grad_example(params: Params, X: np.ndarray, y: int, pos: PositionalMatrix,
                 eps: float, normalize: bool = False) -> Grads:
    """Closed-form gradient for a single episode, all five blocks dense."""
    out = forward(params, X, pos, normalize=normalize)
    lp = -1.0 / (float(out.f[y - 1]) + eps)
    K, M = params.K, params.M
    N = X.shape[1]
    c = _column_norms(N, pos, normalize)

    u = params.V.T @ _unit(K, y)
    q = X.T @ u  # q_N = 0 automatically: x_N = 0
    m = float(out.S @ q)
    d = out.S * (q - m)

    pNh = pos.P[:, -1] / c[-1]
    a_vec = (X[:, :-1] / c[:-1]) @ d[:-1]
    b_vec = (pos.P / c) @ d
    return Grads(
        gV=lp * np.outer(_unit(K, y), X @ out.S),
        gW11=np.zeros((K, K)),
        gW12=lp * np.outer(a_vec, pNh),
        gW21=np.zeros((M, K)),
        gW22=lp * np.outer(b_vec, pNh),
    )


def attention(params: Params, states: np.ndarray, pos: PositionalMatrix,
              normalize: bool = False) -> np.ndarray:
    """Attention weights S (B, N) for a (B, N) state array.

    The query column carries no token, so the logits need only W12 p_N,
    gathered by state, and P^T W22 p_N, shared by every episode.  Raises
    FloatingPointError on non-finite logits.
    """
    states = np.asarray(states)
    B, N = states.shape
    c = _column_norms(N, pos, normalize)
    pNh = pos.P[:, -1] / c[-1]
    wtok = params.W12 @ pNh  # (K,)
    zpos = (pos.P.T @ (params.W22 @ pNh)) / c  # (N,)
    z = np.tile(zpos, (B, 1))
    z[:, :-1] += wtok[states[:, :-1] - 1] / c[:-1]
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite attention logits")
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def grad_batch(params: Params, states: np.ndarray, labels: np.ndarray,
               pos: PositionalMatrix, eps: float, normalize: bool = False) -> BatchGrad:
    """Uniform-average gradient over a batch of episodes.

    Never materializes per-example W-blocks: the token- and position-side
    sums are accumulated first and a single outer product with p_N closes
    each block.  Agrees with averaging `grad_example` to rounding error.
    """
    states = np.asarray(states)
    labels = np.asarray(labels)
    B, N = states.shape
    K, M = params.K, params.M
    weights = np.full(B, 1.0 / B)
    c = _column_norms(N, pos, normalize)
    pNh = pos.P[:, -1] / c[-1]
    S = attention(params, states, pos, normalize)

    q = np.zeros((B, N))
    q[:, :-1] = params.V[labels - 1][np.arange(B)[:, None], states[:, :-1] - 1]
    f_y = np.einsum("bj,bj->b", S, q)
    losses = -np.log(f_y + eps)
    lp = -1.0 / (f_y + eps)
    d = S * (q - f_y[:, None])

    wl = weights * lp
    gV = np.zeros((K, K))
    np.add.at(gV, (np.repeat(labels - 1, N - 1), (states[:, :-1] - 1).ravel()),
              (wl[:, None] * S[:, :-1]).ravel())

    a_vec = np.zeros(K)
    np.add.at(a_vec, (states[:, :-1] - 1).ravel(),
              (wl[:, None] * d[:, :-1] / c[:-1]).ravel())
    b_vec = pos.P @ ((wl[:, None] * d / c).sum(axis=0))

    grads = Grads(
        gV=gV,
        gW11=np.zeros((K, K)),
        gW12=np.outer(a_vec, pNh),
        gW21=np.zeros((M, K)),
        gW22=np.outer(b_vec, pNh),
    )
    return BatchGrad(grads=grads, loss=float(weights @ losses),
                     lprime_mean=float(weights @ lp), lprimes=lp)


def fd_grad(params: Params, X: np.ndarray, y: int, pos: PositionalMatrix,
            eps: float, normalize: bool = False, h: float = 1e-6) -> Grads:
    """Central-difference gradient oracle over every parameter entry.

    O(h^2) accurate and dense in all five blocks; intended for small K, M.
    """

    def loss_at(p: Params) -> float:
        return loss_value(forward(p, X, pos, normalize=normalize).f, y, eps)

    out = {}
    for name in ("V", "W11", "W12", "W21", "W22"):
        base = getattr(params, name)
        g = np.zeros_like(base)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = base.copy()
            bumped[idx] = base[idx] + h
            plus = loss_at(params.with_updates(**{name: bumped}))
            bumped[idx] = base[idx] - h
            minus = loss_at(params.with_updates(**{name: bumped}))
            g[idx] = (plus - minus) / (2.0 * h)
        out["g" + name] = g
    return Grads(**out)


def _unit(K: int, y: int) -> np.ndarray:
    e = np.zeros(K)
    e[y - 1] = 1.0
    return e
