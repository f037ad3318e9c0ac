"""Closed-form log-loss gradients and a finite-difference oracle.

With u = V^T e_y, q_j = x_j^T u and m = sum_j S_j q_j, the attention-side
gradient factors through d_j = S_j * (q_j - m):

    dL/dV   = l' * e_y (sum_{j<N} S_j x_j)^T
    dL/dW12 = l' * (sum_{j<N} d_j x_j / c_j) (p_N / c_N)^T
    dL/dW22 = l' * (sum_{j<=N} d_j p_j / c_j) (p_N / c_N)^T

where l' = -1/(f_y + eps) and c_j is the augmented column norm when the
attention input is column-normalized (1 otherwise).  dL/dW11 and dL/dW21
vanish identically because the query carries no token.

Both W gradients are rank one with the same right factor p^_N = p_N / c_N,
so gradient descent keeps W12 = W12_0 + alpha p^_N^T and
W22 = W22_0 + beta p^_N^T, and the logits
z_j = (W12 p^_N)[s_j] / c_j + p_j^T (W22 p^_N) / c_j (no token term at the
query, j = N) need only the K-vector wtok = W12 p^_N and the M-vector
u = W22 p^_N.  The batched path (`FactoredParams`, `attention`,
`grad_batch`) works on these vectors and never forms a K x M or M x M
block; `grad_example` and `fd_grad` are the dense per-episode oracle.

P, c and p^_N are fixed for a run, so `geometry` builds them once into a
`Geometry` that every batched function takes in place of the positional
matrix and the normalization flag.  A batch is a (B, N) state array
whose last column is the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Params, forward, loss_value
from .posembed import PositionalMatrix

__all__ = ["Grads", "BatchGrad", "Geometry", "geometry", "FactoredParams", "factor",
           "attention", "grad_example", "grad_batch", "fd_grad"]


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
    """Uniform-average gradient over a batch plus per-example diagnostics.

    dL/dW12 = a p^_N^T and dL/dW22 = b p^_N^T; only the left factors are
    kept, and dL/dW11 = dL/dW21 = 0.
    """

    gV: np.ndarray  # (K, K)
    a: np.ndarray  # (K,)
    b: np.ndarray  # (M,)
    loss: float
    lprime_mean: float
    lprimes: np.ndarray


@dataclass(frozen=True)
class Geometry:
    """What the model sees of the positions, fixed for a run."""

    P: np.ndarray  # (M, N) positional matrix
    c: np.ndarray  # (N,) augmented column norms; ones without normalization
    pnh: np.ndarray  # (M,) p^_N = p_N / c_N


def geometry(pos: PositionalMatrix, normalize: bool = False) -> Geometry:
    """P, the norms c_j of the augmented columns [x_j; p_j] when the
    attention input is column-normalized (the query column has no token
    part), and p^_N."""
    if normalize:
        pn = np.linalg.norm(pos.P, axis=0)
        c = np.sqrt(1.0 + pn**2)
        c[-1] = pn[-1]
    else:
        c = np.ones(pos.N)
    return Geometry(P=pos.P, c=c, pnh=pos.P[:, -1] / c[-1])


@dataclass(frozen=True)
class FactoredParams:
    """The parameters as the batched model sees them: V, wtok = W12 p^_N,
    u = W22 p^_N, and the left factors gradient descent has added since
    init, W12 = W12_0 + alpha p^_N^T and W22 = W22_0 + beta p^_N^T."""

    V: np.ndarray  # (K, K)
    wtok: np.ndarray  # (K,)
    u: np.ndarray  # (M,)
    alpha: np.ndarray  # (K,)
    beta: np.ndarray  # (M,)


def factor(params: Params, geo: Geometry) -> FactoredParams:
    """Factored view of dense parameters, with zero left factors."""
    return FactoredParams(V=params.V, wtok=params.W12 @ geo.pnh, u=params.W22 @ geo.pnh,
                          alpha=np.zeros(params.K), beta=np.zeros(params.M))


def grad_example(params: Params, X: np.ndarray, y: int, pos: PositionalMatrix,
                 eps: float, normalize: bool = False) -> Grads:
    """Closed-form gradient for a single episode, all five blocks dense."""
    out = forward(params, X, pos, normalize=normalize)
    lp = -1.0 / (float(out.f[y - 1]) + eps)
    K, M = params.K, params.M
    geo = geometry(pos, normalize)
    c = geo.c

    u = params.V.T @ _unit(K, y)
    q = X.T @ u  # q_N = 0 automatically: x_N = 0
    m = float(out.S @ q)
    d = out.S * (q - m)

    a_vec = (X[:, :-1] / c[:-1]) @ d[:-1]
    b_vec = (geo.P / c) @ d
    return Grads(
        gV=lp * np.outer(_unit(K, y), X @ out.S),
        gW11=np.zeros((K, K)),
        gW12=lp * np.outer(a_vec, geo.pnh),
        gW21=np.zeros((M, K)),
        gW22=lp * np.outer(b_vec, geo.pnh),
    )


def attention(fp: FactoredParams, states: np.ndarray, geo: Geometry) -> np.ndarray:
    """Attention weights S (B, N) for a (B, N) state array.

    The token logits are wtok gathered by state and the positional logits
    P^T u are shared by every episode.  Raises FloatingPointError on
    non-finite logits.
    """
    states = np.asarray(states)
    B, N = states.shape
    c = geo.c
    zpos = (geo.P.T @ fp.u) / c  # (N,)
    z = np.empty((B, N))
    np.divide(fp.wtok[states[:, :-1] - 1], c[:-1], out=z[:, :-1])
    z[:, :-1] += zpos[:-1]
    z[:, -1] = zpos[-1]
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite attention logits")
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def grad_batch(fp: FactoredParams, states: np.ndarray, geo: Geometry,
               eps: float) -> BatchGrad:
    """Uniform-average gradient over a batch of episodes, labelled by the
    last column of `states`.

    Returns gV and the left factors a (K) and b (M) of the rank-one W
    gradients; no per-example block and no outer product is formed.
    Agrees with averaging `grad_example` to rounding error.
    """
    states = np.asarray(states)
    B, N = states.shape
    K = fp.V.shape[0]
    weights = np.full(B, 1.0 / B)
    S = attention(fp, states, geo)

    tok = states[:, :-1] - 1
    cell = ((states[:, -1] - 1) * K)[:, None] + tok  # flat index of V[y, s_j]
    q = np.zeros((B, N))
    q[:, :-1] = fp.V.ravel()[cell]
    f_y = np.einsum("bj,bj->b", S, q)
    losses = -np.log(f_y + eps)
    lp = -1.0 / (f_y + eps)
    d = q - f_y[:, None]
    d *= S

    wl = weights * lp
    gV = np.bincount(cell.ravel(), (wl[:, None] * S[:, :-1]).ravel(),
                     minlength=K * K).reshape(K, K)
    wd = wl[:, None] * d / geo.c
    a = np.bincount(tok.ravel(), wd[:, :-1].ravel(), minlength=K)
    b = geo.P @ wd.sum(axis=0)
    return BatchGrad(gV=gV, a=a, b=b, loss=float(weights @ losses),
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
