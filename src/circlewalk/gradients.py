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
and the left factor of dL/dW22 is P D with D_j = l' d_j / c_j, so gradient
descent keeps W12 = W12_0 + alpha p^_N^T and W22 = W22_0 + (P gamma) p^_N^T
with alpha in R^K and gamma in R^N.  The logit of body position j is a
token term plus a positional term, z_j = t[s_j] + zpos_j with
t = W12 p^_N / c and zpos = P^T W22 p^_N / c (no token term at the query,
j = N).  P has orthogonal columns, P^T P = phi I with phi = (M+1)/2, so a
step of W22 by -eta (P D) p^_N^T moves zpos by -eta |p^_N|^2 phi D / c,
and every body column has the same norm, so t is one K-vector.  The
batched path (`FactoredParams`, `token_masses`, `attention`, `grad_batch`)
holds nothing of length M; `grad_example` and `fd_grad` are the dense
per-episode oracle.

The batched softmax works on token masses: xs[k, b], the weight episode b
puts on token k, is exp(t_k) G[k, b] / Z_b with G[k, b] the sum of the
positional weights e_j = exp(zpos_j - max zpos) over the positions of b
holding k.  G is one `bincount` over the cell index of the `Batch`, and
f, l', dL/dV and dL/dW12 need only the K x B masses; D and the
per-position attention need one gather each.
Where e underflows at a position that can still carry weight (token and
positional logit ranges both beyond exp's), the same softmax runs on the
dense (B, N) logits instead.

P, c, p^_N and the step sizes of the logit vectors are fixed for a run, so
`geometry` builds them once into a `Geometry` that every batched function
takes in place of the positional matrix and the normalization flag; only
`factor` reads P.  Every batched function takes a `Batch`: a (B, N)
state array whose last column is the label, built once per dataset with
its cell index and, for a walk test set, the true conditionals `evaluate`
compares against.  The dense oracle takes the (M, N) positional matrix P
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import TransitionMatrix
from .model import Params, forward, loss_value

__all__ = ["Grads", "BatchGrad", "Geometry", "geometry", "FactoredParams", "factor",
           "Batch", "TokenMasses", "token_masses", "attention",
           "grad_example", "grad_batch", "fd_grad"]


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

    dL/dW12 = a p^_N^T and dL/dW22 = (P D) p^_N^T; only a and D are kept,
    and dL/dW11 = dL/dW21 = 0.
    """

    gV: np.ndarray  # (K, K)
    a: np.ndarray  # (K,)
    D: np.ndarray  # (N,)
    loss: float
    lprime_mean: float
    lprimes: np.ndarray


@dataclass(frozen=True)
class Geometry:
    """What the model sees of the positions, fixed for a run."""

    P: np.ndarray  # (M, N) positional matrix
    c: np.ndarray  # (N,) augmented column norms; ones without normalization
    pnh: np.ndarray  # (M,) p^_N = p_N / c_N
    pnh_sq: float  # |p^_N|^2: W12 -= eta a p^_N^T moves wtok by -eta pnh_sq a
    zrate: np.ndarray  # (N,) |p^_N|^2 phi / c: W22 -= eta (P D) p^_N^T moves zpos by -eta zrate D


def geometry(P: np.ndarray, normalize: bool = False) -> Geometry:
    """p^_N, the logit step sizes and the norms c_j of the augmented
    columns [x_j; p_j] of the (M, N) positional matrix P when the attention
    input is column-normalized: each p_j has squared norm phi = (M+1)/2,
    and x_j is a unit token except at the query.  One exact body norm keeps
    equal body logits equal."""
    M, N = P.shape
    phi = (M + 1) / 2.0
    c = np.ones(N)
    if normalize:
        c[:-1] = math.sqrt(1.0 + phi)
        c[-1] = math.sqrt(phi)
    pnh = P[:, -1] / c[-1]
    pnh_sq = float(pnh @ pnh)
    return Geometry(P=P, c=c, pnh=pnh, pnh_sq=pnh_sq, zrate=pnh_sq * phi / c)


@dataclass(frozen=True)
class FactoredParams:
    """The parameters as the batched model sees them: V, the token logit
    vector wtok = W12 p^_N, the positional logits zpos = P^T W22 p^_N / c,
    and the factors gradient descent has added since init,
    W12 = W12_0 + alpha p^_N^T and W22 = W22_0 + (P gamma) p^_N^T."""

    V: np.ndarray  # (K, K)
    wtok: np.ndarray  # (K,)
    zpos: np.ndarray  # (N,)
    alpha: np.ndarray  # (K,)
    gamma: np.ndarray  # (N,)


def factor(params: Params, geo: Geometry) -> FactoredParams:
    """Factored view of dense parameters, with zero alpha and gamma (the
    only function of the batched path that reads P)."""
    return FactoredParams(V=params.V, wtok=params.W12 @ geo.pnh,
                          zpos=(geo.P.T @ (params.W22 @ geo.pnh)) / geo.c,
                          alpha=np.zeros(params.K), gamma=np.zeros_like(geo.c))


def grad_example(params: Params, X: np.ndarray, y: int, P: np.ndarray,
                 eps: float, normalize: bool = False) -> Grads:
    """Closed-form gradient for a single episode, all five blocks dense."""
    out = forward(params, X, P, normalize=normalize)
    lp = -1.0 / (float(out.f[y - 1]) + eps)
    K, M = params.K, params.M
    geo = geometry(P, normalize)
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


@dataclass(frozen=True)
class Batch:
    """A (B, N) state array labelled by its last column, with what every
    pass over it reads, built once per dataset (`Batch.of`): the labels,
    the uniform weights, the cell index of the body tokens into token-major
    (K, B) arrays and, for a walk test set, the true conditionals
    q_b = Pi[s_{b,N-1}] (token-major, like the masses), their support and
    Pi^T / |Pi|_F."""

    states: np.ndarray  # (B, N)
    y: np.ndarray  # (B,) labels, 0-based
    weights: np.ndarray  # (B,) uniform
    cell: np.ndarray  # (B, N-1) flat cell (s_bj - 1) * B + b of each body token
    present: np.ndarray  # (K,) bool: the token occurs in some body
    tm: TransitionMatrix | None = None
    q: np.ndarray | None = None  # (K, B)
    q_pos: np.ndarray | None = None  # q > 0
    q_safe: np.ndarray | None = None  # q with 1 where q = 0
    pit_unit: np.ndarray | None = None  # Pi^T / |Pi|_F

    @classmethod
    def of(cls, states: np.ndarray, K: int, tm: TransitionMatrix | None = None) -> "Batch":
        """The batch of a state array over K tokens; `tm` is the walk's
        transition matrix for a test set, None where none applies (QA
        tasks) or no metric compares against it (training sets)."""
        states = np.asarray(states)
        B = states.shape[0]
        cell = states[:, :-1] * B
        cell += (np.arange(B) - B)[:, None]
        present = np.bincount(cell.ravel(), minlength=K * B).reshape(K, B).any(axis=1)
        common = dict(states=states, y=states[:, -1] - 1, weights=np.full(B, 1.0 / B),
                      cell=cell, present=present)
        if tm is None:
            return cls(**common)
        q = tm.Pi.T[:, states[:, -2] - 1]
        q_pos = q > 0
        return cls(**common, tm=tm, q=q, q_pos=q_pos, q_safe=np.where(q_pos, q, 1.0),
                   pit_unit=tm.Pi.T / np.linalg.norm(tm.Pi))


# exp(-708) is still a normal double; below it the positional weights e_j
# lose precision and reach 0 at -745
_EXP_NORMAL = 708.0
# a weight exp(-40) ~ 4e-18 below its row maximum is below rounding
_NEGLIGIBLE = 40.0


@dataclass(frozen=True)
class TokenMasses:
    """Attention of a batch kept per token, token-major so that sums over
    the K tokens run across the batch: xs[k, b] is the weight episode b
    puts on token k (the sum of S_bj over its body positions with
    s_bj = k), and sN[b] = S_bN.  In the usual case S_bj = rate[s_bj, b] e_j
    with rate = xs / G and the positional weights e; when e underflows at a
    position that can still carry weight, the dense weights S are kept
    instead (rate and e are None)."""

    xs: np.ndarray  # (K, B)
    sN: np.ndarray  # (B,)
    rate: np.ndarray | None  # (K, B), 0 where G = 0
    e: np.ndarray | None  # (N-1,) exp(zpos_j - max zpos) of the body
    S: np.ndarray | None  # (B, N)

    def position_sums(self, batch: Batch, v: np.ndarray) -> np.ndarray:
        """sum_b S_bj v[s_bj, b] for every body position j; v is (K, B)."""
        if self.S is None:
            return self.e * np.take((self.rate * v).ravel(), batch.cell).sum(axis=0)
        return (self.S[:, :-1] * np.take(v.ravel(), batch.cell)).sum(axis=0)

    def body(self, batch: Batch) -> np.ndarray:
        """The body weights S_bj, j < N, as a (B, N-1) array."""
        if self.S is not None:
            return self.S[:, :-1]
        body = np.take(self.rate.ravel(), batch.cell)
        body *= self.e
        return body


def token_masses(fp: FactoredParams, batch: Batch, geo: Geometry) -> TokenMasses:
    """Softmax attention of a batch from per-token masses.

    The logit of body position j is t[s_bj] + zpos_j with t = wtok / c_body
    (all body columns have the same norm); the query's is zpos_N.  With
    e_j = exp(zpos_j - max zpos) and G[k, b] the sum of e_j over the
    positions of episode b holding token k, the mass on token k is
    exp(t_k + log G[k, b] - r_b) / Z_b, shifted by the row maximum r_b as a
    dense softmax would be.  Raises FloatingPointError on non-finite
    logits.
    """
    B, K = batch.states.shape[0], fp.V.shape[0]
    zpos = fp.zpos
    t = np.where(batch.present, fp.wtok / geo.c[0], 0.0)  # absent tokens never enter
    zmin, zmax, tmin, tmax = float(zpos.min()), float(zpos.max()), float(t.min()), float(t.max())
    if not (math.isfinite(tmin + zmin) and math.isfinite(tmax + zmax)):
        raise FloatingPointError("non-finite attention logits")
    gap = zmax - zpos[:-1]
    if zmax - zmin > _EXP_NORMAL:
        far = gap[gap > _EXP_NORMAL]
        spread = max(tmax, 0.0) - min(tmin, 0.0)  # the query has no token term
        if far.size and far.min() < spread + _NEGLIGIBLE:
            return _dense_masses(t, zpos, batch)

    e = np.exp(-gap)
    w = np.empty(batch.cell.shape)
    w[:] = e  # e_j at every cell (b, j)
    G = np.bincount(batch.cell.ravel(), w.ravel(), minlength=K * B).reshape(K, B)
    occupied = G > 0
    xs = np.log(G, out=np.full((K, B), -np.inf), where=occupied)
    xs += t[:, None]  # the logits L = t + log G, -inf where G = 0
    zN = zpos[-1] - zmax
    r = np.maximum(xs.max(axis=0), zN)
    xs -= r
    np.exp(xs, out=xs)
    sN = np.exp(zN - r)
    Z = xs.sum(axis=0) + sN
    xs /= Z
    sN /= Z
    rate = np.divide(xs, G, out=np.zeros((K, B)), where=occupied)
    return TokenMasses(xs=xs, sN=sN, rate=rate, e=e, S=None)


def _dense_masses(t: np.ndarray, zpos: np.ndarray, batch: Batch) -> TokenMasses:
    """The same softmax over the (B, N) logits, for logit ranges where the
    positional weights alone do not fit in a double."""
    states = batch.states
    B, K = states.shape[0], t.shape[0]
    z = np.empty(states.shape)
    np.add(t[states[:, :-1] - 1], zpos[:-1], out=z[:, :-1])
    z[:, -1] = zpos[-1]
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    xs = np.bincount(batch.cell.ravel(), z[:, :-1].ravel(), minlength=K * B).reshape(K, B)
    return TokenMasses(xs=xs, sN=z[:, -1], rate=None, e=None, S=z)


def attention(fp: FactoredParams, batch: Batch, geo: Geometry) -> np.ndarray:
    """Attention weights S (B, N) of a batch, expanded from its token
    masses.  Raises FloatingPointError on non-finite logits."""
    m = token_masses(fp, batch, geo)
    return np.column_stack((m.body(batch), m.sN))


def grad_batch(fp: FactoredParams, batch: Batch, geo: Geometry, eps: float,
               masses: TokenMasses | None = None) -> BatchGrad:
    """Uniform-average gradient over a batch of episodes; `masses` is its
    `token_masses` at `fp`, computed here when not given.

    From the token masses, with wl = l' / B: f_b = V xs_b,
    gV = sum_b wl_b e_{y_b} xs_b^T, a = sum_b wl_b xs_b * (V[y_b] - f_{y,b})
    / c_body, and D_j = sum_b wl_b S_bj (V[y_b, s_bj] - f_{y,b}) / c_j,
    whose body part is one gather and one column sum.  Agrees with
    averaging `grad_example` to rounding error.  Raises ValueError when
    some f_y + eps <= 0, outside the log loss's domain.
    """
    B, N = batch.states.shape
    K = fp.V.shape[0]
    y, weights = batch.y, batch.weights
    m = token_masses(fp, batch, geo) if masses is None else masses

    f_y = (fp.V @ m.xs)[y, np.arange(B)]
    arg = f_y + eps
    if (arg <= 0.0).any():  # as `loss_value` rejects it in the dense oracle
        raise ValueError(f"log-loss argument must be positive, got {arg.min()}")
    losses = -np.log(arg)
    lp = -1.0 / arg
    wl = weights * lp

    gV = np.bincount(((y * K)[None, :] + np.arange(K)[:, None]).ravel(),
                     (m.xs * wl).ravel(), minlength=K * K).reshape(K, K)
    g = fp.V.T[:, y] - f_y  # (K, B): q - f_y for every token of each episode
    g *= wl
    a = (m.xs * g).sum(axis=1) / geo.c[0]
    D = np.empty(N)
    D[:-1] = m.position_sums(batch, g) / geo.c[:-1]
    D[-1] = -(wl * m.sN) @ f_y / geo.c[-1]  # the query token is zero, so q_N = 0
    return BatchGrad(gV=gV, a=a, D=D, loss=float(weights @ losses),
                     lprime_mean=float(weights @ lp), lprimes=lp)


def fd_grad(params: Params, X: np.ndarray, y: int, P: np.ndarray,
            eps: float, normalize: bool = False, h: float = 1e-6) -> Grads:
    """Central-difference gradient oracle over every parameter entry.

    O(h^2) accurate and dense in all five blocks; intended for small K, M.
    """

    def loss_at(p: Params) -> float:
        return loss_value(forward(p, X, P, normalize=normalize).f, y, eps)

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
