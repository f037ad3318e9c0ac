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
holding k.  G is one `bincount` over a cell index fixed for the dataset
(`token_index`), and f, l', dL/dV and dL/dW12 need only the K x B
masses; D and the per-position attention need one gather each.
Where e underflows at a position that can still carry weight (token and
positional logit ranges both beyond exp's), the same softmax runs on the
dense (B, N) logits instead.

P, c, p^_N and the step sizes of the logit vectors are fixed for a run, so
`geometry` builds them once into a `Geometry` that every batched function
takes in place of the positional matrix and the normalization flag; only
`factor` reads P.  A batch is a (B, N) state array whose last column is
the label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Params, forward, loss_value
from .posembed import PositionalMatrix

__all__ = ["Grads", "BatchGrad", "Geometry", "geometry", "FactoredParams", "factor",
           "TokenIndex", "token_index", "TokenMasses", "token_masses", "attention",
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


def geometry(pos: PositionalMatrix, normalize: bool = False) -> Geometry:
    """P, p^_N, the logit step sizes and the norms c_j of the augmented
    columns [x_j; p_j] when the attention input is column-normalized: each
    p_j has squared norm phi = (M+1)/2, and x_j is a unit token except at
    the query.  One exact body norm keeps equal body logits equal."""
    phi = (pos.M + 1) / 2.0
    c = np.ones(pos.N)
    if normalize:
        c[:-1] = math.sqrt(1.0 + phi)
        c[-1] = math.sqrt(phi)
    pnh = pos.P[:, -1] / c[-1]
    pnh_sq = float(pnh @ pnh)
    return Geometry(P=pos.P, c=c, pnh=pnh, pnh_sq=pnh_sq, zrate=pnh_sq * phi / c)


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


@dataclass(frozen=True)
class TokenIndex:
    """Index arrays of a (B, N) state array, fixed for the dataset."""

    cell: np.ndarray  # (B, N-1) flat cell (s_bj - 1) * B + b of each body token
    present: np.ndarray  # (K,) bool: the token occurs in some body


def token_index(states: np.ndarray, K: int) -> TokenIndex:
    """The cell index of a state array into token-major (K, B) arrays,
    built once per dataset."""
    body = np.asarray(states)[:, :-1] - 1
    B = body.shape[0]
    present = np.bincount(body.ravel(), minlength=K) > 0
    body *= B
    body += np.arange(B)[:, None]
    return TokenIndex(cell=body, present=present)


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

    def position_sums(self, index: TokenIndex, v: np.ndarray) -> np.ndarray:
        """sum_b S_bj v[s_bj, b] for every body position j; v is (K, B)."""
        if self.S is None:
            return self.e * np.take((self.rate * v).ravel(), index.cell).sum(axis=0)
        return (self.S[:, :-1] * np.take(v.ravel(), index.cell)).sum(axis=0)

    def body(self, index: TokenIndex) -> np.ndarray:
        """The body weights S_bj, j < N, as a (B, N-1) array."""
        if self.S is not None:
            return self.S[:, :-1]
        body = np.take(self.rate.ravel(), index.cell)
        body *= self.e
        return body


def token_masses(fp: FactoredParams, states: np.ndarray, geo: Geometry,
                 index: TokenIndex) -> TokenMasses:
    """Softmax attention of a (B, N) state array from per-token masses.

    The logit of body position j is t[s_bj] + zpos_j with t = wtok / c_body
    (all body columns have the same norm); the query's is zpos_N.  With
    e_j = exp(zpos_j - max zpos) and G[k, b] the sum of e_j over the
    positions of episode b holding token k, the mass on token k is
    exp(t_k + log G[k, b] - r_b) / Z_b, shifted by the row maximum r_b as a
    dense softmax would be.  Raises FloatingPointError on non-finite
    logits.
    """
    B, N = states.shape
    K = fp.V.shape[0]
    zpos = fp.zpos
    t = np.where(index.present, fp.wtok / geo.c[0], 0.0)  # absent tokens never enter
    zmin, zmax, tmin, tmax = float(zpos.min()), float(zpos.max()), float(t.min()), float(t.max())
    if not (math.isfinite(tmin + zmin) and math.isfinite(tmax + zmax)):
        raise FloatingPointError("non-finite attention logits")
    gap = zmax - zpos[:-1]
    if zmax - zmin > _EXP_NORMAL:
        far = gap[gap > _EXP_NORMAL]
        spread = max(tmax, 0.0) - min(tmin, 0.0)  # the query has no token term
        if far.size and far.min() < spread + _NEGLIGIBLE:
            return _dense_masses(t, zpos, states, index)

    e = np.exp(-gap)
    w = np.empty(index.cell.shape)
    w[:] = e  # e_j at every cell (b, j)
    G = np.bincount(index.cell.ravel(), w.ravel(), minlength=K * B).reshape(K, B)
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


def _dense_masses(t: np.ndarray, zpos: np.ndarray, states: np.ndarray,
                  index: TokenIndex) -> TokenMasses:
    """The same softmax over the (B, N) logits, for logit ranges where the
    positional weights alone do not fit in a double."""
    B, K = states.shape[0], t.shape[0]
    z = np.empty(states.shape)
    np.add(t[states[:, :-1] - 1], zpos[:-1], out=z[:, :-1])
    z[:, -1] = zpos[-1]
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    xs = np.bincount(index.cell.ravel(), z[:, :-1].ravel(), minlength=K * B).reshape(K, B)
    return TokenMasses(xs=xs, sN=z[:, -1], rate=None, e=None, S=z)


def attention(fp: FactoredParams, states: np.ndarray, geo: Geometry) -> np.ndarray:
    """Attention weights S (B, N) for a (B, N) state array, expanded from
    its token masses.  Raises FloatingPointError on non-finite logits."""
    states = np.asarray(states)
    index = token_index(states, fp.V.shape[0])
    m = token_masses(fp, states, geo, index)
    return np.column_stack((m.body(index), m.sN))


def grad_batch(fp: FactoredParams, states: np.ndarray, geo: Geometry,
               eps: float, index: TokenIndex | None = None,
               masses: TokenMasses | None = None) -> BatchGrad:
    """Uniform-average gradient over a batch of episodes, labelled by the
    last column of `states`; `index` is its `token_index`, built here when
    not given, and `masses` its `token_masses` at `fp`, computed here when
    not given.

    From the token masses, with wl = l' / B: f_b = V xs_b,
    gV = sum_b wl_b e_{y_b} xs_b^T, a = sum_b wl_b xs_b * (V[y_b] - f_{y,b})
    / c_body, and D_j = sum_b wl_b S_bj (V[y_b, s_bj] - f_{y,b}) / c_j,
    whose body part is one gather and one column sum.  Agrees with
    averaging `grad_example` to rounding error.
    """
    states = np.asarray(states)
    B, N = states.shape
    K = fp.V.shape[0]
    if index is None:
        index = token_index(states, K)
    weights = np.full(B, 1.0 / B)
    m = token_masses(fp, states, geo, index) if masses is None else masses

    y = states[:, -1] - 1
    f_y = (fp.V @ m.xs)[y, np.arange(B)]
    losses = -np.log(f_y + eps)
    lp = -1.0 / (f_y + eps)
    wl = weights * lp

    gV = np.bincount(((y * K)[None, :] + np.arange(K)[:, None]).ravel(),
                     (m.xs * wl).ravel(), minlength=K * K).reshape(K, K)
    g = fp.V.T[:, y] - f_y  # (K, B): q - f_y for every token of each episode
    g *= wl
    a = (m.xs * g).sum(axis=1) / geo.c[0]
    D = np.empty(N)
    D[:-1] = m.position_sums(index, g) / geo.c[:-1]
    D[-1] = -(wl * m.sN) @ f_y / geo.c[-1]  # the query token is zero, so q_N = 0
    return BatchGrad(gV=gV, a=a, D=D, loss=float(weights @ losses),
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
