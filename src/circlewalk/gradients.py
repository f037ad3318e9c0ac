"""Batched softmax attention and its closed-form log-loss gradients.

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
and every body column has the same norm, so t is one K-vector.  So the
trained state is V, wtok and zpos; alpha and gamma are derived from them
where a dense W is built.  The batched path (`FactoredParams`,
`token_masses`, `attention`, `grad_batch`) holds nothing of length M.

The batched softmax works on token masses: the query carries no token, so
every weight is S_bj = a[s_bj] e_j / Z_b, with a_k = exp(t_k - T) per token,
e_j = exp(zpos_j - max zpos) per position and T = max(max t, zpos_N - max
zpos).  xs[k, b], the weight episode b puts on token k, is a_k G[k, b] / Z_b,
with G[k, b] the sum of e_j over the positions of b holding k: one
`bincount` over the cell index of the `Batch`, or one gemm per token for
many iterates on one batch (`stacked_masses`, the trainer's test metrics).
The tail is O(K B), with no log or exp over it.  f, l', dL/dV and dL/dW12
need only the K x B masses; D needs one gather.  Where an a_k or a row's
largest term could fall below a normal double (`usual_form`), the same
softmax runs on the dense (B, N) logits instead.

c, p^_N and the step sizes of the logit vectors are fixed for a run, so
`geometry` builds them once, in O(M + N), into a `Geometry` that every
batched function takes in place of the positional matrix and the
normalization flag; the geometry holds no P, and nothing on the batched
path reads it.  Every batched function takes a `Batch`: a (B, N) state
array whose last column is the label, built once per dataset, with its
cell index and, for a walk test set, what `evaluate` compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markov import TransitionMatrix

__all__ = ["BatchGrad", "Geometry", "geometry", "FactoredParams", "Batch", "TokenMasses",
           "usual_form", "token_masses", "stacked_masses", "attention", "grad_batch"]


@dataclass(frozen=True)
class BatchGrad:
    """Uniform-average gradient over a batch, its loss and its mean l'.

    dL/dW12 = a p^_N^T and dL/dW22 = (P D) p^_N^T; only a and D are kept,
    and dL/dW11 = dL/dW21 = 0.
    """

    gV: np.ndarray  # (K, K)
    a: np.ndarray  # (K,)
    D: np.ndarray  # (N,)
    loss: float
    lprime_mean: float


@dataclass(frozen=True)
class Geometry:
    """What the model sees of the positions, fixed for a run."""

    c: np.ndarray  # (N,) augmented column norms; ones without normalization
    pnh: np.ndarray  # (M,) p^_N = p_N / c_N
    pnh_sq: float  # |p^_N|^2: W12 -= eta a p^_N^T moves wtok by -eta pnh_sq a
    zrate: np.ndarray  # (N,) |p^_N|^2 phi / c: W22 -= eta (P D) p^_N^T moves zpos by -eta zrate D


def geometry(M: int, N: int, normalize: bool = False) -> Geometry:
    """p^_N, the logit step sizes and the norms c_j of the augmented
    columns [x_j; p_j] of the (M, N) positional matrix P when the attention
    input is column-normalized: each p_j has squared norm phi = (M+1)/2,
    and x_j is a unit token except at the query.  One exact body norm keeps
    equal body logits equal.  Of P it computes the last column alone, bit
    for bit as `build_positional(M, N)[:, -1]`."""
    if not 1 <= N <= M:
        raise ValueError(f"need 1 <= N <= M, got N={N}, M={M}")
    phi = (M + 1) / 2.0
    c = np.ones(N)
    if normalize:
        c[:-1] = math.sqrt(1.0 + phi)
        c[-1] = math.sqrt(phi)
    pnh = np.sin(np.arange(1, M + 1) * N * np.pi / (M + 1)) / c[-1]
    pnh_sq = float(pnh @ pnh)
    return Geometry(c=c, pnh=pnh, pnh_sq=pnh_sq, zrate=pnh_sq * phi / c)


@dataclass(frozen=True)
class FactoredParams:
    """The parameters as the batched model sees them, and all that
    gradient descent changes: V, the token logit vector wtok = W12 p^_N
    and the positional logits zpos = P^T W22 p^_N / c."""

    V: np.ndarray  # (K, K)
    wtok: np.ndarray  # (K,)
    zpos: np.ndarray  # (N,)


@dataclass(frozen=True)
class Batch:
    """A (B, N) state array labelled by its last column, with what every
    pass over it reads, built once per dataset (`Batch.of`): the labels,
    the uniform weights and, for a walk test set, the true conditionals
    q_b = Pi[s_{b,N-1}] (token-major, like the masses), where q is nonzero
    and Pi^T / |Pi|_F.  Its two (B, N-1) arrays, the cell index and the
    `work` buffer, are made on first use.  `reindex` refreshes the labels
    and the index in place after new states were drawn into `states`."""

    states: np.ndarray  # (B, N)
    y: np.ndarray  # (B,) labels, 0-based
    weights: np.ndarray  # (B,) uniform
    tm: TransitionMatrix | None = None
    q: np.ndarray | None = None  # (K, B)
    q_at: np.ndarray | None = None  # (w, B) flat (k, b) of q's w nonzeros per column, k increasing
    pit_unit: np.ndarray | None = None  # Pi^T / |Pi|_F

    @classmethod
    def of(cls, states: np.ndarray, K: int, tm: TransitionMatrix | None = None) -> "Batch":
        """The batch of a state array over K tokens; `tm` is the walk's
        transition matrix for a test set, None where none applies (QA
        tasks) or no metric compares against it (training sets)."""
        states = np.asarray(states)
        B = len(states)
        common = dict(states=states, y=np.subtract(states[:, -1], 1, dtype=np.intp),
                      weights=np.full(B, 1.0 / B))
        if tm is None:
            return cls(**common)
        q = tm.Pi.T[:, states[:, -2] - 1]
        k = np.nonzero(q.T)[1].reshape(B, -1).T  # Pi is circulant: as many in every column
        return cls(**common, tm=tm, q=q, q_at=k * B + np.arange(B),
                   pit_unit=tm.Pi.T / np.linalg.norm(tm.Pi))

    def reindex(self) -> None:
        """Recompute the labels and the cell index from `states` in place."""
        np.subtract(self.states[:, -1], 1, out=self.y)
        self._cells(self.cell)

    @cached_property
    def cell(self) -> np.ndarray:
        """(B, N-1) flat cell (s_bj - 1) * B + b of each body token."""
        return self._cells(np.empty(self.states[:, :-1].shape, np.intp))

    def _cells(self, out: np.ndarray) -> np.ndarray:
        B = len(out)
        np.multiply(self.states[:, :-1], B, out=out)
        out += (np.arange(B) - B)[:, None]
        return out

    @cached_property
    def work(self) -> np.ndarray:
        """(B, N-1) floats for one pass over the cell index; no result aliases it."""
        return np.empty(self.cell.shape)

    def present(self, K: int) -> np.ndarray:
        """(K,) bool: whether token k + 1 occurs in some body."""
        return np.bincount(self.states[:, :-1].ravel() - 1, minlength=K) > 0


_EXP_NORMAL = 708.0  # exp(-708) is a normal double; below, precision goes, at -745 all of it


@dataclass(frozen=True)
class TokenMasses:
    """Attention of a batch kept per token, token-major so that sums over
    the K tokens run across the batch: xs[k, b] is the weight episode b
    puts on token k (the sum of S_bj over its body positions with
    s_bj = k), and sN[b] = S_bN.  S_bj = a[s_bj] e_j / Z_b, or on the dense
    route the weights S themselves (then a, Z and e are None)."""

    xs: np.ndarray  # (K, B)
    sN: np.ndarray  # (B,)
    a: np.ndarray | None  # (K,) exp(t_k - T)
    Z: np.ndarray | None  # (B,) sum_k a_k G[k, b] + exp(zpos_N - max zpos - T)
    e: np.ndarray | None  # (N-1,) exp(zpos_j - max zpos) of the body
    S: np.ndarray | None  # (B, N)

    def body(self, batch: Batch) -> np.ndarray:
        """The (B, N-1) weights S_bj of the body."""
        if self.S is not None:
            return self.S[:, :-1]
        return self.a[batch.states[:, :-1] - 1] * self.e / self.Z[:, None]

    def position_sums(self, batch: Batch, v: np.ndarray) -> np.ndarray:
        """sum_b S_bj v[s_bj, b] for each body position j, v (K, B): one gather
        into the batch's `work` buffer, summed in increasing b for every j."""
        r = v if self.S is not None else v * (self.a[:, None] / self.Z)  # v a_k / Z_b
        w = np.take(r.ravel(), batch.cell, out=batch.work, mode="clip")  # "raise" buffers out
        if self.S is not None:
            return np.einsum("bj,bj->j", w, self.S[:, :-1])
        return self.e * np.einsum("bj->j", w)


def usual_form(fp: FactoredParams, geo: Geometry) -> np.ndarray:
    """Whether `token_masses` at fp takes its usual form: every body e_j,
    every a_k and the largest term of any row a normal double; one flag per
    iterate where fp's arrays carry a leading axis of iterates."""
    return np.logical_and(*_ranges(fp.wtok / geo.c[0], fp.zpos)[1:])


def _ranges(t: np.ndarray, zpos: np.ndarray) -> tuple:
    """zmax and two flags over the leading axes: every body e_j a normal
    double, and the linear form's clause, with zN = zpos_N - zmax and
    T = max(max t, zN): every a_k and the least a row's largest term can
    be, max(exp(zN - T), min_k a_k max_j e_j), a normal double (so an inf
    or a NaN fails it; the form adds no two logits)."""
    zmax, tmin = zpos.max(axis=-1), t.min(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: not usual
        zN, body = zpos[..., -1] - zmax, zpos[..., :-1]
        low = np.minimum(tmin, np.maximum(zN, tmin + (body.max(axis=-1) - zmax)))
        return zmax, zmax - body.min(axis=-1) <= _EXP_NORMAL, (
            low - np.maximum(t.max(axis=-1), zN) >= -_EXP_NORMAL)


def token_masses(fp: FactoredParams, batch: Batch, geo: Geometry) -> TokenMasses:
    """Softmax attention of a batch from per-token masses.

    The logit of body position j is t[s_bj] + zpos_j with t = wtok / c_body
    (all body columns have the same norm); the query's is zpos_N.  Outside
    the usual form the absent tokens are masked, and the dense softmax runs
    unless the masked logits meet the linear form's clause.  Raises
    FloatingPointError on non-finite logits.
    """
    B, K = batch.states.shape[0], fp.V.shape[0]
    zpos, t = fp.zpos, fp.wtok / geo.c[0]
    zmax, body, linear = _ranges(t, zpos)
    if not (body and linear):
        # absent tokens never enter: mask them, then test the rest
        t = np.where(batch.present(K), t, 0.0)
        if not (math.isfinite(float(t.min()) + float(zpos.min()))
                and math.isfinite(float(t.max()) + float(zmax))):
            raise FloatingPointError("non-finite attention logits")
        if not _ranges(t, zpos)[2]:
            return _dense_masses(t, zpos, batch)

    e = np.exp(zpos[:-1] - zmax)  # = exp(-(zmax - zpos)) bit for bit
    batch.work[:] = e  # e_j at every cell (b, j)
    G = np.bincount(batch.cell.ravel(), batch.work.ravel(), minlength=K * B).reshape(K, B)
    return _from_sums(G, t, zpos[-1] - zmax, e)


def stacked_masses(wtok: np.ndarray, zpos: np.ndarray, tokens: np.ndarray, geo: Geometry,
                   onehot: np.ndarray, xs: np.ndarray) -> TokenMasses:
    """`token_masses` of n iterates in their usual form on one batch, from
    their token logits wtok (n, K) and positional logits zpos (n, N), each
    field with a leading axis of length n.  `tokens` holds the body tokens,
    0-based and position-major (N-1, B); `onehot` (N-1, w <= B) and xs
    (max(n, 2), K, B) are buffers: xs[:n] takes the sums G, then the
    masses.  G[:, k] = E @ C_k, a gemm per token k and w columns with C_k
    its 0/1 matrix, adds in increasing j as the `bincount` does, so the
    bits are `token_masses`'; E has two rows, as numpy takes one by gemv."""
    n = len(zpos)
    zmax = zpos.max(axis=1)
    E = np.zeros((max(n, 2), zpos.shape[1] - 1))
    np.exp(-(zmax[:, None] - zpos[:, :-1]), out=E[:n])
    w = onehot.shape[1]  # C_k w columns at a time
    for c in range(0, tokens.shape[1], w):
        C = onehot[:, :tokens.shape[1] - c]
        for k in range(xs.shape[1]):
            np.equal(tokens[:, c:c + w], k, out=C, casting="unsafe")
            np.matmul(E, C, out=xs[:len(E), k, c:c + w])
    return _from_sums(xs[:n], wtok / geo.c[0], zpos[:, -1] - zmax, E[:n])


def _from_sums(G: np.ndarray, t: np.ndarray, zN: float | np.ndarray,
               e: np.ndarray) -> TokenMasses:
    """The masses, written over the positional sums G (..., K, B), from the
    token logits t (..., K), zN = zpos_N - max zpos (...) and e: xs = a G / Z
    and sN = a_N / Z with a_N = exp(zN - T) and Z = sum_k a_k G[k] + a_N, a
    numpy sum in increasing k, so that stacked and single rows agree."""
    zN = np.asarray(zN)[..., None]
    T = np.maximum(t.max(axis=-1, keepdims=True), zN)
    a, aN = np.exp(t - T), np.exp(zN - T)
    G *= a[..., None]
    Z = G.sum(axis=-2) + aN
    G /= Z[..., None, :]
    return TokenMasses(xs=G, sN=aN / Z, a=a, Z=Z, e=e, S=None)


def _dense_masses(t: np.ndarray, zpos: np.ndarray, batch: Batch) -> TokenMasses:
    """The same softmax over the (B, N) logits, each row shifted by its max."""
    B, K = len(batch.states), t.shape[0]
    z = np.column_stack((t[batch.states[:, :-1] - 1] + zpos[:-1], np.full(B, zpos[-1])))
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    xs = np.bincount(batch.cell.ravel(), z[:, :-1].ravel(), minlength=K * B).reshape(K, B)
    return TokenMasses(xs=xs, sN=z[:, -1], a=None, Z=None, e=None, S=z)


def attention(fp: FactoredParams, batch: Batch, geo: Geometry) -> np.ndarray:
    """Attention weights S (B, N) of a batch, expanded from its token
    masses.  Raises FloatingPointError on non-finite logits."""
    m = token_masses(fp, batch, geo)
    return np.column_stack((m.body(batch), m.sN))


def grad_batch(fp: FactoredParams, batch: Batch, geo: Geometry, eps: float) -> BatchGrad:
    """Uniform-average gradient over a batch of episodes.

    From its token masses at fp, with wl = l' / B: f_b = V xs_b,
    gV = sum_b wl_b e_{y_b} xs_b^T, a = sum_b wl_b xs_b * (V[y_b] - f_{y,b})
    / c_body, and D_j = sum_b wl_b S_bj (V[y_b, s_bj] - f_{y,b}) / c_j,
    whose body part is one gather and one column sum.  Raises ValueError
    when some f_y + eps <= 0, outside the log loss's domain.
    """
    N, K = batch.states.shape[1], fp.V.shape[0]
    y, weights = batch.y, batch.weights
    m = token_masses(fp, batch, geo)

    at = y * K + np.arange(K)[:, None]  # (K, B): (y_b, k) in V, flat
    g = np.take(fp.V, at)  # V[y_b, k]
    f_y = (g * m.xs).sum(axis=0)
    arg = f_y + eps
    if (arg <= 0.0).any():
        raise ValueError(f"log-loss argument must be positive, got {arg.min()}")
    losses = -np.log(arg)
    lp = -1.0 / arg
    wl = weights * lp

    gV = np.bincount(at.ravel(), (m.xs * wl).ravel(), minlength=K * K).reshape(K, K)
    g -= f_y  # (K, B): q - f_y for every token of each episode
    g *= wl
    a = (m.xs * g).sum(axis=1) / geo.c[0]
    D = np.empty(N)
    D[:-1] = m.position_sums(batch, g) / geo.c[:-1]
    D[-1] = -(wl * m.sN) @ f_y / geo.c[-1]  # the query token is zero, so q_N = 0
    return BatchGrad(gV=gV, a=a, D=D, loss=float(weights @ losses),
                     lprime_mean=float(weights @ lp))
