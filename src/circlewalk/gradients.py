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

The batched softmax works on token masses: xs[k, b], the weight episode b
puts on token k, is exp(t_k) G[k, b] / Z_b with G[k, b] the sum of the
positional weights e_j = exp(zpos_j - max zpos) over the positions of b
holding k.  G is one `bincount` over the cell index of the `Batch`, or
one gemm per token for the stacked wtok and zpos of many iterates on one
batch (`stacked_masses`, the trainer's test metrics).  f, l', dL/dV and
dL/dW12 need only the K x B masses; D needs one gather.  Where e
underflows at a position that can still carry weight (token and
positional logit ranges both beyond exp's: not `usual_form`), the same
softmax runs on the dense (B, N) logits instead.

c, p^_N and the step sizes of the logit vectors are fixed for a run, so
`geometry` builds them once, in O(M + N), into a `Geometry` that every
batched function takes in place of the positional matrix and the
normalization flag; the geometry holds no P, and nothing on the batched
path reads it.  Every batched function takes a `Batch`: a (B, N) state
array whose last column is the label, built once per dataset with its
cell index and, for a walk test set, the true conditionals `evaluate`
compares against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    the uniform weights, the cell index of the body tokens into token-major
    (K, B) arrays and, for a walk test set, the true conditionals q_b =
    Pi[s_{b,N-1}] (token-major, like the masses), q with its zeros set to 1
    and Pi^T / |Pi|_F.  `reindex` refreshes the labels and the cell index in
    place after a new state array was drawn into `states`."""

    states: np.ndarray  # (B, N)
    y: np.ndarray  # (B,) labels, 0-based
    weights: np.ndarray  # (B,) uniform
    cell: np.ndarray  # (B, N-1) flat cell (s_bj - 1) * B + b of each body token
    tm: TransitionMatrix | None = None
    q: np.ndarray | None = None  # (K, B)
    q_safe: np.ndarray | None = None  # q with 1 where q = 0
    pit_unit: np.ndarray | None = None  # Pi^T / |Pi|_F

    @classmethod
    def of(cls, states: np.ndarray, K: int, tm: TransitionMatrix | None = None) -> "Batch":
        """The batch of a state array over K tokens; `tm` is the walk's
        transition matrix for a test set, None where none applies (QA
        tasks) or no metric compares against it (training sets)."""
        states = np.asarray(states)
        B, N = states.shape
        common = dict(states=states, y=np.empty(B, np.intp), weights=np.full(B, 1.0 / B),
                      cell=np.empty((B, N - 1), np.intp))
        if tm is None:
            batch = cls(**common)
        else:
            q = tm.Pi.T[:, states[:, -2] - 1]
            batch = cls(**common, tm=tm, q=q, q_safe=np.where(q > 0, q, 1.0),
                        pit_unit=tm.Pi.T / np.linalg.norm(tm.Pi))
        batch.reindex()
        return batch

    def reindex(self) -> None:
        """Recompute the labels and the cell index from `states` in place,
        as after a fresh training set was drawn into it."""
        B, cell = self.states.shape[0], self.cell
        np.subtract(self.states[:, -1], 1, out=self.y)
        np.multiply(self.states[:, :-1], B, out=cell)
        cell += (np.arange(B) - B)[:, None]

    def present(self, K: int) -> np.ndarray:
        """(K,) bool: whether token k + 1 occurs in some body."""
        B = self.states.shape[0]
        return np.bincount(self.cell.ravel(), minlength=K * B).reshape(K, B).any(axis=1)


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


def usual_form(fp: FactoredParams, geo: Geometry) -> np.ndarray:
    """Whether `token_masses` at fp takes its usual form: every body e_j a
    normal double and every logit finite, and so every logit sum; one flag
    per iterate where fp's arrays carry a leading axis of iterates."""
    return _ranges(fp.wtok / geo.c[0], fp.zpos)[2]


def _ranges(t: np.ndarray, zpos: np.ndarray) -> tuple:
    """zmin, zmax and `usual_form` from the token and positional logits,
    over their leading axes."""
    zmin, zmax = zpos.min(axis=-1), zpos.max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: not usual
        return zmin, zmax, ((zmax - zpos[..., :-1].min(axis=-1) <= _EXP_NORMAL)
                            & np.isfinite(t.min(axis=-1) + zmin)
                            & np.isfinite(t.max(axis=-1) + zmax))


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
    zpos, t = fp.zpos, fp.wtok / geo.c[0]
    zmin, zmax, usual = _ranges(t, zpos)
    if not usual:
        # an e_j underflows or a sum is not finite: mask the absent tokens,
        # which never enter (a finite logit meets G = 0 below)
        t = np.where(batch.present(K), t, 0.0)
        tmin, tmax = float(t.min()), float(t.max())
        if not (math.isfinite(tmin + float(zmin)) and math.isfinite(tmax + float(zmax))):
            raise FloatingPointError("non-finite attention logits")
        # dense where some e_j underflows at a position the tokens can make heavy
        gap = zmax - zpos[:-1]
        far = gap[gap > _EXP_NORMAL]
        if far.size and far.min() < max(tmax, 0.0) - min(tmin, 0.0) + _NEGLIGIBLE:
            return _dense_masses(t, zpos, batch)

    e = np.exp(zpos[:-1] - zmax)  # = exp(-(zmax - zpos)) bit for bit
    w = np.empty(batch.cell.shape)
    w[:] = e  # e_j at every cell (b, j)
    G = np.bincount(batch.cell.ravel(), w.ravel(), minlength=K * B).reshape(K, B)
    return _from_sums(G, t, zpos[-1] - zmax, e, np.empty((K, B)))


def stacked_masses(wtok: np.ndarray, zpos: np.ndarray, tokens: np.ndarray, geo: Geometry,
                   onehot: np.ndarray, G: np.ndarray, xs: np.ndarray) -> TokenMasses:
    """`token_masses` of n iterates in their usual form on one batch, from
    their token logits wtok (n, K) and positional logits zpos (n, N), each
    field with a leading axis of length n.  `tokens` holds the body tokens,
    0-based and position-major (N-1, B); `onehot` (N-1, w <= B), G
    (max(n, 2), K, B) and xs (n, K, B) are buffers.  G[:, k] = E @ C_k, a
    gemm per token k and w columns with C_k its 0/1 matrix, adds in
    increasing j as the `bincount` does, so the bits are `token_masses`';
    E has two rows at least, as numpy would take one row by gemv."""
    n = len(zpos)
    zmax = zpos.max(axis=1)
    E = np.zeros((max(n, 2), zpos.shape[1] - 1))
    np.exp(-(zmax[:, None] - zpos[:, :-1]), out=E[:n])
    w = onehot.shape[1]  # C_k w columns at a time
    for c in range(0, tokens.shape[1], w):
        C = onehot[:, :tokens.shape[1] - c]
        for k in range(G.shape[1]):
            np.equal(tokens[:, c:c + w], k, out=C, casting="unsafe")
            np.matmul(E, C, out=G[:len(E), k, c:c + w])
    return _from_sums(G[:n], wtok / geo.c[0], zpos[:, -1] - zmax, E[:n], xs[:n])


def _from_sums(G: np.ndarray, t: np.ndarray, zN: float | np.ndarray, e: np.ndarray,
               xs: np.ndarray) -> TokenMasses:
    """The masses, written into xs, from the positional sums G (..., K, B),
    which rate overwrites, the token logits t (..., K), the query's
    shifted logit zN (...) and the positional weights e."""
    occupied = G > 0
    xs[...] = -np.inf
    np.log(G, out=xs, where=occupied)
    xs += t[..., None]  # the logits L = t + log G, -inf where G = 0
    zN = np.asarray(zN)[..., None]
    r = np.maximum(xs.max(axis=-2), zN)
    xs -= r[..., None, :]
    np.exp(xs, out=xs)
    sN = np.exp(zN - r)
    Z = xs.sum(axis=-2) + sN
    xs /= Z[..., None, :]
    sN /= Z
    rate = np.divide(xs, G, out=G, where=occupied)  # G = 0 stays 0
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
    if m.S is not None:
        return m.S
    return np.column_stack((np.take(m.rate.ravel(), batch.cell) * m.e, m.sN))


def grad_batch(fp: FactoredParams, batch: Batch, geo: Geometry, eps: float) -> BatchGrad:
    """Uniform-average gradient over a batch of episodes.

    From its token masses at fp, with wl = l' / B: f_b = V xs_b,
    gV = sum_b wl_b e_{y_b} xs_b^T, a = sum_b wl_b xs_b * (V[y_b] - f_{y,b})
    / c_body, and D_j = sum_b wl_b S_bj (V[y_b, s_bj] - f_{y,b}) / c_j,
    whose body part is one gather and one column sum.  Raises ValueError
    when some f_y + eps <= 0, outside the log loss's domain.
    """
    B, N = batch.states.shape
    K = fp.V.shape[0]
    y, weights = batch.y, batch.weights
    m = token_masses(fp, batch, geo)

    f_y = (fp.V @ m.xs)[y, np.arange(B)]
    arg = f_y + eps
    if (arg <= 0.0).any():
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
                     lprime_mean=float(weights @ lp))
