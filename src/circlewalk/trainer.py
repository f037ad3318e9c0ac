"""Gradient-descent training loop with per-iteration metrics.

Supports zero or Gaussian initialization, full-batch empirical gradients
over a fixed seeded dataset (optionally resampled each iteration), and the
exact population gradient in the deterministic-walk regime (p in {0,1},
N = r*K + 1) where the K possible episodes can be enumerated and form both
the training and the test batch.

Training runs on the factored parameters V, wtok and zpos (see
`gradients`), from a `Geometry` and initial factors (`init_factors`)
built once in O(M + N); nothing of length M is formed.  Every iteration
is `grad_batch` + `step` (O(K^2 + N)), a finiteness guard and a
snapshot.  The test metrics of every run come once per block of
L = min(T, max(1, 2^16 // (K max(B, N)))) iterations (`_Block`):
`stacked_masses` takes the test set's masses of all L iterates at once,
one gemm per token (`token_masses` those of an iterate in its rare
form), and one vectorised pass adds accuracy, KL, f_dist, v_dist, beta
and gamma.  Each dataset is one `Batch` (`make_test_batch` adds the test
set's target constants); under `resample` each fresh training set is
drawn into the states of the first and reindexed in place, so no
iteration allocates a cell-sized array.
Snapshots are the factored parameters themselves (`params.bin` holds the
last); the trace keeps the geometry and no dense block.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import walkgen
from .gradients import (Batch, BatchGrad, FactoredParams, Geometry, TokenMasses,
                        geometry, grad_batch, stacked_masses, token_masses, usual_form)
from .markov import decompose_v, transition_matrix
from .posembed import positional_times
from .walkgen import WalkConfig, make_dataset, enumerate_deterministic

__all__ = [
    "TrainConfig", "MetricsRow", "TrainTrace",
    "gaussian_blocks", "init_factors", "step", "first_step_oracle_v", "train", "make_test_batch",
    "evaluate",
]

ZERO = "zero"
GAUSSIAN = "gaussian"
EMPIRICAL = "empirical"
POPULATION = "population"

# the type a field's annotation names, and how its error message says it
_KINDS = {"bool": (bool, "true or false"), "int": (numbers.Integral, "an integer"),
          "float": (numbers.Real, "a real number")}


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs; identical configs give identical traces."""

    K: int = 6
    p: float = 0.5
    N: int = 97
    M: int = 1000
    eta: float = 1.0
    eps: float = 0.1
    iterations: int = 50
    init: str = ZERO
    sigma: float = 0.0
    grad_mode: str = EMPIRICAL
    train_size: int = 1000
    test_size: int = 1000
    resample: bool = False
    normalize_attention: bool = False
    seed: int = 0
    qa_task: str | None = None  # overrides K/p/N when set

    def __post_init__(self):
        self._check_types()
        # written so that NaN fails every comparison
        if not (0 < self.eta < math.inf and 0 < self.eps < math.inf):
            raise ValueError(f"eta and eps must be positive and finite, got "
                             f"eta={self.eta}, eps={self.eps}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.train_size < 1 or self.test_size < 1:
            raise ValueError(f"train_size and test_size must be >= 1, got "
                             f"{self.train_size} and {self.test_size}")
        if self.init not in (ZERO, GAUSSIAN):
            raise ValueError(f"unknown init {self.init!r}")
        if self.grad_mode not in (EMPIRICAL, POPULATION):
            raise ValueError(f"unknown grad_mode {self.grad_mode!r}")
        if self.qa_task is not None and self.qa_task not in walkgen.QA_N:
            raise ValueError(f"unknown QA task {self.qa_task!r}")
        wc = self.walk_config()  # range checks of K, p, N and M
        if self.resample and (self.grad_mode == POPULATION or self.qa_task is not None):
            raise ValueError("resample applies only to empirical walk training")
        if self.grad_mode == POPULATION:
            if self.qa_task is not None:
                raise ValueError("population mode applies to deterministic walks only")
            wc.require_deterministic_theory()

    def _check_types(self):
        """bool fields take only bools, int fields only non-bool integers,
        float fields only non-bool real numbers (so JSON "no" or 2.5 is an
        error, not a truthy flag or a float count)."""
        for f in fields(self):
            if f.type in _KINDS:
                kind, what = _KINDS[f.type]
                v = getattr(self, f.name)
                if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
                    raise TypeError(f"{f.name} must be {what}, got {v!r}")

    def walk_config(self) -> WalkConfig:
        if self.qa_task is not None:
            return WalkConfig(K=walkgen.QA_K, p=0.5, N=walkgen.QA_N[self.qa_task], M=self.M)
        return WalkConfig(K=self.K, p=self.p, N=self.N, M=self.M)

    @property
    def seeds(self) -> dict[str, int]:
        """The seed of each stream a run draws (under resample, every training set's)."""
        first = {"resample": self.seed + 3} if self.resample else {"train": self.seed}
        return {**first, "test": self.seed + 1, "init": self.seed + 2}

    def snapshot_schedule(self) -> set[int]:
        """0, 1, 2, the powers of two below T, and T."""
        sched = {0, 1, 2, self.iterations}
        t = 4
        while t < self.iterations:
            sched.add(t)
            t *= 2
        return sched


@dataclass(frozen=True)
class MetricsRow:
    iter: int
    loss: float
    accuracy: float
    kl: float
    v_dist: float
    f_dist: float
    attn_parent: float
    attn_other_max: float
    beta: float
    gamma: float

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, f) for f in METRIC_FIELDS)


METRIC_FIELDS = tuple(f.name for f in fields(MetricsRow))


@dataclass
class TrainTrace:
    config: TrainConfig
    geometry: Geometry  # column norms, p^_N and step sizes of the run
    rows: list[MetricsRow] = field(default_factory=list)
    snapshots: dict[int, FactoredParams] = field(default_factory=dict)
    lprimes: list[float] = field(default_factory=list)  # mean l' at each pre-step t

    @property
    def final_snapshot(self) -> FactoredParams:
        return self.snapshots[max(self.snapshots)]

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


# rows of W22 that `gaussian_blocks` draws at a time: 64 x M float64
_W22_ROWS = 64


def gaussian_blocks(K: int, M: int, sigma: float, rng: np.random.Generator):
    """The Gaussian init's stream, sigma times standard normals: V, W11,
    W12 and W21, then W22 as fresh blocks of `_W22_ROWS` rows, top to
    bottom.  Rows come off the stream as in one (M, M) draw, so a consumer
    can reduce W22 block by block without holding it."""
    for shape in ((K, K), (K, K), (K, M), (M, K)):
        yield sigma * rng.standard_normal(shape)
    for i in range(0, M, _W22_ROWS):
        yield sigma * rng.standard_normal((min(_W22_ROWS, M - i), M))


def init_factors(cfg: TrainConfig, geo: Geometry) -> FactoredParams:
    """The factored view of the init, without its dense blocks: all zeros,
    or V, W12_0 p^_N and P^T W22_0 p^_N / c from the Gaussian stream drawn
    with the "init" seed, W22_0 reduced block by block to u = W22_0 p^_N.
    P^T u is the first N entries of the square sine transform of u, taken
    by `positional_times` without P."""
    wc = cfg.walk_config()
    K, M, N = wc.K, cfg.M, wc.N
    if cfg.init == ZERO:
        return FactoredParams(V=np.zeros((K, K)), wtok=np.zeros(K), zpos=np.zeros(N))
    blocks = gaussian_blocks(K, M, cfg.sigma, np.random.default_rng(cfg.seeds["init"]))
    V, _, W12, _ = itertools.islice(blocks, 4)  # the query never reads W11 or W21
    u = np.concatenate([rows @ geo.pnh for rows in blocks])  # W22_0 p^_N
    return FactoredParams(V=V, wtok=W12 @ geo.pnh, zpos=positional_times(u, M)[:N] / geo.c)


def step(fp: FactoredParams, bg: BatchGrad, eta: float, geo: Geometry) -> FactoredParams:
    """One plain gradient-descent update in O(K^2 + N).  W12 -= eta a p^_N^T
    moves wtok = W12 p^_N by -eta |p^_N|^2 a, and W22 -= eta (P D) p^_N^T
    moves zpos = P^T W22 p^_N / c by -eta |p^_N|^2 phi D / c (P^T P = phi I);
    W11/W21 carry zero gradient."""
    return FactoredParams(
        V=fp.V - eta * bg.gV,
        wtok=fp.wtok - eta * geo.pnh_sq * bg.a,
        zpos=fp.zpos - eta * geo.zrate * bg.D,
    )


def first_step_oracle_v(cfg: TrainConfig) -> np.ndarray:
    """Closed form for V after one zero-init step on the population loss:
    eta/(eps*N*K) * sum_{k=1}^{N-1} (Pi^T)^k."""
    wc = cfg.walk_config()
    PiT = transition_matrix(wc.K, wc.p).Pi.T
    acc = np.zeros((wc.K, wc.K))
    Pk = np.eye(wc.K)
    for _ in range(wc.N - 1):
        Pk = Pk @ PiT
        acc += Pk
    return cfg.eta / (cfg.eps * wc.N * wc.K) * acc


# entries of f = V xs, and of K zpos, in a block of rows: L = 112 at B = 6, N = 97; 10 at B = 1000
_BLOCK_ELEMENTS = 2 ** 16
# attn_other_max reads the body positions of the largest e_j first
_TOP = 16


class _Block:
    """The test metrics of up to L iterations, taken at once by `flush`:
    each run of iterates in `token_masses`' usual form through
    `stacked_masses` and `_fields`, any other through `token_masses` and
    the whole body, then f = V xs as one batched matmul."""

    def __init__(self, test: Batch, geo: Geometry, K: int, L: int):
        (B, N), self.test, self.geo, self.heads = test.states.shape, test, geo, []
        self.V, self.wtok, self.zpos = np.empty((L, K, K)), np.empty((L, K)), np.empty((L, N))
        self.f, self.xs = np.empty((L, K, B)), np.empty((L + 1, K, B))  # xs: G of a lone last iterate
        # position-major tokens; C_k 128 columns at a time (a whole one-hot made short runs fault)
        self.tokens = np.empty((N - 1, B), np.min_scalar_type(K - 1))
        np.subtract(test.states[:, :-1].T, 1, out=self.tokens, casting="unsafe")
        self.onehot = np.empty((N - 1, min(B, 128)))
        # iterates per `_fields` pass, whose (n, _TOP, B) gathers hold <= 2^16 / K entries
        self.chunk = max(1, _BLOCK_ELEMENTS // (_TOP * K * B))

    def add(self, fp: FactoredParams, it: int, loss: float) -> bool:
        """Keep iterate `it`; True when the block is full."""
        n = len(self.heads)
        self.V[n], self.wtok[n], self.zpos[n] = fp.V, fp.wtok, fp.zpos
        self.heads.append((it, loss))
        return n + 1 == len(self.f)

    def flush(self) -> list[MetricsRow]:
        n, heads, self.heads = len(self.heads), self.heads, []
        stack = FactoredParams(self.V[:n], self.wtok[:n], self.zpos[:n])
        fields, j = [], 0
        for usual, run in itertools.groupby(usual_form(stack, self.geo)):
            i, j = j, j + len(list(run))
            if usual:
                fields += self._fields(stacked_masses(self.wtok[i:j], self.zpos[i:j], self.tokens,
                                                      self.geo, self.onehot, self.xs[i:]))
            else:  # the rare form: read the whole body
                for k in range(i, j):
                    m = token_masses(FactoredParams(stack.V[k], stack.wtok[k], stack.zpos[k]),
                                     self.test, self.geo)
                    self.xs[k], w, body = m.xs, self.test.weights, m.body(self.test)
                    other = np.maximum(body[:, :-1].max(axis=1, initial=0.0), m.sN)
                    fields.append((float(w @ body[:, -1].copy()), float(w @ other)))
        f = np.matmul(self.V[:n], self.xs[:n], out=self.f[:n])
        heads = [head + pair for head, pair in zip(heads, fields)]
        return _block_rows(self.test, f, self.V[:n], heads, self.xs[:n])

    def _fields(self, m: TokenMasses) -> list[tuple[float, float]]:
        """attn_parent and attn_other_max of the iterates of stacked masses,
        `chunk` at a time, from S_bj = a[s_bj] e_j / Z_b without the body:
        the `_TOP` positions of largest e_j, and all of b's only where
        max_k a_k times the next e_j could exceed those.  Z_b divides after
        the max, which rounding keeps where it was."""
        fields, tokens, w = [], self.tokens, self.test.weights
        for c in range(0, len(m.sN), self.chunk):
            a, e, Z, sN = (x[c:c + self.chunk] for x in (m.a, m.e, m.Z, m.sN))
            i, K = np.arange(len(a))[:, None], a.shape[1]  # a[i, k] is flat a[K i + k]
            parent = np.take(a, tokens[-1] + K * i) * e[:, -1:] / Z
            e = e[:, :-1]
            top, rest = np.arange(e.shape[1]) + 0 * i, np.zeros((len(a), 1))  # all, when few
            if e.shape[1] > _TOP:
                order = np.argpartition(e, e.shape[1] - _TOP - 1, axis=1)
                top, rest = order[:, -_TOP:], e[i, order[:, -_TOP - 1:-_TOP]]
            other = np.take(a, tokens[top] + K * i[..., None])  # a[s_bj] at the top positions
            other *= e[i, top][..., None]
            other = other.max(axis=1, initial=0.0)
            ib, b = np.nonzero(other < a.max(axis=1, keepdims=True) * rest)
            if len(b):
                other[ib, b] = (np.take(a, tokens[:-1, b].T + K * i[ib]) * e[ib]).max(axis=1)
            other /= Z
            np.maximum(other, sN, out=other)
            fields += [(float(w @ p), float(w @ o)) for p, o in zip(parent, other)]
        return fields


def evaluate(fp: FactoredParams, test: Batch, geo: Geometry, it: int = 0,
             loss: float = float("nan")) -> MetricsRow:
    """Test-set metrics: accuracy, KL and f_dist from f = V xs, the
    attention fields from the body weights S_bj; the matrix-comparison
    fields are NaN when the batch carries no transition matrix (QA tasks)
    or a norm vanishes (zero init).  A block of one through `train`'s
    block pass, so the row has the trainer's bits."""
    block = _Block(test, geo, fp.V.shape[0], 1)
    block.add(fp, it, loss)
    return block.flush()[0]


def _block_rows(test: Batch, f: np.ndarray, V: np.ndarray, heads: list,
                work: np.ndarray) -> list[MetricsRow]:
    """The rows of n iterations from their f = V xs (n, K, B), which this
    overwrites, V (n, K, K) and heads (iter, loss, attn_parent,
    attn_other_max); `work` is an (n, K, B) buffer.  Each sum over the batch
    is one dot per row (`vecdot`), so a row has the same bits whatever n."""
    (n, K, B), y = f.shape, test.y
    # argmax's rule without its strided pass: y_b is the first maximum, a NaN above all
    hit = f == f.max(axis=1, keepdims=True)
    if not hit.any(axis=1).all():  # a column holds a NaN
        hit |= np.isnan(f)
    first = np.take(hit.reshape(n, -1), y * B + np.arange(B), axis=1)
    hit &= np.arange(K)[:, None] < y
    accuracy = np.count_nonzero(first > hit.any(axis=1), axis=1) / B
    kl = v_dist = f_dist = beta = gamma = np.full(len(heads), np.nan)
    if test.tm is not None:
        q, weights = test.q, test.weights
        fm = np.maximum(f, 0.0, out=work)
        fm += 1e-12
        # q log(q / fm) where q > 0, in increasing k; the other terms are +0
        qs, fq = np.take(q, test.q_at), np.take(fm.reshape(n, -1), test.q_at, axis=1)
        fq /= fm.sum(axis=1)[:, None]
        np.log(np.divide(qs, fq, out=fq), out=fq)
        fq *= qs
        kl = np.vecdot(fq.sum(axis=1), weights)
        fu = _unit(f, 1, work)
        fu -= q
        f_dist = np.vecdot(np.sqrt(np.square(fu, out=work).sum(axis=1)), weights)
        beta, gamma = decompose_v(V, test.tm.Pi)
        vu = _unit(V.copy(), (1, 2), np.empty(V.shape))
        vu -= test.pit_unit
        v_dist = np.sqrt((vu * vu).sum(axis=(1, 2)))
    cols = zip(*(x.tolist() for x in (accuracy, kl, v_dist, f_dist, beta, gamma)))
    return [MetricsRow(it, loss, acc, k, vd, fd, ap, am, b, g)
            for (it, loss, ap, am), (acc, k, vd, fd, b, g) in zip(heads, cols)]


def _unit(x: np.ndarray, axis, work: np.ndarray) -> np.ndarray:
    """x over its l2 norm along `axis`, in place, NaN where that norm is 0;
    x is scaled by its max-abs first, so its sum of squares cannot
    overflow.  `work` is a buffer of x's shape."""
    scale = np.abs(x, out=work).max(axis=axis, keepdims=True)
    scale[scale == 0.0] = np.nan  # 0 / NaN is a quiet NaN: no warning
    x /= scale
    x /= np.sqrt(np.square(x, out=work).sum(axis=axis, keepdims=True))
    return x


def make_test_batch(cfg: TrainConfig) -> Batch:
    """The test set of a run: `test_size` episodes drawn with the "test"
    seed and the walk's transition matrix (none for QA tasks); a population
    run tests, and trains, on the K enumerated episodes."""
    wc = cfg.walk_config()
    tm = None if cfg.qa_task is not None else transition_matrix(wc.K, wc.p)
    if cfg.grad_mode == POPULATION:
        return Batch.of(enumerate_deterministic(wc), wc.K, tm)
    return Batch.of(_episodes(cfg, cfg.test_size, cfg.seeds["test"]), wc.K, tm)


def _episodes(cfg: TrainConfig, count: int, seed: int) -> np.ndarray:
    """`count` QA or walk episodes of the run's task, drawn with `seed`."""
    if cfg.qa_task is not None:
        return walkgen.qa_dataset(cfg.qa_task, count, seed=seed)
    return make_dataset(cfg.walk_config(), count, seed=seed)


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the full loop; one MetricsRow per iteration t = 1..T (a single
    t=0 row when T=0), snapshots per schedule, mean l' recorded per step."""
    wc = cfg.walk_config()
    geo = geometry(cfg.M, wc.N, cfg.normalize_attention)
    fp = init_factors(cfg, geo)
    test = make_test_batch(cfg)

    trace = TrainTrace(config=cfg, geometry=geo)
    trace.snapshots[0] = fp
    if cfg.iterations == 0:
        trace.rows.append(evaluate(fp, test, geo))
        return trace

    schedule = cfg.snapshot_schedule()
    # a population run trains on its test batch; under resample every
    # iteration draws its own training set, into the arrays of the first
    if cfg.grad_mode == POPULATION:
        batch = test
    elif cfg.resample:
        resample_rng = np.random.default_rng(cfg.seeds["resample"])
        batch = Batch.of(make_dataset(wc, cfg.train_size, rng=resample_rng), wc.K)
    else:
        batch = Batch.of(_episodes(cfg, cfg.train_size, cfg.seeds["train"]), wc.K)
    K, B, N = wc.K, len(test.y), wc.N
    block = _Block(test, geo, K, min(cfg.iterations, max(1, _BLOCK_ELEMENTS // (K * max(B, N)))))
    for t in range(1, cfg.iterations + 1):
        if cfg.resample and t > 1:
            make_dataset(wc, cfg.train_size, rng=resample_rng, out=batch.states)
            batch.reindex()
        bg = grad_batch(fp, batch, geo, cfg.eps)
        fp = step(fp, bg, cfg.eta, geo)
        trace.lprimes.append(bg.lprime_mean)
        if not all(np.isfinite(x).all() for x in (fp.V, fp.wtok, fp.zpos)):
            raise FloatingPointError(f"non-finite parameters at iteration {t}")
        if block.add(fp, t, bg.loss) or t == cfg.iterations:
            trace.rows += block.flush()
        if t in schedule:
            trace.snapshots[t] = fp
    return trace

