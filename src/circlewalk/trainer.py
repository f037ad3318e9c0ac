"""Gradient-descent training loop with per-iteration metrics.

Supports zero or Gaussian initialization, full-batch empirical gradients
over a fixed seeded dataset (optionally resampled each iteration), and the
exact population gradient in the deterministic-walk regime (p in {0,1},
N = r*K + 1) where the K possible episodes can be enumerated and form both
the training and the test batch.

Training runs on the factored parameters (`FactoredParams`): V, the token
logit vector wtok = W12 p^_N and the positional logits zpos = P^T W22
p^_N / c, which are all that gradient descent changes (see `gradients`).
The run builds its `Geometry` and its initial factors (`init_factors`)
once, in O(M + N) from a zero init; the run forms no dense init block
and no P.
Every iteration is `grad_batch` + `step`, a guard against non-finite
parameters, the test set's token masses (which a population run hands to
the next `grad_batch`: it trains on its test batch) and a snapshot.  It
takes the attention fields from the masses and writes f = V xs and V into
(L, K, B) and (L, K, K) blocks; every L = min(T, max(1, 2^15 // (K B)))
iterations (a block of f is at most 256 KiB) and at the end, one
vectorised pass adds accuracy, KL, f_dist, v_dist, beta and gamma.
Gradient and metrics come from the per-token attention masses: one
iteration costs a few passes over each dataset's (B, N) cell index (the
`bincount` of the positional weights, one gather for D and one for the
attention fields), O(B*K) for the rest and O(K^2 + N) for the step;
nothing of length M is touched.  Each dataset is one `Batch`, built once
with its cell index (`make_test_batch` adds the test set's target
constants); under `resample` each fresh training set is drawn into the
states of the first and reindexed in place, so a run allocates its
integer (B, N) arrays once.
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
                        geometry, grad_batch, token_masses)
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


# f = V xs entries in a block of metrics rows (256 KiB): L = 910 at B = 6, 5 at B = 1000
_BLOCK_ELEMENTS = 2 ** 15


def evaluate(fp: FactoredParams, test: Batch, geo: Geometry, it: int = 0,
             loss: float = float("nan"), masses: TokenMasses | None = None) -> MetricsRow:
    """Test-set metrics: accuracy, KL and f_dist from f = V xs, the
    attention fields from the body weights S_bj; the matrix-comparison
    fields are NaN when the batch carries no transition matrix (QA tasks)
    or a norm vanishes (zero init).  `masses` is the test set's
    `token_masses` at `fp`, computed here when not given.  A block of one
    through `train`'s once-per-block pass, so the row has the trainer's bits."""
    m = token_masses(fp, test, geo) if masses is None else masses
    return _block_rows(test, (fp.V @ m.xs)[None], fp.V[None], [_head(test, m, it, loss)])[0]


def _head(test: Batch, m: TokenMasses, it: int, loss: float) -> tuple:
    """The fields of a row that read the masses: (iter, loss, attn_parent,
    attn_other_max), the last two from the body weights S_bj."""
    weights, body = test.weights, m.body(test)
    return (it, loss, float(weights @ body[:, -1]),
            float(weights @ np.maximum(body[:, :-1].max(axis=1), m.sN)))


def _block_rows(test: Batch, f: np.ndarray, V: np.ndarray, heads: list) -> list[MetricsRow]:
    """The rows of n iterations from their f = V xs (n, K, B), V (n, K, K)
    and `_head`s.  Each sum over the batch is one dot per row (`vecdot`),
    so a row has the same bits whatever n."""
    accuracy = np.count_nonzero(f.argmax(axis=1) == test.y, axis=1) / len(test.y)  # first-max tie rule
    kl = v_dist = f_dist = beta = gamma = np.full(len(heads), np.nan)
    if test.tm is not None:
        q, weights = test.q, test.weights
        fm = np.maximum(f, 0.0)
        fm += 1e-12
        fm /= fm.sum(axis=1, keepdims=True)
        # where q = 0, q_safe = 1 and fm > 0, so the term is 0 * log(1 / fm) = +0
        kl = np.vecdot((q * np.log(test.q_safe / fm)).sum(axis=1), weights)
        fu = _unit(f, axis=1)
        fu -= q
        f_dist = np.vecdot(np.sqrt((fu * fu).sum(axis=1)), weights)
        vu = _unit(V, axis=(1, 2))
        vu -= test.pit_unit
        v_dist = np.sqrt((vu * vu).sum(axis=(1, 2)))
        beta, gamma = decompose_v(V, test.tm.Pi)
    cols = zip(*(x.tolist() for x in (accuracy, kl, v_dist, f_dist, beta, gamma)))
    return [MetricsRow(it, loss, acc, k, vd, fd, ap, am, b, g)
            for (it, loss, ap, am), (acc, k, vd, fd, b, g) in zip(heads, cols)]


def _unit(x: np.ndarray, axis) -> np.ndarray:
    """x over its l2 norm along `axis`, NaN where that norm is 0; x is
    scaled by its max-abs first, so its sum of squares cannot overflow."""
    scale = np.abs(x).max(axis=axis, keepdims=True)
    scale[scale == 0.0] = np.nan  # 0 / NaN is a quiet NaN: no warning
    x = x / scale
    x /= np.sqrt((x * x).sum(axis=axis, keepdims=True))
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


def _check_finite(fp: FactoredParams, t: int) -> None:
    if not (np.isfinite(fp.V).all() and np.isfinite(fp.wtok).all()
            and np.isfinite(fp.zpos).all()):
        raise FloatingPointError(f"non-finite parameters at iteration {t}")


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
    # a population run trains on its test batch, so the masses evaluate
    # takes at fp are the next gradient's; under resample every iteration
    # draws its own training set, into the arrays of the first
    if cfg.grad_mode == POPULATION:
        batch = test
    elif cfg.resample:
        resample_rng = np.random.default_rng(cfg.seeds["resample"])
        batch = Batch.of(make_dataset(wc, cfg.train_size, rng=resample_rng), wc.K)
    else:
        batch = Batch.of(_episodes(cfg, cfg.train_size, cfg.seeds["train"]), wc.K)
    K, B = wc.K, len(test.y)
    L = min(cfg.iterations, max(1, _BLOCK_ELEMENTS // (K * B)))
    f, V, heads = np.empty((L, K, B)), np.empty((L, K, K)), []
    masses = None
    for t in range(1, cfg.iterations + 1):
        if cfg.resample and t > 1:
            make_dataset(wc, cfg.train_size, rng=resample_rng, out=batch.states)
            batch.reindex()
        bg = grad_batch(fp, batch, geo, cfg.eps, masses if batch is test else None)
        fp = step(fp, bg, cfg.eta, geo)
        trace.lprimes.append(bg.lprime_mean)
        _check_finite(fp, t)
        masses = token_masses(fp, test, geo)
        n = len(heads)
        np.matmul(fp.V, masses.xs, out=f[n])
        V[n] = fp.V
        heads.append(_head(test, masses, t, bg.loss))
        if n + 1 == L or t == cfg.iterations:
            trace.rows += _block_rows(test, f[:n + 1], V[:n + 1], heads)
            heads = []
        if t in schedule:
            trace.snapshots[t] = fp
    return trace

