"""Gradient-descent training loop with per-iteration metrics.

Supports zero or Gaussian initialization, full-batch empirical gradients
over a fixed seeded dataset (optionally resampled each iteration), and the
exact population gradient in the deterministic-walk regime (p in {0,1},
N = r*K + 1) where the K possible episodes can be enumerated and form both
the training and the test batch.

Training runs on the factored parameters (`FactoredParams`): V, the token
logit vector wtok = W12 p^_N, the positional logits zpos, and the factors
alpha, gamma of W12 - W12_0 = alpha p^_N^T and W22 - W22_0 =
(P gamma) p^_N^T (see `gradients`).  The run builds its `Geometry` once.
Every iteration is `grad_batch` + `step`, then a guard against non-finite
parameters, `evaluate` and a snapshot; population runs hand the test
set's token masses from `evaluate` to the next `grad_batch`, since they
train on the same batch at the same parameters.  Gradient and metrics come
from the per-token attention masses: one iteration costs a few passes over
each dataset's (B, N) cell index (the `bincount` of the positional
weights, one gather for D and one for the attention metrics), O(B*K) for
the rest and O(K^2 + N) for the step; nothing of length M is touched.  The
cell index of each dataset is built once (`token_index`, and `eval_set`
for the test set with its other per-run constants), once per fresh dataset
under `resample`.  Snapshots are the factored parameters themselves; the
trace keeps the init blocks and the geometry once and builds dense
`Params` only on request (`TrainTrace.params`, `final_params`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import walkgen
from .gradients import (BatchGrad, FactoredParams, Geometry, TokenIndex, TokenMasses,
                        factor, geometry, grad_batch, token_index, token_masses)
from .markov import TransitionMatrix, decompose_v, transition_matrix
from .model import Params
from .posembed import build_positional
from .walkgen import WalkConfig, make_dataset, enumerate_deterministic

__all__ = [
    "TrainConfig", "MetricsRow", "TrainTrace",
    "init_params", "step", "first_step_oracle_v", "train", "EvalSet", "eval_set",
    "evaluate",
]

ZERO = "zero"
GAUSSIAN = "gaussian"
EMPIRICAL = "empirical"
POPULATION = "population"

_BOOL_FIELDS = ("resample", "normalize_attention")
_INT_FIELDS = ("K", "N", "M", "iterations", "train_size", "test_size", "seed")
_REAL_FIELDS = ("p", "eta", "eps", "sigma")

METRIC_FIELDS = ("iter", "loss", "accuracy", "kl", "v_dist", "f_dist",
                 "attn_parent", "attn_other_max", "beta", "gamma")


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
    snapshot_iters: tuple[int, ...] | None = None  # default: 0,1,2,powers of 2,T

    def __post_init__(self):
        self._check_types()
        if self.eta <= 0 or self.eps <= 0:
            raise ValueError("eta and eps must be positive")
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
        real fields only non-bool real numbers (so JSON "no" or 2.5 is an
        error, not a truthy flag or a float count)."""
        def is_int(v):
            return isinstance(v, numbers.Integral) and not isinstance(v, bool)

        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise TypeError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in _INT_FIELDS:
            if not is_int(getattr(self, name)):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in _REAL_FIELDS:
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise TypeError(f"{name} must be a real number, got {v!r}")
        if self.snapshot_iters is not None and not all(map(is_int, self.snapshot_iters)):
            raise TypeError(f"snapshot_iters must be integers, got {self.snapshot_iters!r}")

    def walk_config(self) -> WalkConfig:
        if self.qa_task is not None:
            return WalkConfig(K=walkgen.QA_K, p=0.5, N=walkgen.QA_N[self.qa_task], M=self.M)
        return WalkConfig(K=self.K, p=self.p, N=self.N, M=self.M)

    def snapshot_schedule(self) -> set[int]:
        if self.snapshot_iters is not None:
            return set(self.snapshot_iters) | {0, self.iterations}
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


@dataclass
class TrainTrace:
    config: TrainConfig
    init: Params  # the initial blocks, held once
    geometry: Geometry  # P, column norms and p^_N of the run
    rows: list[MetricsRow] = field(default_factory=list)
    snapshots: dict[int, FactoredParams] = field(default_factory=dict)
    lprimes: list[float] = field(default_factory=list)  # mean l' at each pre-step t
    seeds: dict[str, int] = field(default_factory=dict)

    def params(self, t: int) -> Params:
        """Dense parameters of snapshot t, W12 = W12_0 + alpha p^_N^T and
        W22 = W22_0 + (P gamma) p^_N^T, built on each call (K x M and M x M
        blocks; the trace does not keep them)."""
        snap, geo = self.snapshots[t], self.geometry
        W12 = np.outer(snap.alpha, geo.pnh)
        W12 += self.init.W12
        W22 = np.outer(geo.P @ snap.gamma, geo.pnh)
        W22 += self.init.W22
        return self.init.with_updates(V=snap.V, W12=W12, W22=W22)

    @property
    def final_snapshot(self) -> FactoredParams:
        return self.snapshots[max(self.snapshots)]

    @property
    def final_params(self) -> Params:
        return self.params(max(self.snapshots))

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def init_params(cfg: TrainConfig, rng: np.random.Generator | None = None) -> Params:
    wc = cfg.walk_config()
    if cfg.init == ZERO:
        return Params.zeros(wc.K, cfg.M)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return Params.gaussian(wc.K, cfg.M, cfg.sigma, rng)


def step(fp: FactoredParams, bg: BatchGrad, eta: float, geo: Geometry) -> FactoredParams:
    """One plain gradient-descent update in O(K^2 + N).  W12 -= eta a p^_N^T
    moves wtok = W12 p^_N by -eta |p^_N|^2 a, and W22 -= eta (P D) p^_N^T
    moves zpos = P^T W22 p^_N / c by -eta |p^_N|^2 phi D / c (P^T P = phi I);
    W11/W21 carry zero gradient."""
    return FactoredParams(
        V=fp.V - eta * bg.gV,
        wtok=fp.wtok - eta * geo.pnh_sq * bg.a,
        zpos=fp.zpos - eta * geo.zrate * bg.D,
        alpha=fp.alpha - eta * bg.a,
        gamma=fp.gamma - eta * bg.D,
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


@dataclass(frozen=True)
class EvalSet:
    """A (B, N) test state array with what `evaluate` derives from it once
    per run: its token index and, for walks, the true conditionals
    q_b = Pi[s_{b,N-1}] (token-major, like the masses), their support and
    Pi^T / |Pi|_F."""

    states: np.ndarray
    geo: Geometry
    index: TokenIndex
    weights: np.ndarray  # (B,) uniform
    tm: TransitionMatrix | None = None
    q: np.ndarray | None = None  # (K, B)
    q_pos: np.ndarray | None = None  # q > 0
    q_safe: np.ndarray | None = None  # q with 1 where q = 0
    pit_unit: np.ndarray | None = None  # Pi^T / |Pi|_F


def eval_set(states: np.ndarray, geo: Geometry, tm: TransitionMatrix | None,
             K: int) -> EvalSet:
    """Test set of a run; `tm` is None where no transition matrix applies
    (QA tasks)."""
    states = np.asarray(states)
    common = dict(states=states, geo=geo, index=token_index(states, K),
                  weights=np.full(states.shape[0], 1.0 / states.shape[0]))
    if tm is None:
        return EvalSet(**common)
    q = tm.Pi.T[:, states[:, -2] - 1]
    q_pos = q > 0
    return EvalSet(**common, tm=tm, q=q, q_pos=q_pos, q_safe=np.where(q_pos, q, 1.0),
                   pit_unit=tm.Pi.T / np.linalg.norm(tm.Pi))


def evaluate(fp: FactoredParams, test: EvalSet, it: int = 0,
             loss: float = float("nan"), masses: TokenMasses | None = None) -> MetricsRow:
    """Test-set metrics: accuracy, KL and f_dist from f = V xs, the
    attention fields from the body weights S_bj; the matrix-comparison
    fields are NaN when no transition matrix applies (QA tasks) or a norm
    vanishes (zero init).  `masses` is the test set's `token_masses` at
    `fp`, computed here when not given."""
    states, weights = test.states, test.weights
    m = token_masses(fp, states, test.geo, test.index) if masses is None else masses
    f = fp.V @ m.xs  # (K, B)
    pred = f.argmax(axis=0) + 1  # first-max tie rule
    accuracy = float(weights @ (pred == states[:, -1]))
    body = m.body(test.index)
    attn_parent = float(weights @ body[:, -1])
    attn_other_max = float(weights @ np.maximum(body[:, :-1].max(axis=1), m.sN))

    kl = v_dist = f_dist = beta = gamma = float("nan")
    if test.tm is not None:
        q = test.q
        fm = np.maximum(f, 0.0)
        fm += 1e-12
        fm /= fm.sum(axis=0)
        terms = np.where(test.q_pos, q * np.log(test.q_safe / fm), 0.0)
        kl = float(weights @ terms.sum(axis=0))
        fu = _unit(f, axis=0)
        if fu is not None:
            fu -= q
            f_dist = float(weights @ np.sqrt((fu * fu).sum(axis=0)))
        vu = _unit(fp.V)
        if vu is not None:
            vu -= test.pit_unit
            v_dist = math.sqrt(float((vu * vu).sum()))
        beta, gamma = decompose_v(fp.V, test.tm.Pi)
    return MetricsRow(iter=it, loss=loss, accuracy=accuracy, kl=kl,
                      v_dist=v_dist, f_dist=f_dist, attn_parent=attn_parent,
                      attn_other_max=attn_other_max, beta=beta, gamma=gamma)


def _unit(x: np.ndarray, axis: int | None = None) -> np.ndarray | None:
    """x over its l2 norm (along `axis`), or None where that norm is 0;
    x is scaled by its max-abs first, so its sum of squares cannot overflow."""
    scale = np.abs(x).max(axis=axis, keepdims=True)
    if not (scale > 0).all():
        return None
    x = x / scale
    x /= np.sqrt((x * x).sum(axis=axis, keepdims=True))
    return x


def _datasets(cfg: TrainConfig):
    """(train states, test states, transition matrix or None for QA)."""
    wc = cfg.walk_config()
    if cfg.qa_task is not None:
        return (walkgen.qa_dataset(cfg.qa_task, cfg.train_size, seed=cfg.seed),
                walkgen.qa_dataset(cfg.qa_task, cfg.test_size, seed=cfg.seed + 1), None)
    tm = transition_matrix(wc.K, wc.p)
    if cfg.grad_mode == POPULATION:
        states = enumerate_deterministic(wc)
        return states, states, tm
    return (make_dataset(wc, cfg.train_size, seed=cfg.seed),
            make_dataset(wc, cfg.test_size, seed=cfg.seed + 1), tm)


def _check_finite(fp: FactoredParams, t: int) -> None:
    if not (np.isfinite(fp.V).all() and np.isfinite(fp.alpha).all()
            and np.isfinite(fp.gamma).all()):
        raise FloatingPointError(f"non-finite parameters at iteration {t}")


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the full loop; one MetricsRow per iteration t = 1..T (a single
    t=0 row when T=0), snapshots per schedule, mean l' recorded per step."""
    wc = cfg.walk_config()
    geo = geometry(build_positional(cfg.M, wc.N), cfg.normalize_attention)
    params = init_params(cfg, rng=np.random.default_rng(cfg.seed + 2))
    tr_states, te_states, tm = _datasets(cfg)
    test = eval_set(te_states, geo, tm, wc.K)
    fp = factor(params, geo)

    trace = TrainTrace(config=cfg, init=params, geometry=geo,
                       seeds={"train": cfg.seed, "test": cfg.seed + 1, "init": cfg.seed + 2})
    trace.snapshots[0] = fp
    if cfg.iterations == 0:
        trace.rows.append(evaluate(fp, test))
        return trace

    schedule = cfg.snapshot_schedule()
    # population runs train on the test batch, so the masses evaluate takes
    # at fp are the next gradient's
    population = cfg.grad_mode == POPULATION
    tr_index = test.index if population else token_index(tr_states, wc.K)
    tr_masses = None
    resample_rng = np.random.default_rng(cfg.seed + 3)
    for t in range(1, cfg.iterations + 1):
        if cfg.resample:
            tr_states = make_dataset(wc, cfg.train_size, rng=resample_rng)
            tr_index = token_index(tr_states, wc.K)
        bg = grad_batch(fp, tr_states, geo, cfg.eps, tr_index, tr_masses)
        fp = step(fp, bg, cfg.eta, geo)
        trace.lprimes.append(bg.lprime_mean)
        _check_finite(fp, t)
        masses = token_masses(fp, test.states, geo, test.index)
        trace.rows.append(evaluate(fp, test, it=t, loss=bg.loss, masses=masses))
        tr_masses = masses if population else None
        if t in schedule:
            trace.snapshots[t] = fp
    return trace


def config_dict(cfg: TrainConfig) -> dict:
    """JSON-ready echo of a config (tuples become lists)."""
    d = asdict(cfg)
    if d.get("snapshot_iters") is not None:
        d["snapshot_iters"] = list(d["snapshot_iters"])
    return d
