"""Gradient-descent training loop with per-iteration metrics.

Supports zero or Gaussian initialization, full-batch empirical gradients
over a fixed seeded dataset (optionally resampled each iteration), and the
exact population gradient in the deterministic-walk regime (p in {0,1},
N = r*K + 1) where the K possible episodes can be enumerated.

Training runs on the factored parameters (`FactoredParams`): V, the logit
vectors wtok = W12 p^_N and u = W22 p^_N, and the left factors alpha,
beta of W12 - W12_0 and W22 - W22_0 (see `gradients`).  The run builds
its `Geometry` (P, column norms, p^_N) once.  One loop body serves both
gradient modes: each iteration advances the factored parameters either by
`grad_batch` + `step` or, for zero-init population runs, by the exact
scalar recursion, then records l', guards against non-finite parameters,
evaluates and snapshots.  One iteration costs O(B*N + M*N) and no K x M
or M x M block is touched.  Snapshots keep V, alpha and beta; the trace
keeps the init blocks and the geometry once and builds dense `Params`
only on request (`TrainTrace.params`, `final_params`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from . import walkgen
from .gradients import (BatchGrad, FactoredParams, Geometry, attention, factor,
                        geometry, grad_batch)
from .markov import TransitionMatrix, transition_matrix
from .model import Params
from .posembed import build_positional
from .walkgen import WalkConfig, make_dataset, enumerate_deterministic

__all__ = [
    "TrainConfig", "MetricsRow", "Snapshot", "TrainTrace",
    "init_params", "step", "first_step_oracle_v", "train", "evaluate",
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


@dataclass(frozen=True)
class Snapshot:
    """Parameters at one iteration: W12 = W12_0 + alpha p^_N^T and
    W22 = W22_0 + beta p^_N^T with the trace's init blocks and p^_N."""

    V: np.ndarray  # (K, K)
    alpha: np.ndarray  # (K,)
    beta: np.ndarray  # (M,)


@dataclass
class TrainTrace:
    config: TrainConfig
    init: Params  # the initial blocks, held once
    geometry: Geometry  # P, column norms and p^_N of the run
    rows: list[MetricsRow] = field(default_factory=list)
    snapshots: dict[int, Snapshot] = field(default_factory=dict)
    lprimes: list[float] = field(default_factory=list)  # mean l' at each pre-step t
    seeds: dict[str, int] = field(default_factory=dict)

    def params(self, t: int) -> Params:
        """Dense parameters of snapshot t, built on each call (K x M and
        M x M blocks; the trace does not keep them)."""
        snap = self.snapshots[t]
        pnh = self.geometry.pnh
        W12 = np.outer(snap.alpha, pnh)
        W12 += self.init.W12
        W22 = np.outer(snap.beta, pnh)
        W22 += self.init.W22
        return self.init.with_updates(V=snap.V, W12=W12, W22=W22)

    @property
    def final_snapshot(self) -> Snapshot:
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


def step(fp: FactoredParams, bg: BatchGrad, eta: float, pnh_sq: float) -> FactoredParams:
    """One plain gradient-descent update in O(K^2 + M).  W12 -= eta a p^_N^T
    moves wtok = W12 p^_N by -eta |p^_N|^2 a, and likewise W22 moves u;
    W11/W21 carry zero gradient."""
    return FactoredParams(
        V=fp.V - eta * bg.gV,
        wtok=fp.wtok - eta * pnh_sq * bg.a,
        u=fp.u - eta * pnh_sq * bg.b,
        alpha=fp.alpha - eta * bg.a,
        beta=fp.beta - eta * bg.b,
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


def evaluate(fp: FactoredParams, states: np.ndarray, geo: Geometry,
             tm: TransitionMatrix | None, it: int = 0,
             loss: float = float("nan")) -> MetricsRow:
    """Test-set metrics on a (B, N) state array labelled by its last
    column; the matrix-comparison fields are NaN when no transition matrix
    applies (QA tasks) or a norm vanishes (zero init)."""
    from .theorycheck import decompose_v

    states = np.asarray(states)
    B = states.shape[0]
    K = fp.V.shape[0]
    weights = np.full(B, 1.0 / B)
    S = attention(fp, states, geo)
    cell = (np.arange(B) * K)[:, None] + (states[:, :-1] - 1)  # flat index of xs[b, s_j]
    xs = np.bincount(cell.ravel(), S[:, :-1].ravel(), minlength=B * K).reshape(B, K)
    f = xs @ fp.V.T
    pred = np.argmax(f, axis=1) + 1  # first-max tie rule
    accuracy = float(weights @ (pred == states[:, -1]))
    attn_parent = float(weights @ S[:, -2])
    attn_other_max = float(weights @ np.maximum(S[:, :-2].max(axis=1), S[:, -1]))

    kl = v_dist = f_dist = beta = gamma = float("nan")
    if tm is not None:
        q = tm.Pi[states[:, -2] - 1]  # true conditional, rows (B, K)
        fm = np.clip(f, 0.0, None) + 1e-12
        fm = fm / fm.sum(axis=1, keepdims=True)
        terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0) / fm), 0.0)
        kl = float(weights @ terms.sum(axis=1))
        fn = np.linalg.norm(f, axis=1)
        if np.all(fn > 0):
            f_dist = float(weights @ np.linalg.norm(f / fn[:, None] - q, axis=1))
        vF = np.linalg.norm(fp.V)
        if vF > 0:
            v_dist = float(np.linalg.norm(fp.V / vF - tm.Pi.T / np.linalg.norm(tm.Pi)))
        beta, gamma = decompose_v(fp.V, tm.Pi)
    return MetricsRow(iter=it, loss=loss, accuracy=accuracy, kl=kl,
                      v_dist=v_dist, f_dist=f_dist, attn_parent=attn_parent,
                      attn_other_max=attn_other_max, beta=beta, gamma=gamma)


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


@dataclass
class _PopulationState:
    """Scalar coefficients of the exact population-GD recursion at p in
    {0,1} with zero init: V = v*1_{KxK}, W12 = g*1_K p_N^T,
    W22 = (a*sum_{j<N} p_j + b*p_N) p_N^T.

    The dynamics provably preserve this structure, so iterating the four
    scalars is the same mathematical recursion as dense GD but immune to
    the rounding asymmetry of large matrix products; the dense and scalar
    paths agree to rounding error (tested), and only the scalar path keeps
    the all-equal structure bit-exact over many iterations.
    """

    v: float = 0.0
    g: float = 0.0
    a: float = 0.0
    b: float = 0.0


def _population_scalar_step(state: _PopulationState, wc: WalkConfig, r: int,
                            eta: float, eps: float, normalize: bool):
    """One exact GD step on the scalar coefficients; returns
    (new state, mean loss, l')."""
    N = wc.N
    phi = (wc.M + 1) / 2.0  # squared norm of every positional column
    if normalize:
        cb = np.sqrt(1.0 + phi)  # body columns carry a unit token part
        cq = np.sqrt(phi)
    else:
        cb = cq = 1.0
    z_body = (state.g * phi + state.a * phi**2) / (cb * cq)
    z_query = state.b * phi**2 / (cq * cq)
    zmax = max(z_body, z_query)
    e_b, e_q = np.exp(z_body - zmax), np.exp(z_query - zmax)
    denom = (N - 1) * e_b + e_q
    sig, sig_q = e_b / denom, e_q / denom  # shared body weight, query weight

    f_y = state.v * (N - 1) * sig
    loss = -float(np.log(f_y + eps))
    lp = -1.0 / (f_y + eps)
    m = f_y  # sum_j S_j q_j with q_j = v on the body
    dv = sig * (state.v - m)  # d_j for every body position
    dq = -sig_q * m
    new = _PopulationState(
        v=state.v - eta * lp * sig * r / wc.K,
        g=state.g - eta * lp * dv * r / (cb * cq),
        a=state.a - eta * lp * dv / (cb * cq),
        b=state.b - eta * lp * dq / (cq * cq),
    )
    return new, loss, lp


def _population_factors(state: _PopulationState, K: int, geo: Geometry,
                        psum: np.ndarray, pnh_sq: float) -> FactoredParams:
    """Factored parameters of the scalar state: with p_N = c_N p^_N,
    alpha = g c_N 1_K and beta = c_N (a sum_{j<N} p_j + b p_N)."""
    cN = geo.c[-1]
    alpha = np.full(K, state.g * cN)
    beta = cN * (state.a * psum + state.b * geo.P[:, -1])
    return FactoredParams(V=np.full((K, K), state.v), wtok=pnh_sq * alpha,
                          u=pnh_sq * beta, alpha=alpha, beta=beta)


def _check_finite(fp: FactoredParams, t: int) -> None:
    if not all(np.all(np.isfinite(x)) for x in (fp.V, fp.alpha, fp.beta)):
        raise FloatingPointError(f"non-finite parameters at iteration {t}")


def _snapshot(fp: FactoredParams) -> Snapshot:
    return Snapshot(V=fp.V, alpha=fp.alpha, beta=fp.beta)


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the full loop; one MetricsRow per iteration t = 1..T (a single
    t=0 row when T=0), snapshots per schedule, mean l' recorded per step."""
    wc = cfg.walk_config()
    geo = geometry(build_positional(cfg.M, wc.N), cfg.normalize_attention)
    params = init_params(cfg, rng=np.random.default_rng(cfg.seed + 2))
    tr_states, te_states, tm = _datasets(cfg)
    fp = factor(params, geo)

    trace = TrainTrace(config=cfg, init=params, geometry=geo,
                       seeds={"train": cfg.seed, "test": cfg.seed + 1, "init": cfg.seed + 2})
    trace.snapshots[0] = _snapshot(fp)
    if cfg.iterations == 0:
        trace.rows.append(evaluate(fp, te_states, geo, tm))
        return trace

    schedule = cfg.snapshot_schedule()
    pnh_sq = geo.pnh @ geo.pnh
    scalar = cfg.grad_mode == POPULATION and cfg.init == ZERO
    if scalar:
        state, r = _PopulationState(), wc.require_deterministic_theory()
        psum = geo.P[:, :-1].sum(axis=1)
    resample_rng = np.random.default_rng(cfg.seed + 3)
    for t in range(1, cfg.iterations + 1):
        if scalar:
            state, loss, lp = _population_scalar_step(state, wc, r, cfg.eta, cfg.eps,
                                                      cfg.normalize_attention)
            fp = _population_factors(state, wc.K, geo, psum, pnh_sq)
        else:
            if cfg.resample:
                tr_states = make_dataset(wc, cfg.train_size, rng=resample_rng)
            bg = grad_batch(fp, tr_states, geo, cfg.eps)
            fp, loss, lp = step(fp, bg, cfg.eta, pnh_sq), bg.loss, bg.lprime_mean
        trace.lprimes.append(lp)
        _check_finite(fp, t)
        trace.rows.append(evaluate(fp, te_states, geo, tm, it=t, loss=loss))
        if t in schedule:
            trace.snapshots[t] = _snapshot(fp)
    return trace


def config_dict(cfg: TrainConfig) -> dict:
    """JSON-ready echo of a config (tuples become lists)."""
    d = asdict(cfg)
    if d.get("snapshot_iters") is not None:
        d["snapshot_iters"] = list(d["snapshot_iters"])
    return d
