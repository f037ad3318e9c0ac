"""Gradient-descent training loop with per-iteration metrics.

Supports zero or Gaussian initialization, full-batch empirical gradients
over a fixed seeded dataset (optionally resampled each iteration), and the
exact population gradient in the deterministic-walk regime (p in {0,1},
N = r*K + 1) where the K possible episodes can be enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from . import walkgen
from .gradients import Grads, attention, grad_batch
from .markov import TransitionMatrix, transition_matrix
from .model import Params
from .posembed import PositionalMatrix, build_positional
from .walkgen import WalkConfig, make_dataset, enumerate_deterministic

__all__ = [
    "TrainConfig", "MetricsRow", "TrainTrace",
    "init_params", "step", "first_step_oracle_v", "train", "evaluate",
]

ZERO = "zero"
GAUSSIAN = "gaussian"
EMPIRICAL = "empirical"
POPULATION = "population"

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
        if self.grad_mode == POPULATION:
            if self.qa_task is not None:
                raise ValueError("population mode applies to deterministic walks only")
            self.walk_config().require_deterministic_theory()

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
    rows: list[MetricsRow] = field(default_factory=list)
    snapshots: dict[int, Params] = field(default_factory=dict)
    lprimes: list[float] = field(default_factory=list)  # mean l' at each pre-step t
    seeds: dict[str, int] = field(default_factory=dict)

    @property
    def final_params(self) -> Params:
        return self.snapshots[max(self.snapshots)]

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def init_params(cfg: TrainConfig, rng: np.random.Generator | None = None) -> Params:
    wc = cfg.walk_config()
    if cfg.init == ZERO:
        return Params.zeros(wc.K, cfg.M)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    return Params.gaussian(wc.K, cfg.M, cfg.sigma, rng)


def step(params: Params, grads: Grads, eta: float) -> Params:
    """One plain gradient-descent update; W11/W21 carry zero gradient."""
    return params.with_updates(
        V=params.V - eta * grads.gV,
        W12=params.W12 - eta * grads.gW12,
        W22=params.W22 - eta * grads.gW22,
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


def evaluate(params: Params, states: np.ndarray, labels: np.ndarray,
             pos: PositionalMatrix, tm: TransitionMatrix | None, eps: float,
             normalize: bool = False, it: int = 0, loss: float = float("nan")) -> MetricsRow:
    """Test-set metrics; the matrix-comparison fields are NaN when no
    transition matrix applies (QA tasks) or a norm vanishes (zero init)."""
    from .theorycheck import decompose_v

    states = np.asarray(states)
    labels = np.asarray(labels)
    B, N = states.shape
    weights = np.full(B, 1.0 / B)
    S = attention(params, states, pos, normalize)
    xs = np.zeros((B, params.K))
    np.add.at(xs, (np.repeat(np.arange(B), N - 1), (states[:, :-1] - 1).ravel()),
              S[:, :-1].ravel())
    f = xs @ params.V.T
    pred = np.argmax(f, axis=1) + 1  # first-max tie rule
    accuracy = float(weights @ (pred == labels))
    attn_parent = float(weights @ S[:, -2])
    others = np.delete(S, N - 2, axis=1)
    attn_other_max = float(weights @ others.max(axis=1))

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
        vF = np.linalg.norm(params.V)
        if vF > 0:
            v_dist = float(np.linalg.norm(params.V / vF - tm.Pi.T / np.linalg.norm(tm.Pi)))
        beta, gamma = decompose_v(params.V, tm.Pi)
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


def _materialize_population(state: _PopulationState, wc: WalkConfig,
                            pos: PositionalMatrix) -> Params:
    K, M = wc.K, wc.M
    pN = pos.P[:, -1]
    psum = pos.P[:, :-1].sum(axis=1)
    return Params(
        V=np.full((K, K), state.v),
        W11=np.zeros((K, K)),
        W12=np.outer(np.full(K, state.g), pN),
        W21=np.zeros((M, K)),
        W22=np.outer(state.a * psum + state.b * pN, pN),
        init=ZERO, sigma=0.0,
    )


def _train_population(cfg: TrainConfig, pos: PositionalMatrix,
                      trace: TrainTrace, te_states, tm) -> TrainTrace:
    wc = cfg.walk_config()
    r = wc.require_deterministic_theory()
    state = _PopulationState()
    schedule = cfg.snapshot_schedule()
    for t in range(1, cfg.iterations + 1):
        state, loss, lp = _population_scalar_step(state, wc, r, cfg.eta, cfg.eps,
                                                  cfg.normalize_attention)
        trace.lprimes.append(lp)
        params = _materialize_population(state, wc, pos)
        if not np.isfinite(state.v):
            raise FloatingPointError(f"non-finite parameters at iteration {t}")
        trace.rows.append(evaluate(params, te_states, te_states[:, -1], pos, tm, cfg.eps,
                                   normalize=cfg.normalize_attention, it=t, loss=loss))
        if t in schedule:
            trace.snapshots[t] = params
    return trace


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the full loop; one MetricsRow per iteration t = 1..T (a single
    t=0 row when T=0), snapshots per schedule, mean l' recorded per step."""
    wc = cfg.walk_config()
    pos = build_positional(cfg.M, wc.N)
    init_rng = np.random.default_rng(cfg.seed + 2)
    params = init_params(cfg, rng=init_rng)
    tr_states, te_states, tm = _datasets(cfg)

    trace = TrainTrace(config=cfg, seeds={"train": cfg.seed, "test": cfg.seed + 1,
                                          "init": cfg.seed + 2})
    schedule = cfg.snapshot_schedule()
    if 0 in schedule:
        trace.snapshots[0] = params
    if cfg.iterations == 0:
        trace.rows.append(evaluate(params, te_states, te_states[:, -1], pos, tm, cfg.eps,
                                   normalize=cfg.normalize_attention, it=0))
        return trace

    if cfg.grad_mode == POPULATION and cfg.init == ZERO:
        return _train_population(cfg, pos, trace, te_states, tm)

    resample_rng = np.random.default_rng(cfg.seed + 3)
    for t in range(1, cfg.iterations + 1):
        if cfg.resample and cfg.grad_mode == EMPIRICAL and cfg.qa_task is None:
            tr_states = make_dataset(wc, cfg.train_size, rng=resample_rng)
        bg = grad_batch(params, tr_states, tr_states[:, -1], pos, cfg.eps,
                        normalize=cfg.normalize_attention)
        trace.lprimes.append(bg.lprime_mean)
        params = step(params, bg.grads, cfg.eta)
        if not (np.all(np.isfinite(params.V)) and np.all(np.isfinite(params.W22))):
            raise FloatingPointError(f"non-finite parameters at iteration {t}")
        trace.rows.append(evaluate(params, te_states, te_states[:, -1], pos, tm, cfg.eps,
                                   normalize=cfg.normalize_attention, it=t, loss=bg.loss))
        if t in schedule:
            trace.snapshots[t] = params
    return trace


def config_dict(cfg: TrainConfig) -> dict:
    """JSON-ready echo of a config (tuples become lists)."""
    d = asdict(cfg)
    if d.get("snapshot_iters") is not None:
        d["snapshot_iters"] = list(d["snapshot_iters"])
    return d
