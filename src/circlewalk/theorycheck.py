"""Executable pass/fail reports for the training-dynamics guarantees.

Two regimes: 0 < p < 1 runs should converge to the optimal predictor
(accuracy, f/V alignment, 1/sqrt(t) rate, attention concentration on the
parent position), while the deterministic p in {0,1}, N = rK+1 regime is
permanently stuck at chance with an all-equal parameter structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradients import Geometry, attention, factor
from .model import Params
from .trainer import TrainConfig, TrainTrace, first_step_oracle_v
from .walkgen import enumerate_deterministic

__all__ = [
    "decompose_v", "toeplitz_check", "band_argmax_check", "rate_fit",
    "Thresholds", "RandomWalkReport", "check_random_theorem",
    "DeterministicReport", "check_deterministic_theorem",
    "SeparationResult", "attention_separation_check",
]

PASS, FAIL, INSUFFICIENT = "pass", "fail", "insufficient"


def decompose_v(V: np.ndarray, Pi: np.ndarray) -> tuple[float, float]:
    """Split V = beta * Pi^T + residual by orthogonal projection; returns
    (beta, max-norm of the residual)."""
    PiT = Pi.T
    beta = float(np.sum(V * PiT) / np.sum(PiT * PiT))
    gamma = float(np.max(np.abs(V - beta * PiT)))
    return beta, gamma


def toeplitz_check(V: np.ndarray, K: int) -> float:
    """Max spread (class max - class min) over the (i - j) mod K congruence
    classes; zero iff V is circulant."""
    if V.shape != (K, K):
        raise ValueError(f"V must be {K}x{K}, got {V.shape}")
    i, j = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
    cls = (i - j) % K
    residual = 0.0
    for k in range(K):
        vals = V[cls == k]
        residual = max(residual, float(vals.max() - vals.min()))
    return residual


def band_argmax_check(V: np.ndarray, p: float) -> bool:
    """True iff every column's argmax sits on the dominant circulant band:
    i = j+1 (mod K) for p > 1/2, i = j-1 for p < 1/2, either band at p = 1/2."""
    K = V.shape[0]
    allowed = set()
    if p >= 0.5:
        allowed.add(1)
    if p <= 0.5:
        allowed.add(K - 1)
    for j in range(K):
        i = int(np.argmax(V[:, j]))
        if (i - j) % K not in allowed:
            return False
    return True


def rate_fit(t: np.ndarray, values: np.ndarray,
             window: tuple[float, float]) -> float:
    """Least-squares slope of log(value) against log(t) inside the window."""
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 4:
        raise ValueError(f"need >= 4 points in window [{lo}, {hi}], got {int(mask.sum())}")
    if np.any(values[mask] <= 0):
        raise ValueError("rate fit requires positive values in the window")
    slope = np.polyfit(np.log(t[mask]), np.log(values[mask]), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class Thresholds:
    """Explicit stand-ins for the asymptotic constants."""

    tol_acc: float = 0.03
    # f_dist compares a unit-l2 vector against a probability vector, so its
    # floor is 1 - sqrt(p^2 + (1-p)^2); 0.35 leaves room above the p=0.5 floor
    tol_f: float = 0.35
    slope_band: tuple[float, float] = (-0.65, -0.35)
    attn_parent_min: float = 0.99
    attn_other_max: float = 0.01
    burn_in: int = 3
    fit_start: float = 8.0


@dataclass
class RandomWalkReport:
    """Item-by-item verdicts for a 0 < p < 1 run."""

    acc_gap: float
    final_f_dist: float
    slope: float | None
    attn_floor: float  # min over post-burn-in rows of mean parent weight
    attn_ceiling: float  # max over post-burn-in rows of mean off-parent max
    toeplitz_residual_v1: float | None
    band_argmax_ok: bool
    items: dict[str, str] = field(default_factory=dict)
    thresholds: Thresholds = field(default_factory=Thresholds)

    @property
    def passed(self) -> bool:
        return all(v != FAIL for v in self.items.values())


def check_random_theorem(trace: TrainTrace, thresholds: Thresholds | None = None) -> RandomWalkReport:
    cfg = trace.config
    if cfg.qa_task is not None or cfg.p in (0.0, 1.0):
        raise ValueError("random-walk report requires a 0 < p < 1 walk run")
    th = thresholds or Thresholds()
    t = trace.series("iter")
    acc = trace.series("accuracy")
    f_dist = trace.series("f_dist")
    v_dist = trace.series("v_dist")
    opt = max(cfg.p, 1.0 - cfg.p)

    items: dict[str, str] = {}
    acc_gap = float(abs(acc[-1] - opt))
    items["accuracy"] = PASS if acc_gap <= th.tol_acc else FAIL

    post = t >= th.burn_in
    final_f = float(f_dist[-1]) if len(f_dist) else float("nan")
    if post.sum() >= 2 and np.all(np.isfinite(f_dist[post])):
        diffs = np.diff(f_dist[post])
        decreasing = bool(np.all(diffs < 1e-9))
        items["predictor_convergence"] = PASS if (final_f <= th.tol_f and decreasing) else FAIL
    else:
        items["predictor_convergence"] = INSUFFICIENT

    slope = None
    try:
        slope = rate_fit(t, v_dist, (th.fit_start, float(t[-1])))
        lo, hi = th.slope_band
        items["rate"] = PASS if lo <= slope <= hi else FAIL
    except ValueError:
        items["rate"] = INSUFFICIENT

    if post.sum() >= 1:
        floor = float(trace.series("attn_parent")[post].min())
        ceiling = float(trace.series("attn_other_max")[post].max())
        items["attention"] = PASS if (floor >= th.attn_parent_min and
                                      ceiling <= th.attn_other_max) else FAIL
    else:
        floor, ceiling = float("nan"), float("nan")
        items["attention"] = INSUFFICIENT

    toep = None
    if 1 in trace.snapshots:
        V1 = trace.snapshots[1].V
        toep = toeplitz_check(V1, V1.shape[0])
    band_ok = band_argmax_check(trace.final_snapshot.V, cfg.p)
    items["band_argmax"] = PASS if band_ok else FAIL

    return RandomWalkReport(
        acc_gap=acc_gap, final_f_dist=final_f, slope=slope,
        attn_floor=floor, attn_ceiling=ceiling,
        toeplitz_residual_v1=toep, band_argmax_ok=band_ok,
        items=items, thresholds=th,
    )


@dataclass
class DeterministicReport:
    """Structure residuals for the stuck p in {0,1} regime."""

    max_accuracy_error: float  # vs exactly 1/K, enumerated evaluation
    v_uniformity: float  # max over snapshots of (max - min)/max|V|
    attn_uniformity: float  # max over snapshots/episodes of S spread, j < N
    w12_row_spread: float  # rows of W12 must be identical
    t2_closed_form_error: float | None  # W12/W22 at t=2 vs closed form
    items: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v != FAIL for v in self.items.values())


def check_deterministic_theorem(trace: TrainTrace, tol: float = 1e-12) -> DeterministicReport:
    cfg = trace.config
    if cfg.grad_mode != "population":
        raise ValueError("deterministic report requires a population-mode trace")
    wc = cfg.walk_config()
    r = wc.require_deterministic_theory()
    geo = trace.geometry
    states = enumerate_deterministic(wc)

    items: dict[str, str] = {}
    acc_err = float(np.max(np.abs(trace.series("accuracy") - 1.0 / wc.K)))
    items["chance_accuracy"] = PASS if acc_err == 0.0 else FAIL

    v_resid = 0.0
    s_resid = 0.0
    w12_spread = 0.0
    for t in trace.snapshots:
        snap = trace.params(t)  # dense, so the check reads W12 and W22 themselves
        vmax = float(np.max(np.abs(snap.V)))
        if vmax > 0:
            v_resid = max(v_resid, float(snap.V.max() - snap.V.min()) / vmax)
        S = attention(factor(snap, geo), states, geo)
        body = S[:, :-1]
        s_resid = max(s_resid, float(np.max(body.max(axis=1) - body.min(axis=1))))
        wmax = float(np.max(np.abs(snap.W12)))
        if wmax > 0:
            spread = float(np.max(snap.W12.max(axis=0) - snap.W12.min(axis=0))) / wmax
            w12_spread = max(w12_spread, spread)
    items["v_uniformity"] = PASS if v_resid <= tol else FAIL
    items["attention_uniformity"] = PASS if s_resid <= tol else FAIL
    items["w12_structure"] = PASS if w12_spread <= tol else FAIL

    t2_err = None
    if 2 in trace.snapshots and len(trace.lprimes) >= 2:
        lp0, lp1 = trace.lprimes[0], trace.lprimes[1]
        N, K, eta = wc.N, wc.K, cfg.eta
        pN = geo.P[:, -1]
        w12_exp = lp0 * lp1 * eta**2 * r**2 / (N**3 * K) * np.outer(np.ones(K), pN)
        psum = geo.P[:, :-1].sum(axis=1)
        w22_exp = np.outer(
            lp0 * lp1 * (eta**2 * r / (N**3 * K) * psum - eta**2 * r**2 / N**3 * pN), pN)
        snap = trace.params(2)
        t2_err = max(float(np.max(np.abs(snap.W12 - w12_exp))),
                     float(np.max(np.abs(snap.W22 - w22_exp))))
        items["t2_closed_form"] = PASS if t2_err <= 1e-10 else FAIL
    else:
        items["t2_closed_form"] = INSUFFICIENT

    return DeterministicReport(
        max_accuracy_error=acc_err, v_uniformity=v_resid, attn_uniformity=s_resid,
        w12_row_spread=w12_spread, t2_closed_form_error=t2_err, items=items,
    )


@dataclass(frozen=True)
class SeparationResult:
    """Attention-logit gap between the parent position and everything else."""

    margin: float  # min over episodes of z_{N-1} - max_{j != N-1} z_j
    min_parent_weight: float


def attention_separation_check(params: Params, states: np.ndarray,
                               geo: Geometry) -> SeparationResult:
    states = np.asarray(states)
    N = states.shape[1]
    S = attention(factor(params, geo), states, geo)
    # recover logit gaps from the softmax (shift-invariant): log S works
    logS = np.log(S)
    others = np.delete(logS, N - 2, axis=1)
    margin = float(np.min(logS[:, -2] - others.max(axis=1)))
    return SeparationResult(margin=margin,
                            min_parent_weight=float(S[:, -2].min()))


def first_step_toeplitz_grid(K_max: int = 12, N_max: int = 40,
                             p_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)) -> float:
    """Worst Toeplitz residual of the one-step closed form over a small grid."""
    worst = 0.0
    for K in range(3, K_max + 1):
        for N in (K + 1, 2 * K + 1, min(N_max, 3 * K + 1)):
            if N > N_max:
                continue
            for p in p_grid:
                cfg = TrainConfig(K=K, p=p, N=N, M=max(64, int(N**1.5) + 1), iterations=1)
                V1 = first_step_oracle_v(cfg)
                worst = max(worst, toeplitz_check(V1, K))
    return worst
