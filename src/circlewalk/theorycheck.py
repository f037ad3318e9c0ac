"""Executable pass/fail reports for the training-dynamics guarantees.

Two regimes: 0 < p < 1 runs should converge to the optimal predictor
(accuracy, f/V alignment, 1/sqrt(t) rate, attention concentration on the
parent position), while the deterministic p in {0,1}, N = rK+1 regime is
permanently stuck at chance with an all-equal parameter structure.

`report_for` settles from the config, before training, which report
covers a run: zero-init population runs get the deterministic one (its
theorem is about gradient descent from zero), empirical 0 < p < 1 walk runs
the random-walk one, and anything else is out of scope.  The reports read
only what `train` returns; from zero init W12 = alpha p^_N^T and
W22 = (P gamma) p^_N^T, so they check alpha and gamma, not dense blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .gradients import attention
from .markov import decompose_v
from .trainer import POPULATION, ZERO, TrainConfig, TrainTrace, first_step_oracle_v
from .walkgen import enumerate_deterministic

__all__ = [
    "decompose_v", "toeplitz_check", "band_argmax_check", "rate_fit",
    "Thresholds", "RandomWalkReport", "check_random_theorem",
    "DeterministicReport", "check_deterministic_theorem", "report_for",
]

PASS, FAIL, INSUFFICIENT = "pass", "fail", "insufficient"


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
    if report_for(cfg) is not check_random_theorem:
        raise ValueError("random-walk report requires an empirical 0 < p < 1 walk run")
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
    if report_for(cfg) is not check_deterministic_theorem:
        raise ValueError("deterministic report requires a zero-init population run")
    wc = cfg.walk_config()
    r = wc.require_deterministic_theory()
    geo = trace.geometry
    states = enumerate_deterministic(wc)

    items: dict[str, str] = {}
    acc_err = float(np.max(np.abs(trace.series("accuracy") - 1.0 / wc.K)))
    items["chance_accuracy"] = PASS if acc_err == 0.0 else FAIL

    v_resid = s_resid = w12_spread = 0.0
    for snap in trace.snapshots.values():
        vmax = float(np.max(np.abs(snap.V)))
        if vmax > 0:
            v_resid = max(v_resid, float(snap.V.max() - snap.V.min()) / vmax)
        body = attention(snap, states, geo)[:, :-1]
        s_resid = max(s_resid, float(np.max(body.max(axis=1) - body.min(axis=1))))
        # W12 = alpha p^_N^T: its row spread over its max-abs entry
        amax = float(np.max(np.abs(snap.alpha)))
        if amax > 0:
            w12_spread = max(w12_spread, float(np.ptp(snap.alpha)) / amax)
    items["v_uniformity"] = PASS if v_resid <= tol else FAIL
    items["attention_uniformity"] = PASS if s_resid <= tol else FAIL
    items["w12_structure"] = PASS if w12_spread <= tol else FAIL

    t2_err = None
    if 2 in trace.snapshots and len(trace.lprimes) >= 2:
        # uniform attention in both steps: V1 = -eta l'_0 r/(N K), then gamma
        # gains -eta l'_1 d_j / c_j with d_j = V1/N^2 on the body, -(N-1) V1/N^2
        # at the query, and alpha r/c_body times the body's; the error is the
        # max entry of (alpha - alpha*) p^_N^T and P (gamma - gamma*) p^_N^T
        N, c = wc.N, geo.c
        s = trace.lprimes[0] * trace.lprimes[1] * cfg.eta**2 * r / (N**3 * wc.K)
        ell = 1.0 / c
        ell[-1] = -(N - 1) / c[-1]
        snap = trace.snapshots[2]
        d_alpha = float(np.max(np.abs(snap.alpha - s * r / c[0])))
        d_w22 = float(np.max(np.abs(geo.P @ (snap.gamma - s * ell))))
        t2_err = max(d_alpha, d_w22) * float(np.max(np.abs(geo.pnh)))
        items["t2_closed_form"] = PASS if t2_err <= 1e-10 else FAIL
    else:
        items["t2_closed_form"] = INSUFFICIENT

    return DeterministicReport(
        max_accuracy_error=acc_err, v_uniformity=v_resid, attn_uniformity=s_resid,
        w12_row_spread=w12_spread, t2_closed_form_error=t2_err, items=items,
    )


def report_for(cfg: TrainConfig) -> Callable[[TrainTrace], object]:
    """The report whose theorem covers runs of `cfg`, settled before any
    training: `check_deterministic_theorem` for a zero-init population run,
    `check_random_theorem` for an empirical walk run with 0 < p < 1.
    Raises ValueError for any other config."""
    if cfg.grad_mode == POPULATION:
        if cfg.init != ZERO:
            raise ValueError("the deterministic-walk theorem assumes zero init, "
                             f"got init={cfg.init!r}")
        return check_deterministic_theorem
    if cfg.qa_task is not None:
        raise ValueError(f"no theory report covers QA task {cfg.qa_task!r}")
    if not 0.0 < cfg.p < 1.0:
        raise ValueError(f"an empirical run with p={cfg.p} has no theory report; "
                         "deterministic walks are checked with grad_mode population")
    return check_random_theorem


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
