"""Transition-matrix algebra for the circular walk.

Construction, the V = beta Pi^T + residual split, the circulant spectrum,
and executable versions of the mixing / dominance bounds the training
analysis leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TransitionMatrix",
    "transition_matrix",
    "shift_matrix",
    "decompose_v",
    "circulant_eigenvalues",
    "eigen_action_check",
    "DecayBoundReport",
    "decay_bound_report",
    "GammaDominanceReport",
    "gamma_dominance_report",
    "ShiftIdentityReport",
    "shift_identities_check",
]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic K x K circulant: p on the clockwise band
    (j = i+1 mod K), 1-p on the counter-clockwise band."""

    Pi: np.ndarray
    K: int
    p: float


def shift_matrix(K: int) -> np.ndarray:
    """Integer cyclic shift with ones at (i+1 mod K, i)."""
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    Pi0 = np.zeros((K, K), dtype=np.int64)
    idx = np.arange(K)
    Pi0[(idx + 1) % K, idx] = 1
    return Pi0


def transition_matrix(K: int, p: float) -> TransitionMatrix:
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    Pi0 = shift_matrix(K).astype(float)
    # Pi = p*Pi0^T + (1-p)*Pi0; for K=2 the two bands coincide and merge.
    Pi = p * Pi0.T + (1.0 - p) * Pi0
    return TransitionMatrix(Pi=Pi, K=K, p=p)


def decompose_v(V: np.ndarray, Pi: np.ndarray) -> tuple:
    """Split V = beta * Pi^T + residual by orthogonal projection; returns
    (beta, max-norm of the residual), per matrix over V's leading axes."""
    PiT = Pi.T
    beta = (V * PiT).sum(axis=(-2, -1)) / (PiT * PiT).sum()
    gamma = np.abs(V - np.expand_dims(beta, (-2, -1)) * PiT).max(axis=(-2, -1))
    return beta, gamma


def circulant_eigenvalues(K: int, p: float) -> np.ndarray:
    """lambda_k = cos(2*pi*k/K) + i*(1-2p)*sin(2*pi*k/K), k = 0..K-1."""
    ang = 2.0 * np.pi * np.arange(K) / K
    return np.cos(ang) + 1j * (1.0 - 2.0 * p) * np.sin(ang)


def eigen_action_check(tm: TransitionMatrix, k: int) -> float:
    """Residual ||Pi v_k - lambda_k v_k|| for the k-th Fourier vector.

    v_k has components exp(-2*pi*i*(j-1)*k/K)/sqrt(K); the conjugation
    makes it the eigenvector matching lambda_k above for every p.
    """
    K = tm.K
    if not 0 <= k < K:
        raise ValueError(f"k must be in [0, {K}), got {k}")
    j = np.arange(K)
    v = np.exp(-2j * np.pi * j * k / K) / np.sqrt(K)
    lam = circulant_eigenvalues(K, tm.p)[k]
    return float(np.linalg.norm(tm.Pi @ v - lam * v))


@dataclass
class DecayBoundReport:
    """Entrywise mixing of Pi^R toward uniform at rate exp(-8p(1-p)R/K^2),
    with the exact parity-zero pattern when K is even."""

    K: int
    p: float
    R_max: int
    max_violation: float = -np.inf  # max over (i,j,R) of |entry - target| - bound; < 0 inside
    parity_zero_exact: bool = True  # even K only; True when zeros are bit-exact
    max_row_sum_error: float = 0.0
    # repeated products leave ~1e-15 dust around the uniform limit, which can
    # exceed the true bound once it shrinks below machine precision
    tol: float = 1e-12
    row_sum_tol: float = 1e-12  # bound of max_row_sum_error
    passed: bool = True


def decay_bound_report(K: int, p: float, R_max: int) -> DecayBoundReport:
    if not 0.0 < p < 1.0:
        raise ValueError(f"decay bound requires 0 < p < 1, got p={p}")
    if R_max < 0:
        raise ValueError(f"decay bound needs a power range R_max >= 0, got {R_max}")
    tm = transition_matrix(K, p)
    rep = DecayBoundReport(K=K, p=p, R_max=R_max)
    even = K % 2 == 0
    ii, jj = np.meshgrid(np.arange(K), np.arange(K), indexing="ij")
    PiR = np.eye(K)
    for R in range(R_max + 1):
        if R > 0:
            PiR = PiR @ tm.Pi
        rep.max_row_sum_error = max(rep.max_row_sum_error, float(np.max(np.abs(PiR.sum(axis=1) - 1.0))))
        bound = np.exp(-8.0 * p * (1.0 - p) * R / K**2)
        if even:
            zero_mask = (jj - ii + R) % 2 == 1
            if np.any(PiR[zero_mask] != 0.0):
                rep.parity_zero_exact = False
            dev = np.abs(PiR[~zero_mask] - 2.0 / K)
        else:
            dev = np.abs(PiR - 1.0 / K)
        rep.max_violation = max(rep.max_violation, float(np.max(dev) - bound))
    rep.passed = (rep.max_violation <= rep.tol and rep.parity_zero_exact
                  and rep.max_row_sum_error <= rep.row_sum_tol)
    return rep


@dataclass
class GammaDominanceReport:
    """Diagonal dominance of Gamma(N) = sum_{i=0}^{N-2} Pi^i and the
    realized minimum trace gap that stands in for the analysis constant."""

    K: int
    p: float
    N: int
    min_margin: float  # min over i != j of Gamma_{1,1} - Gamma_{i,j}
    required_margin: float  # min(p, 1-p)^(N-2)
    min_trace_gap: float  # min over k of [G Pi^T]_{1,1} - [G (Pi^T)^k]_{1,1}
    passed: bool


def gamma_dominance_report(K: int, p: float, N: int) -> GammaDominanceReport:
    if not 0.0 < p < 1.0:
        raise ValueError(f"dominance report requires 0 < p < 1, got p={p}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    tm = transition_matrix(K, p)
    # Gamma(N) = sum_{i=0}^{N-2} Pi^i and G = sum_{i=1}^{N-1} Pi^i, one run of powers
    gamma, G, PiI = np.eye(K), np.zeros((K, K)), np.eye(K)
    for _ in range(N - 2):
        PiI = PiI @ tm.Pi
        gamma = gamma + PiI
        G = G + PiI
    G = G + PiI @ tm.Pi
    off = gamma.copy()
    np.fill_diagonal(off, -np.inf)
    min_margin = float(gamma[0, 0] - np.max(off))
    # the analysis takes p >= 1/2 without loss of generality; mirroring the
    # walk swaps p and 1-p, so the direction-free margin uses the smaller one
    required = min(p, 1.0 - p) ** (N - 2)

    # gap_k = [G Pi^T]_{1,1} - [G (Pi^T)^k]_{1,1}
    row = G[0]  # e_1^T G
    PiTk = tm.Pi.T.copy()
    ref = float(row @ PiTk[:, 0])
    min_gap = np.inf
    for _ in range(2, N):
        PiTk = PiTk @ tm.Pi.T
        min_gap = min(min_gap, ref - float(row @ PiTk[:, 0]))
    return GammaDominanceReport(
        K=K, p=p, N=N,
        min_margin=min_margin,
        required_margin=required,
        min_trace_gap=float(min_gap),
        # the gap can be exactly zero (even K at p = 1/2 mixes the parity
        # class in one double step), so only negative gaps count against
        passed=min_margin >= required and min_gap >= 0.0,
    )


@dataclass
class ShiftIdentityReport:
    """Exact integer identities of the cyclic shift Pi_0."""

    K: int
    power_K_is_identity: bool
    orthogonal: bool
    powers_sum_to_ones: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.power_K_is_identity and self.orthogonal and self.powers_sum_to_ones


def shift_identities_check(K: int) -> ShiftIdentityReport:
    Pi0 = shift_matrix(K)
    eye = np.eye(K, dtype=np.int64)
    acc = np.zeros((K, K), dtype=np.int64)
    Pk = eye.copy()
    for _ in range(K):
        Pk = Pk @ Pi0
        acc += Pk
    return ShiftIdentityReport(
        K=K,
        power_K_is_identity=bool(np.array_equal(Pk, eye)),
        orthogonal=bool(np.array_equal(Pi0 @ Pi0.T, eye)),
        powers_sum_to_ones=bool(np.array_equal(acc, np.ones((K, K), dtype=np.int64))),
    )
