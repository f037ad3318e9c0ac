"""Transition-matrix algebra and the mixing / dominance reports."""

import numpy as np
import pytest

from circlewalk.markov import (
    DecayBoundReport, circulant_eigenvalues, decay_bound_report,
    eigen_action_check, gamma_dominance_report, shift_identities_check,
    shift_matrix, transition_matrix,
)


def test_shift_matrix_is_the_cyclic_permutation():
    P0 = shift_matrix(4)
    assert P0.dtype == np.int64
    v = np.array([1, 0, 0, 0])
    np.testing.assert_array_equal(P0 @ v, [0, 1, 0, 0])
    np.testing.assert_array_equal(np.linalg.matrix_power(P0, 4), np.eye(4))


def test_transition_matrix_bands_and_row_sums():
    tm = transition_matrix(5, 0.7)
    Pi = tm.Pi
    np.testing.assert_allclose(Pi.sum(axis=1), 1.0)
    for i in range(5):
        assert Pi[i, (i + 1) % 5] == pytest.approx(0.7)
        assert Pi[i, (i - 1) % 5] == pytest.approx(0.3)
    assert np.count_nonzero(Pi) == 10


def test_transition_matrix_K2_bands_merge():
    Pi = transition_matrix(2, 0.3).Pi
    np.testing.assert_allclose(Pi, [[0, 1], [1, 0]])


def test_validation():
    with pytest.raises(ValueError):
        transition_matrix(1, 0.5)
    with pytest.raises(ValueError):
        transition_matrix(4, -0.1)


def test_circulant_eigenvalues_match_numpy_spectrum():
    for K, p in ((5, 0.3), (6, 0.5), (7, 0.9)):
        lam = circulant_eigenvalues(K, p)
        ev = np.linalg.eigvals(transition_matrix(K, p).Pi)
        # compare as multisets
        lam_sorted = np.sort_complex(np.round(lam, 10))
        ev_sorted = np.sort_complex(np.round(ev, 10))
        np.testing.assert_allclose(lam_sorted, ev_sorted, atol=1e-9)


def test_eigen_action_residuals_vanish():
    for K in (3, 4, 6, 8):
        for p in (0.1, 0.5, 0.75):
            tm = transition_matrix(K, p)
            for k in range(K):
                assert eigen_action_check(tm, k) < 1e-13
    with pytest.raises(ValueError):
        eigen_action_check(transition_matrix(4, 0.5), 4)


def test_decay_bound_report_passes_and_rejects_deterministic():
    rep = decay_bound_report(7, 0.4, 100)
    assert isinstance(rep, DecayBoundReport)
    # the margin is recorded as it is, negative inside the bound, not floored at 0
    Pi = transition_matrix(7, 0.4).Pi
    margin = max(np.abs(np.linalg.matrix_power(Pi, R) - 1 / 7).max()
                 - np.exp(-8 * 0.4 * 0.6 * R / 49) for R in range(101))
    assert rep.passed and rep.max_violation < 0.0
    assert abs(rep.max_violation - margin) <= 1e-12
    assert rep.max_row_sum_error <= 1e-12
    with pytest.raises(ValueError):
        decay_bound_report(6, 1.0, 10)


def test_even_K_parity_zeros_are_exact():
    rep = decay_bound_report(8, 0.35, 120)
    assert rep.parity_zero_exact
    # spot check: odd-distance entries of an even power are exactly zero
    Pi2 = np.linalg.matrix_power(transition_matrix(8, 0.35).Pi, 2)
    for i in range(8):
        assert Pi2[i, (i + 1) % 8] == 0.0
        assert Pi2[i, (i + 3) % 8] == 0.0


def test_gamma_dominance_report():
    rep = gamma_dominance_report(6, 0.5, 13)
    assert rep.passed
    assert rep.min_margin >= rep.required_margin
    assert rep.min_trace_gap > 0.0
    with pytest.raises(ValueError):
        gamma_dominance_report(6, 1.0, 13)


def test_shift_identities_exact():
    for K in range(2, 13):
        rep = shift_identities_check(K)
        assert rep.passed, f"K={K}"
        assert rep.power_K_is_identity
        assert rep.orthogonal
        assert rep.powers_sum_to_ones
