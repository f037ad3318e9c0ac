"""Report machinery: matrix-structure checks and the two regime reports."""

import numpy as np
import pytest

from circlewalk.markov import transition_matrix
from circlewalk.theorycheck import (FAIL, PASS, Thresholds,
                                    attention_separation_check,
                                    band_argmax_check,
                                    check_deterministic_theorem,
                                    check_random_theorem, decompose_v,
                                    first_step_toeplitz_grid, rate_fit,
                                    toeplitz_check)
from circlewalk.gradients import geometry
from circlewalk.trainer import TrainConfig, train
from circlewalk.posembed import build_positional
from circlewalk.walkgen import WalkConfig, make_dataset


def test_decompose_v_recovers_a_planted_coefficient():
    Pi = transition_matrix(5, 0.7).Pi
    resid = np.zeros((5, 5))
    resid[2, 3] = 0.05
    # make the residual orthogonal to Pi^T so beta comes back exactly
    resid -= np.sum(resid * Pi.T) / np.sum(Pi.T * Pi.T) * Pi.T
    beta, gamma = decompose_v(1.7 * Pi.T + resid, Pi)
    assert beta == pytest.approx(1.7, rel=1e-12)
    assert gamma == pytest.approx(np.max(np.abs(resid)), rel=1e-9)


def test_toeplitz_check():
    Pi = transition_matrix(6, 0.3).Pi
    assert toeplitz_check(Pi, 6) == 0.0
    bumped = Pi.copy()
    bumped[0, 1] += 0.2
    assert toeplitz_check(bumped, 6) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        toeplitz_check(Pi, 5)


def test_band_argmax_check_follows_the_dominant_band():
    assert band_argmax_check(transition_matrix(6, 0.8).Pi.T, 0.8)
    assert band_argmax_check(transition_matrix(6, 0.2).Pi.T, 0.2)
    # wrong band for the drift direction
    assert not band_argmax_check(transition_matrix(6, 0.2).Pi.T, 0.8)
    # at p = 1/2 both bands are acceptable
    assert band_argmax_check(transition_matrix(6, 0.5).Pi.T, 0.5)


def test_rate_fit_recovers_a_power_law():
    t = np.arange(1, 101, dtype=float)
    v = 3.0 * t ** -0.5
    assert rate_fit(t, v, (8, 100)) == pytest.approx(-0.5, abs=1e-10)
    with pytest.raises(ValueError):
        rate_fit(t[:3], v[:3], (8, 100))  # too few points
    with pytest.raises(ValueError):
        rate_fit(t, v - 1.0, (8, 100))  # non-positive values


def test_deterministic_report_on_a_short_run():
    cfg = TrainConfig(K=4, p=1.0, N=13, M=50, eta=1.0, eps=0.1, iterations=8,
                      grad_mode="population")
    rep = check_deterministic_theorem(train(cfg))
    assert rep.passed, rep.items
    assert rep.max_accuracy_error == 0.0
    assert rep.v_uniformity <= 1e-12
    assert rep.attn_uniformity <= 1e-12
    assert rep.items["t2_closed_form"] == PASS
    with pytest.raises(ValueError):  # needs a population trace
        check_deterministic_theorem(train(TrainConfig(
            K=4, p=0.5, N=9, M=40, iterations=1, train_size=8, test_size=8)))


def test_random_report_shape_on_a_small_run():
    cfg = TrainConfig(K=4, p=0.5, N=9, M=40, eta=1.0, eps=0.1, iterations=12,
                      train_size=256, test_size=256)
    rep = check_random_theorem(train(cfg))
    expected_items = {"accuracy", "predictor_convergence", "rate",
                      "attention", "band_argmax"}
    assert set(rep.items) == expected_items
    assert all(v in ("pass", "fail", "insufficient")
               for v in rep.items.values())
    with pytest.raises(ValueError):  # deterministic trace is the other regime
        check_random_theorem(train(TrainConfig(
            K=4, p=1.0, N=13, M=50, iterations=1, grad_mode="population")))


def test_thresholds_defaults():
    th = Thresholds()
    assert th.tol_acc == 0.03
    assert th.slope_band == (-0.65, -0.35)
    assert th.attn_parent_min == 0.99


def test_attention_separation_on_a_planted_winner():
    K, N, M = 4, 9, 40
    pos = build_positional(M, N)
    from circlewalk.model import Params
    params = Params.zeros(K, M)
    # plant a strong parent preference through W22: z_j = p_j . p_N * scale
    params = params.with_updates(W22=np.outer(pos.P[:, -2], pos.P[:, -1]))
    states = make_dataset(WalkConfig(K=K, p=0.5, N=N, M=M), 16, seed=0)
    res = attention_separation_check(params, states, geometry(pos))
    assert res.margin > 0.0
    assert res.min_parent_weight > 1.0 / N


def test_first_step_toeplitz_grid_is_tiny():
    assert first_step_toeplitz_grid(K_max=6) <= 1e-14
