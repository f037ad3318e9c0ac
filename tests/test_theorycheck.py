"""Report machinery: matrix-structure checks, the scope rule and the two
regime reports."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from circlewalk.markov import decompose_v, transition_matrix
from circlewalk.model import dense_params
from circlewalk.posembed import build_positional
from circlewalk.theorycheck import (FAIL, ONE_STEP_TOEPLITZ_TOL, PASS, Thresholds,
                                    band_argmax_check,
                                    check_deterministic_theorem,
                                    check_random_theorem,
                                    first_step_toeplitz_grid, rate_fit,
                                    report_for, toeplitz_check)
from circlewalk.trainer import TrainConfig, train

POP_CFG = dict(K=4, p=1.0, N=13, M=50, eta=1.0, eps=0.1, iterations=4,
               grad_mode="population")


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
    cfg = TrainConfig(**{**POP_CFG, "iterations": 8})
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


def test_report_for_settles_the_scope_from_the_config():
    walk = dict(K=4, p=0.5, N=9, M=40)
    assert report_for(TrainConfig(**POP_CFG)) is check_deterministic_theorem
    assert report_for(TrainConfig(**POP_CFG, normalize_attention=True)) \
        is check_deterministic_theorem
    assert report_for(TrainConfig(**walk)) is check_random_theorem
    assert report_for(TrainConfig(**walk, init="gaussian", sigma=0.01)) \
        is check_random_theorem
    gaussian_pop = TrainConfig(**POP_CFG, init="gaussian", sigma=0.01)
    for cfg in (gaussian_pop, TrainConfig(qa_task="task1", M=80),
                TrainConfig(**{**walk, "p": 1.0}), TrainConfig(**{**walk, "p": 0.0})):
        with pytest.raises(ValueError):
            report_for(cfg)
    with pytest.raises(ValueError):  # the theorem's hypothesis is zero init
        check_deterministic_theorem(train(dataclasses.replace(gaussian_pop, iterations=1)))


def _dense_t2_error(trace):
    """The t=2 check on dense blocks: max entry of W12 and W22 at t=2 minus
    their closed forms, built as outer products with p_N."""
    cfg, geo = trace.config, trace.geometry
    wc = cfg.walk_config()
    N, K, r = wc.N, wc.K, wc.require_deterministic_theory()
    P = build_positional(cfg.M, N)
    c, pN = geo.c, P[:, -1]
    scale = trace.lprimes[0] * trace.lprimes[1] * cfg.eta**2 * r / (N**3 * K * c[-1])
    w12_exp = scale * r / c[0] * np.outer(np.ones(K), pN)
    left = P[:, :-1] @ (1.0 / c[:-1]) - (N - 1) / c[-1] * pN
    w22_exp = np.outer(scale * left, pN)
    dense = dense_params(trace, 2)
    return max(float(np.max(np.abs(dense.W12 - w12_exp))),
               float(np.max(np.abs(dense.W22 - w22_exp))))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name,index", [("alpha", 1), ("gamma", 1), ("gamma", -1)])
def test_t2_error_matches_the_dense_oracle_on_a_planted_error(name, index, normalize):
    trace = train(TrainConfig(**POP_CFG, normalize_attention=normalize))
    assert check_deterministic_theorem(trace).items["t2_closed_form"] == PASS
    snap = trace.snapshots[2]
    # from zero init alpha = wtok / |p^_N|^2 and gamma = zpos / zrate: the
    # error goes into the state each factor is derived from
    state = {"alpha": "wtok", "gamma": "zpos"}[name]
    planted = getattr(snap, state).copy()
    planted[index] += 0.01 * np.max(np.abs(planted))
    trace.snapshots[2] = dataclasses.replace(snap, **{state: planted})
    rep = check_deterministic_theorem(trace)
    assert rep.t2_closed_form_error == pytest.approx(_dense_t2_error(trace), rel=1e-12)
    assert rep.items["t2_closed_form"] == FAIL


@pytest.mark.parametrize("normalize", [False, True])
def test_t2_residual_by_fft_is_the_dense_one(normalize):
    # the check takes P (gamma - gamma*) by one FFT; on the unperturbed run
    # its residual (~1e-17) is the dense blocks' to well below the bound
    trace = train(TrainConfig(**POP_CFG, normalize_attention=normalize))
    rep = check_deterministic_theorem(trace)
    assert rep.items["t2_closed_form"] == PASS
    assert abs(rep.t2_closed_form_error - _dense_t2_error(trace)) <= 1e-15


def test_deterministic_report_states_its_bounds():
    trace = train(TrainConfig(**POP_CFG))
    rep = check_deterministic_theorem(trace)
    assert (rep.tol, rep.t2_bound) == (1e-12, 1e-10)


def test_w12_structure_fails_with_the_dense_spread():
    trace = train(TrainConfig(**POP_CFG))
    t = max(trace.snapshots)
    snap = trace.snapshots[t]
    wtok = snap.wtok.copy()
    wtok[0] *= 1.001
    trace.snapshots[t] = dataclasses.replace(snap, wtok=wtok)
    W12 = dense_params(trace, t).W12
    dense_spread = np.max(W12.max(axis=0) - W12.min(axis=0)) / np.max(np.abs(W12))
    rep = check_deterministic_theorem(trace)
    assert rep.w12_row_spread == pytest.approx(dense_spread, rel=1e-12)
    assert rep.items["w12_structure"] == FAIL


def test_deterministic_check_builds_no_dense_block():
    # one M x M float64 block at M = 1000 is 7.6 MiB
    trace = train(TrainConfig(K=2, p=1.0, N=3, M=1000, iterations=3,
                              grad_mode="population"))
    tracemalloc.start()
    try:
        rep = check_deterministic_theorem(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.passed, rep.items
    assert peak < 2**20, peak


def test_first_step_toeplitz_grid_is_tiny():
    assert first_step_toeplitz_grid() <= ONE_STEP_TOEPLITZ_TOL
