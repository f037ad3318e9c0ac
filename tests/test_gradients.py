"""Closed-form gradients against the finite-difference oracle."""

import numpy as np
import pytest

from circlewalk.gradients import Batch, geometry, grad_batch
from circlewalk.model import Params, factor, fd_grad, grad_example, tokens_from_states
from circlewalk.posembed import build_positional
from circlewalk.walkgen import WalkConfig, make_dataset

EPS = 0.1
BLOCKS = ("gV", "gW11", "gW12", "gW21", "gW22")


def _instance(rng, K=None, N=None, M=None):
    K = K or int(rng.integers(2, 7))
    N = N or int(rng.integers(4, 11))
    M = M or int(rng.integers(N, 21))
    cfg = WalkConfig(K=K, p=float(rng.uniform(0.1, 0.9)), N=N, M=M)
    states = make_dataset(cfg, 1, rng=rng)
    params = Params.gaussian(K, M, 0.05, rng)
    P = build_positional(M, N)
    return params, tokens_from_states(states, K)[0], int(states[0, -1]), P


def _average(grads):
    """Uniform average of per-example gradients, block by block."""
    return {name: sum(getattr(g, name) for g in grads) / len(grads)
            for name in BLOCKS}


def _rel_err(a, b):
    denom = max(np.linalg.norm(b), 1e-8)
    return np.linalg.norm(a - b) / denom


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_analytic_matches_finite_differences():
    rng = np.random.default_rng(42)
    for trial in range(20):
        params, X, y, P = _instance(rng)
        normalize = bool(trial % 2)
        g = grad_example(params, X, y, P, EPS, normalize=normalize)
        fd = fd_grad(params, X, y, P, EPS, normalize=normalize)
        for name in BLOCKS:
            err = _rel_err(getattr(g, name), getattr(fd, name))
            assert err < 1e-5, f"trial {trial} block {name}: {err}"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_query_token_gradients_vanish():
    rng = np.random.default_rng(7)
    params, X, y, P = _instance(rng)
    g = grad_example(params, X, y, P, EPS)
    np.testing.assert_array_equal(g.gW11, 0.0)
    np.testing.assert_array_equal(g.gW21, 0.0)
    fd = fd_grad(params, X, y, P, EPS)
    assert np.max(np.abs(fd.gW11)) < 1e-8
    assert np.max(np.abs(fd.gW21)) < 1e-8


def test_batch_agrees_with_per_example_average():
    rng = np.random.default_rng(3)
    cfg = WalkConfig(K=5, p=0.6, N=9, M=30)
    states = make_dataset(cfg, 16, seed=8)
    tokens = tokens_from_states(states, 5)
    params = Params.gaussian(5, 30, 0.05, rng)
    P = build_positional(30, 9)
    for normalize in (False, True):
        geo = geometry(30, 9, normalize)
        bg = grad_batch(factor(params, P, geo), Batch.of(states, 5), geo, EPS)
        avg = _average([grad_example(params, X, int(s[-1]), P, EPS,
                                     normalize=normalize)
                        for X, s in zip(tokens, states)])
        # the batch returns a and D: dL/dW12 = a p^_N^T, dL/dW22 = (P D) p^_N^T
        pnh = geo.pnh
        np.testing.assert_allclose(bg.gV, avg["gV"], atol=1e-13)
        np.testing.assert_allclose(np.outer(bg.a, pnh), avg["gW12"], atol=1e-13)
        np.testing.assert_allclose(np.outer(P @ bg.D, pnh), avg["gW22"], atol=1e-13)


def test_batch_weights_and_diagnostics():
    cfg = WalkConfig(K=4, p=0.5, N=7, M=20)
    states = make_dataset(cfg, 3, seed=1)
    params = Params.zeros(4, 16)
    P = build_positional(16, 7)
    geo = geometry(16, 7)
    bg = grad_batch(factor(params, P, geo), Batch.of(states, 4), geo, EPS)
    # zero init: f_y = 0, so every l' is -1/eps, and so is their mean
    assert bg.lprime_mean == pytest.approx(-1.0 / EPS)
    assert bg.loss == pytest.approx(-np.log(EPS))
    # gV averages the per-example one-hot outer products
    avg = _average([grad_example(params, X, int(s[-1]), P, EPS)
                    for X, s in zip(tokens_from_states(states, 4), states)])
    np.testing.assert_allclose(bg.gV, avg["gV"], atol=1e-14)


def test_geometry_is_the_positional_matrix_s_last_column():
    # p^_N from the sine formula of column N alone is bit for bit the last
    # column of build_positional over c_N, over every M from 3 to 79 and
    # the study's N (97, and 17 and 19 of the QA tasks) at larger M
    grid = [(M, N, False) for M in range(3, 80)
            for N in sorted({*range(1, M + 1, 3), M} | ({17, 19} & set(range(M + 1))))]
    grid += [(M, N, normalize) for M in (100, 1000, 2000) for N in (2, 17, 19, 97, 100)
             for normalize in (False, True)]
    for M, N, normalize in grid:
        geo = geometry(M, N, normalize)
        assert geo.c.shape == (N,)
        np.testing.assert_array_equal(geo.pnh, build_positional(M, N)[:, -1] / geo.c[-1],
                                      err_msg=f"M={M}, N={N}, normalize={normalize}")
    with pytest.raises(ValueError):
        geometry(8, 9)
