"""Forward pass: logits, softmax, output, loss."""

import dataclasses

import numpy as np
import pytest

from circlewalk.model import (Params, attention_logits, augment, forward, loss_value,
                              normalize_columns, softmax, tokens_from_states)
from circlewalk.posembed import build_positional
from circlewalk.walkgen import WalkConfig, make_dataset

K, N, M = 4, 6, 20
POS = build_positional(M, N)


def _episode(seed=0):
    cfg = WalkConfig(K=K, p=0.5, N=N, M=M)
    states = make_dataset(cfg, 1, seed=seed)
    return tokens_from_states(states, K)[0], int(states[0, -1])


def _random_params(seed=0, sigma=0.3):
    rng = np.random.default_rng(seed)
    return Params.gaussian(K, M, sigma, rng)


def test_params_shape_validation():
    good = Params.zeros(K, M)
    assert good.K == K and good.M == M
    with pytest.raises(ValueError):
        Params(V=np.zeros((K, K)), W11=np.zeros((K, K)),
               W12=np.zeros((K, M + 1)), W21=np.zeros((M, K)),
               W22=np.zeros((M, M)))


def test_softmax_is_a_distribution_and_shift_invariant():
    z = np.array([1.0, -2.0, 0.5, 3.0])
    s = softmax(z)
    assert s.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(softmax(z + 100.0), s, rtol=1e-12)
    with pytest.raises(FloatingPointError):
        softmax(np.array([0.0, np.inf]))


def test_zero_params_give_uniform_attention_and_zero_output():
    X, _ = _episode()
    out = forward(Params.zeros(K, M), X, POS)
    np.testing.assert_allclose(out.S, np.full(N, 1.0 / N))
    np.testing.assert_array_equal(out.f, np.zeros(K))
    assert out.pred == 1  # first-index tie rule


def test_logits_match_dense_bilinear_form():
    # z_j = xt_j^T W xt_N with W assembled from the four blocks
    X, _ = _episode(seed=3)
    params = _random_params(seed=1)
    W = np.block([[params.W11, params.W12], [params.W21, params.W22]])
    for normalize in (False, True):
        Xt = augment(X, POS)
        if normalize:
            Xt = normalize_columns(Xt)
        expected = Xt.T @ W @ Xt[:, -1]
        got = attention_logits(params, X, POS, normalize=normalize)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_forward_output_is_value_times_weighted_tokens():
    X, _ = _episode(seed=5)
    params = _random_params(seed=2)
    out = forward(params, X, POS)
    np.testing.assert_allclose(out.f, params.V @ (X @ out.S), atol=1e-14)
    assert out.pred == int(np.argmax(out.f)) + 1


def test_query_token_block_is_inert():
    # x_N = 0, so W11/W21 never touch the logits
    X, _ = _episode(seed=7)
    params = _random_params(seed=3)
    rng = np.random.default_rng(9)
    bumped = dataclasses.replace(params, W11=rng.standard_normal((K, K)),
                                 W21=rng.standard_normal((M, K)))
    np.testing.assert_allclose(attention_logits(params, X, POS),
                               attention_logits(bumped, X, POS), atol=1e-12)


def test_loss_value():
    f = np.array([0.2, 0.5, 0.1, 0.2])
    assert loss_value(f, 2, 0.1) == pytest.approx(-np.log(0.6))
    with pytest.raises(ValueError):
        loss_value(np.array([-0.5, 0.0, 0.0, 0.0]), 1, 0.1)
