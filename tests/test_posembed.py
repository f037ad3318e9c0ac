"""Sinusoidal positional columns: exact orthogonality and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlewalk.model import augment, normalize_columns
from circlewalk.posembed import build_positional, positional_times


def test_entries_match_the_sine_formula():
    M, N = 12, 5
    P = build_positional(M, N)
    assert P.shape == (M, N)
    for i in range(1, N + 1):
        for j in range(1, M + 1):
            assert P[j - 1, i - 1] == pytest.approx(
                np.sin(j * i * np.pi / (M + 1)), abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(M=st.integers(4, 200), N=st.integers(2, 40))
def test_columns_are_orthogonal_with_norm_phi(M, N):
    if N > M:
        N = M
    P = build_positional(M, N)
    G = P.T @ P
    phi = (M + 1) / 2.0
    np.testing.assert_allclose(np.diag(G), phi, rtol=1e-12)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-10 * (M + 1)


def test_invalid_dimensions_raise():
    with pytest.raises(ValueError):
        build_positional(4, 5)  # N > M
    with pytest.raises(ValueError):
        build_positional(8, 0)


@pytest.mark.parametrize("M", [1, 2, 5, 13, 64, 1000])
def test_positional_times_is_the_dense_product(M):
    # the dense entries sin(j i pi/(M+1)) round arguments of up to N pi, so
    # they differ from the exact sines by a few eps * N
    rng = np.random.default_rng(M)
    for N in sorted({1, max(1, M // 3), M}):
        x = rng.standard_normal(N)
        want = build_positional(M, N) @ x
        np.testing.assert_allclose(positional_times(x, M), want, rtol=0,
                                   atol=4 * np.finfo(float).eps * (N + 1) * np.abs(x).sum())
    with pytest.raises(ValueError):
        positional_times(np.ones(M + 1), M)


def test_augment_stacks_tokens_over_positions():
    P = build_positional(16, 4)
    X = np.zeros((3, 4))
    X[1, 0] = X[2, 1] = X[0, 2] = 1.0  # query column stays zero
    Xt = augment(X, P)
    assert Xt.shape == (3 + 16, 4)
    np.testing.assert_array_equal(Xt[:3], X)
    np.testing.assert_array_equal(Xt[3:], P)


def test_normalize_columns_unit_norm():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 5))
    B = normalize_columns(A)
    np.testing.assert_allclose(np.linalg.norm(B, axis=0), 1.0, rtol=1e-14)
    # directions preserved
    for j in range(5):
        assert np.dot(A[:, j], B[:, j]) > 0


def test_normalize_columns_rejects_zero_column():
    A = np.ones((4, 3))
    A[:, 1] = 0.0
    with pytest.raises(ValueError):
        normalize_columns(A)


def test_body_and_query_augmented_norms():
    # every body column of [X; P] has norm sqrt(1 + phi); the query sqrt(phi)
    M, N = 20, 6
    P = build_positional(M, N)
    X = np.zeros((4, N))
    X[0, : N - 1] = 1.0
    Xt = augment(X, P)
    phi = (M + 1) / 2.0
    norms = np.linalg.norm(Xt, axis=0)
    np.testing.assert_allclose(norms[:-1], np.sqrt(1 + phi), rtol=1e-12)
    assert norms[-1] == pytest.approx(np.sqrt(phi), rel=1e-12)
