"""Sinusoidal positional embeddings with exact pairwise orthogonality."""

from __future__ import annotations

import numpy as np

__all__ = ["build_positional", "positional_times"]


def build_positional(M: int, N: int) -> np.ndarray:
    """The M x N matrix P whose column i is [sin(j*i*pi/(M+1))]_{j=1..M}.

    Columns are mutually orthogonal with squared norm (M+1)/2.
    """
    if not 1 <= N <= M:
        raise ValueError(f"need 1 <= N <= M, got N={N}, M={M}")
    j = np.arange(1, M + 1)[:, None]
    i = np.arange(1, N + 1)[None, :]
    return np.sin(j * i * np.pi / (M + 1))


def positional_times(x: np.ndarray, M: int) -> np.ndarray:
    """P x for the (M, N) positional matrix P and an x of length N, without
    forming P: (P x)_j = sum_i x_i sin(j i pi/(M+1)) is minus the imaginary
    part of entry j of the discrete Fourier transform of [0, x_1, ..., x_N]
    zero-padded to length 2(M+1), one real FFT."""
    N = len(x)
    if not 1 <= N <= M:
        raise ValueError(f"need 1 <= N <= M, got N={N}, M={M}")
    padded = np.zeros(2 * (M + 1))
    padded[1:N + 1] = x
    return -np.fft.rfft(padded)[1:M + 1].imag
