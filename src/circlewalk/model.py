"""One-layer softmax-attention predictor.

f(X) = V X softmax(Xt^T W xt_N), where Xt = [X; P] stacks tokens on
positional columns and the query column xt_N carries positions only.
The softmax has no temperature scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posembed import augment, normalize_columns

__all__ = ["Params", "gaussian_blocks", "AttentionOutput", "softmax",
           "attention_logits", "forward", "loss_value"]


@dataclass(frozen=True)
class Params:
    """Value matrix V (K x K) and the four blocks of the attention matrix
    W = [[W11, W12], [W21, W22]] acting on stacked [token; position] vectors."""

    V: np.ndarray
    W11: np.ndarray  # K x K
    W12: np.ndarray  # K x M
    W21: np.ndarray  # M x K
    W22: np.ndarray  # M x M

    def __post_init__(self):
        K = self.V.shape[0]
        M = self.W22.shape[0]
        expected = {"V": (K, K), "W11": (K, K), "W12": (K, M),
                    "W21": (M, K), "W22": (M, M)}
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")

    @property
    def K(self) -> int:
        return self.V.shape[0]

    @property
    def M(self) -> int:
        return self.W22.shape[0]

    @staticmethod
    def zeros(K: int, M: int) -> "Params":
        return Params(
            V=np.zeros((K, K)), W11=np.zeros((K, K)), W12=np.zeros((K, M)),
            W21=np.zeros((M, K)), W22=np.zeros((M, M)),
        )

    @staticmethod
    def gaussian(K: int, M: int, sigma: float, rng: np.random.Generator) -> "Params":
        V, W11, W12, W21, *W22 = gaussian_blocks(K, M, sigma, rng)
        return Params(V=V, W11=W11, W12=W12, W21=W21, W22=np.concatenate(W22))


# rows of W22 that `gaussian_blocks` draws at a time: 64 x M float64
_W22_ROWS = 64


def gaussian_blocks(K: int, M: int, sigma: float, rng: np.random.Generator):
    """The Gaussian init's stream, sigma times standard normals: V, W11,
    W12 and W21, then W22 as fresh blocks of `_W22_ROWS` rows, top to
    bottom.  Rows come off the stream as in one (M, M) draw, so a consumer
    can reduce W22 block by block without holding it."""
    for shape in ((K, K), (K, K), (K, M), (M, K)):
        yield sigma * rng.standard_normal(shape)
    for i in range(0, M, _W22_ROWS):
        yield sigma * rng.standard_normal((min(_W22_ROWS, M - i), M))


@dataclass(frozen=True)
class AttentionOutput:
    """Forward-pass internals for one episode."""

    z: np.ndarray  # attention logits, length N
    S: np.ndarray  # attention weights, length N
    f: np.ndarray  # output vector, length K
    pred: int  # 1-based predicted node


def softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("non-finite attention logits")
    e = np.exp(z - np.max(z))
    return e / e.sum()


def attention_logits(params: Params, X: np.ndarray, P: np.ndarray,
                     normalize: bool = False) -> np.ndarray:
    """z = Xt^T W xt_N computed blockwise; x_N = 0 so the query side only
    sees W12/W22 acting on p_N."""
    Xt = augment(X, P)
    if normalize:
        Xt = normalize_columns(Xt)
    K = params.K
    xq, pq = Xt[:K, -1], Xt[K:, -1]
    w_query = np.concatenate([
        params.W11 @ xq + params.W12 @ pq,
        params.W21 @ xq + params.W22 @ pq,
    ])
    return Xt.T @ w_query


def forward(params: Params, X: np.ndarray, P: np.ndarray,
            normalize: bool = False) -> AttentionOutput:
    z = attention_logits(params, X, P, normalize=normalize)
    S = softmax(z)
    f = params.V @ (X @ S)
    return AttentionOutput(z=z, S=S, f=f, pred=int(np.argmax(f)) + 1)


def loss_value(f: np.ndarray, y: int, eps: float) -> float:
    """-log(f_y + eps); raises if the shifted score is outside the log domain."""
    arg = float(f[y - 1]) + eps
    if arg <= 0.0:
        raise ValueError(f"log-loss argument must be positive, got {arg}")
    return -float(np.log(arg))
