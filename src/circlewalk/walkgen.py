"""Episode generators: circular random walks and the two QA tasks.

A batch of B episodes is a (B, N) int array of 1-based states in [1, K],
one walk per row, whose last column is the label y = s_N.  QA questions
use the same layout: word indices followed by the answer's index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WalkConfig",
    "QA_WORDS",
    "QA_INDEX",
    "enumerate_deterministic",
    "make_dataset",
    "qa_enumerate",
    "qa_dataset",
    "qa_symmetry_statistic",
]


@dataclass(frozen=True)
class WalkConfig:
    """Task geometry: K nodes on a circle, clockwise probability p,
    sequence length N (including the query slot), positional dimension M."""

    K: int
    p: float
    N: int
    M: int

    def __post_init__(self):
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if self.M < self.N:
            raise ValueError(f"M must be >= N, got M={self.M}, N={self.N}")
        if self.M < math.ceil(self.N ** 1.5):
            warnings.warn(
                f"M={self.M} is below ceil(N^(3/2))={math.ceil(self.N ** 1.5)}; "
                "positional capacity is thinner than the analyzed regime",
                stacklevel=3,  # past the generated __init__, to the caller
            )

    @property
    def deterministic(self) -> bool:
        return self.p in (0.0, 1.0)

    def require_deterministic_theory(self) -> int:
        """Validate p in {0,1} and N = r*K + 1; return r."""
        if not self.deterministic:
            raise ValueError(f"deterministic mode requires p in {{0, 1}}, got p={self.p}")
        r, rem = divmod(self.N - 1, self.K)
        if rem != 0 or r < 1:
            raise ValueError(f"deterministic mode requires N = r*K + 1, got N={self.N}, K={self.K}")
        return r


# uniforms drawn per chunk of walks: 64 KiB of float64
_DRAW_CELLS = 8192


def make_dataset(
    cfg: WalkConfig,
    count: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """`count` independent walks from one seeded stream, as a C-contiguous
    (count, N) int64 state array: s_1 uniform on [K], then +-1 steps mod K.
    Given `out`, a (count, N) int64 array, the walks are drawn into it.

    The stream is fixed by the draw order: first
    `rng.integers(1, K + 1, size=count)`, the starts; then
    `rng.random((count, N - 1)) < p`, whose entry (b, j) makes step j + 1
    of walk b clockwise, drawn a few walks at a time (uniforms come off
    the stream in the same order whatever the chunking).  With c_j the
    clockwise steps among the first j,

        s_{j+1} = (s_1 - 1 + 2 c_j - j) mod K + 1,

    the same array, bit for bit, as the earlier formula
    `(s_1 + cumsum(where(steps, 1, -1)) - 1) % K + 1`.  The residue is taken
    of the running sum w_j = s_1 - 1 + L + 2 c_j - j with
    L = K ceil((N - 1) / K): L = 0 mod K leaves the residue unchanged and
    keeps 0 <= w_j < 2 (N + K), so w fits the smallest unsigned dtype
    holding 2 (N + K), where wrap-around in the partial sums cancels.  The
    walks run down the columns of a (N, count) array, so the running sum is
    ceil(log2 N) whole-array adds at doubling strides.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if rng is None:
        rng = np.random.default_rng(seed)
    K, N = cfg.K, cfg.N
    s1 = rng.integers(1, K + 1, size=count)
    w = np.empty((N, count), dtype=np.min_scalar_type(2 * (N + K)))
    np.add(s1, K * -(-(N - 1) // K) - 1, out=w[0], casting="unsafe")
    steps = w[1:]
    rows = max(1, _DRAW_CELLS // (N - 1))
    uniform = np.empty((min(rows, count), N - 1))
    for b in range(0, count, rows):
        u = uniform[:min(rows, count - b)]
        rng.random(out=u)
        np.less(u, cfg.p, out=steps[:, b:b + len(u)].T)  # 1 where clockwise
    steps *= 2
    steps -= 1  # -1 wraps to the dtype's maximum, which is -1 mod 2^bits
    spare = np.empty_like(w)
    shift = 1
    while shift < N:
        spare[:shift] = w[:shift]
        np.add(w[shift:], w[:-shift], out=spare[shift:])
        w, spare = spare, w
        shift *= 2
    # unsigned floor division is vectorized, np.remainder is not
    np.floor_divide(w, K, out=spare)
    spare *= K
    w -= spare
    w += 1
    if out is None:
        out = np.empty((count, N), np.int64)
    out[...] = w.T
    return out


def enumerate_deterministic(cfg: WalkConfig) -> np.ndarray:
    """The K equiprobable walks of a p in {0,1} configuration as a (K, N)
    state array, row i starting at node i + 1."""
    if not cfg.deterministic:
        raise ValueError(f"enumeration requires p in {{0, 1}}, got p={cfg.p}")
    step = 1 if cfg.p == 1.0 else -1
    raw = np.arange(1, cfg.K + 1)[:, None] + step * np.arange(cfg.N)
    return (raw - 1) % cfg.K + 1


# ---------------------------------------------------------------------------
# Question-answering tasks


QA_WORDS = (
    "apple", "orange", "Based", "on", "the", "which", "type", "of", "fruit",
    "list", "appears", "most", "frequently", "sentence", "I", "prefer", "an",
    "to", "do",
)
QA_INDEX = {w: i + 1 for i, w in enumerate(QA_WORDS)}  # 1-based word indices

TASK1 = "task1"
TASK2 = "task2"
QA_K = len(QA_WORDS)
QA_N = {TASK1: 17, TASK2: 19}
_FRUITS = ("apple", "orange")


def _task1_words(fruits: tuple[str, ...]) -> list[str]:
    return ["Based", "on", "the", "list", *fruits,
            "which", "type", "of", "fruit", "appears", "most", "frequently"]


def _task2_words(first: str, second: str) -> list[str]:
    return ["Based", "on", "the", "sentence", "I", "prefer", "an", first,
            "to", "an", second, "which", "type", "of", "fruit", "do", "I", "prefer"]


def qa_enumerate(task: str) -> np.ndarray:
    """All distinct questions of a task (32 for Task 1, 2 for Task 2) as a
    state array: the question's word indices, then the answer's index."""
    rows = []
    if task == TASK1:
        for code in range(32):
            fruits = tuple(_FRUITS[(code >> b) & 1] for b in range(5))
            label_word = max(_FRUITS, key=fruits.count)
            rows.append(_task1_words(fruits) + [label_word])
    elif task == TASK2:
        for first, second in ((_FRUITS[0], _FRUITS[1]), (_FRUITS[1], _FRUITS[0])):
            rows.append(_task2_words(first, second) + [first])
    else:
        raise ValueError(f"unknown QA task {task!r}")
    return np.array([[QA_INDEX[w] for w in row] for row in rows])


def qa_dataset(task: str, count: int, seed: int | None = None) -> np.ndarray:
    """`count` questions drawn uniformly from the task's pool, one per row."""
    rng = np.random.default_rng(seed)
    pool = qa_enumerate(task)
    return pool[rng.integers(len(pool), size=count)]


def qa_symmetry_statistic(task: str) -> float:
    """Max distance between label-conditional average token vectors.

    Zero means the token average carries no label information (the Task 2
    symmetry trap); positive means the average alone can separate labels.
    """
    by_label: dict[int, list[np.ndarray]] = {}
    for row in qa_enumerate(task):
        words = row[:-1]
        xbar = np.bincount(words - 1, minlength=QA_K) / len(words)
        by_label.setdefault(int(row[-1]), []).append(xbar)
    means = [np.mean(v, axis=0) for v in by_label.values()]
    best = 0.0
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            best = max(best, float(np.linalg.norm(means[i] - means[j])))
    return best


def export_dataset(states: np.ndarray, path, cfg: WalkConfig, seed) -> None:
    """Line-oriented dataset file: header with config and seed, then one
    'states: s_1 ... s_N' record per row of the state array."""
    with open(path, "w") as fh:
        fh.write(f"# K={cfg.K} p={cfg.p} N={cfg.N} M={cfg.M} seed={seed} count={len(states)}\n")
        for row in states:
            fh.write("states: " + " ".join(str(int(s)) for s in row) + "\n")
