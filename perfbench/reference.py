"""Independent re-derivation of what the benchmark's workloads must output.

The gate compares every timed invocation against these numbers, so this
file does not import the package under test.  It reproduces the data
streams and training recursions of the circlewalk trainer in the
low-rank form its gradients allow (dL/dW12 and dL/dW22 are rank one with
right factor p_N), which is far cheaper than the dense run.  The
deterministic population run follows the exact scalar recursion, as the
trainer does, so that the all-equal structure and the chance accuracy
come out exactly.  `seed_reference.json` pins these results to values
recorded from the original implementation.
"""

from __future__ import annotations

import numpy as np

ROW_FIELDS = ("loss", "accuracy", "kl", "v_dist", "f_dist", "attn_parent",
              "attn_other_max", "beta", "gamma")


def transition(K: int, p: float) -> np.ndarray:
    """Row-stochastic circulant: p clockwise (i -> i+1), 1-p counter-clockwise."""
    i = np.arange(K)
    Pi = np.zeros((K, K))
    Pi[i, (i + 1) % K] += p
    Pi[i, (i - 1) % K] += 1.0 - p
    return Pi


def positional(M: int, N: int) -> np.ndarray:
    j = np.arange(1, M + 1)[:, None]
    i = np.arange(1, N + 1)[None, :]
    return np.sin(j * i * np.pi / (M + 1))


def walks(rng: np.random.Generator, K: int, p: float, N: int, count: int) -> np.ndarray:
    """(count, N) 1-based states, drawn in the trainer's order: start nodes,
    then one uniform per step."""
    s1 = rng.integers(1, K + 1, size=count)
    steps = np.where(rng.random((count, N - 1)) < p, 1, -1)
    raw = s1[:, None] + np.concatenate(
        [np.zeros((count, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
    return (raw - 1) % K + 1


def _attention(states, wtok, zpos):
    z = np.tile(zpos, (states.shape[0], 1))
    z[:, :-1] += wtok[states[:, :-1] - 1]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def metrics_row(V, wtok, zpos, states, Pi, loss) -> dict:
    """The trainer's per-iteration test metrics, uniform weights."""
    B, N = states.shape
    K = V.shape[0]
    S = _attention(states, wtok, zpos)
    rows = np.repeat(np.arange(B), N - 1) * K + (states[:, :-1] - 1).ravel()
    xs = np.bincount(rows, S[:, :-1].ravel(), minlength=B * K).reshape(B, K)
    f = xs @ V.T
    w = np.full(B, 1.0 / B)
    pred = np.argmax(f, axis=1) + 1
    q = Pi[states[:, -2] - 1]
    fm = np.clip(f, 0.0, None) + 1e-12
    fm = fm / fm.sum(axis=1, keepdims=True)
    kl = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0) / fm), 0.0).sum(axis=1)
    fn = np.linalg.norm(f, axis=1)
    f_dist = (float(w @ np.linalg.norm(f / fn[:, None] - q, axis=1))
              if np.all(fn > 0) else float("nan"))
    vF = np.linalg.norm(V)
    v_dist = (float(np.linalg.norm(V / vF - Pi.T / np.linalg.norm(Pi)))
              if vF > 0 else float("nan"))
    beta = float(np.sum(V * Pi.T) / np.sum(Pi.T * Pi.T))
    return dict(loss=loss, accuracy=float(w @ (pred == states[:, -1])),
                kl=float(w @ kl), v_dist=v_dist, f_dist=f_dist,
                attn_parent=float(w @ S[:, -2]),
                attn_other_max=float(w @ np.delete(S, N - 2, axis=1).max(axis=1)),
                beta=beta, gamma=float(np.max(np.abs(V - beta * Pi.T))))


def train_empirical(K, p, N, M, eta, eps, iterations, seed, train_size=1000,
                    test_size=1000, resample=False):
    """Zero-init full-batch GD, unnormalized attention.  Tracks V, the
    token logits wtok = W12 p_N and u = W22 p_N instead of the dense blocks.
    Returns (metrics row of every iteration, final V)."""
    P = positional(M, N)
    pN = P[:, -1]
    phi = float(pN @ pN)
    Pi = transition(K, p)
    tr = walks(np.random.default_rng(seed), K, p, N, train_size)
    te = walks(np.random.default_rng(seed + 1), K, p, N, test_size)
    resample_rng = np.random.default_rng(seed + 3)
    V, wtok, u = np.zeros((K, K)), np.zeros(K), np.zeros(M)
    rows = []
    for _ in range(iterations):
        if resample:
            tr = walks(resample_rng, K, p, N, train_size)
        B = tr.shape[0]
        labels = tr[:, -1]
        S = _attention(tr, wtok, P.T @ u)
        q = np.zeros((B, N))
        q[:, :-1] = V[labels - 1][np.arange(B)[:, None], tr[:, :-1] - 1]
        f_y = np.einsum("bj,bj->b", S, q)
        loss = float(np.mean(-np.log(f_y + eps)))
        wl = -1.0 / (f_y + eps) / B
        d = S * (q - f_y[:, None])
        tok = (tr[:, :-1] - 1).ravel()
        gV = np.bincount(np.repeat(labels - 1, N - 1) * K + tok,
                         (wl[:, None] * S[:, :-1]).ravel(), minlength=K * K).reshape(K, K)
        a_vec = np.bincount(tok, (wl[:, None] * d[:, :-1]).ravel(), minlength=K)
        b_vec = P @ (wl[:, None] * d).sum(axis=0)
        V = V - eta * gV
        wtok = wtok - eta * phi * a_vec
        u = u - eta * phi * b_vec
        rows.append(metrics_row(V, wtok, P.T @ u, te, Pi, loss))
    return rows, V


def train_population(K, p, N, M, eta, eps, iterations):
    """Exact population GD at p in {0, 1}, N = rK + 1, zero init, on the
    four scalars of V = v 1 1^T, W12 = g 1 p_N^T,
    W22 = (a sum_{j<N} p_j + b p_N) p_N^T.  Returns (metrics row of every
    iteration, final V)."""
    r = (N - 1) // K
    P = positional(M, N)
    pN, psum = P[:, -1], P[:, :-1].sum(axis=1)
    phi = (M + 1) / 2.0
    Pi = transition(K, p)
    step = 1 if p == 1.0 else -1
    states = (np.arange(1, K + 1)[:, None] + step * np.arange(N)[None, :] - 1) % K + 1
    v = g = a = b = 0.0
    rows = []
    for _ in range(iterations):
        zb, zq = g * phi + a * phi**2, b * phi**2
        zmax = max(zb, zq)
        eb, eq = np.exp(zb - zmax), np.exp(zq - zmax)
        sig, sig_q = eb / ((N - 1) * eb + eq), eq / ((N - 1) * eb + eq)
        f_y = v * (N - 1) * sig
        loss = -float(np.log(f_y + eps))
        lp = -1.0 / (f_y + eps)
        dv = sig * (v - f_y)
        v, g, a, b = (v - eta * lp * sig * r / K, g - eta * lp * dv * r,
                      a - eta * lp * dv, b + eta * lp * sig_q * f_y)
        # logits of the materialized dense parameters, as the trainer evaluates them
        wtok = np.full(K, g * float(pN @ pN))
        zpos = P.T @ ((a * psum + b * pN) * float(pN @ pN))
        rows.append(metrics_row(np.full((K, K), v), wtok, zpos, states, Pi, loss))
    return rows, np.full((K, K), v)


def random_walk_verdicts(rows: list[dict], V: np.ndarray, p: float) -> dict:
    """The five items of the random-walk theory check, decided on the
    reference trajectory with the check's default thresholds.  Whether a
    seed passes depends on its sampled test set (the accuracy item has a
    0.03 tolerance against a ~0.016 sampling error), so the gate expects
    what the correct trajectory gives rather than an unconditional pass."""
    def verdict(ok):
        return "pass" if ok else "fail"

    t = np.arange(1, len(rows) + 1)
    col = {k: np.array([r[k] for r in rows]) for k in ROW_FIELDS}
    post, fit = t >= 3, t >= 8.0
    slope = np.polyfit(np.log(t[fit]), np.log(col["v_dist"][fit]), 1)[0]
    K = V.shape[0]
    allowed = ({1} if p >= 0.5 else set()) | ({K - 1} if p <= 0.5 else set())
    return {
        "accuracy": verdict(abs(col["accuracy"][-1] - max(p, 1 - p)) <= 0.03),
        "predictor_convergence": verdict(col["f_dist"][-1] <= 0.35 and
                                         np.all(np.diff(col["f_dist"][post]) < 1e-9)),
        "rate": verdict(-0.65 <= slope <= -0.35),
        "attention": verdict(col["attn_parent"][post].min() >= 0.99 and
                             col["attn_other_max"][post].max() <= 0.01),
        "band_argmax": verdict(all((int(np.argmax(V[:, j])) - j) % K in allowed
                                   for j in range(K))),
    }
