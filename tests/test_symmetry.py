"""The walk's symmetries, as study-scale tests of the batched path.

The circle walk is invariant under the rotation k -> k + 2 (mod K), and
the reflection k -> -k maps the p-walk to the (1-p)-walk: with R the
permutation matrix of the relabelling, R Pi(p) R^T is Pi(p) or Pi(1-p).
So `Batch.of`, `grad_batch`, `step` and `evaluate` on relabelled data,
from the relabelled init R V R^T, R wtok and the same zpos, must give
R V R^T, R wtok and the same zpos at every iteration, and the same
metrics; reordering the episodes must change nothing.  Only the order of
the K-term and B-term sums differs, so every field agrees within its
stated tolerance, and accuracy, a count, exactly.
"""

import numpy as np
import pytest

from circlewalk.gradients import Batch, FactoredParams, geometry, grad_batch
from circlewalk.markov import transition_matrix
from circlewalk.trainer import METRIC_FIELDS, TrainConfig, evaluate, init_factors, step
from circlewalk.walkgen import make_dataset

K, N, M, B = 6, 97, 1000, 1000
ITERATIONS = 8
# each field's bound on |got - want|, relative to the largest |want| of
# that field in that row (or parameter array).  An attention weight is the
# exp of a logit gap of up to ~1e3, so its relative error is the logits'
# absolute error, ~1e3 times theirs: up to 3.4e-12 in these runs, against
# 1.3e-14 for every other field
TOL = {name: 1e-12 for name in ("V", "wtok", "zpos") + METRIC_FIELDS[1:]}
TOL.update(attn_parent=1e-10, attn_other_max=1e-10)
ROTATE = (np.arange(K) + 2) % K
REFLECT = -np.arange(K) % K


def _relabel(fp: FactoredParams, sigma: np.ndarray) -> FactoredParams:
    """R V R^T, R wtok and zpos for the relabelling k -> sigma[k] (0-based)."""
    V, wtok = np.empty_like(fp.V), np.empty_like(fp.wtok)
    V[np.ix_(sigma, sigma)] = fp.V
    wtok[sigma] = fp.wtok
    return FactoredParams(V=V, wtok=wtok, zpos=fp.zpos)


def _run(fp, train_states, test_states, p, cfg):
    """The parameters after each step and the metrics rows t = 1..T."""
    geo = geometry(M, N, cfg.normalize_attention)
    batch, test = Batch.of(train_states), Batch.of(test_states, transition_matrix(K, p))
    params, rows = [fp], []
    for t in range(1, ITERATIONS + 1):
        bg = grad_batch(fp, batch, geo, cfg.eps)
        fp = step(fp, bg, cfg.eta, geo)
        params.append(fp)
        rows.append(evaluate(fp, test, geo, it=t, loss=bg.loss))
    return params, rows


def _assert_close(name, got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want)))
    assert err <= TOL[name] * float(np.max(np.abs(want))), (name, err, want)


def _assert_same_run(got, want, sigma):
    (got_params, got_rows), (want_params, want_rows) = got, want
    for g, w in zip(got_params, want_params):
        w = _relabel(w, sigma)
        for name in ("V", "wtok", "zpos"):
            _assert_close(name, getattr(g, name), getattr(w, name))
    for g, w in zip(got_rows, want_rows):
        assert g.accuracy == w.accuracy, (g.iter, g.accuracy, w.accuracy)
        for name in METRIC_FIELDS[1:]:
            if name != "accuracy":
                _assert_close(name, getattr(g, name), getattr(w, name))


@pytest.mark.parametrize("normalize", [False, True], ids=["plain", "normalized"])
@pytest.mark.parametrize("init", ["zero", "gaussian"])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_rotation_reflection_and_episode_order_leave_the_run_unchanged(p, init, normalize):
    cfg = TrainConfig(K=K, p=p, N=N, M=M, eta=1.0, eps=0.1, init=init,
                      sigma=0.01 if init == "gaussian" else 0.0, normalize_attention=normalize)
    fp = init_factors(cfg, geometry(M, N, normalize))
    train_states = make_dataset(cfg.walk_config(), B, seed=1)
    test_states = make_dataset(cfg.walk_config(), B, seed=2)
    base = _run(fp, train_states, test_states, p, cfg)
    for sigma, q in ((ROTATE, p), (REFLECT, 1.0 - p)):
        # the relabelled walk is the q-walk (1 - p rounds 1 - 0.3 up by one ulp)
        Pi = np.empty((K, K))
        Pi[np.ix_(sigma, sigma)] = transition_matrix(K, p).Pi
        np.testing.assert_allclose(Pi, transition_matrix(K, q).Pi, rtol=0, atol=1e-16)
        relabelled = _run(_relabel(fp, sigma), sigma[train_states - 1] + 1,
                          sigma[test_states - 1] + 1, q, cfg)
        _assert_same_run(relabelled, base, sigma)
    order = np.random.default_rng(3)
    reordered = _run(fp, train_states[order.permutation(B)], test_states[order.permutation(B)],
                     p, cfg)
    _assert_same_run(reordered, base, np.arange(K))
