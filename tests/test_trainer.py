"""Training loop, evaluation metrics, and the population runs."""

import dataclasses

import numpy as np
import pytest

from circlewalk import trainer
from circlewalk.gradients import (Batch, attention, factor, geometry, grad_batch,
                                  grad_example)
from circlewalk.markov import transition_matrix
from circlewalk.model import Params, forward, loss_value
from circlewalk.posembed import build_positional
from circlewalk.trainer import (METRIC_FIELDS, TrainConfig, evaluate,
                                first_step_oracle_v, init_params, step, train)
from circlewalk.walkgen import (WalkConfig, enumerate_deterministic,
                                make_dataset, tokens_from_states)

# small geometry for fast loops
SMALL = dict(K=4, p=0.5, N=9, M=40, train_size=64, test_size=64)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(init="xavier")
    with pytest.raises(ValueError):
        TrainConfig(grad_mode="sgd")
    with pytest.raises(ValueError):
        TrainConfig(qa_task="task9")
    with pytest.raises(ValueError):  # population needs p in {0,1}, N = rK+1
        TrainConfig(p=0.5, grad_mode="population")
    with pytest.raises(ValueError):
        TrainConfig(p=1.0, N=96, grad_mode="population")
    with pytest.raises(ValueError):
        TrainConfig(train_size=0)
    with pytest.raises(ValueError):
        TrainConfig(test_size=0)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    # ranges of the walk geometry, whatever the gradient mode
    for bad in (dict(p=1.5), dict(p=-0.1), dict(K=1), dict(N=1), dict(N=9, M=5)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # resampling applies to empirical walk training only
    with pytest.raises(ValueError, match="resample"):
        TrainConfig(p=1.0, N=97, grad_mode="population", resample=True)
    with pytest.raises(ValueError, match="resample"):
        TrainConfig(qa_task="task1", resample=True)
    # types: a JSON "no" is not a bool, 2.5 is not an iteration count
    for bad in (dict(resample="no"), dict(normalize_attention=1),
                dict(iterations=2.5), dict(K=4.5), dict(train_size=8.5),
                dict(seed=True), dict(M=None), dict(eta="1"), dict(p=True),
                dict(snapshot_iters=(1.5,))):
        with pytest.raises(TypeError):
            TrainConfig(**bad)
    # ints are real numbers, numpy scalars are accepted
    TrainConfig(p=1, eta=np.float64(0.5), K=np.int64(4), N=9, M=40)


def test_snapshot_schedule():
    cfg = TrainConfig(iterations=50, **{k: SMALL[k] for k in ("K", "p", "N", "M")})
    assert cfg.snapshot_schedule() == {0, 1, 2, 4, 8, 16, 32, 50}
    pinned = TrainConfig(iterations=10, snapshot_iters=(3, 7),
                         **{k: SMALL[k] for k in ("K", "p", "N", "M")})
    assert pinned.snapshot_schedule() == {0, 3, 7, 10}


def test_init_params_modes():
    cfg = TrainConfig(**SMALL)
    assert np.all(init_params(cfg).V == 0.0)
    g = init_params(TrainConfig(init="gaussian", sigma=0.02, **SMALL))
    assert g.init == "gaussian"
    assert 0.0 < np.std(g.W22) < 0.1


def test_train_is_reproducible():
    cfg = TrainConfig(iterations=5, eta=1.0, **SMALL)
    a, b = train(cfg), train(cfg)
    assert [r.as_tuple() for r in a.rows] == [r.as_tuple() for r in b.rows]
    np.testing.assert_array_equal(a.final_params.V, b.final_params.V)


def test_trace_rows_and_snapshots():
    cfg = TrainConfig(iterations=6, **SMALL)
    tr = train(cfg)
    assert [r.iter for r in tr.rows] == list(range(1, 7))
    assert set(tr.snapshots) == {0, 1, 2, 4, 6}
    assert len(tr.lprimes) == 6
    assert tr.seeds == {"train": 0, "test": 1, "init": 2}
    assert METRIC_FIELDS[0] == "iter"


def test_zero_iterations_gives_one_initial_row():
    tr = train(TrainConfig(iterations=0, **SMALL))
    assert len(tr.rows) == 1 and tr.rows[0].iter == 0
    assert set(tr.snapshots) == {0}


def test_resample_changes_the_trajectory():
    base = dict(iterations=4, eta=1.0, **SMALL)
    fixed = train(TrainConfig(**base))
    fresh = train(TrainConfig(resample=True, **base))
    assert fixed.rows[-1].loss != fresh.rows[-1].loss


def test_batch_forward_matches_forward():
    # the batched path (attention weights, evaluate's predictions) against
    # the dense per-episode model
    cfg = WalkConfig(K=5, p=0.6, N=8, M=24)
    states = make_dataset(cfg, 10, seed=2)
    batch = Batch.of(states, 5)
    P = build_positional(24, 8)
    params = Params.gaussian(5, 24, 0.1, np.random.default_rng(1))
    for normalize in (False, True):
        geo = geometry(P, normalize)
        fp = factor(params, geo)
        S = attention(fp, batch, geo)
        outs = [forward(params, X, P, normalize=normalize)
                for X in tokens_from_states(states, 5)]
        for i, out in enumerate(outs):
            np.testing.assert_allclose(S[i], out.S, atol=1e-13)
        row = evaluate(fp, batch, geo)
        pred = np.array([out.pred for out in outs])
        assert row.accuracy == pytest.approx(np.mean(pred == states[:, -1]))
        assert row.attn_parent == pytest.approx(np.mean([o.S[-2] for o in outs]))


def test_evaluate_fields():
    cfg = WalkConfig(K=4, p=0.5, N=9, M=40)
    states = make_dataset(cfg, 32, seed=0)
    geo = geometry(build_positional(40, 9))
    params = Params.gaussian(4, 40, 0.1, np.random.default_rng(5))
    row = evaluate(factor(params, geo), Batch.of(states, 4, transition_matrix(4, 0.5)), geo)
    assert 0.0 <= row.accuracy <= 1.0
    assert np.isfinite(row.kl) and row.kl >= 0.0
    assert np.isfinite(row.v_dist)
    assert 0.0 <= row.attn_parent <= 1.0
    # no transition matrix (QA): comparison metrics are NaN
    row_qa = evaluate(factor(params, geo), Batch.of(states, 4), geo)
    assert np.isnan(row_qa.kl) and np.isnan(row_qa.v_dist)
    assert np.isfinite(row_qa.accuracy)


def test_first_step_oracle_matches_an_actual_step():
    # population mode, zero init, one iteration
    cfg = TrainConfig(K=4, p=1.0, N=9, M=40, eta=0.7, eps=0.1, iterations=1,
                      grad_mode="population")
    tr = train(cfg)
    V1 = tr.snapshots[1].V
    np.testing.assert_allclose(V1, first_step_oracle_v(cfg), atol=1e-14)
    dense = tr.params(1)
    np.testing.assert_array_equal(dense.W12, 0.0)
    np.testing.assert_array_equal(dense.W22, 0.0)


def test_first_step_oracle_random_walk_is_the_power_sum():
    from circlewalk.markov import matrix_power, transition_matrix
    cfg = TrainConfig(K=5, p=0.3, N=8, M=30, eta=1.0, eps=0.1)
    tm = transition_matrix(5, 0.3)
    expect = sum(matrix_power(tm, k).T for k in range(1, 8))
    expect *= cfg.eta / (cfg.eps * 8 * 5)
    np.testing.assert_allclose(first_step_oracle_v(cfg), expect, atol=1e-13)


def test_population_run_matches_dense_gradients():
    # a zero-init population run must track plain dense GD on the
    # enumerated batch, every block averaged from `grad_example`
    P = build_positional(50, 13)
    for normalize in (False, True):
        cfg = TrainConfig(K=4, p=1.0, N=13, M=50, eta=10.0, eps=0.1, iterations=4,
                          grad_mode="population", normalize_attention=normalize,
                          snapshot_iters=(1, 2, 3))
        tr = train(cfg)
        dense = init_params(cfg)
        states = enumerate_deterministic(cfg.walk_config())
        tokens = tokens_from_states(states, 4)
        for t in range(1, 5):
            grads = [grad_example(dense, X, int(s[-1]), P, cfg.eps, normalize=normalize)
                     for X, s in zip(tokens, states)]
            dense = dense.with_updates(**{
                name: getattr(dense, name) - cfg.eta * np.mean(
                    [getattr(g, "g" + name) for g in grads], axis=0)
                for name in ("V", "W11", "W12", "W21", "W22")})
            got = tr.params(t)
            for name in ("V", "W12", "W22"):
                np.testing.assert_allclose(getattr(got, name), getattr(dense, name),
                                           rtol=1e-9, atol=1e-12,
                                           err_msg=f"{name} at t={t}, normalize={normalize}")


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("grad_mode", ["empirical", "population"])
def test_iterations_never_read_p(grad_mode, normalize):
    # after `factor`, grad_batch, step and evaluate run without P or p^_N,
    # hold no array of M entries, and reproduce the trainer's rows exactly
    p = 1.0 if grad_mode == "population" else 0.5
    cfg = TrainConfig(K=4, p=p, N=13, M=60, iterations=4, eta=2.0, init="gaussian",
                      sigma=0.05, grad_mode=grad_mode, normalize_attention=normalize,
                      train_size=16, test_size=16)
    tr = train(cfg)
    geo = tr.geometry
    fp = factor(tr.init, geo)
    free = dataclasses.replace(geo, P=None, pnh=None)
    if grad_mode == "population":
        tr_states = te_states = enumerate_deterministic(cfg.walk_config())
    else:
        tr_states = make_dataset(cfg.walk_config(), 16, seed=cfg.seed)
        te_states = make_dataset(cfg.walk_config(), 16, seed=cfg.seed + 1)
    test, batch = Batch.of(te_states, 4, transition_matrix(4, p)), Batch.of(tr_states, 4)
    for t in range(1, 5):
        bg = grad_batch(fp, batch, free, cfg.eps)
        fp = step(fp, bg, cfg.eta, free)
        for arr in (*dataclasses.astuple(fp), bg.gV, bg.a, bg.D):
            assert arr.size < cfg.M, arr.shape
        assert evaluate(fp, test, free, it=t, loss=bg.loss).as_tuple() == tr.rows[t - 1].as_tuple()


def test_population_structure_is_exact():
    cfg = TrainConfig(K=4, p=0.0, N=13, M=50, eta=10.0, eps=0.1, iterations=20,
                      grad_mode="population")
    tr = train(cfg)
    for snap in tr.snapshots.values():
        assert snap.V.max() == snap.V.min()  # all-equal, bit-exact
    np.testing.assert_allclose(tr.series("accuracy"), 0.25, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_logits_raise():
    params = Params.zeros(4, 40).with_updates(W22=np.full((40, 40), np.inf))
    geo = geometry(build_positional(40, 9))
    states = make_dataset(WalkConfig(K=4, p=0.5, N=9, M=40), 4, seed=0)
    with pytest.raises(FloatingPointError):
        grad_batch(factor(params, geo), Batch.of(states, 4), geo, 0.1)


def test_log_loss_argument_outside_the_domain_raises():
    # Gaussian V puts a negative score f_y + eps on one of the three training
    # episodes at init: the dense oracle's loss_value rejects it, and so
    # must grad_batch, rather than record a NaN loss
    cfg = TrainConfig(K=2, p=0.5, N=6, M=15, eta=0.1, init="gaussian", sigma=0.05,
                      train_size=3, test_size=1, seed=24, iterations=1)
    wc = cfg.walk_config()
    P = build_positional(cfg.M, wc.N)
    params = init_params(cfg, rng=np.random.default_rng(cfg.seed + 2))
    states = make_dataset(wc, cfg.train_size, seed=cfg.seed)
    with pytest.raises(ValueError, match="log-loss argument must be positive"):
        for X, s in zip(tokens_from_states(states, wc.K), states):
            loss_value(forward(params, X, P).f, int(s[-1]), cfg.eps)
    with pytest.raises(ValueError, match="log-loss argument must be positive"):
        train(cfg)


@pytest.mark.parametrize("factor_name", ["a", "D"])
def test_non_finite_w_factor_raises(monkeypatch, factor_name):
    # the guard checks V, alpha (W12) and gamma (W22) right after the step,
    # before the non-finite logits could surface in evaluate
    real = trainer.grad_batch

    def poisoned(*args, **kwargs):
        bg = real(*args, **kwargs)
        bad = np.full_like(getattr(bg, factor_name), np.inf)
        return dataclasses.replace(bg, **{factor_name: bad})

    monkeypatch.setattr(trainer, "grad_batch", poisoned)
    with pytest.raises(FloatingPointError, match="non-finite parameters at iteration 1"):
        train(TrainConfig(iterations=2, **SMALL))


def test_qa_training_runs():
    cfg = TrainConfig(qa_task="task1", M=80, eta=0.1, eps=0.1, iterations=3,
                      init="gaussian", sigma=0.01, normalize_attention=True,
                      train_size=50, test_size=50)
    tr = train(cfg)
    assert len(tr.rows) == 3
    assert np.isnan(tr.rows[-1].v_dist)  # no transition matrix for QA
