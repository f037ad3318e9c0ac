"""Training loop, evaluation metrics, and the population runs."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from circlewalk import trainer
from circlewalk.gradients import Batch, FactoredParams, attention, geometry, grad_batch
from circlewalk.markov import transition_matrix
from circlewalk.model import (Params, dense_params, factor, forward, grad_example,
                              init_params, loss_value, tokens_from_states)
from circlewalk.posembed import build_positional
from circlewalk.trainer import (METRIC_FIELDS, TrainConfig, evaluate,
                                first_step_oracle_v, init_factors, step, train)
from circlewalk.walkgen import WalkConfig, enumerate_deterministic, make_dataset, qa_dataset

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
                dict(seed=True), dict(M=None), dict(eta="1"), dict(p=True)):
        with pytest.raises(TypeError):
            TrainConfig(**bad)
    # step sizes and the init scale must be finite, sigma non-negative
    for bad in (dict(eta=np.nan), dict(eta=np.inf), dict(eps=np.nan), dict(eps=np.inf),
                dict(sigma=np.nan), dict(sigma=np.inf), dict(sigma=-1.0),
                dict(init="gaussian", sigma=-np.inf)):
        with pytest.raises(ValueError, match="finite|sigma"):
            TrainConfig(**bad)
    # ints are real numbers, numpy scalars are accepted
    TrainConfig(p=1, eta=np.float64(0.5), K=np.int64(4), N=9, M=40)


def test_snapshot_schedule():
    cfg = TrainConfig(iterations=50, **{k: SMALL[k] for k in ("K", "p", "N", "M")})
    assert cfg.snapshot_schedule() == {0, 1, 2, 4, 8, 16, 32, 50}


def test_init_params_modes():
    cfg = TrainConfig(**SMALL)
    assert np.all(init_params(cfg).V == 0.0)
    gcfg = TrainConfig(init="gaussian", sigma=0.02, **SMALL)
    g = init_params(gcfg)
    assert 0.0 < np.std(g.W22) < 0.1
    # drawn with seed + 2, the trace's "init" seed; V is the first draw
    ref = np.random.default_rng(gcfg.seed + 2).standard_normal((4, 4))
    np.testing.assert_array_equal(g.V, gcfg.sigma * ref)


def test_train_is_reproducible():
    cfg = TrainConfig(iterations=5, eta=1.0, **SMALL)
    a, b = train(cfg), train(cfg)
    assert [r.as_tuple() for r in a.rows] == [r.as_tuple() for r in b.rows]
    np.testing.assert_array_equal(a.final_snapshot.V, b.final_snapshot.V)


def test_trace_rows_and_snapshots():
    cfg = TrainConfig(iterations=6, **SMALL)
    tr = train(cfg)
    assert [r.iter for r in tr.rows] == list(range(1, 7))
    assert set(tr.snapshots) == {0, 1, 2, 4, 6}
    assert len(tr.lprimes) == 6
    assert tr.config.seeds == {"train": 0, "test": 1, "init": 2}
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
    batch = Batch.of(states)
    P = build_positional(24, 8)
    params = Params.gaussian(5, 24, 0.1, np.random.default_rng(1))
    for normalize in (False, True):
        geo = geometry(24, 8, normalize)
        fp = factor(params, P, geo)
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
    P, geo = build_positional(40, 9), geometry(40, 9)
    params = Params.gaussian(4, 40, 0.1, np.random.default_rng(5))
    row = evaluate(factor(params, P, geo), Batch.of(states, transition_matrix(4, 0.5)), geo)
    assert 0.0 <= row.accuracy <= 1.0
    assert np.isfinite(row.kl) and row.kl >= 0.0
    assert np.isfinite(row.v_dist)
    assert 0.0 <= row.attn_parent <= 1.0
    # no transition matrix (QA): comparison metrics are NaN
    row_qa = evaluate(factor(params, P, geo), Batch.of(states), geo)
    assert np.isnan(row_qa.kl) and np.isnan(row_qa.v_dist)
    assert np.isfinite(row_qa.accuracy)


def _rows_of(test, f):
    """The block rows of outputs f (n, K, B) on a test batch, V random."""
    V = np.random.default_rng(1).standard_normal((len(f),) + f.shape[1:2] * 2)
    return trainer._block_rows(test, f.copy(), V, [(0, 0.0, 0.0, 0.0)] * len(f),
                               np.empty(f.shape))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_accuracy_is_the_argmax_count_with_ties_and_nans():
    # the count reads no argmax, yet is argmax's: the label must be the
    # first maximum of its column, and a NaN outranks every number.  Rows
    # with exact ties, +-inf, a NaN at, before or after the label, and -0.0
    test = trainer.make_test_batch(TrainConfig(K=5, p=0.5, N=7, M=40, test_size=400))
    rng = np.random.default_rng(2)
    f = np.round(rng.standard_normal((6, 5, 400)), 1)
    f[1] = np.round(f[1])  # many ties
    f[2, :, ::7] = 0.0
    f[2, 0, ::14] = -0.0
    f[3, rng.integers(0, 5, 60), rng.integers(0, 400, 60)] = np.nan
    f[4, :, ::3] = np.inf
    f[4, 1, ::5] = np.nan
    f[5] = np.where(rng.random((5, 400)) < 0.3, -np.inf, f[5])
    want = np.count_nonzero(f.argmax(axis=1) == test.y, axis=1) / 400
    assert [r.accuracy for r in _rows_of(test, f)] == want.tolist()


@pytest.mark.parametrize("p", [0.5, 1.0])
def test_kl_over_the_support_of_q_is_the_full_sum_bit_for_bit(p):
    # KL reads fm only where q > 0 (two tokens, or one at p = 1); the terms
    # over the other tokens are +0 and the rest add in increasing k, so each
    # row keeps the bits of the sum over all K tokens
    cfg = TrainConfig(K=6, p=p, N=97, M=1000, test_size=300,
                      grad_mode="empirical" if p < 1 else "population")
    test = trainer.make_test_batch(cfg)
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 6, len(test.y)))
    f[1] *= 1e-3
    f[2] = np.abs(f[2]) + 5.0
    fm = np.maximum(f, 0.0) + 1e-12
    fm /= fm.sum(axis=1, keepdims=True)
    terms = np.log(np.where(test.q > 0, test.q, 1.0) / fm) * test.q
    want = np.vecdot(terms.sum(axis=1), test.weights)
    assert np.array([r.kl for r in _rows_of(test, f)]).tobytes() == want.tobytes()


def test_first_step_oracle_matches_an_actual_step():
    # population mode, zero init, one iteration
    cfg = TrainConfig(K=4, p=1.0, N=9, M=40, eta=0.7, eps=0.1, iterations=1,
                      grad_mode="population")
    tr = train(cfg)
    V1 = tr.snapshots[1].V
    np.testing.assert_allclose(V1, first_step_oracle_v(cfg), atol=1e-14)
    dense = dense_params(tr, 1)
    np.testing.assert_array_equal(dense.W12, 0.0)
    np.testing.assert_array_equal(dense.W22, 0.0)


def test_first_step_oracle_random_walk_is_the_power_sum():
    cfg = TrainConfig(K=5, p=0.3, N=8, M=30, eta=1.0, eps=0.1)
    Pi = transition_matrix(5, 0.3).Pi
    expect = sum(np.linalg.matrix_power(Pi, k).T for k in range(1, 8))
    expect *= cfg.eta / (cfg.eps * 8 * 5)
    np.testing.assert_allclose(first_step_oracle_v(cfg), expect, atol=1e-13)


def test_population_run_matches_dense_gradients():
    # a zero-init population run must track plain dense GD on the
    # enumerated batch, every block averaged from `grad_example`, at every
    # snapshot (t = 1, 2, 4)
    P = build_positional(50, 13)
    for normalize in (False, True):
        cfg = TrainConfig(K=4, p=1.0, N=13, M=50, eta=10.0, eps=0.1, iterations=4,
                          grad_mode="population", normalize_attention=normalize)
        tr = train(cfg)
        dense = init_params(cfg)
        states = enumerate_deterministic(cfg.walk_config())
        tokens = tokens_from_states(states, 4)
        for t in range(1, 5):
            grads = [grad_example(dense, X, int(s[-1]), P, cfg.eps, normalize=normalize)
                     for X, s in zip(tokens, states)]
            dense = dataclasses.replace(dense, **{
                name: getattr(dense, name) - cfg.eta * np.mean(
                    [getattr(g, "g" + name) for g in grads], axis=0)
                for name in ("V", "W11", "W12", "W21", "W22")})
            if t not in tr.snapshots:
                continue
            got = dense_params(tr, t)
            for name in ("V", "W12", "W22"):
                np.testing.assert_allclose(getattr(got, name), getattr(dense, name),
                                           rtol=1e-9, atol=1e-12,
                                           err_msg=f"{name} at t={t}, normalize={normalize}")


# runs whose rows `test_iterations_never_read_p` rebuilds one by one, with
# `trainer._BLOCK_ELEMENTS` patched down to SMALL_BLOCK: at K = B = 6 and
# N = 13 a block then holds 6 iterations, so 2 L + 3 crosses two block
# boundaries and ends on a partial block; QA's V has 19^2 entries < M, and
# its blocks hold one iteration each
SMALL_BLOCK = 2 ** 9
ITERATION_RUNS = {
    "empirical": dict(K=4, p=0.5, N=13, iterations=4),
    "population": dict(K=4, p=1.0, N=13, iterations=4, grad_mode="population"),
    "population-blocks": dict(K=6, p=1.0, N=13, iterations=2 * (SMALL_BLOCK // 78) + 3,
                              eta=0.5, grad_mode="population"),
    "qa": dict(qa_task="task1", M=400, iterations=4),
    "no-iterations": dict(K=4, p=0.5, N=13, iterations=0),
}


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("run", sorted(ITERATION_RUNS))
def test_iterations_never_read_p(monkeypatch, run, normalize):
    # from the initial factors, grad_batch, step and evaluate run without p^_N,
    # hold no array of M entries, and reproduce the trainer's rows exactly,
    # whatever block of iterations the trainer computed a row in
    cfg = TrainConfig(**{"eta": 2.0, "M": 60, **ITERATION_RUNS[run]}, init="gaussian",
                      sigma=0.05, normalize_attention=normalize, train_size=16,
                      test_size=16)
    real, blocks = trainer._block_rows, []
    with monkeypatch.context() as patch:
        patch.setattr(trainer, "_BLOCK_ELEMENTS", SMALL_BLOCK)
        patch.setattr(trainer, "_block_rows",
                      lambda test, f, V, heads, work: blocks.append(len(heads))
                      or real(test, f, V, heads, work))
        tr = train(cfg)
    wc, B, T = cfg.walk_config(), len(trainer.make_test_batch(cfg).y), cfg.iterations
    L = max(1, SMALL_BLOCK // (wc.K * max(B, wc.N)))
    assert blocks == ([L] * (T // L) + [T % L] if T % L else [L] * (T // L)) if T else [1]
    if run == "population-blocks":
        assert blocks == [L, L, 3]
    geo = tr.geometry
    fp = tr.snapshots[0]
    free = dataclasses.replace(geo, pnh=None)
    test = trainer.make_test_batch(cfg)
    if cfg.grad_mode == "population":
        batch = test
    elif cfg.qa_task is not None:
        batch = Batch.of(qa_dataset(cfg.qa_task, 16, seed=cfg.seed))
    else:
        batch = Batch.of(make_dataset(wc, 16, seed=cfg.seed))
    rows = [evaluate(fp, test, free)]
    for t in range(1, cfg.iterations + 1):
        bg = grad_batch(fp, batch, free, cfg.eps)
        fp = step(fp, bg, cfg.eta, free)
        for arr in (*dataclasses.astuple(fp), bg.gV, bg.a, bg.D):
            assert arr.size < cfg.M, arr.shape
        rows.append(evaluate(fp, test, free, it=t, loss=bg.loss))
    want = np.array([r.as_tuple() for r in rows[min(cfg.iterations, 1):]])
    got = np.array([r.as_tuple() for r in tr.rows])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    nan_fields = [METRIC_FIELDS.index(n) for n in ("kl", "v_dist", "f_dist", "beta", "gamma")]
    assert np.isnan(got[:, nan_fields]).all() == (cfg.qa_task is not None)


def test_population_structure_is_exact():
    cfg = TrainConfig(K=4, p=0.0, N=13, M=50, eta=10.0, eps=0.1, iterations=20,
                      grad_mode="population")
    tr = train(cfg)
    for snap in tr.snapshots.values():
        assert snap.V.max() == snap.V.min()  # all-equal, bit-exact
    np.testing.assert_allclose(tr.series("accuracy"), 0.25, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_logits_raise():
    params = dataclasses.replace(Params.zeros(4, 40), W22=np.full((40, 40), np.inf))
    P, geo = build_positional(40, 9), geometry(40, 9)
    states = make_dataset(WalkConfig(K=4, p=0.5, N=9, M=40), 4, seed=0)
    with pytest.raises(FloatingPointError):
        grad_batch(factor(params, P, geo), Batch.of(states), geo, 0.1)


def test_log_loss_argument_outside_the_domain_raises():
    # Gaussian V puts a negative score f_y + eps on one of the three training
    # episodes at init: the dense oracle's loss_value rejects it, and so
    # must grad_batch, rather than record a NaN loss
    cfg = TrainConfig(K=2, p=0.5, N=6, M=15, eta=0.1, init="gaussian", sigma=0.05,
                      train_size=3, test_size=1, seed=24, iterations=1)
    wc = cfg.walk_config()
    P = build_positional(cfg.M, wc.N)
    params = init_params(cfg)
    states = make_dataset(wc, cfg.train_size, seed=cfg.seed)
    with pytest.raises(ValueError, match="log-loss argument must be positive"):
        for X, s in zip(tokens_from_states(states, wc.K), states):
            loss_value(forward(params, X, P).f, int(s[-1]), cfg.eps)
    with pytest.raises(ValueError, match="log-loss argument must be positive"):
        train(cfg)


@pytest.mark.parametrize("factor_name", ["a", "D"])
def test_non_finite_w_factor_raises(monkeypatch, factor_name):
    # the guard checks V, wtok (W12) and zpos (W22) right after the step,
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


@pytest.mark.parametrize("rows", [7, 64])
@pytest.mark.parametrize("fields", [
    dict(K=4, p=0.5, N=9, M=40), dict(K=5, p=0.3, N=16, M=64, normalize_attention=True),
    dict(K=3, p=1.0, N=7, M=30, grad_mode="population", seed=5)])
def test_gaussian_init_factors_are_the_dense_init_factored(monkeypatch, fields, rows):
    # W22_0 drawn `rows` rows at a time (a ragged last chunk at 7) is the
    # stream of one (M, M) draw, so the dense init is the same to the bit,
    # and the factors drawn block by block agree with `factor` of it to
    # rounding
    monkeypatch.setattr(trainer, "_W22_ROWS", rows)
    cfg = TrainConfig(**fields, init="gaussian", sigma=0.3)
    wc = cfg.walk_config()
    rng, dense = np.random.default_rng(cfg.seed + 2), init_params(cfg)
    for name, shape in (("V", (wc.K, wc.K)), ("W11", (wc.K, wc.K)), ("W12", (wc.K, cfg.M)),
                        ("W21", (cfg.M, wc.K)), ("W22", (cfg.M, cfg.M))):
        np.testing.assert_array_equal(getattr(dense, name), 0.3 * rng.standard_normal(shape),
                                      err_msg=name)
    geo = geometry(cfg.M, wc.N, cfg.normalize_attention)
    got = init_factors(cfg, geo)
    want = factor(init_params(cfg), build_positional(cfg.M, wc.N), geo)
    np.testing.assert_array_equal(got.V, want.V)
    for name in ("wtok", "zpos"):
        w = getattr(want, name)
        np.testing.assert_allclose(getattr(got, name), w, rtol=1e-12,
                                   atol=1e-12 * np.abs(w).max(), err_msg=name)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("init,sigma", [("zero", 0.0), ("gaussian", 0.3)])
def test_the_trained_state_is_v_wtok_and_zpos(init, sigma, normalize):
    # alpha and gamma are derived where a dense W is built, from the
    # trainer's own init factors, so t = 0 gives the dense init to the bit
    assert [f.name for f in dataclasses.fields(FactoredParams)] == ["V", "wtok", "zpos"]
    cfg = TrainConfig(**SMALL, iterations=0, init=init, sigma=sigma,
                      normalize_attention=normalize)
    got, want = dense_params(train(cfg), 0), init_params(cfg)
    for name in ("V", "W11", "W12", "W21", "W22"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


def test_zero_init_factors_are_exactly_zero():
    for cfg in (TrainConfig(**SMALL), TrainConfig(qa_task="task2", M=90),
                TrainConfig(K=4, p=1.0, N=13, M=50, grad_mode="population",
                            normalize_attention=True)):
        wc = cfg.walk_config()
        fp = init_factors(cfg, geometry(cfg.M, wc.N, cfg.normalize_attention))
        shapes = dict(V=(wc.K, wc.K), wtok=(wc.K,), zpos=(wc.N,))
        for name, shape in shapes.items():
            arr = getattr(fp, name)
            assert arr.shape == shape and np.all(arr == 0.0), name


@pytest.mark.parametrize("resample", [False, True])
def test_a_run_keeps_its_training_arrays_across_iterations(monkeypatch, resample):
    # at 1000 x 97 every grad_batch call sees the first call's states, cell
    # index and labels (a resampled training set is drawn into them), and
    # the memory still held at each call grows by less than one (B, N-1)
    # float64 array (768,000 bytes) from the second call to the last
    cfg = TrainConfig(K=6, p=0.5, N=97, M=1000, iterations=6, resample=resample)
    real, first, same, held = trainer.grad_batch, [], [], []

    def marked(fp, batch, *args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        arrays = (batch.states, batch.cell, batch.y)
        if not first:
            first.extend(arrays)
        same.append(all(a is b for a, b in zip(arrays, first)))
        return real(fp, batch, *args, **kwargs)

    monkeypatch.setattr(trainer, "grad_batch", marked)
    tracemalloc.start()
    try:
        train(cfg)
    finally:
        tracemalloc.stop()
    assert len(held) == cfg.iterations and all(same), same
    assert held[-1] - held[1] < 1000 * 96 * 8, held


@pytest.mark.parametrize("resample", [False, True])
def test_steady_state_iteration_allocates_less_than_a_cell_array(monkeypatch, resample):
    # at 1000 x 97 no iteration after the first, from one grad_batch call to
    # the next, has a new (B, N-1) float64 array (768,000 bytes) live at
    # once: the bincount weights and the position_sums gather write into
    # the training batch's work buffer, made in the first call, and the
    # block boundary at t = 10 stays below it too
    cfg = TrainConfig(K=6, p=0.5, N=97, M=1000, iterations=12, resample=resample)
    real, marks = trainer.grad_batch, []

    def marked(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "grad_batch", marked)
    tracemalloc.start()
    try:
        train(cfg)
    finally:
        tracemalloc.stop()
    growth = [peak - current for (current, _), (_, peak) in zip(marks, marks[1:])]
    assert len(growth) == cfg.iterations - 1
    assert max(growth[1:]) < 1000 * 96 * 8, growth


def test_iterations_between_block_boundaries_allocate_no_test_set_array(monkeypatch):
    # 1000 test episodes of N = 97 against 16 training ones: no iteration
    # that ends inside a block allocates B (N-1) = 96,000 bytes above what
    # it started with, so no array of as many elements, of any dtype; the
    # test set's attention waits for the block boundary
    cfg = TrainConfig(K=6, p=0.5, N=97, M=1000, iterations=25, train_size=16)
    real_grad, real_rows = trainer.grad_batch, trainer._block_rows
    starts, excess, boundaries = [], [], []

    def marked(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if starts:
            excess.append(peak - starts[-1])
        starts.append(current)
        tracemalloc.reset_peak()
        return real_grad(*args, **kwargs)

    def rows(*args):
        boundaries.append(len(starts))
        return real_rows(*args)

    monkeypatch.setattr(trainer, "grad_batch", marked)
    monkeypatch.setattr(trainer, "_block_rows", rows)
    tracemalloc.start()
    try:
        train(cfg)
    finally:
        tracemalloc.stop()
    L = trainer._BLOCK_ELEMENTS // (6 * 1000)
    assert boundaries == [L, 2 * L, cfg.iterations]
    inside = [x for t, x in enumerate(excess, start=1) if t not in boundaries]
    assert len(inside) == cfg.iterations - 1 - 2 and max(inside) < 1000 * 96, excess


def test_a_body_of_one_position_trains():
    # at N = 2 the parent is the whole body, so attn_other_max is the
    # query's weight alone and the two fields split the softmax
    for T in (0, 3):
        tr = train(TrainConfig(K=3, p=0.5, N=2, M=4, iterations=T, train_size=5, test_size=5))
        for r in tr.rows:
            assert r.attn_parent + r.attn_other_max == pytest.approx(1.0, abs=1e-15)
