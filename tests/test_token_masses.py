"""The token-mass path (`attention`, `grad_batch`, `evaluate`) against the
dense per-episode oracle (`forward`, `grad_example`) where logits are
extreme, tokens are missing, and columns are or are not normalized."""

import dataclasses

import numpy as np
import pytest

from circlewalk import gradients, trainer
from circlewalk.cli import RECIPES
from circlewalk.gradients import (Batch, FactoredParams, attention, geometry, grad_batch,
                                  stacked_masses, token_masses, usual_form)
from circlewalk.markov import decompose_v, transition_matrix
from circlewalk.model import (Params, dense_params, factor, forward, grad_example,
                              tokens_from_states)
from circlewalk.posembed import build_positional
from circlewalk.trainer import TrainConfig, evaluate, train
from circlewalk.walkgen import QA_K, QA_N, TASK1, WalkConfig, make_dataset, qa_dataset

EPS = 0.1
K, N, M = 4, 9, 40


def _planted(t, zpos, normalize, rng, K=K, N=N, M=M):
    """Dense parameters whose token logits are t (K) and positional logits
    zpos (N): W12 = w p^_N^T / |p^_N|^2 and W22 = v p^_N^T / |p^_N|^2 with
    w = t c_body and P^T v = zpos * c (P has orthogonal columns)."""
    P = build_positional(M, N)
    geo = geometry(M, N, normalize)
    pnh = geo.pnh / (geo.pnh @ geo.pnh)
    v = P @ (np.asarray(zpos) * geo.c) / ((M + 1) / 2)
    return P, dataclasses.replace(
        Params.gaussian(K, M, 0.3, rng),
        V=rng.uniform(0.1, 1.0, (K, K)),  # f_y + eps > 0
        W12=np.outer(np.asarray(t) * geo.c[0], pnh), W22=np.outer(v, pnh))


def _oracle(params, states, P, normalize, Pi):
    """Per-episode dense forward passes and gradients, averaged."""
    outs = [forward(params, X, P, normalize=normalize)
            for X in tokens_from_states(states, params.K)]
    grads = [grad_example(params, X, int(s[-1]), P, EPS, normalize=normalize)
             for X, s in zip(tokens_from_states(states, params.K), states)]
    f = np.array([o.f for o in outs])
    S = np.array([o.S for o in outs])
    y = states[:, -1] - 1
    f_y = f[np.arange(len(states)), y]
    exp = dict(
        S=S, f=f, gV=np.mean([g.gV for g in grads], axis=0),
        gW12=np.mean([g.gW12 for g in grads], axis=0),
        gW22=np.mean([g.gW22 for g in grads], axis=0),
        loss=np.mean(-np.log(f_y + EPS)), lprimes=-1.0 / (f_y + EPS),
        accuracy=np.mean(np.array([o.pred for o in outs]) == states[:, -1]),
        attn_parent=np.mean(S[:, -2]),
        attn_other_max=np.mean(np.maximum(S[:, :-2].max(axis=1), S[:, -1])))
    if Pi is not None:
        q = Pi[states[:, -2] - 1]
        fm = np.clip(f, 0.0, None) + 1e-12
        fm = fm / fm.sum(axis=1, keepdims=True)
        terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0) / fm), 0.0)
        exp["kl"] = np.mean(terms.sum(axis=1))
        # each norm of f and V after scaling by its max-abs: at eta 1e300 the
        # squares of the raw entries overflow
        fs = f / np.abs(f).max(axis=1, keepdims=True)
        exp["f_dist"] = np.mean(np.linalg.norm(
            fs / np.linalg.norm(fs, axis=1, keepdims=True) - q, axis=1))
        Vs = params.V / np.abs(params.V).max()
        exp["v_dist"] = np.linalg.norm(Vs / np.linalg.norm(Vs) - Pi.T / np.linalg.norm(Pi))
        exp["beta"], exp["gamma"] = decompose_v(params.V, Pi)
    return exp


def _assert_matches_oracle(params, states, P, normalize, Pi=None,
                           rtol=1e-9, atol=1e-12):
    geo = geometry(*P.shape, normalize)
    fp = factor(params, P, geo)
    exp = _oracle(params, states, P, normalize, Pi)
    tm = None if Pi is None else transition_matrix(params.K, 0.5)
    batch = Batch.of(states, tm)
    np.testing.assert_allclose(attention(fp, batch, geo), exp["S"], rtol=rtol, atol=atol)

    bg = grad_batch(fp, batch, geo, EPS)
    # per-block scale: gradients that are rounding noise around 0 compare
    # against the block's own magnitude
    for got, want in ((bg.gV, exp["gV"]), (np.outer(bg.a, geo.pnh), exp["gW12"]),
                      (np.outer(P @ bg.D, geo.pnh), exp["gW22"])):
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=atol + rtol * np.max(np.abs(want)))
    np.testing.assert_allclose(bg.loss, exp["loss"], rtol=rtol, atol=atol)
    np.testing.assert_allclose(bg.lprime_mean, np.mean(exp["lprimes"]), rtol=rtol, atol=atol)

    row = evaluate(fp, batch, geo)
    assert row.accuracy == exp["accuracy"]
    fields = ["attn_parent", "attn_other_max"]
    if Pi is not None:
        fields += ["kl", "f_dist", "v_dist", "beta", "gamma"]
    for name in fields:
        np.testing.assert_allclose(getattr(row, name), exp[name], rtol=rtol, atol=atol,
                                   err_msg=name)
    return token_masses(fp, batch, geo)


@pytest.mark.parametrize("normalize", [False, True])
def test_positional_spread_beyond_the_exp_range(normalize):
    # positional logits fall by 250 per position, 2000 in all: most e_j
    # underflow, and the token logits are too close to bring them back
    rng = np.random.default_rng(0)
    zpos = -250.0 * np.arange(N)[::-1]
    P, params = _planted(rng.uniform(-3, 3, K), zpos, normalize, rng)
    states = make_dataset(WalkConfig(K=K, p=0.5, N=N, M=M), 12, seed=1)
    m = _assert_matches_oracle(params, states, P, normalize,
                               transition_matrix(K, 0.5).Pi)
    assert m.S is None  # the token-mass form holds


@pytest.mark.parametrize("normalize", [False, True])
def test_query_logit_far_above_the_body(normalize):
    # the query outweighs every body position by more than exp's range,
    # so the softmax is one-hot on it and the row shift must come from it
    rng = np.random.default_rng(3)
    zpos = rng.uniform(-2, 2, N)
    zpos[-1] = 900.0
    P, params = _planted(rng.uniform(-3, 3, K), zpos, normalize, rng)
    states = make_dataset(WalkConfig(K=K, p=0.5, N=N, M=M), 6, seed=2)
    m = _assert_matches_oracle(params, states, P, normalize)
    np.testing.assert_array_equal(m.sN, 1.0)


@pytest.mark.parametrize("normalize", [False, True])
def test_token_spread_that_outweighs_underflowed_positions(normalize):
    # token 1 outweighs the others by 1500, more than the 800 gap to the
    # positions where it sits, so the positional weights alone underflow
    # where the softmax puts its mass: the dense softmax takes over
    rng = np.random.default_rng(1)
    states = np.array([[2, 3, 1, 2, 3, 4, 2, 3, 4], [1, 2, 3, 4, 1, 2, 3, 4, 1]])
    zpos = np.where(states[0] == 1, -800.0, 0.0)
    zpos[-1] = -5.0
    P, params = _planted([1500.0, 0.0, 1.0, -2.0], zpos, normalize, rng)
    m = _assert_matches_oracle(params, states, P, normalize)
    assert m.S is not None
    np.testing.assert_allclose(m.xs[0, 0], 1.0)  # all of episode 0's weight on token 1


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("inside", [True, False])
@pytest.mark.parametrize("clause", ["token", "row"])
def test_linear_masses_at_the_edges_of_the_usual_form(clause, inside, normalize):
    # the linear form needs every a_k = exp(t_k - T) and the least a row's
    # largest term can be to be normal doubles (exp(-708.4) is the least).
    # "token": one token logit 707 or 709 below the top.  "row": the query
    # 650 or 690 above the body and token logits 750-800, so with T = 800
    # a row of the lowest token peaks near exp(-700) or exp(-740).  Just
    # inside the masses stay linear, just outside the dense softmax takes
    # over, and both match the dense oracle
    rng = np.random.default_rng(4)
    zpos = rng.uniform(-2, 2, N)
    if clause == "token":
        t = [2.0, 1.0, 0.0, 2.0 - (707.0 if inside else 709.0)]
    else:
        t = [800.0, 750.0, 760.0, 770.0]
        zpos[:-1] -= 640.0 if inside else 680.0
        zpos[-1] = 10.0
    P, params = _planted(t, zpos, normalize, rng)
    states = make_dataset(WalkConfig(K=K, p=0.5, N=N, M=M), 12, seed=1)
    geo = geometry(M, N, normalize)
    assert usual_form(factor(params, P, geo), geo) == inside
    m = _assert_matches_oracle(params, states, P, normalize, transition_matrix(K, 0.5).Pi)
    assert (m.S is None) == inside


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("eta", [1e3, 1e300])
def test_trained_with_huge_step_sizes(eta, normalize):
    # two steps at eta 1e3 or 1e300 leave token logits that spread by
    # more than eta / 1000 and positional logits that spread 50x more:
    # without normalization a softmax that is one-hot up to rounding; at
    # 1e300, |V| and |f| are beyond the range where their squares fit
    cfg = TrainConfig(K=K, p=0.5, N=N, M=M, eta=eta, iterations=2, train_size=16,
                      test_size=16, normalize_attention=normalize, seed=3)
    trace = train(cfg)
    params = dense_params(trace, 2)
    geo = trace.geometry
    wtok = params.W12 @ geo.pnh / geo.c[0]
    assert np.ptp(wtok) > eta / 1000 and np.all(np.isfinite(wtok))
    states = make_dataset(cfg.walk_config(), 16, seed=cfg.seed + 1)
    _assert_matches_oracle(params, states, build_positional(M, N), normalize,
                           transition_matrix(K, 0.5).Pi)


def _underflows(fp):
    """Whether some body e_j = exp(zpos_j - max zpos) is below a normal double."""
    return bool(fp.zpos.max() - fp.zpos[:-1].min() > gradients._EXP_NORMAL)


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("eta", [3e2, 1e3, 1e300])
def test_rows_at_huge_step_sizes_are_the_per_step_rows(monkeypatch, eta, normalize):
    # the settings above, for six iterations in blocks of four: at 1e3
    # without normalization (and at 1e300 with it) t = 1 is in the usual
    # form and later iterates take the dense one, so a block mixes stacked
    # and dense iterates; at 3e2 without normalization most body weights
    # underflow from t = 2 while the clause holds, so every iterate is
    # stacked.  Each row is still evaluate's bit for bit
    monkeypatch.setattr(trainer, "_BLOCK_ELEMENTS", 4 * K * 16)
    cfg = TrainConfig(K=K, p=0.5, N=N, M=M, eta=eta, iterations=6, train_size=16,
                      test_size=16, normalize_attention=normalize, seed=3)
    trace = train(cfg)
    geo, test = trace.geometry, trainer.make_test_batch(cfg)
    batch = Batch.of(make_dataset(cfg.walk_config(), 16, seed=cfg.seed))
    fp, want, usual, under = trace.snapshots[0], [], [], []
    for t in range(1, cfg.iterations + 1):
        bg = grad_batch(fp, batch, geo, cfg.eps)
        fp = trainer.step(fp, bg, cfg.eta, geo)
        usual.append(usual_form(fp, geo))
        under.append(_underflows(fp))
        want.append(evaluate(fp, test, geo, it=t, loss=bg.loss).as_tuple())
    got = np.array([r.as_tuple() for r in trace.rows])
    assert got.tobytes() == np.array(want).tobytes()
    if eta == 3e2 and not normalize:
        assert usual == [True] * 6 and under == [False] + [True] * 5
    elif eta == 1e300 or not normalize:
        assert usual == [True] + [False] * 5


def _old_fields(test, m):
    """attn_parent and attn_other_max as read from the (B, N-1) body, in
    the linear form S_bj = a[s_bj] e_j / Z_b; the parent column is summed
    contiguous, as a row of the stacked path is."""
    body = m.S[:, :-1] if m.S is not None else m.a[test.states[:, :-1] - 1] * m.e / m.Z[:, None]
    return (float(test.weights @ np.ascontiguousarray(body[:, -1])),
            float(test.weights @ np.maximum(body[:, :-1].max(axis=1), m.sN)))


# four recipes, and fig4 at eta 30, whose body weights mostly underflow
# from t = 2 while the linear form's clause holds
_RUNS = {**{name: RECIPES[name] for name in ("fig4-zero-init-p05", "fig5-zero-init-p1",
                                             "fig6-random-init-p05", "fig7-task1")},
         "fig4-eta30": {**RECIPES["fig4-zero-init-p05"], "eta": 30.0}}


@pytest.mark.parametrize("recipe", list(_RUNS))
def test_stacked_masses_are_token_masses_bit_for_bit(monkeypatch, recipe):
    # G (gemm per token against bincount), xs, sN and both attention fields
    # of the block path against token_masses and the formulas over the
    # whole body, at every snapshot of a study-scale run (fig5: a population
    # run, B = 6), stacked one, two, one `_fields` chunk and L at a time.
    # This pins the BLAS summation order of both G and attn_parent's dot
    cfg = TrainConfig(**_RUNS[recipe])
    trace = train(cfg)
    geo, test = trace.geometry, trainer.make_test_batch(cfg)
    wc, B = cfg.walk_config(), len(test.y)
    L = trainer._BLOCK_ELEMENTS // (wc.K * max(B, wc.N))
    block = trainer._Block(test, geo, wc.K, L)
    sums, real = [], gradients._from_sums
    monkeypatch.setattr(gradients, "_from_sums",
                        lambda G, *args: sums.append(G.copy()) or real(G, *args))
    fps = [trace.snapshots[t] for t in sorted(trace.snapshots)]
    assert all(usual_form(fp, geo) for fp in fps)
    assert [_underflows(fp) for fp in fps][2:] == [recipe == "fig4-eta30"] * (len(fps) - 2)
    want = []
    for fp in fps:
        m = token_masses(fp, test, geo)
        want.append((sums.pop(), m.xs, m.sN, _old_fields(test, m)))
    for n in (1, 2, block.chunk, L):
        for start in range(0, len(fps), n):
            run = fps[start:start + n]
            m = stacked_masses(np.array([fp.wtok for fp in run]), np.array([fp.zpos for fp in run]),
                               block.tokens, geo, block.onehot, block.xs)
            G, fields = sums.pop(), block._fields(m)
            assert len(G) == len(fields) == len(run)
            for i in range(len(run)):
                G_i, xs, sN, old = want[start + i]
                assert G[i].tobytes() == G_i.tobytes(), (n, start + i)
                assert m.xs[i].tobytes() == xs.tobytes() and m.sN[i].tobytes() == sN.tobytes()
                assert fields[i] == old, (n, start + i)


@pytest.mark.parametrize("normalize", [False, True])
def test_tokens_absent_from_the_batch(normalize):
    # one QA question uses 13 of the 19 words; the others get huge token
    # logits, which fail the linear form's clause and must not reach the
    # dense softmax, also when a position lies beyond the exp range
    rng = np.random.default_rng(2)
    states = qa_dataset(TASK1, 1, seed=4)
    n = QA_N[TASK1]
    absent = np.setdiff1d(np.arange(1, QA_K + 1), states[0, :-1]) - 1
    assert absent.size > 0
    t = rng.uniform(-1, 1, QA_K)
    t[absent] = 1e300
    zpos = rng.uniform(-2, 2, n)
    zpos[0] = -1000.0
    P, params = _planted(t, zpos, normalize, rng, K=QA_K, N=n, M=80)
    m = _assert_matches_oracle(params, states, P, normalize)
    assert m.S is not None
    np.testing.assert_array_equal(m.xs[absent], 0.0)
    # not even non-finite logits of absent tokens reach it
    geo = geometry(*P.shape, normalize)
    fp = factor(params, P, geo)
    batch = Batch.of(states)
    for bad in (np.inf, np.nan):
        wtok = fp.wtok.copy()
        wtok[absent] = bad
        np.testing.assert_array_equal(
            attention(dataclasses.replace(fp, wtok=wtok), batch, geo),
            attention(fp, batch, geo))


@pytest.mark.parametrize("where, bad", [("body", -np.inf), ("body", np.nan), ("query", np.inf),
                                        ("query", -np.inf), ("token", np.inf), ("token", np.nan)])
def test_non_finite_logits_take_the_dense_form_and_raise(where, bad):
    # a non-finite logit of a position or of a present token fails the
    # linear form's clause, and the dense form raises on it: a -inf body
    # logit would otherwise only zero its e_j
    rng = np.random.default_rng(6)
    batch = Batch.of(make_dataset(WalkConfig(K=K, p=0.5, N=N, M=M), 12, seed=1))
    assert (batch.states[:, :-1] == 1).any()
    geo = geometry(M, N)
    fp = FactoredParams(V=rng.uniform(0.1, 1.0, (K, K)), wtok=rng.standard_normal(K),
                        zpos=rng.standard_normal(N))
    name, i = {"body": ("zpos", 3), "query": ("zpos", -1), "token": ("wtok", 0)}[where]
    x = getattr(fp, name).copy()
    x[i] = bad
    fp = dataclasses.replace(fp, **{name: x})
    assert not usual_form(fp, geo)
    with pytest.raises(FloatingPointError, match="non-finite attention logits"):
        token_masses(fp, batch, geo)


@pytest.mark.parametrize("kind", ["walk", "qa"])
def test_batch_index_matches_its_formulas(kind):
    # cell[b, j] = (s_bj - 1) B + b and y_b = s_bN - 1
    if kind == "walk":
        states = make_dataset(WalkConfig(K=11, p=0.5, N=4, M=8), 5, seed=3)
    else:
        states = qa_dataset(TASK1, 9, seed=1)
    batch = Batch.of(states)
    B, N = states.shape
    assert batch.cell.shape == (B, N - 1)
    for b in range(B):
        assert batch.y[b] == states[b, -1] - 1
        for j in range(N - 1):
            assert batch.cell[b, j] == (states[b, j] - 1) * B + b, (b, j)


def test_reindex_after_drawing_into_the_states_is_a_fresh_batch():
    # resampling draws each training set into the first one's states and
    # reindexes it; the result is the batch of the new states
    cfg = WalkConfig(K=5, p=0.4, N=11, M=40)
    batch = Batch.of(make_dataset(cfg, 30, seed=1))
    arrays = (batch.states, batch.y, batch.cell)
    make_dataset(cfg, 30, seed=2, out=batch.states)
    batch.reindex()
    fresh = Batch.of(make_dataset(cfg, 30, seed=2))
    for name in ("states", "y", "weights", "cell"):
        np.testing.assert_array_equal(getattr(batch, name), getattr(fresh, name), err_msg=name)
    assert all(a is b for a, b in zip(arrays, (batch.states, batch.y, batch.cell)))


def test_attention_weights_outlive_later_passes_over_the_batch():
    # the weights S are the caller's: neither a later gather over the same
    # batch nor a later token_masses or attention on it writes into them
    rng = np.random.default_rng(5)
    batch = Batch.of(make_dataset(WalkConfig(K=K, p=0.4, N=N, M=M), 30, seed=1))
    geo = geometry(M, N)
    fp = FactoredParams(V=rng.uniform(0.1, 1.0, (K, K)), wtok=rng.standard_normal(K),
                        zpos=rng.standard_normal(N))
    S = attention(fp, batch, geo)
    kept = S.copy()
    token_masses(fp, batch, geo).position_sums(batch, rng.standard_normal((K, 30)))
    later = dataclasses.replace(fp, zpos=rng.standard_normal(N))
    token_masses(later, batch, geo)
    attention(later, batch, geo)
    np.testing.assert_array_equal(S, kept)

