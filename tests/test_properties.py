"""Property tests: the factored trainer against the dense per-episode
oracle, the `params.bin` round trip, the size of what the trace keeps,
the exit code of `check` against its report, and the deterministic-walk
trap."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circlewalk.artifacts import PARAMS_MAGIC, load_params, save_params
from circlewalk.cli import main
from circlewalk.model import (dense_params, forward, grad_example, init_params, loss_value,
                              tokens_from_states)
from circlewalk.posembed import build_positional
from circlewalk.trainer import TrainConfig, train
from circlewalk.walkgen import enumerate_deterministic, make_dataset

# The factored trainer and the dense oracle do the same arithmetic in a
# different order; over T <= 5 steps the blocks agree to ~3e-15 of their
# largest entry, and the loss to ~4e-16 absolute (where it is near 0).
PARAM_RTOL, PARAM_ATOL = 1e-9, 1e-12
LOSS_RTOL, LOSS_ATOL = 1e-10, 1e-12
# An oracle prediction whose top two scores are this close may go either
# way under reassociation, so it may flip the accuracy by one episode.
TIE_MARGIN = 1e-9
# Gaussian init that puts a score f_y + eps < 0 on a training episode at
# t = 1, where the oracle's loss_value raises; every property test runs it
NEGATIVE_SCORE = TrainConfig(K=2, p=0.5, N=6, M=15, eta=0.1, init="gaussian", sigma=0.05,
                             train_size=3, test_size=1, seed=24, iterations=1)


@st.composite
def small_configs(draw):
    grad_mode = draw(st.sampled_from(["empirical", "population"]))
    K = draw(st.integers(2, 5))
    if grad_mode == "population":
        p = draw(st.sampled_from([0.0, 1.0]))
        N = K * draw(st.integers(1, 3)) + 1
    else:
        p = draw(st.floats(0.05, 0.95))
        N = draw(st.integers(3, 10))
    M = math.ceil(N ** 1.5) + draw(st.integers(0, 8))  # no capacity warning
    init = draw(st.sampled_from(["zero", "gaussian"]))
    T = draw(st.integers(1, 5))
    return TrainConfig(
        K=K, p=p, N=N, M=M, eta=draw(st.sampled_from([0.1, 1.0])), eps=0.1,
        iterations=T, init=init, sigma=0.05 if init == "gaussian" else 0.0,
        grad_mode=grad_mode, normalize_attention=draw(st.booleans()),
        train_size=draw(st.integers(1, 12)), test_size=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 1000)))


def _dense_oracle(cfg):
    """Plain dense GD: the uniform average of `grad_example` over the
    training batch, applied to all five blocks.  Yields, per iteration,
    (params after the step, loss before it, test accuracy after it, number
    of test episodes whose prediction is a near-tie).  `loss_value` raises
    ValueError at an iteration whose score f_y + eps is <= 0."""
    wc = cfg.walk_config()
    P = build_positional(cfg.M, wc.N)
    params = init_params(cfg)
    if cfg.grad_mode == "population":
        tr = te = enumerate_deterministic(wc)
    else:
        tr = make_dataset(wc, cfg.train_size, seed=cfg.seed)
        te = make_dataset(wc, cfg.test_size, seed=cfg.seed + 1)
    norm = cfg.normalize_attention
    for _ in range(cfg.iterations):
        grads = [grad_example(params, X, int(s[-1]), P, cfg.eps, normalize=norm)
                 for X, s in zip(tokens_from_states(tr, wc.K), tr)]
        losses = [loss_value(forward(params, X, P, normalize=norm).f, int(s[-1]), cfg.eps)
                  for X, s in zip(tokens_from_states(tr, wc.K), tr)]
        params = dataclasses.replace(params, **{
            name: getattr(params, name) - cfg.eta * np.mean(
                [getattr(g, "g" + name) for g in grads], axis=0)
            for name in ("V", "W11", "W12", "W21", "W22")})
        fs = np.array([forward(params, X, P, normalize=norm).f
                       for X in tokens_from_states(te, wc.K)])
        top2 = np.sort(fs, axis=1)[:, -2:]
        ties = int(np.sum(top2[:, 1] - top2[:, 0] <= TIE_MARGIN))
        acc = float(np.mean(np.argmax(fs, axis=1) + 1 == te[:, -1]))
        yield params, float(np.mean(losses)), acc, ties, len(te)


def _oracle_rejects(cfg):
    """Whether the dense oracle meets a score outside the log loss's domain."""
    try:
        for _ in _dense_oracle(cfg):
            pass
    except ValueError:
        return True
    return False


def _assert_train_rejects(cfg):
    with pytest.raises(ValueError, match="log-loss argument must be positive"):
        train(cfg)


@settings(max_examples=60, deadline=None)
@given(cfg=small_configs())
@example(cfg=NEGATIVE_SCORE)
def test_factored_trainer_matches_the_dense_oracle(cfg):
    try:
        expected = list(_dense_oracle(cfg))
    except ValueError:
        _assert_train_rejects(cfg)
        return
    trace = train(cfg)
    for t, (dense, loss, acc, ties, B) in enumerate(expected, start=1):
        if t in trace.snapshots:  # 0, 1, 2, 4 and T
            got = dense_params(trace, t)
            for name in ("V", "W11", "W12", "W21", "W22"):
                np.testing.assert_allclose(getattr(got, name), getattr(dense, name),
                                           rtol=PARAM_RTOL, atol=PARAM_ATOL,
                                           err_msg=f"{name} at t={t}")
        row = trace.rows[t - 1]
        np.testing.assert_allclose(row.loss, loss, rtol=LOSS_RTOL, atol=LOSS_ATOL,
                                   err_msg=f"loss at t={t}")
        assert abs(row.accuracy - acc) <= ties / B + 1e-12, (t, row.accuracy, acc, ties)


@settings(max_examples=25, deadline=None)
@given(cfg=small_configs())
@example(cfg=NEGATIVE_SCORE)
def test_params_bin_round_trips(cfg):
    if _oracle_rejects(cfg):
        _assert_train_rejects(cfg)
        return
    fp = train(cfg).final_snapshot
    K, N = cfg.K, cfg.N
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.bin"
        save_params(fp, path, cfg)
        loaded = load_params(path, cfg)
        raw = path.read_bytes()
    for f in dataclasses.fields(fp):
        np.testing.assert_array_equal(getattr(loaded, f.name), getattr(fp, f.name))
    header = len(PARAMS_MAGIC) + raw[len(PARAMS_MAGIC):].index(b"\n") + 1
    assert len(raw) == header + 8 * (K * K + K + N)


def _arrays(obj):
    """Every numpy array reachable through dataclass fields, dict values,
    lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(obj, (dict, list, tuple)):
        for v in (obj.values() if isinstance(obj, dict) else obj):
            yield from _arrays(v)


def test_snapshots_hold_no_m_by_m_array():
    # nor any array of M entries anywhere in the trace but its geometry:
    # a snapshot is O(K^2 + N), and the trace keeps no init block
    base = dict(K=4, N=13, M=60, iterations=6, train_size=16, test_size=16)
    for fields in (dict(p=0.5), dict(p=0.5, init="gaussian", sigma=0.05),
                   dict(p=1.0, grad_mode="population"),
                   dict(p=1.0, grad_mode="population", normalize_attention=True)):
        trace = train(TrainConfig(**base, **fields))
        assert trace.snapshots and trace.rows
        for f in dataclasses.fields(trace):
            if f.name != "geometry":
                for arr in _arrays(getattr(trace, f.name)):
                    assert arr.size < base["M"], (fields, f.name, arr.shape)


@settings(max_examples=30, deadline=None)
@given(cfg=small_configs())
@example(cfg=NEGATIVE_SCORE)
def test_check_exits_1_exactly_when_the_report_fails(cfg):
    # empirical runs draw 0 < p < 1, so they get the random-walk report;
    # short ones mostly fail it.  Zero-init population runs get the
    # deterministic report and pass it.  The deterministic theorem assumes
    # zero init, so a Gaussian population run is out of scope: exit 2 and
    # no report.  So is a run whose score leaves the log loss's domain
    rejected = _oracle_rejects(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        rc = main(["check", "--out", str(Path(tmp) / "out"), "--config", str(path)])
        report_path = Path(tmp) / "out" / "report.json"
        if rejected or (cfg.grad_mode == "population" and cfg.init == "gaussian"):
            assert rc == 2 and not report_path.exists(), rc
            return
        report = json.loads(report_path.read_text())
    assert rc == (0 if report["passed"] else 1), (rc, report["items"])


@settings(max_examples=30, deadline=None)
@given(K=st.integers(2, 6), r=st.integers(1, 3), eta=st.floats(0.01, 10.0),
       normalize=st.booleans(), T=st.integers(2, 6))
def test_zero_init_population_check_passes(K, r, eta, normalize, T):
    # the deterministic-walk trap: from zero init the exact population
    # gradient keeps every structure residual at 0, the accuracy at 1/K and
    # the second iterate on its closed form, for any step size, with or
    # without normalized attention columns
    N = r * K + 1
    cfg = TrainConfig(K=K, p=1.0, N=N, M=math.ceil(N ** 1.5), eta=eta, eps=0.1,
                      iterations=T, grad_mode="population", normalize_attention=normalize)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        rc = main(["check", "--out", str(Path(tmp) / "out"), "--config", str(path)])
        report = json.loads((Path(tmp) / "out" / "report.json").read_text())
    assert rc == 0, report
