"""Episode generation: walks, the deterministic enumeration, QA tasks."""

import math

import numpy as np
import pytest

from circlewalk.walkgen import (
    QA_INDEX, QA_K, QA_N, QA_WORDS, TASK1, TASK2, WalkConfig,
    enumerate_deterministic, export_dataset, make_dataset,
    qa_dataset, qa_enumerate, qa_symmetry_statistic,
)
from circlewalk.model import tokens_from_states

CFG = WalkConfig(K=6, p=0.5, N=25, M=128)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(K=1, p=0.5, N=10, M=64)
    with pytest.raises(ValueError):
        WalkConfig(K=6, p=1.5, N=10, M=64)
    with pytest.raises(ValueError):
        WalkConfig(K=6, p=0.5, N=1, M=64)
    with pytest.raises(ValueError):
        WalkConfig(K=6, p=0.5, N=10, M=9)  # M < N


def test_thin_positional_capacity_warns():
    # the warning names the line that built the config
    with pytest.warns(UserWarning, match="positional capacity") as caught:
        WalkConfig(K=6, p=0.5, N=25, M=30)  # 30 < 25**1.5
    assert [w.filename for w in caught] == [__file__]


def test_walk_steps_are_plus_minus_one_mod_K():
    states = make_dataset(CFG, 200, seed=3)
    assert states.shape == (200, CFG.N)
    assert states.min() >= 1 and states.max() <= CFG.K
    diffs = np.diff(states, axis=1) % CFG.K
    assert set(np.unique(diffs)) <= {1, CFG.K - 1}


def test_dataset_seeded_reproducible():
    a = make_dataset(CFG, 50, seed=11)
    b = make_dataset(CFG, 50, seed=11)
    c = make_dataset(CFG, 50, seed=12)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def _former_make_dataset(cfg, count, rng):
    """The earlier formula: +-1 steps, a prepended zero, an allocating modulus."""
    s1 = rng.integers(1, cfg.K + 1, size=count)
    steps = np.where(rng.random((count, cfg.N - 1)) < cfg.p, 1, -1)
    raw = s1[:, None] + np.concatenate(
        [np.zeros((count, 1), dtype=np.int64), np.cumsum(steps, axis=1)], axis=1)
    return (raw - 1) % cfg.K + 1


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_make_dataset_keeps_the_former_stream(p):
    # N = 131 takes the running sums past 8 bits
    for K in (2, 3, 6, 11):
        for N in (2, 3, 25, 97, 131):
            cfg = WalkConfig(K=K, p=p, N=N, M=math.ceil(N ** 1.5))
            for seed in range(3):
                np.testing.assert_array_equal(
                    make_dataset(cfg, 40, seed=seed),
                    _former_make_dataset(cfg, 40, np.random.default_rng(seed)))
            # consecutive draws from one generator, as resampling makes them,
            # the second of each count into the array of the first
            ours, former = np.random.default_rng(9), np.random.default_rng(9)
            for count in (1, 7, 1000):
                got = make_dataset(cfg, count, rng=ours)
                assert got.dtype == np.int64 and got.flags.c_contiguous, (K, N, count)
                np.testing.assert_array_equal(got, _former_make_dataset(cfg, count, former),
                                              err_msg=f"K={K} N={N} count={count}")
                assert make_dataset(cfg, count, rng=ours, out=got) is got
                np.testing.assert_array_equal(got, _former_make_dataset(cfg, count, former),
                                              err_msg=f"K={K} N={N} count={count}, out")


def test_tokens_one_hot_with_zero_query_column():
    states = make_dataset(CFG, 1, seed=0)[0]
    X = tokens_from_states(states[None, :], CFG.K)[0]
    assert X.shape == (CFG.K, CFG.N)
    np.testing.assert_array_equal(X[:, -1], np.zeros(CFG.K))
    np.testing.assert_array_equal(X[:, :-1].sum(axis=0), np.ones(CFG.N - 1))
    for j in range(CFG.N - 1):
        assert X[states[j] - 1, j] == 1.0


def test_tokens_from_states_batched_matches_single():
    st = make_dataset(CFG, 4, seed=5)
    Xb = tokens_from_states(st, CFG.K)
    for i in range(4):
        X = np.zeros((CFG.K, CFG.N))
        for j in range(CFG.N - 1):
            X[st[i, j] - 1, j] = 1.0
        np.testing.assert_array_equal(Xb[i], X)


def test_deterministic_enumeration():
    cfg = WalkConfig(K=5, p=1.0, N=11, M=64)
    states = enumerate_deterministic(cfg)
    assert states.shape == (5, 11)
    assert list(states[:, 0]) == [1, 2, 3, 4, 5]
    # always clockwise at p=1
    assert set(np.unique(np.diff(states, axis=1) % cfg.K)) == {1}
    # counter-clockwise at p=0
    ccw = enumerate_deterministic(WalkConfig(K=5, p=0.0, N=11, M=64))
    assert set(np.unique(np.diff(ccw, axis=1) % 5)) == {4}


def test_enumeration_rejects_random_walks():
    with pytest.raises(ValueError):
        enumerate_deterministic(CFG)


def test_require_deterministic_theory():
    assert WalkConfig(K=6, p=1.0, N=13, M=64).require_deterministic_theory() == 2
    with pytest.raises(ValueError):
        WalkConfig(K=6, p=1.0, N=12, M=64).require_deterministic_theory()
    with pytest.raises(ValueError):
        CFG.require_deterministic_theory()


def test_export_dataset_round_trips_states(tmp_path):
    states = make_dataset(CFG, 10, seed=9)
    path = tmp_path / "dataset.txt"
    export_dataset(states, path, CFG, seed=9)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# K=6 p=0.5 N=25 M=128 seed=9 count=10")
    assert len(lines) == 11
    parsed = np.array([[int(t) for t in ln.split()[1:]] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed, states)


# --- QA tasks ---------------------------------------------------------------


def test_qa_vocabulary_is_19_distinct_words():
    assert len(QA_WORDS) == QA_K == 19
    assert len(set(QA_WORDS)) == 19
    assert sorted(QA_INDEX.values()) == list(range(1, 20))


def test_qa_enumerate_counts_and_lengths():
    t1 = qa_enumerate(TASK1)
    t2 = qa_enumerate(TASK2)
    assert t1.shape == (32, QA_N[TASK1])
    assert t2.shape == (2, QA_N[TASK2])
    assert len({tuple(row) for row in t1}) == 32
    with pytest.raises(ValueError):
        qa_enumerate("task3")


def test_qa_task1_label_is_majority_fruit():
    apple = QA_INDEX["apple"]
    orange = QA_INDEX["orange"]
    for row in qa_enumerate(TASK1):
        fruits = row[4:9]  # the five fruit slots
        n_apple = int(np.sum(fruits == apple))
        expect = apple if n_apple >= 3 else orange
        assert row[-1] == expect


def test_qa_task2_label_is_first_fruit():
    for row in qa_enumerate(TASK2):
        assert row[-1] == row[7]  # 'I prefer an <first> ...'


def test_qa_states_appends_label():
    row = qa_enumerate(TASK1)[0]
    assert row.shape == (QA_N[TASK1],)
    assert row[-1] in (QA_INDEX["apple"], QA_INDEX["orange"])
    X = tokens_from_states(row[None, :], QA_K)[0]
    assert X.shape == (QA_K, QA_N[TASK1])
    np.testing.assert_array_equal(X[:, -1], 0.0)


def test_qa_dataset_seeded():
    a = qa_dataset(TASK1, 20, seed=4)
    b = qa_dataset(TASK1, 20, seed=4)
    assert a.shape == (20, QA_N[TASK1])
    np.testing.assert_array_equal(a, b)


def test_qa_symmetry_statistic_separates_the_tasks():
    # Task 2's two questions have identical token multisets, so the
    # label-conditional averages coincide exactly.
    assert qa_symmetry_statistic(TASK2) == 0.0
    assert qa_symmetry_statistic(TASK1) > 0.0
