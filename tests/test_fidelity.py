"""Short study-scale runs against the traces pinned in `data/fidelity.json`
(written by `fidelity_runs.py`): metrics rows within 1e-9 relative plus
1e-12 absolute, the final V within 1e-9 relative, the iteration and the
accuracy exactly, and the `check` verdicts and the `eval` record of the
runs that pin them."""

import json

import numpy as np
import pytest

import fidelity_runs

PINS = json.loads(fidelity_runs.PINS.read_text())
ACCURACY = 2  # column of `accuracy` in a metrics row; `iter` is column 0


def _floats(lines):
    return np.array([[float(x) for x in line.split(",")] for line in lines])


@pytest.fixture(scope="module", params=sorted(fidelity_runs.RUNS))
def run(request):
    return request.param, fidelity_runs.record(request.param)


def test_metrics_rows_match_the_pins(run):
    name, got = run
    want, have = _floats(PINS[name]["rows"]), _floats(got["rows"])
    assert have.shape == want.shape
    for col in (0, ACCURACY):
        np.testing.assert_array_equal(have[:, col], want[:, col], err_msg=f"{name} col {col}")
    np.testing.assert_allclose(have, want, rtol=1e-9, atol=1e-12, equal_nan=True,
                               err_msg=name)


def test_final_v_matches_the_pins(run):
    name, got = run
    np.testing.assert_allclose(_floats(got["V"]), _floats(PINS[name]["V"]), rtol=1e-9,
                               atol=0.0, err_msg=name)


def test_verdicts_and_eval_match_the_pins(run):
    name, got = run
    assert got.get("verdicts") == PINS[name].get("verdicts")
    assert ("eval" in got) == ("eval" in PINS[name])
    if "eval" in got:
        have, want = got["eval"], PINS[name]["eval"]
        assert have.keys() == want.keys()
        assert have["accuracy"] == want["accuracy"]
        np.testing.assert_allclose([float(have[k]) for k in sorted(have)],
                                   [float(want[k]) for k in sorted(want)],
                                   rtol=1e-9, atol=1e-12, err_msg=name)
