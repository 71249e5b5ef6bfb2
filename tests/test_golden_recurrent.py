"""Golden pin of the recurrent core: predictions, gradients, a short
training run and its final parameters, compared with values recorded by
an earlier implementation of the core.

Regenerate the fixture with `PYTHONPATH=src python tests/test_golden_recurrent.py`.
Only do that when a change of results is intended: the test exists to
show that a rewrite of the core keeps them.
"""

import json
import pathlib

import numpy as np
import pytest

from cellcast import BinnedCellSeries, backward, build_network, forward, training
from cellcast.stats import rmse

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_recurrent.json"

# Summation order may change between implementations; nothing else may.
RTOL = 1e-9
ATOL = 1e-12

# name -> (cell kind, hidden layers, units)
CASES = {f"{kind}-{layers}L": (kind, layers, 3) for layers in (1, 2) for kind in ("lstm", "gru")}


def _dataset():
    """Three noisy days of one daily bump: 111 training windows (four
    batches of 32) and 25 test windows."""
    rng = np.random.default_rng(42)
    t = np.arange(3 * 48)
    values = 20.0 + 10.0 * np.sin(2.0 * np.pi * t / 48) + rng.normal(scale=1.5, size=t.size)
    return training.prepare_dataset(BinnedCellSeries(cell_id=0, span_start=0, values=values))


def golden_case(name: str) -> dict:
    """Everything the fixture records for one case, computed by the
    current code."""
    kind, layers, units = CASES[name]
    rng = np.random.default_rng(7)
    inputs, targets = rng.random((5, 4)), rng.random(5)
    net = build_network(kind, layers, units, seed=3)
    preds, tape = forward(net, inputs)
    grads = backward(net, targets, tape)
    dataset = _dataset()
    fitted, trace = training._fit(kind, layers, units, dataset,
                                  training.TrainConfig(epochs=3, runs=1), seed=5)
    test_preds, _ = forward(fitted, dataset.test.inputs)
    return {
        "preds": preds.tolist(),
        "grads": {path: np.asarray(grads[path]).ravel().tolist() for path, _ in net.parameters()},
        "loss_trace": trace,
        "params": {path: arr.ravel().tolist() for path, arr in fitted.parameters()},
        "test_rmse": rmse(test_preds, dataset.test.targets),
    }


def _pairs(expected: dict, actual: dict):
    """(label, expected array, actual array) for every recorded value."""
    for key in ("preds", "loss_trace", "test_rmse"):
        yield key, expected[key], actual[key]
    for key in ("grads", "params"):
        assert list(actual[key]) == list(expected[key]), f"{key} paths or order changed"
        for path in expected[key]:
            yield f"{key}[{path}]", expected[key][path], actual[key][path]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(golden, name):
    actual = golden_case(name)
    for label, want, got in _pairs(golden["cases"][name], actual):
        np.testing.assert_allclose(np.asarray(got), np.asarray(want), rtol=RTOL, atol=ATOL,
                                   err_msg=f"{name}: {label}")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    doc = {"cases": {name: golden_case(name) for name in sorted(CASES)}}
    FIXTURE.write_text(json.dumps(doc) + "\n")
    print(f"wrote {FIXTURE}")
