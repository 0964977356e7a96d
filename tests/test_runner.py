"""The library's evaluation entry point refuses empty work before it
writes anything."""

import pytest

from minislot.config import tiny_experiment
from minislot.runner import EQUAL_BANDWIDTH, ORACLE, run_eval


@pytest.mark.parametrize(
    "config, kwargs, message",
    [
        ({}, {"methods": ()}, "no methods"),
        ({}, {"methods": (EQUAL_BANDWIDTH,), "n_trials": 0}, "at least 1 trial, got 0"),
        ({}, {"methods": (EQUAL_BANDWIDTH,), "n_trials": -2}, "at least 1 trial, got -2"),
        ({"n_eval_trials": 0}, {"methods": (EQUAL_BANDWIDTH,)}, "at least 1 trial, got 0"),
        ({}, {"methods": (ORACLE,), "jobs": 0}, "at least 1 worker, got 0"),
        ({}, {"methods": (EQUAL_BANDWIDTH,), "jobs": -1}, "at least 1 worker, got -1"),
    ],
)
def test_run_eval_refuses_empty_work(config, kwargs, message, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        run_eval(tiny_experiment(**config), str(out), **kwargs)
    assert not out.exists()
