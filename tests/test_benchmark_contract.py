"""The benchmark's tracer patches the program's public names by lookup;
a rename it depends on should fail here, not in a benchmark run."""

import importlib
from pathlib import Path

import minislot.env

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    step = minislot.env.SchedulingEnv.__dict__["step"]
    with spans.Tracer().installed():
        assert minislot.env.SchedulingEnv.__dict__["step"] is not step
    assert minislot.env.SchedulingEnv.__dict__["step"] is step
