"""In-memory span tracer that wraps the program's public calls from outside.

A span is (name, parent, start, duration, self time); self time is the
duration minus the time covered by the span's children.  Calls are wrapped
where the caller looks the name up (a class attribute for methods, the
importing module's global for functions), so nothing under ``src/`` changes.
While the program runs a wrapper only records the name, start and duration
into flat arrays; parents and self times are worked out from the nesting of
the intervals afterwards, and the spans are written out once, at the end.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import minislot.agent
import minislot.baselines
import minislot.env
import minislot.grid
import minislot.net
import minislot.oracle
import minislot.runner

def _forward_name(args, kwargs) -> str:
    # forward(params, grid, aux, keep_cache=False): split by caller role
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    keep_cache = args[4] if len(args) > 4 else kwargs.get("keep_cache", False)
    if grid.ndim == 3 or grid.shape[0] == 1:
        return "net.forward.b1"
    return "net.forward.train" if keep_cache else "net.forward.target"


# (owner, attribute, span name or namer); one row per lookup site
SPANNED = (
    (minislot.grid.Occupancy, "find_first_fit", "grid.find_first_fit"),
    (minislot.env.SchedulingEnv, "step", "env.step"),
    (minislot.env.SchedulingEnv, "reset", "env.reset"),
    (minislot.env.SchedulingEnv, "clone", "env.clone"),
    (minislot.env.SchedulingEnv, "compact_observation", "env.compact_observation"),
    (minislot.agent, "expand_cells", "env.expand_cells"),
    (minislot.net.QNetwork, "forward", _forward_name),
    (minislot.net.QNetwork, "backward", "net.backward"),
    (minislot.net.QNetwork, "loss_and_grads", "net.loss_and_grads"),
    (minislot.net.Adam, "update", "net.adam_update"),
    (minislot.agent, "clip_global_norm", "net.clip_global_norm"),
    (minislot.agent.ReplayBuffer, "add", "agent.replay.add"),
    (minislot.agent.ReplayBuffer, "sample", "agent.replay.sample"),
    (minislot.runner, "train", "agent.train"),
    (minislot.runner, "greedy_rollout", "agent.greedy_rollout"),
    (minislot.runner, "load_checkpoint", "agent.load_checkpoint"),
    (minislot.runner, "save_checkpoint", "agent.save_checkpoint"),
    (minislot.runner, "oracle_best_plan", "oracle.oracle_best_plan"),
    (minislot.runner, "equal_bandwidth_plan", "baselines.equal_bandwidth_plan"),
    (minislot.runner, "equal_time_frequency_plan", "baselines.equal_time_frequency_plan"),
    (minislot.env, "equal_time_frequency_plan", "baselines.equal_time_frequency_plan"),
    (minislot.runner, "scenario_for_trial", "scenario.scenario_for_trial"),
)

# the QoE helpers take well under a microsecond: count them, do not time them
COUNTED = (
    (minislot.env, "qoe_fn"),
    (minislot.env, "effective_rate"),
    (minislot.env, "combined_qoe"),
    (minislot.env, "evaluate_ue"),
    (minislot.oracle, "effective_rate"),
    (minislot.oracle, "combined_qoe"),
    (minislot.baselines, "evaluate_ue"),
)

WRITERS = ("write_training_csv", "write_eval_csv", "write_manifest")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.dur = array("q")
        self._arrays: dict[str, np.ndarray] | None = None
        self.qoe_calls = 0
        self.bytes_written = 0
        self.replay_buffer = None

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name):
        """``fn`` recording one span per call; ``name`` is a string or a
        function of the call's (args, kwargs)."""
        name_id, start, dur, ids = self.name_id, self.start, self.dur, self._id
        fixed = None if callable(name) else ids(name)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if fixed is not None else ids(name(args, kwargs)))
            dur.append(0)
            t0 = perf_counter_ns()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur[idx] = perf_counter_ns() - t0

        return wrapper

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.qoe_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _writer(self, fn):
        timed = self.wrap(fn, "outputs.write")

        def wrapper(path, *args, **kwargs):
            timed(path, *args, **kwargs)
            self.bytes_written += os.path.getsize(path)

        return wrapper

    def _replay_add(self, fn):
        def wrapper(buffer, *args, **kwargs):
            self.replay_buffer = buffer
            return fn(buffer, *args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for owner, attr, name in SPANNED:
                patch(owner, attr, self.wrap(owner.__dict__[attr], name))
            for owner, attr in COUNTED:
                patch(owner, attr, self._counted(owner.__dict__[attr]))
            for attr in WRITERS:
                patch(minislot.runner, attr, self._writer(minislot.runner.__dict__[attr]))
            buf = minislot.agent.ReplayBuffer
            patch(buf, "add", self._replay_add(buf.__dict__["add"]))
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # ---------- results ----------

    def arrays(self) -> dict[str, np.ndarray]:
        """Every span, in start order; call once the traced work is done."""
        if self._arrays is None:
            starts, durs = self.start.tolist(), self.dur.tolist()
            parent = [-1] * len(starts)
            covered = [0] * len(starts)
            open_spans: list[int] = []  # one thread, so spans nest strictly
            for i, t in enumerate(starts):
                while open_spans and starts[open_spans[-1]] + durs[open_spans[-1]] <= t:
                    open_spans.pop()
                if open_spans:
                    parent[i] = open_spans[-1]
                    covered[open_spans[-1]] += durs[i]
                open_spans.append(i)
            dur = np.array(durs, dtype=np.int64)
            self._arrays = {
                "name_id": np.array(self.name_id, dtype=np.uint16),
                "parent": np.array(parent, dtype=np.int64),
                "start_ns": np.array(starts, dtype=np.int64),
                "dur_ns": dur,
                "self_ns": dur - np.array(covered, dtype=np.int64),
            }
        return self._arrays

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span called ``name``."""
        if name not in self._ids:
            return np.zeros(0)
        a = self.arrays()
        return a["dur_ns"][a["name_id"] == self._ids[name]] * 1e-9

    def self_seconds(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        a = self.arrays()
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        return float(a["self_ns"][np.isin(a["name_id"], ids)].sum()) * 1e-9
