import json
import os

import pytest

from minislot.agent import EpisodeMetrics
from minislot.outputs import (
    EVAL_COLUMNS,
    TRAINING_COLUMNS,
    fmt,
    moving_average,
    write_eval_csv,
    write_manifest,
    write_training_csv,
)


def metric(episode, reward, served=1):
    return EpisodeMetrics(
        episode=episode,
        total_reward=reward,
        steps=episode + 3,
        served_count=served,
        n_ues=2,
        total_qoe=1.5 * reward,
        epsilon=1.0 - 0.1 * episode,
        outcome="success",
    )


def test_moving_average_trailing_window():
    assert moving_average([1.0, 3.0, 5.0], window=2) == [1.0, 2.0, 4.0]
    assert moving_average([], window=3) == []
    flat = moving_average([2.0] * 10, window=4)
    assert flat == [2.0] * 10


def test_fmt_distinguishes_types():
    assert fmt(3) == "3"
    assert fmt(True) == "True"
    assert fmt(0.5) == "0.5"
    assert fmt(1 / 3) == "0.3333333333"  # ten significant digits
    assert fmt("text") == "text"


def test_training_csv_layout(tmp_path):
    path = tmp_path / "training.csv"
    write_training_csv(path, [metric(0, 10.0), metric(1, 20.0, served=2)])
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRAINING_COLUMNS)
    assert lines[1] == "0,10,10,3,50,15,1"
    assert lines[2] == "1,20,15,4,100,30,0.9"


def test_eval_csv_layout(tmp_path):
    path = tmp_path / "eval.csv"
    rows = [
        {
            "trial": 0,
            "method": "dqn",
            "total_qoe": 12.25,
            "served_count": 2,
            "per_ue_qoe": (6.125, 6.125),
        }
    ]
    write_eval_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(EVAL_COLUMNS)
    assert lines[1] == "0,dqn,12.25,2,6.125;6.125"


def test_written_files_are_world_readable(tmp_path):
    path = tmp_path / "training.csv"
    write_training_csv(path, [metric(0, 1.0)])
    assert os.stat(path).st_mode & 0o044 == 0o044


def test_write_replaces_atomically(tmp_path):
    path = tmp_path / "eval.csv"
    write_eval_csv(path, [])
    first = path.read_text()
    write_eval_csv(
        path,
        [{"trial": 1, "method": "m", "total_qoe": 0.0, "served_count": 0, "per_ue_qoe": ()}],
    )
    assert path.read_text() != first
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_identical_inputs_identical_bytes(tmp_path):
    rows = [metric(i, 7.0 + i) for i in range(5)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_training_csv(a, rows)
    write_training_csv(b, rows)
    assert a.read_bytes() == b.read_bytes()


def test_manifest_is_sorted_json(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, {"b": 1, "a": {"z": True}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"z": True}}
