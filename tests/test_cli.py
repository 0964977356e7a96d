import contextlib
import csv
import io
import json
import math
import os
import platform
import struct
import tempfile
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minislot.agent import TrainConfig, load_checkpoint
from minislot.cli import build_parser, main
from minislot.config import save_config, tiny_experiment, to_dict

CHECKPOINT = Path(__file__).parents[1] / "perfbench" / "checkpoints" / "default-60ep-seed0.npz"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = main(
        ["train", "--tiny", "--episodes", "40", "--seed", "7", "--quiet", "--out", str(out)]
    )
    assert code == 0
    return out


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--help"])
    assert exc.value.code == 0
    assert "train" in capsys.readouterr().out


def test_missing_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "baseline", "oracle"])
def test_seed_is_a_train_option(command, capsys):
    """Only training draws from the training seed, so no other command
    takes one."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_train_writes_artifacts(trained, capsys):
    assert sorted(os.listdir(trained)) == ["checkpoint.npz", "manifest.json", "training.csv"]
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["command"].startswith("minislot train")
    assert manifest["config"]["train"]["episodes"] == 40
    # the numeric build trained bits depend on, and the thread variables
    build = manifest["build"]
    assert build["python"] == platform.python_version()
    assert build["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert build["blas"] == {"name": blas["name"], "version": blas["version"]}
    assert build["threads"] == {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    lines = (trained / "training.csv").read_text().splitlines()
    assert len(lines) == 41  # header + one row per episode


def test_eval_compares_methods_on_shared_trials(trained, tmp_path, capsys):
    code = main(
        [
            "eval", "--tiny", "--trials", "3", "--out", str(tmp_path),
            "--checkpoint", str(trained / "checkpoint.npz"),
        ]
    )
    assert code == 0
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 3  # header + 3 trials x 3 methods
    out = capsys.readouterr().out
    assert "dqn" in out and "equal_bandwidth" in out and "equal_time_frequency" in out


def test_eval_without_checkpoint_fails(tmp_path, capsys):
    code = main(["eval", "--tiny", "--trials", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "checkpoint" in capsys.readouterr().err


def test_eval_baselines_only_needs_no_checkpoint(tmp_path):
    code = main(
        [
            "eval", "--tiny", "--trials", "2", "--out", str(tmp_path),
            "--methods", "equal_bandwidth,equal_time_frequency",
        ]
    )
    assert code == 0


def test_eval_unknown_method_fails(tmp_path, capsys):
    code = main(
        ["eval", "--tiny", "--trials", "1", "--out", str(tmp_path), "--methods", "magic"]
    )
    assert code == 1
    assert "unknown methods" in capsys.readouterr().err


def test_baseline_subcommand(tmp_path, capsys):
    code = main(["baseline", "--tiny", "--trials", "4", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * 2
    assert "dqn" not in capsys.readouterr().out


def test_oracle_subcommand(tmp_path, capsys):
    code = main(["oracle", "--tiny", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "oracle.csv").read_text().splitlines()
    assert len(lines) == 1 + 2
    assert all(",oracle," in line for line in lines[1:])


def test_oracle_searches_when_every_total_is_negative(tmp_path, monkeypatch):
    """Served users score -200 to -80 here, so no total exceeds -1, where
    the search's incumbent used to start: it found no plan and crashed."""
    monkeypatch.setenv("MINISLOT_SCENARIO__QOE_A", "-100")
    monkeypatch.setenv("MINISLOT_SCENARIO__MIN_QOE", "[-200,-200]")
    monkeypatch.setenv("MINISLOT_SCENARIO__PEAK_FACTOR", "0.4")
    assert main(["oracle", "--tiny", "--trials", "1", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "oracle.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["served_count"] == "2"
    assert -200.0 < float(row["total_qoe"]) < -1.0


def test_oracle_refuses_default_scale(tmp_path, capsys):
    code = main(["oracle", "--trials", "1", "--out", str(tmp_path)])
    assert code == 1
    assert "oracle cap" in capsys.readouterr().err


def test_eval_rejects_checkpoint_of_another_geometry(trained, tmp_path, capsys):
    checkpoint = str(trained / "checkpoint.npz")
    code = main(
        ["eval", "--trials", "1", "--methods", "dqn", "--checkpoint", checkpoint,
         "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "(8, 16, 12, 4)" in err and "(24, 56, 22, 9)" in err  # tiny vs default


@pytest.mark.parametrize(
    "argv, environ, config, message",
    [
        (["train", "--tiny", "--episodes", "0"], {}, None, "at least 1 episode, got 0"),
        (["train", "--tiny"], {"MINISLOT_TRAIN__EPISODES": "0"}, None, "at least 1 episode"),
        (
            ["train"], {}, tiny_experiment(train=TrainConfig(episodes=0)),
            "at least 1 episode",
        ),
        (["baseline", "--tiny", "--trials", "-3"], {}, None, "at least 1 trial, got -3"),
        (["eval", "--tiny", "--trials", "0"], {}, None, "at least 1 trial, got 0"),
        (["oracle", "--tiny", "--trials", "0"], {}, None, "at least 1 trial"),
        (["baseline", "--tiny"], {"MINISLOT_N_EVAL_TRIALS": "0"}, None, "at least 1 trial"),
        (["oracle"], {}, replace(tiny_experiment(), n_eval_trials=-1), "at least 1 trial"),
        (["eval", "--tiny", "--trials", "2", "--methods", ","], {}, None, "no method: ','"),
        (["eval", "--tiny", "--trials", "2", "--methods", ""], {}, None, "no method: ''"),
        (
            ["eval", "--tiny", "--trials", "2", "--methods", "equal_bandwidth", "--jobs", "0"],
            {}, None, "at least 1 worker, got 0",
        ),
        (["oracle", "--tiny", "--trials", "2", "--jobs", "-2"], {}, None, "at least 1 worker, got -2"),
        (["train", "--tiny", "--seed", "-1"], {}, None, "seed must be non-negative, got -1"),
        (
            ["eval", "--tiny", "--trials", "2", "--methods", "equal_bandwidth", "--jobs", "8"],
            {}, None, "jobs 8 sets oracle workers, but no oracle method is asked for",
        ),
        # refused before the file is read: it need not exist
        (
            ["eval", "--tiny", "--trials", "2", "--methods", "equal_bandwidth",
             "--checkpoint", "missing.npz"],
            {}, None, "checkpoint missing.npz is a dqn policy, but no dqn method is asked for",
        ),
    ],
)
def test_counts_below_one_fail_cleanly(
    argv, environ, config, message, tmp_path, monkeypatch, capsys
):
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    if config is not None:
        save_config(tmp_path / "experiment.json", config)
        argv = argv + ["--config", str(tmp_path / "experiment.json")]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "environ, message",
    [
        ({"MINISLOT_TRAIN__TARGET_SYNC_STEPS": "0"}, "target_sync_steps must be at least 1"),
        ({"MINISLOT_TRAIN__BATCH_SIZE": "0"}, "batch_size must be at least 1"),
        ({"MINISLOT_TRAIN__REPLAY_CAPACITY": "8"}, "replay_capacity 8 is below the warm-up of 64"),
        ({"MINISLOT_TRAIN__LEARNING_RATE": "0"}, "learning_rate must be positive"),
        ({"MINISLOT_TRAIN__GRAD_CLIP_NORM": "-1"}, "grad_clip_norm must be positive"),
        ({"MINISLOT_TRAIN__EPISODES": "1.5"}, "MINISLOT_TRAIN__EPISODES: train.episodes must be int"),
        ({"MINISLOT_TRAIN__SEED": "true"}, "MINISLOT_TRAIN__SEED: train.seed must be int"),
        ({"MINISLOT_SCENARIO__NUMEROLOGY_SET": "[1, 2.5]"}, "numerology_set[1] must be int"),
        ({"MINISLOT_TRAIN__SEED": "-1"}, "seed must be non-negative, got -1"),
        ({"MINISLOT_SCENARIO__RNG_SEED": "-5"}, "rng_seed must be non-negative, got -5"),
        # a 1.33 EiB minibatch buffer: the allocation fails at once anywhere
        (
            {"MINISLOT_TRAIN__BATCH_SIZE": str(10**15), "MINISLOT_TRAIN__REPLAY_CAPACITY": str(10**15)},
            "Unable to allocate",
        ),
    ],
)
def test_bad_train_overrides_fail_cleanly(environ, message, tmp_path, monkeypatch, capsys):
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main(["train", "--tiny", "--episodes", "2", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_string_override_takes_the_raw_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("MINISLOT_OUTPUT_DIR", "null")
    assert main(["baseline", "--tiny", "--trials", "1"]) == 0
    assert (tmp_path / "null").is_dir() and not (tmp_path / "None").exists()


def test_config_and_tiny_conflict(tmp_path, capsys):
    code = main(["train", "--tiny", "--config", "x.json", "--out", str(tmp_path)])
    assert code == 1
    assert "mutually exclusive" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_config_file_and_env_override(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "experiment.json"
    save_config(cfg_path, tiny_experiment())
    monkeypatch.setenv("MINISLOT_TRAIN__EPISODES", "12")
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--quiet", "--out", str(out)])
    assert code == 0
    lines = (out / "training.csv").read_text().splitlines()
    assert len(lines) == 13


def test_bad_env_override_fails_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MINISLOT_TRAIN__TYPO", "1")
    code = main(["train", "--tiny", "--episodes", "1", "--quiet", "--out", str(tmp_path)])
    assert code == 1
    assert "MINISLOT_TRAIN__TYPO" in capsys.readouterr().err


def test_repeat_runs_are_byte_identical(tmp_path):
    args = ["train", "--tiny", "--episodes", "25", "--seed", "3", "--quiet"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "training.csv").read_bytes() == (b / "training.csv").read_bytes()


def _truncated(data: bytes) -> bytes:
    return data[:2000]


def _flipped(data: bytes) -> bytes:
    """One byte flipped in the middle of the largest compressed member."""
    with zipfile.ZipFile(io.BytesIO(data)) as archive:
        member = max(archive.infolist(), key=lambda m: m.compress_size)
    assert member.compress_type == zipfile.ZIP_DEFLATED
    start = member.header_offset
    name_len, extra_len = struct.unpack("<HH", data[start + 26 : start + 30])
    at = start + 30 + name_len + extra_len + member.compress_size // 2
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


@pytest.mark.parametrize("damage", [_truncated, _flipped])
def test_damaged_checkpoint_fails_cleanly(damage, tmp_path, capsys):
    path = tmp_path / "policy.npz"
    path.write_bytes(damage(CHECKPOINT.read_bytes()))
    out = tmp_path / "out"
    argv = ["eval", "--trials", "1", "--methods", "dqn", "--checkpoint", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot read checkpoint {str(path)!r}" in err
    assert not out.exists()


def _with_meta(edit):
    """The fixed checkpoint's bytes with its metadata replaced by what
    ``edit`` makes of it."""

    def damage(data: bytes) -> bytes:
        with np.load(io.BytesIO(data)) as archive:
            arrays = {name: archive[name] for name in archive.files}
        meta = edit(json.loads(bytes(arrays["__meta__"]).decode()))
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        out = io.BytesIO()
        np.savez(out, **arrays)
        return out.getvalue()

    return damage


_DROP = object()


def _set_leaf(keys, value=_DROP):
    """An edit of a JSON tree that sets the entry at ``keys``, or drops it."""

    def edit(meta):
        node = meta
        for key in keys[:-1]:
            node = node[key]
        if value is _DROP:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return meta

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda meta: [meta], "TypeError: a JSON list, not an object"),
        (_set_leaf(["net_config"]), "KeyError: 'net_config'"),
        (_set_leaf(["net_config", "depth"], 3), "unexpected keyword argument 'depth'"),
        (_set_leaf(["net_config", "aux_dim"]), "missing 1 required positional argument: 'aux_dim'"),
        # the architecture is derived from the geometry, so any other is refused
        (_set_leaf(["net_config", "conv", 0, "pad"], 1), "'pad': 1"),
        (_set_leaf(["net_config", "conv", 1, "filters"]), "{'kernel': 3, 'stride': 2}]"),
        (_set_leaf(["net_config", "conv"], 8), "'conv': 8,"),
        (_set_leaf(["net_config", "grid_height"], -24), "positive ints, got -24"),
        (_set_leaf(["net_config", "conv", 0, "stride"], 4), "'stride': 4}"),
        (_set_leaf(["version"], 99), "unsupported checkpoint version 99"),
    ],
)
def test_bad_checkpoint_metadata_fails_cleanly(edit, message, tmp_path, capsys):
    path = tmp_path / "policy.npz"
    path.write_bytes(_with_meta(edit)(CHECKPOINT.read_bytes()))
    out = tmp_path / "out"
    argv = ["eval", "--trials", "1", "--methods", "dqn", "--checkpoint", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad metadata in checkpoint {str(path)!r}" in err
    assert message in err
    assert not out.exists()


def test_checkpoint_of_another_architecture_is_refused(tmp_path, capsys):
    """Stored architecture and arrays agree with each other (conv filters 4
    and 8), but not with the 8 and 16 filters the geometry gives."""
    with np.load(CHECKPOINT) as archive:
        meta = json.loads(bytes(archive["__meta__"]).decode())
    for conv, filters in zip(meta["net_config"]["conv"], (4, 8)):
        conv["filters"] = filters
    shapes = {
        "conv0/W": (3 * 9, 4), "conv0/b": (4,), "conv1/W": (4 * 9, 8), "conv1/b": (8,),
        "dense0/W": (8 * 5 * 13 + 22, 64), "dense0/b": (64,), "out/W": (64, 9), "out/b": (9,),
    }
    rng = np.random.default_rng(0)
    arrays = {f"param/{name}": rng.normal(size=shape) for name, shape in shapes.items()}
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = tmp_path / "policy.npz"
    np.savez(path, **arrays)
    out = tmp_path / "out"
    argv = ["eval", "--trials", "1", "--methods", "dqn", "--checkpoint", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"bad metadata in checkpoint {str(path)!r}" in err
    assert "'filters': 4" in err and "its geometry's" in err
    assert not out.exists()


def test_checkpoint_beyond_float32_is_refused(tmp_path, capsys):
    """A finite float64 parameter that float32 cannot hold is refused
    before it is rounded to inf."""
    with np.load(CHECKPOINT) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["param/out/b"] = arrays["param/out/b"].copy()
    arrays["param/out/b"][2] = 1e300
    path = tmp_path / "policy.npz"
    np.savez(path, **arrays)
    out = tmp_path / "out"
    argv = ["eval", "--trials", "1", "--methods", "dqn", "--checkpoint", str(path)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: checkpoint parameter out/b is beyond the float32 range\n"
    assert not out.exists()


def test_train_refuses_a_run_that_took_no_step(tmp_path, monkeypatch, capsys):
    """A QoE scale of 1e308 ends every tiny episode at reset; such a run
    writes nothing."""
    monkeypatch.setenv("MINISLOT_SCENARIO__QOE_A", "1e308")
    out = tmp_path / "out"
    assert main(["train", "--tiny", "--episodes", "3", "--quiet", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "none of the 3 training episodes took a step" in err
    assert not out.exists()


def test_eval_refuses_a_dqn_run_that_placed_nothing(tmp_path, monkeypatch, capsys):
    """A QoE scale of 1e308 ends every default episode at reset, so the
    policy places nothing and each total is 0; such an eval writes nothing."""
    monkeypatch.setenv("MINISLOT_SCENARIO__QOE_A", "1e308")
    out = tmp_path / "out"
    argv = ["eval", "--checkpoint", str(CHECKPOINT), "--methods", "dqn", "--trials", "3"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the dqn policy placed no BWP in any of the 3 trials" in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["Infinity", "1e308"])
def test_train_refuses_a_non_finite_policy(rate, tmp_path, monkeypatch, capsys):
    """An infinite learning rate is refused as it enters; a finite one that
    drives the parameters to inf or NaN is refused before anything is written."""
    monkeypatch.setenv("MINISLOT_TRAIN__LEARNING_RATE", rate)
    out = tmp_path / "out"
    assert main(["train", "--tiny", "--episodes", "80", "--quiet", "--out", str(out)]) == 1
    last = capsys.readouterr().err.splitlines()[-1]  # after any numpy warnings
    assert last.startswith("error: ") and "learning_rate" in last
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, environ, message",
    [
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__MINISLOT_SET": "[20]"},
            "minislot_set entry 20 outside the mini-slot symbol range [1, 14]",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__MINISLOT_SET": "[0]"},
            "minislot_set entry 0 outside the mini-slot symbol range [1, 14]",
        ),
        (
            ["train", "--tiny", "--episodes", "1", "--quiet"],
            {"MINISLOT_SCENARIO__MAX_BWPS_PER_UE_TIER": "0"},
            "max_bwps_per_ue_tier must be None or at least 1, got 0",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__FOV__PARENT_MEAN": "50"},
            "FoV support [0.6, 1.0] holds 0 of the parent normal's mass",
        ),
        (
            ["train", "--tiny", "--episodes", "1", "--quiet"],
            {"MINISLOT_SCENARIO__FOV__PARENT_MEAN": "50"},
            "1000000 draws miss it with probability 1",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__CELL_RADIUS_M": "Infinity"},
            "need 1 <= min_distance_m <= cell_radius_m < inf, got [72.0, inf]",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__GRID__MU_MAX": "7"},
            "0 <= mu_min <= mu_max <= 6, got mu_min=1, mu_max=7",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__GRID__FRAME_DURATION_MS": "NaN"},
            "frame_duration_ms must be positive and finite, got nan",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__GRID__SYSTEM_BANDWIDTH_KHZ": "2.88e24"},
            "a 8000000000000000000000x16 lattice exceeds 4194304 cells",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__LINK__CARRIER_FREQUENCY_HZ": "0"},
            "carrier_frequency_hz must be positive and finite, got 0",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__LINK__NOISE_PSD_DBM_HZ": "-Infinity"},
            "noise_psd_dbm_hz must lie within ±300.0 dB, got -inf",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__FOV__MAX_DRAWS": "-5"},
            "FoV max_draws must be at least 1, got -5",
        ),
        (
            ["train", "--tiny", "--episodes", "1", "--quiet"],
            {"MINISLOT_REWARD__MAX_STEPS": "0"},
            "reward max_steps must be at least 1, got 0",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__QOE_A": "NaN"},
            "qoe_a must be finite, got nan",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__BT_COVERAGE_DEG2": "NaN"},
            "bt_coverage_deg2 must be positive and finite, got nan",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__ET_COVERAGE_DEG2": "Infinity"},
            "et_coverage_deg2 must be positive and finite, got inf",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__MIN_QOE": "[NaN,4.1]"},
            "min_qoe levels must be finite, got [nan, 4.1]",
        ),
        (
            ["baseline", "--tiny", "--trials", "1"],
            {"MINISLOT_SCENARIO__PEAK_FACTOR": "NaN"},
            "peak_factor must be finite, got nan",
        ),
        (
            ["train", "--tiny", "--episodes", "1", "--quiet"],
            {"MINISLOT_REWARD__QOE_WEIGHT": "NaN"},
            "reward qoe_weight must be finite, got nan",
        ),
        (
            ["train", "--tiny", "--episodes", "1", "--quiet"],
            {"MINISLOT_REWARD__DISCOUNT": "Infinity"},
            "reward discount must be finite, got inf",
        ),
        (
            ["baseline", "--trials", "2"],
            {"MINISLOT_SCENARIO__QOE_A": "1e308"},
            "trial 0 equal_bandwidth total QoE is inf",
        ),
        # user 127's enhancement cells would be painted code 256
        (
            ["train", "--tiny", "--episodes", "1", "--quiet"],
            {"MINISLOT_SCENARIO__N_UES": "128", "MINISLOT_SCENARIO__MIN_QOE": str([1.0] * 128)},
            "n_ues 128 exceeds 127",
        ),
    ],
)
def test_bad_scenario_overrides_fail_cleanly(argv, environ, message, tmp_path, monkeypatch, capsys):
    for name, value in environ.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


# ---------- generated inputs ----------


def _leaves(node, path=()):
    """Paths to the scalar and list leaves of a JSON tree (lists of objects
    are walked into)."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _get(node, path):
    for key in path:
        node = node[key]
    return node


with np.load(CHECKPOINT) as _archive:
    META = json.loads(bytes(_archive["__meta__"]).decode())
TINY = json.loads(json.dumps(to_dict(tiny_experiment())))  # tuples as lists
CONFIG_LEAVES = _leaves(TINY)
# the train case's base learns from 8 transitions on, so the few steps of
# its 3 episodes reach the learner
TINY_TRAIN = json.loads(json.dumps(TINY))
TINY_TRAIN["train"].update(batch_size=8, train_start_size=8)
META_LEAVES = _leaves(META)
OUT_OF_RANGE = [0, -1, 1.5, 10**30, math.nan, math.inf, -math.inf, None, True, "x", [], {}]


def _values(value):
    """A leaf's own value, a nearby one, or one of ``OUT_OF_RANGE``.  No
    nearby value is far from the original, so the work stays small."""
    if isinstance(value, bool) or value is None:
        nearby = [not value]
    elif isinstance(value, int):
        nearby = [value - 1, value + 1, 2 * value, value // 2]
    elif isinstance(value, float):
        nearby = [0.5 * value, 0.9 * value, 1.1 * value, 2.0 * value, -value]
    elif isinstance(value, list):
        nearby = [value[:1], value + value[:1], value[::-1], [2 * v for v in value]]
    else:
        nearby = [value + "x"]
    return st.sampled_from([value, *nearby, *OUT_OF_RANGE])


@st.composite
def _config_cases(draw):
    """A tiny experiment with one leaf changed, run through baseline or
    train: (what was drawn, a function that writes the inputs into a
    directory and returns the command line)."""
    command = draw(st.sampled_from([
        ["baseline", "--trials", "2"],
        ["train", "--episodes", "3", "--quiet"],
    ]))
    base = TINY_TRAIN if command[0] == "train" else TINY
    path = draw(st.sampled_from(CONFIG_LEAVES))
    value = draw(_values(_get(base, path)))

    def setup(tmp: Path) -> list[str]:
        config = json.loads(json.dumps(base))
        _set_leaf(list(path), value)(config)
        (tmp / "experiment.json").write_text(json.dumps(config))
        return command + ["--config", str(tmp / "experiment.json")]

    return f"{command[0]} with {'.'.join(map(str, path))} = {value!r}", setup


@st.composite
def _checkpoint_cases(draw):
    """The fixed checkpoint truncated, with one byte flipped, or with one
    metadata leaf changed or dropped, run through eval; drawn as by
    ``_config_cases``."""
    data = CHECKPOINT.read_bytes()
    kind = draw(st.sampled_from(["truncated", "flipped", "metadata"]))
    if kind == "truncated":
        size = draw(st.integers(0, len(data) - 1))
        label, data = f"checkpoint truncated to {size} bytes", data[:size]
    elif kind == "flipped":
        at, mask = draw(st.integers(0, len(data) - 1)), draw(st.integers(1, 255))
        label = f"checkpoint byte {at} xor {mask}"
        data = data[:at] + bytes([data[at] ^ mask]) + data[at + 1 :]
    else:
        path = draw(st.sampled_from(META_LEAVES))
        value = draw(st.just(_DROP) | _values(_get(META, path)))
        change = "dropped" if value is _DROP else f"= {value!r}"
        label = f"checkpoint metadata {'.'.join(map(str, path))} {change}"
        data = _with_meta(_set_leaf(list(path), value))(data)

    def setup(tmp: Path) -> list[str]:
        (tmp / "policy.npz").write_bytes(data)
        return ["eval", "--trials", "1", "--methods", "dqn", "--checkpoint", str(tmp / "policy.npz")]

    return label, setup


def _check_outputs(argv: list[str], out: Path) -> None:
    """What a run that exits 0 leaves behind."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"].startswith(f"minislot {argv[0]}")
    if argv[0] == "train":
        with open(out / "training.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == int(argv[2])
        for row in rows:
            assert math.isfinite(float(row["total_reward"])), row
            assert math.isfinite(float(row["moving_avg_reward"])), row
        _, params, _ = load_checkpoint(out / "checkpoint.npz")
        assert all(np.isfinite(value).all() for value in params.values())
    else:
        with open(out / "eval.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (2 * 2 if argv[0] == "baseline" else 1)
        for row in rows:
            assert math.isfinite(float(row["total_qoe"])), row
            assert all(math.isfinite(float(q)) for q in row["per_ue_qoe"].split(";")), row


@settings(max_examples=500, deadline=None, database=None)
@given(case=st.one_of(_config_cases(), _checkpoint_cases()))
def test_generated_inputs_run_or_fail_cleanly(case):
    """A config leaf or a checkpoint changed anyhow: the run either exits 0
    with well-formed outputs, or exits 1 with one ``error:`` line and no
    output directory, never a traceback."""
    _, setup = case  # the label shows in a failing example
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = setup(tmp)
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(out)])
        if code == 0:
            _check_outputs(argv, out)
        else:
            assert code == 1
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert not out.exists()
