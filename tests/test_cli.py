import json
import os
from dataclasses import replace

import pytest

from minislot.agent import TrainConfig
from minislot.cli import build_parser, main
from minislot.config import save_config, tiny_experiment


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


def test_train_writes_artifacts(trained, capsys):
    assert sorted(os.listdir(trained)) == ["checkpoint.npz", "manifest.json", "training.csv"]
    manifest = json.loads((trained / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["command"].startswith("minislot train")
    assert manifest["config"]["train"]["episodes"] == 40
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
