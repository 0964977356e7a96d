"""Golden artifacts: the bytes four commands write, pinned across commits.

Criterion 9 checks that one tree repeats itself; these tests check that a
change to the program keeps what it writes.  Each runs one command and
compares the SHA-256 of every artifact it writes, and for the oracle the
manifest's search counts, with the values pinned here.

``oracle.csv`` and the oracle's counts make no matrix product, so they hold
on every build.  The trained files and ``eval.csv``'s dqn rows depend on the
Python, numpy and BLAS builds (not on the BLAS thread count), so their
hashes are keyed on the build the manifest records.  On a build with no
entry those tests fail and name it: add its hashes once they are checked
against a build that has one.

A change that means to alter a written byte edits the hash here and says
why in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from minislot.cli import main
from minislot.runner import _numeric_build

CHECKPOINT = Path(__file__).parents[1] / "perfbench" / "checkpoints" / "default-60ep-seed0.npz"

COMMANDS = {
    "oracle": ["oracle", "--tiny", "--trials", "20"],
    "eval": ["eval", "--checkpoint", str(CHECKPOINT), "--trials", "50"],
    "train-tiny": ["train", "--tiny", "--episodes", "60", "--seed", "11", "--quiet"],
    "train-default": ["train", "--episodes", "4", "--seed", "3", "--quiet"],
}

ORACLE_CSV = "141eb88a1079d9f12d1066bde30793839551a5edaa9403c265f9ba8bb637f9da"
ORACLE_COUNTS = {
    "oracle_nodes": [
        3812, 4199, 615, 615, 615, 3503, 3812, 3812, 20361, 3812,
        3812, 3503, 20361, 3503, 20361, 615, 615, 3503, 3812, 3503,
    ],
    "oracle_repeats": [
        1792, 1953, 251, 251, 251, 1873, 1792, 1792, 11250, 1792,
        1792, 1873, 11250, 1873, 11249, 251, 251, 1873, 1792, 1873,
    ],
    "oracle_prunes": [
        441, 445, 114, 114, 114, 152, 441, 441, 570, 441,
        441, 152, 570, 152, 570, 114, 114, 152, 441, 152,
    ],
}

# (python, numpy, BLAS name, BLAS version) -> command -> file -> SHA-256
BUILD_HASHES = {
    ("3.11.7", "2.4.6", "scipy-openblas", "0.3.31.188.0"): {
        "eval": {
            "eval.csv": "11d37e5d09f89318d280c7f732b1ff80484615085abf2df7446d68838aa0931c",
        },
        "train-tiny": {
            "training.csv": "85809523e155e2c1c5ccc81ded8abce8e287b234e89f724084f82f31590ad546",
            "checkpoint.npz": "4efc7bcaf5dd8558ee879a95ff42479665bec87ec59b1caf877cced092a10046",
        },
        "train-default": {
            "training.csv": "8c274fc27561e6584c028e8c1a6d9c048ccab3a07577fa56b708e2d73c8fb8b9",
            "checkpoint.npz": "0eeb859fe20a550b043f158fc9821a7b0d65ca4179daec34e1011b14c88a4a31",
        },
    },
}


def build_key() -> tuple[str, str, str, str]:
    """What trained bits depend on, as the manifest records it."""
    build = _numeric_build()
    return build["python"], build["numpy"], build["blas"]["name"], build["blas"]["version"]


def run(command: str, out: Path, *options: str) -> dict[str, str]:
    """Run one command, with any further ``options``, into ``out``; the
    SHA-256 of each file but the manifest."""
    assert main(COMMANDS[command] + [*options, "--out", str(out)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_oracle_artifacts_are_pinned(jobs, tmp_path):
    """The same bytes and counts searched in process and by a pool."""
    assert run("oracle", tmp_path, "--jobs", str(jobs)) == {"oracle.csv": ORACLE_CSV}
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {name: manifest[name] for name in ORACLE_COUNTS} == ORACLE_COUNTS


@pytest.mark.parametrize("command", ["eval", "train-tiny", "train-default"])
def test_build_dependent_artifacts_are_pinned(command, tmp_path):
    key = build_key()
    if key not in BUILD_HASHES:
        pytest.fail(
            f"no golden hashes for build (python, numpy, BLAS name, BLAS version) = {key}; "
            f"known builds: {sorted(BUILD_HASHES)}"
        )
    assert run(command, tmp_path) == BUILD_HASHES[key][command]
