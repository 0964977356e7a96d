"""One trained result at any BLAS thread count.

Two short default-geometry trainings, one with the BLAS pinned to one
thread and one to two, must write the same bytes.  The thread count is
read when numpy loads, so each training runs in its own interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

from minislot.runner import BLAS_THREAD_VARIABLES

SRC = Path(__file__).parents[1] / "src"


def _train(out: Path, threads: int) -> None:
    env = dict(os.environ)
    env.update({name: str(threads) for name in BLAS_THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["MINISLOT_TRAIN__TRAIN_START_SIZE"] = "32"  # the learner runs from step 32
    argv = ["train", "--episodes", "4", "--seed", "1", "--quiet", "--out", str(out)]
    subprocess.run(
        [sys.executable, "-m", "minislot.cli", *argv],
        env=env, check=True, capture_output=True, timeout=300,
    )


def test_training_is_the_same_at_one_and_two_blas_threads(tmp_path):
    for threads in (1, 2):
        _train(tmp_path / str(threads), threads)
    for name in ("training.csv", "checkpoint.npz"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
