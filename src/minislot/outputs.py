"""CSV and manifest writers for experiment runs.

All files are written atomically (temp file in the destination directory,
then rename) and floats are formatted with ``%.10g``: ten significant
digits, which do not round-trip every float64, but are the same text
for the same bits, so two runs with the same seed produce byte-identical
artifacts.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from collections.abc import Iterable, Sequence

import numpy as np

TRAINING_COLUMNS = (
    "episode",
    "total_reward",
    "moving_avg_reward",
    "steps",
    "served_pct",
    "total_qoe",
    "epsilon",
)
EVAL_COLUMNS = ("trial", "method", "total_qoe", "served_count", "per_ue_qoe")
MOVING_AVERAGE_WINDOW = 50


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


def _atomic_write(path, write_body) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write_body(fh)
        os.chmod(tmp, 0o644)  # mkstemp defaults to owner-only
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def moving_average(values: Sequence[float], window: int = MOVING_AVERAGE_WINDOW) -> list[float]:
    """Trailing mean over the last ``window`` points (fewer at the start)."""
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def write_training_csv(path, metrics) -> None:
    averages = moving_average([m.total_reward for m in metrics])

    def body(fh):
        writer = csv.writer(fh)
        writer.writerow(TRAINING_COLUMNS)
        for m, avg in zip(metrics, averages):
            writer.writerow(
                [
                    fmt(m.episode),
                    fmt(m.total_reward),
                    fmt(avg),
                    fmt(m.steps),
                    fmt(100.0 * m.served_count / m.n_ues),
                    fmt(m.total_qoe),
                    fmt(m.epsilon),
                ]
            )

    _atomic_write(path, body)


def write_eval_csv(path, rows: Iterable[dict]) -> None:
    """Rows need keys matching EVAL_COLUMNS; per_ue_qoe is a sequence."""

    def body(fh):
        writer = csv.writer(fh)
        writer.writerow(EVAL_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    fmt(row["trial"]),
                    str(row["method"]),
                    fmt(row["total_qoe"]),
                    fmt(row["served_count"]),
                    ";".join(fmt(float(q)) for q in row["per_ue_qoe"]),
                ]
            )

    _atomic_write(path, body)


def write_manifest(path, payload: dict) -> None:
    def body(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    _atomic_write(path, body)
