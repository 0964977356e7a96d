"""Smoke check of the benchmark itself, not a timing gate.

    python3 perfbench/smoke.py

Runs every workload at its ``--smoke`` size, untraced and traced, and passes
when each run exits 0 with its correctness checks passed, no failed
operation, and exactly the metrics BENCHMARK.json declares.  It also checks
that the benchmark refuses to run, printing no result, from a copy that holds
only BENCHMARK.json and perfbench/ (no program to measure).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no result (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            problems = []
            if proc.returncode != 0 or result["correct"] is not True:
                problems.append(f"exit {proc.returncode}, correct {result['correct']}")
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
            if list(result["metrics"]) != [m["name"] for m in spec[kind]]:
                problems.append(f"metrics {list(result['metrics'])} != BENCHMARK.json {kind}")
            print(f"{'FAIL' if problems else 'ok  '} {label}: {'; '.join(problems)}")
            failures += [f"{label}: {p}" for p in problems]

    bare = BENCH_DIR / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if refused else 'FAIL'} refuses without the program: exit {proc.returncode}")
    if not refused:
        failures.append("ran without the program under src/")
    shutil.rmtree(bare)

    for f in failures:
        print(f"FAILED: {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
