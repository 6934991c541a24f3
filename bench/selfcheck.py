"""Self-check of the benchmark's gates.

    python3 bench/selfcheck.py [--workload NAME ...]

For each workload, with the shortest runs the benchmark allows:

1. a plain run must verify every code or command and exit 0;
2. a run with a deliberately wrong expectation must report failures
   (failed_frac > 0, "correct": false) and exit 1;
3. traced runs with two different seeds must report the same work counts.

Exits 0 when every check holds and prints one line per failed check otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("sweep", "deep", "wide", "cli")


def bench(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, str(RUN), "--seconds", "0", *args],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def check(workload: str) -> list[str]:
    problems = []
    status, out = bench("--workload", workload, "--seed", "1")
    if status != 0 or not out or not out["correct"] or out["failed"]:
        problems.append(f"{workload}: plain run failed (exit {status}): {out}")

    status, out = bench("--workload", workload, "--seed", "1", "--wrong-expectation")
    if status != 1 or not out or out["correct"] or not out["failed"]:
        problems.append(f"{workload}: a wrong expectation was not caught (exit {status}): {out}")

    counts = []
    for seed in ("1", "2"):
        status, out = bench("--workload", workload, "--seed", seed, "--trace", "1")
        if status != 0 or not out:
            problems.append(f"{workload}: traced run with seed {seed} failed (exit {status})")
            return problems
        counts.append({k: m["value"] for k, m in out["metrics"].items() if m["unit"] == "count"})
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
        problems.append(f"{workload}: work counts differ between seeds: {diff}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    problems = [p for name in args.workload for p in check(name)]
    for line in problems:
        print(line)
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
