"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/proof.py [--workload NAME ...] [--seeds 301-310] [--seconds S]
        [--traced-seed N] [--out FILE]

For each workload this runs ``run.py --trace 0`` once per seed, one run after
another, and prints every end-to-end metric's median and spread: the
distance between the first and third quartile (``statistics.quantiles(values,
n=4)``) over the median.  The spread must stay within a third of the metric's
bound in ``BENCHMARK.json`` for the benchmark to tell a change from noise;
lines past that are marked.  The median measured pass and reference unit
time, which are not metrics, are listed too, to show what normalizing
removes.  With ``--traced-seed`` a ``--trace 1`` run is
added per workload.  ``--out`` writes everything as JSON (the form of
``baseline.json``).  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    metrics = json.loads(lines[-1])["metrics"]
    if not trace:  # the measured figures behind the normalized ones, for comparison
        measured = next(line for line in lines if "] measured: " in line).split()
        metrics["measured_pass_s"] = {"value": float(measured[4]), "unit": "s"}
        metrics["reference_unit_s"] = {"value": float(measured[9]), "unit": "s"}
    return metrics


def spreads(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0].items():
        values = [r[name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"value": median, "unit": first["unit"], "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", nargs="*", default=["sweep", "deep", "wide", "cli"])
    ap.add_argument("--seeds", default="301-310", help="a range such as 301-310")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--traced-seed", type=int)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    result = {"end_to_end": {}, "per_layer": {}}
    for workload in args.workload:
        metrics = spreads([run(workload, seed, args.seconds, 0) for seed in seeds])
        result["end_to_end"][workload] = {"seeds": seeds, "metrics": metrics}
        for name, m in metrics.items():
            bound = BOUNDS.get(name)
            mark = ("" if bound is None or m["spread"] <= bound / 3
                    else "  <-- above a third of the bound")
            print(f"{workload:6} {name:16} median {m['value']:.6g} {m['unit']:5} "
                  f"spread {m['spread']:.3f} (bound {bound}){mark}", flush=True)
        if args.traced_seed is not None:
            result["per_layer"][workload] = run(workload, args.traced_seed, args.seconds, 1)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
