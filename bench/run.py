"""qtweave benchmark: time to a fully verified code.

    python3 bench/run.py [--workload sweep|deep|wide|cli] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--workload`` the script runs
that workload in a fresh single-threaded process and prints every metric by
name and unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (spans are written to
``.bench_out/trace-<workload>-<seed>.json``).  Without ``--workload`` every
workload runs in turn and the JSON metrics are keyed ``<workload>.<metric>``.
The exit status is 1 when any verification fails and 2 when the benchmark
cannot run at all, for example when ``src/qtweave`` is missing.

Every end-to-end time is normalized: the reference kernel of
``reference.py`` is timed in alternation with the work, and each measured
time is scaled by ``REFERENCE_UNIT_S`` over the kernel's unit time around it,
so that a slow phase of the shared machine cancels out.  ``setup_s`` is the
median normalized time of ``import qtweave`` over fresh processes, after one
untimed import that leaves the bytecode cache warm.  ``wall_norm_s`` is the
median normalized pass; ``code_norm_s_p50`` and ``code_norm_s_p90`` are taken
over the codes of a pass, each code at its median normalized time in the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from reference import reference_block, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "deep", "wide", "cli")
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qtweave; "
    "print(repr(time.perf_counter() - t))"
)



class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and the per-layer metrics, as BENCHMARK.json names them."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return tuple({m["name"]: m["unit"] for m in spec[key]}
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read the metric list from BENCHMARK.json: {exc!r}") from exc


def named(values: dict, units: dict) -> dict:
    """The measured values as metrics; they must be exactly the metrics BENCHMARK.json lists."""
    if values.keys() != units.keys():
        raise BenchError(f"metrics differ from BENCHMARK.json: measured but not listed "
                         f"{sorted(values.keys() - units.keys())}, listed but not measured "
                         f"{sorted(units.keys() - values.keys())}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def setup_seconds(count: int) -> float:
    """Median normalized ``import qtweave`` time over ``count`` fresh processes.

    Each import time is normalized by the reference blocks timed just before
    and just after it.
    """
    reference_block(0)  # warm-up, not used: the first units of a process run slow
    times, references = [], [reference_block(0)]
    for _ in range(count):
        times.append(float(run_child(["-c", IMPORT_PROBE]).stdout))
        references.append(reference_block(0))
    return statistics.median(t * scale(before, after)
                             for t, before, after in zip(times, references, references[1:]))


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 wrong_expectation: bool = False) -> dict:
    """One workload in its own process; returns its result as main prints it."""
    end_to_end_units, layer_units = metric_units()
    argv = [str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if wrong_expectation:
        argv.append("--wrong-expectation")
    if not trace:
        run_child(["-c", IMPORT_PROBE])  # fills the bytecode cache; not timed
        setup = setup_seconds(SETUP_SAMPLES)
    raw = json.loads(run_child(argv).stdout.strip().splitlines()[-1])

    for line in raw["errors"]:
        print(f"[{name}] FAILED {line}", file=sys.stderr)
    correct = raw["failed"] == 0
    if trace:
        for line in raw["trace_problems"]:
            print(f"[{name}] TRACE {line}", file=sys.stderr)
        correct = correct and not raw["trace_problems"]
        metrics = named(raw["layers"], layer_units)
    else:
        # Each code at its median normalized time over the run's passes.
        codes = [statistics.median(times) for times in zip(*raw["code_norm_s"])]
        p90 = (statistics.quantiles(codes, n=10, method="inclusive")[8]
               if len(codes) > 1 else codes[0])
        values = {
            "setup_s": setup,
            "wall_norm_s": statistics.median(raw["wall_norm_s"]),
            "code_norm_s_p50": statistics.median(codes),
            "code_norm_s_p90": p90,
            "peak_rss_mb": raw["peak_rss_mb"],
            "verified_frac": (raw["attempted"] - raw["failed"]) / raw["attempted"],
        }
        metrics = named(values, end_to_end_units)
        print(f"[{name}] passes={len(raw['wall_s'])} codes={len(codes)} "
              f"samples_beyond_p90={sum(c > p90 for c in codes)} "
              f"setup_samples={SETUP_SAMPLES} failed_frac={raw['failed'] / raw['attempted']}")
        print(f"[{name}] measured: median pass {statistics.median(raw['wall_s'])} s, "
              f"median reference unit {statistics.median(raw['reference_s'])} s")
    for key, metric in metrics.items():
        print(f"[{name}] {key} {metric['value']} {metric['unit']}")
    return {"correct": correct, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all of them, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--wrong-expectation", action="store_true",
                    help="deliberately expect a wrong weight or exit status (self-check)")
    args = ap.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                      args.wrong_expectation) for name in names}
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        out = results[args.workload]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
