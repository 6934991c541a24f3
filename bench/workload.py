"""One workload of the qtweave benchmark, in its own process.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        [--wrong-expectation]

``bench/run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  It repeats whole passes over the workload while they fit in
``--seconds`` seconds, at least two of them, and prints one JSON object:
the wall time of each untraced pass, peak memory, the verification tallies
and either, with ``--trace 0``, the normalized wall and per-code times of
each pass and the reference kernel's unit times they were scaled by (see
``Segments`` and ``reference.py``) or, with ``--trace 1``, the per-layer
figures of the traced passes.  A per-code time runs from the
``build_*`` call to the projectivity verdict; on the ``cli`` workload it is
one ``export --roundtrip`` command, the only command there that verifies a
single code.

The library workloads make the public calls in the order ``qtweave analyze``
makes them: field_from_order, simplex_*, build_*, weight_distribution, the
spectrum checks, then is_projective.  Every code is verified against
expectations the benchmark derives itself from (q, t, p), not against
anything the library reports about them.  ``--wrong-expectation`` shifts one
expected value so that every verification must fail; ``bench/selfcheck.py``
uses it to show that the gate can fail.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import qtweave
from qtweave import analysis, cli, construction, fields

from reference import reference_block, scale
from spans import SPAN_NAMES, WORK_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# (q, t, cyclic base)
SWEEP_FAMILIES = (
    (2, 3, False), (2, 4, False), (2, 5, False), (3, 2, False), (3, 3, False),
    (3, 3, True), (4, 2, False), (5, 2, False), (7, 2, False), (8, 2, False),
    (9, 2, False),
)
CLI_EXPORT = (3, 4, 81)  # q, t, p of the exported code
CLI_SPANS = ("cli.table1", "cli.examples", "cli.export_json", "cli.export_text")
# A traced run needs an untraced and a traced pass.
MIN_PASSES = 2
# A pass is cut into segments at the first code or command boundary after
# this much work.  Untraced runs time the reference kernel before the first
# segment and after every segment, at least one unit and this share of the
# segment's time.  The machine's speed can flip within a second, so the
# segments are short.
SEGMENT_MIN_S = 0.2
REFERENCE_SHARE = 0.25


def _seeded_selection(rng: random.Random, q: int, t: int, p: int):
    """p - 1 distinct (scale, shift) pairs drawn from all (q - 1) * m of them."""
    m = (q**t - 1) // (q - 1)
    pairs = [(i, j) for i in range(1, q) for j in range(m)]
    return tuple(rng.sample(pairs, p - 1))


def library_plan(workload: str, rng: random.Random):
    """Families as (q, t, cyclic, codes); a code is (p, selection), p None for qt-simplex."""
    if workload == "deep":
        families = [(2, 9, False, [3])]
    elif workload == "wide":
        # p=64, not the ROADMAP grid point p=256: a p=256 pass is one 10-13 s
        # enumeration, too long for the reference kernel around it to tell
        # the machine's speed during it (see reference.py).  n/k and the
        # build-to-spectrum ratio are the same at p=64.
        families = [(4, 4, False, [64])]
    else:
        families = [(q, t, cyclic, [*range(2, q**t + 1), None]) for q, t, cyclic in SWEEP_FAMILIES]
    return [
        (q, t, cyclic,
         [(p, None if p is None else _seeded_selection(rng, q, t, p)) for p in block_counts])
        for q, t, cyclic, block_counts in families
    ]


def cli_plan(rng: random.Random):
    """(span name, argv, output file or None) for each in-process cli.main call."""
    q, t, p = CLI_EXPORT
    selection = ",".join(f"{i}:{j}" for i, j in _seeded_selection(rng, q, t, p))
    table1, examples, export_json, export_text = CLI_SPANS
    commands = [(table1, ["table1"], None), (examples, ["examples"], None)]
    for name, fmt, suffix in ((export_json, "json", "json"), (export_text, "text", "txt")):
        path = OUT / f"export.{suffix}"
        argv = ["export", "--q", str(q), "--t", str(t), "--p", str(p), "--selection", selection,
                "--format", fmt, "--output", str(path), "--roundtrip"]
        commands.append((name, argv, path))
    return commands


def _verified(q, t, p, code, G, W, offset) -> bool:
    """Run the analysis calls on one code and compare with the expected values."""
    unit = q ** (t - 1)
    if p is None:
        weights_ok = W.nonzero_weights() == (q ** (2 * t - 1) + offset,)
        spectrum_ok = True
    else:
        w1, w2 = (p - 1) * unit, p * unit + offset
        weights_ok = W.nonzero_weights() == (w1, w2)
        verdict = analysis.verify_two_weight(W, code)
        counts = analysis.expected_counts(code)
        spectrum_ok = verdict.ok and counts == (W.counts.get(w1, 0), W.counts.get(w2, 0))
    report = analysis.griesmer_report(code, W)
    mean_ok = analysis.mean_weight_identity_holds(W)
    # Every code of this family is projective: distinct simplex codewords
    # never agree on a whole column of their t shifts.
    projective = analysis.is_projective(G)
    return (weights_ok and spectrum_ok and report.gap_match and mean_ok
            and W.total() == q ** (2 * t) and projective)


class Segments:
    """Cuts the passes of a run into segments, with reference blocks between them.

    A pass calls ``item_done`` after each code or command.  A segment ends
    at the first such boundary after ``SEGMENT_MIN_S`` of work, and at the
    end of the pass.  With ``reference`` set, the reference kernel is timed
    before the first segment and after every segment, and a segment's times
    are normalized by the blocks on either side of it (``reference.scale``).
    """

    def __init__(self, reference: bool):
        self.reference = reference
        self.references = []
        if reference:
            reference_block(0)  # warm-up, not used: the first units of a process run slow
            self.references.append(reference_block(0))

    def begin_pass(self, code_times: list) -> None:
        self.code_times = code_times
        self.segments = []  # (seconds, first code, end code, index of the reference before)
        self._open()

    def _open(self) -> None:
        self.items = 0
        self.first_code = len(self.code_times)
        self.start = perf_counter()

    def _close(self) -> None:
        elapsed = perf_counter() - self.start
        self.segments.append(
            (elapsed, self.first_code, len(self.code_times), len(self.references) - 1))
        if self.reference:
            self.references.append(reference_block(REFERENCE_SHARE * elapsed, min_units=1))
        self._open()

    def item_done(self) -> None:
        self.items += 1
        if perf_counter() - self.start >= SEGMENT_MIN_S:
            self._close()

    def end_pass(self) -> tuple[float, float | None, list[float] | None]:
        """Close the pass and return its wall time and its normalized wall and code times.

        Normalized figures are None without ``reference``.  Time spent on the
        reference kernel is not part of any of them.
        """
        if self.items:
            self._close()
        wall = sum(seconds for seconds, _, _, _ in self.segments)
        if not self.reference:
            return wall, None, None
        norm_wall, norm_codes = 0.0, []
        for seconds, first, end, ref in self.segments:
            factor = scale(self.references[ref], self.references[ref + 1])
            norm_wall += seconds * factor
            norm_codes += [t * factor for t in self.code_times[first:end]]
        return wall, norm_wall, norm_codes


def library_pass(plan, offset, code_times, errors, item_done) -> tuple[int, int]:
    attempted = failed = 0
    for q, t, cyclic, codes in plan:
        try:
            field = fields.field_from_order(q)
            make = construction.simplex_cyclic if cyclic else construction.simplex_consta
            simplex = make(field, t)
        except Exception as exc:  # a broken family fails all of its codes
            attempted += len(codes)
            failed += len(codes)
            errors.append(f"q={q} t={t}: {exc!r}")
            item_done()
            continue
        for p, selection in codes:
            attempted += 1
            start = perf_counter()
            try:
                if p is None:
                    code, G = construction.build_qt_simplex(simplex)
                else:
                    code, G = construction.build_two_weight(simplex, p, selection=selection)
                W = analysis.weight_distribution(G)
                problem = None if _verified(q, t, p, code, G, W, offset) else "mismatch"
            except Exception as exc:
                problem = repr(exc)
            code_times.append(perf_counter() - start)
            if problem is not None:
                failed += 1
                errors.append(f"q={q} t={t} p={p}: {problem}")
            item_done()
    return attempted, failed


def cli_pass(commands, offset, tracer, code_times, errors, sizes, item_done) -> tuple[int, int]:
    failed = 0
    expected_status = cli.EXIT_OK + offset
    for name, argv, path in commands:
        sink = io.StringIO()
        start = perf_counter()
        span = tracer.span(name) if tracer else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                status = cli.main(argv)
            except Exception as exc:
                status = repr(exc)
        if path is not None:  # an export verifies one code: build, enumerate, write, re-import
            code_times.append(perf_counter() - start)
            sizes[name] = path.stat().st_size if path.exists() else 0
        if status != expected_status:
            failed += 1
            errors.append(f"{name}: status {status}, expected {expected_status}: "
                          f"{sink.getvalue()[-300:]!r}")
        item_done()
    return len(commands), failed


def layer_metrics(summaries, export_bytes, untraced_walls) -> tuple[dict, list]:
    """Per-layer figures: medians of times over traced passes, counts that must not vary.

    Keys are ``<span>_s`` for every span, ``<span>_calls`` for every wrapped
    library call, ``<span>_<unit>`` for the work counts and ``<layer>.share``
    for every layer, the benchmark's own ``bench`` included.
    """
    span_names = SPAN_NAMES + CLI_SPANS
    layers = tuple(dict.fromkeys(name.split(".", 1)[0] for name in span_names)) + ("bench",)
    problems = []
    out = {}
    for name in span_names:
        out[f"{name}_s"] = statistics.median(s["inclusive"][name] for s in summaries)
    counts = {f"{name}_calls": [s["calls"][name] for s in summaries] for name in SPAN_NAMES}
    counts.update({key: [s["work"][key] for s in summaries]
                   for key in (f"{name}_{unit}" for name, units in WORK_UNITS.items()
                               for unit in units)})
    for metric, values in counts.items():
        if len(set(values)) != 1:
            problems.append(f"{metric} differs between traced passes: {values}")
        out[metric] = values[0]
    out["analysis.spectrum_symbols_per_s"] = (
        out["analysis.spectrum_symbols"] / out["analysis.spectrum_s"])
    out["cli.export_bytes"] = sum(export_bytes.values())
    for layer in layers:
        out[f"{layer}.share"] = statistics.median(s["self"][layer] / s["wall"] for s in summaries)
    # Measured, not normalized: the fastest pass on both sides.  Passes
    # vary by more than the spans cost, so the difference is noise-bound and
    # can come out negative.
    out["trace.wall_s"] = min(s["wall"] for s in summaries)
    out["trace.overhead_s"] = out["trace.wall_s"] - min(untraced_walls)
    return out, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["sweep", "deep", "wide", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--wrong-expectation", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(qtweave.__file__).resolve().parents:
        print(f"qtweave was imported from {qtweave.__file__}, not from {src}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    rng = random.Random(f"{args.workload}/{args.seed}")
    offset = 1 if args.wrong_expectation else 0
    is_cli = args.workload == "cli"
    plan = cli_plan(rng) if is_cli else library_plan(args.workload, rng)

    tracer = Tracer() if args.trace else None
    segments = Segments(reference=tracer is None)
    walls, traced_roots, errors, export_bytes = [], [], [], {}
    norm_walls, norm_codes = [], []
    attempted = failed = 0
    deadline = perf_counter() + args.seconds
    longest = 0.0
    while True:
        # Traced runs alternate untraced and traced passes, untraced first.
        traced = tracer is not None and (len(walls) + len(traced_roots)) % 2 == 1
        pass_times = []
        start = perf_counter()
        segments.begin_pass(pass_times)
        run_pass = ((lambda: cli_pass(plan, offset, tracer if traced else None, pass_times,
                                      errors, export_bytes, segments.item_done))
                    if is_cli else
                    (lambda: library_pass(plan, offset, pass_times, errors, segments.item_done)))
        if traced:
            root_idx = len(tracer.spans)
            with tracer.installed(), tracer.span("bench.pass"):
                a, f = run_pass()
            traced_roots.append(root_idx)
        else:
            a, f = run_pass()
        wall, norm_wall, norm_pass_codes = segments.end_pass()
        attempted, failed = attempted + a, failed + f
        if not traced:
            walls.append(wall)
        if norm_wall is not None:
            norm_walls.append(norm_wall)
            norm_codes.append(norm_pass_codes)
        longest = max(longest, perf_counter() - start)
        # Start another pass only if even the longest so far would end in time.
        if len(walls) + len(traced_roots) >= MIN_PASSES and perf_counter() + longest > deadline:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "wall_s": walls,
        "wall_norm_s": norm_walls,
        "code_norm_s": norm_codes,
        "reference_s": [statistics.fmean(block) for block in segments.references],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "errors": errors[:20],
    }
    if tracer is not None:
        summaries = []
        for idx in traced_roots:
            summary = tracer.summary(idx)
            summary["wall"] = tracer.spans[idx][2] - tracer.spans[idx][1]
            summaries.append(summary)
        result["layers"], result["trace_problems"] = layer_metrics(
            summaries, export_bytes, walls)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
