"""Spans recorded from outside the qtweave package.

A traced pass replaces public functions of the package modules with wrappers
that record one span per call: (name, start, end, parent).  The wrappers also
count work units computed from the call's inputs, so a count means the same
thing before and after any change inside the package.  Spans stay in memory
and are written out once, when the workload ends.

Only module attributes are replaced, so a call is traced when the caller looks
the function up through its module (``construction.build_two_weight``), which
is how both ``workload.py`` and ``qtweave.cli`` call them.  Work inside
``polynomial`` and ``twist_ring`` is reached only through ``simplex_*`` and
``build_*`` and is therefore counted under ``construction``.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from qtweave import analysis, construction, fields


# Work counted per span name, in these units; the counter for a call returns
# one value per unit, computed from the call's inputs.
WORK_UNITS = {
    "construction.simplex": ("symbols",),
    "construction.build": ("cells",),
    "analysis.spectrum": ("messages", "symbols"),
    "analysis.projective": ("codes",),
}


def _simplex_work(args, result):
    field, t = args[0], args[1]
    m = (field.q**t - 1) // (field.q - 1)
    return (field.q**t * m,)


def _build_work(args, result):
    code, _ = result
    return (code.n * code.k,)


def _spectrum_work(args, result):
    field, rows = args[0], args[1]
    messages = field.q ** len(rows)
    return (messages, len(rows[0]) * messages)


def _projective_work(args, result):
    return (int(result),)


# (module, attribute, span name, work counter)
TRACED_CALLS = (
    (fields, "field_from_order", "fields.field_from_order", None),
    (construction, "simplex_consta", "construction.simplex", _simplex_work),
    (construction, "simplex_cyclic", "construction.simplex", _simplex_work),
    (construction, "build_two_weight", "construction.build", _build_work),
    (construction, "build_qt_simplex", "construction.build", _build_work),
    # weight_distribution delegates to weight_distribution_of_rows through the
    # module global, so wrapping the latter covers both entry points once.
    (analysis, "weight_distribution_of_rows", "analysis.spectrum", _spectrum_work),
    (analysis, "verify_two_weight", "analysis.checks", None),
    (analysis, "expected_counts", "analysis.checks", None),
    (analysis, "griesmer_report", "analysis.checks", None),
    (analysis, "mean_weight_identity_holds", "analysis.checks", None),
    (analysis, "is_projective", "analysis.projective", _projective_work),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TRACED_CALLS))


class Tracer:
    """In-memory span recorder; the layer of a span is its name up to the first dot."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1, work counts]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1, {}])
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def _wrap(self, fn, name, work):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if work is not None:
                record[4] = dict(zip(WORK_UNITS[name], work(args, result)))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Route the package's public calls through span wrappers for the duration."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TRACED_CALLS]
        try:
            for (mod, attr, name, work), (_, _, fn) in zip(TRACED_CALLS, originals):
                setattr(mod, attr, self._wrap(fn, name, work))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def summary(self, root: int) -> dict:
        """Totals over the subtree of one root span.

        Returns inclusive seconds and calls per span name, work counts per
        ``<span name>_<unit>``, and self seconds per layer.  Self time is a
        span's duration minus the time its child spans cover, so the layer
        self times add up to the root span's duration by construction.
        """
        children_time = Counter()
        inclusive, calls, work, self_time = Counter(), Counter(), Counter(), Counter()
        members = [root]
        for idx in range(root + 1, len(self.spans)):
            if self.spans[idx][3] < root:
                break
            members.append(idx)
        for idx in members:
            name, start, end, parent, _ = self.spans[idx]
            if idx != root:
                children_time[parent] += end - start
        for idx in members:
            name, start, end, _, counts = self.spans[idx]
            inclusive[name] += end - start
            calls[name] += 1
            self_time[name.split(".", 1)[0]] += (end - start) - children_time[idx]
            for unit, value in counts.items():
                work[f"{name}_{unit}"] += value
        return {"inclusive": inclusive, "calls": calls, "work": work, "self": self_time}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "work"],
                       "spans": self.spans}, fh)
