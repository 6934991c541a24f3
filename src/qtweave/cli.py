"""Command-line front end.

Subcommands: construct, analyze, table1, examples, search-primitive, export.
Every command is deterministic given its flags.  Exit codes: 0 success,
1 verification mismatch, 2 invalid input, 3 enumeration budget exceeded.
The enumeration budget defaults to 2^24 messages and can be overridden with
--budget or the QTWEAVE_BUDGET environment variable; `construct --block-matrix`
also needs the 2m x n symbols of the full block form to fit in it.

The flags and the JSON re-import build a code through one path, _build,
which checks in this order before any simplex base is built: t > 1; the
q^(2t) messages against the budget, by the exponent first; the variant, p,
selection and h consistency; p's range and the selection's pairs, from
(q, t) alone by construction.check_two_weight; with --block-matrix, the
2m x n symbols against the budget.  The flags --h, --g and --selection are
parsed before all of these.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

import numpy as np

from . import analysis, construction, fields
from .errors import BudgetExceededError, ParameterError, VerificationError, check_budget
from .polynomial import Poly, find_primitive

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"
_DIGIT_BYTES = np.frombuffer(_DIGITS.encode(), np.uint8)
# each byte's value as a lowercase base-36 digit, 255 for none: the JSON re-read's own decoder
_DIGIT_VALUES = np.array([int(c, 36) if c.isascii() and (c.isdigit() or c.islower()) else 255
                          for c in map(chr, range(256))], np.uint8)
_CHUNK = 1 << 20  # bytes of the written file compared at once by the round trip

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _load_fixture(name: str) -> dict:
    path = resources.files("qtweave").joinpath("fixtures", name)
    return json.loads(path.read_text())


def _parse_ints(text: str) -> list[int]:
    try:  # int() strips a token's outer spaces and refuses inner ones
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse coefficient list {text!r}") from None


def _poly_from_user(field: fields.Field, ints) -> Poly:
    neg = field.tables.neg
    return Poly(field, [neg.item(field.check(-v)) if v < 0 else field.check(v) for v in ints])


def _parse_selection(text: str):
    pairs = []
    for tok in map(str.strip, text.split(",")):
        if not tok:
            continue
        if ":" not in tok:
            raise ParameterError(f"selection entries look like i:j, got {tok!r}")
        i_str, j_str = tok.split(":", 1)
        try:
            pairs.append((int(i_str), int(j_str)))
        except ValueError:
            raise ParameterError(f"cannot parse selection entry {tok!r}") from None
    if not pairs:
        raise ParameterError("selection is empty")
    return tuple(pairs)


def _resolve_budget(args) -> int:
    """--budget, else QTWEAVE_BUDGET, else the default; a budget below 1 is invalid input."""
    budget = getattr(args, "budget", None)
    env = os.environ.get("QTWEAVE_BUDGET")
    if budget is None and env:
        try:
            budget = int(env)
        except ValueError:
            raise ParameterError(f"QTWEAVE_BUDGET must be an integer, got {env!r}") from None
    if budget is None:
        return analysis.DEFAULT_BUDGET
    if budget < 1:
        raise ParameterError(f"the enumeration budget must be >= 1, got {budget}")
    return budget


@functools.cache
def _labels(q: int) -> np.ndarray:
    """str(v) and a space for each symbol v, as ASCII bytes zero-padded to one unsigned int.

    The padded width is a power of two, so a gather copies integers, not strings.
    """
    width = 1 << len(str(q - 1)).bit_length()  # len(str(q - 1)) + 1, up to a power of two
    return np.frombuffer(b"".join(f"{v} ".encode().ljust(width, b"\0") for v in range(q)),
                         f"u{width}")


def _row_text(rows, q: int) -> np.ndarray:
    """ASCII of one line per row, flat: the row's symbols as decimal integers, space-separated.

    One gather from the label table writes every symbol; the space after each
    row's last symbol becomes its newline.  Labels narrower than the padded
    width leave zero bytes, which one compress drops.
    """
    labels = _labels(q)
    cells = labels[rows].view(np.uint8)  # (k, n * width)
    last = cells[:, -labels.itemsize:]
    last[last == ord(" ")] = ord("\n")
    return cells[cells != 0] if q > 10 else cells.ravel()


def _print_rows(title: str, rows, q: int):
    """The title, then the rows' text a row at a time, so it is never held twice."""
    print(title)
    for row in rows:
        sys.stdout.write(_row_text(row[None], q).tobytes().decode("ascii"))


def _field_and_budget(args):
    """Field and budget of the common flags; a malformed budget fails before any field work."""
    budget = _resolve_budget(args)
    return fields.field_from_order(args.q), budget


def _build(field, t, budget, variant, p, selection, h, g, cyclic, block_form=False):
    """Check the parsed parameters, then build the simplex base and the code.

    The one path from parameters to a code, for the flags and the JSON
    re-import alike; the order of the checks is in the module docstring.
    """
    if t <= 1:
        raise ParameterError(f"dimension t must be > 1, got {t}")
    check_budget(field.q, 2 * t, budget)
    qt = field.q**t
    if h is not None and (g is not None or cyclic):
        raise ParameterError("--h applies to the consta-cyclic base; use --g with --cyclic")
    if variant == construction.QT_SIMPLEX:
        if p is not None and p != qt:
            raise ParameterError(f"the qt-simplex variant forces p = q^t = {qt}, got {p}")
        if selection is not None:
            raise ParameterError("the qt-simplex variant uses the full canonical selection")
    elif p is None:
        raise ParameterError("--p is required for the two-weight variant")
    else:
        construction.check_two_weight(field.q, t, p, selection)
    if block_form:  # 2m rows of n symbols
        m = (qt - 1) // (field.q - 1)
        cells = 2 * m * m * (qt + 1 if variant == construction.QT_SIMPLEX else p)
        if cells > budget:
            raise BudgetExceededError(
                f"the full block form needs 2m x n = {cells} symbols, budget is {budget}",
                required=cells,
                budget=budget,
            )
    if g is not None or cyclic:
        s = construction.simplex_cyclic(field, t, g=g)
    else:
        s = construction.simplex_consta(field, t, h=h)
    if variant == construction.QT_SIMPLEX:
        return construction.build_qt_simplex(s)
    return construction.build_two_weight(s, p, selection=selection)


def _build_code(args, field, budget, block_form=False):
    """Parse --h, --g and --selection, then build the code of the common flags."""
    h = _poly_from_user(field, _parse_ints(args.h)) if args.h is not None else None
    g = _poly_from_user(field, _parse_ints(args.g)) if args.g is not None else None
    selection = _parse_selection(args.selection) if args.selection is not None else None
    return _build(field, args.t, budget, args.variant, args.p, selection, h, g, args.cyclic,
                  block_form)


def _summary_line(code, W) -> str:
    weights = W.nonzero_weights()
    q = code.field.q
    w_txt = ", ".join(str(w) for w in weights)
    if code.variant == construction.TWO_WEIGHT:
        return f"[{code.n}, {code.k}; {w_txt}]_{q} two-weight quasi-twisted code"
    return f"[{code.n}, {code.k}; {w_txt}]_{q} quasi-twisted simplex code"


def _print_code_details(code, W):
    s = code.simplex
    print(_summary_line(code, W))
    print(f"blocks: {code.block_count} x {s.m} columns")
    print(f"field: GF({s.q})")
    print(f"simplex base: {s.variant} [{s.m}, {s.t}, {s.weight}]_{s.q}")
    print(f"h: {s.h}")
    print(f"lambda: {s.lam}")
    print(f"g: {s.g}")
    sel = " ".join(f"({i},{j})" for i, j in code.selection)
    print(f"selection: {sel}")
    print(f"min distance: {analysis.min_distance(W)} (exact over {W.total()} codewords)")


def _cmd_construct(args) -> int:
    field, budget = _field_and_budget(args)
    code, G = _build_code(args, field, budget, args.block_matrix)
    W = analysis.weight_distribution(G, budget=budget)
    _print_code_details(code, W)
    if args.matrix:
        _print_rows("generator matrix (reduced):", G.rows, field.q)
    if args.block_matrix:
        _print_rows("generator matrix (full block form):", construction.full_block_matrix(code),
                    field.q)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    field, budget = _field_and_budget(args)
    code, G = _build_code(args, field, budget)
    W = analysis.weight_distribution(G, budget=budget)
    _print_code_details(code, W)
    dist = " ".join(f"{w}:{c}" for w, c in sorted(W.counts.items()))
    print(f"weight distribution: {dist}")
    status = EXIT_OK
    if code.variant == construction.TWO_WEIGHT:
        verdict = analysis.verify_two_weight(W, code)
        if verdict.ok:
            print(f"two-weight check: ok (w1 = {verdict.w1}, w2 = {verdict.w2})")
        else:
            print(
                f"two-weight check: FAILED (expected {{{verdict.w1}, {verdict.w2}}}, "
                f"unexpected {list(verdict.unexpected)}, missing {list(verdict.missing)})"
            )
            status = EXIT_MISMATCH
        predicted = analysis.expected_counts(code)
        actual = (W.counts.get(verdict.w1, 0), W.counts.get(verdict.w2, 0))
        agree = "ok" if predicted == actual else f"FAILED (predicted {predicted}, got {actual})"
        print(f"weight counts vs prediction: {agree}")
        if predicted != actual:
            status = EXIT_MISMATCH
    else:
        weights = W.nonzero_weights()
        s_w = code.simplex.q ** (2 * code.simplex.t - 1)
        if weights == (s_w,):
            print(f"single-weight check: ok (w = {s_w})")
        else:
            print(f"single-weight check: FAILED (expected {{{s_w}}}, observed {list(weights)})")
            status = EXIT_MISMATCH
    report = analysis.griesmer_report(code, W)
    print(f"length: {report.n}")
    print(f"griesmer length: {report.griesmer_length}")
    print(
        f"gap: observed {report.gap_observed}, predicted {report.gap_predicted} "
        f"(i = {report.i}, r = {report.r})"
    )
    if not report.gap_match:
        print("gap prediction: FAILED")
        status = EXIT_MISMATCH
    print(f"length-optimal: {'yes' if report.length_optimal else 'no'}")
    projective = analysis.dual_low_counts(W) == (0, 0)  # by the Pless moments, no pass over G
    print(f"projective: {'yes' if projective else 'no'}")
    if projective and len(W.nonzero_weights()) == 2:
        print(f"srg: {analysis.srg_parameters(W)}")
    return status


def _cmd_table1(args) -> int:
    budget = _resolve_budget(args)
    fixture = _load_fixture("table1.json")
    q, t = fixture["q"], fixture["t"]
    s = construction.simplex_consta(fields.field_from_order(q), t)
    status = EXIT_OK
    print(" p    d    n   gb  gap  i  r  q  status")
    for row in fixture["rows"]:
        p = row["p"]
        if p <= q**t:
            code, G = construction.build_two_weight(s, p)
        else:
            code, G = construction.build_qt_simplex(s)
        W = analysis.weight_distribution(G, budget=budget)
        rep = analysis.griesmer_report(code, W)
        got = {
            "p": p, "d": rep.d, "n": rep.n, "gb": rep.griesmer_length,
            "gap": rep.gap_observed, "i": rep.i, "r": rep.r,
        }
        ok = all(got[key] == row[key] for key in ("d", "n", "gb", "gap", "i", "r"))
        if not ok:
            status = EXIT_MISMATCH
        print(
            f"{p:2d} {rep.d:4d} {rep.n:4d} {rep.griesmer_length:4d} "
            f"{rep.gap_observed:4d} {rep.i:2d} {rep.r:2d} {q:2d}  "
            + ("ok" if ok else f"MISMATCH (expected {row})")
        )
    return status


def _check_series(s, entries, budget, label) -> bool:
    ok = True
    for entry in entries:
        code, G = construction.build_two_weight(s, entry["p"])
        W = analysis.weight_distribution(G, budget=budget)
        verdict = analysis.verify_two_weight(W, code)
        got = {"p": entry["p"], "n": code.n, "k": code.k, "w1": verdict.w1, "w2": verdict.w2}
        match = verdict.ok and got == entry
        ok = ok and match
        print(f"  {label} p={entry['p']}: [{code.n}, {code.k}; {verdict.w1}, {verdict.w2}] "
              + ("ok" if match else f"MISMATCH (expected {entry})"))
    return ok


def _example_bases(fixture):
    """(label, header, ok, simplex, series) per simplex base in the examples fixture.

    An entry with h is a consta-cyclic base checked against its g and lambda;
    one without is the derived cyclic base, checked against its reference g,
    lambda and simplex parameters.  Bases are built one at a time.
    """
    for name, ex in fixture.items():
        field = fields.field_from_order(ex["q"])
        if "h" in ex:
            s = construction.simplex_consta(field, ex["t"], h=Poly(field, ex["h"]))
            ok = list(s.g.coeffs) == ex["g"] and s.lam == ex["lambda"]
            yield name, f"{name}: g = {s.g}, lambda = {s.lam} ", ok, s, ex["series"]
            continue
        params = (ex["simplex"]["n"], ex["simplex"]["k"], ex["simplex"]["d"])
        s = construction.simplex_cyclic(field, ex["t"])
        ok = (list(s.g.coeffs) == ex["reference_g"] and s.lam == ex["lambda"]
              and s.params() == params)
        header = f"{name}: simplex [{s.m}, {s.t}, {s.weight}]_{s.q}, g = {s.g} "
        yield name, header, ok, s, ex["series"]


def _cmd_examples(args) -> int:
    budget = _resolve_budget(args)
    status = EXIT_OK
    for label, header, ok, s, series in _example_bases(_load_fixture("examples.json")):
        print(header + ("ok" if ok else "MISMATCH"))
        if not (ok and _check_series(s, series, budget, label)):
            status = EXIT_MISMATCH
    print("examples: " + ("all ok" if status == EXIT_OK else "MISMATCHES FOUND"))
    return status


def _cmd_search_primitive(args) -> int:
    field = fields.field_from_order(args.q)
    polys = find_primitive(field, args.t, limit=args.limit)
    for h in polys:
        coeffs = ",".join(str(c) for c in h.coeffs)
        print(f"{h}    coeffs: {coeffs}")
    print(f"{len(polys)} primitive polynomial(s) of degree {args.t} over GF({field.q})")
    return EXIT_OK


def _code_fields(code) -> dict:
    """The exported fields that name the code: everything but its rows and weight counts."""
    s = code.simplex
    return {
        "q_characteristic": s.field.p,
        "q_degree": s.field.e,
        "field_modulus": list(s.field.modulus) if s.field.modulus else None,
        "t": s.t,
        "simplex_variant": s.variant,
        "p": code.p,
        "lambda": s.lam,
        "h": list(s.h.coeffs),
        "g": list(s.g.coeffs),
        "selection": [[i, j] for i, j in code.selection],
        "variant": code.variant,
    }


def _export_payload(code, G, W) -> dict:
    return {
        **_code_fields(code),
        "generator_rows": [_DIGIT_BYTES[row].tobytes().decode("ascii") for row in G.rows],
        "weight_counts": {str(w): c for w, c in sorted(W.counts.items())},
    }


def _text_header(code) -> bytes:
    s = code.simplex
    return f"{code.n} {code.k} {s.q} {s.t} {code.p} {s.lam}\n".encode()


def _holds_exactly(path, parts) -> bool:
    """The file holds the parts, in order, and nothing after them.

    Equal bytes leave no question of types or layout (2.0 == 2 and True == 1
    once loaded; a re-indented JSON file, a blank line or a tab).  Pieces of
    at most _CHUNK bytes are compared as bytes: bytes == memoryview runs
    element by element, and a whole-file compare would hold a bool per byte.
    """
    with open(path, "rb") as fh:
        for part in map(memoryview, parts):
            for start in range(0, len(part), _CHUNK):
                piece = part[start:start + _CHUNK].tobytes()
                if fh.read(len(piece)) != piece:
                    return False
        return not fh.read(1)


def _roundtrip_json(payload, G, budget) -> bool:
    """The written digit strings must decode to the rows of G, and the payload rebuild to them.

    The strings are decoded by one gather from _DIGIT_VALUES, not by the
    writer's table.  The rebuild through _build proves that the exported
    fields describe the exported code.  The weight counts are the export's
    own spectrum, so no second one runs.
    """
    strings = payload["generator_rows"]
    cells = _DIGIT_VALUES[np.frombuffer("".join(strings).encode(), np.uint8)]
    try:  # fields that describe no code, or one beyond the budget, do not read back
        field = fields.field_create(payload["q_characteristic"], payload["q_degree"])
        cyclic = payload["simplex_variant"] == construction.CYCLIC
        h, g = (None, Poly(field, payload["g"])) if cyclic else (Poly(field, payload["h"]), None)
        qt_simplex = payload["variant"] == construction.QT_SIMPLEX
        code, rebuilt = _build(field, payload["t"], budget, payload["variant"], payload["p"],
                               None if qt_simplex else payload["selection"], h, g, cyclic)
    except (ParameterError, BudgetExceededError):
        return False
    return ([len(row) for row in strings] == [G.n] * G.k and np.array_equal(cells, G.rows.ravel())
            and np.array_equal(rebuilt.rows, G.rows)
            and all(payload[key] == value for key, value in _code_fields(code).items()))


def _roundtrip_text(path, G) -> bool:
    """The rows after the header must parse to exactly the rows of G: the row writer's check.

    Equal rows have equal spectra, so no second one runs.
    """
    with open(path, encoding="ascii") as fh:
        fh.readline()
        try:  # comments=None: a '#' is no integer; at the rows' dtype a sign is none either
            rows = np.loadtxt(fh, dtype=G.rows.dtype, ndmin=2, comments=None)
        except ValueError:  # a token that is not an integer, or a ragged row
            return False
    return rows.shape == G.rows.shape and bool((rows == G.rows).all())


def _cmd_export(args) -> int:
    field, budget = _field_and_budget(args)
    if args.format == "json" and field.q > len(_DIGITS):  # rows are written as digit strings
        raise ParameterError(f"digit strings support fields up to order {len(_DIGITS)}")
    code, G = _build_code(args, field, budget)
    W = analysis.weight_distribution(G, budget=budget)
    if args.format == "json":
        payload = _export_payload(code, G, W)
        parts = [(json.dumps(payload, indent=1) + "\n").encode()]  # json.dump would write in chunks
    else:
        parts = [_text_header(code), _row_text(G.rows, field.q)]
    with open(args.output, "wb") as fh:
        fh.writelines(parts)
    print(f"wrote {args.format} export to {args.output}")
    if args.roundtrip:
        ok = _holds_exactly(args.output, parts)
        del parts  # the row text is as large as the parse
        ok = ok and (_roundtrip_json(payload, G, budget) if args.format == "json"
                     else _roundtrip_text(args.output, G))
        print("round trip: " + ("ok" if ok else "MISMATCH"))
        if not ok:
            return EXIT_MISMATCH
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qtweave",
        description="Construct and verify 2-generator quasi-twisted two-weight codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", required=True, help="field order, a prime power (e.g. 4 or 2^2)")
    common.add_argument("--t", required=True, type=int, help="simplex dimension t > 1")
    common.add_argument("--p", type=int, help="block count, 2 <= p <= q^t")
    common.add_argument(
        "--variant", choices=["two-weight", "qt-simplex"], default="two-weight",
        help="code shape to assemble (default: two-weight)",
    )
    common.add_argument("--cyclic", action="store_true",
                        help="build the simplex base via the cyclic route (needs gcd(t, q-1) = 1)")
    common.add_argument("--h", help="defining polynomial override, ascending coefficients (e.g. 2,2,1)")
    common.add_argument("--g", help="generator polynomial override for the cyclic base (implies --cyclic)")
    common.add_argument("--selection", help="block selection override, comma-separated i:j pairs")
    common.add_argument("--budget", type=int, help="enumeration budget in messages (default 2^24)")

    p_construct = sub.add_parser("construct", parents=[common],
                                 help="build a code and print its parameters")
    p_construct.add_argument("--matrix", action="store_true", help="print the reduced generator matrix")
    p_construct.add_argument("--block-matrix", action="store_true",
                             help="print the full twistulant block form")
    p_construct.set_defaults(func=_cmd_construct)

    p_analyze = sub.add_parser("analyze", parents=[common],
                               help="full verification report for a code")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_table = sub.add_parser("table1", help="recompute the bundled q=3, t=3 reference table")
    p_table.add_argument("--budget", type=int)
    p_table.set_defaults(func=_cmd_table1)

    p_examples = sub.add_parser("examples", help="verify the bundled example code series")
    p_examples.add_argument("--budget", type=int)
    p_examples.set_defaults(func=_cmd_examples)

    p_search = sub.add_parser("search-primitive", help="list primitive polynomials of a given degree")
    p_search.add_argument("--q", required=True)
    p_search.add_argument("--t", required=True, type=int)
    p_search.add_argument("--limit", type=int, help="stop after this many results")
    p_search.set_defaults(func=_cmd_search_primitive)

    p_export = sub.add_parser("export", parents=[common], help="write a code to disk")
    p_export.add_argument("--format", choices=["text", "json"], required=True)
    p_export.add_argument("--output", required=True)
    p_export.add_argument("--roundtrip", action="store_true",
                          help="re-read the file: it must hold exactly what was written, "
                               "a JSON export must rebuild to it, "
                               "and a text export must parse to its rows")
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


def entrypoint():
    sys.exit(main())
