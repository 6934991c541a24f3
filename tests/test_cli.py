import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qtweave import ParameterError, Poly, analysis, cli, construction, fields
from qtweave.cli import main

from conftest import text_rows


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct_summary(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "2", "--t", "3", "--h", "1,1,0,1", "--p", "8")
    assert rc == 0
    assert "[56, 6; 28, 32]_2" in out
    assert "g: x^4 + x^2 + x + 1" in out
    assert "min distance: 28" in out


def test_construct_ternary_summary(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "2", "--p", "9")
    assert rc == 0
    assert "[36, 4; 24, 27]_3" in out
    assert "min distance: 24" in out


def test_construct_accepts_negative_coefficients(capsys):
    # x^2 - x - 1 over GF(3) is x^2 + 2x + 2; --h=... keeps argparse happy
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "2", "--h=-1,-1,1", "--p", "2")
    assert rc == 0
    assert "lambda: 2" in out
    assert "g: x^2 + x + 2" in out


def test_list_options_allow_spaces_around_separators(capsys):
    spaced = run(capsys, "construct", "--q", "3", "--t", "2", "--h", " 2, 2, 1", "--p", "3",
                 "--selection", "1: 0, 2 :1,")
    plain = run(capsys, "construct", "--q", "3", "--t", "2", "--h", "2,2,1", "--p", "3",
                "--selection", "1:0,2:1")
    assert spaced == plain and plain[0] == 0


@pytest.mark.parametrize("flag, text, message", [
    ("--h", "7,1 0,1", "cannot parse coefficient list '7,1 0,1'"),
    ("--selection", "1:1 0,1:2", "cannot parse selection entry '1:1 0'"),
], ids=["h", "selection"])
def test_a_space_inside_a_number_exits_2(capsys, flag, text, message):
    # over GF(11) "1 0" must not be read as 10
    rc, out, err = run(capsys, "analyze", "--q", "11", "--t", "2", "--p", "3", flag, text)
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag, message", [
    ("--h", "h = 0 is not a monic primitive polynomial of degree 2"),
    ("--g", "g = 0 must have degree m - t = 3"),
    ("--selection", "selection is empty"),
], ids=["h", "g", "selection"])
def test_an_empty_list_option_exits_2(capsys, flag, message):
    # "" is supplied, as ",," is: --g "" must not fall back to the consta-cyclic base
    rc, out, err = run(capsys, "analyze", "--q", "4", "--t", "2", "--p", "3", flag, "")
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_construct_matrix_output(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "2", "--h", "2,2,1",
                     "--p", "2", "--matrix", "--block-matrix")
    assert rc == 0
    assert "2 1 1 0 2 1 1 0" in out
    assert "generator matrix (full block form):" in out


# SHA-256 of the stdout of `construct ... --matrix --block-matrix`, frozen from the
# output of tuple rows, so any change of row type or number formatting shows; re-pinned
# when the spectrum method line changed from "orbit" to "points", and when the
# min distance line dropped its "spectrum method" suffix
CONSTRUCT_DIGESTS = {
    "--q 3 --t 2 --p 3 --selection 1:0,2:1":
        "02beb2159959ae1a053d7f7f4ecdfc8b3a6753f9722e780674bed153f672104a",
    "--cyclic --q 3 --t 3 --p 4":
        "812efba99fdffebf9789f7c3a98c64352010de833ce47809a8e88301c7f5287c",
    "--variant qt-simplex --q 2 --t 2":
        "1eff4d36d9fcaf021d35ca4d3b456158cb6a7e66880ec0122e942229db58abe7",
}


@pytest.mark.parametrize("args", sorted(CONSTRUCT_DIGESTS))
def test_construct_matrix_output_is_byte_identical(capsys, args):
    rc, out, _ = run(capsys, "construct", *args.split(), "--matrix", "--block-matrix")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_DIGESTS[args]


def test_export_text_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "export", "--q", "4", "--t", "2", "--p", "6",
                     "--format", "text", "--output", str(path), "--roundtrip")
    assert rc == 0 and "round trip: ok" in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6abca0c13c740414a2d931d83cade70353cfb6e2a2a37f18a4eaa696260455db")


# SHA-256 of export files at q=16, frozen from the output of per-symbol writers:
# digits a-f in the JSON rows and two-digit decimals in the text rows
EXPORT_DIGESTS = {
    "json": "e8d2a7680267ae409b9c81dd45ef3f262a80cd61cfe8441cb73a68081042ee1a",
    "text": "1cf9f9eeaa8dd54f34f8df2cc605738154f9f4c5f519b25543db8462f9ae1cd1",
}


@pytest.mark.parametrize("fmt", sorted(EXPORT_DIGESTS))
def test_export_q16_is_byte_identical(tmp_path, capsys, fmt):
    path = tmp_path / f"gf16.{fmt}"
    rc, out, _ = run(capsys, "export", "--q", "16", "--t", "2", "--p", "3",
                     "--format", fmt, "--output", str(path), "--roundtrip")
    assert rc == 0 and "round trip: ok" in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_DIGESTS[fmt]


@pytest.mark.parametrize("q", [2, 11, 101, 1024], ids=["width-1", "width-2", "width-3",
                                                      "width-4"])
def test_row_text_equals_a_str_join_per_row(capsys, q):
    # rows that end in the widest label and in the narrowest, and one row with every
    # label width of the field; the export writes _row_text, construct _print_rows
    rng = np.random.default_rng(q)
    rows = rng.integers(0, q, size=(4, 9)).astype(np.min_scalar_type(q - 1))
    rows[0, -1], rows[1, -1] = q - 1, 0
    rows[2] = np.resize([v for v in (0, 9, 10, 99, 100, 999, 1000) if v < q] + [q - 1], 9)
    expected = text_rows(rows)
    assert cli._row_text(rows, q).tobytes().decode("ascii") == expected
    cli._print_rows("rows:", rows, q)
    assert capsys.readouterr().out == "rows:\n" + expected


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_export_roundtrip_of_an_unreadable_file_is_a_mismatch(capsys, fmt):
    # /dev/null takes the export and reads back empty
    rc, out, err = run(capsys, "export", "--q", "3", "--t", "2", "--p", "3",
                       "--format", fmt, "--output", "/dev/null", "--roundtrip")
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def _first_row(edit):
    return lambda lines: [lines[0], edit(lines[1]), *lines[2:]]


def _header_token_plus_one(index):
    def edit(lines):
        tokens = lines[0].split()
        tokens[index] = str(int(tokens[index]) + 1)
        return [" ".join(tokens), *lines[1:]]
    return edit


def _on_lines(edit):
    return lambda text: "".join(line + "\n" for line in edit(text.splitlines()))


def _spread(lines):  # a blank line first, tabs between and spaces after the tokens
    return ["", *("  \t".join(line.split()) + " " for line in lines), ""]


# each edit of the lines of a q=3 export (a header, then k = 4 rows of n = 12)
# leaves a file that does not read back; the last four once read back as ok
TEXT_EDITS = {
    "token too many": _first_row(lambda row: row + " 0"),
    "token too few": _first_row(lambda row: row.rsplit(" ", 1)[0]),
    "float token": _first_row(lambda row: "1.0" + row[1:]),
    "letter token": _first_row(lambda row: "x" + row[1:]),
    "comment line": lambda lines: [*lines, "# exported by qtweave"],
    "trailing comment": _first_row(lambda row: row + " # first row"),
    "extra row": lambda lines: [*lines, lines[-1]],
    "missing row": lambda lines: lines[:-1],
    "empty body": lambda lines: lines[:1],
    "malformed header": lambda lines: ["12 4 3", *lines[1:]],
    "header n off by one": lambda lines: ["13 4" + lines[0][4:], *lines[1:]],
    "header k off by one": lambda lines: ["12 5" + lines[0][4:], *lines[1:]],
    "header t off by one": _header_token_plus_one(3),
    "header p off by one": _header_token_plus_one(4),
    "header lambda off by one": _header_token_plus_one(5),
    "empty file": lambda lines: [],
    "symbol out of range": _first_row(lambda row: "3" + row[1:]),
    "symbol beyond the rows' dtype": _first_row(lambda row: "256" + row[1:]),
    "minus zero": _first_row(lambda row: row.replace("0", "-0", 1)),  # row 1 is g, with a zero
    "rows swapped": lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
    "blank line": lambda lines: ["", *lines],
    "tab": _first_row(lambda row: row.replace(" ", "\t", 1)),
    "trailing space": _first_row(lambda row: row + " "),
    "extra whitespace": _spread,
}


def _export_edited(tmp_path, capsys, monkeypatch, fmt, edit, flags="--q 3 --t 2 --p 3"):
    """Export with --roundtrip, the file's text replaced by edit(text) before the re-read."""
    holds_exactly = cli._holds_exactly

    def edit_then_compare(path, parts):
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(edit(text))
        return holds_exactly(path, parts)

    monkeypatch.setattr(cli, "_holds_exactly", edit_then_compare)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. loadtxt's "input contained no data"
        return run(capsys, "export", *flags.split(), "--format", fmt,
                   "--output", str(tmp_path / f"code.{fmt}"), "--roundtrip")


@pytest.mark.parametrize("name", sorted(TEXT_EDITS))
def test_text_reimport_is_strict(tmp_path, capsys, monkeypatch, name):
    rc, out, err = _export_edited(tmp_path, capsys, monkeypatch, "text",
                                  _on_lines(TEXT_EDITS[name]))
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def test_text_reimport_of_the_file_as_written_is_ok(tmp_path, capsys, monkeypatch):
    rc, out, err = _export_edited(tmp_path, capsys, monkeypatch, "text", _on_lines(lambda x: x))
    assert rc == 0 and "round trip: ok" in out and err == ""


# faults of the row writer: the file holds exactly what was written, so only
# the parse of the rows tells it from the code
ROW_WRITER_FAULTS = {
    "rows swapped": lambda text, rows, q: text(rows[[1, 0, *range(2, len(rows))]], q),
    "ragged row": lambda text, rows, q: text(rows, q)[1:],
}


@pytest.mark.parametrize("name", sorted(ROW_WRITER_FAULTS))
def test_text_reimport_parses_the_rows_written(tmp_path, capsys, monkeypatch, name):
    row_text, fault = cli._row_text, ROW_WRITER_FAULTS[name]
    monkeypatch.setattr(cli, "_row_text", lambda rows, q: fault(row_text, rows, q))
    rc, out, err = run(capsys, "export", "--q", "3", "--t", "2", "--p", "3", "--format", "text",
                       "--output", str(tmp_path / "code.txt"), "--roundtrip")
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def test_text_reimport_parses_at_the_rows_dtype(tmp_path):
    # 1 044 480 one-digit symbols: an int64 parse alone would hold 8.4 MB
    code, G = construction.build_two_weight(
        construction.simplex_consta(fields.field_from_order(2), 8), 256)
    path = tmp_path / "code.txt"
    parts = [cli._text_header(code), cli._row_text(G.rows, 2)]
    path.write_bytes(b"".join(parts))
    tracemalloc.start()
    try:
        ok = cli._holds_exactly(path, parts)
        del parts  # as the export drops them before the parse
        ok = ok and cli._roundtrip_text(path, G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and G.rows.size == 1_044_480
    assert peak < 8 << 20, peak


def _on_payload(edit, indent=1):
    """edit, dumped as the export dumps: the identity with indent=1 writes the same bytes."""
    return lambda text: json.dumps(edit(json.loads(text)), indent=indent) + "\n"


def test_json_reimport_of_the_file_as_written_is_ok(tmp_path, capsys, monkeypatch):
    rc, out, err = _export_edited(tmp_path, capsys, monkeypatch, "json",
                                  _on_payload(lambda data: data))
    assert rc == 0 and "round trip: ok" in out and err == ""


def test_json_reimport_of_an_equal_but_re_indented_file_is_a_mismatch(tmp_path, capsys,
                                                                     monkeypatch):
    # the round trip compares bytes: the same values laid out otherwise are not the export
    rc, out, err = _export_edited(tmp_path, capsys, monkeypatch, "json",
                                  _on_payload(lambda data: data, indent=2))
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


@pytest.mark.parametrize("payload", [{}, [], {"generator_rows": []}], ids=["empty", "list", "partial"])
def test_json_reimport_of_a_malformed_payload_is_a_mismatch(tmp_path, capsys, monkeypatch, payload):
    rc, out, err = _export_edited(tmp_path, capsys, monkeypatch, "json",
                                  _on_payload(lambda data: payload))
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


# one exported field re-read with the wrong type: each of the first seven
# escaped main as a TypeError or ValueError, or exited 2, before the types were
# checked.  The last three load equal to the export (2.0 == 2, True == 1), so
# only their bytes tell them from it; the float weight count read back ok
# while the check covered only the code's fields
JSON_EDITS = {
    "t as text": ("t", "2"),
    "t as bool": ("t", True),
    "p as text": ("p", "3"),
    "characteristic as text": ("q_characteristic", "3"),
    "degree null": ("q_degree", None),
    "selection pair too short": ("selection", [[1]]),
    "h as text": ("h", "2,2,1"),
    "t as float": ("t", 2.0),
    "degree as bool": ("q_degree", True),
    "weight count as float": ("weight_counts", {"0": 1, "6": 24, "9": 56.0}),
}


@pytest.mark.parametrize("name", sorted(JSON_EDITS))
def test_json_reimport_of_a_mistyped_field_is_a_mismatch(tmp_path, capsys, monkeypatch, name):
    key, value = JSON_EDITS[name]
    rc, out, err = _export_edited(tmp_path, capsys, monkeypatch, "json",
                                  _on_payload(lambda data: {**data, key: value}))
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


# one exported field re-read well typed but out of range: each exited 2 from
# the rebuild ("invalid input") although the command's own flags were valid
JSON_RANGE_EDITS = {
    "t below 2": ("t", 1),
    "characteristic not prime": ("q_characteristic", 4),
    "p below 2": ("p", 1),
    "h coefficient outside GF(3)": ("h", [5, 1, 1]),
    "selection shift 99": ("selection", [[1, 99], [1, 1]]),
}


def _export_with_payload(tmp_path, capsys, monkeypatch, edit, flags="--q 3 --t 2 --p 3"):
    """Export edit(payload) with --roundtrip: the file holds what was written, so only the
    rebuild can refuse it."""
    payload = cli._export_payload
    monkeypatch.setattr(cli, "_export_payload", lambda *a: edit(payload(*a)))
    return run(capsys, "export", *flags.split(), "--format", "json",
               "--output", str(tmp_path / "code.json"), "--roundtrip")


@pytest.mark.parametrize("name", sorted(JSON_RANGE_EDITS))
def test_json_reimport_of_an_out_of_range_field_is_a_mismatch(tmp_path, capsys, monkeypatch, name):
    key, value = JSON_RANGE_EDITS[name]
    rc, out, err = _export_with_payload(tmp_path, capsys, monkeypatch,
                                        lambda data: {**data, key: value})
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def _field_edit(key, value):
    return lambda data: {**data, key: value}


def _another_selection(data, export_payload=cli._export_payload):  # the unpatched one
    """The export of the same q=3 t=2 p=3 code family with another selection, in full."""
    s = construction.simplex_consta(fields.field_from_order(3), 2)
    code, G = construction.build_two_weight(s, 3, selection=((2, 0), (1, 3)))
    other = export_payload(code, G, analysis.weight_distribution(G))
    assert other["selection"] != data["selection"]
    assert other["weight_counts"] == data["weight_counts"]
    return other


# a file well typed and in range that is not the export.  Each once read back
# as ok (the modulus as "verification failed"); the export of another
# selection still did while the round trip compared spectra, as the codes of
# one p share theirs
JSON_MISMATCH_EDITS = {
    "variant bogus": ("--q 3 --t 2 --p 3", _field_edit("variant", "bogus")),
    "g of another base": ("--q 4 --t 2 --p 3", _field_edit("g", [1, 2])),
    "qt-simplex p 99": ("--q 2 --t 2 --variant qt-simplex", _field_edit("p", 99)),
    "modulus not canonical": ("--q 4 --t 2 --p 3", _field_edit("field_modulus", [1, 0, 1])),
    "another selection of p = 3": ("--q 3 --t 2 --p 3", _another_selection),
}


@pytest.mark.parametrize("name", sorted(JSON_MISMATCH_EDITS))
def test_json_reimport_must_re_export_to_the_file(tmp_path, capsys, monkeypatch, name):
    flags, edit = JSON_MISMATCH_EDITS[name]
    rc, out, err = _export_with_payload(tmp_path, capsys, monkeypatch, edit, flags)
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def test_json_reimport_must_rebuild_to_the_exported_rows(tmp_path, capsys, monkeypatch):
    # the file is exactly what was written, but its rows are not those its fields build:
    # they are another selection's, which pass sigma and have the same spectrum
    build = cli._build_code

    def edited_rows(*args, **kwargs):
        code, G = build(*args, **kwargs)
        _, other = construction.build_two_weight(code.simplex, code.p, selection=((2, 1), (1, 3)))
        assert not np.array_equal(other.rows, G.rows)
        return code, construction.GeneratorMatrix(rows=other.rows, provenance=code)
    monkeypatch.setattr(cli, "_build_code", edited_rows)
    rc, out, err = run(capsys, "export", "--q", "3", "--t", "2", "--p", "3", "--format", "json",
                       "--output", str(tmp_path / "code.json"), "--roundtrip")
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def test_json_reimport_decodes_the_written_rows(tmp_path, capsys, monkeypatch):
    # a digit table with 1 and 2 swapped wrote "112011201120" for row 0 and once
    # read back as ok: the file held what was written, and the rebuild matched G
    swapped = cli._DIGIT_BYTES.copy()
    swapped[[1, 2]] = swapped[[2, 1]]
    monkeypatch.setattr(cli, "_DIGIT_BYTES", swapped)
    path = tmp_path / "code.json"
    rc, out, err = run(capsys, "export", "--q", "3", "--t", "2", "--p", "3", "--format", "json",
                       "--output", str(path), "--roundtrip")
    assert json.loads(path.read_text())["generator_rows"][0] == "112011201120"
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""


def test_json_reimport_beyond_the_budget_is_a_mismatch_before_building(tmp_path, capsys,
                                                                       monkeypatch):
    build = construction.simplex_consta
    builds = []
    monkeypatch.setattr(construction, "simplex_consta",
                        lambda *a, **kw: builds.append(a) or build(*a, **kw))
    rc, out, err = _export_with_payload(tmp_path, capsys, monkeypatch, _field_edit("t", 40))
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == ""
    assert len(builds) == 1  # the export's own code, not the re-read one


def test_json_reimport_whose_fields_build_no_code_is_a_mismatch(tmp_path, capsys, monkeypatch):
    # the file is exactly what was written, but the rebuild from its fields raises
    build, calls = cli._build, []

    def export_only(*args, **kwargs):
        calls.append(args)
        if len(calls) > 1:
            raise ParameterError("the re-read fields build no code")
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "_build", export_only)
    rc, out, err = run(capsys, "export", "--q", "3", "--t", "2", "--p", "3", "--format", "json",
                       "--output", str(tmp_path / "code.json"), "--roundtrip")
    assert rc == 1
    assert "round trip: MISMATCH" in out
    assert err == "" and len(calls) == 2


def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "2", "--p", "2", "--matrix")
    assert rc == 0 and "generator matrix (reduced):" in out
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "2", "--p", "2")
    assert rc == 0 and "generator matrix" not in out


@pytest.mark.parametrize("pair, message", [
    ("0:0", "scale index must be in 1..2, got 0"),
    ("3:0", "scale index must be in 1..2, got 3"),
    ("1:4", "shift must be in 0..3, got 4"),
    ("1:-1", "shift must be in 0..3, got -1"),
])
def test_out_of_range_selection_exits_2(capsys, pair, message):
    rc, out, err = run(capsys, "construct", "--q", "3", "--t", "2", "--p", "2",
                       "--selection", pair)
    assert rc == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    ("--q 2 --t 18 --budget 1099511627776", "--p is required for the two-weight variant"),
    ("--q 2 --t 2 --variant qt-simplex --p 5", "the qt-simplex variant forces p = q^t = 4, got 5"),
    ("--q 2 --t 2 --variant qt-simplex --selection 1:0",
     "the qt-simplex variant uses the full canonical selection"),
    ("--q 3 --t 2 --p 2 --selection 1:x", "cannot parse selection entry '1:x'"),
    ("--q 3 --t 3 --p 2 --cyclic --h 1,0,2,1",
     "--h applies to the consta-cyclic base; use --g with --cyclic"),
    ("--q 2 --t 18 --p 3 --budget 1099511627776 --selection 1:0,1:999999",
     "shift must be in 0..262142, got 999999"),
    ("--q 2 --t 18 --p 3 --budget 1099511627776 --selection 1:0",
     "selection must list exactly 2 pairs, got 1"),
    ("--q 2 --t 18 --p 3 --budget 1099511627776 --selection 1:0,1:0",
     "selection contains duplicate pairs"),
    ("--q 3 --t 2 --p 2 --selection ,", "selection is empty"),
    ("--q 3 --t 2 --p 2 --selection 1-0", "selection entries look like i:j, got '1-0'"),
], ids=["no-p", "qt-simplex-p", "qt-simplex-selection", "unparsable-selection", "cyclic-h",
        "selection-shift", "selection-length", "selection-duplicate", "selection-empty",
        "selection-no-colon"])
def test_bad_parameters_exit_2_before_any_build(capsys, monkeypatch, argv, message):
    def no_build(*args, **kwargs):
        raise AssertionError("simplex base built before the parameters were checked")
    monkeypatch.setattr(construction, "simplex_consta", no_build)
    monkeypatch.setattr(construction, "simplex_cyclic", no_build)
    rc, out, err = run(capsys, "construct", *argv.split())
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_analyze_t_below_2_exits_2_before_any_build(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("simplex base built for t = 1")
    monkeypatch.setattr(construction, "simplex_consta", no_build)
    rc, out, err = run(capsys, "analyze", "--q", "2", "--t", "1", "--p", "2")
    assert rc == 2 and out == ""
    assert err == "error: dimension t must be > 1, got 1\n"


def test_construct_invalid_p(capsys):
    rc, _, err = run(capsys, "construct", "--q", "3", "--t", "3", "--p", "30")
    assert rc == 2
    assert "block count" in err


def test_construct_rejects_non_prime_power(capsys):
    rc, _, err = run(capsys, "construct", "--q", "6", "--t", "2", "--p", "2")
    assert rc == 2
    assert "prime power" in err


def test_budget_exit_code(capsys):
    rc, _, err = run(capsys, "analyze", "--q", "2", "--t", "3", "--p", "8", "--budget", "10")
    assert rc == 3
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["--q", "2", "--t", "3", "--p", "8", "--budget", "100"],  # 2^6 messages fit, 2m x n = 784 not
    ["--q", "2", "--t", "12", "--p", "4096"],  # 2^24 messages fit the default, 2m x n ~ 1.4e11 not
], ids=["t3-budget-100", "t12-default"])
def test_block_matrix_size_is_checked_before_any_build(capsys, monkeypatch, argv):
    if "100" in argv:  # the same code without the block form is within budget
        assert run(capsys, "construct", *argv)[0] == 0

    def no_build(*args, **kwargs):
        raise AssertionError("build work before the block-form size check")
    monkeypatch.setattr(construction, "simplex_consta", no_build)
    monkeypatch.setattr(construction, "full_block_matrix", no_build)
    rc, out, err = run(capsys, "construct", *argv, "--block-matrix")
    assert rc == 3
    assert out == "" and "full block form" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "--q", "2", "--t", "8000", "--p", "2"],
    ["construct", "--q", "2", "--t", "8000", "--p", "2", "--block-matrix"],
    ["search-primitive", "--q", "2", "--t", "15000"],
], ids=["analyze", "block-matrix", "search-primitive"])
def test_huge_t_is_refused_by_its_exponent(capsys, argv):
    # q^t has thousands of digits here, more than str(int) converts by default
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "2^" in err


def test_budget_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("QTWEAVE_BUDGET", "10")
    rc, _, err = run(capsys, "analyze", "--q", "2", "--t", "3", "--p", "8")
    assert rc == 3


def test_a_budget_variable_that_is_no_integer_exits_2_before_any_field_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(fields, "field_from_order", lambda *a, **kw: calls.append(a))
    monkeypatch.setenv("QTWEAVE_BUDGET", "abc")
    rc, out, err = run(capsys, "analyze", "--q", "2", "--t", "3", "--p", "2")
    assert rc == 2 and out == "" and calls == []
    assert err == "error: QTWEAVE_BUDGET must be an integer, got 'abc'\n"


@pytest.mark.parametrize("command", [["analyze"], ["export", "--format", "json", "--output", "x"]],
                         ids=["analyze", "export-json"])
@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_budget_below_one_is_invalid_input(capsys, monkeypatch, source, budget, command):
    calls = []
    monkeypatch.setattr(fields, "field_from_order", lambda *a, **kw: calls.append(a))
    monkeypatch.setattr(construction, "simplex_consta", lambda *a, **kw: calls.append(a))
    argv = command + ["--q", "2", "--t", "3", "--p", "8"]
    if source == "flag":
        argv += ["--budget", budget]
    else:
        monkeypatch.setenv("QTWEAVE_BUDGET", budget)
    rc, _, err = run(capsys, *argv)
    assert rc == 2
    assert f"budget must be >= 1, got {budget}" in err
    assert calls == []


def test_analyze_report(capsys):
    rc, out, _ = run(capsys, "analyze", "--q", "3", "--t", "3", "--p", "17")
    assert rc == 0
    assert "two-weight check: ok (w1 = 144, w2 = 153)" in out
    assert "gap: observed 4, predicted 4 (i = 4, r = 1)" in out
    assert "length-optimal: no" in out
    assert "projective: yes" in out


@pytest.mark.parametrize("p, srg", [(13, "(256, 195, 146, 156)"), (14, "(256, 210, 170, 182)"),
                                    (16, "(256, 240, 224, 240)")], ids=["195", "210", "240"])
def test_analyze_names_the_strongly_regular_graph(capsys, p, srg):
    rc, out, _ = run(capsys, "analyze", "--q", "2", "--t", "4", "--p", str(p))
    assert rc == 0
    assert out.splitlines()[-2:] == ["projective: yes", f"srg: {srg}"]


def test_analyze_decides_projectivity_without_a_pass_over_the_columns(capsys, monkeypatch):
    # the simplex check sorts the m columns of the base; nothing sorts the n columns of G
    def refuse(G):
        raise AssertionError("is_projective ran")

    widths, kernel = [], construction._distinct_points
    monkeypatch.setattr(construction, "is_projective", refuse)
    monkeypatch.setattr(analysis, "is_projective", refuse)
    monkeypatch.setattr(construction, "_distinct_points",
                        lambda field, cols: widths.append(cols.shape[1]) or kernel(field, cols))
    rc, out, _ = run(capsys, "analyze", "--q", "2", "--t", "10", "--p", "1024")
    assert rc == 0
    assert "projective: yes" in out.splitlines()
    assert widths == [1023]


@pytest.mark.parametrize("argv, line", [
    (["--q", "3", "--t", "3", "--p", "17"], "min distance: 144 (exact over 729 codewords)"),
    (["--q", "3", "--t", "3", "--p", "4", "--cyclic"], "min distance: 27 (exact over 729 codewords)"),
], ids=["consta-cyclic", "non-primitive-cyclic"])
def test_analyze_reports_the_min_distance_line(capsys, argv, line):
    rc, out, _ = run(capsys, "analyze", *argv)
    assert rc == 0
    assert [text for text in out.splitlines() if "min distance" in text] == [line]


def test_unfactorable_order_exits_3(capsys, monkeypatch):
    # x^61 + x + 1 with q^k = 2^122 inside the budget: its base would divide
    # x^(2^61 - 1) by h, so the size rule of the primitive search refuses it first
    def no_division(*args):
        raise AssertionError("a polynomial division ran before the size rule")
    monkeypatch.setattr(Poly, "__divmod__", no_division)
    h = ",".join(["1", "1"] + ["0"] * 59 + ["1"])
    rc, out, err = run(capsys, "analyze", "--q", "2", "--t", "61", "--p", "2", "--h", h,
                       "--budget", str(2**122))
    assert rc == 3 and out == ""
    assert err == "error: the simplex base of a supplied h needs 2^61 residues, budget is 1048576\n"


@pytest.mark.parametrize("argv, message", [
    ("--h 1,1,1,1,1", "h = x^4 + x^3 + x^2 + x + 1 is not a monic primitive polynomial of degree 4"),
    ("--h 0,0,0,0,1", "h = x^4 is not a monic primitive polynomial of degree 4"),
    # (x^15 - 1)/(x^4 + x^3 + x^2 + x + 1) divides x^15 - 1, but x has order 5 modulo h
    ("--g 1,1,0,0,0,1,1,0,0,0,1,1", "g = x^11 + x^10 + x^6 + x^5 + x + 1 does not generate "
                                    "a cyclic simplex code of dimension 4"),
], ids=["h-of-order-5", "h-is-x^4", "g-of-order-5"])
def test_a_supplied_polynomial_that_builds_no_simplex_code_exits_2(capsys, argv, message):
    rc, out, err = run(capsys, "analyze", "--q", "2", "--t", "4", "--p", "2", *argv.split())
    assert rc == 2 and out == ""
    assert err == f"error: {message}\n"


def test_analyze_smallest_binary(capsys):
    rc, out, _ = run(capsys, "analyze", "--q", "2", "--t", "2", "--p", "2")
    assert rc == 0
    assert "two-weight check: ok (w1 = 2, w2 = 4)" in out


def test_analyze_tref_distances(capsys):
    rc, out, _ = run(capsys, "analyze", "--q", "2", "--t", "4", "--p", "13")
    assert rc == 0
    assert "min distance: 96" in out
    assert "length: 195" in out


def test_analyze_qt_simplex(capsys):
    rc, out, _ = run(capsys, "analyze", "--q", "2", "--t", "2", "--variant", "qt-simplex")
    assert rc == 0
    assert "single-weight check: ok (w = 8)" in out
    assert "length-optimal: yes" in out


def test_qt_simplex_rejects_other_p(capsys):
    rc, _, err = run(capsys, "construct", "--q", "2", "--t", "2",
                     "--variant", "qt-simplex", "--p", "3")
    assert rc == 2


def test_selection_override(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "2", "--h", "2,2,1",
                     "--p", "3", "--selection", "1:0,2:1")
    assert rc == 0
    assert "selection: (1,0) (2,1)" in out
    rc, _, err = run(capsys, "construct", "--q", "3", "--t", "2", "--p", "3",
                     "--selection", "1:0,1:0")
    assert rc == 2


def test_oversized_field_order_exits_2(capsys):
    rc, _, err = run(capsys, "analyze", "--q", "1000000000000000003", "--t", "2", "--p", "3")
    assert rc == 2
    assert "exceeds the limit" in err


def test_prime_power_syntax(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "2^2", "--t", "2", "--p", "5")
    assert rc == 0
    assert "[25, 4; 16, 20]_4" in out


def test_table1_passes(capsys):
    rc, out, _ = run(capsys, "table1")
    assert rc == 0
    assert "17  144  221  217    4  4  1  3  ok" in out
    assert "MISMATCH" not in out


def test_table1_detects_drift(capsys, monkeypatch):
    import qtweave.cli as cli_mod

    original = cli_mod._load_fixture

    def tampered(name):
        data = original(name)
        if name == "table1.json":
            data["rows"][0]["gb"] = 999
        return data

    monkeypatch.setattr(cli_mod, "_load_fixture", tampered)
    rc, out, _ = run(capsys, "table1")
    assert rc == 1
    assert "MISMATCH" in out


def test_examples_passes(capsys):
    rc, out, _ = run(capsys, "examples")
    assert rc == 0
    assert "examples: all ok" in out
    assert "binary_t3 p=5: [35, 6; 16, 20] ok" in out
    assert "ternary_cyclic_t3 p=2: [26, 6; 9, 18] ok" in out
    assert "ternary_consta_t2 p=5: [20, 4; 12, 15] ok" in out


def test_examples_detects_drift(capsys, monkeypatch):
    import qtweave.cli as cli_mod

    original = cli_mod._load_fixture

    def tampered(name):
        data = original(name)
        if name == "examples.json":
            data["binary_t3"]["series"][0]["w1"] = 5
        return data

    monkeypatch.setattr(cli_mod, "_load_fixture", tampered)
    rc, out, _ = run(capsys, "examples")
    assert rc == 1
    assert "MISMATCH" in out


def test_examples_detects_a_drifted_cyclic_generator(capsys, monkeypatch):
    import qtweave.cli as cli_mod

    original = cli_mod._load_fixture

    def tampered(name):
        data = original(name)
        if name == "examples.json":
            # the reciprocal of the reference g: another [13, 3, 9] cyclic simplex
            # generator, so the parameters and every series entry still match
            data["ternary_cyclic_t3"]["reference_g"].reverse()
        return data

    monkeypatch.setattr(cli_mod, "_load_fixture", tampered)
    rc, out, _ = run(capsys, "examples")
    assert rc == 1
    assert "ternary_cyclic_t3: simplex [13, 3, 9]_3" in out and "MISMATCH" in out


def test_search_primitive(capsys):
    rc, out, _ = run(capsys, "search-primitive", "--q", "2", "--t", "3")
    assert rc == 0
    assert "x^3 + x + 1" in out
    assert "x^3 + x^2 + 1" in out
    assert "2 primitive polynomial(s)" in out
    rc, out, _ = run(capsys, "search-primitive", "--q", "2", "--t", "1")
    assert "x + 1" in out


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_search_primitive_rejects_limit_below_one(capsys, limit):
    rc, out, err = run(capsys, "search-primitive", "--q", "2", "--t", "3", "--limit", limit)
    assert rc == 2
    assert "limit must be >= 1" in err
    assert out == ""


@pytest.mark.parametrize("q", ["4^2", "6", "2^0", "two"])
@pytest.mark.parametrize("command", ["construct", "search-primitive"])
def test_invalid_field_order_exits_2(capsys, command, q):
    argv = [command, "--q", q, "--t", "2"] + (["--p", "2"] if command == "construct" else [])
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error: ")
    assert out == ""


def test_export_text_format(tmp_path, capsys):
    path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "export", "--q", "3", "--t", "2", "--h", "2,2,1",
                     "--p", "2", "--format", "text", "--output", str(path), "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "8 4 3 2 2 2"
    assert lines[1] == "2 1 1 0 2 1 1 0"
    assert lines[4] == "0 0 0 0 0 2 1 1"
    assert len(lines) == 5


def test_export_json_format(tmp_path, capsys):
    path = tmp_path / "code.json"
    rc, out, _ = run(capsys, "export", "--q", "3", "--t", "2", "--h", "2,2,1",
                     "--p", "3", "--format", "json", "--output", str(path), "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    data = json.loads(path.read_text())
    assert data["lambda"] == 2
    assert data["h"] == [2, 2, 1]
    assert data["g"] == [2, 1, 1]
    assert data["selection"] == [[1, 0], [1, 1]]
    assert data["generator_rows"][0] == "211021102110"
    assert data["weight_counts"] == {"0": 1, "6": 24, "9": 56}


def test_export_json_roundtrip_qt_simplex(tmp_path, capsys):
    path = tmp_path / "qt.json"
    rc, out, _ = run(capsys, "export", "--q", "2", "--t", "2", "--variant", "qt-simplex",
                     "--format", "json", "--output", str(path), "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    data = json.loads(path.read_text())
    assert data["variant"] == "qt-simplex"
    assert data["weight_counts"] == {"0": 1, "8": 15}


def test_export_extension_field_roundtrip(tmp_path, capsys):
    path = tmp_path / "gf4.json"
    rc, out, _ = run(capsys, "export", "--q", "4", "--t", "2", "--p", "4",
                     "--format", "json", "--output", str(path), "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    data = json.loads(path.read_text())
    assert data["q_characteristic"] == 2
    assert data["q_degree"] == 2
    assert data["field_modulus"] == [1, 1, 1]


def test_export_binary_text_shape(tmp_path, capsys):
    path = tmp_path / "b56.txt"
    rc, _, _ = run(capsys, "export", "--q", "2", "--t", "3", "--h", "1,1,0,1",
                   "--p", "8", "--format", "text", "--output", str(path), "--roundtrip")
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "56 6 2 3 8 1"
    assert len(lines) == 7
    assert all(len(line.split()) == 56 for line in lines[1:])
    assert all(tok in "01" for line in lines[1:] for tok in line.split())


def test_export_cyclic_json_roundtrip(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    rc, out, _ = run(capsys, "export", "--q", "3", "--t", "3", "--p", "2", "--cyclic",
                     "--format", "json", "--output", str(path), "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    data = json.loads(path.read_text())
    assert data["lambda"] == 1


@pytest.mark.parametrize("args, simplex_variant", [
    (("--q", "2", "--t", "3", "--p", "4"), "consta-cyclic"),
    (("--q", "2", "--t", "3", "--p", "4", "--cyclic"), "cyclic"),
    (("--q", "3", "--t", "3", "--p", "2", "--cyclic"), "cyclic"),
    (("--q", "2^2", "--t", "2", "--p", "4"), "consta-cyclic"),
    (("--q", "2", "--t", "2", "--variant", "qt-simplex"), "consta-cyclic"),
])
def test_export_json_records_simplex_variant(tmp_path, capsys, args, simplex_variant):
    path = tmp_path / "code.json"
    rc, out, _ = run(capsys, "export", *args, "--format", "json", "--output", str(path),
                     "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    assert json.loads(path.read_text())["simplex_variant"] == simplex_variant


def test_export_unwritable_path(capsys):
    rc, _, err = run(capsys, "export", "--q", "2", "--t", "2", "--p", "2",
                     "--format", "text", "--output", "/nonexistent-dir/x.txt")
    assert rc == 2


def test_export_unknown_format_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["export", "--q", "2", "--t", "2", "--p", "2",
              "--format", "yaml", "--output", "x"])
    assert exc.value.code == 2


def test_h_with_cyclic_is_rejected(capsys):
    rc, _, err = run(capsys, "construct", "--q", "3", "--t", "3", "--p", "2",
                     "--cyclic", "--h", "1,0,2,1")
    assert rc == 2


def test_g_override_implies_cyclic(capsys):
    rc, out, _ = run(capsys, "construct", "--q", "3", "--t", "3", "--p", "2",
                     "--g=1,0,1,1,1,-1,-1,0,1,-1,1")
    assert rc == 0
    assert "[26, 6; 9, 18]_3" in out
    assert "simplex base: cyclic [13, 3, 9]_3" in out


@pytest.mark.parametrize("g", ["0", "1", "2,1"])
def test_g_of_the_wrong_degree_is_a_usage_error(capsys, g):
    # rejected before any division: g = 0 would divide by zero
    rc, out, err = run(capsys, "construct", "--q", "3", "--t", "3", "--p", "2", "--g", g)
    assert rc == 2 and out == ""
    [line] = err.splitlines()  # one error line, no traceback
    assert line.startswith("error: g = ") and line.endswith("must have degree m - t = 10")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_export_roundtrip_honours_budget(tmp_path, capsys, monkeypatch, fmt):
    # a spectrum call that omits the budget gets a default of 100 < 2^8 messages;
    # the round trip compares the file with the export and runs no spectrum of its own
    engine = analysis.weight_distribution_of_rows
    budgets = []

    def low_default(field, rows, budget=None, **kwargs):
        budgets.append(budget)
        return engine(field, rows, budget=100 if budget is None else budget, **kwargs)

    monkeypatch.setattr(analysis, "weight_distribution_of_rows", low_default)
    rc, out, _ = run(capsys, "export", "--q", "2", "--t", "4", "--p", "4", "--budget", "1000",
                     "--format", fmt, "--output", str(tmp_path / f"code.{fmt}"), "--roundtrip")
    assert rc == 0
    assert "round trip: ok" in out
    assert budgets == [1000]


def test_export_json_rejects_large_fields_before_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "weight_distribution", lambda *a, **kw: calls.append(a))
    path = tmp_path / "gf37.json"
    rc, _, err = run(capsys, "export", "--q", "37", "--t", "2", "--p", "2",
                     "--format", "json", "--output", str(path))
    assert rc == 2
    assert "digit strings" in err
    assert calls == []
    assert not path.exists()
