"""Each proof obligation of the construction and the analysis, broken on purpose, fails
`analyze` by its stage.

The primitive search is patched to hand the consta-cyclic base a polynomial
that fails one check; a searched h is trusted input, so the failure is a
verification failure (exit 1), not invalid input.  The rank fault zeroes
one generator row as it is assembled, and the sigma fault changes one cell
of the built rows, so the consta-shift check refuses them before any
spectrum is counted.  The analysis faults edit the counts of the exact
spectrum of analyze --q 3 --t 2 --p 4, {0: 1, 9: 32, 12: 48}, before the
checks read it.  The cyclic base is reached through analyze --cyclic with a
searched h0 that the derivation cannot rescale to a divisor of x^m - 1.
"""

import re
from dataclasses import replace

import pytest

from qtweave import (GeneratorMatrix, Poly, VerificationError, analysis, build_two_weight, cli,
                     construction, field_from_order, simplex_consta, weight_distribution)
from qtweave.cli import main

SEARCHED_FAULTS = [
    # x^7 mod (x^3 + 1) = x: the division leaves no constant
    (2, (1, 0, 0, 1), "simplex division: "),
    # x^4 mod (x^2 + 1) = 1 over GF(3): lambda = 1 has order 1, not 2
    (3, (1, 0, 1), "twist constant: "),
    # x^7 mod x^3 = 0: no twist constant at all
    (2, (0, 0, 0, 1), "twist constant: "),
    # x^5 = 1 mod x^4 + x^3 + x^2 + x + 1: lambda = 1 passes, the 15 columns repeat
    (2, (1, 1, 1, 1, 1), "simplex check: "),
]


def analyze(capsys, q, t, p=2, *flags):
    rc = main(["analyze", "--q", str(q), "--t", str(t), "--p", str(p), *flags])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_stage_failure(rc, out, err, stage, quiet=True):
    """Exit 1 with one stderr line naming the stage; a construction fault prints nothing."""
    assert rc == 1 and (out == "" or not quiet)
    assert err.startswith(f"verification failed: {stage}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("q, coeffs, stage", SEARCHED_FAULTS,
                         ids=["division", "lambda-order", "lambda-zero", "simplex-check"])
def test_a_searched_h_that_fails_a_base_check_names_the_stage(capsys, monkeypatch, q, coeffs,
                                                               stage):
    field = field_from_order(q)
    h = Poly(field, coeffs)
    monkeypatch.setattr(construction, "find_primitive", lambda *args, **kwargs: [h])
    assert_stage_failure(*analyze(capsys, q, h.degree), stage)


def test_a_cyclic_derivation_that_misses_lambda_1_names_the_stage(capsys, monkeypatch):
    # the derivation rescales the searched h0 = x^3 to h = x^3, and x^7 mod x^3 = 0, not 1
    h0 = Poly(field_from_order(2), (0, 0, 0, 1))
    monkeypatch.setattr(construction, "find_primitive", lambda *args, **kwargs: [h0])
    assert_stage_failure(*analyze(capsys, 2, 3, 2, "--cyclic"),
                         "twist constant: the cyclic build gave 0, expected 1")


def test_a_rank_fault_names_the_stage(capsys, monkeypatch):
    original = construction._assemble_rows

    def zero_first_row(code, shifts):
        rows = original(code, shifts)
        rows[0] = 0
        return rows
    monkeypatch.setattr(construction, "_assemble_rows", zero_first_row)
    assert_stage_failure(*analyze(capsys, 3, 2), "rank minor: ")


ANALYSIS_FAULTS = [
    ({0: 1, 8: 32, 12: 48}, "griesmer: "),  # minimum distance 8, not (p - 1) q^(t-1) = 9
    ({0: 1, 9: 32, 11: 1, 12: 47}, "pless moments: power moment 1 "),  # 3 * 863 / 81
    ({0: 1, 9: 23, 12: 57}, "pless moments: B_1 = -1, "),  # integral moments, B_1 < 0
]


@pytest.mark.parametrize("counts, stage", ANALYSIS_FAULTS, ids=["griesmer", "moment", "dual"])
def test_an_analysis_check_that_fails_names_the_stage(capsys, monkeypatch, counts, stage):
    original = analysis.weight_distribution
    monkeypatch.setattr(analysis, "weight_distribution",
                        lambda *args, **kwargs: replace(original(*args, **kwargs), counts=counts))
    assert_stage_failure(*analyze(capsys, 3, 2, p=4), stage, quiet=False)


def test_an_srg_identity_that_fails_names_the_stage(capsys, monkeypatch):
    # a consistent projective two-weight spectrum satisfies both identities, so the
    # Pless moments, which would reject these counts first, are patched to pass
    original = analysis.weight_distribution
    monkeypatch.setattr(analysis, "weight_distribution", lambda *args, **kwargs: replace(
        original(*args, **kwargs), counts={0: 1, 9: 31, 12: 49}))
    monkeypatch.setattr(analysis, "dual_low_counts", lambda W: (0, 0))
    assert_stage_failure(*analyze(capsys, 3, 2, p=4), "srg: ", quiet=False)


def _bump(rows):
    """A copy of rows over GF(3) with cell (1, 0) plus 1: no longer the shift of column 1."""
    rows = rows.copy()
    rows[1, 0] = (rows[1, 0] + 1) % 3
    return rows


def _scale_top_block(rows):
    """A copy of rows over GF(3), m = 4, with top block 1 times 2: a shift still, but not g."""
    rows = rows.copy()
    rows[:2, 4:8] = rows[:2, 4:8] * 2 % 3
    return rows


SIGMA_FAULTS = {
    "shape": (lambda rows: rows[:, :-1], "the rows are not 4 x 16 elements of GF(3)"),
    "entries": (lambda rows: rows + 3, "the rows are not 4 x 16 elements of GF(3)"),
    "shift": (_bump, "a column of the rows is not the consta-shift of the next one"),
    "top blocks": (_scale_top_block, "the nonzero top blocks differ"),
}


def test_a_broken_sigma_cell_names_the_stage(capsys, monkeypatch):
    # the edit comes after the build's rank minor, so only sigma can catch it
    build = cli._build_code

    def bumped(*args, **kwargs):
        code, G = build(*args, **kwargs)
        return code, GeneratorMatrix(rows=_bump(G.rows), provenance=code)
    monkeypatch.setattr(cli, "_build_code", bumped)
    assert_stage_failure(*analyze(capsys, 3, 2, p=4), "sigma: a column of the rows ")


@pytest.mark.parametrize("fault", sorted(SIGMA_FAULTS))
def test_a_sigma_failure_names_its_condition(fault):
    code, G = build_two_weight(simplex_consta(field_from_order(3), 2), 4)
    edit, message = SIGMA_FAULTS[fault]
    H = GeneratorMatrix(rows=edit(G.rows), provenance=code)
    with pytest.raises(VerificationError, match=f"^sigma: {re.escape(message)}$"):
        weight_distribution(H)


def test_a_gap_that_misses_its_prediction_fails_the_verdict(capsys, monkeypatch):
    original = analysis.gap_fn
    monkeypatch.setattr(analysis, "gap_fn", lambda i, t, q: original(i, t, q) + 1)
    rc, out, err = analyze(capsys, 3, 2, p=4)
    assert rc == 1 and err == ""
    assert "gap: observed 2, predicted 3 (i = 3, r = 3)\ngap prediction: FAILED\n" in out


def test_a_qt_simplex_spectrum_of_two_weights_fails_the_single_weight_verdict(capsys,
                                                                             monkeypatch):
    # a spectrum with minimum distance q^(2t-1) = 8 whose Pless moments hold has that
    # one weight, so the moments, which would reject these counts first, are patched
    # to pass, and to call the code not projective, so no SRG is named
    original = analysis.weight_distribution
    monkeypatch.setattr(analysis, "weight_distribution", lambda *args, **kwargs: replace(
        original(*args, **kwargs), counts={0: 1, 8: 14, 12: 1}))
    monkeypatch.setattr(analysis, "dual_low_counts", lambda W: (1, 0))
    rc, out, err = analyze(capsys, 2, 2, 4, "--variant", "qt-simplex")
    assert rc == 1 and err == ""
    assert "single-weight check: FAILED (expected {8}, observed [8, 12])\n" in out
