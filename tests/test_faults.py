"""Each proof obligation of the construction and the analysis, broken on purpose, fails
`analyze` by its stage.

The primitive search is patched to hand the consta-cyclic base a polynomial
that fails one check; a searched h is trusted input, so the failure is a
verification failure (exit 1), not invalid input.  The rank fault zeroes
one generator row as it is assembled.  The analysis faults edit the counts
of the exact spectrum of analyze --q 3 --t 2 --p 4, {0: 1, 9: 32, 12: 48},
before the checks read it, or make the transform miscount.  The cyclic base
is reached through analyze --cyclic with a searched h0 that the derivation
cannot rescale to a divisor of x^m - 1.
"""

from dataclasses import replace

import numpy as np
import pytest

from qtweave import Poly, analysis, construction, field_from_order
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


def test_a_transform_that_miscounts_every_slice_alike_fails_its_total(capsys, monkeypatch):
    # one extra weight-0 word per leading symbol: the slices still agree, the total does not
    monkeypatch.setattr(construction, "points", lambda G: None)  # the transform runs
    original = analysis._zero_counts

    def extra_word(flat, q, *args):
        zeros = original(flat, q, *args).reshape(q, -1)
        return np.hstack([zeros, np.full((q, 1), len(flat), zeros.dtype)]).ravel()
    monkeypatch.setattr(analysis, "_zero_counts", extra_word)
    assert_stage_failure(*analyze(capsys, 3, 2, p=4), "spectrum: the transform counted ")


def test_a_zero_count_outside_0_to_n_names_the_stage(capsys, monkeypatch):
    # n + 1 columns orthogonal to one message: no weight of a codeword, so no tally key
    monkeypatch.setattr(construction, "points", lambda G: None)  # the transform runs
    original = analysis._zero_counts

    def too_many(flat, *args):
        zeros = original(flat, *args).copy()
        zeros[0] = len(flat) + 1
        return zeros
    monkeypatch.setattr(analysis, "_zero_counts", too_many)
    assert_stage_failure(*analyze(capsys, 3, 2, p=4),
                         "spectrum: the transform gave a zero count outside 0..16")


def test_a_failed_shift_check_runs_the_full_transform_to_the_same_report(capsys, monkeypatch):
    rc, points, _ = analyze(capsys, 3, 2, p=4)
    assert rc == 0 and "spectrum method: points" in points
    monkeypatch.setattr(construction, "points", lambda G: None)
    rc, transform, err = analyze(capsys, 3, 2, p=4)
    assert rc == 0 and err == ""
    assert transform == points.replace("spectrum method: points", "spectrum method: transform")


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
