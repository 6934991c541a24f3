"""Each proof obligation of the construction, broken on purpose, fails `analyze` by its stage.

The primitive search is patched to hand the consta-cyclic base a polynomial
that fails one check; a searched h is trusted input, so the failure is a
verification failure (exit 1), not invalid input.  The rank fault zeroes
one generator row as it is assembled.
"""

import pytest

from qtweave import Poly, construction, field_from_order
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


def analyze(capsys, q, t):
    rc = main(["analyze", "--q", str(q), "--t", str(t), "--p", "2"])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_stage_failure(rc, out, err, stage):
    assert rc == 1 and out == ""
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


def test_a_rank_fault_names_the_stage(capsys, monkeypatch):
    original = construction._assemble_rows

    def zero_first_row(code, shifts):
        rows = original(code, shifts)
        rows[0] = 0
        return rows
    monkeypatch.setattr(construction, "_assemble_rows", zero_first_row)
    assert_stage_failure(*analyze(capsys, 3, 2), "rank minor: ")
