import json
from fractions import Fraction

import pytest

from qsegre import besselseries, permstats
from qsegre.besselseries import bessel_coefficients, verify_reciprocal
from qsegre.cli import main
from qsegre.exactalg import ONE, QPolynomial, poly_coeff_strings, q_factorial
from qsegre.permstats import w_polynomial

from oracles import (bessel_series_at, reciprocal_numerator_by_evaluation,
                     series_reciprocal)


def bessel_document(capsys, order: int) -> dict:
    """The `bessel` verb's document: f and 1/f as numerators over the
    denominators ([n]_q!)^2, each a list of coefficient strings."""
    assert main(["bessel", "--order", str(order)]) == 0
    return json.loads(capsys.readouterr().out)


def values_at(fractions, q):
    """Each {"num", "den"} of a document's series evaluated at q."""
    def at(coeffs):
        return QPolynomial([int(c) for c in coeffs]).evaluate(q)
    return [Fraction(at(r["num"]), at(r["den"])) for r in fractions]


class TestBuildF:
    """The series f, as numerators +1/-1 over ([n]_q!)^2."""

    def test_first_coefficients(self, capsys):
        doc = bessel_document(capsys, 2)
        assert [r["num"] for r in doc["f"]] == [["1"], ["-1"], ["1"]]
        assert [r["den"] for r in doc["f"]] == [["1"], ["1"], ["1", "2", "1"]]

    def test_signs_alternate(self, capsys):
        doc = bessel_document(capsys, 5)
        for n, value in enumerate(values_at(doc["f"], 2)):
            assert (value > 0) == (n % 2 == 0)
        assert values_at(doc["f"], 3) == bessel_series_at(5, 3)


class TestReciprocal:
    def test_order_zero(self):
        assert verify_reciprocal(0)[1] == [True]

    def test_order_two_includes_reduced_ratio(self):
        assert verify_reciprocal(2)[1] == [True, True, True]
        # the z^2 coefficient is (q^2+2q)/(1+q)^2, already in lowest terms
        assert reciprocal_numerator_by_evaluation(2) == QPolynomial([0, 2, 1])
        for q in range(5):
            inverse = series_reciprocal(bessel_series_at(2, q))
            assert inverse[2] == Fraction(q * q + 2 * q, (1 + q) ** 2)

    def test_order_five_all_match(self):
        assert all(verify_reciprocal(5)[1])

    def test_order_beyond_pair_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_reciprocal(8)

    def test_product_invariant_holds(self, capsys):
        doc = bessel_document(capsys, 4)
        for q in (2, 3):
            f = values_at(doc["f"], q)
            f_inv = values_at(doc["f_inv"], q)
            product = [sum(f[k] * f_inv[n - k] for k in range(n + 1))
                       for n in range(5)]
            assert product == [1, 0, 0, 0, 0]

    def test_q_equals_one_reproduces_integer_counts(self):
        # coefficient n of the reciprocal, times (n!)^2, counts the pairs
        from math import factorial
        inverse = series_reciprocal(bessel_series_at(4, 1))
        omegas = [1, 1, 3, 19, 211]
        for n, omega in enumerate(omegas):
            assert inverse[n] * factorial(n) ** 2 == omega
        assert inverse[2] * 4 == 3  # hard regression point

    def test_reciprocal_coefficients_are_the_pair_polynomials(self):
        for n in range(5):
            assert reciprocal_numerator_by_evaluation(n) == w_polynomial(n)


class TestFractionFreeNumerators:
    def test_match_the_rational_function_reciprocal_through_order_five(self):
        for n, g in enumerate(bessel_coefficients(5)):
            assert g == reciprocal_numerator_by_evaluation(n)

    def test_coefficients_are_ints(self):
        for g in bessel_coefficients(7):
            assert all(type(c) is int for c in g.coeffs)

    def test_displayed_reciprocal_is_built_from_the_numerators(self, capsys):
        doc = bessel_document(capsys, 3)
        assert [r["num"] for r in doc["f_inv"]] == \
            [poly_coeff_strings(g) for g in bessel_coefficients(3)]
        assert [r["den"] for r in doc["f_inv"]] == \
            [poly_coeff_strings(q_factorial(n) * q_factorial(n)) for n in range(4)]

    def test_broken_numerators_fail_the_product_identity(self, monkeypatch):
        good = bessel_coefficients(3)
        monkeypatch.setattr(besselseries, "csv_recurrence",
                            lambda seeds, order: good[:2] + [good[2] + ONE, good[3]])
        with pytest.raises(ArithmeticError, match="z\\^2"):
            bessel_coefficients(3)

    def test_the_verb_computes_the_reciprocal_once(self, capsys,
                                                   monkeypatch):
        # the printed numerators and their check against W_n are one result
        calls = []
        compute = besselseries.bessel_coefficients
        monkeypatch.setattr(besselseries, "bessel_coefficients",
                            lambda order: calls.append(order) or compute(order))
        bessel_document(capsys, 4)
        assert calls == [4]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            bessel_coefficients(-1)

    def test_order_beyond_the_bound_does_no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the bound check")
        monkeypatch.setattr(besselseries, "csv_recurrence", fail)
        monkeypatch.setattr(besselseries, "w_polynomial", fail)
        monkeypatch.setattr(permstats, "_w_polynomial_by_insertion", fail)
        with pytest.raises(ValueError, match="bound 7"):
            verify_reciprocal(8)
        monkeypatch.setattr(permstats, "ENUMERATION_BOUND", 3)
        with pytest.raises(ValueError, match="bound 3"):
            verify_reciprocal(4)
