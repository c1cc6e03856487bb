from fractions import Fraction

import pytest

from qsegre import besselseries, permstats
from qsegre.besselseries import (bessel_coefficients, build_f,
                                 reciprocal_numerators, verify_reciprocal)
from qsegre.exactalg import (ONE, QPolynomial, QRationalFunction,
                             TruncatedSeries, q_factorial)
from qsegre.permstats import w_polynomial

from oracles import series_reciprocal


class TestBuildF:
    def test_first_coefficients(self):
        f = build_f(2)
        assert f.coeffs[0] == QRationalFunction(ONE)
        assert f.coeffs[1] == QRationalFunction(-ONE)
        assert f.coeffs[2] == QRationalFunction(ONE, QPolynomial([1, 1]) * QPolynomial([1, 1]))

    def test_signs_alternate(self):
        f = build_f(5)
        for n, c in enumerate(f.coeffs):
            value = c.evaluate(2)
            assert (value > 0) == (n % 2 == 0)


class TestReciprocal:
    def test_order_zero(self):
        assert verify_reciprocal(0) == [True]

    def test_order_two_includes_reduced_ratio(self):
        assert verify_reciprocal(2) == [True, True, True]
        inverse = series_reciprocal(build_f(2))
        expected = QRationalFunction(QPolynomial([0, 2, 1]),
                                     QPolynomial([1, 1]) * QPolynomial([1, 1]))
        assert inverse.coeffs[2] == expected

    def test_order_five_all_match(self):
        assert all(verify_reciprocal(5))

    def test_order_beyond_pair_bound_rejected(self):
        with pytest.raises(ValueError):
            verify_reciprocal(8)

    def test_product_invariant_holds(self):
        data = bessel_coefficients(4)
        assert data.f * data.f_inv == TruncatedSeries.one(4)

    def test_q_equals_one_reproduces_integer_counts(self):
        # coefficient n of the reciprocal, times (n!)^2, counts the pairs
        from math import factorial
        inverse = series_reciprocal(build_f(4))
        omegas = [1, 1, 3, 19, 211]
        for n, omega in enumerate(omegas):
            value = inverse.coeffs[n].evaluate(1) * factorial(n) ** 2
            assert value == Fraction(omega)
        assert inverse.coeffs[2].evaluate(1) * 4 == 3  # hard regression point

    def test_reciprocal_coefficients_are_the_pair_polynomials(self):
        inverse = series_reciprocal(build_f(4))
        for n in range(5):
            fact = q_factorial(n)
            assert inverse.coeffs[n] == QRationalFunction(w_polynomial(n), fact * fact)


class TestFractionFreeNumerators:
    def test_match_the_rational_function_reciprocal_through_order_five(self):
        inverse = series_reciprocal(build_f(5))
        for n, g in enumerate(reciprocal_numerators(5)):
            fact = q_factorial(n)
            assert QRationalFunction(g, fact * fact) == inverse.coeffs[n]

    def test_coefficients_are_ints(self):
        for g in reciprocal_numerators(7):
            assert all(type(c) is int for c in g.coeffs)

    def test_displayed_reciprocal_is_built_from_the_numerators(self):
        data = bessel_coefficients(3)
        for n, g in enumerate(reciprocal_numerators(3)):
            fact = q_factorial(n)
            assert data.f_inv.coeffs[n] == QRationalFunction(g, fact * fact)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            reciprocal_numerators(-1)

    def test_order_beyond_the_bound_does_no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the bound check")
        monkeypatch.setattr(besselseries, "csv_recurrence", fail)
        monkeypatch.setattr(besselseries, "w_polynomial", fail)
        monkeypatch.setattr(permstats, "_perm_stats", fail)
        with pytest.raises(ValueError, match="bound 7"):
            verify_reciprocal(8)
        with pytest.raises(ValueError, match="bound 3"):
            verify_reciprocal(4, bound=3)
