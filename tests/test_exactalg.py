import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import exactalg
from qsegre.exactalg import (ONE, PACKED_MUL_MIN_LENGTH, ZERO, QPolynomial,
                             digit_bytes, one_minus_q_power, pack,
                             poly_coeff_strings, q_factorial, q_integer,
                             unpack)
from qsegre.symfrob import specialization_denominator

from oracles import (bessel_series_at, reciprocal_numerator_by_evaluation,
                     schoolbook_product, series_reciprocal)


Q = QPolynomial([0, 1])


def poly(*coeffs):
    return QPolynomial(coeffs)


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)

    def test_multiplying_by_zero_gives_canonical_zero(self):
        p = poly(3, 0, 2)
        assert (p * ZERO).coeffs == ()
        assert (p * ZERO).is_zero()

    def test_cyclotomic_like_product_is_q_integer_four(self):
        assert poly(1, 1) * poly(1, 0, 1) == q_integer(4)

    def test_trailing_zeros_are_trimmed(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert (poly(0, 1) - poly(0, 1)).coeffs == ()

    def test_subtraction_and_negation(self):
        assert poly(2, 5) - poly(1, 5) == ONE
        assert -poly(1, -2) == poly(-1, 2)

    def test_evaluate(self):
        assert poly(1, 2, 1).evaluate(2) == 9
        assert q_factorial(3).evaluate(2) == 21

    def test_divmod_exact_and_with_remainder(self):
        quotient, remainder = divmod(poly(-1, 0, 1), poly(-1, 1))
        assert quotient == poly(1, 1) and remainder.is_zero()
        quotient, remainder = divmod(poly(1, 1, 1), poly(-1, 1))
        assert quotient * poly(-1, 1) + remainder == poly(1, 1, 1)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            divmod(ONE, ZERO)

    def test_exact_div_rejects_inexact(self):
        with pytest.raises(ValueError):
            poly(1, 1, 1).exact_div(poly(-1, 1))

    def test_divisor_without_a_unit_lead_is_refused(self):
        # the quotient would leave the integers; no known denominator has one
        for divisor in (poly(1, 2), poly(3), poly(0, 0, -2)):
            with pytest.raises(ValueError, match="not \\+1 or -1"):
                divmod(poly(1, 2, 3), divisor)

    def test_randomized_ring_axioms(self):
        rng = random.Random(20240813)

        def random_poly():
            degree = rng.randrange(0, 6)
            return QPolynomial([rng.randrange(-5, 6)
                                for _ in range(degree + 1)])

        for _ in range(60):
            a, b, c = random_poly(), random_poly(), random_poly()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a

    def test_string_forms(self):
        assert str(ZERO) == "0"
        assert str(poly(0, 2, 1)) == "q^2+2*q"
        assert str(poly(-1, 0, 1)) == "q^2-1"

    def test_operators_on_small_cases(self):
        assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)
        assert Q + ONE == poly(1, 1)
        assert (Q - Q).is_zero()
        with pytest.raises(TypeError):
            Q / Q


class TestSerialization:
    def test_coeff_strings_match_contract(self):
        assert poly_coeff_strings(poly(0, 2, 1)) == ["0", "2", "1"]

    def test_round_trip_through_strings(self):
        p = QPolynomial([-12, 3, 0, 10 ** 30])
        assert QPolynomial(int(c) for c in poly_coeff_strings(p)) == p


class TestRationalFunctions:
    """A rational function is a numerator over a denominator known in
    advance; these check what that representation relies on."""

    def test_common_factor_cancels(self):
        assert poly(-1, 0, 1).exact_div(poly(-1, 1)) == poly(1, 1)

    def test_zero_numerator(self):
        assert ZERO.exact_div(poly(0, 0, 0, 1)).is_zero()

    def test_monic_normalization(self):
        # the known denominators are monic, so a numerator over one of them
        # prints as the reduced form with a monic denominator would
        for n in range(9):
            assert (q_factorial(n) * q_factorial(n)).coeffs[-1] == 1
            assert specialization_denominator(n).coeffs[-1] == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    def test_evaluate(self):
        num, den = poly(0, 2, 1), poly(1, 1) * poly(1, 1)
        assert Fraction(num.evaluate(2), den.evaluate(2)) == Fraction(8, 9)
        assert specialization_denominator(3).evaluate(1) == 0  # pole at q = 1


class TestTruncatedSeries:
    """The test-side series reciprocal over the rationals."""

    def test_geometric_series(self):
        assert series_reciprocal([1, -1, 0, 0]) == [1, 1, 1, 1]

    def test_reciprocal_of_one(self):
        assert series_reciprocal([1, 0, 0]) == [1, 0, 0]

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            series_reciprocal([0, 1])

    def test_alternating_factorial_series_coefficient_two(self):
        # reciprocal of 1 - z + z^2/([2]_q!)^2 has (q^2+2q)/(1+q)^2 at z^2
        assert reciprocal_numerator_by_evaluation(2) == poly(0, 2, 1)

    def test_reciprocal_times_series_is_one_at_all_orders(self):
        for order in range(6):
            for q in (0, 1, 2, 5):
                s = bessel_series_at(order, q)
                t = series_reciprocal(s)
                product = [sum(s[k] * t[n - k] for k in range(n + 1))
                           for n in range(order + 1)]
                assert product == [1] + [0] * order


class TestHelpers:
    def test_q_integer_and_factorial(self):
        assert q_integer(0).is_zero()
        assert q_integer(3) == poly(1, 1, 1)
        assert q_factorial(0) == ONE
        assert q_factorial(3) == poly(1, 1, 1) * poly(1, 1)

    def test_one_minus_q_power(self):
        assert one_minus_q_power(1) == poly(1, -1)
        assert one_minus_q_power(0).is_zero()


int_coeffs = st.lists(st.integers(-50, 50), max_size=8)
unit_lead_divisors = st.tuples(st.lists(st.integers(-9, 9), max_size=5),
                               st.sampled_from([1, -1]))


class TestIntegerCoefficients:
    def test_non_int_coefficients_are_refused(self):
        for bad in (Fraction(4, 2), Fraction(1, 3), 2.0, "2"):
            with pytest.raises(TypeError, match="expected an integer"):
                QPolynomial([1, bad])
            with pytest.raises(TypeError, match="expected an integer"):
                poly(1, 1).evaluate(bad)
        assert [type(c) for c in QPolynomial([True, 2]).coeffs] == [int, int]
        assert type(poly(3, 5).evaluate(2)) is int

    @given(int_coeffs, int_coeffs)
    @settings(max_examples=200, deadline=None)
    def test_products_stay_integral_and_commute(self, a, b):
        a, b = QPolynomial(a), QPolynomial(b)
        assert all(type(c) is int for c in (a * b).coeffs)
        assert a * b == b * a

    @given(int_coeffs, unit_lead_divisors)
    @settings(max_examples=200, deadline=None)
    def test_division_by_unit_lead_stays_integral(self, a, divisor):
        rest, lead = divisor
        a, b = QPolynomial(a), QPolynomial(rest + [lead])
        quotient, remainder = divmod(a, b)
        assert all(type(c) is int for c in quotient.coeffs + remainder.coeffs)
        assert quotient * b + remainder == a
        assert remainder.degree < b.degree
        assert (a * b).exact_div(b) == a

    @given(int_coeffs, int_coeffs.filter(any))
    @settings(max_examples=200, deadline=None)
    def test_division_round_trip(self, a, b):
        # any other lead is refused, and the round trip then runs on the
        # divisor with its lead replaced by 1
        a, b = QPolynomial(a), QPolynomial(b)
        if b.coeffs[-1] not in (1, -1):
            with pytest.raises(ValueError, match="leading coefficient"):
                divmod(a, b)
            b = QPolynomial(b.coeffs[:-1] + (1,))
        quotient, remainder = divmod(a, b)
        assert quotient * b + remainder == a
        assert remainder.degree < b.degree
        product = a * b
        assert product.exact_div(b) == a
        assert all(type(c) is int for c in product.exact_div(b).coeffs)


class TestAgainstSympy:
    CASES = [((1, 0, 0, 0, -1), (1, -1)), ((5, 0, 3, 2), (2, 1)),
             ((0, 7, -3, 0, 4, 1), (2, 0, -1)), ((1, 2, 1), (3, 1, 1, 1))]

    @staticmethod
    def ascending(p: "sympy.Poly") -> list:
        return [] if p.is_zero else p.all_coeffs()[::-1]

    def test_long_division_matches(self):
        q = sympy.symbols("q")
        for a, b in self.CASES:
            quotient, remainder = divmod(QPolynomial(a), QPolynomial(b))
            sq, sr = sympy.div(sympy.Poly(a[::-1], q, domain="ZZ"),
                               sympy.Poly(b[::-1], q, domain="ZZ"))
            assert list(quotient.coeffs) == self.ascending(sq)
            assert list(remainder.coeffs) == self.ascending(sr)

    def test_gaussian_binomials_match(self):
        from qsegre.permstats import q_binomial
        q = sympy.symbols("q")
        for n, k in ((4, 2), (7, 3), (9, 4), (12, 5)):
            ratio = sympy.prod([(1 - q ** (n - i)) / (1 - q ** (i + 1))
                                for i in range(k)])
            expected = self.ascending(sympy.Poly(sympy.cancel(ratio), q))
            assert list(q_binomial(n, k).coeffs) == expected


@st.composite
def signed_coeffs(draw, max_bits=300):
    """A coefficient list of length 1 to three times the packing crossover,
    with interior zeros, and magnitudes up to 2^bits for a drawn bits."""
    bound = 1 << draw(st.integers(0, max_bits))
    length = draw(st.integers(1, 3 * PACKED_MUL_MIN_LENGTH))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    return draw(st.lists(entry, min_size=length, max_size=length))


class TestPackedProduct:
    """Products at or past PACKED_MUL_MIN_LENGTH are taken by Kronecker
    packing; each must equal the term-by-term product."""

    @given(signed_coeffs(), signed_coeffs(max_bits=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_schoolbook_product(self, a, b):
        expected = schoolbook_product(a, b)
        assert QPolynomial(a) * QPolynomial(b) == expected
        assert QPolynomial(b) * QPolynomial(a) == expected
        assert all(type(c) is int for c in (QPolynomial(a) * QPolynomial(b)).coeffs)

    @given(signed_coeffs(), st.integers(-(1 << 300), 1 << 300))
    @settings(max_examples=100, deadline=None)
    def test_int_scalars_multiply_each_coefficient(self, a, scalar):
        expected = QPolynomial([c * scalar for c in a])
        assert QPolynomial(a) * scalar == expected
        assert scalar * QPolynomial(a) == expected

    @pytest.mark.parametrize("length", [1, PACKED_MUL_MIN_LENGTH - 1,
                                        PACKED_MUL_MIN_LENGTH,
                                        PACKED_MUL_MIN_LENGTH + 1])
    def test_both_sides_of_the_crossover(self, length):
        rng = random.Random(length)
        for magnitude in (1, 10 ** 6, 1 << 300):
            a = [rng.randint(-magnitude, magnitude) for _ in range(length)]
            b = [rng.randint(-7, 7) for _ in range(length + 3)]
            a[-1] = b[-1] = -magnitude
            a[length // 2] = 0
            assert QPolynomial(a) * QPolynomial(b) == schoolbook_product(a, b)

    @given(st.lists(st.integers(-(1 << 70), 1 << 70), min_size=1,
                    max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_pack_and_unpack_invert_each_other(self, coeffs):
        bound = max(map(abs, coeffs))
        k = digit_bytes(bound)
        assert 1 << (8 * k - 1) > bound
        assert k == 1 or 1 << (8 * k - 9) <= bound  # the fewest bytes
        assert unpack(pack(coeffs, k), k, len(coeffs), bound) == coeffs

    def test_a_value_past_the_last_digit_is_refused(self):
        for edge in ([127, -128, 127], [-128] * 3, [127] * 3):
            assert unpack(pack(edge, 1), 1, 3, 127) == edge
        for value in (pack([127] * 3, 1) + 1, pack([-128] * 3, 1) - 1,
                      pack([0, 0, 0, 1], 1), -pack([0, 0, 0, 1], 1)):
            with pytest.raises(ArithmeticError, match="does not fit"):
                unpack(value, 1, 3, 127)
        with pytest.raises(OverflowError):
            pack([128], 1)

    def test_a_bound_past_the_digit_is_refused(self):
        with pytest.raises(ArithmeticError, match="cannot hold"):
            unpack(pack([1, 2, 3], 1), 1, 3, 128)

    @pytest.mark.parametrize("narrower", [1, 2])
    def test_a_width_too_narrow_fails_loudly(self, monkeypatch, narrower):
        # one byte fewer wraps the middle coefficients of the squares of
        # 1000s into their neighbours while the top one still fits, so the
        # digits add back up to the packed product and only the bound shows
        # the wrap; the other cases leave a residue past the last digit
        width = exactalg.digit_bytes
        monkeypatch.setattr(exactalg, "digit_bytes",
                            lambda bound: width(bound) - narrower)
        for length in (PACKED_MUL_MIN_LENGTH, 3 * PACKED_MUL_MIN_LENGTH):
            for magnitude in (1000, 1 << 100):
                a = QPolynomial([magnitude] * length)
                with pytest.raises(ArithmeticError):
                    a * a
        monkeypatch.undo()
        a = QPolynomial([1000] * PACKED_MUL_MIN_LENGTH)
        assert a * a == schoolbook_product(a.coeffs, a.coeffs)
