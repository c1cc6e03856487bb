"""The alternating series f with coefficients (-1)^n/([n]_q!)^2 and its formal
reciprocal.

The reciprocal is computed fraction-free.  Writing its z^n coefficient as
g_n/([n]_q!)^2 and clearing denominators in f * (1/f) = 1 gives
sum_k (-1)^k [n choose k]_q^2 g_(n-k) = [n = 0], the q-analogue of the
Carlitz-Scoville-Vaughan recurrence, so every g_n is an integer polynomial.
verify_reciprocal checks g_n == W_n(q) against the enumerated pair
polynomial; bessel_coefficients displays the same g_n over ([n]_q!)^2 as
reduced rational functions.  q stays symbolic; specializing it is a caller
convenience only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import ONE, QPolynomial, QRationalFunction, TruncatedSeries, q_factorial
from .permstats import check_enumeration_bound, csv_recurrence, w_polynomial


def build_f(order: int) -> TruncatedSeries:
    """The truncated series whose z^n coefficient is (-1)^n / ([n]_q!)^2."""
    coeffs = []
    for n in range(order + 1):
        fact = q_factorial(n)
        num = ONE if n % 2 == 0 else -ONE
        coeffs.append(QRationalFunction(num, fact * fact))
    return TruncatedSeries(order, coeffs)


def reciprocal_numerators(order: int) -> list[QPolynomial]:
    """g_0..g_order, where g_n = ([n]_q!)^2 times the z^n coefficient of 1/f."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return csv_recurrence([ONE], order)


@dataclass(frozen=True)
class BesselCoefficients:
    order: int
    f: TruncatedSeries
    f_inv: TruncatedSeries


def bessel_coefficients(order: int) -> BesselCoefficients:
    """Series plus reciprocal, with the product-identity invariant checked."""
    f = build_f(order)
    f_inv = TruncatedSeries(order, [
        QRationalFunction(g, q_factorial(n) * q_factorial(n))
        for n, g in enumerate(reciprocal_numerators(order))])
    if f * f_inv != TruncatedSeries.one(order):
        raise ArithmeticError(
            f"f times its reciprocal is not 1 through order {order}")
    return BesselCoefficients(order, f, f_inv)


def verify_reciprocal(order: int, bound=None) -> list[bool]:
    """Entry n is True when g_n, the cleared z^n coefficient of the
    reciprocal, equals W_n(q) as integer polynomials.  An order beyond the
    enumeration bound is refused before any work."""
    check_enumeration_bound(order, bound)
    return [g == w_polynomial(n, bound=bound)
            for n, g in enumerate(reciprocal_numerators(order))]
