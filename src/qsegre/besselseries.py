"""The alternating series f with coefficients (-1)^n/([n]_q!)^2 and its formal
reciprocal, both kept as integer numerators over the known denominators
([n]_q!)^2.

Writing the reciprocal's z^n coefficient as g_n/([n]_q!)^2 and clearing
denominators in f * (1/f) = 1 gives
sum_k (-1)^k [n choose k]_q^2 g_(n-k) = [n = 0], the q-analogue of the
Carlitz-Scoville-Vaughan recurrence, so every g_n is an integer polynomial.
bessel_coefficients returns g_0..g_order alone: f's numerators, +1 and -1,
and the denominators are formed where they are printed.  verify_reciprocal
returns them with the check g_n == W_n(q) against the enumerated pair
polynomial, which is the identity check, so a caller that prints them
computes them once.  q stays
symbolic; specializing it is a caller convenience only.
"""

from __future__ import annotations

from .exactalg import ONE, ZERO, QPolynomial
from .permstats import (alternating_square_sum, check_enumeration_bound,
                        csv_recurrence, w_polynomial)


def bessel_coefficients(order: int) -> list[QPolynomial]:
    """g_0..g_order, where g_n = ([n]_q!)^2 times the z^n coefficient of 1/f,
    with the cleared product identity
    sum_k (-1)^k [n choose k]_q^2 g_(n-k) = [n = 0] checked.

    That check is an arithmetic self-test and cannot fail on its own:
    csv_recurrence solves for each g_n so that this very sum vanishes, so
    re-adding it can catch only an arithmetic fault in exactalg.  The
    identity is checked by verify_reciprocal, which compares each g_n with
    the enumerated W_n(q)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    g = csv_recurrence([ONE], order)
    for n in range(order + 1):
        # [n choose k]_q = [n choose n-k]_q, so the z^n coefficient is
        # (-1)^n times the alternating square sum of g_0..g_n
        if alternating_square_sum(n, g[:n + 1]) != (ONE if n == 0 else ZERO):
            raise ArithmeticError(
                f"f times its reciprocal is not 1 at z^{n} (order {order})")
    return g


def verify_reciprocal(order: int) -> tuple[list[QPolynomial], list[bool]]:
    """(g, flags): g is bessel_coefficients(order), and flags[n] is True
    when g_n, the cleared z^n coefficient of the reciprocal, equals W_n(q)
    as integer polynomials.  That comparison is the identity check, as the
    enumeration is independent of the recurrence that gives g.  An order
    beyond the enumeration bound is refused before any work."""
    check_enumeration_bound(order, name="order")
    g = bessel_coefficients(order)
    return g, [g_n == w_polynomial(n) for n, g_n in enumerate(g)]
