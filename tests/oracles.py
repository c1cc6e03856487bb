"""Independent, slower routes to values the package computes another way.

Each oracle here is the definitional computation that a faster kernel in
src/qsegre replaced; the tests compare the two.
"""

from qsegre.exactalg import RF_ONE, RF_ZERO, QPolynomial, TruncatedSeries
from qsegre.permstats import _perm_stats


def series_reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo z^(order+1) in reduced rational functions.

    Triangular recurrence: t_0 = 1/s_0 and
    t_n = -(1/s_0) * sum_{k=1..n} s_k t_{n-k}.
    """
    c0 = s.coeffs[0]
    if c0.is_zero():
        raise ValueError("series with zero constant term has no reciprocal")
    inv0 = RF_ONE / c0
    out = [inv0]
    for n in range(1, s.order + 1):
        acc = RF_ZERO
        for k in range(1, n + 1):
            acc = acc + s.coeffs[k] * out[n - k]
        out.append(-(inv0 * acc))
    return TruncatedSeries(s.order, out)


def w_polynomial_by_pair_scan(n: int) -> QPolynomial:
    """W_n(q) by testing every pair of S_n x S_n for a common ascent."""
    stats = _perm_stats(n)
    coeffs = [0] * (n * (n - 1) + 1)
    for m1, i1 in stats:
        for m2, i2 in stats:
            if m1 & m2 == 0:
                coeffs[i1 + i2] += 1
    return QPolynomial(coeffs)
