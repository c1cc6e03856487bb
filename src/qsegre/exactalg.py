"""Exact arithmetic in the indeterminate q.

Every object the paper needs is an integer polynomial over a denominator
known in advance, so this module has polynomials only: a caller keeps the
known denominator (([n]_q!)^2 for the reciprocal series, the product of
(1 - q^i)^2 for principal specialization) explicit beside the numerator, and
no gcd is ever taken.  Coefficients are Python ints and nothing else: any
other coefficient is refused with TypeError, and long division takes only a
divisor whose leading coefficient is +1 or -1, which keeps every quotient in
the integers (every known denominator is such a product of 1 - q^i).
Nothing here ever touches floating point or rationals.

A polynomial is a tuple of coefficients in ascending degree with no trailing
zeros (the zero polynomial is the empty tuple), which makes structural
equality coincide with mathematical equality.

Every value here is immutable once constructed and safe to share between
threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


def _coerce(value) -> int:
    """The value as a plain int; TypeError for anything but an integer."""
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an integer, got {type(value).__name__}")


class QPolynomial:
    """Dense univariate polynomial in q; index i holds the coefficient of q^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [c if type(c) is int else _coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[int, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, value: int) -> int:
        """Exact value at q = value, by Horner's rule."""
        v = _coerce(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            other = int(other)
            return QPolynomial([c * other for c in self.coeffs])
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPolynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "QPolynomial"):
        """Long division by a divisor whose leading coefficient is +1 or -1,
        so that quotient and remainder stay in the integers; any other
        nonzero divisor raises ValueError."""
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dlead = other.coeffs[-1]
        if dlead not in (1, -1):
            raise ValueError(f"divisor {other} has leading coefficient "
                             f"{dlead}, not +1 or -1")
        rem = list(self.coeffs)
        dlen = len(other.coeffs)
        if len(rem) < dlen:
            return QPolynomial(), self
        quo = [0] * (len(rem) - dlen + 1)
        for shift in range(len(rem) - dlen, -1, -1):
            top = rem[shift + dlen - 1]
            factor = top if dlead == 1 else -top
            if factor:
                quo[shift] = factor
                for i, c in enumerate(other.coeffs):
                    rem[shift + i] -= factor * c
        return QPolynomial(quo), QPolynomial(rem)

    def exact_div(self, other: "QPolynomial") -> "QPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self} is not divisible by {other}")
        return q

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else f"{mag}*{var}"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += sign + body
        return out


ZERO = QPolynomial()
ONE = QPolynomial([1])


def q_power(k: int) -> QPolynomial:
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return QPolynomial([0] * k + [1])


def one_minus_q_power(k: int) -> QPolynomial:
    """The polynomial 1 - q^k (zero when k == 0)."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return ZERO
    return QPolynomial([1] + [0] * (k - 1) + [-1])


@lru_cache(maxsize=None)
def q_integer(n: int) -> QPolynomial:
    """1 + q + ... + q^(n-1); the zero polynomial when n == 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return QPolynomial([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPolynomial:
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = ONE
    for i in range(1, n + 1):
        out = out * q_integer(i)
    return out


def poly_coeff_strings(p: QPolynomial) -> list[str]:
    """Serialization used by the CLI: ascending coefficients as strings."""
    return [str(c) for c in p.coeffs]
