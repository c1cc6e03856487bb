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

Products whose shorter factor has PACKED_MUL_MIN_LENGTH coefficients or more
are taken by Kronecker substitution: each factor is packed into one integer
as its value at q = 2^(8k) (pack), the two integers are multiplied once, and
the product's coefficients are read back as signed base-2^(8k) digits
(unpack).  The digit width is chosen so that no coefficient can reach a
neighbouring digit: digit_bytes(bound) is the least k with
2^(8k-1) > bound, and the bound is min(len a, len b) * max|a| * max|b|,
which no coefficient of the product exceeds in magnitude.  unpack is given
that bound and raises ArithmeticError when its digits cannot hold it, or
when the digits it reads do not add back up to the integer (a carry or
residue left past the last digit), so a width too narrow for the product
fails loudly instead of returning wrapped coefficients.  Shorter products
are taken term by term.

Every value here is immutable once constructed and safe to share between
threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable


# Below this length of the shorter factor, the term-by-term product is the
# faster one: packing costs a few conversions per coefficient, against
# len(a) * len(b) small multiplications.
PACKED_MUL_MIN_LENGTH = 16


def digit_bytes(bound: int) -> int:
    """The fewest bytes k with 2^(8k-1) > bound: the width of a signed digit
    that holds every value of magnitude at most bound."""
    return bound.bit_length() // 8 + 1


def _half_offset(k: int, length: int) -> int:
    """sum_i 2^(8k-1) * 2^(8k i) over i < length: moves length signed
    k-byte digits into unsigned ones."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * length, "little")


def pack(coeffs, k: int) -> int:
    """sum_i coeffs[i] * 2^(8k i): the coefficients, each of magnitude below
    2^(8k-1), as the value at q = 2^(8k).  A coefficient out of that range
    raises OverflowError."""
    half = 1 << (8 * k - 1)
    raw = b"".join([(c + half).to_bytes(k, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _half_offset(k, len(coeffs))


def unpack(value: int, k: int, length: int, bound: int) -> list[int]:
    """The coefficients c_0..c_(length-1) with
    value == sum_i c_i * 2^(8k i), given that none exceeds bound in
    magnitude.  ArithmeticError when a signed k-byte digit cannot hold bound
    (the digits would not be the coefficients), or when value is out of the
    reach of length such digits (a carry or residue left past the last)."""
    if bound >> (8 * k - 1):
        raise ArithmeticError(f"digits of {k} bytes cannot hold "
                              f"coefficients up to {bound}")
    shifted = value + _half_offset(k, length)
    if shifted < 0 or shifted >> (8 * k * length):
        raise ArithmeticError(f"packed value does not fit {length} signed "
                              f"digits of {k} bytes")
    raw = shifted.to_bytes(k * length, "little")
    half = 1 << (8 * k - 1)
    return [int.from_bytes(raw[i:i + k], "little") - half
            for i in range(0, k * length, k)]


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

    @classmethod
    def _of_ints(cls, coeffs: list[int]) -> "QPolynomial":
        """The polynomial with these coefficients, known to be ints with a
        nonzero last one, without the constructor's pass over them."""
        p = object.__new__(cls)
        p.coeffs = tuple(coeffs)
        return p

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
        shorter = min(len(a), len(b))
        if shorter >= PACKED_MUL_MIN_LENGTH:
            bound = shorter * max(map(abs, a)) * max(map(abs, b))
            k = digit_bytes(bound)
            return QPolynomial._of_ints(unpack(pack(a, k) * pack(b, k), k,
                                               len(a) + len(b) - 1, bound))
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        # a and b end in nonzero ints, and so does their product
        return QPolynomial._of_ints(out)

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
