"""The pair polynomial W_n(q), over the pairs of permutations in one-line
notation with no common ascent, of their inversions: by insertion count up
to ENUMERATION_BOUND and by the alternating q-binomial-square recurrence up
to RECURRENCE_BOUND.

The insertion count lists no permutation: it tallies permutations by their
ascent set, the rank of their last entry and their inversions as they are
built one entry at a time, each tally an integer polynomial held as one
integer, its value at q = 2^(8k) (exactalg's Kronecker packing, with k from
exactalg.digit_bytes((n!)^2)), so that adding tallies and multiplying
classes is integer arithmetic and the coefficients are read back once.  It
takes no q-binomial, so it stays independent of the recurrence that it
seeds and that the identity checks compare it with.

Positions are 1-based throughout: position i of sigma is an ascent when
sigma(i) < sigma(i+1), for i in [n-1].  The empty permutation is admitted
everywhere, and the pair of empty permutations is the single member of the
n = 0 pair set.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exactalg import ONE, ZERO, QPolynomial, digit_bytes, unpack

ENUMERATION_BOUND = 7
RECURRENCE_BOUND = 50
Q_BINOMIAL_BOUND = 100


def check_enumeration_bound(n: int, name: str = "n") -> None:
    """Reject n outside [0, ENUMERATION_BOUND] before any work.  The error
    calls n by name, e.g. "order"."""
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    if n > ENUMERATION_BOUND:
        raise ValueError(f"{name}={n} exceeds the enumeration bound "
                         f"{ENUMERATION_BOUND}")


@lru_cache(maxsize=None)
def _w_polynomial_by_insertion(n: int) -> QPolynomial:
    """W_n(q) from the ascent classes of S_n, counted by insertion.

    A permutation is built one entry at a time: the entry at 0-based
    index i has relative rank r' in 0..i among the first i + 1, which adds
    the i - r' inversions with the larger entries before it, and makes
    position i (1-based, so bit i-1 of the mask) an ascent exactly when r'
    exceeds r, the rank of the entry before it among the first i.  So the
    prefixes are tallied by (ascent mask, r), each state holding the
    inversion polynomial of its prefixes packed at q = 2^w (exactalg.pack's
    form, so q^j is a shift by w * j); the prefix sums over r give every
    next state at once.  Summing the states of a mask gives
    the inversion polynomial A_m(q) of that ascent class, and W_n is the
    sum of A_m1 * A_m2 over disjoint masks.  Summing A over the submasks of
    each mask first (one bit at a time) leaves one product per class:
    2^(n-1) products of packed integers, read back once.  Every packed
    coefficient is a count of pairs, so none exceeds (n!)^2 and no digit
    of width digit_bytes((n!)^2) ever carries.
    """
    bound = math.factorial(n) ** 2
    k = digit_bytes(bound)
    w = 8 * k
    states = [[1]]  # one entry: no ascent, rank 0, no inversion
    for i in range(1, n):
        top = len(states)  # mask m, with ascent i added, is at m + top
        grown = [None] * (2 * top)
        for mask, row in enumerate(states):
            prefix = [0]  # prefix[r] = sum of the states of rank below r
            for value in row:
                prefix.append(prefix[-1] + value)
            total = prefix[-1]
            grown[mask] = [(total - prefix[r]) << (w * (i - r))
                           for r in range(i + 1)]
            grown[mask + top] = [prefix[r] << (w * (i - r))
                                 for r in range(i + 1)]
        states = grown
    classes = [sum(row) for row in states]
    below = list(classes)  # below[m] = sum of A_s over the submasks s of m
    for bit in range(n - 1):
        for m in range(len(below)):
            if m >> bit & 1:
                below[m] += below[m ^ (1 << bit)]
    full = len(classes) - 1
    total = sum(a * below[full ^ m] for m, a in enumerate(classes))
    return QPolynomial(unpack(total, k, n * (n - 1) + 1, bound))


def w_polynomial(n: int) -> QPolynomial:
    """Generating polynomial of q^(inv(sigma)+inv(omega)) over the pairs of
    S_n x S_n with no common ascent, computed by insertion count up to
    ENUMERATION_BOUND (w_polynomial_recurrence continues past it)."""
    check_enumeration_bound(n)
    return _w_polynomial_by_insertion(n)


def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial [n choose k]_q, by the q-Pascal rule.  An n above
    Q_BINOMIAL_BOUND is refused before any work: the rule caches about
    n^2/4 polynomials of degree up to n^2/4, and [100 choose 50]_q takes
    about 0.6 s and 90 MB."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial requires 0 <= k <= n, got n={n}, k={k}")
    if n > Q_BINOMIAL_BOUND:
        raise ValueError(f"n={n} exceeds the q-binomial bound {Q_BINOMIAL_BOUND}")
    return _q_pascal(n, k)


@lru_cache(maxsize=None)
def q_binomial_square(n: int, k: int) -> QPolynomial:
    """[n choose k]_q squared, computed once per process."""
    b = q_binomial(n, k)
    return b * b


@lru_cache(maxsize=None)
def _q_pascal(n: int, k: int) -> QPolynomial:
    """[n choose k]_q = [n-1 choose k-1]_q + q^k [n-1 choose k]_q, the
    product by q^k taken as a shift of the coefficients by k places."""
    if k == 0 or k == n:
        return ONE
    shifted = QPolynomial((0,) * k + _q_pascal(n - 1, k).coeffs)
    return _q_pascal(n - 1, k - 1) + shifted


def alternating_square_sum(n: int, values) -> QPolynomial:
    """sum_i (-1)^i [n choose i]_q^2 values[i] over i < len(values) <= n + 1.

    The alternating identity's residual, the recurrence's solve step and
    the reciprocal's product check are all this sum.
    """
    total = ZERO
    for i, value in enumerate(values):
        term = q_binomial_square(n, i) * value
        total = total + term if i % 2 == 0 else total - term
    return total


def verify_q_csv_identity(n: int) -> QPolynomial:
    """Residual of the alternating Gaussian-square identity
    sum_i (-1)^i [n choose i]_q^2 W_i(q); the zero polynomial when it holds.

    This is the q-analogue of the Carlitz-Scoville-Vaughan recurrence for
    counting pairs of permutations with no common ascent.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    check_enumeration_bound(n)
    return alternating_square_sum(n, [w_polynomial(i) for i in range(n + 1)])


def csv_recurrence(seeds: list[QPolynomial], n: int) -> list[QPolynomial]:
    """Extend W_0..W_(k-1), given as seeds, to W_0..W_n by solving the
    alternating identity for its last term:
    W_m = sum_{i<m} (-1)^(m-1+i) [m choose i]_q^2 W_i.

    Seeded with W_0 = 1 alone, this is the fraction-free reciprocal of the
    alternating q-factorial series (see besselseries).
    """
    values = list(seeds)
    for m in range(len(values), n + 1):
        acc = alternating_square_sum(m, values)
        values.append(acc if m % 2 else -acc)
    return values


def w_polynomial_recurrence(n: int) -> QPolynomial:
    """W_n(q) by insertion count up to ENUMERATION_BOUND, and past it from
    the alternating identity, solved recursively from the counted values,
    so the count stays the ground truth of the recurrence's base.  This is
    the one place that picks between the two routes.  An n above
    RECURRENCE_BOUND is refused before any work: it takes about n^2/2
    products of polynomials of degree up to about n^2 with coefficients of
    up to about 2n log2(n) bits, and W_50 takes several seconds.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > RECURRENCE_BOUND:
        raise ValueError(f"n={n} exceeds the recurrence bound {RECURRENCE_BOUND}")
    if n <= ENUMERATION_BOUND:
        return _w_polynomial_by_insertion(n)
    seeds = [_w_polynomial_by_insertion(m) for m in range(ENUMERATION_BOUND + 1)]
    return csv_recurrence(seeds, n)[n]

