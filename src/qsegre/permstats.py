"""The ascent and inversion statistics of permutations in one-line notation,
and the pair polynomial W_n(q) of the pairs with no common ascent, by
enumeration up to ENUMERATION_BOUND and by the alternating q-binomial-square
recurrence up to RECURRENCE_BOUND.

Positions are 1-based throughout: position i of sigma is an ascent when
sigma(i) < sigma(i+1), for i in [n-1].  The empty permutation is admitted
everywhere, and the pair of empty permutations is the single member of the
n = 0 pair set.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .exactalg import ONE, ZERO, QPolynomial, q_power

ENUMERATION_BOUND = 7
RECURRENCE_BOUND = 40
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
def perm_stats(n: int) -> tuple[tuple[int, int], ...]:
    """(ascent bitmask, inversion count) for each permutation of [n], in the
    lexicographic order of itertools.permutations(range(1, n + 1)).

    Bit i-1 of the mask is set when position i is an ascent, so two
    permutations share an ascent exactly when their masks intersect.
    """
    stats = []
    for img in itertools.permutations(range(1, n + 1)):
        mask = 0
        inv = 0
        for i in range(n):
            if i < n - 1 and img[i] < img[i + 1]:
                mask |= 1 << i
            for j in range(i + 1, n):
                if img[i] > img[j]:
                    inv += 1
        stats.append((mask, inv))
    return tuple(stats)


@lru_cache(maxsize=None)
def _w_polynomial_enumerated(n: int) -> QPolynomial:
    """W_n(q) from the ascent classes of S_n.

    Every permutation is visited once and filed under its ascent bitmask m,
    giving the inversion polynomial A_m(q) of each class; then W_n is the sum
    of A_m1 * A_m2 over disjoint masks.  Summing A over the submasks of each
    mask first (one bit at a time) leaves one product per class: 2^(n-1)
    products instead of (n!)^2 pair tests.
    """
    full = (1 << max(n - 1, 0)) - 1
    counts = [[0] * (n * (n - 1) // 2 + 1) for _ in range(full + 1)]
    for mask, inv in perm_stats(n):
        counts[mask][inv] += 1
    classes = [QPolynomial(c) for c in counts]
    below = list(classes)  # below[m] = sum of A_s over the submasks s of m
    for bit in range(n - 1):
        for m in range(full + 1):
            if m >> bit & 1:
                below[m] = below[m] + below[m ^ (1 << bit)]
    total = ZERO
    for m, a in enumerate(classes):
        total = total + a * below[full ^ m]
    return total


def w_polynomial(n: int) -> QPolynomial:
    """Generating polynomial of q^(inv(sigma)+inv(omega)) over the pairs of
    S_n x S_n with no common ascent, computed by full enumeration up to
    ENUMERATION_BOUND (w_polynomial_recurrence continues past it)."""
    check_enumeration_bound(n)
    return _w_polynomial_enumerated(n)


def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial [n choose k]_q, by the q-Pascal rule.  An n above
    Q_BINOMIAL_BOUND is refused before any work: the rule caches about
    n^2/4 polynomials of degree up to n^2/4, and [100 choose 50]_q takes
    about 1 s and 90 MB."""
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
    """[n choose k]_q = [n-1 choose k-1]_q + q^k [n-1 choose k]_q."""
    if k == 0 or k == n:
        return ONE
    return _q_pascal(n - 1, k - 1) + q_power(k) * _q_pascal(n - 1, k)


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
    """W_n(q) by enumeration up to ENUMERATION_BOUND, and past it from
    the alternating identity, solved recursively from the enumerated values,
    so enumeration stays the ground truth of the recurrence's base.  This is
    the one place that picks between the two routes.  An n above
    RECURRENCE_BOUND is refused before any work: its cost grows about as
    n^6 (n^2 products of polynomials of degree up to about n^2).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > RECURRENCE_BOUND:
        raise ValueError(f"n={n} exceeds the recurrence bound {RECURRENCE_BOUND}")
    if n <= ENUMERATION_BOUND:
        return _w_polynomial_enumerated(n)
    seeds = [_w_polynomial_enumerated(m) for m in range(ENUMERATION_BOUND + 1)]
    return csv_recurrence(seeds, n)[n]

