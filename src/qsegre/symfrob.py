"""Class functions on products of two symmetric groups, their two-alphabet
characteristics, and the homology characters of rank-equal pair posets of
subset lattices.

A class function on S_m x S_n is a dict {(mu, lam): int} over every pair of
partitions of m and n, so m and n are read off any key.  Its characteristic
is the sum of table(mu, lam) / (z_mu z_lam) p_mu(x) p_lam(y), and every
identity here is checked on the integer side of that quotient: the
denominators are known in advance, so they are cleared rather than carried.
The product of two characteristics is the integer table of z_mu z_lam times
its coefficients, a sum over the splits of the cycles that visits only the
nonzero entries of its two operands, reading each pair's class through an
inverted per-class table; the alternating complete-homogeneous identity
sums such tables, h_a(x) h_a(y) being the characteristic of the trivial
character of S_a x S_a.

The homomorphism check is made per alphabet: the characteristic map of
S_k x S_l is that of S_k tensored with that of S_l, and induction acts on
each alphabet alone.  On a pair of class indicators both sides are one
class, the union of the two, with a count: the conjugator scan's for
induction, the splits' for the product.  So the check compares those
structure constants and builds no table.

The character of S_n x S_n on the one nonvanishing reduced homology group of
the proper part of the rank-equal pair poset of two subset lattices is
(-1)^n times the Mobius number of the subposet fixed by (g, h), by the Hopf
trace formula and Hall's theorem (Stanley, JCTA 1982).  That number depends
only on the two cycle types, so it is a recursion over sub-multisets of
cycle lengths; it uses no labels and no shelling.

Principal specialization acts per alphabet too, p_mu going to the product
of 1/(1 - q^a) over the parts a.  Times the product of (1 - q^i) for
i <= n, that is a polynomial when mu has size at most n, so the result is a
numerator over the square of that product, first with m! n! cleared from
the coefficients; the paper's specialization theorem becomes the
polynomial identity numerator == (n!)^2 W_n(q).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import comb, factorial, prod

from .exactalg import ONE, ZERO, QPolynomial, one_minus_q_power
from .permstats import w_polynomial_recurrence

Partition = tuple[int, ...]

PARTITION_BOUND = 12
TOP_HOMOLOGY_BOUND = 10
INDUCTION_BOUND = 5


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order ((n) first)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > PARTITION_BOUND:
        raise ValueError(f"n={n} exceeds the partition bound {PARTITION_BOUND}")

    def generate(remaining: int, largest: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, largest), 0, -1):
            for rest in generate(remaining - part, part):
                yield (part,) + rest

    return tuple(generate(n, n))


@lru_cache(maxsize=None)
def z_of(parts: Partition) -> int:
    """Centralizer order of a permutation of cycle type parts:
    the product over part sizes i of i^(m_i) * m_i!."""
    out = 1
    for part, mult in Counter(parts).items():
        out *= part ** mult * factorial(mult)
    return out


def check_homology_bound(n: int, name: str = "n") -> None:
    """Refuse a homology degree outside 1..TOP_HOMOLOGY_BOUND before any
    work; the error calls n by name, e.g. "max-n"."""
    if n < 1:
        raise ValueError(f"{name} must be at least 1")
    if n > TOP_HOMOLOGY_BOUND:
        raise ValueError(f"{name}={n} exceeds the homology bound "
                         f"{TOP_HOMOLOGY_BOUND}")


def _degrees(table: dict) -> tuple[int, int]:
    """(m, n) of a class function on S_m x S_n, read off any of its keys."""
    mu, lam = next(iter(table))
    return sum(mu), sum(lam)


@lru_cache(maxsize=None)
def _class_pairs(m: int, n: int) -> tuple:
    """Every class pair (mu, lam) of S_m x S_n, in the order of the tables."""
    return tuple((mu, lam) for mu in partitions_of(m)
                 for lam in partitions_of(n))


def _table(m: int, n: int) -> dict:
    """The trivial character of S_m x S_n, 1 on every class pair."""
    return dict.fromkeys(_class_pairs(m, n), 1)


# ---------------------------------------------------------------------------
# symmetric group plumbing (0-based one-line tuples)

def _cycle_type(perm: tuple[int, ...]) -> Partition:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def _perm_of_cycle_type(parts, size: int) -> tuple[int, ...]:
    """Canonical representative: consecutive blocks cycled in place."""
    if sum(parts) != size:
        raise ValueError("cycle type does not match the degree")
    img = list(range(size))
    position = 0
    for part in parts:
        for offset in range(part):
            img[position + offset] = position + (offset + 1) % part
        position += part
    return tuple(img)


@lru_cache(maxsize=None)
def _conjugation_profile(first: int, second: int, mu: Partition) -> dict:
    """For a fixed g of cycle type mu in S_(first+second): how many group
    elements conjugate g into the parabolic S_first x S_second, bucketed by
    the cycle types of the two blocks of the conjugate."""
    total = first + second
    g = _perm_of_cycle_type(mu, total)
    profile: dict = {}
    for b in itertools.permutations(range(total)):
        conj = [0] * total  # b g b^-1
        for x in range(total):
            conj[b[x]] = b[g[x]]
        if all(conj[i] < first for i in range(first)):
            ta = _cycle_type(conj[:first])
            tb = _cycle_type(tuple(v - first for v in conj[first:]))
            key = (ta, tb)
            profile[key] = profile.get(key, 0) + 1
    return profile


def _check_induction_bound(big_m: int, big_n: int) -> None:
    if big_m > INDUCTION_BOUND or big_n > INDUCTION_BOUND:
        raise ValueError(f"induction sizes ({big_m},{big_n}) exceed the bound "
                         f"{INDUCTION_BOUND}")


@lru_cache(maxsize=None)
def _cycle_splits(parts: Partition) -> dict[int, tuple]:
    """The splits of the cycles of a permutation of cycle type parts into
    two sets, grouped by the size of the first: each pair of cycle types
    (a, b) with the number of splits that give it, which is
    prod_i C(m_i(parts), m_i(a)) = z_parts / (z_a z_b)."""
    mults = sorted(Counter(parts).items(), reverse=True)
    out: dict = {}
    for picks in itertools.product(*(range(mult + 1) for _, mult in mults)):
        a = tuple(part for (part, _), j in zip(mults, picks) for _ in range(j))
        b = tuple(part for (part, mult), j in zip(mults, picks)
                  for _ in range(mult - j))
        count = 1
        for (_, mult), j in zip(mults, picks):
            count *= comb(mult, j)
        if count * z_of(a) * z_of(b) != z_of(parts):
            raise ArithmeticError(f"z{list(parts)} / (z{list(a)} z{list(b)}) "
                                  f"is not {count}")
        out.setdefault(sum(a), []).append((a, b, count))
    return {size: tuple(splits) for size, splits in out.items()}


@lru_cache(maxsize=None)
def _by_blocks(first: int, second: int) -> dict:
    """The per-class tables of _cycle_splits, inverted: table[a][b] =
    (mu, count) for the block cycle types a of size first and b of size
    second.  A split keeps every cycle, so mu is the multiset union of a and
    b, and every pair (a, b) is a split of that mu."""
    table: dict = {a: {} for a in partitions_of(first)}
    for mu in partitions_of(first + second):
        for a, b, count in _cycle_splits(mu).get(first, ()):
            table[a][b] = (mu, count)
    return table


def _product_values(t: dict, u: dict) -> dict:
    """z_mu z_lam times the coefficient of p_mu(x) p_lam(y) in ch(t) ch(u),
    for every class pair of S_(k+m) x S_(l+n): the sum of
    t(a, c) u(b, d) z_mu z_lam / (z_a z_b z_c z_d) over the splits of mu
    into a and b and of lam into c and d, every factor an integer.  Only
    the nonzero entries of t and u are visited, each block pair read
    through _by_blocks; a class pair that none reaches keeps 0."""
    (k, l), (m, n) = _degrees(t), _degrees(u)
    rows, cols = _by_blocks(k, m), _by_blocks(l, n)
    out = dict.fromkeys(_class_pairs(k + m, l + n), 0)
    second: dict = {}
    for (b, d), value in u.items():
        if value:
            second.setdefault(b, []).append((d, value))
    for (a, c), value in t.items():
        if not value:
            continue
        row, col = rows[a], cols[c]
        for b, entries in second.items():
            mu, c1 = row[b]
            scale = c1 * value
            for d, other in entries:
                lam, c2 = col[d]
                out[mu, lam] += scale * c2 * other
    return out


# ---------------------------------------------------------------------------
# homology characters of the rank-equal pair poset of two subset lattices

@lru_cache(maxsize=None)
def _fixed_mobius(alpha: Partition, beta: Partition) -> int:
    """mu(bottom, top) of the pair poset on [n] fixed by (g, h) of cycle
    types alpha and beta.  A fixed pair (S, T) has S a union of g-cycles and
    T a union of h-cycles with |S| = |T|, and the interval below it is the
    fixed poset of (g|S, h|T), so mu(bottom, (S, T)) depends only on the
    cycle types of g|S and h|T."""
    if not alpha:
        return 1
    below = 0
    right = _cycle_splits(beta)
    for size, splits in _cycle_splits(alpha).items():
        for a, _, ca in splits:
            for b, _, cb in right.get(size, ()):
                if (a, b) != (alpha, beta):
                    below += ca * cb * _fixed_mobius(a, b)
    return -below


def lefschetz_character(n: int) -> dict:
    """Character of S_n x S_n on the single nonvanishing reduced homology of
    the proper part of the pair poset on [n].  By the Hopf trace formula the
    value at (g, h) is (-1)^n times the reduced Euler characteristic of the
    fixed subcomplex, since only the top homology (dimension n - 2)
    survives; its chains are those of the fixed subposet, so by Hall's
    theorem that is the fixed subposet's Mobius number."""
    check_homology_bound(n)
    sign = -1 if n % 2 else 1
    return {(mu, lam): sign * _fixed_mobius(mu, lam)
            for mu in partitions_of(n) for lam in partitions_of(n)}


def h_alternating_residual(n: int) -> dict:
    """The alternating sum over i of (-1)^i h_(n-i)(x) h_(n-i)(y) ch_i, as
    its nonzero z-cleared entries: z_mu z_lam times the coefficient of
    p_mu(x) p_lam(y).  h_a is the characteristic of the trivial character
    of S_a, ch_i that of the degree-i homology character, and ch_0 = 1 (the
    degenerate poset convention forced by the n = 1 instance); empty exactly
    when the homology characters satisfy the complete-homogeneous identity."""
    check_homology_bound(n)
    total: dict = {}
    for i in range(n + 1):
        ch = lefschetz_character(i) if i else _table(0, 0)
        sign = -1 if i % 2 else 1
        for key, v in _product_values(_table(n - i, n - i), ch).items():
            total[key] = total.get(key, 0) + sign * v
    return {key: v for key, v in total.items() if v}


@lru_cache(maxsize=None)
def _specialized(parts: Partition, n: int) -> QPolynomial:
    """The product of (1 - q^i) for i = 1..n over that of (1 - q^a) for the
    parts a, with one exact division: a polynomial (a q-multinomial times
    q-factorials) when the parts sum to at most n."""
    if parts:
        divisor = prod(map(one_minus_q_power, parts), start=ONE)
        return _specialized((), n).exact_div(divisor)
    return prod(map(one_minus_q_power, range(1, n + 1)), start=ONE)


def specialization_denominator(n: int) -> QPolynomial:
    """The product of (1 - q^i)^2 for i = 1..n."""
    half = _specialized((), n)
    return half * half


def cleared_specialization(table: dict, n: int) -> QPolynomial:
    """m! l! times the principal specialization of the characteristic of a
    class function on S_m x S_l, as an integer numerator over
    specialization_denominator(n); ValueError if m or l exceeds n.

    Specializing each alphabet to 1, q, q^2, ... sends p_mu(x) p_lam(y) to
    _specialized(mu, n) _specialized(lam, n) over the denominator.  The
    characteristic's coefficient there is table(mu, lam) / (z_mu z_lam), and
    z_mu divides m!, so table(mu, lam) (m!/z_mu) (l!/z_lam) is an integer.
    Those integers are summed against the lam factors into one row per mu,
    and each row is multiplied by its mu factor."""
    m, l = _degrees(table)
    if max(m, l) > n:
        raise ValueError(f"table degrees ({m},{l}) exceed n={n}")
    fm, fl = factorial(m), factorial(l)
    rows: dict = {}
    for (mu, lam), v in table.items():
        if v:
            c = v * (fm // z_of(mu)) * (fl // z_of(lam))
            rows[mu] = rows.get(mu, ZERO) + _specialized(lam, n) * c
    total = ZERO
    for mu, row in rows.items():
        total = total + _specialized(mu, n) * row
    return total


def principal_specialization(table: dict, n: int) -> QPolynomial:
    """The principal specialization of the characteristic of a class
    function on S_m x S_l, as a numerator over specialization_denominator(n):
    cleared_specialization divided by m! l!, coefficient by coefficient.
    ArithmeticError if a coefficient leaves a remainder, which a character
    never does (its specialization has integer coefficients in q)."""
    scale = prod(map(factorial, _degrees(table)))
    coeffs = []
    for c in cleared_specialization(table, n).coeffs:
        quotient, remainder = divmod(c, scale)
        if remainder:
            raise ArithmeticError(f"specialized coefficient {c} is not "
                                  f"divisible by {scale}")
        coeffs.append(quotient)
    return QPolynomial(coeffs)


def verify_specialization_identity(n: int) -> bool:
    """The polynomial identity ps(ch_n) * prod_(i<=n) (1 - q^i)^2 == W_n(q),
    compared with both sides times (n!)^2 so that any integer table gives a
    verdict; W_n is enumerated up to the enumeration bound and taken from
    the recurrence past it."""
    check_homology_bound(n)
    return (cleared_specialization(lefschetz_character(n), n)
            == w_polynomial_recurrence(n) * factorial(n) ** 2)


def _induction_is_product(first: int, second: int) -> bool:
    """One alphabet's homomorphism identity, on each pair of class
    indicators (a, b) of S_first x S_second: induced to S_(first+second),
    the pair is its conjugator count over first! second!, and the product
    of characteristics, its denominators z_mu cleared, is its split count;
    both sit at the class mu of a + b alone.  So for every mu the
    conjugation profile must be first! second! times mu's split counts."""
    scale = factorial(first) * factorial(second)
    for mu in partitions_of(first + second):
        splits = _cycle_splits(mu).get(first, ())
        if _conjugation_profile(first, second, mu) != {
                (a, b): scale * count for a, b, count in splits}:
            return False
    return True


def verify_induction_homomorphism(k: int, l: int, m: int, n: int) -> bool:
    """The characteristic map must send induction products to products.
    On S_k x S_l it is the map of S_k in x tensored with that of S_l in y,
    and induction to S_(k+m) x S_(l+n) induces each alphabet alone, so the
    identity holds when it holds for S_k x S_m and for S_l x S_n.  Each is
    checked on its own, which is stronger than checking their tensor
    product: there a scale on one alphabet could cancel its inverse on the
    other."""
    _check_induction_bound(k + m, l + n)
    return _induction_is_product(k, m) and _induction_is_product(l, n)
