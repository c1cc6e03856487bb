"""Finite fields of small prime-power order, the lattice of subspaces of
F_q^n, and its rightmost-coordinate edge labeling.

A field is named by its order q, a prime power p^k, and is its tables:
elements are the integers 0..q-1 coding polynomial residues in base p (0 is
the zero element, 1 the one), and arithmetic is table lookup, which is
comfortable for the configured size bound of 16.  A subspace is its row
tuple, the canonical reduced row echelon basis, so subspace equality is
tuple equality.

Two conventions coexist on purpose and must not be conflated: the canonical
RREF basis pivots on the leftmost nonzero coordinates, while the labeling
reads the rightmost nonzero coordinate of an atom (scaled so that coordinate
is 1).  Labels are 1-based coordinate indices; each subspace holds its
upper covers grouped by the label they gain, as (label, covers) groups; on
the Segre square the labels are pairs.

The lattice is built from joins alone, without any containment test or
list of echelon forms.  The upper covers of a subspace x with pivot columns
P are the joins x + <v>, one for each vector v supported off P with leading
entry 1; these v are the projective points of the coordinate complement of
x, so distinct v give distinct covers.  The join's RREF is x's rows with
column lead(v) cleared and v inserted in pivot order, and the joins over
one rank are the next rank.  The label set of a subspace, the rightmost
nonzero indices over its vectors, is the pivot set of its echelon form
taken from the right (reverse the coordinates, reduce, map the pivots
back), so no vector is listed.

Every interval is label-isomorphic to one above a coordinate subspace
e_S, by a witness read off the label set.  Let x have label set S.  Its
mirrored echelon basis, the one label_set reduces, has one vector b_s per
s in S, whose last nonzero entry is a 1 at s: label_set's dimension check,
|label_set(x)| = dim x, is what certifies that.  The matrix u_x with column
b_s at each s in S and e_i at every other i is then upper unitriangular,
and u_x e_S = x.  An upper triangular matrix keeps the rightmost nonzero
coordinate of every vector, so u_x keeps every label set, and so every
label that is a label-set difference: [x, y] and [e_S, u_x^-1 y] are
label-isomorphic.  On the Segre square, [(x, x'), (y, y')] is likewise
label-isomorphic to an interval above (e_S, e_S'), by the pair (u_x, u_x').
build_bnq checks what this needs of the labeling it builds (each label the
one index a cover gains, each rank its Gaussian count), so it returns the
e_S beside the lattice: the witness comes from the code that certifies it.
"""

from __future__ import annotations

from bisect import bisect
from itertools import product

from .poset import GradedPoset

FIELD_SIZE_BOUND = 16
SUBSPACE_COUNT_BOUND = 100_000


def prime_power(q: int) -> tuple[int, int]:
    """Split q as p^k with p prime, or reject; an order above the field size
    bound is refused before any factoring."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q > FIELD_SIZE_BOUND:
        raise ValueError(f"field order {q} exceeds the bound "
                         f"{FIELD_SIZE_BOUND}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 1
    while p ** k < q:
        k += 1
    if p ** k != q:
        raise ValueError(f"{q} is not a prime power")
    return p, k


class FiniteField:
    """F_q, for q = p^k up to FIELD_SIZE_BOUND (see prime_power), as its
    tables _add, _mul, _neg and _inv on element codes.

    The code of the residue sum_i c_i x^i is sum_i c_i p^i.  The modulus is
    the first monic x^k + tail(x), tails scanned as ascending base-p codes,
    whose residues pass the unit-group check a^(q-1) = 1 for every nonzero
    a; a zero divisor is never a unit, so that is the first irreducible
    modulus.  The check also yields each inverse, a^(q-2)."""

    __slots__ = ("p", "k", "order", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, order: int):
        p, k = prime_power(order)
        self.p, self.k, self.order = p, k, order
        digits = [[e // p ** i % p for i in range(k)] for e in range(order)]

        def code(coeffs) -> int:
            return sum(c % p * p ** i for i, c in enumerate(coeffs))

        add = [[code(x + y for x, y in zip(da, db)) for db in digits]
               for da in digits]
        for tail in digits:
            # x e shifts e's digits up and folds the top one back through
            # -tail; then a b = (a mod p) b + x ((a div p) b), row by row
            times_x = [code(x - d[-1] * t for x, t in zip([0] + d, tail))
                       for d in digits]
            mul = [[code(c * x for x in d) for d in digits] for c in range(p)]
            for a in range(p, order):
                mul.append([add[low][times_x[high]]
                            for low, high in zip(mul[a % p], mul[a // p])])
            inv = [0] * order
            for a in range(1, order):
                acc = 1
                for _ in range(order - 2):
                    acc = mul[acc][a]
                inv[a] = acc
            if all(mul[a][inv[a]] == 1 for a in range(1, order)):
                break
        else:
            raise ArithmeticError(f"no monic degree-{k} modulus over F_{p} "
                                  "passes the unit-group check")
        self.modulus = tuple(tail) + (1,)
        self._add, self._mul, self._inv = add, mul, inv
        self._neg = [code(-x for x in d) for d in digits]

    def __repr__(self) -> str:
        return f"FiniteField({self.order})"


def rref_rows(field: FiniteField, ambient: int, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon basis of the span of the given vectors."""
    mat = [list(map(int, v)) for v in vectors]
    for v in mat:
        if len(v) != ambient:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient}")
        if v and (min(v) < 0 or max(v) >= field.order):
            raise ValueError("vector entry outside the field")
    add, mul, neg, inv = field._add, field._mul, field._neg, field._inv
    r = 0
    for col in range(ambient):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        scale = mul[inv[mat[r][col]]]
        mat[r] = [scale[x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                scaled = mul[neg[mat[i][col]]]
                mat[i] = [add[x][scaled[y]] for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r] if any(row))


def _gaussian_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (integer arithmetic only)."""
    result = 1
    for i in range(k):
        result = result * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return result


def check_count_bound(n: int, q: int, segre: bool = False,
                      count_bound: int | None = None) -> None:
    """Refuse a negative ambient dimension or count bound, and B_n(q) of more
    subspaces than the count bound, or its Segre square of more pairs,
    sum_k N_k^2 for N_k the subspaces of rank k.

    Rank k = floor(n/2) holds at least q^e subspaces, e = k(n-k) (its
    Gaussian binomial has that degree and nonnegative coefficients), and the
    square at least q^(2e) pairs.  q^e >= 2^(e (bit length of q - 1)), so
    when that exponent exceeds the bound's bit length, no power is formed;
    else q^e refuses when past both the bound and the default bound, and
    else the exact total decides, printed unless too long to convert."""
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    bound = SUBSPACE_COUNT_BOUND if count_bound is None else count_bound
    if bound < 0:
        raise ValueError(f"the subspace count bound must be nonnegative, "
                         f"got {bound}")
    what = "pairs of the Segre square" if segre else "subspaces"
    power = 2 if segre else 1
    e = power * (n // 2) * ((n + 1) // 2)
    if (e * (q.bit_length() - 1) > bound.bit_length()
            or q ** e > max(bound, SUBSPACE_COUNT_BOUND)):
        raise ValueError(f"at least {q}^{e} {what} exceed the bound {bound}")
    total = sum(_gaussian_count(n, k, q) ** power for k in range(n + 1))
    if total > bound:
        try:
            count = str(total)
        except ValueError:
            count = f"more than {bound}"
        raise ValueError(f"{count} {what} exceed the bound {bound}")


def proper_face_count(n: int, q: int, segre: bool = False) -> int:
    """Faces of the order complex of the proper part of B_n(q), or of its
    Segre square, whose chains are pairs of flags with one dimension set:
    the sum over nonempty S in [n-1] of the flags with dimension set S, a
    q-multinomial, squared for the square.  Summed by the largest dimension
    s: within[s] sums the flags of a fixed s-space that end at it."""
    e = 2 if segre else 1
    within = [0] * n
    for s in range(1, n):
        within[s] = 1 + sum(_gaussian_count(s, t, q) ** e * within[t]
                            for t in range(1, s))
    return sum(_gaussian_count(n, s, q) ** e * within[s] for s in range(1, n))


def label_set(field: FiniteField, rows) -> frozenset[int]:
    """Rightmost nonzero coordinate indices (1-based) over the atoms of the
    row space of the RREF rows: the pivots of its echelon form taken from
    the right.  Its dimension check, one index per row, certifies the
    witness u_x of the module docstring: the mirrored basis has one vector
    for each index, ending in a 1 there."""
    mirrored = rref_rows(field, len(rows[0]) if rows else 0,
                         [row[::-1] for row in rows])
    out = frozenset(len(row) - row.index(1) for row in mirrored)
    if len(out) != len(rows):
        raise ArithmeticError(f"{rows} reaches {len(out)} rightmost indices, "
                              f"not its dimension {len(rows)}")
    return out


def _points_off(n: int, pivots: tuple[int, ...],
                q: int) -> list[tuple[int, tuple[int, ...]]]:
    """(lead, v) for every vector v of F_q^n that is zero on the pivot columns
    and has leading entry 1 at column lead: one per projective point of the
    coordinate complement."""
    free = [j for j in range(n) if j not in pivots]
    out = []
    for t, lead in enumerate(free):
        tail = free[t + 1:]
        for values in product(range(q), repeat=len(tail)):
            v = [0] * n
            v[lead] = 1
            for j, x in zip(tail, values):
                v[j] = x
            out.append((lead, tuple(v)))
    return out


def _join(field: FiniteField, rows: tuple[tuple[int, ...], ...],
          pivots: tuple[int, ...], lead: int, v: tuple[int, ...]):
    """RREF rows of span(rows) + <v>, for v zero on the pivot columns of the
    RREF rows with leading entry 1 at column lead: clear that column in each
    row, then insert v in pivot order."""
    add, mul, neg = field._add, field._mul, field._neg
    out = []
    for row in rows:
        c = row[lead]
        if c:
            scaled = mul[neg[c]]
            row = tuple(add[x][scaled[y]] for x, y in zip(row, v))
        out.append(row)
    out.insert(bisect(pivots, lead), v)
    return tuple(out)


def build_bnq(n: int, field: FiniteField,
              count_bound: int | None = None) -> tuple[GradedPoset, list[int]]:
    """The subspace lattice of F_q^n with its rightmost-coordinate labels,
    and its coordinate subspaces, as (p, lows): each cover x < y of p is
    labeled by the one index in label_set(y) that is not in label_set(x),
    and lows are the ascending indices of the e_S, the elements whose RREF
    rows are all unit vectors.  Once the checks that follow have passed,
    every interval of p is label-isomorphic to one above an e_S (see the
    module docstring), so the EL pushes from lows, or from their pairs on
    the Segre square, reach every interval.

    The lattice is generated from its covers: rank 0 is the zero subspace,
    and rank k+1 is the set of joins x + <v> (see the module docstring) over
    the x of rank k, numbered in (rank, rows) order.  A rank of other than
    [n choose k+1]_q joins, a join that is not a canonical RREF basis of
    dimension k+1, a cover that does not gain exactly one label, or an element
    of rank k without exactly [k choose 1]_q lower covers raises
    ArithmeticError."""
    check_count_bound(n, field.order, count_bound=count_bound)
    q = field.order
    names = [()]
    fsets = [frozenset()]
    points: dict[tuple[int, ...], list] = {}
    labels = []
    lower = [0]
    start = 0
    for k in range(n):
        joins: dict = {}  # each distinct join to itself, then to its index
        found = []  # the joins of each x of rank k, in the order of points
        for rows in names[start:]:
            pivots = tuple(row.index(1) for row in rows)  # rows are RREF
            if pivots not in points:
                points[pivots] = _points_off(n, pivots, q)
            found.append([])
            for lead, v in points[pivots]:
                join = _join(field, rows, pivots, lead, v)
                found[-1].append(joins.setdefault(join, join))
        expected = _gaussian_count(n, k + 1, q)
        if len(joins) != expected:
            raise ArithmeticError(
                f"rank {k + 1} of B_{n}({q}) holds {len(joins)} joins, not "
                f"[{n} choose {k + 1}]_{q} = {expected}")
        for b, rows in enumerate(sorted(joins), len(names)):
            if len(rows) != k + 1 or rref_rows(field, n, rows) != rows:
                raise ArithmeticError(
                    f"join {rows} in rank {k + 1} of B_{n}({q}) is not a "
                    f"canonical RREF basis of dimension {k + 1}")
            joins[rows] = b
            names.append(rows)
            fsets.append(label_set(field, rows))
            lower.append(0)
        for a, joined in enumerate(found, start):
            groups: dict[int, list[int]] = {}
            for rows in joined:
                b = joins[rows]
                difference = fsets[b] - fsets[a]
                if len(difference) != 1:
                    raise ArithmeticError(
                        f"cover {names[a]} < {names[b]} of B_{n}({q}) "
                        f"gains labels {sorted(difference)}, not exactly one")
                groups.setdefault(next(iter(difference)), []).append(b)
                lower[b] += 1
            labels.append(list(groups.items()))
        start += len(found)
    labels += [[] for _ in range(start, len(names))]
    ranks = [len(rows) for rows in names]
    for b, count in enumerate(lower):
        expected = _gaussian_count(ranks[b], 1, q)
        if count != expected:
            raise ArithmeticError(
                f"{names[b]} of B_{n}({q}) has {count} lower covers, "
                f"not [{ranks[b]} choose 1]_{q} = {expected}")
    lows = [a for a, rows in enumerate(names)
            if all(row.count(0) == len(row) - 1 for row in rows)]
    return GradedPoset(names, ranks, labels), lows
