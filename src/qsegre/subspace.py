"""Finite fields of small prime-power order, the lattice of subspaces of
F_q^n, and its rightmost-coordinate edge labeling.

A field is named by its order q, a prime power p^k, and is its tables:
elements are the integers 0..q-1 coding polynomial residues in base p (0 is
the zero element, 1 the one), and arithmetic is table lookup, which is
comfortable for the configured size bound of 16.  A subspace is named by its
row tuple, the canonical reduced row echelon basis, so subspace equality is
tuple equality.  Labels are 1-based coordinate indices, each the rightmost
nonzero coordinate of an atom (the basis pivots on the leftmost ones); a
subspace holds its upper covers grouped by the label they gain, as (label,
covers) groups, and on the Segre square labels are pairs.

The build holds a vector as one int, each base-p digit of each coordinate's
code in its own byte (at p = 2, a code's bits in one byte), coordinate 0
most significant, so int order is tuple order; a subspace is its packed
RREF rows, row 0 first, decoded to its row tuple once.  The upper covers of
a subspace x with pivot columns P are the joins x + <v>, one for each
vector v supported off P with leading entry 1: the projective points of the
coordinate complement of x, so distinct v give distinct covers.  The join's
RREF is x's rows with column lead(v) cleared by lane-wise field addition
(XOR at p = 2, else one addition folded mod p in every byte) and v inserted
in pivot order, and the joins over one rank are the next rank.  The label
set of a subspace, the rightmost nonzero indices over its vectors, comes
from a reduction of its rows from the right, so no vector is listed.

Every interval is label-isomorphic to one above a coordinate subspace
e_S, by a witness read off the label set.  Let x have label set S.  The
rows that reduction keeps, each scaled to end in 1, are a basis of x with
one vector b_s ending at each s in S, as its dimension check |S| = dim x
certifies.  The matrix u_x with column b_s at each s in S and e_i at every
other i is then upper unitriangular, and u_x e_S = x.  An upper
triangular matrix keeps the rightmost nonzero coordinate of every vector,
so u_x keeps every label set, and so every label that is a label-set
difference: [x, y] and [e_S, u_x^-1 y] are label-isomorphic.  On the
Segre square, [(x, x'), (y, y')] is likewise label-isomorphic to an
interval above (e_S, e_S'), by the pair (u_x, u_x').  build_bnq checks
what this needs of the labeling it builds (each label the one index a
cover gains, each rank its Gaussian count), so it returns the e_S beside
the lattice: the witness comes from the code that certifies it.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from itertools import chain, product

from .poset import GradedPoset, _set_bits

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


def _gaussian_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (integer arithmetic only)."""
    result = 1
    for i in range(k):
        result = result * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return result


def check_count_bound(n: int, q: int, power: int = 1,
                      count_bound: int | None = None) -> None:
    """Refuse a negative ambient dimension or count bound, and B_n(q) of more
    subspaces than the count bound at power 1, or at power 2 its Segre
    square of more pairs, sum_k N_k^2 for N_k the subspaces of rank k.

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
    what = "pairs of the Segre square" if power == 2 else "subspaces"
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


def proper_face_count(n: int, q: int, power: int = 1) -> int:
    """Faces of the order complex of the proper part of B_n(q) at power 1,
    or at power 2 of its Segre square, whose chains are pairs of flags with
    one dimension set: the sum over nonempty S in [n-1] of the flags with
    dimension set S, a q-multinomial, to the power.  Summed by the largest
    dimension s: within[s] sums the flags of a fixed s-space that end at
    it."""
    within = [0] * n
    for s in range(1, n):
        within[s] = 1 + sum(_gaussian_count(s, t, q) ** power * within[t]
                            for t in range(1, s))
    return sum(_gaussian_count(n, s, q) ** power * within[s]
               for s in range(1, n))


class _Lanes:
    """F_q^n as ints for one build (see the module docstring): add is the
    lane-wise field sum, table(c) maps a byte a << 4 | b of codes to a + c b."""

    def __init__(self, field: FiniteField, n: int):
        p, self.field, self.n = field.p, field, n
        self.lanes = 1 if p == 2 else field.k  # bytes per coordinate
        self.row = 8 * self.lanes * n  # bits per row
        self.points, self.tables = {}, {}  # see joins and table
        ones = int.from_bytes(b"\1" * (n * n * self.lanes), "big")

        def add(s: int, t: int, fold=(128 - p) * ones, high=128 * ones):
            s += t  # a byte below 2p is at least p iff bit 7 of it + 128 - p
            return s - p * (((s + fold) & high) >> 7)
        self.add = int.__xor__ if p == 2 else add

    def pack(self, codes: bytes) -> int:
        if self.lanes == 2:  # F_9, the one field with two digits at odd p
            codes = bytes(d for c in codes for d in divmod(c, 3))
        return int.from_bytes(codes, "big")

    def codes(self, s: int, m: int) -> bytes:
        raw = s.to_bytes(m * self.row // 8, "big")
        return raw if self.lanes == 1 else bytes(
            3 * a + b for a, b in zip(raw[::2], raw[1::2]))

    def table(self, c: int) -> bytes:
        if c not in self.tables:
            add, times, q = self.field._add, self.field._mul[c], self.field.order
            self.tables[c] = bytes(add[a][times[b]] if a < q and b < q else 0
                                   for a in range(16) for b in range(16))
        return self.tables[c]

    def times(self, c: int, v: int) -> int:
        return self.pack(self.codes(v, 1).translate(self.table(c)))

    def rows(self, s: int, m: int) -> tuple[list[bytes], tuple[int, ...]]:
        """The code rows of a join s of rank m and their leading columns,
        once s is checked to be a canonical RREF basis: m nonzero rows,
        leading columns increasing, each leading 1 alone in its column."""
        n, size = self.n, max(m, -(-s.bit_length() // self.row))
        codes = self.codes(s, size)
        rows = [codes[i:i + n] for i in range(0, size * n, n)]
        leads = tuple([n - len(row.lstrip(b"\0")) for row in rows])
        if (size > m or leads != tuple(sorted(set(leads) - {n})) or any(
                codes[i * n + j] != 1 or codes[j::n].count(0) != m - 1
                for i, j in enumerate(leads))):
            raise ArithmeticError(
                f"join {tuple(map(tuple, rows))} in rank {m} of B_{n}"
                f"({self.field.order}) is not a canonical RREF basis of "
                f"dimension {m}")
        return rows, leads

    def joins(self, s: int, rows, pivots: tuple[int, ...],
              setdefault) -> list[int]:
        """The packed RREF rows of x + <v> for each point v off the pivot
        columns of x (packed rows s, row tuple rows), v in tuple order: a
        row with c at column lead(v) gains -c v, made on first use, and v is
        inserted in pivot order.  setdefault shares equal joins."""
        n, q, bits, m = self.n, self.field.order, self.row, len(rows)
        if pivots not in self.points:
            free = [j for j in range(n) if j not in pivots]
            self.points[pivots] = points = []
            for t, lead in enumerate(free):
                places = [[self.pack(bytes([c])) << bits // n * (n - 1 - j)
                           for c in range(q)] for j in free[t + 1:]]
                points += [(lead, (1 << bits // n * (n - 1 - lead)) + sum(v),
                            [None] * q) for v in product(*places)]
        add, neg, out, was = self.add, self.field._neg, [], None
        for lead, v, multiples in self.points[pivots]:
            if lead != was:  # rows past the insertion point are 0 at lead
                was, shift = lead, bits * (m - bisect(pivots, lead))
                base = (s >> shift) << (shift + bits) | (s & ((1 << shift) - 1))
                clear = [(neg[row[lead]], bits * (m - i))
                         for i, row in enumerate(rows) if row[lead]]
            join = base | v << shift
            if clear:
                cleared = 0
                for c, at in clear:
                    if multiples[c] is None:
                        multiples[c] = self.times(c, v)
                    cleared |= multiples[c] << at
                join = add(join, cleared)
            out.append(setdefault(join, join))
        return out

    def labels(self, rows) -> int:
        """The label set of these code rows, bit j for label j: each row is
        reduced from the right by the rows kept until its rightmost nonzero
        index is new; the dimension check certifies the witness u_x."""
        mul, neg, inv = self.field._mul, self.field._neg, self.field._inv
        kept: dict[int, bytes] = {}
        for row in rows:
            j = len(row.rstrip(b"\0"))
            while j and j in kept:
                table = self.table(mul[neg[row[j - 1]]][inv[kept[j][j - 1]]])
                row = (int.from_bytes(row, "big") << 4 | int.from_bytes(
                    kept[j], "big")).to_bytes(self.n, "big").translate(table)
                j = len(row.rstrip(b"\0"))
            kept[j] = row
        mask = sum(1 << j for j in kept) & ~1
        if mask.bit_count() != len(rows):
            raise ArithmeticError(
                f"{tuple(map(tuple, rows))} reaches {mask.bit_count()} "
                f"rightmost indices, not its dimension {len(rows)}")
        return mask


def build_bnq(n: int, field: FiniteField,
              count_bound: int | None = None) -> tuple[GradedPoset, list[int]]:
    """The subspace lattice of F_q^n with its rightmost-coordinate labels,
    and its coordinate subspaces, as (p, lows): each cover x < y of p is
    labeled by the one index that y's label set adds to x's, and lows are
    the ascending indices of the e_S, the elements whose RREF rows are all
    unit vectors.  Once the checks that follow have passed, every interval
    of p is label-isomorphic to one above an e_S (see the module
    docstring), so the EL pushes from lows, or from their pairs on the
    Segre square, reach every interval.

    The lattice is generated from its covers: rank 0 is the zero subspace,
    and rank k+1 is the set of joins x + <v> (see the module docstring) over
    the x of rank k, numbered in (rank, rows) order.  A rank of other than
    [n choose k+1]_q joins, a join that is not a canonical RREF basis of
    dimension k+1, a cover that does not gain exactly one label, or an element
    of rank k without exactly [k choose 1]_q lower covers raises
    ArithmeticError."""
    check_count_bound(n, field.order, count_bound=count_bound)
    q, lanes = field.order, _Lanes(field, n)
    names, packed, pivots, masks, lower = [()], [0], [()], [0], [0]
    shared: dict = {}  # a row's codes, or pivot columns, to one tuple
    labels, start = [], 0
    for k in range(n):
        joins: dict = {}  # each distinct join to itself, then to its index
        found = [lanes.joins(*x, joins.setdefault) for x in zip(
            packed[start:], names[start:], pivots[start:])]
        expected = _gaussian_count(n, k + 1, q)
        if len(joins) != expected:
            raise ArithmeticError(
                f"rank {k + 1} of B_{n}({q}) holds {len(joins)} joins, not "
                f"[{n} choose {k + 1}]_{q} = {expected}")
        counts = Counter(chain.from_iterable(found))
        for b, s in enumerate(sorted(joins), len(names)):
            rows, leads = lanes.rows(s, k + 1)
            joins[s] = b
            packed.append(s)
            names.append(tuple([shared.get(row) or shared.setdefault(
                row, tuple(row)) for row in rows]))
            pivots.append(shared.setdefault(leads, leads))
            masks.append(lanes.labels(rows))
            lower.append(counts[s])
        for a, joined in enumerate(found, start):
            off = ~masks[a]
            groups: dict[int, list[int]] = {}
            for s in joined:
                b = joins[s]
                gained = masks[b] & off
                if gained.bit_count() != 1:
                    raise ArithmeticError(
                        f"cover {names[a]} < {names[b]} of B_{n}({q}) gains "
                        f"labels {_set_bits(gained)}, not exactly one")
                groups.setdefault(gained, []).append(b)
            labels.append([(g.bit_length() - 1, ys) for g, ys in groups.items()])
        start += len(found)
    labels += [[] for _ in range(start, len(names))]
    ranks = [len(rows) for rows in names]
    for b, count in enumerate(lower):
        expected = _gaussian_count(ranks[b], 1, q)
        if count != expected:
            raise ArithmeticError(
                f"{names[b]} of B_{n}({q}) has {count} lower covers, "
                f"not [{ranks[b]} choose 1]_{q} = {expected}")
    lows = [a for a, s in enumerate(packed) if s.bit_count() == ranks[a]]
    return GradedPoset(names, ranks, labels), lows
