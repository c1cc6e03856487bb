"""Finite fields of small prime-power order, the lattice of subspaces of
F_q^n, and its rightmost-coordinate edge labeling.

Field elements are plain integers 0..q-1 encoding polynomial residues in base
p (index 0 is the zero element, index 1 the one); arithmetic is table driven,
which is comfortable for the configured size bound of 16.  A subspace is its
canonical reduced row echelon basis, so subspace equality is tuple equality.

Two conventions coexist on purpose and must not be conflated: the canonical
RREF basis pivots on the leftmost nonzero coordinates, while the labeling
reads the rightmost nonzero coordinate of an atom (scaled so that coordinate
is 1).  Labels are 1-based coordinate indices.

The lattice is built without any containment test.  The upper covers of a
subspace x with pivot columns P are the joins x + <v>, one for each vector v
supported off P with leading entry 1; these v are the projective points of
the coordinate complement of x, so distinct v give distinct covers.  The
join's RREF is x's rows with column lead(v) cleared and v inserted in pivot
order.  The label set of a subspace, the rightmost nonzero indices over its
vectors, is the pivot set of its echelon form taken from the right (reverse
the coordinates, reduce, map the pivots back), so no vector is listed.
"""

from __future__ import annotations

from bisect import bisect
from itertools import combinations, product

from .poset import EdgeLabeling, GradedPoset, segre_product

FIELD_SIZE_BOUND = 16
SUBSPACE_COUNT_BOUND = 100_000


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_divmod_modp(num: list[int], den: list[int], p: int):
    """Long division of coefficient lists (ascending) over F_p."""
    num = list(num)
    dlen = len(den)
    dlead_inv = pow(den[-1], -1, p)
    quo = [0] * max(0, len(num) - dlen + 1)
    for shift in range(len(num) - dlen, -1, -1):
        factor = (num[shift + dlen - 1] * dlead_inv) % p
        if factor:
            quo[shift] = factor
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - factor * c) % p
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def _monic_polys_modp(degree: int, p: int):
    for tail in product(range(p), repeat=degree):
        yield list(tail) + [1]


def _is_irreducible_modp(poly: list[int], p: int) -> bool:
    degree = len(poly) - 1
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys_modp(d, p):
            _, rem = _poly_divmod_modp(poly, divisor, p)
            if not rem:
                return False
    return True


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """First irreducible monic degree-k polynomial, scanning the non-leading
    coefficients as ascending base-p integers; deterministic by construction."""
    for code in range(p ** k):
        tail = []
        value = code
        for _ in range(k):
            tail.append(value % p)
            value //= p
        candidate = tail + [1]
        if _is_irreducible_modp(candidate, p):
            return tuple(candidate)
    raise AssertionError(f"no irreducible polynomial of degree {k} over F_{p}")


class FiniteField:
    """F_{p^k} with table-driven arithmetic on integer element indices."""

    __slots__ = ("p", "k", "order", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, k: int = 1):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be at least 1")
        order = p ** k
        if order > FIELD_SIZE_BOUND:
            raise ValueError(f"field order {order} exceeds the bound "
                             f"{FIELD_SIZE_BOUND}")
        self.p, self.k, self.order = p, k, order
        self.modulus = _find_modulus(p, k)

        def decode(e: int) -> list[int]:
            out = []
            for _ in range(k):
                out.append(e % p)
                e //= p
            return out

        def encode(coeffs: list[int]) -> int:
            e = 0
            for c in reversed(coeffs[:k] + [0] * (k - len(coeffs))):
                e = e * p + (c % p)
            return e

        self._add = [[0] * order for _ in range(order)]
        self._mul = [[0] * order for _ in range(order)]
        self._neg = [0] * order
        for a in range(order):
            ca = decode(a)
            self._neg[a] = encode([(-x) % p for x in ca])
            for b in range(order):
                cb = decode(b)
                self._add[a][b] = encode([(x + y) % p for x, y in zip(ca, cb)])
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(ca):
                    if x:
                        for j, y in enumerate(cb):
                            prod[i + j] = (prod[i + j] + x * y) % p
                _, rem = _poly_divmod_modp(prod, list(self.modulus), p)
                self._mul[a][b] = encode(rem)
        self._inv = [0] * order
        for a in range(1, order):
            self._inv[a] = next(b for b in range(1, order) if self._mul[a][b] == 1)
        # multiplicative order check: every nonzero element to the q-1 is one
        for a in range(1, order):
            acc = 1
            for _ in range(order - 1):
                acc = self._mul[acc][a]
            if acc != 1:
                raise ArithmeticError(
                    f"field of order {order} (p={p}, k={k}) failed the "
                    f"unit-group check at element {a}")

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        return self._inv[a]

    def key(self) -> tuple:
        return (self.p, self.k, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteField) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"FiniteField(p={self.p}, k={self.k})"


def rref_rows(field: FiniteField, ambient: int, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon basis of the span of the given vectors."""
    mat = [list(map(int, v)) for v in vectors]
    for v in mat:
        if len(v) != ambient:
            raise ValueError(f"vector of length {len(v)} in ambient dimension {ambient}")
        if any(not 0 <= x < field.order for x in v):
            raise ValueError("vector entry outside the field")
    r = 0
    for col in range(ambient):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = field.inv(mat[r][col])
        mat[r] = [field.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r] if any(row))


class Subspace:
    """Row space of a canonical RREF basis over a small finite field."""

    __slots__ = ("field", "ambient", "rows")

    def __init__(self, field: FiniteField, ambient: int,
                 rows: tuple[tuple[int, ...], ...]):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        pivots = []
        for row in self.rows:
            if len(row) != ambient or not any(row):
                raise ValueError("basis rows must be nonzero vectors of ambient length")
            pivots.append(next(i for i, x in enumerate(row) if x))
        if pivots != sorted(set(pivots)):
            raise ValueError("pivot columns must be strictly increasing")
        for i, pc in enumerate(pivots):
            if self.rows[i][pc] != 1 or any(self.rows[j][pc] for j in range(len(pivots)) if j != i):
                raise ValueError("basis is not reduced row echelon")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.field.key() == other.field.key()
                and self.ambient == other.ambient and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field.key(), self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, rows={self.rows})"


def _gaussian_count(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (integer arithmetic only)."""
    result = 1
    for i in range(k):
        result = result * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return result


def check_count_bound(n: int, q: int, segre: bool = False,
                      count_bound: int | None = None) -> None:
    """Refuse B_n(q) of more subspaces than the count bound, or its Segre
    square of more pairs, sum_k N_k^2 for N_k the subspaces of rank k."""
    bound = SUBSPACE_COUNT_BOUND if count_bound is None else count_bound
    total = sum(_gaussian_count(n, k, q) ** (2 if segre else 1)
                for k in range(n + 1))
    if total > bound:
        what = "pairs of the Segre square" if segre else "subspaces"
        raise ValueError(f"{total} {what} exceed the bound {bound}")


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


def enumerate_subspaces(n: int, field: FiniteField,
                        count_bound: int | None = None) -> list[Subspace]:
    """Every subspace of F_q^n exactly once, generated rank by rank as RREF
    matrices (choose pivot columns, then fill the free positions)."""
    if n < 0:
        raise ValueError("ambient dimension must be nonnegative")
    check_count_bound(n, field.order, count_bound=count_bound)
    out = []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(i, j) for i in range(k)
                    for j in range(pivots[i] + 1, n) if j not in pivots]
            for assignment in product(range(field.order), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for i, pc in enumerate(pivots):
                    rows[i][pc] = 1
                for (i, j), value in zip(free, assignment):
                    rows[i][j] = value
                out.append(Subspace(field, n, tuple(tuple(r) for r in rows)))
    return out


def label_set(s: Subspace) -> frozenset[int]:
    """Rightmost nonzero coordinate indices (1-based) over the atoms of s:
    the pivots of s's echelon form taken from the right."""
    n = s.ambient
    mirrored = rref_rows(s.field, n, [row[::-1] for row in s.rows])
    out = frozenset(n - next(i for i, x in enumerate(row) if x) for row in mirrored)
    if len(out) != s.dim:
        raise ArithmeticError(f"{s!r} reaches {len(out)} rightmost indices, "
                              f"not its dimension {s.dim}")
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
              count_bound: int | None = None) -> tuple[GradedPoset, EdgeLabeling]:
    """The subspace lattice of F_q^n with the rightmost-coordinate labeling:
    a cover x < y is labeled by the one index in label_set(y) that is not in
    label_set(x).

    Covers are generated, not searched for: each x of rank k gets the
    [n-k choose 1]_q joins x + <v> (see the module docstring), each looked up
    among the enumerated subspaces.  A join outside them, a cover that does
    not gain exactly one label, or an element of rank k without exactly
    [k choose 1]_q lower covers raises ArithmeticError."""
    subs = enumerate_subspaces(n, field, count_bound)
    subs.sort(key=lambda s: (s.dim, s.rows))
    names = [s.rows for s in subs]
    ranks = [s.dim for s in subs]
    index = {rows: i for i, rows in enumerate(names)}
    fsets = [label_set(s) for s in subs]
    q = field.order
    points: dict[tuple[int, ...], list] = {}
    covers = []
    labels = {}
    for a, rows in enumerate(names):
        pivots = tuple(next(i for i, x in enumerate(row) if x) for row in rows)
        if pivots not in points:
            points[pivots] = _points_off(n, pivots, q)
        for lead, v in points[pivots]:
            b = index.get(_join(field, rows, pivots, lead, v))
            if b is None:
                raise ArithmeticError(
                    f"join of {subs[a]!r} with {v} in B_{n}({q}) is not an "
                    f"enumerated subspace")
            covers.append((a, b))
            difference = fsets[b] - fsets[a]
            if len(difference) != 1:
                raise ArithmeticError(
                    f"cover {subs[a]!r} < {subs[b]!r} of B_{n}({q}) "
                    f"gains labels {sorted(difference)}, not exactly one")
            labels[(a, b)] = next(iter(difference))
    lower = [0] * len(subs)
    for _, b in covers:
        lower[b] += 1
    for b, count in enumerate(lower):
        expected = _gaussian_count(ranks[b], 1, q)
        if count != expected:
            raise ArithmeticError(
                f"{subs[b]!r} of B_{n}({q}) has {count} lower covers, "
                f"not [{ranks[b]} choose 1]_{q} = {expected}")
    poset = GradedPoset(names, ranks, covers)
    return poset, EdgeLabeling(labels)


def build_segre_bnq(n: int, field: FiniteField,
                    count_bound: int | None = None) -> tuple[GradedPoset, EdgeLabeling]:
    """Segre square of the subspace lattice, covers labeled by ordered pairs
    under the componentwise order.  Its sum_k N_k^2 pairs, N_k the subspaces
    of rank k, are held to the subspace count bound before any work.  The
    pair labels are read from the lattice's labels by factor index in the
    same pass of segre_product that numbers the pairs and emits the covers."""
    check_count_bound(n, field.order, True, count_bound)
    p, labeling = build_bnq(n, field, count_bound)
    return segre_product(p, p, (labeling, labeling))
