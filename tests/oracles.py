"""Independent, slower routes to values the package computes another way,
and the fixtures only tests use.

Each oracle here is the definitional computation that a faster kernel in
src/qsegre replaced; the tests compare the two.  The rational-function
identities are checked by evaluation: q is set to enough integers that the
values pin the polynomial, and everything at a point is a Fraction.  The
pair oracles compare the ascent sets of every pair of permutations, and
count inversions pair by pair; the listing oracle files every permutation
of S_n by its ascent set, and the schoolbook product multiplies
coefficient lists term by term.  The poset oracles read a poset's labeling
as a dict from each cover to its label (cover_labels), make a poset with
another labeling from such a dict (relabel), read the order off the
covers alone, list every maximal chain
of every interval, push descending-chain tallies over the covers of a
built Segre square, take the proper part of a bounded poset, count and
list the chains of any poset by dimension, for Hall's theorem among
others, and build Segre products by numbering pairs in a dict and
labeling them through element names.  One Betti oracle runs the package's
element matching on every chain of any poset, where the package runs it
only on a proper part; the other eliminates over the whole order complex,
listed chain by chain from subsets of elements, and the rank oracle
eliminates over Fractions.  The subspace oracles list every RREF
basis by its pivot columns and free positions, reduce to RREF and take
label sets by Gauss-Jordan elimination on code tuples, build B_n(q) from
tuple joins as the package did before it packed rows into ints, test
containment by row reduction, read label sets off every vector of a
subspace, find field
moduli by polynomial trial division, and find the orbits of the
upper triangular group by mapping every subspace under each of its
generators.  The
symmetric-function oracles take the homology character from the Hopf trace
over the chains of the pair poset, build whole induced tables from the
package's conjugation profiles and check the homomorphism by comparing
them with whole product tables, as the package did before it compared
structure constants, check that induction products go to products by
comparing characteristics over Fractions, build the induced and product
tables class pair by class pair over every entry of their operands, as
the package did before it visited only nonzero ones, and break the
conjugation profiles: one count off for each pair of block sizes, or the
counts of two pairs scaled inversely, which only a per-alphabet check
sees.  Those characteristics are two-alphabet symmetric functions as
dicts from partition pairs (mu, lam) to the nonzero Fraction coefficients
of p_mu(x) p_lam(y), kept here so that the package's z-cleared integer tables
have a route to be checked against.
"""

from fractions import Fraction
from functools import lru_cache
from bisect import bisect
from itertools import combinations, permutations, product
from math import factorial
from typing import NamedTuple

from qsegre import symfrob
from qsegre.exactalg import ONE, QPolynomial, one_minus_q_power
from qsegre.morse import (_element_matching, _morse_betti_numbers,
                          _rank_of_sparse_rows)
from qsegre.poset import (GradedPoset, product_order_less, segre_product,
                          _label_ids)
from qsegre.subspace import _gaussian_count, build_bnq
from qsegre.symfrob import (_check_induction_bound, _conjugation_profile,
                            _cycle_splits, _degrees, _perm_of_cycle_type,
                            partitions_of, specialization_denominator, z_of)


def series_reciprocal(coeffs) -> list[Fraction]:
    """Multiplicative inverse modulo z^len(coeffs) of a power series with
    rational coefficients.

    Triangular recurrence: t_0 = 1/s_0 and
    t_n = -(1/s_0) * sum_{k=1..n} s_k t_{n-k}.
    """
    s = [Fraction(c) for c in coeffs]
    if s[0] == 0:
        raise ValueError("series with zero constant term has no reciprocal")
    out = [1 / s[0]]
    for n in range(1, len(s)):
        out.append(-sum(s[k] * out[n - k] for k in range(1, n + 1)) / s[0])
    return out


def q_factorial_at(n: int, q: int) -> int:
    """[n]_q! at an integer q, from [i]_q = 1 + q + ... + q^(i-1)."""
    out = 1
    for i in range(1, n + 1):
        out *= sum(q ** j for j in range(i))
    return out


def bessel_series_at(order: int, q: int) -> list[Fraction]:
    """The coefficients (-1)^n / ([n]_q!)^2 of f through z^order at q."""
    return [Fraction((-1) ** n, q_factorial_at(n, q) ** 2)
            for n in range(order + 1)]


def interpolate(points) -> QPolynomial:
    """The polynomial of degree below len(points) through the (x, y) points,
    by Lagrange's formula over the rationals; ArithmeticError unless its
    coefficients are integers."""
    total = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(yi)]  # yi times prod (q - xj)/(xi - xj), ascending
        for j, (xj, _) in enumerate(points):
            if j != i:
                shifted = [Fraction(0)] + basis
                for k, c in enumerate(basis):
                    shifted[k] -= xj * c
                basis = [c / (xi - xj) for c in shifted]
        for k, c in enumerate(basis):
            total[k] += c
    if any(c.denominator != 1 for c in total):
        raise ArithmeticError(f"interpolated coefficients {total} are not "
                              "all integers")
    return QPolynomial(c.numerator for c in total)


def reciprocal_numerator_by_evaluation(n: int) -> QPolynomial:
    """g_n = ([n]_q!)^2 [z^n](1/f), interpolated from the reciprocal of f's
    values at q = 0, 1, ..., n(n-1)+1.

    g_n has degree at most n(n-1), so one point more than that degree needs
    also checks that the values lie on such a polynomial.
    """
    degree = n * (n - 1)
    points = []
    for q in range(degree + 2):
        inverse = series_reciprocal(bessel_series_at(n, q))
        points.append((q, inverse[n] * q_factorial_at(n, q) ** 2))
    g = interpolate(points)
    if g.degree > degree:
        raise ArithmeticError(f"cleared coefficient {n} is not a polynomial "
                              f"of degree at most {degree}")
    return g


def specialization_at(f: dict, q: int) -> Fraction:
    """ps(f) at an integer q >= 2: p_a(1, q, q^2, ...) = 1/(1 - q^a) in each
    alphabet, summed with f's power-sum coefficients."""
    total = Fraction(0)
    for (mu, lam), c in f.items():
        term = Fraction(c)
        for a in mu + lam:
            term /= 1 - q ** a
        total += term
    return total


def cleared_specialization_matches(f: dict, n: int,
                                   target: QPolynomial) -> bool:
    """ps(f) * prod_{i<=n} (1 - q^i)^2 == target, checked at n(n+1)+1 integer
    points.  When f has degree at most n in each alphabet both sides are
    polynomials of degree at most n(n+1), so agreement there is equality."""
    if target.degree > n * (n + 1):
        return False
    for q in range(2, n * (n + 1) + 3):
        denominator = 1
        for i in range(1, n + 1):
            denominator *= (1 - q ** i) ** 2
        if specialization_at(f, q) * denominator != target.evaluate(q):
            return False
    return True


def principal_specialization_by_terms(table: dict, n: int) -> QPolynomial:
    """m! l! times ps(ch(table)) for a table on S_m x S_l, as a numerator
    over specialization_denominator(n): each coefficient of the Fraction
    characteristic is scaled by m! l! and must come out an integer, and the
    denominator is divided by the product of 1 - q^a over the parts of each
    term in turn."""
    m, l = _degrees(table)
    scale = factorial(m) * factorial(l)
    denominator = specialization_denominator(n)
    total = QPolynomial()
    for (mu, lam), c in characteristic(table).items():
        scaled = c * scale
        if scaled.denominator != 1:
            raise ArithmeticError(f"{scale} * {c} is not an integer")
        term_den = ONE
        for part in mu + lam:
            term_den = term_den * one_minus_q_power(part)
        total = total + denominator.exact_div(term_den) * scaled.numerator
    return total


def h_to_p(n: int) -> dict:
    """Power-sum expansion of the complete homogeneous function h_n: the
    coefficient of p_lam is 1/z_lam (h_n is the characteristic of the trivial
    character, whose every value is 1)."""
    return {lam: Fraction(1, z_of(lam)) for lam in partitions_of(n)}


def tensor(xs: dict, ys: dict) -> dict:
    """The product of a one-alphabet expansion in x with one in y."""
    return {(mu, lam): cx * cy for mu, cx in xs.items() for lam, cy in ys.items()
            if cx * cy}


def characteristic(table: dict) -> dict:
    """The characteristic: table(mu, lam)/(z_mu z_lam) at p_mu(x) p_lam(y)."""
    return {(mu, lam): Fraction(v, z_of(mu) * z_of(lam))
            for (mu, lam), v in table.items() if v}


def sf_add(f: dict, g: dict, scale=1) -> dict:
    """f + scale * g, with zero coefficients dropped."""
    out = dict(f)
    for key, c in g.items():
        out[key] = out.get(key, 0) + scale * c
    return {key: c for key, c in out.items() if c}


def _merge(a: tuple, b: tuple) -> tuple:
    return tuple(sorted(a + b, reverse=True))


def sf_product(f: dict, g: dict) -> dict:
    """The product, term by term: p_mu p_nu = p_(mu merged with nu) in each
    alphabet."""
    out: dict = {}
    for (mu1, lam1), c1 in f.items():
        for (mu2, lam2), c2 in g.items():
            key = (_merge(mu1, mu2), _merge(lam1, lam2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


SF_ONE = {((), ()): Fraction(1)}


class Permutation:
    """A permutation of [n] in one-line notation (1-based images)."""

    __slots__ = ("image",)

    def __init__(self, image):
        img = tuple(int(v) for v in image)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise ValueError(f"not a permutation of [{len(img)}]: {img}")
        self.image = img

    def __len__(self) -> int:
        return len(self.image)


def inversions(s: Permutation) -> int:
    """Number of pairs i < j with s(i) > s(j), by comparing every pair."""
    img = s.image
    return sum(1 for a, b in combinations(img, 2) if a > b)


def ascent_set(image) -> set[int]:
    """The positions i in [n-1] with image(i) < image(i+1), 1-based."""
    return {i + 1 for i in range(len(image) - 1) if image[i] < image[i + 1]}


def has_common_ascent(first: Permutation, second: Permutation) -> bool:
    if len(first) != len(second):
        raise ValueError("paired permutations must have the same size")
    return bool(ascent_set(first.image) & ascent_set(second.image))


def enumerate_no_common_ascent(n: int) -> list[tuple[Permutation, Permutation]]:
    """Every pair (sigma, omega) of S_n x S_n without a common ascent, once
    each, by comparing the ascent sets of every pair."""
    perms = [Permutation(img) for img in permutations(range(1, n + 1))]
    return [(a, b) for a in perms for b in perms if not has_common_ascent(a, b)]


@lru_cache(maxsize=None)
def perm_stats(n: int) -> tuple[tuple[int, int], ...]:
    """(ascent bitmask, inversion count) for each permutation of [n], in the
    lexicographic order of itertools.permutations(range(1, n + 1)).

    Bit i-1 of the mask is set when position i is an ascent, so two
    permutations share an ascent exactly when their masks intersect.
    """
    stats = []
    for img in permutations(range(1, n + 1)):
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


def w_polynomial_by_pair_scan(n: int) -> QPolynomial:
    """W_n(q) by testing every pair of S_n x S_n for a common ascent."""
    stats = perm_stats(n)
    coeffs = [0] * (n * (n - 1) + 1)
    for m1, i1 in stats:
        for m2, i2 in stats:
            if m1 & m2 == 0:
                coeffs[i1 + i2] += 1
    return QPolynomial(coeffs)


def schoolbook_product(a, b) -> QPolynomial:
    """The product of two coefficient lists, term by term."""
    if not a or not b:
        return QPolynomial()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return QPolynomial(out)


def w_polynomial_by_listing(n: int) -> QPolynomial:
    """W_n(q) from the ascent classes of S_n, every permutation listed once.

    Each permutation is filed under its ascent bitmask m, giving the
    inversion polynomial A_m(q) of each class; then W_n is the sum of
    A_m1 * A_m2 over disjoint masks, with A summed over the submasks of
    each mask first (one bit at a time): 2^(n-1) products instead of
    (n!)^2 pair tests, each taken term by term.
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
    total = QPolynomial()
    for m, a in enumerate(classes):
        total = total + schoolbook_product(a.coeffs, below[full ^ m].coeffs)
    return total


def segre_product_by_pairs(p, q):
    """The Segre product by listing the equal-rank pairs, numbering them in
    a dict, and pairing every cover of p with every cover of q."""
    pairs = [(i, j) for i in range(len(p)) for j in range(len(q))
             if p.ranks[i] == q.ranks[j]]
    index = {pair: t for t, pair in enumerate(pairs)}
    names = [(p.names[i], q.names[j]) for i, j in pairs]
    ranks = [p.ranks[i] for i, _ in pairs]
    covers = []
    for a, c in p.covers:
        for b, d in q.covers:
            if q.ranks[b] == p.ranks[a]:
                covers.append((index[(a, b)], index[(c, d)]))
    return poset_from_covers(names, ranks, covers)


def poset_from_covers(names, ranks, covers):
    """The unlabeled GradedPoset with the given (a, b) cover pairs, in any
    order and with repeats: each element's distinct upper covers, sorted,
    in one group labeled None.  A lower element out of range is refused
    here; the constructor checks the rest."""
    up = [set() for _ in names]
    for a, b in covers:
        if not 0 <= a < len(up):
            raise ValueError(f"cover ({a},{b}) out of range")
        up[a].add(b)
    return GradedPoset(names, ranks, [[(None, sorted(ys))] if ys else []
                                      for ys in up])


def cover_labels(p) -> dict:
    """p's labeling, held as its label groups, as the dict from each cover
    to its label; the dict-based oracles read only this form."""
    return {(x, y): label for x, groups in enumerate(p._up)
            for label, ys in groups for y in ys}


def relabel(p, labels: dict) -> GradedPoset:
    """p's elements with the covers and labels of a dict from pairs to
    labels: each element's pairs grouped by label, in ascending order
    within a group.  A cover missing from the dict is not a cover of the
    result, and the constructor refuses a pair that cannot be one."""
    groups = [{} for _ in range(len(p))]
    for (x, y), label in sorted(labels.items()):
        groups[x].setdefault(label, []).append(y)
    return GradedPoset(p.names, p.ranks,
                       [list(by_label.items()) for by_label in groups])


def segre_bnq(n: int, field) -> GradedPoset:
    """The Segre square of build_bnq's lattice with itself."""
    p, _ = build_bnq(n, field)
    return segre_product(p, p)


def descending_chain_count(p) -> int:
    """Maximal chains from bottom to top whose label words have no ascent,
    chain_report's descending count without the words, by one push over
    the poset's own covers; on segre_product's square it is the second
    route to the count that chain_report at power 2 reads off the factor's
    words.

    Taken in rank order, tallies[x][s] counts the descending chains from the
    bottom to x whose last label has id s, and each label group (t, ys) of x
    adds the sum of tallies[x] over the ids t may follow (those s with no
    s < t) to tallies[y][t] for every y in ys.  A sum of zero is still
    pushed, so the top always has its tallies and no descending chain
    reads 0."""
    bottom, top = p.bottom, p.top
    if bottom is None:
        raise ValueError("poset has no bottom element")
    if top is None:
        raise ValueError("poset has no top element")
    up, less = _label_ids(p)
    if top == bottom:
        return 1
    width = len(less)
    follows = [[s for s, row in enumerate(less) if not row[t]]
               for t in range(width)]
    tallies = [None] * len(p)
    # the top has the one largest rank, so it comes last
    for x in sorted(range(len(p)), key=p.ranks.__getitem__)[:-1]:
        for t, ys in up[x]:
            extended = 1 if x == bottom else sum(
                [tallies[x][s] for s in follows[t]])
            for y in ys:
                if tallies[y] is None:
                    tallies[y] = [0] * width
                tallies[y][t] += extended
    return sum(tallies[top])


def segre_labels_by_names(square, p, q):
    """The pair labels of a Segre square, each factor label found through
    the factor index of the element's name."""
    p_index = {name: i for i, name in enumerate(p.names)}
    q_index = {name: j for j, name in enumerate(q.names)}
    p_labels, q_labels = cover_labels(p), cover_labels(q)
    labels = {}
    for a, b in square.covers:
        (xa, ya), (xb, yb) = square.names[a], square.names[b]
        labels[(a, b)] = (p_labels[(p_index[xa], p_index[xb])],
                          q_labels[(q_index[ya], q_index[yb])])
    return labels


def proper_part(p: GradedPoset) -> GradedPoset:
    """The unlabeled poset with p's bottom and top removed."""
    if p.bottom is None or p.top is None:
        raise ValueError("proper part requires both a bottom and a top")
    keep = [i for i in range(len(p)) if i not in (p.bottom, p.top)]
    remap = [-1] * len(p)
    for new, old in enumerate(keep):
        remap[old] = new
    up = []
    for i in keep:
        ys = [remap[b] for _, group in p._up[i] for b in group if b != p.top]
        up.append([(None, ys)] if ys else [])
    return GradedPoset([p.names[i] for i in keep],
                       [p.ranks[i] for i in keep], up)


def order_chain_counts(p) -> list[int]:
    """Entry j is the number of chains with j+1 elements (faces of the order
    complex of dimension j).

    ends[x][j], the chains with j+1 elements whose greatest element is x, is
    1 for j = 0 and else the sum of ends[y][j-1] over y below x.  Taken in
    rank order, each dimension keeps one mask per distinct value seen so
    far, so that sum is one popcount per value class; only the value
    classes are stored."""
    below = p._below_masks()
    classes: list[dict[int, int]] = []
    counts: list[int] = []
    for x in sorted(range(len(p)), key=p.ranks.__getitem__):
        value, j = 1, 0
        while value:
            if j == len(counts):
                classes.append({})
                counts.append(0)
            counts[j] += value
            classes[j][value] = classes[j].get(value, 0) | (1 << x)
            value = sum(v * (below[x] & mask).bit_count()
                        for v, mask in classes[j].items())
            j += 1
    return counts


def chains_by_dimension(p) -> list[list[tuple[int, ...]]]:
    """All chains of the poset grouped by dimension (j+1 elements -> index
    j), each group in lexicographic order: a chain is extended by every
    element above its last, the order read from p.covers alone."""
    _, at_or_above = order_from_covers(p)
    above = [sorted(at_or_above[x] - {x}) for x in range(len(p))]
    by_dim: list[list[tuple[int, ...]]] = []
    level = [(v,) for v in range(len(p))]
    while level:
        by_dim.append(level)
        level = [c + (y,) for c in level for y in above[c[-1]]]
    return by_dim


def rational_betti_numbers(p) -> list[int]:
    """Reduced Betti numbers over the rationals of the order complex of any
    finite graded poset, dimensions 0 through the top; empty for the empty
    poset.  Every chain of p, listed by chains_by_dimension and checked
    against order_chain_counts, goes through the package's element matching
    and Morse complex (morse._element_matching, morse._morse_betti_numbers),
    which betti_numbers runs only on the chains of a proper part.  The
    empty chain is matched with the first element, so the homology is
    reduced.  Torsion does not count: the face poset of the six-vertex real
    projective plane has all Betti numbers 0."""
    if len(p) == 0:
        return []
    counts = order_chain_counts(p)
    chains = chains_by_dimension(p)
    if [len(level) for level in chains] != counts:
        raise ArithmeticError(f"listed {[len(level) for level in chains]} "
                              f"chains by dimension but counted {counts}")
    mate = _element_matching(p, chains)
    critical = [[c for c in level if c not in mate] for level in chains]
    return _morse_betti_numbers(
        f"a poset of {len(p)} elements and rank sizes {p.rank_sizes()}",
        [len(level) for level in critical], critical.__getitem__, mate)


def reduced_euler_characteristic(p) -> int:
    """Alternating chain count including the empty chain at dimension -1;
    by Hall's theorem, mu(bottom, top) of a bounded poset is this number for
    its proper part."""
    total = -1
    for j, c in enumerate(order_chain_counts(p)):
        total = total + c if j % 2 == 0 else total - c
    return total


def from_interchange(doc: dict) -> GradedPoset:
    """The labeled poset of a document from to_interchange, with element
    names as their strings; list labels are read as pair labels.  The
    labeled pairs must be the covers."""
    covers = [tuple(c) for c in doc["covers"]]
    p = poset_from_covers(doc["elements"], doc["ranks"], covers)
    labels = {}
    for key, val in doc["labels"].items():
        a, b = key.split("-")
        labels[(int(a), int(b))] = tuple(val) if isinstance(val, list) else val
    if set(labels) != set(p.covers):
        raise ValueError("the labeled pairs are not the covers")
    return relabel(p, labels)


def boolean_lattice(n: int) -> GradedPoset:
    """Subsets of {1..n} ordered by inclusion; names are sorted tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    names = [tuple(c) for k in range(n + 1)
             for c in combinations(range(1, n + 1), k)]
    index = {nm: i for i, nm in enumerate(names)}
    ranks = [len(nm) for nm in names]
    covers = []
    for i, nm in enumerate(names):
        present = set(nm)
        for extra in range(1, n + 1):
            if extra not in present:
                covers.append((i, index[tuple(sorted(nm + (extra,)))]))
    return poset_from_covers(names, ranks, covers)


def boolean_lattice_labeled(n: int) -> GradedPoset:
    """Boolean lattice with each cover labeled by its added element."""
    p = boolean_lattice(n)
    labels = {}
    for a, b in p.covers:
        (added,) = set(p.names[b]) - set(p.names[a])
        labels[(a, b)] = added
    return relabel(p, labels)


def segre_boolean_labeled(n: int) -> GradedPoset:
    """Segre square of the labeled boolean lattice, covers labeled by pairs."""
    factor = boolean_lattice_labeled(n)
    return segre_product(factor, factor)


@lru_cache(maxsize=16)
def order_from_covers(p) -> tuple[list, list]:
    """Each element's upper covers, and the set of elements at or above it,
    read from p.covers alone."""
    up = [[] for _ in range(len(p))]
    for a, b in p.covers:
        up[a].append(b)
    above = [frozenset()] * len(p)
    for x in sorted(range(len(p)), key=lambda e: -p.ranks[e]):
        above[x] = frozenset({x}).union(*(above[y] for y in up[x]))
    return up, above


def mobius_values_by_recursion(p) -> dict[int, int]:
    """mu(bottom, x) for every x, by the plain recursion mu(x) = -sum of
    mu(y) over y < x, in rank order, the order read from p.covers alone."""
    _, above = order_from_covers(p)
    mu: dict[int, int] = {}
    for x in sorted(range(len(p)), key=p.ranks.__getitem__):
        mu[x] = 1 if x == p.bottom else -sum(
            mu[y] for y in mu if y != x and x in above[y])
    return mu


def mobius_by_recursion(p) -> int:
    """mu(bottom, top) by mobius_values_by_recursion, refused as
    mobius_number refuses a poset without a bottom or a top."""
    if p.bottom is None or p.top is None:
        raise ValueError("Mobius number requires both a bottom and a top")
    return mobius_values_by_recursion(p)[p.top]


def maximal_chains(p, lo=None, hi=None):
    """All saturated chains from lo to hi (bottom and top by default), by
    walking up the covers."""
    if lo is None:
        lo = p.bottom
        if lo is None:
            raise ValueError("poset has no bottom element")
    if hi is None:
        hi = p.top
        if hi is None:
            raise ValueError("poset has no top element")
    up, above = order_from_covers(p)
    if hi not in above[lo]:
        return

    def walk(path):
        last = path[-1]
        if last == hi:
            yield tuple(path)
            return
        for nxt in up[last]:
            if hi in above[nxt]:
                path.append(nxt)
                yield from walk(path)
                path.pop()

    yield from walk([lo])


def chain_word(labels, chain) -> tuple:
    return tuple(labels[(chain[t], chain[t + 1])] for t in range(len(chain) - 1))


def _ascents(word) -> list[bool]:
    return [product_order_less(word[t], word[t + 1]) for t in range(len(word) - 1)]


def el_check_by_intervals(p):
    """The EL check by listing every maximal chain of every interval: a
    unique increasing chain whose word precedes every other word."""
    labels = cover_labels(p)
    _, above = order_from_covers(p)
    for lo in range(len(p)):
        for hi in sorted(above[lo] - {lo}):
            words = [chain_word(labels, c) for c in maximal_chains(p, lo, hi)]
            increasing = [w for w in words if all(_ascents(w))]
            if len(increasing) != 1:
                reason = f"{len(increasing)} increasing maximal chains"
            elif any(w != increasing[0] and w <= increasing[0] for w in words):
                reason = "increasing chain is not lexicographically first"
            else:
                continue
            return False, f"{reason} in [{p.names[lo]}, {p.names[hi]}]"
    return True, None


def chain_report_by_enumeration(p) -> tuple[dict, int, int]:
    """Label-word tallies from one pass over every maximal chain."""
    labels = cover_labels(p)
    tallies: dict = {}
    increasing = descending = 0
    for chain in maximal_chains(p):
        word = chain_word(labels, chain)
        tallies[word] = tallies.get(word, 0) + 1
        ascents = _ascents(word)
        increasing += all(ascents)
        descending += not any(ascents)
    return tallies, increasing, descending


def rank_over_rationals(rows) -> int:
    """Rank of sparse rows {column: value} by Gaussian elimination over
    Fractions, each pivot row scaled to a leading 1."""
    pivots: dict = {}
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v}
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                break
            coef = row[col]
            for c, v in pivot.items():
                nv = row.get(c, 0) - coef * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def chains_by_subsets(p) -> list[list[tuple[int, ...]]]:
    """The chains of p grouped by dimension: the sets of pairwise comparable
    elements, grown one element of larger index at a time, each listed in
    rank order and each group sorted."""
    _, above = order_from_covers(p)
    comparable = [[b in above[a] or a in above[b] for b in range(len(p))]
                  for a in range(len(p))]
    by_dim = []
    level = [(v,) for v in range(len(p))]
    while level:
        by_dim.append(sorted(tuple(sorted(c, key=p.ranks.__getitem__))
                             for c in level))
        level = [c + (y,) for c in level for y in range(c[-1] + 1, len(p))
                 if all(comparable[v][y] for v in c)]
    return by_dim


def rational_betti_numbers_by_elimination(p) -> list[int]:
    """Reduced Betti numbers over the rationals from the ranks of every
    boundary map of the order complex, the augmentation onto the empty chain
    included, each taken by fraction-free elimination over all its rows."""
    if len(p) == 0:
        return []
    chains = chains_by_subsets(p)
    top = len(chains) - 1
    indices = [{chain: pos for pos, chain in enumerate(level)} for level in chains]
    ranks = [0] * (top + 2)
    ranks[0] = 1  # augmentation onto the empty simplex
    for j in range(1, top + 1):
        rows = []
        for chain in chains[j]:
            row = {}
            for t in range(j + 1):
                face = chain[:t] + chain[t + 1:]
                row[indices[j - 1][face]] = -1 if t % 2 else 1
            rows.append(row)
        ranks[j] = _rank_of_sparse_rows(rows)
    return [len(chains[j]) - ranks[j] - ranks[j + 1] for j in range(top + 1)]


def rref_rows(field, ambient: int, vectors) -> tuple[tuple[int, ...], ...]:
    """Canonical reduced row echelon basis of the span of the given vectors,
    by Gauss-Jordan elimination on code tuples."""
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


def label_set(field, rows) -> frozenset[int]:
    """Rightmost nonzero coordinate indices (1-based) over the atoms of the
    row space of the RREF rows: the pivots of the RREF of the mirrored rows,
    mapped back; one index per row, or ArithmeticError."""
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
    and has leading entry 1 at column lead, in tuple order."""
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


def _join(field, rows, pivots, lead: int, v):
    """RREF rows of span(rows) + <v>, v zero on the pivot columns of the RREF
    rows with leading entry 1 at column lead: clear that column in each row
    by table lookups, then insert v in pivot order."""
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


def build_bnq_by_tuples(n: int, field) -> tuple[GradedPoset, list[int]]:
    """subspace.build_bnq with every subspace a tuple of code-tuple rows,
    joins cleared by table lookups, each join's canonical form tested as
    rref_rows(rows) == rows and label sets taken by label_set: the build
    that the packed one replaced, with the same names, ranks, label groups
    (in the same order) and lows."""
    q = field.order
    names = [()]
    fsets = [frozenset()]
    points: dict = {}
    labels = []
    lower = [0]
    start = 0
    for k in range(n):
        joins: dict = {}
        found = []
        for rows in names[start:]:
            pivots = tuple(row.index(1) for row in rows)
            if pivots not in points:
                points[pivots] = _points_off(n, pivots, q)
            found.append([])
            for lead, v in points[pivots]:
                join = _join(field, rows, pivots, lead, v)
                found[-1].append(joins.setdefault(join, join))
        if len(joins) != _gaussian_count(n, k + 1, q):
            raise ArithmeticError(f"rank {k + 1} holds {len(joins)} joins")
        for b, rows in enumerate(sorted(joins), len(names)):
            if len(rows) != k + 1 or rref_rows(field, n, rows) != rows:
                raise ArithmeticError(f"join {rows} is not canonical")
            joins[rows] = b
            names.append(rows)
            fsets.append(label_set(field, rows))
            lower.append(0)
        for a, joined in enumerate(found, start):
            groups: dict = {}
            for rows in joined:
                b = joins[rows]
                difference = fsets[b] - fsets[a]
                if len(difference) != 1:
                    raise ArithmeticError(f"cover {names[a]} < {names[b]} "
                                          f"gains labels {sorted(difference)}")
                groups.setdefault(next(iter(difference)), []).append(b)
                lower[b] += 1
            labels.append(list(groups.items()))
        start += len(found)
    labels += [[] for _ in range(start, len(names))]
    ranks = [len(rows) for rows in names]
    for b, count in enumerate(lower):
        if count != _gaussian_count(ranks[b], 1, q):
            raise ArithmeticError(f"{names[b]} has {count} lower covers")
    lows = [a for a, rows in enumerate(names)
            if all(row.count(0) == len(row) - 1 for row in rows)]
    return GradedPoset(names, ranks, labels), lows


class Subspace(NamedTuple):
    """The row space of a canonical RREF basis over a field."""
    field: object
    ambient: int
    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)


def enumerate_subspaces(n: int, field) -> list[Subspace]:
    """Every subspace of F_q^n exactly once, as RREF matrices: choose the
    pivot columns, then fill the free positions."""
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
                out.append(Subspace(field, n, tuple(map(tuple, rows))))
    return out


def span(field, n: int, vectors) -> Subspace:
    """The subspace of F_q^n spanned by the given vectors."""
    return Subspace(field, n, rref_rows(field, n, vectors))


def contains(upper, lower) -> bool:
    """Whether the subspace upper contains lower: each basis row of lower
    reduces to zero against upper's RREF rows."""
    if upper.field is not lower.field or upper.ambient != lower.ambient:
        raise ValueError("subspaces live in different ambient spaces")
    add, mul, neg = upper.field._add, upper.field._mul, upper.field._neg
    for v in lower.rows:
        vec = list(v)
        for row in upper.rows:
            pc = next(i for i, x in enumerate(row) if x)
            if vec[pc]:
                scaled = mul[neg[vec[pc]]]
                vec = [add[x][scaled[y]] for x, y in zip(vec, row)]
        if any(vec):
            return False
    return True


def nonzero_vectors(s):
    """All nonzero vectors in the row space, from coefficient combinations of
    the basis (never scans the ambient space)."""
    field = s.field
    for coeffs in product(range(field.order), repeat=s.dim):
        if not any(coeffs):
            continue
        vec = [0] * s.ambient
        for c, row in zip(coeffs, s.rows):
            if c:
                for i, x in enumerate(row):
                    if x:
                        vec[i] = field._add[vec[i]][field._mul[c][x]]
        yield vec


def label_set_by_atoms(s) -> frozenset[int]:
    """Rightmost nonzero coordinate indices (1-based) over every nonzero
    vector of s."""
    return frozenset(max(i for i, x in enumerate(vec) if x) + 1
                     for vec in nonzero_vectors(s))


def covers_by_containment(n: int, field) -> dict:
    """The labeled covers of B_n(q) as {(lower rows, upper rows): label}, by
    testing every pair of adjacent-rank subspaces for containment."""
    by_rank: dict = {}
    for s in enumerate_subspaces(n, field):
        by_rank.setdefault(s.dim, []).append(s)
    out = {}
    for k in range(1, n + 1):
        for upper in by_rank[k]:
            for lower in by_rank[k - 1]:
                if contains(upper, lower):
                    gained = label_set_by_atoms(upper) - label_set_by_atoms(lower)
                    if len(gained) != 1:
                        raise ArithmeticError(f"cover {lower!r} < {upper!r} "
                                              f"gains labels {sorted(gained)}")
                    out[(lower.rows, upper.rows)] = next(iter(gained))
    return out


def _borel_generators(n: int, field):
    """(name, act) for each generator of the group B of invertible upper
    triangular matrices over the field, act mapping a coordinate vector v
    to g v: the scalings e_i -> a e_i by a generator a of F_q^* (none for
    q = 2), then the transvections e_j -> e_j + t e_i, i < j, for t in the
    F_p-basis 1, x, ..., x^(k-1) of F_q (codes p^0, ..., p^(k-1)); these t
    generate F_q additively, so the transvections generate the unitriangular
    matrices."""
    add, mul = field._add, field._mul
    q = field.order

    def order(a: int) -> int:
        power, k = a, 1
        while power != 1:
            power, k = mul[power][a], k + 1
        return k

    if q > 2:
        a = next(a for a in range(2, q) if order(a) == q - 1)
        for i in range(n):
            def act(v, i=i, scale=mul[a]):
                return v[:i] + (scale[v[i]],) + v[i + 1:]
            yield f"e_{i + 1} -> {a} e_{i + 1}", act
    for i in range(n):
        for j in range(i + 1, n):
            for t in (field.p ** e for e in range(field.k)):
                def act(v, i=i, j=j, scaled=mul[t]):
                    return v[:i] + (add[v[i]][scaled[v[j]]],) + v[i + 1:]
                yield f"e_{j + 1} -> e_{j + 1} + {t} e_{i + 1}", act


def borel_representatives(n: int, field, p) -> list[int] | None:
    """The coordinate subspaces e_S of B_n(q), as ascending indices into p,
    one in each orbit of the group B of invertible upper triangular
    matrices, once p and its labels are checked to have B's symmetry: the
    generator sweep that the lows of subspace.build_bnq replaced.

    Each generator of _borel_generators maps every element by RREF, and the
    generators' orbits are joined by union-find.  None when some cover's
    image carries another label in p; ArithmeticError when an image is
    not an element, two elements share an image, a cover maps to a
    non-cover, or the orbits are not 2^n classes with one e_S in each."""
    names = p.names
    index = {rows: a for a, rows in enumerate(names)}
    label_of = [{y: label for label, ys in groups for y in ys}
                for groups in p._up]
    covers = p.covers
    cover_set = set(covers)
    parent = list(range(len(names)))

    def root(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    q = field.order
    for name, act in _borel_generators(n, field):
        image = []
        for rows in names:
            b = index.get(rref_rows(field, n, map(act, rows)))
            if b is None:
                raise ArithmeticError(f"{name} maps {rows} of B_{n}({q}) to "
                                      "no element")
            image.append(b)
        if len(set(image)) != len(image):
            raise ArithmeticError(f"{name} maps two elements of B_{n}({q}) "
                                  "to one")
        for a, b in covers:
            if (image[a], image[b]) not in cover_set:
                raise ArithmeticError(
                    f"{name} maps the cover {names[a]} < {names[b]} of "
                    f"B_{n}({q}) to a non-cover")
            if label_of[a].get(b) != label_of[image[a]].get(image[b]):
                return None
        for a, b in enumerate(image):
            parent[root(a)] = root(b)
    units = [tuple(int(c == s) for c in range(n)) for s in range(n)]
    coordinate = [index.get(tuple(units[s] for s in range(n) if mask >> s & 1))
                  for mask in range(2 ** n)]
    classes = {root(a) for a in range(len(names))}
    if (None in coordinate or len(classes) != 2 ** n
            or len({root(c) for c in coordinate}) != 2 ** n):
        raise ArithmeticError(
            f"the Borel orbits on B_{n}({q}) are {len(classes)} classes, not "
            f"the {2 ** n} of the coordinate subspaces")
    return sorted(coordinate)


def _poly_remainder_modp(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of coefficient lists (ascending) over F_p, den monic."""
    num = list(num)
    for shift in range(len(num) - len(den), -1, -1):
        factor = num[shift + len(den) - 1]
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    return [c % p for c in num]


def first_irreducible_modulus(p: int, k: int) -> tuple[int, ...]:
    """The first monic degree-k polynomial over F_p, its non-leading
    coefficients scanned as ascending base-p integers, that no monic
    polynomial of degree 1..k/2 divides."""
    for tail in product(range(p), repeat=k):
        candidate = list(tail[::-1]) + [1]
        divisors = (list(d) + [1] for degree in range(1, k // 2 + 1)
                    for d in product(range(p), repeat=degree))
        if all(any(_poly_remainder_modp(candidate, d, p)) for d in divisors):
            return tuple(candidate)
    raise ArithmeticError(f"no irreducible polynomial of degree {k} over F_{p}")


def class_size(parts) -> int:
    """The number of permutations of cycle type parts."""
    return factorial(sum(parts)) // z_of(parts)


def dimension(table: dict) -> int:
    """The character's value at the identity."""
    m, n = _degrees(table)
    return table[((1,) * m, (1,) * n)]


def trivial_character(m: int, n: int) -> dict:
    return {(mu, lam): 1 for mu in partitions_of(m) for lam in partitions_of(n)}


def indicator_tables(m: int, n: int) -> list[dict]:
    """The class indicators of S_m x S_n, each 1 on one class pair and 0 on
    every other."""
    pairs = list(trivial_character(m, n))
    return [{key: int(key == pair) for key in pairs} for pair in pairs]


@lru_cache(maxsize=None)
def characteristic_by_whitney_recursion(n: int) -> dict:
    """The top characteristic rebuilt bottom-up from the Whitney-homology
    decomposition: degree n is the alternating sum over r < n of the degree-r
    value times h_(n-r)(x) h_(n-r)(y), seeded with 1 at degree 0."""
    if n == 0:
        return SF_ONE
    total: dict = {}
    for r in range(n):
        h = h_to_p(n - r)
        term = sf_product(characteristic_by_whitney_recursion(r), tensor(h, h))
        total = sf_add(total, term, 1 if (n - 1 + r) % 2 == 0 else -1)
    return total


@lru_cache(maxsize=None)
def pair_poset(n: int) -> GradedPoset:
    """Proper part of the rank-equal pair poset of two copies of the subset
    lattice on [n]; empty for n = 1."""
    return proper_part(segre_boolean_labeled(n))


def lefschetz_character_by_chains(n: int) -> dict:
    """The top homology character of the pair poset from the Hopf trace over
    its order complex.

    For each class pair (mu, lam) and representative (g, h), the trace on the
    chain complex is the signed count of fixed chains (with the empty chain
    contributing at dimension -1); since only the top homology survives, the
    homology character is (-1)^n times that alternating count.  Chains have
    distinct ranks and the action preserves rank, so a chain fixed setwise is
    fixed pointwise; both counts are computed and compared rather than
    assuming the equivalence.
    """
    poset = pair_poset(n)
    chains = chains_by_dimension(poset)
    name_index = {name: i for i, name in enumerate(poset.names)}
    values = {}
    for mu in partitions_of(n):
        g = _perm_of_cycle_type(mu, n)
        for lam in partitions_of(n):
            h = _perm_of_cycle_type(lam, n)
            act = [0] * len(poset)
            for i, (s, t) in enumerate(poset.names):
                image = (tuple(sorted(g[x - 1] + 1 for x in s)),
                         tuple(sorted(h[x - 1] + 1 for x in t)))
                act[i] = name_index[image]
            euler = -1
            for dim, level in enumerate(chains):
                pointwise = sum(1 for c in level if all(act[v] == v for v in c))
                setwise = sum(1 for c in level
                              if sorted(act[v] for v in c) == sorted(c))
                if pointwise != setwise:
                    raise ArithmeticError(
                        f"n={n}, classes {mu}|{lam}: {setwise} chains of "
                        f"dimension {dim} fixed setwise but {pointwise} pointwise")
                euler += pointwise if dim % 2 == 0 else -pointwise
            values[(mu, lam)] = euler if n % 2 == 0 else -euler
    return values


def induced_blocks(first: int, second: int) -> dict:
    """The per-class conjugation profiles inverted, as the package inverted
    them before it checked each alphabet on its own: table[a][b] =
    (mu, count) for the block cycle types a of size first and b of size
    second.  A conjugate has the cycle type of g, so each pair (a, b) has
    one mu, the multiset union of a and b; a pair that no profile lists
    counts 0.  The profiles are read through the module, uncached, so that
    a patched symfrob._conjugation_profile reaches the table."""
    table = {a: {b: (tuple(sorted(a + b, reverse=True)), 0)
                 for b in partitions_of(second)}
             for a in partitions_of(first)}
    for mu in partitions_of(first + second):
        profile = symfrob._conjugation_profile(first, second, mu)
        for (a, b), count in profile.items():
            table[a][b] = (mu, count)
    return table


def induce_product_character(t: dict, u: dict) -> dict:
    """Induction product: the outer tensor of t (on S_k x S_l) and u (on
    S_m x S_n), induced to S_(k+m) x S_(l+n), as the package computed it
    before its check compared structure constants.

    Computed from the definition of induction: average the extended-by-zero
    character over conjugators, componentwise, through the inverted
    conjugation profiles of induced_blocks.  Only the nonzero entries of t
    and u are visited."""
    (k, l), (m, n) = _degrees(t), _degrees(u)
    _check_induction_bound(k + m, l + n)
    rows, cols = induced_blocks(k, m), induced_blocks(l, n)
    out = dict.fromkeys(symfrob._class_pairs(k + m, l + n), 0)
    for (a, c), value in t.items():
        if not value:
            continue
        for (b, d), other in u.items():
            if other:
                (mu, c1), (lam, c2) = rows[a][b], cols[c][d]
                out[mu, lam] += c1 * c2 * value * other
    denominator = factorial(k) * factorial(m) * factorial(l) * factorial(n)
    for key, value in out.items():
        if value:
            quotient, remainder = divmod(value, denominator)
            if remainder:
                raise ArithmeticError("induced character value is not integral")
            out[key] = quotient
    return out


def induction_homomorphism_by_tables(k: int, l: int, m: int, n: int) -> bool:
    """The homomorphism check as the package made it before it compared
    structure constants: the whole induced table against the whole product
    table, as dicts, for every pair of class indicators."""
    second = indicator_tables(m, n)
    for t in indicator_tables(k, l):
        for u in second:
            if induce_product_character(t, u) != symfrob._product_values(t, u):
                return False
    return True


def profile_with_one_count_off():
    """A broken symfrob._conjugation_profile behind a fresh cache: for each
    block sizes (first, second), the count of the first block pair (a, b)
    in the profile of its class, the union of a and b, is raised by
    first! second!, so that the induced value there is off by one times the
    other side's count and still an integer."""
    true_profile = symfrob._conjugation_profile.__wrapped__

    @lru_cache(maxsize=None)
    def profile(first: int, second: int, mu: tuple) -> dict:
        counts = true_profile(first, second, mu)
        a, b = partitions_of(first)[0], partitions_of(second)[0]
        if mu == tuple(sorted(a + b, reverse=True)):
            counts[a, b] += factorial(first) * factorial(second)
        return counts
    return profile


def profiles_scaled_inversely():
    """A broken symfrob._conjugation_profile behind a fresh cache: every
    count of S_1 x S_1 doubled and every count of S_2 x S_0 halved.  At
    sizes (1, 2, 1, 0) each product of an x count with a y count is then
    the true one, so only a check made per alphabet sees the fault."""
    true_profile = symfrob._conjugation_profile.__wrapped__

    @lru_cache(maxsize=None)
    def profile(first: int, second: int, mu: tuple) -> dict:
        counts = true_profile(first, second, mu)
        if (first, second) == (1, 1):
            return {key: 2 * count for key, count in counts.items()}
        if (first, second) == (2, 0):
            return {key: count // 2 for key, count in counts.items()}
        return counts
    return profile


def induction_homomorphism_by_fractions(k: int, l: int, m: int, n: int,
                                        induce=induce_product_character) -> bool:
    """ch(Ind(t x u)) == ch(t) ch(u) as two-alphabet symmetric functions
    with Fraction coefficients, over every pair of class indicators: t is 1
    on one class pair of S_k x S_l and 0 elsewhere, u likewise on
    S_m x S_n."""
    second = indicator_tables(m, n)
    for t in indicator_tables(k, l):
        ch_t = characteristic(t)
        for u in second:
            if characteristic(induce(t, u)) != \
                    sf_product(ch_t, characteristic(u)):
                return False
    return True


def induce_product_character_dense(t: dict, u: dict) -> dict:
    """The induction product over every class pair, as the package computed
    it before it visited only nonzero entries: for each (mu, lam), the sum
    over the conjugation profiles of mu and lam of c1 c2 t(ta, tc)
    u(tb, td), divided by k! m! l! n!, with the same refusals."""
    (k, l), (m, n) = _degrees(t), _degrees(u)
    big_m, big_n = k + m, l + n
    _check_induction_bound(big_m, big_n)
    denominator = factorial(k) * factorial(m) * factorial(l) * factorial(n)
    values = {}
    for mu in partitions_of(big_m):
        prof1 = _conjugation_profile(k, m, mu)
        for lam in partitions_of(big_n):
            prof2 = _conjugation_profile(l, n, lam)
            acc = 0
            for (ta, tb), c1 in prof1.items():
                for (tc, td), c2 in prof2.items():
                    acc += c1 * c2 * t[(ta, tc)] * u[(tb, td)]
            quotient, remainder = divmod(acc, denominator)
            if remainder:
                raise ArithmeticError("induced character value is not integral")
            values[(mu, lam)] = quotient
    return values


def product_values_dense(t: dict, u: dict) -> dict:
    """z_mu z_lam times the coefficient of p_mu(x) p_lam(y) in ch(t) ch(u)
    over every class pair, as the package computed it before it visited
    only nonzero entries: for each (mu, lam), the sum over its splits."""
    (k, l), (m, n) = _degrees(t), _degrees(u)
    cols = {lam: _cycle_splits(lam).get(l, ()) for lam in partitions_of(l + n)}
    out = {}
    for mu in partitions_of(k + m):
        rows = _cycle_splits(mu).get(k, ())
        for lam, col in cols.items():
            acc = 0
            for a, b, wx in rows:
                for c, d, wy in col:
                    acc += wx * wy * t[(a, c)] * u[(b, d)]
            out[(mu, lam)] = acc
    return out


def induce_off_by_one(t: dict, u: dict) -> dict:
    """A broken induction product: the true one with its first value raised
    by one, for showing that the homomorphism checks catch a wrong table."""
    induced = induce_product_character(t, u)
    induced[next(iter(induced))] += 1
    return induced
