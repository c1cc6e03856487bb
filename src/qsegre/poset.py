"""Finite graded posets: Segre products, Mobius numbers, chain tallies,
edge labelings with the lexicographic shelling property, and rational
homology of order complexes.

Elements are dense integer ids with opaque display names.  Cover relations
must raise rank by exactly one (everything in scope is graded), which also
rules out cycles.  The full order relation is precomputed as one reachability
bitset per element; instances stay below a few thousand elements, so the
quadratic table is cheap and makes comparisons single bit tests.  Order
queries walk only the set bits of a mask (`mask & -mask`), never every bit.

No kernel enumerates maximal chains.  The EL check and the chain tally are
dynamic programs over the covers in rank order, so their cost grows with the
number of covers times the number of distinct labels or label words, not with
the number of chains.  Boundary ranks for Betti numbers come from
fraction-free integer elimination, which gives the rank over the rationals.

Construction is single threaded; after that every query is read-only apart
from idempotent lazy caches, so built posets can be shared by concurrent
readers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Callable, Optional


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class GradedPoset:

    __slots__ = ("names", "ranks", "covers", "_up", "_down",
                 "_above", "_below", "_bottom", "_top", "_name_index")

    def __init__(self, names, ranks, covers):
        self.names = tuple(names)
        self.ranks = tuple(int(r) for r in ranks)
        if len(self.names) != len(self.ranks):
            raise ValueError("names and ranks must have equal length")
        m = len(self.names)
        cover_set = sorted({(int(a), int(b)) for a, b in covers})
        for a, b in cover_set:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"cover ({a},{b}) out of range")
            if self.ranks[b] != self.ranks[a] + 1:
                raise ValueError(f"cover ({a},{b}) must raise rank by exactly 1")
        self.covers = tuple(cover_set)
        self._up = [[] for _ in range(m)]
        self._down = [[] for _ in range(m)]
        for a, b in self.covers:
            self._up[a].append(b)
            self._down[b].append(a)
        self._above = None
        self._below = None
        self._bottom = -2  # -2: not computed yet; None: absent
        self._top = -2
        self._name_index = None

    def __len__(self) -> int:
        return len(self.names)

    def element_index(self, name) -> int:
        if self._name_index is None:
            self._name_index = {nm: i for i, nm in enumerate(self.names)}
        return self._name_index[name]

    def _above_masks(self) -> list[int]:
        if self._above is None:
            m = len(self.names)
            above = [0] * m
            for i in sorted(range(m), key=lambda e: -self.ranks[e]):
                acc = 1 << i
                for j in self._up[i]:
                    acc |= above[j]
                above[i] = acc
            self._above = above
        return self._above

    def _below_masks(self) -> list[int]:
        if self._below is None:
            m = len(self.names)
            below = [0] * m
            for i in sorted(range(m), key=lambda e: self.ranks[e]):
                acc = 1 << i
                for j in self._down[i]:
                    acc |= below[j]
                below[i] = acc
            self._below = below
        return self._below

    def leq(self, i: int, j: int) -> bool:
        return (self._above_masks()[i] >> j) & 1 == 1

    def less(self, i: int, j: int) -> bool:
        return i != j and self.leq(i, j)

    def upper_covers(self, i: int) -> tuple[int, ...]:
        return tuple(self._up[i])

    def lower_covers(self, i: int) -> tuple[int, ...]:
        return tuple(self._down[i])

    def strictly_below(self, j: int) -> list[int]:
        return _set_bits(self._below_masks()[j] & ~(1 << j))

    def strictly_above(self, i: int) -> list[int]:
        return _set_bits(self._above_masks()[i] & ~(1 << i))

    def bottom_index(self) -> Optional[int]:
        if self._bottom == -2:
            m = len(self.names)
            mins = [i for i in range(m) if not self._down[i]]
            if len(mins) == 1 and self._above_masks()[mins[0]] == (1 << m) - 1:
                self._bottom = mins[0]
            else:
                self._bottom = None
        return self._bottom

    def top_index(self) -> Optional[int]:
        if self._top == -2:
            m = len(self.names)
            maxes = [i for i in range(m) if not self._up[i]]
            if len(maxes) == 1 and self._below_masks()[maxes[0]] == (1 << m) - 1:
                self._top = maxes[0]
            else:
                self._top = None
        return self._top

    @property
    def has_bottom(self) -> bool:
        return self.bottom_index() is not None

    @property
    def has_top(self) -> bool:
        return self.top_index() is not None

    def rank_sizes(self) -> list[int]:
        """Element counts per rank value, indexed from rank 0."""
        if not self.names:
            return []
        out = [0] * (max(self.ranks) + 1)
        for r in self.ranks:
            out[r] += 1
        return out


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
    return GradedPoset(names, ranks, covers)


def boolean_lattice_labeled(n: int) -> tuple[GradedPoset, "EdgeLabeling"]:
    """Boolean lattice with each cover labeled by its added element."""
    p = boolean_lattice(n)
    labels = {}
    for a, b in p.covers:
        (added,) = set(p.names[b]) - set(p.names[a])
        labels[(a, b)] = added
    return p, EdgeLabeling.with_integer_labels(labels)


def segre_product(p: GradedPoset, q: GradedPoset) -> GradedPoset:
    """Induced subposet of the product on pairs of equal rank.

    Since both factors are graded, a cover of the product restricted to
    equal-rank pairs is exactly a pair of covers.
    """
    pairs = [(i, j) for i in range(len(p)) for j in range(len(q))
             if p.ranks[i] == q.ranks[j]]
    index = {pair: t for t, pair in enumerate(pairs)}
    names = [(p.names[i], q.names[j]) for i, j in pairs]
    ranks = [p.ranks[i] for i, _ in pairs]
    covers = []
    for a, c in p.covers:
        ra = p.ranks[a]
        for b, d in q.covers:
            if q.ranks[b] == ra:
                covers.append((index[(a, b)], index[(c, d)]))
    return GradedPoset(names, ranks, covers)


def proper_part(p: GradedPoset) -> GradedPoset:
    """The poset with its bottom and top removed."""
    bottom, top = p.bottom_index(), p.top_index()
    if bottom is None or top is None:
        raise ValueError("proper part requires both a bottom and a top")
    keep = [i for i in range(len(p)) if i not in (bottom, top)]
    remap = {old: new for new, old in enumerate(keep)}
    names = [p.names[i] for i in keep]
    ranks = [p.ranks[i] for i in keep]
    covers = [(remap[a], remap[b]) for a, b in p.covers
              if a in remap and b in remap]
    return GradedPoset(names, ranks, covers)


def mobius_number(p: GradedPoset) -> int:
    """mu(bottom, top), by the recursion mu(x) = -sum of mu(y) over y < x,
    in rank order; each strictly-below set is read off x's bitmask."""
    bottom, top = p.bottom_index(), p.top_index()
    if bottom is None or top is None:
        raise ValueError("Mobius number requires both a bottom and a top")
    m = len(p)
    mu = [0] * m
    mu[bottom] = 1
    for x in sorted(range(m), key=lambda e: p.ranks[e]):
        if x == bottom:
            continue
        mu[x] = -sum(mu[y] for y in p.strictly_below(x))
    return mu[top]


def order_chain_counts(p: GradedPoset) -> list[int]:
    """Entry j is the number of chains with j+1 elements (faces of the order
    complex of dimension j)."""
    m = len(p)
    counts: list[int] = []
    ways: list[list[int]] = [[] for _ in range(m)]
    for x in sorted(range(m), key=lambda e: p.ranks[e]):
        below = p.strictly_below(x)
        w = [1]
        j = 1
        while True:
            total = sum(ways[y][j - 1] for y in below if len(ways[y]) >= j)
            if total == 0:
                break
            w.append(total)
            j += 1
        ways[x] = w
        for dim, count in enumerate(w):
            if dim == len(counts):
                counts.append(0)
            counts[dim] += count
    return counts


def reduced_euler_characteristic(p: GradedPoset) -> int:
    """Alternating chain count including the empty chain at dimension -1."""
    total = -1
    for j, c in enumerate(order_chain_counts(p)):
        total = total + c if j % 2 == 0 else total - c
    return total


def product_order_less(a, b) -> bool:
    """Strictly below in the componentwise order on pairs."""
    return a != b and a[0] <= b[0] and a[1] <= b[1]


@dataclass
class EdgeLabeling:
    """Cover labels plus the strict order on labels.

    less is the order used for the increasing and descending tests.  Label
    words are compared lexicographically in plain tuple order; for pair
    labels the componentwise order is only partial, so the word comparison
    is fixed to plain tuple order (first component, then second).
    """

    labels: dict
    less: Callable = operator.lt

    @classmethod
    def with_integer_labels(cls, labels) -> "EdgeLabeling":
        return cls(dict(labels))

    @classmethod
    def with_pair_labels(cls, labels) -> "EdgeLabeling":
        return cls(dict(labels), less=product_order_less)


@dataclass(frozen=True)
class ELViolation:
    lower: object
    upper: object
    reason: str


def _is_increasing(labeling: EdgeLabeling, word: tuple) -> bool:
    return all(labeling.less(word[t], word[t + 1]) for t in range(len(word) - 1))


def _is_descending(labeling: EdgeLabeling, word: tuple) -> bool:
    return not any(labeling.less(word[t], word[t + 1]) for t in range(len(word) - 1))


def check_el_labeling(p: GradedPoset,
                      labeling: EdgeLabeling) -> tuple[bool, Optional[ELViolation]]:
    """Every closed interval must have a unique increasing maximal chain that
    lexicographically precedes all others; returns the first offender, by
    lower and then upper element in index order.

    One pass over the covers above each lower element lo, rank by rank,
    keeps two values per element y above lo: the number of increasing chains
    from lo to y by their last label, and the lexicographically first label
    word from lo to y.  All words from lo to y have the same length, so the
    first one is the first word to some lower cover x of y followed by the
    label of x -> y.  The interval [lo, hi] passes exactly when its
    increasing chains number one and its first word is increasing: that word
    is then the increasing chain's, and no other chain shares it, since a
    chain with an increasing word is itself increasing.
    """
    labels, less = labeling.labels, labeling.less
    for edge in p.covers:
        if edge not in labels:
            a, b = edge
            raise ValueError(f"cover ({p.names[a]}, {p.names[b]}) has no label")
    up, down = p._up, p._down
    for lo in range(len(p)):
        increasing: dict[int, dict] = {}  # y -> {last label: chain count}
        first = {lo: ()}
        layer = [lo]
        while layer:
            layer = list({y for x in layer for y in up[x]})
            for y in layer:
                counts: dict = {}
                best = None
                for x in down[y]:
                    if x not in first:
                        continue
                    label = labels[(x, y)]
                    word = first[x] + (label,)
                    if best is None or word < best:
                        best = word
                    if x == lo:
                        extended = 1
                    else:
                        extended = sum(c for last, c in increasing[x].items()
                                       if less(last, label))
                    counts[label] = counts.get(label, 0) + extended
                increasing[y] = counts
                first[y] = best
        for hi in sorted(increasing):
            found = sum(increasing[hi].values())
            if found != 1:
                return False, ELViolation(
                    p.names[lo], p.names[hi], f"{found} increasing maximal chains")
            if not _is_increasing(labeling, first[hi]):
                return False, ELViolation(
                    p.names[lo], p.names[hi],
                    "increasing chain is not lexicographically first")
    return True, None


@dataclass
class ChainReport:
    """Tallies of the maximal chains of a bounded poset by label word."""

    by_label_word: dict
    increasing_count: int
    descending_count: int

    @property
    def total(self) -> int:
        return sum(self.by_label_word.values())


def chain_report(p: GradedPoset, labeling: EdgeLabeling) -> ChainReport:
    """Maximal chains from bottom to top, counted by label word.

    words[y] maps each label word of the chains from the bottom to y to
    their number: the sum over the lower covers x of y of words[x] with the
    label of x -> y appended.  Each distinct word at the top is then
    classified once as increasing and as descending.
    """
    bottom = p.bottom_index()
    if bottom is None:
        raise ValueError("poset has no bottom element")
    top = p.top_index()
    if top is None:
        raise ValueError("poset has no top element")
    labels = labeling.labels
    words = {bottom: {(): 1}}
    for y in sorted(range(len(p)), key=lambda e: p.ranks[e]):
        if y == bottom:
            continue
        tally: dict = {}
        for x in p._down[y]:
            label = labels[(x, y)]
            for word, count in words[x].items():
                key = word + (label,)
                tally[key] = tally.get(key, 0) + count
        words[y] = tally
    tallies = words[top]
    return ChainReport(
        tallies,
        sum(c for w, c in tallies.items() if _is_increasing(labeling, w)),
        sum(c for w, c in tallies.items() if _is_descending(labeling, w)))


def chains_by_dimension(p: GradedPoset) -> list[list[tuple[int, ...]]]:
    """All chains of the poset grouped by dimension (j+1 elements -> index j)."""
    by_dim: list[list[tuple[int, ...]]] = []

    def record(chain):
        dim = len(chain) - 1
        if dim == len(by_dim):
            by_dim.append([])
        by_dim[dim].append(chain)

    def extend(chain):
        record(chain)
        for nxt in p.strictly_above(chain[-1]):
            extend(chain + (nxt,))

    for v in range(len(p)):
        extend((v,))
    return by_dim


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A nonzero integer row divided by the gcd of its entries, signed so
    that its entry in its first column is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _rank_of_sparse_rows(rows: list[dict[int, int]]) -> int:
    """Rank over the rationals of sparse integer rows, by fraction-free
    elimination.

    Pivot rows are kept primitive with a positive leading entry a.  A row
    whose first column already has a pivot, with entry b there, becomes
    (a/g)*row - (b/g)*pivot for g = gcd(a, b), which clears that column;
    when a/g is not 1 the result is divided by its content, so entries stay
    small.  Each step is invertible over the rationals and keeps the span
    of the rows seen so far, so the number of pivots is the rational rank.
    """
    pivots: dict[int, dict[int, int]] = {}
    for raw in rows:
        row = dict(raw)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = _primitive(row)
                break
            a, b = pivot[col], row[col]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            for c, v in pivot.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            if a != 1 and row:
                row = _primitive(row)
    return len(pivots)


def rational_betti_numbers(p: GradedPoset) -> list[int]:
    """Reduced Betti numbers of the order complex over the rationals,
    dimensions 0 through the top; empty for the empty poset.

    Computed from the ranks of the simplicial boundary maps, taken over the
    rationals by fraction-free integer elimination, with the augmentation
    map accounting for reduced homology.  Torsion does not count: the face
    poset of the six-vertex real projective plane has all Betti numbers 0.
    """
    if len(p) == 0:
        return []
    chains = chains_by_dimension(p)
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
    betti = [len(chains[j]) - ranks[j] - ranks[j + 1] for j in range(top + 1)]
    if any(b < 0 for b in betti):
        raise ArithmeticError(f"negative Betti numbers {betti} on a poset of "
                              f"{len(p)} elements and rank sizes {p.rank_sizes()}")
    return betti


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def to_interchange(p: GradedPoset, labeling: Optional[EdgeLabeling] = None) -> dict:
    """JSON-ready poset document: elements, ranks, covers, optional labels."""
    doc = {
        "elements": [str(nm) for nm in p.names],
        "ranks": list(p.ranks),
        "covers": [[a, b] for a, b in p.covers],
    }
    if labeling is not None:
        doc["labels"] = {f"{a}-{b}": _label_to_json(labeling.labels[(a, b)])
                         for a, b in p.covers}
    return doc


def from_interchange(doc: dict) -> tuple[GradedPoset, Optional[EdgeLabeling]]:
    covers = [tuple(c) for c in doc["covers"]]
    p = GradedPoset(doc["elements"], doc["ranks"], covers)
    labeling = None
    if "labels" in doc:
        labels = {}
        pair_valued = False
        for key, val in doc["labels"].items():
            a, b = key.split("-")
            if isinstance(val, list):
                val = tuple(val)
                pair_valued = True
            labels[(int(a), int(b))] = val
        if pair_valued:
            labeling = EdgeLabeling.with_pair_labels(labels)
        else:
            labeling = EdgeLabeling.with_integer_labels(labels)
    return p, labeling
