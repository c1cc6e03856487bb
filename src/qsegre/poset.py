"""Finite graded posets: Segre products, Mobius numbers, chain tallies,
edge labelings with the lexicographic shelling property, and rational
homology of order complexes.

Elements are dense integer ids with opaque display names.  A poset holds
its covers once, as each element's upper covers grouped by label: a list
with one entry per element x, x's upper covers as (label, ys) groups that
partition them.  That list is the poset's edge labeling, and an unlabeled
poset has at most one group per element, with label None.  The sorted
tuple of cover pairs is derived on demand, and the unique bottom and top,
if any, are found once by the constructor.  Cover relations must raise
rank by exactly one (everything in scope is graded), which also rules out
cycles, and no cover may sit in two groups.  A label is an integer, or a
pair on a Segre square.  Every kernel reads the labeling off the poset,
so no labeling is held apart from the covers it labels, and the
constructor's checks prove that its groups partition each element's upper
covers.  The label order follows the label type (product_order_less):
integers in their order, pairs componentwise.  Label words are compared
lexicographically in plain tuple order, so pairs by first component, then
second.

No kernel enumerates maximal chains: the EL check and the chain tally are
dynamic programs over the label groups, so their cost grows with the
covers times the distinct labels or label words.  The EL check pushes
from each lower element, keeping per element its increasing chains by
last label and its first label word; a caller that knows every interval
to be label-isomorphic to one above a few lower elements (the coordinate
subspaces of B_n(q), or their pairs on its square, each interval moved
there by an upper unitriangular witness) passes those, and a failure
among them reruns the full check.  Only segre_product builds a Segre
square.  Its Mobius number, chains and Betti numbers are taken from the
factor alone, as a chain of the square is a pair of chains of the factor
with one rank set: mobius_number, chain_report and betti_numbers each take
a power, 1 for the poset and 2 for its square.  At power 2 the Hall sum
squares the flag f-vector, the chain tally pairs the factor's words, and
the element matching runs on pairs of the factor's chains.  The order is
held once, as each element's strict downward mask, which sets only bits
of lower ranks; mobius_number and betti_numbers build it, and
betti_numbers extends chains by one transpose of it (_upper_lists).
Queries walk only the set bits (`mask & -mask`).  Betti numbers come from
an acyclic element matching on the order complex (discrete Morse theory),
which the morse module holds: betti_numbers lists the chains, and imports
morse only once the face count, read off the flag f-vector at both powers,
is within FACE_COUNT_BOUND (check_face_count).  The chains of the proper
part are listed once, by level set.

Construction is single threaded; after that every query is read-only apart
from idempotent lazy caches, so built posets can be shared by concurrent
readers.
"""

from __future__ import annotations

import operator
from itertools import accumulate, chain
from typing import Optional

FACE_COUNT_BOUND = 500_000
_GROUP_COVERS = operator.itemgetter(1)  # the covers of a (label, ys) group


def check_face_count(faces: int) -> None:
    """Refuse an order complex of more than FACE_COUNT_BOUND faces."""
    if faces > FACE_COUNT_BOUND:
        raise ValueError(f"{faces} faces of the order complex exceed the "
                         f"bound {FACE_COUNT_BOUND}")


def _set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refuse_covers(names, ranks, a: int, groups) -> None:
    """ValueError for the upper covers of a, given as label groups: it names
    the first cover out of range, else the first not one rank above a, else
    the first that comes again, in two groups or twice in one."""
    flat = [b for _, ys in groups for b in ys]
    for b in flat:
        if not 0 <= b < len(names):
            raise ValueError(f"cover ({a},{b}) out of range")
    for b in flat:
        if ranks[b] != ranks[a] + 1:
            raise ValueError(f"cover ({a},{b}) must raise rank by exactly 1")
    b = next(b for t, b in enumerate(flat) if b in flat[:t])
    raise ValueError(f"cover ({names[a]}, {names[b]}) has more than one label")


class GradedPoset:

    __slots__ = ("names", "ranks", "_up", "bottom", "top", "_below")

    def __init__(self, names, ranks, up):
        """The poset whose element a has the upper covers in up[a], held as
        (label, ys) groups: its edge labeling, or at most one group with
        label None on an unlabeled poset.  up itself is kept, not copied,
        so the caller's groups are the poset's labeling and must not be
        changed.  Each element's covers, the ys of its groups taken
        together, must be in range, one rank above it and without repeats
        (see _refuse_covers).  bottom and top are the
        unique minimal and maximal elements, or None.

        One pass visits each cover once: last[b] is the last element found
        below b, so a cover repeated at a finds last[b] == a, and the
        elements above no other keep last[b] == -1."""
        names, ranks = tuple(names), tuple(int(r) for r in ranks)
        m = len(names)
        if len(ranks) != m:
            raise ValueError("names and ranks must have equal length")
        if len(up) != m:
            raise ValueError("one list of upper covers per element")
        last = [-1] * m
        maxes = []
        for a, groups in enumerate(up):
            r = ranks[a] + 1
            for _, ys in groups:
                for b in ys:
                    if not 0 <= b < m or ranks[b] != r or last[b] == a:
                        _refuse_covers(names, ranks, a, groups)
                    last[b] = a
            if not any(map(_GROUP_COVERS, groups)):
                maxes.append(a)
        self.names, self.ranks, self._up = names, ranks, up
        self.bottom = last.index(-1) if last.count(-1) == 1 else None
        self.top = maxes[0] if len(maxes) == 1 else None
        self._below = None

    def _covers_of(self, a: int) -> list[int]:
        """The upper covers of a, ascending."""
        return sorted(chain.from_iterable(map(_GROUP_COVERS, self._up[a])))

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Every cover (a, b), in sorted order."""
        return tuple((a, b) for a in range(len(self.names))
                     for b in self._covers_of(a))

    def __len__(self) -> int:
        return len(self.names)

    def _below_masks(self) -> list[int]:
        """Each element's strict downward mask: bit y of mask x is set
        exactly when y < x."""
        if self._below is None:
            below = [0] * len(self.names)
            for i in sorted(range(len(below)), key=self.ranks.__getitem__):
                acc = below[i] | 1 << i
                for _, ys in self._up[i]:
                    for j in ys:
                        below[j] |= acc
            self._below = below
        return self._below

    def rank_sizes(self) -> list[int]:
        """Element counts per rank value, indexed from rank 0."""
        if not self.names:
            return []
        out = [0] * (max(self.ranks) + 1)
        for r in self.ranks:
            out[r] += 1
        return out


def _rank_blocks(p: GradedPoset) -> tuple[dict[int, list[int]], list[int]]:
    """p's elements by rank, each rank block ascending, and each element's
    place in its block."""
    blocks: dict[int, list[int]] = {}
    place = []
    for x, r in enumerate(p.ranks):
        place.append(len(blocks.setdefault(r, [])))
        blocks[r].append(x)
    return blocks, place


def segre_product(p: GradedPoset, q: GradedPoset) -> GradedPoset:
    """Induced subposet of the product on pairs of equal rank, with its
    covers labeled by the pairs of the factors' labels.  As both factors
    are graded, its covers are the pairs of covers.  Pair (i, j) is
    numbered start[i] + jpos[j]: start[i] sums the sizes of q's rank blocks
    over the elements before i, jpos[j] is j's place in its rank block.
    Its label groups, its only list of upper covers, are the products of
    the factors' groups: label (a, b) goes with the covers cs x ds of a's
    group cs at i and b's group ds at j.  Each pair label is one shared
    tuple."""
    blocks, jpos = _rank_blocks(q)
    start = list(accumulate((len(blocks.get(r, ())) for r in p.ranks), initial=0))
    p_groups = [[(a, [start[c] for c in cs]) for a, cs in groups]
                for groups in p._up]
    q_groups = [[(b, [jpos[d] for d in ds]) for b, ds in groups]
                for groups in q._up]
    q_values = {b for groups in q_groups for b, _ in groups}
    pairs = {a: {b: (a, b) for b in q_values}
             for a in {a for groups in p_groups for a, _ in groups}}
    names, ranks, labels = [], [], []
    for i, r in enumerate(p.ranks):
        for j in blocks.get(r, ()):
            names.append((p.names[i], q.names[j]))
            ranks.append(r)
            labels.append([(pairs[a][b], [s + t for s in ss for t in ts])
                           for a, ss in p_groups[i] for b, ts in q_groups[j]])
    return GradedPoset(names, ranks, labels)


def _bounds(p: GradedPoset, what: str) -> tuple[int, int]:
    """p's bottom and top, or ValueError naming what needs both."""
    if p.bottom is None or p.top is None:
        raise ValueError(f"{what} requires both a bottom and a top")
    return p.bottom, p.top


def _check_power(power: int) -> None:
    """ValueError for a power other than 1 (the poset) or 2 (its Segre
    square)."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 (the poset) or 2 (its Segre "
                         f"square), got {power}")


def mobius_number(p: GradedPoset, power: int = 1) -> int:
    """mu(bottom, top) of p at power 1, or of its Segre square with itself
    at power 2, read off p's own order: the square is never built.

    By Hall's theorem mu(bottom, top) is the sum of (-1)^k over the chains
    of k steps from the bottom to the top, and a chain with interior levels
    s has |s|+1 steps.  So mu is the sum over level sets s of
    (-1)^(|s|+1) alpha(s)^power, alpha being p's flag f-vector (Stanley,
    EC1 3.13; see _flag_f_vector): a chain of the square is a pair of
    chains of p with one set s (Bjorner and Welker, Segre and Rees products
    of posets, JPAA 2005), so the square's alpha(s) is p's squared."""
    _check_power(power)
    bottom, top = _bounds(p, "Mobius number")
    if bottom == top:
        return 1
    return sum((-1) ** (s.bit_count() + 1) * count ** power
               for s, count in _flag_f_vector(p).items())


def _flag_f_vector(p: GradedPoset) -> dict[int, int]:
    """The flag f-vector of p, which has a bottom and a distinct top: alpha
    maps each set s of levels to the number of chains from the bottom to
    the top whose interior elements sit at s, where it is nonzero.  A level
    is a rank less the bottom's, and s is a mask over levels.

    Taken in rank order, x at level h has one chain from the bottom with s
    empty, and counts the chains with s's highest level j by summing, over
    the y below x at level j, their chains with s minus j: classes[j] keeps
    the elements of level j by their whole tally of counts, one mask per
    distinct tally, so each tally class costs x one popcount (one per level
    on B_n(q), whose levels are orbits).  The top comes last, and its
    counts are alpha."""
    below = p._below_masks()
    low = p.ranks[p.bottom]
    classes: list[dict[tuple, int]] = [{}]
    for x in sorted(range(len(p)), key=p.ranks.__getitem__):
        h = p.ranks[x] - low
        if h == len(classes):
            classes.append({})
        counts = {0: 1}
        for j in range(1, h):
            for tally, mask in classes[j].items():
                found = (below[x] & mask).bit_count()
                if found:
                    for s, count in tally:
                        key = s | 1 << j
                        counts[key] = counts.get(key, 0) + found * count
        tally = tuple(counts.items())
        classes[h][tally] = classes[h].get(tally, 0) | 1 << x
    return counts


def product_order_less(a, b) -> bool:
    """The strict order on labels that the increasing and descending tests
    use: integers in their order, tuples componentwise (only partial)."""
    if isinstance(a, tuple):
        return a != b and all(map(operator.le, a, b))
    return a < b


def _refuse_unlabeled(p: GradedPoset) -> None:
    """ValueError for a poset with a None label: the increasing and
    descending tests need its covers labeled."""
    if any(label is None for groups in p._up for label, _ in groups):
        raise ValueError("poset is unlabeled: its covers carry no labels "
                         "to compare")


def _label_ids(p: GradedPoset):
    """p's label groups with each label replaced by its id, the ids
    numbering the distinct labels in ascending order, and the table
    less[s][t] of product_order_less on ids.  An unlabeled poset is
    refused (see _refuse_unlabeled)."""
    _refuse_unlabeled(p)
    distinct = sorted({label for groups in p._up for label, _ in groups})
    ids = {label: t for t, label in enumerate(distinct)}
    less = [[product_order_less(s, t) for t in distinct] for s in distinct]
    return [[(ids[label], ys) for label, ys in groups]
            for groups in p._up], less


def _push_from(up, lo, less, follows):
    """Chains up from lo, pushed layer by layer along upper covers, so only
    covers above lo are touched.  For y above lo, tallies[y][t] counts the
    increasing chains lo -> y whose last label id is t (follows[t] lists
    the ids s with less[s][t]), and ok[y] tells whether the
    lexicographically first word lo -> y is increasing.  Words to y have
    one length, so the first is the first word to a lower cover x of y plus
    the label of x -> y; it is a number in base len(less) whose digits are
    the label ids."""
    width = len(less)
    tallies: dict[int, list[int]] = {}
    word, ok = {lo: 0}, {lo: True}
    layer = [lo]
    while layer:
        best: dict[int, int] = {}
        via: dict[int, int] = {}
        for x in layer:
            tally = tallies.get(x)
            base = word[x] * width
            for t, ys in up[x]:
                extended = 1 if x == lo else sum([tally[s] for s in follows[t]])
                key = base + t
                for y in ys:
                    known = best.get(y)
                    if known is None:
                        best[y], via[y] = key, x
                        tallies[y] = row = [0] * width
                        row[t] = extended
                        continue
                    if key < known:
                        best[y], via[y] = key, x
                    tallies[y][t] += extended
        for y, key in best.items():
            x = via[y]
            word[y] = key
            ok[y] = ok[x] and (x == lo or less[word[x] % width][key % width])
        layer = list(best)
    return tallies, ok


def check_el_labeling(p: GradedPoset, lows: Optional[list[int]] = None
                      ) -> tuple[bool, Optional[str]]:
    """Every closed interval must have a unique increasing maximal chain that
    lexicographically precedes all others: (True, None), or (False, "<reason>
    in [<lower>, <upper>]") for the first offender by element names, taken
    by lower and then upper element in index order.

    One push from each lo (see _push_from) gives, for each hi above it, the
    increasing chains of [lo, hi] and whether its first word is increasing.
    It passes exactly when they number one and it is: that word is then the
    increasing chain's, and no other chain shares it, since a chain with an
    increasing word is itself increasing.

    With lows, only the pushes from lows run: the caller knows every
    interval to be label-isomorphic to one whose lower element is in lows.
    If one of them fails, the check reruns from every element, so the first
    offender and its text are those of the full check.
    """
    up, less = _label_ids(p)
    follows = [[s for s, row in enumerate(less) if row[t]]
               for t in range(len(less))]
    for lo in range(len(p)) if lows is None else lows:
        increasing, rising = _push_from(up, lo, less, follows)
        for hi in sorted(increasing):
            found = sum(increasing[hi])
            if found != 1:
                reason = f"{found} increasing maximal chains"
            elif not rising[hi]:
                reason = "increasing chain is not lexicographically first"
            else:
                continue
            if lows is not None:
                return check_el_labeling(p)
            return False, f"{reason} in [{p.names[lo]}, {p.names[hi]}]"
    return True, None


def _classified(words: dict) -> tuple[dict, int, int]:
    """A tally of maximal chains by label word, with the numbers of its
    increasing and its descending chains: each distinct word is classified
    once."""
    ascents = {w: [product_order_less(a, b) for a, b in zip(w, w[1:])]
               for w in words}
    return (words,
            sum(c for w, c in words.items() if all(ascents[w])),
            sum(c for w, c in words.items() if not any(ascents[w])))


def _chain_words(p: GradedPoset) -> dict:
    """The maximal chains from bottom to top, counted by label word.

    words[x] maps each label word of the chains from the bottom to x to
    their number.  Taken in rank order, each label group (label, ys) of x
    adds words[x] with label appended to words[y] for every y in ys, so
    each word is extended once per group."""
    bottom, top = p.bottom, p.top
    if bottom is None:
        raise ValueError("poset has no bottom element")
    if top is None:
        raise ValueError("poset has no top element")
    _refuse_unlabeled(p)
    words: list[Optional[dict]] = [None] * len(p)
    words[bottom] = {(): 1}
    for x in sorted(range(len(p)), key=p.ranks.__getitem__):
        for label, ys in p._up[x]:
            extended = [(word + (label,), count)
                        for word, count in words[x].items()]
            for y in ys:
                tally = words[y]
                if tally is None:
                    tally = words[y] = {}
                for key, count in extended:
                    tally[key] = tally.get(key, 0) + count
        if x != top:
            words[x] = None
    return words[top]


def chain_report(p: GradedPoset, power: int = 1) -> tuple[dict, int, int]:
    """Maximal chains from bottom to top as (words, increasing, descending):
    the count of each label word, and of the increasing and descending ones
    (see _chain_words and _classified).

    At power 2 they are those of the Segre square of p with itself, labeled
    by pairs as segre_product labels it, read off p's chain words: the
    square is never built.  A maximal chain of the square is a pair of
    maximal chains of p, which have one length, and its label word is their
    two words zipped (Bjorner and Welker, JPAA 2005).  So the square's tally
    is the product of p's with itself.  The square has a bottom, or a top,
    exactly when p has, so its refusals are p's."""
    _check_power(power)
    words = _chain_words(p)
    if power == 2:
        words = {tuple(zip(u, v)): c * d for u, c in words.items()
                 for v, d in words.items()}
    return _classified(words)


def _upper_lists(p: GradedPoset) -> list[dict[int, list[int]]]:
    """The elements above each element by rank, each list ascending: the
    transpose of p's downward masks."""
    above: list[dict[int, list[int]]] = [{} for _ in range(len(p))]
    for y, mask in enumerate(p._below_masks()):
        r = p.ranks[y]
        for x in _set_bits(mask):
            above[x].setdefault(r, []).append(y)
    return above


def _chains_by_level_set(p: GradedPoset) -> dict[int, list[tuple]]:
    """The chains of the proper part of p, which has a bottom and a distinct
    top, with the empty one, grouped by their level sets: a level is a rank
    less the bottom's, and a chain's set s is a mask over levels.  Each
    group is in lexicographic order.

    The chains of group s all end at its highest level, and those of s with
    a higher level g added are those of s, each extended by every element at
    level g above its last.  So each group is made whole from one other,
    the singletons from the bottom's upper lists, and no chain's set is
    computed from its elements."""
    above = _upper_lists(p)
    low = p.ranks[p.bottom]
    depth = p.ranks[p.top] - low - 1
    groups: dict[int, list[tuple]] = {0: [()]}
    pending = [(1 << (r - low), [(y,) for y in ys])
               for r, ys in above[p.bottom].items() if r - low <= depth]
    while pending:
        s, chains = pending.pop()
        groups[s] = chains
        for g in range(s.bit_length(), depth + 1):
            longer = [c + (y,) for c in chains
                      for y in above[c[-1]].get(low + g, ())]
            if longer:
                pending.append((s | 1 << g, longer))
    return groups


def betti_numbers(p: GradedPoset, power: int = 1) -> list[int]:
    """Reduced Betti numbers over the rationals of the order complex of the
    proper part of p at power 1, or of the proper part of its Segre square
    with itself at power 2, dimensions 0 through the top, read off p: the
    square is never built.  p needs a bottom and a top; if they are one
    element, the list is empty.

    A chain of the square's proper part is a pair of chains of p's proper
    part with one level set s (Bjorner and Welker, Segre and Rees products
    of posets, JPAA 2005), so at either power the faces number the sum over
    nonempty s of alpha(s)^power (see _flag_f_vector), which is held to
    FACE_COUNT_BOUND before any chain is listed.  p's proper part has few
    chains: they are listed once, by level set (_chains_by_level_set).  At
    power 1 the groups must hold alpha(s) chains each, or ArithmeticError
    is raised, and the element matching runs on them; at power 2 the
    element matching runs on pairs of them (morse._segre_matching).  The
    critical chains are a basis of the Morse complex (see
    morse._morse_betti_numbers), whose module is imported only here, after
    every refusal.
    Torsion does not count: the face poset of the six-vertex real
    projective plane has all Betti numbers 0."""
    _check_power(power)
    bottom, top = _bounds(p, "proper part")
    if bottom == top:
        return []
    alpha = _flag_f_vector(p)
    face_count = sum(a ** power for a in alpha.values()) - 1  # less ()
    check_face_count(face_count)
    from .morse import _element_matching, _morse_betti_numbers, _segre_matching
    groups = _chains_by_level_set(p)
    if power == 2:
        return _morse_betti_numbers(
            f"the proper part of the Segre square of a poset of {len(p)} "
            f"elements",
            *_segre_matching(p, groups, face_count))
    listed = {s: len(chains) for s, chains in groups.items()}
    if listed != alpha:
        s = min(s for s in listed.keys() | alpha.keys()
                if listed.get(s) != alpha.get(s))
        raise ArithmeticError(f"listed {listed.get(s, 0)} chains at levels "
                              f"{_set_bits(s)}, but the flag f-vector counts "
                              f"{alpha.get(s, 0)}")
    mate = _element_matching(p, groups.values())
    critical = [[c for s, chains in groups.items() if s.bit_count() == j
                 for c in chains if c not in mate]
                for j in range(1, p.ranks[top] - p.ranks[bottom])]
    sizes = p.rank_sizes()[:-1]  # the proper part's: the top alone is last
    sizes[p.ranks[bottom]] = 0
    return _morse_betti_numbers(
        f"a poset of {len(p) - 2} elements and rank sizes {sizes}",
        [len(level) for level in critical], critical.__getitem__, mate)


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def to_interchange(p: GradedPoset) -> dict:
    """JSON-ready poset document: elements, ranks, covers and labels."""
    doc_labels = {}
    for x, groups in enumerate(p._up):
        for label, ys in groups:
            value = _label_to_json(label)
            for y in ys:
                doc_labels[f"{x}-{y}"] = value
    return {
        "elements": [str(nm) for nm in p.names],
        "ranks": list(p.ranks),
        "covers": [[a, b] for a, b in p.covers],
        "labels": doc_labels,
    }
