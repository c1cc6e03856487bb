"""Discrete Morse theory on order complexes: the acyclic element matchings
that poset.betti_numbers runs, and the Morse complex whose boundary ranks
give the reduced Betti numbers over the rationals.

A chain is a tuple of element ids in rank order.  _element_matching pairs
the given chains of a poset that differ by one element, element by
element; _segre_matching does the same on the proper part of a Segre
square, on pairs of its factor's chains numbered by integer keys, so the
square is never built.  The unmatched chains span a Morse complex with the
reduced homology of the order complex (Forman, Morse theory for cell
complexes, Adv. Math. 1998).  Its boundary follows gradient paths
(_morse_boundary), and is ranked by fraction-free integer elimination
(_rank_of_sparse_rows) only between two dimensions that both hold critical
chains, so nothing is eliminated when the critical chains fill one
dimension.

betti_numbers imports this module only after its refusals: a process
without a bytecode cache compiles every module it imports, so a verb that
computes no Betti numbers, or refuses to, never compiles it.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from math import gcd

from .poset import GradedPoset


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


def _element_matching(p: GradedPoset, chains) -> dict:
    """The iterated element matching on chains of p, given in groups and
    closed under removing elements (the empty chain need not be given), as
    a map sending each matched chain to its partner, the empty chain
    included.

    The elements are taken in (rank, index) order; element x pairs every
    chain s without x, both still unmatched, with s + x when that is a
    given chain, so an element in none of them pairs nothing.  One pass
    over the chains that contain x finds those pairs, and
    within one pass they are disjoint.  A sequence of element matchings is
    acyclic (Jonsson, Simplicial Complexes of Graphs, LNM 1928), so the
    unmatched chains span a Morse complex with the reduced homology of the
    order complex (Forman 1998).
    """
    containing: list[list[tuple[int, ...]]] = [[] for _ in range(len(p))]
    for level in chains:
        for c in level:
            for v in c:
                containing[v].append(c)
    mate: dict = {}
    for x in sorted(range(len(p)), key=lambda e: (p.ranks[e], e)):
        for upper in containing[x]:
            if upper in mate:
                continue
            t = upper.index(x)
            lower = upper[:t] + upper[t + 1:]
            if lower not in mate:
                mate[upper], mate[lower] = lower, upper
    return mate


def _faces(chain: tuple) -> list[tuple[tuple, int]]:
    """The codimension-one faces of a chain with their incidence signs."""
    return [(chain[:t] + chain[t + 1:], -1 if t % 2 else 1)
            for t in range(len(chain))]


def _morse_boundary(cell, mate: dict, faces=None, dimension=len) -> dict:
    """The boundary of a critical chain in the Morse complex of mate: the
    critical faces reached by gradient paths, with their summed weights.
    faces lists a chain's codimension-one faces with their incidence signs
    (_faces, on tuples, if None), and dimension ranks a chain above its
    faces (len on tuples).

    A face matched upward, to s, is traded for minus its incidence in s
    times the other faces of s; a face matched downward ends its paths.
    The matching is acyclic, so the trading ends with critical faces only.
    """
    faces = faces or _faces
    row: dict = {}
    pending = dict(faces(cell))
    while pending:
        face, a = pending.popitem()
        partner = mate.get(face)
        if partner is None:
            row[face] = row.get(face, 0) + a
        elif dimension(partner) > dimension(face):
            cofaces = faces(partner)
            step = -a * next(s for f, s in cofaces if f == face)
            for f, s in cofaces:
                if f != face:
                    v = pending.get(f, 0) + step * s
                    if v:
                        pending[f] = v
                    else:
                        del pending[f]
    return {f: v for f, v in row.items() if v}


def _morse_betti_numbers(what: str, counts: list[int], listed, mate: dict,
                         faces=None, dimension=len) -> list[int]:
    """Reduced Betti numbers of the Morse complex of mate on the order
    complex of what, with counts[j] critical chains in dimension j, listed
    by listed(j): its boundary rows come from _morse_boundary, taken only
    between two dimensions that both hold critical chains, and are ranked
    over the rationals by fraction-free integer elimination.  A negative
    number raises ArithmeticError."""
    ranks = [0] * (len(counts) + 1)
    for j in range(1, len(counts)):
        if counts[j] and counts[j - 1]:
            column = {c: k for k, c in enumerate(listed(j - 1))}
            ranks[j] = _rank_of_sparse_rows(
                [{column[f]: v for f, v in
                  _morse_boundary(c, mate, faces, dimension).items()}
                 for c in listed(j)])
    betti = [counts[j] - ranks[j] - ranks[j + 1] for j in range(len(counts))]
    if any(b < 0 for b in betti):
        raise ArithmeticError(f"negative Betti numbers {betti} on {what}")
    return betti

def _segre_matching(p: GradedPoset, groups: dict[int, list[tuple]],
                    face_count: int):
    """_element_matching on the proper part of the Segre square of p, which
    has a bottom and a distinct top, run on pairs of the chains of p's
    proper part, given by level set as _chains_by_level_set lists them, as
    the arguments _morse_betti_numbers takes after its first: the critical
    counts, their lister, the matching, and the faces and dimension of a
    key.  face_count is the square's face count by p's flag f-vector.

    The groups are taken by their number of levels, then by s.  The pair
    of the k-th and l-th chains of group s is the key base[s] + k * alpha(s)
    + l, base[s] summing the squares of the groups before s, so the keys
    number the faces by dimension.

    The square's elements (x, y) are taken in its own (rank, x, y) order.
    The chains through (x, y) are the pairs of a chain through x and one
    through y in one group, each matched with the pair without (x, y) when
    both are unmatched; they are disjoint, as in _element_matching.  Each
    element keeps, by group, its chains' places and those of the chains
    without it.  The critical count in each dimension is its face count
    less the keys matched there, and critical keys are listed only on
    demand.  Faces are first visited at their least element, so the visits
    there must number face_count, or ArithmeticError is raised."""
    bottom, top = p.bottom, p.top
    level = [r - p.ranks[bottom] for r in p.ranks]
    inner = sorted((x for x in range(len(p)) if x not in (bottom, top)),
                   key=lambda x: (level[x], x))
    order = sorted(groups, key=lambda s: (s.bit_count(), s))
    starts = list(accumulate((len(groups[s]) ** 2 for s in order), initial=0))
    base = dict(zip(order, starts))
    place = {c: (base[s], k, len(groups[s]))
             for s in order for k, c in enumerate(groups[s])}
    # outer[x][s]: for each chain c through x in group s, the parts of the
    # keys of (c, d) and of (c, d) without (x, y) that c fixes; pieces[y][s]:
    # for each such d through y, the parts that d adds
    outer: dict[int, dict[int, list]] = {x: {} for x in inner}
    pieces: dict[int, dict[int, list]] = {x: {} for x in inner}
    for s in order:
        for c in groups[s]:
            start, k, width = place[c]
            for t, x in enumerate(c):
                lower_start, at, lower_width = place[c[:t] + c[t + 1:]]
                outer[x].setdefault(s, []).append(
                    (start + k * width, lower_start + at * lower_width))
                pieces[x].setdefault(s, []).append((k, at))
    depth = level[top] - 1
    made = [0] * (depth + 2)  # made[m]: matches whose upper key has m elements
    visited = 0
    mate: dict[int, int] = {}
    for h in range(1, depth + 1):
        rank = [x for x in inner if level[x] == h]
        for x in rank:
            for y in rank:
                found = pieces[y]
                for s, uppers in outer[x].items():
                    ds = found[s]
                    if s & -s == 1 << h:
                        visited += len(uppers) * len(ds)
                    before = len(mate)
                    for u0, l0 in uppers:
                        for d, ld in ds:
                            u = u0 + d
                            if u in mate:
                                continue
                            lo = l0 + ld
                            if lo not in mate:
                                mate[u], mate[lo] = lo, u
                    made[s.bit_count()] += (len(mate) - before) // 2
    if visited != face_count:
        raise ArithmeticError(f"the matching visited {visited} faces of the "
                              f"Segre square, but its factor's flag f-vector "
                              f"counts {face_count}")
    counts = [sum(len(groups[s]) ** 2 for s in order if s.bit_count() == j + 1)
              - made[j + 1] - made[j + 2] for j in range(depth)]

    def group(key: int) -> int:
        return order[bisect(starts, key) - 1]

    def pair(c: tuple, d: tuple) -> int:
        start, k, width = place[c]
        return start + k * width + place[d][1]

    def pair_faces(key: int) -> list[tuple[int, int]]:
        s = group(key)
        k, l = divmod(key - base[s], len(groups[s]))
        return [(pair(c, d), sign) for (c, sign), (d, _) in
                zip(_faces(groups[s][k]), _faces(groups[s][l]))]

    def critical(j: int) -> list[int]:
        return [key for s in order if s.bit_count() == j + 1
                for key in range(base[s], base[s] + len(groups[s]) ** 2)
                if key not in mate]

    return (counts, critical, mate, pair_faces,
            lambda key: group(key).bit_count())
