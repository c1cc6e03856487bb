import functools
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre.morse import (_element_matching, _morse_boundary,
                          _rank_of_sparse_rows, _segre_matching)
from qsegre.poset import (FACE_COUNT_BOUND, GradedPoset, betti_numbers,
                          chain_report, check_el_labeling, mobius_number,
                          product_order_less, segre_product, to_interchange,
                          _chains_by_level_set, _flag_f_vector, _set_bits,
                          _upper_lists)
from qsegre.suite import BETTI_MATRIX, MOBIUS_MATRIX
from qsegre.exactalg import q_factorial
from qsegre.permstats import w_polynomial
from qsegre.subspace import FiniteField, build_bnq, proper_face_count

from oracles import (boolean_lattice, boolean_lattice_labeled,
                     chain_report_by_enumeration, chains_by_dimension,
                     chains_by_subsets, cover_labels, descending_chain_count,
                     el_check_by_intervals, from_interchange,
                     maximal_chains, mobius_by_recursion,
                     mobius_values_by_recursion, order_chain_counts,
                     order_from_covers, pair_poset, poset_from_covers,
                     proper_part, rank_over_rationals, rational_betti_numbers,
                     rational_betti_numbers_by_elimination,
                     reduced_euler_characteristic, relabel,
                     segre_boolean_labeled, segre_bnq,
                     segre_labels_by_names, segre_product_by_pairs)


def two_chain():
    return poset_from_covers(["bot", "top"], [0, 1], [(0, 1)])


def antichain(k):
    return poset_from_covers([f"a{i}" for i in range(k)], [0] * k, [])


def _random_bounded_poset(rng, max_width=4, max_depth=3):
    """Random layered poset with a forced bottom and top: every middle
    element gets at least one cover in each direction, so the result is
    bounded and graded by construction."""
    layer_sizes = [rng.randrange(1, max_width + 1)
                   for _ in range(rng.randrange(1, max_depth + 1))]
    names, ranks = ["bot"], [0]
    layers = [[0]]
    next_id = 1
    for depth, size in enumerate(layer_sizes, start=1):
        layer = []
        for _ in range(size):
            names.append(f"e{next_id}")
            ranks.append(depth)
            layer.append(next_id)
            next_id += 1
        layers.append(layer)
    names.append("top")
    ranks.append(len(layer_sizes) + 1)
    layers.append([next_id])
    covers = []
    for depth in range(1, len(layers)):
        below, here = layers[depth - 1], layers[depth]
        for x in here:
            for y in rng.sample(below, rng.randrange(1, len(below) + 1)):
                covers.append((y, x))
        covered = {a for a, _ in covers if ranks[a] == depth - 1}
        for y in below:
            if y not in covered:
                covers.append((y, rng.choice(here)))
    return poset_from_covers(names, ranks, covers)


def _renumbered(rng, p, shift=0):
    """p built again under a random permutation of its ids, with each
    group's covers reversed and every rank raised by shift."""
    perm = rng.sample(range(len(p)), len(p))
    names, ranks = [None] * len(p), [None] * len(p)
    up = [None] * len(p)
    for x in range(len(p)):
        names[perm[x]], ranks[perm[x]] = p.names[x], p.ranks[x] + shift
        up[perm[x]] = [(label, [perm[y] for y in reversed(ys)])
                       for label, ys in p._up[x]]
    return GradedPoset(names, ranks, up)


def _random_graded_poset(rng):
    """Random graded poset with its elements in shuffled rank order and
    random integer labels on its covers."""
    ranks = [rng.randrange(4) for _ in range(rng.randrange(1, 9))]
    covers = [(a, b) for a in range(len(ranks)) for b in range(len(ranks))
              if ranks[b] == ranks[a] + 1 and rng.random() < 0.6]
    p = poset_from_covers([f"v{i}" for i in range(len(ranks))], ranks, covers)
    return relabel(p, {c: rng.randint(1, 3) for c in p.covers})


class TestGradedPoset:
    def test_cover_must_raise_rank_by_one(self):
        with pytest.raises(ValueError):
            poset_from_covers(["a", "b"], [0, 2], [(0, 1)])

    def test_bounds_detection(self):
        p = two_chain()
        assert p.bottom == 0 and p.top == 1
        a = antichain(3)
        assert a.bottom is None and a.top is None
        # a second minimal element at rank 1 leaves no bottom
        v = GradedPoset(["a", "b", "c"], [0, 1, 1], [[(None, [1])], [], []])
        assert v.bottom is None and v.top is None
        empty = GradedPoset([], [], [])
        assert empty.bottom is None and empty.top is None
        single = GradedPoset(["x"], [0], [[]])
        assert single.bottom == 0 and single.top == 0

    def test_order_queries(self):
        b = boolean_lattice(3)
        _, above = order_from_covers(b)
        empty, full, single = (b.names.index(x) for x in ((), (1, 2, 3), (2,)))
        assert full in above[empty] and full in above[single]
        assert single not in above[full]
        upper = _upper_lists(b)
        for x in range(len(b)):
            by_rank = {}
            for y in sorted(above[x] - {x}):
                by_rank.setdefault(b.ranks[y], []).append(y)
            assert upper[x] == by_rank

    def test_rank_sizes(self):
        assert boolean_lattice(3).rank_sizes() == [1, 3, 3, 1]

    def test_unsorted_and_duplicated_covers_are_normalised(self):
        names, ranks = ["a", "b", "c", "d"], [0, 1, 1, 2]
        expected = ((0, 1), (0, 2), (1, 3), (2, 3))
        for covers in ([(2, 3), (0, 2), (1, 3), (0, 1), (0, 2)],
                       [(0, 1), (0, 2), (0, 2), (1, 3), (2, 3)],
                       [[0, 1], [0, 2], [1, 3], [2, 3]],
                       [(0, 1), (0, 2), (True, 3), (2, 3)]):
            p = poset_from_covers(names, ranks, covers)
            assert p.covers == expected
            assert all(type(x) is int for cover in p.covers for x in cover)
            assert p._up == [[(None, [1, 2])], [(None, [3])], [(None, [3])],
                             []]

    @pytest.mark.parametrize("covers, message", [
        ([(0, 1), (0, 3)], r"^cover \(0,3\) must raise rank by exactly 1$"),
        ([(0, 1), (1, 4)], r"^cover \(1,4\) out of range$"),
        ([(-1, 1), (0, 1)], r"^cover \(-1,1\) out of range$"),
    ])
    def test_bad_covers_raise_sorted_or_not(self, covers, message):
        for given in (sorted(covers), sorted(covers, reverse=True)):
            with pytest.raises(ValueError, match=message):
                poset_from_covers(["a", "b", "c", "d"], [0, 1, 1, 2], given)

    @pytest.mark.parametrize("up, message", [
        ([[(None, [1, 3])], [], [], []],
         r"^cover \(0,3\) must raise rank by exactly 1$"),
        ([[(None, [1])], [(None, [4])], [], []], r"^cover \(1,4\) out of range$"),
        ([[(None, [1, -1])], [], [], []], r"^cover \(0,-1\) out of range$"),
        ([[(None, [1])], [(None, [3])], [(None, [3])]],
         "^one list of upper covers per element$"),
    ])
    def test_bad_upper_cover_lists_raise(self, up, message):
        with pytest.raises(ValueError, match=message):
            GradedPoset(["a", "b", "c", "d"], [0, 1, 1, 2], up)

    # the diamond a < b, c < d, numbered in rank order and shuffled (b, d,
    # a, c); each refusal is made at element a or b, the texts name ids for
    # the range and the rank and names for a repeat
    @pytest.mark.parametrize("shuffled, at, groups, message", [
        (False, "b", [(1, [4])], "cover (1,4) out of range"),
        (True, "b", [(1, [4])], "cover (0,4) out of range"),
        (False, "a", [(1, [1]), (2, [3])],
         "cover (0,3) must raise rank by exactly 1"),
        (True, "a", [(1, [0]), (2, [1])],
         "cover (2,1) must raise rank by exactly 1"),
        (False, "a", [(1, [1, 2]), (2, [2])], "cover (a, c) has more than one label"),
        (True, "a", [(1, [0, 3]), (2, [3])], "cover (a, c) has more than one label"),
        (False, "a", [(1, [2, 1, 2])], "cover (a, c) has more than one label"),
        (True, "a", [(1, [3, 0, 3])], "cover (a, c) has more than one label"),
    ])
    def test_each_refusal_names_its_cover(self, shuffled, at, groups, message):
        names = ["b", "d", "a", "c"] if shuffled else ["a", "b", "c", "d"]
        rank = {"a": 0, "b": 1, "c": 1, "d": 2}
        index = {name: i for i, name in enumerate(names)}
        up = [[] for _ in names]
        for x, y in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
            up[index[x]].append((0, [index[y]]))
        assert GradedPoset(names, [rank[x] for x in names], up).bottom == index["a"]
        up[index[at]] = groups
        with pytest.raises(ValueError) as refused:
            GradedPoset(names, [rank[x] for x in names], up)
        assert str(refused.value) == message

    def test_upper_cover_lists_are_normalised(self):
        # the groups are kept as given, unsorted; the cover pairs come sorted
        up = [[(None, [2, 1])], [(None, [3])], [(None, [3])], []]
        p = GradedPoset(["a", "b", "c", "d"], [0, 1, 1, 2], up)
        assert p.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
        assert p._up is up and up[0] == [(None, [2, 1])]
        assert (p.bottom, p.top) == (0, 3)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_a_renumbering_keeps_the_order(self, rng):
        # a random bounded poset with random labels, built again under a
        # random permutation of its ids with each group's covers reversed
        p = _random_bounded_poset(rng, 5, 4)
        labeled = relabel(p, {c: rng.randint(1, 3) for c in p.covers})
        r = _renumbered(rng, labeled)

        def by_name(q):
            return (sorted((q.names[a], q.names[b]) for a, b in q.covers),
                    q.names[q.bottom], q.names[q.top], mobius_number(q))

        assert by_name(r) == by_name(labeled)
        assert by_name(r) == by_name(p)
        assert list(r.covers) == sorted(r.covers)

    def test_names_and_ranks_must_have_equal_length(self):
        with pytest.raises(ValueError, match="^names and ranks must have "
                                             "equal length$"):
            GradedPoset(["a", "b"], [0], [[(None, [1])], []])

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_below_masks_match_the_order_read_from_the_covers(self, rng):
        for p in (boolean_lattice(3), _random_graded_poset(rng)):
            _, above = order_from_covers(p)
            below = [{x for x in range(len(p)) if y in above[x]} - {y}
                     for y in range(len(p))]
            assert [set(_set_bits(mask)) for mask in p._below_masks()] == below

    @pytest.mark.parametrize("n, q", [(3, 4), (4, 2)])
    def test_a_downward_mask_stays_below_its_rank_block(self, n, q):
        # B_n(q) is numbered in rank order, and a strict mask holds only
        # lower ranks, so it ends before the first element of its rank
        p, _ = build_bnq(n, FiniteField(q))
        first = {}
        for x, r in enumerate(p.ranks):
            first.setdefault(r, x)
        assert all(mask.bit_length() <= first[r]
                   for mask, r in zip(p._below_masks(), p.ranks))

    def test_maximal_chain_count_of_boolean_lattice(self):
        p = boolean_lattice_labeled(4)
        assert sum(1 for _ in maximal_chains(p)) == 24
        words, _, _ = chain_report(p)
        assert sum(words.values()) == 24


class TestSegreProduct:
    def test_two_chains(self):
        s = segre_boolean_labeled(1)
        assert len(s) == 2 and s.rank_sizes() == [1, 1]

    def test_boolean_square_rank_sizes(self):
        s = segre_boolean_labeled(2)
        assert s.rank_sizes() == [1, 4, 1]
        assert proper_part(s).covers == ()

    def test_rank_sizes_square_of_factor(self):
        for n in (2, 3):
            s = segre_boolean_labeled(n)
            assert s.rank_sizes() == [c * c for c in
                                      boolean_lattice(n).rank_sizes()]

    def test_proper_part_counts_for_boolean_cube(self):
        pp = proper_part(segre_boolean_labeled(3))
        assert len(pp) == 18
        assert sorted(set(pp.ranks)) == [1, 2]

    def test_proper_part_requires_bounds(self):
        with pytest.raises(ValueError):
            proper_part(antichain(2))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_one_pass_build_matches_the_pair_dict(self, rng):
        # factors listed in shuffled rank order, so no rank block is
        # contiguous, with random integer labels
        p = _random_graded_poset(rng)
        q = _random_graded_poset(rng)
        square = segre_product(p, q)
        labels = square._up
        oracle = segre_product_by_pairs(p, q)
        assert (square.names, square.ranks, square.covers) == (
            oracle.names, oracle.ranks, oracle.covers)
        assert cover_labels(square) == segre_labels_by_names(oracle, p, q)
        # the groups of each pair have distinct labels and sorted covers,
        # and each distinct pair label is one object
        assert all(len({label for label, _ in g}) == len(g) for g in labels)
        assert all(ys == sorted(ys) for g in labels for _, ys in g)
        values = [label for g in labels for label, _ in g]
        assert len({id(v) for v in values}) == len(set(values))


class TestMobiusAndEuler:
    def test_two_chain(self):
        assert mobius_number(two_chain()) == -1

    def test_boolean_lattices_alternate(self):
        for n in range(1, 5):
            assert mobius_number(boolean_lattice(n)) == (-1) ** n

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            mobius_number(antichain(3))

    def test_euler_characteristic_examples(self):
        assert reduced_euler_characteristic(poset_from_covers([], [], [])) == -1
        assert reduced_euler_characteristic(antichain(4)) == 3

    def test_hall_theorem_on_small_corpus(self):
        posets = [boolean_lattice(n) for n in range(1, 5)]
        posets += [segre_boolean_labeled(n) for n in (2, 3, 4)]
        for p in posets:
            assert mobius_number(p) == reduced_euler_characteristic(proper_part(p))

    def test_hall_theorem_on_random_bounded_posets(self):
        # Hall's sum against the recursion read from the covers and the
        # alternating chain count of the proper part
        import random
        rng = random.Random(424242)
        for _ in range(40):
            p = _random_bounded_poset(rng)
            assert mobius_number(p) == mobius_by_recursion(p) == \
                reduced_euler_characteristic(proper_part(p))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_hall_theorem_on_wide_deep_random_posets(self, rng):
        # renumbered, the ids leave rank order and the bottom sits at rank
        # 2, so Hall's sum must take its levels from the bottom's rank
        p = _random_bounded_poset(rng, max_width=7, max_depth=5)
        r = _renumbered(rng, p, shift=2)
        assert mobius_number(p) == mobius_by_recursion(p) == \
            reduced_euler_characteristic(proper_part(p))
        assert mobius_number(r) == mobius_by_recursion(r) == mobius_number(p)

    def test_hall_theorem_with_many_mobius_values(self):
        # on this instance mu(bottom, x), by the plain recursion, takes 14
        # nonzero values
        import random
        p = _random_bounded_poset(random.Random(151), 7, 5)
        mu = mobius_values_by_recursion(p)
        assert len(set(mu.values()) - {0}) == 14
        assert (mobius_number(p) == mu[p.top]
                == reduced_euler_characteristic(proper_part(p)))

    def test_euler_poincare_on_random_bounded_posets(self):
        import random
        rng = random.Random(99)
        for _ in range(15):
            p = proper_part(_random_bounded_poset(rng))
            betti = rational_betti_numbers(p)
            alternating = sum((-1) ** j * b for j, b in enumerate(betti))
            assert alternating == reduced_euler_characteristic(p)

    def test_chain_counts(self):
        b2 = boolean_lattice(2)
        # chains: 4 singletons... counts come from the full 4-element lattice
        assert order_chain_counts(antichain(3)) == [3]
        counts = order_chain_counts(b2)
        assert counts[0] == 4 and counts[-1] == sum(1 for _ in maximal_chains(b2))


class TestELLabeling:
    def test_two_chain_trivially_el(self):
        ok, violation = check_el_labeling(relabel(two_chain(), {(0, 1): 1}))
        assert ok and violation is None

    def test_boolean_lattice_added_element_labeling_is_el(self):
        for n in (2, 3):
            ok, violation = check_el_labeling(boolean_lattice_labeled(n))
            assert ok, violation

    def test_segre_square_of_boolean_lattice_is_el(self):
        for n in (2, 3):
            ok, violation = check_el_labeling(segre_boolean_labeled(n))
            assert ok, violation

    def test_adversarial_swap_is_reported(self):
        s = segre_boolean_labeled(2)
        # relabel one upper edge so the full interval gains a second
        # increasing chain
        culprit = next((a, b) for a, b in s.covers
                       if s.names[a] == ((1,), (2,)) and s.ranks[b] == 2)
        broken = cover_labels(s)
        broken[culprit] = (2, 2)
        ok, violation = check_el_labeling(relabel(s, broken))
        assert not ok
        assert violation.endswith(" in [((), ()), ((1, 2), (1, 2))]")

    def test_a_failure_from_the_lows_reports_the_full_first_offender(self):
        # [(1,), (1, 2, 3)] gains a second increasing chain, 3 then 4, and
        # so does [(), (1, 2, 3)], which the full check meets first
        p = boolean_lattice_labeled(3)
        broken = cover_labels(p)
        broken[(p.names.index((1, 3)), p.names.index((1, 2, 3)))] = 4
        broken = relabel(p, broken)
        full = (False, "2 increasing maximal chains in [(), (1, 2, 3)]")
        assert check_el_labeling(broken) == full
        assert el_check_by_intervals(broken) == full
        assert check_el_labeling(broken, [p.names.index((1,))]) == full

    def test_only_the_lows_are_pushed_from(self):
        # the caller vouches for the lows: [(1,), (1, 2, 3)] is broken, but
        # no push starts below it
        p = boolean_lattice_labeled(3)
        broken = cover_labels(p)
        broken[(p.names.index((1, 3)), p.names.index((1, 2, 3)))] = 4
        lows = [p.names.index((2,)), p.names.index((1, 2))]
        assert check_el_labeling(relabel(p, broken), lows) == (True, None)


class TestLabelingPartition:
    """A labeling is the poset's label groups, so one that does not
    partition each element's upper covers is refused as the poset is made,
    and no kernel is ever handed one."""

    def test_a_cover_in_two_groups_is_refused(self):
        p = boolean_lattice_labeled(2)
        twice = [list(groups) for groups in p._up]
        twice[0].append((9, [1]))
        with pytest.raises(ValueError, match=r"^cover \(\(\), \(1,\)\) "
                           "has more than one label$"):
            GradedPoset(p.names, p.ranks, twice)

    def test_a_labeling_of_another_size_is_refused(self):
        with pytest.raises(ValueError, match="^one list of upper covers per "
                           "element$"):
            GradedPoset(["bot", "top"], [0, 1], [[(1, [1])]])


class TestChainReport:
    def test_boolean_lattice_words_are_permutations(self):
        p = boolean_lattice_labeled(3)
        words, increasing, descending = chain_report(p)
        assert sum(words.values()) == 6
        assert all(count == 1 for count in words.values())
        assert increasing == 1
        assert descending == 1  # only the reversed word

    def test_segre_square_descending_chains_are_the_pair_count(self):
        # at q = 1 the descending count is the no-common-ascent pair count
        p = boolean_lattice_labeled(2)
        s = segre_product(p, p)
        labels = cover_labels(p)
        index = {name: i for i, name in enumerate(p.names)}
        pair_labels = {(a, b): (labels[(index[s.names[a][0]], index[s.names[b][0]])],
                                labels[(index[s.names[a][1]], index[s.names[b][1]])])
                       for a, b in s.covers}
        words, increasing, descending = chain_report(relabel(s, pair_labels))
        assert sum(words.values()) == 4
        assert descending == 3
        assert increasing == 1

    def test_counts_sum_to_total(self):
        p = boolean_lattice_labeled(3)
        words, _, _ = chain_report(p)
        assert sum(words.values()) == sum(1 for _ in maximal_chains(p))


class TestUnlabeledPosets:
    """The increasing and descending tests compare labels, so a poset whose
    covers carry none is refused before any work, with the cause named."""

    @pytest.mark.parametrize("kernel", [
        chain_report, check_el_labeling,
        pytest.param(functools.partial(chain_report, power=2),
                     id="chain_report_at_power_2")])
    def test_an_unlabeled_poset_is_refused(self, kernel):
        with pytest.raises(ValueError, match="^poset is unlabeled: its covers "
                           "carry no labels to compare$"):
            kernel(boolean_lattice(2))


class TestDescendingCount:
    """The tally-only push from the bottom against chain_report and W_n(q)."""

    def test_no_descending_chain_counts_zero(self):
        # every maximal chain has an ascent, so no tally ever reaches the top
        chain = GradedPoset(["0", "1", "2"], [0, 1, 2],
                            [[(1, [1])], [(2, [2])], []])
        assert descending_chain_count(chain) == 0
        square = GradedPoset(boolean_lattice(2).names, [0, 1, 1, 2],
                             [[(1, [1, 2])], [(2, [3])], [(2, [3])], []])
        assert descending_chain_count(square) == 0
        assert chain_report(square)[2] == 0

    @pytest.mark.parametrize("n, q", [(2, 3), (3, 2), (3, 3)])
    def test_segre_squares_count_the_pair_polynomial(self, n, q):
        factor, _ = build_bnq(n, FiniteField(q))
        sp = segre_product(factor, factor)
        descending = descending_chain_count(sp)
        assert descending == chain_report(sp)[2]
        assert descending == w_polynomial(n).evaluate(q)
        assert chain_report(factor, 2)[2] == descending


class TestUnboundedPosets:
    """chain_report and descending_chain_count need a bottom and a top; the
    EL check looks at every interval and needs neither."""

    def test_chain_report_without_a_bottom(self):
        p = GradedPoset(["a", "b", "c"], [0, 0, 1], [[(1, [2])], [(2, [2])], []])
        for kernel in (chain_report, descending_chain_count):
            with pytest.raises(ValueError, match="^poset has no bottom element$"):
                kernel(p)
        assert check_el_labeling(p) == (True, None)

    def test_chain_report_without_a_top(self):
        p = GradedPoset(["a", "b", "c"], [0, 1, 1], [[(1, [1]), (2, [2])], [], []])
        for kernel in (chain_report, descending_chain_count):
            with pytest.raises(ValueError, match="^poset has no top element$"):
                kernel(p)
        assert check_el_labeling(p) == (True, None)

    def test_chain_report_of_the_empty_poset(self):
        for kernel in (chain_report, descending_chain_count):
            with pytest.raises(ValueError, match="^poset has no bottom element$"):
                kernel(poset_from_covers([], [], []))

    def test_el_violation_below_two_maximal_elements(self):
        # two tops over one bottom; the interval up to "y" has two
        # increasing chains
        p = GradedPoset(["0", "a", "b", "x", "y"], [0, 1, 1, 2, 2],
                        [[(1, [1, 2])], [(2, [3, 4])], [(3, [4])], [], []])
        ok, violation = check_el_labeling(p)
        assert not ok
        assert violation == "2 increasing maximal chains in [0, y]"
        assert (ok, violation) == el_check_by_intervals(p)

    def test_single_element(self):
        report = chain_report(poset_from_covers(["x"], [0], []))
        assert report == ({(): 1}, 1, 1)
        assert descending_chain_count(poset_from_covers(["x"], [0], [])) == 1


def _random_labels(rng, p, pairs):
    """p with random integer labels, or random pair labels."""
    if pairs:
        return relabel(p, {c: (rng.randint(1, 2), rng.randint(1, 2))
                           for c in p.covers})
    return relabel(p, {c: rng.randint(1, 3) for c in p.covers})


EL_INSTANCES = (
    [("boolean", n) for n in (2, 3)] + [("boolean segre", n) for n in (2, 3)]
    + [("bnq", 2, 2), ("bnq", 3, 2), ("bnq segre", 2, 2), ("bnq segre", 2, 3)])


def _outcome(kernel, *args):
    """The kernel's value, or the text of the ValueError it raised."""
    try:
        return kernel(*args)
    except ValueError as exc:
        return str(exc)


class TestKernelsAgainstOracles:
    """The cover DPs against listing every maximal chain, and integer
    elimination against elimination over Fractions."""

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_labelings_of_random_bounded_posets(self, rng, pairs):
        p = _random_labels(rng, _random_bounded_poset(rng), pairs)
        assert check_el_labeling(p) == el_check_by_intervals(p)
        report = chain_report_by_enumeration(p)
        assert chain_report(p) == report
        assert descending_chain_count(p) == report[2]

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random_labelings_without_bounds(self, rng, pairs):
        # proper parts often lack a bottom or a top, or both
        p = _random_labels(rng, proper_part(_random_bounded_poset(rng)), pairs)
        assert check_el_labeling(p) == el_check_by_intervals(p)
        report = _outcome(chain_report_by_enumeration, p)
        assert _outcome(chain_report, p) == report
        assert _outcome(descending_chain_count, p) == (
            report if isinstance(report, str) else report[2])

    @given(st.sampled_from(EL_INSTANCES), st.randoms(use_true_random=False),
           st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_relabeled_el_instances(self, key, rng, changes):
        # a few labels of an EL-labeled lattice or Segre square replaced by
        # other labels of the same labeling: valid at 0 changes, often
        # broken in only one interval otherwise
        p = interchange_instance(key)
        relabeled = cover_labels(p)
        values = sorted(set(relabeled.values()))
        for cover in rng.sample(p.covers, changes):
            relabeled[cover] = rng.choice(values)
        relabeled = relabel(p, relabeled)
        result = check_el_labeling(relabeled)
        assert result == el_check_by_intervals(relabeled)
        if changes == 0:
            assert result == (True, None)
        report = chain_report_by_enumeration(relabeled)
        assert chain_report(relabeled) == report
        assert descending_chain_count(relabeled) == report[2]

    @given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 5),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_integer_rank_matches_rational_rank(self, k, width, extra, rng):
        # k random rows plus integer combinations of them, so the rank is
        # at most k and elimination meets leading entries other than +-1
        base = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(k)]
        combos = [[sum(c * r[i] for c, r in zip(coeffs, base)) for i in range(width)]
                  for coeffs in ([rng.randint(-3, 3) for _ in base]
                                 for _ in range(extra))]
        dense = base + combos
        rng.shuffle(dense)
        rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
        assert _rank_of_sparse_rows(rows) == rank_over_rationals(rows)

    def test_rank_with_non_unit_pivots(self):
        # the third row is 3/2 of the first plus the second, and no leading
        # entry is +-1, so the rank 2 needs a rational combination
        rows = [{0: 2, 1: 4}, {0: 3, 1: 6, 2: 9}, {0: 6, 1: 12, 2: 9}]
        assert _rank_of_sparse_rows(rows) == rank_over_rationals(rows) == 2


def _square_of(p):
    """The oracle route of the Segre kernels: build the square of p, then
    take its Mobius number by the recursion, its chain report, and its
    descending count by the cover push."""
    square = segre_product(p, p)
    return (_outcome(mobius_by_recursion, square),
            _outcome(chain_report, square),
            _outcome(descending_chain_count, square))


def _from_factor(p):
    """The Segre kernels on the factor, as _square_of returns them."""
    report = _outcome(chain_report, p, 2)
    return (_outcome(mobius_number, p, 2), report,
            report if isinstance(report, str) else report[2])


class TestSegreKernelsAgainstTheSquare:
    """mobius_number and chain_report at power 2 on a factor against
    the Mobius recursion, chain_report and the cover push on the square
    that segre_product builds of it."""

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random_labelings_of_random_bounded_posets(self, rng, pairs):
        p = _random_labels(rng, _random_bounded_poset(rng), pairs)
        assert _from_factor(p) == _square_of(p)

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_posets_without_a_bottom_or_a_top(self, rng, pairs):
        # proper parts often lack a bottom or a top, or both; the texts are
        # the square's
        p = _random_labels(rng, proper_part(_random_bounded_poset(rng)), pairs)
        assert _from_factor(p) == _square_of(p)

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_permuted_ids_and_shifted_ranks(self, rng, pairs):
        # the bottom at rank 3 and the ids out of rank order: a kernel that
        # read levels off raw ranks or ids would fail here
        p = _renumbered(rng, _random_labels(
            rng, _random_bounded_poset(rng, 5, 4), pairs), shift=3)
        assert p.ranks[p.bottom] == 3
        assert _from_factor(p) == _square_of(p)

    @pytest.mark.parametrize("ranks, covers, missing", [
        ([0, 1, 1], [(0, 1), (0, 2)], "top"),
        ([0, 0, 1], [(0, 2), (1, 2)], "bottom"),
        ([], [], "bottom"),
    ])
    def test_a_missing_bottom_or_top_is_refused(self, ranks, covers, missing):
        p = poset_from_covers(["a", "b", "c"][:len(ranks)], ranks, covers)
        assert _from_factor(p) == _square_of(p) == (
            "Mobius number requires both a bottom and a top",
            f"poset has no {missing} element", f"poset has no {missing} element")

    def test_a_single_element(self):
        point = GradedPoset(["x"], [0], [[]])
        assert _from_factor(point) == _square_of(point) == (
            1, ({(): 1}, 1, 1), 1)

    @pytest.mark.parametrize("n, q", MOBIUS_MATRIX)
    def test_the_mobius_matrix(self, n, q):
        p, _ = build_bnq(n, FiniteField(q))
        w_q = w_polynomial(n).evaluate(q)
        mu, (words, increasing, descending), pushed = _from_factor(p)
        assert (mu, (words, increasing, descending), pushed) == _square_of(p)
        assert (mu, increasing, descending, pushed) == (
            (-1) ** n * w_q, 1, w_q, w_q)
        assert sum(words.values()) == q_factorial(n).evaluate(q) ** 2

    def test_a_foreign_copy_of_the_labels(self):
        # a copy made from the labels alone is another poset, with the
        # same square
        p, _ = build_bnq(2, FiniteField(3))
        copy = relabel(p, cover_labels(p))
        assert copy._up is not p._up
        from_factor = _from_factor(copy)
        assert from_factor == _square_of(copy)
        mu, (_, _, descending), pushed = from_factor
        assert (mu, descending, pushed) == (15, 15, 15)


class TestPowers:
    """mobius_number, chain_report and betti_numbers on a poset at power 1,
    and on its Segre square at power 2, read off the poset: each equals
    the route on the built poset or square, and any other power is refused
    before any work."""

    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("n, q", [(2, 3), (3, 2)])
    def test_each_power_matches_the_built_poset(self, n, q, power):
        p, _ = build_bnq(n, FiniteField(q))
        built = p if power == 1 else segre_product(p, p)
        assert mobius_number(p, power) == mobius_by_recursion(built)
        assert chain_report(p, power) == chain_report_by_enumeration(built)
        assert betti_numbers(p, power) == \
            rational_betti_numbers_by_elimination(proper_part(built))

    @pytest.mark.parametrize("kernel", [mobius_number, chain_report,
                                        betti_numbers])
    @pytest.mark.parametrize("power", [0, 3, -1])
    def test_another_power_is_refused_before_any_work(
            self, monkeypatch, kernel, power):
        # an antichain has no bottom or top, so a refusal after the first
        # step would have another text; every step fails if reached
        import qsegre.morse as morse_module
        import qsegre.poset as poset_module
        for name in ("_bounds", "_flag_f_vector", "_chain_words",
                     "_chains_by_level_set"):
            monkeypatch.setattr(poset_module, name, fail_if_called)
        for name in ("_element_matching", "_segre_matching"):
            monkeypatch.setattr(morse_module, name, fail_if_called)
        with pytest.raises(ValueError, match=(
                rf"^power must be 1 \(the poset\) or 2 \(its Segre square\), "
                rf"got {power}$")):
            kernel(antichain(3), power)


class TestQuadraticBitsets:
    """Only mobius_number and betti_numbers build the per-element downward
    masks, betti_numbers bounding faces by the flag f-vector at both
    powers; mobius_number at power 2 builds the factor's alone, each
    spanning only the ranks below its element, and the square's stay
    unbuilt."""

    def test_cover_kernels_leave_the_masks_unbuilt(self):
        factor, _ = build_bnq(2, FiniteField(3))
        sp = segre_product(factor, factor)
        assert sp.bottom == 0 and sp.top == len(sp) - 1
        assert check_el_labeling(sp) == (True, None)
        # W_2(3) = 2*3 + 3^2
        assert chain_report(factor, 2)[2] == 15
        assert factor._below is None and sp._below is None
        assert mobius_number(factor, 2) == 15
        assert factor._below is not None and sp._below is None
        assert mobius_number(sp) == 15
        assert sp._below is not None


def rp2_face_poset():
    """Faces of the six-vertex triangulation of the real projective plane
    ordered by inclusion, ranked by dimension."""
    triangles = [(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
                 (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)]
    faces = sorted({face for t in triangles for k in (1, 2, 3)
                    for face in itertools.combinations(t, k)},
                   key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(faces)}
    covers = [(index[f[:t] + f[t + 1:]], index[f]) for f in faces if len(f) > 1
              for t in range(len(f))]
    return poset_from_covers(faces, [len(f) - 1 for f in faces], covers)


def _random_layered_poset(rng):
    """Random graded poset of up to 11 elements in up to four ranks, each
    adjacent-rank pair a cover with probability one half, so its order
    complex often has homology in several dimensions."""
    ranks = sorted(rng.randrange(4) for _ in range(rng.randrange(1, 12)))
    covers = [(a, b) for a in range(len(ranks)) for b in range(len(ranks))
              if ranks[b] == ranks[a] + 1 and rng.random() < 0.5]
    return poset_from_covers([f"v{i}" for i in range(len(ranks))], ranks, covers)


def _random_face_poset(rng):
    """Face poset of a random simplicial complex on four to six vertices,
    generated by up to seven edges and triangles, its elements numbered in
    random order; about a third of these have critical chains in two
    adjacent dimensions with a nonzero Morse boundary between them."""
    vertices = range(rng.randrange(4, 7))
    simplices = (list(itertools.combinations(vertices, 2))
                 + list(itertools.combinations(vertices, 3)))
    faces = sorted({face for top in rng.sample(simplices, rng.randrange(1, 8))
                    for k in range(1, len(top) + 1)
                    for face in itertools.combinations(top, k)})
    rng.shuffle(faces)
    index = {f: i for i, f in enumerate(faces)}
    covers = [(index[f[:t] + f[t + 1:]], index[f]) for f in faces if len(f) > 1
              for t in range(len(f))]
    return poset_from_covers(faces, [len(f) - 1 for f in faces], covers)


class TestBetti:
    def test_real_projective_plane_has_no_rational_homology(self):
        # H_1 is Z/2, so over GF(2) the ranks would be 1 in degrees 1 and 2;
        # over the rationals every reduced Betti number is 0
        p = rp2_face_poset()
        assert p.rank_sizes() == [6, 15, 10]
        edges = [f for f in p.names if len(f) == 2]
        assert all(sum(1 for t in p.names if len(t) == 3 and set(e) <= set(t)) == 2
                   for e in edges)
        assert reduced_euler_characteristic(p) == 0
        assert rational_betti_numbers(p) == [0, 0, 0]
        assert rational_betti_numbers_by_elimination(p) == [0, 0, 0]

    def test_real_projective_plane_has_a_nonempty_morse_boundary(self):
        # two critical chains in each of dimensions 1 and 2; the boundary
        # between them has determinant +-2, the torsion Z/2, so rank 2 over
        # the rationals and the same Betti numbers as elimination
        p = rp2_face_poset()
        chains = chains_by_dimension(p)
        mate = _element_matching(p, chains)
        critical = [[c for c in level if c not in mate] for level in chains]
        assert [len(level) for level in critical] == [0, 2, 2]
        assert all(_morse_boundary(c, mate) == {} for c in critical[1])
        (a, b), (c, d) = ([_morse_boundary(cell, mate).get(f, 0)
                           for f in critical[1]] for cell in critical[2])
        assert abs(a * d - b * c) == 2

    def test_a_poset_whose_betti_numbers_hang_on_the_signs(self, monkeypatch):
        # found by searching random layered posets and shrinking the first
        # hit: one critical chain in each of dimensions 1 and 2, joined by
        # two gradient paths that cancel under the alternating incidence
        # signs; with every sign +1 they add up to -2 and both classes die
        import qsegre.morse as morse_module
        ranks = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3]
        covers = [(0, 3), (1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6),
                  (3, 7), (3, 9), (4, 7), (5, 8), (5, 10), (6, 8), (6, 9),
                  (9, 11), (10, 11)]
        p = poset_from_covers([f"v{i}" for i in range(12)], ranks, covers)
        chains = chains_by_dimension(p)
        mate = _element_matching(p, chains)
        critical = [[c for c in level if c not in mate] for level in chains]
        assert critical == [[], [(1, 9)], [(2, 6, 9)], []]
        assert _morse_boundary((2, 6, 9), mate) == {}
        assert rational_betti_numbers(p) == \
            rational_betti_numbers_by_elimination(p) == [0, 1, 1, 0]
        monkeypatch.setattr(morse_module, "_faces", lambda chain: [
            (chain[:t] + chain[t + 1:], 1) for t in range(len(chain))])
        assert _morse_boundary((2, 6, 9), mate) == {(1, 9): -2}
        assert rational_betti_numbers(p) == [0, 0, 0, 0]

    def test_matching_pairs_chains_that_differ_by_one_element(self):
        p = proper_part(segre_boolean_labeled(3))
        chains = chains_by_dimension(p)
        mate = _element_matching(p, chains)
        assert mate[()] == (0,)  # the empty chain goes with the first element
        for c, partner in mate.items():
            assert mate[partner] == c
            small, big = sorted((c, partner), key=len)
            assert len(big) == len(small) + 1 and set(small) < set(big)
        critical = [sum(1 for c in level if c not in mate) for level in chains]
        assert critical == [0, 19]

    def test_antichain(self):
        assert rational_betti_numbers(antichain(4)) == [3]
        for k in range(1, 6):
            assert rational_betti_numbers(antichain(k)) == \
                rational_betti_numbers_by_elimination(antichain(k)) == [k - 1]

    def test_empty_poset(self):
        empty = poset_from_covers([], [], [])
        assert rational_betti_numbers(empty) == []
        assert rational_betti_numbers_by_elimination(empty) == []

    def test_wedge_of_circles(self):
        # the proper part of the Segre square of the boolean cube is
        # connected with 19 independent loops
        pp = proper_part(segre_boolean_labeled(3))
        assert rational_betti_numbers(pp) == [0, 19]

    def test_pair_posets_match_elimination(self):
        for n in (1, 2, 3):
            p = pair_poset(n)
            assert rational_betti_numbers(p) == \
                rational_betti_numbers_by_elimination(p)

    def test_betti_matrix_squares_match_elimination(self):
        for n, q in sorted(set(BETTI_MATRIX) | {(3, 3)}):
            p = proper_part(segre_bnq(n, FiniteField(q)))
            assert rational_betti_numbers(p) == \
                rational_betti_numbers_by_elimination(p), (n, q)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_random_graded_posets_match_elimination(self, rng):
        p = _random_layered_poset(rng)
        assert rational_betti_numbers(p) == \
            rational_betti_numbers_by_elimination(p)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_random_face_posets_match_elimination(self, rng):
        p = _random_face_poset(rng)
        assert rational_betti_numbers(p) == \
            rational_betti_numbers_by_elimination(p)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_random_proper_parts_match_elimination(self, rng):
        p = proper_part(_random_bounded_poset(rng, max_width=5, max_depth=4))
        assert rational_betti_numbers(p) == \
            rational_betti_numbers_by_elimination(p)

    def test_euler_poincare_on_small_corpus(self):
        builders = (
            lambda: antichain(5),
            lambda: proper_part(segre_boolean_labeled(2)),
            lambda: proper_part(segre_boolean_labeled(3)),
            lambda: proper_part(boolean_lattice(3)),
        )
        for build in builders:
            p = build()
            betti = rational_betti_numbers(p)
            alternating = sum((-1) ** j * b for j, b in enumerate(betti))
            assert alternating == reduced_euler_characteristic(p)


def _built_square(p):
    """The oracle route of betti_numbers at power 2: the critical counts of
    _element_matching and the Betti numbers on the proper part of the
    square that segre_product builds of p."""
    square = proper_part(segre_product(p, p))
    chains = chains_by_dimension(square)
    mate = _element_matching(square, chains)
    return ([sum(c not in mate for c in level) for level in chains],
            rational_betti_numbers(square))


def _pair_matching(p):
    """_segre_matching on p's chains by level set, with the square's face
    count by p's flag f-vector, as betti_numbers calls it at power 2."""
    faces = sum(a * a for a in _flag_f_vector(p).values()) - 1
    return _segre_matching(p, _chains_by_level_set(p), faces)


def _factor_route(p):
    """_segre_matching's critical counts and betti_numbers at power 2 on
    p."""
    return _pair_matching(p)[0], betti_numbers(p, 2)


def _all_signs_plus(chain):
    return [(chain[:t] + chain[t + 1:], 1) for t in range(len(chain))]


class TestSegreBetti:
    """betti_numbers at power 2 on a factor against rational_betti_numbers on
    the proper part of the square that segre_product builds of it, and the
    pair matching's critical counts against _element_matching's there."""

    @pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
    def test_the_squares_of_bnq(self, n, q):
        p, _ = build_bnq(n, FiniteField(q))
        counts, betti = _factor_route(p)
        assert (counts, betti) == _built_square(p)
        assert betti == [0] * (n - 2) + [w_polynomial(n).evaluate(q)]

    @given(st.randoms(use_true_random=False), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_bounded_posets(self, rng, renumber):
        # renumbered, the ids leave (rank, id) order and the bottom sits at
        # rank 2, so a kernel that took the element order or the levels of
        # the poset or its square from raw ids or ranks would differ here;
        # each example checks both powers
        p = _random_bounded_poset(rng, max_width=4, max_depth=3)
        if renumber:
            p = _renumbered(rng, p, shift=2)
        assert betti_numbers(p, 1) == \
            rational_betti_numbers_by_elimination(proper_part(p))
        assert _factor_route(p) == _built_square(p)

    def test_a_square_whose_betti_numbers_hang_on_the_signs(self, monkeypatch):
        # found by giving the poset of TestBetti's sign test a bottom, a
        # top and one new element over each of its maximal elements below
        # the top rank, then dropping covers while the square's Betti
        # numbers still changed with every incidence sign +1.  Its proper
        # part is acyclic, its square's is not, and the square's Morse
        # complex has nonzero boundaries from dimension 2 to dimension 1
        import qsegre.morse as morse_module
        ranks = [0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5]
        covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (2, 7), (3, 4),
                  (3, 6), (3, 7), (4, 10), (5, 8), (6, 11), (7, 9), (7, 10),
                  (10, 12), (11, 12), (8, 13), (9, 14), (12, 15), (13, 15),
                  (14, 15)]
        p = poset_from_covers([f"v{i}" for i in range(16)], ranks, covers)
        assert rational_betti_numbers(proper_part(p)) == [0, 0, 0, 0]
        counts, critical, mate, faces, dimension = _pair_matching(p)
        assert counts == [0, 6, 6, 0]
        assert sum(bool(_morse_boundary(c, mate, faces, dimension))
                   for c in critical(2)) == 4
        square = proper_part(segre_product(p, p))
        assert betti_numbers(p, 2) == \
            rational_betti_numbers_by_elimination(square) == [0, 4, 4, 0]
        monkeypatch.setattr(morse_module, "_faces", _all_signs_plus)
        assert betti_numbers(p, 2) == [0, 2, 2, 0]

    @pytest.mark.parametrize("ranks, covers, betti", [
        # the bottom is the top, so the square's proper part is empty
        ([0], [], []),
        ([0, 1], [(0, 1)], []),  # a proper part without elements
        # the square's proper part is four points
        ([0, 1, 1, 2], [(0, 1), (0, 2), (1, 3), (2, 3)], [3]),
    ])
    def test_small_squares(self, ranks, covers, betti):
        p = poset_from_covers([f"v{i}" for i in range(len(ranks))], ranks,
                              covers)
        assert betti_numbers(p, 2) == \
            rational_betti_numbers(proper_part(segre_product(p, p))) == betti

    @pytest.mark.parametrize("ranks, covers", [
        ([0, 1, 1], [(0, 1), (0, 2)]),
        ([0, 0, 1], [(0, 2), (1, 2)]),
        ([], []),
    ])
    def test_a_missing_bottom_or_top_is_refused_as_proper_part_refuses(
            self, ranks, covers):
        p = poset_from_covers(["a", "b", "c"][:len(ranks)], ranks, covers)
        with pytest.raises(ValueError) as built:
            proper_part(segre_product(p, p))
        with pytest.raises(ValueError) as from_factor:
            betti_numbers(p, 2)
        assert str(from_factor.value) == str(built.value) == (
            "proper part requires both a bottom and a top")

    def test_over_the_bound_no_chain_is_listed(self, monkeypatch):
        import qsegre.poset as poset_module
        p, _ = build_bnq(3, FiniteField(2))
        faces = proper_face_count(3, 2, 2)
        monkeypatch.setattr(poset_module, "_upper_lists", fail_if_called)
        monkeypatch.setattr(poset_module, "FACE_COUNT_BOUND", faces - 1)
        with pytest.raises(ValueError, match=f"^{faces} faces of the order "
                                             f"complex exceed the bound {faces - 1}$"):
            betti_numbers(p, 2)
        monkeypatch.undo()
        monkeypatch.setattr(poset_module, "FACE_COUNT_BOUND", faces)
        assert betti_numbers(p, 2) == [0, 344]

    def test_a_miscounted_face_is_refused(self, monkeypatch):
        # the matching first visits each face at its least element; a flag
        # f-vector one chain over makes those visits fall short of it
        import qsegre.poset as poset_module
        p, _ = build_bnq(3, FiniteField(2))
        counted = poset_module._flag_f_vector

        def one_over(q):
            alpha = counted(q)
            alpha[max(alpha)] += 1
            return alpha
        monkeypatch.setattr(poset_module, "_flag_f_vector", one_over)
        with pytest.raises(ArithmeticError, match=(
                "^the matching visited 539 faces of the Segre square, but "
                "its factor's flag f-vector counts 582$")):
            betti_numbers(p, 2)

    def test_a_miscounted_face_is_refused_at_power_one(self, monkeypatch):
        # the plain route lists its chains by level set; a flag f-vector one
        # chain over at the full set {1, 2} differs from that listing
        import qsegre.poset as poset_module
        p, _ = build_bnq(3, FiniteField(2))
        counted = poset_module._flag_f_vector

        def one_over(q):
            alpha = counted(q)
            alpha[max(alpha)] += 1
            return alpha
        monkeypatch.setattr(poset_module, "_flag_f_vector", one_over)
        with pytest.raises(ArithmeticError, match=(
                r"^listed 21 chains at levels \[1, 2\], but the flag "
                r"f-vector counts 22$")):
            betti_numbers(p, 1)

    def test_a_negative_betti_number_names_the_proper_part(self, monkeypatch):
        # no matching and a rank one too large make both numbers negative;
        # the text describes the proper part, 14 elements at ranks 1 and 2
        import qsegre.morse as morse_module
        p, _ = build_bnq(3, FiniteField(2))
        monkeypatch.setattr(morse_module, "_element_matching",
                            lambda p, chains: {})
        monkeypatch.setattr(morse_module, "_rank_of_sparse_rows",
                            lambda rows: len(rows) + 1)
        with pytest.raises(ArithmeticError, match=(
                r"^negative Betti numbers \[-8, -1\] on a poset of 14 "
                r"elements and rank sizes \[0, 7, 7\]$")):
            betti_numbers(p, 1)


class TestFaceBound:
    def test_face_formula_matches_the_chain_counts(self):
        for n, q in ((0, 2), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4),
                     (4, 2)):
            field = FiniteField(q)
            for power, build in ((1, lambda n, field: build_bnq(n, field)[0]),
                                 (2, segre_bnq)):
                p = proper_part(build(n, field))
                assert sum(order_chain_counts(p)) == \
                    proper_face_count(n, q, power), (n, q, power)
        for n in (4, 5):
            p = proper_part(build_bnq(n, FiniteField(2))[0])
            assert sum(order_chain_counts(p)) == proper_face_count(n, 2), n

    def test_bound_admits_the_desk_squares_and_refuses_the_next(self):
        for n, q in ((4, 2), (3, 7), (3, 8)):
            assert proper_face_count(n, q, 2) <= FACE_COUNT_BOUND, (n, q)
        assert proper_face_count(3, 8, 2) == 442307
        assert proper_face_count(4, 3, 2) == 5157700 > FACE_COUNT_BOUND
        assert proper_face_count(3, 9, 2) > FACE_COUNT_BOUND
        assert proper_face_count(6, 2) == 2257887 > FACE_COUNT_BOUND

    def test_over_the_bound_no_chain_is_listed(self, monkeypatch):
        # at power 1 the face count is the flag f-vector's sum, here that of
        # the Segre square of the boolean cube built as a poset
        import qsegre.poset as poset_module
        p = segre_boolean_labeled(3)
        faces = sum(order_chain_counts(proper_part(p)))
        monkeypatch.setattr(poset_module, "_chains_by_level_set",
                            fail_if_called)
        monkeypatch.setattr(poset_module, "FACE_COUNT_BOUND", faces - 1)
        with pytest.raises(ValueError, match=f"^{faces} faces of the order "
                                             f"complex exceed the bound {faces - 1}$"):
            betti_numbers(p)
        monkeypatch.undo()
        monkeypatch.setattr(poset_module, "FACE_COUNT_BOUND", faces)
        assert betti_numbers(p) == [0, 19]

    def test_the_deep_square_has_homology_on_top_only(self):
        # (4,2): 1675 proper elements, 133975 faces; 10.6 s by elimination
        p = proper_part(segre_bnq(4, FiniteField(2)))
        assert sum(order_chain_counts(p)) == 133975
        assert rational_betti_numbers(p) == [0, 0, 67824]


def fail_if_called(*args, **kwargs):
    raise AssertionError("chains listed before the face bound was checked")


class TestChainListing:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_counts_and_listing_match_pairwise_comparable_sets(self, rng):
        p = _random_layered_poset(rng)
        chains = chains_by_subsets(p)
        assert chains_by_dimension(p) == chains
        assert order_chain_counts(p) == [len(level) for level in chains]

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_the_level_set_listing_matches_pairwise_comparable_sets(self, rng):
        # renumbered, with the bottom at rank 2: each group must hold the
        # chains of the proper part at its levels, in lexicographic order
        p = _renumbered(rng, _random_bounded_poset(rng, 5, 4), shift=2)
        expected = {0: [()]}
        for level in chains_by_subsets(p):
            for c in level:
                if p.bottom not in c and p.top not in c:
                    s = sum(1 << (p.ranks[x] - 2) for x in c)
                    expected.setdefault(s, []).append(c)
        assert _chains_by_level_set(p) == {
            s: sorted(chains) for s, chains in expected.items()}


class TestInterchange:
    def test_round_trip(self):
        p = boolean_lattice_labeled(2)
        rebuilt = from_interchange(to_interchange(p))
        assert rebuilt.ranks == p.ranks
        assert rebuilt.covers == p.covers
        assert rebuilt.names == tuple(str(nm) for nm in p.names)
        assert cover_labels(rebuilt) == cover_labels(p)

    def test_pair_labels_round_trip(self):
        p = GradedPoset(["x", "y"], [0, 1], [[((2, 3), [1])], []])
        rebuilt = from_interchange(json.loads(json.dumps(to_interchange(p))))
        assert rebuilt._up == [[((2, 3), [1])], []]
        # read back as a pair, the label is ordered componentwise
        assert product_order_less((1, 1), rebuilt._up[0][0][0])
        assert not product_order_less((3, 1), rebuilt._up[0][0][0])


INTERCHANGE_INSTANCES = (
    [("boolean", n) for n in (1, 2, 3)]
    + [("boolean segre", n) for n in (1, 2, 3)]
    + [("bnq", n, q) for n, q in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 2))]
    + [("bnq segre", n, q) for n, q in ((1, 3), (2, 2), (2, 3))])


@functools.lru_cache(maxsize=None)
def interchange_instance(key):
    kind, n, *q = key
    if kind == "boolean":
        return boolean_lattice_labeled(n)
    if kind == "boolean segre":
        return segre_boolean_labeled(n)
    if kind == "bnq segre":
        return segre_bnq(n, FiniteField(q[0]))
    return build_bnq(n, FiniteField(q[0]))[0]


class TestInterchangeProperties:
    @given(st.sampled_from(INTERCHANGE_INSTANCES))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_json(self, key):
        p = interchange_instance(key)
        doc = to_interchange(p)
        rebuilt = from_interchange(json.loads(json.dumps(doc)))
        assert rebuilt.ranks == p.ranks
        assert rebuilt.covers == p.covers
        assert rebuilt.names == tuple(str(nm) for nm in p.names)
        assert mobius_number(rebuilt) == mobius_number(p)
        assert cover_labels(rebuilt) == cover_labels(p)
        assert chain_report(rebuilt) == chain_report(p)
