import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre.poset import (ChainReport, EdgeLabeling, GradedPoset,
                          boolean_lattice, boolean_lattice_labeled,
                          chain_report, check_el_labeling, from_interchange,
                          mobius_number, order_chain_counts, proper_part,
                          rational_betti_numbers, reduced_euler_characteristic,
                          segre_product, to_interchange)
from qsegre.cli import prime_power
from qsegre.subspace import FiniteField, build_bnq, build_segre_bnq


def two_chain():
    return GradedPoset(["bot", "top"], [0, 1], [(0, 1)])


def antichain(k):
    return GradedPoset([f"a{i}" for i in range(k)], [0] * k, [])


def segre_boolean_labeled(n):
    """Segre square of the labeled boolean lattice, covers labeled by pairs."""
    p, labeling = boolean_lattice_labeled(n)
    s = segre_product(p, p)
    index = {name: i for i, name in enumerate(p.names)}
    pair_labels = {}
    for a, b in s.covers:
        (xa, ya), (xb, yb) = s.names[a], s.names[b]
        pair_labels[(a, b)] = (labeling.labels[(index[xa], index[xb])],
                               labeling.labels[(index[ya], index[yb])])
    return s, EdgeLabeling.with_pair_labels(pair_labels)


def _random_bounded_poset(rng):
    """Random layered poset with a forced bottom and top: every middle
    element gets at least one cover in each direction, so the result is
    bounded and graded by construction."""
    layer_sizes = [rng.randrange(1, 5) for _ in range(rng.randrange(1, 4))]
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
    return GradedPoset(names, ranks, covers)


class TestGradedPoset:
    def test_cover_must_raise_rank_by_one(self):
        with pytest.raises(ValueError):
            GradedPoset(["a", "b"], [0, 2], [(0, 1)])

    def test_bounds_detection(self):
        p = two_chain()
        assert p.bottom_index() == 0 and p.top_index() == 1
        a = antichain(3)
        assert a.bottom_index() is None and a.top_index() is None

    def test_order_queries(self):
        b = boolean_lattice(3)
        empty = b.element_index(())
        full = b.element_index((1, 2, 3))
        single = b.element_index((2,))
        assert b.leq(empty, full) and b.leq(single, full) and not b.leq(full, single)

    def test_rank_sizes(self):
        assert boolean_lattice(3).rank_sizes() == [1, 3, 3, 1]

    def test_maximal_chain_count_of_boolean_lattice(self):
        assert sum(1 for _ in boolean_lattice(4).maximal_chains()) == 24


class TestSegreProduct:
    def test_two_chains(self):
        b1 = boolean_lattice(1)
        s = segre_product(b1, b1)
        assert len(s) == 2 and s.rank_sizes() == [1, 1]

    def test_boolean_square_rank_sizes(self):
        b2 = boolean_lattice(2)
        s = segre_product(b2, b2)
        assert s.rank_sizes() == [1, 4, 1]
        assert proper_part(s).covers == ()

    def test_rank_sizes_square_of_factor(self):
        for n in (2, 3):
            b = boolean_lattice(n)
            s = segre_product(b, b)
            assert s.rank_sizes() == [c * c for c in b.rank_sizes()]

    def test_proper_part_counts_for_boolean_cube(self):
        b3 = boolean_lattice(3)
        pp = proper_part(segre_product(b3, b3))
        assert len(pp) == 18
        assert sorted(set(pp.ranks)) == [1, 2]

    def test_proper_part_requires_bounds(self):
        with pytest.raises(ValueError):
            proper_part(antichain(2))


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
        assert reduced_euler_characteristic(GradedPoset([], [], [])) == -1
        assert reduced_euler_characteristic(antichain(4)) == 3

    def test_hall_theorem_on_small_corpus(self):
        posets = [boolean_lattice(n) for n in range(1, 5)]
        posets += [segre_product(boolean_lattice(n), boolean_lattice(n))
                   for n in (2, 3, 4)]
        for p in posets:
            assert mobius_number(p) == reduced_euler_characteristic(proper_part(p))

    def test_hall_theorem_on_random_bounded_posets(self):
        # the recursive Mobius sweep against the alternating chain count,
        # two fully independent code paths
        import random
        rng = random.Random(424242)
        for _ in range(40):
            p = _random_bounded_poset(rng)
            assert mobius_number(p) == reduced_euler_characteristic(proper_part(p))

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
        assert counts[0] == 4 and counts[-1] == sum(1 for _ in b2.maximal_chains())


class TestELLabeling:
    def test_two_chain_trivially_el(self):
        labeling = EdgeLabeling.with_integer_labels({(0, 1): 1})
        ok, violation = check_el_labeling(two_chain(), labeling)
        assert ok and violation is None

    def test_boolean_lattice_added_element_labeling_is_el(self):
        for n in (2, 3):
            ok, violation = check_el_labeling(*boolean_lattice_labeled(n))
            assert ok, violation

    def test_missing_label_rejected(self):
        with pytest.raises(ValueError):
            check_el_labeling(two_chain(), EdgeLabeling.with_integer_labels({}))

    def test_segre_square_of_boolean_lattice_is_el(self):
        for n in (2, 3):
            ok, violation = check_el_labeling(*segre_boolean_labeled(n))
            assert ok, violation

    def test_adversarial_swap_is_reported(self):
        s, labeling = segre_boolean_labeled(2)
        # relabel one upper edge so the full interval gains a second
        # increasing chain
        culprit = next((a, b) for a, b in s.covers
                       if s.names[a] == ((1,), (2,)) and s.ranks[b] == 2)
        broken = dict(labeling.labels)
        broken[culprit] = (2, 2)
        ok, violation = check_el_labeling(s, EdgeLabeling.with_pair_labels(broken))
        assert not ok
        assert violation.lower == ((), ()) and violation.upper == ((1, 2), (1, 2))


class TestChainReport:
    def test_boolean_lattice_words_are_permutations(self):
        p, labeling = boolean_lattice_labeled(3)
        report = chain_report(p, labeling)
        assert report.total == 6
        assert all(count == 1 for count in report.by_label_word.values())
        assert report.increasing_count == 1
        assert report.descending_count == 1  # only the reversed word

    def test_segre_square_descending_chains_are_the_pair_count(self):
        # at q = 1 the descending count is the no-common-ascent pair count
        p, labeling = boolean_lattice_labeled(2)
        s = segre_product(p, p)
        index = {name: i for i, name in enumerate(p.names)}
        pair_labels = {(a, b): (labeling.labels[(index[s.names[a][0]], index[s.names[b][0]])],
                                labeling.labels[(index[s.names[a][1]], index[s.names[b][1]])])
                       for a, b in s.covers}
        report = chain_report(s, EdgeLabeling.with_pair_labels(pair_labels))
        assert report.total == 4
        assert report.descending_count == 3
        assert report.increasing_count == 1

    def test_counts_sum_to_total(self):
        p, labeling = boolean_lattice_labeled(3)
        report = chain_report(p, labeling)
        assert isinstance(report, ChainReport)
        assert sum(report.by_label_word.values()) == report.total


class TestBetti:
    def test_antichain(self):
        assert rational_betti_numbers(antichain(4)) == [3]

    def test_empty_poset(self):
        assert rational_betti_numbers(GradedPoset([], [], [])) == []

    def test_wedge_of_circles(self):
        # the proper part of the Segre square of the boolean cube is
        # connected with 19 independent loops
        b3 = boolean_lattice(3)
        pp = proper_part(segre_product(b3, b3))
        assert rational_betti_numbers(pp) == [0, 19]

    def test_euler_poincare_on_small_corpus(self):
        builders = (
            lambda: antichain(5),
            lambda: proper_part(segre_product(boolean_lattice(2), boolean_lattice(2))),
            lambda: proper_part(segre_product(boolean_lattice(3), boolean_lattice(3))),
            lambda: proper_part(boolean_lattice(3)),
        )
        for build in builders:
            p = build()
            betti = rational_betti_numbers(p)
            alternating = sum((-1) ** j * b for j, b in enumerate(betti))
            assert alternating == reduced_euler_characteristic(p)


class TestInterchange:
    def test_round_trip(self):
        p, labeling = boolean_lattice_labeled(2)
        doc = to_interchange(p, labeling)
        rebuilt, relabeling = from_interchange(doc)
        assert rebuilt.ranks == p.ranks
        assert rebuilt.covers == p.covers
        assert rebuilt.names == tuple(str(nm) for nm in p.names)
        assert relabeling.labels == labeling.labels

    def test_pair_labels_round_trip(self):
        p = GradedPoset(["x", "y"], [0, 1], [(0, 1)])
        labeling = EdgeLabeling.with_pair_labels({(0, 1): (2, 3)})
        doc = json.loads(json.dumps(to_interchange(p, labeling)))
        rebuilt, relabeling = from_interchange(doc)
        assert relabeling.labels == {(0, 1): (2, 3)}
        assert relabeling.less((1, 1), (2, 3))
        assert not relabeling.less((2, 1), (1, 3))


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
    build = build_segre_bnq if kind == "bnq segre" else build_bnq
    return build(n, FiniteField(*prime_power(q[0])))


class TestInterchangeProperties:
    @given(st.sampled_from(INTERCHANGE_INSTANCES), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_through_json(self, key, with_labels):
        p, labeling = interchange_instance(key)
        doc = to_interchange(p, labeling if with_labels else None)
        rebuilt, relabeling = from_interchange(json.loads(json.dumps(doc)))
        assert rebuilt.ranks == p.ranks
        assert rebuilt.covers == p.covers
        assert rebuilt.names == tuple(str(nm) for nm in p.names)
        assert mobius_number(rebuilt) == mobius_number(p)
        if not with_labels:
            assert relabeling is None
            return
        assert relabeling.labels == labeling.labels
        assert relabeling.less is labeling.less
        assert chain_report(rebuilt, relabeling) == chain_report(p, labeling)
