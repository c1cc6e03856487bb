import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import subspace
from qsegre.exactalg import q_factorial
from qsegre.permstats import q_binomial, w_polynomial
from qsegre.poset import (betti_numbers, chain_report, check_el_labeling,
                          mobius_number)
from qsegre.subspace import FiniteField, build_bnq

import oracles
from oracles import (Permutation, borel_representatives, build_bnq_by_tuples,
                     contains, cover_labels, covers_by_containment,
                     enumerate_subspaces, first_irreducible_modulus,
                     inversions, label_set, label_set_by_atoms, proper_part,
                     reduced_euler_characteristic, relabel, rref_rows,
                     segre_bnq, span)

import itertools

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(4)
F5 = FiniteField(5)
F8 = FiniteField(8)
F9 = FiniteField(9)
F16 = FiniteField(16)

# every lattice whose covers are checked against the containment scan
ORACLE_LATTICES = ([(n, F2) for n in range(5)]
                   + [(n, field) for field in (F3, F4, F5) for n in range(4)]
                   + [(2, field) for field in (F8, F9, F16)])


class TestFiniteField:
    def test_prime_field_arithmetic(self):
        assert F3._mul[2][2] == 1
        assert F3._add[2][2] == 1
        assert F2._add[1][1] == 0

    def test_f4_uses_the_unique_quadratic_modulus(self):
        assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
        x = 2  # the residue class of x
        assert F4._mul[x][x] == 3  # x^2 = x + 1

    def test_moduli_are_the_first_irreducible_polynomials(self):
        # the unit-group check against trial division, at every order
        for q in range(2, 17):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            k = round(math.log(q, p))
            if p ** k == q:
                assert FiniteField(q).modulus == first_irreducible_modulus(p, k)

    def test_inverses(self):
        for field in (F2, F3, F4, F5, F8, F9, F16):
            for a in range(1, field.order):
                assert field._mul[a][field._inv[a]] == 1

    def test_rejects_bad_parameters(self):
        for q, message in ((1, "1 is not a prime power"),
                           (6, "6 is not a prime power"),
                           (32, "field order 32 exceeds the bound 16")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                FiniteField(q)

    def test_extension_fields_at_the_size_bound(self):
        f9 = FiniteField(9)
        f16 = FiniteField(16)
        assert (f9.p, f9.k, f9.order) == (3, 2, 9)
        assert (f16.p, f16.k, f16.order) == (2, 4, 16)
        for field in (f9, f16):
            for a in range(1, field.order):
                acc = 1
                for _ in range(field.order - 1):
                    acc = field._mul[acc][a]
                assert acc == 1


class TestSubspace:
    def test_rref_canonicalizes(self):
        rows = rref_rows(F2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        assert rows == ((1, 0, 1), (0, 1, 1))

    def test_same_span_same_subspace(self):
        a = span(F3, 2, [(1, 2)])
        b = span(F3, 2, [(2, 1)])  # scalar multiple
        assert a == b

    def test_validation_rejects_non_rref(self):
        # the canonical-form check build_bnq makes of every join
        rows = ((1, 1), (0, 1))  # pivot column not elementary
        assert rref_rows(F2, 2, rows) != rows
        for s in enumerate_subspaces(3, F3):
            assert rref_rows(F3, 3, s.rows) == s.rows

    def test_containment(self):
        plane = span(F2, 3, [(1, 0, 0), (0, 1, 0)])
        line = span(F2, 3, [(1, 1, 0)])
        other = span(F2, 3, [(0, 0, 1)])
        assert contains(plane, line)
        assert not contains(plane, other)

    def test_span_contains_its_generators(self):
        import random
        rng = random.Random(31337)
        for field in (F2, F3, F4):
            for _ in range(20):
                n = rng.randrange(1, 5)
                vectors = [tuple(rng.randrange(field.order) for _ in range(n))
                           for _ in range(rng.randrange(1, 4))]
                whole = span(field, n, vectors)
                assert whole.dim <= len(vectors)
                for v in vectors:
                    if any(v):
                        assert contains(whole, span(field, n, [v]))


class TestEnumeration:
    def test_rank_sizes_small(self):
        assert build_bnq(2, F2)[0].rank_sizes() == [1, 3, 1]

    def test_total_count_b4_f2(self):
        assert len(build_bnq(4, F2)[0]) == 67

    def test_line_case(self):
        for field in (F2, F3, F4, F5):
            p, _ = build_bnq(1, field)
            assert p.names == ((), ((1,),)) and p.ranks == (0, 1)

    def test_no_duplicates(self):
        p, _ = build_bnq(3, F3)
        assert len(p.names) == len(set(p.names))

    def test_rank_counts_match_gaussian_binomials(self):
        # dual route: the lattice built from joins against the polynomial
        # quotient
        for n in range(1, 5):
            for field in (F2, F3, F4, F5):
                expected = [q_binomial(n, k).evaluate(field.order)
                            for k in range(n + 1)]
                assert build_bnq(n, field)[0].rank_sizes() == expected

    @pytest.mark.parametrize("n, field", [(3, F2), (2, F4), (2, F8),
                                          (2, F9), (4, F2)],
                             ids=lambda x: str(getattr(x, "order", x)))
    def test_elements_match_the_pivot_enumeration(self, n, field):
        p, _ = build_bnq(n, field)
        listed = sorted((s.dim, s.rows) for s in enumerate_subspaces(n, field))
        assert list(zip(p.ranks, p.names)) == listed

    def test_count_bound_enforced(self):
        with pytest.raises(ValueError, match="67 subspaces exceed the bound 10"):
            build_bnq(4, F2, count_bound=10)
        with pytest.raises(ValueError, match="nonnegative, got -1"):
            build_bnq(1, F2, count_bound=-1)
        with pytest.raises(ValueError, match="ambient dimension"):
            build_bnq(-1, F2)


class TestLabels:
    def test_rightmost_coordinate_examples(self):
        x = span(F3, 3, [(1, 0, 1)])
        y = span(F3, 3, [(2, 1, 0)])
        assert label_set(F3, x.rows) == label_set_by_atoms(x) == {3}
        assert label_set(F3, y.rows) == label_set_by_atoms(y) == {2}
        assert label_set(F3, span(F3, 3, [(1, 0, 0)]).rows) == {1}

    def test_label_invariant_under_rescaling(self):
        for scale in range(1, 5):
            vec = tuple(F5._mul[scale][v] for v in (0, 3, 2, 0))
            s = span(F5, 4, [vec])
            assert label_set(F5, s.rows) == {3}

    def test_label_set_size_equals_dimension(self):
        for s in enumerate_subspaces(3, F2):
            assert len(label_set(F2, s.rows)) == s.dim

    def test_edge_label_example(self):
        p, _ = build_bnq(2, F2)
        labels = cover_labels(p)
        bottom = p.names.index(())
        full = p.names.index(((1, 0), (0, 1)))
        diagonal = span(F2, 2, [(1, 1)])
        d = p.names.index(diagonal.rows)
        assert labels[(d, full)] == 1
        assert {labels[(bottom, d)]} == label_set_by_atoms(diagonal)

    def test_edge_label_rejects_non_covers(self):
        p, _ = build_bnq(3, F2)
        labels = cover_labels(p)
        assert set(labels) == set(p.covers)
        assert (p.names.index(()), p.top) not in labels


class TestCoverGeneration:
    @pytest.mark.parametrize("n, field", ORACLE_LATTICES,
                             ids=lambda x: str(getattr(x, "order", x)))
    def test_covers_and_labels_match_the_containment_scan(self, n, field):
        p, _ = build_bnq(n, field)
        labels = cover_labels(p)
        built = {(p.names[a], p.names[b]): labels[(a, b)]
                 for a, b in p.covers}
        assert set(labels) == set(p.covers)
        assert all(len({label for label, _ in g}) == len(g) for g in p._up)
        assert built == covers_by_containment(n, field)

    @pytest.mark.parametrize("n, field", ORACLE_LATTICES,
                             ids=lambda x: str(getattr(x, "order", x)))
    def test_label_sets_match_atom_enumeration(self, n, field):
        lanes = subspace._Lanes(field, n)
        for s in enumerate_subspaces(n, field):
            mask = lanes.labels([bytes(row) for row in s.rows])
            assert label_set(field, s.rows) == label_set_by_atoms(s) == {
                j for j in range(1, n + 1) if mask >> j & 1}

    @given(st.sampled_from((F2, F3, F4, F5, F9)), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_label_set_of_random_spans(self, field, n, data):
        vector = st.tuples(*[st.integers(0, field.order - 1)] * n)
        vectors = data.draw(st.lists(vector, min_size=1, max_size=4))
        s = span(field, n, vectors)
        mask = subspace._Lanes(field, n).labels([bytes(r) for r in s.rows])
        assert label_set(field, s.rows) == label_set_by_atoms(s) == {
            j for j in range(1, n + 1) if mask >> j & 1}

    def test_join_left_in_echelon_form_is_refused(self, monkeypatch):
        # with no multiple -c v the rows keep column lead(v): the 13 lines,
        # each with the 4 points off its pivot, leave 39 distinct uncleared
        # row pairs
        monkeypatch.setattr(subspace._Lanes, "times", lambda self, c, v: 0)
        with pytest.raises(ArithmeticError, match=re.escape(
                "rank 2 of B_3(3) holds 39 joins, not [3 choose 2]_3 = 13")):
            build_bnq(3, F3)

    def test_join_in_a_non_canonical_basis_is_refused(self, monkeypatch):
        # doubling every row keeps one join per subspace, so the rank count
        # holds and only the canonical-form check sees it
        joins = subspace._Lanes.joins

        def doubled(self, s, rows, pivots, setdefault):
            return [setdefault(self.add(j, j), self.add(j, j))
                    for j in joins(self, s, rows, pivots, lambda j, _: j)]
        monkeypatch.setattr(subspace._Lanes, "joins", doubled)
        with pytest.raises(ArithmeticError, match=re.escape(
                "join ((0, 2),) in rank 1 of B_2(3) is not a canonical RREF "
                "basis of dimension 1")):
            build_bnq(2, F3)

    def test_join_with_the_wrong_vector_is_refused(self, monkeypatch):
        # <e1> + <e3> taken with e2 instead: every plane is still reached
        # from its other lines and each join is canonical, but <e1, e3> has
        # two lower covers and <e1, e2> four
        joins = subspace._Lanes.joins

        def wrong_vector_joins(self, s, rows, pivots, setdefault):
            out = joins(self, s, rows, pivots, setdefault)
            if rows == ((1, 0, 0),):
                e1e3 = out.index(self.pack(bytes([1, 0, 0, 0, 0, 1])))
                out[e1e3] = self.pack(bytes([1, 0, 0, 0, 1, 0]))
            return out
        monkeypatch.setattr(subspace._Lanes, "joins", wrong_vector_joins)
        with pytest.raises(ArithmeticError, match=re.escape(
                "((1, 0, 0), (0, 0, 1)) of B_3(2) has 2 lower covers, "
                "not [2 choose 1]_2 = 3")):
            build_bnq(3, F2)

    def test_wrong_label_sets_are_refused(self, monkeypatch):
        def rightmost_of_rows(self, rows):
            return sum(1 << j for j in {len(row.rstrip(b"\0")) for row in rows})
        monkeypatch.setattr(subspace._Lanes, "labels", rightmost_of_rows)
        with pytest.raises(ArithmeticError, match="not exactly one"):
            build_bnq(3, F2)

    def test_a_dependent_row_is_refused_by_the_label_dimension_check(self):
        lanes = subspace._Lanes(F3, 3)
        with pytest.raises(ArithmeticError, match=re.escape(
                "((1, 0, 2), (2, 0, 1)) reaches 1 rightmost indices, not its "
                "dimension 2")):
            lanes.labels([bytes([1, 0, 2]), bytes([2, 0, 1])])


FIELDS = [FiniteField(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]


def _codes(vectors) -> bytes:
    return bytes(c for v in vectors for c in v)


class TestPackedLanes:
    """The build's packed vectors against the field tables and the tuple
    build they replaced."""

    def test_the_packed_build_equals_the_tuple_build(self):
        # names, ranks, label groups (label order and cover order) and lows
        instances = ([(n, field) for field in FIELDS for n in range(4)]
                     + [(4, F2), (4, F3), (4, F4), (4, F5), (4, F8), (4, F9),
                        (5, F2), (5, F3), (6, F2)])
        for n, field in instances:
            p, lows = build_bnq(n, field)
            oracle, oracle_lows = build_bnq_by_tuples(n, field)
            assert (p.names, p.ranks, p._up, lows) == (
                oracle.names, oracle.ranks, oracle._up, oracle_lows), (n, field)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.order))
    def test_packed_addition_is_the_field_addition_in_every_lane(self, field):
        # three rows of three coordinates, the widest sum a build of B_3(q)
        # makes; every pair of codes meets in every lane
        q, lanes = field.order, subspace._Lanes(field, 3)
        for a in range(q):
            for b in range(q):
                xs = [(a + i) % q for i in range(9)]
                ys = [(b + 5 * i) % q for i in range(9)]
                total = lanes.add(lanes.pack(bytes(xs)), lanes.pack(bytes(ys)))
                assert lanes.codes(total, 3) == bytes(
                    field._add[x][y] for x, y in zip(xs, ys))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.order))
    def test_each_stored_multiple_is_the_multiplication_table(
            self, field, monkeypatch):
        made = []

        class Recording(subspace._Lanes):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)
        monkeypatch.setattr(subspace, "_Lanes", Recording)
        build_bnq(3, field)
        stored = [(c, v, cv) for points in made[0].points.values()
                  for _, v, multiples in points
                  for c, cv in enumerate(multiples) if cv is not None]
        assert stored or field.order == 2
        for c, v, cv in stored:
            codes = made[0].codes(v, 1)
            assert made[0].codes(cv, 1) == bytes(field._mul[c][x]
                                                 for x in codes)
            assert c in {field._neg[x] for x in range(1, field.order)}

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: str(f.order))
    def test_unpacking_gives_the_vectors_back(self, field):
        lanes = subspace._Lanes(field, 2)
        vectors = list(itertools.product(range(field.order), repeat=2))
        for v in vectors:
            assert lanes.codes(lanes.pack(bytes(v)), 1) == bytes(v)
        for rows in zip(vectors, reversed(vectors)):
            assert lanes.codes(lanes.pack(_codes(rows)), 2) == _codes(rows)

    @given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 3),
           st.data())
    @settings(max_examples=150, deadline=None)
    def test_packed_order_is_tuple_order(self, field, n, m, data):
        row = st.tuples(*[st.integers(0, field.order - 1)] * n)
        names = data.draw(st.lists(st.tuples(*[row] * m), max_size=8))
        lanes = subspace._Lanes(field, n)
        by_int = sorted(names, key=lambda rows: lanes.pack(_codes(rows)))
        assert by_int == sorted(names)

    @given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_the_structural_check_is_rref_equality(self, field, n, data):
        # canonical bases, then each spoiled by a zero row, a non-unit
        # leading entry, a swap of rows or a row not cleared
        q = field.order
        vector = st.tuples(*[st.integers(0, q - 1)] * n)
        rows = list(rref_rows(field, n, data.draw(
            st.lists(vector, min_size=1, max_size=n))) or ((1,) + (0,) * (n - 1),))
        spoil = data.draw(st.sampled_from(
            ["none", "zero", "scale", "swap", "uncleared"]))
        i = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(1, q - 1))
        if spoil == "zero" and len(rows) < n:
            rows.insert(i, (0,) * n)
        elif spoil == "scale":
            rows[i] = tuple(field._mul[c][x] for x in rows[i])
        elif spoil == "swap" and len(rows) > 1:
            rows[i], rows[0] = rows[0], rows[i]
        elif spoil == "uncleared":
            j = data.draw(st.integers(0, len(rows) - 1))
            rows[i] = tuple(field._add[x][field._mul[c][y]]
                            for x, y in zip(rows[i], rows[j]))
        rows = tuple(rows)
        lanes = subspace._Lanes(field, n)
        try:
            lanes.rows(lanes.pack(_codes(rows)), len(rows))
            structural = True
        except ArithmeticError:
            structural = False
        assert structural == (rref_rows(field, n, rows) == rows)


class TestLatticeConstruction:
    def test_b2_f2_chain_words(self):
        p, _ = build_bnq(2, F2)
        words, _, _ = chain_report(p)
        assert words == {(1, 2): 1, (2, 1): 2}

    def test_b3_f2_reversed_word_count(self):
        p, _ = build_bnq(3, F2)
        words, _, _ = chain_report(p)
        assert words[(3, 2, 1)] == 8

    def test_b3_f3_total_chains(self):
        p, _ = build_bnq(3, F3)
        words, _, _ = chain_report(p)
        assert sum(words.values()) == 52

    def test_chain_counts_are_q_to_the_inversions(self):
        for n, field in ((2, F2), (2, F3), (3, F2), (3, F3), (2, F4)):
            p, _ = build_bnq(n, field)
            words, _, _ = chain_report(p)
            expected = {img: field.order ** inversions(Permutation(img))
                        for img in itertools.permutations(range(1, n + 1))}
            assert words == expected
            assert sum(words.values()) == q_factorial(n).evaluate(field.order)

    def test_el_property_small(self):
        for n, field in ((2, F2), (2, F5), (3, F2), (3, F3)):
            ok, violation = check_el_labeling(build_bnq(n, field)[0])
            assert ok, violation

    def test_segre_descending_counts(self):
        for n, field, expected in ((2, F2, 8), (2, F3, 15), (3, F2, 344)):
            _, _, descending = chain_report(build_bnq(n, field)[0], 2)
            assert descending == expected
            assert expected == w_polynomial(n).evaluate(field.order)

    def test_segre_rank_sizes_are_squares(self):
        sp22 = segre_bnq(2, F2)
        assert sp22.rank_sizes() == [1, 9, 1]
        p, _ = build_bnq(2, F3)
        sp = segre_bnq(2, F3)
        assert sp.rank_sizes() == [c * c for c in p.rank_sizes()]

    def test_segre_el_property(self):
        ok, violation = check_el_labeling(segre_bnq(2, F2))
        assert ok, violation

    def test_mobius_equals_signed_descending_count(self):
        for n, field in ((2, F2), (2, F3), (3, F2)):
            sp = segre_bnq(n, field)
            _, _, descending = chain_report(sp)
            assert mobius_number(sp) == (-1) ** n * descending

    def test_mobius_of_the_lattice_itself_has_the_closed_form(self):
        # classical: mu of the full subspace lattice is (-1)^n q^(n(n-1)/2)
        for n, field in ((2, F2), (3, F2), (3, F3), (4, F2), (2, F4)):
            p, _ = build_bnq(n, field)
            q = field.order
            assert mobius_number(p) == (-1) ** n * q ** (n * (n - 1) // 2)

    def test_betti_of_lattice_proper_part_matches_descending_count(self):
        p, _ = build_bnq(3, F2)
        betti = betti_numbers(p)
        assert betti == [0, 8]
        _, _, descending = chain_report(p)
        assert descending == 8

    def test_euler_characteristic_of_proper_part(self):
        sp = segre_bnq(3, F2)
        assert reduced_euler_characteristic(proper_part(sp)) == -344

    def test_betti_of_proper_parts(self):
        sp2 = segre_bnq(2, F2)
        assert betti_numbers(sp2) == [8]
        sp3 = segre_bnq(3, F2)
        assert betti_numbers(sp3) == [0, 344]


def _swapped_through(p, atom, above):
    """p with the labels of bottom < atom and atom < above swapped."""
    swapped = cover_labels(p)
    low, high = (p.bottom, atom), (atom, above)
    swapped[low], swapped[high] = swapped[high], swapped[low]
    return relabel(p, swapped)


class TestBorelRepresentatives:
    """The upper triangular group's symmetry, checked on the built lattice
    by the generator sweep of the oracle, whose orbit representatives are
    the coordinate subspaces that the EL route pushes from."""

    @pytest.mark.parametrize("n, field", [(0, F2), (1, F3), (2, F2), (2, F4),
                                          (2, F9), (3, F2), (3, F3), (3, F4),
                                          (4, F2)])
    def test_one_coordinate_subspace_per_schubert_cell(self, n, field):
        p, lows = build_bnq(n, field)
        found = borel_representatives(n, field, p)
        units = [tuple(int(c == s) for c in range(n)) for s in range(n)]
        coordinate = sorted(p.names.index(tuple(rows))
                            for k in range(n + 1)
                            for rows in itertools.combinations(units, k))
        assert found == coordinate
        assert found == lows
        assert {label_set(field, p.names[i]) for i in found} == {
            label_set(field, rows) for rows in p.names}

    def test_a_label_moved_off_its_orbit_gives_none(self):
        # <(1,1,1)> lies in the orbit of <e_3>; its cover from the bottom
        # then carries a label no other atom of that orbit carries
        p, _ = build_bnq(3, F2)
        atom = p.names.index(((1, 1, 1),))
        above = p.names.index(((1, 0, 0), (0, 1, 1)))
        swapped = _swapped_through(p, atom, above)
        assert borel_representatives(3, F2, swapped) is None

    def test_a_label_swap_the_group_fixes_passes(self):
        # <e_1> and <e_1, e_2> are fixed by every upper triangular matrix
        p, _ = build_bnq(3, F2)
        atom = p.names.index(((1, 0, 0),))
        above = p.names.index(((1, 0, 0), (0, 1, 0)))
        swapped = _swapped_through(p, atom, above)
        assert borel_representatives(3, F2, swapped) == (
            borel_representatives(3, F2, p))

    @pytest.mark.parametrize("generators, message", [
        # a projection: not invertible
        ([("drop e_1", lambda v: (0,) + v[1:])],
         r"^drop e_1 maps two elements of B_3\(2\) to one$"),
        # the transpose of a transvection keeps covers but not labels
        ([("e_1 -> e_1 + e_3", lambda v: v[:2] + (v[2] ^ v[0],))], None),
        # too few generators: every element is its own orbit
        ([("identity", lambda v: v)],
         r"^the Borel orbits on B_3\(2\) are 16 classes, not the 8 of the "
         r"coordinate subspaces$"),
    ])
    def test_broken_generators_are_caught(self, monkeypatch, generators,
                                          message):
        p, _ = build_bnq(3, F2)
        monkeypatch.setattr(oracles, "_borel_generators",
                            lambda n, field: iter(generators))
        if message is None:
            assert borel_representatives(3, F2, p) is None
        else:
            with pytest.raises(ArithmeticError, match=message):
                borel_representatives(3, F2, p)


def _unitriangular_witness(field, n, rows):
    """u_x, as a list of rows, for the subspace x of F_q^n with the RREF
    rows: column b_s at each s in label_set(x) and e_s at every other s, b_s
    the vector of x's mirrored echelon basis whose last nonzero entry is at
    s."""
    columns = [tuple(int(c == s) for c in range(n)) for s in range(n)]
    for mirrored in rref_rows(field, n, [row[::-1] for row in rows]):
        columns[n - 1 - mirrored.index(1)] = mirrored[::-1]
    return [[column[i] for column in columns] for i in range(n)]


def _apply(field, matrix, v):
    add, mul = field._add, field._mul
    out = []
    for row in matrix:
        acc = 0
        for a, b in zip(row, v):
            acc = add[acc][mul[a][b]]
        out.append(acc)
    return tuple(out)


class TestCoordinateSubspaces:
    """Every interval [x, y] of B_n(q) is label-isomorphic to the one above
    the coordinate subspace e_S, S = label_set(x), by the unitriangular u_x
    read off x's mirrored echelon basis."""

    @pytest.mark.parametrize("n, field", [(2, F4), (2, F9), (3, F2), (3, F3),
                                          (3, F4), (4, F2)],
                             ids=lambda x: str(getattr(x, "order", x)))
    def test_the_witness_moves_x_to_its_coordinate_subspace(self, n, field):
        p, _ = build_bnq(n, field)
        sets = [label_set(field, rows) for rows in p.names]
        for rows, indices in zip(p.names, sets):
            u = _unitriangular_witness(field, n, rows)
            assert all(u[i][j] == (i == j) for i in range(n)
                       for j in range(i + 1))
            units = [tuple(int(c == s - 1) for c in range(n))
                     for s in sorted(indices)]
            assert rref_rows(field, n, [_apply(field, u, e)
                                        for e in units]) == rows
            assert [label_set(field, rref_rows(
                field, n, [_apply(field, u, row) for row in other]))
                for other in p.names] == sets
