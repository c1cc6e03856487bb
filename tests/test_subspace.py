import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsegre import subspace
from qsegre.exactalg import q_factorial
from qsegre.permstats import q_binomial, w_polynomial
from qsegre.poset import (chain_report, check_el_labeling, mobius_number,
                          proper_part, rational_betti_numbers)
from qsegre.subspace import (FiniteField, Subspace, build_bnq,
                             build_segre_bnq, enumerate_subspaces, label_set,
                             rref_rows)

from oracles import (Permutation, contains, covers_by_containment,
                     inversions, label_set_by_atoms,
                     reduced_euler_characteristic, span)

import itertools

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)
F8 = FiniteField(2, 3)
F9 = FiniteField(3, 2)
F16 = FiniteField(2, 4)

# every lattice whose covers are checked against the containment scan
ORACLE_LATTICES = ([(n, F2) for n in range(5)]
                   + [(n, field) for field in (F3, F4, F5) for n in range(4)]
                   + [(2, field) for field in (F8, F9, F16)])


class TestFiniteField:
    def test_prime_field_arithmetic(self):
        assert F3.mul(2, 2) == 1
        assert F3._add[2][2] == 1
        assert F2._add[1][1] == 0

    def test_f4_uses_the_unique_quadratic_modulus(self):
        assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
        x = 2  # the residue class of x
        assert F4.mul(x, x) == 3  # x^2 = x + 1

    def test_inverses(self):
        for field in (F2, F3, F4, F5):
            for a in range(1, field.order):
                assert field.mul(a, field.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            F3.inv(0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FiniteField(4)
        with pytest.raises(ValueError):
            FiniteField(2, 5)  # 32 > 16

    def test_field_equality_by_construction_data(self):
        assert FiniteField(3) == FiniteField(3)
        assert FiniteField(2, 2) != FiniteField(2, 1)

    def test_extension_fields_at_the_size_bound(self):
        f9 = FiniteField(3, 2)
        f16 = FiniteField(2, 4)
        assert f9.order == 9 and f16.order == 16
        for field in (f9, f16):
            for a in range(1, field.order):
                acc = 1
                for _ in range(field.order - 1):
                    acc = field.mul(acc, a)
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
        with pytest.raises(ValueError):
            Subspace(F2, 2, ((1, 1), (0, 1)))  # pivot column not elementary

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
        subs = enumerate_subspaces(2, F2)
        by_rank = [sum(1 for s in subs if s.dim == k) for k in range(3)]
        assert by_rank == [1, 3, 1]

    def test_total_count_b4_f2(self):
        assert len(enumerate_subspaces(4, F2)) == 67

    def test_line_case(self):
        for field in (F2, F3, F4, F5):
            assert [s.dim for s in enumerate_subspaces(1, field)] == [0, 1]

    def test_no_duplicates(self):
        subs = enumerate_subspaces(3, F3)
        assert len(subs) == len(set(subs))

    def test_rank_counts_match_gaussian_binomials(self):
        # dual route: the RREF enumeration against the polynomial quotient
        for n in range(1, 5):
            for field in (F2, F3, F4, F5):
                subs = enumerate_subspaces(n, field)
                for k in range(n + 1):
                    expected = q_binomial(n, k).evaluate(field.order)
                    assert sum(1 for s in subs if s.dim == k) == expected

    def test_count_bound_enforced(self):
        with pytest.raises(ValueError):
            enumerate_subspaces(4, F2, count_bound=10)


class TestLabels:
    def test_rightmost_coordinate_examples(self):
        x = span(F3, 3, [(1, 0, 1)])
        y = span(F3, 3, [(2, 1, 0)])
        assert label_set(x) == label_set_by_atoms(x) == {3}
        assert label_set(y) == label_set_by_atoms(y) == {2}
        assert label_set(span(F3, 3, [(1, 0, 0)])) == {1}

    def test_label_invariant_under_rescaling(self):
        for scale in range(1, 5):
            vec = tuple(F5.mul(scale, v) for v in (0, 3, 2, 0))
            s = span(F5, 4, [vec])
            assert label_set(s) == {3}

    def test_label_set_size_equals_dimension(self):
        for s in enumerate_subspaces(3, F2):
            assert len(label_set(s)) == s.dim

    def test_edge_label_example(self):
        p, labeling = build_bnq(2, F2)
        bottom = p.names.index(())
        full = p.names.index(((1, 0), (0, 1)))
        diagonal = span(F2, 2, [(1, 1)])
        d = p.names.index(diagonal.rows)
        assert labeling.labels[(d, full)] == 1
        assert {labeling.labels[(bottom, d)]} == label_set_by_atoms(diagonal)

    def test_edge_label_rejects_non_covers(self):
        p, labeling = build_bnq(3, F2)
        assert set(labeling.labels) == set(p.covers)
        assert (p.names.index(()), p.top_index()) not in labeling.labels


class TestCoverGeneration:
    @pytest.mark.parametrize("n, field", ORACLE_LATTICES,
                             ids=lambda x: str(getattr(x, "order", x)))
    def test_covers_and_labels_match_the_containment_scan(self, n, field):
        p, labeling = build_bnq(n, field)
        built = {(p.names[a], p.names[b]): labeling.labels[(a, b)]
                 for a, b in p.covers}
        assert set(labeling.labels) == set(p.covers)
        assert built == covers_by_containment(n, field)

    @pytest.mark.parametrize("n, field", ORACLE_LATTICES,
                             ids=lambda x: str(getattr(x, "order", x)))
    def test_label_sets_match_atom_enumeration(self, n, field):
        for s in enumerate_subspaces(n, field):
            assert label_set(s) == label_set_by_atoms(s)

    @given(st.sampled_from((F2, F3, F4, F5, F9)), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_label_set_of_random_spans(self, field, n, data):
        vector = st.tuples(*[st.integers(0, field.order - 1)] * n)
        vectors = data.draw(st.lists(vector, min_size=1, max_size=4))
        s = span(field, n, vectors)
        assert label_set(s) == label_set_by_atoms(s)

    def test_join_left_in_echelon_form_is_refused(self, monkeypatch):
        def uncleared(field, rows, pivots, lead, v):
            out = list(rows)
            out.insert(sum(1 for pc in pivots if pc < lead), v)
            return tuple(out)
        monkeypatch.setattr(subspace, "_join", uncleared)
        with pytest.raises(ArithmeticError, match="not an enumerated subspace"):
            build_bnq(3, F3)

    def test_join_with_the_wrong_vector_is_refused(self, monkeypatch):
        join = subspace._join

        def unit_vector_join(field, rows, pivots, lead, v):
            unit = tuple(int(i == lead) for i in range(len(v)))
            return join(field, rows, pivots, lead, unit)
        monkeypatch.setattr(subspace, "_join", unit_vector_join)
        with pytest.raises(ArithmeticError, match="lower covers"):
            build_bnq(3, F2)

    def test_wrong_label_sets_are_refused(self, monkeypatch):
        def rightmost_of_rows(s):
            return frozenset(max(i for i, x in enumerate(row) if x) + 1
                             for row in s.rows)
        monkeypatch.setattr(subspace, "label_set", rightmost_of_rows)
        with pytest.raises(ArithmeticError, match="not exactly one"):
            build_bnq(3, F2)


class TestLatticeConstruction:
    def test_b2_f2_chain_words(self):
        p, labeling = build_bnq(2, F2)
        report = chain_report(p, labeling)
        assert report.by_label_word == {(1, 2): 1, (2, 1): 2}

    def test_b3_f2_reversed_word_count(self):
        p, labeling = build_bnq(3, F2)
        report = chain_report(p, labeling)
        assert report.by_label_word[(3, 2, 1)] == 8

    def test_b3_f3_total_chains(self):
        p, labeling = build_bnq(3, F3)
        assert chain_report(p, labeling).total == 52

    def test_chain_counts_are_q_to_the_inversions(self):
        for n, field in ((2, F2), (2, F3), (3, F2), (3, F3), (2, F4)):
            p, labeling = build_bnq(n, field)
            report = chain_report(p, labeling)
            expected = {img: field.order ** inversions(Permutation(img))
                        for img in itertools.permutations(range(1, n + 1))}
            assert report.by_label_word == expected
            assert report.total == q_factorial(n).evaluate(field.order)

    def test_el_property_small(self):
        for n, field in ((2, F2), (2, F5), (3, F2), (3, F3)):
            ok, violation = check_el_labeling(*build_bnq(n, field))
            assert ok, violation

    def test_segre_descending_counts(self):
        for n, field, expected in ((2, F2, 8), (2, F3, 15), (3, F2, 344)):
            sp, labeling = build_segre_bnq(n, field)
            assert chain_report(sp, labeling).descending_count == expected
            assert expected == w_polynomial(n).evaluate(field.order)

    def test_segre_rank_sizes_are_squares(self):
        sp22, _ = build_segre_bnq(2, F2)
        assert sp22.rank_sizes() == [1, 9, 1]
        p, _ = build_bnq(2, F3)
        sp, _ = build_segre_bnq(2, F3)
        assert sp.rank_sizes() == [c * c for c in p.rank_sizes()]

    def test_segre_el_property(self):
        ok, violation = check_el_labeling(*build_segre_bnq(2, F2))
        assert ok, violation

    def test_mobius_equals_signed_descending_count(self):
        for n, field in ((2, F2), (2, F3), (3, F2)):
            sp, labeling = build_segre_bnq(n, field)
            descending = chain_report(sp, labeling).descending_count
            assert mobius_number(sp) == (-1) ** n * descending

    def test_mobius_of_the_lattice_itself_has_the_closed_form(self):
        # classical: mu of the full subspace lattice is (-1)^n q^(n(n-1)/2)
        for n, field in ((2, F2), (3, F2), (3, F3), (4, F2), (2, F4)):
            p, _ = build_bnq(n, field)
            q = field.order
            assert mobius_number(p) == (-1) ** n * q ** (n * (n - 1) // 2)

    def test_betti_of_lattice_proper_part_matches_descending_count(self):
        p, labeling = build_bnq(3, F2)
        betti = rational_betti_numbers(proper_part(p))
        assert betti == [0, 8]
        assert chain_report(p, labeling).descending_count == 8

    def test_euler_characteristic_of_proper_part(self):
        sp, _ = build_segre_bnq(3, F2)
        assert reduced_euler_characteristic(proper_part(sp)) == -344

    def test_betti_of_proper_parts(self):
        sp2, _ = build_segre_bnq(2, F2)
        assert rational_betti_numbers(proper_part(sp2)) == [8]
        sp3, _ = build_segre_bnq(3, F2)
        assert rational_betti_numbers(proper_part(sp3)) == [0, 344]
