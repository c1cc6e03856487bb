from fractions import Fraction
from math import comb, factorial

import pytest

from qsegre import symfrob
from qsegre.exactalg import ONE, QPolynomial
from qsegre.permstats import (ENUMERATION_BOUND, w_polynomial,
                              w_polynomial_recurrence)
from qsegre.poset import rational_betti_numbers
from qsegre.symfrob import (TOP_HOMOLOGY_BOUND, CharacterTable2, SymFun2,
                            h_alternating_residual, h_to_p,
                            homology_characteristic, induce_product_character,
                            irreducible_table2, lefschetz_character,
                            partitions_of, principal_specialization,
                            product_frobenius, specialization_denominator,
                            symmetric_group_character, tensor_single,
                            verify_induction_homomorphism,
                            verify_specialization_identity, z_of)

from oracles import (boolean_lattice, characteristic_by_whitney_recursion,
                     class_size, cleared_specialization_matches, dimension,
                     induce_off_by_one,
                     induction_homomorphism_by_fractions,
                     lefschetz_character_by_chains, pair_poset,
                     principal_specialization_by_terms, trivial_character)


class TestPartitions:
    def test_counts(self):
        assert partitions_of(0) == ((),)
        assert len(partitions_of(4)) == 5
        assert len(partitions_of(6)) == 11

    def test_reverse_lexicographic_order(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_z_values(self):
        assert z_of((1, 1)) == 2
        assert z_of((2,)) == 2
        assert z_of((2, 1)) == 2
        assert z_of((3, 1, 1)) == 6

    def test_class_sizes_sum_to_group_order(self):
        for n in range(1, 7):
            assert sum(class_size(mu) for mu in partitions_of(n)) == factorial(n)


class TestHExpansion:
    def test_small_cases(self):
        assert h_to_p(0) == {(): Fraction(1)}
        assert h_to_p(1) == {(1,): Fraction(1)}
        assert h_to_p(2) == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_coefficients_are_inverse_centralizer_orders(self):
        for lam, c in h_to_p(5).items():
            assert c == Fraction(1, z_of(lam))


class TestSymFun2:
    def test_one_is_multiplicative_identity(self):
        s = SymFun2({((2, 1), (1, 1)): Fraction(3, 4)})
        assert SymFun2.one() * s == s

    def test_basis_product_merges_partitions(self):
        p11 = SymFun2({((1,), (1,)): 1})
        assert p11 * p11 == SymFun2({((1, 1), (1, 1)): 1})

    def test_square_of_h1h1_tensor(self):
        h1 = h_to_p(1)
        square = tensor_single(h1, h1) * tensor_single(h1, h1)
        assert square == SymFun2({((1, 1), (1, 1)): 1})

    def test_zero_coefficients_dropped(self):
        s = SymFun2({((1,), (1,)): 1}) - SymFun2({((1,), (1,)): 1})
        assert s.is_zero() and s.terms == {}

    def test_scalar_multiplication_and_linearity(self):
        a = SymFun2({((2,), ()): Fraction(1, 2)})
        b = SymFun2({((1, 1), ()): 1})
        assert 2 * a + b == SymFun2({((2,), ()): 1, ((1, 1), ()): 1})


class TestIrreducibleCharacters:
    def test_known_s3_values(self):
        assert symmetric_group_character((3,), (1, 1, 1)) == 1
        assert symmetric_group_character((1, 1, 1), (2, 1)) == -1
        assert {mu: symmetric_group_character((2, 1), mu)
                for mu in partitions_of(3)} == {(3,): -1, (2, 1): 0, (1, 1, 1): 2}

    def test_dimensions_via_hook_free_check(self):
        # dimensions at the identity class: 1, 3, 2, 3, 1 for S_4
        dims = [symmetric_group_character(lam, (1, 1, 1, 1))
                for lam in partitions_of(4)]
        assert dims == [1, 3, 2, 3, 1]
        assert sum(d * d for d in dims) == factorial(4)

    def test_orthogonality(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for kappa in partitions_of(n):
                    inner = sum(class_size(mu)
                                * symmetric_group_character(lam, mu)
                                * symmetric_group_character(kappa, mu)
                                for mu in partitions_of(n))
                    assert inner == (factorial(n) if lam == kappa else 0)

    def test_sign_character_values(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                expected = (-1) ** (n - len(mu))
                assert symmetric_group_character((1,) * n, mu) == expected


class TestProductFrobenius:
    def test_trivial_s1_squared(self):
        ch = product_frobenius(trivial_character(1, 1))
        assert ch == SymFun2({((1,), (1,)): 1})

    def test_trivial_s2_squared_is_h2_tensor_h2(self):
        ch = product_frobenius(trivial_character(2, 2))
        assert ch == tensor_single(h_to_p(2), h_to_p(2))

    def test_table_completeness_enforced(self):
        with pytest.raises(ValueError):
            CharacterTable2(2, 1, {((2,), (1,)): 1})

    def test_linearity_on_random_integer_combinations(self):
        import random
        rng = random.Random(5)
        keys = [(mu, lam) for mu in partitions_of(2) for lam in partitions_of(2)]
        for _ in range(20):
            t = CharacterTable2(2, 2, {k: rng.randrange(-4, 5) for k in keys})
            u = CharacterTable2(2, 2, {k: rng.randrange(-4, 5) for k in keys})
            a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
            combined = CharacterTable2(
                2, 2, {k: a * t.values[k] + b * u.values[k] for k in keys})
            assert product_frobenius(combined) == \
                a * product_frobenius(t) + b * product_frobenius(u)


class TestInduction:
    def test_trivial_from_four_copies_of_s1(self):
        induced = induce_product_character(trivial_character(1, 1),
                                           trivial_character(1, 1))
        assert induced.values == {((1, 1), (1, 1)): 4, ((2,), (1, 1)): 0,
                                  ((1, 1), (2,)): 0, ((2,), (2,)): 0}

    def test_dimension_scales_by_the_index(self):
        for (k, l, m, n) in ((1, 1, 1, 1), (2, 1, 1, 2), (1, 2, 2, 1)):
            t, u = trivial_character(k, l), trivial_character(m, n)
            induced = induce_product_character(t, u)
            index = comb(k + m, k) * comb(l + n, l)
            assert dimension(induced) == dimension(t) * dimension(u) * index

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            induce_product_character(trivial_character(3, 3),
                                     trivial_character(3, 3))

    def test_permutation_character_on_rank_level_of_pair_poset(self):
        # inducing trivial characters of the two-sided stabilizer gives the
        # permutation character on the rank-k level of the Segre square of
        # the subset lattice; the oracle counts fixed elements of the actual
        # poset under the diagonal-by-diagonal action
        from qsegre.poset import segre_product
        from qsegre.symfrob import _perm_of_cycle_type
        for n in (2, 3):
            square = segre_product(boolean_lattice(n), boolean_lattice(n))
            levels = {}
            for name, rank in zip(square.names, square.ranks):
                levels.setdefault(rank, []).append(name)
            for k in range(n + 1):
                induced = induce_product_character(trivial_character(k, k),
                                                   trivial_character(n - k, n - k))
                for mu in partitions_of(n):
                    g = _perm_of_cycle_type(mu, n)
                    for lam in partitions_of(n):
                        h = _perm_of_cycle_type(lam, n)
                        fixed = sum(
                            1 for (s, t) in levels[k]
                            if tuple(sorted(g[x - 1] + 1 for x in s)) == s
                            and tuple(sorted(h[x - 1] + 1 for x in t)) == t)
                        assert induced.values[(mu, lam)] == fixed


class TestLefschetzCharacter:
    def test_degree_one_table(self):
        assert lefschetz_character(1).values == {((1,), (1,)): 1}

    def test_degree_two_table(self):
        assert lefschetz_character(2).values == {
            ((1, 1), (1, 1)): 3, ((2,), (1, 1)): -1,
            ((1, 1), (2,)): -1, ((2,), (2,)): -1}

    def test_degree_three_dimension(self):
        assert dimension(lefschetz_character(3)) == 19

    def test_dimension_equals_top_betti_number(self):
        for n in (2, 3):
            betti = rational_betti_numbers(pair_poset(n))
            assert dimension(lefschetz_character(n)) == betti[-1]
            assert all(b == 0 for b in betti[:-1])

    def test_dimension_equals_pair_count_at_one(self):
        for n in range(1, TOP_HOMOLOGY_BOUND + 1):
            w = (w_polynomial(n) if n <= ENUMERATION_BOUND
                 else w_polynomial_recurrence(n))
            assert dimension(lefschetz_character(n)) == w.evaluate(1), n

    def test_bound_enforced(self):
        assert TOP_HOMOLOGY_BOUND == 10
        for n in (0, -1, 11):
            with pytest.raises(ValueError):
                lefschetz_character(n)

    def test_matches_the_hopf_trace_over_fixed_chains(self):
        for n in range(1, 5):
            assert lefschetz_character(n) == lefschetz_character_by_chains(n), n


class TestIdentities:
    def test_characteristic_of_degree_two_matches_hand_value(self):
        expected = SymFun2({
            ((1, 1), (1, 1)): Fraction(3, 4),
            ((2,), (1, 1)): Fraction(-1, 4),
            ((1, 1), (2,)): Fraction(-1, 4),
            ((2,), (2,)): Fraction(-1, 4)})
        assert homology_characteristic(2) == expected
        # equivalently h_1^2 h_1^2 - h_2 h_2 in the two alphabets
        h1, h2 = h_to_p(1), h_to_p(2)
        square = tensor_single(h1, h1) * tensor_single(h1, h1)
        assert expected == square - tensor_single(h2, h2)

    def test_alternating_residual_vanishes(self):
        for n in range(1, TOP_HOMOLOGY_BOUND + 1):
            assert h_alternating_residual(n).is_zero(), n

    def test_whitney_recursion_agrees_with_lefschetz_route(self):
        for n in range(5):
            assert characteristic_by_whitney_recursion(n) == homology_characteristic(n)


class TestSpecialization:
    def test_basis_cases(self):
        # ps(p_1(x) p_1(y)) = 1/(1-q)^2, which is the denominator itself at n = 1
        p1p1 = SymFun2({((1,), (1,)): 1})
        one_minus_q = QPolynomial([1, -1])
        assert specialization_denominator(1) == one_minus_q * one_minus_q
        assert principal_specialization(p1p1, 1) == ONE
        # ps(h_2(x)) = 1/((1-q)(1-q^2)), over (1-q)^2 (1-q^2)^2
        h2_single = tensor_single(h_to_p(2), {(): Fraction(1)})
        assert principal_specialization(h2_single, 2) == \
            one_minus_q * QPolynomial([1, 0, -1])

    def test_degree_two_characteristic_specializes_to_reference(self):
        value = principal_specialization(homology_characteristic(2), 2)
        assert value == QPolynomial([0, 2, 1])

    def test_degree_three_numerator_is_the_pair_polynomial(self):
        value = principal_specialization(homology_characteristic(3), 3)
        assert value == QPolynomial([0, 0, 2, 6, 6, 4, 1])

    def test_identity_holds_through_degree_four(self):
        for n in range(1, 5):
            assert verify_specialization_identity(n)

    def test_identity_holds_up_to_the_homology_bound(self):
        # past the enumeration bound W_n comes from the recurrence
        for n in range(5, TOP_HOMOLOGY_BOUND + 1):
            assert verify_specialization_identity(n), n

    def test_identity_holds_pointwise_through_degree_four(self):
        # independent of principal_specialization: ps(ch_n) evaluated at
        # integer q, cleared, against the enumerated W_n(q)
        for n in range(1, 5):
            assert cleared_specialization_matches(homology_characteristic(n), n,
                                                  w_polynomial(n))
        assert not cleared_specialization_matches(homology_characteristic(3), 3,
                                                  w_polynomial(3) + ONE)

    def test_denominator_must_clear_every_term(self):
        with pytest.raises(ValueError, match="not divisible"):
            principal_specialization(homology_characteristic(3), 2)

    def test_denominator_must_clear_a_class_that_cancels(self):
        # p_3(x) - p_3(y) has one multiset of parts, {3}, with coefficient
        # sum 0, and 1 - q^3 does not divide (1 - q)^2
        cancelling = SymFun2({((3,), ()): 1, ((), (3,)): -1})
        with pytest.raises(ValueError, match="not divisible"):
            principal_specialization(cancelling, 1)

    def test_grouping_by_multiset_matches_term_by_term(self):
        for n in range(1, 7):
            f = homology_characteristic(n)
            assert principal_specialization(f, n) == \
                principal_specialization_by_terms(f, n), n
        # mixed classes: p_1(x) p_2(y) and p_2(x) p_1(y) share {1, 2}
        f = SymFun2({((1,), (2,)): Fraction(1, 3), ((2,), (1,)): Fraction(2, 3),
                     ((1, 1), ()): -1, ((2,), ()): Fraction(5, 2)})
        assert principal_specialization(f, 2) == \
            principal_specialization_by_terms(f, 2)

    def test_specializing_the_alternating_identity_recovers_the_polynomial_one(self):
        # term by term: ps(h_(n-i)(x) h_(n-i)(y) ch_i) times prod (1-q^j)^2
        # is the polynomial [n choose i]_q^2 W_i(q), so specializing the
        # symmetric-function residual and clearing denominators reproduces
        # the alternating Gaussian-square residual exactly
        from qsegre.permstats import q_binomial_square
        for n in (2, 3):
            for i in range(n + 1):
                h = h_to_p(n - i)
                term = tensor_single(h, h) * homology_characteristic(i)
                expected_poly = q_binomial_square(n, i) * w_polynomial(i)
                assert principal_specialization(term, n) == expected_poly


class TestInductionHomomorphism:
    def test_smallest_case_and_its_common_value(self):
        assert verify_induction_homomorphism(1, 1, 1, 1)
        t = trivial_character(1, 1)
        induced = induce_product_character(t, t)
        assert product_frobenius(induced) == SymFun2({((1, 1), (1, 1)): 1})

    def test_mixed_sign_and_trivial_sizes(self):
        assert verify_induction_homomorphism(2, 1, 1, 2)

    def test_specific_sign_tensor_case(self):
        sign = irreducible_table2((1, 1), (1,))
        triv = irreducible_table2((1,), (2,))
        induced = induce_product_character(sign, triv)
        assert product_frobenius(induced) == \
            product_frobenius(sign) * product_frobenius(triv)

    def test_integer_tables_agree_with_the_fraction_route(self):
        # every size tuple with k + m <= 3 and l + n <= 3, where the integer
        # route passes too (test_full_sweep_at_size_three); a wrong induced
        # table fails the Fraction route at each of them
        for k in range(4):
            for m in range(4 - k):
                for l in range(4):
                    for n in range(4 - l):
                        assert induction_homomorphism_by_fractions(k, l, m, n)
                        assert not induction_homomorphism_by_fractions(
                            k, l, m, n, induce=induce_off_by_one)

    def test_cleared_product_matches_the_fraction_product(self):
        # on random integer tables, not only characters: z_mu z_lam times
        # each coefficient of ch(t) ch(u), zero ones included
        import random
        rng = random.Random(26)
        for k, l, m, n in ((0, 1, 2, 0), (1, 1, 1, 1), (2, 1, 2, 3),
                           (3, 2, 2, 3), (1, 4, 4, 1)):
            t = CharacterTable2(k, l, {(a, c): rng.randrange(-9, 10)
                                       for a in partitions_of(k)
                                       for c in partitions_of(l)})
            u = CharacterTable2(m, n, {(b, d): rng.randrange(-9, 10)
                                       for b in partitions_of(m)
                                       for d in partitions_of(n)})
            product = product_frobenius(t) * product_frobenius(u)
            cleared = symfrob._product_values(t, u)
            assert set(cleared) == {(mu, lam) for mu in partitions_of(k + m)
                                    for lam in partitions_of(l + n)}
            for (mu, lam), v in cleared.items():
                assert v == product.terms.get((mu, lam), 0) * z_of(mu) * z_of(lam)

    def test_a_wrong_split_count_is_refused(self, monkeypatch):
        # each split count must be z_mu / (z_a z_b); the cache is bypassed
        monkeypatch.setattr(symfrob, "comb", lambda n, k: 1)
        with pytest.raises(ArithmeticError, match="is not 1"):
            symfrob._cycle_splits.__wrapped__((2, 1, 1))

    def test_a_wrong_induced_table_fails_at_every_size(self, monkeypatch):
        monkeypatch.setattr(symfrob, "induce_product_character",
                            induce_off_by_one)
        for k in range(4):
            for m in range(4 - k):
                for l in range(4):
                    for n in range(4 - l):
                        assert not verify_induction_homomorphism(k, l, m, n)

    def test_bound_is_checked_before_any_table(self, monkeypatch):
        def fail_if_called(*args, **kwargs):
            raise AssertionError("work started before the bound check")
        for name in ("irreducible_table2", "induce_product_character",
                     "partitions_of"):
            monkeypatch.setattr(symfrob, name, fail_if_called)
        for sizes in ((3, 0, 3, 0), (0, 5, 1, 5), (6, 1, 0, 1)):
            with pytest.raises(ValueError, match="exceed the bound 5"):
                verify_induction_homomorphism(*sizes)

    def test_full_sweep_at_size_three(self):
        for k in range(4):
            for m in range(4 - k):
                for l in range(4):
                    for n in range(4 - l):
                        assert verify_induction_homomorphism(k, l, m, n)
