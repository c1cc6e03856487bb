import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest

from qsegre import symfrob
from qsegre.exactalg import ONE, QPolynomial
from qsegre.permstats import (ENUMERATION_BOUND, w_polynomial,
                              w_polynomial_recurrence)
from qsegre.symfrob import (INDUCTION_BOUND, TOP_HOMOLOGY_BOUND,
                            cleared_specialization, h_alternating_residual,
                            lefschetz_character,
                            partitions_of, principal_specialization,
                            specialization_denominator,
                            verify_induction_homomorphism,
                            verify_specialization_identity, z_of)

from oracles import (SF_ONE, characteristic,
                     characteristic_by_whitney_recursion, class_size,
                     cleared_specialization_matches, dimension, h_to_p,
                     induce_off_by_one, induce_product_character,
                     induce_product_character_dense,
                     induction_homomorphism_by_fractions,
                     induction_homomorphism_by_tables,
                     lefschetz_character_by_chains, pair_poset,
                     principal_specialization_by_terms,
                     product_values_dense, profile_with_one_count_off,
                     profiles_scaled_inversely, rational_betti_numbers,
                     segre_boolean_labeled, sf_add, sf_product, tensor,
                     trivial_character)


def random_table(rng, m, n, low=-9, high=10):
    """An integer class function on S_m x S_n, not in general a character."""
    return {(mu, lam): rng.randrange(low, high)
            for mu in partitions_of(m) for lam in partitions_of(n)}


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
    """The oracles' Fraction expansion of h_n, and its z-cleared form in the
    package: the trivial character, every value 1."""

    def test_small_cases(self):
        assert h_to_p(0) == {(): Fraction(1)}
        assert h_to_p(1) == {(1,): Fraction(1)}
        assert h_to_p(2) == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def test_coefficients_are_inverse_centralizer_orders(self):
        for lam, c in h_to_p(5).items():
            assert c == Fraction(1, z_of(lam))
        assert characteristic(trivial_character(5, 0)) == \
            tensor(h_to_p(5), h_to_p(0))


class TestSymFun2:
    """Two-alphabet symmetric functions: the oracles' Fraction power-sum
    dicts, and the package's product of z-cleared integer tables against
    them."""

    def test_one_is_multiplicative_identity(self):
        s = {((2, 1), (1, 1)): Fraction(3, 4)}
        assert sf_product(SF_ONE, s) == s
        # the trivial table of S_0 x S_0 is the unit of the integer product
        t = random_table(random.Random(1), 3, 2)
        assert symfrob._product_values(trivial_character(0, 0), t) == t

    def test_basis_product_merges_partitions(self):
        p11 = {((1,), (1,)): 1}
        assert sf_product(p11, p11) == {((1, 1), (1, 1)): 1}

    def test_square_of_h1h1_tensor(self):
        h1 = h_to_p(1)
        square = sf_product(tensor(h1, h1), tensor(h1, h1))
        assert square == {((1, 1), (1, 1)): 1}
        # z-cleared: the class pair (1,1)|(1,1) carries z^2 = 4, the rest 0
        t = trivial_character(1, 1)
        assert symfrob._product_values(t, t) == {
            ((2,), (2,)): 0, ((2,), (1, 1)): 0, ((1, 1), (2,)): 0,
            ((1, 1), (1, 1)): 4}

    def test_zero_coefficients_dropped(self):
        s = {((1,), (1,)): 1}
        assert sf_add(s, s, -1) == {}

    def test_scalar_multiplication_and_linearity(self):
        a = {((2,), ()): Fraction(1, 2)}
        b = {((1, 1), ()): 1}
        assert sf_add(b, a, 2) == {((2,), ()): 1, ((1, 1), ()): 1}
        # the integer product is linear in each table
        rng = random.Random(7)
        t, t2, u = (random_table(rng, 2, 1), random_table(rng, 2, 1),
                    random_table(rng, 1, 2))
        combined = {k: 3 * t[k] - t2[k] for k in t}
        left = symfrob._product_values(t, u)
        right = symfrob._product_values(t2, u)
        assert symfrob._product_values(combined, u) == \
            {k: 3 * left[k] - right[k] for k in left}


class TestProductFrobenius:
    """The characteristic of a table, in the oracles' Fraction route and as
    the z-cleared entries the package keeps."""

    def test_trivial_s1_squared(self):
        ch = characteristic(trivial_character(1, 1))
        assert ch == {((1,), (1,)): 1}

    def test_trivial_s2_squared_is_h2_tensor_h2(self):
        ch = characteristic(trivial_character(2, 2))
        assert ch == tensor(h_to_p(2), h_to_p(2))
        # h_2(x) h_2(y) is the product of h_2(x) and h_2(y) as tables too
        assert symfrob._product_values(trivial_character(2, 0),
                                       trivial_character(0, 2)) == \
            trivial_character(2, 2)

    def test_linearity_on_random_integer_combinations(self):
        rng = random.Random(5)
        keys = [(mu, lam) for mu in partitions_of(2) for lam in partitions_of(2)]
        for _ in range(20):
            t = {k: rng.randrange(-4, 5) for k in keys}
            u = {k: rng.randrange(-4, 5) for k in keys}
            a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
            combined = {k: a * t[k] + b * u[k] for k in keys}
            assert characteristic(combined) == \
                sf_add(sf_add({}, characteristic(t), a), characteristic(u), b)
            assert cleared_specialization(combined, 2) == \
                cleared_specialization(t, 2) * a + \
                cleared_specialization(u, 2) * b


class TestInduction:
    def test_trivial_from_four_copies_of_s1(self):
        induced = induce_product_character(trivial_character(1, 1),
                                           trivial_character(1, 1))
        assert induced == {((1, 1), (1, 1)): 4, ((2,), (1, 1)): 0,
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
        from qsegre.symfrob import _perm_of_cycle_type
        for n in (2, 3):
            square = segre_boolean_labeled(n)
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
                        assert induced[(mu, lam)] == fixed


class TestLefschetzCharacter:
    def test_degree_one_table(self):
        assert lefschetz_character(1) == {((1,), (1,)): 1}

    def test_degree_two_table(self):
        assert lefschetz_character(2) == {
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
        expected = {
            ((1, 1), (1, 1)): Fraction(3, 4),
            ((2,), (1, 1)): Fraction(-1, 4),
            ((1, 1), (2,)): Fraction(-1, 4),
            ((2,), (2,)): Fraction(-1, 4)}
        assert characteristic(lefschetz_character(2)) == expected
        # equivalently h_1^2 h_1^2 - h_2 h_2 in the two alphabets
        h1, h2 = h_to_p(1), h_to_p(2)
        square = sf_product(tensor(h1, h1), tensor(h1, h1))
        assert expected == sf_add(square, tensor(h2, h2), -1)

    def test_alternating_residual_vanishes(self):
        for n in range(1, TOP_HOMOLOGY_BOUND + 1):
            assert h_alternating_residual(n) == {}, n

    def test_whitney_recursion_agrees_with_lefschetz_route(self):
        # the oracle's Fraction recursion, z-scaled entry by entry, against
        # the integer table that thm31 sums
        assert characteristic_by_whitney_recursion(0) == SF_ONE
        for n in range(1, 7):
            table = lefschetz_character(n)
            whitney = characteristic_by_whitney_recursion(n)
            for (mu, lam), v in table.items():
                assert whitney.get((mu, lam), 0) * z_of(mu) * z_of(lam) == v, \
                    (n, mu, lam)


class TestSpecialization:
    def test_basis_cases(self):
        # ps(p_1(x) p_1(y)) = 1/(1-q)^2, which is the denominator itself at n = 1
        p1p1 = trivial_character(1, 1)
        one_minus_q = QPolynomial([1, -1])
        assert specialization_denominator(1) == one_minus_q * one_minus_q
        assert principal_specialization(p1p1, 1) == ONE
        # ps(h_2(x)) = 1/((1-q)(1-q^2)), over (1-q)^2 (1-q^2)^2, and 2! 0!
        # times that before the division
        h2_single = trivial_character(2, 0)
        assert principal_specialization(h2_single, 2) == \
            one_minus_q * QPolynomial([1, 0, -1])
        assert cleared_specialization(h2_single, 2) == \
            one_minus_q * QPolynomial([1, 0, -1]) * 2

    def test_degree_two_characteristic_specializes_to_reference(self):
        value = principal_specialization(lefschetz_character(2), 2)
        assert value == QPolynomial([0, 2, 1])
        assert cleared_specialization(lefschetz_character(2), 2) == value * 4

    def test_degree_three_numerator_is_the_pair_polynomial(self):
        value = principal_specialization(lefschetz_character(3), 3)
        assert value == QPolynomial([0, 0, 2, 6, 6, 4, 1])

    def test_a_class_function_that_is_no_character_is_refused(self):
        # p_2(x)/2 specializes to 1/(1 - q^2), which 2! 0! clears but the
        # division by 2! 0! brings back as halves
        half = {((2,), ()): 1, ((1, 1), ()): 0}
        assert cleared_specialization(half, 2) == \
            QPolynomial([1, -1]) * QPolynomial([1, -1]) * QPolynomial([1, 0, -1])
        with pytest.raises(ArithmeticError, match="not divisible by 2"):
            principal_specialization(half, 2)

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
            ch = characteristic(lefschetz_character(n))
            assert cleared_specialization_matches(ch, n, w_polynomial(n))
        assert not cleared_specialization_matches(
            characteristic(lefschetz_character(3)), 3, w_polynomial(3) + ONE)

    def test_denominator_must_clear_every_term(self):
        with pytest.raises(ValueError, match=r"^table degrees \(3,3\) "
                                             r"exceed n=2$"):
            principal_specialization(lefschetz_character(3), 2)

    def test_denominator_must_clear_a_class_that_cancels(self):
        # p_3(x) p_1^3(y) - p_1^3(x) p_3(y), scaled: its terms cancel in
        # q, but 1 - q^3 does not divide (1 - q)^2 (1 - q^2)^2, and the
        # degrees are refused before any term is looked at
        values = {(mu, lam): 0 for mu in partitions_of(3)
                  for lam in partitions_of(3)}
        values[((3,), (1, 1, 1))] = 1
        values[((1, 1, 1), (3,))] = -1
        with pytest.raises(ValueError, match=r"^table degrees \(3,3\) "
                                             r"exceed n=2$"):
            cleared_specialization(values, 2)

    def test_a_degree_above_n_is_refused_before_any_division(self,
                                                             monkeypatch):
        # (1,1,1)|(2) at n = 2 specializes to 1/((1 - q)^3 (1 - q^2)),
        # whose denominator divides (1 - q)^2 (1 - q^2)^2; it is refused
        # all the same, since the x alphabet's degree 3 exceeds n
        def fail_if_called(*args):
            raise AssertionError("a division before the degree check")
        monkeypatch.setattr(QPolynomial, "exact_div", fail_if_called)
        one_class = {(mu, lam): 0 for mu in partitions_of(3)
                     for lam in partitions_of(2)}
        one_class[((1, 1, 1), (2,))] = 1
        for table, n, text in ((one_class, 2, r"\(3,2\) exceed n=2"),
                               (trivial_character(1, 4), 3,
                                r"\(1,4\) exceed n=3")):
            with pytest.raises(ValueError, match=text):
                cleared_specialization(table, n)
            with pytest.raises(ValueError, match=text):
                principal_specialization(table, n)

    def test_rows_per_partition_match_term_by_term(self):
        for n in range(1, 7):
            table = lefschetz_character(n)
            assert cleared_specialization(table, n) == \
                principal_specialization_by_terms(table, n), n
        # mixed classes: (2,1)|(1,1,1) and (1,1,1)|(2,1) share {2,1,1,1,1};
        # degrees below n: (2,3) at n = 5, (3,0) at n = 4, (0,0) at n = 2
        rng = random.Random(48)
        for m, l, n in ((3, 3, 3), (2, 3, 3), (3, 0, 3), (2, 3, 5),
                        (3, 0, 4), (0, 0, 2)):
            table = random_table(rng, m, l)
            assert cleared_specialization(table, n) == \
                principal_specialization_by_terms(table, n), (m, l, n)

    def test_one_division_per_partition(self, monkeypatch):
        # p(10) = 42 partitions of 10, each divided once through a fresh
        # cache; one division per multiset of parts took 480
        divisions = []
        exact_div = QPolynomial.exact_div

        def counted(self, other):
            divisions.append(other)
            return exact_div(self, other)
        monkeypatch.setattr(QPolynomial, "exact_div", counted)
        monkeypatch.setattr(symfrob, "_specialized", lru_cache(maxsize=None)(
            symfrob._specialized.__wrapped__))
        assert verify_specialization_identity(10)
        assert 0 < len(divisions) <= len(partitions_of(10)) == 42

    def test_specializing_the_alternating_identity_recovers_the_polynomial_one(self):
        # term by term: ps(h_(n-i)(x) h_(n-i)(y) ch_i) times prod (1-q^j)^2
        # is the polynomial [n choose i]_q^2 W_i(q), so specializing the
        # symmetric-function residual and clearing denominators reproduces
        # the alternating Gaussian-square residual exactly
        from qsegre.permstats import q_binomial_square
        for n in (2, 3):
            for i in range(n + 1):
                ch = lefschetz_character(i) if i else trivial_character(0, 0)
                term = symfrob._product_values(
                    trivial_character(n - i, n - i), ch)
                expected_poly = q_binomial_square(n, i) * w_polynomial(i)
                assert principal_specialization(term, n) == expected_poly


# every size tuple with k+m and l+n at most the induction bound
BOUND_SIZES = [(k, l, m, n) for k in range(INDUCTION_BOUND + 1)
               for m in range(INDUCTION_BOUND + 1 - k)
               for l in range(INDUCTION_BOUND + 1)
               for n in range(INDUCTION_BOUND + 1 - l)]


class TestInductionHomomorphism:
    def test_smallest_case_and_its_common_value(self):
        assert verify_induction_homomorphism(1, 1, 1, 1)
        t = trivial_character(1, 1)
        induced = induce_product_character(t, t)
        assert characteristic(induced) == {((1, 1), (1, 1)): 1}

    def test_mixed_sign_and_trivial_sizes(self):
        assert verify_induction_homomorphism(2, 1, 1, 2)

    def test_specific_sign_tensor_case(self):
        # the sign character of S_2 beside the trivial one of S_1
        sign = {(mu, (1,)): (-1) ** (2 - len(mu)) for mu in partitions_of(2)}
        triv = trivial_character(1, 2)
        induced = induce_product_character(sign, triv)
        assert characteristic(induced) == \
            sf_product(characteristic(sign), characteristic(triv))

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
        rng = random.Random(26)
        for k, l, m, n in ((0, 1, 2, 0), (1, 1, 1, 1), (2, 1, 2, 3),
                           (3, 2, 2, 3), (1, 4, 4, 1)):
            t, u = random_table(rng, k, l), random_table(rng, m, n)
            product = sf_product(characteristic(t), characteristic(u))
            cleared = symfrob._product_values(t, u)
            assert set(cleared) == {(mu, lam) for mu in partitions_of(k + m)
                                    for lam in partitions_of(l + n)}
            for (mu, lam), v in cleared.items():
                assert v == product.get((mu, lam), 0) * z_of(mu) * z_of(lam)

    def test_a_wrong_split_count_is_refused(self, monkeypatch):
        # each split count must be z_mu / (z_a z_b); the cache is bypassed
        monkeypatch.setattr(symfrob, "comb", lambda n, k: 1)
        with pytest.raises(ArithmeticError, match="is not 1"):
            symfrob._cycle_splits.__wrapped__((2, 1, 1))

    def test_a_wrong_induced_table_fails_at_every_size(self, monkeypatch):
        monkeypatch.setattr(symfrob, "_conjugation_profile",
                            profile_with_one_count_off())
        for k in range(4):
            for m in range(4 - k):
                for l in range(4):
                    for n in range(4 - l):
                        assert not verify_induction_homomorphism(k, l, m, n)

    def test_a_wrong_conjugation_count_fails_the_check(self, monkeypatch):
        # drop the two conjugators that keep the identity of S_2 in S_1 x S_1;
        # the true profile is built through the cache-free __wrapped__
        profile = symfrob._conjugation_profile.__wrapped__

        def short_profile(first, second, mu):
            counts = profile(first, second, mu)
            if (first, second, mu) == (1, 1, (1, 1)):
                del counts[((1,), (1,))]
            return counts
        monkeypatch.setattr(symfrob, "_conjugation_profile", short_profile)
        for sizes in ((1, 1, 1, 1), (1, 0, 1, 0), (1, 2, 1, 1), (2, 1, 1, 1)):
            assert not verify_induction_homomorphism(*sizes), sizes

    def test_a_wrong_induced_class_fails_the_check(self, monkeypatch):
        # the two conjugators that take the identity of S_2 into S_1 x S_1,
        # with blocks (1)|(1), filed under the class (2) of S_2, not (1,1):
        # the count is still 2, on a different class
        profile = symfrob._conjugation_profile.__wrapped__

        def moved_class(first, second, mu):
            if (first, second) == (1, 1):
                return {((1,), (1,)): 2} if mu == (2,) else {}
            return profile(first, second, mu)
        monkeypatch.setattr(symfrob, "_conjugation_profile", moved_class)
        assert not verify_induction_homomorphism(1, 1, 1, 1)
        assert not induction_homomorphism_by_tables(1, 1, 1, 1)
        assert verify_induction_homomorphism(1, 0, 0, 1)

    def test_bound_is_checked_before_any_table(self, monkeypatch):
        def fail_if_called(*args, **kwargs):
            raise AssertionError("work started before the bound check")
        for name in ("_table", "_by_blocks", "_class_pairs",
                     "partitions_of", "_conjugation_profile", "_cycle_splits"):
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

    def test_the_structure_constants_give_the_tables_verdict(self,
                                                             monkeypatch):
        # the whole induced and product tables per pair of indicators, as
        # dicts, at every size the bound admits: the same verdict with the
        # true kernels, and False from both with one induced count off
        for sizes in BOUND_SIZES:
            assert verify_induction_homomorphism(*sizes), sizes
            assert induction_homomorphism_by_tables(*sizes), sizes
        monkeypatch.setattr(symfrob, "_conjugation_profile",
                            profile_with_one_count_off())
        for sizes in BOUND_SIZES:
            assert not verify_induction_homomorphism(*sizes), sizes
            assert not induction_homomorphism_by_tables(*sizes), sizes

    def test_a_scale_on_one_alphabet_and_its_inverse_on_the_other_fails(
            self, monkeypatch):
        # counts doubled on S_1 x S_1 and halved on S_2 x S_0: at sizes
        # (1,2,1,0) every product of an x count with a y count is the true
        # one, so the tables of the two alphabets at once agree; the x
        # alphabet alone does not
        monkeypatch.setattr(symfrob, "_conjugation_profile",
                            profiles_scaled_inversely())
        assert induction_homomorphism_by_tables(1, 2, 1, 0)
        assert not verify_induction_homomorphism(1, 2, 1, 0)
        assert verify_induction_homomorphism(1, 0, 0, 1)



# every size with k+m and l+n at most 4, and a few at the induction bound 5
SPARSE_SIZES = [(k, l, m, n) for k in range(5) for m in range(5 - k)
                for l in range(5) for n in range(5 - l)] + [
    (2, 3, 3, 2), (1, 0, 4, 5), (5, 2, 0, 3), (3, 3, 2, 2)]


class TestSparseTables:
    def test_the_sparse_tables_equal_the_dense_ones(self):
        # dense, sparse and zero tables, negative entries included
        rng = random.Random(30)
        for k, l, m, n in SPARSE_SIZES:
            for density in (1.0, 0.3, 0.0):
                t, u = (
                    {key: v if rng.random() < density else 0
                     for key, v in random_table(rng, *sizes).items()}
                    for sizes in ((k, l), (m, n)))
                assert (symfrob._product_values(t, u)
                        == product_values_dense(t, u)), (k, l, m, n)
                assert (induce_product_character(t, u)
                        == induce_product_character_dense(t, u)), (k, l, m, n)

    def test_a_non_integral_table_is_refused_alike(self):
        # an integer table induces to an integer one, so only a table of
        # fractions reaches the integrality refusal
        rng = random.Random(31)
        for k, l, m, n in ((1, 0, 1, 0), (2, 1, 2, 1), (2, 3, 3, 2)):
            t = {key: Fraction(v, 7) for key, v
                 in random_table(rng, k, l, 1, 7).items()}
            u = random_table(rng, m, n, 1, 4)
            for induce in (induce_product_character,
                           induce_product_character_dense):
                with pytest.raises(ArithmeticError,
                                   match="^induced character value is not "
                                         "integral$"):
                    induce(t, u)

