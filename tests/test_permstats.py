import pytest

from qsegre.exactalg import ONE, QPolynomial, q_factorial
from qsegre.permstats import (ENUMERATION_BOUND, RECURRENCE_BOUND,
                              csv_recurrence, q_binomial,
                              verify_q_csv_identity, w_polynomial,
                              w_polynomial_recurrence)

import itertools
import math

from qsegre import permstats

from oracles import (Permutation, ascent_set, enumerate_no_common_ascent,
                     has_common_ascent, inversions, perm_stats,
                     w_polynomial_by_listing, w_polynomial_by_pair_scan)


def perm(*image):
    return Permutation(image)


class TestPermutation:
    def test_rejects_non_bijections(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    def test_empty_permutation_is_allowed(self):
        assert len(Permutation(())) == 0

    def test_inversions(self):
        assert inversions(perm(1, 2, 3, 4)) == 0
        assert inversions(perm(3, 2, 1)) == 3
        assert inversions(perm(2, 3, 1)) == 2

    def test_ascent_set(self):
        assert ascent_set((1, 2, 3, 4)) == {1, 2, 3}
        assert ascent_set((3, 2, 1)) == set()
        assert ascent_set((2, 1, 3)) == {2}

    def test_inversions_plus_reversed_is_max(self):
        for n in range(6):
            for image in itertools.permutations(range(1, n + 1)):
                total = inversions(Permutation(image)) + inversions(Permutation(image[::-1]))
                assert total == n * (n - 1) // 2


class TestPairs:
    """The pair-scan oracle that the ascent-class enumeration of W_n is
    checked against."""

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            has_common_ascent(perm(1), perm(1, 2))

    def test_common_ascent_examples(self):
        assert not has_common_ascent(perm(1, 2), perm(2, 1))
        assert has_common_ascent(perm(1, 2), perm(1, 2))
        assert not has_common_ascent(perm(2, 1), perm(2, 1))

    def test_enumeration_small_counts(self):
        assert len(enumerate_no_common_ascent(0)) == 1
        assert len(enumerate_no_common_ascent(1)) == 1
        assert len(enumerate_no_common_ascent(2)) == 3
        assert len(enumerate_no_common_ascent(3)) == 19

    def test_pair_set_for_n2_matches_hand_list(self):
        pairs = {(a.image, b.image) for a, b in enumerate_no_common_ascent(2)}
        assert pairs == {((1, 2), (2, 1)), ((2, 1), (1, 2)), ((2, 1), (2, 1))}

    def test_every_enumerated_pair_has_no_common_ascent(self):
        for a, b in enumerate_no_common_ascent(3):
            assert not any(a.image[i] < a.image[i + 1] and b.image[i] < b.image[i + 1]
                           for i in range(2))

    def test_bound_is_enforced_with_named_limit(self):
        with pytest.raises(ValueError, match=str(ENUMERATION_BOUND)):
            w_polynomial(ENUMERATION_BOUND + 1)


class TestWPolynomial:
    def test_reference_values(self):
        assert w_polynomial(0) == ONE
        assert w_polynomial(1) == ONE
        assert w_polynomial(2) == QPolynomial([0, 2, 1])
        assert w_polynomial(3) == QPolynomial([0, 0, 2, 6, 6, 4, 1])

    def test_matches_direct_pair_sum(self):
        # independent oracle: sum q^(inv+inv) over the materialized pair list
        for n in range(5):
            coeffs = [0] * (n * (n - 1) + 1)
            for a, b in enumerate_no_common_ascent(n):
                coeffs[inversions(a) + inversions(b)] += 1
            assert w_polynomial(n) == QPolynomial(coeffs)

    def test_ascent_classes_match_the_pair_scan(self):
        for n in range(7):
            assert w_polynomial(n) == w_polynomial_by_pair_scan(n)

    def test_ascent_classes_match_the_pair_scan_at_seven(self):
        assert w_polynomial(7) == w_polynomial_by_pair_scan(7)

    def test_insertion_count_matches_the_listing(self):
        # one past the enumeration bound, where w_polynomial refuses
        for n in range(9):
            assert permstats._w_polynomial_by_insertion(n) == \
                w_polynomial_by_listing(n)

    def test_insertion_count_matches_the_recurrence_seeded_by_one(self):
        # no q-binomial enters the count, so the recurrence from W_0 alone
        # is an independent route
        by_recurrence = csv_recurrence([ONE], 12)
        for n in range(13):
            assert permstats._w_polynomial_by_insertion(n) == by_recurrence[n]

    def test_coefficients_are_ints(self):
        for n in range(8):
            assert all(type(c) is int for c in w_polynomial(n).coeffs)
        assert all(type(c) is int for c in w_polynomial_recurrence(10).coeffs)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            w_polynomial_recurrence(-1)

    def test_value_at_one_counts_the_pairs(self):
        for n in range(5):
            assert w_polynomial(n).evaluate(1) == len(enumerate_no_common_ascent(n))
            assert w_polynomial_by_pair_scan(n).evaluate(1) == \
                len(enumerate_no_common_ascent(n))


class TestQBinomial:
    def test_edge_and_small_cases(self):
        assert q_binomial(5, 0) == ONE
        assert q_binomial(5, 5) == ONE
        assert q_binomial(2, 1) == QPolynomial([1, 1])
        assert q_binomial(4, 2) == QPolynomial([1, 1, 2, 1, 1])

    def test_symmetry_and_value_at_one(self):
        from math import comb
        for n in range(7):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)
                assert q_binomial(n, k).evaluate(1) == comb(n, k)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            q_binomial(3, 4)
        with pytest.raises(ValueError):
            q_binomial(3, -1)

    def test_matches_q_factorial_quotient(self):
        for n in range(13):
            for k in range(n + 1):
                quotient = q_factorial(n).exact_div(q_factorial(k) * q_factorial(n - k))
                assert q_binomial(n, k) == quotient

    def test_coefficients_are_ints(self):
        for n in range(13):
            assert all(type(c) is int for c in q_factorial(n).coeffs)
            for k in range(n + 1):
                assert all(type(c) is int for c in q_binomial(n, k).coeffs)

    def test_pascal_recurrence(self):
        # the rule q_binomial is built by; the q-factorial quotient above is
        # the independent route
        for n in range(1, 9):
            for k in range(1, n):
                q_to_the_k = QPolynomial([0] * k + [1])
                recurrence = q_binomial(n - 1, k - 1) + q_to_the_k * q_binomial(n - 1, k)
                assert q_binomial(n, k) == recurrence

    def test_pascal_rule_multiplies_by_no_packing(self, monkeypatch):
        # the product by q^k is a shift, so no factor is ever packed, not
        # even at the bound where the factors are long
        from qsegre import exactalg

        def refuse(*args):
            raise AssertionError("q_binomial packed a factor")
        monkeypatch.setattr(exactalg, "pack", refuse)
        permstats._q_pascal.cache_clear()
        try:
            value = q_binomial(100, 50)
        finally:
            permstats._q_pascal.cache_clear()
        assert value.degree == 50 * 50
        assert value.evaluate(1) == math.comb(100, 50)


class TestIdentities:
    def test_alternating_identity_residual_is_zero(self):
        for n in range(1, 6):
            assert verify_q_csv_identity(n).is_zero()

    def test_identity_requires_positive_n(self):
        with pytest.raises(ValueError):
            verify_q_csv_identity(0)

    def test_identity_beyond_the_bound_does_no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the bound check")
        monkeypatch.setattr(permstats, "q_binomial", fail)
        monkeypatch.setattr(permstats, "w_polynomial", fail)
        with pytest.raises(ValueError, match="bound 7"):
            verify_q_csv_identity(ENUMERATION_BOUND + 1)

    def test_inversion_distribution_is_q_factorial(self):
        for n in range(7):
            coeffs = [0] * (n * (n - 1) // 2 + 1)
            for _, inv in perm_stats(n):
                coeffs[inv] += 1
            assert QPolynomial(coeffs) == q_factorial(n)

    def test_recurrence_reproduces_enumeration(self):
        for n in range(7):
            assert w_polynomial_recurrence(n) == w_polynomial(n)

    def test_recurrence_extends_past_the_bound(self):
        beyond = csv_recurrence([w_polynomial(n) for n in range(4)], 5)[5]
        assert beyond == w_polynomial(5)

    def test_omega_recurrence_cross_validates_enumeration(self):
        # the recurrence seeded only with W_0 = 1, at q = 1
        assert omega_by_recurrence(2) == 3
        for n in range(6):
            assert omega_by_recurrence(n) == len(enumerate_no_common_ascent(n))

    def test_omega_sequence_prefix(self):
        assert [omega_by_recurrence(n) for n in range(8)] == \
            [1, 1, 3, 19, 211, 3651, 90921, 3081513]

    def test_recurrence_bound_is_refused_before_any_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the bound check")
        for name in ("_w_polynomial_by_insertion", "csv_recurrence",
                     "q_binomial_square"):
            monkeypatch.setattr(permstats, name, fail)
        with pytest.raises(ValueError, match=r"^n=51 exceeds the recurrence "
                                             r"bound 50$"):
            w_polynomial_recurrence(RECURRENCE_BOUND + 1)


def omega_by_recurrence(n: int) -> int:
    return csv_recurrence([ONE], n)[n].evaluate(1)
