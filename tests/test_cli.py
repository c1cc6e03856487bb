import argparse
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from math import comb, factorial

import pytest

from qsegre import permstats, symfrob
from qsegre.cli import build_parser, main
from qsegre.exactalg import ONE, QPolynomial
from qsegre.subspace import prime_power

from oracles import cover_labels, el_check_by_intervals, relabel


class TestPrimePower:
    def test_accepts_prime_powers(self):
        assert prime_power(2) == (2, 1)
        assert prime_power(9) == (3, 2)
        assert prime_power(16) == (2, 4)

    def test_rejects_composites_with_two_primes(self):
        for q in (1, 6, 12, 15):
            with pytest.raises(ValueError):
                prime_power(q)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputationCommands:
    def test_wq_matches_reference_polynomial(self, capsys):
        code, out, _ = run(capsys, "wq", "--n", "3")
        assert code == 0
        assert json.loads(out) == ["0", "0", "2", "6", "6", "4", "1"]

    def test_wq_trivial_case(self, capsys):
        code, out, _ = run(capsys, "wq", "--n", "0")
        assert code == 0 and json.loads(out) == ["1"]

    def test_wq_evaluation(self, capsys):
        code, out, _ = run(capsys, "wq", "--n", "2", "--at", "2")
        assert code == 0 and out.strip() == "8"

    def test_wq_beyond_bound_is_labeled(self, capsys):
        code, out, err = run(capsys, "wq", "--n", "8", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "recurrence"
        assert err == "note: W_8(q) is recurrence-derived (enumeration bound 7)\n"
        code, out, err = run(capsys, "wq", "--n", "7", "--json")
        assert (code, json.loads(out)["method"], err) == (0, "enumeration", "")

    def test_qbinom(self, capsys):
        code, out, _ = run(capsys, "qbinom", "--n", "4", "--k", "2")
        assert code == 0 and json.loads(out) == ["1", "1", "2", "1", "1"]

    def test_bessel_document(self, capsys):
        code, out, _ = run(capsys, "bessel", "--order", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 2
        assert doc["checks"] == [True, True, True]
        assert doc["f_inv"][2] == {"num": ["0", "2", "1"], "den": ["1", "2", "1"]}

    def test_lattice_chains_json(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "2", "--q", "2",
                           "--chains", "--check-el", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chains"]["words"] == {"12": 1, "21": 2}
        assert doc["el"]["pass"] is True
        assert doc["poset"]["ranks"].count(1) == 3

    def test_segre_chain_words_use_pair_syntax(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "2", "--q", "2",
                           "--segre", "--chains", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["chains"]["descending"] == 8
        assert "1,1|2,2" in doc["chains"]["words"]

    def test_mobius_and_betti(self, capsys):
        code, out, _ = run(capsys, "mobius", "--n", "3", "--q", "2", "--segre")
        assert code == 0 and out.strip() == "-344"
        code, out, _ = run(capsys, "betti", "--n", "3", "--q", "2", "--segre")
        assert code == 0 and json.loads(out) == [0, 344]

    def test_frobenius_document(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--n", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["character"]["1,1|1,1"] == 3
        assert doc["ch"]["2|2"] == "-1/4"
        assert doc["ps"].startswith("(q^2+2*q)")

    def test_invalid_prime_power_is_an_error(self, capsys):
        code, _, err = run(capsys, "lattice", "--n", "2", "--q", "6")
        assert code == 2 and "prime power" in err

    def test_lowered_count_bound_is_a_clean_error(self, capsys):
        code, _, err = run(capsys, "lattice", "--n", "4", "--q", "2",
                           "--count-bound", "10")
        assert code == 2 and "exceed the bound" in err

    def test_raised_bounds_warn_about_runtime(self, capsys):
        code, _, err = run(capsys, "lattice", "--n", "2", "--q", "2",
                           "--count-bound", "200000")
        assert code == 0 and "long runtime" in err


def assert_clean_rejection(code, out, err):
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


class TestBoundsBeforeWork:
    def test_wq_takes_no_enumeration_bound(self, capsys):
        # the enumeration bound is fixed: W_8 and W_9 by enumeration are the
        # polynomials the recurrence returns
        with pytest.raises(SystemExit) as exit_info:
            main(["wq", "--n", "3", "--bound", "3"])
        _, err = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --bound 3" in err

    def test_verify_csv_beyond_bound_does_no_work(self, capsys, monkeypatch):
        for name in ("_w_polynomial_by_insertion", "q_binomial",
                     "w_polynomial"):
            monkeypatch.setattr(permstats, name, fail_if_called)
        code, out, err = run(capsys, "verify", "csv", "--n", "8")
        assert_clean_rejection(code, out, err)
        assert "bound 7" in err

    def test_bessel_beyond_bound_does_no_work(self, capsys, monkeypatch):
        from qsegre import besselseries
        for name in ("bessel_coefficients", "csv_recurrence", "w_polynomial"):
            monkeypatch.setattr(besselseries, name, fail_if_called)
        monkeypatch.setattr(permstats, "_w_polynomial_by_insertion",
                            fail_if_called)
        for argv in (("bessel", "--order", "8"),
                     ("verify", "bessel", "--order", "8", "--json")):
            code, out, err = run(capsys, *argv)
            assert_clean_rejection(code, out, err)
            assert "bound 7" in err

    def test_bessel_refusals_name_the_order(self, capsys):
        for argv in (("bessel", "--order", "8"),
                     ("verify", "bessel", "--order", "8", "--json")):
            code, out, err = run(capsys, *argv)
            assert_clean_rejection(code, out, err)
            assert err == "error: order=8 exceeds the enumeration bound 7\n"
        for argv in (("bessel", "--order", "-1"),
                     ("verify", "bessel", "--order", "-1")):
            code, out, err = run(capsys, *argv)
            assert_clean_rejection(code, out, err)
            assert err == "error: order must be nonnegative\n"

    def test_field_order_beyond_bound_is_refused_before_factoring(
            self, capsys, monkeypatch):
        import time
        from qsegre import subspace
        monkeypatch.setattr(subspace, "FiniteField", fail_if_called)
        for q in ("17", "100000007", "1000000007"):
            start = time.perf_counter()
            code, out, err = run(capsys, "mobius", "--n", "2", "--q", q)
            assert time.perf_counter() - start < 1.0
            assert_clean_rejection(code, out, err)
            assert err == f"error: field order {q} exceeds the bound 16\n"

    def test_segre_square_beyond_bound_does_no_work(self, capsys, monkeypatch):
        # refused on its pair count before the field is built, from every
        # verb that builds a square
        from qsegre import subspace
        monkeypatch.setattr(subspace, "FiniteField", fail_if_called)
        monkeypatch.setattr(subspace, "_Lanes", fail_if_called)
        for argv, pairs in ((("lattice", "--n", "4", "--q", "4", "--segre"),
                             141901),
                            (("verify", "mobius", "--n", "4", "--q", "4"),
                             141901),
                            (("verify", "el", "--n", "3", "--q", "16",
                              "--segre"), 149060)):
            code, out, err = run(capsys, *argv)
            assert_clean_rejection(code, out, err)
            assert err == (f"error: {pairs} pairs of the Segre square exceed "
                           f"the bound 100000\n")

    @pytest.mark.parametrize("q", ["2", "16"])
    def test_large_n_is_refused_from_bit_lengths(self, capsys, monkeypatch, q):
        # the exact total has about n^2 log q bits: at n = 250 its decimal
        # string passed Python's conversion limit, and at n = 2000 summing
        # it took minutes
        import time
        from qsegre import subspace
        monkeypatch.setattr(subspace, "_gaussian_count", fail_if_called)
        for n in (250, 2000, 10 ** 12):
            e = (n // 2) * ((n + 1) // 2)
            for flag, what, power in (((), "subspaces", 1),
                                      (("--segre",),
                                       "pairs of the Segre square", 2)):
                start = time.perf_counter()
                code, out, err = run(capsys, "lattice", "--n", str(n),
                                     "--q", q, *flag)
                assert time.perf_counter() - start < 1.0
                assert_clean_rejection(code, out, err)
                assert len(err) < 200
                assert err == (f"error: at least {q}^{power * e} {what} exceed "
                               "the bound 100000\n")

    def test_a_raised_count_bound_prints_no_count_past_the_digit_limit(
            self, capsys, monkeypatch):
        # Python converts ints of at most 4300 digits to str.  At (169, 2)
        # the square's q^e = 2^14280 is within a 4300-digit bound, and the
        # exact total, about 25 q^e, has 4301 digits
        bound = "9" * 4300
        code, out, err = run(capsys, "lattice", "--n", "169", "--q", "2",
                             "--segre", "--count-bound", bound)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            f"error: more than {bound} pairs of the Segre square exceed "
            f"the bound {bound}")
        # at (238, 3), q^e = 3^14161 is over a 4299-digit bound but e bits
        # are not: the exact total has about 6800 digits, and summing it
        # took most of a second
        import time
        from qsegre import subspace
        monkeypatch.setattr(subspace, "_gaussian_count", fail_if_called)
        bound = "9" * 4299
        start = time.perf_counter()
        code, out, err = run(capsys, "lattice", "--n", "238", "--q", "3",
                             "--count-bound", bound)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        warning, error = err.splitlines()
        assert warning.startswith("warning: subspace count bound raised")
        assert error == f"error: at least 3^14161 subspaces exceed the bound {bound}"

    def test_negative_count_bound_does_no_work(self, capsys, monkeypatch):
        from qsegre import subspace
        monkeypatch.setattr(subspace, "FiniteField", fail_if_called)
        monkeypatch.setattr(subspace, "_Lanes", fail_if_called)
        for verb, extra in (("lattice", ()), ("lattice", ("--segre",)),
                            ("mobius", ()), ("betti", ("--segre",))):
            code, out, err = run(capsys, verb, "--n", "3", "--q", "4",
                                 "--count-bound", "-5", *extra)
            assert_clean_rejection(code, out, err)
            assert err == ("error: the subspace count bound must be "
                           "nonnegative, got -5\n")

    def test_homology_degree_outside_the_bound_does_no_work(
            self, capsys, monkeypatch):
        for name in ("lefschetz_character", "_table",
                     "cleared_specialization", "w_polynomial_recurrence"):
            monkeypatch.setattr(symfrob, name, fail_if_called)
        for check in ("thm31", "thm48"):
            for n, text in (("0", "n must be at least 1"),
                            ("-1", "n must be at least 1"),
                            ("11", "n=11 exceeds the homology bound 10")):
                code, out, err = run(capsys, "verify", check, "--n", n)
                assert_clean_rejection(code, out, err)
                assert err == f"error: {text}\n"

    def test_suite_arguments_are_refused_before_any_check(
            self, capsys, monkeypatch):
        from qsegre import suite
        monkeypatch.setattr(suite, "_run_suite", fail_if_called)
        monkeypatch.setattr(suite, "_suite_tasks", fail_if_called)
        monkeypatch.setattr(suite, "_run", fail_if_called)
        monkeypatch.setattr(os, "fork", fail_if_called)
        for argv, text in ((("--max-n", "0"), "max-n must be at least 1"),
                           (("--max-n", "-2"), "max-n must be at least 1"),
                           (("--max-n", "11", "--threads", "2"),
                            "max-n=11 exceeds the homology bound 10"),
                           (("--threads", "0"), "threads must be at least 1"),
                           (("--threads", "-3", "--json"),
                            "threads must be at least 1")):
            code, out, err = run(capsys, "verify", "all", *argv)
            assert_clean_rejection(code, out, err)
            assert err == f"error: {text}\n"


    def test_order_complex_beyond_the_face_bound_lists_no_chain(
            self, capsys, monkeypatch):
        # the proper part of the (4,3) square has 5157700 faces
        from qsegre import morse, poset
        monkeypatch.setattr(poset, "_chains_by_level_set", fail_if_called)
        monkeypatch.setattr(morse, "_segre_matching", fail_if_called)
        code, out, err = run(capsys, "betti", "--n", "4", "--q", "3",
                             "--segre", "--json")
        assert_clean_rejection(code, out, err)
        assert err == ("error: 5157700 faces of the order complex exceed "
                       "the bound 500000\n")

    def test_order_complex_beyond_the_face_bound_builds_no_lattice(
            self, capsys, monkeypatch):
        # the face count comes from Gaussian counts; the subspace count
        # bound is still refused first, with its own line
        from qsegre import subspace
        monkeypatch.setattr(subspace, "_Lanes", fail_if_called)
        for argv, text in (
                (("--n", "4", "--q", "3", "--segre"),
                 "5157700 faces of the order complex exceed the bound 500000"),
                (("--n", "6", "--q", "2"),
                 "2257887 faces of the order complex exceed the bound 500000"),
                (("--n", "4", "--q", "4", "--segre"),
                 "141901 pairs of the Segre square exceed the bound 100000"),
                (("--n", "3", "--q", "12", "--segre"), "12 is not a prime power")):
            code, out, err = run(capsys, "betti", *argv)
            assert_clean_rejection(code, out, err)
            assert err == f"error: {text}\n"

    def test_wq_beyond_the_recurrence_bound_does_no_work(
            self, capsys, monkeypatch):
        for name in ("_w_polynomial_by_insertion", "csv_recurrence",
                     "q_binomial_square"):
            monkeypatch.setattr(permstats, name, fail_if_called)
        for argv in (("--n", "51"), ("--n", "2000", "--json")):
            code, out, err = run(capsys, "wq", *argv)
            assert_clean_rejection(code, out, err)
            assert err == (f"error: n={argv[1]} exceeds the recurrence "
                           f"bound 50\n")

    def test_qbinom_beyond_its_bound_does_no_work(self, capsys, monkeypatch):
        # unbounded, the q-Pascal rule recursed n deep (n=3000 ended in a
        # RecursionError) and its cache grew about as n^4
        monkeypatch.setattr(permstats, "_q_pascal", fail_if_called)
        assert permstats.Q_BINOMIAL_BOUND == 100
        for n, k in (("101", "50"), ("200", "100"), ("3000", "1500")):
            code, out, err = run(capsys, "qbinom", "--n", n, "--k", k,
                                 "--at", "1")
            assert_clean_rejection(code, out, err)
            assert err == f"error: n={n} exceeds the q-binomial bound 100\n"
        monkeypatch.setattr(permstats, "_q_pascal", lambda n, k: ONE)
        code, out, err = run(capsys, "qbinom", "--n", "100", "--k", "50")
        assert (code, out, err) == (0, '["1"]\n', "")

    def test_the_pool_gets_no_more_workers_than_tasks(
            self, capsys, monkeypatch):
        # the runner forks every worker before any answers, so an uncapped
        # --threads 100000 would ask for 99999 processes; this recorder
        # stands in for the runner, starts no process and runs the tasks
        # here, in order
        from qsegre import suite
        processes = []

        def recording_runner(tasks, count):
            processes.append(count)
            return [task() for task in tasks]

        monkeypatch.setattr(suite, "_run", recording_runner)
        for threads in ("100000", "9", "2"):
            code, out, err = run(capsys, "verify", "all", "--max-n", "1",
                                 "--threads", threads)
            assert code == 0 and err == "" and out.count("PASS") == 9
        assert processes == [9, 9, 2]


def fail_if_called(*args, **kwargs):
    raise AssertionError("work started before the bound check")


class TestErrorHandling:
    def test_arithmetic_error_is_a_clean_error(self, capsys, monkeypatch):
        def not_integral(*args, **kwargs):
            raise ArithmeticError("induced character value is not integral")
        monkeypatch.setattr(symfrob, "verify_induction_homomorphism", not_integral)
        code, out, err = run(capsys, "verify", "prop26", "--sizes", "1,1,1,1")
        assert_clean_rejection(code, out, err)
        assert "not integral" in err


class TestBrokenInduction:
    def test_a_wrong_induced_table_fails_prop26_and_the_suite(
            self, capsys, monkeypatch):
        from oracles import profile_with_one_count_off
        monkeypatch.setattr(symfrob, "_conjugation_profile",
                            profile_with_one_count_off())
        code, out, err = run(capsys, "verify", "prop26", "--sizes", "1,1,1,1")
        assert (code, out, err) == (1, "FAIL prop26: sizes (1,1,1,1)\n", "")
        code, out, err = run(capsys, "verify", "all", "--max-n", "1")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert lines[-1] == "FAIL prop26: sizes (0,0,0,0)"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_a_scale_on_one_alphabet_fails_prop26(self, capsys, monkeypatch):
        # doubled on S_1 x S_1, halved on S_2 x S_0: the products of the
        # two alphabets' counts are all true at (1,2,1,0), the x ones not
        from oracles import profiles_scaled_inversely
        monkeypatch.setattr(symfrob, "_conjugation_profile",
                            profiles_scaled_inversely())
        code, out, err = run(capsys, "verify", "prop26", "--sizes", "1,2,1,0")
        assert (code, out, err) == (1, "FAIL prop26: sizes (1,2,1,0)\n", "")

    def test_the_check_builds_no_table(self, capsys, monkeypatch):
        # prop26 compares structure constants; a class-function table built
        # inside it, by _table or _product_values, is counted here
        built = []
        verify = symfrob.verify_induction_homomorphism
        inside = []

        def spy(name, function):
            def counted(*args):
                if inside:
                    built.append(name)
                return function(*args)
            return counted

        def checked(*sizes):
            inside.append(sizes)
            try:
                return verify(*sizes)
            finally:
                inside.pop()
        for name in ("_table", "_product_values"):
            monkeypatch.setattr(symfrob, name, spy(name, getattr(symfrob, name)))
        monkeypatch.setattr(symfrob, "verify_induction_homomorphism", checked)
        code, out, err = run(capsys, "verify", "prop26", "--sizes", "2,2,2,2")
        assert (code, out, err) == (0, "PASS prop26: sizes (2,2,2,2)\n", "")
        code, out, err = run(capsys, "verify", "all", "--max-n", "1")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("PASS prop26")
        assert built == []


class TestBrokenChains:
    """The suite's chains check fails on a word count off q^inv, and on a
    total off the q-factorial, at the first instance of its matrix."""

    def _suite_lines(self, capsys) -> list[str]:
        code, out, err = run(capsys, "verify", "all", "--max-n", "1")
        assert (code, err) == (1, "")
        return out.splitlines()

    def test_a_word_count_off_by_one_fails_the_check(self, capsys, monkeypatch):
        from qsegre import poset
        report = poset.chain_report

        def off_by_one(*args):
            words, increasing, descending = report(*args)
            words = dict(words)
            words[min(words)] += 1
            return words, increasing, descending
        monkeypatch.setattr(poset, "chain_report", off_by_one)
        lines = self._suite_lines(capsys)
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL chains: word counts differ from q^inv at n=2 q=2"]

    def test_a_total_off_the_q_factorial_fails_the_check(
            self, capsys, monkeypatch):
        from qsegre import exactalg
        q_factorial = exactalg.q_factorial
        monkeypatch.setattr(exactalg, "q_factorial",
                            lambda n: q_factorial(n) + exactalg.ONE)
        lines = self._suite_lines(capsys)
        assert [line for line in lines if not line.startswith("PASS")] == [
            "FAIL chains: total chains != q-factorial at n=2 q=2"]


class TestBrokenLabeling:
    def test_an_el_failure_names_its_interval(self, capsys, monkeypatch):
        # the labels 1 and 2 on the chain through the atom <(1,0)> of B_2(2)
        # swapped, so that no chain of the whole lattice is increasing
        from qsegre import cli
        p, _ = cli._lattice(2, 2, 1, None)
        bottom, top = p.bottom, p.top
        atom = p.names.index(((1, 0),))
        swapped = cover_labels(p)
        swapped[(bottom, atom)], swapped[(atom, top)] = (
            swapped[(atom, top)], swapped[(bottom, atom)])
        monkeypatch.setattr(cli, "_lattice",
                            lambda *args: (relabel(p, swapped), None))
        violation = "0 increasing maximal chains in [(), ((1, 0), (0, 1))]"
        code, out, err = run(capsys, "verify", "el", "--n", "2", "--q", "2")
        assert (code, out, err) == (
            1, f"FAIL el: lattice n=2 q=2: {violation}\n", "")
        code, out, err = run(capsys, "lattice", "--n", "2", "--q", "2",
                             "--check-el")
        assert (code, out.splitlines()[-1], err) == (
            1, f"  EL check: FAIL {violation}", "")
        code, out, err = run(capsys, "lattice", "--n", "2", "--q", "2",
                             "--check-el", "--json")
        assert (code, json.loads(out)["el"], err) == (
            1, {"pass": False, "violation": violation}, "")
        code, out, _ = run(capsys, "lattice", "--n", "2", "--q", "2", "--json")
        elements = json.loads(out)["poset"]["elements"]
        assert elements[bottom] == "()" and elements[top] == "((1, 0), (0, 1))"


@pytest.fixture
def fresh_lattices():
    """cli's lattice and field caches, empty before and after the test."""
    from qsegre import cli
    for cache in (cli._lattice, cli._field):
        cache.cache_clear()
    yield cli
    for cache in (cli._lattice, cli._field):
        cache.cache_clear()


def _with_swapped_factor(monkeypatch, atom_rows, above_rows):
    """Make build_bnq return B_n(q) with the labels of bottom < atom and
    atom < above swapped, and no coordinate subspaces, as a build that
    certifies no witness would; the square is then built from that
    factor."""
    from qsegre import subspace
    build = subspace.build_bnq

    def swapped(n, field, count_bound=None):
        p, _ = build(n, field, count_bound)
        swapped = cover_labels(p)
        low = (p.bottom, p.names.index(atom_rows))
        high = (low[1], p.names.index(above_rows))
        swapped[low], swapped[high] = swapped[high], swapped[low]
        return relabel(p, swapped), None
    monkeypatch.setattr(subspace, "build_bnq", swapped)


class TestBorelOrbitRoute:
    """EL from the coordinate subspaces e_S on B_n(q), and from their pairs
    on its square, one above each Borel orbit of intervals, against the
    full check."""

    @pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
    def test_the_orbit_route_matches_every_interval(
            self, fresh_lattices, monkeypatch, n, q):
        from qsegre import poset
        cli, pushed = fresh_lattices, []
        check = poset.check_el_labeling

        def spy(p, lows=None):
            pushed.append(lows)
            return check(p, lows)
        monkeypatch.setattr(poset, "check_el_labeling", spy)
        for power, lows in ((1, 2 ** n), (2, comb(2 * n, n))):
            p, found = cli._lattice(n, q, power, None)
            assert poset.check_el_labeling(p, found) == el_check_by_intervals(p)
            assert len(pushed.pop()) == lows and pushed == []

    def test_a_swap_off_the_symmetry_falls_back_to_every_element(
            self, fresh_lattices, monkeypatch, capsys):
        # <(1,1,1)> is in the orbit of <e_3>, so the swapped labels are not
        # B-invariant; a build that certifies no coordinate subspaces has
        # its lattice pushed from every element
        from qsegre import poset
        _with_swapped_factor(monkeypatch, ((1, 1, 1),), ((1, 0, 0), (0, 1, 1)))
        pushed = []
        check = poset.check_el_labeling
        monkeypatch.setattr(
            poset, "check_el_labeling",
            lambda p, lows=None: pushed.append(lows) or check(p, lows))
        violation = ("2 increasing maximal chains in [((), ()), "
                     "(((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1)))]")
        sp, _ = fresh_lattices._lattice(3, 2, 2, None)
        assert el_check_by_intervals(sp) == (False, violation)
        code, out, err = run(capsys, "verify", "el", "--n", "3", "--q", "2",
                             "--segre")
        assert (code, out, err) == (
            1, f"FAIL el: segre n=3 q=2: {violation}\n", "")
        assert pushed == [None]

    def test_a_symmetric_break_is_rerun_from_every_element(
            self, fresh_lattices, monkeypatch, capsys):
        # <e_1> < <e_1, e_2> is fixed by the group, so the swap keeps the
        # symmetry, but the build certifies no coordinate subspaces: every
        # element is pushed from at once, and the full check's first
        # offender is named
        from qsegre import poset
        _with_swapped_factor(monkeypatch, ((1, 0, 0),), ((1, 0, 0), (0, 1, 0)))
        sp, _ = fresh_lattices._lattice(3, 2, 2, None)
        starts = []
        push = poset._push_from
        monkeypatch.setattr(poset, "_push_from",
                            lambda up, lo, *rest: starts.append(lo)
                            or push(up, lo, *rest))
        violation = ("0 increasing maximal chains in [((), ()), "
                     "(((0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0)))]")
        assert el_check_by_intervals(sp) == (False, violation)
        code, out, err = run(capsys, "lattice", "--n", "3", "--q", "2",
                             "--segre", "--check-el")
        assert (code, out.splitlines()[-1], err) == (
            1, f"  EL check: FAIL {violation}", "")
        # the full push starts at element 0, the bottom pair, and stops there
        assert starts == [0]


class Forbidden(Exception):
    pass


def forbid(*args, **kwargs):
    raise Forbidden


class TestSegreFromTheFactor:
    """verify mobius, mobius --segre and the suite's mobius check read the
    square's mu and descending count off its factor: no square is built,
    and a square past the bound is refused with the square's own text."""

    def test_no_square_is_built(self, fresh_lattices, monkeypatch, capsys):
        from qsegre import poset, subspace, suite
        monkeypatch.setattr(poset, "segre_product", forbid)
        code, out, err = run(capsys, "verify", "mobius", "--n", "3", "--q", "2")
        assert (code, out, err) == (
            0, "PASS mobius: mu=-344 descending=344 expected W=344\n", "")
        code, out, err = run(capsys, "mobius", "--n", "3", "--q", "2",
                             "--segre")
        assert (code, out, err) == (0, "-344\n", "")
        assert suite._check_mobius()["status"] == "PASS"
        monkeypatch.setattr(subspace, "FiniteField", forbid)
        code, out, err = run(capsys, "verify", "mobius", "--n", "3", "--q", "16")
        assert (code, out, err) == (
            2, "", "error: 149060 pairs of the Segre square exceed the bound "
                   "100000\n")

    @pytest.mark.parametrize("n, q", [(3, 13), (5, 2)])
    def test_the_largest_admitted_squares(self, fresh_lattices, capsys, n, q):
        # squares of 66980 and 49974 pairs, the largest the pair bound of
        # 100000 admits at n = 3 and at q = 2: mu is (-1)^n W_n(q), and
        # verify mobius passes
        w_q = permstats.w_polynomial(n).evaluate(q)
        mu = (-1) ** n * w_q
        assert run(capsys, "mobius", "--n", str(n), "--q", str(q),
                   "--segre") == (0, f"{mu}\n", "")
        assert run(capsys, "verify", "mobius", "--n", str(n),
                   "--q", str(q)) == (
            0, f"PASS mobius: mu={mu} descending={w_q} expected W={w_q}\n",
            "")


class TestSegreBettiFromTheFactor:
    """betti --segre and the suite's betti check read the square's Betti
    numbers off its factor: no square is built."""

    def test_no_square_is_built(self, fresh_lattices, monkeypatch, capsys):
        from qsegre import poset
        monkeypatch.setattr(poset, "segre_product", forbid)
        for argv, name in (
                (("betti", "--n", "3", "--q", "3", "--segre"),
                 "betti_n3_q3_segre.out"),
                (("betti", "--n", "3", "--q", "5", "--segre", "--json"),
                 "betti_n3_q5_segre_json.out")):
            assert run(capsys, *argv) == (0, (GOLDEN / name).read_text(), "")

    def test_the_suite_builds_no_square_for_betti(
            self, fresh_lattices, monkeypatch, capsys):
        # the suite's EL check still builds its squares, so segre_product
        # is forbidden only while the betti check runs, on empty caches
        from qsegre import poset, suite
        check_betti = suite._check_betti

        def without_squares():
            fresh_lattices._lattice.cache_clear()
            with monkeypatch.context() as forbidden:
                forbidden.setattr(poset, "segre_product", forbid)
                return check_betti()
        monkeypatch.setattr(suite, "_check_betti", without_squares)
        assert run(capsys, "verify", "all", "--max-n", "4") == (
            0, (GOLDEN / "verify_all_max4.out").read_text(), "")

    @pytest.mark.parametrize("n", [0, 1])
    def test_a_square_without_a_proper_part(self, fresh_lattices, capsys, n):
        argv = ("betti", "--n", str(n), "--q", "2", "--segre")
        assert run(capsys, *argv) == (0, "[]\n", "")
        code, out, err = run(capsys, *argv, "--json")
        assert (code, json.loads(out), err) == (
            0, {"betti": [], "n": n, "q": 2, "segre": True}, "")


class TestSegreParsesIntoPower:
    """--segre is parsed straight into the power the kernels take: 2 for
    the Segre square, else 1, and no segre flag is left on the
    arguments."""

    @pytest.mark.parametrize("argv, power", [
        ((*verb, "--n", "2", "--q", "3", *flag), len(flag) + 1)
        for verb in (("lattice",), ("mobius",), ("betti",), ("verify", "el"))
        for flag in ((), ("--segre",))])
    def test_the_parsed_arguments_carry_the_power(self, argv, power):
        args = build_parser().parse_args(argv)
        assert args.power == power and type(args.power) is int
        assert not hasattr(args, "segre")

    def test_the_square_has_no_verb_of_its_own(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["segre", "--n", "2", "--q", "3"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == ""
        assert "invalid choice: 'segre'" in captured.err


class TestSegreTextFromTheFactor:
    """`lattice --segre` in text mode, without --check-el or --json, prints
    the square's counts and chains off its factor."""

    @pytest.mark.parametrize("n, q", [(0, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
    def test_the_line_is_the_built_squares(self, fresh_lattices, capsys,
                                           n, q):
        sp, _ = fresh_lattices._lattice(n, q, 2, None)
        line = (f"segre square n={n} q={q}: {len(sp)} elements, "
                f"rank sizes {sp.rank_sizes()}\n")
        assert run(capsys, "lattice", "--n", str(n), "--q", str(q),
                   "--segre") == (0, line, "")

    def test_no_square_is_built(self, fresh_lattices, monkeypatch, capsys):
        from qsegre import poset
        monkeypatch.setattr(poset, "segre_product", forbid)
        assert run(capsys, "lattice", "--n", "3", "--q", "7", "--segre") == (
            0, "segre square n=3 q=7: 6500 elements, rank sizes "
               "[1, 3249, 3249, 1]\n", "")
        assert run(capsys, "lattice", "--n", "2", "--q", "2", "--segre",
                   "--count-bound", "200000") == (
            0, "segre square n=2 q=2: 11 elements, rank sizes [1, 9, 1]\n",
            "warning: subspace count bound raised to 200000 (default "
            "100000); expect a long runtime\n")
        # the square's chain words are pairs of the factor's, zipped; the
        # text is the golden's without its EL line
        chains = (GOLDEN / "lattice_n3_q2_segre_chains_el.out").read_text()
        assert run(capsys, "lattice", "--n", "3", "--q", "2", "--segre",
                   "--chains") == (
            0, chains.removesuffix("  EL check: PASS\n"), "")
        for flag in ("--check-el", "--json"):
            with pytest.raises(Forbidden):
                main(["lattice", "--n", "2", "--q", "2", "--segre", flag])


class TestTheSquareIsBuiltOnce:
    """A square's EL check and interchange document, and a later `verify el
    --segre`, take it from _lattice's one cache; its text counts and
    chains build none."""

    def test_one_build_per_process(self, fresh_lattices, monkeypatch, capsys):
        from qsegre import poset
        build, built = poset.segre_product, []
        monkeypatch.setattr(poset, "segre_product",
                            lambda *factors: built.append(factors)
                            or build(*factors))
        argv = ("lattice", "--n", "2", "--q", "3", "--segre", "--chains")
        code, _, err = run(capsys, *argv)
        assert (code, err, built) == (0, "", [])
        assert run(capsys, *argv, "--check-el", "--json") == (
            0, (GOLDEN / "segre_n2_q3_chains_el_json.out").read_text(), "")
        assert len(built) == 1
        assert run(capsys, "verify", "el", "--n", "2", "--q", "3",
                   "--segre") == (
            0, "PASS el: segre n=2 q=3: every interval shellable\n", "")
        assert len(built) == 1


class TestOnlyWhatWasAsked:
    """The interchange document is built under --json alone."""

    @pytest.mark.parametrize("argv", [
        ("lattice", "--n", "2", "--q", "3", "--chains", "--check-el"),
        ("lattice", "--n", "2", "--q", "3", "--segre", "--chains",
         "--check-el"),
        ("lattice", "--n", "2", "--q", "2", "--segre", "--chains",
         "--check-el"),
    ])
    def test_text_mode_builds_no_document(self, monkeypatch, capsys, argv):
        from qsegre import poset
        monkeypatch.setattr(poset, "to_interchange", forbid)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "  EL check: PASS"
        with pytest.raises(Forbidden):
            main([*argv, "--json"])


class TestBrokenHomology:
    def test_a_wrong_homology_table_fails_thm31_and_thm48(
            self, capsys, monkeypatch):
        # the degree-3 character with its (3)|(3) entry raised by one
        true_table = symfrob.lefschetz_character

        def raised_at_three(n):
            table = true_table(n)
            if n == 3:
                table = dict(table)
                table[((3,), (3,))] += 1
            return table
        monkeypatch.setattr(symfrob, "lefschetz_character", raised_at_three)
        code, out, err = run(capsys, "verify", "thm31", "--n", "3")
        assert (code, out, err) == (
            1, "FAIL thm31: n=3: z-cleared residual 3|3: -1\n", "")
        code, out, err = run(capsys, "verify", "thm48", "--n", "3")
        assert (code, out, err) == (1, "FAIL thm48: n=3\n", "")


class TestVerifyCommands:
    def test_verify_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "csv", "--n", "4")
        assert code == 0 and out.startswith("PASS")

    def test_verify_bessel(self, capsys):
        code, out, _ = run(capsys, "verify", "bessel", "--order", "3")
        assert code == 0 and "PASS" in out

    def test_verify_el_segre(self, capsys):
        code, out, _ = run(capsys, "verify", "el", "--n", "2", "--q", "3", "--segre")
        assert code == 0 and "PASS" in out

    def test_verify_mobius(self, capsys):
        code, out, _ = run(capsys, "verify", "mobius", "--n", "2", "--q", "3")
        assert code == 0 and "PASS" in out

    def test_verify_identities(self, capsys):
        for argv in (("verify", "thm31", "--n", "3"),
                     ("verify", "thm48", "--n", "2"),
                     ("verify", "prop26", "--sizes", "1,1,1,1")):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and "PASS" in out

    def test_verify_prop26_rejects_malformed_sizes(self, capsys):
        for sizes in ("1,2", "1,2,3,4,5", "a,b,c,d"):
            code, out, err = run(capsys, "verify", "prop26", "--sizes", sizes)
            assert_clean_rejection(code, out, err)
            assert err == ("error: --sizes expects four comma-separated "
                           "integers k,l,m,n\n")
        for sizes in ("-1,0,0,0", "1,1,1,-2"):
            code, out, err = run(capsys, "verify", "prop26", f"--sizes={sizes}")
            assert_clean_rejection(code, out, err)
            assert err == f"error: --sizes must be nonnegative, got {sizes}\n"

    def test_verify_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--max-n", "2")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 9
        assert all(line.startswith("PASS") for line in lines)

    def test_serial_verify_all_builds_each_lattice_once(
            self, fresh_lattices, monkeypatch, capsys):
        # every check takes B_n(q) from the one cache, so each (n, q) is
        # built once, whichever check asks first
        from qsegre import subspace, suite
        build, built = subspace.build_bnq, []

        def spy(n, field, count_bound=None):
            built.append((n, field.order))
            return build(n, field, count_bound)
        monkeypatch.setattr(subspace, "build_bnq", spy)
        code, _, _ = run(capsys, "verify", "all", "--max-n", "4")
        assert code == 0
        assert sorted(built) == sorted(set(built))
        assert set(suite.EL_MATRIX) <= set(built)

    def test_verify_all_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify", "all", "--max-n", "1", "--json")
        _, second, _ = run(capsys, "verify", "all", "--max-n", "1", "--json")
        assert first == second
        doc = json.loads(first)
        assert doc["status"] == "PASS"
        assert [c["check"] for c in doc["checks"]] == [
            "csv", "bessel", "el", "chains", "mobius", "betti",
            "thm31", "thm48", "prop26"]

    def test_verify_all_parallel_matches_sequential(self, capsys):
        _, sequential, _ = run(capsys, "verify", "all", "--max-n", "2", "--json")
        _, parallel, _ = run(capsys, "verify", "all", "--max-n", "2",
                             "--threads", "3", "--json")
        assert parallel == sequential


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _csv_residual_from_three(n):
    return QPolynomial([-n, 0, 1]) if n >= 3 else QPolynomial()


def _thm31_residual_from_three(n):
    # p_n(x) p_1^n(y) / n, z-cleared: (1/n) z_(n) z_(1^n) = n!
    return {((n,), (1,) * n): factorial(n)} if n >= 3 else {}


# check -> (module, kernel, a stand-in that makes the identity fail at some
# instances, verify verb arguments at a failing instance)
FAILING = {
    "csv": (permstats, "verify_q_csv_identity", _csv_residual_from_three,
            ("csv", "--n", "5")),
    "thm31": (symfrob, "h_alternating_residual", _thm31_residual_from_three,
              ("thm31", "--n", "3")),
    "thm48": (symfrob, "verify_specialization_identity", lambda n: n < 3,
              ("thm48", "--n", "4")),
    "prop26": (symfrob, "verify_induction_homomorphism",
               lambda k, l, m, n: k + 2 * l + 3 * m + 4 * n < 9,
               ("prop26", "--sizes", "1,1,1,1")),
}


def _command_paths(parser, prefix=()):
    """prefix, then the path of every subcommand under parser, depth first
    in the order the parser adds them."""
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, (*prefix, name))


HELP_ARGV = list(_command_paths(build_parser()))


class TestGoldenDocuments:
    # bessel and frobenius print numerators over the known denominators
    # ([n]_q!)^2 and prod (1-q^i)^2; these outputs were recorded when both
    # went through gcd-reduced rational functions
    @pytest.mark.parametrize("argv, name", [
        (("bessel", "--order", "4"), "bessel_order4.out"),
        (("frobenius", "--n", "3"), "frobenius_n3.out"),
        (("bessel", "--order", "7"), "bessel_order7.out"),
        (("frobenius", "--n", "7"), "frobenius_n7.out"),
    ])
    def test_rational_documents_are_byte_identical(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("argv, name", [
        (("lattice", "--n", "3", "--q", "2", "--segre", "--json"),
         "segre_n3_q2.out"),
        (("verify", "mobius", "--n", "3", "--q", "7", "--json"),
         "verify_mobius_n3_q7.out"),
    ])
    def test_segre_documents_are_byte_identical(self, capsys, argv, name):
        # recorded when the Segre square numbered its pairs through a dict,
        # found each pair label through the factor's element names and took
        # the descending count from the whole chain tally
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("argv, name", [
        (("verify", "all", "--max-n", "4"), "verify_all_max4.out"),
        (("verify", "all", "--max-n", "4", "--json"),
         "verify_all_max4_json.out"),
        (("frobenius", "--n", "4"), "frobenius_n4.out"),
        (("verify", "prop26", "--sizes", "2,2,2,2", "--json"),
         "verify_prop26_2222.out"),
    ])
    def test_symmetric_function_documents_are_byte_identical(
            self, capsys, argv, name):
        # recorded when the homology character came from the Hopf trace over
        # the fixed chains and prop26 compared Fraction characteristics
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    def test_specialization_document_is_byte_identical(self, capsys):
        # recorded when the specialization divided once per term
        code, out, err = run(capsys, "frobenius", "--n", "6")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "frobenius_n6.out").read_text()

    @pytest.mark.parametrize("argv, name", [
        (("betti", "--n", "3", "--q", "5", "--segre", "--json"),
         "betti_n3_q5_segre_json.out"),
        (("betti", "--n", "3", "--q", "3", "--segre"), "betti_n3_q3_segre.out"),
    ])
    def test_betti_documents_are_byte_identical(self, capsys, argv, name):
        # recorded when the ranks came from elimination over every boundary
        # map of the order complex
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("argv, name", [
        (("verify", "csv", "--n", "5"), "verify_csv_n5.out"),
        (("verify", "csv", "--n", "5", "--json"), "verify_csv_n5_json.out"),
        (("verify", "thm31", "--n", "3"), "verify_thm31_n3.out"),
        (("verify", "thm31", "--n", "3", "--json"), "verify_thm31_n3_json.out"),
        (("verify", "thm48", "--n", "4"), "verify_thm48_n4.out"),
        (("verify", "thm48", "--n", "4", "--json"), "verify_thm48_n4_json.out"),
        (("verify", "bessel", "--order", "5", "--json"),
         "verify_bessel_order5_json.out"),
        (("verify", "prop26", "--sizes", "1,1,1,1", "--json"),
         "verify_prop26_1111_json.out"),
    ])
    def test_verify_documents_are_byte_identical(self, capsys, argv, name):
        # recorded when each verify verb built its result apart from the
        # suite's check of the same identity
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("check", sorted(FAILING))
    @pytest.mark.parametrize("form", ["text", "json", "suite"])
    def test_failure_documents_are_byte_identical(
            self, capsys, monkeypatch, check, form):
        # each identity made to fail by a stand-in for its kernel; recorded
        # with the same stand-ins when the verb and the suite check built
        # their FAIL details apart
        module, name, stand_in, argv = FAILING[check]
        monkeypatch.setattr(module, name, stand_in)
        if form == "suite":
            argv = ("all", "--max-n", "4", "--json")
        elif form == "json":
            argv = argv + ("--json",)
        code, out, err = run(capsys, "verify", *argv)
        assert code == 1 and err == ""
        assert out == (GOLDEN / f"fail_{check}_{form}.out").read_text()

    @pytest.mark.parametrize("argv", HELP_ARGV,
                             ids=lambda argv: " ".join(("qsegre", *argv)))
    def test_help_is_byte_identical(self, capsys, monkeypatch, argv):
        # recorded before the parser blocks of the verbs were shared, so
        # that sharing them adds and removes no option
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--help"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 0 and captured.err == ""
        name = "_".join(argv) or "qsegre"
        assert captured.out == (GOLDEN / "help" / f"{name}.out").read_text()

    def test_the_help_goldens_are_the_parsers_commands(self):
        # a retired verb's golden, or a verb without one, fails here
        names = ["_".join(argv) or "qsegre" for argv in HELP_ARGV]
        assert len(set(names)) == len(names)
        assert {path.name for path in (GOLDEN / "help").iterdir()} == {
            f"{name}.out" for name in names}

    @pytest.mark.parametrize("argv, name", [
        (("lattice", "--n", "2", "--q", "3", "--segre", "--chains",
          "--check-el", "--json"), "segre_n2_q3_chains_el_json.out"),
        (("lattice", "--n", "3", "--q", "2", "--segre", "--chains",
          "--check-el"), "lattice_n3_q2_segre_chains_el.out"),
        (("lattice", "--n", "3", "--q", "2", "--segre", "--chains",
          "--check-el", "--json"), "segre_n3_q2_chains_el_json.out"),
    ])
    def test_pair_label_documents_are_byte_identical(self, capsys, argv, name):
        # pair-label words with their increasing and descending counts;
        # recorded when each caller passed the label order to an
        # EdgeLabeling, and (the rank-3 square's covers, pair labels and
        # words) when a labeling was a dict from each cover to its label
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    def test_extension_field_lattice_is_byte_identical(self, capsys):
        # recorded when covers were found by testing every adjacent-rank
        # pair for containment and label sets listed every vector
        code, out, err = run(capsys, "lattice", "--n", "3", "--q", "4",
                             "--chains", "--check-el", "--json")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "lattice_n3_q4.out").read_text()

    @pytest.mark.parametrize("argv, name", [
        (("lattice", "--n", "2", "--q", "9", "--json"),
         "lattice_n2_q9_json.out"),
        (("lattice", "--n", "3", "--q", "8", "--json"),
         "lattice_n3_q8_json.out"),
        (("lattice", "--n", "2", "--q", "16", "--json"),
         "lattice_n2_q16_json.out"),
        (("lattice", "--n", "2", "--q", "9", "--segre", "--json"),
         "segre_n2_q9_json.out"),
    ])
    def test_larger_extension_field_documents_are_byte_identical(
            self, capsys, argv, name):
        # recorded when the lattice was enumerated pivots first and each
        # join looked up among the enumerated subspaces, over fields whose
        # modulus came from a polynomial irreducibility test
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / name).read_text()

    def test_known_denominators_are_coprime_to_the_numerators(self):
        # why an explicit denominator prints the reduced form: it shares no
        # factor with W_n, the numerator over it
        import sympy
        from qsegre.exactalg import q_factorial
        from qsegre.permstats import (ENUMERATION_BOUND, w_polynomial,
                                      w_polynomial_recurrence)
        from qsegre.symfrob import TOP_HOMOLOGY_BOUND, specialization_denominator
        q = sympy.symbols("q")

        def to_sympy(p):
            return sympy.Poly(list(reversed(p.coeffs)), q)

        assert TOP_HOMOLOGY_BOUND == 10
        for n in range(max(ENUMERATION_BOUND, TOP_HOMOLOGY_BOUND) + 1):
            w = to_sympy(w_polynomial(n) if n <= ENUMERATION_BOUND
                         else w_polynomial_recurrence(n))
            if n <= ENUMERATION_BOUND:
                factorial_squared = to_sympy(q_factorial(n) * q_factorial(n))
                assert sympy.gcd(w, factorial_squared).is_one, n
            if n <= TOP_HOMOLOGY_BOUND:
                assert sympy.gcd(w, to_sympy(specialization_denominator(n))).is_one, n

    def test_lattice_interchange_golden(self, capsys):
        code, out, _ = run(capsys, "lattice", "--n", "1", "--q", "2", "--json")
        assert code == 0
        assert json.loads(out) == {
            "poset": {
                "elements": ["()", "((1,),)"],
                "ranks": [0, 1],
                "covers": [[0, 1]],
                "labels": {"0-1": 1},
            }
        }

    def test_lattice_json_bytes_are_stable(self, capsys):
        _, first, _ = run(capsys, "lattice", "--n", "2", "--q", "3",
                          "--chains", "--json")
        _, second, _ = run(capsys, "lattice", "--n", "2", "--q", "3",
                           "--chains", "--json")
        assert first == second

    def test_interchange_output_feeds_back_into_the_reader(self, capsys):
        from oracles import from_interchange
        from qsegre.poset import mobius_number
        code, out, _ = run(capsys, "lattice", "--n", "2", "--q", "2",
                           "--segre", "--json")
        assert code == 0
        rebuilt = from_interchange(json.loads(out)["poset"])
        assert mobius_number(rebuilt) == 8
        # read back as pairs, so ordered componentwise
        assert {type(label) for label in cover_labels(rebuilt).values()} == {tuple}


LAYERS = ("besselseries", "exactalg", "morse", "permstats", "poset",
          "subspace", "suite", "symfrob")


def child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


TRACED_COUNTER_NAMES = ("subspace.elements", "poset.elements", "poset.covers",
                        "poset.maximal_chains", "poset.complex_faces")

# The tracer's counters per invocation.  The square of B_2(2) has 11
# elements and 18 covers and is handed to the poset layer with its factor (5
# and 6).  The square's mu, descending count and Betti numbers are read off
# the factor, so verify mobius, mobius --segre and betti --segre hand the
# poset layer the factor alone.  The tracer counts faces only from a
# function named chains_by_dimension, which the package does not define, so
# every invocation counts 0.
TRACED_COUNTERS = {
    ("verify", "el", "--n", "2", "--q", "2", "--segre", "--json"):
        [5, 16, 24, 12, 0],
    ("verify", "mobius", "--n", "2", "--q", "2", "--json"): [5, 5, 6, 3, 0],
    ("betti", "--n", "2", "--q", "2", "--segre"): [5, 5, 6, 3, 0],
    ("mobius", "--n", "2", "--q", "3"): [6, 6, 8, 4, 0],
    ("lattice", "--n", "2", "--q", "2", "--chains", "--check-el"):
        [5, 5, 6, 3, 0],
    ("verify", "el", "--n", "2", "--q", "3"): [6, 6, 8, 4, 0],
    ("mobius", "--n", "2", "--q", "2", "--segre"): [5, 5, 6, 3, 0],
}


class TestConsoleEntry:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qsegre", "wq", "--n", "2"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == ["0", "2", "1"]

    @pytest.mark.parametrize("modules", [
        ("concurrent.futures",),
        # dataclasses loads inspect, which loads ast, dis and tokenize:
        # several milliseconds of every fresh process
        ("dataclasses", "inspect"),
        # a process without a bytecode cache compiles each layer it imports
        tuple(f"qsegre.{layer}" for layer in LAYERS),
    ], ids=["process-pool", "dataclasses-and-inspect", "layers"])
    def test_import_leaves_unloaded(self, modules):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, qsegre.cli; "
             f"print([m for m in {modules!r} if m in sys.modules])"],
            capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize("argv, loaded, error", [
        (("wq", "--n", "2"), {"exactalg", "permstats"}, None),
        (("qbinom", "--n", "2", "--k", "1"), {"exactalg", "permstats"}, None),
        (("verify", "csv", "--n", "2"), {"exactalg", "permstats"}, None),
        (("verify", "bessel", "--order", "2"),
         {"besselseries", "exactalg", "permstats"}, None),
        (("mobius", "--n", "2", "--q", "2"), {"poset", "subspace"}, None),
        (("verify", "el", "--n", "2", "--q", "2"), {"poset", "subspace"},
         None),
        (("betti", "--n", "2", "--q", "2"), {"morse", "poset", "subspace"},
         None),
        # the square of B_4(3) passes the pair bound but not the face bound
        (("betti", "--n", "4", "--q", "3", "--segre"), {"poset", "subspace"},
         "5157700 faces of the order complex exceed the bound 500000"),
        (("lattice", "--n", "2", "--q", "2", "--chains", "--check-el",
          "--json"), {"poset", "subspace"}, None),
        (("verify", "mobius", "--n", "2", "--q", "2"),
         {"exactalg", "permstats", "poset", "subspace"}, None),
        (("verify", "all", "--max-n", "1"), set(LAYERS), None),
    ], ids=["wq", "qbinom", "verify-csv", "verify-bessel", "mobius",
            "verify-el", "betti", "betti-refused", "lattice", "verify-mobius",
            "verify-all"])
    def test_a_verb_loads_only_the_layers_it_runs(self, argv, loaded, error):
        code = textwrap.dedent(f"""\
            import contextlib, io, sys
            from qsegre.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                status = main({list(argv)!r})
            print(status, sorted(m for m in {LAYERS!r}
                                 if "qsegre." + m in sys.modules))
            """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            (0, f"0 {sorted(loaded)}\n", "") if error is None else
            (0, f"2 {sorted(loaded)}\n", f"error: {error}\n"))

    def test_pool_workers_inherit_every_layer(self):
        # fork hands the workers what the parent has loaded; a layer first
        # imported by a task would be compiled again in each worker.  The
        # spy records, at each fork, the layers not loaded yet
        code = textwrap.dedent(f"""\
            import contextlib, io, os, sys
            from qsegre import cli
            fork, missing = os.fork, []

            def spy():
                missing.append([m for m in {LAYERS!r}
                                if "qsegre." + m not in sys.modules])
                return fork()

            os.fork = spy
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["verify", "all", "--max-n", "2",
                                   "--threads", "2"])
            print(status, missing)
            """)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "0 [[]]\n", "")

    @pytest.mark.parametrize("argv", [
        ("wq", "--n", "2"),  # fits the buffer: fails at the final flush
        ("lattice", "--n", "3", "--q", "3", "--json"),  # fails mid-print
    ])
    def test_closed_stdout_exits_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader exists before the child writes
        try:
            proc = subprocess.run([sys.executable, "-m", "qsegre", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  text=True, env=child_env())
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")

    @pytest.mark.parametrize("argv, check, span", [
        (("verify", "el", "--n", "2", "--q", "2", "--segre", "--json"), "el",
         "poset.check_el_labeling"),
        (("verify", "mobius", "--n", "2", "--q", "2", "--json"), "mobius",
         "poset.chain_report"),
        (("betti", "--n", "2", "--q", "2", "--segre"), None,
         "poset.betti_numbers"),
        (("mobius", "--n", "2", "--q", "3"), None, "poset.mobius_number"),
        (("lattice", "--n", "2", "--q", "2", "--chains", "--check-el"), None,
         "poset.chain_report"),
        (("verify", "el", "--n", "2", "--q", "3"), None,
         "poset.check_el_labeling"),
        (("mobius", "--n", "2", "--q", "2", "--segre"), None,
         "poset.mobius_number"),
    ])
    def test_the_benchmark_tracer_runs_the_push_kernels(
            self, tmp_path, argv, check, span):
        # perfbench/traced.py wraps every public function of the package and
        # reads len, covers and ranks off the posets they are handed; its
        # output is the untraced run's, check names the one check of a JSON
        # verify run, and the counters are those of TRACED_COUNTERS
        root = pathlib.Path(__file__).resolve().parent.parent
        spans_path = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "traced.py"),
             str(spans_path), *argv],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        plain = subprocess.run([sys.executable, "-m", "qsegre", *argv],
                               capture_output=True, text=True, env=child_env())
        assert proc.stdout == plain.stdout
        if check is not None:
            doc = json.loads(proc.stdout)
            assert doc["status"] == "PASS"
            assert [r["check"] for r in doc["checks"]] == [check]
        report = json.loads(spans_path.read_text())
        assert span in {name for _, name, *_ in report["spans"]}
        assert [report["counters"][name]
                for name in TRACED_COUNTER_NAMES] == TRACED_COUNTERS[argv]

    def test_negative_n_is_a_clean_error(self, capsys):
        code, _, err = run(capsys, "wq", "--n", "-1")
        assert code == 2 and "nonnegative" in err


def run_in_child(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with argv as its arguments, so that
    what it patches, and the workers it forks and kills, stay out of the
    test process."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code),
                           *argv], capture_output=True, text=True,
                          env=child_env())


# two suite checks replaced by ones that raise ERROR with their own texts;
# the earlier one in task order is the error the suite reports
FAILING_CHECKS = """\
    import sys
    from qsegre import cli, suite

    def failing(text):
        def check(*args):
            raise ERROR(text)
        return check

    suite._check_chains = failing("chains broke")
    suite._check_prop26 = failing("prop26 broke")
    sys.exit(cli.main(sys.argv[1:]))
    """

# a fork after which this process waits for the worker to end, and leaves
# it for the runner to reap: each worker takes every task it can before this
# process takes any, so a check that kills the process running it kills a
# worker, never this process
WAITING_FORK = textwrap.dedent("""\
    import os
    fork = os.fork

    def waiting_fork():
        pid = fork()
        if pid:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    os.fork = waiting_fork
    """)

# a suite check that kills the worker running it before it answers
KILLING_CHECK = WAITING_FORK + textwrap.dedent("""\
    import signal, sys
    from qsegre import cli, suite

    suite._check_betti = lambda: os.kill(os.getpid(), signal.SIGKILL)
    sys.exit(cli.main(sys.argv[1:]))
    """)

# the second fork of a run fails, as it does when no process is to be had;
# a run that leaves a child behind exits with a message instead
SECOND_FORK_FAILS = """\
    import os, sys
    from qsegre import cli
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    os.fork = second_fork_fails
    status = cli.main(sys.argv[1:])
    sys.stdout.flush()
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        sys.exit(status)
    sys.exit("a child was left behind")
    """


class TestForkedRunner:
    @pytest.mark.parametrize("error", ["ValueError", "ArithmeticError"])
    def test_a_failing_check_fails_as_in_the_serial_run(self, error):
        code = FAILING_CHECKS.replace("ERROR", error)
        serial = run_in_child(code, "verify", "all", "--max-n", "1")
        assert (serial.returncode, serial.stdout, serial.stderr) == (
            2, "", "error: chains broke\n")
        for threads in ("2", "3", "9"):
            pooled = run_in_child(code, "verify", "all", "--max-n", "1",
                                  "--threads", threads, "--json")
            assert (pooled.returncode, pooled.stdout, pooled.stderr) == (
                2, "", "error: chains broke\n")

    def test_a_worker_that_dies_unanswered_fails_the_run(self):
        proc = run_in_child(KILLING_CHECK, "verify", "all", "--max-n", "1",
                            "--threads", "2", "--json")
        assert proc.returncode not in (0, 2)
        assert proc.stdout == ""
        assert "RuntimeError: 1 of 9 suite tasks died unanswered" in proc.stderr

    def test_no_worker_is_left_after_the_run(self):
        # the benchmark refuses a run that leaves a process behind
        proc = run_in_child(WAITING_FORK + textwrap.dedent("""\
            import contextlib, io, signal
            from qsegre import cli, suite
            argv = ["verify", "all", "--max-n", "2", "--threads", "3"]
            statuses = []

            def broken(*args):
                raise ArithmeticError("broken")

            with contextlib.redirect_stdout(io.StringIO()), \\
                    contextlib.redirect_stderr(io.StringIO()):
                statuses.append(cli.main(argv))
                suite._check_el = broken
                statuses.append(cli.main(argv))
                suite._check_el = lambda: os.kill(os.getpid(), signal.SIGKILL)
                try:
                    cli.main(argv)
                except RuntimeError:
                    statuses.append("died")
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print(statuses, "no child left")
            """))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "[0, 2, 'died'] no child left\n", "")

    def test_a_failed_fork_finishes_on_the_processes_running(self):
        for extra in ((), ("--json",)):
            serial = run_in_child(SECOND_FORK_FAILS, "verify", "all",
                                  "--max-n", "2", *extra)
            assert (serial.returncode, serial.stderr) == (0, "")
            pooled = run_in_child(SECOND_FORK_FAILS, "verify", "all",
                                  "--max-n", "2", "--threads", "3", *extra)
            assert (pooled.returncode, pooled.stdout, pooled.stderr) == (
                serial.returncode, serial.stdout, serial.stderr)

    def test_threads_count_this_process(self):
        # --threads N runs on N processes, this one included, and on no
        # more processes than there are checks
        proc = run_in_child("""\
            import contextlib, io, os
            from qsegre import cli
            fork, forks = os.fork, []

            def spy():
                forks.append(1)
                return fork()

            os.fork = spy
            counts = []
            for threads in ("1", "2", "9", "100000"):
                forks.clear()
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main(["verify", "all", "--max-n", "1",
                                       "--threads", threads])
                counts.append((status, len(forks)))
            print(counts)
            """)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "[(0, 0), (0, 1), (0, 8), (0, 8)]\n", "")

    def test_a_pooled_run_builds_each_lattice_once_before_any_fork(
            self, tmp_path):
        # the spy writes each call straight to the log, so that a call in a
        # worker would show there too, with the worker's pid
        log = tmp_path / "builds"
        proc = run_in_child("""\
            import contextlib, io, os, sys
            from qsegre import cli, subspace
            fork, build, forks = os.fork, subspace.build_bnq, []
            log = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)

            def fork_spy():
                forks.append(1)
                return fork()

            def build_spy(n, field, count_bound=None):
                os.write(log, f"{n} {field.order} {os.getpid()} "
                              f"{len(forks)}\\n".encode())
                return build(n, field, count_bound)

            os.fork, subspace.build_bnq = fork_spy, build_spy
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["verify", "all", "--max-n", "2",
                                   "--threads", "3"])
            print(status, os.getpid(), len(forks))
            """, str(log))
        assert (proc.returncode, proc.stderr) == (0, "")
        status, pid, forks = proc.stdout.split()
        assert (status, forks) == ("0", "2")
        builds = [line.split() for line in log.read_text().splitlines()]
        from qsegre import suite
        assert sorted((int(n), int(q)) for n, q, _, _ in builds) == sorted(
            suite.EL_MATRIX)
        assert {(at, before) for _, _, at, before in builds} == {(pid, "0")}

    def test_a_failing_build_fails_as_in_the_serial_run(self):
        # the lattices are built before any fork, so a run that forks
        # fails here
        code = """\
            import os, sys
            from qsegre import cli, subspace

            def broken(*args):
                raise ArithmeticError("build broke")

            def no_fork():
                raise AssertionError("forked before the lattices were built")

            subspace.build_bnq, os.fork = broken, no_fork
            sys.exit(cli.main(sys.argv[1:]))
            """
        for threads in ("1", "2", "3"):
            proc = run_in_child(code, "verify", "all", "--max-n", "1",
                                "--threads", threads)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                2, "", "error: build broke\n")

    def test_a_task_here_that_raises_leaves_no_child(self):
        # a task run by this process raises past the runner; each worker
        # holds its first task until this process has taken one
        proc = run_in_child("""\
            import os, select
            from qsegre import cli, suite
            here, tasks = os.getpid(), suite._suite_tasks
            held, go = os.pipe()

            def holding(task):
                def check():
                    if os.getpid() == here:
                        os.write(go, b"go")
                        raise AssertionError("a task here broke")
                    select.select([held], [], [], 5)
                    return task()
                return check

            suite._suite_tasks = lambda max_n: list(map(holding, tasks(max_n)))
            try:
                cli.main(["verify", "all", "--max-n", "1", "--threads", "3"])
            except AssertionError as exc:
                print(exc)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
            """)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "a task here broke\nno child left\n", "")

    def test_the_runner_loads_no_process_pool(self):
        proc = run_in_child("""\
            import contextlib, io, sys
            from qsegre.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                status = main(["verify", "all", "--max-n", "1",
                               "--threads", "2"])
            print(status, [m for m in ("concurrent.futures", "multiprocessing")
                           if m in sys.modules])
            """)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 []\n", "")

    def test_threads_are_refused_without_fork(self):
        code = """\
            import os, sys
            del os.fork
            from qsegre import cli, suite

            def fail_if_called(*args, **kwargs):
                raise AssertionError("work started before the refusal")

            suite._suite_tasks = fail_if_called
            sys.exit(cli.main(sys.argv[1:]))
            """
        proc = run_in_child(code, "verify", "all", "--threads", "2")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: threads above 1 need os.fork, missing here\n")
