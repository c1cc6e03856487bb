"""The suite behind `verify all`: every identity, each on its fixed matrix
of instances, in report order, run here in turn or on forked workers.

Each check reports through the instance helper that its `verify` verb runs
(the cli's _*_instance), so a suite check and a single verify verb share
one code path.  Only `verify all` imports this module, after refusing its
arguments; a process without a bytecode cache compiles every module it
imports, so no other verb compiles the suite.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from itertools import combinations, permutations, product

from .cli import (_bessel_instance, _csv_instance, _el_instance, _factor,
                  _lattice, _mobius_instance, _prop26_instance, _result,
                  _thm31_instance, _thm48_instance)

EL_MATRIX = ((2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2))
EL_SEGRE_MATRIX = ((2, 2), (2, 3), (3, 2))
MOBIUS_MATRIX = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
BETTI_MATRIX = ((2, 2), (2, 3), (3, 2))


def _check_each_n(check: str, instance, max_n: int, failed: str,
                  passed: str) -> dict:
    """One identity at n = 1..max_n, failing with every n where it fails."""
    failures = [n for n in range(1, max_n + 1) if not instance(n)[0]]
    if failures:
        return _result(check, False, f"{failed} at n in {failures}")
    return _result(check, True, f"{passed} for n=1..{max_n}")


def _check_bessel(order: int) -> dict:
    return _result("bessel", *_bessel_instance(order))


def _check_el() -> dict:
    instances = ([(n, q, 1) for n, q in EL_MATRIX]
                 + [(n, q, 2) for n, q in EL_SEGRE_MATRIX])
    for n, q, power in instances:
        ok, detail = _el_instance(n, q, power)
        if not ok:
            return _result("el", ok, detail)
    return _result("el", True, f"every interval shellable on {len(EL_MATRIX)} "
                               f"lattices and {len(EL_SEGRE_MATRIX)} segre squares")


def _check_chains() -> dict:
    from . import exactalg, poset
    for n, q in EL_MATRIX:
        p, _ = _lattice(n, q, 1, None)
        words, _, _ = poset.chain_report(p)
        expected = {w: q ** sum(a > b for a, b in combinations(w, 2))
                    for w in permutations(range(1, n + 1))}
        if words != expected:
            return _result("chains", False,
                           f"word counts differ from q^inv at n={n} q={q}")
        if sum(words.values()) != exactalg.q_factorial(n).evaluate(q):
            return _result("chains", False,
                           f"total chains != q-factorial at n={n} q={q}")
    return _result("chains", True,
                   "per-word chain counts equal q^inv on the whole matrix")


def _check_mobius() -> dict:
    for n, q in MOBIUS_MATRIX:
        ok, detail = _mobius_instance(n, q)
        if not ok:
            return _result("mobius", ok, f"n={n} q={q}: {detail}")
    return _result("mobius", True,
                   "Mobius and descending counts match the pair polynomial")


def _check_betti() -> dict:
    from . import permstats, poset
    for n, q in BETTI_MATRIX:
        factor, _ = _factor(n, q, 2)
        betti = poset.betti_numbers(factor, 2)
        w_q = int(permstats.w_polynomial(n).evaluate(q))
        if len(betti) != n - 1 or betti[-1] != w_q or any(betti[:-1]):
            return _result("betti", False,
                           f"n={n} q={q}: betti={betti}, expected top {w_q}")
    return _result("betti", True,
                   "homology concentrated on top with the expected rank")


def _check_prop26(size_cap: int) -> dict:
    for k, m, l, n in product(range(size_cap + 1), repeat=4):
        if k + m <= size_cap and l + n <= size_cap:
            ok, detail = _prop26_instance(k, l, m, n)
            if not ok:
                return _result("prop26", ok, detail)
    return _result("prop26", True, "homomorphism property for all sizes with "
                                   f"sums <= {size_cap}")


def _suite_tasks(max_n: int) -> list:
    """The suite in report order, each check bound to its arguments."""
    task = functools.partial
    return [
        task(_check_each_n, "csv", _csv_instance, 6, "nonzero residual",
             "alternating identity residual zero"),
        task(_check_bessel, 5),
        _check_el,
        _check_chains,
        _check_mobius,
        _check_betti,
        task(_check_each_n, "thm31", _thm31_instance, max_n,
             "nonzero residual", "homogeneous alternating residual zero"),
        task(_check_each_n, "thm48", _thm48_instance, max_n,
             "specialization mismatch", "specialized characteristic matches"),
        task(_check_prop26, 4),
    ]


def _run_forked(tasks: list, workers: int) -> list[dict]:
    """The tasks' results in order, from forked workers that take task
    numbers a byte at a time from one pipe and answer each on their own with
    a JSON line, [number, result] or [number, [is_value_error, text]], and
    leave by os._exit, flushing none of this process's buffers.  Once every
    pipe is drained and every worker reaped, the first failing task raises
    its error here, and a task that died unanswered a RuntimeError."""
    sys.stdout.flush()
    sys.stderr.flush()
    todo, feed = os.pipe()
    # the longest checks are last in report order: hand them out first
    os.write(feed, bytes(reversed(range(len(tasks)))))
    os.close(feed)
    pipes = []
    for _ in range(workers):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                with open(write, "w", buffering=1) as out:
                    while number := os.read(todo, 1):
                        try:
                            answer = tasks[number[0]]()
                        except (ValueError, ArithmeticError) as exc:
                            answer = [isinstance(exc, ValueError), str(exc)]
                        out.write(json.dumps([number[0], answer]) + "\n")
            except BaseException:
                sys.excepthook(*sys.exc_info())
                os._exit(1)
            finally:  # a worker never returns into the caller
                os._exit(0)
        os.close(write)
        pipes.append((pid, read))
    os.close(todo)
    lines = []
    for pid, read in pipes:
        with open(read) as pipe:
            lines += pipe.read().split("\n")[:-1]  # whole lines only
        os.waitpid(pid, 0)
    answers = dict(map(json.loads, lines))
    if len(answers) < len(tasks):
        raise RuntimeError(f"{len(tasks) - len(answers)} of {len(tasks)} "
                           f"suite tasks died unanswered with their workers")
    results = [answers[number] for number in range(len(tasks))]
    for answer in results:
        if isinstance(answer, list):
            raise (ValueError if answer[0] else ArithmeticError)(answer[1])
    return results
