"""The benchmark's fixed workloads and the expected output of every invocation.

Each workload is a list of `qsegre` CLI invocations with fixed instances; the
seed only permutes their order within a pass.  Every expected value below is
a constant that was recorded from the seed code and cross-checked there by a
second, independent route (named next to it), so a fast but wrong answer
counts as a failed invocation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re

# W_n(q) values, each equal by enumeration of permutation pairs and by the
# alternating q-binomial-square recurrence seeded only at n <= 1.
W_4_AT_2 = 67824
W_3_AT_7 = 201439
W_3_AT_5 = 32675

# W_16(q) from `wq --n 16`: the recurrence seeded with enumeration up to n = 7
# and the recurrence seeded only at n <= 1 give the same coefficient list.
W_16_DEGREE = 240
W_16_AT_1 = 1923889742567310611949459  # also the integer CSV recurrence at 16
W_16_SHA256 = "f86e38c7ca981851adf79e9a8feb5ba5dac7ef4328df0a9024e755bfac60ff56"

# B_5(2): Gaussian-binomial sums and the q-factorial, each equal to the count
# the program reports for the built lattice.
B_5_2_ELEMENTS = 374         # sum_k [5 choose k]_2
B_5_2_COVERS = 2077          # sum_k [5 choose k]_2 * [5-k choose 1]_2
B_5_2_CHAINS = 9765          # [5]_2! = 1*3*7*15*31
B_5_2_DESCENDING = 2 ** 10   # q^(n choose 2): the one word with all inversions

# mu(B_4(5)) = (-1)^4 * 5^(4 choose 2), the program's value and the formula.
MOBIUS_B_4_5 = 5 ** 6

SUITE_CHECKS = ["csv", "bessel", "el", "chains", "mobius", "betti",
                "thm31", "thm48", "prop26"]


class Invocation:
    """One CLI call: its arguments, expected exit status and output check.

    check(stdout) returns None when the output is right, else a reason.
    """

    def __init__(self, argv: str, check, exit_code: int = 0,
                 pool: bool = False):
        self.argv = argv.split()
        self.label = argv
        self.check = check
        self.exit_code = exit_code
        # Runs a process pool: it gets two CPUs and runs untraced, since
        # the workers' spans are out of the tracer's reach.
        self.pool = pool


def _json(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def _verdict(check: str, detail_part: str = ""):
    """`verify <check> --json` with one PASS result whose detail holds detail_part."""
    def run(stdout: str):
        doc = _json(stdout)
        if not isinstance(doc, dict) or doc.get("status") != "PASS":
            return "status is not PASS"
        checks = doc.get("checks")
        if not (isinstance(checks, list) and len(checks) == 1
                and checks[0].get("check") == check
                and checks[0].get("status") == "PASS"):
            return f"expected a single PASS {check} result"
        if detail_part not in checks[0].get("detail", ""):
            return f"detail lacks {detail_part!r}"
        return None
    return run


def _mobius(w_value: int, n: int):
    # mu = (-1)^n W_n(q), and the descending chains count W_n(q).
    return _verdict("mobius", f"mu={(-1) ** n * w_value} "
                              f"descending={w_value} expected W={w_value}")


def _equals(expected: dict):
    def run(stdout: str):
        doc = _json(stdout)
        return None if doc == expected else f"output is not {expected}"
    return run


def _rejected(stdout: str):
    return None if stdout == "" else "a rejected call printed output"


def _check_w16(stdout: str):
    doc = _json(stdout)
    if not isinstance(doc, dict) or doc.get("n") != 16:
        return "not a W_16 document"
    coeffs = doc.get("coeffs", [])
    if doc.get("method") != "recurrence":
        return "W_16 was not taken from the recurrence"
    if len(coeffs) - 1 != W_16_DEGREE or coeffs[-1] != "1":
        return "W_16 degree or leading coefficient is wrong"
    if sum(int(c) for c in coeffs) != W_16_AT_1:
        return "W_16(1) differs from the CSV recurrence"
    if hashlib.sha256(",".join(coeffs).encode()).hexdigest() != W_16_SHA256:
        return "W_16 coefficients differ"
    return None


def _inversions(word: tuple) -> int:
    return sum(1 for a, b in itertools.combinations(word, 2) if a > b)


def _check_lattice_5_2(stdout: str):
    doc = _json(stdout)
    if not isinstance(doc, dict):
        return "not JSON"
    lattice = doc.get("poset", {})
    if (len(lattice.get("elements", ())) != B_5_2_ELEMENTS
            or len(lattice.get("covers", ())) != B_5_2_COVERS):
        return "B_5(2) has the wrong size"
    chains = doc.get("chains", {})
    if (chains.get("total") != B_5_2_CHAINS or chains.get("increasing") != 1
            or chains.get("descending") != B_5_2_DESCENDING):
        return "chain totals differ"
    expected_words = {"".join(map(str, p)): 2 ** _inversions(p)
                      for p in itertools.permutations(range(1, 6))}
    if chains.get("words") != expected_words:
        return "chain counts per label word differ from q^inv"
    if doc.get("el") != {"pass": True, "violation": None}:
        return "EL check did not pass"
    return None


def _check_suite(stdout: str):
    doc = _json(stdout)
    if not isinstance(doc, dict) or doc.get("status") != "PASS":
        return "suite status is not PASS"
    results = doc.get("checks", [])
    if [r.get("check") for r in results] != SUITE_CHECKS:
        return "suite ran a different set of checks"
    if any(r.get("status") != "PASS" for r in results):
        return "a suite check failed"
    return None


_EL_PASS = "every interval shellable"

WORKLOADS = {
    # q-polynomial and rational-function path: exactalg, permstats,
    # besselseries.  The order-8 call must be refused with exit 2.
    "qseries": [
        Invocation("verify bessel --order 7 --json",
                   _verdict("bessel", "through order 7")),
        Invocation("wq --n 16 --json", _check_w16),
        Invocation("verify csv --n 7 --json",
                   _equals({"check": "csv", "n": 7, "residual": [],
                            "status": "PASS"})),
        Invocation("verify bessel --order 8 --json", _rejected, exit_code=2),
    ],
    # Big Segre squares: deep (rank 4, 99225 maximal chains) and wide
    # (rank 3, 6500 elements); the poset layer does almost all the work.
    "segre": [
        Invocation("verify mobius --n 4 --q 2 --json", _mobius(W_4_AT_2, 4)),
        Invocation("verify el --n 4 --q 2 --segre --json",
                   _verdict("el", f"segre n=4 q=2: {_EL_PASS}")),
        Invocation("verify mobius --n 3 --q 7 --json", _mobius(W_3_AT_7, 3)),
        Invocation("betti --n 3 --q 5 --segre --json",
                   _equals({"betti": [0, W_3_AT_5], "n": 3, "q": 5,
                            "segre": True})),
    ],
    # Plain subspace lattices over larger and extension fields: subspace
    # enumeration and cover building dominate.
    "fields": [
        Invocation("mobius --n 4 --q 5 --json",
                   _equals({"mobius": MOBIUS_B_4_5, "n": 4, "q": 5,
                            "segre": False})),
        Invocation("verify el --n 3 --q 16 --json",
                   _verdict("el", f"lattice n=3 q=16: {_EL_PASS}")),
        Invocation("verify el --n 4 --q 4 --json",
                   _verdict("el", f"lattice n=4 q=4: {_EL_PASS}")),
        Invocation("lattice --n 5 --q 2 --chains --check-el --json",
                   _check_lattice_5_2),
    ],
    # The headline suite, serial and on the process pool; the two outputs
    # must also be byte-identical (checked per pass by the runner).
    "suite": [
        Invocation("verify all --max-n 4 --json", _check_suite),
        Invocation("verify all --max-n 4 --threads 2 --json", _check_suite,
                   pool=True),
    ],
}

# Invocation labels whose stdout must be byte-identical within one pass.
IDENTICAL_OUTPUTS = {"suite": ("verify all --max-n 4 --json",
                               "verify all --max-n 4 --threads 2 --json")}

SETUP_ARGV = ["--help"]
SETUP_OUTPUT = re.compile(r"^usage: qsegre ")
