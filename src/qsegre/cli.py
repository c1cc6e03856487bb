"""Command line interface: one subcommand per computation, one verify verb
per identity, and `verify all`, whose exit status is 0 exactly when every
check passes.  All JSON output has sorted keys and canonical rational
rendering, so identical invocations produce identical bytes.

Each function imports the layers it calls, and nothing at module level does:
a process without a bytecode cache compiles every module it imports, so a
verb loads only the layers it runs and `--help` loads none.  The same holds
for code that one verb alone runs: only `verify all` imports suite, which
holds the suite's checks and its forked runner and shares the instance
helpers here with the verify verbs, and only betti_numbers, after its
refusals, imports morse, the discrete Morse matchers.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import sys


@functools.lru_cache(maxsize=None)
def _field(q: int) -> subspace.FiniteField:
    from . import subspace
    return subspace.FiniteField(q)


def _factor(n: int, q: int, power: int, count_bound=None, faces=False):
    """B_n(q) and its coordinate subspaces, as (poset, lows), after the
    refusals that B_n(q) at power 1, or its Segre square at power 2, would
    make, before any field is built: q not a prime power, then the count
    bound, and with faces the face bound on the order complex of its proper
    part.  A square's mu, chains and Betti numbers are read off this
    factor."""
    from . import poset, subspace
    subspace.prime_power(q)
    subspace.check_count_bound(n, q, power, count_bound)
    if faces:
        poset.check_face_count(subspace.proper_face_count(n, q, power))
    return _lattice(n, q, 1, count_bound)


@functools.lru_cache(maxsize=None)
def _lattice(n: int, q: int, power: int, count_bound):
    """B_n(q) at power 1, or its Segre square at power 2, and the elements
    the EL check pushes from, as (poset, lows): build_bnq's coordinate
    subspaces e_S, or on the square their pairs.  Every interval is
    label-isomorphic to one above such a low (see subspace.build_bnq), so
    `verify el`, the suite and `lattice --check-el` push from these alone.
    A square is refused on its pair count before any field is built (see
    _factor), and is the square of the cached B_n(q); its lows are the
    pairs whose factor parts are both among the factor's lows, picked by
    name, and a factor without lows gives a square without.  Only
    `lattice --segre` with EL or JSON, `verify el --segre` and the suite's
    el check, on the EL_SEGRE_MATRIX squares through _el_instance(n, q, 2),
    build it.  The caches live for one process and their keys come from one
    command line or the suite's fixed matrices (in suite.py), so they need
    no eviction."""
    from . import poset, subspace
    if power == 2:
        factor, found = _factor(n, q, 2, count_bound)
        square = poset.segre_product(factor, factor)
        lows = None
        if found is not None:
            coordinate = {factor.names[i] for i in found}
            lows = [k for k, (x, y) in enumerate(square.names)
                    if x in coordinate and y in coordinate]
        built = square, lows
    else:
        built = subspace.build_bnq(n, _field(q), count_bound)
    # The cache holds every lattice until exit, and a square holds a list
    # per element and per label group: hundreds of thousands of objects
    # that every later full collection would walk again, to find nothing.
    # Freezing moves them, and all else alive now, out of its reach.
    gc.freeze()
    return built


def _lattice_for(args, faces: bool = False):
    """B_n(q), the lattice a compute verb names or the factor of its Segre
    square (see _factor), after a warning on stderr if its subspace count
    bound was raised.  A verb that needs the square's own elements then
    builds it with _lattice."""
    from . import subspace
    default = subspace.SUBSPACE_COUNT_BOUND
    if args.count_bound is not None and args.count_bound > default:
        print(f"warning: subspace count bound raised to {args.count_bound} "
              f"(default {default}); expect a long runtime", file=sys.stderr)
    return _factor(args.n, args.q, args.power, args.count_bound, faces)[0]


def _ratfun_json(nums: list[exactalg.QPolynomial],
                 dens: list[exactalg.QPolynomial]) -> list[dict]:
    """The rational functions num/den, each as its two coefficient lists."""
    from . import exactalg
    return [{"num": exactalg.poly_coeff_strings(num),
             "den": exactalg.poly_coeff_strings(den)}
            for num, den in zip(nums, dens)]


def _result(check: str, ok: bool, detail: str) -> dict:
    return {"check": check, "status": "PASS" if ok else "FAIL", "detail": detail}


def _word_str(word: tuple) -> str:
    if word and isinstance(word[0], tuple):
        return _class_pair_str(word)
    return "".join(str(x) for x in word)


def _class_pair_str(key: tuple) -> str:
    """A class pair (mu, lam) as "mu|lam", e.g. "3|1,1,1", or a word of
    label pairs as "1,1|2,2"."""
    return "|".join(",".join(str(x) for x in parts) for parts in key)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# one instance of each identity, shared by its verify verb and the suite;
# each returns whether it holds and what to report

def _csv_instance(n: int) -> tuple[bool, exactalg.QPolynomial]:
    """The alternating Gaussian-square identity at n, with its residual."""
    from . import permstats
    residual = permstats.verify_q_csv_identity(n)
    return residual.is_zero(), residual


def _el_instance(n: int, q: int, power: int) -> tuple[bool, str]:
    """The shelling check on one lattice or Segre square; a failure names
    its interval by the element names that `lattice --json` prints."""
    from . import poset
    ok, violation = poset.check_el_labeling(*_lattice(n, q, power, None))
    return ok, (f"{'segre' if power == 2 else 'lattice'} n={n} q={q}: "
                f"{violation or 'every interval shellable'}")


def _mobius_instance(n: int, q: int) -> tuple[bool, str]:
    """mu and the descending chain count of one Segre square against W_n(q),
    both read off its factor B_n(q): the square is refused as ever, but
    never built."""
    from . import permstats, poset
    factor, _ = _factor(n, q, 2)
    mu = poset.mobius_number(factor, 2)
    descending = poset.chain_report(factor, 2)[2]
    w_q = permstats.w_polynomial(n).evaluate(q)
    return (mu == (-1) ** n * w_q and descending == w_q,
            f"mu={mu} descending={descending} expected W={w_q}")


def _thm31_instance(n: int) -> tuple[bool, str]:
    """The alternating homogeneous identity at n; a failure names each
    nonzero z-cleared entry of the residual by its class pair."""
    from . import symfrob
    residual = symfrob.h_alternating_residual(n)
    if not residual:
        return True, f"n={n}: residual zero"
    entries = "; ".join(f"{_class_pair_str(key)}: {v}"
                        for key, v in residual.items())
    return False, f"n={n}: z-cleared residual {entries}"


def _bessel_instance(order: int) -> tuple[bool, str]:
    """The reciprocal's cleared coefficients through order against W_n."""
    from . import besselseries
    _, flags = besselseries.verify_reciprocal(order)
    bad = [i for i, ok in enumerate(flags) if not ok]
    if bad:
        return False, f"reciprocal coefficient mismatch at {bad}"
    return True, f"reciprocal coefficients match through order {order}"


def _thm48_instance(n: int) -> tuple[bool, str]:
    from . import symfrob
    return symfrob.verify_specialization_identity(n), f"n={n}"


def _prop26_instance(k: int, l: int, m: int, n: int) -> tuple[bool, str]:
    from . import symfrob
    return (symfrob.verify_induction_homomorphism(k, l, m, n),
            f"sizes ({k},{l},{m},{n})")


# ---------------------------------------------------------------------------
# subcommand handlers

def _print_polynomial(args, polynomial: exactalg.QPolynomial, doc: dict) -> int:
    """A polynomial verb's output: its value at --at, or its coefficient
    list, bare or under "coeffs" in doc."""
    from . import exactalg
    if args.at is not None:
        print(polynomial.evaluate(args.at))
    elif args.json:
        print(_dump({**doc, "coeffs": exactalg.poly_coeff_strings(polynomial)}))
    else:
        print(json.dumps(exactalg.poly_coeff_strings(polynomial)))
    return 0


def _cmd_wq(args) -> int:
    from . import permstats
    polynomial = permstats.w_polynomial_recurrence(args.n)
    bound = permstats.ENUMERATION_BOUND
    method = "enumeration" if args.n <= bound else "recurrence"
    if method == "recurrence":
        print(f"note: W_{args.n}(q) is recurrence-derived "
              f"(enumeration bound {bound})", file=sys.stderr)
    return _print_polynomial(args, polynomial, {"n": args.n, "method": method})


def _cmd_qbinom(args) -> int:
    from . import permstats
    polynomial = permstats.q_binomial(args.n, args.k)
    return _print_polynomial(args, polynomial, {"n": args.n, "k": args.k})


def _cmd_bessel(args) -> int:
    from . import besselseries, exactalg
    # refuses a bad order first
    numerators, checks = besselseries.verify_reciprocal(args.order)
    dens = [exactalg.q_factorial(n) * exactalg.q_factorial(n)
            for n in range(args.order + 1)]
    print(_dump({
        "order": args.order,
        "f": _ratfun_json([-exactalg.ONE if n % 2 else exactalg.ONE
                           for n in range(args.order + 1)], dens),
        "f_inv": _ratfun_json(numerators, dens),
        "checks": checks,
    }))
    return 0 if all(checks) else 1


def _cmd_lattice(args) -> int:
    from . import poset
    # a square's rank sizes N_k^2 and chains are read off its factor's, so
    # the square is built only for EL or JSON
    p = _lattice_for(args)
    doc = {}
    if args.json:
        built, _ = _lattice(args.n, args.q, args.power, args.count_bound)
        doc["poset"] = poset.to_interchange(built)
    if args.chains:
        words, increasing, descending = poset.chain_report(p, args.power)
        doc["chains"] = {"words": {_word_str(w): c for w, c in words.items()},
                         "increasing": increasing, "descending": descending,
                         "total": sum(words.values())}
    ok, violation = True, None
    if args.check_el:
        ok, violation = poset.check_el_labeling(
            *_lattice(args.n, args.q, args.power, args.count_bound))
        doc["el"] = {"pass": ok, "violation": violation}
    if args.json:
        print(_dump(doc))
    else:
        kind = "segre square" if args.power == 2 else "lattice"
        sizes = [size ** args.power for size in p.rank_sizes()]
        print(f"{kind} n={args.n} q={args.q}: {sum(sizes)} elements, "
              f"rank sizes {sizes}")
        if args.chains:
            report = doc["chains"]
            for word in sorted(report["words"]):
                print(f"  chain word {word}: {report['words'][word]}")
            print(f"  total={report['total']} increasing={report['increasing']} "
                  f"descending={report['descending']}")
        if args.check_el:
            print(f"  EL check: {'PASS' if ok else 'FAIL ' + violation}")
    return 0 if ok else 1


def _cmd_invariant(args) -> int:
    """mobius or betti, as the verb names: the Mobius number of a lattice or
    Segre square, or the Betti numbers of its proper part.  A square's
    Mobius number and Betti numbers are read off its factor, which alone is
    built."""
    from . import poset
    betti = args.command == "betti"
    p = _lattice_for(args, faces=betti)
    kernel = poset.betti_numbers if betti else poset.mobius_number
    value = kernel(p, args.power)
    if args.json:
        print(_dump({"n": args.n, "q": args.q, "segre": args.power == 2,
                     args.command: value}))
    else:
        print(json.dumps(value))
    return 0


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms for a positive den, as "a" or "a/b"."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _cmd_frobenius(args) -> int:
    from . import symfrob
    table = symfrob.lefschetz_character(args.n)
    numerator = symfrob.principal_specialization(table, args.n)
    denominator = symfrob.specialization_denominator(args.n)
    doc = {
        "character": {_class_pair_str(key): v for key, v in table.items()},
        "ch": {_class_pair_str((mu, lam)):
               _ratio_str(v, symfrob.z_of(mu) * symfrob.z_of(lam))
               for (mu, lam), v in table.items() if v},
        "ps": f"({numerator})/({denominator})",
    }
    print(_dump(doc))
    return 0


def _print_results(results: list[dict], as_json: bool) -> int:
    ok = all(r["status"] == "PASS" for r in results)
    if as_json:
        print(_dump({"checks": results, "status": "PASS" if ok else "FAIL"}))
    else:
        for r in results:
            print(f"{r['status']} {r['check']}: {r['detail']}")
    return 0 if ok else 1


def _cmd_verify_csv(args) -> int:
    from . import exactalg
    ok, residual = _csv_instance(args.n)
    if args.json:
        print(_dump({"check": "csv", "n": args.n,
                     "residual": exactalg.poly_coeff_strings(residual),
                     "status": "PASS" if ok else "FAIL"}))
    else:
        print(f"{'PASS' if ok else 'FAIL'} csv n={args.n}: residual={residual}")
    return 0 if ok else 1


def _sizes(text: str) -> tuple[int, int, int, int]:
    try:
        k, l, m, n = (int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("--sizes expects four comma-separated integers "
                         "k,l,m,n") from None
    if min(k, l, m, n) < 0:
        raise ValueError(f"--sizes must be nonnegative, got {text}")
    return k, l, m, n


# verify verb -> its instance helper called on the parsed arguments
_VERIFY_INSTANCES = {
    "bessel": lambda args: _bessel_instance(args.order),
    "el": lambda args: _el_instance(args.n, args.q, args.power),
    "mobius": lambda args: _mobius_instance(args.n, args.q),
    "thm31": lambda args: _thm31_instance(args.n),
    "thm48": lambda args: _thm48_instance(args.n),
    "prop26": lambda args: _prop26_instance(*_sizes(args.sizes)),
}


def _cmd_verify(args) -> int:
    """One instance of the identity that args.check names."""
    ok, detail = _VERIFY_INSTANCES[args.check](args)
    return _print_results([_result(args.check, ok, detail)], args.json)


def _cmd_verify_all(args) -> int:
    from . import symfrob
    symfrob.check_homology_bound(args.max_n, name="max-n")  # before any task
    if args.threads < 1:
        raise ValueError("threads must be at least 1")
    if args.threads > 1 and not hasattr(os, "fork"):
        raise ValueError("threads above 1 need os.fork, missing here")
    from . import suite
    tasks = suite._suite_tasks(args.max_n)
    if args.threads > 1:
        # every layer the tasks run, loaded before the fork so that the
        # workers inherit them and none compiles them again
        from . import besselseries, exactalg, morse, permstats, poset, subspace
        results = suite._run_forked(tasks, min(args.threads, len(tasks)))
    else:
        results = [task() for task in tasks]
    return _print_results(results, args.json)


def _add_json_flag(p) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON with sorted keys")


def _add_segre_flag(p) -> None:
    """--segre, parsed straight into args.power: 2, the Segre square, or
    by default 1, the lattice itself."""
    p.add_argument("--segre", dest="power", action="store_const", const=2,
                   default=1, help="use the Segre square of B_n(q) instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsegre",
        description="Exact computations and identity checks for Segre "
                    "products of subset and subspace lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in (("wq", _cmd_wq), ("qbinom", _cmd_qbinom)):
        wq = name == "wq"
        p = sub.add_parser(name, help="pair polynomial W_n(q)" if wq
                           else "Gaussian binomial [n choose k]_q")
        p.add_argument("--n", type=int, required=True)
        if not wq:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--at", type=int, help="evaluate at this integer q")
        _add_json_flag(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("bessel", help="alternating series and its reciprocal")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=_cmd_bessel)

    p = sub.add_parser("lattice", help="build the subspace lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_segre_flag(p)
    p.add_argument("--chains", action="store_true",
                   help="tally maximal chains by label word")
    p.add_argument("--check-el", dest="check_el", action="store_true",
                   help="run the shelling check")
    p.add_argument("--count-bound", dest="count_bound", type=int,
                   help="override the subspace count bound")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_lattice)

    for name, text in (("mobius", "Mobius number of the bounded poset"),
                       ("betti", "rational Betti numbers of the proper part")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        _add_segre_flag(p)
        p.add_argument("--count-bound", dest="count_bound", type=int,
                       help="override the subspace count bound")
        _add_json_flag(p)
        p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("frobenius",
                       help="homology character, characteristic, specialization")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_frobenius)

    v = sub.add_parser("verify", help="identity checks (exit 0 iff PASS)")
    v.set_defaults(func=_cmd_verify)  # unless a check names its own
    vsub = v.add_subparsers(dest="check", required=True)

    p = vsub.add_parser("csv", help="alternating Gaussian-square identity")
    p.add_argument("--n", type=int, required=True)
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify_csv)

    p = vsub.add_parser("bessel", help="reciprocal series coefficients")
    p.add_argument("--order", type=int, default=5)
    _add_json_flag(p)

    p = vsub.add_parser("el", help="shelling property of the edge labeling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_segre_flag(p)
    _add_json_flag(p)

    p = vsub.add_parser("mobius", help="Mobius number of the Segre square")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    _add_json_flag(p)

    for name, text in (("thm31", "alternating homogeneous identity for the "
                                 "homology characteristics"),
                       ("thm48", "principal specialization identity")):
        p = vsub.add_parser(name, help=text)
        p.add_argument("--n", type=int, required=True)
        _add_json_flag(p)

    p = vsub.add_parser("prop26", help="characteristic of induction products")
    p.add_argument("--sizes", type=str, required=True,
                   help="four comma-separated sizes k,l,m,n")
    _add_json_flag(p)

    p = vsub.add_parser("all", help="run the whole suite")
    p.add_argument("--max-n", dest="max_n", type=int, default=4,
                   help="upper bound for the symmetric-function checks")
    p.add_argument("--threads", type=int, default=1,
                   help="run independent checks in this many processes")
    _add_json_flag(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


BROKEN_PIPE_STATUS = 141  # 128 + SIGPIPE, as a shell reports a reader gone


def main(argv=None) -> int:
    """Run one command.  Exit status 2 with one `error:` line on a bad input
    or bound; BROKEN_PIPE_STATUS, silently, when stdout's reader has gone."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return status
    except BrokenPipeError:
        # stdout still holds unwritten bytes; point it at devnull so that
        # the interpreter's flush at exit has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_STATUS
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
