"""Run one `qsegre` CLI invocation in this process with every layer in spans.

Usage: python3 traced.py SPANS_JSON ARG...

Wraps the public functions of each package module, plus
`QPolynomial.__mul__` and `__divmod__`, rebinding every module-level name
that refers to a wrapped function (so `from .exactalg import ...` calls are
caught too), then calls `qsegre.cli.main(ARG...)`.  Spans are aggregated in
memory per (caller span, span) and written to SPANS_JSON at exit, together
with instance counters computed from the objects the layers returned, after
the timed call has finished.  The exit status is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

LAYERS = ("exactalg", "permstats", "besselseries", "subspace", "poset",
          "symfrob", "cli")

# Scalar helpers called 2*10^4 to 6*10^5 times per invocation.  A span
# around each would add about 30% to the poset-heavy calls, so they stay
# unwrapped and their time counts in the calling span of the same layer.
UNWRAPPED = {"poset.product_order_less", "symfrob.z_of",
             "symfrob.symmetric_group_character"}

METHODS = (("exactalg", "QPolynomial", "__mul__", "exactalg.QPolynomial.mul"),
           ("exactalg", "QPolynomial", "__divmod__",
            "exactalg.QPolynomial.divmod"))


class Tracer:
    """Nested spans, kept as running totals keyed by (caller, name)."""

    def __init__(self, poset_type):
        self.stack: list[list] = []
        self.totals: dict[tuple[str, str], list] = {}
        self.poset_type = poset_type
        self.operands: dict[int, object] = {}  # posets the poset layer got
        self.lattices: dict[int, object] = {}  # posets subspace.build_bnq made
        self.faces = 0

    def wrap(self, name: str, fn):
        stack, totals, clock = self.stack, self.totals, time.perf_counter
        note_operand = name.startswith("poset.")
        note_lattice = name == "subspace.build_bnq"
        note_faces = name == "poset.chains_by_dimension"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if note_operand and args and isinstance(args[0], self.poset_type):
                self.operands.setdefault(id(args[0]), args[0])
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                caller = stack[-1] if stack else None
                if caller is not None:
                    caller[1] += elapsed
                key = (caller[0] if caller else "", name)
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if note_lattice:
                self.lattices.setdefault(id(result[0]), result[0])
            elif note_faces:
                self.faces += sum(len(level) for level in result)
            return result

        return span

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qsegre.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or isinstance(value, type) or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                wrapped[id(value)] = self.wrap(name, value)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            span = self.wrap(name, original)
            for alias, value in list(vars(cls).items()):
                if value is original:  # e.g. __rmul__ = __mul__
                    setattr(cls, alias, span)
        for module in [importlib.import_module("qsegre"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def report(self) -> dict:
        return {
            "spans": [[caller, name, *entry]
                      for (caller, name), entry in sorted(self.totals.items())],
            "counters": {
                "subspace.elements": sum(len(p) for p in self.lattices.values()),
                "poset.elements": sum(len(p) for p in self.operands.values()),
                "poset.covers": sum(len(p.covers)
                                    for p in self.operands.values()),
                "poset.maximal_chains": sum(maximal_chain_count(p)
                                            for p in self.operands.values()),
                "poset.complex_faces": self.faces,
            },
        }


def maximal_chain_count(p) -> int:
    """Saturated chains from a minimal to a maximal element, counted along
    the covers.  Reads only the poset's public fields, so its lazy caches
    stay as the program left them."""
    ways = [0] * len(p)
    has_lower = [False] * len(p)
    for _, b in p.covers:
        has_lower[b] = True
    for i in range(len(p)):
        if not has_lower[i]:
            ways[i] = 1
    has_upper = [False] * len(p)
    for a, b in sorted(p.covers, key=lambda c: p.ranks[c[0]]):
        ways[b] += ways[a]
        has_upper[a] = True
    return sum(w for i, w in enumerate(ways) if not has_upper[i])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from qsegre import cli, poset

    tracer = Tracer(poset.GradedPoset)
    tracer.install()
    try:
        status = cli.main(argv)
    except SystemExit as exc:  # argparse rejections exit this way
        status = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    with open(spans_path, "w") as out:
        json.dump(tracer.report(), out)
    return status


if __name__ == "__main__":
    sys.exit(main())
