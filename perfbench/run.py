"""Benchmark of the `qsegre` CLI: fixed workloads of real invocations.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload qseries --seed 1 --seconds 30 --trace 0

Each invocation is a fresh `python -m qsegre` process, run one at a time (a
closed loop with one client), so the program's caches are cold as in real
use; `verify all --threads 2` alone runs two pool workers.  A pass runs
every invocation of the workload once, in an order drawn from the seed;
passes repeat while another fits in --seconds.  Every output is checked
against constants recorded in workloads.py.

Times are normalised to a reference CPU speed.  On a shared machine the
speed of one CPU drifts by up to 30% over seconds, independently per CPU, so
children run pinned to one CPU while a probe thread on that CPU times a
fixed piece of Python every 20 ms; each invocation's times are scaled by
REFERENCE_NS over the probe's median cost during that invocation.  Raw
times are printed alongside.

--trace 0 prints the end-to-end metrics: the median pass's wall time
(wall_s), its user+sys CPU including pool workers (cpu_s), the largest
max-RSS of one invocation (peak_rss_mb), and the median start-up time of
`python -m qsegre --help` (setup_s).  --trace 1 alternates untraced passes
with passes whose invocations run under traced.py, and prints the per-layer
span times and counts.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import (IDENTICAL_OUTPUTS, SETUP_ARGV, SETUP_OUTPUT, WORKLOADS,
                       Invocation)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"

SETUP_SAMPLES = 11
HARD_LIMIT_S = 160.0   # every invocation is killed by then
LAST_START_S = 110.0   # no pass starts after this much of the window

PROBE_LOOP = 2000
PROBE_PERIOD_S = 0.02
REFERENCE_NS = 200_000  # probe cost that defines the reference speed

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

LAYERS = ("exactalg", "permstats", "besselseries", "subspace", "poset",
          "symfrob", "cli")
COUNTERS = ("subspace.elements", "poset.elements", "poset.covers",
            "poset.maximal_chains", "poset.complex_faces")
PER_LAYER = (
    "exactalg.self_s", "exactalg.QPolynomial.mul.calls",
    "exactalg.QPolynomial.mul.self_s", "exactalg.QPolynomial.divmod.calls",
    "exactalg.QPolynomial.divmod.self_s", "exactalg.poly_gcd.calls",
    "exactalg.series_reciprocal.self_s",
    "permstats.self_s", "permstats.w_polynomial.self_s",
    "permstats.w_polynomial_recurrence.self_s", "permstats.q_binomial.calls",
    "besselseries.self_s",
    "subspace.self_s", "subspace.build_bnq.self_s",
    "subspace.build_segre_bnq.self_s", "subspace.elements",
    "poset.self_s", "poset.segre_product.self_s", "poset.mobius_number.self_s",
    "poset.chain_report.self_s", "poset.check_el_labeling.self_s",
    "poset.rational_betti_numbers.self_s", "poset.chains_by_dimension.self_s",
    "poset.elements", "poset.covers", "poset.maximal_chains",
    "poset.complex_faces",
    "symfrob.self_s", "symfrob.lefschetz_character.self_s",
    "symfrob.product_frobenius.self_s",
    "symfrob.induce_product_character.self_s",
    "symfrob.verify_induction_homomorphism.self_s",
    "symfrob.principal_specialization.self_s",
    "symfrob.induce_product_character.calls",
    "cli.self_s", "trace.overhead_s",
)


def _probe_burst() -> int:
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """One thread per CPU, pinned to it, timing _probe_burst on its own
    thread CPU clock, so being descheduled does not count."""

    def __init__(self, cpus: list[int]):
        self.samples: dict[int, list[tuple[float, int]]] = {c: [] for c in cpus}
        self.stopping = threading.Event()
        self.threads = [threading.Thread(target=self._sample, args=(c,),
                                         daemon=True) for c in cpus]

    def __enter__(self) -> "SpeedProbe":
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stopping.set()
        for thread in self.threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        out = self.samples[cpu]
        while not self.stopping.wait(PROBE_PERIOD_S):
            start = time.thread_time_ns()
            _probe_burst()
            out.append((time.perf_counter(), time.thread_time_ns() - start))

    def cost_ns(self, cpus, start: float, end: float) -> float:
        """Median probe cost on cpus between start and end; the latest
        samples if the interval held too few."""
        costs = [ns for c in cpus for t, ns in self.samples[c]
                 if start <= t <= end]
        if len(costs) < 3:
            costs = [ns for c in cpus for _, ns in self.samples[c][-5:]]
        return statistics.median(costs)


class Runner:
    """Launches invocations as child processes and checks what they print."""

    def __init__(self, workdir: Path, probe: SpeedProbe, cpus: list[int]):
        self.workdir = workdir
        self.probe = probe
        self.cpus = cpus
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SOURCE), PYTHONHASHSEED="0",
                        TMPDIR=str(workdir))
        self.attempted = 0
        self.failures: list[str] = []

    def launch(self, cmd: list[str], parallel: bool = False) -> dict:
        """Run cmd to completion or to the hard limit, pinned to the first
        CPU (to all probed CPUs if parallel); rusage from wait4."""
        cpus = self.cpus if parallel else self.cpus[:1]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        timed_out = threading.Event()
        os.sched_setaffinity(0, cpus)  # inherited by the child
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=ROOT, env=self.env,
                                    start_new_session=True)

            def kill():
                timed_out.set()
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        speed = REFERENCE_NS / self.probe.cost_ns(cpus, start, end)
        # wait4 reports the child plus every descendant it reaped, so pool
        # workers are included.
        cpu = usage.ru_utime + usage.ru_stime
        return {
            "raw_wall": end - start,
            "raw_cpu": cpu,
            "speed": speed,
            "wall": (end - start) * speed,
            "cpu": cpu * speed,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "status": proc.returncode,
            "timed_out": timed_out.is_set(),
            "stdout": out_path.read_bytes(),
            "stderr": err_path.read_text(errors="replace"),
        }

    def judge(self, label: str, run: dict, exit_code: int, check) -> bool:
        """Record the invocation as attempted and, if wrong, as failed."""
        self.attempted += 1
        reason = None
        if run["timed_out"]:
            reason = "timed out"
        elif run["status"] != exit_code:
            reason = f"exit status {run['status']}, expected {exit_code}"
        elif "Traceback" in run["stderr"]:
            reason = "traceback on stderr"
        elif exit_code != 0 and (len(run["stderr"].splitlines()) != 1
                                 or not run["stderr"].startswith("error:")):
            reason = "a rejection must print exactly one 'error:' line"
        else:
            try:
                reason = check(run["stdout"].decode(errors="replace"))
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                reason = f"output check raised {exc!r}"
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
        return reason is None

    def setup_times(self) -> list[dict]:
        """Interpreter start, package import and parser build."""
        cmd = [sys.executable, "-m", "qsegre", *SETUP_ARGV]
        check = lambda out: None if SETUP_OUTPUT.match(out) else "no usage line"
        self.judge("--help (warm-up)", self.launch(cmd), 0, check)
        runs = []
        for _ in range(SETUP_SAMPLES):
            runs.append(self.launch(cmd))
            self.judge("--help", runs[-1], 0, check)
        return runs

    def run_pass(self, workload: str, order: list[Invocation],
                 traced: bool) -> dict:
        runs, passed, spans = {}, {}, []
        for inv in order:
            use_tracer = traced and not inv.pool
            if use_tracer:
                spans_path = self.workdir / "spans.json"
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH_DIR / "traced.py"),
                       str(spans_path), *inv.argv]
            else:
                cmd = [sys.executable, "-m", "qsegre", *inv.argv]
            run = runs[inv.label] = self.launch(cmd, parallel=inv.pool)
            passed[inv.label] = self.judge(inv.label, run, inv.exit_code,
                                           inv.check)
            if use_tracer and passed[inv.label]:
                try:
                    doc = json.loads(spans_path.read_text())
                except (OSError, json.JSONDecodeError):
                    self.failures.append(f"{inv.label}: no spans written")
                else:
                    doc["speed"] = run["speed"]
                    spans.append(doc)
        pair = IDENTICAL_OUTPUTS.get(workload)
        if (pair and passed[pair[0]] and passed[pair[1]]
                and runs[pair[0]]["stdout"] != runs[pair[1]]["stdout"]):
            self.failures.append(f"{pair[1]}: output differs from {pair[0]}")
        total = {key: sum(r[key] for r in runs.values())
                 for key in ("wall", "cpu", "raw_wall", "raw_cpu")}
        return {**total, "rss_mb": max(r["rss_mb"] for r in runs.values()),
                "walls": {label: r["wall"] for label, r in runs.items()},
                "spans": spans}


def layer_metrics(traced_pass: dict) -> dict[str, float]:
    """Span totals of one traced pass: self time per layer and per span name
    (normalised like the end-to-end times), call counts per span name, and
    the instance counters."""
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({name: 0 for name in COUNTERS})
    for doc in traced_pass["spans"]:
        for _caller, name, calls, _total, self_s in doc["spans"]:
            self_s *= doc["speed"]
            out[f"{name.split('.')[0]}.self_s"] += self_s
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + calls
        for name, value in doc["counters"].items():
            out[name] += value
    return out


def counts_of(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def summary(values: list[float]) -> str:
    """Median, quartiles, sample count, and the highest percentile that has
    at least ten samples beyond it."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    text = f"median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}"
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            text += f"  p{pct} {cut:.4f}"
            break
    return text


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def measure(runner: Runner, workload: str, seconds: float, seed: int,
            trace: bool) -> tuple[list[dict], list[dict]]:
    """Passes until the next would overrun the window.  Traced runs need one
    untraced pass for the overhead and two traced ones to compare counts."""
    rng = random.Random(seed)
    invocations = WORKLOADS[workload]
    kinds = ["plain", "traced", "traced"] if trace else ["plain"]
    done: dict[str, list[dict]] = {"plain": [], "traced": []}
    start = time.monotonic()
    while True:
        kind = kinds.pop(0) if kinds else (
            "plain" if not trace or len(done["plain"]) < len(done["traced"])
            else "traced")
        order = rng.sample(invocations, len(invocations))
        done[kind].append(runner.run_pass(workload, order, kind == "traced"))
        elapsed = time.monotonic() - start
        longest = max(p["raw_wall"] for p in done["plain"] + done["traced"])
        if not kinds and (elapsed + longest > seconds
                          or elapsed > LAST_START_S):
            return done["plain"], done["traced"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "qsegre" / "cli.py").is_file():
        print(f"error: no qsegre sources under {SOURCE}", file=sys.stderr)
        return 2

    # Two CPUs: one for the serial invocations, both for the 2-worker pool.
    cpus = sorted(os.sched_getaffinity(0))[:2]
    env_line = (f"seed={args.seed} python={sys.version.split()[0]} "
                f"nproc={len(os.sched_getaffinity(0))} "
                f"loadavg_start=[{loadavg()}]")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        with SpeedProbe(cpus) as probe:
            runner = Runner(workdir, probe, cpus)
            setup = runner.setup_times()
            plain, traced = measure(runner, args.workload, args.seconds,
                                    args.seed, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} trace={args.trace} {env_line} "
          f"loadavg_end=[{loadavg()}]")
    samples = {"wall_s": [p["wall"] for p in plain],
               "cpu_s": [p["cpu"] for p in plain],
               "peak_rss_mb": [p["rss_mb"] for p in plain],
               "setup_s": [r["wall"] for r in setup]}
    raw = {"wall_s": [p["raw_wall"] for p in plain],
           "cpu_s": [p["raw_cpu"] for p in plain],
           "setup_s": [r["raw_wall"] for r in setup]}
    for name, values in samples.items():
        print(f"{name:12s} {END_TO_END_UNITS[name]:3s} {summary(values)}")
    for name, values in raw.items():
        print(f"{name:12s} raw {summary(values)}")
    probe_us = {c: statistics.median(ns for _, ns in probe.samples[c]) / 1000
                for c in cpus}
    print("probe cost, median us per CPU: "
          + "  ".join(f"cpu{c} {us:.1f}" for c, us in probe_us.items())
          + f"  (reference {REFERENCE_NS / 1000:.1f})")
    failed = len(runner.failures)
    print(f"fail_ratio   ratio {failed}/{runner.attempted} = "
          f"{failed / runner.attempted:.4f}")
    for label in plain[0]["walls"]:
        walls = [p["walls"][label] for p in plain]
        print(f"  wall s  {summary(walls)}  {label}")
    for reason in runner.failures:
        print(f"FAIL {reason}")

    correct = failed == 0
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        if any(counts_of(m) != counts_of(per_pass[0]) for m in per_pass[1:]):
            print("FAIL counts differ between traced passes")
            correct = False
        metrics = {}
        for name in PER_LAYER:
            if name == "trace.overhead_s":
                value = (statistics.median(p["wall"] for p in traced)
                         - statistics.median(samples["wall_s"]))
            elif name.endswith("_s"):
                value = statistics.median(m.get(name, 0.0) for m in per_pass)
            else:  # a count, the same in every traced pass
                value = per_pass[0].get(name, 0)
            metrics[name] = {"value": value,
                             "unit": "s" if name.endswith("_s") else "count"}
        untraced = [inv.label for inv in WORKLOADS[args.workload] if inv.pool]
        if untraced:
            print(f"untraced (process pool): {', '.join(untraced)}")
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        shares = "  ".join(
            f"{layer} {metrics[f'{layer}.self_s']['value'] / total:.1%}"
            for layer in LAYERS)
        print(f"self-time shares: {shares}")
        for name, metric in metrics.items():
            print(f"  {name:45s} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": statistics.median(values),
                          "unit": END_TO_END_UNITS[name]}
                   for name, values in samples.items()}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
