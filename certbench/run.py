#!/usr/bin/env python3
"""Benchmark of shiftlab's certificates, one workload per process.

    python3 certbench/run.py --workload khypo-1d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; shiftlab is imported from its ``src``
directory.  The workload's fixed batch is generated from ``--seed``; the
run repeats whole rounds of that batch, one operation at a time (a closed
loop with one caller), until ``--seconds`` of rounds have passed.  An
operation's latency is its fastest wall time over the rounds.  Every
output is checked.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A fuller record of the run goes to ``certbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "_work")

# Set-up is measured this many times, each in a fresh process, spread over
# the run's rounds; the median is reported.
SETUP_SAMPLES = 9
# The tail percentile leaves this many operations of the batch above it.
TAIL_BEYOND = 10

PER_LAYER_TIMES = (
    "shift1d.gamma",
    "exactnum.psd_check",
    "exactnum.psd2_radical_cross",
    "shift2d.grid_from_json",
    "shift2d.six_point_data",
    "shift2d.joint_hyponormal_window",
    "cli.main",
    "exactnum.decimal_string",
    "measures.make1d",
    "exactnum.poly_nonneg_on_interval",
    "measures.backward_ext_2var",
    "sfc.params_from_json",
    "sfc.classify",
)
PER_LAYER_COUNTS = (
    "shift1d.gamma.calls",
    "shift1d.gamma.products",
    "shift1d.hankel_psd.calls",
    "exactnum.psd_check.calls",
    "exactnum.matrix_det.calls",
    "exactnum.psd2_radical_cross.calls",
    "shift2d.six_point_data.calls",
    "exactnum.decimal_string.calls",
    "measures.make1d.calls",
    "exactnum.poly_nonneg_on_interval.calls",
)
PER_LAYER_BITS = ("shift1d.hankel_matrix", "shift2d.six_point_data")


def reference_ms() -> float:
    """A fixed computation in plain fractions that calls no shiftlab code.

    One timing per round, beside the metrics: its fastest time tells a drift
    in the machine's speed apart from a change in the program."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 2500):
        acc += Fraction(1, k * k + 1)
    return (time.perf_counter() - start) * 1000


class Bench:
    """Set-up and execution of one workload's batch."""

    def __init__(self, workload: str, seed: int, workdir: str):
        from shiftlab import cli, sfc, shift2d

        self.workload = workload
        self.cli, self.sfc, self.shift2d = cli, sfc, shift2d
        os.environ["SHIFTLAB_PRECISION"] = "12"
        self.ops = workloads.BATCHES[workload](seed)
        self.warmup = workloads.warmup_op(workload)
        os.makedirs(workdir, exist_ok=True)
        workloads.write_specs(self.ops + [self.warmup], workdir)
        self._checks: dict = {}
        outcome = self.run(self.warmup)
        verdict = self.check(-1, self.warmup, outcome)
        if not verdict.ok:
            raise RuntimeError(f"warm-up operation failed: {verdict.reason}")

    def run(self, op):
        """The operation itself; returns what the check needs."""
        if op.command:
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            return code
        params = self.sfc.params_from_json(op.spec)
        classification = self.sfc.classify(params)
        extension = self.sfc.sfc_backward_extension(params)
        scan = self.shift2d.joint_hyponormal_window(self.sfc.sfc_grid(params), *op.window)
        return classification, extension, scan

    def collect(self, op, code):
        """A CLI exit code and the report the operation wrote."""
        try:
            with open(op.out, encoding="utf-8") as handle:
                text = handle.read()
            os.remove(op.out)
        except OSError:
            text = None
        return code, text

    def check(self, index: int, op, outcome):
        """Check one output; results are kept per distinct output, so a
        repeated round re-uses the verdict on byte-identical output."""
        if isinstance(outcome, BaseException):
            if op.command and os.path.exists(op.out):
                os.remove(op.out)
            return workloads.Verdict(False, reason=f"raised {outcome!r}")
        if op.command:
            outcome = self.collect(op, outcome)
            code, text = outcome
            key = (index, code, None if text is None else hashlib.sha256(text.encode()).digest())
        else:
            c, e, s = outcome
            key = (index, c.verdict, c.h_sq, c.s_sq, e.ok, e.failed, s.verdict, s.witness)
        if key not in self._checks:
            self._checks[key] = self._check(op, outcome)
        return self._checks[key]

    def _check(self, op, outcome):
        if not op.command:
            return workloads.check_sfc(op, *outcome)
        code, text = outcome
        if code not in (0, 1) or text is None:
            return workloads.Verdict(False, reason=f"exit {code}, no report")
        return workloads.CLI_CHECKS[self.workload](op, code, json.loads(text))


class Rounds:
    """What the rounds of one run produced."""

    def __init__(self, batch: int):
        self.walls: list[float] = []
        self.traced: list[bool] = []
        self.latencies: list[list[float]] = [[] for _ in range(batch)]
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.counts: list[Counter] = []
        self.reference_ms: list[float] = []
        self.setup_s: list[float] = []

    def fastest(self, traced: bool) -> list[float]:
        """Each operation's fastest wall time over the rounds of one kind."""
        return [min(t for t, tr in zip(times, self.traced) if tr == traced) for times in self.latencies]


def run_rounds(bench: Bench, seconds: float, tracer=None, probe=None) -> Rounds:
    """Whole rounds of the batch until ``seconds`` of rounds have passed.

    With a tracer, rounds alternate between untraced and traced, so that
    both kinds see the same machine; spans of round r, operation i carry the
    operation id r * batch + i.  With a set-up probe, one probe follows the
    first round after each ninth of ``seconds``, so the set-up samples see
    the machine over the whole run rather than in its first seconds.
    """
    batch = len(bench.ops)
    rounds = Rounds(batch)
    while len(rounds.walls) < (2 if tracer else 1) or sum(rounds.walls) < seconds:
        traced = tracer is not None and len(rounds.walls) % 2 == 1
        first_id = len(rounds.walls) * batch
        outcomes = []
        if traced:
            before = Counter(tracer.counts)
            spans.install(tracer)
        round_start = time.perf_counter()
        for index, op in enumerate(bench.ops):
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.operation(first_id + index):
                        outcome = bench.run(op)
                else:
                    outcome = bench.run(op)
            except Exception as exc:  # an operation that raises is a failed operation
                outcome = exc
            rounds.latencies[index].append(time.perf_counter() - start)
            outcomes.append(outcome)
        rounds.walls.append(time.perf_counter() - round_start)
        rounds.traced.append(traced)
        if traced:
            tracer.unpatch()
            rounds.counts.append(Counter(tracer.counts) - before)
        rounds.reference_ms.append(reference_ms())
        taken = len(rounds.setup_s)
        if probe and taken < SETUP_SAMPLES and sum(rounds.walls) >= taken * seconds / SETUP_SAMPLES:
            rounds.setup_s.append(probe())
        for index, (op, outcome) in enumerate(zip(bench.ops, outcomes)):
            verdict = bench.check(index, op, outcome)
            if not verdict.ok:
                rounds.failures[(index, verdict.known_fault, verdict.reason)] += 1
                if not verdict.known_fault:
                    rounds.wrong.append(f"op {index} ({op.stratum}): {verdict.reason}")
    return rounds


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first timed operation:
    interpreter start, import, input generation, spec files, one warm-up."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.stdout.close()
        code = child.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed


def per_layer_metrics(tracer, rounds: Rounds) -> dict:
    """Per-layer self times of each operation in its fastest traced round
    (these add up to that round's operation time), per-round counts, the
    largest operand bit lengths, and the tracing overhead."""
    batch = len(rounds.latencies)
    self_s = tracer.self_times()
    layer: Counter = Counter()
    for index, times in enumerate(rounds.latencies):
        best = min((t, r) for r, (t, tr) in enumerate(zip(times, rounds.traced)) if tr)[1]
        layer.update(self_s[best * batch + index])
    metrics = {}
    for name in PER_LAYER_TIMES:
        metrics[f"{name}.self_ms"] = {"value": layer[name] / batch * 1000, "unit": "ms"}
    for name in PER_LAYER_COUNTS:
        metrics[name] = {"value": rounds.counts[0].get(name, 0), "unit": "count"}
    for name in PER_LAYER_BITS:
        metrics[f"{name}.max_bits"] = {"value": tracer.max_bits.get(name, 0), "unit": "bits"}
    unlisted = sum(layer.values()) - layer[spans.OVERHEAD] - sum(layer[name] for name in PER_LAYER_TIMES)
    metrics["trace.unlisted_ms"] = {"value": unlisted / batch * 1000, "unit": "ms"}
    traced, untraced = sum(rounds.fastest(True)), sum(rounds.fastest(False))
    metrics["trace.overhead_pct"] = {"value": (traced / untraced - 1) * 100, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("khypo-1d", "joint-2d", "sfc-certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "shiftlab", "__init__.py")):
        print(f"error: no shiftlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, str(os.getpid()))
    try:
        if args.probe:
            Bench(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def measure(args, workdir: str) -> int:
    bench = Bench(args.workload, args.seed, workdir)
    batch = len(bench.ops)
    tail_pct = 100 * (1 - TAIL_BEYOND / batch)

    tracer = spans.Tracer() if args.trace else None
    probe = None if args.trace else lambda: setup_probe(args.workload, args.seed)
    rounds = run_rounds(bench, args.seconds, tracer, probe)
    while probe and len(rounds.setup_s) < SETUP_SAMPLES:
        rounds.setup_s.append(probe())

    attempted = batch * len(rounds.walls)
    failed = sum(rounds.failures.values())
    counts_repeat = all(c == rounds.counts[0] for c in rounds.counts)
    correct = not rounds.wrong and counts_repeat
    if args.trace:
        metrics = per_layer_metrics(tracer, rounds)
    else:
        # An operation's latency is its fastest wall time over the rounds:
        # other processes on the machine only ever add time to a round.
        per_op = sorted(rounds.fastest(False))
        metrics = {
            "throughput_ops": {"value": batch / sum(per_op), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(per_op) * 1000, "unit": "ms"},
            "latency_tail_ms": {"value": nearest_rank(per_op, tail_pct) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(rounds.setup_s), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batch": batch,
        "rounds": len(rounds.walls),
        "round_wall_s": rounds.walls,
        "round_traced": rounds.traced,
        "tail_percentile": tail_pct,
        "latency_samples": batch,
        "latency_ms_per_op": [[t * 1000 for t in times] for times in rounds.latencies],
        "setup_samples_s": rounds.setup_s,
        "reference_ms": {"fastest": min(rounds.reference_ms), "per_round": rounds.reference_ms},
        "failures": [
            {"op": index, "known_fault": known, "reason": reason, "count": count}
            for (index, known, reason), count in sorted(rounds.failures.items())
        ],
        "counts_repeat": counts_repeat,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if tracer:
        tracer.write(stem + "-spans.tsv.gz")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds.walls)} rounds of {batch} operations, {attempted} attempted, {failed} failed")
    print(f"tail percentile p{tail_pct:g} over {batch} operations, each timed by its fastest round")
    print(f"reference computation (plain fractions, no shiftlab): fastest {min(rounds.reference_ms):.3f} ms "
          f"of {len(rounds.reference_ms)} rounds")
    for line in rounds.wrong[:10]:
        print(f"unexpected failure: {line}")
    for (index, known, reason), count in sorted(rounds.failures.items()):
        if known:
            print(f"known fault, op {index}: {reason} (x{count})")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
