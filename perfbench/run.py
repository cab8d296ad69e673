"""Benchmark of the boxvas command line, run in-process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run is one fresh single-threaded process.  It builds the
workload's inputs from the seed and the reference answers from
``checkers``, then repeats whole rounds (the fixed batch, then the headline
operation) until ``--seconds`` have passed.  Every operation is one
``boxvas.cli.run_command`` call: parse, engine, re-verification and the
JSON envelope.  Only that call is timed; every answer is checked after it.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced rounds with
rounds that record per-layer spans (see ``tracing``) and reports those
metrics, with the tracing overhead between the two.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import selftest
import tracing
from checkers import CheckFailed
from workloads import ENVELOPE_KEYS, WORKLOADS, Files, Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 15

# A probe process does what a run does before its first operation: start the
# interpreter and import boxvas.cli from the checkout.
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import boxvas.cli\n"
    "if not boxvas.cli.__file__.startswith(sys.argv[1]): sys.exit(3)\n"
    "sys.stdout.write('ready'); sys.stdout.flush()"
)


def setup_time() -> float:
    """Seconds from launching a process until boxvas.cli is imported."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, SRC], stdout=subprocess.PIPE)
    with proc:
        ready = proc.stdout.read(5)
        elapsed = perf_counter() - start
    if ready != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


@dataclass
class Tally:
    rounds: int = 0
    batch_s: float = 0.0
    answers: int = 0
    failed: int = 0
    wrong: int = 0
    witness_steps: int = 0
    witnesses: int = 0
    headline_s: list[float] = field(default_factory=list)


def run_op(run_command, op: Op) -> tuple[float, int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        code = run_command(op.argv)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def judge(op: Op, code: int, out: str, tally: Tally) -> bool:
    """Check one answer into the tally; True when it is a verified answer."""
    if code != 0:
        tally.failed += 1
        if code != op.expect_exit:
            print(f"{op.label}: exit code {code}", file=sys.stderr)
        return False
    try:
        envelope = json.loads(out)
        if set(envelope) != ENVELOPE_KEYS:
            raise CheckFailed(f"envelope keys {sorted(envelope)}")
        steps = op.check(envelope["result"])
    except (CheckFailed, KeyError, TypeError, ValueError) as e:
        print(f"{op.label}: wrong answer: {e!r}", file=sys.stderr)
        tally.failed += 1
        tally.wrong += 1
        return False
    tally.witness_steps += steps
    tally.witnesses += "witness" in envelope["result"]
    return True


def run_round(workload, run_command, tally: Tally) -> None:
    for op in workload.batch:
        elapsed, code, out = run_op(run_command, op)
        tally.batch_s += elapsed
        tally.answers += judge(op, code, out, tally)
    elapsed, code, out = run_op(run_command, workload.headline)
    tally.headline_s.append(elapsed)
    judge(workload.headline, code, out, tally)
    tally.rounds += 1


def measure(workload, run_command, seconds: float) -> Tally:
    """Whole rounds of batch plus headline until ``seconds`` have passed."""
    tally = Tally()
    start = perf_counter()
    while True:
        run_round(workload, run_command, tally)
        if perf_counter() - start >= seconds:
            return tally


def measure_traced(workload, run_command, seconds: float, tracer) -> tuple[Tally, Tally]:
    """Rounds in blocks of untraced, traced, traced, untraced, so that a
    steady drift in CPU speed weighs on both sides alike; whole blocks until
    ``seconds`` have passed.  Returns (untraced, traced)."""
    plain, traced = Tally(), Tally()
    traced_run = tracer.wrap("cli", "run_command", run_command)
    start = perf_counter()
    while True:
        run_round(workload, run_command, plain)
        tracer.install()
        try:
            run_round(workload, traced_run, traced)
            run_round(workload, traced_run, traced)
        finally:
            tracer.uninstall()
        run_round(workload, run_command, plain)
        if perf_counter() - start >= seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "boxvas", "cli.py")):
        print(f"no boxvas sources under {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    selftest_failures = selftest.run()
    for failure in selftest_failures:
        print(f"checker self-test: {failure}", file=sys.stderr)

    setup = [] if args.trace else [setup_time() for _ in range(SETUP_PROBES)]
    from boxvas.cli import run_command

    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        workload = WORKLOADS[args.workload](args.seed, Files(work))
        if args.trace:
            tracer = tracing.Tracer()
            base, tally = measure_traced(workload, run_command, args.seconds, tracer)
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            tally = measure(workload, run_command, args.seconds)

    per_round = len(workload.batch) + 1
    answers_per_s = tally.answers / tally.batch_s
    if args.trace:
        values = tracer.layer_metrics(tally.rounds, tally.witnesses)
        values["trace.spans"] = len(tracer.spans) / tally.rounds
        base_batch = base.batch_s / base.rounds
        values["trace.overhead_pct"] = 100 * (tally.batch_s / tally.rounds / base_batch - 1)
        values["trace.answers_per_s"] = answers_per_s
        values["trace.headline_s"] = statistics.median(tally.headline_s)
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, (unit, _, _) in tracing.METRICS.items()}
        rounds = tally.rounds + base.rounds
        failed = tally.failed + base.failed
        wrong = tally.wrong + base.wrong
    else:
        values = {
            "answers_per_s": (answers_per_s, "1/s"),
            "headline_s": (statistics.median(tally.headline_s), "s"),
            "witness_steps": (tally.witness_steps / tally.rounds, "steps"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        rounds, failed, wrong = tally.rounds, tally.failed, tally.wrong

    print(f"{args.workload}: {rounds} rounds of {per_round} operations, "
          f"{failed} failed, {wrong} wrong", file=sys.stderr)
    print(json.dumps({
        "correct": wrong == 0 and not selftest_failures,
        "attempted": rounds * per_round,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
