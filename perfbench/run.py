"""Benchmark of the eqdescent command line, end to end and per layer.

    python3 perfbench/run.py --workload koszul-blocks --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Set-up imports the package and writes the workload's
problem files (several times; the median is ``setup_s``).  A warm-up runs
every operation type once at tiny sizes.  The run then repeats the
workload's fixed list of operations, a round at a time, until ``--seconds``
have passed (at least one round), calling ``eqdescent.cli.main`` in-process,
one operation at a time.  End-to-end times are in seconds at a reference
speed (see ``PROBE_REF_S``); per-layer times are as measured.  Once the timing is over, each operation's first
report is checked against results computed apart from the program
(``reference.py``); its later runs must repeat its exit code and
``report_digest`` exactly.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the rounds run with the layer
functions wrapped (``tracing.py``) and the object holds the per-layer metrics
of the median round.  ``--quick`` runs one round of the tiny operations.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
# The shared machines this runs on change speed by tens of percent from one
# minute to the next, for every process alike.  So each timed interval is
# scaled to a reference speed: ``probe`` times a fixed piece of stdlib work
# right before and right after the interval, and the interval is multiplied
# by PROBE_REF_S over the mean of the two probe times.
PROBE_REF_S = 0.010

import workloads  # noqa: E402
from tracing import ROOT as ROOT_SPAN  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = (
    "linalg.rank_s", "linalg.rank_calls", "linalg.rank_cells",
    "descent.fiber_restrict_s", "descent.fiber_points",
    "descent.block_cohomology_s", "descent.block_matrices", "descent.max_block_cells",
    "descent.check_s",
    "polynomials.evaluate_s", "polynomials.evaluate_calls",
    "complexes.validate_s", "words.apply_s",
    "groups.equalizer_s", "groups.equalizer_calls",
    "groups.subgroup_s", "groups.subgroup_elements",
    "groups.restrict_s", "groups.restrict_values",
    "linalg.snf_s", "linalg.snf_calls",
    "action.strata_s", "action.sample_points_s",
    "cli.emit_s", "cli.report_bytes", "cli.main_s", "problem.load_s",
    "oracle.isotypic_s", "oracle.isotypic_calls", "randgen.complex_s",
    "trace.wall_s", "trace.probe_s",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name == "cli.report_bytes" else "count"


class BenchError(Exception):
    """The benchmark cannot run here."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_cli():
    """Import eqdescent afresh from the checkout's src directory."""
    if not os.path.isfile(os.path.join(SRC, "eqdescent", "cli.py")):
        raise BenchError(f"no eqdescent package under {SRC}; run from a source checkout")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "eqdescent" or n.startswith("eqdescent.")]:
        del sys.modules[name]
    cli = importlib.import_module("eqdescent.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported eqdescent from {cli.__file__}, not from {SRC}")
    return cli


def probe():
    """Seconds taken by a fixed piece of work that does not touch eqdescent."""
    started = time.perf_counter()
    total = Fraction(0)
    table = {}
    for i in range(1, 2600):
        total += Fraction(i % 11 + 1, i % 13 + 1)
        table[(i % 97, i % 89)] = total.numerator % 1009
    return time.perf_counter() - started


def scaled(seconds, before, after):
    """An interval at the reference speed, from the probes around it."""
    return seconds * 2 * PROBE_REF_S / (before + after)


def set_up(workload, seed, workdir, quick):
    """Import the package and write the problem files; return (cli, ops, warm-up ops, seconds)."""
    times = []
    before = probe()
    for _ in range(1 if quick else SETUP_REPEATS):
        started = time.perf_counter()
        cli = import_cli()
        shutil.rmtree(workdir, ignore_errors=True)
        ops = workloads.build(workload, seed, workdir, quick)
        warmup = workloads.build(workload, seed, os.path.join(workdir, "warmup"), quick=True)
        seconds = time.perf_counter() - started
        after = probe()
        times.append(scaled(seconds, before, after))
        before = after
    return cli, ops, warmup, statistics.median(times)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def invoke(cli, argv, tracer=None):
    """One CLI invocation in-process: (exit code, stdout text, seconds).

    A crash is a wrong result, not the end of the run: it comes back as an
    exit code naming the exception.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer:
            tracer.enter(ROOT_SPAN)
        started = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:
            code = f"exception {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if tracer:
            seconds = tracer.leave()
    return code, out.getvalue(), seconds


def parse_payload(text):
    if not text.startswith("{"):
        return None
    payload, _ = json.JSONDecoder().raw_decode(text)
    return payload


def digest_of(text):
    """The report_digest line of a report, found without parsing it all."""
    marker = '"report_digest": "'
    start = text.find(marker)
    if start < 0:
        return None
    start += len(marker)
    return text[start:text.index('"', start)]


class Outcome:
    """Operations run, and their reports, checked once the timing is over.

    The first report of each operation is kept in a file, so that checking
    it neither takes time from the rounds nor adds to their peak memory.
    Later runs of the operation must repeat its exit code and digest.
    """

    def __init__(self, ops, workdir):
        self.ops = ops
        self.workdir = workdir
        self.attempted = 0
        self.first = {}  # op index -> (exit code, digest) of its first run
        self.runs = {}  # op index -> times run
        self.changed = {}  # op index -> runs whose exit code or digest differed

    def _path(self, index):
        return os.path.join(self.workdir, f"report-{index}.txt")

    def record(self, index, code, text):
        self.attempted += 1
        self.runs[index] = self.runs.get(index, 0) + 1
        digest = digest_of(text)
        if index not in self.first:
            self.first[index] = (code, digest)
            with open(self._path(index), "w", encoding="utf-8") as handle:
                handle.write(text)
        elif (code, digest) != self.first[index]:
            self.changed[index] = self.changed.get(index, 0) + 1

    def verdict(self):
        """(failed operations, whether the benchmark is correct, problems)."""
        failed, correct, problems = 0, True, []
        for index in sorted(self.first):
            op = self.ops[index]
            code = self.first[index][0]
            with open(self._path(index), encoding="utf-8") as handle:
                text = handle.read()
            try:
                wrong = op.check(code, parse_payload(text))
            except (KeyError, IndexError, TypeError, ValueError) as err:
                wrong = [f"report has an unexpected shape: {err!r}"]
            changed = self.changed.get(index, 0)
            # A wrong first report makes every run of the operation wrong; a
            # right one leaves only the runs that did not repeat it.
            failed += self.runs[index] if wrong else changed
            if changed:
                wrong.append(f"{changed} later run(s) gave another exit code or digest")
            if changed or (wrong and not op.known_fault):
                correct = False
                problems.append(f"{op.label}: " + "; ".join(wrong[:5]))
        return failed, correct, problems


def run_round(cli, ops, outcome, tracer=None):
    """Run every operation once.

    Returns the seconds of each operation, as measured and scaled to the
    reference speed, and the probe times around them.
    """
    latencies, probes = [], []
    gc.collect()
    probes.append(probe())
    for index, op in enumerate(ops):
        gc.collect()  # start each operation on a clean heap, outside its time
        code, text, seconds = invoke(cli, op.argv, tracer)
        probes.append(probe())
        latencies.append(seconds)
        outcome.record(index, code, text)
    return latencies, [scaled(t, a, b) for t, a, b in zip(latencies, probes, probes[1:])], probes


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def measure(workload, seed, seconds, trace, quick=False):
    """Set up, warm up and run rounds; return the result object."""
    workdir = os.path.join(HERE, "out", f"{workload}-{seed}-{os.getpid()}")
    try:
        cli, ops, warmup, setup_s = set_up(workload, seed, workdir, quick)
        warm = Outcome(warmup, os.path.join(workdir, "warmup"))
        run_round(cli, warmup, warm)
        outcome = Outcome(ops, workdir)
        tracer = Tracer() if trace else None
        rounds = []  # (wall seconds, scaled latencies, probes, self times, counts)
        if tracer:
            tracer.install()
        try:
            started = time.perf_counter()
            while not rounds or (not quick and time.perf_counter() - started < seconds):
                if tracer:
                    tracer.reset()
                latencies, latencies_scaled, probes = run_round(cli, ops, outcome, tracer)
                rounds.append((sum(latencies), latencies_scaled, probes,
                               dict(tracer.self_s) if tracer else None,
                               dict(tracer.counts) if tracer else None))
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _, warm_correct, warm_problems = warm.verdict()
        failed, correct, problems = outcome.verdict()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in warm_problems + problems:
        print(f"wrong: {line}", file=sys.stderr)
    if trace:
        metrics = layer_metrics(rounds)
    else:
        metrics = {
            "wall_s": statistics.median(sum(r[1]) for r in rounds),
            "op_p50_ms": 1000 * statistics.median(s for r in rounds for s in r[1]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return {
        "correct": warm_correct and correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def layer_metrics(rounds):
    """Per-layer figures of the median round by traced wall time, as measured."""
    ordered = sorted(rounds, key=lambda r: r[0])
    wall, _, probes, self_s, counts = ordered[(len(ordered) - 1) // 2]
    values = {"trace.wall_s": wall, "trace.probe_s": statistics.median(probes)}
    for span, seconds in self_s.items():
        values[span + "_s"] = seconds
    values.update(counts)
    return {
        name: {"value": values.get(name, 0.0 if name.endswith("_s") else 0), "unit": per_layer_unit(name)}
        for name in PER_LAYER
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="one round of tiny operations")
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, args.quick)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
