"""Tests of the benchmark itself: quick runs, the output checks, the tracer.

    python3 -m pytest perfbench/tests
"""

import copy
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def quick_reports(cli, workload, tmp_path):
    """(op, exit code, payload) for every quick operation of a workload."""
    out = []
    for op in workloads.build(workload, 3, str(tmp_path), quick=True):
        code, text, _ = run.invoke(cli, op.argv)
        out.append((op, code, run.parse_payload(text)))
    return out


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_reports_every_metric(workload):
    result = run.measure(workload, seed=5, seconds=0, trace=0, quick=True)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    known = 1 if workload == "koszul-blocks" else 0
    assert result["failed"] == known
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_self_times_add_up(workload):
    result = run.measure(workload, seed=5, seconds=0, trace=1, quick=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    self_total = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    again = run.measure(workload, seed=5, seconds=0, trace=1, quick=True)["metrics"]
    counts = [k for k in run.PER_LAYER if not k.endswith("_s")]
    assert {k: metrics[k] for k in counts} == {k: again[k]["value"] for k in counts}


def test_the_reproducer_is_the_only_failed_operation(cli, tmp_path):
    for workload in WORKLOADS:
        for op, code, payload in quick_reports(cli, workload, tmp_path / workload):
            problems = op.check(code, payload)
            assert bool(problems) == op.known_fault, (op.label, problems)


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    def files(seed, name):
        d = tmp_path / name
        d.mkdir()
        workloads.build("big-stabilizer", seed, str(d), quick=True)
        return {p: (d / p).read_text() for p in sorted(os.listdir(d))}

    first = files(7, "a")
    assert first == files(7, "b")
    assert first != files(8, "c")


def test_run_without_the_package_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "koszul-blocks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# every check rejects a wrong report
# ---------------------------------------------------------------------------


def tampered(payload, change):
    """A copy of the report changed by ``change``, with a matching digest, so
    that only the check's own computation can catch it."""
    bad = copy.deepcopy(payload)
    change(bad)
    bad["report_digest"] = reference.digest(bad)
    return bad


def flip(verdicts):
    def change(p):
        r = p["report"]
        r["verdict"] = verdicts[r["verdict"]]
    return change


def first_table(p):
    return p["report"]["tables"][0]


def first_table_of(name):
    return lambda p: p["report"][name]["tables"][0]


def bump_order(get_table):
    def change(p):
        get_table(p)["stabilizer_order"] += 1
    return change


def drop_witness(p):
    r = p["report"]
    r["witnesses"] = r["witnesses"][1:]


CASES = {
    "check-descent": [flip({"pass": "fail", "fail": "pass"}), bump_order(first_table)],
    "omega": [flip({"equivalence-certified": "disproved", "disproved": "equivalence-certified"}),
              bump_order(first_table_of("condition_i"))],
    "necessary": [flip({"pass": "fail", "fail": "pass"}), bump_order(first_table_of("condition_ii"))],
    "strata": [lambda p: p["strata"][0].__setitem__("stabilizer_order", p["strata"][0]["stabilizer_order"] + 1),
               lambda p: p["strata"][-1]["stabilizer_elements"].pop()],
    "selftest-oracle": [flip({"pass": "fail"}),
                        lambda p: p["report"].__setitem__("mismatch_count", 1),
                        lambda p: p["report"].__setitem__("trials", p["report"]["trials"] - 1)],
}


def test_every_check_rejects_wrong_reports(cli, tmp_path):
    seen = set()
    for workload in WORKLOADS:
        for op, code, payload in quick_reports(cli, workload, tmp_path / workload):
            if op.known_fault:
                continue
            command = op.argv[0]
            seen.add(command)
            assert op.check(code, payload) == []
            for change in CASES[command]:
                assert op.check(code, tampered(payload, change)), (op.label, change)
            assert op.check(1 - code, payload), op.label
            wrong_digest = dict(payload, report_digest="sha256:" + "0" * 64)
            assert op.check(code, wrong_digest), op.label
            assert op.check(code, None)
    assert seen == set(CASES)


def test_koszul_checks_reject_a_moved_line_and_a_missing_witness(cli, tmp_path):
    reports = quick_reports(cli, "koszul-blocks", tmp_path)
    dropped = [(op, code, p) for op, code, p in reports if "dropped" in op.label]
    assert dropped
    for op, code, payload in dropped:
        def move(p):
            for row in first_table(p)["cohomology"]:
                if row["dimension"]:
                    row["degree"] -= 1
        assert op.check(code, tampered(payload, move))
        if payload["report"]["witnesses"]:
            assert op.check(code, tampered(payload, drop_witness))
    full = [(op, code, p) for op, code, p in reports if op.label.endswith("koszul") and op.argv[0] == "check-descent"]
    for op, code, payload in full:
        def add_line(p):
            first_table(p)["cohomology"][0]["dimension"] = 1
        assert op.check(code, tampered(payload, add_line))


def test_reproducer_check_accepts_the_true_verdict(cli, tmp_path):
    (op, code, payload), = [r for r in quick_reports(cli, "koszul-blocks", tmp_path) if r[0].known_fault]
    assert payload["report"]["verdict"] == "pass"  # the fault this operation shows
    assert op.check(code, payload)
    fixed = tampered(payload, flip({"pass": "fail"}))
    assert op.check(1, fixed) == []


def test_a_changed_digest_in_a_later_round_is_a_wrong_result(tmp_path):
    op = workloads.Op("op", ("strata",), lambda code, payload: [])
    outcome = run.Outcome([op], str(tmp_path))
    outcome.record(0, 0, '{"report_digest": "sha256:aa"}')
    outcome.record(0, 0, '{"report_digest": "sha256:aa"}')
    assert outcome.verdict() == (0, True, [])
    outcome.record(0, 0, '{"report_digest": "sha256:bb"}')
    failed, correct, _ = outcome.verdict()
    assert (failed, correct, outcome.attempted) == (1, False, 3)


def test_known_fault_counts_as_failed_in_every_round(tmp_path):
    op = workloads.Op("op", ("strata",), lambda code, payload: ["wrong verdict"], known_fault=True)
    outcome = run.Outcome([op], str(tmp_path))
    for _ in range(3):
        outcome.record(0, 0, '{"report_digest": "sha256:aa"}')
    assert outcome.verdict() == (3, True, [])


def test_reference_stabilizers_by_enumeration():
    act = reference.GroupAction((4, 6), ((0, 0), (1, 0), (0, 3)))
    assert len(act.stabilizer((0,))) == 24
    assert act.stabilizer((0, 1)) == [(0, x) for x in range(6)]
    assert len(act.stabilizer((0, 2))) == 12
    assert act.stabilizer((0, 1, 2)) == [(0, 0), (0, 2), (0, 4)]


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


def test_each_rank_is_counted_once_and_originals_come_back(cli):
    import eqdescent.descent as descent
    import eqdescent.linalg as linalg

    original = linalg.rank
    tracer = Tracer()
    tracer.install()
    try:
        assert descent.rank is linalg.rank is not original
        one = linalg.QMatrix.from_rows([[Fraction(2)]])
        block = descent.BlockComplex(dims={0: 1, 1: 1}, mats={0: one})
        assert block.cohomology() == {0: 0, 1: 0}  # kernel_dim at 0, rank at 1
        assert tracer.counts["linalg.rank_calls"] == 2
        assert tracer.counts["linalg.rank_cells"] == 2
    finally:
        tracer.uninstall()
    assert descent.rank is linalg.rank is original
