"""Command-line contract: exit codes, payload shape, byte-determinism."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import eqdescent.cli as cli_module
import eqdescent.selftest as selftest_module
from eqdescent.action import ProjectiveAction, RationalPoint
from eqdescent.cli import main, report_digest
from eqdescent.complexes import InternalConsistencyError, TwistedSummand, bundle_complex
from eqdescent.groups import AbelianGroup
from eqdescent.oracle import isotypic_cohomology
from eqdescent.problem import parse_problem, point_to_list, problem_to_dict

FIXTURE = "tests/fixtures/z2_p2.json"


def run_cli(*argv):
    """Run the CLI in-process; returns (exit_code, stdout, parsed JSON)."""
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    text = out.getvalue()
    payload = extract_payload(text)
    return code, text, payload


def extract_payload(text):
    if not text.startswith("{"):
        return None
    depth = 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return json.loads(text[: i + 1])
    return None


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


def test_strata_lists_all_supports():
    code, text, payload = run_cli("strata", FIXTURE)
    assert code == 0
    assert payload["count"] == 7
    big = [s["support"] for s in payload["strata"] if s["stabilizer_order"] == 2]
    assert big == [[0], [1], [2], [0, 1]]
    assert "SCALAR CHAR" in text  # human table is appended after the JSON


# ---------------------------------------------------------------------------
# check-descent
# ---------------------------------------------------------------------------


def test_check_descent_pass_and_fail_exit_codes():
    code, _, payload = run_cli("check-descent", FIXTURE, "--complex", "O2")
    assert code == 0 and payload["report"]["verdict"] == "pass"
    code, _, payload = run_cli("check-descent", FIXTURE, "--complex", "O1")
    assert code == 1 and payload["report"]["verdict"] == "fail"
    wit = payload["report"]["witnesses"][0]
    assert wit["point"] == "(0:0:1)" and wit["fiber_character"] == [0, 1]


def test_check_descent_needs_a_named_complex_when_ambiguous(capsys):
    code = main(["check-descent", FIXTURE])
    assert code == 2
    assert "more than one complex" in capsys.readouterr().err


def test_points_only_flag():
    code, _, payload = run_cli(
        "check-descent", FIXTURE, "--complex", "O1", "--points-only"
    )
    # the fixture's point (1:1:1) has trivial stabilizer, so nothing fails
    assert code == 0
    coverage = payload["report"]["coverage"]["strata"]
    assert all(c["mode"] == "skipped" for c in coverage)
    assert payload["report"]["coverage"]["user_points"] == 1


def test_sampling_flags_override_problem_defaults():
    _, _, payload = run_cli(
        "check-descent", FIXTURE, "--complex", "O2", "--samples", "2", "--seed", "77"
    )
    assert payload["report"]["coverage"]["samples_per_stratum"] == 2
    assert payload["report"]["coverage"]["seed"] == 77
    _, _, payload = run_cli("check-descent", FIXTURE, "--complex", "O2")
    assert payload["report"]["coverage"]["samples_per_stratum"] == 5
    assert payload["report"]["coverage"]["seed"] == 0


@pytest.mark.parametrize("value", ["0", "101"])
def test_samples_out_of_range_exits_2(value, capsys):
    code = main(["check-descent", FIXTURE, "--complex", "O2", "--samples", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --samples must be")
    assert captured.out == ""


def test_problem_file_sample_count_out_of_range_exits_2(tmp_path, capsys):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data["sampling"] = {"samples_per_stratum": 101}
    path = tmp_path / "many_samples.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["check-descent", str(path), "--complex", "O2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: $.sampling.samples_per_stratum: must be at most 100")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# omega and necessary
# ---------------------------------------------------------------------------


def test_omega_disproves_odd_twist_with_named_generators():
    code, _, payload = run_cli(
        "omega", FIXTURE, "--word", "twist1", "--gen-a", "O", "--gen-b", "O"
    )
    assert code == 1
    report = payload["report"]
    assert report["verdict"] == "disproved"
    assert report["failing_conditions"] == ["i", "ii"]
    assert report["image_a"] == "[0: O(1)]"
    assert report["condition_i"]["witnesses"][0]["point"] == "(0:0:1)"


def test_omega_certifies_even_twist_and_shift():
    for word in ("twist2", "shift3"):
        code, _, payload = run_cli("omega", FIXTURE, "--word", word)
        assert code == 0
        assert payload["report"]["verdict"] == "equivalence-certified"
        assert payload["report"]["default_generator"] == {"a": True, "b": True}


def test_omega_rejects_failing_generator(capsys):
    code = main(["omega", FIXTURE, "--word", "twist2", "--gen-a", "O1"])
    assert code == 2
    assert "fails its own descent check" in capsys.readouterr().err


def test_necessary_pass_fail_and_unsupported(capsys):
    code, _, payload = run_cli("necessary", FIXTURE, "--word", "mixed")
    assert code == 0
    assert payload["report"]["kernel"] == {
        "net_twist_degree": 2,
        "net_twist_character": [0],
        "net_shift": 2,
    }
    code, _, payload = run_cli("necessary", FIXTURE, "--word", "twist1")
    assert code == 1 and payload["report"]["verdict"] == "fail"
    code, _, payload = run_cli("necessary", FIXTURE, "--word", "swap01")
    assert code == 2
    assert payload["report"]["supported"] is False
    assert "pushforward" in payload["report"]["reason"]


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_runs_clean():
    code, _, payload = run_cli("selftest-oracle", "--trials", "10", "--seed", "3")
    assert code == 0
    assert payload["report"]["mismatch_count"] == 0
    assert payload["report"]["trials"] == 10


def test_selftest_fails_when_the_block_route_is_wrong(monkeypatch):
    """A block route that reports one dimension too many is caught on every
    trial, and each mismatch replays from its problem serialization."""
    real = selftest_module.block_cohomology

    def one_too_many(fiber):
        dims = real(fiber)
        first = next(iter(dims))
        dims[first] += 1
        return dims

    monkeypatch.setattr(selftest_module, "block_cohomology", one_too_many)
    code, _, payload = run_cli("selftest-oracle", "--trials", "6", "--seed", "3")
    assert code == 1
    report = payload["report"]
    assert report["verdict"] == "fail"
    assert report["mismatch_count"] == 6
    for mismatch in report["mismatches"]:
        problem = parse_problem(mismatch["problem"])
        assert [point_to_list(p) for p in problem.points] == [mismatch["point"]]
        replayed = isotypic_cohomology(problem.complexes["instance"], problem.points[0])
        assert sorted(
            [j, list(values), dim] for (j, values), dim in replayed.items() if dim
        ) == [
            [row["degree"], row["fiber_character"], row["dimension"]]
            for row in mismatch["via_averaging"]
        ]


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--trials", "0"),
        ("--max-dim", "0"),
        ("--max-group-order", "1"),
        ("--max-group-order", "10001"),
    ],
)
def test_selftest_rejects_out_of_range_options(flag, value, capsys):
    code = main(["selftest-oracle", "--trials", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {flag} must be")
    assert captured.out == ""  # no verdict is printed for bad options


# ---------------------------------------------------------------------------
# determinism and the digest
# ---------------------------------------------------------------------------


def test_output_is_byte_identical_except_timing():
    def normalized(text):
        return [
            line
            for line in text.splitlines()
            if '"timing_seconds"' not in line
        ]

    _, first, _ = run_cli("check-descent", FIXTURE, "--complex", "O1", "--seed", "4")
    _, second, _ = run_cli("check-descent", FIXTURE, "--complex", "O1", "--seed", "4")
    assert normalized(first) == normalized(second)


def test_digest_covers_everything_but_timing():
    _, _, a = run_cli("check-descent", FIXTURE, "--complex", "O1")
    _, _, b = run_cli("check-descent", FIXTURE, "--complex", "O1")
    assert a["report_digest"] == b["report_digest"]
    assert a["report_digest"] == report_digest(a)  # recomputable from the payload
    _, _, c = run_cli("check-descent", FIXTURE, "--complex", "O1", "--seed", "8")
    assert c["report_digest"] != a["report_digest"]


# ---------------------------------------------------------------------------
# invalid input
# ---------------------------------------------------------------------------


def test_missing_problem_file_exits_2(capsys):
    assert main(["strata", "no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": {"orders": [2]}, "action": {"dim": 2}}')
    assert main(["strata", str(bad)]) == 2
    assert "$.action.coordinate_characters" in capsys.readouterr().err


def test_invalid_complex_exits_2(tmp_path, capsys):
    data = {
        "group": {"orders": [2]},
        "action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]},
        "complexes": {
            "broken": {
                "terms": {
                    "0": [{"degree": 0, "twist": [0]}],
                    "1": [{"degree": 1, "twist": [0]}],
                },
                "differentials": {
                    "0": [
                        {
                            "source": 0,
                            "target": 0,
                            "entry": [{"coeff": 1, "exponents": [0, 0, 1]}],
                        }
                    ]
                },
            }
        },
    }
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    assert main(["check-descent", str(path)]) == 2
    assert "equivariance" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# internal errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "error", [InternalConsistencyError("block bookkeeping broke"), KeyError("lost")]
)
def test_internal_error_exits_3_without_a_verdict(error, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli_module, "check_descent", broken)
    assert main(["check-descent", FIXTURE, "--complex", "O1"]) == cli_module.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {type(error).__name__}: ")
    assert "Traceback (most recent call last)" in captured.err
    assert "FAIL" not in captured.err


def test_installed_entry_point_works():
    result = subprocess.run(
        [sys.executable, "-m", "eqdescent.cli", "strata", FIXTURE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert '"command": "strata"' in result.stdout


# ---------------------------------------------------------------------------
# pinned digests: the "same behaviour" gate
# ---------------------------------------------------------------------------


PINNED_DIGESTS = (
    (("strata", FIXTURE), "sha256:68901a1e82739d06c8ecbd00422e602a1bf77b2c5f684a33f81be01f83716bce"),
    (("check-descent", FIXTURE, "--complex", "koszul"), "sha256:5da497c78ef36f8b90d70c9c69fa318458003f61b811bdc07181a39f8e1d2c99"),
    (("check-descent", FIXTURE, "--complex", "euler", "--seed", "5"), "sha256:36ccb591618162a5f7376c712f770a05d165f2fea66524172d4d7a00ab5d6b70"),
    (("check-descent", FIXTURE, "--complex", "O1"), "sha256:a96a3af7966081482a7779dbcc87af0417b8c15a1894a73edb6338e718028c5b"),
    (("omega", FIXTURE, "--word", "twist1", "--gen-a", "O", "--gen-b", "O"), "sha256:c76fdcaa6176758e64527c87027268ec9d85d0c2203972340303afed3a5ab151"),
    (("omega", FIXTURE, "--word", "twist2"), "sha256:239633c0b0bc82184a3440295c38032be07c3c73ea0ec87ba9250c0a8f04f197"),
    (("omega", FIXTURE, "--word", "swap01"), "sha256:9312796dcca5e8651907037a54b9df3705f8d1950d478bcfbf5077d0d3968365"),
    (("necessary", FIXTURE, "--word", "mixed"), "sha256:f986ba3b163f936bbe2fac73afeae75822ecd2736e712add692765ededbb470a"),
    (("necessary", FIXTURE, "--word", "twist1"), "sha256:77d9c0e9f3717dd1721d2dc5180540d06beabf14ddb33eb2247a4a18f8af37f8"),
)


@pytest.mark.parametrize(
    "argv, digest", PINNED_DIGESTS, ids=[" ".join(argv[:1] + argv[2:]) for argv, _ in PINNED_DIGESTS]
)
def test_fixture_report_digests_are_pinned(argv, digest):
    """Digests recorded before the integer fiber pipeline; any change to a
    report's content shows up here."""
    _, _, payload = run_cli(*argv)
    assert payload["report_digest"] == digest


@pytest.mark.parametrize(
    "command, digest",
    (
        ("strata", "sha256:5e582a2f11b7ea27ff2835507fb943dee8e52e6cf5375a2d15aaaba9ef71aa90"),
        ("check-descent", "sha256:035da9b6789f905f1c639fce98e2ca7bca6ad924418c1b95bb6b019b444d0bab"),
    ),
)
def test_big_stabilizer_report_digests_are_pinned(tmp_path, command, digest):
    """Trivial Z/100 x Z/100 on P^2: every stabilizer is the whole group of
    order 10,000; the bundle O(3) twisted by (7, 20) fails on every stratum.
    Recorded before the tuple-native group layer."""
    G = AbelianGroup((100, 100))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    bundle = bundle_complex(action, TwistedSummand(3, G.character((7, 20))))
    path = tmp_path / "big_stabilizer.json"
    path.write_text(json.dumps(problem_to_dict(action, {"bundle": bundle})))
    code, _, payload = run_cli(command, str(path))
    assert code == (0 if command == "strata" else 1)
    assert payload["report_digest"] == digest


def test_rational_koszul_p3_report_digest_is_pinned(tmp_path, koszul):
    """Non-integer coefficients, rational sample and user points, and
    several character blocks on the sampled strata."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 3, tuple(G.character((c,)) for c in (0, 1, 0, 1)))
    complex_ = koszul(action, (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(1, 9)))
    points = [RationalPoint(("1/2", "-3/7", "0", "5/3")), RationalPoint(("0", "4/9", "0", "-2"))]
    problem = problem_to_dict(
        action, {"koszul": complex_}, points=points, samples_per_stratum=4, seed=13
    )
    path = tmp_path / "koszul_p3.json"
    path.write_text(json.dumps(problem))
    code, _, payload = run_cli("check-descent", str(path))
    assert code == 0  # the Koszul complex of a full regular sequence is exact off 0
    assert payload["report_digest"] == (
        "sha256:fc3af488b1399c4dca869bbd16650598a4a5d43821434ba8c5ae0ebd3e5a52b6"
    )
