"""Command-line contract: exit codes, payload shape, byte-determinism."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from random import Random

import pytest

import eqdescent.cli as cli_module
import eqdescent.selftest as selftest_module
import eqdescent.words as words_module
from eqdescent.action import ProjectiveAction, RationalPoint
from eqdescent.cli import build_parser, main, report_digest
from eqdescent.complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    TwistedSummand,
    bundle_complex,
)
from eqdescent.descent import block_cohomology, char_str
from eqdescent.groups import MAX_GROUP_ORDER, AbelianGroup
from eqdescent.oracle import isotypic_cohomology
from eqdescent.polynomials import Poly
from eqdescent.problem import parse_problem, point_to_list, problem_to_dict
from eqdescent.randgen import random_action, random_orders, random_valid_complex

from conftest import koszul_complex, split_report

FIXTURE = "tests/fixtures/z2_p2.json"
FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------


def test_strata_lists_all_supports(cli):
    code, text, payload = cli("strata", FIXTURE)
    assert code == 0
    assert payload["count"] == 7
    big = [s["support"] for s in payload["strata"] if s["stabilizer_order"] == 2]
    assert big == [[0], [1], [2], [0, 1]]
    assert "SCALAR CHAR" in text  # human table is appended after the JSON


# ---------------------------------------------------------------------------
# check-descent
# ---------------------------------------------------------------------------


def test_check_descent_pass_and_fail_exit_codes(cli):
    code, _, payload = cli("check-descent", FIXTURE, "--complex", "O2")
    assert code == 0 and payload["report"]["verdict"] == "pass"
    code, _, payload = cli("check-descent", FIXTURE, "--complex", "O1")
    assert code == 1 and payload["report"]["verdict"] == "fail"
    wit = payload["report"]["witnesses"][0]
    assert wit["point"] == "(0:0:1)" and wit["fiber_character"] == [0, 1]


def test_check_descent_needs_a_named_complex_when_ambiguous(capsys):
    code = main(["check-descent", FIXTURE])
    assert code == 2
    assert "more than one complex" in capsys.readouterr().err


def test_problem_points_are_checked_with_every_stratum(cli):
    code, _, payload = cli("check-descent", FIXTURE, "--complex", "O1")
    # the fixture's point (1:1:1) has trivial stabilizer; O(1) fails on a stratum
    assert code == 1
    assert payload["report"]["verdict"] == "fail"
    assert payload["report"]["coverage"]["user_points"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("check-descent", FIXTURE, "--complex", "O1"),
        ("omega", FIXTURE, "--word", "twist1", "--gen-a", "O", "--gen-b", "O"),
    ],
)
def test_points_only_is_not_an_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--points-only"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --points-only" in err


def test_sampling_flags_set_the_run_and_default_to_5_and_0(cli):
    _, _, payload = cli(
        "check-descent", FIXTURE, "--complex", "O2", "--samples", "2", "--seed", "77"
    )
    assert payload["report"]["coverage"]["samples_per_stratum"] == 2
    assert payload["report"]["coverage"]["seed"] == 77
    _, _, payload = cli("check-descent", FIXTURE, "--complex", "O2")
    assert payload["report"]["coverage"]["samples_per_stratum"] == 5
    assert payload["report"]["coverage"]["seed"] == 0


@pytest.mark.parametrize("value", ["0", "101"])
def test_samples_out_of_range_exits_2(value, capsys):
    code = main(["check-descent", FIXTURE, "--complex", "O2", "--samples", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --samples must be")
    assert captured.out == ""


def test_problem_file_sampling_object_is_an_unknown_key_exits_2(tmp_path, capsys):
    """Sampling is set by the flags only: a problem file holding the run's
    sample count and seed is refused."""
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data["sampling"] = {"samples_per_stratum": 5, "seed": 0}
    path = tmp_path / "sampling.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["check-descent", str(path), "--complex", "O2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: $.sampling: unknown key (expected one of "
        "['action', 'complexes', 'group', 'points', 'words'])\n"
    )
    assert captured.out == ""


# One digit more than int() converts from text; 0 turns the limit off.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(INT_DIGITS == 0, reason="int() has no digit limit")


@needs_int_limit
@pytest.mark.parametrize(
    "where, path",
    [
        (("complexes", "euler", "differentials", "0", 0, "entry", 0, "coeff"),
         "$.complexes.euler.differentials.0[0].entry[0].coeff"),
        (("points", 0, 1), "$.points[0][1]"),
        (("words", "swap01", 0, "scalars", 2), "$.words.swap01[0].scalars[2]"),
    ],
)
@pytest.mark.parametrize("prefix", ["", "-", "1/", "1."], ids=["int", "negative", "ratio", "decimal"])
def test_a_rational_string_over_the_int_digit_limit_exits_2(tmp_path, capsys, where, path, prefix):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    obj = data
    for step in where[:-1]:
        obj = obj[step]
    obj[where[-1]] = prefix + "7" * (INT_DIGITS + 1)
    problem = tmp_path / "long.json"
    problem.write_text(json.dumps(data), encoding="utf-8")
    code = main(["strata", str(problem)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {path}: not an exact rational number: a run of {INT_DIGITS + 1} digits, "
        f"over the limit of {INT_DIGITS} for an int\n"
    )
    assert captured.out == ""


@needs_int_limit
@pytest.mark.parametrize(
    "where, path",
    [
        (("group", "orders", 0), "$.group.orders[0]"),
        (("complexes", "euler", "differentials", "0", 0, "entry", 0, "exponents", 2),
         "$.complexes.euler.differentials.0[0].entry[0].exponents[2]"),
        (("complexes", "euler", "differentials", "0", 0, "entry", 0, "coeff"),
         "$.complexes.euler.differentials.0[0].entry[0].coeff"),
        (("words", "shift3", 0, "k"), "$.words.shift3[0].k"),
    ],
)
def test_a_json_integer_over_the_int_digit_limit_exits_2(tmp_path, capsys, where, path):
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    obj = data
    for step in where[:-1]:
        obj = obj[step]
    obj[where[-1]] = "LONG"
    problem = tmp_path / "long.json"
    text = json.dumps(data).replace('"LONG"', "-" + "7" * (INT_DIGITS + 1))
    problem.write_text(text, encoding="utf-8")
    code = main(["strata", str(problem)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: {path}: an integer of {INT_DIGITS + 1} digits, "
        f"over the limit of {INT_DIGITS} for an int\n"
    )
    assert captured.out == ""


@needs_int_limit
@pytest.mark.parametrize(
    "where, value, path, digits",
    [
        (("points", 0), ["1", "1." + "7" * INT_DIGITS, "1"], "$.points[0]", INT_DIGITS + 1),
        (("points", 0), ["1/" + "9" * (INT_DIGITS - 300), "7" * (INT_DIGITS - 300), "1"],
         "$.points[0]", 2 * (INT_DIGITS - 300)),
        (("words", "swap01", 0, "scalars", 1), "1." + "7" * INT_DIGITS,
         "$.words.swap01[0].scalars[1]", INT_DIGITS + 1),
    ],
    ids=["decimal-numerator", "canonical-form", "push-scalar"],
)
def test_a_number_the_report_cannot_write_exits_2(tmp_path, capsys, where, value, path, digits):
    """Each run of digits is within int()'s limit, but the number a report
    writes is not: the decimal's numerator, the point rescaled to first
    coordinate 1, the scalar in the word's description."""
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    obj = data
    for step in where[:-1]:
        obj = obj[step]
    obj[where[-1]] = value
    problem = tmp_path / "long.json"
    problem.write_text(json.dumps(data), encoding="utf-8")
    code = main(["check-descent", str(problem), "--complex", "O2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    what = "scaled to first nonzero coordinate 1, the point" if where[0] == "points" else "the scalar"
    assert captured.err == (
        f"error: {path}: {what} holds an integer of {digits} digits, "
        f"over the limit of {INT_DIGITS} for writing an int\n"
    )


@needs_int_limit
def test_a_d_squared_violation_with_a_long_coefficient_is_named(tmp_path, capsys):
    """O -> O(1) -> O(2) on P^1 under Z/1, both maps c*x0 with c of 3,000
    nines: d o d = c^2 x0^2 has a 6,000-digit coefficient, which the
    message gives by its digit count."""
    entry = [{"source": 0, "target": 0, "entry": [{"coeff": "9" * 3000, "exponents": [1, 0]}]}]
    problem = {
        "group": {"orders": [1]},
        "action": {"dim": 1, "coordinate_characters": [[0], [0]]},
        "complexes": {"c": {
            "terms": {str(j): [{"degree": j, "twist": [0]}] for j in range(3)},
            "differentials": {"0": entry, "1": entry},
        }},
    }
    path = tmp_path / "long_square.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    code = main(["check-descent", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: $.complexes.c: complex fails validation: [d-squared] degree 0, entry 0 -> 0: "
        "composition through degree 1 is <6000 digits>*x0^2, not 0\n"
    )


# Z/2 acting on P^1 by the characters (0) and (1), and a degree of as many
# nines as int() writes: a word adding anything to it reaches a degree that
# no report can write.
_LONG_DEGREE = int("9" * INT_DIGITS) if INT_DIGITS else 0
_LINE = {"group": {"orders": [2]}, "action": {"dim": 1, "coordinate_characters": [[0], [1]]}}


@needs_int_limit
@pytest.mark.parametrize(
    "argv, extras, path, what",
    [
        (("omega", "--word", "w"),
         {"words": {"w": [{"kind": "twist", "degree": _LONG_DEGREE, "twist": [0]}]}},
         "$.words.w[0].degree", "a degree"),
        (("necessary", "--word", "w"),
         {"words": {"w": [{"kind": "shift", "k": _LONG_DEGREE}] * 2}},
         "$.words.w[0].k", "a degree"),
        (("omega", "--word", "w", "--gen-a", "c", "--gen-b", "c"),
         {"complexes": {"c": {"terms": {str(_LONG_DEGREE): [{"degree": 0, "twist": [0]}]}}},
          "words": {"w": [{"kind": "shift", "k": -1}]}},
         f"$.complexes.c.terms.{_LONG_DEGREE}", "a degree key"),
    ],
    ids=["default-generator-twist", "necessary-shifts", "degree-key"],
)
def test_a_degree_sum_no_report_can_write_is_refused(tmp_path, capsys, argv, extras, path, what):
    """Twisting the default generator's O(2) by O(D), shifting twice by D,
    and shifting a complex held at degree D by -1 each reach a degree of
    more digits than int() writes.  The degree D itself is refused first,
    with its path, exit 2 and nothing on stdout."""
    problem = tmp_path / "long_degree.json"
    problem.write_text(json.dumps(dict(_LINE, **extras)), encoding="utf-8")
    code = main([argv[0], str(problem), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: expected {what} from -1000000000 to 1000000000, got {_LONG_DEGREE}\n"
    )


@needs_int_limit
def test_a_witness_point_too_long_to_write_is_named_by_its_digit_count(tmp_path, cli):
    """0 -> O (x) (1) --(x0/N + N x1)--> O(1) (x) (1) -> 0 with N = 10^3000 + 1
    vanishes at (1 : -1/N^2 : 0), a zero of the linear entry that proves the
    failure on {0,1}.  Its 6,001-digit denominator is written as its digit
    count, and the run fails with that witness instead of an internal error."""
    n = 10**3000 + 1
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    data = {"group": data["group"], "action": data["action"], "complexes": {"c": {
        "terms": {"0": [{"degree": 0, "twist": [1]}], "1": [{"degree": 1, "twist": [1]}]},
        "differentials": {"0": [{"source": 0, "target": 0, "entry": [
            {"coeff": f"1/{n}", "exponents": [1, 0, 0]},
            {"coeff": str(n), "exponents": [0, 1, 0]},
        ]}]},
    }}}
    problem = tmp_path / "long_witness.json"
    problem.write_text(json.dumps(data), encoding="utf-8")
    code, text, payload = cli("check-descent", str(problem))
    assert code == 1
    report = payload["report"]
    assert report["verdict"] == "fail"
    far = [w for w in report["witnesses"] if w["support"] == [0, 1]]
    assert far and {w["point"] for w in far} == {"(1:-<6001 digits>:0)"}
    modes = {tuple(s["support"]): s["mode"] for s in report["coverage"]["strata"]}
    assert modes[(0, 1)] == "exact-witness"
    assert "(1:-<6001 digits>:0)" in text.split("\n", 1)[1]


def test_a_repeated_key_keeps_its_error_next_to_a_long_integer(tmp_path, capsys):
    """The second decoding looks for both faults: the first in document
    order is reported."""
    text = open(FIXTURE, encoding="utf-8").read().replace(
        '"group": {"orders": [2]}', '"group": {"orders": [2], "orders": [2]}'
    ).replace('"k": 3', '"k": ' + "7" * (INT_DIGITS + 1))
    problem = tmp_path / "both.json"
    problem.write_text(text, encoding="utf-8")
    code = main(["strata", str(problem)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: $.group: object repeats the key 'orders'\n"
    assert captured.out == ""


def _entry(*terms):
    """A JSON differential entry from (coeff, exponents) pairs."""
    return [{"coeff": c, "exponents": list(e)} for c, e in terms]


def _sign_quadric(*f):
    """0 -> O x sign --(f + x2^2)--> O(2) x sign -> 0 on the fixture's
    action, f a binary quadric in x0, x1 given as (coeff, exponents) pairs."""
    return {
        "terms": {"0": [{"degree": 0, "twist": [1]}], "1": [{"degree": 2, "twist": [1]}]},
        "differentials": {
            "0": [{"source": 0, "target": 0, "entry": _entry(*f, (1, (0, 0, 2)))}],
        },
    }


# The Koszul complex of x0 - x1 and x1 - x2 on P^2 under trivial Z/2, every
# term twisted by sign: O(-2) -> O(-1)^2 -> O.  Its maps are 2x1 and 1x2.
_K3 = {
    "terms": {
        "-2": [{"degree": -2, "twist": [1]}],
        "-1": [{"degree": -1, "twist": [1]}, {"degree": -1, "twist": [1]}],
        "0": [{"degree": 0, "twist": [1]}],
    },
    "differentials": {
        "-2": [
            {"source": 0, "target": 0, "entry": _entry((-1, (0, 1, 0)), (1, (0, 0, 1)))},
            {"source": 0, "target": 1, "entry": _entry((1, (1, 0, 0)), (-1, (0, 1, 0)))},
        ],
        "-1": [
            {"source": 0, "target": 0, "entry": _entry((1, (1, 0, 0)), (-1, (0, 1, 0)))},
            {"source": 1, "target": 0, "entry": _entry((1, (0, 1, 0)), (-1, (0, 0, 1)))},
        ],
    },
}


@pytest.mark.parametrize(
    "chars, complex_, open_stratum, points",
    [
        ([[0], [0], [1]], _sign_quadric((1, (2, 0, 0)), (-1, (0, 2, 0))), [0, 1], []),
        ([[0], [0], [1]], _sign_quadric((1, (2, 0, 0)), (-3, (1, 1, 0)), (2, (0, 2, 0))), [0, 1], []),
        ([[0], [0], [1]], _sign_quadric((1, (2, 0, 0)), (-2, (0, 2, 0))), [0, 1], []),
        ([[0], [0], [1]], _sign_quadric((1, (2, 0, 0)), (1, (0, 2, 0))), [0, 1], []),
        ([[0], [0], [1]], _sign_quadric((1, (2, 0, 0)), (1, (1, 1, 0)), (1, (0, 2, 0))), [0, 1], []),
        ([[0], [0], [1]], _sign_quadric((1, (2, 0, 0)), (1, (1, 1, 0)), (-3, (0, 2, 0))), [0, 1], []),
        ([[0], [0], [0]], _K3, [0, 1, 2], []),
        ([[0], [0], [0]], _K3, [0, 1, 2], [["1", "1", "1"]]),
    ],
    ids=[
        "x0^2-x1^2", "(x0-x1)(x0-2x1)", "x0^2-2x1^2", "x0^2+x1^2",
        "x0^2+x0x1+x1^2", "x0^2+x0x1-3x1^2", "k3", "k3-at-(1:1:1)",
    ],
)
def test_known_non_descending_complexes_never_get_an_exact_pass(
    cli, tmp_path, chars, complex_, open_stratum, points
):
    """Each complex fails to descend on ``open_stratum``: the first six have
    f + x2^2 vanishing there (at rational points or over Q-bar only), and
    K3's maps all vanish at (1:1:1).  A report may call such a complex
    ``fail`` (exit 1), or leave the stratum sampled and the verdict
    ``undecided`` (exit 4); it never gives it a PASS.  With the user point
    (1:1:1), K3 fails."""
    data = json.loads(open(FIXTURE, encoding="utf-8").read())
    problem = {
        "group": data["group"],
        "action": {"dim": 2, "coordinate_characters": chars},
        "complexes": {"c": complex_},
        "points": points,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    code, _, payload = cli("check-descent", str(path))
    report = payload["report"]
    assert (code, report["verdict"]) in ((1, "fail"), (4, "undecided")), report
    if report["verdict"] == "undecided":
        assert report["exact"] is False and open_stratum in report["sampled_strata"]
        assert not report["witnesses"]
    if points:
        assert code == 1 and report["verdict"] == "fail"


UNDECIDED_FIXTURE = "tests/fixtures/z2_p2_undecided.json"


def test_a_sampled_stratum_without_a_witness_is_undecided(cli):
    """x0^2 - 2x1^2 + x2^2 vanishes at (sqrt 2:1:0), on stratum {0,1},
    where no sample point can land: the stratum is only sampled, and the
    report says so in its verdict and exit code instead of passing."""
    code, text, payload = cli("check-descent", UNDECIDED_FIXTURE)
    assert code == 4
    report = payload["report"]
    assert report["verdict"] == "undecided"
    assert report["witnesses"] == []
    assert report["exact"] is False and report["sampled_strata"] == [[0, 1]]
    summary = text.split("\n\n", 1)[1]
    assert summary.startswith("descent of 'quadric': UNDECIDED (strata {0,1} sampled only)\n")
    assert "note:" not in summary


def _undecided_problem(tmp_path):
    """The undecided quadric twisted back by the sign, which descends (no
    nontrivial block has an entry on {0,1}), with the sign twist as a word."""
    data = json.loads(open(UNDECIDED_FIXTURE, encoding="utf-8").read())
    quadric = data["complexes"]["quadric"]
    plain = json.loads(json.dumps(quadric))
    for summands in plain["terms"].values():
        for summand in summands:
            summand["twist"] = [0]
    data["complexes"] = {"quadric": quadric, "plain": plain}
    data["words"] = {"sign": [{"kind": "twist", "degree": 0, "twist": [1]}]}
    path = tmp_path / "undecided.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_omega_is_undecided_when_a_condition_is_and_none_fails(tmp_path, cli):
    path = _undecided_problem(tmp_path)
    code, text, payload = cli("omega", path, "--word", "sign", "--gen-a", "plain", "--gen-b", "plain")
    assert code == 4
    report = payload["report"]
    assert report["verdict"] == "undecided"
    assert report["failing_conditions"] == []
    assert report["condition_i"]["verdict"] == report["condition_ii"]["verdict"] == "undecided"
    assert "equivalence check for word 'sign': UNDECIDED\n" in text


def test_a_generator_left_undecided_is_refused(tmp_path, capsys):
    """A generator must be proved to descend: one whose own check is only
    sampled is bad input, as a failing one is."""
    path = _undecided_problem(tmp_path)
    code = main(["omega", path, "--word", "sign", "--gen-a", "plain", "--gen-b", "quadric"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: generator b is undecided by its own descent check; "
        "strata {0,1} sampled only\n"
    )


# ---------------------------------------------------------------------------
# omega and necessary
# ---------------------------------------------------------------------------


def test_omega_disproves_odd_twist_with_named_generators(cli):
    code, _, payload = cli(
        "omega", FIXTURE, "--word", "twist1", "--gen-a", "O", "--gen-b", "O"
    )
    assert code == 1
    report = payload["report"]
    assert report["verdict"] == "disproved"
    assert report["failing_conditions"] == ["i", "ii"]
    assert report["image_a"] == "[0: O(1)]"
    assert report["condition_i"]["witnesses"][0]["point"] == "(0:0:1)"


def test_omega_certifies_even_twist_and_shift(cli):
    for word in ("twist2", "shift3"):
        code, _, payload = cli("omega", FIXTURE, "--word", word)
        assert code == 0
        assert payload["report"]["verdict"] == "equivalence-certified"
        assert payload["report"]["default_generator"] == {"a": True, "b": True}


def test_omega_rejects_failing_generator(capsys):
    code = main(["omega", FIXTURE, "--word", "twist2", "--gen-a", "O1"])
    assert code == 2
    assert "fails its own descent check" in capsys.readouterr().err


def test_rejected_generator_error_stays_short(tmp_path, capsys):
    """O twisted by (1, 0) under trivial Z/100 x Z/100 on P^2 fails on every
    stratum with a 10,000-value character: the error names the first
    witnesses with cut characters instead of printing their tables."""
    G = AbelianGroup((100, 100))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    bundle = bundle_complex(action, TwistedSummand(0, G.character((1, 0))))
    problem = problem_to_dict(action, {"L": bundle})
    problem["words"] = {"w": [{"kind": "shift", "k": 1}]}
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(problem))
    code = main(["omega", str(path), "--word", "w", "--gen-a", "L", "--gen-b", "L"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: generator a fails its own descent check")
    assert "... 10000 values)" in captured.err
    assert len(captured.err.encode()) < 1024


def test_omega_default_generator_is_decided_exactly(cli):
    """The default generator is a sum of line bundles with no maps, and every
    word of the fixture keeps it so: no stratum needs sampling."""
    with open(FIXTURE) as f:
        words = json.load(f)["words"]
    for word in words:
        _, text, payload = cli("omega", FIXTURE, "--word", word)
        report = payload["report"]
        assert report["condition_i"]["exact"] and report["condition_ii"]["exact"], word
        assert "sample points only" not in text, word


def test_necessary_skips_trivial_stabilizers(cli):
    _, _, payload = cli("necessary", FIXTURE, "--word", "twist1")
    for condition in ("condition_i", "condition_ii"):
        strata = payload["report"][condition]["coverage"]["strata"]
        trivial = [c["support"] for c in strata if c["mode"] == "exact-trivial-stabilizer"]
        assert trivial == [[0, 2], [1, 2], [0, 1, 2]]


def _assert_push_word_refused(code, text, err, word):
    """``necessary`` on a word holding a push is bad input: exit 2, nothing
    on stdout, and an error line naming the word by its JSON path."""
    assert code == 2
    assert text == ""
    assert err.startswith(f"error: $.words.{word}: word contains a pushforward"), err
    assert err.count("\n") == 1


def test_necessary_pass_fail_and_unsupported(capsys, cli):
    code, _, payload = cli("necessary", FIXTURE, "--word", "mixed")
    assert code == 0
    assert payload["report"]["kernel"] == {
        "net_twist_degree": 2,
        "net_twist_character": [0],
        "net_shift": 2,
    }
    code, _, payload = cli("necessary", FIXTURE, "--word", "twist1")
    assert code == 1 and payload["report"]["verdict"] == "fail"
    code, text, _ = cli("necessary", FIXTURE, "--word", "swap01")
    _assert_push_word_refused(code, text, capsys.readouterr().err, "swap01")


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def test_selftest_runs_clean(cli):
    code, _, payload = cli("selftest-oracle", "--trials", "10", "--seed", "3")
    assert code == 0
    assert payload["report"]["mismatch_count"] == 0
    assert payload["report"]["trials"] == 10


def _one_too_many(fiber):
    """The block route, with one dimension too many in its first row."""
    dims = block_cohomology(fiber)
    first = next(iter(dims))
    dims[first] += 1
    return dims


def test_selftest_fails_when_the_block_route_is_wrong(monkeypatch, cli):
    """A block route that reports one dimension too many is caught on every
    trial, and each mismatch replays from its problem serialization."""
    monkeypatch.setattr(selftest_module, "block_cohomology", _one_too_many)
    code, _, payload = cli("selftest-oracle", "--trials", "6", "--seed", "3")
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


def test_selftest_exits_3_when_a_projector_is_not_idempotent(one_fiber_exponent_off, capsys):
    """One wrong fiber exponent in the averaging route is an internal error:
    exit 3 and no verdict, not a FAIL."""
    assert main(["selftest-oracle", "--trials", "6", "--seed", "3"]) == cli_module.EXIT_INTERNAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: InternalConsistencyError: ")
    assert "neither 0 nor 1" in captured.err
    assert "FAIL" not in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--trials", "0"),
        ("--max-dim", "0"),
        ("--max-dim", "11"),
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


def test_output_is_byte_identical_except_timing(cli):
    def without_timing(text):
        payload, rest = split_report(text)
        del payload["timing_seconds"]
        return payload, rest

    _, first, _ = cli("check-descent", FIXTURE, "--complex", "O1", "--seed", "4")
    _, second, _ = cli("check-descent", FIXTURE, "--complex", "O1", "--seed", "4")
    assert without_timing(first) == without_timing(second)


FIXTURE_COMMANDS = (
    [("strata", FIXTURE)]
    + [("check-descent", FIXTURE, "--complex", name) for name in ("O", "O1", "O2", "euler", "koszul")]
    + [("omega", FIXTURE, "--word", word) for word in ("twist1", "twist2", "shift3", "mixed", "swap01")]
    + [("necessary", FIXTURE, "--word", word) for word in ("twist1", "mixed")]
    + [("selftest-oracle", "--trials", "5", "--seed", "2")]
)
FIXTURE_IDS = [" ".join(a for a in argv if a != FIXTURE) for argv in FIXTURE_COMMANDS]


@pytest.mark.parametrize("argv", FIXTURE_COMMANDS, ids=FIXTURE_IDS)
def test_report_is_a_one_line_document_then_the_summary(argv, cli, monkeypatch):
    """The first line is the whole JSON document, with the digest that
    readers search for, and it parses to what the indented rendering of the
    same payload did; the summary follows after one blank line."""
    emitted = []
    real_emit = cli_module._emit

    def recording_emit(payload, human, started, out):
        emitted.append((payload, human))
        real_emit(payload, human, started, out)

    monkeypatch.setattr(cli_module, "_emit", recording_emit)
    _, text, payload = cli(*argv)
    first, rest = text.split("\n", 1)
    assert json.loads(first) == payload
    assert '"report_digest": "sha256:' in first
    assert payload["report_digest"] == report_digest(payload)
    [(sent, human)] = emitted
    volatile = {k: payload[k] for k in ("report_digest", "timing_seconds")}
    indented = json.dumps({**sent, **volatile}, sort_keys=True, indent=2)
    assert json.loads(indented) == payload
    assert rest == "\n" + human + "\n"


ESCAPED_NAMES = ('a": "b\\', "Ω-ñ \u2603")


def _load_perfbench_run(monkeypatch):
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(bench, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ESCAPED_NAMES, ids=("quote-colon-backslash", "non-ascii"))
def test_document_with_escaped_names_parses_and_digests(tmp_path, name, cli, monkeypatch):
    """Complex and word names that JSON must escape, through commands whose
    top-level keys sort before (check-descent) and after (omega, necessary:
    "word") the digest and timing: the first line parses to the payload, the
    digest recomputes from the whole canonical JSON, and the benchmark's
    digest marker finds it."""
    with open(FIXTURE) as f:
        data = json.load(f)
    data["complexes"] = {name: data["complexes"]["O"]}
    data["words"] = {name: data["words"]["twist2"]}
    path = tmp_path / "escaped.json"
    path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
    emitted = []
    real_emit = cli_module._emit

    def recording_emit(payload, human, started, out):
        emitted.append(payload)
        real_emit(payload, human, started, out)

    monkeypatch.setattr(cli_module, "_emit", recording_emit)
    digest_of = _load_perfbench_run(monkeypatch).digest_of
    commands = (
        ("check-descent", str(path), "--complex", name),
        ("omega", str(path), "--word", name, "--gen-a", name, "--gen-b", name),
        ("necessary", str(path), "--word", name),
    )
    for argv in commands:
        emitted.clear()
        code, text, _ = cli(*argv)
        assert code == 0, argv
        first = text.split("\n", 1)[0]
        payload = json.loads(first)
        [sent] = emitted
        stripped = {k: v for k, v in payload.items() if k not in ("report_digest", "timing_seconds")}
        assert stripped == json.loads(json.dumps(sent))
        assert name in sent.values()
        canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        digest = "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert payload["report_digest"] == digest
        assert digest_of(text) == digest


def _whole_char_str(values):
    return "(" + ",".join(str(v) for v in values) + ")"


@pytest.mark.parametrize("argv", FIXTURE_COMMANDS, ids=FIXTURE_IDS)
def test_fixture_summaries_print_whole_characters(argv, cli, monkeypatch):
    """Every character in the fixture's summaries is short enough to print in
    full, so cutting long ones leaves these summaries as they were."""
    _, text, _ = cli(*argv)
    monkeypatch.setattr(cli_module, "char_str", _whole_char_str)
    _, whole, _ = cli(*argv)
    assert split_report(text)[1] == split_report(whole)[1]


def test_long_characters_print_their_first_values():
    assert char_str(tuple(range(16))) == _whole_char_str(range(16))
    assert char_str(tuple(range(17))) == "(0,1,2,3,4,5,6,7,... 17 values)"


def test_summary_rows_stay_short_on_a_stabilizer_of_order_10000(tmp_path, cli):
    """Trivial Z/10000 on P^1: O(1) twisted by 1 fails on every stratum with
    a 10,000-value character; the JSON keeps it, the summary row does not."""
    G = AbelianGroup((10000,))
    action = ProjectiveAction(G, 1, (G.trivial_character(),) * 2)
    bundle = bundle_complex(action, TwistedSummand(1, G.character((1,))))
    path = tmp_path / "z10000.json"
    path.write_text(json.dumps(problem_to_dict(action, {"bundle": bundle})))
    code, text, payload = cli("check-descent", str(path))
    assert code == 1
    witnesses = payload["report"]["witnesses"]
    assert witnesses and all(len(w["fiber_character"]) == 10000 for w in witnesses)
    rows = [line for line in split_report(text)[1].splitlines() if "... 10000 values)" in line]
    assert len(rows) == len(witnesses)
    assert all(len(row) < 200 for row in rows)


P10_ACTION = {
    "group": {"orders": [100, 100]},
    "action": {
        "dim": 10,
        "coordinate_characters": [[7 * i % 100, i * i % 100] for i in range(11)],
    },
}


def test_strata_summary_of_p10_stays_short(tmp_path, cli):
    """Z/100 x Z/100 on P^10 has 2,047 strata: the summary prints the first
    rows and counts the rest; the document lists every stratum."""
    path = tmp_path / "p10.json"
    path.write_text(json.dumps(P10_ACTION))
    code, text, payload = cli("strata", str(path))
    assert code == 0
    assert payload["count"] == len(payload["strata"]) == 2047
    assert payload["report_digest"] == (
        "sha256:762adab9834f74445fdec4694bf7a09c8e461097705b3272e0b49cbbdab84dab"
    )
    summary = split_report(text)[1]
    assert len(summary.encode("utf-8")) < 64 * 1024
    lines = summary.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    rows = lines[rule + 1:]
    assert len(rows) == cli_module.SUMMARY_STRATA + 1
    assert rows[-1] == (
        f"... and {2047 - cli_module.SUMMARY_STRATA:,} more strata (the report lists every one)"
    )


def test_digest_covers_everything_but_timing(cli):
    _, _, a = cli("check-descent", FIXTURE, "--complex", "O1")
    _, _, b = cli("check-descent", FIXTURE, "--complex", "O1")
    assert a["report_digest"] == b["report_digest"]
    assert a["report_digest"] == report_digest(a)  # recomputable from the payload
    _, _, c = cli("check-descent", FIXTURE, "--complex", "O1", "--seed", "8")
    assert c["report_digest"] != a["report_digest"]


# ---------------------------------------------------------------------------
# the canonical writer
# ---------------------------------------------------------------------------


def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_canonical_writer_matches_the_c_encoder(monkeypatch):
    """The members and the digest equal what one json.dumps of the payload
    gives, over nested payloads whose long tuples are shared by several
    members or not, beside short tuples, escaped and non-ASCII keys, int
    keys, empty containers and every scalar.  Long tuples hold ints the
    text table answers, a 10,000-entry table among them, element tuples of
    length 1 to 3, and entries it cannot answer: negative ints, ints at and
    above 10,000, strings, ragged and empty element tuples, mixed entries;
    in a plain dict also bools and floats, which equal ints as dict keys.
    The same payloads as a ``_Payload``, whose long tuples hold ints only,
    take the text table's path and must give the same text."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(cli_module, "_INT_TEXTS", {})
    shared = (
        tuple(range(17)),
        tuple(range(-5, 40)),
        tuple((i, i * i % 7) for i in range(30)),
        tuple((i,) for i in range(16)),
        (3, 1, 2),
        tuple(i * 7 % 10000 for i in range(10000)),
    )
    ints = st.integers(-(10**20), 10**20)
    small = st.integers(-99, 99)
    entry = st.integers(0, 99)
    # Quotes, backslashes, control characters, non-ASCII and a lone surrogate.
    text = st.text('ab"\\/\x00\n\x1f\x7f\u00f1\u03a9\u2603\ud800\U0001f600', max_size=6)
    keys = st.one_of(text, st.sampled_from(['a": "b\\', "report_digest", ""]))

    def long_lists(of):
        return st.lists(of, min_size=17, max_size=24)

    def with_one(odd, rows):
        """Rows with one of them replaced by ``odd``."""
        return st.tuples(rows, odd, st.integers(0, 16)).map(
            lambda t: tuple(t[0][: t[2]] + [t[1]] + t[0][t[2] + 1:])
        )

    def payloads(odd):
        """Payloads whose long tuples hold ``entry`` ints and, at some
        places, ``odd`` entries."""
        element = st.integers(1, 3).flatmap(lambda r: st.tuples(*[entry] * r))
        odd_element = st.integers(1, 3).flatmap(lambda r: st.tuples(odd, *[entry] * (r - 1)))
        elements = st.integers(1, 3).flatmap(lambda r: long_lists(st.tuples(*[entry] * r)))
        tables = st.one_of(
            st.sampled_from(shared),
            st.lists(small, max_size=16).map(tuple),
            st.lists(st.tuples(small, small), min_size=15, max_size=20).map(tuple),
            long_lists(entry).map(tuple),
            long_lists(small).map(tuple),
            long_lists(st.integers(9_990, 10_010)).map(tuple),
            elements.map(tuple),
            with_one(odd, long_lists(entry)),
            with_one(odd_element, elements),
            long_lists(element).map(tuple),  # ranks 1 to 3 in one list
            long_lists(st.lists(entry, max_size=3).map(tuple)).map(tuple),  # ragged, empty
            long_lists(st.one_of(entry, element, odd)).map(tuple),  # mixed
        )
        leaves = st.one_of(ints, st.booleans(), st.none(), st.floats(), text, tables)
        values = st.recursive(
            leaves,
            lambda children: st.one_of(
                st.lists(children, max_size=5),
                st.lists(st.dictionaries(keys, children, max_size=4), max_size=4),
                st.dictionaries(keys, children, max_size=5),
                st.dictionaries(st.integers(-20, 20), children, max_size=4),
            ),
            max_leaves=15,
        )
        return st.dictionaries(keys, values, max_size=6)

    def checker(odd, as_payload):
        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @hypothesis.given(payloads(odd), st.booleans())
        def check(payload, fresh):
            if fresh:
                cli_module._INT_TEXTS.clear()
            payload.pop("report_digest", None)
            payload.pop("timing_seconds", None)
            payload["~copy"] = list(payload.values())  # a second member that repeats every table
            expected = [(key, _canonical_json(payload[key])) for key in sorted(payload)]
            whole = _canonical_json(payload).encode()
            if as_payload:
                payload = cli_module._Payload(MAX_GROUP_ORDER, payload)
            assert cli_module._members(payload) == expected
            assert report_digest(payload) == "sha256:" + hashlib.sha256(whole).hexdigest()
            assert len(cli_module._INT_TEXTS) <= MAX_GROUP_ORDER

        return check

    outside = st.one_of(st.integers(-99, -1), st.integers(10_000, 10_010))
    not_ints = st.one_of(text, st.booleans(), st.sampled_from((2.0, 0.0, -0.0, 1.5)))
    checker(st.one_of(outside, not_ints), False)()
    checker(outside, True)()


def test_a_shared_table_is_encoded_once_per_report(monkeypatch, cli):
    """Trivial Z/100 x Z/100 on P^2: all 7 strata share one 10,000-element
    stabilizer list and one scalar character table, and the report encodes
    each of them once."""
    G = AbelianGroup((100, 100))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    problem = parse_problem(problem_to_dict(action, {}))
    strata = problem.action.strata()
    [elements] = {s.stabilizer.coords for s in strata}
    [scalar] = {s.scalar_char.values for s in strata}
    assert len(strata) == 7 and len(elements) == 10000
    encoded = []
    real_table_text = cli_module._table_text

    def counting_table_text(value):
        encoded.append(value)
        return real_table_text(value)

    monkeypatch.setattr(cli_module, "_table_text", counting_table_text)
    monkeypatch.setattr(cli_module, "load_problem", lambda path: problem)
    code, _, payload = cli("strata", "big_stabilizer.json")
    assert code == 0
    assert sum(value is elements for value in encoded) == 1
    assert sum(value is scalar for value in encoded) == 1
    assert [len(s["stabilizer_elements"]) for s in payload["strata"]] == [10000] * 7


# ---------------------------------------------------------------------------
# invalid input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "orders, chars, finds",
    (
        ([2], [[0], [0], [1]], False),
        ([4, 4], [[0, 0], [1, 0], [0, 1]], False),
        ([17], [[0], [1], [2]], True),
        ([20], [[0], [0], [0]], True),
    ),
    ids=("z2", "z4xz4", "z17", "z20"),
)
def test_table_search_runs_only_when_the_group_can_hold_a_long_table(
    tmp_path, monkeypatch, cli, orders, chars, finds
):
    """A table is indexed by elements of the acting group, so the writer's
    search finds one only in a report on a group of order above 16; on
    smaller groups it finds nothing, and the document is what the C encoder
    gives either way."""
    G = AbelianGroup(tuple(orders))
    action = ProjectiveAction(G, 2, tuple(G.character(c) for c in chars))
    complex_ = koszul_complex(action, (1, 1, 1))
    path = tmp_path / "koszul.json"
    path.write_text(json.dumps(problem_to_dict(action, {"c": complex_})))
    encoded = []
    real_table_text = cli_module._table_text

    def recording_table_text(value):
        encoded.append(value)
        return real_table_text(value)

    monkeypatch.setattr(cli_module, "_table_text", recording_table_text)
    for argv in (("strata", str(path)), ("check-descent", str(path))):
        encoded.clear()
        code, text, payload = cli(*argv)
        assert code == 0
        tables = [v for v in encoded if type(v) is tuple and len(v) > cli_module.LONG_TABLE]
        assert bool(tables) == finds, argv
        assert payload["report_digest"] == report_digest(payload)
        stripped = {k: v for k, v in payload.items() if k not in ("report_digest", "timing_seconds")}
        assert cli_module._members(stripped) == [
            (key, _canonical_json(stripped[key])) for key in sorted(stripped)
        ]


def test_missing_problem_file_exits_2(capsys):
    assert main(["strata", "no/such/file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": {"orders": [2]}, "action": {"dim": 2}}')
    assert main(["strata", str(bad)]) == 2
    assert "$.action.coordinate_characters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    (
        (b"[" * 200_000 + b"]" * 200_000, "nests its arrays and objects too deeply"),
        (b'{"group": \xff}', "is not UTF-8: byte 10 is b'\\xff'"),
        # The first "0" of one complex's terms fails at (0:0:1) and the
        # second descends; plain JSON decoding keeps only the second.
        (
            open(os.path.join(FIXTURE_DIR, "z2_p2_repeated_key.json"), "rb").read(),
            "error: $.complexes.twice.terms: object repeats the key '0'\n",
        ),
    ),
    ids=("nested-200000-deep", "not-utf8", "repeated-key"),
)
def test_malformed_problem_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "malformed.json"
    path.write_bytes(content)
    assert main(["strata", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message in captured.err
    assert "Traceback" not in captured.err


def _problem_with(group=None, action=None, degree="0", differential=None, exponents=(0, 0, 1)):
    """A problem with one complex O(0) -> O(1) under Z/2 acting trivially on
    P^2, with the given parts replaced."""
    entry = {"source": 0, "target": 0, "entry": [{"coeff": 1, "exponents": list(exponents)}]}
    entry.update(differential or {})
    return {
        "group": group or {"orders": [2]},
        "action": action or {"dim": 2, "coordinate_characters": [[0], [0], [0]]},
        "complexes": {
            "c": {
                "terms": {"0": [{"degree": 0}], "1": [{"degree": 1}]},
                "differentials": {degree: [entry]},
            }
        },
    }


@pytest.mark.parametrize(
    "data, path",
    (
        (_problem_with(group={"orders": [0]}), "$.group.orders: "),
        (_problem_with(group={"orders": [20000]}), "$.group.orders: "),
        (_problem_with(action={"dim": -1, "coordinate_characters": []}), "$.action: "),
        (
            _problem_with(action={"dim": 11, "coordinate_characters": [[0]] * 12}),
            "$.action: dim 11 exceeds",
        ),
        (
            _problem_with(action={"dim": 2, "coordinate_characters": [[0], [0]]}),
            "$.action: ",
        ),
        (_problem_with(degree="1"), "$.complexes.c: "),
        (_problem_with(differential={"source": 3}), "$.complexes.c: "),
        (_problem_with(exponents=(0, 0, 70)), "$.complexes.c.differentials.0[0].entry: "),
    ),
    ids=(
        "order-0",
        "order-20000",
        "dim-negative",
        "dim-11",
        "too-few-characters",
        "missing-target-term",
        "source-out-of-range",
        "degree-70",
    ),
)
def test_constructor_errors_name_their_json_path(tmp_path, capsys, data, path):
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps(data))
    assert main(["strata", str(problem)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + path), captured.err


# The fixture's action with one complex, O(0) -> O(1) by x2, whose x2 is odd:
# not equivariant.
INVALID_FIXTURE = "tests/fixtures/z2_p2_invalid.json"
INVALID_MESSAGE = "error: $.complexes.broken: complex fails validation: [equivariance] "


def test_invalid_complex_exits_2(capsys):
    """Also ``eqdescent strata tests/fixtures/z2_p2_invalid.json``, as the
    README documents it: a command that uses no complex refuses the file."""
    for command in ("check-descent", "strata"):
        assert main([command, INVALID_FIXTURE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(INVALID_MESSAGE), captured.err


@pytest.mark.parametrize(
    "argv",
    (
        ("check-descent", "--complex", "broken"),
        ("omega", "--word", "twist2", "--gen-a", "broken", "--gen-b", "O"),
        ("omega", "--word", "twist2", "--gen-a", "O", "--gen-b", "broken"),
        ("strata",),
        ("omega", "--word", "twist2"),
        ("necessary", "--word", "mixed"),
        ("check-descent", "--complex", "O"),
    ),
    ids=(
        "check-descent",
        "omega-gen-a",
        "omega-gen-b",
        "strata",
        "omega-default",
        "necessary",
        "check-descent-other",
    ),
)
def test_invalid_complex_error_names_its_json_path(tmp_path, capsys, argv):
    """A problem file holding an invalid complex is refused by every
    command, whichever complex the command itself uses."""
    with open(FIXTURE) as f:
        data = json.load(f)
    with open(INVALID_FIXTURE) as f:
        data["complexes"]["broken"] = json.load(f)["complexes"]["broken"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(INVALID_MESSAGE), captured.err


def test_omega_validates_each_complex_once(tmp_path, capsys, monkeypatch):
    """``omega --gen-a c --gen-b c`` meets three complexes: c, its image and
    the inverse word's image.  Each is validated once, d o d included (the
    Koszul complex of P^2 has three consecutive maps), and c is descent-checked
    once as both generators."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    problem = problem_to_dict(action, {"c": koszul_complex(action, (1, 1, 1))})
    problem["words"] = {"w": [{"kind": "twist", "degree": 1, "twist": [1]}]}
    path = tmp_path / "koszul.json"
    path.write_text(json.dumps(problem))

    validated, checked = [], []
    find_violations = EquivariantComplex._find_violations
    check_descent = words_module.check_descent

    def counting_find_violations(complex_):
        validated.append(complex_)
        return find_violations(complex_)

    def counting_check_descent(complex_, **kwargs):
        checked.append(complex_)
        return check_descent(complex_, **kwargs)

    monkeypatch.setattr(EquivariantComplex, "_find_violations", counting_find_violations)
    monkeypatch.setattr(words_module, "check_descent", counting_check_descent)
    assert main(["omega", str(path), "--word", "w", "--gen-a", "c", "--gen-b", "c"]) == 0
    capsys.readouterr()
    assert len(validated) == 3
    assert len({id(c) for c in validated}) == 3
    assert all(c.differentials for c in validated)
    assert len(checked) == 3
    assert checked[0] is validated[0]


def _p1_complex(second_map):
    """O -> O(40)^2 -> O(80) on P^1 under trivial Z/2, first map (x0^40, x1^40);
    each map is a list of (source, target, coefficient, exponents)."""

    def entries(terms):
        return [
            {"source": s, "target": t, "entry": [{"coeff": c, "exponents": e}]}
            for s, t, c, e in terms
        ]

    def summand(degree):
        return {"degree": degree, "twist": [0]}

    return {
        "group": {"orders": [2]},
        "action": {"dim": 1, "coordinate_characters": [[0], [0]]},
        "complexes": {
            "c": {
                "terms": {"0": [summand(0)], "1": [summand(40)] * 2, "2": [summand(80)]},
                "differentials": {
                    "0": entries([(0, 0, 1, [40, 0]), (0, 1, 1, [0, 40])]),
                    "1": entries(second_map),
                },
            }
        },
    }


def test_d_squared_products_above_the_degree_cap(tmp_path, capsys):
    """Every entry has degree 40, within MAX_TOTAL_DEGREE = 64, while the
    products in d o d have degree 80: with (-x1^40, x0^40) they cancel and
    the complex is checked; with -x1^40 alone the composite is reported."""
    path = tmp_path / "p1.json"
    path.write_text(json.dumps(_p1_complex([(0, 0, -1, [0, 40]), (1, 0, 1, [40, 0])])))
    assert main(["check-descent", str(path)]) == 0
    capsys.readouterr()
    path.write_text(json.dumps(_p1_complex([(0, 0, -1, [0, 40])])))
    assert main(["check-descent", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: $.complexes.c: complex fails validation: [d-squared] degree 0, "
        "entry 0 -> 0: composition through degree 1 is -x0^40*x1^40, not 0\n"
    )


@pytest.mark.parametrize(
    "push, message",
    (
        ({"kind": "push", "perm": [2, 1, 0]}, "does not intertwine the action"),
        ({"kind": "push", "perm": [0, 0, 1]}, "is not a permutation"),
        ({"kind": "push", "perm": [1, 0, 2], "scalars": ["1", "0", "1"]}, "nonzero scalar"),
    ),
    ids=("not-intertwining", "not-a-permutation", "zero-scalar"),
)
def test_refused_push_names_its_json_path(tmp_path, capsys, push, message):
    with open(FIXTURE) as f:
        data = json.load(f)
    data["words"]["bad"] = [push]
    path = tmp_path / "bad_push.json"
    path.write_text(json.dumps(data))
    assert main(["omega", str(path), "--word", "twist2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: $.words.bad[0]: ")
    assert message in captured.err


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


def test_invalid_word_image_is_an_internal_error(monkeypatch, capsys):
    """A word image is built by the package, so one that fails validation is
    a bug (exit 3), not bad input, and the message names the word."""
    def twist_into_broken(self, complex_):
        # O(0) -> O(1) by x2, which the action makes odd: not equivariant.
        trivial = complex_.action.group.trivial_character()
        return EquivariantComplex(
            complex_.action,
            {0: (TwistedSummand(0, trivial),), 1: (TwistedSummand(1, trivial),)},
            {0: {(0, 0): Poly.variable(3, 2)}},
        )

    monkeypatch.setattr(words_module.Twist, "apply", twist_into_broken)
    assert main(["omega", FIXTURE, "--word", "twist2", "--gen-a", "O", "--gen-b", "O"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: InternalConsistencyError: word application produced an "
        "invalid complex: ([equivariance] "
    ), captured.err


# ---------------------------------------------------------------------------
# the parser, shared by every call in a process
# ---------------------------------------------------------------------------


def test_the_parser_is_built_once_per_process(monkeypatch, cli):
    built = []
    real = cli_module.build_parser

    def counting():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli_module, "build_parser", counting)
    cli_module._parser.cache_clear()
    for argv in (("strata", FIXTURE), ("necessary", FIXTURE, "--word", "mixed"), ("strata", FIXTURE)):
        cli(*argv)
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv", (["--help"], ["check-descent", "--help"], ["selftest-oracle", "--help"])
)
def test_help_is_the_text_of_a_freshly_built_parser(argv, capsys, cli):
    cli("strata", FIXTURE)  # the shared parser exists and has parsed a call
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    shared = capsys.readouterr().out
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert capsys.readouterr().out == shared
    assert shared.startswith("usage: eqdescent")


@pytest.mark.parametrize(
    "rejected",
    (["check-descent"], ["frobnicate", FIXTURE], ["selftest-oracle", "--trials", "x"], []),
    ids=("no-problem", "no-such-command", "not-an-int", "empty"),
)
def test_a_rejected_command_line_leaves_the_next_call_working(rejected, capsys, cli):
    with pytest.raises(SystemExit) as exc:
        main(rejected)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    code, _, payload = cli("check-descent", FIXTURE, "--complex", "O1")
    assert code == 1
    assert payload["report_digest"] == (
        "sha256:8f164fc3912fbbb00212a68b09fb7ef0a5088f0f807767ae39951590a431f7e4"
    )


def test_commands_run_back_to_back_give_the_reports_they_give_alone(cli):
    """One process runs three commands in a row, the second with sampling
    flags the third must not inherit; each report and summary equals that
    of a process that runs the command alone, but for the timing."""
    runs = (
        ("strata", FIXTURE),
        ("check-descent", FIXTURE, "--complex", "euler", "--seed", "5", "--samples", "3"),
        ("check-descent", FIXTURE, "--complex", "euler"),
        ("selftest-oracle", "--trials", "5", "--seed", "2"),
    )
    together = [cli(*argv) for argv in runs]
    for argv, (code, text, payload) in zip(runs, together):
        alone = subprocess.run(
            [sys.executable, "-m", "eqdescent.cli", *argv], capture_output=True, text=True
        )
        assert alone.returncode == code, argv
        alone_payload, alone_summary = split_report(alone.stdout)
        for report in (payload, alone_payload):
            del report["timing_seconds"]
        assert payload == alone_payload, argv
        assert split_report(text)[1] == alone_summary, argv
    assert together[2][2]["report"]["coverage"]["samples_per_stratum"] == 5


def test_installed_entry_point_works():
    result = subprocess.run(
        [sys.executable, "-m", "eqdescent.cli", "strata", FIXTURE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert '"command": "strata"' in result.stdout


def test_reader_closing_stdout_early_exits_141_silently(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "group": {"orders": [100, 100]},
        "action": {"dim": 2, "coordinate_characters": [[0, 0], [0, 0], [0, 0]]},
    }))
    proc = subprocess.Popen(
        [sys.executable, "-m", "eqdescent.cli", "strata", str(big)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(100)  # the report is megabytes, far more than a pipe holds
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli_module.EXIT_PIPE == 141
    assert head.startswith(b"{")
    assert err == b""


# ---------------------------------------------------------------------------
# pinned digests: the "same behaviour" gate
# ---------------------------------------------------------------------------


PINNED_DIGESTS = (
    (("strata", FIXTURE), "sha256:68901a1e82739d06c8ecbd00422e602a1bf77b2c5f684a33f81be01f83716bce"),
    (("check-descent", FIXTURE, "--complex", "koszul"), "sha256:11dfe3dbc0a568c9dd83720bf0fb70380e108818ee0eacab07db1115c94e3167"),
    (("check-descent", FIXTURE, "--complex", "euler", "--seed", "5"), "sha256:c6024b19254e6d76c4f97143b46a25a5bad8b115e19b28d0c1d01400b97dc933"),
    (("check-descent", FIXTURE, "--complex", "O1"), "sha256:8f164fc3912fbbb00212a68b09fb7ef0a5088f0f807767ae39951590a431f7e4"),
    (("omega", FIXTURE, "--word", "twist1", "--gen-a", "O", "--gen-b", "O"), "sha256:8540607c4f45f2592c523a454e68b603fdc0d1eda719cecb46da24c29068ae9e"),
    (("omega", FIXTURE, "--word", "twist2"), "sha256:e963d56243a8c06dadf8780a34ededbfe4d4a6431247e089b1f09c34895b99a7"),
    (("omega", FIXTURE, "--word", "swap01"), "sha256:74204af69b3d799dd9b4228b1d6e415c4dd080b15186cc2030a64018f1262eb5"),
    (("necessary", FIXTURE, "--word", "mixed"), "sha256:9e3303577ce64778cd269791bcc1682127a831bafd8ecd990db057ae9a24fc7a"),
    (("necessary", FIXTURE, "--word", "twist1"), "sha256:e38ccdd438e2c96dacf28a3fddd482b07f791241d09649f541575a98799f7276"),
    # A word holding a push has no necessary report: exit 2 (None below).
    (("necessary", FIXTURE, "--word", "swap01"), None),
    (("omega", FIXTURE, "--word", "mixed"), "sha256:decf6c1067d3ca2b4e247109123ae9210a67e09d1f3be4c98710fe5eea8cd026"),
)


@pytest.mark.parametrize(
    "argv, digest", PINNED_DIGESTS, ids=[" ".join(argv[:1] + argv[2:]) for argv, _ in PINNED_DIGESTS]
)
def test_fixture_report_digests_are_pinned(argv, digest, cli, capsys):
    """Any change to a report's content shows up here; CHANGES.md names
    every digest that was re-recorded on purpose, and why."""
    code, text, payload = cli(*argv)
    if digest is None:
        _assert_push_word_refused(code, text, capsys.readouterr().err, argv[-1])
    else:
        assert payload["report_digest"] == digest


# push (x0, x1, x2) -> (2 x1, x0, x2 / 3), then O(2) (x) sign, then shift by -1
COMPOSITE_WORD = [
    {"kind": "push", "perm": [1, 0, 2], "scalars": ["2", "1", "1/3"]},
    {"kind": "twist", "degree": 2, "twist": [1]},
    {"kind": "shift", "k": -1},
]


@pytest.mark.parametrize(
    "argv, code, digest",
    (
        (("omega", "--gen-a", "koszul", "--gen-b", "koszul"), 0,
         "sha256:65a5d7d52cafeaeb2c18607e8bf5e5cb684badc496ed62abebc2270f28890561"),
        (("omega",), 1,
         "sha256:0780d85b6d4e42eef223087c632a2451887d3474bb54eded3b964963b5a8573d"),
        # No report: exit 2 with an error line.
        (("necessary",), 2, None),
    ),
    ids=("omega-koszul", "omega-default", "necessary"),
)
def test_composite_word_report_digests_are_pinned(tmp_path, argv, code, digest, cli, capsys):
    """A push with scalars, a twist and a shift in one word: the Koszul
    complex stays exact under it, the sign twist breaks the default
    generator, and ``necessary`` refuses the push."""
    with open(FIXTURE) as f:
        action = parse_problem(json.load(f)).action
    koszul = koszul_complex(action, (1, -2, Fraction(1, 3)))
    problem = problem_to_dict(action, {"koszul": koszul})
    problem["words"] = {"pts": COMPOSITE_WORD}
    path = tmp_path / "composite.json"
    path.write_text(json.dumps(problem))
    got, text, payload = cli(argv[0], str(path), "--word", "pts", *argv[1:])
    assert got == code
    if digest is None:
        _assert_push_word_refused(got, text, capsys.readouterr().err, "pts")
    else:
        assert payload["report_digest"] == digest


@pytest.mark.parametrize(
    "command, digest",
    (
        ("strata", "sha256:5e582a2f11b7ea27ff2835507fb943dee8e52e6cf5375a2d15aaaba9ef71aa90"),
        ("check-descent", "sha256:674ba7f1689ec3fa44c525728e6e4f3aa1c867b0dbab91d002352f158f898ba9"),
    ),
)
def test_big_stabilizer_report_digests_are_pinned(tmp_path, command, digest, cli):
    """Trivial Z/100 x Z/100 on P^2: every stabilizer is the whole group of
    order 10,000; the bundle O(3) twisted by (7, 20) fails on every stratum,
    each decided exactly at one point."""
    G = AbelianGroup((100, 100))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    bundle = bundle_complex(action, TwistedSummand(3, G.character((7, 20))))
    path = tmp_path / "big_stabilizer.json"
    path.write_text(json.dumps(problem_to_dict(action, {"bundle": bundle})))
    code, _, payload = cli(command, str(path))
    assert code == (0 if command == "strata" else 1)
    assert payload["report_digest"] == digest


def _z10000_line_bundle():
    """O(1) twisted by (1) under Z/10000 on P^2 with coordinate characters
    0, 2, 5: one cyclic factor, so its whole-group tables have no prefix."""
    G = AbelianGroup((10000,))
    action = ProjectiveAction(G, 2, tuple(G.character((c,)) for c in (0, 2, 5)))
    return bundle_complex(action, TwistedSummand(1, G.character((1,))))


def _z10xz100_dropped_koszul():
    """The Koszul complex of x0, x1, x2 under trivial Z/10 x Z/100 on P^2,
    every term twisted by (0, 1) and the leftmost term dropped: every
    stratum's stabilizer is the whole group."""
    G = AbelianGroup((10, 100))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    full = koszul_complex(action, (1, 1, 1))
    base = G.character((0, 1))
    low = min(full.terms)
    terms = {
        j: tuple(TwistedSummand(s.degree, s.twist + base) for s in summands)
        for j, summands in full.terms.items()
        if j != low
    }
    diffs = {j: d for j, d in full.differentials.items() if j != low}
    return EquivariantComplex(action, terms, diffs)


@pytest.mark.parametrize(
    "build, code, digest",
    (
        (_z10000_line_bundle, 1,
         "sha256:88be820fd18434e9343e52e5ce065d650a15835aa5c9246b21bd484a2e4a850a"),
        (_z10xz100_dropped_koszul, 1,
         "sha256:0b99128c5c8d4ec37dac459b273110e572838e42f74438ed2ecd191a6070bd62"),
    ),
    ids=("z10000-bundle", "z10xz100-dropped-koszul"),
)
def test_whole_group_report_digests_are_pinned(tmp_path, build, code, digest, cli):
    """Reports read on stabilizers equal to G, one cyclic factor or two."""
    complex_ = build()
    path = tmp_path / "whole_group.json"
    path.write_text(json.dumps(problem_to_dict(complex_.action, {"c": complex_})))
    got, _, payload = cli("check-descent", str(path))
    assert got == code
    assert payload["report_digest"] == digest


BIG_ACTIONS = (
    ((2, 5000), ((0, 0), (1, 2), (0, 5))),
    ((10000,), ((0,), (2,), (5,))),
)


def _big_problem(tmp_path, orders, chars, monkeypatch):
    """A problem file on P^2 under ``orders`` with the Koszul complex ``c``
    and the word ``w`` (twist by O(1) (x) (1, ..., 1), shift by 1); returns
    its path and the list each problem the CLI loads is appended to."""
    G = AbelianGroup(orders)
    action = ProjectiveAction(G, 2, tuple(G.character(c) for c in chars))
    problem = problem_to_dict(action, {"c": koszul_complex(action, (1, 1, 1))})
    problem["words"] = {"w": [
        {"kind": "twist", "degree": 1, "twist": [1] * G.rank}, {"kind": "shift", "k": 1},
    ]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(problem))
    loaded = []
    real = cli_module.load_problem
    monkeypatch.setattr(cli_module, "load_problem", lambda p: loaded.append(real(p)) or loaded[-1])
    return str(path), loaded


@pytest.mark.parametrize("orders, chars", BIG_ACTIONS, ids=("z2xz5000", "z10000"))
def test_decisions_on_a_big_group_never_list_its_elements(tmp_path, orders, chars, cli, monkeypatch):
    """Every single-coordinate stratum has the whole group of order 10,000
    as stabilizer, yet no decision lists G's elements."""
    path, loaded = _big_problem(tmp_path, orders, chars, monkeypatch)
    for argv in (
        ("check-descent",),
        ("necessary", "--word", "w"),
        ("omega", "--word", "w"),
        ("omega", "--word", "w", "--gen-a", "c", "--gen-b", "c"),
    ):
        code, _, payload = cli(argv[0], path, *argv[1:])
        assert code in (0, 1) and payload is not None, argv
        group = loaded[-1].action.group
        assert loaded[-1].action.strata()[0].stabilizer is group.whole_subgroup
        assert "elements" not in group.__dict__, argv


@pytest.mark.parametrize("orders, chars", BIG_ACTIONS, ids=("z2xz5000", "z10000"))
def test_strata_lists_the_whole_groups_elements_once(tmp_path, orders, chars, cli, monkeypatch):
    """The three single-coordinate strata list all of G, in lexicographic
    order, from one tuple encoded once."""
    path, loaded = _big_problem(tmp_path, orders, chars, monkeypatch)
    encoded = []
    real_table_text = cli_module._table_text
    monkeypatch.setattr(
        cli_module, "_table_text", lambda value: encoded.append(value) or real_table_text(value)
    )
    code, _, payload = cli("strata", path)
    assert code == 0
    elements = loaded[-1].action.group.elements
    assert sum(value is elements for value in encoded) == 1
    whole = [s for s in payload["strata"] if s["stabilizer_order"] == 10000]
    assert [s["support"] for s in whole] == [[0], [1], [2]]
    listed = [list(g) for g in itertools.product(*map(range, orders))]
    assert all(s["stabilizer_elements"] == listed for s in whole)


PINNED_SELFTEST_DIGESTS = (
    (("--trials", "100", "--seed", "0"), False,
     "sha256:823c89d0f7c04275331b33d7d49fc1437b6fa1dc6c487fa79c2a2bfaee61cf70"),
    (("--trials", "30", "--seed", "3", "--max-group-order", "60"), False,
     "sha256:30973374cdcda33b2bdb339833b87fa3a9d6f79bd72808ac3476b36fbce86eb8"),
    (("--trials", "6", "--seed", "3"), True,
     "sha256:ed9b2a62217f835f252712039bccc869229855843b26212df2b142780af44006"),
    (("--trials", "30", "--seed", "3", "--max-group-order", "60"), True,
     "sha256:b6fc6d4118287cb15f7dd1b2a7282255ca11a0fdaa43a277e3c98beb41822e01"),
)


@pytest.mark.parametrize(
    "argv, wrong_blocks, digest",
    PINNED_SELFTEST_DIGESTS,
    ids=[" ".join(argv) + (" mismatch" if wrong else "") for argv, wrong, _ in PINNED_SELFTEST_DIGESTS],
)
def test_selftest_report_digests_are_pinned(argv, wrong_blocks, digest, monkeypatch, cli):
    """With the block route off by one, every trial is a mismatch whose
    report embeds ``via_averaging``, so those digests pin the oracle's
    isotypic tables byte for byte."""
    if wrong_blocks:
        monkeypatch.setattr(selftest_module, "block_cohomology", _one_too_many)
    code, _, payload = cli("selftest-oracle", *argv)
    assert code == (1 if wrong_blocks else 0)
    assert payload["report_digest"] == digest


def test_rational_koszul_p3_report_digest_is_pinned(tmp_path, koszul, cli):
    """Non-integer coefficients, rational sample and user points, and
    several character blocks on the sampled strata."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 3, tuple(G.character((c,)) for c in (0, 1, 0, 1)))
    complex_ = koszul(action, (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(1, 9)))
    points = [RationalPoint(("1/2", "-3/7", "0", "5/3")), RationalPoint(("0", "4/9", "0", "-2"))]
    problem = problem_to_dict(action, {"koszul": complex_}, points=points)
    path = tmp_path / "koszul_p3.json"
    path.write_text(json.dumps(problem))
    code, _, payload = cli("check-descent", str(path), "--samples", "4", "--seed", "13")
    assert code == 0  # the Koszul complex of a full regular sequence is exact off 0
    assert payload["report_digest"] == (
        "sha256:690fcac7aa19008745e90749b7eecbf42dd8e39aabd83db71485313a3c8b04c0"
    )


def _sampled_sign_complex():
    """The sign complex of ``test_descent_report_structure``: its open
    stratum is left open by the certificate and sampled."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 2, tuple(G.character((c,)) for c in (0, 0, 1)))
    sign = G.character((1,))
    q1 = Poly(3, {(2, 0, 0): 1, (1, 1, 0): 1})
    q2 = Poly(3, {(2, 0, 0): 1, (1, 1, 0): -1})
    return EquivariantComplex(
        action,
        {
            0: (TwistedSummand(0, sign),),
            1: (TwistedSummand(2, sign),) * 2,
            2: (TwistedSummand(4, sign),),
        },
        {0: {(0, 0): q1, (0, 1): q2}, 1: {(0, 0): q2, (1, 0): -q1}},
    )


def _linear_zero_complex():
    """x0 - x1 + x2 from O (x) sign to O(1) (x) sign under trivial Z/2 on
    P^2: every sample point misses its zeros, a rational zero finds them."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    sign = G.character((1,))
    entry = Poly(3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 1): 1})
    return EquivariantComplex(
        action,
        {0: (TwistedSummand(0, sign),), 1: (TwistedSummand(1, sign),)},
        {0: {(0, 0): entry}},
    )


def _dropped_koszul_complex():
    """The Koszul complex on P^4 under Z/2 x Z/2 with its leftmost term
    dropped: the dropped summand's character survives, and most strata
    fail at their first sample point."""
    G = AbelianGroup((2, 2))
    chars = ((0, 0), (1, 0), (1, 0), (0, 1), (0, 1))
    action = ProjectiveAction(G, 4, tuple(G.character(c) for c in chars))
    full = koszul_complex(action, (1, 1, 1, 1, 1))
    terms, diffs = dict(full.terms), dict(full.differentials)
    low = min(terms)
    del terms[low], diffs[low]
    return EquivariantComplex(action, terms, diffs)


@pytest.mark.parametrize(
    "build, argv, mode, digest",
    (
        (_sampled_sign_complex, ("--seed", "9"), "sampled",
         "sha256:8ebf737ee65f5ac8b120edfc3873e132b50cbe725665e2a3da12ef6e71cc871c"),
        (_linear_zero_complex, (), "exact-witness",
         "sha256:180259283e31d444f9a47b276079aaf7e24dda24705ad24f7e5715c381519f7e"),
        (_dropped_koszul_complex, (), "exact-witness",
         "sha256:930ed21e17d63e4d732898872c229cc788ebc3dbfe33bbc8ccae12df5e961c8e"),
    ),
    ids=("sampled", "linear-zero-witness", "first-point-witness"),
)
def test_open_stratum_report_digests_are_pinned(tmp_path, build, argv, mode, digest, cli):
    """Reports whose open strata are sampled or decided by a witness, the
    modes the other pinned reports never reach."""
    complex_ = build()
    path = tmp_path / "open_strata.json"
    path.write_text(json.dumps(problem_to_dict(complex_.action, {"c": complex_})))
    code, _, payload = cli("check-descent", str(path), *argv)
    assert code == 1
    assert mode in {s["mode"] for s in payload["report"]["coverage"]["strata"]}
    assert payload["report_digest"] == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("strata", FIXTURE),
        ("check-descent", FIXTURE, "--complex", "koszul"),
        ("omega", FIXTURE, "--word", "mixed"),
        ("selftest-oracle", "--trials", "5", "--max-group-order", "16"),
    ],
    ids=("strata", "check-descent", "omega", "selftest-oracle"),
)
def test_a_report_of_a_small_group_is_not_walked_for_tables(argv, cli, monkeypatch):
    """A group of order at most 16 has no table longer than 16 values, so
    its report goes to the C encoder whole: no dict or list of it is walked,
    and the text is what the walk would have written."""
    walks = []
    real = cli_module._holds_table

    def counting(items):
        walks.append(items)
        return real(items)

    monkeypatch.setattr(cli_module, "_holds_table", counting)
    _, text, payload = cli(*argv)
    assert walks == []
    first = text.split("\n", 1)[0]
    assert json.loads(first) == payload
    plain = {k: v for k, v in payload.items() if k not in ("report_digest", "timing_seconds")}
    canonical = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    assert payload["report_digest"] == report_digest(payload)
    assert report_digest(payload) == "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()
    assert walks == []  # nor is a plain dict


def test_a_report_of_a_large_group_still_shares_its_tables(tmp_path, cli, monkeypatch):
    """Over order 16 the walk runs, and finds the long tables."""
    path = tmp_path / "z17.json"
    path.write_text(json.dumps({
        "group": {"orders": [17]},
        "action": {"dim": 1, "coordinate_characters": [[0], [0]]},
    }), encoding="utf-8")
    found = []
    real = cli_module._holds_table

    def recording(items):
        found.append(real(items))
        return found[-1]

    monkeypatch.setattr(cli_module, "_holds_table", recording)
    cli("strata", str(path))
    assert True in found


def test_real_reports_of_groups_above_order_16_equal_the_c_encoder(tmp_path, cli, monkeypatch):
    """Random actions on groups of order 17 to 10,000, rank 1 to 3, and a
    random complex on each: every member of the ``strata`` and
    ``check-descent`` reports, written from the text table, equals
    json.dumps of the member, the printed digest recomputes from the printed
    document, and the text table holds no entry past the group's order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.setattr(cli_module, "_INT_TEXTS", {})
    written = []
    real_members = cli_module._members
    monkeypatch.setattr(
        cli_module, "_members", lambda payload: written.append(payload) or real_members(payload)
    )
    orders = st.one_of(
        st.sampled_from(((17,), (10000,), (2, 5000), (4, 5, 500))),
        st.integers(0, 2**32).map(lambda s: random_orders(Random(s), MAX_GROUP_ORDER)),
    ).filter(lambda o: math.prod(o) > cli_module.LONG_TABLE)

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @hypothesis.given(orders, st.integers(0, 2**32))
    def check(orders, seed):
        cli_module._INT_TEXTS.clear()
        rng = Random(seed)
        action = random_action(rng, AbelianGroup(orders))
        complex_ = random_valid_complex(rng, action)
        path = tmp_path / "random.json"
        path.write_text(json.dumps(problem_to_dict(action, {"c": complex_})))
        for argv in (("strata", str(path)), ("check-descent", str(path))):
            written.clear()
            code, _, printed = cli(*argv)
            assert code in (0, 1), argv
            payload = written[0]
            assert type(payload) is cli_module._Payload and payload.group_order == math.prod(orders)
            assert real_members(payload) == [
                (key, _canonical_json(payload[key])) for key in sorted(payload)
            ]
            assert printed["report_digest"] == report_digest(printed)
        assert len(cli_module._INT_TEXTS) <= math.prod(orders)

    check()


def test_small_group_reports_leave_the_text_table_unbuilt():
    """In a fresh process the text table is empty after import, and stays
    empty through reports on groups of order at most 16 (the fixture's Z/2,
    a self-test bounded at 16); the first report with a long table builds
    it, up to the largest entry written."""
    script = "\n".join((
        "import contextlib, io, json, os, tempfile",
        "import eqdescent.cli as cli",
        "sizes = [len(cli._INT_TEXTS)]",
        "def run(*argv):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        cli.main(list(argv))",
        "    sizes.append(len(cli._INT_TEXTS))",
        f"run('strata', {FIXTURE!r})",
        f"run('check-descent', {FIXTURE!r}, '--complex', 'koszul')",
        "run('selftest-oracle', '--trials', '5', '--max-group-order', '16')",
        "with tempfile.TemporaryDirectory() as tmp:",
        "    path = os.path.join(tmp, 'z17.json')",
        "    with open(path, 'w') as handle:",
        "        json.dump({'group': {'orders': [17]},",
        "                   'action': {'dim': 1, 'coordinate_characters': [[0], [1]]}}, handle)",
        "    run('strata', path)",
        "print(json.dumps(sizes))",
    ))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, 0, 0, 0, 17]
