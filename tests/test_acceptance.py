"""Acceptance gate: one test per criterion, each with a stated time budget.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion; with ``-s`` each criterion also prints an ACCEPTANCE summary line
including its measured runtime.
"""

import contextlib
import json
import time
from random import Random

import pytest
from conftest import (
    ACCEPTANCE_LINES,
    inverse,
    matmul,
    random_unimodular,
    z2_p2_action,
    zmatrix,
)

from eqdescent.complexes import TwistedSummand, bundle_complex
from eqdescent.descent import (
    GradedSpace,
    check_bundle_descent,
    check_descent,
    sandwich_check,
)
from eqdescent.groups import AbelianGroup, CharacterRestriction
from eqdescent.problem import problem_to_dict
from eqdescent.randgen import (
    random_action,
    random_group,
    random_summand,
    random_valid_complex,
    random_word,
)

FIXTURE = "tests/fixtures/z2_p2.json"


def _record(line):
    ACCEPTANCE_LINES.append(line)
    print(line)


@contextlib.contextmanager
def criterion(number, description, limit_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _record(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= limit_seconds:
        _record(
            f"ACCEPTANCE {number}: FAIL - {description} "
            f"({elapsed:.2f}s, over the {limit_seconds}s budget)"
        )
        pytest.fail(
            f"criterion {number} took {elapsed:.2f}s, "
            f"over its {limit_seconds}s budget"
        )
    _record(
        f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s < {limit_seconds}s)"
    )


def test_01_strata_table_of_the_half_scaling_action(cli):
    with criterion(
        1,
        "strata table: stabilizer of order 2 exactly on {0},{1},{0,1},{2}",
        1.0,
    ):
        code, _, payload = cli("strata", FIXTURE)
        assert code == 0
        assert payload["count"] == 7
        order_two = sorted(
            tuple(s["support"]) for s in payload["strata"] if s["stabilizer_order"] == 2
        )
        assert order_two == [(0,), (0, 1), (1,), (2,)]
        assert all(
            s["stabilizer_order"] == 1
            for s in payload["strata"]
            if tuple(s["support"]) not in {(0,), (0, 1), (1,), (2,)}
        )


def test_02_line_bundle_parity_on_the_quotient(cli, tmp_path):
    with criterion(
        2,
        "check-descent on O(d), d in -4..4: pass iff d even, odd failures "
        "witnessed on {2} or {0},{1},{0,1}",
        1.0,
    ):
        action = z2_p2_action()
        triv = action.group.trivial_character()
        complexes = {
            f"O({d})": bundle_complex(action, TwistedSummand(d, triv))
            for d in range(-4, 5)
        }
        path = tmp_path / "parity.json"
        path.write_text(json.dumps(problem_to_dict(action, complexes=complexes)))
        allowed = {(2,), (0,), (1,), (0, 1)}
        for d in range(-4, 5):
            code, _, payload = cli("check-descent", str(path), "--complex", f"O({d})")
            assert code == (0 if d % 2 == 0 else 1), f"wrong verdict for O({d})"
            witnesses = payload["report"]["witnesses"]
            if d % 2 == 0:
                assert witnesses == []
            else:
                assert witnesses, f"O({d}) failed without a witness"
                assert all(tuple(w["support"]) in allowed for w in witnesses)


def test_03_twist_words_certify_or_disprove_equivalence(cli):
    with criterion(
        3,
        "omega: [Twist O(1)] disproved with witness O(1) at (0:0:1); "
        "[Twist O(2)] and [Shift k] certified",
        2.0,
    ):
        code, _, payload = cli(
            "omega", FIXTURE, "--word", "twist1", "--gen-a", "O", "--gen-b", "O"
        )
        assert code == 1
        report = payload["report"]
        assert "i" in report["failing_conditions"]
        assert report["image_a"] == "[0: O(1)]"
        points = {w["point"] for w in report["condition_i"]["witnesses"]}
        assert points == {"(0:0:1)"}

        code, _, _ = cli(
            "omega", FIXTURE, "--word", "twist2", "--gen-a", "O", "--gen-b", "O"
        )
        assert code == 0
        code, _, _ = cli(
            "omega", FIXTURE, "--word", "shift3", "--gen-a", "O", "--gen-b", "O"
        )
        assert code == 0


def test_04_group_order_tensor_powers_always_descend():
    with criterion(
        4,
        "50 random twisted summands: the |G|-th tensor power always "
        "passes the exact line-bundle check",
        30.0,
    ):
        rng = Random(40425)
        for trial in range(50):
            group = random_group(rng, max_order=12)
            action = random_action(rng, group)
            summand = random_summand(rng, group)
            power = summand.tensor_power(group.order)
            report = check_bundle_descent(power, action)
            assert report.passed, (
                f"trial {trial}: {power!r} failed on {group!r} "
                f"with witnesses {[w.to_dict() for w in report.witnesses]}"
            )
            assert report.exact


def test_05_dual_route_selftest_is_clean(cli):
    with criterion(
        5,
        "selftest-oracle --trials 100: block route and averaging "
        "route agree on every instance",
        300.0,
    ):
        code, _, payload = cli("selftest-oracle", "--trials", "100", "--seed", "0")
        assert code == 0
        assert payload["report"]["trials"] == 100
        assert payload["report"]["mismatch_count"] == 0


def _block_keys(group):
    whole = group.whole_subgroup
    triv = CharacterRestriction(whole, (0,) * whole.order)
    sign = next(
        CharacterRestriction(whole, tuple(c(g) for g in whole.coords))
        for c in group.characters
        if not c.is_trivial
    )
    return triv, sign


def _exact_triple(rng, triv, sign):
    n1 = rng.randint(0, 3)
    n2 = rng.randint(0, 4)
    r = rng.randint(0, min(n1, n2))
    n3 = (n2 - r) + rng.randint(0, 2)

    def space(n):
        blocks = [(triv, n)]
        if rng.random() < 0.5:
            blocks.append((sign, 0))  # listed but empty: still a trivial action
        return GradedSpace(tuple(blocks))

    a0 = [[int(i == j and i < r) for j in range(n1)] for i in range(n2)]
    b0 = [[int(j == r + i) for j in range(n2)] for i in range(n3)]
    P = random_unimodular(rng, n2)
    a = matmul(matmul(P, a0), random_unimodular(rng, n1))
    b = matmul(matmul(random_unimodular(rng, n3), b0), inverse(P))
    return space(n1), space(n2), space(n3), zmatrix(a, n1), zmatrix(b, n2)


def _inexact_nontrivial_triple(rng, triv, sign):
    n1 = rng.randint(0, 2)
    n2 = rng.randint(0, 3)
    r = rng.randint(0, min(n1, n2))
    n3 = (n2 - r) + rng.randint(0, 2)
    k = rng.randint(1, 2)  # nontrivial middle dimension
    v1 = GradedSpace(((triv, n1), (sign, 0)))
    v2 = GradedSpace(((triv, n2), (sign, k)))
    v3 = GradedSpace(((triv, n3), (sign, 0)))
    a_rows = [[int(i == j and i < r) for j in range(n1)] for i in range(n2 + k)]
    b_break = r >= 1 and rng.random() < 0.5
    b_rows = []
    for i in range(n3):
        row = [0] * (n2 + k)
        if b_break and i == 0:
            row[0] = 1  # hits image(a): makes b o a nonzero
        elif r + i < n2:
            row[r + i] = 1
        b_rows.append(row)
    return v1, v2, v3, zmatrix(a_rows, n1), zmatrix(b_rows, n2 + k)


def test_06_exact_triples_pass_and_inexact_nontrivial_middles_never_do():
    with criterion(
        6,
        "100 exact triples with trivial outer actions pass; 20 non-exact "
        "triples with nontrivial middle report hypothesis failures, never pass",
        30.0,
    ):
        G = AbelianGroup((2,))
        triv, sign = _block_keys(G)
        rng = Random(60640)
        for trial in range(100):
            v1, v2, v3, a, b = _exact_triple(rng, triv, sign)
            result = sandwich_check(v1, v2, v3, a, b)
            assert result.passed, f"exact trial {trial}: {result.status}: {result.reason}"
        for trial in range(20):
            v1, v2, v3, a, b = _inexact_nontrivial_triple(rng, triv, sign)
            assert v2.has_nontrivial_part()
            result = sandwich_check(v1, v2, v3, a, b)
            assert not result.passed, f"non-exact trial {trial} passed"
            assert result.status == "hypothesis-failure", (
                f"non-exact trial {trial}: {result.status}: {result.reason}"
            )


def test_07_word_round_trips_restore_complexes_and_reports():
    with criterion(
        7,
        "50 random words (length <= 5): apply then inverse-apply restores "
        "the complex exactly, with byte-identical reports",
        60.0,
    ):
        rng = Random(70707)
        for trial in range(50):
            group = random_group(rng)
            action = random_action(rng, group)
            c = random_valid_complex(rng, action)
            word = random_word(rng, action, max_len=5)
            back = word.inverse().apply(word.apply(c))
            assert back == c, f"trial {trial}"
            before = json.dumps(check_descent(c).to_dict(), sort_keys=True)
            after = json.dumps(check_descent(back).to_dict(), sort_keys=True)
            assert before == after, f"trial {trial}: reports differ"


def test_08_the_averaging_oracle_scales_with_the_group_order(cli):
    with criterion(
        8,
        "selftest-oracle --trials 10 --seed 1 --max-group-order 10000: the "
        "two routes agree on groups of order up to 10,000",
        10.0,
    ):
        code, _, payload = cli(
            "selftest-oracle", "--trials", "10", "--seed", "1", "--max-group-order", "10000"
        )
        assert code == 0
        assert payload["report"]["trials"] == 10
        assert payload["report"]["mismatch_count"] == 0
