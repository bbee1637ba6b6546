"""Expected results computed apart from eqdescent.

Nothing here imports the package under test.  Stabilizers are found by
enumerating every element of G (no Smith normal form), character values are
evaluated straight from their exponent vectors, and the Koszul expectations
come from exactness of the Koszul complex of x_0..x_n away from the origin.
Each ``check_*`` function returns a list of problems (empty when the report
is right) for one CLI report.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import lcm


class GroupAction:
    """A diagonal action of Z/n_1 x ... x Z/n_r on P^n, by brute force."""

    def __init__(self, orders, chars):
        self.orders = tuple(orders)
        self.chars = tuple(tuple(c) for c in chars)
        self.m = lcm(*self.orders)
        self.elements = list(itertools.product(*(range(n) for n in self.orders)))
        self._stab = {}

    @property
    def dim(self) -> int:
        return len(self.chars) - 1

    def value(self, char, g) -> int:
        """chi(g) as an exponent of zeta_m."""
        m = self.m
        return sum(c * x * (m // n) for c, x, n in zip(char, g, self.orders)) % m

    def supports(self):
        n = self.dim + 1
        for k in range(1, n + 1):
            yield from itertools.combinations(range(n), k)

    def stabilizer(self, support) -> list:
        """Elements fixing the points of this support, in lexicographic order."""
        support = tuple(support)
        if support not in self._stab:
            lead = self.chars[support[0]]
            others = [self.chars[i] for i in support[1:]]
            self._stab[support] = [
                g for g in self.elements
                if all(self.value(c, g) == self.value(lead, g) for c in others)
            ]
        return self._stab[support]

    def fiber_values(self, support, degree, twist) -> list:
        """Values of psi - degree * chi_lead on the stabilizer of the support."""
        lead = self.chars[support[0]]
        return [
            (self.value(twist, g) - degree * self.value(lead, g)) % self.m
            for g in self.stabilizer(support)
        ]

    def nontrivial_supports(self, degree, twist) -> set:
        """Supports on whose stabilizer O(degree) (x) twist acts nontrivially."""
        return {
            s for s in self.supports()
            if any(self.fiber_values(s, degree, twist))
        }


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def digest(payload: dict) -> str:
    """sha256 of the canonical payload without its volatile fields."""
    stripped = {k: v for k, v in payload.items() if k not in ("timing_seconds", "report_digest")}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _common(payload, code, want_code) -> list:
    if payload is None:
        return [f"no JSON report (exit code {code})"]
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if payload.get("report_digest") != digest(payload):
        problems.append("report_digest does not match the report")
    return problems


def _witness_supports(report) -> set:
    return {tuple(w["support"]) for w in report["witnesses"]}


def _check_descent_report(act: GroupAction, report, expect_pass, bad_supports, table_rows) -> list:
    """Shared checks on a DescentReport: verdict, witnesses, stabilizers, rows.

    ``table_rows(support, rows)`` returns problems with one point's rows.
    """
    problems = []
    want = "pass" if expect_pass else "fail"
    if report["verdict"] != want:
        problems.append(f"verdict {report['verdict']}, expected {want}")
    got = _witness_supports(report)
    if got != bad_supports:
        problems.append(f"witness supports {sorted(got)}, expected {sorted(bad_supports)}")
    strata = report["coverage"]["strata"]
    if strata and len(strata) != 2 ** (act.dim + 1) - 1:
        problems.append(f"{len(strata)} strata covered, expected {2 ** (act.dim + 1) - 1}")
    for s in strata:
        order = len(act.stabilizer(s["support"]))
        if s["stabilizer_order"] != order:
            problems.append(f"stratum {s['support']}: stabilizer order {s['stabilizer_order']}, expected {order}")
    for t in report["tables"]:
        support = tuple(t["support"])
        order = len(act.stabilizer(support))
        if t["stabilizer_order"] != order:
            problems.append(f"point {t['point']}: stabilizer order {t['stabilizer_order']}, expected {order}")
        problems.extend(f"point {t['point']}: {p}" for p in table_rows(support, t["cohomology"]))
    return problems[:20]


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def check_strata(act: GroupAction, code, payload) -> list:
    problems = _common(payload, code, 0)
    if payload is None:
        return problems
    strata = payload["strata"]
    if payload["count"] != 2 ** (act.dim + 1) - 1 or len(strata) != payload["count"]:
        problems.append(f"{payload['count']} strata, expected {2 ** (act.dim + 1) - 1}")
    if sorted(tuple(s["support"]) for s in strata) != sorted(act.supports()):
        problems.append("strata supports are not every nonempty coordinate subset")
    for s in strata:
        support = tuple(s["support"])
        stab = act.stabilizer(support)
        if s["stabilizer_order"] != len(stab):
            problems.append(f"stratum {support}: stabilizer order {s['stabilizer_order']}, expected {len(stab)}")
        if [tuple(g) for g in s["stabilizer_elements"]] != stab:
            problems.append(f"stratum {support}: stabilizer elements differ from enumeration")
        lead = act.chars[support[0]]
        if s["scalar_character"] != [act.value(lead, g) for g in stab]:
            problems.append(f"stratum {support}: scalar character differs")
    return problems


def check_koszul(act: GroupAction, spec, code, payload) -> list:
    """A Koszul complex (``spec.drop`` False) is exact at every point, so every
    fiber table is zero and it descends.  With the leftmost term dropped, the
    fiber cohomology is one line in degree -n carrying the dropped summand's
    fiber character, so descent is decided by that character alone."""
    n = act.dim
    bad = act.nontrivial_supports(spec.dropped_degree, spec.dropped_twist) if spec.drop else set()
    problems = _common(payload, code, 0 if not bad else 1)
    if payload is None:
        return problems

    def rows_ok(support, rows):
        nonzero = [r for r in rows if r["dimension"]]
        if not spec.drop:
            return [f"nonzero fiber cohomology {nonzero}"] if nonzero else []
        if len(nonzero) != 1 or nonzero[0]["degree"] != -n or nonzero[0]["dimension"] != 1:
            return [f"expected one line in degree {-n}, got {nonzero}"]
        want = act.fiber_values(support, spec.dropped_degree, spec.dropped_twist)
        if nonzero[0]["fiber_character"] != want:
            return ["surviving line carries the wrong character"]
        return []

    return problems + _check_descent_report(act, payload["report"], not bad, bad, rows_ok)


def check_bundle(act: GroupAction, degree, twist, code, payload) -> list:
    """check-descent on a single line bundle O(degree) (x) twist."""
    bad = act.nontrivial_supports(degree, twist)
    problems = _common(payload, code, 0 if not bad else 1)
    if payload is None:
        return problems

    def rows_ok(support, rows):
        want = act.fiber_values(support, degree, twist)
        if len(rows) != 1 or rows[0]["dimension"] != 1 or rows[0]["fiber_character"] != want:
            return ["fiber row differs from the line bundle's character"]
        return []

    return problems + _check_descent_report(act, payload["report"], not bad, bad, rows_ok)


def _net_twist(act: GroupAction, word) -> tuple:
    degree = sum(g.get("degree", 0) for g in word if g["kind"] == "twist")
    char = [0] * len(act.orders)
    for g in word:
        if g["kind"] == "twist":
            char = [c + t for c, t in zip(char, g["twist"])]
    char = [c % n for c, n in zip(char, act.orders)]
    shift = sum(g["k"] for g in word if g["kind"] == "shift")
    return degree, char, shift


def _word_conditions(act: GroupAction, report, word, bad, lines) -> list:
    """Conditions (i) and (ii) of a shift/twist word: every point examined
    has ``lines`` lines of the net twist's fiber character in degree minus
    the net shift, and of its inverse in degree plus the net shift."""
    degree, char, shift = _net_twist(act, word)
    neg = [(-c) % n for c, n in zip(char, act.orders)]
    problems = []
    for name, d, psi, j in (("condition_i", degree, char, -shift), ("condition_ii", -degree, neg, shift)):

        def rows_ok(support, rows, d=d, psi=psi, j=j):
            want = act.fiber_values(support, d, psi)
            if [(r["degree"], r["dimension"], r["fiber_character"]) for r in rows] != [(j, lines, want)]:
                return [f"fiber differs from {lines} line(s) of the net twist's character"]
            return []

        problems += [f"{name}: {p}" for p in _check_descent_report(act, report[name], not bad, bad, rows_ok)]
    return problems


def check_necessary(act: GroupAction, word, code, payload) -> list:
    """The kernel-fiber conditions of a shift/twist word hold exactly when its
    net twist acts trivially on every stabilizer (its inverse then does too)."""
    degree, char, shift = _net_twist(act, word)
    bad = act.nontrivial_supports(degree, char)
    problems = _common(payload, code, 0 if not bad else 1)
    if payload is None:
        return problems
    report = payload["report"]
    if report["verdict"] != ("pass" if not bad else "fail"):
        problems.append(f"verdict {report['verdict']}")
    kernel = report["kernel"]
    if (kernel["net_twist_degree"], kernel["net_twist_character"], kernel["net_shift"]) != (degree, char, shift):
        problems.append(f"kernel {kernel}, expected degree {degree}, character {char}, shift {shift}")
    return problems + _word_conditions(act, report, word, bad, 1)


def check_omega_twist(act: GroupAction, word, code, payload) -> list:
    """omega with the default generator O + O(e) + ... + O(n e) and a
    shift/twist word: e kills every character, so all n+1 summands of either
    image carry the net twist's fiber character (negated for the inverse
    word), and the word is certified exactly when the net twist descends."""
    degree, char, _ = _net_twist(act, word)
    bad = act.nontrivial_supports(degree, char)
    problems = _common(payload, code, 0 if not bad else 1)
    if payload is None:
        return problems
    report = payload["report"]
    want = "equivalence-certified" if not bad else "disproved"
    if report["verdict"] != want:
        problems.append(f"verdict {report['verdict']}, expected {want}")
    if report["failing_conditions"] != ([] if not bad else ["i", "ii"]):
        problems.append(f"failing conditions {report['failing_conditions']}")
    return problems + _word_conditions(act, report, word, bad, act.dim + 1)


def check_omega_koszul(act: GroupAction, code, payload) -> list:
    """omega with a Koszul complex as both generators: shifts and twists keep
    it exact, so both images have zero fiber cohomology and the word is
    certified."""
    problems = _common(payload, code, 0)
    if payload is None:
        return problems
    report = payload["report"]
    if report["verdict"] != "equivalence-certified":
        problems.append(f"verdict {report['verdict']}, expected equivalence-certified")

    def rows_ok(support, rows):
        nonzero = [r for r in rows if r["dimension"]]
        return [f"nonzero fiber cohomology {nonzero}"] if nonzero else []

    for name in ("condition_i", "condition_ii"):
        problems += [f"{name}: {p}" for p in _check_descent_report(act, report[name], True, set(), rows_ok)]
    return problems


def reproducer_verdict(act: GroupAction, poly, degrees, twists) -> str:
    """Verdict for a one-entry complex 0 -> O(d0)(x)psi -p-> O(d1)(x)psi -> 0.

    The fiber at a point is the 1x1 map p(x): it is exact where p(x) != 0 and
    leaves both lines where p vanishes.  Search small integer points for a
    zero whose stabilizer acts nontrivially on either line.
    """
    n = act.dim + 1
    for x in itertools.product(range(-2, 3), repeat=n):
        if not any(x):
            continue
        value = sum(c * _monomial(x, e) for c, e in poly)
        if value != 0:
            continue
        support = tuple(i for i in range(n) if x[i])
        for d, psi in zip(degrees, twists):
            if any(act.fiber_values(support, d, psi)):
                return "fail"
    return "pass"


def _monomial(x, exps) -> int:
    out = 1
    for xi, e in zip(x, exps):
        out *= xi ** e
    return out


def check_reproducer(act: GroupAction, poly, degrees, twists, code, payload) -> list:
    want = reproducer_verdict(act, poly, degrees, twists)
    problems = _common(payload, code, 0 if want == "pass" else 1)
    if payload is None:
        return problems
    if payload["report"]["verdict"] != want:
        problems.append(f"verdict {payload['report']['verdict']}, expected {want}")
    return problems


def check_selftest(trials, seed, code, payload) -> list:
    problems = _common(payload, code, 0)
    if payload is None:
        return problems
    report = payload["report"]
    if (report["verdict"], report["trials"], report["seed"], report["mismatch_count"]) != ("pass", trials, seed, 0):
        problems.append(
            f"verdict {report['verdict']}, {report['trials']} trials, seed {report['seed']}, "
            f"{report['mismatch_count']} mismatches; expected pass, {trials}, {seed}, 0"
        )
    return problems
