"""Shared helpers for the test suite."""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest

import eqdescent.oracle as oracle_module
from eqdescent.action import ProjectiveAction
from eqdescent.complexes import EquivariantComplex, TwistedSummand
from eqdescent.groups import AbelianGroup, Subgroup
from eqdescent.linalg import ZMatrix
from eqdescent.polynomials import Poly

from eqdescent.cli import main

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def split_report(text):
    """Split CLI output into (payload, rest): the JSON document that starts
    it, parsed, and the text after the document.  (None, text) when the
    output does not start with a document."""
    if not text.startswith("{"):
        return None, text
    payload, end = json.JSONDecoder().raw_decode(text)
    return payload, text[end:]


@pytest.fixture
def cli():
    """Run the command line in-process: cli(*argv) -> (exit_code, stdout, payload)."""

    def runner(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        text = out.getvalue()
        return code, text, split_report(text)[0]

    return runner


# ---------------------------------------------------------------------------
# the Z/2 action on P^2 most tests use, its bundles and its two-term complex
# ---------------------------------------------------------------------------

def z2_p2_action():
    """Z/2 on P^2 negating the last coordinate: (x0 : x1 : -x2)."""
    g = AbelianGroup((2,))
    return ProjectiveAction(g, 2, (g.character((0,)), g.character((0,)), g.character((1,))))


@pytest.fixture
def z2_p2():
    return z2_p2_action()


def O(action, d, coords=None):
    """O(d) twisted by the character ``coords``, the trivial one by default."""
    G = action.group
    twist = G.trivial_character() if coords is None else G.character(coords)
    return TwistedSummand(d, twist)


@pytest.fixture
def two_term(z2_p2):
    """0 -> O@(1,) --x2--> O(1) -> 0, equivariant since x2 transforms by (1,)."""
    return EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0, (1,)),), 1: (O(z2_p2, 1),)},
        {0: {(0, 0): Poly.variable(3, 2)}},
    )


# ---------------------------------------------------------------------------
# subgroups generated by elements, which the package itself never builds
# ---------------------------------------------------------------------------

def add(group, a, b):
    """The group law on coordinate tuples."""
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


def brute_force_closure(group, gens):
    """Oracle: add generators to everything newly found until nothing new
    appears; the sorted elements found."""
    members = {(0,) * group.rank}
    new = members
    while new:
        new = {add(group, h, g) for h in new for g in gens} - members
        members |= new
    return sorted(members)


def generated_subgroup(group, gens):
    """The subgroup of ``group`` generated by the elements ``gens``."""
    return Subgroup(group, tuple(brute_force_closure(group, gens)))


# ---------------------------------------------------------------------------
# matrix operations that only the tests need
# ---------------------------------------------------------------------------

def zmatrix(rows, ncols):
    """The ZMatrix with the given dense integer rows and ``ncols`` columns."""
    return ZMatrix(len(rows), ncols, tuple({j: x for j, x in enumerate(r) if x} for r in rows))


def zeros(rows, cols):
    """The rows x cols zero ZMatrix."""
    return ZMatrix(rows, cols, tuple({} for _ in range(rows)))


def matmul(x, y):
    """The product of two dense integer matrices given as lists of rows."""
    columns = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in x]


def random_unimodular(rng, n):
    """A random n x n integer matrix L U with unit triangular L and U, so of
    determinant 1 and with an integral inverse."""

    def unit_triangular(lower):
        return [
            [1 if i == j else rng.randint(-2, 2) if (j < i) == lower else 0 for j in range(n)]
            for i in range(n)
        ]

    return matmul(unit_triangular(True), unit_triangular(False))


def inverse(rows):
    """The inverse of a square integer matrix (lists of rows) by Gauss-Jordan
    over Q; ValueError if it is singular or its inverse is not integral."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    a = [[Fraction(x) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("the inverse is not integral")
    return [[int(x) for x in row] for row in inv]


def koszul_complex(action, coeffs):
    """Koszul complex of (c_i x_i): e_S in degree -|S| as O(-|S|) twisted by
    minus the sum of the characters in S, with entry (-1)^pos c_i x_i from
    e_S to e_{S - i}, which makes every entry equivariant."""
    n = action.dim + 1
    group = action.group
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]

    def summand(s):
        twist = group.trivial_character()
        for i in s:
            twist = twist - action.coord_chars[i]
        return TwistedSummand(-len(s), twist)

    terms = {-k: tuple(summand(s) for s in subsets[k]) for k in range(n + 1)}
    diffs = {}
    for k in range(1, n + 1):
        index = {s: a for a, s in enumerate(subsets[k - 1])}
        diffs[-k] = {
            (a, index[s[:pos] + s[pos + 1:]]): Poly.variable(n, i) * ((-1) ** pos * coeffs[i])
            for a, s in enumerate(subsets[k])
            for pos, i in enumerate(s)
        }
    return EquivariantComplex(action, terms, diffs)


@pytest.fixture
def koszul():
    """koszul(action, coeffs) -> the Koszul complex of (c_i x_i)."""
    return koszul_complex


@pytest.fixture
def one_fiber_exponent_off(monkeypatch):
    """Make the averaging oracle read its first fiber exponent (at the
    identity of the stabilizer) one too high."""
    real = oracle_module._fiber_exponents

    def patched(*args):
        exps = real(*args)
        first = next(iter(exps))
        exps[first] = (exps[first][0] + 1,) + exps[first][1:]
        return exps

    monkeypatch.setattr(oracle_module, "_fiber_exponents", patched)
