"""Shared helpers for the test suite."""

import contextlib
import io
import itertools
import json
from fractions import Fraction

import pytest

import eqdescent.oracle as oracle_module
from eqdescent.complexes import EquivariantComplex, TwistedSummand
from eqdescent.linalg import QMatrix
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
# matrix operations that only the tests need
# ---------------------------------------------------------------------------

def qzeros(rows, cols):
    """The rows x cols zero QMatrix."""
    return QMatrix(rows, cols, (Fraction(0),) * (rows * cols))


def qidentity(n):
    """The n x n identity QMatrix."""
    return QMatrix.from_rows([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])


def inverse(m):
    """Exact inverse of a QMatrix by Gauss-Jordan; ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    a = m.to_lists()
    inv = qidentity(n).to_lists()
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
    return QMatrix.from_rows(inv)


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
