"""Sparse exact polynomials: arithmetic, evaluation, substitution."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from eqdescent.action import RationalPoint
from eqdescent.errors import as_rational, digit_count, number_text
from eqdescent.groups import InputError
from eqdescent.polynomials import MAX_TOTAL_DEGREE, Poly


def random_poly(rng, nvars, max_deg=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(nvars, terms)


def test_construction_normalizes():
    p = Poly(2, {(1, 0): 1, (0, 1): 0})
    assert p.monomials() == (((1, 0), Fraction(1)),)
    assert Poly(2, {(1, 1): 2, (1, 1): 2}).monomials() == (((1, 1), Fraction(2)),)
    assert Poly.zero(3).is_zero


def test_construction_rejects_bad_terms():
    with pytest.raises(InputError):
        Poly(2, {(1,): 1})
    with pytest.raises(InputError):
        Poly(2, {(-1, 0): 1})
    with pytest.raises(InputError):
        Poly(1, {(MAX_TOTAL_DEGREE + 1,): 1})


@pytest.mark.parametrize(
    "exps", [(1.5, 0), (1.0, 0), ("2", 0), (True, 0), (0, False), (Fraction(1), 0)]
)
def test_exponents_that_are_not_ints_are_refused(exps):
    """An exponent is refused, not truncated or parsed: (1.5, 0) is not x0."""
    with pytest.raises(InputError, match="not an int"):
        Poly(2, {exps: 1})
    with pytest.raises(InputError, match="not an int"):
        Poly.monomial(2, exps)


def test_cancellation_to_zero():
    p = Poly.variable(2, 0)
    assert (p - p).is_zero
    assert (p + (-p)).is_zero


def test_arithmetic_ring_axioms_randomized():
    rng = random.Random(2718)
    for _ in range(60):
        n = rng.randint(1, 3)
        p, q, r = (random_poly(rng, n) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p - p == Poly.zero(n)


def test_evaluation_matches_term_expansion():
    rng = random.Random(1618)
    for _ in range(60):
        n = rng.randint(1, 3)
        p, q = random_poly(rng, n), random_poly(rng, n)
        point = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_integer_evaluation_matches_rational_evaluation():
    rng = random.Random(4)
    for _ in range(100):
        p = Poly(3, {
            tuple(rng.randint(0, 3) for _ in range(3)): rng.randint(-9, 9) for _ in range(4)
        })
        point = tuple(rng.randint(-5, 5) for _ in range(3))
        value = p.evaluate(point)
        assert type(value) is int
        assert value == p.evaluate(tuple(Fraction(x) for x in point))
    assert type(Poly.zero(2).evaluate((3, 1))) is int
    half = Poly(2, {(1, 0): Fraction(1, 2)})
    assert half.evaluate((3, 1)) == Fraction(3, 2)  # non-integer coefficients stay exact


def test_evaluate_simple():
    p = Poly(3, {(0, 0, 1): 1})  # x2
    assert p.evaluate((1, 0, 0)) == 0
    assert p.evaluate((0, 0, 1)) == 1
    assert p.evaluate((Fraction(1, 2), 3, Fraction(2, 5))) == Fraction(2, 5)


def test_substitution_is_evaluation_compatible():
    """p(f(x)) evaluated at a point equals p evaluated at the image point."""
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        scales = [Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2])) for _ in range(n)]
        images = [(perm[j], scales[j]) for j in range(n)]
        q = p.substitute_scaled_permutation(images)
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
        image_point = [Fraction(0)] * n
        for j in range(n):
            image_point[j] = scales[j] * point[perm[j]]
        assert q.evaluate(point) == p.evaluate(tuple(image_point))


def test_substitution_round_trip():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_poly(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        scales = [Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2])) for _ in range(n)]
        fwd = [(perm[j], scales[j]) for j in range(n)]
        inv = [None] * n
        for j in range(n):
            inv[perm[j]] = (j, 1 / scales[j])
        assert p.substitute_scaled_permutation(fwd).substitute_scaled_permutation(inv) == p


def test_scalar_multiplication():
    p = Poly(2, {(1, 0): 2, (0, 1): -4})
    assert p * Fraction(1, 2) == Poly(2, {(1, 0): 1, (0, 1): -2})
    assert 0 * p == Poly.zero(2)


def test_repr_readable():
    p = Poly(3, {(0, 0, 1): 1, (2, 1, 0): Fraction(-1, 2)})
    assert repr(p) == "x2 - 1/2*x0^2*x1"


def test_inexact_coefficients_and_scalars_are_refused():
    with pytest.raises(InputError, match="coefficient: 0.5"):
        Poly(2, {(1, 0): 0.5})
    with pytest.raises(InputError, match="coefficient: '1e4000000'"):
        Poly(1, {(1,): "1e4000000"})  # Fraction would build a four-million-digit int
    p = Poly.variable(2, 0)
    with pytest.raises(InputError, match="scalar: 0.5"):
        p * 0.5
    with pytest.raises(InputError, match="scale: 2.0"):
        p.substitute_scaled_permutation([(1, 2.0), (0, 1)])
    assert Poly(1, {(1,): "-3/6"}) == Poly(1, {(1,): Fraction(-1, 2)})


def test_bools_are_not_rationals():
    """True is an int to Python, but not an exact rational input."""
    for bad in (True, False):
        with pytest.raises(InputError, match=f"not an exact rational coordinate: {bad}"):
            as_rational(bad, "coordinate")
    with pytest.raises(InputError, match="coefficient: True"):
        Poly(3, {(1, 0, 0): True})
    with pytest.raises(InputError, match="coordinate: True"):
        RationalPoint((True, 0, 0))


# ---------------------------------------------------------------------------
# the integer-numerator representation against a dict-of-Fraction reference
# ---------------------------------------------------------------------------


def _ref(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _ref(out)


def _ref_scale(a, f):
    return _ref({e: c * f for e, c in a.items()})


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _ref(out)


def _ref_substitute(a, images):
    out = {}
    for exps, c in a.items():
        new = [0] * len(exps)
        for j, e in enumerate(exps):
            idx, scale = images[j]
            new[idx] += e
            c *= Fraction(scale) ** e
        out[tuple(new)] = out.get(tuple(new), 0) + c
    return _ref(out)


def _ref_evaluate(a, point):
    total = Fraction(0)
    for exps, c in a.items():
        for x, e in zip(point, exps):
            c *= Fraction(x) ** e
        total += c
    return total


def test_integer_form_matches_a_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rational = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4, 6]))
    coeff = st.integers(-3, 3) | rational

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 3))
        terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), coeff, max_size=4)
        ta, tb = data.draw(terms), data.draw(terms)
        a, b = _ref(ta), _ref(tb)
        p, q = Poly(n, ta), Poly(n, tb)
        f = data.draw(coeff)
        perm = data.draw(st.permutations(range(n)))
        scales = data.draw(st.lists(st.sampled_from([1, -1, 2, Fraction(-1, 2), Fraction(3, 4)]),
                                    min_size=n, max_size=n))
        images = list(zip(perm, scales))

        results = {
            "p": (p, a),
            "add": (p + q, _ref_add(a, b)),
            "sub": (p - q, _ref_add(a, _ref_scale(b, -1))),
            "mul": (p * q, _ref_mul(a, b)),
            "scalar": (f * p, _ref_scale(a, f)),
            "substitute": (p.substitute_scaled_permutation(images), _ref_substitute(a, images)),
        }
        ints = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        fracs = tuple(Fraction(x, 3) for x in ints)
        for name, (got, want) in results.items():
            assert got.terms == want, name
            assert got.monomials() == tuple(sorted(want.items())), name
            # normal form: a positive denominator coprime to the numerators
            assert got.denominator > 0 and 0 not in got.numerators.values(), name
            assert gcd(got.denominator, *got.numerators.values()) == 1, name
            # equal polynomials built another way are equal and hash alike
            again = Poly(n, dict(reversed(list(want.items()))))
            assert got == again and hash(got) == hash(again), name
            value = got.evaluate(ints)
            assert value == _ref_evaluate(want, ints), name
            assert type(value) is (int if got.denominator == 1 else Fraction), name
            assert got.evaluate(fracs) == _ref_evaluate(want, fracs), name
        assert (p + q == q + p) and hash(p + q) == hash(q + p)

    check()


def test_products_over_the_degree_cap_are_refused():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    degree = st.integers(0, MAX_TOTAL_DEGREE)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(degree, degree)
    @hypothesis.example(MAX_TOTAL_DEGREE, 0)
    @hypothesis.example(MAX_TOTAL_DEGREE, 1)
    @hypothesis.example(0, MAX_TOTAL_DEGREE - 1)
    @hypothesis.example(0, MAX_TOTAL_DEGREE)
    def check(a, b):
        p = Poly(2, {(a, 0): 1, (0, 1): Fraction(1, 2)})  # top degree a, not its last term
        q = Poly(2, {(0, 0): 3, (0, b): -1})
        if max(a, 1) + b > MAX_TOTAL_DEGREE:
            with pytest.raises(InputError, match="exceeds the cap"):
                p * q
        else:
            assert (p * q).terms == _ref_mul(_ref(p.terms), _ref(q.terms))

    check()


def test_digit_count_is_the_length_of_the_written_number():
    for k in (1, 2, 15, 16, 17, 300, 1000):
        for n in (10 ** (k - 1), 10**k - 1, 2 ** (3 * k), 7 * 10 ** (k - 1) + 3):
            assert digit_count(n) == digit_count(-n) == len(str(n)), n


def test_number_text_writes_what_str_writes_and_counts_what_it_cannot():
    for q in (0, -3, Fraction(-7, 3), Fraction(10**40, 3)):
        assert number_text(q) == str(q)
    if sys.get_int_max_str_digits():
        long = 10 ** sys.get_int_max_str_digits()  # one digit over the limit
        digits = sys.get_int_max_str_digits() + 1
        assert number_text(-long) == f"-<{digits} digits>"
        assert number_text(Fraction(1, long)) == f"<{digits} digits>"
        poly = Poly(2, {(1, 0): long})
        assert repr(poly) == f"<{digits} digits>*x0"
