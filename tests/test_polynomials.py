"""Sparse exact polynomials: arithmetic, evaluation, substitution."""

import random
from fractions import Fraction

import pytest

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


def test_cancellation_to_zero():
    p = Poly.variable(2, 0)
    assert (p - p).is_zero
    assert (p + (-p)).is_zero


def test_degrees():
    assert Poly.zero(2).total_degree() is None
    assert Poly.constant(2, 5).homogeneous_degree() == 0
    mixed = Poly(2, {(1, 0): 1, (0, 2): 1})
    assert mixed.total_degree() == 2
    assert mixed.homogeneous_degree() is None
    homog = Poly(2, {(1, 1): 1, (0, 2): -3})
    assert homog.homogeneous_degree() == 2


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
