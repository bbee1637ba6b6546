"""Validation and structure of equivariant complexes: frozen cases for each
violation kind, structural input errors, canonical forms, summand algebra."""

from fractions import Fraction

import pytest

from eqdescent.action import ProjectiveAction
from eqdescent.complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    InvalidComplexError,
    TwistedSummand,
    _matrix_compose,
    bundle_complex,
)
from eqdescent.groups import AbelianGroup, InputError
from eqdescent.polynomials import Poly

from conftest import O


def x(i):
    return Poly.variable(3, i)


# ---------------------------------------------------------------------------
# validation: one frozen case per violation kind
# ---------------------------------------------------------------------------


def test_valid_two_term_complex(z2_p2):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1, (1,)),)},
        {0: {(0, 0): x(2)}},
    )
    report = c.validate()
    assert report.ok
    assert report.violations == ()
    c.require_valid()  # does not raise


def test_homogeneity_violation(z2_p2):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1, (1,)),)},
        {0: {(0, 0): x(2) * x(2)}},  # degree 2 entry where degree 1 is required
    )
    report = c.validate()
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "homogeneity" in kinds
    v = next(v for v in report.violations if v.kind == "homogeneity")
    assert (v.degree, v.source, v.target) == (0, 0, 0)


def test_equivariance_violation(z2_p2):
    # x2 transforms by (1,), but O(0) -> O(1) with no twist requires (0,).
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)},
        {0: {(0, 0): x(2)}},
    )
    report = c.validate()
    assert not report.ok
    assert [v.kind for v in report.violations] == ["equivariance"]
    # the same shape with an invariant coordinate is fine
    ok = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)},
        {0: {(0, 0): x(0)}},
    )
    assert ok.validate().ok


def test_a_monomial_in_two_entries_is_judged_per_entry():
    """x1 is equivariant from O to O(1)@(1,) and not from O to O(1): the
    character kept for x1 after the first entry must not excuse the second."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 1, (G.character((0,)), G.character((1,))))
    x1 = Poly.variable(2, 1)
    c = EquivariantComplex(
        action,
        {
            0: (TwistedSummand(0, G.character((0,))),),
            1: (TwistedSummand(1, G.character((1,))), TwistedSummand(1, G.character((0,)))),
        },
        {0: {(0, 0): x1, (0, 1): x1}},
    )
    assert [repr(v) for v in c.validate().violations] == [
        "[equivariance] degree 0, entry 0 -> 1: monomial (0, 1) transforms by (1,), "
        "entry requires (0,)"
    ]


def test_d_squared_violation(z2_p2):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),), 2: (O(z2_p2, 2),)},
        {0: {(0, 0): x(0)}, 1: {(0, 0): x(0)}},
    )
    report = c.validate()
    assert not report.ok
    assert [v.kind for v in report.violations] == ["d-squared"]
    with pytest.raises(InvalidComplexError) as exc:
        c.require_valid()
    assert exc.value.report.violations == report.violations


def test_validation_is_kept_on_the_complex(z2_p2, monkeypatch):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),), 2: (O(z2_p2, 2),)},
        {0: {(0, 0): x(0)}, 1: {(0, 0): x(0)}},
    )
    report = c.validate()

    def not_again(complex_):
        raise AssertionError("validated twice")

    monkeypatch.setattr(EquivariantComplex, "_find_violations", not_again)
    assert c.validate() is report
    with pytest.raises(InvalidComplexError):
        c.require_valid()


def test_an_invalid_built_complex_is_an_internal_error(z2_p2):
    """The package's own complexes are checked by one call that names the
    builder and raises the bug error, not the bad-input one."""
    ok = EquivariantComplex(z2_p2, {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)}, {0: {(0, 0): x(0)}})
    assert ok.require_built_valid("mixing") is ok
    bad = EquivariantComplex(z2_p2, {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)}, {0: {(0, 0): x(2)}})
    with pytest.raises(InternalConsistencyError) as exc:
        bad.require_built_valid("mixing")
    assert not isinstance(exc.value, InvalidComplexError)
    assert str(exc.value).startswith("mixing produced an invalid complex: ([equivariance] ")


def test_koszul_style_complex_is_valid(z2_p2):
    # O -> O(1)^2 -> O(2) with d1 o d0 = -x0*x1 + x1*x0 = 0.
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1), O(z2_p2, 1)), 2: (O(z2_p2, 2),)},
        {
            0: {(0, 0): x(0), (0, 1): x(1)},
            1: {(0, 0): -x(1), (1, 0): x(0)},
        },
    )
    assert c.validate().ok


def test_multiple_violations_all_reported(z2_p2):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)},
        {0: {(0, 0): x(2) + x(0) * x(0)}},  # x2: equivariance; x0^2: homogeneity
    )
    kinds = sorted(v.kind for v in c.validate().violations)
    assert kinds == ["equivariance", "homogeneity"]


# ---------------------------------------------------------------------------
# structural input errors (raised at construction, not collected)
# ---------------------------------------------------------------------------


def test_bad_index_rejected(z2_p2):
    with pytest.raises(InputError):
        EquivariantComplex(
            z2_p2,
            {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)},
            {0: {(0, 5): x(0)}},
        )


@pytest.mark.parametrize(
    "terms, diffs, message",
    [
        ({0.7: "O"}, {}, "degree 0.7 is not an int"),
        ({0: "O", 1: "O1"}, {0.0: {(0, 0): 0}}, "differential degree 0.0 is not an int"),
        ({0: "O", 1: "O1"}, {0: {(0.0, 0): 0}}, "source index 0.0 out of range"),
        ({0: "O", 1: "O1"}, {0: {(0, True): 0}}, "target index True out of range"),
    ],
)
def test_inexact_degrees_and_indices_rejected(z2_p2, terms, diffs, message):
    """No degree key or entry index is truncated into an int."""
    summands = {"O": (O(z2_p2, 0),), "O1": (O(z2_p2, 1),)}
    terms = {j: summands[name] for j, name in terms.items()}
    diffs = {j: {key: x(0) for key in e} for j, e in diffs.items()}
    with pytest.raises(InputError, match=message):
        EquivariantComplex(z2_p2, terms, diffs)


@pytest.mark.parametrize("d", [1.5, 2.0, True])
def test_summand_degree_must_be_an_int(z2_p2, d):
    with pytest.raises(InputError, match="a summand degree must be an int"):
        TwistedSummand(d, z2_p2.group.trivial_character())


def test_differential_between_missing_terms_rejected(z2_p2):
    with pytest.raises(InputError):
        EquivariantComplex(z2_p2, {0: (O(z2_p2, 0),)}, {0: {(0, 0): x(0)}})


def test_foreign_group_twist_rejected(z2_p2):
    H = AbelianGroup((3,))
    with pytest.raises(InputError):
        EquivariantComplex(
            z2_p2, {0: (TwistedSummand(0, H.trivial_character()),)}, {}
        )


def test_wrong_variable_count_rejected(z2_p2):
    with pytest.raises(InputError):
        EquivariantComplex(
            z2_p2,
            {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)},
            {0: {(0, 0): Poly.variable(2, 0)}},
        )


def test_zero_entries_and_empty_degrees_are_dropped(z2_p2):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),), 5: ()},
        {0: {(0, 0): Poly.zero(3)}},
    )
    assert c.degrees() == (0, 1)
    assert c.differentials == {}
    assert c.entry(0, 0, 0).is_zero


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------


def test_equality_is_by_content(z2_p2):
    a = bundle_complex(z2_p2, O(z2_p2, 3))
    b = bundle_complex(z2_p2, O(z2_p2, 3))
    assert a == b and hash(a) == hash(b)
    assert a != bundle_complex(z2_p2, O(z2_p2, 2))
    # summand order is part of the content
    c = EquivariantComplex(z2_p2, {0: (O(z2_p2, 0), O(z2_p2, 2))}, {})
    assert c != EquivariantComplex(z2_p2, {0: (O(z2_p2, 2), O(z2_p2, 0))}, {})


def test_repr_lists_terms(z2_p2):
    c = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1, (1,)),)},
        {0: {(0, 0): x(2)}},
    )
    assert repr(c) == "[0: O(0)] -> [1: O(1)@(1,)]"


# ---------------------------------------------------------------------------
# summand algebra and fiber characters
# ---------------------------------------------------------------------------


def test_tensor_power_and_inverse(z2_p2):
    G = z2_p2.group
    s = TwistedSummand(3, G.character((1,)))
    assert s.tensor_power(2) == TwistedSummand(6, G.character((0,)))
    assert s.inverse() == TwistedSummand(-3, G.character((1,)))
    assert s.tensor_power(0) == TwistedSummand(0, G.trivial_character())


@pytest.mark.parametrize("d", range(-4, 5))
def test_fiber_character_parity_at_scaled_coordinate(z2_p2, d):
    # At the stratum {2} the scalar character is the nontrivial one, so the
    # fiber of O(d) carries value table (0, d mod 2): trivial iff d is even.
    stratum = z2_p2.stratum_of_support((2,))
    phi = O(z2_p2, d).fiber_character(stratum)
    assert phi.values == (0, d % 2)
    assert phi.is_trivial == (d % 2 == 0)


def test_fiber_character_on_invariant_stratum(z2_p2):
    # At {0} every coordinate character restricts trivially on the scalar
    # side, so only the twist matters.
    stratum = z2_p2.stratum_of_support((0,))
    assert O(z2_p2, 7).fiber_character(stratum).is_trivial
    assert O(z2_p2, 7, (1,)).fiber_character(stratum).values == (0, 1)


# ---------------------------------------------------------------------------
# composition of polynomial matrices (the d o d check)
# ---------------------------------------------------------------------------


def _compose_reference(entries_ab, entries_bc):
    """(s -> u) then (u -> t) by Poly products and sums, zeros dropped."""
    out = {}
    for (s, u), p in entries_ab.items():
        for (v, t), q in entries_bc.items():
            if u == v:
                key = (s, t)
                out[key] = out[key] + q * p if key in out else q * p
    return {k: v for k, v in out.items() if not v.is_zero}


def test_matrix_compose_matches_poly_arithmetic():
    """Integer composition equals composing with Poly products and sums:
    the same entries in the same order, the same normal forms and reprs,
    over Fraction coefficients, products that cancel and empty matrices."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.sampled_from(
        [1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-5, 6)]
    )
    monomials = st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 0)])
    polys = st.dictionaries(monomials, coeffs, min_size=1, max_size=3).map(
        lambda terms: Poly(2, terms)
    )
    index = st.integers(0, 2)
    matrices = st.dictionaries(st.tuples(index, index), polys, max_size=6)

    @st.composite
    def koszul_like(draw):
        """(p, q) then (r*q, -r*p) into target 0 cancels; further random
        entries of the second matrix may keep some of its terms alive."""
        ab = draw(matrices)
        p, q, r = draw(polys), draw(polys), draw(polys)
        ab.update({(0, 0): p, (0, 1): q})
        bc = draw(matrices)
        bc.update({(0, 0): r * q, (1, 0): -(r * p)})
        return ab, bc

    seen = {"cancelled": 0, "fractions": 0, "empty": 0}

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.one_of(st.tuples(matrices, matrices), koszul_like()))
    def check(pair):
        ab, bc = pair
        got = _matrix_compose(ab, bc)
        want = _compose_reference(ab, bc)
        assert list(got.items()) == list(want.items())
        assert [repr(p) for p in got.values()] == [repr(p) for p in want.values()]
        met = {(s, t) for (s, u) in ab for (v, t) in bc if u == v}
        seen["cancelled"] += len(met - set(want))
        seen["fractions"] += any(p.denominator > 1 for p in want.values())
        seen["empty"] += not ab or not bc

    check()
    assert all(seen.values()), seen


def test_matrix_compose_cancels_products_above_the_degree_cap():
    """x0^40 * x1^40 has degree 80 > MAX_TOTAL_DEGREE; it cancels in the
    composite without an error, and survives as a d-squared violation."""
    hi0 = Poly.monomial(2, (40, 0))
    hi1 = Poly.monomial(2, (0, 40))
    first = {(0, 0): hi0, (0, 1): hi1}
    assert _matrix_compose(first, {(0, 0): -hi1, (1, 0): hi0}) == {}
    [(key, p)] = _matrix_compose(first, {(0, 0): -hi1}).items()
    assert key == (0, 0) and repr(p) == "-x0^40*x1^40"
    assert _matrix_compose({}, {(0, 0): hi0}) == {} == _matrix_compose(first, {})
