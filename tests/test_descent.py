"""Fiber restriction, block cohomology and the descent decision.

The load-bearing test here is the dual-route agreement property: the block
decomposition path (integer fibers split by stabilizer characters, Bareiss
ranks) must produce exactly the same isotypic cohomology dimensions as the
independent cyclotomic averaging route, on a large corpus of random
instances.  The two routes share no linear algebra: one works over Z with
character bookkeeping, the other over Q(zeta_m) with projectors.
"""

import json
from fractions import Fraction
from random import Random

import pytest

import eqdescent.action as action_module
import eqdescent.descent as descent_module
import eqdescent.linalg as linalg_module
from eqdescent.action import ProjectiveAction, RationalPoint
from eqdescent.complexes import EquivariantComplex, TwistedSummand, bundle_complex
from eqdescent.descent import (
    BlockComplex,
    GradedSpace,
    block_cohomology,
    check_bundle_descent,
    check_descent,
    fiber_restrict,
    sandwich_check,
)
from eqdescent.groups import AbelianGroup, CharacterRestriction, InputError, Subgroup
from eqdescent.linalg import QMatrix
from eqdescent.oracle import isotypic_cohomology
from eqdescent.polynomials import Poly
from eqdescent.problem import parse_problem
from eqdescent.randgen import (
    mixed_variant,
    random_action,
    random_group,
    random_point,
    random_valid_complex,
)
from eqdescent.words import FunctorWord, Twist, omega_check


@pytest.fixture
def z2_p2():
    G = AbelianGroup((2,))
    return ProjectiveAction(G, 2, (G.character((0,)), G.character((0,)), G.character((1,))))


def O(action, d, coords=None):
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


def nonzero_dims(table):
    return {k: v for k, v in table.items() if v}


def block_dims_by_values(fiber):
    return nonzero_dims(
        {(j, phi.values): d for (j, phi), d in block_cohomology(fiber).items()}
    )


# ---------------------------------------------------------------------------
# frozen fiber restrictions
# ---------------------------------------------------------------------------


def test_fiber_splits_at_fixed_point(two_term):
    pt = RationalPoint((Fraction(1), Fraction(0), Fraction(0)))
    fiber = fiber_restrict(two_term, pt)
    assert fiber.stabilizer.order == 2
    # The summands land in different blocks; x2 vanishes there, so both
    # cohomologies survive: H^0 in the (0,1) block, H^1 in the trivial block.
    assert block_dims_by_values(fiber) == {(0, (0, 1)): 1, (1, (0, 0)): 1}
    trivial = [block for phi, block in fiber.blocks.items() if phi.is_trivial]
    assert [block.cohomology() for block in trivial] == [{1: 1}]


def test_fiber_exact_at_scaled_coordinate(two_term):
    pt = RationalPoint((Fraction(0), Fraction(0), Fraction(1)))
    fiber = fiber_restrict(two_term, pt)
    assert fiber.stabilizer.order == 2
    # Both summands land in the same block (values (0,1)) and the entry x2 is
    # nonzero there, so the block is exact: no cohomology anywhere.
    assert fiber.block_keys()[0].values == (0, 1)
    assert block_dims_by_values(fiber) == {}


def test_fiber_trivial_stabilizer_is_one_block(two_term):
    pt = RationalPoint((Fraction(1), Fraction(1), Fraction(1)))
    fiber = fiber_restrict(two_term, pt)
    assert fiber.stabilizer.order == 1
    assert len(fiber.blocks) == 1
    assert block_dims_by_values(fiber) == {}


def test_fiber_provenance_records_block_of_each_summand(two_term):
    pt = RationalPoint((Fraction(1), Fraction(0), Fraction(0)))
    fiber = fiber_restrict(two_term, pt)
    assert fiber.provenance[(0, 0)].values == (0, 1)
    assert fiber.provenance[(1, 0)].values == (0, 0)


def test_zero_differential_complex_counts_summands(z2_p2):
    c = EquivariantComplex(
        z2_p2, {0: (O(z2_p2, 0), O(z2_p2, 2)), 3: (O(z2_p2, 1),)}, {}
    )
    pt = RationalPoint((Fraction(0), Fraction(0), Fraction(1)))
    fiber = fiber_restrict(c, pt)
    assert block_dims_by_values(fiber) == {(0, (0, 0)): 2, (3, (0, 1)): 1}


# ---------------------------------------------------------------------------
# dual-route agreement: block path vs cyclotomic averaging
# ---------------------------------------------------------------------------


def test_block_path_matches_averaging_oracle_on_random_corpus():
    rng = Random(20240211)
    for trial in range(120):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        pt = random_point(rng, action.dim + 1)
        via_blocks = block_dims_by_values(fiber_restrict(c, pt))
        via_averaging = nonzero_dims(isotypic_cohomology(c, pt))
        assert via_blocks == via_averaging, (
            f"trial {trial}: routes disagree on {group} at {pt.display()}:\n"
            f"  blocks:    {via_blocks}\n  averaging: {via_averaging}"
        )


def test_block_path_matches_oracle_on_frozen_example(two_term):
    for coords in [(1, 0, 0), (0, 0, 1), (1, 1, 1), (2, -3, 5)]:
        pt = RationalPoint(tuple(Fraction(c) for c in coords))
        assert block_dims_by_values(fiber_restrict(two_term, pt)) == nonzero_dims(
            isotypic_cohomology(two_term, pt)
        )


# ---------------------------------------------------------------------------
# invariance properties of block cohomology
# ---------------------------------------------------------------------------


def test_cohomology_invariant_under_cochain_isomorphism():
    rng = Random(5150)
    for _ in range(40):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        variant = mixed_variant(rng, c)
        pt = random_point(rng, action.dim + 1)
        assert block_dims_by_values(fiber_restrict(c, pt)) == block_dims_by_values(
            fiber_restrict(variant, pt)
        )


def test_euler_characteristic_matches_alternating_block_dims():
    rng = Random(777)
    for _ in range(40):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        pt = random_point(rng, action.dim + 1)
        fiber = fiber_restrict(c, pt)
        for phi, block in fiber.blocks.items():
            euler_dims = sum((-1) ** j * n for j, n in block.dims.items())
            euler_cohom = sum((-1) ** j * n for j, n in block.cohomology().items())
            assert euler_dims == euler_cohom


def test_blocks_partition_the_summands():
    rng = Random(31337)
    for _ in range(40):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        pt = random_point(rng, action.dim + 1)
        fiber = fiber_restrict(c, pt)
        for j in c.degrees():
            per_degree = sum(b.dims.get(j, 0) for b in fiber.blocks.values())
            assert per_degree == len(c.summands(j))


# ---------------------------------------------------------------------------
# the integer pipeline: one layout per stratum, one rank per block map
# ---------------------------------------------------------------------------


@pytest.fixture
def z2_trivial_p3():
    G = AbelianGroup((2,))
    return ProjectiveAction(G, 3, (G.trivial_character(),) * 4)


RATIONAL_COEFFS = (Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(1, 9))


def test_check_descent_computes_each_stratum_once(koszul, z2_trivial_p3, monkeypatch):
    calls = {"equalizer": 0, "points": 0}
    equalizer = action_module.equalizer_subgroup
    restrict = descent_module.fiber_restrict

    def counting_equalizer(chars):
        calls["equalizer"] += 1
        return equalizer(chars)

    def counting_restrict(*args, **kwargs):
        calls["points"] += 1
        return restrict(*args, **kwargs)

    monkeypatch.setattr(action_module, "equalizer_subgroup", counting_equalizer)
    monkeypatch.setattr(descent_module, "fiber_restrict", counting_restrict)
    user = RationalPoint((Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(5, 4)))
    report = check_descent(
        koszul(z2_trivial_p3, RATIONAL_COEFFS), points=[user], samples_per_stratum=3
    )
    assert report.passed
    # 4 single-coordinate strata, 11 sampled ones at 3 points each, 1 user point
    assert calls["points"] == 4 + 11 * 3 + 1
    assert calls["equalizer"] == len(report.coverage) == 15


def test_each_block_map_is_ranked_once(koszul, z2_trivial_p3, monkeypatch):
    counts = {"ranks": 0, "maps": 0}
    rank = linalg_module.rank
    cohomology = descent_module.block_cohomology

    def counting_rank(m):
        counts["ranks"] += 1
        return rank(m)

    def counting_cohomology(fiber):
        counts["maps"] += sum(len(block.mats) for block in fiber.blocks.values())
        return cohomology(fiber)

    # under both names, so that ranks reached through kernel_dim count too
    monkeypatch.setattr(linalg_module, "rank", counting_rank)
    monkeypatch.setattr(descent_module, "rank", counting_rank)
    monkeypatch.setattr(descent_module, "block_cohomology", counting_cohomology)
    assert check_descent(koszul(z2_trivial_p3, (1, 1, 1, 1))).passed
    assert counts["ranks"] == counts["maps"] > 0


def _block_shapes(fiber):
    return {
        phi.values: (block.dims, block.cohomology()) for phi, block in fiber.blocks.items()
    }


def test_block_dimensions_unchanged_by_rescaling_the_point(koszul, z2_trivial_p3):
    rng = Random(73)
    complexes = [koszul(z2_trivial_p3, RATIONAL_COEFFS)]
    for _ in range(30):
        complexes.append(random_valid_complex(rng, random_action(rng, random_group(rng))))
    for c in complexes:
        pt = random_point(rng, c.action.dim + 1)
        rescaled = RationalPoint(tuple(Fraction(7, 3) * x for x in pt.coords))
        assert _block_shapes(fiber_restrict(c, pt)) == _block_shapes(fiber_restrict(c, rescaled))


def test_block_path_matches_oracle_with_rational_coefficients(koszul, z2_trivial_p3):
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    sign = G.character((1,))
    # (1/2) x0 - (2/3) x1 + x2 vanishes at (4:3:0), where Z/2 acts by the sign
    entry = Poly(3, {(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(-2, 3), (0, 0, 1): 1})
    c = EquivariantComplex(
        action, {0: (TwistedSummand(0, sign),), 1: (TwistedSummand(1, sign),)}, {0: {(0, 0): entry}}
    )
    on_zero = block_dims_by_values(fiber_restrict(c, RationalPoint((4, 3, 0))))
    assert on_zero == {(0, (0, 1)): 1, (1, (0, 1)): 1}
    points = [(4, 3, 0), (Fraction(8, 3), 2, 0), (1, 1, 1), (Fraction(1, 2), Fraction(-3, 7), 5), (0, 0, 1)]
    for coords in points:
        pt = RationalPoint(coords)
        assert block_dims_by_values(fiber_restrict(c, pt)) == nonzero_dims(
            isotypic_cohomology(c, pt)
        ), coords

    k = koszul(z2_trivial_p3, RATIONAL_COEFFS)
    rng = Random(11)
    for _ in range(10):
        pt = random_point(rng, 4)
        assert block_dims_by_values(fiber_restrict(k, pt)) == nonzero_dims(
            isotypic_cohomology(k, pt)
        )


def test_fiber_blocks_are_integer_matrices(koszul, z2_trivial_p3):
    fiber = fiber_restrict(
        koszul(z2_trivial_p3, RATIONAL_COEFFS),
        RationalPoint((Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(2, 9))),
    )
    mats = [m for block in fiber.blocks.values() for m in block.mats.values()]
    assert mats and all(type(e) is int for m in mats for e in m.entries)


def test_layout_of_another_stratum_is_rejected(two_term):
    stratum = two_term.action.stratum_of_support((0,))
    layout = descent_module.fiber_layout(
        two_term, stratum, descent_module.integer_entries(two_term)
    )
    with pytest.raises(InputError):
        fiber_restrict(two_term, RationalPoint((1, 1, 0)), layout=layout)


# ---------------------------------------------------------------------------
# the cached group layer: strata once per action, stabilizers as coordinates
# ---------------------------------------------------------------------------


def test_omega_check_computes_each_stratum_once(z2_p2, monkeypatch):
    calls = []
    equalizer = action_module.equalizer_subgroup

    def counting_equalizer(chars):
        calls.append(chars)
        return equalizer(chars)

    monkeypatch.setattr(action_module, "equalizer_subgroup", counting_equalizer)
    # four descent checks (two generators, two images), all on one action
    report = omega_check(FunctorWord((Twist(O(z2_p2, 2)),)), z2_p2)
    assert report.certified
    assert len(calls) == len(z2_p2.strata()) == 7


def test_trivial_action_builds_one_subgroup(koszul, z2_trivial_p3, monkeypatch):
    built = []
    init = Subgroup.__init__

    def counting_init(self, parent, generators):
        built.append(parent)
        init(self, parent, generators)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    report = check_descent(koszul(z2_trivial_p3, (1, 1, 1, 1)))
    assert report.passed and len(report.coverage) == 15
    assert len(built) == 1
    assert all(s.stabilizer is Subgroup.whole(z2_trivial_p3.group) for s in z2_trivial_p3.strata())


def test_check_descent_never_builds_subgroup_elements(koszul, monkeypatch):
    def refuse(self):
        raise AssertionError("Subgroup.elements built on the decision path")

    monkeypatch.setattr(Subgroup, "elements", property(refuse))
    G = AbelianGroup((2, 6))
    action = ProjectiveAction(G, 3, tuple(G.character(c) for c in ((0, 0), (1, 2), (0, 3), (1, 0))))
    user = RationalPoint((Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(5, 4)))
    report = check_descent(koszul(action, (1, 2, 3, 4)), points=[user], samples_per_stratum=2)
    assert any(c.stabilizer_order > 1 for c in report.coverage)
    check_bundle_descent(O(action, 1, (1, 1)), action)


# ---------------------------------------------------------------------------
# the descent decision and its report
# ---------------------------------------------------------------------------


def test_descent_report_structure(z2_p2):
    report = check_descent(bundle_complex(z2_p2, O(z2_p2, 1)), seed=9)
    assert not report.passed
    assert report.witnesses
    supports = {w.support for w in report.witnesses}
    assert supports <= {(0,), (1,), (2,), (0, 1)}
    assert (2,) in supports or (0, 1) in supports or (0,) in supports

    modes = {c.support: c.mode for c in report.coverage}
    assert modes[(0,)] == modes[(1,)] == modes[(2,)] == "exact-single-point"
    assert modes[(0, 1)] == "sampled"
    assert modes[(0, 2)] == modes[(1, 2)] == modes[(0, 1, 2)] == "exact-trivial-stabilizer"
    assert report.sampled_supports == ((0, 1),)
    assert not report.exact
    assert any("sample points only" in c for c in report.caveats())

    payload = report.to_dict()
    assert payload["verdict"] == "fail"
    assert payload["coverage"]["seed"] == 9
    json.dumps(payload)  # report payloads must be JSON-serializable


@pytest.mark.parametrize("d", range(-4, 5))
def test_line_bundle_descends_iff_degree_even(z2_p2, d):
    via_complex = check_descent(bundle_complex(z2_p2, O(z2_p2, d)))
    via_strata = check_bundle_descent(O(z2_p2, d), z2_p2)
    assert via_complex.passed == via_strata.passed == (d % 2 == 0)
    assert via_strata.exact and not via_strata.sampled_supports


def test_bundle_check_degree_parameter_only_relabels(z2_p2):
    base = check_bundle_descent(O(z2_p2, 1), z2_p2)
    shifted = check_bundle_descent(O(z2_p2, 1), z2_p2, degree=-2)
    assert base.passed == shifted.passed
    assert [w.degree for w in shifted.witnesses] == [-2] * len(shifted.witnesses)
    assert [w.point for w in base.witnesses] == [w.point for w in shifted.witnesses]


def test_twist_can_rescue_or_break_descent(z2_p2):
    # O(1) with the compensating twist is trivial on every stabilizer...
    assert check_bundle_descent(O(z2_p2, 1, (1,)), z2_p2).passed is False
    # ... not so: at {0} the scalar character is trivial but the twist is not.
    assert check_bundle_descent(O(z2_p2, 2), z2_p2).passed is True
    assert check_bundle_descent(O(z2_p2, 2, (1,)), z2_p2).passed is False


def test_points_only_mode_checks_exactly_the_given_points(z2_p2):
    c = bundle_complex(z2_p2, O(z2_p2, 1))
    good = RationalPoint((Fraction(1), Fraction(1), Fraction(1)))
    bad = RationalPoint((Fraction(0), Fraction(0), Fraction(1)))
    report = check_descent(c, points=[good], points_only=True)
    assert report.passed  # the odd twist is invisible on the free stratum
    assert all(cov.mode == "skipped" for cov in report.coverage)
    assert report.user_points == 1
    assert any("points-only" in cv for cv in report.caveats())

    report2 = check_descent(c, points=[good, bad], points_only=True)
    assert not report2.passed
    assert report2.witnesses[0].point == "(0:0:1)"


def test_user_points_are_checked_in_addition_to_strata(z2_p2):
    c = bundle_complex(z2_p2, O(z2_p2, 2))
    pt = RationalPoint((Fraction(1), Fraction(7), Fraction(0)))
    report = check_descent(c, points=[pt])
    assert report.passed
    assert report.user_points == 1
    assert any(t.point == pt.display() for t in report.tables)


def test_invalid_complex_is_rejected_before_checking(z2_p2):
    broken = EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)},
        {0: {(0, 0): Poly.variable(3, 2)}},
    )
    from eqdescent.complexes import InvalidComplexError

    with pytest.raises(InvalidComplexError):
        check_descent(broken)


def test_report_determinism(z2_p2):
    c = bundle_complex(z2_p2, O(z2_p2, 1))
    a = check_descent(c, samples_per_stratum=4, seed=11).to_dict()
    b = check_descent(c, samples_per_stratum=4, seed=11).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c2 = check_descent(c, samples_per_stratum=4, seed=12).to_dict()
    assert json.dumps(a, sort_keys=True) != json.dumps(c2, sort_keys=True)


# ---------------------------------------------------------------------------
# exact-triple middle check
# ---------------------------------------------------------------------------


def _restrictions(group):
    whole = Subgroup.whole(group)
    triv = CharacterRestriction(whole, (0,) * whole.order)
    chars = sorted(
        {CharacterRestriction(whole, tuple(c(g) for g in whole.elements)) for c in group.characters},
        key=lambda r: r.values,
    )
    nontriv = next(r for r in chars if not r.is_trivial)
    return triv, nontriv


def test_sandwich_exact_triple_passes():
    G = AbelianGroup((2,))
    triv, _ = _restrictions(G)
    v1 = GradedSpace(((triv, 1),))
    v2 = GradedSpace(((triv, 2),))
    v3 = GradedSpace(((triv, 1),))
    a = QMatrix.from_rows([[1], [0]])
    b = QMatrix.from_rows([[0, 1]])
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.passed and result.applicable


def test_sandwich_outer_nontrivial_is_not_applicable():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v1 = GradedSpace(((sign, 1),))
    v2 = GradedSpace(((sign, 1),))
    v3 = GradedSpace(((triv, 0),))
    a = QMatrix.from_rows([[1]])
    b = QMatrix.zeros(0, 1)
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.passed and not result.applicable
    assert "outer terms" in result.reason


def test_sandwich_detects_block_mixing():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v1 = GradedSpace(((triv, 1),))
    v2 = GradedSpace(((triv, 1), (sign, 1)))
    v3 = GradedSpace(((triv, 0),))
    a = QMatrix.from_rows([[1], [1]])  # hits the sign block from a trivial source
    b = QMatrix.zeros(0, 2)
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.status == "hypothesis-failure"
    assert "mixes character blocks" in result.reason


def test_sandwich_detects_nonzero_composite():
    G = AbelianGroup((2,))
    triv, _ = _restrictions(G)
    v = GradedSpace(((triv, 1),))
    one = QMatrix.from_rows([[1]])
    result = sandwich_check(v, v, v, one, one)
    assert result.status == "hypothesis-failure"
    assert "b o a" in result.reason


def test_sandwich_detects_inexactness_with_nontrivial_middle():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v1 = GradedSpace(((triv, 0),))
    v2 = GradedSpace(((sign, 2),))
    v3 = GradedSpace(((triv, 0),))
    a = QMatrix.zeros(2, 0)
    b = QMatrix.zeros(0, 2)
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.status == "hypothesis-failure"
    assert "not exact" in result.reason
    assert not result.passed


def test_sandwich_shape_mismatch_is_input_error():
    G = AbelianGroup((2,))
    triv, _ = _restrictions(G)
    v = GradedSpace(((triv, 1),))
    with pytest.raises(InputError):
        sandwich_check(v, v, v, QMatrix.zeros(2, 1), QMatrix.zeros(1, 1))


def test_graded_space_accessors():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v = GradedSpace(((triv, 2), (sign, 1)))
    assert v.total_dim == 3
    assert v.block_of_index(0) == triv
    assert v.block_of_index(2) == sign
    assert v.has_nontrivial_part()
    with pytest.raises(IndexError):
        v.block_of_index(3)
    with pytest.raises(InputError):
        GradedSpace(((triv, -1),))


def test_empty_block_complex_has_no_cohomology():
    block = BlockComplex(dims={}, mats={})
    assert block.cohomology() == {}
    assert block.total_dim == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_sampling_misses_a_rank_drop_off_the_sample_points():
    """Z/2 acting trivially on P^2, 0 -> O(x)sign --(x0 - x1 + x2)--> O(1)(x)sign -> 0.

    The entry vanishes at (1:1:0) and along a curve in the open stratum;
    there the sign survives in H^0 and H^1, so the complex does not descend.
    Today every sample point misses those zeros.
    """
    problem = parse_problem(
        {
            "group": {"orders": [2]},
            "action": {"dim": 2, "coordinate_characters": [[0], [0], [0]]},
            "complexes": {
                "c": {
                    "terms": {
                        "0": [{"degree": 0, "twist": [1]}],
                        "1": [{"degree": 1, "twist": [1]}],
                    },
                    "differentials": {
                        "0": [
                            {
                                "source": 0,
                                "target": 0,
                                "entry": [
                                    {"coeff": 1, "exponents": [1, 0, 0]},
                                    {"coeff": -1, "exponents": [0, 1, 0]},
                                    {"coeff": 1, "exponents": [0, 0, 1]},
                                ],
                            }
                        ]
                    },
                }
            },
        }
    )
    assert check_descent(problem.complexes["c"]).passed is False
