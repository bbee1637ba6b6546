"""Fiber restriction, block cohomology and the descent decision.

The load-bearing test here is the dual-route agreement property: the block
decomposition path (integer fibers split by stabilizer characters, ranks
by sparse integer elimination) must produce exactly the same isotypic
cohomology dimensions as the independent averaging route, on a
large corpus of random instances.  The two routes share no linear algebra: one works over Z with
character bookkeeping, the other over Q(zeta_m) with projectors.
"""

import itertools
import json
from fractions import Fraction
from math import lcm
from random import Random

import pytest
from conftest import O, koszul_complex, zeros

import eqdescent.action as action_module
import eqdescent.descent as descent_module
import eqdescent.linalg as linalg_module
from eqdescent.action import ProjectiveAction, RationalPoint
from eqdescent.cli import report_digest
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
from eqdescent.linalg import ZMatrix
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
    assert min(phi.values for phi in fiber.blocks) == (0, 1)
    assert block_dims_by_values(fiber) == {}


def test_fiber_trivial_stabilizer_is_one_block(two_term):
    pt = RationalPoint((Fraction(1), Fraction(1), Fraction(1)))
    fiber = fiber_restrict(two_term, pt)
    assert fiber.stabilizer.order == 1
    assert len(fiber.blocks) == 1
    assert block_dims_by_values(fiber) == {}


def test_zero_differential_complex_counts_summands(z2_p2):
    c = EquivariantComplex(
        z2_p2, {0: (O(z2_p2, 0), O(z2_p2, 2)), 3: (O(z2_p2, 1),)}, {}
    )
    pt = RationalPoint((Fraction(0), Fraction(0), Fraction(1)))
    fiber = fiber_restrict(c, pt)
    assert block_dims_by_values(fiber) == {(0, (0, 0)): 2, (3, (0, 1)): 1}


# ---------------------------------------------------------------------------
# dual-route agreement: block path vs averaging
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
    # 4 single-coordinate strata, 11 exact ones at their representative (a
    # trivial action leaves no nontrivial block), 1 user point
    assert calls["points"] == 4 + 11 + 1
    multi = [c for c in report.coverage if len(c.support) > 1]
    assert len(multi) == 11 and all(c.mode == "exact-stratum" for c in multi)
    assert calls["equalizer"] == len(report.coverage) == 15


def test_user_points_share_one_layout_per_support(koszul, monkeypatch):
    """200 user points on one stratum add one fiber layout, not 200, and are
    still examined in the order given."""
    G = AbelianGroup((3,))
    action = ProjectiveAction(G, 3, tuple(G.character((c,)) for c in (0, 1, 2, 0)))
    complex_ = koszul(action, (1, 1, 1, 1))
    calls = {"layouts": 0}
    layout = descent_module.fiber_layout

    def counting_layout(*args, **kwargs):
        calls["layouts"] += 1
        return layout(*args, **kwargs)

    monkeypatch.setattr(descent_module, "fiber_layout", counting_layout)
    check_descent(complex_)
    without, calls["layouts"] = calls["layouts"], 0
    points = [RationalPoint((1, 0, 0, k)) for k in range(1, 201)]  # all on {0, 3}
    report = check_descent(complex_, points=points)
    assert calls["layouts"] <= without + 1
    assert [t.point for t in report.tables[-200:]] == [p.display() for p in points]


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
    assert mats and all(type(e) is int for m in mats for row in m.to_lists() for e in row)


def test_layout_of_another_stratum_is_rejected(two_term):
    stratum = two_term.action.stratum_of_support((0,))
    layout = descent_module.fiber_layout(
        two_term, stratum, descent_module.integer_entries(two_term)
    )
    with pytest.raises(InputError):
        fiber_restrict(two_term, RationalPoint((1, 1, 0)), layout=layout)


def test_an_entry_between_blocks_must_vanish_on_the_stratum(z2_p2):
    """x2 from O to O(1), both untwisted, is not equivariant (x2 transforms
    by the sign).  On {2} it joins the trivial block to the sign block and
    does not vanish, which the layout refuses as a bug; on {0} it vanishes
    identically and is dropped."""
    from eqdescent.complexes import InternalConsistencyError

    broken = EquivariantComplex(
        z2_p2, {0: (O(z2_p2, 0),), 1: (O(z2_p2, 1),)}, {0: {(0, 0): Poly.variable(3, 2)}}
    )
    entries = descent_module.integer_entries(broken)
    with pytest.raises(InternalConsistencyError, match="does not vanish"):
        descent_module.fiber_layout(broken, z2_p2.stratum_of_support((2,)), entries)
    layout = descent_module.fiber_layout(broken, z2_p2.stratum_of_support((0,)), entries)
    assert layout.polys == () and all(
        not cells for _, maps in layout.blocks.values() for _, _, _, cells in maps
    )

    # Under trivial Z/2 every stratum has the whole group as stabilizer and
    # the same lead character, so all share one block placement; x2 from O
    # to O(1) (x) sign still vanishes on {0} and still crosses on {0, 2}.
    G = AbelianGroup((2,))
    trivial = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    broken = EquivariantComplex(
        trivial,
        {0: (O(trivial, 0),), 1: (O(trivial, 1, (1,)),)},
        {0: {(0, 0): Poly.variable(3, 2)}},
    )
    entries = descent_module.integer_entries(broken)
    layout = descent_module.fiber_layout(broken, trivial.stratum_of_support((0,)), entries)
    assert layout.polys == () and len(layout.blocks) == 2
    with pytest.raises(InternalConsistencyError, match="does not vanish"):
        descent_module.fiber_layout(broken, trivial.stratum_of_support((0, 2)), entries)
    assert len(entries[3]) == 1  # one stabilizer class, one placement


def _layout_parts(layout):
    """Everything a layout holds, blocks in their numbering order."""
    return layout.polys, list(layout.blocks.items()), layout.open_maps


def test_a_shared_placement_gives_the_layout_a_fresh_one_would():
    """On random actions and valid complexes, laying out every stratum with
    a nontrivial stabilizer through one ``integer_entries``, in the order of
    ``strata()`` and in a shuffled order, gives the layout that entries of
    its own would: the same polys, the same blocks in the same order with
    the same dims and maps, cells in the same order, and the same open
    maps."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    reused = {"strata": 0}

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 10**9))
    def check(seed):
        rng = Random(seed)
        action = random_action(rng, random_group(rng))
        c = random_valid_complex(rng, action)
        strata = [s for s in action.strata() if not s.stabilizer.is_trivial]
        shuffled = list(strata)
        rng.shuffle(shuffled)
        for order in (strata, shuffled):
            shared = descent_module.integer_entries(c)
            for stratum in order:
                got = descent_module.fiber_layout(c, stratum, shared)
                fresh = descent_module.fiber_layout(
                    c, stratum, descent_module.integer_entries(c)
                )
                assert got.stratum is stratum
                assert _layout_parts(got) == _layout_parts(fresh), (seed, stratum.support)
            reused["strata"] += len(order) - len(shared[3])

    check()
    assert reused["strata"] >= 100


def test_fiber_characters_are_computed_once_per_stabilizer_class(koszul, monkeypatch):
    """Under trivial Z/2 all 63 strata of P^5 share the whole group as
    stabilizer and the lead character, so a check of the Koszul complex
    computes the fiber character of each of its 7 distinct summands (one
    per degree, among 64) once, not once per stratum."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 5, (G.trivial_character(),) * 6)
    complex_ = koszul(action, (1,) * 6)
    calls = []
    fiber_character = TwistedSummand.fiber_character

    def counting(self, stratum):
        calls.append(self)
        return fiber_character(self, stratum)

    monkeypatch.setattr(TwistedSummand, "fiber_character", counting)
    report = check_descent(complex_)
    assert report.passed and len(report.coverage) == 63
    distinct = {s for j in complex_.degrees() for s in complex_.summands(j)}
    assert len(calls) == len(set(calls)) == len(distinct) == 7


def test_each_distinct_restricted_entry_is_evaluated_once(koszul, monkeypatch):
    """On a stratum every Koszul entry restricts to +-c_i x_i with i in the
    support, so a point evaluates one polynomial per supported coordinate."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 4, (G.trivial_character(),) * 5)
    complex_ = koszul(action, (1, -2, 3, 1, 1))
    layout = descent_module.fiber_layout(
        complex_, action.stratum_of_support((0, 2, 3)), descent_module.integer_entries(complex_)
    )
    assert sorted(repr(p) for p in layout.polys) == ["3*x2", "x0", "x3"]
    calls = []
    evaluate = Poly.evaluate

    def counting(self, coords):
        calls.append(self)
        return evaluate(self, coords)

    monkeypatch.setattr(Poly, "evaluate", counting)
    fiber_restrict(complex_, RationalPoint((1, 0, 2, -3, 0)), layout=layout)
    assert len(calls) == 3


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

    def counting_init(self, parent, coords=None):
        built.append(parent)
        init(self, parent, coords)

    monkeypatch.setattr(Subgroup, "__init__", counting_init)
    report = check_descent(koszul(z2_trivial_p3, (1, 1, 1, 1)))
    assert report.passed and len(report.coverage) == 15
    assert len(built) == 1
    assert all(s.stabilizer is z2_trivial_p3.group.whole_subgroup for s in z2_trivial_p3.strata())


# ---------------------------------------------------------------------------
# the descent decision and its report
# ---------------------------------------------------------------------------


def test_descent_report_structure(z2_p2):
    # 0 -> O(0)@sign --(q1, q2)--> 2 O(2)@sign --(q2, -q1)--> O(4)@sign -> 0
    # with q1 = x0(x0 + x1) and q2 = x0(x0 - x1): on {0,1} every summand sits
    # in the sign block, no entry is a monomial, so the certificate leaves
    # that stratum open and it is sampled.  The block is exact wherever q1
    # or q2 is nonzero, which is all of {0,1}; q1 and q2 vanish on {1} and
    # at (0:0:1), where the sign survives.  (The column (x0 - x1, x0 + x1)
    # alone into two copies of O(1)@sign leaves H^1 in the sign block at
    # every point of {0,1}, so its first sample point decides the stratum.)
    q1 = Poly(3, {(2, 0, 0): 1, (1, 1, 0): 1})
    q2 = Poly(3, {(2, 0, 0): 1, (1, 1, 0): -1})
    sign = EquivariantComplex(
        z2_p2,
        {
            0: (O(z2_p2, 0, (1,)),),
            1: (O(z2_p2, 2, (1,)), O(z2_p2, 2, (1,))),
            2: (O(z2_p2, 4, (1,)),),
        },
        {0: {(0, 0): q1, (0, 1): q2}, 1: {(0, 0): q2, (1, 0): -q1}},
    )
    report = check_descent(sign, seed=9)
    assert not report.passed
    assert report.witnesses
    supports = {w.support for w in report.witnesses}
    assert supports == {(1,), (2,)}

    modes = {c.support: c.mode for c in report.coverage}
    assert modes[(0,)] == modes[(1,)] == modes[(2,)] == "exact-single-point"
    assert modes[(0, 1)] == "sampled"
    points = {c.support: c.points_checked for c in report.coverage}
    assert points[(0, 1)] == 5
    assert modes[(0, 2)] == modes[(1, 2)] == modes[(0, 1, 2)] == "exact-trivial-stabilizer"
    assert report.sampled_supports == ((0, 1),)
    assert not report.exact
    assert report.verdict == "fail"  # a witness decides, whatever is sampled

    payload = report.to_dict()
    assert payload["verdict"] == "fail"
    assert payload["coverage"]["seed"] == 9
    json.dumps(payload)  # report payloads must be JSON-serializable


def nontrivial_block_dims(c, point):
    """(degree, character values) -> dim H over the nontrivial blocks, checked
    to equal the blocks' own dimensions: with no entries inside them their
    cohomology is their fiber."""
    fiber = fiber_restrict(c, point)
    dims = {
        (j, phi.values): d
        for (j, phi), d in block_cohomology(fiber).items()
        if not phi.is_trivial
    }
    assert dims == {
        (j, phi.values): n
        for phi, block in fiber.blocks.items()
        if not phi.is_trivial
        for j, n in block.dims.items()
    }
    return dims


def test_exact_stratum_rule_is_sound():
    """Where no nontrivial block has an entry, the nontrivial-block
    cohomology is the same at every point of the stratum, and the averaging
    route agrees with it at the representative."""
    rng = Random(7)
    strata = points = 0
    for trial in range(100):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        for cov in check_descent(c).coverage:
            if cov.mode != "exact-stratum":
                continue
            stratum = action.stratum_of_support(cov.support)
            rep = stratum.representative()
            expected = nontrivial_block_dims(c, rep)
            for p in action.sample_points(stratum, 5, seed=trial):
                assert nontrivial_block_dims(c, p) == expected, (trial, cov.support, p.display())
                points += 1
            via_averaging = nonzero_dims(isotypic_cohomology(c, rep))
            assert {k: d for k, d in via_averaging.items() if any(k[1])} == expected
            strata += 1
    assert strata >= 100 and points == 5 * strata


DECIDED_MODES = {
    "exact-single-point",
    "exact-trivial-stabilizer",
    "exact-stratum",
    "exact-witness",
    "exact-certified",
    "sampled",
}


def assert_every_stratum_decided(report: dict) -> None:
    """Every stratum of a report's coverage is decided in one of the modes,
    the report is exact exactly when none is sampled, and every stratum with
    a nontrivial stabilizer was examined at one point at least."""
    strata = report["coverage"]["strata"]
    assert {c["mode"] for c in strata} <= DECIDED_MODES
    assert report["exact"] == all(c["mode"] != "sampled" for c in strata)
    assert all(c["points_checked"] >= 1 for c in strata if c["stabilizer_order"] > 1)


def test_every_stratum_is_decided_through_the_cli(cli):
    fixture = "tests/fixtures/z2_p2.json"
    with open(fixture, encoding="utf-8") as handle:
        problem = json.load(handle)
    reports = []
    for name in problem["complexes"]:
        _, _, payload = cli("check-descent", fixture, "--complex", name)
        reports.append(payload["report"])
    for name in problem["words"]:
        _, _, payload = cli("omega", fixture, "--word", name)
        reports += [payload["report"]["condition_i"], payload["report"]["condition_ii"]]
    for report in reports:
        assert_every_stratum_decided(report)
    assert {"pass", "fail"} == {r["verdict"] for r in reports}


def test_every_stratum_is_decided_on_random_complexes():
    modes = set()
    for seed in range(40):
        rng = Random(seed)
        action = random_action(rng, random_group(rng))
        report = check_descent(random_valid_complex(rng, action)).to_dict()
        assert_every_stratum_decided(report)
        modes |= {c["mode"] for c in report["coverage"]["strata"]}
    assert len(modes) >= 4, modes


def _sign_bundle_on_p1():
    """O twisted by the sign of Z/2 acting on P^1 by (0, 1): no stratum
    samples, so the sample count and seed reach only the coverage."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 1, (G.character((0,)), G.character((1,))))
    return bundle_complex(action, TwistedSummand(0, G.character((1,))))


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (0, 0, "samples_per_stratum must be an int from 1 to 100, got 0"),
        (101, 0, "samples_per_stratum must be an int from 1 to 100, got 101"),
        (True, 0, "samples_per_stratum must be an int from 1 to 100, got True"),
        ("5", 0, "samples_per_stratum must be an int from 1 to 100, got '5'"),
        (5, True, "seed must be an int, got True"),
        (5, "5", "seed must be an int, got '5'"),
    ],
)
def test_check_descent_refuses_sampling_arguments_out_of_contract(samples, seed, message):
    with pytest.raises(InputError) as err:
        check_descent(_sign_bundle_on_p1(), samples_per_stratum=samples, seed=seed)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "samples, seed, digest",
    [
        (1, 0, "sha256:5fd11e27f788c834ea259121935c278c08218d24d9a072e23ba959d3f18b5563"),
        (100, -4, "sha256:fbc30f0c605874abe1809f4bd6dc745364b639162866bede3245ef0a4d4d6280"),
        (3, 7, "sha256:a3ada9712e0ab0a8bf54c9340c4fd5b3bdba10b2cc4d5fe3d18fa8c46c356952"),
    ],
)
def test_check_descent_reports_valid_sampling_arguments_as_given(samples, seed, digest):
    report = check_descent(_sign_bundle_on_p1(), samples_per_stratum=samples, seed=seed)
    coverage = report.to_dict()["coverage"]
    assert (coverage["samples_per_stratum"], coverage["seed"]) == (samples, seed)
    assert report_digest(report.to_dict()) == digest


@pytest.mark.parametrize("d", range(-4, 5))
def test_line_bundle_descends_iff_degree_even(z2_p2, d):
    via_complex = check_descent(bundle_complex(z2_p2, O(z2_p2, d)))
    via_strata = check_bundle_descent(O(z2_p2, d), z2_p2)
    assert via_complex.passed == via_strata.passed == (d % 2 == 0)
    assert via_complex.exact
    assert via_strata.exact and not via_strata.sampled_supports


def test_bundle_degree_only_relabels(z2_p2):
    base = check_bundle_descent(O(z2_p2, 1), z2_p2)
    shifted = check_descent(EquivariantComplex(z2_p2, {-2: (O(z2_p2, 1),)}, {}))
    assert base.passed == shifted.passed
    assert [w.degree for w in shifted.witnesses] == [-2] * len(shifted.witnesses)
    assert [w.point for w in base.witnesses] == [w.point for w in shifted.witnesses]


def test_twist_can_rescue_or_break_descent(z2_p2):
    # O(1) with the compensating twist is trivial on every stabilizer...
    assert check_bundle_descent(O(z2_p2, 1, (1,)), z2_p2).passed is False
    # ... not so: at {0} the scalar character is trivial but the twist is not.
    assert check_bundle_descent(O(z2_p2, 2), z2_p2).passed is True
    assert check_bundle_descent(O(z2_p2, 2, (1,)), z2_p2).passed is False


def test_user_points_are_checked_in_addition_to_strata(z2_p2):
    c = bundle_complex(z2_p2, O(z2_p2, 2))
    pt = RationalPoint((Fraction(1), Fraction(7), Fraction(0)))
    report = check_descent(c, points=[pt])
    assert report.passed
    assert report.user_points == 1
    assert any(t.point == pt.display() for t in report.tables)


def test_points_only_mode_checks_exactly_the_given_points(z2_p2):
    # There is no points-only mode: given points are examined exactly as
    # given, each adding its own table and witnesses on top of every stratum.
    # O(1) fails at (0:0:1) with or without a user point there.
    c = bundle_complex(z2_p2, O(z2_p2, 1))
    with pytest.raises(TypeError):
        check_descent(c, points=[], points_only=True)
    free = RationalPoint((Fraction(1), Fraction(1), Fraction(1)))
    fixed = RationalPoint((Fraction(0), Fraction(0), Fraction(1)))
    base = check_descent(c, points=[free])
    both = check_descent(c, points=[free, fixed])
    assert not base.passed and base.user_points == 1
    assert both.user_points == 2
    assert both.tables[:-1] == base.tables
    assert both.tables[-1].point == "(0:0:1)"
    at_fixed = [w for w in both.witnesses if w.point == "(0:0:1)"]
    assert len(at_fixed) == len([w for w in base.witnesses if w.point == "(0:0:1)"]) + 1


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
    whole = group.whole_subgroup
    triv = CharacterRestriction(whole, (0,) * whole.order)
    chars = sorted(
        {CharacterRestriction(whole, tuple(c(g) for g in whole.coords)) for c in group.characters},
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
    a = ZMatrix.from_rows([[1], [0]])
    b = ZMatrix.from_rows([[0, 1]])
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.passed and result.applicable


def test_sandwich_outer_nontrivial_is_not_applicable():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v1 = GradedSpace(((sign, 1),))
    v2 = GradedSpace(((sign, 1),))
    v3 = GradedSpace(((triv, 0),))
    a = ZMatrix.from_rows([[1]])
    b = zeros(0, 1)
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.passed and not result.applicable
    assert "outer terms" in result.reason


def test_sandwich_detects_block_mixing():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v1 = GradedSpace(((triv, 1),))
    v2 = GradedSpace(((triv, 1), (sign, 1)))
    v3 = GradedSpace(((triv, 0),))
    a = ZMatrix.from_rows([[1], [1]])  # hits the sign block from a trivial source
    b = zeros(0, 2)
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.status == "hypothesis-failure"
    assert "mixes character blocks" in result.reason


def test_sandwich_detects_nonzero_composite():
    G = AbelianGroup((2,))
    triv, _ = _restrictions(G)
    v = GradedSpace(((triv, 1),))
    one = ZMatrix.from_rows([[1]])
    result = sandwich_check(v, v, v, one, one)
    assert result.status == "hypothesis-failure"
    assert "b o a" in result.reason


def test_sandwich_detects_inexactness_with_nontrivial_middle():
    G = AbelianGroup((2,))
    triv, sign = _restrictions(G)
    v1 = GradedSpace(((triv, 0),))
    v2 = GradedSpace(((sign, 2),))
    v3 = GradedSpace(((triv, 0),))
    a = zeros(2, 0)
    b = zeros(0, 2)
    result = sandwich_check(v1, v2, v3, a, b)
    assert result.status == "hypothesis-failure"
    assert "not exact" in result.reason
    assert not result.passed


def test_sandwich_shape_mismatch_is_input_error():
    G = AbelianGroup((2,))
    triv, _ = _restrictions(G)
    v = GradedSpace(((triv, 1),))
    with pytest.raises(InputError):
        sandwich_check(v, v, v, zeros(2, 1), zeros(1, 1))


def test_sandwich_refuses_maps_that_are_not_integer_matrices():
    G = AbelianGroup((2,))
    triv, _ = _restrictions(G)
    v = GradedSpace(((triv, 1),))
    one = ZMatrix.from_rows([[1]])
    with pytest.raises(InputError, match="^maps must be ZMatrix, got list and ZMatrix$"):
        sandwich_check(v, v, v, [[1]], one)
    with pytest.raises(InputError, match="^maps must be ZMatrix, got ZMatrix and list$"):
        sandwich_check(v, v, v, one, [[Fraction(1, 2)]])


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


def test_sampling_misses_a_rank_drop_off_the_sample_points():
    """Z/2 acting trivially on P^2, 0 -> O(x)sign --(x0 - x1 + x2)--> O(1)(x)sign -> 0.

    The entry vanishes at (1:1:0) and along a curve in the open stratum;
    there the sign survives in H^0 and H^1, so the complex does not descend.
    Every sample point misses those zeros, so each 1x1 sign block whose
    entry is a linear form is examined at a rational zero of it.
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
    report = check_descent(problem.complexes["c"])
    assert report.passed is False
    assert ("(1:1:0)", (0, 1)) in {(w.point, w.support) for w in report.witnesses}
    modes = {c.support: (c.mode, c.points_checked) for c in report.coverage if len(c.support) > 1}
    assert modes == {s: ("exact-witness", 2) for s in ((0, 1), (0, 2), (1, 2), (0, 1, 2))}
    assert report.exact


# ---------------------------------------------------------------------------
# one point per stratum: witnesses and monomial-pivot certificates
# ---------------------------------------------------------------------------


def nontrivial_cohomology(c, point):
    """(degree, character values) -> dim H > 0 over the nontrivial blocks."""
    return {
        (j, phi.values): d
        for (j, phi), d in block_cohomology(fiber_restrict(c, point)).items()
        if d and not phi.is_trivial
    }


def test_certified_strata_have_no_witness_at_any_sample_point():
    """Soundness of ``exact-certified`` on random diagonal actions and random
    valid complexes: every point that the sampling would have examined
    (``--samples`` 5 under the report's seed, and under two more seeds) is
    exact in every nontrivial block, and every ``exact-witness`` stratum
    has a witness on it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    certified = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 10**9))
    def check(seed):
        rng = Random(seed)
        action = random_action(rng, random_group(rng))
        c = random_valid_complex(rng, action)
        report = check_descent(c, seed=seed)
        failing = {w.support for w in report.witnesses}
        for cov in report.coverage:
            if cov.mode == "exact-witness":
                assert cov.support in failing
            if cov.mode != "exact-certified":
                continue
            assert cov.points_checked == 1 and cov.support not in failing
            stratum = action.stratum_of_support(cov.support)
            for sample_seed in (seed, seed + 1, seed + 2):
                for p in action.sample_points(stratum, 5, sample_seed):
                    assert nontrivial_cohomology(c, p) == {}, (seed, cov.support, p.display())
            certified.append(cov.support)

    check()
    assert len(certified) >= 20


def _enumerated_failures(action, degree, twist) -> set:
    """Supports on whose stabilizer O(degree) (x) twist acts nontrivially,
    found by enumerating every group element and evaluating characters from
    their coordinates, as exponents of zeta_m with m the lcm of the orders."""
    orders = action.group.orders
    m = lcm(*orders)

    def value(coords, g):
        return sum(c * x * (m // n) for c, x, n in zip(coords, g, orders)) % m

    chars = [chi.coords for chi in action.coord_chars]
    elements = list(itertools.product(*(range(n) for n in orders)))
    out = set()
    for k in range(1, action.dim + 2):
        for support in itertools.combinations(range(action.dim + 1), k):
            for g in elements:
                lead = value(chars[support[0]], g)
                if all(value(chars[i], g) == lead for i in support):
                    if (value(twist.coords, g) - degree * lead) % m:
                        out.add(support)
                        break
    return out


def twisted_koszul(action, coeffs, degree, twist, drop):
    """The Koszul complex of (c_i x_i) tensored with O(degree) (x) twist,
    with its leftmost term (degree -(n+1), one summand) dropped if ``drop``."""
    k = koszul_complex(action, coeffs)
    terms = {
        j: tuple(TwistedSummand(s.degree + degree, s.twist + twist) for s in k.summands(j))
        for j in k.degrees()
    }
    diffs = dict(k.differentials)
    if drop:
        low = min(terms)
        del terms[low], diffs[low]
    return EquivariantComplex(action, terms, diffs)


def test_koszul_families_are_decided_at_one_point_per_stratum():
    """Known answers by construction.  A Koszul complex of a full sequence
    c_i x_i, twisted by any O(d) (x) psi, is exact off the origin: PASS,
    with every multi-coordinate stratum that has a nontrivial block entry
    certified at one point.  With its leftmost summand dropped, the fiber
    cohomology is one line carrying that summand's character, so it FAILs on
    exactly the supports where enumeration finds that character nontrivial
    on the stabilizer; no stratum is sampled."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"exact-certified": 0, "exact-witness": 0}

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        orders = data.draw(st.sampled_from([(2,), (3,), (4,), (6,), (2, 2), (2, 3)]))
        group = AbelianGroup(orders)
        dim = data.draw(st.integers(1, 4))
        coords = st.tuples(*(st.integers(0, n - 1) for n in orders))
        chars = [group.character(data.draw(coords)) for _ in range(dim + 1)]
        action = ProjectiveAction(group, dim, tuple(chars))
        coeffs = data.draw(
            st.lists(
                st.sampled_from([1, -1, 2, -3, Fraction(2, 3), Fraction(-5, 7)]),
                min_size=dim + 1,
                max_size=dim + 1,
            )
        )
        degree, twist = data.draw(st.integers(-3, 3)), group.character(data.draw(coords))
        drop = data.draw(st.booleans())
        report = check_descent(twisted_koszul(action, coeffs, degree, twist, drop))

        expected = set()
        if drop:
            dropped = TwistedSummand(-(dim + 1) + degree, twist - sum(chars, group.trivial_character()))
            expected = _enumerated_failures(action, dropped.degree, dropped.twist)
        assert {w.support for w in report.witnesses} == expected
        assert report.passed == (not expected) and not report.sampled_supports
        for cov in report.coverage:
            if len(cov.support) > 1 and cov.stabilizer_order > 1:
                want = {"exact-witness"} if cov.support in expected else {"exact-certified", "exact-stratum"}
                assert cov.mode in want, (cov.support, cov.mode)
                if cov.mode in seen:
                    assert cov.points_checked == 1
                    seen[cov.mode] += 1

    check()
    assert seen["exact-certified"] >= 50 and seen["exact-witness"] >= 10


def test_a_block_that_exhausts_the_work_budget_stays_sampled(monkeypatch):
    """A dense 8x8 block of degree-8 forms on P^2 under trivial Z/2, with
    x0^8 on the diagonal: on the open stratum the first elimination step
    multiplies 45-term forms and runs past the budget, so that stratum
    stays sampled and nothing is raised.  (On the smaller strata the step
    fits the budget and leaves no monomial pivot.)"""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 2, (G.trivial_character(),) * 3)
    sign = G.character((1,))
    rng = Random(3)
    forms = [e for e in itertools.product(range(9), repeat=3) if sum(e) == 8]
    size = 8
    entries = {}
    for s in range(size):
        for t in range(size):
            terms = {e: rng.choice([-3, -2, -1, 1, 2, 3]) for e in forms}
            if s == t:
                terms = {(8, 0, 0): 1}
            entries[(s, t)] = Poly(3, terms)
    c = EquivariantComplex(
        action,
        {0: (TwistedSummand(0, sign),) * size, 1: (TwistedSummand(8, sign),) * size},
        {0: entries},
    )
    outcomes = []
    pivots = descent_module.monomial_pivots

    def recording(*args):
        outcomes.append(pivots(*args))
        return outcomes[-1]

    monkeypatch.setattr(descent_module, "monomial_pivots", recording)
    report = check_descent(c, samples_per_stratum=2)
    assert outcomes[:-1] == [None] * 3 and outcomes[-1] < 0
    multi = {cov.support: cov.mode for cov in report.coverage if len(cov.support) > 1}
    assert set(multi.values()) == {"sampled"}
    assert report.sampled_supports == tuple(multi)


def test_a_degree_64_certificate_does_not_trip_the_degree_cap():
    """Entries x0^60 and x1^60 meet in products of degree 120 during the
    elimination, past the Poly degree cap of 64; the certificate works on
    integer numerator dicts, so the stratum is certified."""
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 1, (G.trivial_character(),) * 2)
    sign = G.character((1,))
    a, b = Poly.monomial(2, (60, 0)), Poly.monomial(2, (0, 60))
    c = EquivariantComplex(
        action,
        {0: (TwistedSummand(0, sign),) * 2, 1: (TwistedSummand(60, sign),) * 2},
        {0: {(0, 0): a, (1, 0): b, (0, 1): a, (1, 1): b * 2}},
    )
    report = check_descent(c)
    modes = {cov.support: cov.mode for cov in report.coverage}
    assert modes[(0, 1)] == "exact-certified"
    # at (1:0) and (0:1) one column vanishes, so the sign survives there
    assert {w.support for w in report.witnesses} == {(0,), (1,)}


# ---------------------------------------------------------------------------
# known answers for whole strata: Koszul complexes of semi-invariant forms
# ---------------------------------------------------------------------------


def test_the_closed_form_imports_nothing_from_the_decision_path():
    """The closed form decides from characters evaluated on all of G and a
    nullspace in Fractions: it imports neither the descent module nor
    linalg, the oracle or the action's strata, and no stabilizer cut, under
    any module path."""
    import ast
    from pathlib import Path

    import koszul_closed_form

    tree = ast.parse(Path(koszul_closed_form.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(tuple(alias.name.split(".")) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported.add(tuple(module))
            imported.update(tuple(module + [alias.name]) for alias in node.names)
    assert imported, "no imports parsed"
    forbidden = {
        "descent", "linalg", "oracle", "action", "equalizer_subgroup", "Subgroup",
        "smith_normal_form",
    }
    for parts in imported:
        assert not forbidden.intersection(parts), parts


def test_check_descent_never_contradicts_the_koszul_closed_form():
    """Random Koszul complexes K(f) of up to 3 semi-invariant linear forms,
    over groups of order at most 12 on P^1 to P^3: where the closed form
    says K(f) does not descend, ``check_descent`` never says pass, and where
    it says K(f) descends, never fail; undecided is allowed either way.
    Both answers are met at least 20 times."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from koszul_closed_form import descends, koszul_problem

    groups = st.sampled_from((
        (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
        (2, 2), (2, 3), (2, 4), (2, 6), (3, 3), (3, 4), (2, 2, 2), (2, 2, 3),
    ))
    coefficients = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
    answers = []

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        orders = data.draw(groups)
        character = st.tuples(*[st.integers(0, n - 1) for n in orders])
        pool = data.draw(st.lists(character, min_size=1, max_size=3))
        chars = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4))
        forms, form_chars = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            c = data.draw(st.sampled_from(chars))
            same = [i for i, chi in enumerate(chars) if chi == c]
            support = data.draw(st.lists(st.sampled_from(same), min_size=1, unique=True))
            forms.append({i: data.draw(coefficients) for i in support})
            form_chars.append(c)
        psi = data.draw(character)
        want = descends(orders, chars, forms, form_chars, psi)
        problem = parse_problem(koszul_problem(orders, chars, forms, form_chars, psi))
        got = check_descent(problem.complexes["k"]).verdict
        assert got == "undecided" or (got == "pass") == want, (orders, chars, forms, psi, got)
        answers.append(want)

    check()
    assert answers.count(True) >= 20 and answers.count(False) >= 20, (
        answers.count(True), answers.count(False)
    )


def test_a_dense_constant_block_is_certified_quickly():
    """0 -> O^26 (x) sign -> O^26 (x) sign -> 0 under Z/2 acting trivially on
    P^1, by a dense matrix of small nonzero integers: every entry is a
    monomial pivot, so the open stratum is certified within the budget.  Each
    row update doubles the length of coefficients unless the row is divided
    by its content: undivided, the run took 80 s with Python 3.11 on a
    2-core VM, and divided, 0.05 s.  The timer stops a run past 10 s."""
    import signal

    n = 26
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 1, (G.trivial_character(),) * 2)
    sign = TwistedSummand(0, G.character((1,)))
    rng = Random(0)
    d = {(r, c): Poly.constant(2, rng.choice((-3, -2, -1, 1, 2, 3))) for r in range(n) for c in range(n)}
    complex_ = EquivariantComplex(action, {0: (sign,) * n, 1: (sign,) * n}, {0: d})

    def stop(*_):
        raise TimeoutError("the dense block took over 10 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        report = check_descent(complex_)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert report.verdict == "pass"
    modes = {tuple(s["support"]): s["mode"] for s in report.to_dict()["coverage"]["strata"]}
    assert modes[(0, 1)] == "exact-certified"
