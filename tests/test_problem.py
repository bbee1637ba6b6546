"""The JSON problem format: accepted inputs, anchored errors, round trips."""

import json
from fractions import Fraction
from random import Random

import pytest

from eqdescent.action import MAX_SAMPLES_PER_STRATUM
from eqdescent.groups import InputError
from eqdescent.problem import (
    load_problem,
    load_problem_text,
    parse_problem,
    parse_rational,
    point_to_list,
    problem_to_dict,
)
from eqdescent.randgen import (
    random_action,
    random_group,
    random_point,
    random_valid_complex,
    random_word,
)

MINIMAL = {
    "group": {"orders": [2]},
    "action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]},
}


def with_extras(**extras):
    data = json.loads(json.dumps(MINIMAL))
    data.update(extras)
    return data


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rationals_accept_ints_and_strings():
    assert parse_rational(3, []) == 3
    assert parse_rational("-7/3", []) == Fraction(-7, 3)
    assert parse_rational("5", []) == 5


@pytest.mark.parametrize("bad", [1.5, True, None, [1], "3/0", "7/2/1", "x"])
def test_rationals_reject_inexact_or_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad, ["points", 0, 1])


def test_float_rejection_points_at_the_value():
    data = with_extras(points=[["1", 0.5, "1"]])
    with pytest.raises(InputError, match=r"\$\.points\[0\]\[1\]"):
        parse_problem(data)


# ---------------------------------------------------------------------------
# parsing whole problems
# ---------------------------------------------------------------------------


def test_fixture_parses(tmp_path):
    problem = load_problem("tests/fixtures/z2_p2.json")
    assert problem.action.dim == 2
    assert set(problem.complexes) == {"O", "O1", "O2", "euler", "koszul"}
    assert set(problem.words) == {"twist1", "twist2", "shift3", "mixed", "swap01"}
    assert len(problem.points) == 1
    assert problem.samples_per_stratum == 5 and problem.seed == 0
    for c in problem.complexes.values():
        assert c.validate().ok


def test_missing_file_is_input_error():
    with pytest.raises(InputError, match="cannot read problem file"):
        load_problem("does/not/exist.json")


def test_json_syntax_error_reports_line_and_column():
    with pytest.raises(InputError, match=r"line 2 column 12"):
        load_problem_text('{\n  "group": }\n')


def test_unknown_top_level_key_is_anchored():
    with pytest.raises(InputError, match=r"\$\.complices"):
        parse_problem(with_extras(complices={}))


def test_schema_errors_carry_json_paths():
    bad_char = with_extras()
    bad_char["action"]["coordinate_characters"][2] = [1, 2]
    with pytest.raises(InputError, match=r"\$\.action\.coordinate_characters\[2\]"):
        parse_problem(bad_char)

    bad_term = with_extras(
        complexes={"c": {"terms": {"zero": []}, "differentials": {}}}
    )
    with pytest.raises(InputError, match=r"\$\.complexes\.c\.terms\.zero"):
        parse_problem(bad_term)

    bad_exps = with_extras(
        complexes={
            "c": {
                "terms": {
                    "0": [{"degree": 0, "twist": [0]}],
                    "1": [{"degree": 1, "twist": [0]}],
                },
                "differentials": {
                    "0": [{"source": 0, "target": 0, "entry": [{"coeff": 1, "exponents": [1, 0]}]}]
                },
            }
        }
    )
    with pytest.raises(
        InputError, match=r"\$\.complexes\.c\.differentials\.0\[0\]\.entry\[0\]\.exponents"
    ):
        parse_problem(bad_exps)

    bad_kind = with_extras(words={"w": [{"kind": "rotate"}]})
    with pytest.raises(InputError, match=r"\$\.words\.w\[0\]\.kind"):
        parse_problem(bad_kind)


def test_duplicate_differential_entry_rejected():
    data = with_extras(
        complexes={
            "c": {
                "terms": {
                    "0": [{"degree": 0, "twist": [0]}],
                    "1": [{"degree": 1, "twist": [0]}],
                },
                "differentials": {
                    "0": [
                        {"source": 0, "target": 0, "entry": [{"coeff": 1, "exponents": [1, 0, 0]}]},
                        {"source": 0, "target": 0, "entry": [{"coeff": 2, "exponents": [0, 1, 0]}]},
                    ]
                },
            }
        }
    )
    with pytest.raises(InputError, match="duplicate entry"):
        parse_problem(data)


def test_negative_exponents_rejected():
    data = with_extras(
        complexes={
            "c": {
                "terms": {
                    "0": [{"degree": -1, "twist": [0]}],
                    "1": [{"degree": 0, "twist": [0]}],
                },
                "differentials": {
                    "0": [{"source": 0, "target": 0, "entry": [{"coeff": 1, "exponents": [1, 0, -1]}]}]
                },
            }
        }
    )
    with pytest.raises(InputError, match="nonnegative"):
        parse_problem(data)


def test_point_length_checked():
    with pytest.raises(InputError, match=r"\$\.points\[0\].*3 coordinates"):
        parse_problem(with_extras(points=[["1", "2"]]))


def test_zero_point_error_names_its_path():
    with pytest.raises(InputError, match=r"^\$\.points\[1\]: .*nonzero coordinate"):
        parse_problem(with_extras(points=[["1", "0", "0"], ["0", 0, "0/5"]]))


def test_sampling_bounds_checked():
    with pytest.raises(InputError, match="at least 1"):
        parse_problem(with_extras(sampling={"samples_per_stratum": 0}))


def test_sample_count_is_bounded_above():
    top = with_extras(sampling={"samples_per_stratum": MAX_SAMPLES_PER_STRATUM})
    assert parse_problem(top).samples_per_stratum == MAX_SAMPLES_PER_STRATUM
    over = with_extras(sampling={"samples_per_stratum": MAX_SAMPLES_PER_STRATUM + 1})
    with pytest.raises(InputError, match=r"^\$\.sampling\.samples_per_stratum: must be at most"):
        parse_problem(over)


@pytest.mark.parametrize(
    "body, path",
    [
        (
            {"terms": {"1": [{"degree": 0}], "01": [{"degree": 5, "twist": [1]}]}},
            r"\$\.complexes\.c\.terms\.01",
        ),
        (
            {
                "terms": {"0": [{"degree": 0}], "1": [{"degree": 1}]},
                "differentials": {
                    "0": [{"source": 0, "target": 0, "entry": [{"exponents": [1, 0, 0]}]}],
                    "+0": [{"source": 0, "target": 0, "entry": [{"exponents": [0, 1, 0]}]}],
                },
            },
            r"\$\.complexes\.c\.differentials\.\+0",
        ),
    ],
    ids=["terms", "differentials"],
)
def test_duplicate_degree_keys_are_rejected(body, path):
    """Keys that name the same degree would otherwise silently replace one
    another; the later one is reported, naming the earlier."""
    data = with_extras(complexes={"c": body})
    message = "degree [01] is already given by the key '[01]'"
    with pytest.raises(InputError, match=rf"^{path}: {message}"):
        parse_problem(data)


def test_twist_defaults_to_trivial_character():
    data = with_extras(complexes={"c": {"terms": {"0": [{"degree": 4}]}}})
    problem = parse_problem(data)
    summand = problem.complexes["c"].summands(0)[0]
    assert summand.twist.is_trivial


def test_selection_helpers():
    problem = load_problem("tests/fixtures/z2_p2.json")
    assert problem.only_complex("euler")[0] == "euler"
    with pytest.raises(InputError, match="no complex named 'nope'"):
        problem.only_complex("nope")
    with pytest.raises(InputError, match="more than one complex"):
        problem.only_complex(None)
    single = parse_problem(
        with_extras(complexes={"only": {"terms": {"0": [{"degree": 0}]}}})
    )
    assert single.only_complex(None)[0] == "only"
    with pytest.raises(InputError, match="defines no word"):
        single.only_word(None)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


def test_random_instances_round_trip_through_json():
    rng = Random(2718)
    for _ in range(25):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        w = random_word(rng, action)
        pt = random_point(rng, action.dim + 1)
        data = problem_to_dict(
            action, complexes={"c": c}, words={"w": w}, points=[pt], seed=3
        )
        # must survive an actual JSON encode/decode, not just dict identity
        problem = parse_problem(json.loads(json.dumps(data)))
        assert problem.action == action
        assert problem.complexes["c"] == c
        assert problem.words["w"] == w
        assert problem.points == (pt,)
        assert problem.seed == 3


def test_point_serialization_uses_exact_strings():
    rng = Random(1)
    pt = random_point(rng, 3)
    out = point_to_list(pt)
    assert all(isinstance(c, (int, str)) for c in out)


# ---------------------------------------------------------------------------
# arbitrary input
# ---------------------------------------------------------------------------


def _nodes(tree, path=()):
    """Paths to every node of a JSON tree, the root first."""
    yield path
    if isinstance(tree, dict):
        children = tree.items()
    elif isinstance(tree, list):
        children = enumerate(tree)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutated(tree, path, value, copy_to_key):
    """A copy of the tree with the node at ``path`` replaced by ``value``, or,
    with ``copy_to_key``, also put under the key ``value`` of its object."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    if copy_to_key and not rest:
        copy[value] = copy[head]
    else:
        copy[head] = _mutated(tree[head], rest, value, copy_to_key)
    return copy


def test_arbitrary_json_raises_only_input_errors():
    """Whatever JSON comes in, parse_problem returns or raises InputError.

    The inputs are valid problems serialized from random instances with one
    node, at any depth, replaced by arbitrary JSON or copied to another key
    of its object (such as "01" next to "1").
    """
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    anything = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=10,
    )
    keys = st.sampled_from(["0", "01", "+1", "-1", " 1", "1.0", "x", ""]) | st.text(max_size=3)

    @hypothesis.settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=list(hypothesis.HealthCheck),
    )
    @hypothesis.given(st.integers(0, 2**32), st.booleans(), st.data())
    def check(seed, copy_to_key, data):
        rng = Random(seed)
        action = random_action(rng, random_group(rng))
        valid = problem_to_dict(
            action,
            complexes={"c": random_valid_complex(rng, action)},
            words={"w": random_word(rng, action)},
            points=[random_point(rng, action.dim + 1)],
            samples_per_stratum=rng.randint(1, 5),
            seed=rng.randint(0, 9),
        )
        path = data.draw(st.sampled_from(list(_nodes(valid))))
        copy_to_key = copy_to_key and bool(path) and isinstance(path[-1], str)
        bad = _mutated(valid, path, data.draw(keys if copy_to_key else anything), copy_to_key)
        try:
            parse_problem(bad)
        except InputError:
            pass

    check()
