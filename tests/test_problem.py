"""The JSON problem format: accepted inputs, anchored errors, round trips."""

import json
import sys
from fractions import Fraction
from random import Random

import pytest

from eqdescent.cli import main
from eqdescent.groups import InputError
from eqdescent.polynomials import MAX_ABS_DEGREE, Poly
from eqdescent.problem import (
    _parse_poly,
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
    assert parse_rational("+2", []) == 2
    assert parse_rational("0.25", []) == Fraction(1, 4)


@pytest.mark.parametrize("bad", [1.5, True, None, [1], "3/0", "7/2/1", "x"])
def test_rationals_reject_inexact_or_malformed(bad):
    with pytest.raises(InputError):
        parse_rational(bad, ["points", 0, 1])


@pytest.mark.parametrize("bad", ["1e4000000", "1_000", " 3/4 ", "\u0663"])
def test_rationals_outside_the_grammar_name_their_path(bad):
    data = with_extras(points=[[bad, "1", "1"]])
    with pytest.raises(InputError, match=r"^\$\.points\[0\]\[0\]: not a rational number"):
        parse_problem(data)


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


FULL = with_extras(
    complexes={
        "c": {
            "terms": {
                "0": [{"degree": 0, "twist": [1]}],
                "1": [{"degree": 1, "twist": [0]}],
            },
            "differentials": {
                "0": [{"source": 0, "target": 0, "entry": [{"coeff": 1, "exponents": [0, 0, 1]}]}]
            },
        }
    },
    words={
        "w": [
            {"kind": "shift", "k": 1},
            {"kind": "twist", "degree": 2, "twist": [0]},
            {"kind": "push", "perm": [1, 0, 2], "scalars": [1, 1, 2]},
        ]
    },
)


@pytest.mark.parametrize(
    "where, path, known",
    [
        ((), "$.extra", ["action", "complexes", "group", "points", "words"]),
        (("group",), "$.group.extra", ["orders"]),
        (("action",), "$.action.extra", ["coordinate_characters", "dim"]),
        (("complexes", "c"), "$.complexes.c.extra", ["differentials", "terms"]),
        (
            ("complexes", "c", "terms", "0", 0),
            "$.complexes.c.terms.0[0].extra",
            ["degree", "twist"],
        ),
        (
            ("complexes", "c", "differentials", "0", 0),
            "$.complexes.c.differentials.0[0].extra",
            ["entry", "source", "target"],
        ),
        (
            ("complexes", "c", "differentials", "0", 0, "entry", 0),
            "$.complexes.c.differentials.0[0].entry[0].extra",
            ["coeff", "exponents"],
        ),
        (("words", "w", 0), "$.words.w[0].extra", ["k", "kind"]),
        (("words", "w", 1), "$.words.w[1].extra", ["degree", "kind", "twist"]),
        (("words", "w", 2), "$.words.w[2].extra", ["kind", "perm", "scalars"]),
        ((), "$.sampling", ["action", "complexes", "group", "points", "words"]),
    ],
)
def test_every_object_refuses_an_unknown_key(where, path, known):
    parse_problem(FULL)
    data = json.loads(json.dumps(FULL))
    obj = data
    for step in where:
        obj = obj[step]
    obj[path.rsplit(".", 1)[1]] = 1
    with pytest.raises(InputError) as err:
        parse_problem(data)
    assert str(err.value) == f"{path}: unknown key (expected one of {known})"


@pytest.mark.parametrize(
    "where, path",
    [
        (("complexes", "c", "terms", "1", 0), "$.complexes.c.terms.1[0].twist"),
        (("words", "w", 1), "$.words.w[1].twist"),
    ],
)
def test_a_null_twist_is_refused_with_its_path(where, path):
    """An omitted twist is the trivial character; a null one is no character."""
    data = json.loads(json.dumps(FULL))
    obj = data
    for step in where:
        obj = obj[step]
    del obj["twist"]
    parse_problem(data)
    obj["twist"] = None
    with pytest.raises(InputError) as err:
        parse_problem(data)
    assert str(err.value) == (
        f"{path}: expected a character as a list of exponents, got NoneType"
    )


@pytest.mark.parametrize(
    "argv, edit, path",
    [
        (
            ["check-descent", "--complex", "O1"],
            lambda data: data["complexes"]["O1"]["terms"]["0"][0].update(twist=None),
            "$.complexes.O1.terms.0[0].twist",
        ),
        (
            ["omega", "--word", "twist1"],
            lambda data: data["words"]["twist1"][0].update(twist=None),
            "$.words.twist1[0].twist",
        ),
    ],
)
def test_a_null_twist_in_a_fixture_exits_2(argv, edit, path, tmp_path, capsys):
    with open("tests/fixtures/z2_p2.json", encoding="utf-8") as handle:
        data = json.load(handle)
    edit(data)
    problem = tmp_path / "null_twist.json"
    problem.write_text(json.dumps(data), encoding="utf-8")
    assert main([argv[0], str(problem), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: expected a character as a list of exponents, got NoneType\n"


def test_a_misspelled_nested_key_exits_2(capsys):
    assert main(["check-descent", "tests/fixtures/z2_p2_unknown_key.json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: $.complexes.L.terms.0[0].twsit: unknown key (expected one of ['degree', 'twist'])\n"
    )


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


def test_invalid_complex_is_refused_with_its_path():
    """A complex that fails validation is refused as it is parsed, named by
    its JSON path, whether or not anything would use it."""
    with open("tests/fixtures/z2_p2_invalid.json") as f:
        data = json.load(f)
    with pytest.raises(InputError) as exc:
        parse_problem(data)
    assert str(exc.value).startswith(
        "$.complexes.broken: complex fails validation: [equivariance] "
    ), str(exc.value)


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


def _one_entry_problem(entry=None, terms=None):
    """O(0) -> O(1) by x2 under Z/2 acting trivially on P^2, with the
    differential entry's keys or its term list replaced."""
    row = {"source": 0, "target": 0, "entry": [{"coeff": 1, "exponents": [0, 0, 1]}]}
    if terms is not None:
        row["entry"] = terms
    row = row if entry is None else entry(row)
    return {
        "group": {"orders": [2]},
        "action": {"dim": 2, "coordinate_characters": [[0], [0], [0]]},
        "complexes": {
            "c": {
                "terms": {"0": [{"degree": 0}], "1": [{"degree": 1}]},
                "differentials": {"0": [row]},
            }
        },
    }


def _term(**changes):
    return [{"coeff": 1, "exponents": [0, 0, 1], **changes}]


ENTRY = "$.complexes.c.differentials.0[0]"
RATIONAL = 'not a rational number: expected an int, "p", "p/q" or "p.q", got '


@pytest.mark.parametrize(
    "data, message",
    [
        (_one_entry_problem(terms=[5]), f"{ENTRY}.entry[0]: expected a monomial term, got int"),
        (_one_entry_problem(terms=_term(coeff=True)), f"{ENTRY}.entry[0].coeff: {RATIONAL}True"),
        (_one_entry_problem(terms=_term(coeff=0.5)), f"{ENTRY}.entry[0].coeff: {RATIONAL}0.5"),
        (_one_entry_problem(terms=_term(coeff="1e3")), f"{ENTRY}.entry[0].coeff: {RATIONAL}'1e3'"),
        (_one_entry_problem(terms=_term(coeff="1/0")), f"{ENTRY}.entry[0].coeff: {RATIONAL}'1/0'"),
        (
            _one_entry_problem(terms=[{"coeff": 1}]),
            f"{ENTRY}.entry[0].exponents: expected an exponent list, got NoneType",
        ),
        (
            _one_entry_problem(terms=_term(exponents="001")),
            f"{ENTRY}.entry[0].exponents: expected an exponent list, got str",
        ),
        (
            _one_entry_problem(terms=_term(exponents=[0, 1])),
            f"{ENTRY}.entry[0].exponents: needs 3 exponents, got 2",
        ),
        (
            _one_entry_problem(terms=_term(exponents=[0, 0, True])),
            f"{ENTRY}.entry[0].exponents[2]: expected an integer, got a boolean",
        ),
        (
            _one_entry_problem(terms=_term(exponents=[0, 0, "1"])),
            f"{ENTRY}.entry[0].exponents[2]: expected an integer, got str",
        ),
        (
            _one_entry_problem(terms=_term(exponents=[1, 1, -1])),
            f"{ENTRY}.entry[0].exponents: exponents must be nonnegative",
        ),
        (
            _one_entry_problem(terms=_term(exponents=[0, 0, 70])),
            f"{ENTRY}.entry: monomial degree 70 exceeds the cap 64",
        ),
        (
            # The degree cap is checked after every term is read.
            _one_entry_problem(terms=_term(exponents=[0, 0, 70]) + _term(exponents=[2, 0, -1])),
            f"{ENTRY}.entry[1].exponents: exponents must be nonnegative",
        ),
        (
            _one_entry_problem(terms={}),
            f"{ENTRY}.entry: expected a list of monomial terms, got dict",
        ),
        (_one_entry_problem(entry=lambda row: 5), f"{ENTRY}: expected an entry object, got int"),
        (
            _one_entry_problem(entry=lambda row: {**row, "source": True}),
            f"{ENTRY}.source: expected an integer, got a boolean",
        ),
        (
            _one_entry_problem(entry=lambda row: {**row, "target": "0"}),
            f"{ENTRY}.target: expected an integer, got str",
        ),
    ],
    ids=[
        "term-int",
        "coeff-true",
        "coeff-float",
        "coeff-exponent-notation",
        "coeff-zero-denominator",
        "exponents-missing",
        "exponents-string",
        "exponents-short",
        "exponent-bool",
        "exponent-string",
        "exponent-negative",
        "degree-70",
        "degree-70-then-negative",
        "entry-object",
        "entry-int",
        "source-bool",
        "target-string",
    ],
)
def test_entry_errors_keep_their_paths_and_messages(data, message):
    """Each message as recorded when ``Poly`` still checked every parsed
    term a second time: the same text, the same path, the same error first."""
    assert parse_problem(_one_entry_problem()).complexes["c"].differentials
    with pytest.raises(InputError) as exc:
        parse_problem(data)
    assert str(exc.value) == message


def test_parsed_entries_equal_the_checked_polynomial():
    """Terms summed as int numerators over one running denominator give
    the polynomial that ``Poly`` builds from the same terms, summed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nvars = 2
    coeffs = st.integers(-4, 4) | st.builds(
        "{}/{}".format, st.integers(-12, 12), st.integers(1, 12)
    )
    terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), coeffs), max_size=8)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(terms, st.booleans())
    def check(drawn, cancel):
        if cancel:  # repeat the first terms with the opposite sign
            drawn = drawn + [(e, f"-{c}".replace("--", "")) for e, c in drawn[: len(drawn) // 2]]
        summed = {}
        for exps, coeff in drawn:
            summed[exps] = summed.get(exps, 0) + Fraction(coeff)
        want = Poly(nvars, summed)
        got = _parse_poly(nvars, [{"coeff": c, "exponents": list(e)} for e, c in drawn], [], 0)
        assert (got.numerators, got.denominator) == (want.numerators, want.denominator)

    check()


def test_point_length_checked():
    with pytest.raises(InputError, match=r"\$\.points\[0\].*3 coordinates"):
        parse_problem(with_extras(points=[["1", "2"]]))


def test_zero_point_error_names_its_path():
    with pytest.raises(InputError, match=r"^\$\.points\[1\]: .*nonzero coordinate"):
        parse_problem(with_extras(points=[["1", "0", "0"], ["0", 0, "0/5"]]))


def _at_degree(where, d):
    """MINIMAL with one complex or word that puts ``d`` at ``where``: a
    summand degree, a twist degree, a shift, or a terms or differentials key."""
    if where == "summand":
        return with_extras(complexes={"c": {"terms": {"0": [{"degree": d}]}}})
    if where == "twist":
        return with_extras(words={"w": [{"kind": "twist", "degree": d}]})
    if where == "shift":
        return with_extras(words={"w": [{"kind": "shift", "k": d}]})
    if where == "terms-key":
        return with_extras(complexes={"c": {"terms": {str(d): [{"degree": 0}]}}})
    return with_extras(complexes={"c": {"terms": {}, "differentials": {str(d): []}}})


DEGREE_PLACES = {
    "summand": "$.complexes.c.terms.0[0].degree",
    "twist": "$.words.w[0].degree",
    "shift": "$.words.w[0].k",
    "terms-key": "$.complexes.c.terms.{d}",
    "differentials-key": "$.complexes.c.differentials.{d}",
}


@pytest.mark.parametrize("where", DEGREE_PLACES)
@pytest.mark.parametrize("excess", [MAX_ABS_DEGREE + 1, -MAX_ABS_DEGREE - 1, -(10**29)])
def test_degrees_are_bounded_by_max_abs_degree(where, excess):
    """A degree of absolute value MAX_ABS_DEGREE parses; a larger one is
    refused with its path and its value, so no word can sum degrees past
    what a report writes."""
    parse_problem(_at_degree(where, MAX_ABS_DEGREE if excess > 0 else -MAX_ABS_DEGREE))
    path = DEGREE_PLACES[where].format(d=excess)
    what = "a degree key" if where.endswith("key") else "a degree"
    message = f"{path}: expected {what} from -{MAX_ABS_DEGREE} to {MAX_ABS_DEGREE}, got {excess}"
    with pytest.raises(InputError) as err:
        parse_problem(_at_degree(where, excess))
    assert str(err.value) == message


INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGITS, reason="int() has no digit limit")
def test_a_degree_key_too_long_for_int_is_named_by_its_digit_count():
    """Not echoed whole, as a key int() cannot read used to be."""
    digits = INT_DIGITS + 1
    data = with_extras(complexes={"c": {"terms": {"9" * digits: [{"degree": 0}]}}})
    with pytest.raises(InputError) as err:
        parse_problem(data)
    assert str(err.value) == (
        f"$.complexes.c.terms: a degree key of {digits} digits, "
        f"over the limit of {INT_DIGITS} for an int"
    )


@pytest.mark.parametrize("limit", ["zero", "absent"])
def test_degree_keys_parse_without_an_int_digit_limit(monkeypatch, limit):
    """A limit of 0 turns int()'s digit limit off, and Python before 3.10.7
    has no such function: ordinary keys still parse, a malformed one keeps
    its message, and a long one is refused by its value."""
    if limit == "zero":
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    else:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    data = with_extras(complexes={"c": {
        "terms": {"-1": [{"degree": 0}], "0": [{"degree": 0}], "1": [{"degree": 0}]},
        "differentials": {"0": []},
    }})
    assert sorted(parse_problem(data).complexes["c"].terms) == [-1, 0, 1]
    with pytest.raises(InputError, match=r"^\$\.complexes\.c\.terms\.x: expected an integer key, got 'x'$"):
        parse_problem(with_extras(complexes={"c": {"terms": {"x": [{"degree": 0}]}}}))
    with pytest.raises(InputError, match=r"^\$\.complexes\.c\.terms\.9+: expected a degree key from"):
        parse_problem(with_extras(complexes={"c": {"terms": {"9" * 40: [{"degree": 0}]}}}))


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


@pytest.mark.parametrize(
    "text, path, key",
    [
        (
            '{"group": {"orders": [2]}, '
            '"action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]}, '
            '"complexes": {"c": {"terms": {"0": [{"degree": 0, "twist": [1]}], '
            '"0": [{"degree": 0, "twist": [0]}]}}}}',
            r"\$\.complexes\.c\.terms",
            "0",
        ),
        (
            '{"group": {"orders": [2]}, '
            '"action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]}, '
            '"complexes": {"c": {"terms": {"0": [{"degree": 1}]}}, '
            '"c": {"terms": {"0": [{"degree": 0}]}}}}',
            r"\$\.complexes",
            "c",
        ),
        (
            '{"group": {"orders": [2]}, '
            '"action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]}, '
            '"group": {"orders": [3]}}',
            r"\$",
            "group",
        ),
        (
            '{"group": {"orders": [2]}, '
            '"action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]}, '
            '"points": [["1", "0", "0"], {"x": 1, "y": {"z": 1, "z": 2}, "x": 3}]}',
            r"\$\.points\[1\]",
            "x",
        ),
    ],
    ids=["terms", "complexes", "top-level", "first-in-document-order"],
)
def test_repeated_keys_are_rejected(text, path, key):
    """json.loads keeps the last of two equal keys and drops the other
    without a word, which can flip a verdict; the file is refused instead,
    naming the object that repeats the key by its JSON path."""
    with pytest.raises(InputError, match=rf"^{path}: object repeats the key '{key}'$"):
        load_problem_text(text)


def test_only_a_refused_file_is_decoded_twice(monkeypatch):
    """The walk that finds a repeated key's path decodes the text again;
    a file without repeats is decoded once."""
    text = json.dumps(with_extras())
    decodes = []
    real_loads = json.loads

    def counting_loads(text, **kwargs):
        decodes.append(kwargs["object_pairs_hook"])
        return real_loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    load_problem_text(text)
    assert len(decodes) == 1
    with pytest.raises(InputError, match=r"^\$: object repeats the key 'points'$"):
        load_problem_text('{"points": [], "points": []}')
    assert len(decodes) == 3


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
            action, complexes={"c": c}, words={"w": w}, points=[pt]
        )
        # must survive an actual JSON encode/decode, not just dict identity
        problem = parse_problem(json.loads(json.dumps(data)))
        assert problem.action == action
        assert problem.complexes["c"] == c
        assert problem.words["w"] == w
        assert problem.points == (pt,)


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
        )
        path = data.draw(st.sampled_from(list(_nodes(valid))))
        copy_to_key = copy_to_key and bool(path) and isinstance(path[-1], str)
        bad = _mutated(valid, path, data.draw(keys if copy_to_key else anything), copy_to_key)
        try:
            parse_problem(bad)
        except InputError:
            pass

    check()
