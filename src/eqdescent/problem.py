"""The JSON problem format: parsing, validation, and serialization.

A problem file describes one group action plus named complexes, named functor
words, and optional extra points:

    {
      "group":  {"orders": [2]},
      "action": {"dim": 2, "coordinate_characters": [[0], [0], [1]]},
      "complexes": {
        "koszul": {
          "terms": {"0": [{"degree": 0, "twist": [1]}],
                    "1": [{"degree": 1, "twist": [0]}]},
          "differentials": {"0": [{"source": 0, "target": 0,
                                   "entry": [{"coeff": "1", "exponents": [0, 0, 1]}]}]}
        }
      },
      "words": {
        "t1": [{"kind": "twist", "degree": 1, "twist": [0]},
               {"kind": "shift", "k": 2},
               {"kind": "push", "perm": [1, 0, 2], "scalars": ["1", "1/2", "3"]}]
      },
      "points": [["1", "0", "-2/3"]]
    }

Rational numbers are JSON integers or strings such as "-7/3" or "0.25"; JSON
floats and exponent notation are rejected so every computation stays exact
and small.  Malformed JSON is reported with line and column, a key
repeated in one object with the path of that object, and schema problems,
a number with more digits than int() converts among them, with the JSON
path of the offending value, as is a point (scaled to first coordinate 1)
or push scalar that int() could not write out, and a degree (summand, twist,
shift or degree key) past ``MAX_ABS_DEGREE``, so that no word sums degrees
to one that int() could not write.  Each term of a differential
entry is checked once, by one test of its shape, and the entry's polynomial
is built from the checked terms with no second check in ``Poly``; JSON
paths are built only for a value that fails.  Each complex is validated as
it is parsed, so a file holding a complex that fails validation
(homogeneity, equivariance, d o d) is refused whole, with the message naming
the complex by its path, ``$.complexes.<name>``.  Pushforward
generators act on the problem's own action (coordinate permutation plus
scalings), which keeps the file format closed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm

from .action import ProjectiveAction, RationalPoint
from .complexes import EquivariantComplex, TwistedSummand
from .errors import InputError, as_rational, clip, digit_count
from .groups import AbelianGroup
from .polynomials import MAX_ABS_DEGREE, MAX_TOTAL_DEGREE, Poly, _degree_error
from .words import FunctorWord, Push, Shift, Twist


def _fmt_path(path) -> str:
    out = "$"
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{clip(part)}"
    return out


def _fail(path, message):
    raise InputError(f"{_fmt_path(path)}: {message}")


def _built(path, build, *args):
    """build(*args), with the InputError it raises named by ``path``."""
    try:
        return build(*args)
    except InputError as err:
        _fail(path, str(err))


def _refuse_unknown(obj, known, path):
    """Refuse the first key of ``obj``, in document order, that is not in
    ``known``, naming it by its path."""
    for key in obj:
        if key not in known:
            _fail(path + [key], f"unknown key (expected one of {sorted(known)})")


# The keys of the objects parsed once per term and once per entry, tested
# with the rest of their shape.
_TERM_KEYS = frozenset(("coeff", "exponents"))
_ENTRY_KEYS = frozenset(("source", "target", "entry"))


def _expect(data, kind, path, what):
    if kind is int and isinstance(data, bool):
        _fail(path, f"expected {what}, got a boolean")
    if not isinstance(data, kind):
        _fail(path, f"expected {what}, got {type(data).__name__}")
    return data


def _expect_int(data, path):
    return _expect(data, int, path, "an integer")


def _expect_degree(data, path, what="a degree"):
    j = _expect_int(data, path)
    if abs(j) > MAX_ABS_DEGREE:
        _fail(
            path, f"expected {what} from {-MAX_ABS_DEGREE} to {MAX_ABS_DEGREE}, got {clip(str(j))}"
        )
    return j


def _expect_list(data, path, what="a list"):
    return _expect(data, list, path, what)


def _expect_dict(data, path, what="an object"):
    return _expect(data, dict, path, what)


def parse_rational(value, path) -> Fraction:
    """A JSON integer or a string "p", "p/q" or "p.q" of ASCII digits with an
    optional sign, coerced by ``as_rational``.  Anything else, floats and
    exponents included ("1e4000000" would build a four-million-digit
    integer), is rejected with the path.  A well-formed string too long for
    int() keeps the message of ``as_rational``, which names its length."""
    try:
        return as_rational(value, "number")
    except InputError as err:
        if err.__cause__ is not None:  # the ValueError of an over-long run of digits
            _fail(path, str(err))
        _fail(
            path,
            f'not a rational number: expected an int, "p", "p/q" or "p.q", got {clip(repr(value))}',
        )


def _refuse_unwritable(path, what, numbers) -> None:
    """Refuse, with ``path``, Fractions that a report writes and int() cannot."""
    for q in numbers:
        try:
            str(q)
        except ValueError:
            digits = max(digit_count(q.numerator), digit_count(q.denominator))
            limit = sys.get_int_max_str_digits()
            _fail(path, f"{what} holds an integer of {digits} digits, over the limit of {limit} for writing an int")


def _degree_items(obj, path):
    """(degree, value, path) for each key of an object keyed by degree.

    "1", "01" and " 1" all name degree 1, so a key naming a degree that an
    earlier key gave is rejected instead of silently replacing it.  A key
    past ``MAX_ABS_DEGREE`` is refused too, and one longer than int()
    converts is named by its digit count, with the path of ``obj``.
    """
    seen = {}
    for key, value in obj.items():
        kpath = path + [key]
        try:
            j = int(key)
        except ValueError:
            digits = sum(map(str.isdecimal, key))
            # 0, or no such function (before Python 3.10.7), is no limit.
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or inf
            if digits > limit:
                _fail(path, f"a degree key of {digits} digits, over the limit of {limit} for an int")
            _fail(kpath, f"expected an integer key, got {clip(repr(key))}")
        _expect_degree(j, kpath, "a degree key")
        if j in seen:
            _fail(
                kpath, f"degree {j} is already given by the key {clip(repr(seen[j]))}"
            )
        seen[j] = key
        yield j, value, kpath


@dataclass(frozen=True)
class Problem:
    action: ProjectiveAction
    complexes: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)
    points: tuple = ()

    def only_complex(self, name: str | None) -> tuple:
        return _pick("complex", self.complexes, name)

    def only_word(self, name: str | None) -> tuple:
        return _pick("word", self.words, name)


def _pick(what, table, name):
    if name is not None:
        if name not in table:
            have = ", ".join(sorted(table)) or "(none)"
            raise InputError(f"no {what} named {name!r} in the problem file; have: {have}")
        return name, table[name]
    if len(table) == 1:
        return next(iter(table.items()))
    if not table:
        raise InputError(f"the problem file defines no {what}")
    raise InputError(
        f"the problem file defines more than one {what}; pick one of: "
        + ", ".join(sorted(table))
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_group(data, path) -> AbelianGroup:
    obj = _expect_dict(data, path)
    _refuse_unknown(obj, ("orders",), path)
    orders = _expect_list(obj.get("orders"), path + ["orders"], "a list of cyclic orders")
    orders = tuple(_expect_int(n, path + ["orders", i]) for i, n in enumerate(orders))
    return _built(path + ["orders"], AbelianGroup, orders)


def _parse_character(group, data, path):
    coords = _expect_list(data, path, "a character as a list of exponents")
    if len(coords) != group.rank:
        _fail(path, f"character needs {group.rank} exponents, got {len(coords)}")
    return group.character(
        tuple(_expect_int(c, path + [i]) for i, c in enumerate(coords))
    )


def _parse_action(group, data, path) -> ProjectiveAction:
    obj = _expect_dict(data, path)
    _refuse_unknown(obj, ("dim", "coordinate_characters"), path)
    dim = _expect_int(obj.get("dim"), path + ["dim"])
    chars = _expect_list(
        obj.get("coordinate_characters"),
        path + ["coordinate_characters"],
        "a list of characters",
    )
    parsed = tuple(
        _parse_character(group, c, path + ["coordinate_characters", i])
        for i, c in enumerate(chars)
    )
    return _built(path, ProjectiveAction, group, dim, parsed)


def _parse_summand(group, data, path, known=("degree", "twist")) -> TwistedSummand:
    obj = _expect_dict(data, path, "a summand object")
    _refuse_unknown(obj, known, path)
    degree = _expect_degree(obj.get("degree"), path + ["degree"])
    if "twist" not in obj:
        return TwistedSummand(degree, group.trivial_character())
    return TwistedSummand(degree, _parse_character(group, obj["twist"], path + ["twist"]))


def _refuse_term(nvars, term, path):
    """Raise the error of the term at ``path`` that ``_parse_poly`` found
    malformed: the first check it fails, in the order they are made."""
    obj = _expect_dict(term, path, "a monomial term")
    _refuse_unknown(obj, _TERM_KEYS, path)
    parse_rational(obj.get("coeff", 1), path + ["coeff"])
    exps = _expect_list(obj.get("exponents"), path + ["exponents"], "an exponent list")
    if len(exps) != nvars:
        _fail(path + ["exponents"], f"needs {nvars} exponents, got {len(exps)}")
    exps = tuple(_expect_int(e, path + ["exponents", k]) for k, e in enumerate(exps))
    if any(e < 0 for e in exps):
        _fail(path + ["exponents"], "exponents must be nonnegative")
    # Left: an int subclass other than bool, which Poly refuses too.
    _fail(path[:-1], f"exponent vector {exps} has an entry that is not an int")


def _parse_poly(nvars, terms, parent, i) -> Poly:
    """The polynomial of the entry at ``parent[i]``: one test per term, and
    a JSON path only for a term that fails (see ``_refuse_term``).  Terms are
    summed as int numerators over one running denominator, and the degree
    cap is checked on the sums, as ``Poly`` checks it."""
    if not isinstance(terms, list):
        _expect_list(terms, parent + [i, "entry"], "a list of monomial terms")
    nums, den = {}, 1
    for k, term in enumerate(terms):
        exps = term.get("exponents") if isinstance(term, dict) else None
        key = tuple(exps) if isinstance(exps, list) else ()
        coeff = term.get("coeff", 1) if len(key) == nvars and term.keys() <= _TERM_KEYS else None
        if type(coeff) is not int:
            try:
                coeff = as_rational(coeff, "coefficient")
            except InputError:
                coeff = None
        if coeff is None or {*map(type, key)} != {int} or min(key) < 0:
            _refuse_term(nvars, term, parent + [i, "entry", k])
        if type(coeff) is not int and den % coeff.denominator:  # a Fraction
            scale = lcm(den, coeff.denominator) // den
            den *= scale
            nums = {e: c * scale for e, c in nums.items()}
        nums[key] = nums.get(key, 0) + int(coeff * den)
    if nums and max(map(sum, nums)) > MAX_TOTAL_DEGREE:
        degree = next(d for d in map(sum, nums) if d > MAX_TOTAL_DEGREE)
        _fail(parent + [i, "entry"], str(_degree_error(degree)))
    return Poly._normal(nvars, nums, den)


def _parse_complex(action, data, path) -> EquivariantComplex:
    obj = _expect_dict(data, path, "a complex object")
    _refuse_unknown(obj, ("terms", "differentials"), path)
    group = action.group
    nvars = action.dim + 1

    terms_obj = _expect_dict(obj.get("terms"), path + ["terms"], "an object of terms")
    terms = {}
    for j, summands, tpath in _degree_items(terms_obj, path + ["terms"]):
        lst = _expect_list(summands, tpath, "a list of summands")
        terms[j] = tuple(
            _parse_summand(group, s, tpath + [i]) for i, s in enumerate(lst)
        )

    diffs = {}
    diffs_obj = obj.get("differentials", {})
    _expect_dict(diffs_obj, path + ["differentials"], "an object of differentials")
    for j, entries, dpath in _degree_items(diffs_obj, path + ["differentials"]):
        lst = _expect_list(entries, dpath, "a list of entries")
        table = {}
        for i, e in enumerate(lst):
            s = t = None
            if isinstance(e, dict) and e.keys() <= _ENTRY_KEYS:
                s, t = e.get("source"), e.get("target")
            if type(s) is not int or type(t) is not int:  # paths only on error
                _expect_dict(e, dpath + [i], "an entry object")
                _refuse_unknown(e, _ENTRY_KEYS, dpath + [i])
                s = _expect_int(s, dpath + [i, "source"])
                t = _expect_int(t, dpath + [i, "target"])
            if (s, t) in table:
                _fail(dpath + [i], f"duplicate entry for source {s}, target {t}")
            table[(s, t)] = _parse_poly(nvars, e.get("entry"), dpath, i)
        diffs[j] = table

    complex_ = _built(path, EquivariantComplex, action, terms, diffs)
    _built(path, complex_.require_valid)
    return complex_


def _parse_word(action, data, path) -> FunctorWord:
    lst = _expect_list(data, path, "a list of word generators")
    group = action.group
    gens = []
    for i, g in enumerate(lst):
        gpath = path + [i]
        obj = _expect_dict(g, gpath, "a generator object")
        kind = obj.get("kind")
        if kind == "shift":
            _refuse_unknown(obj, ("kind", "k"), gpath)
            gens.append(Shift(_expect_degree(obj.get("k"), gpath + ["k"])))
        elif kind == "twist":
            gens.append(Twist(_parse_summand(group, obj, gpath, ("kind", "degree", "twist"))))
        elif kind == "push":
            _refuse_unknown(obj, ("kind", "perm", "scalars"), gpath)
            perm = _expect_list(obj.get("perm"), gpath + ["perm"], "a permutation list")
            perm = tuple(_expect_int(p, gpath + ["perm", k]) for k, p in enumerate(perm))
            scalars_data = _expect_list(
                obj.get("scalars", [1] * len(perm)), gpath + ["scalars"], "a scalar list"
            )
            scalars = tuple(
                parse_rational(s, gpath + ["scalars", k])
                for k, s in enumerate(scalars_data)
            )
            for k, s in enumerate(scalars):
                _refuse_unwritable(gpath + ["scalars", k], "the scalar", (s,))
            gens.append(_built(gpath, Push, action, perm, scalars))
        else:
            _fail(gpath + ["kind"], f"unknown generator kind {clip(repr(kind))}")
    return FunctorWord(tuple(gens))


def _parse_point(nvars, data, path) -> RationalPoint:
    lst = _expect_list(data, path, "a point as a coordinate list")
    if len(lst) != nvars:
        _fail(path, f"point needs {nvars} coordinates, got {len(lst)}")
    coords = tuple(parse_rational(c, path + [i]) for i, c in enumerate(lst))
    point = _built(path, RationalPoint, coords)
    _refuse_unwritable(path, "scaled to first nonzero coordinate 1, the point", point.canonical().coords)
    return point


def parse_problem(data) -> Problem:
    obj = _expect_dict(data, [], "a problem object")
    _refuse_unknown(obj, ("group", "action", "complexes", "words", "points"), [])
    group = _parse_group(obj.get("group"), ["group"])
    action = _parse_action(group, obj.get("action"), ["action"])
    nvars = action.dim + 1

    complexes = {}
    for name, c in _expect_dict(obj.get("complexes", {}), ["complexes"]).items():
        complexes[name] = _parse_complex(action, c, ["complexes", name])

    words = {}
    for name, w in _expect_dict(obj.get("words", {}), ["words"]).items():
        words[name] = _parse_word(action, w, ["words", name])

    points = tuple(
        _parse_point(nvars, p, ["points", i])
        for i, p in enumerate(_expect_list(obj.get("points", []), ["points"]))
    )

    return Problem(action=action, complexes=complexes, words=words, points=points)


class _RepeatedKey(Exception):
    """Raised by ``_object`` on an object that repeats a key."""


class _Pairs(list):
    """A decoded JSON object as its (key, value) pairs, repeats kept."""


def _object(pairs) -> dict:
    """A JSON object, refused when it repeats a key: json.loads would keep
    the last value and drop the others without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise _RepeatedKey
    return obj


class _IntText(str):
    """A JSON integer literal, kept as its text."""


def _decode(text: str):
    """json.loads, refusing with its path a repeated key or an integer
    literal longer than int() converts (``sys.get_int_max_str_digits``).

    Only a refused text is decoded a second time, keeping every pair and
    each integer literal as its text, and walked in document order (an
    object before its members) to the first object that repeats a key or
    the first over-long literal; the first decoding met one, so the walk
    does.
    """
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError:
        raise
    except (_RepeatedKey, ValueError):  # ValueError: int() refused a literal
        pass
    # 0, or no such function (before Python 3.10.7), is no limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or inf
    stack = [([], json.loads(text, object_pairs_hook=_Pairs, parse_int=_IntText))]
    while True:
        path, value = stack.pop()
        if isinstance(value, _Pairs):
            seen = set()
            for key, _ in value:
                if key in seen:
                    _fail(path, f"object repeats the key {clip(repr(key))}")
                seen.add(key)
        elif isinstance(value, list):
            value = list(enumerate(value))
        else:
            digits = len(value.lstrip("-")) if isinstance(value, _IntText) else 0
            if digits > limit:
                _fail(path, f"an integer of {digits} digits, over the limit of {limit} for an int")
            continue
        stack.extend((path + [key], item) for key, item in reversed(value))


def load_problem_text(text: str) -> Problem:
    try:
        data = _decode(text)
    except json.JSONDecodeError as err:
        raise InputError(
            f"problem file is not valid JSON: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except RecursionError as err:
        raise InputError("problem file nests its arrays and objects too deeply to parse") from err
    return parse_problem(data)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read problem file {path!r}: {err}") from err
    except UnicodeDecodeError as err:
        raise InputError(
            f"problem file {path!r} is not UTF-8: byte {err.start} is {err.object[err.start:err.end]!r}"
        ) from err
    return load_problem_text(text)


# ---------------------------------------------------------------------------
# serialization (the inverse, used to emit replayable instances)
# ---------------------------------------------------------------------------


def _rational_out(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def summand_to_dict(s: TwistedSummand) -> dict:
    return {"degree": s.degree, "twist": list(s.twist.coords)}


def poly_to_list(p: Poly) -> list:
    return [
        {"coeff": _rational_out(c), "exponents": list(exps)}
        for exps, c in sorted(p.monomials())
    ]


def complex_to_dict(c: EquivariantComplex) -> dict:
    return {
        "terms": {
            str(j): [summand_to_dict(s) for s in c.summands(j)] for j in c.degrees()
        },
        "differentials": {
            str(j): [
                {"source": s, "target": t, "entry": poly_to_list(p)}
                for (s, t), p in sorted(entries.items())
            ]
            for j, entries in sorted(c.differentials.items())
        },
    }


def point_to_list(p: RationalPoint) -> list:
    return [_rational_out(c) for c in p.coords]


def problem_to_dict(
    action: ProjectiveAction,
    complexes: dict | None = None,
    words: dict | None = None,
    points=(),
) -> dict:
    out = {
        "group": {"orders": list(action.group.orders)},
        "action": {
            "dim": action.dim,
            "coordinate_characters": [list(c.coords) for c in action.coord_chars],
        },
    }
    if complexes:
        out["complexes"] = {name: complex_to_dict(c) for name, c in complexes.items()}
    if words:
        out["words"] = {name: w.describe() for name, w in words.items()}
    if points:
        out["points"] = [point_to_list(p) for p in points]
    return out
