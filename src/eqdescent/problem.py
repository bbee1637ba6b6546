"""The JSON problem format: parsing, validation, and serialization.

A problem file describes one group action plus named complexes, named functor
words, and optional extra points and sampling defaults:

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
      "points": [["1", "0", "-2/3"]],
      "sampling": {"samples_per_stratum": 5, "seed": 0}
    }

Rational numbers are JSON integers or strings such as "-7/3"; JSON floats are
rejected so every computation stays exact.  Malformed JSON is reported with
line and column; schema problems are reported with the JSON path of the
offending value.  Pushforward generators act on the problem's own action
(coordinate permutation plus scalings), which keeps the file format closed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .action import MAX_SAMPLES_PER_STRATUM, ProjectiveAction, RationalPoint
from .complexes import EquivariantComplex, TwistedSummand
from .groups import AbelianGroup, InputError
from .polynomials import Poly
from .words import EquivariantAutomorphism, FunctorWord, Push, Shift, Twist


def _fmt_path(path) -> str:
    out = "$"
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else f".{part}"
    return out


def _fail(path, message):
    raise InputError(f"{_fmt_path(path)}: {message}")


def _expect(data, kind, path, what):
    if kind is int and isinstance(data, bool):
        _fail(path, f"expected {what}, got a boolean")
    if not isinstance(data, kind):
        _fail(path, f"expected {what}, got {type(data).__name__}")
    return data


def _expect_int(data, path):
    return _expect(data, int, path, "an integer")


def _expect_list(data, path, what="a list"):
    return _expect(data, list, path, what)


def _expect_dict(data, path, what="an object"):
    return _expect(data, dict, path, what)


def parse_rational(value, path) -> Fraction:
    """A JSON integer or a string Fraction() accepts ("p/q", "p")."""
    if isinstance(value, bool):
        _fail(path, "expected a rational number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        _fail(path, 'floats are not exact; write rationals as strings like "3/7"')
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            _fail(path, f"not a rational number: {err}")
    _fail(path, f"expected a rational number, got {type(value).__name__}")


def _degree_items(obj, path):
    """(degree, value, path) for each key of an object keyed by degree.

    "1", "01" and " 1" all name degree 1, so a key naming a degree that an
    earlier key gave is rejected instead of silently replacing it.
    """
    seen = {}
    for key, value in obj.items():
        kpath = path + [key]
        try:
            j = int(key)
        except ValueError:
            _fail(kpath, f"expected an integer key, got {key!r}")
        if j in seen:
            _fail(kpath, f"degree {j} is already given by the key {seen[j]!r}")
        seen[j] = key
        yield j, value, kpath


@dataclass(frozen=True)
class Problem:
    action: ProjectiveAction
    complexes: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)
    points: tuple = ()
    samples_per_stratum: int | None = None
    seed: int | None = None

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
    orders = _expect_list(obj.get("orders"), path + ["orders"], "a list of cyclic orders")
    return AbelianGroup(
        tuple(_expect_int(n, path + ["orders", i]) for i, n in enumerate(orders))
    )


def _parse_character(group, data, path):
    coords = _expect_list(data, path, "a character as a list of exponents")
    if len(coords) != group.rank:
        _fail(path, f"character needs {group.rank} exponents, got {len(coords)}")
    return group.character(
        tuple(_expect_int(c, path + [i]) for i, c in enumerate(coords))
    )


def _parse_action(group, data, path) -> ProjectiveAction:
    obj = _expect_dict(data, path)
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
    return ProjectiveAction(group, dim, parsed)


def _parse_summand(group, data, path) -> TwistedSummand:
    obj = _expect_dict(data, path, "a summand object")
    degree = _expect_int(obj.get("degree"), path + ["degree"])
    twist = obj.get("twist")
    if twist is None:
        return TwistedSummand(degree, group.trivial_character())
    return TwistedSummand(degree, _parse_character(group, twist, path + ["twist"]))


def _parse_poly(nvars, data, path) -> Poly:
    entries = _expect_list(data, path, "a list of monomial terms")
    poly = Poly.zero(nvars)
    for i, term in enumerate(entries):
        tpath = path + [i]
        obj = _expect_dict(term, tpath, "a monomial term")
        coeff = parse_rational(obj.get("coeff", 1), tpath + ["coeff"])
        exps = _expect_list(obj.get("exponents"), tpath + ["exponents"], "an exponent list")
        if len(exps) != nvars:
            _fail(tpath + ["exponents"], f"needs {nvars} exponents, got {len(exps)}")
        exps = tuple(_expect_int(e, tpath + ["exponents", k]) for k, e in enumerate(exps))
        if any(e < 0 for e in exps):
            _fail(tpath + ["exponents"], "exponents must be nonnegative")
        poly = poly + Poly.monomial(nvars, exps, coeff)
    return poly


def _parse_complex(action, data, path) -> EquivariantComplex:
    obj = _expect_dict(data, path, "a complex object")
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
            epath = dpath + [i]
            eobj = _expect_dict(e, epath, "an entry object")
            s = _expect_int(eobj.get("source"), epath + ["source"])
            t = _expect_int(eobj.get("target"), epath + ["target"])
            if (s, t) in table:
                _fail(epath, f"duplicate entry for source {s}, target {t}")
            table[(s, t)] = _parse_poly(nvars, eobj.get("entry"), epath + ["entry"])
        diffs[j] = table

    return EquivariantComplex(action, terms, diffs)


def _parse_word(action, data, path) -> FunctorWord:
    lst = _expect_list(data, path, "a list of word generators")
    group = action.group
    gens = []
    for i, g in enumerate(lst):
        gpath = path + [i]
        obj = _expect_dict(g, gpath, "a generator object")
        kind = obj.get("kind")
        if kind == "shift":
            gens.append(Shift(_expect_int(obj.get("k"), gpath + ["k"])))
        elif kind == "twist":
            gens.append(Twist(_parse_summand(group, obj, gpath)))
        elif kind == "push":
            perm = _expect_list(obj.get("perm"), gpath + ["perm"], "a permutation list")
            perm = tuple(_expect_int(p, gpath + ["perm", k]) for k, p in enumerate(perm))
            scalars_data = _expect_list(
                obj.get("scalars", [1] * len(perm)), gpath + ["scalars"], "a scalar list"
            )
            scalars = tuple(
                parse_rational(s, gpath + ["scalars", k])
                for k, s in enumerate(scalars_data)
            )
            gens.append(Push(EquivariantAutomorphism(action, action, perm, scalars)))
        else:
            _fail(gpath + ["kind"], f"unknown generator kind {kind!r}")
    return FunctorWord(tuple(gens))


def _parse_point(nvars, data, path) -> RationalPoint:
    lst = _expect_list(data, path, "a point as a coordinate list")
    if len(lst) != nvars:
        _fail(path, f"point needs {nvars} coordinates, got {len(lst)}")
    coords = tuple(parse_rational(c, path + [i]) for i, c in enumerate(lst))
    try:
        return RationalPoint(coords)
    except InputError as err:
        _fail(path, str(err))


def parse_problem(data) -> Problem:
    obj = _expect_dict(data, [], "a problem object")
    known = {"group", "action", "complexes", "words", "points", "sampling"}
    for key in obj:
        if key not in known:
            _fail([key], f"unknown problem key (expected one of {sorted(known)})")
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

    sampling = _expect_dict(obj.get("sampling", {}), ["sampling"])
    samples = sampling.get("samples_per_stratum")
    if samples is not None:
        samples = _expect_int(samples, ["sampling", "samples_per_stratum"])
        if samples < 1:
            _fail(["sampling", "samples_per_stratum"], "must be at least 1")
        if samples > MAX_SAMPLES_PER_STRATUM:
            _fail(
                ["sampling", "samples_per_stratum"],
                f"must be at most {MAX_SAMPLES_PER_STRATUM}, got {samples}",
            )
    seed = sampling.get("seed")
    if seed is not None:
        seed = _expect_int(seed, ["sampling", "seed"])

    return Problem(
        action=action,
        complexes=complexes,
        words=words,
        points=points,
        samples_per_stratum=samples,
        seed=seed,
    )


def load_problem_text(text: str) -> Problem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(
            f"problem file is not valid JSON: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    return parse_problem(data)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise InputError(f"cannot read problem file {path!r}: {err}") from err
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
    samples_per_stratum: int | None = None,
    seed: int | None = None,
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
    sampling = {}
    if samples_per_stratum is not None:
        sampling["samples_per_stratum"] = samples_per_stratum
    if seed is not None:
        sampling["seed"] = seed
    if sampling:
        out["sampling"] = sampling
    return out
