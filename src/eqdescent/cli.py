"""Command-line interface.

Every command prints one JSON document to stdout, on its first line, then a
blank line and a short human-readable summary.  The document has sorted keys
and no indentation (``python -m json.tool`` shows it indented): each
top-level member is written as ``"key": value``, and the values nested in it
are compact, with no spaces.  Character tables longer than 16 values are cut
to their first 8 in the summary and kept whole in the document.  Each
distinct long table (a tuple of more than 16 entries: a stabilizer's element
list, a character's values) is encoded once per report, and its text is
reused wherever the same tuple appears again, so the text is what encoding
every copy would give.  Every table is a stabilizer's element list or a
character's values on a stabilizer, so a report of a group of order at most
16 holds none: each command's ``_Payload`` carries its group's order (the
self-test's, its bound on it), and such a report goes to the C encoder
whole, with no walk looking for tables.  Above that, every entry of a table
is an int below ``MAX_GROUP_ORDER`` (a value in Z/m, a coordinate in
Z/n_i), so a table's text is joined from ``str(v)`` looked up in one shared
text table, built on first use and never at import, instead of each int
being converted again by the encoder.  The strata summary lists the first
32 strata and counts the rest.  The document carries a ``report_digest``:
sha256 of the canonical JSON (sorted keys, no spaces) of the payload without the digest
itself and ``timing_seconds``.  So two runs with the same inputs are
byte-identical except for the timing value and can be compared by digest.

``necessary`` is ``omega`` with O as both generators, on shift/twist words.

Each command returns its payload, its summary and its exit code, and
``main`` writes the first two through ``_emit``, the one writer of reports.
Exit codes: 0 the check passed (or the command only lists data), 1 the check
failed or was disproved, 2 the input was invalid (unparsable problem file,
a key repeated in one of its objects, schema violation, invalid complex
(named by its JSON path, ``$.complexes.<name>``), a generator whose own
descent check fails or is undecided, ``necessary`` on a word holding a push
(named ``$.words.<name>``), ``--samples`` or a ``selftest-oracle`` option
out of range, a problem file that is not UTF-8, nests too deeply, holds a
number with more digits than int() converts or writes, or a degree past
``MAX_ABS_DEGREE``): every exit 2
is an ``InputError``, which prints an ``error:`` line to stderr and nothing
to stdout, 3 an internal error: any other exception, which is a bug in the
package, not a verdict, 4 undecided: no witness, but a stratum was only
sampled, 141 (128 + SIGPIPE) the reader closed stdout before
the report was written out (``| head -c 100``).
On an internal error no verdict is printed; stderr gets an
``internal error:`` line followed by the traceback.  A closed pipe prints
nothing more, to stdout or stderr.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from operator import itemgetter

from .action import MAX_SAMPLES_PER_STRATUM
from .complexes import TwistedSummand, bundle_complex
from .descent import LONG_TABLE, DescentReport, char_str, check_descent, sampled_str, support_str
from .errors import require_int
from .groups import MAX_GROUP_ORDER, InputError
from .problem import Problem, load_problem
from .selftest import run_oracle_selftest
from .words import Push, omega_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3
EXIT_UNDECIDED = 4
EXIT_PIPE = 141

# The exit code of each verdict of a descent check and of omega.
_EXIT_CODES = {
    "pass": EXIT_PASS, "equivalence-certified": EXIT_PASS,
    "fail": EXIT_FAIL, "disproved": EXIT_FAIL,
    "undecided": EXIT_UNDECIDED,
}

# The strata summary prints this many rows; the count grows as 2^(n+1) on P^n.
SUMMARY_STRATA = 32


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


# json.dumps(value, sort_keys=True, separators=(",", ":")), without building
# an encoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _holds_table(items) -> bool:
    """Whether a long table lies in ``items`` or in the dicts and lists
    among them, however deep.  Tuples are not looked into."""
    for item in items:
        kind = type(item)
        if kind is tuple:
            if len(item) > LONG_TABLE:
                return True
        elif kind is dict:
            if _holds_table(item.values()):
                return True
        elif kind is list and _holds_table(item):
            return True
    return False


# str(v) at each int key 0 <= v < len(_INT_TEXTS) <= MAX_GROUP_ORDER: the text
# of every table entry a report of a group of that order can hold.  Empty
# until a long table is first written, then grown to the largest entry met.
_INT_TEXTS: dict = {}


def _texts(column) -> tuple:
    """``str(v)`` for each entry of ``column`` (more than one), from
    ``_INT_TEXTS``.  KeyError or TypeError where the text table cannot answer:
    an entry that is negative, at or above ``MAX_GROUP_ORDER``, or not an
    int.  A bool or an integral float would be answered as the int it equals,
    which is why only ``_Payload`` tables come here."""
    try:
        return itemgetter(*column)(_INT_TEXTS)
    except KeyError:
        grown = range(len(_INT_TEXTS), min(max(column) + 1, MAX_GROUP_ORDER))
        _INT_TEXTS.update(zip(grown, map(str, grown)))
        return itemgetter(*column)(_INT_TEXTS)


def _table_text(table: tuple) -> str:
    """Canonical JSON text of a long table of a ``_Payload``.  A table of
    ints is its entries' texts joined; a list of elements, tuples of one
    length, is split into columns, each looked up at once, and joined back
    row by row.  Whatever the text table cannot answer, a ragged or empty
    element included, goes to the C encoder."""
    try:
        if type(table[0]) is not tuple:
            return "[" + ",".join(_texts(table)) + "]"
        columns = tuple(zip(*table))
        if columns and sum(map(len, table)) == len(columns) * len(table):
            return "[[" + "],[".join(map(",".join, zip(*map(_texts, columns)))) + "]]"
    except (KeyError, TypeError):
        pass
    return _dumps(table)


def _write(value, tables: dict) -> str:
    """Canonical JSON text of ``value``, each table's text taken from (and
    put in) ``tables``, keyed by the table's ``id``, and made the first time
    by ``_table_text``.  A value holding no table, and a dict with a key
    that is not a ``str`` (json sorts and converts such keys itself), go to
    the C encoder whole."""
    kind = type(value)
    if kind is tuple and len(value) > LONG_TABLE:
        text = tables.get(id(value))
        if text is None:
            text = tables[id(value)] = _table_text(value)
        return text
    if kind is list and _holds_table(value):
        return "[" + ",".join([_write(item, tables) for item in value]) + "]"
    if (
        kind is dict
        and all(type(key) is str for key in value)
        and _holds_table(value.values())
    ):
        return "{" + ",".join(
            [f"{_dumps(key)}:{_write(value[key], tables)}" for key in sorted(value)]
        ) + "}"
    return _dumps(value)


def _canonical(value, tables: dict | None) -> str:
    """Canonical JSON text (sorted keys, no spaces) of one top-level member,
    by the C encoder alone when ``tables`` is None.  It runs once per
    member, apart from the recursion in ``_write``, so the texts it returns
    add up to the canonical report."""
    return _dumps(value) if tables is None else _write(value, tables)


class _Payload(dict):
    """A command's report members, with ``group_order``, the order of the
    group whose stabilizers its tables are read on, or a bound on it: no
    table in the report is longer.

    The contract its long tables are written on: every tuple of more than
    16 entries in it is a table the package built, of ints (character
    values) or of equal-length tuples of ints (stabilizer elements), so
    ``_table_text`` may read each entry's text from the shared text table
    without checking that it is an int and not a bool or a float equal to
    one.  A plain dict gets no such trust: it goes to the C encoder whole."""

    def __init__(self, group_order: int, members: dict):
        super().__init__(members)
        self.group_order = group_order


def _members(payload: dict) -> list:
    """(key, canonical value) of each member the digest covers, by key.

    Only a ``_Payload`` whose group order is above ``LONG_TABLE`` can hold a
    long table; its members share one table memo, and ``payload`` keeps
    every tuple keyed in it alive meanwhile, so no id is reused.  Any other
    dict goes to the C encoder whole."""
    tables = {} if isinstance(payload, _Payload) and payload.group_order > LONG_TABLE else None
    return [
        (key, _canonical(payload[key], tables))
        for key in sorted(payload)
        if key not in ("report_digest", "timing_seconds")
    ]


def _digest(members) -> str:
    """sha256 of the canonical text ``{"key":value,...}`` of ``members``."""
    sha = hashlib.sha256(b"{")
    for i, (key, value) in enumerate(members):
        sha.update(f'{"," if i else ""}{json.dumps(key)}:'.encode())
        sha.update(value.encode())
    sha.update(b"}")
    return "sha256:" + sha.hexdigest()


def report_digest(payload: dict) -> str:
    """sha256 of the canonical JSON payload, with volatile fields removed."""
    return _digest(_members(payload))


def _emit(payload: dict, human: str, started: float, out) -> None:
    """Write the document and the summary."""
    members = _members(payload)
    digest = _digest(members)
    timing = round(time.perf_counter() - started, 6)
    members += [("report_digest", json.dumps(digest)), ("timing_seconds", json.dumps(timing))]
    members.sort()
    # Each value is serialized once, above, each distinct long table in it
    # encoded once, and written member by member, so a megabyte report is
    # never copied into one string.
    # The ": " after each top-level key keeps '"report_digest": "' a literal
    # that readers can search the text for.
    out.write("{")
    for i, (key, value) in enumerate(members):
        out.write(f'{"," if i else ""}{json.dumps(key)}: ')
        out.write(value)
    out.write("}\n\n")
    out.write(human)
    out.write("\n")


def _table(rows, headers) -> str:
    rows = [[str(c) for c in r] for r in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(c.ljust(w) for c, w in zip(r, widths))
        for r in rows
    ]
    return "\n".join([line, rule] + body)


def _verdict_word(verdict: str) -> str:
    """The verdict as a summary writes it: PASS, CERTIFIED, UNDECIDED, ..."""
    return verdict.removeprefix("equivalence-").upper()


def _descent_human(title: str, report: DescentReport) -> str:
    lines = [f"{title}: {_verdict_word(report.verdict)}"]
    if report.verdict == "undecided":
        lines[0] += f" ({sampled_str(report.sampled_supports)})"
    if report.witnesses:
        rows = [
            (w.point, support_str(w.support), w.degree, char_str(w.char_values), w.dim)
            for w in report.witnesses
        ]
        lines.append("")
        lines.append("witnesses (nontrivial stabilizer character with surviving cohomology):")
        lines.append(_table(rows, ("POINT", "SUPPORT", "DEGREE", "CHARACTER", "DIM")))
    if report.coverage:
        rows = [
            (support_str(c.support), c.stabilizer_order, c.mode, c.points_checked)
            for c in report.coverage
        ]
        lines.append("")
        lines.append("stratum coverage:")
        lines.append(_table(rows, ("SUPPORT", "STAB ORDER", "MODE", "POINTS")))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sampling options
# ---------------------------------------------------------------------------


def _sampling(args, problem: Problem) -> dict:
    require_int("--samples", args.samples, 1, MAX_SAMPLES_PER_STRATUM)
    return dict(samples_per_stratum=args.samples, seed=args.seed, points=problem.points)


def _add_sampling_flags(parser):
    parser.add_argument(
        "--samples",
        type=int,
        default=5,
        metavar="N",
        help=(
            f"sample points per multi-coordinate stratum, 1 to {MAX_SAMPLES_PER_STRATUM} "
            "(default 5)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for deterministic sampling (default 0)",
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_strata(args) -> tuple:
    problem = load_problem(args.problem)
    action = problem.action
    strata = action.strata()
    payload = _Payload(action.group.order, {
        "command": "strata",
        "group": repr(action.group),
        "dim": action.dim,
        "count": len(strata),
        "strata": [
            {
                "support": list(s.support),
                "stabilizer_order": s.stabilizer.order,
                "stabilizer_elements": s.stabilizer.coords,
                "scalar_character": s.scalar_char.values,
                "representative": s.representative().display(),
            }
            for s in strata
        ],
    })
    rows = [
        (
            support_str(s.support),
            s.stabilizer.order,
            char_str(s.scalar_char.values),
            s.representative().display(),
        )
        for s in strata[:SUMMARY_STRATA]
    ]
    lines = [
        f"{len(strata)} coordinate strata for {action.group!r} acting on P^{action.dim}",
        "",
        _table(rows, ("SUPPORT", "STAB ORDER", "SCALAR CHAR", "REPRESENTATIVE")),
    ]
    if len(strata) > SUMMARY_STRATA:
        lines.append(
            f"... and {len(strata) - SUMMARY_STRATA:,} more strata (the report lists every one)"
        )
    return payload, "\n".join(lines), EXIT_PASS


def _cmd_check_descent(args) -> tuple:
    problem = load_problem(args.problem)
    name, complex_ = problem.only_complex(args.complex)
    report = check_descent(complex_, **_sampling(args, problem))
    payload = _Payload(problem.action.group.order, {
        "command": "check-descent",
        "complex": name,
        "report": report.to_dict(),
    })
    human = _descent_human(f"descent of {name!r}", report)
    return payload, human, _EXIT_CODES[report.verdict]


def _cmd_omega(args) -> tuple:
    problem = load_problem(args.problem)
    word_name, word = problem.only_word(args.word)

    def generator(flag_name):
        if flag_name is None:
            return None
        _, c = problem.only_complex(flag_name)
        return c

    report = omega_check(
        word,
        problem.action,
        gen_a=generator(args.gen_a),
        gen_b=generator(args.gen_b),
        **_sampling(args, problem),
    )
    payload = _Payload(problem.action.group.order, {
        "command": "omega",
        "word": word_name,
        "generator_a": args.gen_a,
        "generator_b": args.gen_b,
        "report": report.to_dict(),
    })
    lines = [
        f"equivalence check for word {word_name!r}: {_verdict_word(report.verdict)}",
        "",
        _descent_human("condition (i), word applied to generator A", report.condition_i),
        "",
        _descent_human("condition (ii), inverse word applied to generator B", report.condition_ii),
    ]
    for caveat in report.caveats():
        lines.append(f"note: {caveat}")
    return payload, "\n".join(lines), _EXIT_CODES[report.verdict]


def _cmd_necessary(args) -> tuple:
    problem = load_problem(args.problem)
    word_name, word = problem.only_word(args.word)
    if any(isinstance(g, Push) for g in word.generators):
        raise InputError(
            f"$.words.{word_name}: word contains a pushforward; its kernel needs a "
            "product-group equivariant structure that is not modeled here"
        )
    action = problem.action
    structure_sheaf = bundle_complex(action, TwistedSummand(0, action.group.trivial_character()))
    report = omega_check(word, action, structure_sheaf, structure_sheaf)
    # The image of O is the kernel fiber: one line bundle in one degree.
    (degree,) = report.image_a.degrees()
    (net_twist,) = report.image_a.summands(degree)
    verdict = {"equivalence-certified": "pass", "disproved": "fail"}.get(report.verdict, "undecided")
    payload = _Payload(action.group.order, {
        "command": "necessary",
        "word": word_name,
        "report": {
            # Constant members, kept so that the digests of earlier reports
            # still hold: a push word is refused before a report exists.
            "supported": True,
            "reason": None,
            "verdict": verdict,
            "condition_i": report.condition_i.to_dict(),
            "condition_ii": report.condition_ii.to_dict(),
            "kernel": {
                "net_twist_degree": net_twist.degree,
                "net_twist_character": list(net_twist.twist.coords),
                "net_shift": -degree,
            },
            "word": report.word,
        },
    })
    lines = [
        f"necessary kernel-fiber conditions for word {word_name!r}: {_verdict_word(verdict)}",
        f"kernel: net twist degree {net_twist.degree}, "
        f"character {char_str(net_twist.twist.coords)}, "
        f"cohomological degree {degree}",
        "",
        _descent_human("condition (i), kernel fiber", report.condition_i),
        "",
        _descent_human("condition (ii), inverse kernel fiber", report.condition_ii),
    ]
    return payload, "\n".join(lines), _EXIT_CODES[verdict]


def _cmd_selftest(args) -> tuple:
    # Refuse option values outside the ranges random instances are drawn from.
    require_int("--trials", args.trials, 1)
    require_int("--max-group-order", args.max_group_order, 2, MAX_GROUP_ORDER)
    report = run_oracle_selftest(
        trials=args.trials, seed=args.seed, max_group_order=args.max_group_order
    )
    # Every random group has order at most --max-group-order.
    payload = _Payload(args.max_group_order, {
        "command": "selftest-oracle", "report": report.to_dict()
    })
    lines = [
        f"dual-route self-test: {'PASS' if report.passed else 'FAIL'}",
        f"{report.trials} random instances, {len(report.mismatches)} disagreement(s) "
        "between the character-block route and the averaging route",
    ]
    if not report.passed:
        lines.append("replayable problem serializations are in the JSON payload above")
    return payload, "\n".join(lines), EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqdescent",
        description=(
            "Decide, by exact rational and character computations, whether "
            "equivariant complexes of twisted line bundles descend to the "
            "quotient, and whether shift/twist/pushforward functor words "
            "induce equivalences there."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("strata", help="list the coordinate strata of the action")
    p.add_argument("problem", help="problem file (JSON)")
    p.set_defaults(func=_cmd_strata)

    p = sub.add_parser("check-descent", help="decide descent for a complex")
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--complex", default=None, metavar="NAME", help="complex to check")
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_check_descent)

    p = sub.add_parser(
        "omega", help="decide whether a functor word induces an equivalence"
    )
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--word", default=None, metavar="NAME", help="word to check")
    p.add_argument(
        "--gen-a", default=None, metavar="NAME",
        help="generator complex on the source side (default: built-in heuristic)",
    )
    p.add_argument(
        "--gen-b", default=None, metavar="NAME",
        help="generator complex on the target side (default: built-in heuristic)",
    )
    _add_sampling_flags(p)
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser(
        "necessary", help="run the exact kernel-fiber necessary conditions for a word"
    )
    p.add_argument("problem", help="problem file (JSON)")
    p.add_argument("--word", default=None, metavar="NAME", help="word to check")
    p.set_defaults(func=_cmd_necessary)

    p = sub.add_parser(
        "selftest-oracle",
        help="compare the block route against the averaging route on random instances",
    )
    p.add_argument("--trials", type=int, default=100, metavar="N", help="at least 1")
    p.add_argument("--seed", type=int, default=0, metavar="N")
    p.add_argument(
        "--max-group-order", type=int, default=12, metavar="N",
        help=f"from 2 to {MAX_GROUP_ORDER}",
    )
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused by every
    later one in the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        started = time.perf_counter()
        payload, human, code = args.func(args)
        _emit(payload, human, started, sys.stdout)
        # Flush here, so a reader that has gone away shows up below and not
        # as an error while the interpreter shuts down.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Later flushes of stdout go to the null device and cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as err:
        import traceback  # here, not at the top: loading it adds ~0.4 MB to every run

        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
