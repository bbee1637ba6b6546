"""Command-line interface.

Every command prints one JSON document to stdout followed by a short
human-readable summary.  The document carries a ``report_digest`` (sha256 of
the canonical JSON, excluding the digest itself and ``timing_seconds``), so
two runs with the same inputs are byte-identical except for the timing line
and can be compared by digest.

Exit codes: 0 the check passed (or the command only lists data), 1 the check
failed or was disproved, 2 the input was invalid (unparsable problem file,
schema violation, invalid complex, a generator failing its own descent
precondition, ``--samples`` or a ``selftest-oracle`` option out of range),
3 an internal error: any other exception, which is a bug in the package, not
a verdict.
On an internal error no verdict is printed; stderr gets an
``internal error:`` line followed by the traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .action import MAX_SAMPLES_PER_STRATUM
from .descent import DescentReport, check_descent
from .groups import MAX_GROUP_ORDER, InputError
from .problem import Problem, load_problem
from .selftest import run_oracle_selftest
from .words import GeneratorRejectedError, necessary_check, omega_check

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def report_digest(payload: dict) -> str:
    """sha256 of the canonical JSON payload, with volatile fields removed."""
    stripped = {k: v for k, v in payload.items() if k not in ("timing_seconds", "report_digest")}
    return "sha256:" + hashlib.sha256(_canonical(stripped).encode("utf-8")).hexdigest()


def _emit(payload: dict, human: str, started: float, out) -> None:
    payload = dict(payload)
    payload["report_digest"] = report_digest(payload)
    payload["timing_seconds"] = round(time.perf_counter() - started, 6)
    print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    print(file=out)
    print(human, file=out)


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


def _support_str(support) -> str:
    return "{" + ",".join(str(i) for i in support) + "}"


def _char_str(values) -> str:
    return "(" + ",".join(str(v) for v in values) + ")"


def _descent_human(title: str, report: DescentReport) -> str:
    lines = [f"{title}: {'PASS' if report.passed else 'FAIL'}"]
    if report.witnesses:
        rows = [
            (w.point, _support_str(w.support), w.degree, _char_str(w.char_values), w.dim)
            for w in report.witnesses
        ]
        lines.append("")
        lines.append("witnesses (nontrivial stabilizer character with surviving cohomology):")
        lines.append(_table(rows, ("POINT", "SUPPORT", "DEGREE", "CHARACTER", "DIM")))
    if report.coverage:
        rows = [
            (_support_str(c.support), c.stabilizer_order, c.mode, c.points_checked)
            for c in report.coverage
        ]
        lines.append("")
        lines.append("stratum coverage:")
        lines.append(_table(rows, ("SUPPORT", "STAB ORDER", "MODE", "POINTS")))
    for caveat in report.caveats():
        lines.append(f"note: {caveat}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sampling options
# ---------------------------------------------------------------------------


def _check_range(flag, value, low, high=None) -> None:
    if value < low:
        raise InputError(f"{flag} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{flag} must be at most {high}, got {value}")


def _sampling(args, problem: Problem) -> dict:
    samples = args.samples
    if samples is not None:
        _check_range("--samples", samples, 1, MAX_SAMPLES_PER_STRATUM)
    else:
        samples = problem.samples_per_stratum if problem.samples_per_stratum else 5
    seed = args.seed
    if seed is None:
        seed = problem.seed if problem.seed is not None else 0
    return dict(
        samples_per_stratum=samples,
        seed=seed,
        points=problem.points,
        points_only=args.points_only,
    )


def _add_sampling_flags(parser):
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        metavar="N",
        help=(
            f"sample points per multi-coordinate stratum, 1 to {MAX_SAMPLES_PER_STRATUM} "
            "(default: problem file, then 5)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="seed for deterministic sampling (default: problem file, then 0)",
    )
    parser.add_argument(
        "--points-only",
        action="store_true",
        help="skip stratum coverage; check only the problem file's points",
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_strata(args, out) -> int:
    started = time.perf_counter()
    problem = load_problem(args.problem)
    action = problem.action
    strata = action.strata()
    payload = {
        "command": "strata",
        "group": repr(action.group),
        "dim": action.dim,
        "count": len(strata),
        "strata": [
            {
                "support": list(s.support),
                "stabilizer_order": s.stabilizer.order,
                "stabilizer_elements": [list(c) for c in s.stabilizer.coords],
                "scalar_character": list(s.scalar_char.values),
                "representative": s.representative().display(),
            }
            for s in strata
        ],
    }
    rows = [
        (
            _support_str(s.support),
            s.stabilizer.order,
            _char_str(s.scalar_char.values),
            s.representative().display(),
        )
        for s in strata
    ]
    human = "\n".join(
        [
            f"{len(strata)} coordinate strata for {action.group!r} acting on P^{action.dim}",
            "",
            _table(rows, ("SUPPORT", "STAB ORDER", "SCALAR CHAR", "REPRESENTATIVE")),
        ]
    )
    _emit(payload, human, started, out)
    return EXIT_PASS


def _cmd_check_descent(args, out) -> int:
    started = time.perf_counter()
    problem = load_problem(args.problem)
    name, complex_ = problem.only_complex(args.complex)
    report = check_descent(complex_, **_sampling(args, problem))
    payload = {
        "command": "check-descent",
        "complex": name,
        "report": report.to_dict(),
    }
    _emit(payload, _descent_human(f"descent of {name!r}", report), started, out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_omega(args, out) -> int:
    started = time.perf_counter()
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
    payload = {
        "command": "omega",
        "word": word_name,
        "generator_a": args.gen_a,
        "generator_b": args.gen_b,
        "report": report.to_dict(),
    }
    lines = [
        f"equivalence check for word {word_name!r}: "
        + ("CERTIFIED" if report.certified else "DISPROVED"),
        "",
        _descent_human("condition (i), word applied to generator A", report.condition_i),
        "",
        _descent_human("condition (ii), inverse word applied to generator B", report.condition_ii),
    ]
    for caveat in report.caveats():
        lines.append(f"note: {caveat}")
    _emit(payload, "\n".join(lines), started, out)
    return EXIT_PASS if report.certified else EXIT_FAIL


def _cmd_necessary(args, out) -> int:
    started = time.perf_counter()
    problem = load_problem(args.problem)
    word_name, word = problem.only_word(args.word)
    report = necessary_check(word, problem.action)
    payload = {
        "command": "necessary",
        "word": word_name,
        "report": report.to_dict(),
    }
    if not report.supported:
        human = f"necessary conditions for word {word_name!r}: UNSUPPORTED\n{report.reason}"
        _emit(payload, human, started, out)
        return EXIT_INVALID
    lines = [
        f"necessary kernel-fiber conditions for word {word_name!r}: "
        + ("PASS" if report.passed else "FAIL"),
        f"kernel: net twist degree {report.net_twist_degree}, "
        f"character {_char_str(report.net_twist_character)}, "
        f"cohomological degree {-report.net_shift}",
        "",
        _descent_human("condition (i), kernel fiber", report.condition_i),
        "",
        _descent_human("condition (ii), inverse kernel fiber", report.condition_ii),
    ]
    _emit(payload, "\n".join(lines), started, out)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _check_selftest_args(args) -> None:
    """Reject option values that leave no random instance to draw."""
    _check_range("--trials", args.trials, 1)
    _check_range("--max-dim", args.max_dim, 1)
    _check_range("--max-group-order", args.max_group_order, 2, MAX_GROUP_ORDER)


def _cmd_selftest(args, out) -> int:
    _check_selftest_args(args)
    started = time.perf_counter()
    report = run_oracle_selftest(
        trials=args.trials,
        seed=args.seed if args.seed is not None else 0,
        max_group_order=args.max_group_order,
        max_dim=args.max_dim,
    )
    payload = {"command": "selftest-oracle", "report": report.to_dict()}
    lines = [
        f"dual-route self-test: {'PASS' if report.passed else 'FAIL'}",
        f"{report.trials} random instances, {len(report.mismatches)} disagreement(s) "
        "between the character-block route and the cyclotomic averaging route",
    ]
    if not report.passed:
        lines.append("replayable problem serializations are in the JSON payload above")
    _emit(payload, "\n".join(lines), started, out)
    return EXIT_PASS if report.passed else EXIT_FAIL


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
    p.add_argument("--seed", type=int, default=None, metavar="N")
    p.add_argument(
        "--max-group-order", type=int, default=12, metavar="N",
        help=f"from 2 to {MAX_GROUP_ORDER}",
    )
    p.add_argument("--max-dim", type=int, default=3, metavar="N", help="at least 1")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except GeneratorRejectedError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
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
