"""The three workloads: problem files made from a seed, and their operations.

An operation is one CLI invocation with its own output check.  Every
workload's list is fixed for a given seed; a run repeats the whole list, so
the share of failed operations is the same in every run.  The seed changes
the inputs without changing their shape: it permutes coordinates, applies a
group automorphism (each cyclic factor's character exponents scaled by a
unit), and picks the sampling seed, so stabilizer orders, block sizes and
verdicts stay the same and only the numbers differ.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from math import gcd

import reference

# Actions on P^n, as the character of coordinate i (before the seed's
# permutation and automorphism).
ACTIONS = {
    "z2-trivial": ((2,), lambda i: (0,)),
    "z2-alternating": ((2,), lambda i: (i % 2,)),
    "z3": ((3,), lambda i: (i % 3,)),
    "z2xz2": ((2, 2), lambda i: ((0, 0), (1, 0), (0, 1), (1, 1))[i % 4]),
}

# Big groups on P^2: |G| from 1,000 up to the 10,000 bound.
BIG_ACTIONS = {
    "z100xz100-trivial": ((100, 100), ((0, 0), (0, 0), (0, 0))),
    "z100xz100-mixed": ((100, 100), ((0, 0), (1, 0), (0, 1))),
    "z2xz5000-mixed": ((2, 5000), ((0, 0), (1, 2), (0, 5))),
    "z10000-mixed": ((10000,), ((0,), (2,), (5,))),
    "z10xz100-trivial": ((10, 100), ((0, 0), (0, 0), (0, 0))),
    "z1000-mixed": ((1000,), ((0,), (4,), (10,))),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check of its report.

    ``check(code, payload)`` returns a list of problems.  ``known_fault``
    marks the operation kept to show a named fault: while the fault stands,
    its mismatch counts as a failed operation, not as a wrong benchmark.
    """

    label: str
    argv: tuple
    check: object
    known_fault: bool = False


@dataclass(frozen=True)
class KoszulSpec:
    drop: bool
    dropped_degree: int
    dropped_twist: tuple


class Seeded:
    """The seed's permutation, automorphism and sampling seeds for one workload."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")

    def action(self, orders, chars):
        """Draw an automorphism of the character group; return it with the
        permuted, transformed coordinate characters."""
        units = [self.rng.choice([u for u in range(1, n) if gcd(u, n) == 1] or [1]) for n in orders]

        def auto(c):
            return tuple(u * x % n for u, x, n in zip(units, c, orders))

        chars = list(chars)
        self.rng.shuffle(chars)
        return auto, tuple(auto(c) for c in chars)

    def sampling_seed(self) -> str:
        return str(self.rng.randrange(10_000))


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _summand(degree, twist):
    return {"degree": degree, "twist": list(twist)}


def koszul_complex(orders, chars, base, drop=False):
    """Koszul complex of x_0..x_n in degrees -(n+1)..0 (or -n..0 with the
    leftmost term dropped).  The basis vector e_S sits in degree -|S| as
    O(-|S|) twisted by base - sum_{i in S} chi_i, so that the entry x_i from
    e_S to e_{S - i} is equivariant."""
    n = len(chars) - 1
    top = n if drop else n + 1
    subsets = [list(itertools.combinations(range(n + 1), k)) for k in range(top + 1)]

    def twist(s):
        return [(b - sum(chars[i][t] for i in s)) % m for t, (b, m) in enumerate(zip(base, orders))]

    terms = {str(-k): [_summand(-k, twist(s)) for s in subsets[k]] for k in range(top + 1)}
    diffs = {}
    for k in range(1, top + 1):
        index = {s: a for a, s in enumerate(subsets[k - 1])}
        entries = []
        for a, s in enumerate(subsets[k]):
            for pos, i in enumerate(s):
                exps = [0] * (n + 1)
                exps[i] = 1
                entries.append({
                    "source": a,
                    "target": index[s[:pos] + s[pos + 1:]],
                    "entry": [{"coeff": (-1) ** pos, "exponents": exps}],
                })
        diffs[str(-k)] = entries
    spec = KoszulSpec(drop, -(n + 1), tuple(twist(tuple(range(n + 1)))))
    return {"terms": terms, "differentials": diffs}, spec


def line_bundle(degree, twist):
    return {"terms": {"0": [_summand(degree, twist)]}, "differentials": {}}


def problem(orders, chars, complexes=None, words=None):
    out = {
        "group": {"orders": list(orders)},
        "action": {"dim": len(chars) - 1, "coordinate_characters": [list(c) for c in chars]},
    }
    if complexes:
        out["complexes"] = complexes
    if words:
        out["words"] = words
    return out


def twist_word(degree, twist, shift):
    return [{"kind": "twist", "degree": degree, "twist": list(twist)}, {"kind": "shift", "k": shift}]


class Writer:
    """Writes problem files into one directory and builds the operations."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ops = []

    def write(self, name, data) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        return path

    def add(self, label, argv, check, known_fault=False):
        self.ops.append(Op(label, tuple(argv), check, known_fault))


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# koszul-blocks: (action, n, leftmost term dropped, base twist index, sample
# points per multi-coordinate stratum).  P^5 under trivial Z/2 is sampled at 3
# points, not the default 5, to keep a round near 5 s: 177 fiber points with
# blocks up to 20x15.
KOSZUL_CHECKS = (
    ("z2-trivial", 5, False, 0, 3),
    ("z2-trivial", 4, True, 1, 5),
    ("z2-alternating", 4, False, 0, 5),
    ("z2-alternating", 5, True, 1, 5),
    ("z3", 6, True, 1, 5),
    ("z3", 5, False, 0, 5),
    ("z2xz2", 5, False, 0, 5),
    ("z2xz2", 4, True, 2, 5),
)
KOSZUL_OMEGAS = (("z2-alternating", 4), ("z3", 4))
KOSZUL_QUICK_CHECKS = (("z2-trivial", 2, False, 0, 5), ("z3", 2, True, 1, 5))
KOSZUL_QUICK_OMEGAS = (("z2xz2", 2),)

# The false PASS on a multi-coordinate stratum: Z/2 acting trivially on P^2,
# 0 -> O (x) sign --(x0 - x1 + x2)--> O(1) (x) sign -> 0.  The entry vanishes
# at (1:1:0), where the stabilizer acts by the sign, so the true verdict is
# FAIL; sampling misses that line and check-descent answers PASS.
REPRODUCER_POLY = ((1, (1, 0, 0)), (-1, (0, 1, 0)), (1, (0, 0, 1)))


def _base(orders, index):
    """The index-th character of the group in lexicographic order."""
    out = []
    for n in reversed(orders):
        index, r = divmod(index, n)
        out.append(r)
    return tuple(reversed(out))


def koszul_blocks(w: Writer, seeded: Seeded, quick: bool):
    checks = KOSZUL_QUICK_CHECKS if quick else KOSZUL_CHECKS
    omegas = KOSZUL_QUICK_OMEGAS if quick else KOSZUL_OMEGAS
    for name, n, drop, base_index, samples in checks:
        orders, char_of = ACTIONS[name]
        auto, chars = seeded.action(orders, [char_of(i) for i in range(n + 1)])
        complex_, spec = koszul_complex(orders, chars, auto(_base(orders, base_index)), drop)
        label = f"check-descent P^{n} {name} koszul{'-dropped' if drop else ''}"
        path = w.write(label.replace(" ", "_").replace("^", ""), problem(orders, chars, {"c": complex_}))
        act = reference.GroupAction(orders, chars)
        w.add(label, ["check-descent", path, "--samples", str(samples), "--seed", seeded.sampling_seed()],
              partial(reference.check_koszul, act, spec))
    for name, n in omegas:
        orders, char_of = ACTIONS[name]
        auto, chars = seeded.action(orders, [char_of(i) for i in range(n + 1)])
        complex_, _ = koszul_complex(orders, chars, (0,) * len(orders))
        word = twist_word(1, auto(_base(orders, 1)), 1)
        label = f"omega P^{n} {name} koszul"
        path = w.write(label.replace(" ", "_").replace("^", ""),
                       problem(orders, chars, {"c": complex_}, {"w": word}))
        act = reference.GroupAction(orders, chars)
        w.add(label, ["omega", path, "--word", "w", "--gen-a", "c", "--gen-b", "c",
                      "--seed", seeded.sampling_seed()],
              partial(reference.check_omega_koszul, act))
    # The reproducer does not depend on the seed: it fails the same way in every run.
    sign = (1,)
    entry = [{"coeff": c, "exponents": list(e)} for c, e in REPRODUCER_POLY]
    complex_ = {
        "terms": {"0": [_summand(0, sign)], "1": [_summand(1, sign)]},
        "differentials": {"0": [{"source": 0, "target": 0, "entry": entry}]},
    }
    path = w.write("reproducer", problem((2,), ((0,), (0,), (0,)), {"c": complex_}))
    act = reference.GroupAction((2,), ((0,), (0,), (0,)))
    w.add("check-descent P^2 z2-trivial false-pass reproducer", ["check-descent", path],
          partial(reference.check_reproducer, act, REPRODUCER_POLY, (0, 1), (sign, sign)),
          known_fault=True)


# big-stabilizer: (command, action, what); line bundles and words carry their
# degree and twist index.
BIG_OPS = (
    ("strata", "z100xz100-trivial", None),
    ("check-descent", "z10000-mixed", ("bundle", 1, 1)),
    ("check-descent", "z10xz100-trivial", ("bundle", 2, 0)),
    ("check-descent", "z2xz5000-mixed", ("koszul", False, 0)),
    ("check-descent", "z10xz100-trivial", ("koszul", True, 1)),
    ("necessary", "z100xz100-mixed", ("word", 1, 101, 2)),
    ("necessary", "z1000-mixed", ("word", 2, 0, 1)),
    ("omega", "z1000-mixed", ("word", 1, 500, 1)),
    ("omega", "z1000-mixed", ("word", 0, 0, 3)),
)
BIG_QUICK_GROUPS = {
    "z100xz100-trivial": ((4, 5), ((0, 0),) * 3),
    "z10000-mixed": ((20,), ((0,), (2,), (5,))),
    "z10xz100-trivial": ((2, 10), ((0, 0),) * 3),
    "z2xz5000-mixed": ((2, 12), ((0, 0), (1, 2), (0, 3))),
    "z100xz100-mixed": ((4, 5), ((0, 0), (1, 0), (0, 1))),
    "z1000-mixed": ((30,), ((0,), (4,), (10,))),
}


def big_stabilizer(w: Writer, seeded: Seeded, quick: bool):
    for k, (command, name, what) in enumerate(BIG_OPS):
        orders, chars = (BIG_QUICK_GROUPS if quick else BIG_ACTIONS)[name]
        auto, chars = seeded.action(orders, chars)
        act = reference.GroupAction(orders, chars)
        kind = what[0] if what else "action"
        label = f"{command} P^2 {name} {kind}"
        fname = f"{k}-{command}-{name}"
        if command == "strata":
            path = w.write(fname, problem(orders, chars))
            w.add(label, ["strata", path], partial(reference.check_strata, act))
        elif kind == "bundle":
            _, degree, twist_index = what
            twist = auto(_base(orders, twist_index))
            path = w.write(fname, problem(orders, chars, {"L": line_bundle(degree, twist)}))
            w.add(label, ["check-descent", path, "--seed", seeded.sampling_seed()],
                  partial(reference.check_bundle, act, degree, twist))
        elif kind == "koszul":
            _, drop, base_index = what
            complex_, spec = koszul_complex(orders, chars, auto(_base(orders, base_index)), drop)
            path = w.write(fname, problem(orders, chars, {"c": complex_}))
            w.add(label + ("-dropped" if drop else ""), ["check-descent", path, "--seed", seeded.sampling_seed()],
                  partial(reference.check_koszul, act, spec))
        else:
            _, degree, twist_index, shift = what
            word = twist_word(degree, auto(_base(orders, twist_index)), shift)
            path = w.write(fname, problem(orders, chars, words={"w": word}))
            if command == "necessary":
                w.add(label, ["necessary", path, "--word", "w"],
                      partial(reference.check_necessary, act, word))
            else:
                w.add(label, ["omega", path, "--word", "w", "--seed", seeded.sampling_seed()],
                      partial(reference.check_omega_twist, act, word))


# oracle-selftest: selftest-oracle runs, each on its own seed drawn from the
# workload seed.
SELFTEST_RUNS = 35
SELFTEST_TRIALS = 40
SELFTEST_MAX_GROUP_ORDER = 8


def oracle_selftest(w: Writer, seeded: Seeded, quick: bool):
    runs, trials = (1, 3) if quick else (SELFTEST_RUNS, SELFTEST_TRIALS)
    for _ in range(runs):
        seed = seeded.rng.randrange(1 << 30)
        w.add(f"selftest-oracle seed {seed}",
              ["selftest-oracle", "--trials", str(trials), "--seed", str(seed),
               "--max-group-order", str(SELFTEST_MAX_GROUP_ORDER)],
              partial(reference.check_selftest, trials, seed))


WORKLOADS = {
    "koszul-blocks": koszul_blocks,
    "big-stabilizer": big_stabilizer,
    "oracle-selftest": oracle_selftest,
}


def build(workload: str, seed: int, workdir: str, quick: bool = False) -> list:
    """Write the workload's problem files into ``workdir``; return its operations."""
    os.makedirs(workdir, exist_ok=True)
    w = Writer(workdir)
    WORKLOADS[workload](w, Seeded(workload, seed), quick)
    return w.ops
