"""Self-test: the two independent cohomology routes must agree.

Isotypic fiber cohomology is computed twice, by deliberately disjoint
methods:

  * the block route (descent module): split the fiber complex, evaluated at
    primitive integer coordinates, into stabilizer-character blocks and rank
    each sparse integer block map by exact sparse elimination, and
  * the averaging route (oracle module): keep the fiber complex whole,
    build the isotypic projectors (1/|S|) sum_g phi(g)^{-1} rho(g) as
    products of averages over cyclic factors of the stabilizer, with
    entries exactly 0 or 1, and read dimensions off the ranks of the
    projected differentials, which it ranks over Q by its own elimination.

They share no linear algebra (the oracle module imports neither the descent
module nor linalg) and disagree only if one of them is wrong, so
agreement over a random corpus is the toolkit's strongest internal evidence.
Each mismatch is reported with a full problem-file serialization of the
instance, ready to replay.

A run draws many instances from few groups (``--max-group-order 8`` allows
11 order tuples), so it keeps the last ``GROUP_MEMO_SIZE`` groups of order
at most ``GROUP_MEMO_MAX_ORDER`` that it drew, by their orders, and a trial
whose orders are among them reuses that group object, with the element
lists, stabilizer cuts and restriction tables cached on it (see
``groups``).  The memo lives as long as the run.  Both bounds cap what it
holds: larger groups rarely repeat (``--max-group-order 10000`` allows
thousands of order tuples), and keeping 16 of them alive with their tables
would add about a third to the peak memory of a run at that bound, so each
trial builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from random import Random

from .descent import block_cohomology, fiber_restrict
from .errors import require_int
from .groups import MAX_GROUP_ORDER, AbelianGroup
from .oracle import isotypic_cohomology
from .problem import point_to_list, problem_to_dict
from .randgen import random_action, random_orders, random_point, random_valid_complex

# A run keeps this many groups for reuse, least recently drawn dropped
# first, and only groups of order at most GROUP_MEMO_MAX_ORDER.
GROUP_MEMO_SIZE = 16
GROUP_MEMO_MAX_ORDER = 64


@dataclass(frozen=True)
class Mismatch:
    trial: int
    point: list
    via_blocks: dict  # {(degree, values): dim}
    via_averaging: dict
    problem: dict  # replayable problem-file serialization

    def to_dict(self) -> dict:
        def table(d):
            return [
                {"degree": j, "fiber_character": values, "dimension": dim}
                for (j, values), dim in sorted(d.items())
            ]

        return {
            "trial": self.trial,
            "point": self.point,
            "via_blocks": table(self.via_blocks),
            "via_averaging": table(self.via_averaging),
            "problem": self.problem,
        }


@dataclass(frozen=True)
class SelftestReport:
    trials: int
    seed: int
    mismatches: tuple

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
            "trials": self.trials,
            "seed": self.seed,
            "mismatch_count": len(self.mismatches),
            "mismatches": [m.to_dict() for m in self.mismatches],
        }


def run_oracle_selftest(
    trials: int = 100,
    seed: int = 0,
    max_group_order: int = 12,
    max_dim: int = 3,
) -> SelftestReport:
    """Compare the two routes on ``trials`` random instances drawn from
    ``seed``; ``random_action`` checks ``max_dim``."""
    require_int("trials", trials, 1)
    require_int("max_group_order", max_group_order, 2, MAX_GROUP_ORDER)
    require_int("seed", seed)
    rng = Random(seed)
    group_of = lru_cache(maxsize=GROUP_MEMO_SIZE)(AbelianGroup)
    mismatches = []
    for trial in range(trials):
        orders = random_orders(rng, max_group_order)
        group = group_of(orders) if prod(orders) <= GROUP_MEMO_MAX_ORDER else AbelianGroup(orders)
        action = random_action(rng, group, max_dim=max_dim)
        complex_ = random_valid_complex(rng, action)
        point = random_point(rng, action.dim + 1)

        fiber = fiber_restrict(complex_, point)
        via_blocks = {
            (j, phi.values): dim
            for (j, phi), dim in block_cohomology(fiber).items()
            if dim
        }
        via_averaging = {k: v for k, v in isotypic_cohomology(complex_, point).items() if v}

        if via_blocks != via_averaging:
            mismatches.append(
                Mismatch(
                    trial=trial,
                    point=point_to_list(point),
                    via_blocks=via_blocks,
                    via_averaging=via_averaging,
                    problem=problem_to_dict(
                        action,
                        complexes={"instance": complex_},
                        points=[point],
                    ),
                )
            )
    return SelftestReport(trials=trials, seed=seed, mismatches=tuple(mismatches))
