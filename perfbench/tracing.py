"""Per-layer spans and counts, recorded from outside the package.

``Tracer.install`` replaces a public function or method of each layer with a
wrapper that times it as a span and updates the layer's counts, and puts the
originals back on ``uninstall``.  A function is replaced under every name
that refers to it in any eqdescent module, so a function imported by name
elsewhere (``rank`` in descent, ``fiber_restrict`` in selftest) is counted
once wherever it is reached from.  A span's self time is its duration minus
the time of the spans it encloses; the root span is one CLI invocation, so
the self times of one round add up to its traced wall time.  Spans are
folded into per-layer totals as they close instead of being kept.
"""

from __future__ import annotations

import sys
from time import perf_counter

ROOT = "cli.main"


def _cells(m) -> int:
    return m.rows * m.cols


# (span, module, attribute, count name, count of one call from its args and result)
LAYERS = (
    ("linalg.rank", "linalg", "rank", "linalg.rank_cells", lambda a, r: _cells(a[0])),
    ("linalg.snf", "linalg", "smith_normal_form", None, None),
    ("groups.equalizer", "groups", "equalizer_subgroup", None, None),
    ("groups.subgroup", "groups", "Subgroup.__init__", "groups.subgroup_elements",
     lambda a, r: a[0].order),
    ("groups.restrict", "groups", "Character.restrict", "groups.restrict_values",
     lambda a, r: len(r.values)),
    ("action.strata", "action", "ProjectiveAction.strata", None, None),
    ("action.sample_points", "action", "ProjectiveAction.sample_points", None, None),
    ("polynomials.evaluate", "polynomials", "Poly.evaluate", None, None),
    ("complexes.validate", "complexes", "EquivariantComplex.validate", None, None),
    ("descent.check", "descent", "check_descent", None, None),
    ("descent.check", "descent", "check_bundle_descent", None, None),
    ("descent.fiber_restrict", "descent", "fiber_restrict", None, None),
    ("descent.block_cohomology", "descent", "block_cohomology", None, None),
    ("words.apply", "words", "FunctorWord.apply", None, None),
    ("oracle.isotypic", "oracle", "isotypic_cohomology", None, None),
    ("randgen.complex", "randgen", "random_valid_complex", None, None),
    ("problem.load", "problem", "load_problem", None, None),
    ("cli.emit", "cli", "_emit", None, None),
    # Count only: the canonical JSON the digest covers, which has no timing in it.
    (None, "cli", "_canonical", "cli.report_bytes", lambda a, r: len(r)),
)

# Metric name for the call count of a span, where it has one.
CALL_COUNTS = {
    "linalg.rank": "linalg.rank_calls",
    "linalg.snf": "linalg.snf_calls",
    "groups.equalizer": "groups.equalizer_calls",
    "descent.fiber_restrict": "descent.fiber_points",
    "polynomials.evaluate": "polynomials.evaluate_calls",
    "oracle.isotypic": "oracle.isotypic_calls",
}


class Tracer:
    """Self time per span name and counts, accumulated since the last reset."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self.self_s = {}
        self.counts = {}
        self._stack = []  # [name, start, time of enclosed spans]

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def leave(self):
        name, start, inner = self._stack.pop()
        span = perf_counter() - start
        self.self_s[name] = self.self_s.get(name, 0.0) + span - inner
        if self._stack:
            self._stack[-1][2] += span
        return span

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, span, original, count_name, count_of):
        tracer = self
        calls = CALL_COUNTS.get(span)

        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                tracer.enter(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.leave()
            if calls:
                tracer.count(calls)
            if count_name:
                tracer.count(count_name, count_of(args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_block_cohomology(self, original):
        wrapper = self._wrap("descent.block_cohomology", original, None, None)
        tracer = self

        def block_cohomology(fiber):
            cells = [_cells(m) for block in fiber.blocks.values() for m in block.mats.values()]
            tracer.count("descent.block_matrices", len(cells))
            if max(cells, default=0) > tracer.counts.get("descent.max_block_cells", 0):
                tracer.counts["descent.max_block_cells"] = max(cells)
            return wrapper(fiber)

        return block_cohomology

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer function of the imported eqdescent package."""
        modules = {
            name[len("eqdescent."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("eqdescent.") and mod is not None
        }
        for span, module, attr, count_name, count_of in LAYERS:
            owner = modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._replace(cls, method, original, self._wrap(span, original, count_name, count_of))
                continue
            original = getattr(owner, attr)
            if span == "descent.block_cohomology":
                wrapper = self._wrap_block_cohomology(original)
            else:
                wrapper = self._wrap(span, original, count_name, count_of)
            for mod in list(modules.values()) + [sys.modules["eqdescent"]]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, original, wrapper)

    def _replace(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._saved.append((owner, name, original))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
