"""The input error of the package and its one rational coercion.

Every layer that takes numbers from a caller (polynomial coefficients,
point coordinates, matrix entries, substitution scales) coerces them with
``as_rational``, so all of them accept the same values and refuse the rest
with the same ``InputError``.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

# "p", "p/q" or "p.q" in ASCII digits with an optional sign.  Fraction also
# parses exponents, and "1e4000000" would build a four-million-digit integer.
RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


class InputError(ValueError):
    """Malformed or out-of-contract input data."""


def as_rational(x, what: str) -> Fraction:
    """``x`` (an int, a Fraction or a string matching ``RATIONAL_TEXT``) as
    a Fraction.  Anything else, floats and bools above all, raises
    InputError naming ``what``; so does a string that int() refuses to
    convert (``sys.get_int_max_str_digits``), and that error, raised from the
    ValueError, gives the length in digits instead of the string."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str) and RATIONAL_TEXT.fullmatch(x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
        except ValueError as err:  # a run of digits longer than int() converts
            digits = max(map(len, re.findall("[0-9]+", x)))
            raise InputError(
                f"not an exact rational {what}: a run of {digits} digits, over the limit "
                f"of {sys.get_int_max_str_digits()} for an int"
            ) from err
    raise InputError(f"not an exact rational {what}: {x!r}")
