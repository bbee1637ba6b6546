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


def require_int(name: str, value, low=None, high=None) -> None:
    """Refuse a ``value`` that is not an int (a bool included) or lies
    outside ``low``..``high``, each bound optional."""
    if type(value) is int and (low is None or low <= value) and (high is None or value <= high):
        return
    bound = "" if low is None else f" at least {low}" if high is None else f" from {low} to {high}"
    raise InputError(f"{name} must be an int{bound}, got {value!r}")


def digit_count(n: int) -> int:
    """The number of decimal digits of a nonzero ``n``, without writing it."""
    count = int(abs(n).bit_length() * 0.30102999566398120)  # log10(2): one short at most
    return count + (10**count <= abs(n))


def number_text(q) -> str:
    """``str(q)`` of an int or a Fraction, or, where int() refuses to write
    a part of it, the digit count of its longest part: ``-<6000 digits>``."""
    try:
        return str(q)
    except ValueError:
        digits = max(digit_count(q.numerator), digit_count(q.denominator))
        return f"{'-' if q < 0 else ''}<{digits} digits>"
