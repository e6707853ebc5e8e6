"""Shared exception types.

Every enumerative kernel in the package is budgeted: callers state up front
how many items (domain points, patterns, potential edges) they are willing to
touch, and the kernel refuses with BudgetError instead of starting a run that
cannot finish at desk scale.  A BudgetError carries only its message, which
names the count and the budget it exceeds.  The command line maps BudgetError to its own
exit code so scripted callers can tell "too big" apart from "failed",
ConstructionError to the verdict code without loading the construction, and
GraphFormatError to the usage code without loading the graph reader.
The number texts of messages and artifacts (int_text, ratio_text) are here
too, as every mode loads this module.
"""

import math
import sys


def int_text(n: int, unprintable: str | None = None) -> str:
    """str(n) for a message; unprintable (default "at least 2^<bits - 1>") if str() refuses n."""
    try:
        return str(n)
    except ValueError:  # over sys.get_int_max_str_digits() digits, 4300 by default
        return f"at least 2^{n.bit_length() - 1}" if unprintable is None else unprintable


def ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without loading fractions."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def parse_int(text: str, name: str) -> int:
    """int(text), or a BudgetError naming name for an integer too long for int().

    Text that is no integer raises int()'s own ValueError.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.strip()
        digits = digits[digits[:1] in ("+", "-"):]
        if digits.isdecimal():  # well formed, so longer than int() reads
            raise BudgetError(
                f"{name} has {len(digits)} digits, more than the"
                f" {sys.get_int_max_str_digits()} an integer may have"
            ) from None
        raise


class ZngError(Exception):
    """Base class for package-specific failures."""


class BudgetError(ZngError):
    """An enumeration or search would exceed the configured budget."""


class GraphFormatError(ZngError):
    """A graph's text violates the format contract."""


class ConstructionError(ZngError):
    """The greedy selection ran out of retries.

    Carries the furthest attempt so failures are reportable: attempts is a
    list of (sub_seed, positions_filled, position, pattern) tuples, best
    first.
    """

    def __init__(self, message: str, attempts: list[tuple]):
        super().__init__(message)
        self.attempts = attempts
