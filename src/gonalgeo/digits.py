"""How reported numbers print.

A number in a message prints in full up to ``_EXACT_BITS`` bits and as
a magnitude past them (``_magnitude``).  A number in a payload prints in
full, or is a CapacityError once it has more digits than the interpreter
converts to a string (``_decimal``): Python refuses str() of ints past
``sys.get_int_max_str_digits()`` digits, 4300 by default.
"""

import sys
from math import floor, log10

from .errors import CapacityError

# past this many bits a number in a message prints as a magnitude
_EXACT_BITS = 1000
# the interpreter's default int-to-str limit, a ceiling for input that
# nothing else bounds when the limit is lifted
DEFAULT_DIGIT_LIMIT = 4300


def int_digit_limit() -> int:
    """Most digits the interpreter converts between int and str, 0 for
    no limit.  Read, never set: the limit is interpreter-wide state."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def _floor_log10(x: float) -> int:
    """An e with 10^e <= 10^x, for a float base-10 logarithm x: x is
    shaved by a relative 1e-12, far above its rounding error, first."""
    return floor(x - abs(x) * 1e-12)


def _magnitude(n: int) -> str:
    """``n`` in decimal, or as a lower bound 10^e once it is too long to
    print in a message."""
    if n.bit_length() <= _EXACT_BITS:
        return str(n)
    e = int((n.bit_length() - 1) * log10(2))
    if 10**e > abs(n):  # guard the float against rounding up
        e -= 1
    return f"at least 10^{e}" if n > 0 else f"at most -10^{e}"


def _unprintable(what: str, magnitude: str, limit: int) -> CapacityError:
    return CapacityError(
        f"{what} is {magnitude}, more than the {limit} digits this interpreter prints"
    )


def _decimal(n: int, what: str) -> str:
    """``n`` in decimal, or CapacityError when it has more digits than
    the interpreter converts to a string."""
    limit = int_digit_limit()
    # below 2^(3 * limit) = 8^limit, n is short enough without computing 10^limit
    if limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit:
        raise _unprintable(what, _magnitude(n), limit)
    return str(n)
