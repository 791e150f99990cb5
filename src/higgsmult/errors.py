"""Exception hierarchy shared by every module.

Three kinds of failure are kept apart deliberately: bad input data
(DomainError), a computation that would exceed a configured cap
(ResourceLimitError), and a broken internal invariant that callers
should never be able to trigger (InternalError).  The command line
maps them to exit codes 2, 3 and 70.  `check_int` is the only code
that converts or refuses a number a caller passes: an argument, a cap,
a record's fields, an m-vector's entries, a sparse map's keys and
counts.  It refuses a non-integer, a bool or a value out of range with
a DomainError naming what it checks, and never truncates.  Every cap
is enforced by one call of `check_cost`, with a cost known before the
work it bounds, but for the printing limit: `check_digits` runs after
the work.
"""

from math import log10
from operator import index

# Python's default int-to-str limit: what passes `check_digits` prints.
DIGITS_CAP = 4300
# GL ranks above this are refused before any work, as are quantum binomials
# (n, k) with k above it: GL_141 has 9870 positive roots, as A_140, the
# largest type A under rootsys.ROOT_CAP.
RANK_CAP = 141


class DomainError(ValueError):
    """Input violates a documented precondition or data invariant."""


class ResourceLimitError(RuntimeError):
    """A configured size or enumeration cap would be exceeded."""


def check_int(what: str, value: object, lo: "int | None" = None, hi: "int | None" = None) -> int:
    """`value` as an int, refused unless an integer (not a bool) >= lo
    and, when hi is given too, <= hi.

    >>> check_int("genus", 2.5, 2)
    Traceback (most recent call last):
    ...
    higgsmult.errors.DomainError: genus must be an integer, got 2.5
    """
    if type(value) is not int:  # the common case costs one type test
        try:
            if isinstance(value, bool):
                raise TypeError
            value = index(value)
        except TypeError:
            raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if lo is not None and (value < lo or hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise DomainError(f"{what} must be {span}, got {value}")
    return value


def check_cost(what: str, cost: int, cap: int, unit: str) -> None:
    """Refuse work whose cost, counted in `unit`, is above `cap`.

    >>> check_cost("A300", 45150, 10_000, "positive roots")
    Traceback (most recent call last):
    ...
    higgsmult.errors.ResourceLimitError: A300 has 45150 positive roots, above the cap 10000
    """
    if cost > cap:
        raise ResourceLimitError(f"{what} has {cost} {unit}, above the cap {cap}")


def check_digits(what: str, n: int) -> None:
    """Refuse an integer whose decimal form has more than DIGITS_CAP digits.

    >>> check_digits("x", 10 ** 4300 - 1)
    >>> check_digits("x", -10 ** 4300)
    Traceback (most recent call last):
    ...
    higgsmult.errors.ResourceLimitError: x has 4301 digits, above the cap 4300
    """
    n = abs(n)
    # n >= 2**(bits - 1), which has int((bits - 1) * log10(2)) + 1 digits
    digits = int((n.bit_length() - 1) * log10(2)) + 1
    check_cost(what, digits + (n >= 10 ** digits), DIGITS_CAP, "digits")


class InternalError(RuntimeError):
    """A mathematically guaranteed invariant failed; this is a bug."""


class UnstableResultError(DomainError):
    """A rewrite produced a chain that fails the stability inequality."""
