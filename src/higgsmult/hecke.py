"""Hecke-transform rewrites on chains and fibre intersection counts.

A Hecke transform at a point c modifies a chain along a coordinate
invariant subspace.  Two rewrites stay inside chain data:

  * removing a simple zero of b_i twists the top n-i line bundles down
    by c and shortens div(b_i); the result is stable whenever the input
    is (the operation asserts this rather than re-deriving it);

  * adding a zero at a point where no b_i vanishes twists the bottom
    n-k line bundles down by c and gives b_{n-k} a simple zero there.
    Addition carries no blanket stability guarantee, so the output is
    checked and a failure reported as its own error type.

Composing the two in either order returns the chain twisted globally
by O(-c).  `intersection_count` and `intersection_enumerate` realise
the count of a very stable chain's upward flow against a generic
Hitchin fibre: one (n-i)-element subset of the n sheets for every zero
of every b_i, counted in closed form and by enumeration respectively.

The enumeration is an `IntersectionPoints` view of the Cartesian
product of its per-zero slots, never a list of points: building it
costs O(slots), `len` O(1), one index O(slots), and iterating all
points O(size).  Its size is the closed-form count, checked against the
cap before any slot is built; a count is refused past errors.DIGITS_CAP
decimal digits, on a lower bound taken before each power is formed.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations, product
from math import comb, log10, prod
from operator import index

from .chain import ChainHiggsBundle, Divisor, PointLike, as_point, is_stable, is_very_stable
from .errors import DIGITS_CAP, DomainError, InternalError, UnstableResultError
from .errors import check_cost, check_digits, check_int

ENUMERATION_CAP = 10 ** 6
_COUNT = "the intersection count"


def hecke_remove_zero(c: ChainHiggsBundle, i: int, pt: PointLike) -> ChainHiggsBundle:
    """Remove one zero of b_i at pt; indices >= i drop by one degree.

    Requires a stable chain with pt actually a zero of b_i.  Stability
    of the output holds for every valid input; it is asserted, and a
    violation would be a bug, not a data error.
    """
    pt = as_point(pt)
    n = c.rank
    i = check_int("map index", i, 1, n - 1)
    if not is_stable(c):
        raise DomainError("hecke removal needs a stable chain")
    div = c.zero_divisor(i)
    if div[pt] < 1:
        raise DomainError(f"point {pt.label!r} is not a zero of map {i}")
    new_degrees = tuple(l - 1 if j >= i else l for j, l in enumerate(c.degrees))
    unit = Divisor._merge([(pt, 1)])
    new_zeros = tuple(d - unit if j == i - 1 else d for j, d in enumerate(c.zero_divisors))
    out = ChainHiggsBundle(c.genus, new_degrees, c.delta0, new_zeros)
    if not is_stable(out):
        raise InternalError("zero removal broke stability; removal is guaranteed to preserve it")
    return out


def hecke_add_zero(c: ChainHiggsBundle, k: int, pt: PointLike) -> ChainHiggsBundle:
    """Give b_{n-k} a simple zero at pt; indices < n-k drop by one degree.

    pt must not already be a zero of any b_i (the transform needs the
    Higgs field regular there), and delta0 absorbs the twist of L_0 so
    its degree invariant survives.  The output stability check can
    genuinely fail, e.g. adding to a chain whose slopes are tight.
    """
    pt = as_point(pt)
    n = c.rank
    k = check_int("invariant subspace dimension", k, 1, n - 1)
    if not is_stable(c):
        raise DomainError("hecke addition needs a stable chain")
    total = sum(d[pt] for d in c.zero_divisors)
    if total != 0:
        raise DomainError(f"point {pt.label!r} is already a zero of the Higgs field")
    cut = n - k
    new_degrees = tuple(l - 1 if j < cut else l for j, l in enumerate(c.degrees))
    unit = Divisor._merge([(pt, 1)])
    new_zeros = tuple(d + unit if j == cut - 1 else d for j, d in enumerate(c.zero_divisors))
    out = ChainHiggsBundle(c.genus, new_degrees, c.delta0 - unit, new_zeros)
    if not is_stable(out):
        raise UnstableResultError(
            f"adding a zero at {pt.label!r} with k={k} destabilises the chain"
        )
    return out


def apply_move(c: ChainHiggsBundle, op: str, index: int, pt: PointLike) -> ChainHiggsBundle:
    """Dispatch one move from the CLI move-list vocabulary."""
    if op == "remove":
        return hecke_remove_zero(c, index, pt)
    if op == "add":
        return hecke_add_zero(c, index, pt)
    raise DomainError(f"unknown hecke op {op!r}; expected 'remove' or 'add'")


def intersection_count(c: ChainHiggsBundle) -> int:
    """Points of the upward flow over a generic Hitchin base point:
    prod_i C(n, i)^{m_i}.  Asserted only for very stable chains."""
    if not is_very_stable(c):
        raise DomainError("intersection count is only defined for very stable chains")
    return _count(c)


def _count(c: ChainHiggsBundle) -> int:
    """The closed-form product of `intersection_count`, without the
    very-stable verdict its callers have already made."""
    n = c.rank
    out = 1
    for i, m in enumerate(c.m_vector, start=1):
        if m:
            b = comb(n, i)
            # out * b**m >= 2**bits, and 2**bits has int(bits * log10(2)) + 1 digits
            bits = out.bit_length() - 1 + m * (b.bit_length() - 1)
            check_cost(_COUNT, int(bits * log10(2)) + 1, DIGITS_CAP, "digits or more")
            out *= b ** m
    check_digits(_COUNT, out)
    return out


# one choice for one zero: ((i, point label), subset of the sheets)
Entry = tuple[tuple[int, str], tuple[int, ...]]


class IntersectionPoints(Sequence):
    """The points of an intersection, a read-only view of the Cartesian
    product of its slots.

    Each slot lists the choices for one zero: ((i, point label), subset)
    entries.  Iteration is `itertools.product(*slots)`; point k is the
    mixed-radix decoding of k with the last slot varying fastest, so
    `points[k]` is the k-th point of the iteration.  Negative indices
    count from the end; slices are not supported.

    >>> points = IntersectionPoints([(("a", 1), ("a", 2)), (("b", 1), ("b", 2), ("b", 3))])
    >>> len(points), points[4], points[-1]
    (6, (('a', 2), ('b', 2)), (('a', 2), ('b', 3)))
    """

    __slots__ = ("_slots", "_size")

    def __init__(self, slots: "Iterable[Iterable[Entry]]") -> None:
        self._slots = tuple(tuple(slot) for slot in slots)
        self._size = prod(map(len, self._slots))

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[tuple[Entry, ...]]:
        return product(*self._slots)

    def __getitem__(self, k: int) -> tuple[Entry, ...]:
        k = index(k)
        if k < 0:
            k += self._size
        if not 0 <= k < self._size:
            raise IndexError(f"intersection point index out of range for {self._size} points")
        picks = []
        for slot in reversed(self._slots):
            k, r = divmod(k, len(slot))
            picks.append(slot[r])
        return tuple(reversed(picks))


def intersection_enumerate(
    c: ChainHiggsBundle, cap: int = ENUMERATION_CAP
) -> IntersectionPoints:
    """Enumerate the intersection: every way of choosing, for each
    zero of each b_i, an (n-i)-element subset of the sheet labels 1..n.

    Each point is a tuple of ((i, point label), subset) entries, one per
    zero.  The points come back as an `IntersectionPoints` view over the
    per-zero slots, in the order of their Cartesian product; no point is
    built until it is read.  Sizes above the cap, read off the closed-form
    count, are refused before any slot is built.
    """
    cap = check_int("cap", cap)
    if not is_very_stable(c):
        raise DomainError("intersection enumeration is only defined for very stable chains")
    check_cost("the enumeration", _count(c), cap, "points")
    n = c.rank
    slots = [
        # very stable makes every multiplicity 1
        tuple(((i, pt.label), subset) for subset in combinations(range(1, n + 1), n - i))
        for i, div in enumerate(c.zero_divisors, start=1)
        for pt, _ in div
    ]
    return IntersectionPoints(slots)
