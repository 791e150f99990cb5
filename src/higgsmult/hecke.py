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
of every b_i, counted in closed form and by brute force respectively.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .chain import ChainHiggsBundle, Divisor, PointLike, as_point, is_stable, is_very_stable
from .errors import DomainError, InternalError, ResourceLimitError, UnstableResultError

ENUMERATION_CAP = 10 ** 6


def hecke_remove_zero(c: ChainHiggsBundle, i: int, pt: PointLike) -> ChainHiggsBundle:
    """Remove one zero of b_i at pt; indices >= i drop by one degree.

    Requires a stable chain with pt actually a zero of b_i.  Stability
    of the output holds for every valid input; it is asserted, and a
    violation would be a bug, not a data error.
    """
    pt = as_point(pt)
    n = c.rank
    if not 1 <= i <= n - 1:
        raise DomainError(f"map index must be in 1..{n - 1}, got {i}")
    if not is_stable(c):
        raise DomainError("hecke removal needs a stable chain")
    div = c.zero_divisor(i)
    if div[pt] < 1:
        raise DomainError(f"point {pt.label!r} is not a zero of map {i}")
    new_degrees = tuple(l - 1 if j >= i else l for j, l in enumerate(c.degrees))
    new_zeros = tuple(
        d - Divisor({pt: 1}) if j == i - 1 else d for j, d in enumerate(c.zero_divisors)
    )
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
    if not 1 <= k <= n - 1:
        raise DomainError(f"invariant subspace dimension must be in 1..{n - 1}, got {k}")
    if not is_stable(c):
        raise DomainError("hecke addition needs a stable chain")
    total = sum(d[pt] for d in c.zero_divisors)
    if total != 0:
        raise DomainError(f"point {pt.label!r} is already a zero of the Higgs field")
    cut = n - k
    new_degrees = tuple(l - 1 if j < cut else l for j, l in enumerate(c.degrees))
    new_zeros = tuple(
        d + Divisor({pt: 1}) if j == cut - 1 else d for j, d in enumerate(c.zero_divisors)
    )
    out = ChainHiggsBundle(
        c.genus, new_degrees, c.delta0 - Divisor({pt: 1}), new_zeros
    )
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
    n = c.rank
    out = 1
    for i, m in enumerate(c.m_vector, start=1):
        out *= comb(n, i) ** m
    return out


def intersection_enumerate(
    c: ChainHiggsBundle, cap: int = ENUMERATION_CAP
) -> list[tuple[tuple[tuple[int, str], tuple[int, ...]], ...]]:
    """Brute-force the intersection: every way of choosing, for each
    zero of each b_i, an (n-i)-element subset of the sheet labels 1..n.

    Each assignment is a tuple of ((i, point label), subset) entries.
    The full Cartesian product is returned; its size is checked against
    the cap first.
    """
    if not is_very_stable(c):
        raise DomainError("intersection enumeration is only defined for very stable chains")
    n = c.rank
    slots = []
    size = 1
    for i, div in enumerate(c.zero_divisors, start=1):
        for pt, mult in div:
            # very stable makes every multiplicity 1
            choices = [
                ((i, pt.label), subset)
                for subset in combinations(range(1, n + 1), n - i)
            ]
            slots.append(choices)
            size *= len(choices)
    if size > cap:
        raise ResourceLimitError(f"enumeration size {size} exceeds the cap {cap}")
    return [tuple(pick) for pick in product(*slots)]
