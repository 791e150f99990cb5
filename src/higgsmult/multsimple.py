"""Multiplicity formulas for simple structure groups.

For a simple group with root system ``r`` and a vector of zero counts
``m = (m_1, ..., m_l)`` (one entry per simple root, in Bourbaki order), the
virtual multiplicity of the corresponding nilpotent-cone component is the
exact rational character

    prod over i, prod over positive roots a:
        ((1 - t^(h+1)) / (1 - t^h)) ** (m_i * c_i(a)),

where ``h`` is the height of ``a`` and ``c_i(a)`` its coefficient on the
i-th simple root.  The product usually fails to be a polynomial; this module
evaluates it exactly, provides the always-polynomial closed form attached to
cominuscule nodes (a quotient of invariant-degree factors), cross-checks the
latter against minuscule Weyl orbits, and runs brute-force polynomiality
scans over grids of m.
"""
from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Sequence

from . import Record
from .errors import DomainError, InternalError, check_cost
from . import polyalg
from .polyalg import FactoredChar, IntPoly, MultResult, expand, expand_work, power_product
from .rootsys import (
    RootSystem,
    cominuscule_nodes,
    degrees,
    levi_degrees,
    weyl_orbit_minuscule,
)

# Grids larger than this are refused; (bound+1)**rank grows fast and every
# point costs a full expand().
SCAN_CAP = 100_000


def _checked_m(r: RootSystem, m: Sequence[int]) -> tuple[int, ...]:
    entries = tuple(m)
    if len(entries) != r.rank:
        raise DomainError(
            f"m has {len(entries)} entries but {r.lie_type} has rank {r.rank}"
        )
    for x in entries:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise DomainError(f"entries of m must be nonnegative integers, got {x!r}")
    return entries


def unit_multiplicity_factored(r: RootSystem, i: int) -> FactoredChar:
    """Factored multiplicity for a single zero of b_i (m = i-th unit vector)."""
    if not 1 <= i <= r.rank:
        raise DomainError(f"node {i} out of range for {r.lie_type}")
    pairs = []
    for root in r.positive_roots:
        c = root.coeffs[i - 1]
        if c:
            h = root.height
            pairs += ((h + 1, c), (h, -c))
    return FactoredChar(pairs)


def mult_simple(r: RootSystem, m: Sequence[int]) -> MultResult:
    """Virtual multiplicity for zero counts m, one entry per simple root.

    Multiplicative in m: the factored form for m + m' is the product of the
    factored forms, so the all-zero vector gives the constant 1.
    """
    entries = _checked_m(r, m)
    return MultResult(
        power_product(
            (unit_multiplicity_factored(r, i), mi) for i, mi in enumerate(entries, start=1) if mi
        )
    )


def mult_cominuscule(r: RootSystem, i: int) -> MultResult:
    """Closed-form multiplicity at a cominuscule node: full degrees over Levi degrees.

    Always a polynomial (the quotient is the Poincare polynomial of G/P);
    a non-polynomial outcome indicates a bug, not bad input.
    """
    if i not in cominuscule_nodes(r):
        raise DomainError(f"node {i} of {r.lie_type} is not cominuscule")
    result = MultResult(
        FactoredChar([(d, 1) for d in degrees(r)] + [(n, -1) for n in levi_degrees(r, i)])
    )
    if not result.is_polynomial:
        raise InternalError(
            f"cominuscule quotient for {r.lie_type} node {i} is not a polynomial"
        )
    return result


def gross_check(r: RootSystem, i: int) -> bool:
    """True iff sum of t^depth over the minuscule orbit equals mult_cominuscule."""
    counts = Counter(depth for _, depth in weyl_orbit_minuscule(r, i))
    coeffs = [counts[k] for k in range(max(counts) + 1)]
    return IntPoly(tuple(coeffs)) == mult_cominuscule(r, i).polynomial


class ScanEntry(Record, namedtuple("ScanEntry", "m result")):
    """One grid point of a polynomiality scan: m and its IntPoly or
    NotPolynomial."""

    __slots__ = ()

    @property
    def is_polynomial(self) -> bool:
        return isinstance(self.result, IntPoly)


class ScanReport(Record, namedtuple("ScanReport", "lie_type bound entries")):
    __slots__ = ()

    @property
    def polynomial_count(self) -> int:
        return sum(1 for e in self.entries if e.is_polynomial)

    @property
    def non_polynomial_count(self) -> int:
        return len(self.entries) - self.polynomial_count


def polynomiality_scan(r: RootSystem, bound: int, cap: int = SCAN_CAP) -> ScanReport:
    """Evaluate mult_simple on every m with 0 <= m_i <= bound.

    Entries come out in lexicographic order of m, so the all-zero vector
    (always polynomial, value 1) is first.  Each unit factored form is
    computed once and combined by `power_product`, mult_simple's
    accumulation, which agrees with the per-root product by
    multiplicativity.  Refused above `cap` points, or before any expansion
    once the summed costs of their expansions' series paths
    (polyalg.expand_work) pass polyalg.SERIES_WORK_CAP.
    """
    if bound < 1:
        raise DomainError(f"scan bound must be >= 1, got {bound}")
    check_cost("scan grid", (bound + 1) ** r.rank, cap, "points")
    units = [unit_multiplicity_factored(r, i) for i in range(1, r.rank + 1)]
    scope = f"scan of {r.lie_type} to bound {bound}"
    points = []
    work = 0
    for m in itertools.product(range(bound + 1), repeat=r.rank):
        f = power_product(zip(units, m))
        work += expand_work(f)
        what = f"{scope} at m = {list(m)}"
        check_cost(what, work, polyalg.SERIES_WORK_CAP, "units of series work")
        points.append((m, f))
    entries = tuple(ScanEntry(m=m, result=expand(f)) for m, f in points)
    return ScanReport(lie_type=r.lie_type, bound=bound, entries=entries)
