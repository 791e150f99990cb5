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
latter against minuscule Weyl orbits, and runs polynomiality scans over
grids of m.  A scan reads the polynomial points off the unit forms'
cyclotomic exponents once, as the face of the grid that is zero on a
set of barred nodes, and expands only the points of that face.
"""
from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Sequence
from operator import mul

from . import Record
from .errors import DomainError, InternalError, check_cost, check_int
from . import polyalg
from .polyalg import FactoredChar, IntPoly, MultResult, NotPolynomial, power_product
from .rootsys import RootSystem, cominuscule_nodes, degrees, levi_degrees, weyl_orbit_minuscule

# Grids larger than this are refused; (bound+1)**rank grows fast and every
# point gets an entry of its own.
SCAN_CAP = 100_000


def unit_multiplicity_factored(r: RootSystem, i: int) -> FactoredChar:
    """Factored multiplicity for a single zero of b_i (m = i-th unit vector).

    A root of height h with c_i = c contributes (1 - t^(h+1))^c (1 - t^h)^-c,
    so the roots of height h give +s_h at h + 1 and -s_h at h, s_h the sum
    of their c_i: one pass over the system's height and c_i bytes, with
    no Root made.
    """
    i = check_int("node", i)
    if not 1 <= i <= r.rank:
        raise DomainError(f"node {i} out of range for {r.lie_type}")
    sums: dict[int, int] = {}
    for h, c in zip(r.positive_roots.heights, r.column(i)):
        if c:
            sums[h] = sums.get(h, 0) + c
    pairs = [(h + 1, s) for h, s in sums.items()] + [(h, -s) for h, s in sums.items()]
    return FactoredChar._merge(pairs)  # heights and coefficients are ints, h >= 1


def mult_simple(r: RootSystem, m: Sequence[int]) -> MultResult:
    """Virtual multiplicity for zero counts m, one entry per simple root.

    Multiplicative in m: the factored form for m + m' is the product of the
    factored forms, so the all-zero vector gives the constant 1.
    """
    entries = tuple(check_int("m-vector entry", x, 0) for x in m)
    if len(entries) != r.rank:
        raise DomainError(f"m has {len(entries)} entries but {r.lie_type} has rank {r.rank}")
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
    i = check_int("node", i)
    if i not in cominuscule_nodes(r):
        raise DomainError(f"node {i} of {r.lie_type} is not cominuscule")
    result = MultResult(
        FactoredChar._merge([(d, 1) for d in degrees(r)] + [(n, -1) for n in levi_degrees(r, i)])
    )
    if not result.is_polynomial:
        raise InternalError(
            f"cominuscule quotient for {r.lie_type} node {i} is not a polynomial"
        )
    return result


def gross_check(r: RootSystem, i: int) -> bool:
    """True iff sum of t^depth over the minuscule orbit equals mult_cominuscule.

    The orbit sizes itself from the roots, so the degrees are computed
    once, by the closed form."""
    closed = mult_cominuscule(r, i)
    counts = Counter(depth for _, depth in weyl_orbit_minuscule(r, i))
    coeffs = [counts[k] for k in range(max(counts) + 1)]
    return IntPoly(tuple(coeffs)) == closed.polynomial


class _Witness:
    """A non-polynomial scan point's NotPolynomial, expanded on first read:
    `polyalg.expand` of the power product of the unit forms, so under
    expand's admission and through its memo; kept once built."""

    __slots__ = ("units", "m", "answer")

    def __init__(self, units: tuple[FactoredChar, ...], m: tuple[int, ...]) -> None:
        self.units, self.m, self.answer = units, m, None

    def read(self) -> "NotPolynomial":
        if self.answer is None:
            self.answer = polyalg.expand(power_product(zip(self.units, self.m)))
        return self.answer


class ScanEntry(Record, namedtuple("ScanEntry", "m result")):
    """One grid point of a polynomiality scan: m and its IntPoly or
    NotPolynomial.

    A scan holds a non-polynomial point's witness unexpanded (a `_Witness`)
    and `result` builds it on first read; `is_polynomial` never expands.
    Equality, hashing, iteration, copies and repr read `result`, so such an
    entry equals the one built with its witness given."""

    __slots__ = ()

    @property
    def result(self) -> "IntPoly | NotPolynomial":
        result = tuple.__getitem__(self, 1)
        return result.read() if type(result) is _Witness else result

    @property
    def is_polynomial(self) -> bool:
        return isinstance(tuple.__getitem__(self, 1), IntPoly)

    def __iter__(self):
        return iter((self.m, self.result))

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other):
        return type(other) is type(self) and tuple(self) == tuple(other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ScanEntry(m={self.m!r}, result={self.result!r})"


class ScanReport(Record, namedtuple("ScanReport", "lie_type bound entries")):
    __slots__ = ()

    @property
    def polynomial_count(self) -> int:
        return sum(1 for e in self.entries if e.is_polynomial)

    @property
    def non_polynomial_count(self) -> int:
        return len(self.entries) - self.polynomial_count


def _barred_nodes(r: RootSystem, units: Sequence[FactoredChar]) -> set[int]:
    """The nodes (0-based) where every polynomial scan point is zero.

    A cyclotomic row (c_d(u_1), ..., c_d(u_l)) of the unit forms with no
    positive entry bars each node where it is negative, as an m positive
    there has c_d(m) = sum m_i c_d(u_i) < 0.  If the unit form at every
    other node is a polynomial, m is one exactly when it is zero on the
    barred nodes; otherwise InternalError is raised.
    """
    ds = {d for u in units for d in u._cyclotomic}
    rows = [[u._cyclotomic.get(d, 0) for u in units] for d in ds]
    barred = {i for row in rows if max(row) <= 0 for i, c in enumerate(row) if c < 0}
    for i, u in enumerate(units):
        if i not in barred and not polyalg.is_polynomial(u):
            raise InternalError(
                f"the unit form at node {i + 1} of {r.lie_type} is not a polynomial, yet unbarred"
            )
    return barred


def polynomiality_scan(r: RootSystem, bound: int, cap: int = SCAN_CAP) -> ScanReport:
    """Evaluate mult_simple on every m with 0 <= m_i <= bound.

    Entries come out in lexicographic order of m, so the all-zero vector
    (always polynomial, value 1) is first.  The polynomial points are
    those zero on the `_barred_nodes`: the product of one axis per node,
    (0,) where barred and 0..bound elsewhere.  Only they are expanded,
    by one depth-first walk over the axes: each prefix of m holds one
    running series, as long as the longest half D(m) // 2 + 1 of a point
    under it (D(m) = sum m_i deg u_i); each child starts from a prefix
    slice of it, and between siblings it is multiplied in place by the
    next unit factored form u_i.  A point's polynomial is unfolded from
    the slice of its length, as `expand` unfolds its own series.  The
    walk costs at most, summed over its prefixes, length * bound *
    (sum |e(u_i)| + 1) kernel updates; it is priced point by point in
    lexicographic order before any series exists, and refused at the
    first point that takes it past polyalg.SERIES_WORK_CAP.  Grids of
    more than `cap` points are refused first.  A non-polynomial point's
    witness is expanded only when its entry's `result` is read (see
    ScanEntry), so the price leaves it out.
    """
    bound, cap = check_int("scan bound", bound, 1), check_int("cap", cap)
    check_cost("scan grid", (bound + 1) ** r.rank, cap, "points")
    units = tuple(unit_multiplicity_factored(r, i) for i in range(1, r.rank + 1))
    barred = _barred_nodes(r, units)
    axes = [(0,) if i in barred else range(bound + 1) for i in range(r.rank)]
    degrees = [sum(k * e for k, e in u) for u in units]
    steps = [bound * (sum(abs(e) for _, e in u) + 1) for u in units]
    lengths: dict[tuple[int, ...], int] = {}  # prefix of m -> its series length
    work = 0
    for m in itertools.product(*axes):
        length = sum(map(mul, m, degrees)) // 2 + 1
        for j, step in enumerate(steps):
            head = m[:j]
            grown = length - lengths.get(head, 0)
            if grown > 0:
                work += grown * step
                lengths[head] = length
        if work > polyalg.SERIES_WORK_CAP:  # the message is built only to refuse
            what = f"scan of {r.lie_type} to bound {bound} at m = {list(m)}"
            check_cost(what, work, polyalg.SERIES_WORK_CAP, "units of series work")
    totals = [sum(e for _, e in u) for u in units]
    results: dict[tuple[int, ...], IntPoly] = {}

    def walk(prefix: tuple[int, ...], series: list[int]) -> None:
        i = len(prefix)
        for k in axes[i]:
            if k:
                polyalg._kernel(units[i], len(series), series)
            m = prefix + (k,)
            if i + 1 < r.rank:
                walk(m, series[: lengths[m]])
            else:
                degree = sum(map(mul, m, degrees))
                odd = sum(map(mul, m, totals)) % 2
                results[m] = polyalg._unfold(series[: degree // 2 + 1], degree, odd)

    walk((), [1] + [0] * (lengths[()] - 1))
    entries = tuple(
        ScanEntry(m, results[m] if m in results else _Witness(units, m))
        for m in itertools.product(range(bound + 1), repeat=r.rank)
    )
    return ScanReport(lie_type=r.lie_type, bound=bound, entries=entries)
