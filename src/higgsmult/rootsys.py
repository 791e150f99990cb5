"""Self-contained root system engine for the simple Lie types.

Everything is computed from the Cartan matrix in Bourbaki numbering:
positive roots by height induction with the root-string criterion,
invariant-polynomial degrees by conjugating the height histogram,
cominuscule nodes from the coefficients of the highest root, Levi
subsystems by Dynkin node deletion, and minuscule Weyl orbits (in the
dual system) with their principal-grading depths.  No lookup tables are
consulted at runtime; the classical tables live in the tests as oracles.

The induction packs each root and its Cartan pairings into one int, a
byte per node, and visits only the nodes whose pairing or down-edges
admit a root, so a build costs a few whole-vector operations per root
plus one step per edge of the root poset.  A system keeps its roots
packed, as a `PositiveRoots` view over two bytes objects: the N x l
coefficients in build order, a byte per node, and the N heights.  The
queries read these bytes, with no Root made: the degrees conjugate the
histogram of the heights; the Levi of node i has the roots with c_i = 0,
whose height histogram (the heights picked by the column c_i) is the sum
of its components' histograms, so its conjugate is the union of their
degrees; a minuscule orbit is sized as prod (h + 1) / h over the heights
with c_i > 0, and its depths are carried along the search (s_j lowers mu
by mu_j simple roots) and checked on every edge.  Roots are unpacked
only for a caller that iterates the view, once per view, or indexes it.
`build` refuses systems with more than ROOT_CAP positive roots, and
`weyl_orbit_minuscule` orbits with more than ORBIT_CAP weights.

`build` keeps each type's Cartan matrix and two bytes objects in the
package's one memo, `higgsmult._memo`, keyed by the LieType.  The cap
check runs before the lookup, so no refusal depends on earlier calls; a
hit skips the Cartan matrix and the induction and wraps the kept bytes
in a new view, and hit or miss, the number of heights is checked against
the classical count.  An entry is priced once, by sys.getsizeof, against
the budget `higgsmult.MEMO_BYTES` that polyalg's series share, least
recently used out first; an entry above a quarter of it, such as A80's
318 KB, is never kept, while A60's 144 KB is.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, compress, repeat
from math import prod
from operator import add, index, not_
from sys import getsizeof

from . import Record, _memo
from .errors import DomainError, InternalError, check_cost, check_int

# Root systems with more positive roots than this are refused before any
# work (before the l x l Cartan matrix, too); it admits A140 (9870 roots).
ROOT_CAP = 10_000
# Minuscule orbits with more weights than this are refused before the
# search; it admits the middle node of A18 (92378) and refuses A20's (352716).
ORBIT_CAP = 100_000

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_POSITIVE_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


class LieType(Record, namedtuple("LieType", "family rank")):
    """A simple type: family letter plus rank, Bourbaki numbering."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> "LieType":
        if not isinstance(family, str) or family not in _RANK_RANGE:
            raise DomainError(f"unknown family {family!r}; expected one of A-G")
        lo, hi = _RANK_RANGE[family]
        rank = check_int("rank", rank)
        if rank < lo or (hi is not None and rank > hi):
            span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise DomainError(f"family {family} needs rank {span}, got {rank}")
        return tuple.__new__(cls, (family, rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix a_ij = <alpha_i, alpha_j^v> in Bourbaki numbering."""
    l = t.rank
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2

    def join(i: int, j: int, down: int = -1, up: int = -1) -> None:
        a[i][j] = down
        a[j][i] = up

    fam = t.family
    if fam in ("A", "B", "C"):
        for i in range(l - 1):
            join(i, i + 1)
        if fam == "B" and l >= 2:
            a[l - 2][l - 1] = -2  # alpha_l short
        if fam == "C" and l >= 2:
            a[l - 1][l - 2] = -2  # alpha_l long
    elif fam == "D":
        for i in range(l - 3):
            join(i, i + 1)
        join(l - 3, l - 2)
        join(l - 3, l - 1)
    elif fam == "E":
        join(0, 2)
        join(1, 3)
        for i in range(2, l - 1):
            join(i, i + 1)
    elif fam == "F":
        join(0, 1)
        join(1, 2, down=-2, up=-1)
        join(2, 3)
    elif fam == "G":
        join(0, 1, down=-1, up=-3)
    return tuple(tuple(row) for row in a)


class Root(Record, namedtuple("Root", "coeffs height")):
    """A positive root in simple-root coordinates c_1..c_l, and its height."""

    __slots__ = ()


def _positive_roots(cartan: tuple[tuple[int, ...], ...]) -> tuple[bytes, bytes]:
    """All positive roots of a Cartan matrix, by height induction, packed:
    their coefficients as one bytes object, a byte per node and l per root,
    by height then lexicographically, and their heights, a byte per root.

    alpha + alpha_j is a root iff p - <alpha, alpha_j^v> > 0 where p is
    the largest k with alpha - k*alpha_j still a root; processing one
    height layer at a time keeps every downward string already known.

    Vectors are packed into one int, one byte per node (node j at bit
    8j): a root's coordinates (at most 6), and its pairings
    <alpha, alpha_j^v> (between -3 and 3) offset by 64.  Then alpha +
    alpha_j is one add, the pairings of alpha + alpha_j are those of
    alpha plus the packed row j of the Cartan matrix, and bit 6 of each
    byte answers a test for all nodes at once:

    - pairing < 0: p >= 0 > pairing, so alpha + alpha_j is a root;
    - pairing >= 0: a root needs p > pairing >= 0, so alpha - alpha_j
      is a root (j is a "down" node of alpha, recorded when alpha was
      reached from alpha - alpha_j) and c_j > pairing (as p <= c_j).

    Only nodes passing one of these tests are visited, and only the
    second kind walks its root string, so the cost per root is a few
    whole-vector operations plus one step per edge of the root poset.
    """
    l = len(cartan)
    ones = sum(1 << (8 * j) for j in range(l))
    high = 64 * ones  # bit 6 of every byte
    lift = 127 * ones
    rows = [sum(a << (8 * k) for k, a in enumerate(row)) for row in cartan]
    found: set[int] = set()
    layer = {1 << (8 * j): high + rows[j] for j in range(l)}
    downs = dict.fromkeys(layer, 0)
    layers: list[list[int]] = []
    while layer:
        found.update(layer)
        layers.append(list(layer))
        nxt: dict[int, int] = {}
        nxt_downs: dict[int, int] = {}
        for alpha, pairs in layer.items():
            # byte j of alpha + lift - pairs is c_j - pairing + 63
            mask = ~pairs & high | downs[alpha] & (alpha + lift - pairs)
            while mask:
                flag = mask & -mask
                mask ^= flag
                shift = flag.bit_length() - 7
                pairing = (pairs >> shift & 255) - 64
                unit = 1 << shift
                if pairing >= 0:
                    # p >= 1; stop at pairing + 1 <= c_j, before c_j underflows
                    p = 1
                    down = alpha - 2 * unit
                    while p <= pairing and down in found:
                        p += 1
                        down -= unit
                    if p <= pairing:
                        continue
                cand = alpha + unit
                if cand in nxt:
                    nxt_downs[cand] |= flag
                else:
                    nxt[cand] = pairs + rows[shift >> 3]
                    nxt_downs[cand] = flag
        layer, downs = nxt, nxt_downs
    blob = b"".join(
        b"".join(sorted(alpha.to_bytes(l, "little") for alpha in layer)) for layer in layers
    )
    heights = chain.from_iterable(repeat(h, len(layer)) for h, layer in enumerate(layers, start=1))
    return blob, bytes(heights)


class PositiveRoots(Sequence):
    """The positive roots of a system, a read-only view of two bytes
    objects: `coeffs`, the coefficients c_1..c_l of every root in build
    order, a byte per node, and `heights`, a byte per root.

    It reads as the tuple of its Roots: `len`, indices (negative ones
    count from the end), slices (a tuple of Roots), iteration, hash and
    repr are the tuple's, and it equals another view with the same bytes
    or a tuple of the same Roots.  Roots are made only when read:
    iteration and slices unpack them all, once per view, and keep them in
    it; an index makes the one root it reads.  It pickles by its bytes.

    >>> roots = build(LieType("A", 2)).positive_roots
    >>> len(roots), roots[-1], roots.heights
    (3, Root(coeffs=(1, 1), height=2), b'\\x01\\x01\\x02')
    >>> roots[:2]
    (Root(coeffs=(0, 1), height=1), Root(coeffs=(1, 0), height=1))
    >>> roots == (Root((0, 1), 1), Root((1, 0), 1), Root((1, 1), 2))
    True
    """

    __slots__ = ("coeffs", "heights", "_roots")

    def __init__(self, coeffs: bytes, heights: bytes) -> None:
        self.coeffs, self.heights, self._roots = coeffs, heights, None

    def _unpack(self) -> tuple[Root, ...]:
        if self._roots is None:
            l = len(self.coeffs) // max(len(self.heights), 1)
            self._roots = tuple(map(Root, zip(*[iter(self.coeffs)] * l), self.heights))
        return self._roots

    def __len__(self) -> int:
        return len(self.heights)

    def __iter__(self) -> Iterator[Root]:
        return iter(self._unpack())

    def __getitem__(self, k: "int | slice") -> "Root | tuple[Root, ...]":
        if type(k) is slice:
            return self._unpack()[k]
        n = len(self.heights)
        k = index(k)
        if k < 0:
            k += n
        if not 0 <= k < n:
            raise IndexError(f"positive root index out of range for {n} roots")
        l = len(self.coeffs) // n
        return Root(tuple(self.coeffs[k * l : k * l + l]), self.heights[k])

    def __eq__(self, other: object) -> bool:
        if type(other) is PositiveRoots:
            return self.heights == other.heights and self.coeffs == other.coeffs
        if isinstance(other, tuple):
            return self._unpack() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._unpack())

    def __repr__(self) -> str:
        return repr(self._unpack())

    def __reduce__(self):
        return PositiveRoots, (self.coeffs, self.heights)


class RootSystem(Record, namedtuple("RootSystem", "lie_type cartan positive_roots")):
    """A simple type, its Cartan matrix and its positive roots, kept as a
    `PositiveRoots` view: a view is kept as it is, and any other iterable
    of Roots, or of (coeffs, height) pairs, is packed into one, so a
    hand-made system reads as a built one.  DomainError unless each root
    has lie_type.rank coefficients, and (when packed) every coefficient
    and height is an integer in 0..255."""

    __slots__ = ()

    def __new__(cls, lie_type: LieType, cartan, positive_roots) -> RootSystem:
        l = lie_type.rank
        if type(positive_roots) is not PositiveRoots:
            coeffs, heights = bytearray(), bytearray()
            for c, h in positive_roots:
                if len(c) != l:
                    raise DomainError(f"root {tuple(c)} has {len(c)} coefficients, rank is {l}")
                coeffs += bytes(check_int("root coefficient", x, 0, 255) for x in c)
                heights.append(check_int("root height", h, 0, 255))
            positive_roots = PositiveRoots(bytes(coeffs), bytes(heights))
        if len(positive_roots.coeffs) != l * len(positive_roots):
            raise DomainError(
                f"{len(positive_roots)} roots of {lie_type} need {l} coefficients each, "
                f"got {len(positive_roots.coeffs)} in all"
            )
        return tuple.__new__(cls, (lie_type, cartan, positive_roots))

    @classmethod
    def _make(cls, fields) -> RootSystem:
        # namedtuple's _make and _replace would skip the packing above
        return cls(*fields)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    def column(self, i: int) -> bytes:
        """c_i (node i, 1-based) of every positive root, in build order."""
        return self.positive_roots.coeffs[i - 1 :: self.rank]


def _root_bytes(t: LieType, kept: tuple) -> int:
    """The price of a root entry in the memo, (Cartan matrix, coefficient
    bytes, height bytes) under the LieType: the key, the triple, the
    matrix and its rows, and the two bytes objects.  The matrix entries
    are small ints, which the interpreter caches, so they add nothing."""
    cartan = kept[0]
    return sum(map(getsizeof, (t, kept, *kept, *cartan)))


def build(t: LieType) -> RootSystem:
    """Enumerate the positive roots of t; deterministic order by height
    then lexicographic coordinates.  Raises ResourceLimitError, before
    any work or lookup, when t has more than ROOT_CAP positive roots."""
    expected = _POSITIVE_COUNT[t.family](t.rank)
    check_cost(str(t), expected, ROOT_CAP, "positive roots")
    kept = _memo.find(t)
    if kept is None:
        cartan = cartan_matrix(t)
        kept = (cartan, *_positive_roots(cartan))
        _memo.keep(t, kept, _root_bytes(t, kept))
    cartan, coeffs, heights = kept
    roots = PositiveRoots(coeffs, heights)
    if len(roots) != expected:
        raise InternalError(
            f"{t}: found {len(roots)} positive roots, classical count is {expected}"
        )
    return RootSystem(t, cartan, roots)


def height_histogram(r: RootSystem) -> dict[int, int]:
    """N_j = number of positive roots of height j."""
    return dict(sorted(Counter(r.positive_roots.heights).items()))


class DegreeSet(Record):
    """Multiset of invariant-polynomial degrees: a Record whose tuple is
    its degrees, sorted ascending."""

    __slots__ = ()

    def __new__(cls, degrees) -> "DegreeSet":
        return tuple.__new__(cls, sorted(check_int("degree", d, 1) for d in degrees))

    degrees = property(tuple)
    weyl_order = property(prod)

    def __repr__(self) -> str:
        return f"DegreeSet(degrees={self.degrees!r})"


def _degrees_from_histogram(hist: dict[int, int], rank: int) -> DegreeSet:
    """Decompose sum_j N_j x^j as sum_i (x + ... + x^(d_i - 1)).

    The parts (N_1, N_2, ...) form a partition whose conjugate is the
    multiset {d_i - 1}, so degree j + 1 occurs N_j - N_(j+1) times; a
    non-monotone histogram cannot come from a root system and flags a bug.
    """
    if not hist:
        return DegreeSet(())
    parts = [hist.get(j, 0) for j in range(1, max(hist) + 1)]
    degs = []
    for j, (n, n_next) in enumerate(zip(parts, parts[1:] + [0]), start=1):
        if n < n_next:
            raise InternalError(f"height histogram {hist} is not a partition")
        degs += [j + 1] * (n - n_next)
    if parts[0] != rank:
        raise InternalError(f"histogram has {parts[0]} simple roots, rank is {rank}")
    return DegreeSet(degs)


def degrees(r: RootSystem) -> DegreeSet:
    """Invariant degrees d_1..d_l from the height histogram."""
    return _degrees_from_histogram(height_histogram(r), r.rank)


def cominuscule_nodes(r: RootSystem) -> frozenset[int]:
    """Nodes i (1-based) whose coefficient never exceeds 1 in any
    positive root: those with coefficient 1 in the highest root (the
    last one built), which bounds every coefficient of every root."""
    top = r.positive_roots.coeffs[-r.rank :]
    return frozenset(i for i, c in enumerate(top, start=1) if c == 1)


def levi_degrees(r: RootSystem, i: int) -> DegreeSet:
    """Degrees of the Levi subgroup from deleting node i (1-based).

    The Levi's positive roots are the roots of r with c_i = 0.  Their
    height histogram is the sum of its Dynkin components' histograms,
    whose conjugate is the union of the components' conjugates, so it
    gives the union of the components' degrees at once; one degree-1
    entry for the torus rank lost keeps the result at rank many entries.
    """
    l = r.rank
    i = check_int("node index", i, 1, l)
    hist = Counter(compress(r.positive_roots.heights, map(not_, r.column(i))))
    return DegreeSet(_degrees_from_histogram(hist, l - 1) + (1,))


def weyl_orbit_minuscule(r: RootSystem, i: int) -> list[tuple[tuple[int, ...], int]]:
    """Weyl orbit of the i-th fundamental weight of the dual system.

    Works in fundamental-weight coordinates of the dual (transposed
    Cartan) system, where the reflection s_j subtracts mu_j times row j
    of the Cartan matrix.  Each orbit element mu is graded by
    depth = height of lambda - mu as a combination of dual simple roots.
    s_j moves mu by -mu_j times the j-th dual simple root, so the search
    carries depth(s_j mu) = depth(mu) + mu_j along.  Every edge that
    reaches a weight already seen must agree with its recorded depth,
    every depth must be >= 0, and only lambda may have depth 0.
    Sorted by depth, then lexicographically.  The orbit has prod (h + 1) / h
    = |W/W_P| weights over the positive roots with c_i > 0 (Macdonald's
    formula at t = 1); one above ORBIT_CAP raises ResourceLimitError first.
    """
    i = check_int("node", i)
    if i not in cominuscule_nodes(r):
        raise DomainError(f"node {i} of {r.lie_type} is not cominuscule")
    heights = bytes(compress(r.positive_roots.heights, r.column(i)))
    size = prod(map(add, heights, repeat(1))) // prod(heights)
    check_cost(f"orbit of node {i} of {r.lie_type}", size, ORBIT_CAP, "weights")
    l = r.rank
    dual = tuple(tuple(r.cartan[b][a] for b in range(l)) for a in range(l))
    start = tuple(1 if j == i - 1 else 0 for j in range(l))
    depth = {start: 0}
    frontier = [start]
    while frontier:
        mu = frontier.pop()
        for j, step in enumerate(mu):
            if step == 0:
                continue
            nu = tuple(x - step * a for x, a in zip(mu, dual[j]))
            d = depth[mu] + step
            seen = depth.get(nu)
            if seen is None:
                depth[nu] = d
                frontier.append(nu)
            elif seen != d:
                raise InternalError(f"orbit element {nu} reached at depths {seen} and {d}")
    if min(depth.values()) < 0 or list(depth.values()).count(0) != 1:
        raise InternalError(f"orbit of node {i} of {r.lie_type} is not graded from its top")
    return sorted(depth.items(), key=lambda pair: (pair[1], pair[0]))
