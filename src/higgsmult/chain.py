"""Fixed-point chains of Higgs bundles and their tangent weight data.

A type (1,...,1) fixed point on a curve of genus g >= 2 is a chain

    E = L_0 + L_1 + ... + L_{n-1},    b_i : L_{i-1} -> L_i (x) K,

encoded here by the line bundle degrees l_i, the effective zero divisor
of each b_i, and a signed divisor presenting L_0.  Writing
m_i = l_i - l_{i-1} + 2g - 2, each b_i is nonzero exactly when
m_i >= 0, and deg(div b_i) = m_i.  The choice of all the divisors pins
the chain down completely: L_i is recovered from L_0 and the div b_j.

`block_tplus_dims` gives the positive-weight tangent dimensions at any
GL_n fixed point by Riemann-Roch on its blocks' (rank, degree): type
(1,...,1) is the blocks (1, l_i) (`tplus_dims`), type (n) the block
(n, 0), type (1,2) the blocks (1, 0), (2, -w).  `gl_hitchin_base_dims`
gives the Hitchin base weights, which double as those of a cotangent
fibre.  Both feed the virtual multiplicity ratio; `tplus_dims`, the
base and `chain_from_m` refuse ranks above RANK_CAP (`errors.RANK_CAP`),
and `chain_from_m` m-vectors with more than ZERO_CAP zeros too, each by
an `errors.check_cost` call before any work.
The fresh-zero chains of `chain_from_m` are built once per process for
each checked key, after every check: an lru_cache of 64 entries.  Every
genus-keyed cache of the package (this one and `multgl`'s GL forms,
keyed by genus, degrees and ranks) admits a key only when
`cache_admits` its ints, each strictly within 2^KEY_BITS of zero, and a
chain only with at most CACHED_ZEROS zeros and as many maps b_i; larger
keys are built uncached, so no entry grows with the caller's numbers.
The chain-file reader checks every number by `errors.check_int`, naming
its place in the file.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache

from . import Record, SparseMap
from .errors import RANK_CAP, DomainError, check_cost, check_int

# chain_from_m refuses m-vectors with more zeros than this before building
# any point (each zero is a labelled Point; 10^5 of them take about 0.6 s).
ZERO_CAP = 100_000
# A genus-keyed cache keeps only keys whose ints all lie strictly within
# 2^KEY_BITS of zero, and chains with at most CACHED_ZEROS zeros and maps.
KEY_BITS = 30
CACHED_ZEROS = 64
_KEY_LIMIT = 1 << KEY_BITS


class Point(Record, namedtuple("Point", "label")):
    """A closed point of the curve, identified by its label."""

    __slots__ = ()

    def __new__(cls, label: str) -> "Point":
        if not isinstance(label, str) or not label:
            raise DomainError("point label must be a nonempty string")
        return tuple.__new__(cls, (label,))


PointLike = Point | str


def as_point(p: PointLike) -> Point:
    return p if isinstance(p, Point) else Point(p)


class Divisor(SparseMap):
    """Formal integer combination of points: the sparse map from Point
    (a label is accepted) to multiplicity; `multiplicities` is its
    sorted terms."""

    __slots__ = ()

    _key = staticmethod(as_point)

    multiplicities = property(lambda self: self.terms)

    @classmethod
    def zero(cls) -> "Divisor":
        return cls._merge(())

    @classmethod
    def of_points(cls, *labels: PointLike) -> "Divisor":
        """Sum of the given points, with multiplicity per repetition."""
        return cls._merge([(as_point(p), 1) for p in labels])

    degree = property(SparseMap.total)

    @property
    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.terms)

    @property
    def is_reduced(self) -> bool:
        """Effective with every multiplicity exactly one."""
        return all(m == 1 for _, m in self.terms)

    def points(self) -> tuple[Point, ...]:
        return tuple(p for p, _ in self.terms)


class WeightDims(SparseMap):
    """Dimensions of a graded vector space: the sparse map from positive
    weight to dimension, so absent weights read 0 and equal gradings
    compare equal."""

    __slots__ = ()

    _noun = "weight"


class ChainHiggsBundle(
    Record, namedtuple("ChainHiggsBundle", "genus degrees delta0 zero_divisors")
):
    """A chain fixed point: genus, line bundle degrees, and divisors.

    zero_divisors[i-1] is the divisor of b_i for i = 1..n-1 and must be
    effective of degree m_i = l_i - l_{i-1} + 2g - 2; delta0 is a signed
    divisor of degree l_0 presenting the first line bundle.  Plain
    mappings like {"p": 2} are accepted wherever a Divisor is.
    """

    __slots__ = ()

    def __new__(
        cls,
        genus: int,
        degrees: Iterable[int],
        delta0: "Divisor | Mapping" = Divisor.zero(),
        zero_divisors: "Iterable[Divisor | Mapping]" = (),
    ) -> "ChainHiggsBundle":
        genus = check_int("genus", genus, 2)
        degrees = tuple(check_int("line bundle degree", d) for d in degrees)
        if len(degrees) < 1:
            raise DomainError("a chain needs at least one line bundle degree")
        zeros = tuple(z if isinstance(z, Divisor) else Divisor(z) for z in zero_divisors)
        if len(zeros) != len(degrees) - 1:
            raise DomainError(
                f"expected {len(degrees) - 1} zero divisors for rank {len(degrees)}, got {len(zeros)}"
            )
        delta0 = delta0 if isinstance(delta0, Divisor) else Divisor(delta0)
        if delta0.degree != degrees[0]:
            raise DomainError(
                f"delta0 has degree {delta0.degree}, the first line bundle needs {degrees[0]}"
            )
        self = tuple.__new__(cls, (genus, degrees, delta0, zeros))
        for i, (div, m) in enumerate(zip(zeros, self.m_vector), start=1):
            if m < 0:
                raise DomainError(
                    f"m_{i} = {m} < 0: degrees {degrees} admit no nonzero map at step {i}"
                )
            # a divisor's counts are nonzero: it is effective when none is negative
            counts = div._dict.values()
            if counts and min(counts) < 0:
                raise DomainError(f"zero divisor at step {i} is not effective")
            if sum(counts) != m:
                raise DomainError(
                    f"zero divisor at step {i} has degree {sum(counts)}, expected m_{i} = {m}"
                )
        return self

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def m_vector(self) -> tuple[int, ...]:
        """m_i = l_i - l_{i-1} + 2g - 2 for i = 1..n-1."""
        g = self.genus
        l = self.degrees
        return tuple(l[i] - l[i - 1] + 2 * g - 2 for i in range(1, len(l)))

    def zero_divisor(self, i: int) -> Divisor:
        """Divisor of b_i, 1-based."""
        return self.zero_divisors[check_int("map index", i, 1, self.rank - 1) - 1]


def make_chain(
    genus: int,
    degrees: Iterable[int],
    zeros: Iterable[Divisor | Mapping] = (),
    delta0: "Divisor | Mapping | None" = None,
) -> ChainHiggsBundle:
    """Build a chain, defaulting delta0 to a multiple of a base point.

    The default is built from the first degree only after the genus and
    the degrees pass the checks `ChainHiggsBundle` makes, in its order."""
    if delta0 is None:
        genus = check_int("genus", genus, 2)
        degrees = tuple(check_int("line bundle degree", d) for d in degrees)
        delta0 = Divisor._merge([(Point("o"), degrees[0])] if degrees else ())
    return ChainHiggsBundle(genus, degrees, delta0, zeros)


def cache_admits(*ints: int) -> bool:
    """Whether a genus-keyed cache may keep a key of these ints: each of
    them lies strictly within 2^KEY_BITS of zero."""
    return max(map(abs, ints)) < _KEY_LIMIT


def chain_from_m(genus: int, m: Iterable[int], top_degree: int = 0) -> ChainHiggsBundle:
    """The chain with the given m-vector, fresh reduced disjoint zeros.

    Degrees start at top_degree and descend by 2g - 2 - m_i; the zero
    divisor of b_i takes m_i distinct points labelled zi.1, zi.2, ...
    so the result is very stable whenever it is stable.  More than
    ZERO_CAP zeros, or a rank len(m) + 1 above RANK_CAP, is refused with
    ResourceLimitError before any point is built.  Checked on every
    call, then built once per (genus, m, top_degree) (see `_chain_from_m`)
    when the key is admitted: at most CACHED_ZEROS zeros and entries in m,
    and `cache_admits` the genus and top degree.
    """
    m = tuple(check_int("m-vector entry", x, 0) for x in m)
    zeros = sum(m)
    check_cost("m-vector", zeros, ZERO_CAP, "zeros")
    check_cost(f"GL_{len(m) + 1}", len(m) + 1, RANK_CAP, "invariant degrees")
    genus = check_int("genus", genus, 2)
    top = check_int("top degree", top_degree)
    kept = zeros <= CACHED_ZEROS and len(m) <= CACHED_ZEROS and cache_admits(genus, top)
    return (_chain_from_m if kept else _chain_from_m.__wrapped__)(genus, m, top)


@lru_cache(maxsize=64)
def _chain_from_m(genus: int, m: tuple[int, ...], top: int) -> ChainHiggsBundle:
    """The fresh-zero chain of checked ints, shared by every caller: the
    chain and its divisors are immutable.  An admitted entry is at most
    about 35 KB (64 maps with one zero each), so the cache holds at most
    2.2 MB."""
    degrees = [top]
    for mi in m:
        degrees.append(degrees[-1] + mi - (2 * genus - 2))
    zeros = tuple(
        Divisor._merge([(Point(f"z{i}.{j}"), 1) for j in range(1, mi + 1)])
        for i, mi in enumerate(m, start=1)
    )
    return make_chain(genus, degrees, zeros)


class Stability(
    Record, namedtuple("Stability", "unstable_index repeated_zero", defaults=(None, None))
):
    """The first condition a chain fails on the way to very stability.

    unstable_index is the smallest j whose invariant subbundle
    L_j + ... + L_{n-1} violates the slope inequality; repeated_zero is
    the first point (in sorted order) where the combined zero divisor of
    b_1 + ... + b_{n-1} has multiplicity >= 2, looked for only on a
    stable chain.
    """

    __slots__ = ()

    @property
    def stable(self) -> bool:
        return self.unstable_index is None

    @property
    def very_stable(self) -> bool:
        return self.stable and self.repeated_zero is None

    @property
    def reason(self) -> "str | None":
        """Why the chain is not very stable, or None if it is."""
        if self.unstable_index is not None:
            return f"unstable at index {self.unstable_index}"
        if self.repeated_zero is not None:
            return f"repeated zero at {self.repeated_zero.label}"
        return None


def unstable_index(c: ChainHiggsBundle) -> "int | None":
    """Smallest j whose invariant subbundle L_j + ... + L_{n-1} violates
    the strict slope inequality n*(l_j + ... + l_{n-1}) < (n-j)*(l_0 + ... + l_{n-1}),
    or None for a stable chain (rank one is vacuously stable)."""
    l = c.degrees
    n = c.rank
    total = sum(l)
    tail = total
    for j in range(1, n):
        tail -= l[j - 1]
        if not n * tail < (n - j) * total:
            return j
    return None


def is_stable(c: ChainHiggsBundle) -> bool:
    """Exact slope test: no invariant subbundle violates the inequality."""
    return unstable_index(c) is None


def stability(c: ChainHiggsBundle) -> Stability:
    """The slope test, then the very-stability test on a stable chain.

    A stable chain is very stable when its combined zero divisor is
    reduced: a repeated zero (within one b_i or shared between two of
    them) admits a nonzero nilpotent second-order deformation.
    """
    j = unstable_index(c)
    if j is not None:
        return Stability(unstable_index=j)
    combined: dict[Point, int] = {}
    for div in c.zero_divisors:
        for p, m in div:
            combined[p] = combined.get(p, 0) + m
    repeated = [p for p, m in combined.items() if m >= 2]
    return Stability(repeated_zero=min(repeated) if repeated else None)


def is_very_stable(c: ChainHiggsBundle) -> bool:
    """Stable, and the combined zero divisor of b_1 + ... + b_{n-1} is reduced."""
    return stability(c).very_stable


def block_tplus_dims(genus: int, blocks: Sequence[tuple[int, int]]) -> WeightDims:
    """Positive tangent weight dimensions at a GL_n fixed point, from the
    (rank >= 1, degree) of its blocks E_0..E_{s-1}, phi: E_a -> E_{a+1} (x) K:

      dim_k = delta_{k,1} - sum_{a-b=k} chi(E_a, E_b) + sum_{a-b=k-1} chi(E_a, E_b (x) K)

    over the pairs b <= a, with chi(E, F) = rk E deg F - rk F deg E +
    rk E rk F (1-g) by Riemann-Roch and delta for the Higgs field's trace.
    At a stable fixed point the relevant cohomology vanishes, so these are
    dimensions; they total n^2 (g-1) + 1, n the sum of the ranks.

    >>> block_tplus_dims(2, [(3, 0)]).as_dict()  # type (3)
    {1: 10}
    >>> block_tplus_dims(2, [(1, 0), (2, -1)]).as_dict()  # type (1,2)
    {1: 7, 2: 3}
    """
    genus = check_int("genus", genus, 2)
    blocks = [(check_int("block rank", r, 1), check_int("block degree", d)) for r, d in blocks]
    if not blocks:
        raise DomainError("a GL_n fixed point needs at least one block")
    n = sum(r for r, _ in blocks)
    check_cost(f"GL_{n}", n, RANK_CAP, "invariant degrees")
    g1 = genus - 1
    dims = [0, 1] + [0] * (len(blocks) - 1)  # dims[k] at index k
    for a, (ra, da) in enumerate(blocks):
        for b, (rb, db) in enumerate(blocks[: a + 1]):
            chi = ra * db - rb * da - ra * rb * g1  # chi(E_a, E_b)
            if a > b:
                dims[a - b] -= chi
            dims[a - b + 1] += chi + 2 * ra * rb * g1  # chi(E_a, E_b (x) K)
    return WeightDims._merge(enumerate(dims[1:], 1))


def tplus_dims(c: ChainHiggsBundle) -> WeightDims:
    """`block_tplus_dims` of a stable chain: one block (1, l_i) per line bundle."""
    check_cost(f"GL_{c.rank}", c.rank, RANK_CAP, "invariant degrees")
    if not is_stable(c):
        raise DomainError("positive tangent weights need a stable chain")
    return block_tplus_dims(c.genus, [(1, l) for l in c.degrees])


def gl_hitchin_base_dims(genus: int, n: int) -> WeightDims:
    """Weights of the rank-n Hitchin base: g at weight 1, then
    (2k-1)(g-1) at each weight 2 <= k <= n, built on every call."""
    genus, n = check_int("genus", genus, 2), check_int("rank", n, 1)
    check_cost(f"GL_{n}", n, RANK_CAP, "invariant degrees")
    return WeightDims._merge(_base_terms(genus, n))


def _base_terms(genus: int, n: int) -> list[tuple[int, int]]:
    """The base grading's terms, of checked ints: sorted and nonzero."""
    return [(1, genus)] + [(k, (2 * k - 1) * (genus - 1)) for k in range(2, n + 1)]


def twist(c: ChainHiggsBundle, p: PointLike, mult: int = -1) -> ChainHiggsBundle:
    """Tensor the whole chain by O(mult * p): every degree moves by mult,
    delta0 absorbs the twist, all zero divisors stay put."""
    p, mult = as_point(p), check_int("twist multiplicity", mult)
    return ChainHiggsBundle(
        c.genus,
        tuple(l + mult for l in c.degrees),
        c.delta0 + Divisor({p: mult}),
        c.zero_divisors,
    )


def _divisor_to_json(d: Divisor) -> dict[str, int]:
    return {p.label: m for p, m in d}


def _divisor_from_json(obj: object, where: str) -> Divisor:
    if not isinstance(obj, dict):
        raise DomainError(f"{where}: expected an object mapping labels to multiplicities")
    pairs = []
    for label, m in obj.items():
        if not isinstance(label, str) or not label:
            raise DomainError(f"{where}: point labels must be nonempty strings")
        pairs.append((Point(label), check_int(f"{where} multiplicity of {label!r}", m)))
    return Divisor._merge(pairs)


def chain_to_json(c: ChainHiggsBundle) -> dict:
    """Plain-JSON form: genus, degrees, delta0, and one object per b_i."""
    return {
        "genus": c.genus,
        "degrees": list(c.degrees),
        "delta0": _divisor_to_json(c.delta0),
        "zeros": [_divisor_to_json(d) for d in c.zero_divisors],
    }


def chain_from_json(obj: object) -> ChainHiggsBundle:
    """Parse and validate a chain, naming the failed invariant on error."""
    if not isinstance(obj, dict):
        raise DomainError("chain: expected a JSON object")
    unknown = set(obj) - {"genus", "degrees", "delta0", "zeros"}
    if unknown:
        raise DomainError(f"chain: unknown fields {sorted(unknown)}")
    for key in ("genus", "degrees", "delta0", "zeros"):
        if key not in obj:
            raise DomainError(f"chain: missing field {key!r}")
    genus = check_int("chain genus", obj["genus"])
    degrees = obj["degrees"]
    if not isinstance(degrees, list):
        raise DomainError("chain: degrees must be a list of integers")
    degrees = [check_int(f"chain degrees[{i}]", d) for i, d in enumerate(degrees)]
    zeros_json = obj["zeros"]
    if not isinstance(zeros_json, list):
        raise DomainError("chain: zeros must be a list of divisor objects")
    delta0 = _divisor_from_json(obj["delta0"], "chain delta0")
    zeros = tuple(
        _divisor_from_json(z, f"chain zeros[{i}]") for i, z in enumerate(zeros_json)
    )
    return ChainHiggsBundle(genus, tuple(degrees), delta0, zeros)
