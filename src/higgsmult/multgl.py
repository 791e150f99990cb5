"""Virtual equivariant multiplicities for GL_n fixed-point components.

The multiplicity of the nilpotent-cone component attached to a fixed
point E is the ratio of equivariant characters

    m_E(t) = chi_T(Sym T+*) / chi_T(Sym A*),

a product of (1-t^k) factors with integer exponents read off from the
two weight gradings, T+ always by `chain.block_tplus_dims` on the fixed
point's blocks: type (n), the downward-flow closure of the Hitchin
section, is the block (n, 0); type (1,...,1), chains of line bundles,
the blocks (1, l_i); the rank-3 type (1,2) family of the wobbly
polynomiality threshold, the blocks (1, 0), (2, -w).  Each expands to an
exact integer polynomial or provably fails to; `value_at_1` of the
polynomial is the honest multiplicity of the component.  The factored
forms of type (n), type (1,2) and type (1,...,1) depend only on small
integers, so each is built once per process for its checked (g, n),
(g, 2l - v) or (g, degrees), after the argument checks and, for a chain,
the stability test: lru_caches of 128 entries of at most about 30 KB
(n = RANK_CAP), of 256 entries under 1.3 KB, and of 128 entries of at
most about 35 KB (rank RANK_CAP).  Each admits only keys that
`chain.cache_admits`; larger ones are built uncached.  `MultResult`,
the factored form with its lazy expansion, lives in `polyalg` beside
the functions it calls, so the simple-group formulas share it without
loading this module.
"""

from __future__ import annotations

from functools import lru_cache

from .chain import RANK_CAP, ChainHiggsBundle, WeightDims, block_tplus_dims, cache_admits
from .chain import gl_hitchin_base_dims, is_stable
from .errors import DomainError, InternalError, check_cost, check_int
from .polyalg import (
    FactoredChar,
    MultResult,
    TruncatedSeries,
    power_product,
    qbinom_factored,
    series_expand,
)


def virtual_multiplicity(tplus: WeightDims, base: WeightDims) -> MultResult:
    """The ratio of Sym characters in factored form: exponent of
    (1-t^k) is base[k] - tplus[k], one merge of both gradings' terms.
    Gradings other than WeightDims go through the checking constructor."""
    pairs = [*base, *((k, -d) for k, d in tplus)]
    canonical = type(base) is WeightDims and type(tplus) is WeightDims
    return MultResult((FactoredChar._merge if canonical else FactoredChar)(pairs))


def _type_n_factored(g: int, n: int) -> FactoredChar:
    """The type (n) master's factored form, shared by `mult_type_n`,
    `master_divisibility` and `euler_prefactor`: the genus and rank are
    checked on every call, as `gl_hitchin_base_dims` checks them, then
    the form is built once per (g, n) (see `_type_n`)."""
    g, n = check_int("genus", g, 2), check_int("rank", n, 1)
    return (_type_n if cache_admits(g, n) else _type_n.__wrapped__)(g, n)


@lru_cache(maxsize=128)
def _type_n(g: int, n: int) -> FactoredChar:
    """The type (n) form of checked ints.  The base refuses a rank above
    RANK_CAP, and lru_cache keeps no refusal.  An admitted entry with its
    cyclotomic exponents is at most about 30 KB (n = RANK_CAP), so the
    cache holds at most 3.8 MB."""
    base = gl_hitchin_base_dims(g, n)
    return virtual_multiplicity(block_tplus_dims(g, [(n, 0)]), base).factored


def mult_type_n(g: int, n: int) -> MultResult:
    """Multiplicity of the component downstream of the Hitchin section:
    prod_{i=2..n} [i]_t^{(2i-1)(g-1)}."""
    result = MultResult(_type_n_factored(g, n))
    if not result.is_polynomial:
        raise InternalError("the type (n) multiplicity must expand to a polynomial")
    return result


def mult_type111(c: ChainHiggsBundle) -> MultResult:
    """Multiplicity of a chain fixed point's component:
    prod_i qbinom(n, i)^{m_i}, cross-checked against the weight-ratio
    definition on every miss.  Every call tests the chain for stability
    once and refuses a rank above RANK_CAP; then the factored form is
    built once per (genus, degrees) that `cache_admits` (see `_type111`),
    and each call gets its own MultResult over it."""
    if not is_stable(c):
        raise DomainError("multiplicity of a chain needs a stable chain")
    genus, degrees = c.genus, c.degrees
    n = len(degrees)
    check_cost(f"GL_{n}", n, RANK_CAP, "invariant degrees")
    kept = cache_admits(genus, min(degrees), max(degrees))
    return MultResult((_type111 if kept else _type111.__wrapped__)(genus, degrees))


@lru_cache(maxsize=128)
def _type111(genus: int, degrees: tuple[int, ...]) -> FactoredChar:
    """The type (1,...,1) form of a stable chain's genus and degrees, the
    closed form checked against the weight ratio.  Equal canonical
    factored forms are equal characters, so the check compares factored
    forms and nothing is expanded; T+ is `block_tplus_dims` of the blocks
    (1, l_i).  An admitted entry with its cyclotomic exponents is at most
    about 35 KB (rank RANK_CAP), so the cache holds at most 4.4 MB."""
    n = len(degrees)
    base = gl_hitchin_base_dims(genus, n)
    shift = 2 * genus - 2  # m_i = l_i - l_{i-1} + 2g - 2
    factored = power_product(
        (qbinom_factored(n, i), l - k + shift)
        for i, (k, l) in enumerate(zip(degrees, degrees[1:]), start=1)
    )
    tplus = block_tplus_dims(genus, [(1, l) for l in degrees])
    if factored != virtual_multiplicity(tplus, base).factored:
        raise InternalError(
            "chain multiplicity: quantum binomial closed form disagrees with the weight ratio"
        )
    return factored


def mult_type12_rank3(g: int, twol_minus_v: int) -> MultResult:
    """Rank-3 type (1,2) component multiplicity, parameterized by the
    single integer 2l - v inside the stability window 0 < 2l - v < 3g-3:

        (1+t)^(g-1-(2l-v)) * (1+t+t^2)^(5g-5),

    a polynomial exactly when 2l - v <= g - 1 (the wobbly threshold);
    past the threshold the (1+t) factors sit in the denominator and do
    not cancel.  T+ is `block_tplus_dims` of the blocks (1, 0), (2, v - 2l)."""
    g = check_int("genus", g, 2)  # a genus below 2 is refused before the window
    w = check_int("2l-v", twol_minus_v)
    if not 0 < w < 3 * g - 3:
        raise DomainError(
            f"2l-v = {w} outside the stability window 0 < 2l-v < {3 * g - 3} at genus {g}"
        )
    return MultResult((_type12 if cache_admits(g, w) else _type12.__wrapped__)(g, w))


@lru_cache(maxsize=256)
def _type12(g: int, w: int) -> FactoredChar:
    """The type (1,2) form of a checked genus and window: three factors,
    under 1.3 KB an admitted entry with its cyclotomic exponents, so the
    cache holds at most 0.33 MB."""
    base = gl_hitchin_base_dims(g, 3)
    return virtual_multiplicity(block_tplus_dims(g, [(1, 0), (2, -w)]), base).factored


def master_divisibility(m: MultResult, g: int, n: int) -> bool:
    """Whether m divides the type (n) master multiplicity at (g, n).

    Both are products of cyclotomic polynomials, whose exponents add
    under multiplication, so m divides the master exactly when
    c_d(master) >= c_d(m) for every d: one comparison of the two exponent
    maps that the factored forms already hold.  Nothing is expanded."""
    if not m.is_polynomial:
        raise DomainError("divisibility needs a polynomial multiplicity")
    ours = m.factored._cyclotomic
    master = _type_n_factored(g, n)._cyclotomic
    return all(master.get(d, 0) >= ours.get(d, 0) for d in master.keys() | ours.keys())


def euler_prefactor(g: int, n: int) -> int:
    """Exponent of the monomial character of the weight-1 line against the
    dual base: deg mult_type_n = (4n+1)(n-1)n(g-1)/6, 3g-3 at n = 2."""
    return sum(k * e for k, e in _type_n_factored(g, n))


def euler_pairing_series(
    mA: MultResult, mB: MultResult, g: int, n: int, order: int
) -> TruncatedSeries:
    """Series of m_A(t) * m_B(t) * chi_T(Sym A*) through t^order.

    The character pairing of the two components' structure sheaves over
    the moduli space; visibly symmetric in its two arguments.  All three
    factors are products of (1-t^k) powers, so the pairing is one factored
    character, `_pairing_factored`, expanded as one series.
    """
    base = gl_hitchin_base_dims(g, n)
    if not (mA.is_polynomial and mB.is_polynomial):
        raise DomainError("the pairing needs polynomial multiplicities")
    return series_expand(_pairing_factored(mA, mB, base), order)


def _pairing_factored(mA: MultResult, mB: MultResult, base: WeightDims) -> FactoredChar:
    """m_A * m_B * chi_T(Sym A*): one merge of the base grading's negated
    terms and both sides' terms, all of them canonical already."""
    return FactoredChar._merge([*((k, -d) for k, d in base), *mA.factored, *mB.factored])
