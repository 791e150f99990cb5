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
form depends only on the genus and the blocks, so `_gl_form` builds it
once per process for each checked genus, block degrees and block ranks
(left out for a chain), after the caller's argument checks and, for a
chain, the stability test: one lru_cache of 256 entries, each at most
about 34 KB (rank RANK_CAP).  A caller admits only keys whose ints
`chain.cache_admits`; larger ones are built uncached.  The Euler pairing
reads the Hitchin base through the cached type (n) form.  `MultResult`,
the factored form with its lazy expansion, lives in `polyalg` beside the
functions it calls, so the simple-group formulas share it without
loading this module.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .chain import RANK_CAP, ChainHiggsBundle, WeightDims, _base_terms, block_tplus_dims
from .chain import cache_admits, is_stable
from .errors import DomainError, InternalError, check_cost, check_int
from .polyalg import FactoredChar, MultResult, TruncatedSeries, series_expand


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
    the form of the block (n, 0) is built once per (g, n) (see `_gl_form`)."""
    g, n = check_int("genus", g, 2), check_int("rank", n, 1)
    return (_gl_form if cache_admits(g, n) else _gl_form.__wrapped__)(g, (0,), (n,))


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
    once and refuses a rank above RANK_CAP; then the form of the blocks
    (1, l_i) is built once per (genus, degrees) that `cache_admits` (see
    `_gl_form`), and each call gets its own MultResult over it."""
    if not is_stable(c):
        raise DomainError("multiplicity of a chain needs a stable chain")
    genus, degrees = c.genus, c.degrees
    n = len(degrees)
    check_cost(f"GL_{n}", n, RANK_CAP, "invariant degrees")
    kept = cache_admits(genus, min(degrees), max(degrees))
    return MultResult((_gl_form if kept else _gl_form.__wrapped__)(genus, degrees))


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
    form = (_gl_form if cache_admits(g, w) else _gl_form.__wrapped__)(g, (0, -w), (1, 2))
    return MultResult(form)


@lru_cache(maxsize=256)
def _gl_form(genus: int, degrees: tuple[int, ...], ranks: tuple | None = None) -> FactoredChar:
    """The factored multiplicity of the fixed point whose blocks have
    these degrees and ranks, of checked ints; a stable chain's, every
    rank 1, when `ranks` is left out.  It is the ratio of Sym characters
    of T+ and the rank-n Hitchin base, one merge of the base terms and the
    negated `block_tplus_dims` terms; that call comes first, so a rank
    above RANK_CAP is refused before any work, and lru_cache keeps no
    refusal.  A chain's form is checked against the closed form
    prod_i qbinom(n, i)^{m_i}; equal canonical factored forms are equal
    characters, so nothing is expanded, and a failed check keeps no entry.
    That product's exponent of (1 - t^k) is S(n-k+1) - S(k), where
    S(a) = sum_{i>=a} m_i.  An admitted entry with its key and its
    cyclotomic exponents is at most about 34 KB (a chain of rank
    RANK_CAP), so the cache holds at most 8.7 MB."""
    n = len(degrees) if ranks is None else sum(ranks)
    tplus = block_tplus_dims(genus, [*zip(ranks or [1] * n, degrees)])
    form = FactoredChar._merge([*_base_terms(genus, n), *((k, -d) for k, d in tplus)])
    if ranks is None:
        shift = 2 * genus - 2  # m_i = l_i - l_{i-1} + 2g - 2
        m = [l - k + shift for k, l in zip(degrees, degrees[1:])]
        s = [*accumulate(reversed(m), initial=0)][::-1]  # s[a - 1] = S(a), a = 1..n
        closed = FactoredChar._merge([(k, s[n - k] - s[k - 1]) for k in range(1, n + 1)])
        if closed != form:
            raise InternalError(
                "chain multiplicity: quantum binomial closed form disagrees with the weight ratio"
            )
    return form


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
    character, `_pairing_factored`, expanded as one series.  The genus
    and rank are checked first, as `gl_hitchin_base_dims` checks them.
    """
    g, n = check_int("genus", g, 2), check_int("rank", n, 1)
    pairing = _pairing_factored(mA, mB, g, n)
    if not (mA.is_polynomial and mB.is_polynomial):
        raise DomainError("the pairing needs polynomial multiplicities")
    return series_expand(pairing, order)


def _pairing_factored(mA: MultResult, mB: MultResult, g: int, n: int) -> FactoredChar:
    """m_A * m_B * chi_T(Sym A*), of checked g and n.  T+ at type (n) is
    dim A = n^2 (g-1) + 1 copies of weight 1, so chi_T(Sym A*) is (1-t)^-dim A
    over the master: one merge of the cached master's negated terms, that
    term and both sides' terms, all of them canonical already."""
    master = [(k, -e) for k, e in _type_n_factored(g, n)]
    return FactoredChar._merge([*master, (1, -n * n * (g - 1) - 1), *mA.factored, *mB.factored])
