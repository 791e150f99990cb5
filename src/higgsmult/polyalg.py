"""Exact polynomial arithmetic over the integers in one variable t.

Everything is exact: coefficients are arbitrary-precision Python ints,
and a failed expansion is reported as a value (NotPolynomial), never as
a rounded answer.  Graded characters are carried around in the
factored form

    prod_k (1 - t^k)^{e_k},   e_k integer (possibly negative),

a `FactoredChar`: the package's `SparseMap` k -> e_k.

Since t^k - 1 = prod_{d|k} Phi_d (cyclotomic polynomials), such a
character is +-prod_d Phi_d^{c_d} with c_d = sum_{d|k} e_k, and it is a
polynomial exactly when every c_d >= 0 (`is_polynomial`); divisibility
of one character by another is the same test on the quotient; each
`FactoredChar` computes its c_d once (`_cyclotomic`, a dict sorted by d,
summed straight from the cached divisor tuples of each k).

Two exact paths turn a factored character into its power series through
a given order.  The kernel works in place on one coefficient list.  The
list starts as the binomial series of f's largest factor (1 - t^k)^e,
the largest |e| among k < length with ties to the smallest k, one exact
step per coefficient (when that |e| is 1 the list starts as 1, 0, 0, ...,
since the start would save no pass); then multiplying by each other (1 - t^k) subtracts
the list shifted by k, dividing by (1 - t^k) takes prefix sums over each
residue class mod k, and multiply and divide steps alternate so the
coefficients stay small.  It makes length x (sum |e_k| - max |e_k| + 2)
passes, so a character with one dominant factor, such as an Euler
pairing against a type (n) side, takes about one pass.  It is admitted
by length x (sum |e_k| + 1) coefficient updates (`series_work`), one per
unit of exponent, since the coefficients' bits grow with every unit.
The log-derivative recurrence (`_recurrence`) reads each coefficient
off the previous deg Q by one dot product with small
weights, Q the product of the distinct cyclotomic factors; the weights
move by Q from one coefficient to the next.  It costs length x (deg Q + 1)
steps of deg Q big-integer products each, whatever the exponents, and its
up-front cost counts word operations: that times the 64-bit words of a
bound on the coefficient bits (for a polynomial, the product of its
cyclotomic factors' L1 norms).
`_series_plan` takes, of the paths within SERIES_WORK_CAP, the one with
the lower predicted time, from costs known before any work; when neither
fits, `errors.check_cost` refuses the series before any list exists.
`expand` runs it to half the degree of a polynomial and mirrors the rest
(each (1 - t^k) is anti-palindromic); for a non-polynomial it runs only
through N', the numerator degree in lowest terms, which the same
symmetry shows to hold the witness; `_read_off` turns such a series into
the answer, building the IntPoly directly (an expanded polynomial's
coefficients are ints with top coefficient +-1, so there is nothing to
convert or trim), and the scan of `multsimple` calls it on series it
builds by multiplying one kernel list in place.  `series_expand` runs a
series to the requested order.  Both keep their results in the
package's one memo, `higgsmult._memo`, keyed apart: `series_expand` (in
`_series`) keeps f.terms -> the longest list computed for f, whose
prefixes serve shorter requests; `expand` keeps (f.terms,) -> its
finished IntPoly or NotPolynomial and the kernel's admission cost of its
series, so a repeat returns the same object from one lookup.  A kept list
long enough, or a kept answer, is served with no plan when `series_work`
is within SERIES_WORK_CAP, since no plan refuses what the kernel admits;
any other request is planned and cost-checked first, as a cold one, and
a kept answer is then served without being run again.  The memo is only
peeked at before that, so no refusal depends on earlier calls and none
counts a lookup.  An entry is priced once, when it is offered, by
sys.getsizeof of what it holds (the key and its pairs; a list and its
ints, or the answer Record, an IntPoly's coefficient tuple and each
distinct int object once, so a palindrome's mirrored half is free unless
negated), against the memo's budget `higgsmult.MEMO_BYTES`, which the
root systems of `rootsys` share; least recently used out first, and an
entry above a quarter of it is never kept.
`qbinom_factored` refuses k above `errors.RANK_CAP` (141, the largest
rank a GL multiplicity asks).
`value_at_one` reads f(1) off the cyclotomic exponents, with no
expansion; `MultResult`, a multiplicity held in factored form, answers
from those exponents and expands on first read.  `divides` is the one
long-division entry point, for polynomials already in dense form.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Callable, Iterable
from functools import cached_property, lru_cache
from itertools import accumulate, zip_longest
from math import ceil, isqrt, lgamma, log, log2
from operator import mul, neg, sub
from sys import getsizeof

from . import Record, SparseMap, _memo
from .errors import RANK_CAP, DomainError, InternalError, check_cost, check_int

# A series path whose up-front cost is above this is refused: kernel
# coefficient updates, or recurrence word operations.  mult_type_n(16, 8)
# costs 4.4e6 on the kernel and 3.0e6 on the recurrence.
SERIES_WORK_CAP = 10 ** 7

# Predicted recurrence time in kernel coefficient updates:
# _RATIO * length * (deg Q + 1) + _SETUP, fitted on timings of both paths
# (type (n), type (1,2), pairing, chain and simple-type series).
_RATIO = 5
_SETUP = 500


class IntPoly(Record, namedtuple("IntPoly", "coeffs")):
    """Dense integer polynomial, coefficients listed by ascending power.

    >>> p = IntPoly((1, 0, 1))   # 1 + t^2
    >>> p.degree
    2
    >>> (p * p).coeffs
    (1, 0, 2, 0, 1)
    """

    __slots__ = ()

    def __new__(cls, coeffs: "Iterable[int]" = ()) -> "IntPoly":
        c = tuple(check_int("polynomial coefficient", a) for a in coeffs)
        n = len(c)
        while n and c[n - 1] == 0:
            n -= 1
        return tuple.__new__(cls, (c[:n],))

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def value_at_one(self) -> int:
        return sum(self.coeffs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(tuple(out))

    def __pow__(self, n: int) -> "IntPoly":
        n = check_int("polynomial power", n, 0)
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class NotPolynomial(Record, namedtuple("NotPolynomial", "remainder_degree")):
    """Witness that a factored character fails to expand to a polynomial.

    Carries the degree of the nonzero remainder left by the attempted
    long division of numerator by denominator.
    """

    __slots__ = ()


def qbinom(n: int, k: int) -> IntPoly:
    """Quantum binomial coefficient, by exact division.

    The product prod_{j=1..k} (1-t^(n-j+1))/(1-t^j); the division is
    exact, giving the Poincare polynomial of the Grassmannian of
    k-planes in n-space.

    >>> qbinom(4, 2).coeffs
    (1, 1, 2, 1, 1)
    >>> qbinom(5, 0).coeffs
    (1,)
    """
    result = expand(qbinom_factored(n, k))
    if not isinstance(result, IntPoly):
        raise InternalError(f"quantum binomial ({n},{k}) did not divide exactly")
    return result


def qbinom_factored(n: int, k: int) -> "FactoredChar":
    """Factored form of qbinom(n, k): +1 at n-j+1, -1 at j, for j = 1..k.

    n and k are refused unless integers with 0 <= k <= n, n >= 1; then
    every factor index lies in 1..n, so the terms merge unchecked.  A k
    above RANK_CAP, the largest GL rank, is refused with
    ResourceLimitError before anything is built, as the form has 2k
    factors.
    """
    n, k = check_int("n", n), check_int("k", k)
    if n < 1 or k < 0 or k > n:
        raise DomainError(f"quantum binomial needs 0 <= k <= n, n >= 1; got k={k}, n={n}")
    check_cost(f"quantum binomial ({n},{k})", k, RANK_CAP, "factor pairs")
    return FactoredChar._merge(
        [(n - j + 1, 1) for j in range(1, k + 1)] + [(j, -1) for j in range(1, k + 1)]
    )


class FactoredChar(SparseMap):
    """A product prod_k (1 - t^k)^{e_k} with integer exponents e_k.

    The sparse map k -> e_k over k >= 1; `factors` is its sorted terms.
    Multiplication adds exponents pointwise; integer powers scale them.
    """

    _noun = "factor index"

    factors = property(lambda self: self.terms)

    __mul__ = SparseMap.__add__
    __pow__ = SparseMap.scale

    @cached_property
    def _cyclotomic(self) -> dict[int, int]:
        """c_d = sum_{d|k} e_k, nonzero ones only, sorted by d."""
        c: dict[int, int] = {}
        for k, e in self.terms:
            for d in _divisors(k):
                c[d] = c[d] + e if d in c else e
        return {d: e for d, e in sorted(c.items()) if e}


def power_product(powers: Iterable[tuple[FactoredChar, int]]) -> FactoredChar:
    """prod f ** m over the (f, m) pairs, in one merge.

    Each m is checked once; every f that is not a FactoredChar is built as
    one first, whatever its power, so every term merged is canonical and a
    malformed f is refused even at m = 0.

    >>> power_product([(qbinom_factored(4, 2), 3), (FactoredChar({5: 1}), 0)]).factors
    ((1, -3), (2, -3), (3, 3), (4, 3))
    """
    pairs = []
    try:
        for f, m in powers:
            m = check_int("power", m)
            if type(f) is not FactoredChar:  # read as pairs, never as a mapping
                f = FactoredChar(iter(f))
            if m:
                pairs += [(k, m * e) for k, e in f.terms]
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:  # as the constructor refuses what is not pairs
        raise DomainError(f"FactoredChar takes (key, integer) pairs: {exc}") from None
    return FactoredChar._merge(pairs)


@lru_cache(maxsize=4096)
def _divisors(k: int) -> tuple[int, ...]:
    """The divisors of k, ascending; a tuple, since the value is shared."""
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return (*small, *(k // d for d in reversed(small) if d * d != k))


def is_polynomial(f: FactoredChar) -> bool:
    """True when f expands to a polynomial: every cyclotomic exponent is >= 0.

    >>> is_polynomial(FactoredChar({3: 5, 1: -6}))
    False
    """
    return all(c >= 0 for c in f._cyclotomic.values())


def value_at_one(f: FactoredChar) -> int:
    """f(1) for a polynomial f, read off its cyclotomic exponents: Phi_1(1)
    is 0, Phi_d(1) is p when d is a power of the prime p, and 1 otherwise.

    >>> value_at_one(FactoredChar({2: 3, 1: -3}))  # (1 + t)^3
    8
    >>> value_at_one(FactoredChar({6: 1, 3: -1, 2: -1, 1: 1}))  # Phi_6
    1
    """
    if not is_polynomial(f):
        raise DomainError("the value at 1 needs a polynomial character")
    if f._cyclotomic.get(1):
        return 0
    out = 1
    for d, c in f._cyclotomic.items():
        primes = _primes(d)
        if len(primes) == 1:
            out *= primes[0] ** c
    return out


def series_work(f: FactoredChar, length: int) -> int:
    """Admission cost of `length` series coefficients of f on the kernel:
    one pass over the list to allocate it and one per factor
    (1 - t^k)^{+-1} with k < length.

    The kernel's binomial start makes the largest factor a single pass,
    but the bits of the coefficients still grow with its exponent
    (C(j + 125, 125), the t^j coefficient of (1 - t)^{-126}, has 1797 bits
    at j = 10^6), so admission still counts one pass per unit of exponent:
    a long series of one large factor, such as a pairing at order 10^6,
    is refused up front, not run into gigabytes of coefficients."""
    return length * (sum(abs(e) for k, e in f if k < length) + 1)


def _expand_length(f: FactoredChar) -> int:
    """How many series coefficients `expand` reads: through half the degree
    of a polynomial, else through the degree N' = sum_{c_d > 0} c_d phi(d)
    of the numerator in lowest terms, past which no witness index lies
    (see expand)."""
    if is_polynomial(f):
        return sum(k * e for k, e in f) // 2 + 1
    return sum(c * _totient(d) for d, c in f._cyclotomic.items() if c > 0) + 1


def _primes(d: int) -> list[int]:
    """The distinct primes dividing d, by trial division."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return out + [d] if d > 1 else out


@lru_cache(maxsize=4096)
def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    out = d
    for p in _primes(d):
        out -= out // p
    return out


def _cyclotomic_factors(d: int) -> list[tuple[int, int]]:
    """Phi_d, scaled to constant term 1, as (k, e_k) pairs: the product of
    (1 - t^(d/s))^mu(s) over the squarefree divisors s of d."""
    pairs = [(d, 1)]
    for p in _primes(d):
        pairs += [(k // p, -e) for k, e in pairs]
    return pairs


def _coefficient_bits(f: FactoredChar, length: int) -> float:
    """Bound on the bits of the first `length` series coefficients of f.

    A polynomial f = +-prod Phi_d^{c_d} has no coefficient larger than its
    L1 norm, and so none larger than prod ||Phi_d||_1^{c_d}.  Otherwise
    |coefficients| of prod (1 - t^k)^{e_k} sum to at most 2^{e_k}, and the
    denominator is bounded coefficientwise by (1 - t)^(-E) with E the sum
    of the negative exponents' sizes."""
    if is_polynomial(f):
        return sum(c * _norm_bits(d) for d, c in f._cyclotomic.items())
    neg = -sum(e for _, e in f if e < 0)
    bits = sum(e for _, e in f if e > 0)
    if neg:
        bits += (lgamma(length + neg - 1) - lgamma(neg) - lgamma(length)) / log(2)
    return bits


@lru_cache(maxsize=4096)
def _norm_bits(d: int) -> float:
    """log2 of ||Phi_d||_1, the sum of the sizes of its coefficients."""
    phi = FactoredChar._merge(_cyclotomic_factors(d))
    return log2(sum(map(abs, _kernel(phi, _totient(d) + 1))))


def _series_plan(f: FactoredChar, length: int) -> "tuple[Callable | None, int]":
    """The path for `length` series coefficients of f and its up-front cost.

    The kernel is admitted by series_work coefficient updates.  The
    recurrence costs length * (deg Q + 1) * words, counted in word
    operations, where words is the number of 64-bit words of
    `_coefficient_bits`; it is a candidate only when deg Q < length, so
    building its stencil costs no more than running it.  Of the paths
    within SERIES_WORK_CAP the one with the lower predicted time runs: the
    kernel's is the passes it makes, length * (sum |e_k| - max |e_k| + 2)
    over k < length (its largest factor is one binomial pass), the
    recurrence's is _RATIO * length * (deg Q + 1) + _SETUP.  When neither
    fits, the path is None and the cost is the kernel's admission cost.
    Admission and timing differ on purpose: see series_work.
    """
    kernel = series_work(f, length)
    fits = kernel <= SERIES_WORK_CAP
    passes = kernel - length * (max((abs(e) for k, e in f if k < length), default=0) - 1)
    if fits and passes <= _RATIO * length + _SETUP:  # below any recurrence's time
        return _kernel, kernel
    degree = sum(map(_totient, f._cyclotomic))
    faster = _RATIO * length * (degree + 1) + _SETUP < passes
    if degree < length and (faster or not fits):
        recurrence = length * (degree + 1) * max(1, ceil(_coefficient_bits(f, length) / 64))
        if recurrence <= SERIES_WORK_CAP:
            return _recurrence, recurrence
    return (_kernel if fits else None), kernel


def _kernel(f: FactoredChar, length: int, start: "list[int] | None" = None) -> list[int]:
    """The first `length` series coefficients of f, on one list in place;
    given a `start` list of that length, its series times f, in place.

    Without a start, the list begins as the binomial series of f's largest
    factor (1 - t^k)^e, the largest |e| among k < length with ties to the
    smallest k: c[jk] = c[(j-1)k] (j-1-e) / j, one exact step per
    coefficient.  Only the other factors then take a pass over the list.
    When that |e| is 1 the start would save no pass, so the list begins
    as 1, 0, 0, ... and every factor takes its pass.
    """
    if start is None:
        # terms are sorted by k, so max keeps the smallest k of a tie; with
        # no factor below length, top = length leaves the list 1, 0, 0, ...
        top, e = max((p for p in f if p[0] < length), key=lambda p: abs(p[1]), default=(length, 0))
        if abs(e) <= 1:  # one pass either way, and the pass runs in C
            top, e = length, 0
        c = [0] * length
        steps = range(1, (length - 1) // top + 1)
        c[::top] = accumulate(steps, lambda a, j: a * (j - 1 - e) // j, initial=1)
    else:
        top, c = 0, start
    ups = [k for k, e in f if e > 0 and k < length and k != top for _ in range(e)]
    downs = [k for k, e in f if e < 0 and k < length and k != top for _ in range(-e)]
    for up, down in zip_longest(ups, downs):
        if up:  # times (1 - t^up)
            c[up:] = map(sub, c[up:], c[:-up])
        if down:  # over (1 - t^down)
            for r in range(down):
                c[r::down] = accumulate(c[r::down])
    return c


def _recurrence(f: FactoredChar, length: int) -> list[int]:
    """The first `length` series coefficients of f by its log-derivative.

    With f = prod_d Phi_d^{c_d}, Q = prod_{c_d != 0} Phi_d (each with
    constant term 1) of degree D and R = Q * t f'/f, a polynomial of degree
    at most D, Q * t f' = R * f gives
    n f_n = sum_{j=1..D} (R_j + j Q_j - n Q_j) f_{n-j}, an exact division.
    Step n's weights are step n-1's minus Q, so each step is one pass of
    small-integer subtractions, then one dot product of the weights with the
    last D coefficients: D big-integer products per coefficient.
    """
    stencil = FactoredChar._merge(p for d in f._cyclotomic for p in _cyclotomic_factors(d))
    degree = sum(k * e for k, e in stencil)
    q = _kernel(stencil, degree + 1)
    # t f'/f = -sum_k k e_k t^k / (1 - t^k): coefficient n is -sum_{k|n} k e_k
    logd = [0] * (degree + 1)
    for k, e in f:
        for n in range(k, degree + 1, k):
            logd[n] -= k * e
    # in window order j = D..1: Q_j, and R_j + j Q_j with R_j coefficient j
    # of Q * t f'/f; step n subtracts Q once more, leaving R_j + j Q_j - n Q_j
    qs = q[degree:0:-1]
    weights = [sum(map(mul, q[:j], logd[j:0:-1])) + j * q[j] for j in range(degree, 0, -1)]
    out = [1]
    window = deque([0] * (degree - 1) + out, maxlen=degree)  # f_{n-D} .. f_{n-1}
    for n in range(1, length):
        weights = list(map(sub, weights, qs))
        fn = sum(map(mul, weights, window)) // n
        out.append(fn)
        window.append(fn)
    return out


def _series_bytes(key: tuple, kept: "list[int] | tuple") -> int:
    """The price of a series entry in the memo, by sys.getsizeof of what it
    holds (for an int, int.__sizeof__ is the same without its slower
    lookup); reckoned once, when the entry is offered.

    A series list, under f.terms: the key tuple, its (k, e) pairs, the
    list and its ints.  An expansion, under (f.terms,): the key, f.terms
    and its pairs, the (answer, work) pair, the answer Record, an IntPoly's
    coefficient tuple, and each distinct int object once: the work, a
    NotPolynomial's degree or the coefficients, where a palindrome's upper
    half holds its lower half's ints unless it is negated."""
    if type(kept) is list:
        return sum(map(getsizeof, (key, *key, kept))) + sum(map(int.__sizeof__, kept))
    (terms,), (answer, work) = key, kept
    size = sum(map(getsizeof, (key, terms, *terms, kept, answer)))
    if type(answer) is IntPoly:
        size += getsizeof(answer.coeffs)
        ints = answer.coeffs
    else:
        ints = answer  # the witness's one int
    return size + sum(map(int.__sizeof__, {id(a): a for a in (work, *ints)}.values()))


def _admit(f: FactoredChar, length: int) -> Callable:
    """`_series_plan`'s path for `length` coefficients of f, refused with
    ResourceLimitError when no path fits SERIES_WORK_CAP."""
    run, work = _series_plan(f, length)
    if run is None:
        what = f"a series of {length} coefficients through {work // length - 1} factors"
        check_cost(what, work, SERIES_WORK_CAP, "coefficient updates")
    return run


def _series(f: FactoredChar, length: int) -> list[int]:
    """The first `length` series coefficients of f, for `series_expand`, by
    `_series_plan`'s path or as a fresh prefix of a kept list; refused above
    SERIES_WORK_CAP before either.

    A kept list long enough is served with no plan when the kernel alone
    would be admitted, since no plan refuses what the kernel admits; any
    other request is planned first.  The memo is only peeked at before
    that, so a refusal counts no lookup and moves no entry."""
    key = f.terms
    kept = _memo.get(key)
    if kept is None or len(kept) < length or series_work(f, length) > SERIES_WORK_CAP:
        run = _admit(f, length)
    kept = _memo.find(key, lambda kept: len(kept) >= length)
    if kept is not None:
        return kept[:length]
    c = run(f, length)
    return c[:] if _memo.keep(key, c, _series_bytes(key, c)) else c


def expand(f: FactoredChar) -> "IntPoly | NotPolynomial":
    """Expand a factored character to a polynomial, if it is one.

    Polynomiality comes from the cyclotomic exponents.  A polynomial of
    degree D = sum k*e_k satisfies t^D p(1/t) = (-1)^{sum e_k} p(t), so
    only its lower half is computed.  Otherwise the witness carries the
    degree N - j of the remainder that long division of the numerator by
    the denominator would leave, N = sum_{e_k > 0} k*e_k the numerator
    degree and j the first index past D with a nonzero series coefficient.
    The series runs only through N' = sum_{c_d > 0} c_d phi(d), the
    numerator degree in lowest terms: write f = q + r/Q' with deg r <
    deg Q'; the same symmetry f(1/t) = +-t^{-D} f(t) makes r equal
    t^{N' - deg r} times its own reversal, so r/Q' first has a nonzero
    coefficient at j = N' - deg r <= N'.

    The answer is kept in the series memo under (f.terms,), with the
    kernel's admission cost of its series: while that cost is within
    SERIES_WORK_CAP a repeat is one lookup; otherwise the repeat is
    planned and cost-checked as a cold call first, then served.

    >>> expand(FactoredChar({2: 3, 1: -3})).coeffs
    (1, 3, 3, 1)
    >>> expand(FactoredChar({3: 5, 1: -6}))
    NotPolynomial(remainder_degree=5)
    """
    key = (f.terms,)
    kept = _memo.get(key)
    if kept is None or kept[1] > SERIES_WORK_CAP:
        length = _expand_length(f)
        run = _admit(f, length)
    kept = _memo.find(key)
    if kept is not None:
        return kept[0]
    answer = _read_off(f, run(f, length))
    kept = (answer, series_work(f, length))
    _memo.keep(key, kept, _series_bytes(key, kept))
    return answer


def _read_off(f: FactoredChar, c: list[int]) -> "IntPoly | NotPolynomial":
    """expand(f) from its first _expand_length(f) series coefficients c:
    the mirrored polynomial, or the witness at the first nonzero c_j past
    the degree."""
    degree = sum(k * e for k, e in f)
    if is_polynomial(f):
        mirrored = c[: degree - degree // 2]
        mirrored.reverse()
        if sum(e for _, e in f) % 2:
            mirrored = map(neg, mirrored)
        # ints already, and the top coefficient is +-1: skip IntPoly.__new__
        return IntPoly._make(((*c, *mirrored),))
    for j in range(max(degree + 1, 0), len(c)):
        if c[j]:
            return NotPolynomial(remainder_degree=sum(k * e for k, e in f if e > 0) - j)
    raise InternalError("a non-polynomial character left no remainder")


class MultResult(Record, namedtuple("MultResult", "factored")):
    """A multiplicity in factored form, expanded on first read.

    is_polynomial and value_at_1 need no expansion: both read the
    cyclotomic exponents that the factored form computes once.
    polynomial is either the exact IntPoly or the NotPolynomial witness;
    value_at_1 is defined only in the polynomial case.  No __slots__: the
    cached expansion lives in the instance __dict__.  Its first read calls
    `expand`, which keeps that answer in the series memo, so a new
    MultResult of the same factored form reads the same object with one
    lookup, under the same admission as a cold call.
    """

    @cached_property
    def polynomial(self) -> "IntPoly | NotPolynomial":
        return expand(self.factored)

    @property
    def is_polynomial(self) -> bool:
        return is_polynomial(self.factored)

    @property
    def value_at_1(self) -> "int | None":
        return value_at_one(self.factored) if self.is_polynomial else None


def is_palindromic_monic(p: IntPoly) -> bool:
    """True when p has constant term 1 and palindromic coefficients.

    >>> is_palindromic_monic(qbinom(4, 2))
    True
    >>> is_palindromic_monic(IntPoly((1, 2)))
    False
    """
    if p.is_zero:
        raise DomainError("the zero polynomial is neither palindromic nor monic")
    return p.coeffs[0] == 1 and p.coeffs == p.coeffs[::-1]


def divides(d: IntPoly, p: IntPoly) -> bool:
    """True when d divides p exactly in integer-coefficient arithmetic."""
    if d.is_zero:
        raise DomainError("divisibility by the zero polynomial is undefined")
    rem = list(p.coeffs)
    dc = d.coeffs
    dn = len(dc)
    lead = dc[-1]
    # long division from the top; an inexact leading step means no integer quotient
    for i in range(len(rem) - dn, -1, -1):
        c = rem[i + dn - 1]
        if c % lead:
            return False
        q = c // lead
        if q:
            rem[i : i + dn] = [r - q * x for r, x in zip(rem[i : i + dn], dc)]
    return not any(rem)


class TruncatedSeries(Record, namedtuple("TruncatedSeries", "order coeffs")):
    """Power series known through t^order; coeffs has length order + 1."""

    __slots__ = ()

    def __new__(cls, order: int, coeffs: "Iterable[int]" = ()) -> "TruncatedSeries":
        order = check_int("series order", order, 0)
        c = tuple(check_int("series coefficient", a) for a in coeffs)
        if len(c) > order + 1:
            raise DomainError("more coefficients than the order allows")
        return tuple.__new__(cls, (order, c + (0,) * (order + 1 - len(c))))


def series_expand(f: FactoredChar, order: int) -> TruncatedSeries:
    """Power series of a factored character through t^order.

    Exact whether or not the character is a polynomial.

    >>> series_expand(FactoredChar({2: 1, 1: -1}), 3).coeffs
    (1, 1, 0, 0)
    """
    order = check_int("series order", order, 1)
    # exactly order + 1 ints: skip TruncatedSeries.__new__
    return TruncatedSeries._make((order, tuple(_series(f, order + 1))))
