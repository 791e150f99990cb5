import doctest
import importlib
import pkgutil
import time
from math import ceil, gcd, lgamma, log, log2
from sys import getsizeof

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import higgsmult
import higgsmult.polyalg
from higgsmult import ByteMemo
from higgsmult.chain import Divisor, Point, WeightDims, as_point
from higgsmult.errors import DomainError, ResourceLimitError
from higgsmult.polyalg import (
    FactoredChar,
    IntPoly,
    NotPolynomial,
    SparseMap,
    TruncatedSeries,
    divides,
    expand,
    is_palindromic_monic,
    is_polynomial,
    qbinom,
    qbinom_factored,
    power_product,
    series_expand,
    value_at_one,
)

from oracles import (
    divmod_fractions,
    factored_series,
    factored_to_num_den,
    gaussian_binomial,
    memo_bytes,
    mul_lists,
)


def test_doctests():
    """Every module of the package, the package root included."""
    modules = pkgutil.iter_modules(higgsmult.__path__)
    names = ["higgsmult"] + [f"higgsmult.{m.name}" for m in modules]
    failed = {name: doctest.testmod(importlib.import_module(name)).failed for name in names}
    assert "higgsmult.polyalg" in failed and not any(failed.values()), failed


def test_moved_classes_keep_their_old_paths():
    from higgsmult import multgl, polyalg

    assert multgl.MultResult is polyalg.MultResult
    assert polyalg.SparseMap is higgsmult.SparseMap


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()

    def test_trailing_zeros_trimmed_in_linear_time(self):
        start = time.perf_counter()
        p = IntPoly((1,) + (0,) * 50_000)
        assert time.perf_counter() - start < 0.5
        assert p.coeffs == (1,)

    def test_degree_convention(self):
        assert IntPoly().degree == -1
        assert IntPoly.one().degree == 0
        assert IntPoly((0, 0, 7)).degree == 2

    def test_arithmetic_matches_oracle(self):
        a = IntPoly((1, -2, 3))
        b = IntPoly((4, 5))
        assert (a * b).coeffs == tuple(mul_lists([1, -2, 3], [4, 5]))
        assert (a * IntPoly()).is_zero and (IntPoly() * b).is_zero

    def test_pow(self):
        p = IntPoly((1, 1))
        assert (p ** 5).coeffs == (1, 5, 10, 10, 5, 1)
        assert (p ** 0) == IntPoly.one()
        with pytest.raises(DomainError):
            p ** -1

    @given(st.lists(st.integers(-9, 9), max_size=7), st.lists(st.integers(-9, 9), max_size=7))
    def test_mul_commutes_with_oracle(self, a, b):
        assert (IntPoly(tuple(a)) * IntPoly(tuple(b))).coeffs == tuple(mul_lists(a, b))


class TestDivision:
    def test_exact_division(self):
        num = IntPoly((1, 1)) * IntPoly((1, 0, 1))
        assert divides(IntPoly((1, 1)), num) and divides(IntPoly((1, 0, 1)), num)
        assert divides(num, num) and not divides(num, IntPoly((1, 1)))

    @given(
        st.lists(st.integers(-5, 5), max_size=7),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    @example([3, 1, 4, 1, 5, 9], [1, 0, -1])
    @example([1, 2, 1], [2, 2])
    def test_remainder_matches_fraction_oracle(self, num, den):
        if not any(den):
            return
        q, r = divmod_fractions(num, den)
        exact = not r and all(x.denominator == 1 for x in q)
        assert divides(IntPoly(den), IntPoly(num)) == exact

    def test_inexact_leading_coefficient_gives_none(self):
        # (t+1)^2 = (2t+2)(t+1)/2: no integer quotient, though one over Q
        assert not divides(IntPoly((2, 2)), IntPoly((1, 2, 1)))
        assert not divides(IntPoly((1, 2)), IntPoly((1, 3, 1, 1)))

    def test_zero_divisor_rejected(self):
        with pytest.raises(DomainError):
            divides(IntPoly(), IntPoly((1,)))

    def test_divides(self):
        assert divides(IntPoly((1, 1)), IntPoly((1, 2, 1)))
        assert not divides(IntPoly((1, 1)), IntPoly((1, 1, 1)))
        assert divides(IntPoly((1, 1)), IntPoly())
        assert not divides(IntPoly((2, 2)), IntPoly((1, 2, 1)))
        with pytest.raises(DomainError):
            divides(IntPoly(), IntPoly((1, 1)))

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    )
    def test_divides_detects_products(self, d, q):
        dp, qp = IntPoly(tuple(d)), IntPoly(tuple(q))
        if dp.is_zero:
            return
        assert divides(dp, dp * qp)


class TestQuantum:
    def test_qint_values(self):
        # the quantum integer [n]_t is qbinom(n, 1)
        assert qbinom(1, 1).coeffs == (1,)
        assert qbinom(4, 1).coeffs == (1, 1, 1, 1)

    @pytest.mark.parametrize("n", [0, -3])
    def test_qint_domain(self, n):
        with pytest.raises(DomainError):
            qbinom(n, 1)

    def test_qbinom_4_2(self):
        # frozen from the subset-sum oracle: Gaussian binomial [4 choose 2]
        assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
        assert qbinom(4, 2).coeffs == (1, 1, 2, 1, 1)

    def test_qbinom_factored_domain(self):
        with pytest.raises(DomainError) as exc:
            qbinom_factored(3, 5)
        assert str(exc.value) == "quantum binomial needs 0 <= k <= n, n >= 1; got k=5, n=3"

    @pytest.mark.parametrize("n,k", [(4, 2.0), (4.0, 2), (4.0, 0), ("4", 2), (4, None)])
    def test_non_integers_refused(self, n, k):
        for make in (qbinom, qbinom_factored):
            with pytest.raises(DomainError, match="^[nk] must be an integer, got "):
                make(n, k)

    def test_qbinom_edges(self):
        assert qbinom(5, 0).coeffs == (1,)
        assert qbinom(5, 5).coeffs == (1,)
        assert qbinom(1, 1).coeffs == (1,)
        assert qbinom(3, 1) == IntPoly((1, 1, 1))

    @pytest.mark.parametrize("n,k", [(3, -1), (3, 4), (0, 0)])
    def test_qbinom_domain(self, n, k):
        with pytest.raises(DomainError):
            qbinom(n, k)

    @given(st.integers(1, 10), st.integers(0, 10))
    def test_qbinom_symmetry_and_value_at_one(self, n, k):
        if k > n:
            return
        p = qbinom(n, k)
        assert p == qbinom(n, n - k)
        from math import comb

        assert p.value_at_one() == comb(n, k)

    @given(st.integers(1, 8), st.integers(0, 8))
    def test_qbinom_against_subset_oracle(self, n, k):
        if k > n:
            return
        assert list(qbinom(n, k).coeffs) == gaussian_binomial(n, k)


# factored characters whose expansion is a polynomial by construction:
# products of quantum binomial factored forms
@st.composite
def expandable_factored(draw):
    pieces = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 6), st.integers(0, 3)), max_size=3))
    f = FactoredChar()
    for n, k, m in pieces:
        if k > n:
            k = n
        f = f * (qbinom_factored(n, k) ** m)
    return f


class TestFactoredChar:
    def test_canonical_form(self):
        f = FactoredChar({2: 3, 1: 0, 5: -1})
        assert f.factors == ((2, 3), (5, -1))
        assert f[1] == 0 and f[2] == 3

    def test_merge_on_build(self):
        f = FactoredChar([(2, 1), (2, -1), (3, 2)])
        assert f.factors == ((3, 2),)

    def test_bad_index(self):
        with pytest.raises(DomainError):
            FactoredChar({0: 1})

    def test_mul_and_pow(self):
        f = FactoredChar({2: 1, 1: -1})
        assert (f * f).as_dict() == {2: 2, 1: -2}
        assert (f ** 3).as_dict() == {2: 3, 1: -3}
        assert (f ** 0) == FactoredChar()
        assert f * f.scale(-1) == FactoredChar()

    def test_expand_cube(self):
        assert expand(FactoredChar({2: 3, 1: -3})).coeffs == (1, 3, 3, 1)

    def test_expand_empty_is_one(self):
        assert expand(FactoredChar()) == IntPoly.one()

    def test_expand_not_polynomial_witness(self):
        # (1-t^3)^5 / (1-t)^6 = (1+t+t^2)^5 / (1-t); dividing the full
        # numerator by the full denominator leaves a degree-5 remainder
        out = expand(FactoredChar({3: 5, 1: -6}))
        assert out == NotPolynomial(remainder_degree=5)
        oq, orr = divmod_fractions(
            (IntPoly((1, 0, 0, -1)) ** 5).coeffs, (IntPoly((1, -1)) ** 6).coeffs
        )
        assert orr and len(orr) - 1 == 5

    def test_expand_pure_numerator(self):
        assert expand(FactoredChar({2: 2})) == IntPoly((1, 0, -1)) ** 2

    @given(expandable_factored(), expandable_factored())
    @settings(max_examples=50)
    def test_expand_is_multiplicative(self, f, g):
        pf, pg, pfg = expand(f), expand(g), expand(f * g)
        assert isinstance(pf, IntPoly) and isinstance(pg, IntPoly)
        assert pfg == pf * pg

    @given(expandable_factored())
    @settings(max_examples=50)
    def test_series_agrees_with_expand(self, f):
        p = expand(f)
        assert isinstance(p, IntPoly)
        s = series_expand(f, p.degree + 5)
        assert s.coeffs == p.coeffs + (0,) * (p.degree + 5 - p.degree)

    @given(
        st.dictionaries(st.integers(1, 9), st.integers(-4, 4), max_size=5),
        st.integers(1, 80),
    )
    @settings(max_examples=100)
    def test_expand_is_refused_exactly_above_its_work(self, exps, cap):
        f = FactoredChar(exps)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(higgsmult.polyalg, "SERIES_WORK_CAP", cap)
            if higgsmult.polyalg._series_plan(f, higgsmult.polyalg._expand_length(f))[1] > cap:
                with pytest.raises(ResourceLimitError):
                    expand(f)
            else:
                expand(f)

    @given(expandable_factored())
    @settings(max_examples=50)
    def test_polynomial_expansions_are_palindromic_monic(self, f):
        p = expand(f)
        assert isinstance(p, IntPoly)
        assert is_palindromic_monic(p)


def naive_terms(pairs, norm):
    """Reference canonical form: a dict accumulation, zeros dropped, sorted."""
    acc = {}
    for k, c in pairs:
        k = norm(k)
        acc[k] = acc.get(k, 0) + c
    return tuple(sorted((k, c) for k, c in acc.items() if c))


labels = st.sampled_from(["p", "q", "r", "s", "t"])
# (class, key rule of the reference, strategy for one key as a caller writes it)
SPARSE_KINDS = {
    "int": (FactoredChar, int, st.integers(1, 9)),
    "point": (Divisor, as_point, st.one_of(labels, labels.map(Point))),
}


class TestSparseMap:
    @pytest.mark.parametrize("kind", sorted(SPARSE_KINDS))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_against_naive_accumulation(self, kind, data):
        cls, norm, keys = SPARSE_KINDS[kind]
        pairs = data.draw(st.lists(st.tuples(keys, st.integers(-3, 3)), max_size=12))
        m = cls(pairs)
        assert m.terms == naive_terms(pairs, norm)
        assert tuple(m) == m.terms and m.as_dict() == dict(m.terms)
        shuffled = cls(data.draw(st.permutations(pairs)))
        assert shuffled == m and hash(shuffled) == hash(m)
        assert cls(dict(m.terms)) == m
        for k in data.draw(st.lists(keys, max_size=6)) + [k for k, _ in pairs]:
            scan = next((c for key, c in m.terms if key == norm(k)), 0)
            assert m[k] == scan
        other = cls(data.draw(st.lists(st.tuples(keys, st.integers(-3, 3)), max_size=6)))
        assert (m + other).terms == naive_terms(m.terms + other.terms, norm)
        assert (m - other).terms == naive_terms(m.terms + tuple((k, -c) for k, c in other), norm)
        assert m.scale(-2).terms == naive_terms([(k, -2 * c) for k, c in m], norm)

    def test_classes_do_not_compare_equal(self):
        assert FactoredChar({1: 2}) != WeightDims({1: 2})
        assert FactoredChar({1: 2}) != SparseMap({1: 2})
        with pytest.raises(TypeError):
            FactoredChar({1: 2}) + WeightDims({1: 2})

    def test_factored_char_rejects_non_integers(self):
        cases = [({2.5: 1}, "factor index"), ({2: 1.9}, "FactoredChar count"), ({"2": 1}, "factor index")]
        for bad, what in cases:
            with pytest.raises(DomainError, match=f"^{what} must be an integer, got "):
                FactoredChar(bad)

    def test_weight_dims_rejects_non_integers(self):
        for bad, what in (({"3": True}, "weight"), ({3: 0.5}, "WeightDims count")):
            with pytest.raises(DomainError, match=f"^{what} must be an integer, got "):
                WeightDims(bad)

    def test_divisor_rejects_non_integers(self):
        for bad in ({"p": 1.5}, {"p": "1"}):
            with pytest.raises(DomainError, match="^Divisor count must be an integer, got "):
                Divisor(bad)

    def test_power_product(self):
        q = qbinom_factored(5, 2)
        assert power_product([(q, 3), (q.scale(-1), 1)]) == q ** 2
        assert power_product([(q, 0)]) == FactoredChar()


# arbitrary factored characters, polynomial or not
random_factors = st.dictionaries(st.integers(1, 12), st.integers(-6, 6), max_size=4)


class TestExpandAgainstOracle:
    @given(random_factors)
    @settings(max_examples=300, deadline=None)
    def test_quotient_and_remainder_degree(self, exps):
        num, den = factored_to_num_den(exps)
        q, r = divmod_fractions(num, den)
        out = expand(FactoredChar(exps))
        if r:
            assert out == NotPolynomial(remainder_degree=len(r) - 1)
        else:
            assert isinstance(out, IntPoly)
            assert list(out.coeffs) == [int(x) for x in q]
        assert is_polynomial(FactoredChar(exps)) == (not r)

    @given(random_factors, st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_series_against_recurrence(self, exps, order):
        assert list(series_expand(FactoredChar(exps), order).coeffs) == factored_series(exps, order)

    def test_cyclotomic_exponents(self):
        # (1-t^6)/(1-t^2)^2 = Phi_3 Phi_6 / (Phi_1 Phi_2)
        assert FactoredChar({6: 1, 2: -2})._cyclotomic == {1: -1, 2: -1, 3: 1, 6: 1}
        assert FactoredChar({4: 2, 2: -1, 1: -1})._cyclotomic == {2: 1, 4: 2}
        assert FactoredChar()._cyclotomic == {}


class TestPalindromic:
    def test_examples(self):
        assert is_palindromic_monic(IntPoly((1,)))
        assert is_palindromic_monic(IntPoly((1, 3, 1)))
        assert not is_palindromic_monic(IntPoly((2, 3, 2)))
        assert not is_palindromic_monic(IntPoly((1, 2)))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            is_palindromic_monic(IntPoly())


class TestSeries:
    def test_quotient_example(self):
        s = series_expand(FactoredChar({2: 1, 1: -1}), 3)
        assert s.coeffs == (1, 1, 0, 0)

    def test_geometric(self):
        s = series_expand(FactoredChar({1: -1}), 5)
        assert s.coeffs == (1,) * 6

    def test_against_recurrence_oracle(self):
        f = {1: -2, 2: -3}
        s = series_expand(FactoredChar(f), 8)
        assert list(s.coeffs) == factored_series(f, 8)

    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            series_expand(FactoredChar(), 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            TruncatedSeries(1, (1, 2, 3))


# exponents up to +-40, past what the kernel-sized strategies above reach
wide_factors = st.dictionaries(st.integers(1, 12), st.integers(-40, 40), max_size=4)


@st.composite
def wide_polynomials(draw):
    """Products of (1 - t^(jq))^e / (1 - t^j)^e, e <= 40: always polynomials."""
    pairs = draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(0, 40)), max_size=3)
    )
    return FactoredChar([(j * q, e) for j, q, e in pairs] + [(j, -e) for j, q, e in pairs])


def _totient(d):
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)


def _cyclotomic_l1(d):
    """||Phi_d||_1, with Phi_d = (t^d - 1) / prod_{e | d, e < d} Phi_e by fractions."""
    return sum(abs(int(a)) for a in _cyclotomic(d))


def _cyclotomic(d):
    num = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            num, rest = divmod_fractions(num, _cyclotomic(e))
            assert not rest
    return num


# a dominant factor (1 - t^k)^e, |e| <= 120, over a few small ones
@st.composite
def dominated_factors(draw):
    exps = draw(st.dictionaries(st.integers(1, 12), st.integers(-8, 8), max_size=4))
    exps[draw(st.integers(1, 12))] = draw(st.integers(-120, 120))
    return exps


def _truncated_product(start, series):
    """The first len(start) coefficients of start times series, by the oracle."""
    out = mul_lists(start, series)[: len(start)]
    return out + [0] * (len(start) - len(out))


class TestBinomialStart:
    @given(dominated_factors(), st.integers(1, 300))
    @example({2: 7, 5: -7}, 60)  # a tie in |e|: the start is (1 - t^2)^7
    @example({1: -3, 4: 3, 9: -3}, 40)  # a three-way tie
    @example({40: -9, 1: 2}, 30)  # the largest factor has k >= length
    @example({30: 50, 2: -3}, 30)  # the largest factor has k == length
    @example({3: 40, 1: -5}, 200)  # a numerator dominates
    @example({1: 6}, 300)  # a numerator alone: its series ends at t^6
    @example({}, 1)  # the empty character
    @example({}, 7)
    @example({1: -1}, 1)
    @example({1: -1, 2: 1, 3: -1, 5: 1}, 50)  # every exponent +-1
    @example({k: (-1) ** k for k in range(1, 13)}, 100)
    @settings(max_examples=60, deadline=None)
    def test_series_against_the_oracle(self, exps, length):
        out = higgsmult.polyalg._kernel(FactoredChar(exps), length)
        assert out == factored_series(exps, length - 1)

    @given(
        dominated_factors(),
        st.lists(st.integers(-(10 ** 6), 10 ** 6), min_size=1, max_size=80),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_start_list_is_multiplied_in_place(self, exps, start):
        # the scan's path: no binomial start, the given list times f
        expected = _truncated_product(start, factored_series(exps, len(start) - 1))
        out = higgsmult.polyalg._kernel(FactoredChar(exps), len(start), start)
        assert out is start and out == expected


class TestRecurrence:
    @given(wide_factors, st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_series_against_kernel_and_oracle(self, exps, length):
        f = FactoredChar(exps)
        out = higgsmult.polyalg._recurrence(f, length)
        assert out == higgsmult.polyalg._kernel(f, length) == factored_series(exps, length - 1)

    @given(
        st.one_of(
            st.dictionaries(st.integers(1, 12), st.integers(-8, 8), max_size=6),
            st.integers(-8, 8).map(lambda e: {1: e}),  # deg Q = 1: a power of 1 - t
        ),
        st.integers(1, 300),
    )
    @example({1: 3}, 300)
    @example({1: -1}, 1)
    @example({}, 5)
    @settings(max_examples=200, deadline=None)
    def test_long_series_equal_the_kernel(self, exps, length):
        f = FactoredChar(exps)
        polyalg = higgsmult.polyalg
        assert polyalg._recurrence(f, length) == polyalg._kernel(f, length)

    @pytest.mark.parametrize(
        "exps",
        [
            {},  # the empty character, 1, the only constant polynomial character
            {2: 1, 1: -2},  # degree 0, not a polynomial
            {3: 1, 1: -1, 2: 1, 6: -1},  # degree -2
            {4: 1, 2: -1, 1: -2},  # degree 0, not a polynomial
            {1: 1},  # odd sum of exponents: the mirror takes sign -1
            {1: 3},
            {3: 1},
            {2: 5, 1: -4},
            {4: 3, 2: -2},
            {6: 1, 3: -1, 2: -1, 1: 1},  # Phi_6, even
            {12: 3, 4: -1, 3: -1},
        ],
    )
    def test_read_off_against_division_oracle(self, exps):
        num, den = factored_to_num_den(exps)
        q, r = divmod_fractions(num, den)
        polyalg = higgsmult.polyalg
        for path in (polyalg._kernel, polyalg._recurrence):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyalg, "_series", path)
                out = expand(FactoredChar(exps))
            if r:
                assert out == NotPolynomial(remainder_degree=len(r) - 1)
            else:  # equal to the canonical IntPoly: no trailing zero, no extra term
                assert out == IntPoly([int(x) for x in q])

    @given(st.one_of(wide_polynomials(), wide_factors.map(FactoredChar)))
    @settings(max_examples=100, deadline=None)
    def test_expand_is_the_same_on_both_paths(self, f):
        polyalg = higgsmult.polyalg
        out = []
        for path in (polyalg._kernel, polyalg._recurrence):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyalg, "_series", path)
                out.append(expand(f))
        assert out[0] == out[1]  # the NotPolynomial witness included
        assert isinstance(out[1], IntPoly) == is_polynomial(f)

    @given(random_factors)
    @settings(max_examples=100, deadline=None)
    def test_expand_on_the_recurrence_against_division_oracle(self, exps):
        num, den = factored_to_num_den(exps)
        q, r = divmod_fractions(num, den)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(higgsmult.polyalg, "_series", higgsmult.polyalg._recurrence)
            out = expand(FactoredChar(exps))
        if r:
            assert out == NotPolynomial(remainder_degree=len(r) - 1)
        else:
            assert list(out.coeffs) == [int(x) for x in q]

    @given(
        st.one_of(wide_factors.map(FactoredChar), wide_polynomials()),
        st.integers(1, 3000),
        st.sampled_from([10 ** 7, 10 ** 5, 3000]),
    )
    @settings(max_examples=200, deadline=None)
    def test_dispatch_follows_the_cost_rule(self, f, length, cap):
        # the rule as documented, rebuilt from a test-local totient and lgamma:
        # the kernel is admitted by one update per unit of exponent, and timed
        # by its passes, where the largest factor is one binomial pass
        polyalg = higgsmult.polyalg
        sizes = [abs(e) for k, e in f if k < length]
        kernel = length * (sum(sizes) + 1)
        passes = length * (sum(sizes) - max(sizes, default=0) + 2)
        exps = f._cyclotomic
        degree = sum(_totient(d) for d in exps)
        neg = -sum(e for _, e in f if e < 0)
        if all(c > 0 for c in exps.values()):
            bits = sum(c * log2(_cyclotomic_l1(d)) for d, c in exps.items())
        else:
            bits = sum(e for _, e in f if e > 0)
            if neg:
                bits += (lgamma(length + neg - 1) - lgamma(neg) - lgamma(length)) / log(2)
        recurrence = length * (degree + 1) * max(1, ceil(bits / 64))
        faster = polyalg._RATIO * length * (degree + 1) + polyalg._SETUP < passes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyalg, "SERIES_WORK_CAP", cap)
            path, cost = polyalg._series_plan(f, length)
        if degree < length and recurrence <= cap and (faster or kernel > cap):
            assert (path, cost) == (polyalg._recurrence, recurrence)
        elif kernel <= cap:
            assert (path, cost) == (polyalg._kernel, kernel)
        else:
            assert (path, cost) == (None, kernel)

    def test_dispatch_on_named_inputs(self):
        from higgsmult.chain import chain_from_m
        from higgsmult.multgl import (
            _pairing_factored,
            _type_n_factored,
            mult_type111,
            mult_type12_rank3,
            mult_type_n,
        )

        polyalg = higgsmult.polyalg

        def path(f):
            return polyalg._series_plan(f, polyalg._expand_length(f))[0]

        # short series stay on the kernel
        assert path(_type_n_factored(2, 4)) is polyalg._kernel
        for m in ([1, 1, 1, 1, 1], [2, 2, 2, 2, 2], [3, 3, 3, 3, 3, 3]):
            assert path(mult_type111(chain_from_m(5, m)).factored) is polyalg._kernel
        # high exponents take the recurrence
        assert path(_type_n_factored(10, 6)) is polyalg._recurrence
        assert path(mult_type12_rank3(32, 1).factored) is polyalg._recurrence
        # neither path fits
        assert path(_type_n_factored(40, 12)) is None
        # the benchmark's pairings, a type (n) side against chains whose
        # m-vectors keep sum m_i i(n - i) fixed: (1 - t)^{-N} dominates, and
        # the kernel's binomial start makes them nearly one pass
        cases = [(3, 4, [a, 1, 2 - a], range(60, 141, 20)) for a in range(3)]
        cases += [
            (4, 5, [a, b, 2 - b, 2 - a], range(200, 401, 50)) for a in range(3) for b in range(3)
        ]
        plans = []
        for g, n, m, orders in cases:
            sides = mult_type_n(g, n), mult_type111(chain_from_m(g, m))
            f = _pairing_factored(*sides, g, n)
            plans += [polyalg._series_plan(f, order + 1)[0] for order in orders]
        assert len(plans) == 3 * 5 + 9 * 5 and set(plans) == {polyalg._kernel}

    def test_coefficient_bits_bound_the_coefficients(self):
        polyalg = higgsmult.polyalg
        for exps in ({2: 30, 1: -30}, {3: 17, 1: -40}, {6: 5, 5: -9, 1: -12}, {4: 40}):
            f = FactoredChar(exps)
            c = polyalg._kernel(f, 200)
            assert max(abs(a) for a in c).bit_length() <= polyalg._coefficient_bits(f, 200)

    def test_polynomials_are_priced_by_the_cyclotomic_norms(self):
        from higgsmult.multgl import _type_n_factored

        polyalg = higgsmult.polyalg
        for g, n in ((2, 6), (16, 8), (20, 9)):
            f = _type_n_factored(g, n)
            top = max(abs(a) for a in expand(f).coeffs)
            bits = polyalg._coefficient_bits(f, polyalg._expand_length(f))
            assert top.bit_length() <= bits
            assert bits == pytest.approx(
                sum(c * log2(_cyclotomic_l1(d)) for d, c in f._cyclotomic.items())
            )
        # (20, 9) now fits the recurrence; (24, 9) still fits no path
        assert polyalg._series_plan(f, polyalg._expand_length(f))[0] is polyalg._recurrence
        f = _type_n_factored(24, 9)
        assert polyalg._series_plan(f, polyalg._expand_length(f))[0] is None


class TestValueAtOne:
    @given(st.one_of(wide_polynomials(), expandable_factored()))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_coefficient_sum(self, f):
        assert value_at_one(f) == sum(expand(f).coeffs)

    def test_zero_and_refusal(self):
        assert value_at_one(FactoredChar({1: 1})) == 0
        assert value_at_one(FactoredChar()) == 1
        with pytest.raises(DomainError):
            value_at_one(FactoredChar({3: 5, 1: -6}))


def _key_bytes(f):
    """The price of an expansion's key: the 1-tuple, f.terms and its pairs."""
    return getsizeof((f.terms,)) + getsizeof(f.terms) + sum(map(getsizeof, f.terms))


class TestByteMemo:
    def test_clear_resets_every_count(self, monkeypatch):
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", 16)
        memo = ByteMemo()
        assert memo.keep("a", "xxxx", 4) and memo.find("a") == "xxxx" and memo.find("b") is None
        memo.clear()
        assert memo.info() == (0, 0, 0, 0, 16) and len(memo) == 0 and "a" not in memo
        # no phantom bytes shrink the memo: a smaller budget still keeps a fitting entry
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", 8)
        assert memo.keep("c", "yy", 2) and memo.info() == (0, 0, 1, 2, 8)

    def test_every_write_goes_through_keep(self, monkeypatch):
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", 16)
        memo = ByteMemo()
        memo.keep("a", "xx", 2)
        with pytest.raises(TypeError):
            memo["b"] = "yyyyyyyy"
        with pytest.raises(TypeError):
            del memo["a"]
        for name in ("pop", "popitem", "setdefault", "update", "move_to_end"):
            assert not hasattr(memo, name), name
        assert memo.info() == (0, 0, 1, 2, 16)

    def test_reads_are_a_mappings(self, monkeypatch):
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", 64)
        memo = ByteMemo()
        for key, value in (("a", "x"), ("b", "yy"), ("c", "zzz")):
            memo.keep(key, value, len(value))
        memo.find("a")  # now the most recent
        assert list(memo) == ["b", "c", "a"] and len(memo) == 3
        assert dict(memo.items()) == {"a": "x", "b": "yy", "c": "zzz"}
        assert memo["b"] == "yy" and "c" in memo and "d" not in memo
        assert memo.get("d") is None and memo.get("d", 0) == 0
        with pytest.raises(KeyError):
            memo["d"]
        # get and [] peek: no count, no move
        assert memo.info()[:2] == (1, 0) and list(memo) == ["b", "c", "a"]


class TestSeriesMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        higgsmult._memo.clear()

    @given(wide_factors, st.lists(st.integers(1, 120), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_every_length_cold_and_warm_equals_the_kernel(self, exps, lengths):
        polyalg = higgsmult.polyalg
        f = FactoredChar(exps)
        higgsmult._memo.clear()
        for length in lengths + lengths[::-1]:
            expected = polyalg._kernel(f, length)
            assert polyalg._series(f, length) == expected
            assert expected == factored_series(exps, length - 1)
        info = higgsmult.memo_info()
        assert info.hits + info.misses == 2 * len(lengths)
        assert info.misses <= len(lengths)

    def test_a_shorter_order_is_a_prefix_with_no_series_work(self, monkeypatch):
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -20, 3: 5, 7: -2})
        long = series_expand(f, 400)
        calls = []
        for name in ("_kernel", "_recurrence"):
            real = getattr(polyalg, name)
            monkeypatch.setattr(polyalg, name, lambda *a, real=real: calls.append(a) or real(*a))
        short = series_expand(f, 100)
        assert calls == []
        assert short.coeffs == long.coeffs[:101]
        assert higgsmult.memo_info()[:3] == (1, 1, 1)

    def test_a_longer_order_replaces_the_kept_list(self):
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -20, 3: 5, 7: -2})
        assert series_expand(f, 100).coeffs == series_expand(f, 400).coeffs[:101]
        info = higgsmult.memo_info()
        assert (info.hits, info.misses, info.entries) == (0, 2, 1)
        assert len(polyalg._memo[f.terms]) == 401 and info.bytes == memo_bytes(polyalg._memo)

    def test_returned_lists_can_be_mutated(self):
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -6, 2: 3})
        expected = polyalg._kernel(f, 60)
        for length in (60, 60, 40):  # a miss, then two hits
            out = polyalg._series(f, length)
            assert out == expected[:length]
            out[0] = 99
            out.append(7)
        assert polyalg._series(f, 60) == expected
        assert higgsmult.memo_info().hits == 3

    def test_refusal_does_not_depend_on_the_memo(self):
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -12, 2: 5, 5: -3})

        def refusal():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyalg, "SERIES_WORK_CAP", 100)
                with pytest.raises(ResourceLimitError) as exc:
                    polyalg._series(f, 300)
            return str(exc.value)

        cold = refusal()
        assert polyalg._series_plan(f, 300)[1] > 100
        polyalg._series(f, 300)
        assert higgsmult.memo_info().entries == 1
        assert refusal() == cold
        assert cold.startswith("a series of 300 coefficients through 20 factors has ")

    def test_a_hit_the_kernel_admits_makes_no_plan(self, monkeypatch):
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -20, 3: 5, 7: -2})
        long = series_expand(f, 400)
        plans = []
        real = polyalg._series_plan
        monkeypatch.setattr(polyalg, "_series_plan", lambda *a: plans.append(a) or real(*a))
        assert series_expand(f, 100).coeffs == long.coeffs[:101]
        assert series_expand(f, 400) == long
        assert plans == [] and higgsmult.memo_info()[:3] == (2, 1, 1)
        # a longer request misses and is planned
        series_expand(f, 401)
        assert plans == [(f, 402)]

    def test_a_hit_past_kernel_admission_refuses_as_cold(self):
        # (1 - t)^(-10^6) (1 - t^50): at 60 coefficients the recurrence
        # (deg Q = 50) is admitted and its list kept; at 40 the kernel costs
        # 4e7 updates and the recurrence is no candidate, kept list or not
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -10 ** 6, 50: 1})
        other = FactoredChar({1: -2, 3: 1})

        def refusal():
            with pytest.raises(ResourceLimitError) as exc:
                series_expand(f, 39)
            return str(exc.value)

        cold = refusal()
        assert higgsmult.memo_info()[:3] == (0, 0, 0)
        series_expand(f, 59)
        series_expand(other, 20)
        order, info = list(polyalg._memo), higgsmult.memo_info()
        assert len(polyalg._memo[f.terms]) == 60 and polyalg.series_work(f, 40) > 10 ** 7
        assert refusal() == cold
        assert higgsmult.memo_info() == info and list(polyalg._memo) == order
        assert cold == (
            "a series of 40 coefficients through 1000000 factors has 40000040 "
            "coefficient updates, above the cap 10000000"
        )

    def test_a_flood_stays_within_the_budget(self):
        polyalg = higgsmult.polyalg
        budget = higgsmult.MEMO_BYTES
        for k in range(1, 41):
            for order in (200, 600):
                series_expand(FactoredChar({1: -k, 2: 3, 3: -(k % 5)}), order)
                info = higgsmult.memo_info()
                assert info.bytes <= budget and info.budget == budget
                assert info.bytes == memo_bytes(polyalg._memo)
        # the flood evicted: the last key is kept, the first is gone
        assert 0 < info.entries < 40 and info.misses == 80
        assert FactoredChar({1: -40, 2: 3}).terms in polyalg._memo
        assert FactoredChar({1: -1, 2: 3, 3: -1}).terms not in polyalg._memo

    def test_eviction_is_least_recently_used(self, monkeypatch):
        polyalg = higgsmult.polyalg
        chars = [FactoredChar({1: -2, k: 1}) for k in range(2, 7)]
        for f in chars[:4]:
            series_expand(f, 50)
        sizes = [memo_bytes({f.terms: polyalg._memo[f.terms]}) for f in chars[:4]]
        # room for four entries only: the fifth evicts one
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", sum(sizes) + min(sizes) // 2)
        series_expand(chars[0], 30)  # a hit: chars[0] is now the most recent
        series_expand(chars[4], 50)
        kept = [f.terms in polyalg._memo for f in chars]
        assert kept == [True, False, True, True, True]

    def test_an_entry_above_a_quarter_of_the_budget_is_never_kept(self, monkeypatch):
        polyalg = higgsmult.polyalg
        f = FactoredChar({1: -50})
        s = series_expand(f, 20000)
        assert s.coeffs[:3] == (1, 50, 1275) and len(s.coeffs) == 20001
        info = higgsmult.memo_info()
        assert (info.misses, info.entries, info.bytes) == (1, 0, 0)
        assert memo_bytes({f.terms: list(s.coeffs)}) > info.budget // 4
        # an entry of exactly a quarter of the budget is kept, one byte more is not
        f = FactoredChar({1: -3})
        size = memo_bytes({f.terms: polyalg._kernel(f, 500)})
        for budget, entries in ((4 * size - 1, 0), (4 * size, 1)):
            monkeypatch.setattr(higgsmult, "MEMO_BYTES", budget)
            series_expand(f, 499)
            assert higgsmult.memo_info().entries == entries

    def test_a_repeated_expansion_is_the_kept_answer(self, monkeypatch):
        from higgsmult.multgl import _type_n_factored

        polyalg = higgsmult.polyalg
        # the kernel, the recurrence and a witness
        chars = [FactoredChar({2: 3, 1: -3}), _type_n_factored(10, 6), FactoredChar({3: 5, 1: -6})]
        first = [expand(f) for f in chars]
        calls = []
        for name in ("_kernel", "_recurrence", "_read_off", "_series_plan"):
            real = getattr(polyalg, name)
            monkeypatch.setattr(polyalg, name, lambda *a, real=real: calls.append(a) or real(*a))
        for f, answer in zip(chars, first):
            assert expand(f) is answer and expand(FactoredChar(f.terms)) is answer
        assert calls == [] and higgsmult.memo_info()[:3] == (6, 3, 3)
        assert isinstance(first[2], NotPolynomial) and first[0].coeffs == (1, 3, 3, 1)

    def test_an_expansion_is_kept_apart_from_the_series_list(self):
        polyalg = higgsmult.polyalg
        f = FactoredChar({2: 3, 1: -3})
        s = series_expand(f, 10)
        p = expand(f)
        assert s.coeffs == (1, 3, 3, 1) + (0,) * 7 and p.coeffs == (1, 3, 3, 1)
        assert f.terms in polyalg._memo and (f.terms,) in polyalg._memo
        assert type(polyalg._memo[f.terms]) is list and polyalg._memo[(f.terms,)][0] is p
        assert series_expand(f, 10) == s and expand(f) is p
        assert higgsmult.memo_info()[:3] == (2, 2, 2)

    def test_an_answer_is_priced_by_what_it_holds(self):
        from higgsmult.multgl import _type_n_factored
        from higgsmult.multsimple import mult_simple
        from higgsmult.rootsys import LieType, build

        polyalg = higgsmult.polyalg
        small = getsizeof((0, 0)) + getsizeof(NotPolynomial(0)) + 2 * getsizeof(0)
        e8 = mult_simple(build(LieType("E", 8)), [1] + [0] * 7).factored
        for f in (FactoredChar({3: 5, 1: -6}), FactoredChar({1: -20, 2: 7, 9: 3}), e8):
            assert isinstance(expand(f), NotPolynomial)
            key = (f.terms,)
            # a witness costs its key plus its pair, Record and two small ints
            assert polyalg._series_bytes(key, polyalg._memo[key]) - _key_bytes(f) == small < 200
        # a palindrome's upper half reuses the lower half's ints
        f = _type_n_factored(10, 6)
        p = expand(f)
        assert sum(e for _, e in f) % 2 == 0
        assert len({id(a) for a in p.coeffs}) <= len(p.coeffs) // 2 + 1
        size = polyalg._series_bytes((f.terms,), polyalg._memo[(f.terms,)])
        assert 60_000 < size < 64_000 and size < higgsmult.MEMO_BYTES // 4
        assert higgsmult.memo_info().bytes == memo_bytes(polyalg._memo)

    def test_a_mixed_flood_counts_every_byte(self):
        polyalg = higgsmult.polyalg
        budget = higgsmult.MEMO_BYTES
        for k in range(1, 41):
            f = FactoredChar({1: -k, 2: 3, 3: -(k % 5)})
            for call in (lambda: series_expand(f, 300), lambda: expand(f * FactoredChar({k + 4: k + 3}))):
                call()
                info = higgsmult.memo_info()
                assert info.bytes <= budget and info.bytes == memo_bytes(polyalg._memo)
        kinds = {type(kept) for kept in polyalg._memo.values()}
        assert kinds == {list, tuple} and 0 < info.entries < 80 and info.misses == 80

    def test_a_kept_answer_past_the_cap_refuses_as_cold(self, monkeypatch):
        from higgsmult.multgl import _type_n_factored

        polyalg = higgsmult.polyalg
        f = _type_n_factored(6, 5)  # kernel admission 42416, recurrence 7040

        def refusal():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(polyalg, "SERIES_WORK_CAP", 7000)
                with pytest.raises(ResourceLimitError) as exc:
                    expand(f)
            return str(exc.value)

        cold = refusal()
        assert higgsmult.memo_info()[:3] == (0, 0, 0)
        answer = expand(f)
        expand(FactoredChar({2: 3, 1: -3}))
        order, info = list(polyalg._memo), higgsmult.memo_info()
        assert refusal() == cold
        assert higgsmult.memo_info() == info and list(polyalg._memo) == order
        assert cold == (
            "a series of 176 coefficients through 240 factors has 42416 "
            "coefficient updates, above the cap 7000"
        )
        assert expand(f) is answer

    def test_a_kept_answer_the_recurrence_admits_is_served_after_its_plan(self, monkeypatch):
        from higgsmult.multgl import _type_n_factored

        polyalg = higgsmult.polyalg
        f = _type_n_factored(6, 5)
        answer = expand(f)
        assert polyalg._memo[(f.terms,)][1] == polyalg.series_work(f, 176) == 42416
        monkeypatch.setattr(polyalg, "SERIES_WORK_CAP", 10_000)
        assert polyalg._series_plan(f, 176) == (polyalg._recurrence, 7040)
        plans, calls = [], []
        real = polyalg._series_plan
        monkeypatch.setattr(polyalg, "_series_plan", lambda *a: plans.append(a) or real(*a))
        for name in ("_kernel", "_recurrence", "_read_off"):
            run = getattr(polyalg, name)
            monkeypatch.setattr(polyalg, name, lambda *a, run=run: calls.append(a) or run(*a))
        assert expand(f) is answer
        assert plans == [(f, 176)] and calls == []
        assert higgsmult.memo_info()[:3] == (1, 1, 1)
