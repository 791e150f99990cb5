import tracemalloc
from itertools import product
from math import prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmult import SparseMap, chain, errors, multgl, polyalg
from higgsmult.chain import (
    RANK_CAP,
    WeightDims,
    chain_from_m,
    gl_hitchin_base_dims,
    make_chain,
    tplus_dims,
)
from higgsmult.errors import DomainError, InternalError, ResourceLimitError
from higgsmult.hecke import intersection_count
from higgsmult.multgl import (
    MultResult,
    euler_pairing_series,
    euler_prefactor,
    master_divisibility,
    mult_type12_rank3,
    mult_type111,
    mult_type_n,
    virtual_multiplicity,
)
from higgsmult.polyalg import (
    FactoredChar,
    IntPoly,
    NotPolynomial,
    divides,
    is_palindromic_monic,
    qbinom,
)

from oracles import divmod_fractions, factored_series, gaussian_binomial, mul_lists, pow_list


# polynomial multiplicities: products of (1-t^(j*q))^e / (1-t^j)^e, each a
# power of a polynomial since 1-t^j divides 1-t^(j*q)
@st.composite
def polynomial_mults(draw):
    f = FactoredChar()
    for j, q, e in draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(0, 5)), max_size=3)
    ):
        f = f * FactoredChar({j * q: e, j: -e})
    return MultResult(f)


class TestVirtualMultiplicity:
    def test_rank2_ratio(self):
        r = virtual_multiplicity(WeightDims({1: 3, 2: 2}), WeightDims({1: 2, 2: 3}))
        assert r.polynomial == IntPoly((1, 1))
        assert r.factored == FactoredChar({2: 1, 1: -1})
        assert r.value_at_1 == 2

    def test_equal_dims_give_one(self):
        w = WeightDims({1: 5, 3: 2})
        r = virtual_multiplicity(w, w)
        assert r.polynomial == IntPoly.one() and r.factored == FactoredChar()

    def test_concentrated_weight_one(self):
        g, n = 2, 3
        tplus = WeightDims({1: n * n * (g - 1) + 1})
        r = virtual_multiplicity(tplus, gl_hitchin_base_dims(g, n))
        expected = IntPoly((1, 1)) ** 3 * IntPoly((1, 1, 1)) ** 5
        assert r.polynomial == expected

    def test_not_polynomial_case(self):
        r = virtual_multiplicity(WeightDims({2: 1}), WeightDims({3: 1}))
        assert isinstance(r.polynomial, NotPolynomial)
        assert r.value_at_1 is None and not r.is_polynomial


class TestMultTypeN:
    def test_g2_n2(self):
        r = mult_type_n(2, 2)
        assert r.polynomial == IntPoly((1, 3, 3, 1))
        assert r.value_at_1 == 8

    def test_g2_n3(self):
        r = mult_type_n(2, 3)
        assert r.polynomial == IntPoly((1, 1)) ** 3 * IntPoly((1, 1, 1)) ** 5
        assert r.value_at_1 == 1944

    def test_rank_one_trivial(self):
        assert mult_type_n(2, 1).polynomial == IntPoly.one()

    def test_value_closed_form(self):
        for g in (2, 3):
            for n in (2, 3, 4):
                val = 1
                for i in range(2, n + 1):
                    val *= i ** ((2 * i - 1) * (g - 1))
                assert mult_type_n(g, n).value_at_1 == val

    def test_palindromic(self):
        for g, n in [(2, 4), (3, 3), (4, 2)]:
            p = mult_type_n(g, n).polynomial
            assert is_palindromic_monic(p)

    def test_g20_n9_is_admitted(self):
        # priced by the cyclotomic L1 bound, it fits the recurrence
        p = mult_type_n(20, 9).polynomial
        assert sum(p.coeffs) == prod(i ** ((2 * i - 1) * 19) for i in range(2, 10))


class TestMultType111:
    def test_rank3_single_zeros(self):
        c = chain_from_m(2, (1, 1))
        r = mult_type111(c)
        assert r.polynomial == IntPoly((1, 1, 1)) ** 2
        assert r.value_at_1 == 9

    def test_zero_m_vector(self):
        assert mult_type111(chain_from_m(3, (0, 0))).polynomial == IntPoly.one()

    def test_rank2_cube(self):
        r = mult_type111(chain_from_m(3, (3,)))
        assert r.polynomial == IntPoly((1, 1)) ** 3
        assert r.value_at_1 == 8

    def test_unstable_rejected(self):
        from higgsmult.chain import Divisor, make_chain

        c = make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")])
        with pytest.raises(DomainError, match="stable"):
            mult_type111(c)

    def test_closed_form_equals_ratio_explicitly(self):
        for g, m in [(2, (1, 1)), (3, (2, 0, 3)), (4, (3, 1)), (2, (0, 1, 0))]:
            c = chain_from_m(g, m)
            n = c.rank
            ratio = virtual_multiplicity(tplus_dims(c), gl_hitchin_base_dims(g, n))
            closed = IntPoly.one()
            for i, mi in enumerate(m, start=1):
                closed = closed * qbinom(n, i) ** mi
            assert ratio.polynomial == closed
            assert mult_type111(c).polynomial == closed

    def test_stability_is_tested_once(self, monkeypatch):
        import higgsmult.chain

        calls = []
        unstable_index = higgsmult.chain.unstable_index
        monkeypatch.setattr(
            higgsmult.chain, "unstable_index", lambda c: calls.append(c) or unstable_index(c)
        )
        c = chain_from_m(3, (2, 0, 3))
        mult_type111(c)
        assert calls == [c]

    def test_value_matches_intersection_count(self):
        for g, m in [(2, (1, 1)), (3, (2, 1)), (3, (3,))]:
            c = chain_from_m(g, m)
            assert mult_type111(c).value_at_1 == intersection_count(c)

    def test_matches_the_gaussian_binomial_oracle(self):
        # every m-vector with m_i <= 3 up to rank 4, then 12 drawn per rank
        # from 5 to 7; rank 1 is the empty product, still cross-checked
        rng = Random(7)
        vectors = [m for r in range(4) for m in product(range(4), repeat=r)]
        vectors += [
            tuple(rng.randrange(4) for _ in range(r)) for r in range(4, 7) for _ in range(12)
        ]
        multgl._gl_form.cache_clear()  # each new key runs the cross-check
        checked = set()
        for m in vectors:
            n = len(m) + 1
            expected = [1]
            for i, mi in enumerate(m, start=1):
                expected = mul_lists(expected, pow_list(gaussian_binomial(n, i), mi))
            for g in range(2, 5):
                for top in range(-3, 4):
                    c = chain_from_m(g, m, top)
                    if chain.is_stable(c):
                        assert list(mult_type111(c).polynomial.coeffs) == expected, (g, m, top)
                        checked.add(n)
        assert checked == set(range(1, 8))


class TestMultType12:
    def test_threshold_polynomial(self):
        r = mult_type12_rank3(2, 1)
        assert r.polynomial == IntPoly((1, 1, 1)) ** 5
        assert r.value_at_1 == 243

    def test_past_threshold(self):
        r = mult_type12_rank3(2, 2)
        assert isinstance(r.polynomial, NotPolynomial)

    def test_g3(self):
        r = mult_type12_rank3(3, 2)
        assert r.polynomial == IntPoly((1, 1, 1)) ** 10
        assert r.value_at_1 == 3 ** 10

    def test_wobbly_threshold_exact(self):
        for g in range(2, 7):
            for w in range(1, 3 * g - 3):
                r = mult_type12_rank3(g, w)
                assert r.is_polynomial == (w <= g - 1)
                # the closed form of the docstring, independent of the weights
                assert r.factored == FactoredChar({1: w - 6 * g + 6, 2: g - 1 - w, 3: 5 * g - 5})

    @pytest.mark.parametrize("g,w", [(2, 0), (2, 3), (3, -1), (3, 6)])
    def test_window(self, g, w):
        with pytest.raises(DomainError, match="window"):
            mult_type12_rank3(g, w)


class TestMasterDivisibility:
    def test_quantum_integer_powers(self):
        sq = MultResult(FactoredChar({2: 2, 1: -2}))
        assert master_divisibility(sq, 2, 2)
        fourth = MultResult(FactoredChar({2: 4, 1: -4}))
        assert not master_divisibility(fourth, 2, 2)
        qq = MultResult(FactoredChar({3: 2, 1: -2}))
        assert master_divisibility(qq, 2, 3)

    def test_not_polynomial_rejected(self):
        bad = MultResult(FactoredChar({3: 1, 2: -1}))
        with pytest.raises(DomainError, match="polynomial"):
            master_divisibility(bad, 2, 2)

    def test_chain_multiplicities_divide(self):
        for g, m in [(2, (1, 1)), (3, (2, 2)), (2, (1, 0, 1))]:
            c = chain_from_m(g, m)
            assert master_divisibility(mult_type111(c), g, c.rank)

    def test_equals_the_quotient_test(self):
        # the exponent comparison against polynomiality of master / m, the
        # test it replaced, on every polynomial type (1,2) w and on chains
        from itertools import product

        from higgsmult.chain import is_stable
        from higgsmult.multgl import _type_n_factored
        from higgsmult.polyalg import is_polynomial

        checked = {True: 0, False: 0}
        for g in range(2, 13):
            mults = [mult_type12_rank3(g, w) for w in range(1, g)]
            for r in range(1, 5):
                for mv in product(range(3), repeat=r):
                    c = chain_from_m(g, mv)
                    if is_stable(c):
                        mults.append(mult_type111(c))
            for n in range(2, 6):
                master = _type_n_factored(g, n)
                for m in mults:
                    verdict = master_divisibility(m, g, n)
                    assert verdict == is_polynomial(master * m.factored.scale(-1))
                    checked[verdict] += 1
        assert min(checked.values()) > 100  # both verdicts are reached

    @given(polynomial_mults(), st.integers(2, 3), st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_against_division_oracle(self, m, g, n):
        master = mult_type_n(g, n).polynomial
        _, rem = divmod_fractions(master.coeffs, m.polynomial.coeffs)
        assert master_divisibility(m, g, n) == (not rem) == divides(m.polynomial, master)


class TestLazyExpansion:
    # MultResult lives in polyalg, so polyalg.expand is the binding it reads
    @pytest.fixture
    def no_expand(self, monkeypatch):
        def refuse(f):
            raise AssertionError(f"expand called on {f}")

        monkeypatch.setattr(polyalg, "expand", refuse)

    def test_the_spy_sees_a_read(self, no_expand):
        with pytest.raises(AssertionError, match="expand called on"):
            mult_type_n(2, 3).polynomial

    def test_pairing_and_divisibility_never_expand(self, no_expand):
        a, b = mult_type_n(4, 5), mult_type_n(4, 5)
        assert a.is_polynomial
        series = euler_pairing_series(a, b, 4, 5, 10)
        assert master_divisibility(mult_type12_rank3(4, 2), 4, 3)
        assert master_divisibility(b, 4, 5)
        assert len(series.coeffs) == 11

    def test_expands_once_on_first_read(self, monkeypatch):
        calls = []
        expand = polyalg.expand
        monkeypatch.setattr(polyalg, "expand", lambda f: calls.append(f) or expand(f))
        r = mult_type111(chain_from_m(2, (1, 2)))
        assert calls == []
        assert r.polynomial == r.polynomial == expand(r.factored)
        assert r.value_at_1 == r.polynomial.value_at_one()
        assert calls == [r.factored]

    def test_value_at_1_never_expands(self, no_expand):
        assert mult_type_n(5, 6).value_at_1 == prod(i ** ((2 * i - 1) * 4) for i in range(2, 7))
        assert mult_type12_rank3(4, 2).value_at_1 == 2 * 3 ** 15
        assert mult_type12_rank3(4, 5).value_at_1 is None
        assert mult_type111(chain_from_m(2, (1, 2))).value_at_1 == 3 * 3 ** 2

    @given(polynomial_mults())
    @settings(max_examples=80, deadline=None)
    def test_value_at_1_is_the_coefficient_sum(self, m):
        assert m.value_at_1 == sum(m.polynomial.coeffs)

    def test_cyclotomic_exponents_computed_once(self, monkeypatch):
        # the type (n) form is shared per (g, n): build it afresh
        multgl._gl_form.cache_clear()
        calls = []
        divisors = polyalg._divisors
        monkeypatch.setattr(polyalg, "_divisors", lambda k: calls.append(k) or divisors(k))
        m = mult_type_n(5, 6)
        assert m.is_polynomial and calls
        calls.clear()
        assert isinstance(m.polynomial, IntPoly)
        assert calls == []


def _closed_master(g, n):
    """prod_{i=2..n} [i]_t^{(2i-1)(g-1)}, [i]_t = (1 - t^i)/(1 - t)."""
    exps = {i: (2 * i - 1) * (g - 1) for i in range(2, n + 1)}
    return FactoredChar({**exps, 1: -sum(exps.values())})


def _closed_wobbly(g, w):
    """(1 + t)^(g-1-w) (1 + t + t^2)^(5g-5)."""
    return FactoredChar({1: -(g - 1 - w) - (5 * g - 5), 2: g - 1 - w, 3: 5 * g - 5})


def _closed_gaussian(n, k):
    """prod_{j=1..k} (1 - t^(n-j+1)) / (1 - t^j), built by the checking constructor."""
    out = FactoredChar()
    for j in range(1, k + 1):
        out = out * FactoredChar({n - j + 1: 1}) * FactoredChar({j: -1})
    return out


ONE = MultResult(FactoredChar())

CACHES = {
    "form": multgl._gl_form,
    "chain": chain._chain_from_m,
}


class TestBuildingBlockCaches:
    def test_refusals_come_before_the_cache(self):
        gl_hitchin_base_dims(3, 2)
        polyalg.qbinom_factored(4, 2)
        mult_type_n(3, 2)
        mult_type_n(3, 1)
        mult_type12_rank3(3, 2)
        # but for a genus True (1 is refused too), each call equals a key just
        # cached (3.0 == 3, True == 1): a cache in front of the checks would
        # answer it
        refused = [
            ("genus must be an integer, got 3.0", lambda: gl_hitchin_base_dims(3.0, 2)),
            ("genus must be an integer, got True", lambda: gl_hitchin_base_dims(True, 2)),
            ("rank must be an integer, got True", lambda: gl_hitchin_base_dims(3, True)),
            ("rank must be an integer, got True", lambda: mult_type_n(3, True)),
            ("n must be an integer, got 4.0", lambda: polyalg.qbinom_factored(4.0, 2)),
            ("rank must be an integer, got 2.0", lambda: mult_type_n(3, 2.0)),
            ("genus must be an integer, got 3.0", lambda: mult_type_n(3.0, 2)),
            ("rank must be an integer, got 2.0", lambda: euler_prefactor(3, 2.0)),
            ("genus must be an integer, got 3.0", lambda: mult_type12_rank3(3.0, 2)),
            ("2l-v must be an integer, got 2.0", lambda: mult_type12_rank3(3, 2.0)),
        ]
        for message, call in refused:
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == message

    def test_a_refused_rank_leaves_no_entry(self):
        for cache in CACHES.values():
            cache.cache_clear()
        for call in (
            lambda: gl_hitchin_base_dims(2, RANK_CAP + 1),
            lambda: mult_type_n(2, RANK_CAP + 1),
            lambda: euler_prefactor(2, RANK_CAP + 1),
            lambda: euler_pairing_series(ONE, ONE, 2, RANK_CAP + 1, 5),
        ):
            with pytest.raises(ResourceLimitError, match=f"^GL_{RANK_CAP + 1} has "):
                call()
        with pytest.raises(ResourceLimitError, match=f"^GL_{RANK_CAP + 1} has "):
            chain_from_m(2, [0] * RANK_CAP)  # rank 142, refused before it is built
        # the same chain built by make_chain reaches mult_type111's own check,
        # made before any lookup
        long = make_chain(2, range(0, -2 * RANK_CAP - 1, -2), [{}] * RANK_CAP)
        misses = multgl._gl_form.cache_info().misses
        with pytest.raises(ResourceLimitError, match=f"^GL_{RANK_CAP + 1} has "):
            mult_type111(long)
        assert multgl._gl_form.cache_info().misses == misses
        assert [cache.cache_info().currsize for cache in CACHES.values()] == [0] * len(CACHES)

    def test_long_inputs_are_refused_before_any_build(self, monkeypatch):
        for cache in CACHES.values():
            cache.cache_clear()
        cap = RANK_CAP
        assert chain.RANK_CAP is errors.RANK_CAP == 141
        # k up to RANK_CAP, the largest GL rank, is admitted
        assert polyalg.qbinom_factored(cap, cap) == FactoredChar({})
        assert polyalg.qbinom_factored(10**6, cap) == _closed_gaussian(10**6, cap)
        # one above it is refused, for any n: qbinom_factored(10**6,
        # 5 * 10**5) took 0.85 s and 288 MB when built
        for n, k in [(cap + 1, cap + 1), (10**6, 5 * 10**5)]:
            with pytest.raises(ResourceLimitError) as exc:
                polyalg.qbinom_factored(n, k)
            assert str(exc.value) == (
                f"quantum binomial ({n},{k}) has {k} factor pairs, above the cap 141"
            )
        # a chain of rank RANK_CAP is built; one more line bundle is refused
        # before anything is built: chain_from_m(2, [0] * 10**5) built a
        # rank-100001 chain
        assert chain_from_m(2, [0] * (RANK_CAP - 1)).rank == RANK_CAP
        built = []
        monkeypatch.setattr(chain, "make_chain", lambda *args: built.append(args))
        for m in ([0] * RANK_CAP, [0] * 10**5, [1] * 9999):
            with pytest.raises(ResourceLimitError) as exc:
                chain_from_m(2, m)
            assert str(exc.value) == f"GL_{len(m) + 1} has {len(m) + 1} invariant degrees, above the cap 141"
        assert built == [] and chain._chain_from_m.cache_info().currsize == 0

    def test_cached_values_equal_fresh_builds(self):
        for g in range(2, 41):
            for n in range(1, 11):
                base = gl_hitchin_base_dims(g, n)
                assert base == WeightDims(chain._base_terms(g, n))
                assert base.as_dict() == {1: g, **{k: (2 * k - 1) * (g - 1) for k in range(2, n + 1)}}
                assert gl_hitchin_base_dims(g, n) == base
                form = mult_type_n(g, n).factored
                assert form == multgl._gl_form.__wrapped__(g, (0,), (n,)) == _closed_master(g, n)
                assert form == virtual_multiplicity(WeightDims({1: n * n * (g - 1) + 1}), base).factored
                assert mult_type_n(g, n).factored is form
                assert euler_prefactor(g, n) == sum(k * e for k, e in form)
        for n in range(1, 31):
            for k in range(n + 1):
                assert polyalg.qbinom_factored(n, k) == _closed_gaussian(n, k)
        for g in range(2, 21):
            for w in range(1, 3 * g - 3):
                m = mult_type12_rank3(g, w)
                fresh = multgl._gl_form.__wrapped__(g, (0, -w), (1, 2))
                assert m.factored == fresh == _closed_wobbly(g, w)
                assert mult_type12_rank3(g, w).factored is m.factored
                assert m.is_polynomial == (w <= g - 1)
                if m.is_polynomial:
                    master = _closed_master(g, 3)
                    assert master_divisibility(m, g, 3) == all(
                        master._cyclotomic.get(d, 0) >= c for d, c in m.factored._cyclotomic.items()
                    )

    def test_cached_chains_and_type111_equal_fresh_builds(self):
        grid = [
            (g, m, top)
            for g in (2, 3, 5)
            for m in [(), (0,), (1,), (2, 0), (0, 3), (1, 1, 1), (2, 0, 1, 3), (1, 0, 2, 0, 1)]
            for top in (-3, 0, 4)
        ]
        for _ in range(2):  # first calls fill the caches, repeats hit them
            for g, m, top in grid:
                c = chain_from_m(g, m, top_degree=top)
                fresh = chain._chain_from_m.__wrapped__(g, m, top)
                assert c == fresh and chain_from_m(g, list(m), top) is c
                if not chain.is_stable(c):
                    continue
                form = mult_type111(c).factored
                assert form == multgl._gl_form.__wrapped__(g, c.degrees)
                closed = FactoredChar()
                for i, mi in enumerate(m, start=1):
                    closed = closed * _closed_gaussian(len(m) + 1, i) ** mi
                assert form == closed
                assert mult_type111(fresh).factored is form

    def test_chain_refusals_come_before_the_cache(self):
        mult_type111(chain_from_m(3, [1, 2], 1))
        unstable = chain_from_m(2, [3])  # degrees (0, 1): L_1 destabilises
        # each call but the last equals a key just cached (3.0 == 3, True == 1)
        refused = [
            (DomainError, "genus must be an integer, got 3.0", lambda: chain_from_m(3.0, [1, 2], 1)),
            (DomainError, "genus must be an integer, got True", lambda: chain_from_m(True, [1, 2], 1)),
            (DomainError, "m-vector entry must be an integer, got True", lambda: chain_from_m(3, [True, 2], 1)),
            (DomainError, "m-vector entry must be an integer, got 2.0", lambda: chain_from_m(3, [1, 2.0], 1)),
            (DomainError, "top degree must be an integer, got True", lambda: chain_from_m(3, [1, 2], True)),
            (DomainError, "top degree must be an integer, got 1.0", lambda: chain_from_m(3, [1, 2], 1.0)),
            (
                ResourceLimitError,
                f"m-vector has {chain.ZERO_CAP + 1} zeros, above the cap {chain.ZERO_CAP}",
                lambda: chain_from_m(3, [1, chain.ZERO_CAP]),
            ),
        ]
        for error, message, call in refused:
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message
        info = multgl._gl_form.cache_info()
        for _ in range(2):
            with pytest.raises(DomainError, match="needs a stable chain"):
                mult_type111(unstable)
        assert multgl._gl_form.cache_info() == info

    def test_cross_check_runs_on_every_miss(self, monkeypatch):
        multgl._gl_form.cache_clear()
        c = chain_from_m(3, (2, 0, 3))
        right = mult_type111(c).factored  # a hit needs no check
        monkeypatch.setattr(multgl, "block_tplus_dims", lambda g, blocks: WeightDims({1: 1}))
        assert mult_type111(c).factored is right
        multgl._gl_form.cache_clear()
        for _ in range(2):  # a failed check keeps no entry
            with pytest.raises(InternalError) as exc:
                mult_type111(c)
            assert str(exc.value) == (
                "chain multiplicity: quantum binomial closed form disagrees with the weight ratio"
            )
        info = multgl._gl_form.cache_info()
        assert (info.misses, info.currsize) == (2, 0)
        # a rank-one chain, whose closed form is the empty product, is checked too
        with pytest.raises(InternalError):
            mult_type111(chain_from_m(3, ()))
        # an unadmitted key runs the check too
        with pytest.raises(InternalError):
            mult_type111(chain_from_m(2**30, (1,)))

    def test_only_small_keys_are_kept(self):
        for cache in CACHES.values():
            cache.cache_clear()
        big = 2**30
        gl_hitchin_base_dims(big, 2)
        mult_type_n(big, 3)
        mult_type12_rank3(big, 1)
        mult_type12_rank3(big, big)
        c = chain_from_m(big, [1, 1])
        mult_type111(c)
        assert [cache.cache_info().currsize for cache in CACHES.values()] == [0, 0]
        assert c == chain._chain_from_m.__wrapped__(big, (1, 1), 0)
        # a small genus with a huge degree, too many zeros, too long an m-vector
        mult_type111(chain_from_m(3, [1], top_degree=-big))
        chain_from_m(3, [1] * 65)
        chain_from_m(3, [0] * 65)
        assert chain._chain_from_m.cache_info().currsize == 0
        assert multgl._gl_form.cache_info().currsize == 0
        for cache in CACHES.values():
            cache.cache_clear()
        # just inside every bound, each is kept; the base never is
        gl_hitchin_base_dims(big - 1, 2)
        assert multgl._gl_form.cache_info().currsize == 0
        mult_type_n(big - 1, 2)
        chain_from_m(big - 1, [1] * 64, top_degree=1 - big)
        chain_from_m(3, [0] * 64)
        mult_type111(chain_from_m(3, [1], top_degree=big - 1))  # degrees (big - 1, big - 4)
        assert chain._chain_from_m.cache_info().currsize == 3
        assert multgl._gl_form.cache_info().currsize == 2

    def test_huge_genera_keep_no_memory(self):
        mult_type_n(10**3000, RANK_CAP)  # warm every small-integer cache first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(128):
                mult_type_n(10**3000 + i, RANK_CAP)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 * 2**20, kept

    def test_a_shared_form_keeps_results_apart(self):
        a, b = mult_type_n(4, 5), mult_type_n(4, 5)
        assert a.factored is b.factored and a == b
        assert isinstance(a.polynomial, IntPoly)
        assert "polynomial" not in vars(b)  # each result expands on its own first read
        assert b.polynomial == a.polynomial


class TestEulerPrefactor:
    def test_examples(self):
        assert euler_prefactor(2, 2) == 3
        assert euler_prefactor(2, 1) == 0
        assert euler_prefactor(3, 3) == 26

    def test_rank2_is_dimension_exponent(self):
        for g in range(2, 7):
            assert euler_prefactor(g, 2) == 3 * g - 3

    def test_always_integral(self):
        for g in range(2, 8):
            for n in range(1, 10):
                value = euler_prefactor(g, n)
                assert isinstance(value, int)
                assert 6 * value == (4 * n + 1) * (n - 1) * n * (g - 1)

    def test_domain(self):
        with pytest.raises(DomainError, match="genus must be >= 2, got 1"):
            euler_prefactor(1, 2)
        with pytest.raises(DomainError, match="rank must be >= 1, got 0"):
            euler_prefactor(2, 0)
        with pytest.raises(ResourceLimitError, match="GL_142"):
            euler_prefactor(2, RANK_CAP + 1)


class TestEulerPairing:
    def test_trivial_pair_series(self):
        # frozen from the recurrence oracle: 1/((1-t)^2 (1-t^2)^3)
        assert factored_series({1: -2, 2: -3}, 3) == [1, 2, 6, 10]
        one = MultResult(FactoredChar())
        s = euler_pairing_series(one, one, 2, 2, 3)
        assert s.coeffs == (1, 2, 6, 10)

    def test_symmetry(self):
        a = mult_type_n(2, 2)
        b = MultResult(FactoredChar({3: 1, 1: -1}))
        assert euler_pairing_series(a, b, 2, 3, 12) == euler_pairing_series(b, a, 2, 3, 12)

    def test_builds_one_factored_character(self, monkeypatch):
        # the pairing character and the recurrence's stencil, counted at
        # the merge every map goes through: the base is read through the
        # cached master form, so no base grading is built
        a, b = mult_type_n(4, 5), mult_type_n(4, 5)
        built = []
        merge = SparseMap._merge.__func__
        monkeypatch.setattr(
            SparseMap, "_merge", classmethod(lambda cls, pairs: built.append(cls) or merge(cls, pairs))
        )
        s = euler_pairing_series(a, b, 4, 5, 400)
        assert len(built) <= 2 and WeightDims not in built, [m.__name__ for m in built]
        monkeypatch.undo()
        sym = FactoredChar(gl_hitchin_base_dims(4, 5)).scale(-1)
        assert s == polyalg.series_expand(sym * a.factored * b.factored, 400)

    def test_not_polynomial_rejected(self):
        bad = MultResult(FactoredChar({3: 1, 2: -1}))
        one = MultResult(FactoredChar())
        with pytest.raises(DomainError, match="polynomial"):
            euler_pairing_series(bad, one, 2, 3, 5)

    def test_refusal_messages(self):
        # the genus, then the rank, then the rank cap, then the sides
        bad = MultResult(FactoredChar({3: 1, 2: -1}))
        cases = [
            (ONE, 1, 2, DomainError, "genus must be >= 2, got 1"),
            (ONE, 2, 0, DomainError, "rank must be >= 1, got 0"),
            (ONE, 2, RANK_CAP + 1, ResourceLimitError, "GL_142 has 142 invariant degrees, above the cap 141"),
            (ONE, 3.0, 2, DomainError, "genus must be an integer, got 3.0"),
            (ONE, 3, 3.0, DomainError, "rank must be an integer, got 3.0"),
            (ONE, True, 2, DomainError, "genus must be an integer, got True"),
            (ONE, 3, True, DomainError, "rank must be an integer, got True"),
            (ONE, 1, 0, DomainError, "genus must be >= 2, got 1"),
            (ONE, 1.5, RANK_CAP + 1, DomainError, "genus must be an integer, got 1.5"),
            (ONE, 2, 142.0, DomainError, "rank must be an integer, got 142.0"),
            (bad, 1, 2, DomainError, "genus must be >= 2, got 1"),
            (bad, 2, 0, DomainError, "rank must be >= 1, got 0"),
            (bad, 2, RANK_CAP + 1, ResourceLimitError, "GL_142 has 142 invariant degrees, above the cap 141"),
            (bad, True, 2, DomainError, "genus must be an integer, got True"),
            (bad, 2, 2, DomainError, "the pairing needs polynomial multiplicities"),
        ]
        for side, g, n, error, message in cases:
            for a, b in ((side, ONE), (ONE, side)):
                with pytest.raises(error) as exc:
                    euler_pairing_series(a, b, g, n, 5)
                assert type(exc.value) is error and str(exc.value) == message

    def test_pairing_reads_the_master(self):
        # chi_T(Sym A*) = (1-t)^-(n^2(g-1)+1) / master against its definition,
        # the base grading's negated terms, with type (n), type (1,2) and
        # chain sides
        chains = 0
        for g in range(2, 13):
            for n in range(1, 10):
                sides = [mult_type_n(g, n), mult_type_n(g, 1), ONE]
                sides += [mult_type12_rank3(g, w) for w in (1, g - 1, g, 3 * g - 4)]
                for m in ([], [1] * (n - 1), [i % 3 for i in range(n - 1)], [2 * g - 3] * (n - 1)):
                    c = chain_from_m(g, m)
                    if chain.is_stable(c):
                        sides.append(mult_type111(c))
                        chains += 1
                base = [(k, -d) for k, d in gl_hitchin_base_dims(g, n)]
                for a, b in product(sides, repeat=2):
                    expected = FactoredChar._merge([*base, *a.factored, *b.factored])
                    assert multgl._pairing_factored(a, b, g, n) == expected, (g, n)
        assert chains > 4 * 11 * 9 // 2, chains

    def test_against_oracle(self):
        a = mult_type_n(2, 2)  # (1+t)^3
        s = euler_pairing_series(a, a, 2, 2, 8)
        num = [1]
        from oracles import mul_lists, pow_list, series_quotient

        num = pow_list([1, 1], 6)
        den = mul_lists(pow_list([1, -1], 2), pow_list([1, 0, -1], 3))
        expected = series_quotient(num, den, 8)
        assert [int(x) for x in expected] == list(s.coeffs)

    @given(
        polynomial_mults(),
        polynomial_mults(),
        st.integers(2, 3),
        st.integers(1, 3),
        st.integers(1, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_folded_against_oracle_product(self, a, b, g, n, order):
        s = euler_pairing_series(a, b, g, n, order)
        sym = {k: -d for k, d in gl_hitchin_base_dims(g, n)}
        expected = mul_lists(
            mul_lists(factored_series(sym, order), list(a.polynomial.coeffs)),
            list(b.polynomial.coeffs),
        )
        expected = (expected + [0] * (order + 1))[: order + 1]
        assert list(s.coeffs) == expected


class TestMultResultInvariants:
    @given(st.integers(2, 4), st.lists(st.integers(0, 3), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_palindromic_and_degree(self, g, m):
        if any(x >= 2 * g - 2 for x in m):
            return
        c = chain_from_m(g, m)
        r = mult_type111(c)
        assert isinstance(r.polynomial, IntPoly)
        assert is_palindromic_monic(r.polynomial)
        assert r.polynomial.degree == sum(k * e for k, e in r.factored)
        assert r.value_at_1 == r.polynomial.value_at_one()
