"""Sparse maps built by arithmetic equal their checked rebuild.

`SparseMap`'s constructor checks every key and count and then merges;
arithmetic on maps merges terms that are canonical already, without
checking them again.  The differential tests here rebuild every result
through the checking constructor, `type(f)(f.terms)`, and compare terms,
hash and equality; the refusal tests pin each entry point's exception
class and message for malformed input.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmult import SparseMap, polyalg
from higgsmult.chain import Divisor, WeightDims, block_tplus_dims, gl_hitchin_base_dims
from higgsmult.errors import DomainError
from higgsmult.multgl import _pairing_factored, virtual_multiplicity
from higgsmult.multsimple import mult_simple
from higgsmult.polyalg import FactoredChar, MultResult, power_product, qbinom, qbinom_factored
from higgsmult.rootsys import LieType, build

# pair lists with repeated keys, negative counts and counts that cancel
pair_lists = st.lists(st.tuples(st.integers(1, 12), st.integers(-4, 4)), max_size=10)
factored = pair_lists.map(FactoredChar)
labels = st.sampled_from(["p", "q", "r", "z1.1"])


def assert_canonical(f):
    rebuilt = type(f)(f.terms)
    assert f.terms == rebuilt.terms
    assert hash(f) == hash(rebuilt) and f == rebuilt
    assert list(f._dict.items()) == list(f.terms)


def brute_cyclotomic(f):
    top = max((k for k, _ in f.terms), default=0)
    c = {d: sum(e for k, e in f.terms if k % d == 0) for d in range(1, top + 1)}
    return {d: e for d, e in c.items() if e}


class TestMergeAgainstRebuild:
    @given(factored, factored, st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_sum_difference_and_scale(self, f, g, m):
        for out in (f + g, f - g, f - f, f + f.scale(-1), f.scale(m), f * g, f ** m):
            assert_canonical(out)
        assert f - f == FactoredChar() and f.scale(0) == FactoredChar()

    @given(st.lists(st.tuples(factored, st.integers(-3, 3)), max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_power_product(self, powers):
        out = power_product(powers)
        assert_canonical(out)
        naive = FactoredChar()
        for f, m in powers:
            naive = naive * f ** m
        assert out == naive

    @given(pair_lists, pair_lists)
    @settings(max_examples=150, deadline=None)
    def test_virtual_multiplicity(self, tplus, base):
        out = virtual_multiplicity(WeightDims(tplus), WeightDims(base)).factored
        assert_canonical(out)
        assert out == FactoredChar(base) - FactoredChar(tplus)

    @given(factored, factored, pair_lists)
    @settings(max_examples=150, deadline=None)
    def test_pairing_character(self, a, b, base):
        out = _pairing_factored(MultResult(a), MultResult(b), WeightDims(base))
        assert_canonical(out)
        assert out == a * b * FactoredChar(base).scale(-1)

    @given(st.lists(st.tuples(labels, st.integers(-3, 3)), max_size=8), labels)
    @settings(max_examples=100, deadline=None)
    def test_divisor_sum_and_difference(self, pairs, label):
        d = Divisor(pairs)
        unit = Divisor.of_points(label)
        for out in (d + unit, d - unit, d - d, unit.scale(-2)):
            assert_canonical(out)

    @given(factored)
    @settings(max_examples=200, deadline=None)
    def test_cyclotomic_exponents_by_brute_force(self, f):
        brute = brute_cyclotomic(f)
        assert f._cyclotomic == brute
        assert list(f._cyclotomic.items()) == sorted(brute.items())

    def test_divisor_lists_are_shared_tuples(self):
        assert polyalg._divisors(12) == (1, 2, 3, 4, 6, 12)
        assert polyalg._divisors(36) == (1, 2, 3, 4, 6, 9, 12, 18, 36)
        assert polyalg._divisors(1) == (1,)
        assert polyalg._divisors(12) is polyalg._divisors(12)


# malformed input -> (exception class, exact message), each as it was when
# the constructor checked every term of every sum, scale and product
A2 = LieType("A", 2)
FLOAT = "'float' object cannot be interpreted as an integer"
REFUSALS = {
    "power_product float exponent": (
        lambda: power_product([(FactoredChar({2: 1}), 1.5)]),
        DomainError, f"FactoredChar takes (key, integer) pairs: {FLOAT}",
    ),
    "power_product str exponent": (
        lambda: power_product([(FactoredChar({2: 1}), "2")]),
        DomainError,
        "FactoredChar takes (key, integer) pairs: 'str' object cannot be interpreted as an integer",
    ),
    "power_product mapping factor": (
        lambda: power_product([({2: 1}, 1)]),
        DomainError,
        "FactoredChar takes (key, integer) pairs: cannot unpack non-iterable int object",
    ),
    "power_product bad factor index": (
        lambda: power_product([([(0, 1)], 1)]),
        DomainError, "factor index must be >= 1, got 0",
    ),
    "scale by a float": (
        lambda: FactoredChar({1: 2}).scale(1.5),
        DomainError, f"FactoredChar takes (key, integer) pairs: {FLOAT}",
    ),
    "power by a float": (
        lambda: FactoredChar({1: 2}) ** 1.5,
        DomainError, f"FactoredChar takes (key, integer) pairs: {FLOAT}",
    ),
    "base float genus": (
        lambda: gl_hitchin_base_dims(2.5, 3),
        DomainError, f"WeightDims takes (key, integer) pairs: {FLOAT}",
    ),
    "base float genus, rank 1": (
        lambda: gl_hitchin_base_dims(2.5, 1),
        DomainError, f"WeightDims takes (key, integer) pairs: {FLOAT}",
    ),
    "blocks float genus": (
        lambda: block_tplus_dims(2.5, [(1, 0)]),
        DomainError, f"WeightDims takes (key, integer) pairs: {FLOAT}",
    ),
    "blocks float degree": (
        lambda: block_tplus_dims(2, [(1, 0.5)]),
        DomainError, f"WeightDims takes (key, integer) pairs: {FLOAT}",
    ),
    "blocks float rank": (
        lambda: block_tplus_dims(2, [(1.0, 0), (2, -1)]),
        DomainError, f"WeightDims takes (key, integer) pairs: {FLOAT}",
    ),
    "mult_simple float entry": (
        lambda: mult_simple(build(A2), [1.5, 0]),
        DomainError, "entries of m must be nonnegative integers, got 1.5",
    ),
    "mult_simple negative entry": (
        lambda: mult_simple(build(A2), [-1, 0]),
        DomainError, "entries of m must be nonnegative integers, got -1",
    ),
    "mult_simple bool entry": (
        lambda: mult_simple(build(A2), [True, 0]),
        DomainError, "entries of m must be nonnegative integers, got True",
    ),
    "mult_simple str entry": (
        lambda: mult_simple(build(A2), ["1", 0]),
        DomainError, "entries of m must be nonnegative integers, got '1'",
    ),
    "mult_simple short m": (
        lambda: mult_simple(build(A2), [1]),
        DomainError, "m has 1 entries but A2 has rank 2",
    ),
    "virtual_multiplicity pair list": (
        lambda: virtual_multiplicity([(0, 2)], WeightDims({1: 1})),
        DomainError, "factor index must be >= 1, got 0",
    ),
    "qbinom float n": (
        lambda: qbinom(4.0, 2),
        DomainError, f"FactoredChar takes (key, integer) pairs: {FLOAT}",
    ),
    "qbinom_factored float n": (
        lambda: qbinom_factored(4.0, 2),
        DomainError, f"FactoredChar takes (key, integer) pairs: {FLOAT}",
    ),
    "qbinom_factored float n, k out of range": (
        lambda: qbinom_factored(4.0, 5),
        DomainError, "quantum binomial needs 0 <= k <= n, n >= 1; got k=5, n=4.0",
    ),
    "of_points non-label": (
        lambda: Divisor.of_points("p", 3),
        DomainError, "point label must be a nonempty string",
    ),
    "sum across classes": (
        lambda: FactoredChar({1: 2}) + WeightDims({1: 2}),
        TypeError, "unsupported operand type(s) for +: 'FactoredChar' and 'WeightDims'",
    ),
    "difference across classes": (
        lambda: Divisor({"p": 1}) - WeightDims({1: 2}),
        TypeError, "unsupported operand type(s) for -: 'Divisor' and 'WeightDims'",
    ),
    "product with the base class": (
        lambda: FactoredChar({1: 2}) * SparseMap({1: 2}),
        TypeError, "unsupported operand type(s) for *: 'FactoredChar' and 'SparseMap'",
    ),
}


class TestRefusalParity:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_class_and_message(self, case):
        call, error, message = REFUSALS[case]
        with pytest.raises(Exception) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message

    def test_other_classes_are_not_implemented(self):
        f, w = FactoredChar({1: 2}), WeightDims({1: 2})
        assert f.__add__(w) is NotImplemented and f.__sub__(w) is NotImplemented
        assert w.__add__(f) is NotImplemented and f.__add__({1: 2}) is NotImplemented

    def test_lists_of_pairs_are_checked_where_they_enter(self):
        assert power_product([([(3, 1), (3, 2)], 2), (WeightDims({1: 1}), -1)]) == FactoredChar(
            {1: -1, 3: 6}
        )
        assert virtual_multiplicity([(1, 2)], [(2, 1)]).factored == FactoredChar({1: -2, 2: 1})
        assert power_product([(FactoredChar({2: 1}), 0.0)]) == FactoredChar()
