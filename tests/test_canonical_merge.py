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
from higgsmult.chain import (
    ChainHiggsBundle,
    Divisor,
    WeightDims,
    block_tplus_dims,
    chain_from_json,
    chain_from_m,
    gl_hitchin_base_dims,
    make_chain,
    twist,
)
from higgsmult.errors import DomainError, ResourceLimitError
from higgsmult.hecke import hecke_add_zero, hecke_remove_zero
from higgsmult.multgl import _pairing_factored, mult_type12_rank3, mult_type_n, virtual_multiplicity
from higgsmult.multsimple import (
    mult_cominuscule,
    mult_simple,
    polynomiality_scan,
    unit_multiplicity_factored,
)
from higgsmult.polyalg import (
    FactoredChar,
    IntPoly,
    MultResult,
    TruncatedSeries,
    power_product,
    qbinom,
    qbinom_factored,
    series_expand,
)
from higgsmult.rootsys import LieType, build, levi_degrees, weyl_orbit_minuscule

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

    @given(factored, factored, st.integers(2, 40), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_pairing_character(self, a, b, g, n):
        out = _pairing_factored(MultResult(a), MultResult(b), g, n)
        assert_canonical(out)
        assert out == a * b * FactoredChar(gl_hitchin_base_dims(g, n)).scale(-1)

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


# malformed input -> (exception class, exact message): every number, a
# map's key or count as much as a scalar argument, by errors.check_int,
# naming what it checks; a map's entries that are not pairs by the
# constructor, and power_product's entries with the same message
A2 = LieType("A", 2)
CHAIN = chain_from_m(3, [2])  # degrees (0, -2), zeros z1.1 and z1.2
JSON_CHAIN = {"genus": 3, "degrees": [2, 0], "delta0": {"o": 2}, "zeros": [{"p": 1, "q": 1}]}
REFUSALS = {
    "power_product float exponent": (
        lambda: power_product([(FactoredChar({2: 1}), 1.5)]),
        DomainError, "power must be an integer, got 1.5",
    ),
    "power_product str exponent": (
        lambda: power_product([(FactoredChar({2: 1}), "2")]),
        DomainError, "power must be an integer, got '2'",
    ),
    "power_product mapping factor": (
        lambda: power_product([({2: 1}, 1)]),
        DomainError,
        "FactoredChar takes (key, integer) pairs: cannot unpack non-iterable int object",
    ),
    "power_product mapping factor at power 0": (
        lambda: power_product([({3: 1}, 0)]),
        DomainError,
        "FactoredChar takes (key, integer) pairs: cannot unpack non-iterable int object",
    ),
    "power_product mapping factor at power 1": (
        lambda: power_product([({3: 1}, 1)]),
        DomainError,
        "FactoredChar takes (key, integer) pairs: cannot unpack non-iterable int object",
    ),
    "power_product non-iterable factor at power 0": (
        lambda: power_product([(5, 0)]),
        DomainError, "FactoredChar takes (key, integer) pairs: 'int' object is not iterable",
    ),
    "power_product non-iterable factor": (
        lambda: power_product([(5, 1)]),
        DomainError, "FactoredChar takes (key, integer) pairs: 'int' object is not iterable",
    ),
    "power_product three-item entry": (
        lambda: power_product([(FactoredChar({2: 1}), 2, 3)]),
        DomainError, "FactoredChar takes (key, integer) pairs: too many values to unpack (expected 2)",
    ),
    "constructor three-item entry": (
        lambda: FactoredChar([(1, 2, 3)]),
        DomainError, "FactoredChar takes (key, integer) pairs: too many values to unpack (expected 2)",
    ),
    "lookup by a float": (
        lambda: FactoredChar({1: 2})[1.5],
        DomainError, "factor index must be an integer, got 1.5",
    ),
    "power_product bad factor index": (
        lambda: power_product([([(0, 1)], 1)]),
        DomainError, "factor index must be >= 1, got 0",
    ),
    "scale by a float": (
        lambda: FactoredChar({1: 2}).scale(1.5),
        DomainError, "scale factor must be an integer, got 1.5",
    ),
    "power by a float": (
        lambda: FactoredChar({1: 2}) ** 1.5,
        DomainError, "scale factor must be an integer, got 1.5",
    ),
    "base float genus": (
        lambda: gl_hitchin_base_dims(2.5, 3),
        DomainError, "genus must be an integer, got 2.5",
    ),
    "base float genus, rank 1": (
        lambda: gl_hitchin_base_dims(2.5, 1),
        DomainError, "genus must be an integer, got 2.5",
    ),
    "base str genus": (
        lambda: gl_hitchin_base_dims("2", 3),
        DomainError, "genus must be an integer, got '2'",
    ),
    "base bool genus": (
        lambda: gl_hitchin_base_dims(True, 3),
        DomainError, "genus must be an integer, got True",
    ),
    "base float rank": (
        lambda: gl_hitchin_base_dims(2, 2.5),
        DomainError, "rank must be an integer, got 2.5",
    ),
    "blocks float genus": (
        lambda: block_tplus_dims(2.5, [(1, 0)]),
        DomainError, "genus must be an integer, got 2.5",
    ),
    "blocks float degree": (
        lambda: block_tplus_dims(2, [(1, 0.5)]),
        DomainError, "block degree must be an integer, got 0.5",
    ),
    "blocks float rank": (
        lambda: block_tplus_dims(2, [(1.0, 0), (2, -1)]),
        DomainError, "block rank must be an integer, got 1.0",
    ),
    "blocks bool rank": (
        lambda: block_tplus_dims(2, [(True, 0)]),
        DomainError, "block rank must be an integer, got True",
    ),
    "blocks zero rank": (
        lambda: block_tplus_dims(2, [(0, 0)]),
        DomainError, "block rank must be >= 1, got 0",
    ),
    "blocks genus 1": (
        lambda: block_tplus_dims(1, [(1, 0)]),
        DomainError, "genus must be >= 2, got 1",
    ),
    "blocks empty": (
        lambda: block_tplus_dims(2, []),
        DomainError, "a GL_n fixed point needs at least one block",
    ),
    "blocks total rank past the cap": (
        lambda: block_tplus_dims(2, [(1, 0)] * 2000),
        ResourceLimitError, "GL_2000 has 2000 invariant degrees, above the cap 141",
    ),
    "blocks one huge rank": (
        lambda: block_tplus_dims(2, [(10**6, 0)]),
        ResourceLimitError, "GL_1000000 has 1000000 invariant degrees, above the cap 141",
    ),
    "make_chain float first degree": (
        lambda: make_chain(3, [1.0, 0]),
        DomainError, "line bundle degree must be an integer, got 1.0",
    ),
    "make_chain bool first degree": (
        lambda: make_chain(3, [True, 0]),
        DomainError, "line bundle degree must be an integer, got True",
    ),
    "make_chain float zero first degree": (
        lambda: make_chain(3, [0.0, 0]),
        DomainError, "line bundle degree must be an integer, got 0.0",
    ),
    "make_chain float genus before a float degree": (
        lambda: make_chain(3.0, [1.0, 0]),
        DomainError, "genus must be an integer, got 3.0",
    ),
    "mult_type_n float rank": (
        lambda: mult_type_n(3, 2.0),
        DomainError, "rank must be an integer, got 2.0",
    ),
    "mult_type_n float genus": (
        lambda: mult_type_n(3.0, 2),
        DomainError, "genus must be an integer, got 3.0",
    ),
    "mult_type_n bool rank": (
        lambda: mult_type_n(3, True),
        DomainError, "rank must be an integer, got True",
    ),
    "mult_type12_rank3 float 2l-v": (
        lambda: mult_type12_rank3(3, 2.0),
        DomainError, "2l-v must be an integer, got 2.0",
    ),
    "mult_type12_rank3 bool 2l-v": (
        lambda: mult_type12_rank3(3, True),
        DomainError, "2l-v must be an integer, got True",
    ),
    "chain float genus": (
        lambda: ChainHiggsBundle(3.0, (0,)),
        DomainError, "genus must be an integer, got 3.0",
    ),
    "chain_from_m float entry": (
        lambda: chain_from_m(3, [1.9]),
        DomainError, "m-vector entry must be an integer, got 1.9",
    ),
    "chain_from_m str entry": (
        lambda: chain_from_m(3, ["1"]),
        DomainError, "m-vector entry must be an integer, got '1'",
    ),
    "chain_from_m bool entry": (
        lambda: chain_from_m(3, [True]),
        DomainError, "m-vector entry must be an integer, got True",
    ),
    "chain_from_m float top degree": (
        lambda: chain_from_m(3, [1], top_degree=0.7),
        DomainError, "top degree must be an integer, got 0.7",
    ),
    "chain_from_m str genus": (
        lambda: chain_from_m("3", [1]),
        DomainError, "genus must be an integer, got '3'",
    ),
    "chain_from_json float genus": (
        lambda: chain_from_json({**JSON_CHAIN, "genus": 3.0}),
        DomainError, "chain genus must be an integer, got 3.0",
    ),
    "chain_from_json bool degree": (
        lambda: chain_from_json({**JSON_CHAIN, "degrees": [2, True]}),
        DomainError, "chain degrees[1] must be an integer, got True",
    ),
    "chain_from_json float delta0 multiplicity": (
        lambda: chain_from_json({**JSON_CHAIN, "delta0": {"o": 2.0}}),
        DomainError, "chain delta0 multiplicity of 'o' must be an integer, got 2.0",
    ),
    "chain_from_json str zero multiplicity": (
        lambda: chain_from_json({**JSON_CHAIN, "zeros": [{"p": 1, "q": "1"}]}),
        DomainError, "chain zeros[0] multiplicity of 'q' must be an integer, got '1'",
    ),
    "zero_divisor float index": (
        lambda: CHAIN.zero_divisor(1.0),
        DomainError, "map index must be an integer, got 1.0",
    ),
    "twist float multiplicity": (
        lambda: twist(CHAIN, "p", 0.5),
        DomainError, "twist multiplicity must be an integer, got 0.5",
    ),
    "hecke_remove_zero float index": (
        lambda: hecke_remove_zero(CHAIN, 1.0, "z1.1"),
        DomainError, "map index must be an integer, got 1.0",
    ),
    "hecke_add_zero bool dimension": (
        lambda: hecke_add_zero(CHAIN, True, "x"),
        DomainError, "invariant subspace dimension must be an integer, got True",
    ),
    "LieType str rank": (
        lambda: LieType("A", "3"),
        DomainError, "rank must be an integer, got '3'",
    ),
    "LieType float rank": (
        lambda: LieType("A", 3.0),
        DomainError, "rank must be an integer, got 3.0",
    ),
    "LieType bool rank": (
        lambda: LieType("A", True),
        DomainError, "rank must be an integer, got True",
    ),
    "levi_degrees float node": (
        lambda: levi_degrees(build(A2), 1.0),
        DomainError, "node index must be an integer, got 1.0",
    ),
    "mult_cominuscule float node": (
        lambda: mult_cominuscule(build(A2), 1.0),
        DomainError, "node must be an integer, got 1.0",
    ),
    "weyl_orbit_minuscule bool node": (
        lambda: weyl_orbit_minuscule(build(A2), True),
        DomainError, "node must be an integer, got True",
    ),
    "unit_multiplicity_factored float node": (
        lambda: unit_multiplicity_factored(build(A2), 1.0),
        DomainError, "node must be an integer, got 1.0",
    ),
    "polynomiality_scan float bound": (
        lambda: polynomiality_scan(build(A2), 1.5),
        DomainError, "scan bound must be an integer, got 1.5",
    ),
    "polynomiality_scan str bound": (
        lambda: polynomiality_scan(build(A2), "2"),
        DomainError, "scan bound must be an integer, got '2'",
    ),
    "series_expand float order": (
        lambda: series_expand(FactoredChar({1: -1}), 2.5),
        DomainError, "series order must be an integer, got 2.5",
    ),
    "series_expand bool order": (
        lambda: series_expand(FactoredChar({1: -1}), True),
        DomainError, "series order must be an integer, got True",
    ),
    "TruncatedSeries str order": (
        lambda: TruncatedSeries("2"),
        DomainError, "series order must be an integer, got '2'",
    ),
    "IntPoly float power": (
        lambda: IntPoly((1, 1)) ** 2.0,
        DomainError, "polynomial power must be an integer, got 2.0",
    ),
    "mult_simple float entry": (
        lambda: mult_simple(build(A2), [1.5, 0]),
        DomainError, "m-vector entry must be an integer, got 1.5",
    ),
    "mult_simple negative entry": (
        lambda: mult_simple(build(A2), [-1, 0]),
        DomainError, "m-vector entry must be >= 0, got -1",
    ),
    "mult_simple bool entry": (
        lambda: mult_simple(build(A2), [True, 0]),
        DomainError, "m-vector entry must be an integer, got True",
    ),
    "mult_simple str entry": (
        lambda: mult_simple(build(A2), ["1", 0]),
        DomainError, "m-vector entry must be an integer, got '1'",
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
        DomainError, "n must be an integer, got 4.0",
    ),
    "qbinom str k": (
        lambda: qbinom(4, "2"),
        DomainError, "k must be an integer, got '2'",
    ),
    "qbinom_factored float n": (
        lambda: qbinom_factored(4.0, 2),
        DomainError, "n must be an integer, got 4.0",
    ),
    "qbinom_factored float n, k out of range": (
        lambda: qbinom_factored(4.0, 5),
        DomainError, "n must be an integer, got 4.0",
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
        assert power_product([(FactoredChar({2: 1}), 0)]) == FactoredChar()
        with pytest.raises(DomainError, match="^power must be an integer, got 0.0$"):
            power_product([(FactoredChar({2: 1}), 0.0)])
