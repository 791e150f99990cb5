"""Pinned semantics of the package's immutable value classes.

For sample values of every class: constructor normalisation, validation
messages, equality and hashing (the hash of the tuple of compared
fields, so set and dict order follow from the field values), order
where a class has one, repr, copies, and refusal of assignment.
"""
import copy

import pytest

from higgsmult.chain import ChainHiggsBundle, Divisor, Point, Stability, WeightDims
from higgsmult.errors import DomainError
from higgsmult.multgl import MultResult
from higgsmult.multsimple import ScanEntry, ScanReport
from higgsmult.polyalg import FactoredChar, IntPoly, NotPolynomial, SparseMap, TruncatedSeries
from higgsmult.rootsys import DegreeSet, LieType, Root, RootSystem, build


def _chain():
    return ChainHiggsBundle(3, [2, 0], Divisor({"o": 2}), [Divisor({"p": 1, "q": 1})])


# (instance, an equal instance built another way, the compared fields, repr)
SAMPLES = {
    "IntPoly": (
        IntPoly((1, 2, 0, 0)),
        IntPoly([1, 2, 0]),
        ((1, 2),),
        "IntPoly(coeffs=(1, 2))",
    ),
    "IntPoly.zero": (IntPoly(), IntPoly((0, 0)), ((),), "IntPoly(coeffs=())"),
    "NotPolynomial": (
        NotPolynomial(5),
        NotPolynomial(remainder_degree=5),
        (5,),
        "NotPolynomial(remainder_degree=5)",
    ),
    "SparseMap": (
        SparseMap([(3, 1), (1, 2), (3, -1), (2, 5)]),
        SparseMap({2: 5, 1: 2}),
        (((1, 2), (2, 5)),),
        "SparseMap(terms=((1, 2), (2, 5)))",
    ),
    "FactoredChar": (
        FactoredChar({2: 3, 1: -3}),
        FactoredChar([(1, -1), (2, 3), (1, -2)]),
        (((1, -3), (2, 3)),),
        "FactoredChar(terms=((1, -3), (2, 3)))",
    ),
    "Divisor": (
        Divisor({"q": 1, "p": 2}),
        Divisor.of_points(Point("p"), "q", "p"),
        (((Point("p"), 2), (Point("q"), 1)),),
        "Divisor(terms=((Point(label='p'), 2), (Point(label='q'), 1)))",
    ),
    "WeightDims": (WeightDims({1: 2}), WeightDims([(1, 1), (1, 1)]), (((1, 2),),),
                   "WeightDims(terms=((1, 2),))"),
    "TruncatedSeries": (
        TruncatedSeries(3, (1, 2)),
        TruncatedSeries(order=3, coeffs=[1, 2, 0]),
        (3, (1, 2, 0, 0)),
        "TruncatedSeries(order=3, coeffs=(1, 2, 0, 0))",
    ),
    "Point": (Point("p"), Point(label="p"), ("p",), "Point(label='p')"),
    "ChainHiggsBundle": (
        _chain(),
        ChainHiggsBundle(
            genus=3, degrees=[2, 0], delta0=Divisor({"o": 2}), zero_divisors=(Divisor({"q": 1, "p": 1}),)
        ),
        (3, (2, 0), Divisor({"o": 2}), (Divisor({"p": 1, "q": 1}),)),
        "ChainHiggsBundle(genus=3, degrees=(2, 0), delta0=Divisor(terms=((Point(label='o'), 2),)), "
        "zero_divisors=(Divisor(terms=((Point(label='p'), 1), (Point(label='q'), 1))),))",
    ),
    "ChainHiggsBundle.rank1": (
        ChainHiggsBundle(2, (0,)),
        ChainHiggsBundle(2, [0], Divisor(), []),
        (2, (0,), Divisor(), ()),
        "ChainHiggsBundle(genus=2, degrees=(0,), delta0=Divisor(terms=()), zero_divisors=())",
    ),
    "Stability": (
        Stability(repeated_zero=Point("p")),
        Stability(None, Point("p")),
        (None, Point("p")),
        "Stability(unstable_index=None, repeated_zero=Point(label='p'))",
    ),
    "LieType": (LieType("B", 3), LieType(family="B", rank=3), ("B", 3), "LieType(family='B', rank=3)"),
    "Root": (Root((1, 0), 1), Root(coeffs=(1, 0), height=1), ((1, 0), 1), "Root(coeffs=(1, 0), height=1)"),
    "RootSystem": (
        build(LieType("A", 1)),
        RootSystem(LieType("A", 1), ((2,),), (Root((1,), 1),)),
        (LieType("A", 1), ((2,),), (Root((1,), 1),)),
        "RootSystem(lie_type=LieType(family='A', rank=1), cartan=((2,),), "
        "positive_roots=(Root(coeffs=(1,), height=1),))",
    ),
    "DegreeSet": (DegreeSet((4, 2, 2)), DegreeSet([2, 4, 2]), (2, 2, 4), "DegreeSet(degrees=(2, 2, 4))"),
    "MultResult": (
        MultResult(FactoredChar({2: 3, 1: -3})),
        MultResult(factored=FactoredChar({1: -3, 2: 3})),
        (FactoredChar({2: 3, 1: -3}),),
        "MultResult(factored=FactoredChar(terms=((1, -3), (2, 3))))",
    ),
    "ScanEntry": (
        ScanEntry((0, 1), IntPoly((1, 1))),
        ScanEntry(m=(0, 1), result=IntPoly((1, 1, 0))),
        ((0, 1), IntPoly((1, 1))),
        "ScanEntry(m=(0, 1), result=IntPoly(coeffs=(1, 1)))",
    ),
    "ScanReport": (
        ScanReport(LieType("G", 2), 1, (ScanEntry((0, 0), IntPoly((1,))),)),
        ScanReport(lie_type=LieType("G", 2), bound=1, entries=(ScanEntry((0, 0), IntPoly((1,))),)),
        (LieType("G", 2), 1, (ScanEntry((0, 0), IntPoly((1,))),)),
        "ScanReport(lie_type=LieType(family='G', rank=2), bound=1, "
        "entries=(ScanEntry(m=(0, 0), result=IntPoly(coeffs=(1,))),))",
    ),
}
NAMES = sorted(SAMPLES)
# one field of each class, for the assignment check
FIELD = {
    "IntPoly": "coeffs",
    "IntPoly.zero": "coeffs",
    "NotPolynomial": "remainder_degree",
    "SparseMap": "terms",
    "FactoredChar": "terms",
    "Divisor": "terms",
    "WeightDims": "terms",
    "TruncatedSeries": "order",
    "Point": "label",
    "ChainHiggsBundle": "genus",
    "ChainHiggsBundle.rank1": "degrees",
    "Stability": "unstable_index",
    "LieType": "rank",
    "Root": "height",
    "RootSystem": "cartan",
    "DegreeSet": "degrees",
    "MultResult": "factored",
    "ScanEntry": "result",
    "ScanReport": "bound",
}
# a frozen dataclass refused new attributes only on its own class, so these
# subclasses of SparseMap are checked on their fields alone
SPARSE_SUBCLASSES = {"FactoredChar", "Divisor", "WeightDims"}


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_follow_the_compared_fields(name):
    value, same, fields, _ = SAMPLES[name]
    assert value == same and not value != same
    assert hash(value) == hash(same) == hash(fields)
    assert len({value, same}) == 1
    # equal only to instances of its own class
    assert value != fields and not value == fields
    assert all(value != other[0] for key, other in SAMPLES.items() if key != name)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    value, _, _, text = SAMPLES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_assignment_is_refused(name):
    value = SAMPLES[name][0]
    with pytest.raises(AttributeError):
        setattr(value, FIELD[name], None)
    if name not in SPARSE_SUBCLASSES:
        with pytest.raises(AttributeError):
            value.extra = 1
    assert value == SAMPLES[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_copies_are_equal(name):
    value = SAMPLES[name][0]
    assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_normalisation():
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly((0, 0)).coeffs == () and IntPoly().is_zero
    assert IntPoly([3, 1, 0]).coeffs == (3, 1)
    assert TruncatedSeries(2).coeffs == (0, 0, 0)
    assert DegreeSet((4, 2, 2)).degrees == (2, 2, 4)
    assert tuple(DegreeSet([3, 1])) == (1, 3) and len(DegreeSet([3, 1])) == 2
    assert 3 in DegreeSet([3, 1]) and DegreeSet([3, 1]).weyl_order == 3
    chain = _chain()
    assert chain.degrees == (2, 0) and type(chain.zero_divisors) is tuple
    assert chain.delta0 == Divisor({"o": 2}) and chain.m_vector == (2,)
    assert ChainHiggsBundle(2, (0,)).delta0 == Divisor.zero()
    assert Stability() == Stability(None, None) and Stability().very_stable
    assert Stability(unstable_index=2).reason == "unstable at index 2"
    assert Stability(repeated_zero=Point("p")).reason == "repeated zero at p"
    assert str(LieType("E", 6)) == "E6"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SparseMap({0: 1}), "key must be >= 1, got 0"),
        (lambda: FactoredChar({-2: 1}), "factor index must be >= 1, got -2"),
        (lambda: WeightDims({0: 1}), "weight must be >= 1, got 0"),
        (lambda: SparseMap({2.5: 1}), "key must be an integer, got 2.5"),
        (lambda: FactoredChar({1: 0.5}), "FactoredChar count must be an integer, got 0.5"),
        (lambda: SparseMap([(1, 2, 3)]), "SparseMap takes (key, integer) pairs: "),
        (lambda: FactoredChar([(1,)]), "FactoredChar takes (key, integer) pairs: "),
        (lambda: IntPoly([3.7, True]), "polynomial coefficient must be an integer, got 3.7"),
        (lambda: Divisor({"": 1}), "point label must be a nonempty string"),
        (lambda: TruncatedSeries(-1), "series order must be >= 0, got -1"),
        (lambda: TruncatedSeries(1, (1, 2, 3)), "more coefficients than the order allows"),
        (lambda: Point(""), "point label must be a nonempty string"),
        (lambda: Point(7), "point label must be a nonempty string"),
        (lambda: ChainHiggsBundle(1, (0,)), "genus must be >= 2, got 1"),
        (lambda: ChainHiggsBundle(2, ()), "a chain needs at least one line bundle degree"),
        (lambda: ChainHiggsBundle(2, (0, 0)), "expected 1 zero divisors for rank 2, got 0"),
        (
            lambda: ChainHiggsBundle(2, (1,)),
            "delta0 has degree 0, the first line bundle needs 1",
        ),
        (
            lambda: ChainHiggsBundle(2, (5, 0), Divisor({"o": 5}), (Divisor(),)),
            "m_1 = -3 < 0: degrees (5, 0) admit no nonzero map at step 1",
        ),
        (
            lambda: ChainHiggsBundle(2, (0, 0), Divisor(), (Divisor({"p": -2}),)),
            "zero divisor at step 1 is not effective",
        ),
        (
            lambda: ChainHiggsBundle(2, (0, 0), Divisor(), (Divisor({"p": 1}),)),
            "zero divisor at step 1 has degree 1, expected m_1 = 2",
        ),
        (lambda: LieType("H", 2), "unknown family 'H'; expected one of A-G"),
        (lambda: LieType("D", 2), "family D needs rank >= 3, got 2"),
        (lambda: LieType("E", 9), "family E needs rank in 6..8, got 9"),
        (
            lambda: ChainHiggsBundle(3, [2.7, 0.2], {"o": 2}, [{"p": 1, "q": 1}]),
            "line bundle degree must be an integer, got 2.7",
        ),
        (lambda: DegreeSet((0, 2)), "degree must be >= 1, got 0"),
        (lambda: DegreeSet((2, 4.0)), "degree must be an integer, got 4.0"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(DomainError) as exc:
        make()
    text = str(exc.value)
    assert text.startswith(message) if message.endswith(": ") else text == message


def test_order():
    assert Point("p") < Point("q") and not Point("q") < Point("p")
    assert sorted([Point("q"), Point("p"), Point("o")]) == [Point("o"), Point("p"), Point("q")]
    assert LieType("A", 9) < LieType("B", 2) < LieType("B", 3)
    assert max([LieType("E", 6), LieType("E", 8), LieType("D", 9)]) == LieType("E", 8)
    assert Root((0, 1), 1) < Root((1, 0), 1) < Root((1, 1), 2)
    assert Root((2, 1), 1) <= Root((2, 1), 1) and Root((2, 1), 2) >= Root((2, 1), 1)
    roots = build(LieType("B", 2)).positive_roots
    assert sorted(roots, key=lambda r: (r.height, r.coeffs)) == list(roots)


def test_cached_reads_come_from_one_computation():
    m = MultResult(FactoredChar({2: 3, 1: -3}))
    assert m.polynomial is m.polynomial and m.polynomial == IntPoly((1, 3, 3, 1))
    assert m.is_polynomial and m.value_at_1 == 8
    with pytest.raises(AttributeError):
        m.polynomial = None
    assert m.polynomial == IntPoly((1, 3, 3, 1))
    f = FactoredChar({2: 3, 1: -3})
    assert f._cyclotomic is f._cyclotomic
