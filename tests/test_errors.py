import ast
import re
from pathlib import Path

import pytest

import higgsmult
from higgsmult import SparseMap
from higgsmult.chain import ChainHiggsBundle, Divisor, WeightDims, chain_from_m
from higgsmult.errors import DIGITS_CAP, DomainError, ResourceLimitError
from higgsmult.errors import check_cost, check_digits, check_int
from higgsmult.hecke import intersection_enumerate
from higgsmult.multgl import mult_type_n
from higgsmult.multsimple import mult_simple, polynomiality_scan
from higgsmult.polyalg import FactoredChar, IntPoly, TruncatedSeries, power_product
from higgsmult.rootsys import DegreeSet, LieType, build


class TestCheckDigits:
    def test_the_cap_itself_passes(self):
        assert DIGITS_CAP == 4300
        assert check_digits("n", 10 ** 4300 - 1) is None
        assert check_digits("n", 0) is None
        with pytest.raises(ResourceLimitError, match="^n has 4301 digits, above the cap 4300$"):
            check_digits("n", 10 ** 4300)
        with pytest.raises(ResourceLimitError, match="^n has 4301 digits, above the cap 4300$"):
            check_digits("n", -10 ** 4300)

    def test_refuses_exactly_past_the_cap(self):
        top = 10 ** DIGITS_CAP  # the least integer with 4301 digits
        for m in [top - 1, top, top + 1] + [2 ** b for b in range(14270, 14300)]:
            if m < top:
                check_digits("m", m)
            else:
                digits = DIGITS_CAP + 1
                while m >= 10 ** digits:
                    digits += 1
                with pytest.raises(ResourceLimitError, match=f"has {digits} digits"):
                    check_digits("m", m)

    def test_the_type_n_boundary(self):
        # the value 2**(3(g - 1)) passes its 4300 digits at g = 4763
        check_digits("the value at 1", mult_type_n(4762, 2).value_at_1)
        with pytest.raises(ResourceLimitError, match="has 4301 digits"):
            check_digits("the value at 1", mult_type_n(4763, 2).value_at_1)


class TestCheckInt:
    def test_integers_pass_as_ints(self):
        class Handle:
            def __index__(self):
                return 7

        assert check_int("n", Handle(), 1, 7) == 7 and type(check_int("n", Handle())) is int
        assert check_int("n", -3) == -3 and check_int("n", 2, 2, 2) == 2

    @pytest.mark.parametrize("value", [2.0, 2.5, "2", None, True, False, 1j])
    def test_non_integers_and_bools_refused(self, value):
        with pytest.raises(DomainError) as exc:
            check_int("genus", value, 2)
        assert str(exc.value) == f"genus must be an integer, got {value!r}"

    @pytest.mark.parametrize(
        "value, lo, hi, message",
        [
            (1, 2, None, "genus must be >= 2, got 1"),
            (0, 1, 1, "genus must be in 1..1, got 0"),
            (2, 1, 1, "genus must be in 1..1, got 2"),
            (1, 1, 0, "genus must be in 1..0, got 1"),
        ],
    )
    def test_out_of_range_refused(self, value, lo, hi, message):
        with pytest.raises(DomainError) as exc:
            check_int("genus", value, lo, hi)
        assert str(exc.value) == message


class TestCheckCost:
    def test_the_cap_itself_passes(self):
        assert check_cost("scan grid", 10, 10, "points") is None
        with pytest.raises(ResourceLimitError, match="scan grid has 11 points, above the cap 10"):
            check_cost("scan grid", 11, 10, "points")

    def test_the_only_refusal_site(self):
        # every cap goes through check_cost, so there is one message format
        sites = [
            (path.name, line.strip())
            for path in Path(higgsmult.__file__).parent.glob("*.py")
            for line in path.read_text().splitlines()
            if re.search(r"\braise ResourceLimitError\b", line)
        ]
        message = 'f"{what} has {cost} {unit}, above the cap {cap}"'
        assert sites == [("errors.py", f"raise ResourceLimitError({message})")]


A1, A2 = build(LieType("A", 1)), build(LieType("A", 2))
CHAIN = chain_from_m(3, [1])  # very stable, with 2 intersection points

# what each probe names -> a call that passes the probe value there
NUMBERS = {
    "key": lambda v: SparseMap({v: 1}),
    "factor index": lambda v: FactoredChar([(v, 1)]),
    "weight": lambda v: WeightDims({v: 1}),
    "factor index (lookup)": lambda v: FactoredChar({1: 2})[v],
    "SparseMap count": lambda v: SparseMap({1: v}),
    "FactoredChar count": lambda v: FactoredChar({1: v}),
    "WeightDims count": lambda v: WeightDims([(1, v)]),
    "Divisor count": lambda v: Divisor({"p": v}),
    "scale factor": lambda v: FactoredChar({1: 2}).scale(v),
    "scale factor (power)": lambda v: FactoredChar({1: 2}) ** v,
    "power": lambda v: power_product([(FactoredChar({1: 2}), v)]),
    "polynomial coefficient": lambda v: IntPoly((1, v)),
    "series coefficient": lambda v: TruncatedSeries(2, [v]),
    "line bundle degree": lambda v: ChainHiggsBundle(3, [v, 0], {"o": v}, [{"p": 1, "q": 1}]),
    "degree": lambda v: DegreeSet([2, v]),
    "m-vector entry": lambda v: mult_simple(A2, [v, 0]),
    "m-vector entry (chain)": lambda v: chain_from_m(3, [1, v]),
    "cap": lambda v: polynomiality_scan(A1, 1, cap=v),
    "cap (enumeration)": lambda v: intersection_enumerate(CHAIN, cap=v),
}


class TestCallerNumbers:
    """Every number a caller passes goes through check_int: refused, never
    truncated or read as text, with a DomainError naming what it checks."""

    @pytest.mark.parametrize("value", [2.5, "2", True, None])
    @pytest.mark.parametrize("what", sorted(NUMBERS))
    def test_non_integers_refused(self, what, value):
        with pytest.raises(DomainError) as exc:
            NUMBERS[what](value)
        name = what.split(" (")[0]
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("what", sorted(NUMBERS))
    def test_integers_pass(self, what):
        NUMBERS[what](2)  # the value 2 is in range everywhere

    @pytest.mark.parametrize("family", [["A"], None, 1, b"A"])
    def test_lie_type_family_must_be_a_letter(self, family):
        with pytest.raises(DomainError) as exc:
            LieType(family, 2)
        assert str(exc.value) == f"unknown family {family!r}; expected one of A-G"

    def test_entries_that_are_not_pairs(self):
        message = "FactoredChar takes (key, integer) pairs: too many values to unpack (expected 2)"
        for make in [
            lambda: FactoredChar([(1, 2, 3)]),
            lambda: power_product([(FactoredChar({1: 2}), 2, 3)]),
        ]:
            with pytest.raises(DomainError) as exc:
                make()
            assert str(exc.value) == message
        for factor in [{2: 1}, 5]:  # a mapping, or no pairs at all
            with pytest.raises(DomainError, match="^FactoredChar takes \\(key, integer\\) pairs: "):
                power_product([(factor, 1)])

    def test_negative_cap_still_refuses_as_a_cap(self):
        with pytest.raises(ResourceLimitError, match="above the cap -1"):
            polynomiality_scan(A1, 1, cap=-1)
        with pytest.raises(ResourceLimitError, match="above the cap -1"):
            intersection_enumerate(CHAIN, cap=-1)


# Where the package may convert a number itself, and why; every other
# number goes through check_int.
CONVERSIONS = {
    ("errors.py", "check_int"): "the one rule",
    ("errors.py", "check_digits"): "a digit count from a float logarithm",
    ("hecke.py", "_count"): "a digit count from a float logarithm",
    ("hecke.py", "IntersectionPoints.__getitem__"): "sequence indexing, as a tuple's",
    ("rootsys.py", "PositiveRoots.__getitem__"): "sequence indexing, as a tuple's",
    ("cli.py", "_m_vector"): "command-line text",
    ("cli.py", "_move"): "command-line text",
    ("cli.py", "run"): "the exit status and the elapsed milliseconds",
}


def _conversion_sites(path):
    """(file, qualified function) of each int(...), index(...) and
    isinstance(..., int) call in one module."""
    sites = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            types = node.args[1:] if name == "isinstance" else []
            if name in ("int", "index") or any(
                isinstance(t, ast.Name) and t.id == "int" for arg in types for t in ast.walk(arg)
            ):
                sites.add((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return sites


def test_check_int_is_the_only_conversion():
    sites = set().union(
        *map(_conversion_sites, Path(higgsmult.__file__).parent.glob("*.py"))
    )
    assert sites == set(CONVERSIONS)
