import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmult import multsimple, polyalg, rootsys
from higgsmult.errors import DomainError, ResourceLimitError
from higgsmult.multsimple import (
    SCAN_CAP,
    gross_check,
    mult_cominuscule,
    mult_simple,
    polynomiality_scan,
    unit_multiplicity_factored,
)
from higgsmult.polyalg import (
    FactoredChar,
    IntPoly,
    NotPolynomial,
    is_palindromic_monic,
    power_product,
    qbinom,
)
from higgsmult.rootsys import LieType, build, cominuscule_nodes, weyl_orbit_minuscule

from test_rootsys import GRID

A1 = build(LieType("A", 1))
A2 = build(LieType("A", 2))
A3 = build(LieType("A", 3))
C2 = build(LieType("C", 2))
G2 = build(LieType("G", 2))


class TestMultSimple:
    def test_zero_vector_is_one(self):
        for r in (A1, A2, C2, G2):
            res = mult_simple(r, (0,) * r.rank)
            assert res.polynomial == IntPoly.one()
            assert res.factored.as_dict() == {}

    def test_c2_single_zero_on_b2(self):
        # telescopes to (1-t^4)/(1-t)
        res = mult_simple(C2, (0, 1))
        assert res.polynomial == IntPoly((1, 1, 1, 1))
        assert res.factored.as_dict() == {1: -1, 4: 1}

    def test_g2_never_polynomial(self):
        assert mult_simple(G2, (1, 0)).polynomial == NotPolynomial(remainder_degree=6)
        assert mult_simple(G2, (0, 1)).polynomial == NotPolynomial(remainder_degree=2)

    def test_validation(self):
        with pytest.raises(DomainError, match="rank"):
            mult_simple(C2, (1,))
        with pytest.raises(DomainError, match="^m-vector entry must be >= 0, got -1$"):
            mult_simple(C2, (1, -1))
        with pytest.raises(DomainError, match="^m-vector entry must be an integer, got True$"):
            mult_simple(C2, (1, True))

    def test_unit_node_out_of_range(self):
        with pytest.raises(DomainError, match="out of range"):
            unit_multiplicity_factored(C2, 3)

    @pytest.mark.parametrize("family,rank", GRID + [("A", 60)])
    def test_unit_forms_against_the_per_root_definition(self, family, rank):
        # each positive root of height h with c_i = c gives (1 - t^(h+1))^c (1 - t^h)^-c
        r = build(LieType(family, rank))
        for i in range(1, rank + 1):
            pairs = []
            for root in r.positive_roots:
                c, h = root.coeffs[i - 1], root.height
                pairs += [(h + 1, c), (h, -c)]
            assert unit_multiplicity_factored(r, i) == FactoredChar(pairs), (r.lie_type, i)

    @given(
        st.sampled_from([A2, C2, G2]),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_multiplicative_in_m(self, r, m1, m2):
        total = tuple(a + b for a, b in zip(m1, m2))
        assert (
            mult_simple(r, total).factored
            == mult_simple(r, m1).factored * mult_simple(r, m2).factored
        )

    @settings(deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_a_type_matches_gl_closed_form(self, n, data):
        # two independent routes: root product vs Grassmannian q-binomials
        m = data.draw(st.tuples(*([st.integers(0, 3)] * (n - 1))))
        lhs = mult_simple(build(LieType("A", n - 1)), m).polynomial
        rhs = IntPoly.one()
        for i, mi in enumerate(m, start=1):
            rhs = rhs * qbinom(n, i) ** mi
        assert lhs == rhs

    def test_polynomial_results_palindromic_monic(self):
        for n in (2, 3, 4):
            r = build(LieType("A", n - 1))
            for m in itertools.product(range(3), repeat=n - 1):
                poly = mult_simple(r, m).polynomial
                assert isinstance(poly, IntPoly)
                assert is_palindromic_monic(poly)


UNIT_GRID = (
    [("A", l) for l in range(1, 6)]
    + [("B", l) for l in (2, 3, 4)]
    + [("C", l) for l in (2, 3, 4)]
    + [("D", 4), ("D", 5), ("E", 6), ("E", 7)]
)


class TestCominuscule:
    def test_c2(self):
        res = mult_cominuscule(C2, 2)
        assert res.polynomial == IntPoly((1, 1, 1, 1))
        assert res.value_at_1 == 4

    def test_a2(self):
        assert mult_cominuscule(A2, 1).polynomial == IntPoly((1, 1, 1))

    def test_a3_is_grassmannian(self):
        assert mult_cominuscule(A3, 2).polynomial == qbinom(4, 2)

    def test_non_cominuscule_rejected(self):
        with pytest.raises(DomainError, match="not cominuscule"):
            mult_cominuscule(G2, 1)
        with pytest.raises(DomainError, match="not cominuscule"):
            mult_cominuscule(C2, 1)

    @pytest.mark.parametrize("family,rank", UNIT_GRID)
    def test_agrees_with_root_product_at_units(self, family, rank):
        r = build(LieType(family, rank))
        for node in sorted(cominuscule_nodes(r)):
            unit = tuple(1 if j == node else 0 for j in range(1, rank + 1))
            via_roots = mult_simple(r, unit)
            closed = mult_cominuscule(r, node)
            assert isinstance(via_roots.polynomial, IntPoly)
            assert via_roots.polynomial == closed.polynomial

    @pytest.mark.parametrize("family,rank", UNIT_GRID)
    def test_value_counts_orbit(self, family, rank):
        r = build(LieType(family, rank))
        for node in sorted(cominuscule_nodes(r)):
            assert mult_cominuscule(r, node).value_at_1 == len(
                weyl_orbit_minuscule(r, node)
            )


class TestGrossCheck:
    def test_examples(self):
        assert gross_check(C2, 2)
        assert gross_check(A2, 1)
        assert gross_check(A1, 1)

    @pytest.mark.parametrize("family,rank", UNIT_GRID)
    def test_grid(self, family, rank):
        r = build(LieType(family, rank))
        for node in sorted(cominuscule_nodes(r)):
            assert gross_check(r, node)

    def test_propagates_domain_error(self):
        with pytest.raises(DomainError):
            gross_check(G2, 2)

    def test_one_orbit_search_per_check(self, monkeypatch):
        calls = []
        original = multsimple.weyl_orbit_minuscule

        def spy(r, i):
            calls.append((r, i))
            return original(r, i)

        monkeypatch.setattr(multsimple, "weyl_orbit_minuscule", spy)
        e6 = build(LieType("E", 6))
        assert gross_check(e6, 1)
        assert calls == [(e6, 1)]

    def test_degrees_are_computed_once(self, monkeypatch):
        calls = []
        original = rootsys.degrees

        def spy(r):
            calls.append(r)
            return original(r)

        for module in (rootsys, multsimple):
            monkeypatch.setattr(module, "degrees", spy)
        for r, node in ((C2, 2), (build(LieType("E", 6)), 1)):
            calls.clear()
            assert gross_check(r, node)
            assert len(calls) == 1


class TestScan:
    def test_g2_bound_2(self):
        report = polynomiality_scan(G2, 2)
        assert len(report.entries) == 9
        assert report.entries[0].m == (0, 0)
        assert report.entries[0].result == IntPoly.one()
        for entry in report.entries[1:]:
            assert isinstance(entry.result, NotPolynomial)
        assert report.polynomial_count == 1
        assert report.non_polynomial_count == 8

    def test_a2_bound_2_all_polynomial(self):
        report = polynomiality_scan(A2, 2)
        assert report.polynomial_count == len(report.entries) == 9

    def test_lexicographic_order(self):
        report = polynomiality_scan(C2, 1)
        assert [e.m for e in report.entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_matches_pointwise_mult_simple(self):
        # every type of rank <= 4 at bound 2, and E6 at bound 1
        grid = [("A", l, 2) for l in (1, 2, 3, 4)]
        grid += [(f, l, 2) for f in "BC" for l in (2, 3, 4)]
        grid += [("D", 4, 2), ("F", 4, 2), ("G", 2, 2), ("E", 6, 1)]
        for family, rank, bound in grid:
            r = build(LieType(family, rank))
            report = polynomiality_scan(r, bound)
            points = list(itertools.product(range(bound + 1), repeat=rank))
            assert [e.m for e in report.entries] == points
            for entry in report.entries:
                assert entry.result == mult_simple(r, entry.m).polynomial

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.integers(1, 6), st.integers(-3, 3), max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 3),
    )
    def test_walk_matches_pointwise_expand(self, exps, bound):
        # any unit forms: the constant 1, non-polynomials, negative degrees
        units = [polyalg.FactoredChar(e) for e in exps]
        r = build(LieType("A", len(units)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multsimple, "unit_multiplicity_factored", lambda _, i: units[i - 1])
            report = polynomiality_scan(r, bound)
        points = list(itertools.product(range(bound + 1), repeat=len(units)))
        assert [e.m for e in report.entries] == points
        for entry in report.entries:
            assert entry.result == polyalg.expand(power_product(zip(units, entry.m)))

    def test_e6_bound_2_is_admitted(self):
        report = polynomiality_scan(build(LieType("E", 6)), 2)
        assert len(report.entries) == 729
        assert report.polynomial_count == 9

    def test_bound_validation(self):
        with pytest.raises(DomainError, match="bound"):
            polynomiality_scan(C2, 0)

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="cap"):
            polynomiality_scan(C2, 3, cap=15)
        assert (3 + 1) ** 2 <= SCAN_CAP  # default cap admits the same call
        polynomiality_scan(C2, 3)

    def test_work_cap_refuses_before_any_expansion(self, monkeypatch):
        # the walk's cost: each prefix of m holds a series as long as the
        # longest any point under it reads, multiplied `bound` times by the
        # next unit at (sum |e| + 1) updates per coefficient
        units = [unit_multiplicity_factored(G2, i) for i in (1, 2)]
        lengths = {}
        for m in itertools.product(range(4), repeat=2):
            length = polyalg._expand_length(power_product(zip(units, m)))
            for i in range(2):
                lengths[m[:i]] = max(lengths.get(m[:i], 0), length)
        total = sum(
            length * 3 * (sum(abs(e) for _, e in units[len(prefix)]) + 1)
            for prefix, length in lengths.items()
        )
        monkeypatch.setattr(polyalg, "SERIES_WORK_CAP", total)
        assert len(polynomiality_scan(G2, 3).entries) == 16
        monkeypatch.setattr(polyalg, "SERIES_WORK_CAP", total - 1)
        monkeypatch.setattr(polyalg, "_kernel", lambda *args: pytest.fail("expanded"))
        with pytest.raises(ResourceLimitError, match=r"at m = \[3, 3\]"):
            polynomiality_scan(G2, 3)
