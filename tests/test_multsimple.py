import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmult import multsimple, polyalg, rootsys
from higgsmult.errors import DomainError, InternalError, ResourceLimitError
from higgsmult.multsimple import (
    SCAN_CAP,
    ScanEntry,
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


# Types whose polynomial face holds a node that is not cominuscule, at
# bounds that keep each grid small: B7 and C7 to 1 have 4 polynomial
# points of 128, D5 to 2 81 of 243, D7 to 1 16 of 128, C3 to 3 16 of
# 64 (as B3 to 3, which the tests below list on their own).
SPORADIC = [("B", 7, 1), ("C", 7, 1), ("D", 5, 2), ("D", 7, 1), ("C", 3, 3)]


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
        # every type of rank <= 4 at bound 2, E6 at bound 1, and faces with
        # a node that is not cominuscule (B3 at bound 3 and SPORADIC)
        grid = [("A", l, 2) for l in (1, 2, 3, 4)]
        grid += [(f, l, 2) for f in "BC" for l in (2, 3, 4)]
        grid += [("D", 4, 2), ("F", 4, 2), ("G", 2, 2), ("E", 6, 1), ("B", 3, 3)] + SPORADIC
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
            try:
                report = polynomiality_scan(r, bound)
            except InternalError:
                # refused only when a non-polynomial unit is negative in no
                # cyclotomic row that has no positive entry
                exponents = [
                    {d: sum(e for k, e in u if k % d == 0) for d in range(1, 7)} for u in units
                ]
                rows = [[c[d] for c in exponents] for d in range(1, 7)]
                nonpositive = [row for row in rows if max(row) <= 0]
                assert any(
                    min(c.values()) < 0 and all(row[i] == 0 for row in nonpositive)
                    for i, c in enumerate(exponents)
                )
                return
        points = list(itertools.product(range(bound + 1), repeat=len(units)))
        assert [e.m for e in report.entries] == points
        for entry in report.entries:
            assert entry.result == polyalg.expand(power_product(zip(units, entry.m)))

    def test_guard_refuses_polynomial_points_off_a_coordinate_face(self, monkeypatch):
        # (1 - t)/(1 - t^2) and (1 - t^2)/(1 - t): m = (1, 1) gives 1 but
        # (1, 0) no polynomial, and the one row (c_2) has mixed signs
        units = [FactoredChar({1: 1, 2: -1}), FactoredChar({1: -1, 2: 1})]
        assert polyalg.expand(power_product(zip(units, (1, 1)))) == IntPoly.one()
        assert not polyalg.is_polynomial(power_product(zip(units, (1, 0))))
        monkeypatch.setattr(multsimple, "unit_multiplicity_factored", lambda _, i: units[i - 1])
        with pytest.raises(InternalError, match="node 1 of A2 is not a polynomial"):
            polynomiality_scan(A2, 1)

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
        # the walk's price: each prefix of m with a polynomial point under it
        # holds a series as long as the longest half-length any of them
        # reads, multiplied `bound` times by the next unit at (sum |e| + 1)
        # updates per coefficient; non-polynomial points add nothing
        r, bound = build(LieType("B", 3)), 3
        units = [unit_multiplicity_factored(r, i) for i in (1, 2, 3)]
        lengths, total, last = {}, 0, None
        for m in itertools.product(range(bound + 1), repeat=3):
            f = power_product(zip(units, m))
            if not polyalg.is_polynomial(f):
                continue
            length = polyalg._expand_length(f)
            for i in range(3):
                grown = length - lengths.get(m[:i], 0)
                if grown > 0:
                    total += grown * bound * (sum(abs(e) for _, e in units[i]) + 1)
                    lengths[m[:i]] = length
                    last = m
        report = polynomiality_scan(r, bound)
        assert 0 < report.polynomial_count < len(report.entries)
        monkeypatch.setattr(polyalg, "SERIES_WORK_CAP", total)
        assert polynomiality_scan(r, bound) == report
        monkeypatch.setattr(polyalg, "SERIES_WORK_CAP", total - 1)
        monkeypatch.setattr(polyalg, "_kernel", lambda *args: pytest.fail("expanded"))
        with pytest.raises(ResourceLimitError) as exc:
            polynomiality_scan(r, bound)
        assert str(exc.value) == (
            f"scan of B3 to bound 3 at m = {list(last)} has {total} units of series work, "
            f"above the cap {total - 1}"
        )

    @pytest.mark.parametrize(
        "family, rank, bound", [("B", 3, 3), ("E", 6, 2), ("F", 4, 3)] + SPORADIC
    )
    def test_vector_verdicts_match_mult_simple(self, monkeypatch, family, rank, bound):
        r = build(LieType(family, rank))
        points = itertools.product(range(bound + 1), repeat=rank)
        expected = [mult_simple(r, m).is_polynomial for m in points]
        monkeypatch.setattr(polyalg, "expand", lambda f: pytest.fail("expanded"))
        report = polynomiality_scan(r, bound)
        assert [e.is_polynomial for e in report.entries] == expected
        assert report.polynomial_count == sum(expected)
        assert report.non_polynomial_count == len(expected) - sum(expected)

    def test_witnesses_are_expanded_once_on_first_read(self, monkeypatch):
        report = polynomiality_scan(G2, 2)
        expected = mult_simple(G2, (0, 1)).polynomial
        calls = []
        expand = polyalg.expand
        monkeypatch.setattr(polyalg, "expand", lambda f: calls.append(f) or expand(f))
        entry = report.entries[1]
        assert not entry.is_polynomial and calls == []
        witness = entry.result
        assert entry.result is witness and len(calls) == 1
        assert witness == expected
        # equal, hashed and printed as the entry built with its witness
        eager = ScanEntry((0, 1), witness)
        assert entry == eager and hash(entry) == hash(eager) and repr(entry) == repr(eager)
        assert tuple(entry) == ((0, 1), witness) and entry[1] is witness
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "family, rank, bound, polynomial, points",
        [("E", 6, 4, 25, 15625), ("E", 7, 2, 3, 2187), ("E", 8, 2, 1, 6561), ("F", 4, 10, 1, 14641)],
    )
    def test_large_grids_of_few_polynomials_are_admitted(
        self, family, rank, bound, polynomial, points
    ):
        # each was refused by SERIES_WORK_CAP while every point was walked
        report = polynomiality_scan(build(LieType(family, rank)), bound)
        assert (report.polynomial_count, len(report.entries)) == (polynomial, points)
