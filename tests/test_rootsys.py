import copy
import pickle
import time
from collections import Counter
from fractions import Fraction
from math import comb, factorial, prod

import pytest

import higgsmult
from higgsmult import Record, memo_info, rootsys
from higgsmult.errors import DomainError, InternalError, ResourceLimitError
from higgsmult.multsimple import unit_multiplicity_factored
from higgsmult.polyalg import FactoredChar
from higgsmult.rootsys import (
    ORBIT_CAP,
    ROOT_CAP,
    DegreeSet,
    LieType,
    PositiveRoots,
    Root,
    RootSystem,
    _degrees_from_histogram,
    build,
    cartan_matrix,
    cominuscule_nodes,
    degrees,
    height_histogram,
    levi_degrees,
    weyl_orbit_minuscule,
)

from oracles import memo_bytes


def classical_degrees(family, rank):
    """Hardcoded invariant-degree tables; the oracle for the
    histogram-conjugation derivation."""
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * rank - 1, 2)) + [rank]))
    return {
        ("G", 2): (2, 6),
        ("F", 4): (2, 6, 8, 12),
        ("E", 6): (2, 5, 6, 8, 9, 12),
        ("E", 7): (2, 6, 8, 10, 12, 14, 18),
        ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    }[(family, rank)]


def classical_weyl_order(family, rank):
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return {("G", 2): 12, ("F", 4): 1152, ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600}[
        (family, rank)
    ]


GRID = (
    [("A", l) for l in range(1, 9)]
    + [("B", l) for l in range(2, 9)]
    + [("C", l) for l in range(2, 9)]
    + [("D", l) for l in range(3, 9)]
    + [("E", l) for l in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


class TestLieType:
    def test_str(self):
        assert str(LieType("E", 7)) == "E7"

    @pytest.mark.parametrize(
        "family,rank", [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]
    )
    def test_invalid(self, family, rank):
        with pytest.raises(DomainError):
            LieType(family, rank)


class TestCartan:
    def test_asymmetric_entries(self):
        b3 = cartan_matrix(LieType("B", 3))
        assert b3[1][2] == -2 and b3[2][1] == -1
        c3 = cartan_matrix(LieType("C", 3))
        assert c3[1][2] == -1 and c3[2][1] == -2
        f4 = cartan_matrix(LieType("F", 4))
        assert f4[1][2] == -2 and f4[2][1] == -1
        g2 = cartan_matrix(LieType("G", 2))
        assert g2 == ((2, -1), (-3, 2))

    def test_d4_fork(self):
        d4 = cartan_matrix(LieType("D", 4))
        # node 2 (0-based index 1) touches 1, 3, 4
        assert d4[1][0] == d4[1][2] == d4[1][3] == -1
        assert d4[0][2] == d4[0][3] == d4[2][3] == 0

    def test_e6_shape(self):
        e6 = cartan_matrix(LieType("E", 6))
        edges = {(i, j) for i in range(6) for j in range(6) if i < j and e6[i][j] != 0}
        assert edges == {(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)}


class TestBuild:
    def test_a2_roots(self):
        r = build(LieType("A", 2))
        assert {root.coeffs for root in r.positive_roots} == {(1, 0), (0, 1), (1, 1)}

    def test_c2_roots_and_heights(self):
        r = build(LieType("C", 2))
        assert {root.coeffs for root in r.positive_roots} == {(1, 0), (0, 1), (1, 1), (2, 1)}
        assert sorted(root.height for root in r.positive_roots) == [1, 1, 2, 3]

    def test_g2_heights(self):
        r = build(LieType("G", 2))
        assert len(r.positive_roots) == 6
        assert sorted(root.height for root in r.positive_roots) == [1, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("family,rank", GRID)
    def test_simple_roots_are_units(self, family, rank):
        r = build(LieType(family, rank))
        units = {tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)}
        assert units <= {root.coeffs for root in r.positive_roots}

    @pytest.mark.parametrize("family,rank", GRID)
    def test_deterministic_order(self, family, rank):
        r = build(LieType(family, rank))
        keys = [(root.height, root.coeffs) for root in r.positive_roots]
        assert keys == sorted(keys)
        assert all(c >= 0 for root in r.positive_roots for c in root.coeffs)


class TestHistogramAndDegrees:
    def test_histogram_examples(self):
        assert height_histogram(build(LieType("A", 2))) == {1: 2, 2: 1}
        assert height_histogram(build(LieType("C", 2))) == {1: 2, 2: 1, 3: 1}
        assert height_histogram(build(LieType("G", 2))) == {1: 2, 2: 1, 3: 1, 4: 1, 5: 1}

    def test_degree_examples(self):
        assert tuple(degrees(build(LieType("A", 2)))) == (2, 3)
        assert tuple(degrees(build(LieType("G", 2)))) == (2, 6)
        assert tuple(degrees(build(LieType("C", 2)))) == (2, 4)

    @pytest.mark.parametrize("family,rank", GRID)
    def test_degrees_match_classical_tables(self, family, rank):
        r = build(LieType(family, rank))
        d = degrees(r)
        assert tuple(d) == classical_degrees(family, rank)
        assert len(d) == rank

    @pytest.mark.parametrize("family,rank", GRID)
    def test_sum_rule_and_weyl_order(self, family, rank):
        r = build(LieType(family, rank))
        d = degrees(r)
        assert sum(x - 1 for x in d) == len(r.positive_roots)
        assert d.weyl_order == classical_weyl_order(family, rank)


def reference_degrees_from_histogram(hist, rank):
    """Conjugate partition by counting, for each i, the parts >= i."""
    if not hist:
        return DegreeSet(())
    parts = [hist.get(j, 0) for j in range(1, max(hist) + 1)]
    return DegreeSet([sum(1 for p in parts if p >= i) + 1 for i in range(1, rank + 1)])


class TestDegreesFromHistogram:
    @pytest.mark.parametrize("family,rank", GRID + [("A", 60), ("A", 140)])
    def test_matches_the_counting_conjugate(self, family, rank):
        r = build(LieType(family, rank))
        hist = height_histogram(r)
        assert _degrees_from_histogram(hist, rank) == reference_degrees_from_histogram(hist, rank)
        for i in range(1, rank + 1):
            levi = Counter(root.height for root in r.positive_roots if not root.coeffs[i - 1])
            expected = reference_degrees_from_histogram(levi, rank - 1)
            assert _degrees_from_histogram(levi, rank - 1) == expected

    def test_bad_histograms_are_internal_errors(self):
        with pytest.raises(InternalError, match="is not a partition"):
            _degrees_from_histogram({1: 2, 2: 3}, 2)
        with pytest.raises(InternalError, match="histogram has 2 simple roots, rank is 3"):
            _degrees_from_histogram({1: 2, 2: 1}, 3)


COMINUSCULE = {
    ("A", 3): {1, 2, 3},
    ("B", 3): {1},
    ("C", 3): {3},
    ("D", 4): {1, 3, 4},
    ("D", 5): {1, 4, 5},
    ("E", 6): {1, 6},
    ("E", 7): {7},
    ("E", 8): set(),
    ("F", 4): set(),
    ("G", 2): set(),
}


def reference_cominuscule_nodes(r):
    """Nodes whose largest coefficient over all positive roots is 1."""
    peaks = map(max, zip(*(root.coeffs for root in r.positive_roots)))
    return frozenset(i for i, peak in enumerate(peaks, start=1) if peak == 1)


class TestStoredHeights:
    @pytest.mark.parametrize("family,rank", GRID + [("A", 60)])
    def test_height_is_coordinate_sum(self, family, rank):
        r = build(LieType(family, rank))
        assert all(root.height == sum(root.coeffs) for root in r.positive_roots)

    @pytest.mark.parametrize("family,rank", GRID + [("A", 60)])
    def test_cominuscule_nodes_match_coefficient_peaks(self, family, rank):
        r = build(LieType(family, rank))
        assert cominuscule_nodes(r) == reference_cominuscule_nodes(r)


class TestCominuscule:
    @pytest.mark.parametrize("family,rank", sorted(COMINUSCULE))
    def test_table(self, family, rank):
        assert set(cominuscule_nodes(build(LieType(family, rank)))) == COMINUSCULE[(family, rank)]

    def test_c2_node(self):
        assert set(cominuscule_nodes(build(LieType("C", 2)))) == {2}

    def test_a_type_all_nodes(self):
        for l in range(1, 6):
            assert set(cominuscule_nodes(build(LieType("A", l)))) == set(range(1, l + 1))


class TestLeviDegrees:
    def test_small_rank_examples(self):
        assert tuple(levi_degrees(build(LieType("C", 2)), 2)) == (1, 2)
        assert tuple(levi_degrees(build(LieType("A", 3)), 2)) == (1, 2, 2)
        assert tuple(levi_degrees(build(LieType("A", 2)), 1)) == (1, 2)

    def test_rank_one(self):
        assert tuple(levi_degrees(build(LieType("A", 1)), 1)) == (1,)

    def test_e7_node7_leaves_e6(self):
        assert tuple(levi_degrees(build(LieType("E", 7)), 7)) == (1, 2, 5, 6, 8, 9, 12)

    def test_d5_node1_leaves_d4(self):
        assert tuple(levi_degrees(build(LieType("D", 5)), 1)) == (1, 2, 4, 4, 6)

    def test_b4_node2_splits(self):
        # deleting node 2 of B_4 leaves A_1 + B_2
        assert tuple(levi_degrees(build(LieType("B", 4)), 2)) == (1, 2, 2, 4)

    def test_size_is_rank(self):
        for family, rank in GRID:
            r = build(LieType(family, rank))
            for i in range(1, rank + 1):
                assert len(levi_degrees(r, i)) == rank

    def test_bad_node(self):
        with pytest.raises(DomainError, match="node"):
            levi_degrees(build(LieType("A", 2)), 3)


def minuscule_orbit_size(family, rank, node):
    """Classical dimensions of minuscule representations (of the dual),
    used as the oracle for orbit enumeration."""
    if family == "A":
        return comb(rank + 1, node)
    if family == "B" and node == 1:
        return 2 * rank  # dual C_l vector orbit
    if family == "C" and node == rank:
        return 2 ** rank  # dual B_l spinor orbit
    if family == "D":
        if node == 1:
            return 2 * rank
        return 2 ** (rank - 1)
    if family == "E" and rank == 6:
        return 27
    if family == "E" and rank == 7:
        return 56
    raise AssertionError("not cominuscule")


class TestWeylOrbit:
    def test_a1(self):
        orbit = weyl_orbit_minuscule(build(LieType("A", 1)), 1)
        assert orbit == [((1,), 0), ((-1,), 1)]

    def test_a2_defining(self):
        orbit = weyl_orbit_minuscule(build(LieType("A", 2)), 1)
        assert [d for _, d in orbit] == [0, 1, 2]

    def test_c2_spinor(self):
        orbit = weyl_orbit_minuscule(build(LieType("C", 2)), 2)
        assert len(orbit) == 4
        assert [d for _, d in orbit] == [0, 1, 2, 3]

    def test_non_cominuscule_rejected(self):
        with pytest.raises(DomainError, match="cominuscule"):
            weyl_orbit_minuscule(build(LieType("G", 2)), 1)

    @pytest.mark.parametrize(
        "family,rank",
        [("A", l) for l in range(1, 6)]
        + [("B", l) for l in (2, 3, 4)]
        + [("C", l) for l in (2, 3, 4)]
        + [("D", 4), ("D", 5), ("E", 6), ("E", 7)],
    )
    def test_orbit_size_and_depth_symmetry(self, family, rank):
        r = build(LieType(family, rank))
        d = degrees(r)
        for node in sorted(cominuscule_nodes(r)):
            orbit = weyl_orbit_minuscule(r, node)
            assert len(orbit) == minuscule_orbit_size(family, rank, node)
            # Euler characteristic of G/P: prod d_j / prod n_j
            levi = levi_degrees(r, node)
            assert len(orbit) * levi.weyl_order == d.weyl_order
            ds = sorted(depth for _, depth in orbit)
            top = max(ds)
            assert ds == sorted(top - x for x in ds)
            assert len({mu for mu, _ in orbit}) == len(orbit)


class TestDegreeSet:
    def test_sorted_multiset(self):
        assert tuple(DegreeSet((4, 2, 2))) == (2, 2, 4)
        assert DegreeSet((4, 2, 2)).weyl_order == 16

    def test_positive(self):
        with pytest.raises(DomainError):
            DegreeSet((0, 2))

    def test_is_a_record_over_its_degrees(self):
        d = DegreeSet((3, 1))
        assert isinstance(d, Record) and tuple.__eq__(d, (1, 3))
        assert type(d.degrees) is tuple and d.degrees == (1, 3)
        assert d != (1, 3) and d == DegreeSet([1, 3])
        assert len(d) == 2 and d.weyl_order == 3 and DegreeSet(()).weyl_order == 1


# Reference implementations: direct algorithms, slower but plainly
# correct, that pin the engine's results and their order.


def reference_positive_roots(cartan):
    """Height induction on coordinate tuples, every node tried per root."""
    l = len(cartan)
    found = set()
    layer = []
    for j in range(l):
        unit = tuple(1 if i == j else 0 for i in range(l))
        found.add(unit)
        layer.append(unit)
    while layer:
        nxt = []
        for alpha in layer:
            for j in range(l):
                pairing = sum(alpha[i] * cartan[i][j] for i in range(l))
                p = 0
                down = list(alpha)
                while True:
                    down[j] -= 1
                    if down[j] < 0 or tuple(down) not in found:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(alpha)
                    up[j] += 1
                    cand = tuple(up)
                    if cand not in found:
                        found.add(cand)
                        nxt.append(cand)
        layer = nxt
    return sorted(found, key=lambda c: (sum(c), c))


def reference_levi_degrees(r, i):
    """Split the Dynkin diagram without node i into components and
    enumerate each component's roots afresh."""
    keep = [j for j in range(r.rank) if j != i - 1]
    remaining = set(keep)
    degs = []
    while remaining:
        comp = {min(remaining)}
        frontier = list(comp)
        while frontier:
            v = frontier.pop()
            for w in remaining - comp:
                if r.cartan[v][w] != 0:
                    comp.add(w)
                    frontier.append(w)
        remaining -= comp
        comp = sorted(comp)
        sub = tuple(tuple(r.cartan[a][b] for b in comp) for a in comp)
        hist = {}
        for c in reference_positive_roots(sub):
            hist[sum(c)] = hist.get(sum(c), 0) + 1
        degs.extend(_degrees_from_histogram(hist, len(comp)))
    return DegreeSet(tuple(degs) + (1,))


def reference_depths(r, orbit):
    """Depth of each orbit weight by exact elimination: solve
    sum_j c_j * (row j of the dual Cartan matrix) = lambda - mu."""
    l = r.rank
    dual = [[r.cartan[b][a] for b in range(l)] for a in range(l)]
    top = orbit[0][0]
    depths = []
    for mu, _ in orbit:
        m = [[Fraction(dual[j][k]) for j in range(l)] + [Fraction(top[k] - mu[k])] for k in range(l)]
        for col in range(l):
            pivot = next(row for row in range(col, l) if m[row][col] != 0)
            m[col], m[pivot] = m[pivot], m[col]
            m[col] = [x / m[col][col] for x in m[col]]
            for row in range(l):
                if row != col and m[row][col] != 0:
                    f = m[row][col]
                    m[row] = [x - f * y for x, y in zip(m[row], m[col])]
        coords = [m[j][l] for j in range(l)]
        assert all(c.denominator == 1 and c >= 0 for c in coords)
        depths.append(int(sum(coords)))
    return depths


TYPES_TO_12 = (
    [("A", l) for l in range(1, 13)]
    + [("B", l) for l in range(2, 13)]
    + [("C", l) for l in range(2, 13)]
    + [("D", l) for l in range(3, 13)]
    + [("E", l) for l in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


class TestAgainstReferences:
    @pytest.mark.parametrize("family,rank", TYPES_TO_12)
    def test_roots_and_order(self, family, rank):
        t = LieType(family, rank)
        r = build(t)
        assert [root.coeffs for root in r.positive_roots] == reference_positive_roots(
            cartan_matrix(t)
        )

    @pytest.mark.parametrize("family,rank", GRID)
    def test_levi_degrees(self, family, rank):
        r = build(LieType(family, rank))
        for i in range(1, rank + 1):
            assert levi_degrees(r, i) == reference_levi_degrees(r, i)

    @pytest.mark.parametrize("family,rank", GRID)
    def test_orbit_depths(self, family, rank):
        r = build(LieType(family, rank))
        for node in sorted(cominuscule_nodes(r)):
            orbit = weyl_orbit_minuscule(r, node)
            assert orbit[0] == (tuple(1 if j == node - 1 else 0 for j in range(rank)), 0)
            assert [d for _, d in orbit] == reference_depths(r, orbit)
            assert orbit == sorted(orbit, key=lambda pair: (pair[1], pair[0]))

    @pytest.mark.parametrize("family,rank", GRID)
    def test_orbit_size_is_the_degree_quotient(self, family, rank):
        # the search sizes the orbit from the roots; the tables and the
        # reference Levi degrees give |W| / |W_Levi| on their own
        r = build(LieType(family, rank))
        for node in sorted(cominuscule_nodes(r)):
            quotient = prod(classical_degrees(family, rank)) // reference_levi_degrees(r, node).weyl_order
            assert len(weyl_orbit_minuscule(r, node)) == quotient

    def test_inconsistent_depths_raise(self):
        # a zero diagonal makes s_1 fix lambda while lowering its depth by 1
        a1 = build(LieType("A", 1))
        broken = RootSystem(a1.lie_type, ((0,),), a1.positive_roots)
        with pytest.raises(InternalError, match="depths 0 and 1"):
            weyl_orbit_minuscule(broken, 1)


class TestScale:
    def test_a100_roots(self):
        assert len(build(LieType("A", 100)).positive_roots) == 5050

    def test_cap_refuses_before_work(self):
        assert len(build(LieType("A", 140)).positive_roots) == 9870 <= ROOT_CAP
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="45150 positive roots"):
            build(LieType("A", 300))
        with pytest.raises(ResourceLimitError, match="cap"):
            build(LieType("D", 10 ** 9))
        assert time.perf_counter() - start < 1.0

    def test_orbit_cap_refuses_before_search(self):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="300540195 weights"):
            weyl_orbit_minuscule(build(LieType("A", 30)), 15)
        with pytest.raises(ResourceLimitError, match="352716 weights"):
            weyl_orbit_minuscule(build(LieType("A", 20)), 10)
        assert time.perf_counter() - start < 1.0
        assert comb(19, 9) <= ORBIT_CAP < comb(21, 10)


class TestRootMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        higgsmult._memo.clear()

    @pytest.mark.parametrize("family,rank", GRID + [("A", 60)])
    def test_cold_warm_and_unkept_builds_agree(self, family, rank, monkeypatch):
        t = LieType(family, rank)
        cold, warm = build(t), build(t)
        assert memo_info()[:3] == (1, 1, 1)
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", 0)
        higgsmult._memo.clear()
        unkept = build(t)
        assert memo_info()[:3] == (0, 1, 0)
        assert cold == warm == unkept and cold is not warm
        assert warm.cartan == unkept.cartan == cartan_matrix(t)
        assert [root.coeffs for root in warm.positive_roots] == reference_positive_roots(
            cartan_matrix(t)
        )
        assert all(root.height == sum(root.coeffs) for root in warm.positive_roots)
        assert all(type(root) is Root and type(root.coeffs) is tuple for root in warm.positive_roots)

    def test_refusal_does_not_depend_on_the_memo(self, monkeypatch):
        t = LieType("A", 20)

        def refusal():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rootsys, "ROOT_CAP", 100)
                with pytest.raises(ResourceLimitError) as exc:
                    build(t)
            return str(exc.value)

        cold = refusal()
        build(t)
        assert memo_info().entries == 1
        assert refusal() == cold == "A20 has 210 positive roots, above the cap 100"

    def test_a_hit_still_checks_the_classical_count(self, monkeypatch):
        t = LieType("B", 4)
        build(t)
        monkeypatch.setitem(rootsys._POSITIVE_COUNT, "B", lambda l: l * l + 1)
        with pytest.raises(InternalError, match="B4: found 16 positive roots, classical count is 17"):
            build(t)
        assert memo_info().hits == 1

    def test_a_flood_stays_within_the_budget(self):
        budget = higgsmult.MEMO_BYTES
        for l in range(1, 101):
            build(LieType("A", l))
            info = memo_info()
            assert info.bytes <= budget and info.budget == budget
            assert info.bytes == memo_bytes(higgsmult._memo)
        # the flood evicted the oldest types and never kept the largest
        assert info.misses == 100 and 0 < info.entries < 100
        assert LieType("A", 1) not in higgsmult._memo and LieType("A", 100) not in higgsmult._memo

    def test_a60_is_kept_and_a80_never(self, monkeypatch):
        budget = higgsmult.MEMO_BYTES
        made = []
        for name in ("cartan_matrix", "_positive_roots"):
            real = getattr(rootsys, name)
            monkeypatch.setattr(rootsys, name, lambda *a, real=real: made.append(real.__name__) or real(*a))
        for rank in (60, 80, 80):
            build(LieType("A", rank))
        info = memo_info()
        assert (info.hits, info.misses, info.entries) == (0, 3, 1)
        # A80 is rebuilt in full, its Cartan matrix too, on every call
        assert made == ["cartan_matrix", "_positive_roots"] * 3
        assert memo_bytes(higgsmult._memo) == info.bytes <= budget // 4
        # A60's roots and Cartan matrix take about 144 KB of the 224 KiB quarter
        assert 140_000 < info.bytes < 148_000
        cartan = cartan_matrix(LieType("A", 80))
        a80 = (cartan, *rootsys._positive_roots(cartan))
        assert memo_bytes({LieType("A", 80): a80}) > budget // 4

    def test_a_hit_reads_the_kept_cartan_matrix(self, monkeypatch):
        t = LieType("E", 8)
        cold = build(t)
        monkeypatch.setattr(rootsys, "cartan_matrix", lambda t: pytest.fail("a hit built the Cartan matrix"))
        warm = build(t)
        # the test module's name is the real function: a fresh matrix
        assert warm.cartan is cold.cartan and warm.cartan == cartan_matrix(t)

    def test_eviction_is_least_recently_used(self, monkeypatch):
        types = [LieType(*t) for t in (("B", 5), ("C", 5), ("A", 7), ("F", 4), ("D", 5))]
        for t in types[:4]:
            build(t)
        sizes = [memo_bytes({t: higgsmult._memo[t]}) for t in types[:4]]
        # room for four entries only: the fifth evicts one
        budget = sum(sizes) + min(sizes) // 2
        monkeypatch.setattr(higgsmult, "MEMO_BYTES", budget)
        build(types[0])  # a hit: B5 is now the most recent
        build(types[4])
        assert memo_bytes({types[4]: higgsmult._memo[types[4]]}) <= budget // 4
        assert [t in higgsmult._memo for t in types] == [True, False, True, True, True]


# The per-Root loops the queries ran before they read the packed bytes,
# over the unpacked roots: the references for the byte passes.


def loop_degrees(roots, rank):
    return _degrees_from_histogram(dict(sorted(Counter(root.height for root in roots).items())), rank)


def loop_levi_degrees(roots, rank, i):
    hist = Counter(root.height for root in roots if not root.coeffs[i - 1])
    return DegreeSet(_degrees_from_histogram(hist, rank - 1) + (1,))


def loop_orbit_size(roots, i):
    heights = [root.height for root in roots if root.coeffs[i - 1]]
    return prod(h + 1 for h in heights) // prod(heights)


def loop_unit_multiplicity(roots, i):
    pairs = []
    for root in roots:
        c = root.coeffs[i - 1]
        if c:
            h = root.height
            pairs += ((h + 1, c), (h, -c))
    return FactoredChar._merge(pairs)


def loop_cominuscule_nodes(roots):
    return frozenset(i for i, c in enumerate(roots[-1].coeffs, start=1) if c == 1)


class TestBytePassesMatchRootLoops:
    @pytest.mark.parametrize("family,rank", GRID + [("A", 60), ("A", 140)])
    def test_every_query_on_every_node(self, family, rank, monkeypatch):
        r = build(LieType(family, rank))
        roots = tuple(r.positive_roots)
        assert degrees(r) == loop_degrees(roots, rank)
        nodes = cominuscule_nodes(r)
        assert nodes == loop_cominuscule_nodes(roots)
        # with no room for any orbit, the search refuses right after sizing it
        monkeypatch.setattr(rootsys, "ORBIT_CAP", 0)
        for i in range(1, rank + 1):
            assert levi_degrees(r, i) == loop_levi_degrees(roots, rank, i)
            assert unit_multiplicity_factored(r, i) == loop_unit_multiplicity(roots, i)
            if i in nodes:
                with pytest.raises(ResourceLimitError) as exc:
                    weyl_orbit_minuscule(r, i)
                size = loop_orbit_size(roots, i)
                assert str(exc.value) == f"orbit of node {i} of {r.lie_type} has {size} weights, above the cap 0"


class TestPositiveRoots:
    def test_length_and_indices(self):
        r = build(LieType("B", 3))
        roots = r.positive_roots
        unpacked = tuple(roots)
        assert type(roots) is PositiveRoots and len(roots) == len(unpacked) == 9
        for k in range(-9, 9):
            assert roots[k] == unpacked[k] and type(roots[k].coeffs) is tuple
        for k in (9, -10, 10**30):
            with pytest.raises(IndexError):
                roots[k]
        with pytest.raises(TypeError):
            roots["1"]
        assert roots[-1] == Root((1, 2, 2), 5)

    def test_slices_are_the_tuples_slices(self):
        roots = build(LieType("A", 3)).positive_roots
        unpacked = tuple(roots)
        for k in (slice(0, 2), slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 1), slice(0, 99, 2)):
            assert roots[k] == unpacked[k] and type(roots[k]) is tuple
        assert roots[0:2] == (Root((0, 0, 1), 1), Root((0, 1, 0), 1))
        # a slice of a fresh view unpacks it once, as iteration does
        fresh = build(LieType("A", 3)).positive_roots
        assert fresh[:1] == unpacked[:1] and fresh._roots == unpacked

    def test_iteration_and_equality(self):
        roots = build(LieType("C", 3)).positive_roots
        unpacked = tuple(roots)
        assert all(type(root) is Root and type(root.coeffs) is tuple for root in roots)
        assert list(roots) == list(unpacked) and list(reversed(roots)) == list(reversed(unpacked))
        assert roots == build(LieType("C", 3)).positive_roots == unpacked
        assert unpacked == roots and not roots != unpacked
        assert roots != build(LieType("B", 3)).positive_roots
        assert roots != unpacked[:-1] and unpacked[1:] != roots
        assert roots != list(unpacked) and roots != roots.coeffs

    def test_hash_repr_and_copies(self):
        r = build(LieType("G", 2))
        roots = r.positive_roots
        unpacked = tuple(roots)
        assert hash(roots) == hash(unpacked) and repr(roots) == repr(unpacked)
        assert hash(r) == hash((r.lie_type, r.cartan, unpacked))
        for copied in (copy.copy(roots), copy.deepcopy(roots), pickle.loads(pickle.dumps(roots))):
            assert type(copied) is PositiveRoots and copied == roots
            assert (copied.coeffs, copied.heights) == (roots.coeffs, roots.heights)
        for copied in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(copied.positive_roots) is PositiveRoots and copied == r

    @pytest.mark.parametrize("family,rank", GRID)
    def test_a_hand_made_system_equals_the_built_one(self, family, rank):
        t = LieType(family, rank)
        built = build(t)
        made = RootSystem(t, cartan_matrix(t), tuple(built.positive_roots))
        assert made == built and hash(made) == hash(built)
        assert made.positive_roots.coeffs == built.positive_roots.coeffs
        assert made.positive_roots.heights == built.positive_roots.heights
        # lists and plain pairs pack the same way, and so does _replace
        pairs = [(list(root.coeffs), root.height) for root in built.positive_roots]
        assert RootSystem(t, built.cartan, pairs) == built
        replaced = built._replace(positive_roots=pairs)
        assert type(replaced.positive_roots) is PositiveRoots and replaced == built

    @pytest.mark.parametrize(
        "roots, message",
        [
            ((Root((256,), 1),), "root coefficient must be in 0..255, got 256"),
            ((Root((-1,), 1),), "root coefficient must be in 0..255, got -1"),
            ((Root((1,), 256),), "root height must be in 0..255, got 256"),
            ((Root((1,), -1),), "root height must be in 0..255, got -1"),
            ((Root((1.0,), 1),), "root coefficient must be an integer, got 1.0"),
            ((Root((1, 0), 1),), "root (1, 0) has 2 coefficients, rank is 1"),
            ((Root((), 1),), "root () has 0 coefficients, rank is 1"),
            (PositiveRoots(b"\x01\x00", b"\x01"), "1 roots of A1 need 1 coefficients each, got 2 in all"),
        ],
    )
    def test_out_of_range_roots_are_refused(self, roots, message):
        with pytest.raises(DomainError) as exc:
            RootSystem(LieType("A", 1), ((2,),), roots)
        assert str(exc.value) == message

    def test_warm_queries_make_no_root(self, monkeypatch):
        t = LieType("E", 7)
        build(t)
        made = []
        unpack, root = PositiveRoots._unpack, rootsys.Root
        monkeypatch.setattr(PositiveRoots, "_unpack", lambda self: made.append("unpack") or unpack(self))
        monkeypatch.setattr(rootsys, "Root", lambda *fields: made.append("root") or root(*fields))
        hits = memo_info().hits
        r = build(t)
        assert memo_info().hits == hits + 1
        degrees(r)
        cominuscule_nodes(r)
        for i in range(1, t.rank + 1):
            levi_degrees(r, i)
            unit_multiplicity_factored(r, i)
        assert made == []
        # the spies do see the roots a caller reads: one, then all 63 once
        r.positive_roots[5]
        assert made == ["root"]
        list(r.positive_roots)
        list(r.positive_roots)
        assert made == ["root", "unpack"] + ["root"] * 63 + ["unpack"]
