import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmult.chain import (
    ChainHiggsBundle,
    Divisor,
    Point,
    WeightDims,
    block_tplus_dims,
    chain_from_json,
    chain_from_m,
    chain_to_json,
    gl_hitchin_base_dims,
    is_stable,
    is_very_stable,
    make_chain,
    stability,
    tplus_dims,
    twist,
    unstable_index,
)
from higgsmult.errors import DomainError


class TestDivisor:
    def test_canonical_no_zeros(self):
        d = Divisor({"p": 2, "q": 0})
        assert d.multiplicities == ((Point("p"), 2),)

    def test_merge(self):
        d = Divisor([("p", 1), ("p", 1), ("q", -1)])
        assert d["p"] == 2 and d["q"] == -1

    def test_degree_and_effectivity(self):
        d = Divisor({"p": 2, "q": 1})
        assert d.degree == 3
        assert d.is_effective and not d.is_reduced
        assert Divisor({"p": 1, "q": 1}).is_reduced
        assert not Divisor({"p": -1}).is_effective
        assert Divisor.zero().is_effective and Divisor.zero().is_reduced

    def test_add_sub(self):
        a = Divisor({"p": 1})
        b = Divisor({"p": 1, "q": 2})
        assert (a + b)["p"] == 2
        assert (b - a) == Divisor({"q": 2})
        assert (a - a) == Divisor.zero()

    def test_of_points_counts_repeats(self):
        assert Divisor.of_points("p", "q", "p") == Divisor({"p": 2, "q": 1})


class TestWeightDims:
    def test_default_zero(self):
        w = WeightDims({1: 2, 2: 3})
        assert w[1] == 2 and w[5] == 0
        assert w.total() == 5

    def test_zero_entries_dropped(self):
        assert WeightDims({1: 2, 3: 0}) == WeightDims({1: 2})

    def test_weight_must_be_positive(self):
        with pytest.raises(DomainError):
            WeightDims({0: 1})


class TestChainValidation:
    def test_basic_build(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        assert c.rank == 2 and c.m_vector == (1,)

    def test_genus_bound(self):
        with pytest.raises(DomainError, match="genus"):
            make_chain(1, (0, -1), [Divisor({"p": 1})])

    def test_negative_m_rejected(self):
        # l = (0, 1) gives m_1 = 3 at g = 2: fine; l = (0, -4) gives m_1 = -2
        with pytest.raises(DomainError, match="m_1"):
            make_chain(2, (0, -4), [Divisor.zero()])

    def test_zero_divisor_degree_checked(self):
        with pytest.raises(DomainError, match="degree"):
            make_chain(2, (0, -1), [Divisor({"p": 2})])

    def test_zero_divisor_effective(self):
        with pytest.raises(DomainError, match="effective"):
            make_chain(2, (0, 0), [Divisor({"p": 3, "q": -1})])

    def test_delta0_degree_checked(self):
        with pytest.raises(DomainError, match="delta0"):
            ChainHiggsBundle(2, (1, 0), Divisor.zero(), (Divisor({"p": 1}),))

    @pytest.mark.parametrize(
        "degrees, zeros, message",
        [
            ((0, -4), [{"p": 3, "q": -1}], "m_1 = -2 < 0: degrees (0, -4) admit no nonzero map at step 1"),
            ((0, 0), [{"p": 3, "q": -2}], "zero divisor at step 1 is not effective"),
            ((0, 0), [{"p": 1}], "zero divisor at step 1 has degree 1, expected m_1 = 2"),
            ((0, -1, -10), [{"p": 2}, {"q": -1}], "zero divisor at step 1 has degree 2, expected m_1 = 1"),
            ((0, -1, -10), [{"p": 1}, {"q": -1}], "m_2 = -7 < 0: degrees (0, -1, -10) admit no nonzero map at step 2"),
        ],
    )
    def test_each_step_reports_its_first_failure(self, degrees, zeros, message):
        # m_i < 0, then effectiveness, then degree; step by step
        with pytest.raises(DomainError) as info:
            ChainHiggsBundle(2, degrees, Divisor.zero(), zeros)
        assert str(info.value) == message

    def test_zeros_count_checked(self):
        with pytest.raises(DomainError, match="zero divisors"):
            ChainHiggsBundle(2, (0, -1), Divisor.zero(), ())

    def test_plain_mappings_accepted(self):
        c = ChainHiggsBundle(3, [2, 0], {"o": 2}, [{"p": 1, "q": 1}])
        assert c == make_chain(3, (2, 0), [Divisor.of_points("p", "q")])
        assert ChainHiggsBundle(3, [0], {"o": 0}).delta0 == Divisor.zero()
        with pytest.raises(DomainError, match="delta0 has degree 1"):
            ChainHiggsBundle(3, [0], {"o": 1})
        with pytest.raises(DomainError, match="^Divisor count must be an integer, got 1.5$"):
            ChainHiggsBundle(3, [2, 0], {"o": 2}, [{"p": 1.5}])

    @pytest.mark.parametrize("i", [0, 3])
    def test_zero_divisor_index_checked(self, i):
        c = chain_from_m(2, (1, 1))
        with pytest.raises(DomainError) as info:
            c.zero_divisor(i)
        assert str(info.value) == f"map index must be in 1..2, got {i}"
        assert c.zero_divisor(2) == c.zero_divisors[1]

    def test_rank_one(self):
        c = make_chain(2, (0,))
        assert c.rank == 1 and c.m_vector == ()

    def test_chain_from_m(self):
        c = chain_from_m(2, (1, 1))
        assert c.degrees == (0, -1, -2)
        assert c.m_vector == (1, 1)
        assert all(d.is_reduced for d in c.zero_divisors)


    def test_validation_reads_m_vector_once(self, monkeypatch):
        reads = []
        m_vector = ChainHiggsBundle.m_vector.fget

        def spy(self):
            reads.append(1)
            return m_vector(self)

        monkeypatch.setattr(ChainHiggsBundle, "m_vector", property(spy))
        chain_from_m(2, (1,) * 99)
        assert len(reads) == 1


class TestStability:
    def test_rank2_examples(self):
        assert is_stable(make_chain(2, (0, -1), [Divisor({"p": 1})]))
        assert not is_stable(make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")]))
        assert is_stable(make_chain(2, (5,)))

    def test_unstable_index(self):
        assert unstable_index(make_chain(2, (0, -1), [Divisor({"p": 1})])) is None
        c = make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")])
        assert unstable_index(c) == 1

    def test_semistable_rejected(self):
        # equal slopes: strict inequality fails
        c = make_chain(2, (-1, -1), [Divisor.of_points("p", "q")])
        assert not is_stable(c)

    @given(st.integers(2, 4), st.lists(st.integers(0, 2), min_size=1, max_size=4))
    def test_descending_degrees_are_stable(self, g, m):
        # m_i < 2g-2 forces strictly decreasing degrees, hence stability
        if any(x >= 2 * g - 2 for x in m):
            return
        assert is_stable(chain_from_m(g, m))


def reference_verdict(c):
    """The slope test and the combined-divisor scan written out directly."""
    n, l = c.rank, c.degrees
    for j in range(1, n):
        if not n * sum(l[j:]) < (n - j) * sum(l):
            return False, False, f"unstable at index {j}"
    total = Divisor.zero()
    for div in c.zero_divisors:
        total = total + div
    for point, mult in total:
        if mult >= 2:
            return True, False, f"repeated zero at {point.label}"
    return True, True, None


class TestStabilityVerdict:
    def test_reasons(self):
        assert stability(make_chain(2, (0, -1), [Divisor({"p": 1})])).reason is None
        verdict = stability(make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")]))
        assert (verdict.stable, verdict.unstable_index) == (False, 1)
        assert verdict.reason == "unstable at index 1"
        zeros = [Divisor.of_points("s", "q", "r"), Divisor.of_points("s", "r", "p")]
        verdict = stability(make_chain(3, (2, 1, 0), zeros))
        assert verdict.stable and not verdict.very_stable
        assert verdict.reason == "repeated zero at r"

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 4),
        st.lists(st.integers(-4, 4), min_size=1, max_size=6),
        st.data(),
    )
    def test_matches_reference(self, g, steps, data):
        degrees = [0]
        for s in steps:
            degrees.append(degrees[-1] + s)
        m = [degrees[i] - degrees[i - 1] + 2 * g - 2 for i in range(1, len(degrees))]
        if any(x < 0 for x in m):
            return
        zeros = [
            Divisor.of_points(*data.draw(st.lists(st.sampled_from("pqrs"), min_size=x, max_size=x)))
            for x in m
        ]
        c = make_chain(g, degrees, zeros)
        verdict = stability(c)
        assert (verdict.stable, verdict.very_stable, verdict.reason) == reference_verdict(c)
        assert verdict.stable == is_stable(c)
        assert verdict.very_stable == is_very_stable(c)
        assert verdict.unstable_index == unstable_index(c)


class TestVeryStable:
    def test_simple_zero(self):
        assert is_very_stable(make_chain(2, (0, -1), [Divisor({"p": 1})]))

    def test_repeated_zero_in_one_divisor(self):
        c = make_chain(3, (0, -1), [Divisor({"p": 2, "q": 1})])
        assert is_stable(c) and not is_very_stable(c)

    def test_zero_shared_between_divisors(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"p": 1})])
        assert is_stable(c) and not is_very_stable(c)

    def test_unstable_never_very_stable(self):
        c = make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")])
        assert not is_very_stable(c)

    def test_all_zero_m(self):
        assert is_very_stable(chain_from_m(2, (0, 0)))

    def test_relabeling_invariance(self):
        a = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"q": 1})])
        b = make_chain(2, (0, -1, -2), [Divisor({"x": 1}), Divisor({"y": 1})])
        assert is_very_stable(a) == is_very_stable(b)


class TestTplusDims:
    def test_rank2_example(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        assert tplus_dims(c).as_dict() == {1: 3, 2: 2}

    def test_rank3_example(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"q": 1})])
        assert tplus_dims(c).as_dict() == {1: 4, 2: 3, 3: 3}

    def test_uniformising_chain(self):
        c = make_chain(2, (0, -2), [Divisor.zero()])
        assert tplus_dims(c).as_dict() == {1: 2, 2: 3}

    def test_rank4_hand_computed(self):
        c = chain_from_m(2, (0, 1, 0))
        assert c.degrees == (0, -2, -3, -5)
        assert tplus_dims(c).as_dict() == {1: 3, 2: 4, 3: 4, 4: 6}

    def test_rank_one_is_jacobian(self):
        assert tplus_dims(make_chain(3, (0,))).as_dict() == {1: 3}

    def test_unstable_rejected(self):
        c = make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")])
        with pytest.raises(DomainError, match="stable"):
            tplus_dims(c)

    def test_rank2_closed_form(self):
        # weight dims (m+g, 3g-3-m) for every admissible rank-2 chain
        for g in range(2, 6):
            for m in range(0, 2 * g - 2):
                c = chain_from_m(g, (m,))
                assert tplus_dims(c).as_dict() == {1: m + g, 2: 3 * g - 3 - m}

    @given(st.integers(2, 4), st.lists(st.integers(0, 2), min_size=1, max_size=4), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_translation_invariance(self, g, m, shift):
        if any(x >= 2 * g - 2 for x in m):
            return
        a = chain_from_m(g, m)
        b = chain_from_m(g, m, top_degree=shift)
        assert tplus_dims(a) == tplus_dims(b)

    @given(st.integers(2, 4), st.lists(st.integers(0, 2), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_total_and_top_weight(self, g, m):
        if any(x >= 2 * g - 2 for x in m):
            return
        c = chain_from_m(g, m)
        n = c.rank
        dims = tplus_dims(c)
        assert dims.total() == n * n * (g - 1) + 1
        assert dims[n] == (2 * n - 1) * (g - 1) - sum(m)
        assert all(d >= 0 for _, d in dims)

    @given(
        st.integers(2, 6),
        st.lists(st.tuples(st.integers(1, 5), st.integers(-20, 20)), min_size=1, max_size=6),
    )
    @settings(max_examples=100)
    def test_block_total(self, g, blocks):
        # blocks of any rank and any degrees, stable or not
        n = sum(r for r, _ in blocks)
        assert block_tplus_dims(g, blocks).total() == n * n * (g - 1) + 1


def reference_tplus_dims(c):
    """The weight-k Euler characteristics summed over every index pair
    (i, j), keeping those with i - j = k or k - 1."""
    g, l, n = c.genus, c.degrees, c.rank
    dims = {}
    for k in range(1, n + 1):
        chi = 0
        for i in range(n):
            for j in range(n):
                if i - j == k:
                    chi += l[j] - l[i] + 1 - g
                if i - j == k - 1:
                    chi -= l[j] - l[i] + (2 * g - 2) + 1 - g
        dims[k] = -chi + (1 if k == 1 else 0)
    return WeightDims(dims)


class TestTplusDimsDifferential:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 5),
        st.lists(st.integers(0, 9), min_size=0, max_size=9),
        st.integers(-6, 6),
    )
    def test_matches_pair_loop(self, g, m, top):
        c = chain_from_m(g, m, top_degree=top)
        if not is_stable(c):
            return
        assert tplus_dims(c) == reference_tplus_dims(c)


class TestBaseDims:
    def test_examples(self):
        assert gl_hitchin_base_dims(2, 2).as_dict() == {1: 2, 2: 3}
        assert gl_hitchin_base_dims(2, 1).as_dict() == {1: 2}
        # (2k-1)(g-1) for k = 2, 3; total 19 = 9*2 + 1
        assert gl_hitchin_base_dims(3, 3).as_dict() == {1: 3, 2: 6, 3: 10}

    def test_total(self):
        for g in range(2, 6):
            for n in range(1, 7):
                assert gl_hitchin_base_dims(g, n).total() == n * n * (g - 1) + 1

    def test_domain(self):
        with pytest.raises(DomainError):
            gl_hitchin_base_dims(1, 2)
        with pytest.raises(DomainError):
            gl_hitchin_base_dims(2, 0)


class TestTwist:
    def test_degrees_and_delta0(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        t = twist(c, "q", -1)
        assert t.degrees == (-1, -2)
        assert t.delta0 == Divisor({"q": -1})
        assert t.zero_divisors == c.zero_divisors

    def test_twist_round_trip(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"q": 1})])
        assert twist(twist(c, "x", -1), "x", 1) == c


class TestJson:
    def test_round_trip(self):
        c = make_chain(3, (2, 1), [Divisor({"p": 2, "q": 1})], delta0=Divisor({"o": 3, "p": -1}))
        assert chain_from_json(chain_to_json(c)) == c

    def test_shape(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        assert chain_to_json(c) == {
            "genus": 2,
            "degrees": [0, -1],
            "delta0": {},
            "zeros": [{"p": 1}],
        }

    @pytest.mark.parametrize(
        "obj,needle",
        [
            ([], "object"),
            ({"genus": 2, "degrees": [0, -1], "delta0": {}}, "zeros"),
            ({"genus": "2", "degrees": [0, -1], "delta0": {}, "zeros": [{"p": 1}]}, "genus"),
            ({"genus": 2, "degrees": [0, 0.5], "delta0": {}, "zeros": [{}]}, "degrees"),
            ({"genus": 2, "degrees": [0, -1], "delta0": {}, "zeros": [{"p": True}]}, r"zeros\[0\]"),
            ({"genus": 2, "degrees": [0, -1], "delta0": {"o": 1}, "zeros": [{"p": 1}]}, "delta0"),
            ({"genus": 2, "degrees": [0, -1], "delta0": {}, "zeros": [{"p": 2}]}, "degree"),
            ({"genus": 2, "degrees": [0, -1], "delta0": {}, "zeros": [{"p": 1}], "x": 1}, "unknown"),
        ],
    )
    def test_parse_errors_name_the_invariant(self, obj, needle):
        with pytest.raises(DomainError, match=needle):
            chain_from_json(obj)

    def test_point_label_validation(self):
        with pytest.raises(DomainError):
            Divisor({"": 1})
