import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from higgsmult.chain import Divisor, chain_from_m, is_stable, is_very_stable, make_chain, twist
from higgsmult.errors import DIGITS_CAP, DomainError, ResourceLimitError, UnstableResultError
from higgsmult import hecke
from higgsmult.hecke import (
    apply_move,
    hecke_add_zero,
    hecke_remove_zero,
    intersection_count,
    intersection_enumerate,
)

from oracles import binomial


class TestRemove:
    def test_rank2_example(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        out = hecke_remove_zero(c, 1, "p")
        assert out.degrees == (0, -2)
        assert out.zero_divisors == (Divisor.zero(),)
        assert out.delta0 == c.delta0

    def test_rank3_only_tail_drops(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"q": 1})])
        out = hecke_remove_zero(c, 2, "q")
        assert out.degrees == (0, -1, -3)
        assert out.zero_divisors == (Divisor({"p": 1}), Divisor.zero())

    def test_output_stable(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"q": 1})])
        assert is_stable(hecke_remove_zero(c, 1, "p"))

    def test_point_must_be_zero(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        with pytest.raises(DomainError, match="not a zero"):
            hecke_remove_zero(c, 1, "q")

    def test_unstable_input_rejected(self):
        c = make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")])
        with pytest.raises(DomainError, match="stable"):
            hecke_remove_zero(c, 1, "p")

    def test_index_range(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        with pytest.raises(DomainError, match="index"):
            hecke_remove_zero(c, 2, "p")


class TestAdd:
    def test_rank2_example(self):
        c = make_chain(2, (0, -2), [Divisor.zero()])
        out = hecke_add_zero(c, 1, "p")
        assert out.degrees == (-1, -2)
        assert out.zero_divisors == (Divisor({"p": 1}),)
        assert out.delta0.degree == -1

    def test_rank3_example(self):
        c = make_chain(2, (0, -2, -4), [Divisor.zero(), Divisor.zero()])
        out = hecke_add_zero(c, 2, "p")
        assert out.degrees == (-1, -2, -4)
        assert out.zero_divisors[0] == Divisor({"p": 1})
        assert out.zero_divisors[1] == Divisor.zero()

    def test_existing_zero_rejected(self):
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        with pytest.raises(DomainError, match="already a zero"):
            hecke_add_zero(c, 1, "p")

    def test_destabilising_addition_is_its_own_error(self):
        # l = (0, -1) is stable but (-1, -1) is only semistable
        c = make_chain(2, (0, -1), [Divisor({"p": 1})])
        with pytest.raises(UnstableResultError):
            hecke_add_zero(c, 1, "q")

    def test_unstable_input_rejected(self):
        c = make_chain(2, (-1, 0), [Divisor.of_points("p", "q", "r")])
        with pytest.raises(DomainError, match="stable"):
            hecke_add_zero(c, 1, "x")

    def test_index_range(self):
        c = make_chain(2, (0, -2), [Divisor.zero()])
        with pytest.raises(DomainError, match="dimension"):
            hecke_add_zero(c, 0, "p")


class TestRoundTrips:
    def test_add_then_remove_is_global_twist(self):
        c = make_chain(2, (0, -2, -4), [Divisor.zero(), Divisor.zero()])
        for k in (1, 2):
            added = hecke_add_zero(c, k, "w")
            back = hecke_remove_zero(added, c.rank - k, "w")
            assert back == twist(c, "w", -1)

    def test_remove_then_add_is_global_twist(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"q": 1})])
        removed = hecke_remove_zero(c, 1, "p")
        back = hecke_add_zero(removed, c.rank - 1, "p")
        assert back == twist(c, "p", -1)

    def test_apply_move_dispatch(self):
        c = make_chain(2, (0, -2), [Divisor.zero()])
        out = apply_move(c, "add", 1, "p")
        assert out == hecke_add_zero(c, 1, "p")
        assert apply_move(out, "remove", 1, "p") == twist(c, "p", -1)
        with pytest.raises(DomainError, match="unknown hecke op"):
            apply_move(c, "swap", 1, "p")

    @given(
        st.integers(2, 4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        st.integers(1, 4),
    )
    @settings(max_examples=80)
    def test_round_trip_property(self, g, m, k):
        if any(x >= 2 * g - 2 for x in m):
            return
        c = chain_from_m(g, m)
        k = 1 + (k - 1) % (c.rank) if c.rank > 1 else 1
        if not 1 <= k <= c.rank - 1:
            return
        try:
            added = hecke_add_zero(c, k, "fresh")
        except UnstableResultError:
            return
        back = hecke_remove_zero(added, c.rank - k, "fresh")
        assert back == twist(c, "fresh", -1)


class TestIntersectionCount:
    def test_type3_example(self):
        c = chain_from_m(2, (1, 1))
        assert intersection_count(c) == 9
        assert binomial(3, 2) * binomial(3, 1) == 9

    def test_all_zero_m(self):
        assert intersection_count(chain_from_m(3, (0, 0, 0))) == 1

    def test_rank2_powers_of_two(self):
        c = chain_from_m(3, (3,))
        assert intersection_count(c) == 8

    def test_digit_cap_is_exact(self):
        # C(5, 2) = 10, so m_2 = k gives the count 10**k, with k + 1 digits
        assert DIGITS_CAP == 4300
        assert intersection_count(chain_from_m(3000, (0, 4299, 0, 0))) == 10 ** 4299
        with pytest.raises(ResourceLimitError) as info:
            intersection_count(chain_from_m(3000, (0, 4300, 0, 0)))
        assert str(info.value) == "the intersection count has 4301 digits, above the cap 4300"

    def test_digit_cap_refuses_before_the_powers(self):
        # rank 20000, one zero per map: the full count has about 3 * 10**8 bits;
        # built by make_chain, as chain_from_m refuses ranks above RANK_CAP
        zeros = [Divisor({f"z{i}.1": 1}) for i in range(1, 20_000)]
        c = make_chain(2, range(0, -20_000, -1), zeros)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="digits or more, above the cap 4300"):
            intersection_count(c)
        assert time.perf_counter() - start < 1.0

    def test_not_very_stable_rejected(self):
        c = make_chain(2, (0, -1, -2), [Divisor({"p": 1}), Divisor({"p": 1})])
        with pytest.raises(DomainError, match="very stable"):
            intersection_count(c)


class TestIntersectionEnumerate:
    def test_single_zero_rank2(self):
        c = chain_from_m(2, (1,))
        out = intersection_enumerate(c)
        label = c.zero_divisors[0].points()[0].label
        assert list(out) == [(((1, label), (1,)),), (((1, label), (2,)),)]

    def test_rank3_grid(self):
        c = chain_from_m(2, (1, 1))
        out = intersection_enumerate(c)
        assert len(out) == 9
        sizes = {tuple(len(sub) for (_, sub) in a) for a in out}
        assert sizes == {(2, 1)}

    def test_empty_assignment(self):
        out = intersection_enumerate(chain_from_m(2, (0,)))
        assert list(out) == [()]

    def test_refuses_a_chain_that_is_not_very_stable(self):
        # stable, but with a double zero at p
        c = make_chain(3, (1, 0), [Divisor({"p": 2, "q": 1})])
        assert is_stable(c) and not is_very_stable(c)
        with pytest.raises(DomainError) as info:
            intersection_enumerate(c)
        assert str(info.value) == "intersection enumeration is only defined for very stable chains"

    def test_cap(self):
        c = chain_from_m(3, (3, 3))
        with pytest.raises(ResourceLimitError, match="cap"):
            intersection_enumerate(c, cap=10)

    def test_cap_refuses_before_any_slot(self, monkeypatch):
        # rank 26, one zero at b_13: C(26, 13) = 10400600 points
        m = [0] * 25
        m[12] = 1
        c = chain_from_m(2, m)
        monkeypatch.setattr(hecke, "combinations", lambda *a: pytest.fail("built a slot"))
        with pytest.raises(ResourceLimitError) as info:
            intersection_enumerate(c)
        assert str(info.value) == "the enumeration has 10400600 points, above the cap 1000000"

    def test_one_verdict_per_public_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hecke, "is_very_stable", lambda c: calls.append(c) or is_very_stable(c))
        c = chain_from_m(2, (1, 1))
        assert len(intersection_enumerate(c)) == 9
        assert calls == [c]
        calls.clear()
        assert intersection_count(c) == 9
        assert calls == [c]

    @given(st.integers(2, 3), st.lists(st.integers(0, 2), min_size=1, max_size=3))
    @settings(max_examples=40)
    def test_length_matches_count(self, g, m):
        if any(x >= 2 * g - 2 for x in m):
            return
        c = chain_from_m(g, m)
        assert is_very_stable(c)
        assert len(intersection_enumerate(c)) == intersection_count(c)


def reference_points(c):
    """The points as the enumeration listed them before it became a view:
    one slot per zero of each b_i (in divisor order), the full product."""
    n = c.rank
    slots = [
        [((i, pt.label), subset) for subset in itertools.combinations(range(1, n + 1), n - i)]
        for i, div in enumerate(c.zero_divisors, start=1)
        for pt, _ in div
    ]
    return [tuple(pick) for pick in itertools.product(*slots)]


class TestIntersectionPointsView:
    @given(
        st.integers(2, 4),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        st.integers(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_materialised_product(self, g, m, top):
        c = chain_from_m(g, m, top_degree=top)
        if not is_very_stable(c):
            return
        view = intersection_enumerate(c)
        ref = reference_points(c)
        size = len(ref)
        assert len(view) == size
        assert list(view) == ref
        assert [view[k] for k in range(size)] == ref
        assert view[-1] == ref[-1] and view[-size] == ref[0]
        for k in (size, -size - 1):
            with pytest.raises(IndexError):
                view[k]

    def test_sequence_protocol(self):
        c = chain_from_m(2, (1, 1))
        view = intersection_enumerate(c)
        ref = reference_points(c)
        assert list(reversed(view)) == ref[::-1]
        assert ref[5] in view and view.index(ref[5]) == 5 and view.count(ref[5]) == 1
        with pytest.raises(TypeError):
            view["0"]

    def test_big_chain_sweep_shape_is_not_materialised(self):
        # rank 6, m = (1, 1, 1, 1, 2): 6 * 15 * 20 * 15 * 6^2 = 972000 points
        c = chain_from_m(4, (1, 1, 1, 1, 2))
        tracemalloc.start()
        try:
            size = len(intersection_enumerate(c))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == intersection_count(c) == 972_000
        assert peak < 1_000_000
