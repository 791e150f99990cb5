"""The package's one memo, shared by series, expansions and root systems.

Each entry is priced once, when it is offered, and the memo keeps the
price beside it; these tests check that the stored prices always add up
to the memo's byte count, that the count stays within `MEMO_BYTES` with
both kinds of entry present, and that nothing the memo keeps or evicts
changes an answer.
"""
import pytest

import higgsmult
from higgsmult import ByteMemo, memo_info, rootsys
from higgsmult.multgl import _type_n_factored
from higgsmult.multsimple import mult_simple
from higgsmult.polyalg import FactoredChar, expand, series_expand
from higgsmult.rootsys import LieType, build

from oracles import memo_bytes


@pytest.fixture(autouse=True)
def empty_memo():
    higgsmult._memo.clear()


def _mix():
    """Interleaved calls of every kind that keeps an entry: root builds
    from A40 to A60 (about 44 to 144 KB each), series lists of 601
    coefficients, expansions of type (n) masters, and simple-type
    multiplicities, whose builds and expansions both go through the
    memo.  Together they overflow the budget."""
    calls = []
    for i, rank in enumerate(range(40, 61, 4)):
        calls.append(lambda rank=rank: build(LieType("A", rank)))
        for k in range(3 * i + 1, 3 * i + 4):
            calls.append(lambda k=k: series_expand(FactoredChar({1: -k, 2: 3, 3: -(k % 5)}), 600))
        calls.append(lambda n=2 + i % 4: expand(_type_n_factored(3 + i, n)))
        m = [0] * 6 + [1 + i % 2]
        calls.append(lambda m=m: mult_simple(build(LieType("E", 7)), m).polynomial)
    return calls


def test_the_memo_never_changes_an_answer(monkeypatch):
    calls = _mix()
    # cold: a zero budget keeps nothing, so every answer is computed afresh
    with monkeypatch.context() as mp:
        mp.setattr(higgsmult, "MEMO_BYTES", 0)
        cold = [call() for call in calls]
        assert memo_info().entries == 0
    higgsmult._memo.clear()
    admitted = []
    real = ByteMemo.keep

    def keep(memo, key, value, price):
        kept = real(memo, key, value, price)
        admitted.append(kept and price)
        assert memo.bytes == sum(memo._prices.values()) == memo_bytes(memo)
        assert memo.bytes <= higgsmult.MEMO_BYTES
        return kept

    monkeypatch.setattr(ByteMemo, "keep", keep)
    for _ in range(2):
        for call, answer in zip(calls, cold):
            assert call() == answer
    info = memo_info()
    # the mix overflowed the budget, hit some entries and left both kinds
    assert sum(admitted) > higgsmult.MEMO_BYTES and info.hits > 0
    assert {type(key) is LieType for key in higgsmult._memo} == {True, False}
    assert info.bytes == memo_bytes(higgsmult._memo) <= info.budget


def test_a_hot_root_entry_survives_a_series_sweep(monkeypatch):
    t = LieType("A", 60)
    runs = []
    real = rootsys._positive_roots
    monkeypatch.setattr(rootsys, "_positive_roots", lambda cartan: runs.append(t) or real(cartan))
    first = build(t)
    sweep = [FactoredChar({1: -k, 2: 3, 3: -(k % 5)}) for k in range(1, 41)]
    for f in sweep:
        series_expand(f, 600)
        misses = memo_info().misses
        assert build(t) == first
        assert memo_info().misses == misses  # a hit
    # the sweep is larger than the budget: its oldest lists are gone, but
    # A60, the most recent entry after each of them, was never evicted
    assert sweep[0].terms not in higgsmult._memo and t in higgsmult._memo
    assert runs == [t]


def test_a_refused_replacement_leaves_the_kept_entry():
    # the list of 101 coefficients is kept; 20001 of them cost more than a
    # quarter of the budget, so that offer is refused and the short list stays
    f = FactoredChar({1: -50})
    short = series_expand(f, 100)
    assert memo_info().entries == 1
    long = series_expand(f, 20000)
    assert long.coeffs[:101] == short.coeffs
    assert memo_info().entries == 1 and len(higgsmult._memo[f.terms]) == 101
    hits = memo_info().hits
    assert series_expand(f, 100) == short
    assert memo_info().hits == hits + 1
    assert memo_info().bytes == memo_bytes(higgsmult._memo)
