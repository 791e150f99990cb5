"""Exact multiplicity computations for nilpotent cone components.

The toolkit works with type (1,...,1) fixed-point chains of Higgs
bundles on a curve of genus g >= 2: stability and very-stability tests,
Hecke-transform rewrites, virtual equivariant multiplicities as exact
integer polynomials, and the parallel multiplicity formulas for simple
Lie groups built on a self-contained root system engine.  All
arithmetic is exact; floats appear only in up-front cost estimates.

Each module imports what it uses, and the command line imports a
subcommand's modules only when that subcommand runs.  The bases that
several modules share live here: `Record`; `SparseMap`, the one
canonical finite formal sum (exponent maps in `polyalg`, weight gradings
and divisors in `chain`); and `_memo`, the one `ByteMemo` per process,
which keeps `polyalg`'s series and expansions and `rootsys`'s packed
root systems within one byte budget, `MEMO_BYTES`, and reports its
counts through `memo_info()`.

Every number a caller passes goes through `errors.check_int`, which
converts it or refuses it: a sparse map's keys (lookups too) and counts
where they enter, in the `SparseMap` constructor, and the arguments of
functions that compute counts from a caller's numbers (a genus, blocks,
n and k of a quantum binomial).  Everything built from maps already
canonical, or from ints the package computed, goes straight to
`SparseMap._merge`, the one canonicaliser, with no check that could
fail.
"""

from collections import OrderedDict, namedtuple
from collections.abc import Mapping

from .errors import DomainError, check_int

__version__ = "0.1.0"


class Record(tuple):
    """Base of the package's immutable value classes.

    A value class derives from Record and from a `collections.namedtuple`
    of its fields, in that order, so an instance is the tuple of its
    fields: it hashes as that tuple, orders as it, and prints as
    ``Name(field=value, ...)``.  Record makes it equal only to instances
    of its own class and refuses every assignment.  `rootsys.DegreeSet`
    is a Record over its own elements, with no namedtuple.
    """

    __slots__ = ()

    # not NotImplemented for other classes: tuple's own comparison, tried
    # next, would compare the fields of any tuple
    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class SparseMap:
    """A finite formal sum: distinct keys, each with a nonzero integer count.

    The constructor is where data enters, and the one place keys and
    counts are checked.  It takes (key, count) pairs from a mapping or an
    iterable, normalises each key by the class's key rule `_key` (here:
    `errors.check_int`, >= 1) and each count by `check_int`, and refuses
    anything that is not a pair with DomainError.  It then hands the
    pairs to `_merge`, the one canonicaliser: it sums equal keys, drops
    zero counts and sorts by key, and checks nothing.  Arithmetic merges
    without checking again: `+` and `-` merge the terms of two maps of
    the class, and `scale` their products with one integer it checks
    once, so every key has passed `_key` and every count is an int
    already.  The dict built on the way is kept, so a lookup is one
    `_key` call and one dict read; an absent key reads 0.  Equality and
    hashing are by class and terms, and no attribute can be assigned.

    >>> m = SparseMap([(3, 1), (1, 2), (3, -1), (2, 5)])
    >>> m.terms
    ((1, 2), (2, 5))
    >>> m[2], m[3]
    (5, 0)
    >>> (m - SparseMap({2: 5})).as_dict()
    {1: 2}
    >>> m.scale(-2) == SparseMap({1: -4, 2: -10})
    True
    >>> SparseMap({2: 1.5})
    Traceback (most recent call last):
    ...
    higgsmult.errors.DomainError: SparseMap count must be an integer, got 1.5
    """

    __slots__ = ("terms", "_dict")

    _noun = "key"

    def __new__(cls, pairs: "Mapping | Iterable[tuple]" = ()) -> "SparseMap":
        key, what = cls._key, f"{cls.__name__} count"
        try:
            checked = [
                (key(k), check_int(what, count))
                for k, count in (pairs.items() if isinstance(pairs, Mapping) else pairs)
            ]
        except DomainError:
            raise
        except (TypeError, ValueError) as exc:  # not (key, count) pairs
            raise DomainError(f"{cls.__name__} takes (key, integer) pairs: {exc}") from None
        return cls._merge(checked)

    @classmethod
    def _merge(cls, pairs: "Iterable[tuple]") -> "SparseMap":
        """The canonical map of (key, count) pairs whose keys are normal
        under `_key` and whose counts are ints; none of them is checked."""
        merged: dict = {}
        for k, count in pairs:
            merged[k] = merged[k] + count if k in merged else count
        canon = {k: c for k, c in sorted(merged.items()) if c}
        self = object.__new__(cls)
        object.__setattr__(self, "terms", tuple(canon.items()))
        object.__setattr__(self, "_dict", canon)
        return self

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.terms,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(terms={self.terms!r})"

    __setattr__ = Record.__setattr__

    def __reduce__(self):
        return type(self), (self.terms,)

    @classmethod
    def _key(cls, k: object) -> int:
        return check_int(cls._noun, k, 1)

    def __getitem__(self, k: object) -> int:
        return self._dict.get(self._key(k), 0)

    def __iter__(self) -> "Iterator[tuple]":
        return iter(self.terms)

    def as_dict(self) -> dict:
        return dict(self._dict)

    def total(self) -> int:
        """The sum of the counts."""
        return sum(c for _, c in self.terms)

    def __add__(self, other: "SparseMap") -> "SparseMap":
        if type(other) is not type(self):
            return NotImplemented
        return self._merge(self.terms + other.terms)

    def __sub__(self, other: "SparseMap") -> "SparseMap":
        if type(other) is not type(self):
            return NotImplemented
        return self._merge([*self.terms, *((k, -c) for k, c in other.terms)])

    def scale(self, m: int) -> "SparseMap":
        m = check_int("scale factor", m)
        return self._merge([(k, m * c) for k, c in self.terms])


MemoInfo = namedtuple("MemoInfo", "hits misses entries bytes budget")

# The budget of the one memo, in bytes: room for A60's roots and Cartan
# matrix (about 144 KB) within a quarter of it, and not for A80's.
MEMO_BYTES = 896 << 10


class ByteMemo(Mapping):
    """A memo kept within MEMO_BYTES, least recently used first.

    `keep` takes an entry with its price in bytes, which the caller
    reckons once; the memo stores the price beside the value and
    subtracts it when the entry is replaced or evicted.  `find` counts a
    hit or a miss; `keep` replaces any entry for the key, keeps the new
    one unless it costs more than a quarter of the budget, and then drops
    the least recently used entries until the total is within it.  The
    budget is MEMO_BYTES as it reads at each call.  It reads as a mapping
    (`in`, `[]`, `get`, `len`, iteration, `items`), but is written only
    by `keep` and emptied only by `clear`, which resets every count, so
    its byte count is always the sum of its entries' prices.

    >>> memo = ByteMemo()
    >>> memo.keep("a", "xx", 2), memo.keep("b", "xxx", MEMO_BYTES // 4 + 1)
    (True, False)
    >>> memo.find("a"), memo.find("b"), memo.find("a", fits=lambda v: len(v) > 2)
    ('xx', None, None)
    >>> memo.info() == (1, 2, 1, 2, MEMO_BYTES)
    True
    >>> memo.clear(); memo.info()[:4]
    (0, 0, 0, 0)
    """

    def __init__(self) -> None:
        self._kept: OrderedDict = OrderedDict()
        self._prices: dict = {}
        self.hits = self.misses = self.bytes = 0

    def __getitem__(self, key):
        return self._kept[key]

    def __iter__(self):
        return iter(self._kept)

    def __len__(self) -> int:
        return len(self._kept)

    def get(self, key, default=None):
        """The value kept for key, or default: a peek, neither counted
        nor moved."""
        return self._kept.get(key, default)

    def find(self, key, fits=None):
        """The value kept for key, now the most recent, if `fits` (when
        given) accepts it; else None.  Counted as a hit or a miss."""
        kept = self._kept.get(key)
        if kept is None or fits is not None and not fits(kept):
            self.misses += 1
            return None
        self.hits += 1
        self._kept.move_to_end(key)
        return kept

    def keep(self, key, value, price: int) -> bool:
        """Offer value for key at its price in bytes; True when it is kept."""
        kept, prices = self._kept, self._prices
        if key in kept:
            del kept[key]
            self.bytes -= prices.pop(key)
        budget = MEMO_BYTES
        if price > budget // 4:
            return False
        kept[key], prices[key] = value, price
        self.bytes += price
        while self.bytes > budget:
            self.bytes -= prices.pop(kept.popitem(last=False)[0])
        return True

    def clear(self) -> None:
        """Drop every entry and reset the byte count, hits and misses."""
        self._kept.clear()
        self._prices.clear()
        self.hits = self.misses = self.bytes = 0

    def info(self) -> MemoInfo:
        """Counts like lru_cache's cache_info, with the budget."""
        return MemoInfo(self.hits, self.misses, len(self._kept), self.bytes, MEMO_BYTES)


# The one memo per process: polyalg's series lists and expansions, keyed
# by a factored form's terms, and rootsys's packed root systems, keyed by
# the LieType, share it and its budget.
_memo = ByteMemo()


def memo_info() -> MemoInfo:
    """Counts of this process's memo, like lru_cache's cache_info."""
    return _memo.info()
