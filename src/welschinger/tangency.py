"""Arithmetic over finitely supported sequences of non-negative integers.

A tangency vector records, for each order k >= 1, how many local branches
meet the auxiliary curve with multiplicity exactly k.  The semigroup of such
vectors carries the bookkeeping of the whole recursion: the norm ``|v|``
(number of branches), the weighted degree ``Iv = sum k*v_k`` (total
intersection multiplicity), the products ``I^v = prod k^(v_k)`` and
``v! = prod v_k!``, and vector multinomials.  "Odd support" means every
stored order is odd; real branches of real curves can only meet a real
curve transversally-or-oddly, which is why the recursion lives on the odd
subsemigroup.

Vectors are immutable and hashable; they are used directly as parts of memo
keys.  The canonical textual form is ``k1:c1,k2:c2,...`` with strictly
increasing orders, and ``0`` for the zero vector.

The factor search, the hot loop of the recursion, also holds odd-support
vectors in a packed form: one integer with an 8-bit field per odd order,
whose top bit is a guard, so that a difference and a componentwise
comparison each take a few integer operations (see pack).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from typing import Iterable, Iterator, Tuple

from .errors import InternalCheckError


class TangencyVector:
    """Finitely supported map {order k >= 1 -> count >= 1}, immutable."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        if isinstance(entries, Mapping):
            items = entries.items()
        else:
            items = entries
        cleaned = {}
        for k, c in items:
            if k < 1:
                raise ValueError(f"tangency order must be >= 1, got {k}")
            if c < 0:
                raise ValueError(f"count must be >= 0, got {c} at order {k}")
            if c:
                cleaned[k] = cleaned.get(k, 0) + c
        self._entries: Tuple[Tuple[int, int], ...] = tuple(sorted(cleaned.items()))
        self._hash = hash(self._entries)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero() -> "TangencyVector":
        return _ZERO

    @staticmethod
    def theta(k: int, count: int = 1) -> "TangencyVector":
        """`count` branches of order k (the basis vector when count is 1)."""
        return TangencyVector({k: count})

    @staticmethod
    def parse(text: str) -> "TangencyVector":
        text = text.strip()
        if text == "0":
            return _ZERO
        entries = []
        for chunk in text.split(","):
            k_str, _, c_str = chunk.partition(":")
            entries.append((int(k_str), int(c_str)))
        v = TangencyVector(entries)
        if str(v) != text:
            raise ValueError(f"non-canonical tangency vector text: {text!r}")
        return v

    # -- basic protocol --------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, TangencyVector) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"TangencyVector({dict(self._entries)!r})"

    def __str__(self) -> str:
        return entries_str(self._entries)

    def __getitem__(self, k: int) -> int:
        for kk, c in self._entries:
            if kk == k:
                return c
        return 0

    def support(self) -> Tuple[int, ...]:
        return tuple(k for k, _ in self._entries)

    def key(self) -> Tuple[Tuple[int, int], ...]:
        """Canonical hashable form, suitable as part of a memo key."""
        return self._entries

    # -- semigroup arithmetic ---------------------------------------------------
    # Entries are kept sorted, so add/sub/compare are merge walks over
    # (usually very short) tuples; no re-validation or re-sorting.

    def __add__(self, other: "TangencyVector") -> "TangencyVector":
        if not other._entries:
            return self
        if not self._entries:
            return other
        d = dict(self._entries)
        for k, c in other._entries:
            d[k] = d.get(k, 0) + c
        return _from_sorted(tuple(sorted(d.items())))

    def __sub__(self, other: "TangencyVector") -> "TangencyVector":
        if not other._entries:
            return self
        rest = dict(other._entries)
        out = []
        for k, c in self._entries:
            n = c - rest.pop(k, 0)
            if n < 0:
                raise ValueError(f"subtraction leaves negative count at order {k}")
            if n:
                out.append((k, n))
        if rest:
            k = next(iter(rest))
            raise ValueError(f"subtraction leaves negative count at order {k}")
        return _from_sorted(tuple(out))

    def __le__(self, other: "TangencyVector") -> bool:
        if len(self._entries) > len(other._entries):
            return False
        for k, c in self._entries:
            if c > other[k]:
                return False
        return True


def entries_str(entries: Tuple[Tuple[int, int], ...]) -> str:
    """The canonical text of the vector whose key() is entries, which
    TangencyVector.parse reads back."""
    if not entries:
        return "0"
    return ",".join(f"{k}:{c}" for k, c in entries)


def _from_sorted(entries: Tuple[Tuple[int, int], ...]) -> TangencyVector:
    v = object.__new__(TangencyVector)
    v._entries = entries
    v._hash = hash(entries)
    return v


_ZERO = TangencyVector()


def norm(v: TangencyVector) -> int:
    """Total number of branches, sum of all counts."""
    return sum(c for _, c in v)


def iweight(v: TangencyVector) -> int:
    """Total intersection multiplicity, sum of k * v_k."""
    return sum(k * c for k, c in v)


def multinomial(v: TangencyVector, parts: Iterable[TangencyVector]) -> int:
    """Vector multinomial v! / (prod parts_i! * (v - sum parts)!).

    Computed as a product of per-order integer multinomials, so the result
    is exact and no division is ever performed: each part takes its count
    of an order from what the earlier parts left of v's count there, and a
    part that takes more than is left raises ValueError.
    """
    left = dict(v._entries)
    result = 1
    for p in parts:
        for k, c in p._entries:
            have = left.get(k, 0)
            if c > have:
                raise ValueError("parts exceed the vector componentwise")
            result *= math.comb(have, c)
            left[k] = have - c
    return result


def is_odd_support(v: TangencyVector) -> bool:
    """True when every stored order is odd (vacuously true for 0)."""
    return all(k % 2 == 1 for k, _ in v)


def enumerate_le(v: TangencyVector) -> Iterator[TangencyVector]:
    """All w with 0 <= w <= v componentwise, in lexicographic count order."""
    keys = v.support()
    ranges = [range(v[k] + 1) for k in keys]
    for counts in itertools.product(*ranges):
        # the orders are sorted already; only the zero counts drop out
        yield _from_sorted(tuple((k, c) for k, c in zip(keys, counts) if c))


def odd_partitions(total: int) -> Tuple[TangencyVector, ...]:
    """All odd-support vectors with iweight equal to total."""
    if total < 0:
        return ()
    results = []

    def rec(remaining: int, max_part: int, acc: dict) -> None:
        if remaining == 0:
            results.append(TangencyVector(dict(acc)))
            return
        k = min(max_part, remaining)
        if k % 2 == 0:
            k -= 1
        while k >= 1:
            acc[k] = acc.get(k, 0) + 1
            rec(remaining - k, k, acc)
            acc[k] -= 1
            if not acc[k]:
                del acc[k]
            k -= 2

    rec(total, total, {})
    # rec refers to itself, a cycle that only the cyclic collector frees
    del rec
    return tuple(results)


# -- packed form -------------------------------------------------------------------
# Odd order k holds field (k - 1) // 2 of _FIELD_BITS bits, its count in the low
# seven bits; the top bit of each field is a guard bit, clear in every packed
# vector (Lamport, "Multiple byte processing with full-word instructions",
# CACM 1975).  Each field of (b | GUARD) - a is b_k + 128 - a_k, between 1 and
# 255, so no borrow crosses a field, and its guard bit stays set exactly when
# a_k <= b_k.  Hence, for packed a and b:
#   a <= b componentwise  iff  ((b | GUARD) - a) & GUARD == GUARD;
#   b - a is the packed difference whenever a <= b.
# Counts only shrink under that subtraction, so only pack can overflow a field.

_FIELD_BITS = 8
MAX_PACKED_ORDER = 63
GUARD = sum(
    1 << (_FIELD_BITS * field + _FIELD_BITS - 1)
    for field in range(MAX_PACKED_ORDER // 2 + 1)
)


def pack(v: TangencyVector) -> int:
    """The packed form of an odd-support vector.  An even order, an order
    past MAX_PACKED_ORDER or a count of 128 or more has no field to hold it
    and raises InternalCheckError: a packed vector never wraps."""
    packed = 0
    for k, c in v:
        if k % 2 == 0 or k > MAX_PACKED_ORDER or c >> (_FIELD_BITS - 1):
            raise InternalCheckError(
                f"tangency vector {v} does not pack: order {k}, count {c}"
            )
        packed |= c << (_FIELD_BITS * (k >> 1))
    return packed


ZERO = _ZERO
# one object per (k, count), shared by the whole process: vectors are immutable
theta = functools.lru_cache(maxsize=None)(TangencyVector.theta)
