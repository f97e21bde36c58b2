"""Exact linear algebra over the rationals on integer-indexed sparse vectors.

Scalars are `fractions.Fraction` (arbitrary-precision, always in lowest
terms with positive denominator), re-exported here as `Rational`.  Vectors
are finitely supported maps from integer index to nonzero scalar.

Every span the library builds is Z-graded, so its vectors have pairwise
disjoint supports and no general elimination is needed: `Subspace` takes
such vectors, `kernel_basis` such rows of at most two entries, and
`subspace_intersection` spans of dimension at most 1; other input raises
ValueError.  A span is its canonical reduced-echelon basis and carries no
window; only `kernel_basis` takes one, to name the indices its unknowns
range over.

Everything in this module is immutable after construction and every
function is pure, so concurrent use needs no coordination.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ParseError

Rational = Fraction
_ZERO, _ONE = Fraction(0), Fraction(1)  # shared: Fractions are immutable

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_WINDOW_RE = re.compile(r"^(-?\d+):(-?\d+)$")


def parse_rational(text: str) -> Rational:
    """Parse "p", "-p" or "p/q" into a Rational in lowest terms."""
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than int() converts
        raise ParseError("too many digits in rational literal") from None
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return Fraction(num) if den == 1 else Fraction(num, den)  # an int needs no gcd


def format_rational(value: Rational) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(value if type(value) is Fraction else Fraction(value))


def _read_only(self, name, *_):
    """`__setattr__` and `__delattr__` of the immutable value classes, whose
    `__init__` sets each slot once through the slot's own member descriptor,
    its `__set__` bound at module level (`_set_entries`): one C-level write.
    Plain classes keep CLI start-up short (README, "Start-up")."""
    raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")


class SparseVector:
    """Immutable finitely-supported vector: integer index -> nonzero Rational.

    Zero entries are never stored, so equality of entry sets is equality
    of vectors.
    """

    __slots__ = ("_entries",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, entries: Mapping[int, Rational | int] | None = None):
        cleaned: dict[int, Fraction] = {}
        if entries:
            for idx, val in entries.items():
                if type(val) is not Fraction:
                    val = Fraction(val)
                if val != 0:
                    cleaned[int(idx)] = val
        _set_entries(self, cleaned)

    @classmethod
    def _trusted(cls, entries: dict[int, Fraction]) -> SparseVector:
        """Wrap a dict whose keys are ints and whose values are already
        nonzero Fractions, without copying or re-normalising it.  The dict
        must not be mutated afterwards."""
        vec = cls.__new__(cls)
        _set_entries(vec, entries)
        return vec

    @classmethod
    def unit(cls, index: int) -> SparseVector:
        return cls._trusted({int(index): _ONE})

    def get(self, index: int) -> Fraction:
        return self._entries.get(index, _ZERO)

    __getitem__ = get

    def items(self) -> list[tuple[int, Fraction]]:
        """Entries as (index, value) pairs, index ascending."""
        return sorted(self._entries.items())

    def support(self) -> list[int]:
        return sorted(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    __iter__ = None  # not iterable: iter() would call __getitem__(0), (1), ... forever

    def __add__(self, other: SparseVector) -> SparseVector:
        out = dict(self._entries)
        for idx, val in other._entries.items():
            if idx in out:
                val += out[idx]
                if not val:
                    del out[idx]
                    continue
            out[idx] = val
        return SparseVector._trusted(out)

    def __sub__(self, other: SparseVector) -> SparseVector:
        return self + (-other)

    def __neg__(self) -> SparseVector:
        return SparseVector._trusted({i: -v for i, v in self._entries.items()})

    def scale(self, c: Rational | int) -> SparseVector:
        if not isinstance(c, Fraction):
            c = Fraction(c)
        if c == 0:
            return SparseVector()
        return SparseVector._trusted({i: c * v for i, v in self._entries.items()})

    __rmul__ = scale

    def leading_index(self) -> int:
        """Smallest index carrying a nonzero entry."""
        if not self._entries:
            raise ValueError("zero vector has no leading index")
        return min(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{i}: {format_rational(v)}" for i, v in self.items())
        return f"SparseVector({{{body}}})"


class Window:
    """Closed integer index range lo..hi (both inclusive)."""

    __slots__ = ("lo", "hi")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty window {lo}:{hi}")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Window(lo={self.lo!r}, hi={self.hi!r})"

    @classmethod
    def parse(cls, text: str) -> Window:
        """Parse "a:b" (inclusive; either bound may be negative)."""
        m = _WINDOW_RE.match(text.strip())
        if not m:
            raise ParseError(f"not a window: {text!r} (expected a:b)")
        try:
            lo, hi = int(m.group(1)), int(m.group(2))
        except ValueError:  # more digits than int() converts
            raise ParseError("too many digits in window text") from None
        if lo > hi:
            raise ParseError(f"empty window: {text!r}")
        return cls(lo, hi)

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, index: int) -> bool:
        return self.lo <= index <= self.hi

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def contains_vector(self, v: SparseVector) -> bool:
        return all(i in self for i in v.support())

    def __str__(self) -> str:
        return f"{self.lo}:{self.hi}"


class Subspace:
    """Span of vectors with pairwise disjoint supports, stored as its
    reduced-echelon basis: each vector monic at its lead (no vector can
    reduce another), leads ascending.  Equal spans compare equal."""

    __slots__ = ("basis",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, vectors: Iterable[SparseVector]):
        by_lead: dict[int, SparseVector] = {}
        seen: set[int] = set()
        for v in vectors:
            if not (entries := v._entries):  # zero vectors span nothing
                continue
            if not seen.isdisjoint(entries):
                raise ValueError(f"support {v.support()} overlaps another vector's")
            seen.update(entries)
            lead = min(entries)
            by_lead[lead] = v if (c := entries[lead]) == 1 else v.scale(1 / c)
        _set_basis(self, [by_lead[lead] for lead in sorted(by_lead)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim})"


_set_entries, _set_lo, _set_hi, _set_basis = (
    SparseVector._entries.__set__, Window.lo.__set__, Window.hi.__set__, Subspace.basis.__set__)


def kernel_basis(rows: list[SparseVector], window: Window) -> Subspace:
    """Canonical basis of {v supported in window : <row, v> = 0 for all rows}
    for rows with pairwise disjoint supports of at most two entries: a unit
    vector per window index outside every row, (r_q, -r_p) (monic) per row
    r_p e_p + r_q e_q, and nothing per one-entry row."""
    zero = SparseVector()  # marks an index that leads no kernel vector; Subspace drops it
    vec: dict[int, SparseVector] = {}  # index in a row -> kernel vector it leads, or zero
    for r in rows:
        if (entries := r._entries) and (min(entries) < window.lo or max(entries) > window.hi):
            raise ValueError(f"row support {r.support()} escapes window {window}")
        if len(entries) > 2 or not vec.keys().isdisjoint(entries):
            raise ValueError(f"row support {r.support()} has 3+ entries or meets another row")
        vec.update(dict.fromkeys(entries, zero))
        if len(entries) == 2:
            (p, rp), (q, rq) = sorted(entries.items())
            ratio = Fraction(-rp.numerator * rq.denominator, rp.denominator * rq.numerator)  # -rp/rq
            vec[p] = SparseVector._trusted({p: _ONE, q: ratio})
    return Subspace(vec[i] if i in vec else SparseVector.unit(i) for i in window.indices())


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two spans of dimension at most 1: canonical lines
    meet in the line when they are equal, else in zero."""
    if a.dim > 1 or b.dim > 1:
        raise ValueError(f"spans of dimension {a.dim} and {b.dim}: only lines are intersected")
    return a if a == b else Subspace([])
