"""The four Lie algebras, their elements, and the bracket.

Each algebra is a basis {e_i} over an integer index domain, graded and
monomial: [e_i, e_j] = K(i, j) e_{i+j} with an integer structure constant K
(`Algebra.constant`):

  witt        all integers,       K(i, j) = j - i
  wplus       integers >= 1,      same K
  wplus_ext   integers >= 0,      same K (wplus with e_0 adjoined; the
                                  home of inner-derivation witnesses for wplus)
  thin        integers >= 1,      K(1, n) = 1 and K(n, 1) = -1 for n >= 2,
                                  K = 0 on every other pair

Elements are finitely-supported rational combinations of basis vectors.
wplus embeds in wplus_ext index-wise; the embedding is explicit via
`Element.in_algebra`, never implicit.  All values are immutable and all
operations pure.
"""

from __future__ import annotations

import enum
import itertools
import re
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .errors import IndexOutOfDomain, MixedAlgebras, ParseError
from .linalg import Rational, SparseVector, Window, _read_only

# structure constant: (i, j) -> K(i, j), with [e_i, e_j] = K(i, j) e_{i+j}
Constant = Callable[[int, int], int]


def _witt_constant(i: int, j: int) -> int:
    return j - i


def _thin_constant(i: int, j: int) -> int:
    if i == 1:
        return 1 if j >= 2 else 0
    return -1 if j == 1 and i >= 2 else 0


class Algebra(enum.Enum):
    """Identifies an algebra: index domain plus structure constant."""

    WITT = "witt"
    WPLUS = "wplus"
    WPLUS_EXT = "wplus_ext"
    THIN = "thin"

    def contains_index(self, i: int) -> bool:
        lo = _MIN_INDEX[self]
        return lo is None or i >= lo

    def require_window(self, window: Window) -> None:
        """Raise IndexOutOfDomain unless every index of the window is legal."""
        if not self.contains_index(window.lo):
            raise IndexOutOfDomain(f"window {window} leaves the {self} index domain")

    @property
    def constant(self) -> Constant:
        """K(i, j) of [e_i, e_j] = K(i, j) e_{i+j}, the one definition of the
        bracket, as a plain integer function defined on every integer pair
        (the per-shift kernels read K off the index domain, e.g. K(0, k))."""
        return _thin_constant if self is Algebra.THIN else _witt_constant

    @classmethod
    def from_name(cls, name: str) -> Algebra:
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(a.value for a in cls)
            raise ParseError(f"unknown algebra {name!r} (expected one of: {valid})") from None

    def __str__(self) -> str:
        return self.value


_MIN_INDEX = {Algebra.WITT: None, Algebra.WPLUS: 1, Algebra.WPLUS_EXT: 0, Algebra.THIN: 1}


class Element:
    """Finitely-supported member of one algebra."""

    __slots__ = ("algebra", "coeffs")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, algebra: Algebra, coeffs: SparseVector | Mapping[int, Rational | int]):
        if not isinstance(coeffs, SparseVector):
            coeffs = SparseVector(coeffs)
        # the domains are bounded below only, so the smallest index decides
        if coeffs and not algebra.contains_index(i := coeffs.leading_index()):
            raise IndexOutOfDomain(f"index {i} not in the {algebra} index domain")
        _set_algebra(self, algebra)
        _set_coeffs(self, coeffs)

    @classmethod
    def _trusted(cls, algebra: Algebra, coeffs: SparseVector) -> Element:
        """Wrap a vector already known to lie in the algebra's index domain."""
        x = cls.__new__(cls)
        _set_algebra(x, algebra)
        _set_coeffs(x, coeffs)
        return x

    @classmethod
    def zero(cls, algebra: Algebra) -> Element:
        return cls._trusted(algebra, SparseVector())

    @classmethod
    def basis(cls, algebra: Algebra, index: int) -> Element:
        return cls(algebra, SparseVector.unit(index))

    def coefficient(self, index: int) -> Fraction:
        return self.coeffs.get(index)

    def support(self) -> list[int]:
        return self.coeffs.support()

    def support_bound(self) -> int:
        """max |i| over the support; 0 for the zero element."""
        keys = self.coeffs._entries  # only the two ends: no sort
        return max(-min(keys), max(keys)) if keys else 0

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def in_algebra(self, target: Algebra) -> Element:
        """The same combination read in another algebra's index domain."""
        if target is self.algebra:
            return self
        return Element(target, self.coeffs)

    def _require_same(self, other: Element) -> None:
        if self.algebra is not other.algebra:
            raise MixedAlgebras(f"{self.algebra} element mixed with {other.algebra} element")

    def __add__(self, other: Element) -> Element:
        self._require_same(other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: Element) -> Element:
        self._require_same(other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> Element:
        return Element(self.algebra, -self.coeffs)

    def scale(self, c: Rational | int) -> Element:
        return Element(self.algebra, self.coeffs.scale(c))

    __rmul__ = scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.algebra, self.coeffs))

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"Element({self.algebra}, {format_element(self)!r})"


def bracket(x: Element, y: Element) -> Element:
    """Lie bracket [x, y], the bilinear extension of [e_i, e_j] = K(i, j) e_{i+j}."""
    if x.algebra is not y.algebra:
        raise MixedAlgebras(f"bracket of {x.algebra} element with {y.algebra} element")
    K = x.algebra.constant
    out: dict[int, Fraction] = {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            if c := K(i, j):
                k, v = i + j, ci * cj * c
                out[k] = out[k] + v if k in out else v
    return Element(x.algebra, out)


class JacobiResult(NamedTuple):
    passed: bool
    counterexample: tuple[int, int, int] | None = None
    residual: SparseVector | None = None


def jacobi_check(
    algebra: Algebra, window: Window, constant: Constant | None = None
) -> JacobiResult:
    """Check [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] = 0 for every
    ordered basis triple in the window, which must lie inside the algebra's
    index domain.  Tests inject another `constant` K to exercise the failure
    path; the first violating triple in lexicographic order is reported.

    A triple's residual is one integer times e_{i+j+k}:
    K(j,k)K(i,j+k) + K(k,i)K(j,k+i) + K(i,j)K(k,i+j), read off one table of
    K(a, m) for a in the window and m from min(lo, 2lo) to max(hi, 2hi).

    The table is certified, with no scan, when it has one of two closed
    forms, each a Lie bracket on every triple it covers:

      witt form  K(a, m) = d (m - a) at every entry (witt, wplus, wplus_ext):
                 the residual is d^2 times
                 (k-j)(j+k-i) + (i-k)(k+i-j) + (j-i)(i+j-k) = 0.
      thin form  the window starts at 1, K(1, 1) = 0, K(a, 1) = -K(1, a) for
                 a >= 2 and K(a, m) = 0 for a, m >= 2 (K(1, m >= 2) is free,
                 thin's is 1).  As j + k >= 2, a term K(j,k) K(i,j+k) is
                 nonzero only if i = 1 and one of j, k is 1, so only the
                 rotations of (1, 1, n) can fail, and the residual is cyclic
                 in (i, j, k): K(1,n)K(1,n+1) + K(n,1)K(1,n+1) + K(1,1)K(n,2) = 0.

    Any other table goes to a scan of every ordered triple.
    """
    algebra.require_window(window)
    K = constant or algebra.constant
    off = min(window.lo, 2 * window.lo)
    ms = range(off, max(window.hi, 2 * window.hi) + 1)
    table = [[K(a, m) for m in ms] for a in window.indices()]
    if _certified(table, window, off):
        return JacobiResult(True)
    return _scan(table, window, off)


def _certified(table, window: Window, off: int) -> bool:
    """The certificate of `jacobi_check`: the table has the witt or the thin form."""
    head, n = table[0], len(table[0])
    d = head[1] - head[0] if n > 1 else 0
    if all(row == (list(range(d * (off - a), d * (off - a + n), d)) if d else [0] * n)
           for a, row in enumerate(table, window.lo)):
        return True
    zeros = [0] * (n - 1)
    return window.lo == 1 and head[0] == 0 and all(
        row == [-head[t]] + zeros for t, row in enumerate(table[1:], 1))


def _scan(table, window: Window, off: int) -> JacobiResult:
    """The ordered triple scan of `jacobi_check`: the first nonzero residual."""
    lo = window.lo
    for i, j, k in itertools.product(window.indices(), repeat=3):
        ki, kj, kk = table[i - lo], table[j - lo], table[k - lo]
        r = (kj[k - off] * ki[j + k - off] + kk[i - off] * kj[k + i - off]
             + ki[j - off] * kk[i + j - off])
        if r:
            return JacobiResult(False, (i, j, k), SparseVector({i + j + k: r}))
    return JacobiResult(True)


_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?e_(-?\d+)")
_UNIT = {"-": Fraction(-1), "+": Fraction(1), "": Fraction(1)}
_set_algebra, _set_coeffs = Element.algebra.__set__, Element.coeffs.__set__  # see `_read_only`


def parse_element(text: str, algebra: Algebra) -> Element:
    """Parse the element grammar: a signed sum of `c*e_k` terms ("0" for zero).

    Whitespace (what `str.split` splits on, which is re's `\\s`) is ignored;
    a missing coefficient means 1; indices must lie in the algebra's domain.
    One scan reads the terms in order: a gap, or a later term with no sign,
    is bad text at the end of the last good term.  Each coefficient is built
    once, signed, as a Fraction; only a repeated index adds.
    """
    compact = "".join(text.split())
    if compact in ("0", "+0", "-0"):
        return Element.zero(algebra)
    if not compact:
        raise ParseError("empty element text")
    lo = _MIN_INDEX[algebra]
    out: dict[int, Fraction] = {}
    pos = 0
    for m in _TERM_RE.finditer(compact):
        sign, magnitude, index = m.groups()
        if m.start() != pos or (pos and not sign):
            break
        num, _, den = (magnitude or "1").partition("/")
        try:
            p, q, k = int(num), int(den or 1), int(index)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"too many digits in element text at position {pos}") from None
        if q == 0:
            raise ParseError(f"zero denominator in {text!r}")
        if magnitude:
            p = -p if sign == "-" else p
            coeff = Fraction(p) if q == 1 else Fraction(p, q)
        else:
            coeff = _UNIT[sign]
        if lo is not None and k < lo:
            raise ParseError(f"index {k} not allowed in {algebra}: {text!r}")
        out[k] = out[k] + coeff if k in out else coeff
        pos = m.end()
    if pos != len(compact):
        raise ParseError(f"bad element text {text!r} at position {pos}")
    if not all(out.values()):
        out = {k: c for k, c in out.items() if c}
    return Element._trusted(algebra, SparseVector._trusted(out))


def format_element(x: Element) -> str:
    """Render in the element grammar, terms by ascending index ("0" if zero)."""
    parts: list[str] = []
    for k, c in x.coeffs.items():
        p, q = c.numerator, c.denominator
        sign = "-" if p < 0 else "+"
        p = abs(p)
        if q != 1:
            parts.append(f"{sign} {p}/{q}*e_{k}")
        elif p != 1:
            parts.append(f"{sign} {p}*e_{k}")
        else:
            parts.append(f"{sign} e_{k}")
    if not parts:
        return "0"
    text = " ".join(parts)  # "+ c*e_k - ...": the first sign loses its space
    return text[2:] if text[0] == "+" else f"-{text[2:]}"
