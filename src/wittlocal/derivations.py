"""Derivations as finite tables of basis images.

A linear map on one of the algebras is stored as a table over a truncation
window: one image element per basis index.  On top of that this module
provides

  * Leibniz-law checking at a given depth,
  * extension of a candidate derivation from images of the two generators
    e_1, e_2 (wplus and thin are generated by them), decided by the one
    relation [e_2, e_3],
  * the solver for the full space of generator-image pairs that extend
    consistently,
  * closed-form recovery of the inner element behind a derivation (wplus
    derivations are inner with witness in wplus_ext; witt derivations are
    inner in witt),
  * the explicit two-parameter family of thin-algebra derivations, each
    held as its generator images D(e_1), D(e_2) (`ThinDerivationParams`)
    and read in closed form per index, tabulated or written as table JSON.

Tables are immutable; every function is pure.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from typing import Collection, Iterable, Mapping, NamedTuple

from .algebras import Algebra, Element, format_element
from .errors import (
    IndexOutOfDomain,
    MixedAlgebras,
    NotADerivation,
    ParseError,
    TruncationTooSmall,
)
from .linalg import (
    Rational,
    SparseVector,
    Subspace,
    Window,
    _read_only,
    kernel_basis,
    parse_rational,
)


class LinearMapTable:
    """A linear map given by the images of every basis index in a window.

    Images may be supported outside the window; callers decide whether that
    matters.  Missing images are a construction error, never an implicit
    zero.
    """

    __slots__ = ("algebra", "window", "images")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, algebra: Algebra, window: Window, images: Mapping[int, Element]):
        algebra.require_window(window)
        table: dict[int, Element] = {}
        for k in window.indices():
            if k not in images:
                raise TruncationTooSmall(f"no image for basis index {k} in window {window}")
            img = images[k]
            if img.algebra is not algebra:
                raise MixedAlgebras(f"image of e_{k} lives in {img.algebra}, table in {algebra}")
            table[k] = img
        if len(images) != len(table):  # then some image index lies outside the window
            k = next(k for k in images if k not in window)
            raise TruncationTooSmall(f"image index {k} outside declared window {window}")
        for set_slot, value in zip(_SET_TABLE_SLOTS, (algebra, window, table)):
            set_slot(self, value)

    def image(self, k: int) -> Element:
        if k not in self.window:
            raise TruncationTooSmall(f"basis index {k} outside truncation {self.window}")
        return self.images[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearMapTable):
            return NotImplemented
        return (
            self.algebra is other.algebra
            and self.window == other.window
            and self.images == other.images
        )

    def __repr__(self) -> str:
        return f"LinearMapTable({self.algebra}, {self.window}, {len(self.images)} images)"


class LeibnizResult(NamedTuple):
    passed: bool
    pairs_checked: int
    pair: tuple[int, int] | None = None
    residual: Element | None = None


def leibniz_check(table: LinearMapTable, degree_bound: int) -> LeibnizResult:
    """Check D([e_i,e_j]) = [D(e_i),e_j] + [e_i,D(e_j)] exactly.

    Pairs run over i <= j with i, j, i+j all inside the truncation and
    |i|, |j| <= degree_bound (the (j, i) case is the negation of (i, j)).
    The first violation is reported with its residual
    D([e_i,e_j]) - [D(e_i),e_j] - [e_i,D(e_j)].  An empty pair set means
    the truncation cannot support the requested depth.  Each shift is
    checked on its own, on its sequence scaled to integers.  A pair reads
    only D(e_i), D(e_j) and D(e_{i+j}), all with index in
    [-2 degree_bound, 2 degree_bound], so only those images are split and
    scaled.  Parts of the form c_s[k] = d (k - s), the shift-s part of
    ad(d e_s), pass every pair (`_parts_certified`; not on thin); otherwise
    the pairs of `_live_pairs` are evaluated one by one.
    """
    win, alg = table.window, table.algebra
    rows = leibniz_pairs(win, degree_bound)
    checked = sum(len(js) for _, js in rows)
    if not checked:
        raise TruncationTooSmall(
            f"no checkable pairs: truncation {win} cannot support depth {degree_bound}"
        )
    lo, hi = max(win.lo, -2 * degree_bound), min(win.hi, 2 * degree_bound)
    # c_s[k] is the e_{k+s} coefficient of D(e_k), read at every k in lo..hi;
    # a negative k indexes from the end of the list, past the slots of 0..hi
    parts = defaultdict(lambda: [0] * (max(hi + 1, 0) + max(-lo, 0)))
    for k in range(lo, hi + 1):
        for g, c in table.images[k].coeffs.items():
            parts[g - k][k] = c
    scaled = {s: _integer_parts(c) for s, c in parts.items()}
    if alg is not Algebra.THIN and _parts_certified(
            [(s, [c[k] for k in range(lo, hi + 1)]) for s, (_, c) in scaled.items()], lo):
        return LeibnizResult(True, checked)
    failure = _first_violation(alg, scaled, _live_pairs(alg, scaled, rows))
    return LeibnizResult(failure is None, checked, *(failure or ()))


def leibniz_pairs(window: Window, degree_bound: int) -> list[tuple[int, range]]:
    """The pairs `leibniz_check` runs over, as rows (i, range of j): O(window)
    work, so a caller can count them before any is checked."""
    lo, hi = max(window.lo, -degree_bound), min(window.hi, degree_bound)
    return [
        (i, range(max(i, window.lo - i), min(hi, window.hi - i) + 1)) for i in range(lo, hi + 1)
    ]


class InconsistentExtension(NamedTuple):
    """Generator images that do not extend to a derivation: the first
    bracket relation whose re-derivation disagrees, with the residual."""

    relation: tuple[int, int]
    residual: Element

    def describe(self) -> str:
        i, j = self.relation
        return f"inconsistent at ({i}, {j}): residual = {format_element(self.residual)}"


def require_generated(algebra: Algebra) -> None:
    """Raise unless generator extension handles the algebra (wplus, thin)."""
    if algebra not in (Algebra.WPLUS, Algebra.THIN):
        raise ValueError(f"{algebra} is not handled by generator extension")


def _live_pairs(algebra: Algebra, shifts: Iterable[int], rows: Iterable[tuple[int, range]]):
    """The pairs (i, j) of rows (i ascending, every j >= i), in order, whose
    residual can be nonzero at some shift s.  On witt and wplus that is every
    pair, streamed.  On thin K(a, b) != 0 needs a = 1 or b = 1, so i or j is
    in {1} and {1 - s}: those pairs are listed, and later rows are not read."""
    if algebra is not Algebra.THIN:
        return ((i, j) for i, js in rows for j in js)
    hot = sorted({1} | {1 - s for s in shifts})
    live = []
    for i, js in rows:
        if i > hot[-1]:
            break
        live.extend((i, j) for j in (js if i in hot else (m for m in hot if m in js)))
    return live


# A derivation splits into homogeneous parts e_k -> c_k e_{k+s}, one per
# shift s (a sequence c_1..c_N), and no bracket relation mixes two shifts,
# so extension, the Leibniz check and the solver run one shift at a time.
# Generator images D(e_1) = a e_{1+s}, D(e_2) = b e_{2+s} force the rest of
# the part through e_k = [e_1, e_{k-1}] / K(1, k-1), the relation at i = 1:
#
#     c_k = (a K(1+s, k-1) + c_{k-1} K(1, k-1+s)) / K(1, k-1),   k >= 3.


def _integer_parts(c: list[Rational]) -> tuple[int, list[int]]:
    """One common denominator of the sequence, and the sequence times it."""
    den = math.lcm(*(x.denominator for x in c))
    return den, [x.numerator * den // x.denominator for x in c]


def _first_violation(
    algebra: Algebra, parts: dict[int, tuple[int, list[int]]], pairs: Iterable
) -> tuple | None:
    """The first (i, j) of pairs with a nonzero residual at some shift s,
    K(i,j) c[i+j] - c[i] K(i+s,j) - c[j] K(i,j+s) for the shift-s part c, and
    that residual summed over the shifts; None if there is none.

    parts maps each shift s to its part c scaled to integers, as (den, den c).
    Pairs run outer and shifts inner, and only the failing residual is
    divided back."""
    K = algebra.constant
    scaled = list(parts.items())
    for i, j in pairs:
        kij = K(i, j)
        for s, (_, c) in scaled:
            if (kij * c[i + j] if kij else 0) != c[i] * K(i + s, j) + c[j] * K(i, j + s):
                terms = {
                    i + j + t: Fraction((kij * d[i + j] if kij else 0)
                                        - d[i] * K(i + t, j) - d[j] * K(i, j + t), den)
                    for t, (den, d) in scaled
                }
                return (i, j), Element(algebra, terms)
    return None


def _parts_certified(parts: list, first: int) -> bool:
    """True only if no pair fails under the witt K(i, j) = j - i: each part
    (s, c), c[t] at index first + t, is d (first + t - s) with d = c[1] - c[0]
    (0 for one entry), the shift-s part of ad(d e_s).  An affine part
    c(k) = a + d k has residual K(i,j) c(i+j) - c(i) K(i+s,j) - c(j) K(i,j+s)
    = -(j - i) c(s), zero on every pair exactly when c(s) = 0."""
    return all(c == list(range(d * (first - s), d * (first - s + len(c)), d)) if d else not any(c)
               for s, c in parts for d in [c[1] - c[0] if c[1:] else 0])


def _verified_inner(table: LinearMapTable, a: Element) -> Element:
    """a, once every image is [a, e_k]: for each a_m with K(m, k) != 0, D(e_k)
    must hold a_m K(m, k) at e_{k+m}, and no other term.  Otherwise
    NotADerivation names the first bad e_k."""
    K = a.algebra.constant
    terms = [(m, c.numerator, c.denominator) for m, c in a.coeffs.items()]
    for k in table.window.indices():
        image, expected = table.images[k].coeffs, 0
        for m, p, q in terms:
            if kmk := K(m, k):
                expected += 1
                v = image.get(m + k)
                # v == a_m K(m, k) with a_m = p/q, cross-multiplied: no Fraction is built
                if v.numerator * q != p * kmk * v.denominator:
                    raise NotADerivation(f"table is not inner: mismatch at e_{k}")
        if len(image) != expected:
            raise NotADerivation(f"table is not inner: mismatch at e_{k}")
    return a


def extend_from_generators(
    algebra: Algebra, img_e1: Element, img_e2: Element, truncation: int
) -> LinearMapTable | InconsistentExtension:
    """Extend candidate generator images to a full derivation table.

    Images of e_3..e_N are forced by the generator recursion, read in the
    closed forms that `derivation_space_basis` (wplus) and
    `ThinDerivationParams.image_terms` (thin) prove.  They extend exactly
    when every part passes [e_2, e_3], a cross relation always on thin and
    from N = 5 on wplus; otherwise (2, 3) is reported, a semantic outcome
    rather than an error, with its residual summed over the shifts.  Below
    N = 5 the wplus images are the recursion's first two steps.
    """
    require_generated(algebra)
    if truncation < 3:
        raise ValueError("truncation must be at least 3")
    if img_e1.algebra is not algebra or img_e2.algebra is not algebra:
        raise MixedAlgebras("generator images must live in the target algebra")
    if algebra is Algebra.THIN:
        if b := img_e2.coefficient(1):
            return InconsistentExtension((2, 3), Element(algebra, {4: -b}))
        return thin_derivation(ThinDerivationParams(img_e1, img_e2), truncation)
    parts = [(s, img_e1.coefficient(1 + s), img_e2.coefficient(2 + s))
             for s in {g - 1 for g in img_e1.support()} | {g - 2 for g in img_e2.support()}]
    if truncation >= 5:
        residual = {5 + s: (s * s + s + 6) * ((s - 1) * b - (s - 2) * a) / 6 for s, a, b in parts}
        if any(residual.values()):
            return InconsistentExtension((2, 3), Element(algebra, residual))
    columns = []
    for s, a, b in parts:  # c_3, c_4 by the recursion; a part that passed is d (k - s)
        c3, d = a * (1 - s) + b * (1 + s), b - a
        columns.append((s, [0, a, b, c3, (a * (2 - s) + c3 * (2 + s)) / 2] + [
            Fraction(d.numerator * (k - s), d.denominator) for k in range(5, truncation + 1)]))
    # s >= -1, and c[1] = a is 0 at s = -1, so every nonzero c[k] is at k + s >= 1
    images = {k: Element._trusted(algebra, SparseVector._trusted(
        {k + s: c[k] for s, c in columns if c[k]})) for k in range(1, truncation + 1)}
    return LinearMapTable(algebra, Window(1, truncation), images)


class DerivationSpace(NamedTuple):
    """Solved space of generator-image pairs that extend to derivations.

    `space` is a canonical subspace over the coordinates named in
    `coordinates`, whose (generator, index) pairs are `coords`; each basis
    vector converts back to generator images via `generator_images`.
    """

    algebra: Algebra
    support_bound: int
    coordinates: list[str]
    space: Subspace
    coords: list[tuple[int, int]]

    @property
    def dim(self) -> int:
        return self.space.dim

    def generator_images(self, vector: SparseVector) -> tuple[Element, Element]:
        """Convert a coordinate vector of `space` into (e_1 image, e_2 image)."""
        by_gen: dict[int, dict[int, Fraction]] = {1: {}, 2: {}}
        for pos, value in vector.items():
            gen, idx = self.coords[pos]
            by_gen[gen][idx] = value
        return Element(self.algebra, by_gen[1]), Element(self.algebra, by_gen[2])


def derivation_space_basis(algebra: Algebra, support_bound: int) -> DerivationSpace:
    """Solve for all generator-image pairs that extend to a derivation.

    alpha_i is the e_i coefficient of the e_1 image (i = 1..n) and beta_i
    the e_i coefficient of the e_2 image; beta runs to n for thin and to
    n+1 for wplus, because the e_2 image of an inner derivation with witness
    supported in 0..n-1 reaches grade n+1.  For thin, beta_1 is an unknown
    of the s = -1 block as well; it is not a reported coordinate.

    Shift s couples only alpha_{s+1} and beta_{s+2}, so each shift is an
    independent block of at most two unknowns.  The part with
    D(e_1) = a e_{1+s} and D(e_2) = b e_{2+s} has residual at the first
    cross relation [e_2, e_3]

        wplus: (s^2 + s + 6) ((s - 1) b - (s - 2) a) / 6,
        thin:  -b at s = -1, and 0 for every s >= 0.

    As s^2 + s + 6 > 0, a wplus part passes exactly when (a, b) is on the
    inner line d (1 - s, 2 - s); the generator recursion
    e_k = [e_1, e_{k-1}] / K(1, k-1) is the relation at i = 1 and
    K(1, k-1) = k - 2 != 0, so the part is then d (k - s) with d = b - a,
    the shift-s part of ad(d e_s), which passes every relation.
    On thin a part with s >= 0 has no live relation (K(x, y) != 0 needs x
    or y = 1), and the s = -1 part passes only as zero.  So [e_2, e_3]
    decides every block, as one row: on wplus the residual over its positive
    factor (s^2 + s + 6) / 6, 2 - s at alpha_{s+1} and s - 1 at beta_{s+2}
    (no alpha_0 at s = -1).  Thin's s = -1 row only keeps beta_1 out of the
    coordinates and no other thin block has a live row, so thin has none.
    The rows have disjoint supports of at most two entries, so `kernel_basis`
    over the coordinate positions reads the canonical basis off them in
    closed form, with no elimination.
    """
    require_generated(algebra)
    if support_bound < 1:
        raise ValueError("support bound must be at least 1")
    n = support_bound
    betas = range(2, n + 1) if algebra is Algebra.THIN else range(1, n + 2)
    coords = [(1, i) for i in range(1, n + 1)] + [(2, i) for i in betas]
    names = [f"{'alpha' if gen == 1 else 'beta'}_{i}" for gen, i in coords]
    position = {coord: p for p, coord in enumerate(coords)}
    rows = [] if algebra is Algebra.THIN else [  # block s, at alpha_{s+1} and beta_{s+2}
        SparseVector._trusted({position[g, g + s]: Fraction(r)
                               for g, r in ((1, 2 - s), (2, s - 1)) if r and g + s >= 1})
        for s in range(-1, n)
    ]
    space = kernel_basis(rows, Window(0, len(coords) - 1))
    return DerivationSpace(algebra, support_bound, names, space, coords)


def recover_inner_wplus(table: LinearMapTable) -> Element:
    """Recover the wplus_ext element a with [a, -] equal to a wplus derivation.

    a is read off in closed form from the e_1 and e_2 images: the e_1
    coefficient of D(e_1) gives the e_0 component, the e_3 coefficient of
    D(e_2) gives the e_1 component, and each higher e_i coefficient of
    D(e_1) contributes -1/(i-2) at e_{i-1}.  The result is then verified
    against the whole table, index by index; any disagreement (for example
    a nonzero e_2 coefficient in D(e_1), which no derivation admits) raises
    NotADerivation.
    """
    if table.algebra is not Algebra.WPLUS:
        raise MixedAlgebras(f"expected a wplus table, got {table.algebra}")
    d1, d2 = table.image(1), table.image(2)
    span = max(d1.support() + d2.support(), default=0)
    if table.window.lo != 1 or table.window.hi < 2 * span + 3:
        raise TruncationTooSmall(
            f"truncation {table.window} below required 1:{2 * span + 3}"
        )
    entries = {0: d1.coefficient(1), 1: d2.coefficient(3)}
    for i in d1.support():
        if i >= 3:
            entries[i - 1] = -d1.coefficient(i) / (i - 2)
    return _verified_inner(table, Element(Algebra.WPLUS_EXT, entries))


def recover_inner_witt(table: LinearMapTable) -> Element:
    """Recover the witt element a with [a, -] equal to a witt derivation.

    The e_0 image determines every component of a except the e_0 one
    ([a, e_0] has -j times the e_j coefficient of a at grade j), and the
    e_0 component is the e_1 coefficient of D(e_1).  Verified against the
    whole table.
    """
    if table.algebra is not Algebra.WITT:
        raise MixedAlgebras(f"expected a witt table, got {table.algebra}")
    win = table.window
    if win.lo != -win.hi or win.hi < 1:
        raise TruncationTooSmall(f"window {win} is not symmetric around 0 (or misses 0, 1)")
    d0 = table.image(0)
    if d0.coefficient(0) != 0:
        raise NotADerivation("D(e_0) has an e_0 component, which no [a, e_0] produces")
    entries = {j: -d0.coefficient(j) / j for j in d0.support()}
    entries[0] = table.image(1).coefficient(1)
    return _verified_inner(table, Element(Algebra.WITT, entries))


class ThinDerivationParams:
    """A thin-algebra derivation, as its two generator images: alpha = D(e_1)
    and beta = D(e_2), thin elements with no e_1 term in beta.

    Immutable, with each image stored index ascending: `image_terms` reads
    them in that order, as validated here."""

    __slots__ = ("alpha", "beta")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, alpha: Element, beta: Element):
        if alpha.algebra is not Algebra.THIN or beta.algebra is not Algebra.THIN:
            raise MixedAlgebras("the generator images of a thin derivation must be thin")
        if beta.coefficient(1):
            raise NotADerivation("the e_2 image of a thin derivation has no e_1 component")
        for set_image, image in ((_set_alpha, alpha), (_set_beta, beta)):
            set_image(self, Element._trusted(
                Algebra.THIN, SparseVector._trusted(dict(image.coeffs.items()))))

    from_generator_images = classmethod(type.__call__)  # the constructor, by its older name

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __repr__(self) -> str:
        return f"ThinDerivationParams(alpha={self.alpha!r}, beta={self.beta!r})"

    def image_terms(self, j: int) -> dict[int, Fraction]:
        """D(e_j) as a new dict of nonzero Fractions, index ascending, with
        alpha_i and beta_i the e_i coefficients of the images alpha and beta:

            D(e_1) = alpha = sum alpha_i e_i
            D(e_2) = beta = sum beta_i e_i
            D(e_j) = ((j-2) alpha_1 + beta_2) e_j + sum_{i>=3} beta_i e_{i+j-2}

        for j >= 3.  Always a derivation: on thin K(1, k-1) = 1 for k >= 3,
        so the generator recursion e_k = [e_1, e_{k-1}] / K(1, k-1) gives
        c_k = c_{k-1} + alpha_1 at s = 0 and c_k = c_{k-1} at s >= 1, by
        induction the images above;
        beta has no s = -1 part (no beta_1), and every other thin part
        extends by the [e_2, e_3] proof of `derivation_space_basis`.  The
        diagonal is dropped where it cancels; the tail terms are the beta_i
        themselves, at distinct indices above j.  The work follows the terms
        of the two images, not j.
        """
        if j <= 2:
            if j < 1:
                raise IndexOutOfDomain(f"index {j} not in the thin index domain")
            return dict((self.alpha if j == 1 else self.beta).coeffs._entries)
        beta = self.beta.coeffs._entries
        diagonal = beta.get(2, 0)
        if alpha1 := self.alpha.coeffs.get(1):
            diagonal += (j - 2) * alpha1
        terms = {j: diagonal} if diagonal else {}
        for i, c in beta.items():
            if i >= 3:
                terms[i + j - 2] = c
        return terms


_SET_TABLE_SLOTS = tuple(getattr(LinearMapTable, name).__set__ for name in LinearMapTable.__slots__)
_set_alpha, _set_beta = ThinDerivationParams.alpha.__set__, ThinDerivationParams.beta.__set__


def thin_derivation(params: ThinDerivationParams, truncation: int) -> LinearMapTable:
    """The thin derivation with the given parameters, tabulated on 1..N
    through `ThinDerivationParams.image_terms`, which proves it a derivation.
    Both generator images are thin elements, so no image is re-checked."""
    if truncation < 3:
        raise ValueError("truncation must be at least 3")
    images = {j: Element._trusted(Algebra.THIN, SparseVector._trusted(params.image_terms(j)))
              for j in range(1, truncation + 1)}
    return LinearMapTable(Algebra.THIN, Window(1, truncation), images)


# -- JSON wire format for map tables -----------------------------------------

def table_to_json(table: LinearMapTable) -> dict:
    """Schema: {"algebra": name, "truncation": {"min": lo, "max": hi},
    "images": {"k": [[index, "p/q"], ...], ...}} with every index in the
    truncation present explicitly."""
    return {
        "algebra": table.algebra.value,
        "truncation": {"min": table.window.lo, "max": table.window.hi},
        "images": {  # keyed in window order; each value is a Fraction, which prints as p/q
            str(k): [[i, str(c)] for i, c in image.coeffs.items()]
            for k, image in table.images.items()
        },
    }


def table_json_text(algebra: Algebra, window: Window,
                    images: Iterable[Collection[tuple[int, Fraction]]]) -> str:
    """`json.dumps(table_to_json(table), indent=2)` of the table on window
    whose images give each index's (index, Fraction) terms in window order,
    index ascending; ValueError for more or fewer images.  One f-string per
    term: p/q always, then `/1"` goes at the end, as no other text has a "/"."""
    out = [f'{{\n  "algebra": "{algebra.value}",\n  "truncation": {{\n    "min": {window.lo},'
           f'\n    "max": {window.hi}\n  }},\n  "images": {{']
    sep = "\n    "
    for k, terms in zip(window.indices(), images, strict=True):
        if terms:
            body = ",".join([f'\n      [\n        {i},\n        "{c.numerator}/{c.denominator}"'
                             '\n      ]' for i, c in terms])
            out.append(f'{sep}"{k}": [{body}\n    ]')
        else:
            out.append(f'{sep}"{k}": []')
        sep = ",\n    "
    out.append("\n  }\n}")
    return "".join(out).replace('/1"', '"')


def _is_integer(value: object) -> bool:
    """A JSON integer: true and false are bools, which subclass int."""
    return isinstance(value, int) and not isinstance(value, bool)


def table_from_json(data: object) -> LinearMapTable:
    if not isinstance(data, dict):
        raise ParseError("map JSON must be an object")
    try:
        algebra = Algebra.from_name(data["algebra"])
        trunc = data["truncation"]
        bounds = trunc["min"], trunc["max"]
        raw_images = data["images"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed map JSON: {exc}") from exc
    if not all(_is_integer(b) for b in bounds):
        raise ParseError(f"truncation bounds {list(bounds)} are not integers")
    try:
        window = Window(*bounds)
    except ValueError as exc:
        raise ParseError(f"malformed map JSON: {exc}") from exc
    if not isinstance(raw_images, dict):
        raise ParseError("map JSON images must be an object")
    images: dict[int, Element] = {}
    for key, terms in raw_images.items():
        try:
            k = int(key)
        except ValueError:
            raise ParseError(f"non-integer image key {key!r}") from None
        if str(k) != key:  # "01" or "1_0" would alias or misread another key
            raise ParseError(f"non-canonical image key {key!r} (expected {str(k)!r})")
        if not isinstance(terms, list):
            raise ParseError(f"image of e_{k} must be a list of [index, rational] pairs")
        entries: dict[int, Fraction] = {}
        for term in terms:
            if not isinstance(term, (list, tuple)) or len(term) != 2:
                raise ParseError(f"image term {term!r} is not an [index, rational] pair")
            idx, coeff = term
            if not _is_integer(idx):
                raise ParseError(f"image term index {idx!r} is not an integer")
            c = parse_rational(str(coeff))
            entries[idx] = entries[idx] + c if idx in entries else c
        if not all(entries.values()):
            entries = {i: c for i, c in entries.items() if c}
        try:
            images[k] = Element(algebra, SparseVector._trusted(entries))
        except IndexOutOfDomain as exc:
            raise ParseError(str(exc)) from exc
    missing = len(window) - sum(1 for k in images if k in window)
    if missing:
        # at most len(images) + 5 indices are scanned, whatever the bounds
        first = list(itertools.islice((k for k in window.indices() if k not in images), 5))
        raise ParseError(
            f"{missing} of {len(window)} image keys missing inside the truncation {window}, "
            f"first {first}"
        )
    extra = [k for k in images if k not in window]
    if extra:
        raise ParseError(f"image keys outside the truncation: {extra}")
    return LinearMapTable(algebra, window, images)
