"""2-local derivation machinery.

A 2-local derivation is a (possibly nonlinear) map that agrees with some
genuine derivation on every pair of elements, the derivation being allowed
to depend on the pair.  This module provides

  * the thin-algebra map `thin_delta` (strip the e_1 component when one is
    present, zero otherwise), a 2-local derivation that is not additive,
  * per-pair witnesses for it, each a thin derivation given by its two
    generator images (`ThinDerivationParams`), and verification of any
    witness certificate against any candidate map, which reads the
    witness's closed form at the members' own indices: no table is built,
  * centralizers in closed form from the grading (`centralizer`): the
    whole window, thin's indices >= 2, span(t) or zero,
  * the rigidity computation for witt and wplus: the witness for a pair
    (e_k, x) is pinned to the centralizer of e_k once the map kills e_k,
    so the possible values at x form a forced subspace; intersecting the
    forced subspaces of two well-chosen probes leaves only zero.  In witt
    and wplus_ext (the witness algebra of wplus) that centralizer is
    span(e_k), so the forced subspace is span([e_k, x]), written monic
    straight from x's terms, K(k, j) x_j at k + j: no bracket.

The rigidity operations never quantify over all 2-local maps; they verify
the finite forced-space instances that the general statement reduces to.
Witnesses on wplus are drawn from wplus_ext.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .algebras import Algebra, Element
from .derivations import ThinDerivationParams
from .errors import IndexOutOfDomain, MixedAlgebras, WindowTooSmall
from .linalg import SparseVector, Subspace, Window, subspace_intersection

DeltaMap = Callable[[Element], Element]


def thin_delta(x: Element) -> Element:
    """The non-additive 2-local derivation on thin: zero when x has no e_1
    component, otherwise x with the e_1 component removed."""
    if x.algebra is not Algebra.THIN:
        raise MixedAlgebras(f"thin_delta on a {x.algebra} element")
    if 1 not in (terms := x.coeffs._entries):  # a membership test: no sort
        return Element.zero(Algebra.THIN)
    return Element._trusted(Algebra.THIN, SparseVector._trusted(
        {k: c for k, c in terms.items() if k != 1}))


class WitnessCertificate(NamedTuple):
    """A thin derivation, as its generator images, claimed to agree with a
    2-local map at both members of a pair.  The images give a derivation by
    `ThinDerivationParams.image_terms`; the agreement is never trusted:
    `verify_pair` recomputes it at both members."""

    x: Element
    y: Element
    case: str
    witness: ThinDerivationParams


# immutable, so every certificate of the case shares them
_ZERO = Element.zero(Algebra.THIN)
_ZERO_PARAMS = ThinDerivationParams(_ZERO, _ZERO)
_TAIL_IDENTITY_PARAMS = ThinDerivationParams(_ZERO, Element.basis(Algebra.THIN, 2))


def thin_witness(x: Element, y: Element) -> WitnessCertificate:
    """Witness derivation for a thin pair under `thin_delta`, as its
    generator images: no other image is tabulated.

    Case split on which of the two e_1 coefficients vanish: both (zero
    derivation), exactly one (send e_1 to the tail of whichever member has
    an e_1 component, rescaled by that component; kill everything else),
    or neither (the identity above e_1).
    """
    if x.algebra is not Algebra.THIN or y.algebra is not Algebra.THIN:
        raise MixedAlgebras("thin_witness needs two thin elements")
    x1, y1 = x.coefficient(1), y.coefficient(1)
    if x1 == 0 and y1 == 0:
        case, params = "zero", _ZERO_PARAMS
    elif x1 == 0 or y1 == 0:
        case = "e1-scaled"
        member, d1 = (x, x1) if y1 == 0 else (y, y1)
        alpha = Element._trusted(Algebra.THIN, SparseVector._trusted(
            {k: c / d1 for k, c in member.coeffs.items() if k >= 2}))
        params = ThinDerivationParams(alpha, _ZERO)
    else:
        case, params = "tail-identity", _TAIL_IDENTITY_PARAMS
    return WitnessCertificate(x, y, case, params)


class PairVerification(NamedTuple):
    passed: bool
    residual_x: Element
    residual_y: Element


def verify_pair(delta: DeltaMap, cert: WitnessCertificate) -> PairVerification:
    """Check that the certificate's witness reproduces delta at both pair
    members, exactly.  Each residual delta(m) - witness(m) is built in one
    pass: c times D(e_k), read off the witness's closed form
    (`ThinDerivationParams.image_terms`), is taken off delta(m) for each term
    c e_k, as unreduced integer (numerator, denominator) sums; a Fraction is
    built only for a nonzero entry, so a passing pair builds none.  Only the
    members' own indices are read, so the work follows their term counts,
    not their top index."""
    params, residuals = cert.witness, []
    for m in (cert.x, cert.y):
        d = delta(m)
        if not m.algebra is d.algebra is Algebra.THIN:
            raise MixedAlgebras(f"{m.algebra} member, {d.algebra} image, thin witness")
        sums = {i: (v.numerator, v.denominator) for i, v in d.coeffs._entries.items()}
        for k, c in m.coeffs._entries.items():
            p, q = c.numerator, c.denominator
            for i, v in params.image_terms(k).items():
                a, b = sums.get(i, (0, 1))
                r = q * v.denominator
                sums[i] = a * r - b * p * v.numerator, b * r
        out = {i: Fraction(n, r) for i, (n, r) in sorted(sums.items()) if n}
        residuals.append(Element._trusted(Algebra.THIN, SparseVector._trusted(out)))
    return PairVerification(all(r.is_zero() for r in residuals), *residuals)


class AdditivityResult(NamedTuple):
    violated: bool
    residual: Element
    delta_of_sum: Element
    sum_of_deltas: Element


def additivity_violation(delta: DeltaMap, x: Element, y: Element) -> AdditivityResult:
    """Residual delta(x+y) - delta(x) - delta(y); nonzero residual means
    delta is not additive (hence not a derivation)."""
    delta_of_sum, sum_of_deltas = delta(x + y), delta(x) + delta(y)
    residual = delta_of_sum - sum_of_deltas
    return AdditivityResult(not residual.is_zero(), residual, delta_of_sum, sum_of_deltas)


def centralizer(algebra: Algebra, t: Element, window: Window) -> Subspace:
    """All elements a supported in the window with [a, t] = 0, as a
    canonical subspace over the window's coordinates, read off the grading.

    t = 0 is centralized by the whole window.  In witt, wplus and wplus_ext
    K(g, d) = d - g, so for nonzero a and t with top indices G and D the top
    grade G + D of [a, t] is a_G t_D (D - G) alone: a centralizing a has top
    index D.  Then a - (a_D / t_D) t centralizes t with a lower top index, so
    it is zero, and the centralizer is span(t) when supp(t) lies in the
    window, else zero.  In thin,
    [a, t] = a_1 sum_{k>=2} t_k e_{k+1} - t_1 sum_{k>=2} a_k e_{k+1}: with no
    e_1 term in t only a_1 must vanish, so every window index >= 2 is free;
    with one, a_k = a_1 t_k / t_1 for every k >= 2 and a is a multiple of t
    as before.
    """
    algebra.require_window(window)
    t = t.in_algebra(algebra)
    if t.is_zero():
        free = window.indices()
    elif algebra is Algebra.THIN and not t.coefficient(1):
        free = range(max(2, window.lo), window.hi + 1)
    else:
        return Subspace([t.coeffs] if window.contains_vector(t.coeffs) else [])
    return Subspace([SparseVector.unit(g) for g in free])


def _witness_algebra(algebra: Algebra) -> Algebra:
    return Algebra.WPLUS_EXT if algebra is Algebra.WPLUS else algebra


def forced_image_space(
    algebra: Algebra, probe: int, x: Element, window: Window
) -> Subspace:
    """Every value a 2-local map can take at x once it kills e_probe.

    A witness for the pair (e_probe, x) must centralize e_probe, so the
    candidate values are spanned by [e_g, x] for the unit vectors e_g of that
    centralizer on the window (witnesses for wplus live in wplus_ext).  Each
    [e_g, x] is written from x's terms, K(g, k) x_k at g + k wherever
    K(g, k) != 0, and divided by its lowest entry K(g, k0) x_k0 as one
    Fraction of integers per entry, so it reaches `Subspace` monic.
    """
    walg = _witness_algebra(algebra)
    if not algebra.contains_index(probe):
        raise IndexOutOfDomain(f"probe index {probe} outside the {algebra} domain")
    cent = centralizer(walg, Element.basis(walg, probe), window).basis
    K, terms = walg.constant, x.in_algebra(walg).coeffs.items()
    lines = []
    for (g,) in (v._entries for v in cent):  # monic unit vectors e_g
        row = [(g + k, a * c.numerator, c.denominator) for k, c in terms if (a := K(g, k))]
        if row:
            _, p0, q0 = row[0]
            lines.append(SparseVector._trusted({i: Fraction(p * q0, q * p0) for i, p, q in row}))
    return Subspace(lines)


class RigidityTrace(NamedTuple):
    """Record of one rigidity run: the two probe indices, the forced value
    space per probe, and their intersection.  Zero intersection certifies
    that a 2-local map killing both probes also kills the target."""

    probes: list[int]
    forced: list[Subspace]
    intersection: Subspace

    @property
    def rigid(self) -> bool:
        return self.intersection.dim == 0


def rigidity_check(algebra: Algebra, x: Element, window: Window) -> RigidityTrace:
    """Rigidity for an arbitrary nonzero target.

    Probes are the lowest generator index (0 for witt, 1 for wplus) plus
    one index beyond twice the target's support bound, so the two forced
    spaces live in disjoint grade ranges and can only meet in zero.
    """
    if algebra not in (Algebra.WITT, Algebra.WPLUS):
        raise ValueError(f"rigidity is implemented for witt and wplus, not {algebra}")
    if x.algebra is not algebra:
        raise MixedAlgebras(f"target lives in {x.algebra}, expected {algebra}")
    if x.is_zero():
        raise ValueError("rigidity target must be nonzero")
    far = 2 * x.support_bound() + 1
    probes = [0, far] if algebra is Algebra.WITT else [1, far]
    for p in probes:
        if p not in window:
            raise WindowTooSmall(f"witness window {window} misses probe index {p}")
    _witness_algebra(algebra).require_window(window)  # as `forced_image_space` does, up front
    spaces = [forced_image_space(algebra, p, x, window) for p in probes]
    return RigidityTrace(probes, spaces, subspace_intersection(*spaces))
