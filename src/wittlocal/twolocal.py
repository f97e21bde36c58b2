"""2-local derivation machinery.

A 2-local derivation is a (possibly nonlinear) map that agrees with some
genuine derivation on every pair of elements, the derivation being allowed
to depend on the pair.  This module provides

  * the thin-algebra map `thin_delta` (strip the e_1 component when one is
    present, zero otherwise), a 2-local derivation that is not additive,
  * per-pair witness construction for it, and verification of any
    witness certificate against any candidate map,
  * the rigidity computation for witt and wplus: the witness for a pair
    (e_k, x) is pinned to the centralizer of e_k once the map kills e_k,
    so the possible values at x form a forced subspace; intersecting the
    forced subspaces of two well-chosen probes leaves only zero.  In witt
    and wplus_ext (the witness algebra of wplus) [e_g, e_k] = (k - g) e_{g+k},
    and K(g, k) = k - g vanishes only at g = k, so that centralizer is
    span(e_k) and the forced subspace is span([e_k, x]): one bracket, with
    no linear system to solve.

The rigidity operations never quantify over all 2-local maps; they verify
the finite forced-space instances that the general statement reduces to.
Witnesses on wplus are drawn from wplus_ext.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebras import Algebra, Element, bracket
from .derivations import LinearMapTable, ThinDerivationParams, thin_derivation
from .errors import IndexOutOfDomain, MixedAlgebras, WindowTooSmall
from .linalg import SparseVector, Subspace, Window, kernel_basis, subspace_intersection

DeltaMap = Callable[[Element], Element]


def thin_delta(x: Element) -> Element:
    """The non-additive 2-local derivation on thin: zero when x has no e_1
    component, otherwise x with the e_1 component removed."""
    if x.algebra is not Algebra.THIN:
        raise MixedAlgebras(f"thin_delta on a {x.algebra} element")
    terms = x.coeffs.items()  # index ascending, and thin indices start at 1
    if not terms or terms[0][0] != 1:
        return Element.zero(Algebra.THIN)
    return Element(Algebra.THIN, SparseVector._trusted(dict(terms[1:])))


@dataclass(frozen=True)
class WitnessCertificate:
    """A derivation table claimed to agree with a 2-local map at both
    members of a pair.  Never trusted: `verify_pair` recomputes both
    agreements."""

    x: Element
    y: Element
    case: str
    witness: LinearMapTable


def thin_witness(x: Element, y: Element) -> WitnessCertificate:
    """Witness derivation for a thin pair under `thin_delta`.

    Case split on which of the two e_1 coefficients vanish: both (zero
    derivation), exactly one (send e_1 to the tail of whichever member has
    an e_1 component, rescaled by that component; kill everything else),
    or neither (the identity above e_1).
    """
    if x.algebra is not Algebra.THIN or y.algebra is not Algebra.THIN:
        raise MixedAlgebras("thin_witness needs two thin elements")
    x1, y1 = x.coefficient(1), y.coefficient(1)
    depth = max(3, x.support_bound(), y.support_bound())
    if x1 == 0 and y1 == 0:
        case, params = "zero", ThinDerivationParams()
    elif x1 == 0 or y1 == 0:
        case = "e1-scaled"
        driver, d1 = (x, x1) if y1 == 0 else (y, y1)
        params = ThinDerivationParams(
            alpha={k: c / d1 for k, c in driver.coeffs.items() if k >= 2}
        )
    else:
        case, params = "tail-identity", ThinDerivationParams(beta={2: 1})
    return WitnessCertificate(x, y, case, thin_derivation(params, depth))


@dataclass(frozen=True)
class PairVerification:
    passed: bool
    residual_x: Element
    residual_y: Element


def verify_pair(delta: DeltaMap, cert: WitnessCertificate) -> PairVerification:
    """Check that the certificate's witness reproduces delta at both pair
    members, exactly.  Residuals are delta(member) - witness(member)."""
    rx = delta(cert.x) - cert.witness.apply(cert.x)
    ry = delta(cert.y) - cert.witness.apply(cert.y)
    return PairVerification(rx.is_zero() and ry.is_zero(), rx, ry)


@dataclass(frozen=True)
class AdditivityResult:
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
    canonical subspace over the window's coordinates."""
    algebra.require_window(window)
    t = t.in_algebra(algebra)
    K = algebra.constant
    rows_by_grade: dict[int, dict[int, Fraction]] = {}
    for g in window.indices():
        for j, cj in t.coeffs.items():
            if c := K(g, j):
                row = rows_by_grade.setdefault(g + j, {})
                row[g] = row.get(g, Fraction(0)) + cj * c
    rows = [SparseVector(r) for _, r in sorted(rows_by_grade.items())]
    return kernel_basis(rows, window)


def _witness_algebra(algebra: Algebra) -> Algebra:
    return Algebra.WPLUS_EXT if algebra is Algebra.WPLUS else algebra


def forced_image_space(
    algebra: Algebra, probe: int, x: Element, window: Window
) -> Subspace:
    """Every value a 2-local map can take at x once it kills e_probe.

    A witness for the pair (e_probe, x) must centralize e_probe, so the
    candidate values are spanned by [a, x] for a in that centralizer on the
    window (witnesses for wplus live in wplus_ext).

    In witt and wplus_ext, a = sum a_g e_g has [a, e_probe] =
    sum a_g (probe - g) e_{g+probe}, one grade per g, so a centralizes
    e_probe exactly when a_g = 0 for every g != probe: K(g, probe) =
    probe - g is zero only at g = probe.  The centralizer on the window is
    span(e_probe), or zero when the probe lies outside the window, and the
    span is that of [e_probe, x] alone.  A thin centralizer grows with the
    window ([e_i, e_j] = 0 for i, j >= 2), so thin solves for it.
    """
    walg = _witness_algebra(algebra)
    if not algebra.contains_index(probe):
        raise IndexOutOfDomain(f"probe index {probe} outside the {algebra} domain")
    if walg is Algebra.THIN:
        cent = centralizer(walg, Element.basis(walg, probe), window).basis
    else:
        walg.require_window(window)
        cent = [SparseVector.unit(probe)] if probe in window else []
    lifted = x.in_algebra(walg)
    return Subspace([bracket(Element(walg, v), lifted).coeffs for v in cent])


@dataclass(frozen=True)
class RigidityTrace:
    """Record of one rigidity run: the two probe indices, the forced value
    space per probe, and their intersection.  Zero intersection certifies
    that a 2-local map killing both probes also kills the target."""

    probes: list[int]
    forced: list[Subspace]
    intersection: Subspace

    @property
    def rigid(self) -> bool:
        return self.intersection.dim == 0


def _require_probes(algebra: Algebra, probes: list[int], window: Window) -> list[int]:
    for p in probes:
        if p not in window:
            raise WindowTooSmall(f"witness window {window} misses probe index {p}")
    _witness_algebra(algebra).require_window(window)  # as `forced_image_space` does, up front
    return probes


def _rigidity_from_probes(
    algebra: Algebra, x: Element, probes: list[int], window: Window
) -> RigidityTrace:
    spaces = [forced_image_space(algebra, p, x, window) for p in probes]
    return RigidityTrace(probes, spaces, subspace_intersection(*spaces))


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
    probes = _require_probes(algebra, [0, far] if algebra is Algebra.WITT else [1, far], window)
    return _rigidity_from_probes(algebra, x, probes, window)


def basis_rigidity_check(algebra: Algebra, i: int, window: Window) -> RigidityTrace:
    """Rigidity for a single basis vector, probed at the two generators
    (e_0, e_1 for witt, excluding targets 0 and 1; e_1, e_2 for wplus,
    targets from 3 up)."""
    if algebra is Algebra.WITT:
        if i in (0, 1):
            raise ValueError("witt basis rigidity applies to indices other than 0 and 1")
        probes = _require_probes(algebra, [0, 1], window)
    elif algebra is Algebra.WPLUS:
        if i < 3:
            raise ValueError("wplus basis rigidity applies to indices 3 and up")
        probes = _require_probes(algebra, [1, 2], window)
    else:
        raise ValueError(f"rigidity is implemented for witt and wplus, not {algebra}")
    return _rigidity_from_probes(algebra, Element.basis(algebra, i), probes, window)
