from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlocal import (
    Algebra,
    Element,
    IndexOutOfDomain,
    MixedAlgebras,
    RigidityTrace,
    SparseVector,
    Subspace,
    Window,
    WindowTooSmall,
    WitnessCertificate,
    additivity_violation,
    centralizer,
    forced_image_space,
    leibniz_check,
    parse_element,
    rigidity_check,
    thin_delta,
    thin_derivation,
    thin_witness,
    verify_pair,
)
from wittlocal import algebras, linalg, twolocal
from wittlocal.derivations import ThinDerivationParams

from helpers import (
    assert_normalised_element,
    complement_intersection,
    generator_rigidity,
    in_span,
    rand_element,
    reference_apply,
    reference_centralizer,
    reference_forced_image_space,
    reference_thin_delta,
    reference_verify_pair,
    reference_witness_table,
)


def thin(text):
    return parse_element(text, Algebra.THIN)


def unit(i):
    return SparseVector({i: 1})


def thin_params(alpha, beta):
    """Witness params from the coefficient dicts of D(e_1) and D(e_2)."""
    return ThinDerivationParams(Element(Algebra.THIN, alpha), Element(Algebra.THIN, beta))


ZERO_PARAMS = ThinDerivationParams(thin("0"), thin("0"))


# -- the non-additive map ------------------------------------------------------


def test_thin_delta_cases():
    assert thin_delta(thin("e_1 + e_2")) == thin("e_2")
    assert thin_delta(thin("2*e_2")).is_zero()
    assert thin_delta(thin("0")).is_zero()
    assert thin_delta(thin("-3*e_1 + e_4 - e_7")) == thin("e_4 - e_7")


def test_thin_delta_homogeneous_within_case():
    rng = Random(53)
    for _ in range(60):
        x = rand_element(rng, Algebra.THIN, range(1, 10))
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
        assert thin_delta(x.scale(lam)) == thin_delta(x).scale(lam)


def test_thin_maps_and_rigidity_refuse_mixed_algebras():
    wplus_e2 = parse_element("e_2", Algebra.WPLUS)
    with pytest.raises(MixedAlgebras, match="^thin_delta on a wplus element$"):
        thin_delta(wplus_e2)
    for x, y in ((wplus_e2, thin("e_1")), (thin("e_1"), wplus_e2)):
        with pytest.raises(MixedAlgebras, match="^thin_witness needs two thin elements$"):
            thin_witness(x, y)
    with pytest.raises(MixedAlgebras, match="^target lives in wplus, expected witt$"):
        rigidity_check(Algebra.WITT, wplus_e2, Window(-10, 10))


def test_additivity_counterexample():
    x, y = thin("e_1 + e_2"), thin("-e_1 + e_2")
    out = additivity_violation(thin_delta, x, y)
    assert out.violated
    assert out.residual == thin("-2*e_2")
    assert thin_delta(x + y).is_zero()
    assert thin_delta(x) + thin_delta(y) == thin("2*e_2")


def test_additivity_holds_on_tail_pairs():
    out = additivity_violation(thin_delta, thin("e_3"), thin("e_4"))
    assert not out.violated
    assert out.residual.is_zero()


def test_linear_maps_never_violate_additivity():
    rng = Random(59)
    table = thin_derivation(ThinDerivationParams(thin("e_2"), thin("-3*e_2")), 14)
    for _ in range(40):
        x = rand_element(rng, Algebra.THIN, range(1, 12))
        y = rand_element(rng, Algebra.THIN, range(1, 12))
        assert not additivity_violation(lambda m: reference_apply(table, m), x, y).violated


# -- witnesses ------------------------------------------------------------------


def test_witness_case_zero():
    cert = thin_witness(thin("2*e_2"), thin("e_3"))
    assert cert.case == "zero"
    assert cert.witness == ZERO_PARAMS
    assert reference_witness_table(cert).image(1).is_zero()
    assert verify_pair(thin_delta, cert).passed


def test_witness_case_scaled():
    cert = thin_witness(thin("e_2"), thin("e_1 + 3*e_2"))
    assert cert.case == "e1-scaled"
    table = reference_witness_table(cert)
    assert table.image(1) == thin("3*e_2")
    assert table.image(2).is_zero()
    assert verify_pair(thin_delta, cert).passed


def test_witness_case_scaled_swapped_roles():
    cert = thin_witness(thin("2*e_1 + e_3"), thin("5*e_4"))
    assert cert.case == "e1-scaled"
    assert reference_witness_table(cert).image(1) == thin("1/2*e_3")
    assert verify_pair(thin_delta, cert).passed


def test_witness_case_identity():
    cert = thin_witness(thin("e_1 + e_2"), thin("-e_1 + e_2"))
    assert cert.case == "tail-identity"
    table = reference_witness_table(cert)
    assert table.image(1).is_zero()
    assert table.image(2) == thin("e_2")
    assert table.image(3) == thin("e_3")
    v = verify_pair(thin_delta, cert)
    assert v.passed
    assert reference_apply(table, thin("e_1 + e_2")) == thin("e_2")


def test_witness_randomized():
    rng = Random(61)
    for _ in range(300):
        x = rand_element(rng, Algebra.THIN, range(1, 13))
        y = rand_element(rng, Algebra.THIN, range(1, 13))
        cert = thin_witness(x, y)
        assert verify_pair(thin_delta, cert).passed, (str(x), str(y), cert.case)


def test_witnesses_are_derivations():
    """Each witness, tabulated through the closed form on 1..max(3, top
    index), passes the Leibniz check and equals its generator extension."""
    rng = Random(67)
    for _ in range(40):
        x = rand_element(rng, Algebra.THIN, range(1, 13))
        y = rand_element(rng, Algebra.THIN, range(1, 13))
        cert = thin_witness(x, y)
        table = thin_derivation(cert.witness, max(3, x.support_bound(), y.support_bound()))
        assert table == reference_witness_table(cert)
        assert leibniz_check(table, table.window.hi).passed


def test_verify_pair_rejects_wrong_witness():
    x, y = thin("e_1 + e_2"), thin("e_3")
    cert = WitnessCertificate(x, y, "zero", ZERO_PARAMS)
    v = verify_pair(thin_delta, cert)
    assert not v.passed
    assert v.residual_x == thin("e_2")
    assert v.residual_y.is_zero()


def test_verify_pair_matches_reference_residuals():
    """The one-pass residuals equal delta(m) - extension(m) on 300
    seeded thin pairs and on wrong witnesses: the zero params, and a true
    witness with one term added to alpha or to beta."""
    rng = Random(71)
    certs = []
    for _ in range(300):
        x = rand_element(rng, Algebra.THIN, range(1, 13))
        y = rand_element(rng, Algebra.THIN, range(1, 13))
        certs.append(thin_witness(x, y))
    # (x, y, zero params too, terms added to (D(e_1), D(e_2))); the last pair
    # has no e_1 term, so its added D(e_1) term is read at neither member
    wrong = [
        ("e_1 + e_2 - 1/2*e_4", "3*e_3", True,
         [("2/3*e_5", "0"), ("0", "2/3*e_2"), ("0", "-e_6")]),
        ("e_1 + e_5", "-e_1 + e_2", True, [("2/3*e_1", "0"), ("0", "e_4")]),
        ("2*e_2", "e_3", False, [("e_4", "0")]),
    ]
    for x, y, zero, added in wrong:
        x, y = thin(x), thin(y)
        good = thin_witness(x, y)
        if zero:
            certs.append(WitnessCertificate(x, y, good.case, ZERO_PARAMS))
        for alpha, beta in added:
            params = ThinDerivationParams(good.witness.alpha + thin(alpha),
                                          good.witness.beta + thin(beta))
            assert params != good.witness
            certs.append(WitnessCertificate(x, y, good.case, params))
    failed = 0
    for cert in certs:
        v = verify_pair(thin_delta, cert)
        assert (v.passed, v.residual_x, v.residual_y) == reference_verify_pair(thin_delta, cert)
        assert_normalised_element(v.residual_x)
        assert_normalised_element(v.residual_y)
        failed += not v.passed
    assert failed == 7  # every wrong witness but the alpha term that neither member reads


def test_verify_pair_refuses_mixed_algebras():
    x, y = thin("e_1 + e_2"), thin("e_3")
    thin_cert = WitnessCertificate(x, y, "zero", ZERO_PARAMS)
    with pytest.raises(MixedAlgebras):
        verify_pair(lambda m: m.in_algebra(Algebra.WPLUS), thin_cert)
    wplus_cert = WitnessCertificate(x.in_algebra(Algebra.WPLUS), y, "zero", ZERO_PARAMS)
    with pytest.raises(MixedAlgebras, match="^wplus member, wplus image, thin witness$"):
        verify_pair(lambda m: m, wplus_cert)


def test_verify_pair_zero_pair():
    z = Element.zero(Algebra.THIN)
    cert = WitnessCertificate(z, z, "zero", ZERO_PARAMS)
    assert verify_pair(thin_delta, cert).passed


_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=5)
_THIN_TERMS = st.dictionaries(st.integers(1, 12), _COEFFS, max_size=5)


@settings(derandomize=True, max_examples=200)
@given(
    st.dictionaries(st.integers(1, 9), _COEFFS, max_size=4),
    st.dictionaries(st.integers(2, 9), _COEFFS, max_size=4),
    _THIN_TERMS,
    _THIN_TERMS,
)
def test_verify_pair_residuals_match_the_extension(alpha, beta, x, y):
    """For any params and thin members supported in 1..N, the residuals are
    delta(m) - extension(m), the extension tabulated on 1..N by
    `reference_extension`: no table is read, yet every residual agrees."""
    x, y = Element(Algebra.THIN, x), Element(Algebra.THIN, y)
    cert = WitnessCertificate(x, y, "any", thin_params(alpha, beta))
    v = verify_pair(thin_delta, cert)
    assert (v.passed, v.residual_x, v.residual_y) == reference_verify_pair(thin_delta, cert)
    assert_normalised_element(v.residual_x)
    assert_normalised_element(v.residual_y)


# numerators and denominators drawn from 10**20..10**30, so that the unreduced
# integer sums of `verify_pair` multiply large denominators together
_BIG = st.builds(lambda s, p, q: Fraction(s * p, q), st.sampled_from((1, -1)),
                 st.integers(10**20, 10**30), st.integers(10**20, 10**30))
_WIDE = st.one_of(_COEFFS, _BIG)


@settings(derandomize=True, max_examples=200)
@given(
    st.dictionaries(st.integers(1, 9), _WIDE, max_size=4),
    st.dictionaries(st.integers(2, 9), _WIDE, max_size=4),
    st.dictionaries(st.integers(2, 12), _WIDE, max_size=4),
    st.dictionaries(st.integers(1, 12), _WIDE, max_size=4),
    _BIG,
    st.integers(3, 12),
    st.booleans(),
)
def test_verify_pair_residuals_with_large_and_cancelling_terms(alpha, beta, x, y, c1, i, exact):
    """Large coefficients, and a witness whose terms cancel at index i of x:
    alpha_i is chosen so that c1 alpha_i plus the other terms' contributions
    at i is either delta(x)_i (the residual vanishes there) or 0 (the
    residual there is delta(x)_i).  Every residual agrees with the extension."""
    x = Element(Algebra.THIN, {**x, 1: c1})
    y = Element(Algebra.THIN, y)
    alpha.pop(i, None)
    # D(e_j) for j >= 2 does not read alpha_i, so this residual is
    # delta(x)_i minus the other terms' contributions at i
    others = reference_verify_pair(
        thin_delta, WitnessCertificate(x, y, "any", thin_params(alpha, beta)))[1]
    delta_i = reference_thin_delta(x).coefficient(i)
    alpha[i] = (others.coefficient(i) - (0 if exact else delta_i)) / c1
    cert = WitnessCertificate(x, y, "any", thin_params(alpha, beta))
    v = verify_pair(thin_delta, cert)
    assert (v.passed, v.residual_x, v.residual_y) == reference_verify_pair(thin_delta, cert)
    assert v.residual_x.coefficient(i) == (0 if exact else delta_i)
    assert_normalised_element(v.residual_x)
    assert_normalised_element(v.residual_y)


@settings(derandomize=True, max_examples=200)
@given(
    st.dictionaries(st.integers(1, 12), _COEFFS.filter(bool), min_size=1, max_size=5),
    _THIN_TERMS,
    st.integers(3, 12),
    _COEFFS.filter(bool),
)
def test_verify_pair_rejects_every_visible_wrong_witness(x, y, i, c):
    """A true witness with c e_i (i >= 3) added where x reads it fails, with a
    nonzero residual at x: to beta, which moves D(e_j) for every j >= 2 by
    c e_{i+j-2} (distinct indices, so x's terms cannot cancel), when x has a
    term above e_1; else to alpha, which moves D(e_1) by c e_i."""
    x, y = Element(Algebra.THIN, x), Element(Algebra.THIN, y)
    good = thin_witness(x, y)
    alpha, beta, term = good.witness.alpha, good.witness.beta, Element(Algebra.THIN, {i: c})
    if x.support_bound() >= 2:
        beta += term
    else:
        alpha += term
    cert = WitnessCertificate(x, y, good.case, ThinDerivationParams(alpha, beta))
    v = verify_pair(thin_delta, cert)
    assert not v.passed and not v.residual_x.is_zero()
    assert (v.passed, v.residual_x, v.residual_y) == reference_verify_pair(thin_delta, cert)


# -- centralizers ---------------------------------------------------------------


def test_centralizer_examples():
    c0 = centralizer(Algebra.WITT, parse_element("e_0", Algebra.WITT), Window(-10, 10))
    assert c0.dim == 1 and c0.basis == [unit(0)]
    c1 = centralizer(Algebra.WITT, parse_element("e_1", Algebra.WITT), Window(-10, 10))
    assert c1.dim == 1 and c1.basis == [unit(1)]
    c2 = centralizer(
        Algebra.WPLUS_EXT, parse_element("e_2", Algebra.WPLUS_EXT), Window(0, 15)
    )
    assert c2.dim == 1 and c2.basis == [unit(2)]


def test_centralizer_window_guard():
    with pytest.raises(IndexOutOfDomain, match=r"^window 0:5 leaves the wplus index domain$"):
        centralizer(Algebra.WPLUS, parse_element("e_1", Algebra.WPLUS), Window(0, 5))


def test_centralizer_matches_bracket_reference():
    """Seeded multi-term targets, supported inside and outside the window,
    against brute-force grade rows built through the helpers' own bracket.
    The cases cover every branch of the closed form: t = 0, thin targets
    with and without an e_1 term, witt windows on one side of 0, windows
    that hold only t's top or only its bottom index, and wplus_ext targets
    with an e_0 term.  A thin target without an e_1 term is centralized by
    every e_g, g >= 2, so its centralizer grows with the window."""
    rng = Random(101)
    witt, wplus_ext = Algebra.WITT, Algebra.WPLUS_EXT
    cases = [
        (witt, (-8, 0), (0, 8), range(-10, 11)),
        (Algebra.WPLUS, (1, 4), (4, 12), range(1, 15)),
        (wplus_ext, (0, 4), (4, 12), range(0, 15)),
        (Algebra.THIN, (1, 4), (4, 12), range(1, 15)),
        (witt, (-12, -6), (-5, -1), range(-12, 0)),
        (witt, (1, 5), (6, 12), range(1, 13)),
    ]
    checked = []
    for algebra, lows, highs, indices in cases:
        for n in range(25):
            window = Window(rng.randint(*lows), rng.randint(*highs))
            t = rand_element(rng, algebra, indices, max_terms=5, nonzero=True)
            if n % 5 == 0:
                t = Element.zero(algebra)
            elif n % 5 == 1 and indices[0] <= 1 < indices[-1]:
                t = t + Element.basis(algebra, 1)
            checked.append((algebra, t, window))
    for _ in range(25):
        t = rand_element(rng, wplus_ext, range(1, 10), max_terms=3, nonzero=True)
        t = t + Element.basis(wplus_ext, 0).scale(rng.choice((1, -2, Fraction(3, 5))))
        checked.append((wplus_ext, t, Window(0, rng.randint(0, 12))))
    for algebra, indices in ((witt, range(-10, 11)), (wplus_ext, range(0, 12)),
                             (Algebra.THIN, range(1, 12))):
        for _ in range(25):
            t = rand_element(rng, algebra, indices, max_terms=4, nonzero=True)
            if algebra is Algebra.THIN:
                t = t + Element.basis(algebra, 1)
            lo, hi = t.support()[0], t.support()[-1]
            lowest = max(indices[0], lo - 3)
            checked.append((algebra, t, Window(lowest, max(lowest, hi - 1))))
            checked.append((algebra, t, Window(min(lo + 1, hi), hi + 3)))
    for algebra, t, window in checked:
        assert centralizer(algebra, t, window) == reference_centralizer(algebra, t, window), (
            algebra, str(t), window)
    assert sum(t.is_zero() for _, t, _ in checked) >= 30
    assert sum(c.dim == 1 for c in (centralizer(*case) for case in checked)) >= 50
    t = thin("e_2 - 3*e_5")
    for hi in (4, 8, 16):
        space = centralizer(Algebra.THIN, t, Window(1, hi))
        assert space == reference_centralizer(Algebra.THIN, t, Window(1, hi))
        assert space.basis == [unit(g) for g in range(2, hi + 1)]


# -- forced image spaces ---------------------------------------------------------


def test_forced_image_examples():
    witt = Algebra.WITT
    e2 = parse_element("e_2", witt)
    f0 = forced_image_space(witt, 0, e2, Window(-10, 10))
    assert f0.dim == 1 and f0.basis == [unit(2)]
    f1 = forced_image_space(witt, 1, e2, Window(-10, 10))
    assert f1.dim == 1 and f1.basis == [unit(3)]
    f_self = forced_image_space(witt, 0, parse_element("e_0", witt), Window(-10, 10))
    assert f_self.dim == 0


def test_forced_image_probe_outside_domain():
    # the condition Element.basis and Algebra.require_window report
    x = parse_element("e_3", Algebra.WPLUS)
    with pytest.raises(IndexOutOfDomain, match=r"^probe index 0 outside the wplus domain$"):
        forced_image_space(Algebra.WPLUS, 0, x, Window(0, 10))
    # a window below the witness domain is refused even with the probe inside it
    with pytest.raises(IndexOutOfDomain, match=r"^window -3:10 leaves the wplus_ext index domain$"):
        forced_image_space(Algebra.WPLUS, 1, x, Window(-3, 10))
    with pytest.raises(IndexOutOfDomain, match=r"^window 0:10 leaves the thin index domain$"):
        forced_image_space(Algebra.THIN, 1, parse_element("e_3", Algebra.THIN), Window(0, 10))
    # a probe outside the window has no centralizer there, so nothing is forced
    empty = forced_image_space(Algebra.WITT, 12, parse_element("e_3", Algebra.WITT), Window(-10, 10))
    assert empty.basis == []


def test_forced_image_matches_centralizer_reference():
    """Seeded targets against the brute-force centralizer route, on windows
    that cross 0 (or start at it), with probes inside and outside the window,
    targets that are multiples of e_probe (whose forced span is zero),
    targets with a term at the probe beside other terms, and coefficients
    with 30-digit numerators and denominators."""
    rng = Random(103)
    cases = [
        (Algebra.WITT, (-8, 0), (0, 8), range(-10, 11)),
        (Algebra.WPLUS, (0, 3), (3, 10), range(1, 12)),
        (Algebra.WPLUS_EXT, (0, 3), (3, 10), range(0, 12)),
        (Algebra.THIN, (1, 3), (3, 10), range(1, 12)),
    ]
    outside = zero_spans = 0
    for algebra, lows, highs, indices in cases:
        for n in range(40):
            window = Window(rng.randint(*lows), rng.randint(*highs))
            inside = [i for i in window.indices() if i in indices]
            probe = rng.choice(indices if n % 4 == 1 else inside)
            if n % 4 == 0:
                x = Element.basis(algebra, probe).scale(rng.choice((1, -2, Fraction(3, 5))))
            else:
                x = rand_element(rng, algebra, indices, max_terms=5, nonzero=True)
            got = forced_image_space(algebra, probe, x, window)
            expected = reference_forced_image_space(algebra, probe, x, window)
            assert got.basis == expected.basis, (
                algebra, probe, str(x), window)
            outside += probe not in window
            zero_spans += got.dim == 0 and probe in window
    assert outside > 10 and zero_spans >= 40
    big = [Fraction(rng.randrange(10**29, 10**30) * rng.choice((1, -1)),
                    rng.randrange(10**29, 10**30)) for _ in range(40)]
    assert all(len(str(abs(c.numerator))) >= 25 and c.denominator >= 10**24 for c in big)
    huge = with_probe = 0
    for algebra, lows, highs, indices in cases:
        for n in range(30):
            window = Window(rng.randint(*lows), rng.randint(*highs))
            probe = rng.choice([i for i in window.indices() if i in indices])
            x = rand_element(rng, algebra, indices, max_terms=4, nonzero=True)
            if n % 2:
                x = Element(algebra, {k: rng.choice(big) for k in x.support()})
            x = x + Element.basis(algebra, probe).scale(rng.choice((1, -3, *big[:3])))
            got = forced_image_space(algebra, probe, x, window)
            expected = reference_forced_image_space(algebra, probe, x, window)
            assert got.basis == expected.basis, (algebra, probe, str(x), window)
            huge += n % 2 and got.dim > 0
            with_probe += len(x.support()) > 1 and x.coefficient(probe) != 0
    assert huge >= 20 and with_probe >= 60


# -- rigidity ---------------------------------------------------------------------


def test_basis_rigidity_witt():
    tr = generator_rigidity(Algebra.WITT, 5, Window(-10, 10))
    assert tr.probes == [0, 1]
    assert [s.basis for s in tr.forced] == [[unit(5)], [unit(6)]]
    assert tr.rigid
    tr_neg = generator_rigidity(Algebra.WITT, -3, Window(-10, 10))
    assert [s.basis for s in tr_neg.forced] == [[unit(-3)], [unit(-2)]]
    assert tr_neg.rigid


def test_basis_rigidity_wplus():
    tr = generator_rigidity(Algebra.WPLUS, 7, Window(0, 15))
    assert tr.probes == [1, 2]
    assert [s.basis for s in tr.forced] == [[unit(8)], [unit(9)]]
    assert tr.rigid


def test_rigidity_probe_choice_and_traces():
    x = parse_element("e_2", Algebra.WITT)
    tr = rigidity_check(Algebra.WITT, x, Window(-12, 12))
    assert tr.probes == [0, 5]
    assert tr.rigid

    mixed = parse_element("3*e_-2 + e_1", Algebra.WITT)
    tr2 = rigidity_check(Algebra.WITT, mixed, Window(-12, 12))
    assert tr2.probes == [0, 5]
    assert [s.basis for s in tr2.forced] == [
        [SparseVector({-2: 1, 1: Fraction(-1, 6)})],
        [SparseVector({3: 1, 6: Fraction(4, 21)})],
    ]
    assert tr2.rigid

    wp = parse_element("e_1 + e_2", Algebra.WPLUS)
    tr3 = rigidity_check(Algebra.WPLUS, wp, Window(0, 12))
    assert tr3.probes == [1, 5]
    assert tr3.rigid


def test_rigidity_intersection_inside_forced_spaces():
    rng = Random(71)
    for _ in range(30):
        x = rand_element(rng, Algebra.WITT, range(-5, 6), nonzero=True)
        tr = rigidity_check(Algebra.WITT, x, Window(-15, 15))
        assert tr.rigid
        for v in tr.intersection.basis:
            for s in tr.forced:
                assert in_span(s, v)


def test_rigidity_does_no_elimination(monkeypatch):
    """Centralizers are read off the grading, and on witt and wplus the
    forced spaces are lines written from the target's terms and meet on
    disjoint supports, so neither centralizer nor rigidity solves a kernel,
    even at -3000:3000."""

    def refuse(*args):
        raise AssertionError("solved a linear system")

    monkeypatch.setattr(linalg, "kernel_basis", refuse)
    witt_e1 = centralizer(Algebra.WITT, parse_element("e_1", Algebra.WITT), Window(-3000, 3000))
    assert witt_e1.basis == [unit(1)]
    assert centralizer(Algebra.WPLUS, parse_element("e_2 - e_5", Algebra.WPLUS),
                       Window(1, 3000)).basis == [SparseVector({2: 1, 5: -1})]
    assert centralizer(Algebra.WPLUS_EXT, parse_element("e_0 + e_3", Algebra.WPLUS_EXT),
                       Window(0, 2)).basis == []
    assert centralizer(Algebra.THIN, thin("2*e_1 + e_3"), Window(1, 6001)).basis == [
        SparseVector({1: 1, 3: Fraction(1, 2)})]
    assert centralizer(Algebra.THIN, thin("e_3"), Window(1, 5)).basis == [
        unit(g) for g in range(2, 6)]
    mixed = parse_element("3*e_-2 + e_1", Algebra.WITT)
    tr = rigidity_check(Algebra.WITT, mixed, Window(-3000, 3000))
    assert tr.probes == [0, 5] and tr.rigid
    assert [s.basis for s in tr.forced] == [
        [SparseVector({-2: 1, 1: Fraction(-1, 6)})],
        [SparseVector({3: 1, 6: Fraction(4, 21)})],
    ]
    assert rigidity_check(Algebra.WPLUS, parse_element("e_1 + e_2", Algebra.WPLUS),
                          Window(0, 12)).rigid
    assert generator_rigidity(Algebra.WITT, 5, Window(-10, 10)).rigid
    assert generator_rigidity(Algebra.WPLUS, 7, Window(0, 15)).rigid
    rng = Random(107)
    for algebra, indices, window in ((Algebra.WITT, range(-6, 7), Window(-20, 20)),
                                     (Algebra.WPLUS, range(1, 8), Window(0, 20))):
        for _ in range(20):
            x = rand_element(rng, algebra, indices, nonzero=True)
            assert rigidity_check(algebra, x, window).rigid


def test_forced_lines_call_no_bracket(monkeypatch):
    """Each forced line is written from the target's terms, so forced spaces
    on all four algebras, and rigidity on witt and wplus, answer with the
    library's `bracket` refused."""

    def refuse(*args):
        raise AssertionError("called bracket")

    monkeypatch.setattr(twolocal, "bracket", refuse, raising=False)
    monkeypatch.setattr(algebras, "bracket", refuse)
    tr = rigidity_check(Algebra.WITT, parse_element("3*e_-2 + e_1", Algebra.WITT),
                        Window(-3000, 3000))
    assert tr.rigid and [s.basis for s in tr.forced] == [
        [SparseVector({-2: 1, 1: Fraction(-1, 6)})],
        [SparseVector({3: 1, 6: Fraction(4, 21)})],
    ]
    tr = rigidity_check(Algebra.WPLUS, parse_element("2*e_3 - 1/2*e_5", Algebra.WPLUS),
                        Window(1, 40))
    assert tr.rigid and [s.basis for s in tr.forced] == [
        [SparseVector({4: 1, 6: Fraction(-1, 2)})],
        [SparseVector({14: 1, 16: Fraction(-3, 16)})],
    ]
    rng = Random(109)
    for algebra, indices, window in ((Algebra.WITT, range(-6, 7), Window(-8, 8)),
                                     (Algebra.WPLUS, range(1, 8), Window(0, 10)),
                                     (Algebra.WPLUS_EXT, range(0, 8), Window(0, 10)),
                                     (Algebra.THIN, range(1, 8), Window(1, 10))):
        for _ in range(10):
            x = rand_element(rng, algebra, indices, nonzero=True)
            probe = rng.choice([i for i in window.indices() if algebra.contains_index(i)])
            assert forced_image_space(algebra, probe, x, window) == (
                reference_forced_image_space(algebra, probe, x, window)), (algebra, probe, str(x))


def test_rigidity_window_guard():
    """Each guard fires on inputs that every later guard would refuse too:
    the algebra, then the target's algebra, then a zero target, then each
    probe in turn, then the witness domain of the window."""
    witt, wplus = Algebra.WITT, Algebra.WPLUS
    tiny = Window(5, 6)  # misses every probe
    for algebra in (Algebra.THIN, Algebra.WPLUS_EXT):
        with pytest.raises(ValueError, match=f"^rigidity is implemented for witt and wplus, "
                                             f"not {algebra}$"):
            rigidity_check(algebra, Element.zero(witt), tiny)
    with pytest.raises(MixedAlgebras, match="^target lives in wplus, expected witt$"):
        rigidity_check(witt, Element.zero(wplus), tiny)
    with pytest.raises(ValueError, match="^rigidity target must be nonzero$"):
        rigidity_check(witt, Element.zero(witt), tiny)
    x = parse_element("e_4", witt)  # probes 0 and 9
    with pytest.raises(WindowTooSmall, match="^witness window 5:6 misses probe index 0$"):
        rigidity_check(witt, x, tiny)
    with pytest.raises(WindowTooSmall, match="^witness window -5:5 misses probe index 9$"):
        rigidity_check(witt, x, Window(-5, 5))
    y = parse_element("e_3", wplus)  # probes 1 and 7
    with pytest.raises(WindowTooSmall, match="^witness window 2:9 misses probe index 1$"):
        rigidity_check(wplus, y, Window(2, 9))
    with pytest.raises(WindowTooSmall, match="^witness window -3:5 misses probe index 7$"):
        rigidity_check(wplus, y, Window(-3, 5))
    with pytest.raises(IndexOutOfDomain, match="^window -3:10 leaves the wplus_ext index domain$"):
        rigidity_check(wplus, y, Window(-3, 10))


# -- window enlargement -------------------------------------------------------------
# Once a window holds the support that matters (the target's grade hull for a
# centralizer, the probes for forced spaces and rigidity), enlarging it must
# not change the result.  Only witt and wplus(_ext): a thin centralizer grows
# with its window, since [e_i, e_j] = 0 for i, j >= 2.

COEFF = st.builds(Fraction, st.integers(1, 3) | st.integers(-3, -1), st.integers(1, 3))
MARGINS = st.tuples(st.integers(0, 4), st.integers(0, 4))


def elements(algebra, lo, hi):
    terms = st.dictionaries(st.integers(lo, hi), COEFF, min_size=1, max_size=3)
    return terms.map(lambda t: Element(algebra, t))


def enlarged(algebra, window, margins):
    lo = next(k for k in range(window.lo - margins[0], window.lo + 1) if algebra.contains_index(k))
    return Window(lo, window.hi + margins[1])


def witness_algebra(algebra):
    return Algebra.WPLUS_EXT if algebra is Algebra.WPLUS else algebra


@settings(max_examples=60)
@given(st.sampled_from([Algebra.WITT, Algebra.WPLUS, Algebra.WPLUS_EXT]), MARGINS, MARGINS,
       st.data())
def test_centralizer_invariant_under_window_enlargement(algebra, m1, m2, data):
    lo = next(k for k in range(-5, 2) if algebra.contains_index(k))  # -5, or the domain's least
    t = data.draw(elements(algebra, lo, lo + 8))
    small = enlarged(algebra, Window(min(t.support()), max(t.support())), m1)
    big = enlarged(algebra, small, m2)
    cent = centralizer(algebra, t, small)
    assert in_span(cent, t.coeffs)
    assert cent.basis == centralizer(algebra, t, big).basis


@settings(max_examples=60)
@given(st.sampled_from([Algebra.WITT, Algebra.WPLUS]), MARGINS, MARGINS, st.data())
def test_forced_space_invariant_under_window_enlargement(algebra, m1, m2, data):
    lo = -5 if algebra is Algebra.WITT else 1
    x = data.draw(elements(algebra, lo, lo + 8))
    probe = data.draw(st.integers(lo, lo + 8))
    small = enlarged(witness_algebra(algebra), Window(probe, probe), m1)
    big = enlarged(witness_algebra(algebra), small, m2)
    before = forced_image_space(algebra, probe, x, small)
    after = forced_image_space(algebra, probe, x, big)
    assert before.basis == after.basis


@settings(max_examples=40)
@given(st.sampled_from([Algebra.WITT, Algebra.WPLUS]), MARGINS, MARGINS, st.data())
def test_rigidity_invariant_under_window_enlargement(algebra, m1, m2, data):
    lo = -4 if algebra is Algebra.WITT else 1
    x = data.draw(elements(algebra, lo, lo + 6))
    probes = Window(0 if algebra is Algebra.WITT else 1, 2 * x.support_bound() + 1)
    small = enlarged(witness_algebra(algebra), probes, m1)
    big = enlarged(witness_algebra(algebra), small, m2)
    before, after = rigidity_check(algebra, x, small), rigidity_check(algebra, x, big)
    assert before.rigid == after.rigid
    assert (before.probes, before.forced) == (after.probes, after.forced)
    assert before.intersection == after.intersection


@settings(derandomize=True, max_examples=120)
@given(st.sampled_from([Algebra.WITT, Algebra.WPLUS]), MARGINS, st.data())
def test_rigidity_matches_reference(algebra, margins, data):
    """The trace equals the one built from `reference_forced_image_space` at
    the probes (0 or 1, and one past twice the support bound), met by
    `complement_intersection` on a window holding both forced spans."""
    lo = -6 if algebra is Algebra.WITT else 1
    x = data.draw(elements(algebra, lo, lo + 10))
    probes = [0 if algebra is Algebra.WITT else 1, 2 * x.support_bound() + 1]
    window = enlarged(witness_algebra(algebra), Window(probes[0], probes[1]), margins)
    forced = [reference_forced_image_space(algebra, p, x, window) for p in probes]
    support = [i for space in forced for v in space.basis for i in v.support()]
    hull = Window(min([window.lo, *support]), max([window.hi, *support]))
    expected = RigidityTrace(probes, forced, complement_intersection(*forced, hull))
    assert rigidity_check(algebra, x, window) == expected


# -- metamorphic relations -------------------------------------------------------------
# sigma_lam(e_i) = lam^i e_i is an automorphism of every algebra, since each
# bracket is K(i, j) e_{i+j}, and theta(e_i) = -e_{-i} is one of witt.  The
# centralizer of e_p is spanned by unit vectors, which sigma keeps and theta
# sends to those of e_{-p}, so each forced line moves with its target.  sigma
# holds for any K, so it sees a misplaced grade but no wrong constant; theta
# sees a wrong constant.

LAMBDAS = (2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))


def sigma(lam):
    return lambda v: SparseVector({i: c * Fraction(lam) ** i for i, c in v.items()})


def theta(v):
    return SparseVector({-i: -c for i, c in v.items()})


def mapped(f, space):
    return Subspace([f(v) for v in space.basis])


def test_forced_lines_commute_with_sigma():
    rng = Random(113)
    lines = 0
    for algebra, indices, window in ((Algebra.WITT, range(-6, 7), Window(-9, 9)),
                                     (Algebra.WPLUS, range(1, 9), Window(0, 12)),
                                     (Algebra.THIN, range(1, 9), Window(1, 12))):
        probes = [i for i in window.indices() if algebra.contains_index(i)]
        for lam in LAMBDAS:
            s = sigma(lam)
            for _ in range(15):
                x = rand_element(rng, algebra, indices, max_terms=5, nonzero=True)
                probe = rng.choice(probes)
                forced = forced_image_space(algebra, probe, x, window)
                assert forced_image_space(algebra, probe, Element(algebra, s(x.coeffs)), window) == (
                    mapped(s, forced)), (algebra, lam, probe, str(x))
                lines += sum(len(v) > 1 for v in forced.basis)
    assert lines >= 100


def test_rigidity_commutes_with_sigma():
    rng = Random(127)
    for algebra, indices, window in ((Algebra.WITT, range(-6, 7), Window(-14, 14)),
                                     (Algebra.WPLUS, range(1, 10), Window(0, 20))):
        for lam in LAMBDAS:
            s = sigma(lam)
            for _ in range(10):
                x = rand_element(rng, algebra, indices, max_terms=5, nonzero=True)
                tr = rigidity_check(algebra, x, window)
                got = rigidity_check(algebra, Element(algebra, s(x.coeffs)), window)
                assert (got.probes, got.rigid) == (tr.probes, tr.rigid)
                assert got.forced == [mapped(s, f) for f in tr.forced], (algebra, lam, str(x))
                assert got.intersection == mapped(s, tr.intersection)


def test_forced_lines_commute_with_theta():
    """theta sends the centralizer of e_p to that of e_{-p}, so on a window
    symmetric about 0 it maps the probe-p line of x to the probe-(-p) line
    of theta(x); p = 0 is its own image."""
    rng = Random(131)
    witt, lines = Algebra.WITT, 0
    for m in (6, 9, 12):
        window = Window(-m, m)
        for _ in range(40):
            x = rand_element(rng, witt, range(-6, 7), max_terms=5, nonzero=True)
            tx = Element(witt, theta(x.coeffs))
            for probe in (0, rng.randint(-m, m)):
                forced = forced_image_space(witt, probe, x, window)
                assert forced_image_space(witt, -probe, tx, window) == mapped(theta, forced), (
                    probe, str(x), window)
                lines += sum(len(v) > 1 for v in forced.basis)
    assert lines >= 100


# On thin, sigma D sigma^-1 is again a derivation, with generator images
# lam^-1 sigma D(e_1) and lam^-2 sigma D(e_2), and it sends e_j to
# lam^-j sigma D(e_j); thin_delta commutes with sigma, as sigma keeps the
# e_1 component apart.


def thin_sigma(lam, x, power=0):
    """lam^power sigma_lam(x), for a thin element x."""
    return Element(Algebra.THIN, sigma(lam)(x.coeffs)).scale(Fraction(lam) ** power)


def conjugated(lam, params):
    """The generator images of sigma D sigma^-1, D given by params."""
    return ThinDerivationParams(thin_sigma(lam, params.alpha, -1), thin_sigma(lam, params.beta, -2))


def test_thin_derivations_commute_with_sigma():
    rng = Random(137)
    for lam in LAMBDAS:
        for _ in range(10):
            alpha = rand_element(rng, Algebra.THIN, range(1, 8), max_terms=4)
            beta = rand_element(rng, Algebra.THIN, range(2, 8), max_terms=4)
            params = ThinDerivationParams(alpha, beta)
            table, got = (thin_derivation(p, 16) for p in (params, conjugated(lam, params)))
            for j in table.window.indices():
                assert got.image(j) == thin_sigma(lam, table.image(j), -j), (lam, params, j)


def test_thin_witnesses_commute_with_sigma():
    """Every (sigma x, sigma y) passes `verify_pair`, with the case of (x, y)
    and its witness conjugated by sigma."""
    rng, cases = Random(139), set()
    for lam in LAMBDAS:
        for _ in range(30):
            x, y = (rand_element(rng, Algebra.THIN, range(1, 10)) for _ in range(2))
            cert = thin_witness(x, y)
            moved = thin_witness(thin_sigma(lam, x), thin_sigma(lam, y))
            assert verify_pair(thin_delta, moved).passed, (lam, str(x), str(y))
            assert thin_delta(moved.x) == thin_sigma(lam, thin_delta(x))
            assert (moved.case, moved.witness) == (cert.case, conjugated(lam, cert.witness))
            cases.add(cert.case)
    assert cases == {"zero", "e1-scaled", "tail-identity"}


@settings(derandomize=True, max_examples=200)
@given(
    st.dictionaries(
        st.integers(1, 8),
        st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=6), st.integers(-2, 2)),
        max_size=5,
    )
)
def test_thin_delta_matches_reference(coeffs):
    x = Element(Algebra.THIN, coeffs)
    got = thin_delta(x)
    assert got == reference_thin_delta(x)
    assert_normalised_element(got)
