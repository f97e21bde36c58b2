import json
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittlocal import algebras, derivations
from wittlocal import (
    AdditivityResult,
    Algebra,
    DerivationSpace,
    Element,
    IndexOutOfDomain,
    InconsistentExtension,
    JacobiResult,
    LeibnizResult,
    LinearMapTable,
    MixedAlgebras,
    NotADerivation,
    PairVerification,
    ParseError,
    RigidityTrace,
    SparseVector,
    Subspace,
    ThinDerivationParams,
    TruncationTooSmall,
    Window,
    WitnessCertificate,
    bracket,
    derivation_space_basis,
    extend_from_generators,
    format_element,
    leibniz_check,
    parse_element,
    recover_inner_witt,
    recover_inner_wplus,
    table_from_json,
    table_to_json,
    thin_derivation,
)
from wittlocal.cli import DER_BASIS_MAX_SUPPORT

from helpers import (
    ad,
    assert_normalised_element,
    basis_rule,
    rand_element,
    rand_rational,
    reference_derivation_space,
    reference_extension,
    reference_extension_table,
    reference_leibniz,
    reference_recover_inner,
    reference_span,
    reference_thin_derivation,
    zero_table,
)


def wplus(text):
    return parse_element(text, Algebra.WPLUS)


def thin(text):
    return parse_element(text, Algebra.THIN)


# -- tables -------------------------------------------------------------------


def test_table_requires_every_image():
    z = Element.zero(Algebra.WPLUS)
    with pytest.raises(TruncationTooSmall):
        LinearMapTable(Algebra.WPLUS, Window(1, 3), {1: z, 3: z})
    with pytest.raises(TruncationTooSmall):
        LinearMapTable(Algebra.WPLUS, Window(1, 2), {1: z, 2: z, 5: z})
    with pytest.raises(MixedAlgebras):
        LinearMapTable(Algebra.WPLUS, Window(1, 1), {1: Element.zero(Algebra.THIN)})


# -- Leibniz law --------------------------------------------------------------


def test_inner_maps_satisfy_leibniz():
    rng = Random(29)
    cases = [
        (Algebra.WITT, Window(-7, 7), range(-3, 4)),
        (Algebra.WPLUS, Window(1, 14), range(1, 5)),
        (Algebra.WPLUS_EXT, Window(0, 14), range(0, 5)),
    ]
    for algebra, win, support in cases:
        for _ in range(10):
            a = rand_element(rng, algebra, support)
            result = leibniz_check(ad(a, win), max(abs(win.lo), abs(win.hi)))
            assert result.passed, (algebra, format_element(a))


def test_identity_map_fails_leibniz():
    images = {i: Element.basis(Algebra.WITT, i) for i in range(1, 6)}
    table = LinearMapTable(Algebra.WITT, Window(1, 5), images)
    result = leibniz_check(table, 5)
    assert not result.passed
    assert result.pair == (1, 2)
    assert result.residual == parse_element("-e_3", Algebra.WITT)


def test_leibniz_depth_beyond_truncation():
    table = ad(Element.basis(Algebra.WPLUS, 1), Window(1, 5), Algebra.WPLUS)
    with pytest.raises(TruncationTooSmall):
        leibniz_check(table, 0)


def _perturbed(rng, table, domain):
    """The table with fractional terms at one to three shifts added to a few
    images, some of them supported outside the table's window."""
    images = dict(table.images)
    for k in rng.sample(list(table.window.indices()), rng.randint(1, 3)):
        grades = [k + s for s in rng.sample(range(-3, 8), rng.randint(1, 3))]
        terms = {g: rand_rational(rng, 5, 7, allow_zero=False) for g in grades if g in domain}
        images[k] = images[k] + Element(table.algebra, terms)
    return LinearMapTable(table.algebra, table.window, images)


def _leibniz_cases(rng):
    inner = [
        (Algebra.WITT, Window(-7, 7), range(-3, 4), range(-40, 40)),
        (Algebra.WITT, Window(-2, 9), range(-3, 4), range(-40, 40)),
        (Algebra.WITT, Window(-12, -1), range(-3, 4), range(-40, 40)),
        (Algebra.WPLUS, Window(1, 14), range(1, 5), range(1, 40)),
        (Algebra.WPLUS_EXT, Window(0, 14), range(0, 5), range(0, 40)),
        (Algebra.THIN, Window(1, 14), range(1, 5), range(1, 40)),
    ]
    for algebra, win, support, domain in inner:
        for _ in range(8):
            table = ad(rand_element(rng, algebra, support, max_den=5), win)
            yield table
            yield _perturbed(rng, table, domain)
    for _ in range(6):
        alpha = Element(Algebra.THIN, {i: rand_rational(rng, 4, 5) for i in range(1, 5)})
        beta = Element(Algebra.THIN, {i: rand_rational(rng, 4, 5) for i in range(2, 6)})
        table = thin_derivation(ThinDerivationParams(alpha, beta), 12)
        yield table
        yield _perturbed(rng, table, range(1, 40))
    identity = {i: Element.basis(Algebra.WITT, i) for i in range(1, 6)}
    yield LinearMapTable(Algebra.WITT, Window(1, 5), identity)


def test_leibniz_matches_element_reference():
    rng = Random(67)
    failures = multi_shift = 0
    for table in _leibniz_cases(rng):
        for depth in (-1, 0, 1, 3, 6, 20):
            try:
                expected = reference_leibniz(table, depth)
            except ValueError:
                with pytest.raises(TruncationTooSmall):
                    leibniz_check(table, depth)
                continue
            result = leibniz_check(table, depth)
            assert (result.passed, result.pairs_checked, result.pair, result.residual) == expected
            if not result.passed:
                failures += 1
                multi_shift += len(result.residual.support()) > 1
    assert failures > 100 and multi_shift > 20


def _planted(table, defects):
    """The table with e_g added to D(e_k) for each (k, g) in defects."""
    images = dict(table.images)
    for k, g in defects:
        images[k] = images[k] + Element.basis(table.algebra, g)
    return LinearMapTable(table.algebra, table.window, images)


def test_leibniz_reports_earliest_pair_across_shifts():
    # ad(e_0 + e_2 + e_3) splits into shifts 0, 2 and 3, in that order.  A
    # defect at shift 0 first fails at (1, 8); defects at the later shifts 2
    # and 3 fail at the earlier pair (1, 4), which must be the one reported,
    # with its residual summed over the shifts.
    inner = ad(parse_element("e_0 + e_2 + e_3", Algebra.WPLUS_EXT), Window(1, 12), Algebra.WPLUS)
    assert leibniz_check(_planted(inner, [(9, 9)]), 12).pair == (1, 8)
    table = _planted(inner, [(9, 9), (5, 7), (5, 8)])
    result = leibniz_check(table, 12)
    assert (result.passed, result.pairs_checked, result.pair, result.residual) == (
        reference_leibniz(table, 12)
    )
    assert result.pair == (1, 4) and result.residual == wplus("3*e_7 + 3*e_8")


# a prime denominator that no image a checked pair reads carries
_UNREAD_DENOMINATOR = 1000003


def _beyond_reach(rng, table, depth):
    """The table with every image D(e_k), |k| > 2 depth, rescaled by
    1/_UNREAD_DENOMINATOR or given an extra term of that denominator at a
    shift the table has nowhere else.  No pair of depth `depth` reads them."""
    images = dict(table.images)
    for k in table.window.indices():
        if abs(k) <= 2 * depth:
            continue
        if k % 2:
            extra = {k + rng.choice((17, 19)): Fraction(rng.randint(1, 5), _UNREAD_DENOMINATOR)}
            images[k] = images[k] + Element(table.algebra, extra)
        else:
            images[k] = images[k].scale(Fraction(1, _UNREAD_DENOMINATOR))
    return LinearMapTable(table.algebra, table.window, images)


def test_leibniz_scales_only_the_images_it_reads(monkeypatch):
    """Pairs (i, j) with |i|, |j| <= depth read images up to index 2 depth
    only.  Large denominators and extra shifts beyond that must leave the
    verdict, the first failing pair and its residual as `reference_leibniz`
    has them, and must never reach the integer scaling."""
    scaled = []

    def spy(c):
        scaled.append(max(x.denominator for x in c))
        return integer_parts(c)

    integer_parts = derivations._integer_parts
    monkeypatch.setattr(derivations, "_integer_parts", spy)
    rng = Random(109)
    inner = [
        (ad(parse_element("e_0 + 2*e_1 - 1/3*e_4", Algebra.WPLUS_EXT), Window(1, 60),
            Algebra.WPLUS), 10),
        (ad(parse_element("e_-2 + 1/2*e_0 + e_3", Algebra.WITT), Window(-40, 40)), 6),
        (thin_derivation(ThinDerivationParams(thin("e_1 + 2*e_3"), thin("-e_2 + 1/2*e_4")), 50),
         8),
    ]
    failures = 0
    for table, depth in inner:
        for near in (table, _planted(table, [(2, 7)])):
            far = _beyond_reach(rng, near, depth)
            scaled.clear()
            result = leibniz_check(far, depth)
            got = (result.passed, result.pairs_checked, result.pair, result.residual)
            assert got == reference_leibniz(far, depth)
            assert max(scaled) < _UNREAD_DENOMINATOR
            reached = Window(max(far.window.lo, -2 * depth), min(far.window.hi, 2 * depth))
            shifts = {g - k for k in reached.indices() for g in far.image(k).support()}
            assert len(scaled) == len(shifts)
            failures += not result.passed
    assert failures == 3


def test_leibniz_streams_its_pairs():
    """The pairs are generated, not listed: 10000 pairs at depth 200 peak
    far below the roughly 650 KiB a list of them takes."""
    a = parse_element("e_0 + 2*e_3 - 1/2*e_5 + 3*e_8", Algebra.WPLUS_EXT)
    table = ad(a, Window(1, 200), Algebra.WPLUS)
    tracemalloc.start()
    try:
        result = leibniz_check(table, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and result.pairs_checked == 10000
    assert peak < 128 * 1024


def _brute_live(algebra, shifts, rows):
    """Every pair of rows with K(i,j), K(i+s,j) or K(i,j+s) nonzero at a shift."""
    K = algebra.constant
    return [
        (i, j) for i, js in rows for j in js
        if any(K(i, j) or K(i + s, j) or K(i, j + s) for s in shifts)
    ]


def test_live_pairs_keep_every_live_pair_in_order():
    """`_live_pairs` keeps each pair whose residual can be nonzero, on the
    rows of `leibniz_pairs` and of the cross relations of a truncation n
    (wplus: 2 <= i < j, i + j <= n; thin: 2 <= i < j <= n), in strict
    lexicographic order; it never invents a pair.  On witt and wplus it keeps
    them all."""
    rng = Random(131)
    cases = []
    for algebra, win in ((Algebra.THIN, Window(1, 70)), (Algebra.WPLUS, Window(1, 40))):
        for n in (3, 9, 41, 70):
            cases.append((algebra, [(i, range(i + 1, (n if algebra is Algebra.THIN else n - i) + 1))
                                    for i in range(2, n + 1)]))
        for depth in (1, 2, 5, 17, 40):
            cases.append((algebra, derivations.leibniz_pairs(win, depth)))
    cases.append((Algebra.WITT, derivations.leibniz_pairs(Window(-12, 15), 9)))
    thin_live = 0
    for algebra, rows in cases:
        every = [(i, j) for i, js in rows for j in js]
        for shifts in ([], [0], [-40], list(range(-40, 41))) + tuple(
            rng.sample(range(-40, 41), rng.randint(1, 6)) for _ in range(6)
        ):
            live = list(derivations._live_pairs(algebra, shifts, rows))
            assert all(a < b for a, b in zip(live, live[1:]))
            assert set(live) <= set(every)
            assert set(_brute_live(algebra, shifts, rows)) <= set(live)
            if algebra is Algebra.THIN:
                thin_live += len(live)
            else:
                assert live == every
    assert thin_live > 1000


def _thin_with_defects(rng, n):
    """A thin derivation on 1:n with terms planted below the diagonal
    (D(e_k) = ... + c e_g, g < k: negative shifts, e_1 the most common)."""
    alpha = Element(Algebra.THIN, {i: rand_rational(rng, 4, 5) for i in range(1, 5)})
    beta = Element(Algebra.THIN, {i: rand_rational(rng, 4, 5) for i in range(2, 6)})
    table = thin_derivation(ThinDerivationParams(alpha, beta), n)
    images = dict(table.images)
    for k in rng.sample(range(2, n + 1), rng.randint(0, 4)):
        g = 1 if rng.random() < 0.5 else rng.randint(1, k - 1)
        images[k] = images[k] + Element(Algebra.THIN, {g: rand_rational(rng, 5, 7, False)})
    return LinearMapTable(Algebra.THIN, table.window, images)


def test_thin_leibniz_with_negative_shifts_matches_reference():
    """Defects at negative shifts only show at pairs with i or j in
    {1, 1 - s}; the verdict, pair count, first failing pair and residual
    must be those of `reference_leibniz`."""
    rng = Random(137)
    failures = negative = 0
    for _ in range(40):
        table = _thin_with_defects(rng, rng.randint(4, 24))
        negative += any(g < k for k in table.window.indices() for g in table.image(k).support())
        for depth in (1, 2, rng.randint(3, 12), 24):
            result = leibniz_check(table, depth)
            got = (result.passed, result.pairs_checked, result.pair, result.residual)
            assert got == reference_leibniz(table, depth)
            failures += not result.passed
    assert negative > 25 and failures > 40


# -- generator extension ------------------------------------------------------


def test_extend_reproduces_scaling_derivation():
    out = extend_from_generators(
        Algebra.WPLUS, wplus("e_1"), wplus("2*e_2"), 10
    )
    assert isinstance(out, LinearMapTable)
    expected = ad(Element.basis(Algebra.WPLUS_EXT, 0), Window(1, 10), Algebra.WPLUS)
    for k in range(1, 11):
        assert out.image(k) == expected.image(k)


def test_extend_thin_tail_identity():
    out = extend_from_generators(Algebra.THIN, thin("0"), thin("e_2"), 12)
    assert isinstance(out, LinearMapTable)
    assert out.image(1).is_zero()
    for j in range(2, 13):
        assert out.image(j) == Element.basis(Algebra.THIN, j)


def test_extend_detects_inconsistency():
    out = extend_from_generators(Algebra.WPLUS, wplus("e_2"), wplus("0"), 10)
    assert isinstance(out, InconsistentExtension)
    assert out.relation == (2, 3)
    assert out.residual == wplus("4/3*e_6")
    assert out.describe() == "inconsistent at (2, 3): residual = 4/3*e_6"


def test_extend_input_guards():
    with pytest.raises(ValueError, match="^truncation must be at least 3$"):
        extend_from_generators(Algebra.WPLUS, wplus("e_2"), wplus("e_3"), 2)
    with pytest.raises(MixedAlgebras, match="^generator images must live in the target algebra$"):
        extend_from_generators(Algebra.WPLUS, wplus("e_2"), thin("e_3"), 10)
    with pytest.raises(MixedAlgebras):
        extend_from_generators(Algebra.THIN, wplus("e_2"), thin("e_3"), 10)


def test_extend_reproduces_inner_maps():
    rng = Random(31)
    for _ in range(25):
        a = rand_element(rng, Algebra.WPLUS_EXT, range(0, 6))
        img1 = bracket(a, Element.basis(Algebra.WPLUS_EXT, 1)).in_algebra(Algebra.WPLUS)
        img2 = bracket(a, Element.basis(Algebra.WPLUS_EXT, 2)).in_algebra(Algebra.WPLUS)
        out = extend_from_generators(Algebra.WPLUS, img1, img2, 15)
        assert isinstance(out, LinearMapTable)
        reference = ad(a, Window(1, 15), Algebra.WPLUS)
        for k in range(1, 16):
            assert out.image(k) == reference.image(k)


def test_extend_sums_residual_over_failing_shifts():
    # every inconsistent shift of a wplus extension first fails at (2, 3), so
    # defects at the later shifts 2 and 3 (shift 0 comes first and passes)
    # must both show in the residual of that relation
    a = parse_element("e_0 + e_2 + e_3", Algebra.WPLUS_EXT)
    img1, img2 = (
        bracket(a, Element.basis(Algebra.WPLUS_EXT, k)).in_algebra(Algebra.WPLUS) for k in (1, 2)
    )
    img2 = img2 + wplus("e_4 + e_5")
    out = extend_from_generators(Algebra.WPLUS, img1, img2, 12)
    assert isinstance(out, InconsistentExtension)
    assert (out.relation, out.residual) == reference_extension(Algebra.WPLUS, img1, img2, 12)[1]
    assert out.relation == (2, 3) and out.residual.support() == [7, 8]


def derivation_generator_images(rng, algebra):
    """Generator images of a random derivation spread over several shifts."""
    if algebra is Algebra.WPLUS:
        a = rand_element(rng, Algebra.WPLUS_EXT, range(0, 6), max_terms=4)
        return tuple(
            bracket(a, Element.basis(Algebra.WPLUS_EXT, k)).in_algebra(algebra) for k in (1, 2)
        )
    alpha = {rng.randint(1, 6): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
    beta = {rng.randint(2, 7): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
    d = thin_derivation(ThinDerivationParams(Element(Algebra.THIN, alpha),
                                             Element(Algebra.THIN, beta)), 3)
    return d.image(1), d.image(2)


def test_extend_matches_element_reference():
    rng = Random(59)
    consistent = multi_grade = 0
    for algebra in (Algebra.WPLUS, Algebra.THIN):
        for truncation in range(3, 15):
            for _ in range(12):
                img1, img2 = derivation_generator_images(rng, algebra)
                if rng.random() < 0.6:
                    img1 = img1 + rand_element(rng, algebra, range(1, 7), max_terms=2)
                    img2 = img2 + rand_element(rng, algebra, range(1, 8), max_terms=2)
                images, failure = reference_extension(algebra, img1, img2, truncation)
                out = extend_from_generators(algebra, img1, img2, truncation)
                if failure is None:
                    assert isinstance(out, LinearMapTable)
                    assert out.images == images
                    consistent += 1
                else:
                    assert isinstance(out, InconsistentExtension)
                    assert (out.relation, out.residual) == failure
                    multi_grade += len(failure[1].support()) > 1
    assert consistent > 50 and multi_grade > 20


def test_thin_extend_matches_reference():
    """Thin generator images, an e_1 term in the e_2 image (shift -1) among
    them, extend or fail exactly as `reference_extension` says."""
    rng = Random(139)
    consistent = inconsistent = 0
    for _ in range(60):
        img1 = rand_element(rng, Algebra.THIN, range(1, 7), max_terms=3)
        img2 = rand_element(rng, Algebra.THIN, range(1 + (rng.random() < 0.4), 8), max_terms=3)
        truncation = rng.randint(3, 30)
        images, failure = reference_extension(Algebra.THIN, img1, img2, truncation)
        out = extend_from_generators(Algebra.THIN, img1, img2, truncation)
        if failure is None:
            assert isinstance(out, LinearMapTable) and out.images == images
            consistent += 1
        else:
            assert (out.relation, out.residual) == failure
            inconsistent += 1
    assert consistent > 10 and inconsistent > 10
    for truncation in (3, 40):
        expected = reference_extension(Algebra.THIN, thin("e_1"), thin("e_1"), truncation)[1]
        out = extend_from_generators(Algebra.THIN, thin("e_1"), thin("e_1"), truncation)
        assert (out.relation, out.residual) == expected
    out = extend_from_generators(Algebra.THIN, thin("e_1"), thin("e_1"), 500)
    assert out.describe() == "inconsistent at (2, 3): residual = -e_4"


def test_thin_solve_and_extend_work_is_linear(monkeypatch):
    """The thin solve, which has no live row, and the thin extension, which
    tabulates the closed form of `ThinDerivationParams.image_terms`,
    evaluate no structure constant."""
    calls = _recorded(monkeypatch, "_thin_constant", algebras)
    space = derivation_space_basis(Algebra.THIN, 64)
    assert space.dim == 127
    assert calls == []
    img1, img2 = thin("e_1 + 2/7*e_3"), thin("e_2 - 1/5*e_4")
    out = extend_from_generators(Algebra.THIN, img1, img2, 1000)
    assert isinstance(out, LinearMapTable)
    assert calls == []


# -- derivation space ---------------------------------------------------------


def test_thin_space_dimensions():
    assert derivation_space_basis(Algebra.THIN, 1).dim == 1
    assert derivation_space_basis(Algebra.THIN, 4).dim == 7
    space = derivation_space_basis(Algebra.THIN, 1)
    assert space.coordinates == ["alpha_1"]


def test_wplus_space_is_inner():
    space = derivation_space_basis(Algebra.WPLUS, 5)
    assert space.dim == 5
    witnesses = []
    for vec in space.space.basis:
        e1, e2 = space.generator_images(vec)
        table = extend_from_generators(Algebra.WPLUS, e1, e2, 15)
        assert isinstance(table, LinearMapTable)
        witnesses.append(recover_inner_wplus(table))
    for a in witnesses:
        assert set(a.support()) <= set(range(0, 5))


def test_thin_space_solutions_match_parametrized_family():
    space = derivation_space_basis(Algebra.THIN, 4)
    depth = 2 * 4 + 3
    for vec in space.space.basis:
        e1, e2 = space.generator_images(vec)
        params = ThinDerivationParams.from_generator_images(e1, e2)
        direct = thin_derivation(params, depth)
        extended = extend_from_generators(Algebra.THIN, e1, e2, depth)
        assert isinstance(extended, LinearMapTable)
        assert direct == extended == reference_extension_table(Algebra.THIN, e1, e2, depth)


@pytest.mark.parametrize("algebra", [Algebra.WPLUS, Algebra.THIN])
def test_space_invariant_under_deeper_consistency(algebra):
    """The solve, which reads no depth, is the reference space both at the
    minimal depth 2n + 3 and at the deeper 2n + 9."""
    for n in range(1, 7):
        space = derivation_space_basis(algebra, n)
        for depth in (2 * n + 3, 2 * n + 9):
            names, reference = reference_derivation_space(algebra, n, depth)
            assert space.coordinates == names
            assert space.space == reference


@pytest.mark.parametrize("algebra", [Algebra.WPLUS, Algebra.THIN])
def test_space_matches_fraction_reference(algebra):
    for n in range(1, 17):
        space = derivation_space_basis(algebra, n)
        for depth in (2 * n + 3, 2 * n + 4, 2 * n + 9):
            names, reference = reference_derivation_space(algebra, n, depth)
            assert space.coordinates == names
            assert space.space.basis == reference.basis


@pytest.mark.parametrize("algebra", [Algebra.WPLUS, Algebra.THIN])
def test_space_matches_sympy_nullspace_of_block_rows(algebra):
    """Each shift block's rows, one per cross relation, are the residuals of
    its unit sequences built in Fractions from the written-out bracket rule
    and never reduced.  sympy's nullspaces of those blocks, put together and
    brought to reduced echelon form, are the solver's canonical basis; thin's
    beta_1 comes out zero in every block."""
    sympy = pytest.importorskip("sympy")
    rule = basis_rule(algebra)

    def constant(i, j):
        return sum(c for _, c in rule(i, j))

    for n in range(1, 7):
        space = derivation_space_basis(algebra, n)
        depth, position = 2 * n + 3, {name: p for p, name in enumerate(space.coordinates)}
        relations = [
            (i, j)
            for i in range(2, depth + 1)
            for j in range(i + 1, depth + 1)
            if algebra is Algebra.THIN or i + j <= depth
        ]
        vectors = []
        for s in range(-1, n):
            names = [f"alpha_{1 + s}", f"beta_{2 + s}"]
            unknowns = [t for t, name in enumerate(names) if name in position or name == "beta_1"]
            columns = []
            for t in unknowns:
                c = [Fraction(0), Fraction(t == 0), Fraction(t == 1)]
                for k in range(3, depth + 1):
                    forced = c[1] * constant(1 + s, k - 1) + c[k - 1] * constant(1, k - 1 + s)
                    c.append(forced / constant(1, k - 1))
                columns.append([
                    sum(coef * c[h] for h, coef in rule(i, j))
                    - c[i] * constant(i + s, j) - c[j] * constant(i, j + s)
                    for i, j in relations
                ])
            block = sympy.Matrix(len(relations), len(unknowns), lambda r, t: columns[t][r])
            for null in block.nullspace():
                entries = {names[t]: x for t, x in zip(unknowns, null) if x}
                assert set(entries) <= set(position), (n, s, entries)
                vectors.append([entries.get(name, 0) for name in space.coordinates])
        rref = sympy.Matrix(vectors).rref()[0]
        expected = [
            SparseVector({p: Fraction(int(x.p), int(x.q)) for p, x in enumerate(rref.row(r))})
            for r in range(len(vectors))
        ]
        assert space.space.basis == expected


def test_space_blocks_are_the_inner_lines():
    """Without the reference solver: the wplus space at n is spanned by the
    inner lines (1 - s) alpha_{s+1} + (2 - s) beta_{s+2}, s = 0..n-1, and
    the thin space by the unit vectors of its coordinates, which never
    include beta_1."""
    for n in range(1, 65):
        space = derivation_space_basis(Algebra.WPLUS, n)
        assert space.coordinates == [f"alpha_{i}" for i in range(1, n + 1)] + [
            f"beta_{i}" for i in range(1, n + 2)]
        position = {name: p for p, name in enumerate(space.coordinates)}
        lines = [SparseVector({position[f"alpha_{s + 1}"]: 1 - s, position[f"beta_{s + 2}"]: 2 - s})
                 for s in range(n)]
        assert space.space.basis == reference_span(lines).basis, n
        space = derivation_space_basis(Algebra.THIN, n)
        assert space.coordinates == [f"alpha_{i}" for i in range(1, n + 1)] + [
            f"beta_{i}" for i in range(2, n + 1)]
        units = [SparseVector.unit(p) for p in range(len(space.coordinates))]
        assert space.space.basis == reference_span(units).basis, n


def test_space_depth_validation():
    for algebra in (Algebra.WPLUS, Algebra.THIN):
        with pytest.raises(ValueError, match="^support bound must be at least 1$"):
            derivation_space_basis(algebra, 0)


# -- index-polynomial certificate ---------------------------------------------


def _recorded(monkeypatch, name, module=derivations):
    """The argument tuples of every call of <module>.<name>."""
    calls = []
    original = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def _part_table(algebra, window, parts):
    """D(e_k) = sum over parts {s: c} of c(k) e_{k+s}, terms outside the
    domain dropped."""
    images = {
        k: Element(algebra, {k + s: c(k) for s, c in parts.items() if algebra.contains_index(k + s)})
        for k in window.indices()
    }
    return LinearMapTable(algebra, window, images)


def _seeded_parts(rng, kind):
    """One to three shift parts c_s(k): inner (a_s (k - s), what ad(a) has),
    affine (alpha + beta k) or neither (inner plus one planted defect)."""
    parts = {}
    for s in rng.sample(range(-3, 5), rng.randint(1, 3)):
        a, alpha, beta = (rand_rational(rng, 4, 3, allow_zero=False) for _ in range(3))
        if kind == "affine":
            parts[s] = lambda k, alpha=alpha, beta=beta: alpha + beta * k
        elif kind == "defect":
            p = rng.randint(-12, 14)
            parts[s] = lambda k, a=a, s=s, p=p: a * (k - s) + (k == p)
        else:
            parts[s] = lambda k, a=a, s=s: a * (k - s)
    return parts


_CERTIFICATE_WINDOWS = [
    (Algebra.WITT, Window(-7, 7)), (Algebra.WITT, Window(-12, -1)),
    (Algebra.WITT, Window(-3, -2)), (Algebra.WITT, Window(-1, 0)), (Algebra.WITT, Window(0, 0)),
    (Algebra.WPLUS, Window(1, 14)), (Algebra.WPLUS, Window(1, 2)), (Algebra.WPLUS, Window(1, 1)),
    (Algebra.WPLUS_EXT, Window(0, 14)), (Algebra.WPLUS_EXT, Window(0, 1)),
    (Algebra.THIN, Window(1, 12)), (Algebra.THIN, Window(1, 2)),
]


@pytest.mark.parametrize("certified", [True, False], ids=["certificate", "fallback"])
def test_leibniz_certificate_matches_reference(monkeypatch, certified):
    """Seeded inner, affine and defective shift parts on all four algebras,
    windows of fewer than three indices and all-negative witt windows among
    them: every result equals `reference_leibniz`, through the certificate
    and with the certificate failing, which forces the pair scan.  The scan
    runs for every failure, and for no certified pass."""
    if not certified:
        monkeypatch.setattr(derivations, "_parts_certified", lambda *args: False)
    scans = _recorded(monkeypatch, "_first_violation")
    rng = Random(151)
    passed = failed = certified_passes = 0
    for algebra, window in _CERTIFICATE_WINDOWS:
        for kind in ("inner", "affine", "defect") * 3:
            table = _part_table(algebra, window, _seeded_parts(rng, kind))
            for depth in (1, 3, 6, 20):
                try:
                    expected = reference_leibniz(table, depth)
                except ValueError:
                    with pytest.raises(TruncationTooSmall):
                        leibniz_check(table, depth)
                    continue
                before = len(scans)
                result = leibniz_check(table, depth)
                assert (result.passed, result.pairs_checked, result.pair,
                        result.residual) == expected
                passed += result.passed
                failed += not result.passed
                certified_passes += len(scans) == before
    assert passed > 100 and failed > 100
    assert certified_passes > 80 if certified else certified_passes == 0


def test_leibniz_certificate_fit_rejects_defect_off_the_grid(monkeypatch):
    """A defect well past the first two indices of an inner table leaves
    d = c[1] - c[0] as ad(a) has it, so only the comparison of the whole
    part with d (k - s) can reject it: the table is not certified, and the
    scan reports `reference_leibniz`'s first failing pair."""
    scans = _recorded(monkeypatch, "_first_violation")
    cases = [
        (Algebra.WPLUS, "e_0 + 2*e_1 - 1/3*e_4", Window(1, 30), 17, 15),
        (Algebra.WITT, "e_-2 + 1/2*e_0 + e_3", Window(-15, 15), 9, 8),
        (Algebra.WITT, "e_-2 + 1/2*e_0 + e_3", Window(-30, -1), -20, 15),
        (Algebra.WPLUS_EXT, "3*e_0 - e_2", Window(0, 30), 12, 15),
    ]
    for algebra, text, window, p, depth in cases:
        a = parse_element(text, Algebra.WITT if algebra is Algebra.WITT else Algebra.WPLUS_EXT)
        table = _planted(ad(a, window, algebra), [(p, p + max(a.support()))])
        expected = reference_leibniz(table, depth)
        assert not expected[0]
        before = len(scans)
        result = leibniz_check(table, depth)
        assert (result.passed, result.pairs_checked, result.pair, result.residual) == expected
        assert len(scans) == before + 1


def test_parts_residual_of_affine_part_is_a_multiple_of_its_value_at_s():
    """For K(i, j) = j - i and c(k) = a + d k, the residual
    K(i,j) c(i+j) - c(i) K(i+s,j) - c(j) K(i,j+s) expands to
    -(j - i) (a + d s), the identity `_parts_certified` rests on."""
    sympy = pytest.importorskip("sympy")
    i, j, s, a, d = sympy.symbols("i j s a d")

    def K(x, y):
        return y - x

    def c(k):
        return a + d * k

    residual = K(i, j) * c(i + j) - c(i) * K(i + s, j) - c(j) * K(i, j + s)
    assert sympy.expand(residual - (-(j - i) * (a + d * s))) == 0


def test_parts_certificate_on_affine_constants():
    """For K a nonzero multiple of the witt K and affine parts, the
    certificate holds exactly when the residual vanishes on every pair of a
    7 x 7 box.  The parts are beta (k - s) + offset, inner when the offset
    is 0, so both verdicts are frequent."""
    rng = Random(163)
    holds = 0
    for _ in range(400):
        m = rng.choice((-3, -2, -1, 1, 2, 3))

        def K(i, j, m=m):
            return m * (j - i)

        first = rng.randint(-4, 4)
        lines = []  # (s, alpha, beta): the part alpha + beta (k - first)
        for s in rng.sample(range(-3, 4), rng.randint(1, 2)):
            beta = rng.randint(-3, 3)
            offset = rng.choice((0, 0, 0, 1, -2))
            lines.append((s, beta * (first - s) + offset, beta))
        parts = [(s, [alpha + beta * t for t in range(rng.randint(2, 9))])
                 for s, alpha, beta in lines]

        def residual(i, j):
            def c(k, alpha, beta):
                return alpha + beta * (k - first)

            return any(K(i, j) * c(i + j, *ab) - c(i, *ab) * K(i + s, j) - c(j, *ab) * K(i, j + s)
                       for s, *ab in lines)

        box = range(first, first + 7)
        on_box = not any(residual(i, j) for i in box for j in box)
        assert derivations._parts_certified(parts, first) == on_box
        holds += on_box
    assert 100 < holds < 300


def test_first_cross_relation_residual_of_shift_parts():
    """The generator recursion c_k = (a K(1+s, k-1) + c_{k-1} K(1, k-1+s)) /
    K(1, k-1) of the part with D(e_1) = a e_{1+s} and D(e_2) = b e_{2+s},
    expanded here with s a symbol, gives every closed form that
    `derivation_space_basis` and `extend_from_generators` read: the
    [e_2, e_3] residual K(2,3) c[5] - c[2] K(2+s,3) - c[3] K(2,3+s) is
    (s^2 + s + 6) ((s - 1) b - (s - 2) a) / 6 on wplus, and s^2 + s + 6 has
    no real root; c_3 and c_4, the images below truncation 5; and
    c_k = (b - a)(k - s) for k <= 8 on the inner line (s - 1) b = (s - 2) a.
    The same recursion under each algebra's own K gives that residual on
    wplus, and on thin -b at s = -1 and 0 for s >= 0, at every block
    s = -1..64 that `der-basis` reaches: this ties the solver's rows, the
    wplus form over its positive factor (s^2 + s + 6) / 6, to the recursion."""
    sympy = pytest.importorskip("sympy")
    s, a, b, d = sympy.symbols("s a b d")

    def part(K, s, top):
        c = [0, a, b]
        for k in range(3, top + 1):
            c.append((a * K(1 + s, k - 1) + c[k - 1] * K(1, k - 1 + s)) / K(1, k - 1))
        return c

    def residual(K, s, c):
        return K(2, 3) * c[5] - c[2] * K(2 + s, 3) - c[3] * K(2, 3 + s)

    def witt(x, y):
        return y - x

    c = part(witt, s, 8)
    wplus = (s**2 + s + 6) * ((s - 1) * b - (s - 2) * a) / 6
    assert sympy.expand(residual(witt, s, c) - wplus) == 0
    assert sympy.discriminant(s**2 + s + 6, s) < 0
    c3 = a * (1 - s) + b * (1 + s)
    assert sympy.expand(c[3] - c3) == 0
    assert sympy.expand(c[4] - (a * (2 - s) + c3 * (2 + s)) / 2) == 0
    line = {a: d * (1 - s), b: d * (2 - s)}  # every (a, b) on the line, with b - a = d
    assert sympy.expand(((s - 1) * b - (s - 2) * a).subs(line)) == 0
    for k in range(1, 9):
        assert sympy.expand(c[k].subs(line) - d * (k - s)) == 0, k
    for algebra in (Algebra.WPLUS, Algebra.THIN):
        K = algebra.constant
        for t in range(-1, DER_BASIS_MAX_SUPPORT + 1):
            form = wplus.subs(s, t) if algebra is Algebra.WPLUS else (-b if t == -1 else 0)
            assert sympy.expand(residual(K, t, part(K, t, 5)) - form) == 0, (algebra, t)


def test_reference_extension_fails_first_at_2_3():
    """`reference_extension`, which scans every cross relation, either
    extends or first fails at (2, 3), on both algebras at truncations
    3..40: why `extend_from_generators` reads that relation alone."""
    rng = Random(167)
    outcomes = {}
    for algebra in (Algebra.WPLUS, Algebra.THIN):
        for truncation in range(3, 41):
            for _ in range(3):
                img1, img2 = derivation_generator_images(rng, algebra)
                if rng.random() < 0.5:
                    img1 = img1 + rand_element(rng, algebra, range(1, 7), max_terms=2)
                    img2 = img2 + rand_element(rng, algebra, range(1, 4), max_terms=2)
                _, failure = reference_extension(algebra, img1, img2, truncation)
                assert failure is None or failure[0] == (2, 3), (algebra, truncation)
                key = algebra, failure is None
                outcomes[key] = outcomes.get(key, 0) + 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 15, outcomes


def test_wplus_extend_certificate_matches_reference(monkeypatch):
    """Inner generator images, some with extra terms, extend or fail exactly
    as `reference_extension` says, which scans every cross relation.  The
    extension scans no pair: it reads the [e_2, e_3] residual and the
    images in closed form, and below truncation 5, where wplus has no cross
    relation, the images alone."""
    scans = _recorded(monkeypatch, "_first_violation")
    rng = Random(157)
    consistent = inconsistent = 0
    for _ in range(80):
        img1, img2 = derivation_generator_images(rng, Algebra.WPLUS)
        if rng.random() < 0.5:
            img1 = img1 + rand_element(rng, Algebra.WPLUS, range(1, 7), max_terms=2)
        truncation = rng.randint(3, 24)
        images, failure = reference_extension(Algebra.WPLUS, img1, img2, truncation)
        out = extend_from_generators(Algebra.WPLUS, img1, img2, truncation)
        assert scans == []
        if failure is None:
            assert isinstance(out, LinearMapTable) and out.images == images
            for image in out.images.values():
                assert_normalised_element(image)
            consistent += 1
        else:
            assert (out.relation, out.residual) == failure
            inconsistent += 1
    assert consistent > 20 and inconsistent > 20


def test_wplus_space_certificate_matches_reference():
    """The wplus solve equals `reference_derivation_space`, which imposes
    every cross relation, for n = 1..12 at depths 2n + 3 and 2n + 10."""
    for n in range(1, 13):
        space = derivation_space_basis(Algebra.WPLUS, n)
        for depth in (2 * n + 3, 2 * n + 10):
            names, reference = reference_derivation_space(Algebra.WPLUS, n, depth)
            assert space.coordinates == names
            assert space.space.basis == reference.basis


def test_certificate_keeps_the_scans_off_the_hot_path(monkeypatch):
    """The wplus and thin solves at n = 64 evaluate no structure constant
    and call no `_first_violation`: each block's row is read off the
    [e_2, e_3] form; an inner `leibniz_check` at depth 200 is certified and
    scans no pair; an inner wplus extension to 1000 reads the [e_2, e_3]
    residual in closed form and scans no pair either."""
    scans = _recorded(monkeypatch, "_first_violation")
    constants = [_recorded(monkeypatch, name, algebras)
                 for name in ("_witt_constant", "_thin_constant")]
    assert derivation_space_basis(Algebra.WPLUS, 64).dim == 64
    assert derivation_space_basis(Algebra.THIN, 64).dim == 127
    assert constants == [[], []]
    assert scans == []
    a = parse_element("e_0 + 2*e_3 - 1/2*e_5", Algebra.WPLUS_EXT)
    table = ad(a, Window(1, 400), Algebra.WPLUS)
    assert leibniz_check(table, 200).passed
    assert scans == []
    images = [bracket(a, Element.basis(Algebra.WPLUS_EXT, k)).in_algebra(Algebra.WPLUS)
              for k in (1, 2)]
    out = extend_from_generators(Algebra.WPLUS, *images, 1000)
    assert out == ad(a, Window(1, 1000), Algebra.WPLUS)
    assert scans == []


# -- inner recovery -----------------------------------------------------------


def test_recover_wplus_examples():
    d = ad(Element.basis(Algebra.WPLUS_EXT, 0), Window(1, 20), Algebra.WPLUS)
    assert recover_inner_wplus(d) == Element.basis(Algebra.WPLUS_EXT, 0)
    zero = zero_table(Algebra.WPLUS, Window(1, 10))
    assert recover_inner_wplus(zero).is_zero()
    a = Element(Algebra.WPLUS_EXT, {2: -1})
    d = ad(a, Window(1, 11), Algebra.WPLUS)
    assert d.image(1) == wplus("e_3")
    assert d.image(2).is_zero()
    assert recover_inner_wplus(d) == a


def test_recover_wplus_round_trip():
    rng = Random(37)
    for _ in range(60):
        a = rand_element(rng, Algebra.WPLUS_EXT, range(0, 11), max_num=9, max_den=9)
        hi = 2 * (a.support_bound() + 2) + 3
        d = ad(a, Window(1, hi), Algebra.WPLUS)
        assert recover_inner_wplus(d) == a


def test_recover_wplus_rejects_non_derivations():
    base = ad(Element.basis(Algebra.WPLUS_EXT, 0), Window(1, 12), Algebra.WPLUS)
    images = dict(base.images)
    images[1] = images[1] + wplus("e_2")  # no derivation sends e_1 there
    bad = LinearMapTable(Algebra.WPLUS, base.window, images)
    with pytest.raises(NotADerivation):
        recover_inner_wplus(bad)


def test_recover_wplus_truncation_guard():
    a = Element(Algebra.WPLUS_EXT, {5: 1})
    d = ad(a, Window(1, 10), Algebra.WPLUS)  # images reach grade 7
    with pytest.raises(TruncationTooSmall):
        recover_inner_wplus(d)


def test_recover_witt_round_trip():
    rng = Random(41)
    for _ in range(60):
        a = rand_element(rng, Algebra.WITT, range(-8, 9), max_num=9, max_den=9)
        d = ad(a, Window(-20, 20))
        assert recover_inner_witt(d) == a


def test_recover_witt_examples():
    a = parse_element("e_2 + e_-1", Algebra.WITT)
    assert recover_inner_witt(ad(a, Window(-15, 15))) == a
    zero = zero_table(Algebra.WITT, Window(-3, 3))
    assert recover_inner_witt(zero).is_zero()
    scaled = ad(parse_element("5*e_0", Algebra.WITT), Window(-6, 6))
    assert scaled.image(1) == parse_element("5*e_1", Algebra.WITT)
    assert recover_inner_witt(scaled) == parse_element("5*e_0", Algebra.WITT)


def test_recover_witt_guards():
    with pytest.raises(TruncationTooSmall):
        recover_inner_witt(zero_table(Algebra.WITT, Window(-3, 4)))
    images = {i: Element.zero(Algebra.WITT) for i in range(-3, 4)}
    images[0] = parse_element("e_0", Algebra.WITT)
    with pytest.raises(NotADerivation):
        recover_inner_witt(LinearMapTable(Algebra.WITT, Window(-3, 3), images))
    witt_table = ad(parse_element("e_1", Algebra.WITT), Window(-6, 6))
    wplus_table = ad(Element.basis(Algebra.WPLUS, 1), Window(1, 6))
    with pytest.raises(MixedAlgebras, match="^expected a witt table, got wplus$"):
        recover_inner_witt(wplus_table)
    with pytest.raises(MixedAlgebras, match="^expected a wplus table, got witt$"):
        recover_inner_wplus(witt_table)


def _recovery_outcome(recover, table):
    try:
        return recover(table)
    except NotADerivation as exc:
        return f"NotADerivation: {exc}"


def _one_term_off(rng, table, a, domain):
    """The table with one term deleted from one image, or with one term added
    at a shift where a has no term."""
    images = dict(table.images)
    filled = [k for k, image in images.items() if not image.is_zero()]
    if filled and rng.random() < 0.5:
        k = rng.choice(filled)
        g = rng.choice(images[k].support())
        images[k] = images[k] - Element(table.algebra, {g: images[k].coefficient(g)})
    else:
        k = rng.choice(list(table.window.indices()))
        grades = [k + s for s in range(-6, 12) if k + s in domain and s not in a.support()]
        c = rand_rational(rng, 5, 7, allow_zero=False)
        images[k] = images[k] + Element(table.algebra, {rng.choice(grades): c})
    return LinearMapTable(table.algebra, table.window, images)


def test_recover_inner_matches_bracket_reference():
    """Round trips, tables with terms added (`_perturbed`), and tables one term
    off [a, -]: a term missing, or one at a shift a lacks, which only a term
    count can catch."""
    rng = Random(71)
    compared = mismatches = 0
    cases = [
        (recover_inner_wplus, Algebra.WPLUS, Window(1, 25), range(0, 6), range(1, 40)),
        (recover_inner_witt, Algebra.WITT, Window(-12, 12), range(-5, 6), range(-40, 40)),
    ]
    for recover, algebra, win, support, domain in cases:
        home = Algebra.WPLUS_EXT if algebra is Algebra.WPLUS else algebra
        for n in range(80):
            a = rand_element(rng, home, support, max_num=9, max_den=9)
            table = ad(a, win, algebra)
            if n >= 40:
                table = _one_term_off(rng, table, a, domain)
            elif rng.random() < 0.7:
                table = _perturbed(rng, table, domain)
            try:
                got = _recovery_outcome(recover, table)
            except TruncationTooSmall:
                continue
            assert got == _recovery_outcome(reference_recover_inner, table)
            compared += 1
            mismatches += isinstance(got, str) and "mismatch at" in got
    assert compared > 140 and mismatches > 100


def test_recover_inner_memory_is_linear_in_the_map():
    """Images are compared with [a, e_k] in place: no shifts x window split.
    Both tables have about 2000 shifts over about 2000 indices."""
    d0 = Element(Algebra.WITT, {j: 1 for j in range(-1000, 1001) if j})
    images = {k: Element.zero(Algebra.WITT) for k in range(-1000, 1001)}
    witt = LinearMapTable(Algebra.WITT, Window(-1000, 1000), {**images, 0: d0})
    doubling = LinearMapTable(
        Algebra.WPLUS, Window(1, 2000),
        {k: Element.basis(Algebra.WPLUS, 2 * k) for k in range(1, 2001)},
    )
    for recover, table, first_bad in (
        (recover_inner_witt, witt, -1000),
        (recover_inner_wplus, doubling, 1),
    ):
        tracemalloc.start()
        try:
            outcome = _recovery_outcome(recover, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outcome == f"NotADerivation: table is not inner: mismatch at e_{first_bad}"
        assert peak < 4 * 1024 * 1024


# -- the thin family ----------------------------------------------------------


def test_thin_derivation_scaling_params():
    d = thin_derivation(ThinDerivationParams(thin("e_1"), thin("0")), 10)
    assert d.image(1) == thin("e_1")
    assert d.image(2).is_zero()
    assert d.image(3) == thin("e_3")
    assert d.image(4) == thin("2*e_4")
    assert leibniz_check(d, 10).passed


def test_thin_derivation_shift_params():
    d = thin_derivation(ThinDerivationParams(thin("0"), thin("e_3")), 10)
    assert d.image(1).is_zero()
    assert d.image(2) == thin("e_3")
    for j in range(3, 11):
        assert d.image(j) == Element.basis(Algebra.THIN, j + 1)


def test_thin_derivation_zero_params():
    d = thin_derivation(ThinDerivationParams(thin("0"), thin("0")), 5)
    assert all(d.image(j).is_zero() for j in range(1, 6))


def test_thin_derivation_random_params_pass_leibniz():
    rng = Random(43)
    for _ in range(30):
        alpha = {rng.randint(1, 6): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
        beta = {rng.randint(2, 6): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)}
        d = thin_derivation(ThinDerivationParams(Element(Algebra.THIN, alpha),
                                                 Element(Algebra.THIN, beta)), 15)
        assert leibniz_check(d, 15).passed


def test_thin_params_validation():
    """An image is an `Element`, so an index-0 term is refused as it is
    built; the params refuse an e_1 term in D(e_2) and a non-thin image."""
    with pytest.raises(IndexOutOfDomain, match="^index 0 not in the thin index domain$"):
        ThinDerivationParams(Element(Algebra.THIN, {0: 1}), thin("0"))
    for make in (ThinDerivationParams, ThinDerivationParams.from_generator_images):
        with pytest.raises(NotADerivation,
                           match="^the e_2 image of a thin derivation has no e_1 component$"):
            make(thin("e_1"), thin("e_1 + e_2"))
        for alpha, beta in [(wplus("e_1"), thin("0")), (thin("e_1"), wplus("e_2"))]:
            with pytest.raises(MixedAlgebras):
                make(alpha, beta)
    with pytest.raises(ValueError, match="^truncation must be at least 3$"):
        thin_derivation(ThinDerivationParams(thin("0"), thin("0")), 2)


def test_thin_params_drop_zeros_and_repr():
    params = ThinDerivationParams(Element(Algebra.THIN, {1: 2, 3: 0}),
                                  Element(Algebra.THIN, {2: Fraction(1, 2), 4: 0}))
    assert params == ThinDerivationParams(thin("2*e_1"), thin("1/2*e_2"))
    assert params == ThinDerivationParams.from_generator_images(thin("2*e_1"), thin("1/2*e_2"))
    assert params != ThinDerivationParams(thin("2*e_1"), thin("0"))
    zero = ThinDerivationParams(thin("0"), thin("0"))
    assert ThinDerivationParams(thin("0*e_5"), thin("0*e_6")) == zero
    assert repr(params) == (
        "ThinDerivationParams(alpha=Element(thin, '2*e_1'), beta=Element(thin, '1/2*e_2'))"
    )


def test_thin_params_cannot_change_after_validation():
    """`thin_derivation` wraps the images' terms unchecked, so neither the
    fields nor the images they hold may change once `__init__` has
    validated them."""
    params = ThinDerivationParams(thin("e_1"), thin("0"))
    with pytest.raises(AttributeError):
        params.alpha = Element(Algebra.WITT, {0: 1})
    with pytest.raises(AttributeError):
        del params.beta
    with pytest.raises(TypeError):
        params.alpha[0] = 1
    with pytest.raises(TypeError):
        hash(params)
    assert thin_derivation(params, 3).image(1) == thin("e_1")


def test_elements_and_vectors_cannot_change():
    """`Element` and `SparseVector` slots are read-only as well, so the images
    a `ThinDerivationParams` holds cannot take terms outside thin either."""
    params = ThinDerivationParams(thin("0"), thin("0"))
    with pytest.raises(AttributeError):
        params.alpha.coeffs = SparseVector({0: 1})
    with pytest.raises(AttributeError):
        Element.basis(Algebra.THIN, 1).algebra = Algebra.WITT
    with pytest.raises(AttributeError):
        del params.beta.algebra
    vec = SparseVector({1: 2})
    with pytest.raises(AttributeError):
        vec._entries = {0: Fraction(1)}
    with pytest.raises(AttributeError):
        del vec._entries
    assert thin_derivation(params, 3).image(1) == thin("0") and vec == SparseVector({1: 2})
    # every construction route writes its slots past the guard, and only once
    trusted = SparseVector._trusted({2: Fraction(3)})
    unit = SparseVector.unit(4)
    wrapped = Element._trusted(Algebra.THIN, unit)
    window = Window(2, 5)
    for obj, name in ((trusted, "_entries"), (unit, "_entries"), (wrapped, "coeffs"),
                      (wrapped, "algebra"), (window, "lo"), (window, "hi")):
        with pytest.raises(AttributeError, match=f"cannot set or delete '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot set or delete '{name}'"):
            delattr(obj, name)
    assert (trusted.items(), unit.items()) == ([(2, 3)], [(4, 1)])
    assert (wrapped, (window.lo, window.hi)) == (thin("e_4"), (2, 5))


def test_spans_and_tables_cannot_change():
    """`Subspace` and `LinearMapTable` carry the same read-only guard, so a
    canonical basis or a table's window cannot be swapped after `__init__`
    has checked them."""
    space = Subspace([SparseVector({1: 2, 3: 4})])
    table = zero_table(Algebra.WPLUS, Window(1, 3))
    for obj, name, value in ((space, "basis", []), (table, "window", Window(5, 9)),
                             (table, "images", {}), (table, "algebra", Algebra.WITT)):
        with pytest.raises(AttributeError, match=f"cannot set or delete '{name}'"):
            setattr(obj, name, value)
        with pytest.raises(AttributeError, match=f"cannot set or delete '{name}'"):
            delattr(obj, name)
    assert space.basis == [SparseVector({1: 1, 3: 2})]
    assert table == zero_table(Algebra.WPLUS, Window(1, 3)) and table.window == Window(1, 3)


# -- inner image directly from structure constants ----------------------------


def inner_image(a, j):
    return bracket(a, Element.basis(Algebra.WPLUS_EXT, j))


def test_inner_image_examples():
    ext = Algebra.WPLUS_EXT
    assert inner_image(parse_element("-e_0", ext), 4) == parse_element("-4*e_4", ext)
    assert inner_image(Element.zero(ext), 3).is_zero()
    assert inner_image(parse_element("-e_1", ext), 3) == parse_element("-2*e_4", ext)


def test_inner_image_matches_direct_expansion():
    # for a = -sum alpha_i e_i the image at e_j is -sum alpha_i (j-i) e_{i+j};
    # the grade-shifted variant sum alpha_i (j+1-i) e_{i+j-1} is a different
    # map and must disagree for generic coefficients
    alphas = {0: Fraction(1), 1: Fraction(2), 3: Fraction(-1, 2)}
    a = Element(Algebra.WPLUS_EXT, {i: -c for i, c in alphas.items()})
    for j in range(1, 8):
        direct = Element(
            Algebra.WPLUS_EXT, {i + j: -c * (j - i) for i, c in alphas.items()}
        )
        assert inner_image(a, j) == direct
        shifted = Element(
            Algebra.WPLUS_EXT,
            {i + j - 1: c * (j + 1 - i) for i, c in alphas.items() if i >= 1},
        )
        assert shifted != direct


# -- JSON wire format ---------------------------------------------------------


def test_table_json_round_trip():
    rng = Random(47)
    a = rand_element(rng, Algebra.WITT, range(-4, 5))
    table = ad(a, Window(-6, 6))
    again = table_from_json(table_to_json(table))
    assert again == table


_BIG = [2**64, 2**64 + 1, -(2**64) - 3, 10**30, Fraction(2**70 + 1, 3), Fraction(-7, 2**65)]
_JSON_COEFFS = st.one_of(st.fractions(max_denominator=10**4), st.integers(-10, 10),
                         st.sampled_from(_BIG))
_JSON_WINDOWS = {  # witt windows cross 0; images reach indices outside the window
    Algebra.WITT: (st.integers(-6, 0), st.integers(-30, 30)),
    Algebra.WPLUS: (st.integers(1, 5), st.integers(1, 30)),
    Algebra.WPLUS_EXT: (st.integers(0, 5), st.integers(0, 30)),
    Algebra.THIN: (st.integers(1, 5), st.integers(1, 30)),
}


@st.composite
def _json_tables(draw):
    algebra = draw(st.sampled_from(list(_JSON_WINDOWS)))
    lows, indices = _JSON_WINDOWS[algebra]
    lo = draw(lows)
    window = Window(lo, lo + draw(st.integers(0, 8)))
    terms = st.dictionaries(indices, _JSON_COEFFS, max_size=4)  # often empty
    images = {k: Element(algebra, draw(terms)) for k in window.indices()}
    return LinearMapTable(algebra, window, images)


@settings(derandomize=True, max_examples=300)
@given(_json_tables())
def test_table_json_text_matches_json_dumps(table):
    """The JSON text writer has the bytes of indented `json.dumps` on the
    `table_to_json` dict, for images given as `coeffs.items()` lists or as
    index-ascending dict items."""
    expected = json.dumps(table_to_json(table), indent=2)
    images = [image.coeffs.items() for image in table.images.values()]
    assert derivations.table_json_text(table.algebra, table.window, images) == expected
    images = (dict(terms).items() for terms in images)
    assert derivations.table_json_text(table.algebra, table.window, images) == expected


def test_table_json_matches_sparse_vector_construction():
    """`table_from_json` wraps each image's summed terms unchecked; the
    result must equal the public `SparseVector(...)` of the same terms:
    repeated indices add, zero literals and cancelled sums vanish."""
    rng = Random(53)
    literals = ["0", "-0", "0/7", "1", "-1", "12", "-3", "2/4", "-6/3", "5/1", "7/9"]
    for _ in range(60):
        top = rng.randint(1, 8)
        images, expected = {}, {}
        for k in range(1, top + 1):
            terms = [[rng.randint(1, 12), rng.choice(literals)] for _ in range(rng.randint(0, 6))]
            if terms and rng.random() < 0.3:  # the first term again, negated
                idx, lit = terms[0]
                terms.append([idx, lit[1:] if lit.startswith("-") else "-" + lit])
            sums = {}
            for idx, lit in terms:
                sums[idx] = sums.get(idx, 0) + Fraction(lit)
            images[str(k)] = terms
            expected[k] = Element(Algebra.WPLUS, SparseVector(sums))
        doc = {"algebra": "wplus", "truncation": {"min": 1, "max": top}, "images": images}
        table = table_from_json(doc)
        assert table.images == expected
        for image in table.images.values():
            assert_normalised_element(image)


def test_table_json_errors():
    table = ad(Element.basis(Algebra.WPLUS, 1), Window(1, 4))
    doc = table_to_json(table)
    missing = {**doc, "images": {k: v for k, v in doc["images"].items() if k != "2"}}
    with pytest.raises(ParseError):
        table_from_json(missing)
    extra = {**doc, "images": {**doc["images"], "9": []}}
    with pytest.raises(ParseError):
        table_from_json(extra)
    with pytest.raises(ParseError):
        table_from_json({**doc, "algebra": "virasoro"})
    with pytest.raises(ParseError):
        table_from_json([1, 2, 3])


def _wplus_doc():
    return table_to_json(ad(Element.basis(Algebra.WPLUS, 1), Window(1, 4)))


def test_table_json_missing_keys_are_counted():
    doc = table_to_json(ad(Element.basis(Algebra.WPLUS, 1), Window(1, 20)))
    prefix = "image keys missing inside the truncation 1:20, first"
    for kept, message in [
        (("1", "3"), f"18 of 20 {prefix} [2, 4, 5, 6, 7]"),
        (set(doc["images"]) - {"20"}, f"1 of 20 {prefix} [20]"),
    ]:
        images = {k: v for k, v in doc["images"].items() if k in kept}
        with pytest.raises(ParseError) as info:
            table_from_json({**doc, "images": images})
        assert str(info.value) == message


def test_table_json_rejects_non_canonical_keys():
    doc = _wplus_doc()
    images = doc["images"]
    aliased = {**doc, "images": {**images, "01": images["1"]}}
    with pytest.raises(ParseError, match="non-canonical image key '01'"):
        table_from_json(aliased)
    # "1_0" is int("1_0") == 10
    long_doc = table_to_json(ad(Element.basis(Algebra.WPLUS, 1), Window(1, 10)))
    underscored = dict(long_doc["images"])
    underscored["1_0"] = underscored.pop("10")
    with pytest.raises(ParseError, match="non-canonical image key '1_0'"):
        table_from_json({**long_doc, "images": underscored})
    for key in (" 2", "+2", "2 "):
        renamed = {(key if k == "2" else k): v for k, v in images.items()}
        with pytest.raises(ParseError, match="non-canonical"):
            table_from_json({**doc, "images": renamed})


def test_table_json_rejects_bool_index_and_bound():
    doc = _wplus_doc()
    with pytest.raises(ParseError, match="index True is not an integer"):
        table_from_json({**doc, "images": {**doc["images"], "1": [[True, "1"]]}})
    with pytest.raises(ParseError, match="not integers"):
        table_from_json({**doc, "truncation": {"min": True, "max": 4}})
    with pytest.raises(ParseError, match="not integers"):
        table_from_json({**doc, "truncation": {"min": 1, "max": False}})


def test_table_json_rejects_non_integer_bounds():
    doc = _wplus_doc()
    for bounds in ({"min": 1, "max": 4.0}, {"min": 1.9, "max": 4}, {"min": "1", "max": 4}):
        with pytest.raises(ParseError, match="not integers"):
            table_from_json({**doc, "truncation": bounds})
    with pytest.raises(ParseError, match="empty window"):
        table_from_json({**doc, "truncation": {"min": 4, "max": 1}})


# strings too: `Element` reads them through `Fraction`, and "0" must be
# dropped like 0, since `thin_derivation` wraps the images' terms unchecked
_PARAM_COEFFS = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=5), st.integers(-3, 3),
    st.sampled_from(["0", "-0", "2/4", "-3"]),
)


@settings(derandomize=True, max_examples=200)
@given(
    st.dictionaries(st.integers(1, 6), _PARAM_COEFFS, max_size=4),
    st.dictionaries(st.integers(2, 6), _PARAM_COEFFS, max_size=4),
    st.integers(3, 14),
)
def test_thin_derivation_matches_reference(alpha, beta, truncation):
    params = ThinDerivationParams(Element(Algebra.THIN, alpha), Element(Algebra.THIN, beta))
    table = thin_derivation(params, truncation)
    assert table == reference_thin_derivation(params, truncation)
    assert extend_from_generators(Algebra.THIN, params.alpha, params.beta, truncation) == table
    assert table_to_json(table) == table_to_json(reference_thin_derivation(params, truncation))
    for k in table.window.indices():
        assert_normalised_element(table.image(k))


def _element_text(terms):
    """Element text with the terms in the order given, such as
    "+ 1*e_5 - 1/2*e_1": the parser keeps that order, and repeats add."""
    return "".join(f" {'-' if c < 0 else '+'} {abs(c)}*e_{i}" for i, c in terms) or "0"


def _thin_text(lo):
    terms = st.tuples(st.integers(lo, 9), st.fractions(-4, 4, max_denominator=5))
    return st.lists(terms, max_size=5).map(_element_text)


@settings(derandomize=True, max_examples=200)
@given(_thin_text(1), _thin_text(2), st.integers(3, 20))
@example("e_5 + e_1 + e_3", "e_4 - e_3 + e_2", 8)
def test_thin_derivation_json_matches_extension(alpha, beta, truncation):
    """The JSON text written from the closed form equals the JSON of
    `reference_extension`, which brackets whole elements and does not use
    `image_terms`.  The generator images are parsed from text in any term
    order, and every image, D(e_1) and D(e_2) too, comes out index
    ascending, as `table_json_text` writes the terms in the order given."""
    params = ThinDerivationParams(thin(alpha), thin(beta))
    extension = reference_extension_table(Algebra.THIN, thin(alpha), thin(beta), truncation)
    terms = (params.image_terms(j).items() for j in range(1, truncation + 1))
    text = derivations.table_json_text(Algebra.THIN, Window(1, truncation), terms)
    assert text == json.dumps(table_to_json(extension), indent=2)
    for terms in (params.image_terms(j) for j in range(1, truncation + 1)):
        assert list(terms) == sorted(terms)


def test_thin_image_terms_guards():
    params = ThinDerivationParams(thin("e_1"), thin("e_2"))
    with pytest.raises(IndexOutOfDomain, match="^index 0 not in the thin index domain$"):
        params.image_terms(0)
    two = [params.image_terms(j).items() for j in (1, 2)]
    with pytest.raises(ValueError, match="^zip\\(\\) argument 2 is shorter than argument 1$"):
        derivations.table_json_text(Algebra.THIN, Window(1, 3), two)
    with pytest.raises(ValueError, match="^zip\\(\\) argument 2 is longer than argument 1$"):
        derivations.table_json_text(Algebra.THIN, Window(1, 1), two)
    terms = params.image_terms(1)
    terms[5] = Fraction(1)  # a new dict each call: the params are unchanged
    assert params.image_terms(1) == {1: Fraction(1)}


def test_thin_derivation_drops_a_vanishing_diagonal():
    """alpha_1 = 1, beta_2 = -3: the e_5 coefficient of D(e_5) is 3 - 3 = 0."""
    params = ThinDerivationParams(thin("e_1"), thin("-3*e_2 + 1/2*e_4"))
    table = thin_derivation(params, 8)
    assert table == reference_thin_derivation(params, 8)
    assert table.image(5) == thin("1/2*e_7")
    assert_normalised_element(table.image(5))


# -- result records -----------------------------------------------------------


_RECORDS = [
    (JacobiResult, "passed counterexample residual"),
    (LeibnizResult, "passed pairs_checked pair residual"),
    (InconsistentExtension, "relation residual"),
    (DerivationSpace, "algebra support_bound coordinates space coords"),
    (WitnessCertificate, "x y case witness"),
    (PairVerification, "passed residual_x residual_y"),
    (AdditivityResult, "violated residual delta_of_sum sum_of_deltas"),
    (RigidityTrace, "probes forced intersection"),
]


@pytest.mark.parametrize("record, fields", _RECORDS, ids=[r.__name__ for r, _ in _RECORDS])
def test_result_records_are_immutable_values(record, fields):
    """Every result record is built by position or keyword, prints as
    `Name(field=value, ...)` and refuses assignment and deletion."""
    fields = fields.split()
    values = [f"v{n}" for n in range(len(fields))]
    rec = record(*values)
    assert rec == record(**dict(zip(fields, values)))
    assert [getattr(rec, f) for f in fields] == values
    body = ", ".join(f"{f}='{v}'" for f, v in zip(fields, values))
    assert repr(rec) == f"{record.__name__}({body})"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)


def test_result_record_defaults_and_repr():
    assert JacobiResult(True) == JacobiResult(True, None, None)
    assert repr(JacobiResult(True)) == "JacobiResult(passed=True, counterexample=None, residual=None)"
    assert LeibnizResult(True, 3) == LeibnizResult(passed=True, pairs_checked=3, pair=None,
                                                   residual=None)
