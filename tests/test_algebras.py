import itertools
import time
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
    ParseError,
    Window,
    algebras,
    bracket,
    format_element,
    jacobi_check,
    parse_element,
)

from helpers import (
    ad,
    assert_normalised_element,
    basis_rule,
    rand_element,
    reference_bracket,
    reference_format_element,
    reference_jacobi,
    reference_parse_element,
)


def E(text, algebra=Algebra.WITT):
    return parse_element(text, algebra)


def test_bracket_basis_witt():
    assert bracket(E("e_2"), E("e_3")) == E("e_5")
    assert bracket(E("e_0"), E("e_7")) == E("7*e_7")
    assert bracket(E("e_0"), E("e_-4")) == E("-4*e_-4")
    assert bracket(E("e_3"), E("e_3")).is_zero()


def test_bracket_basis_thin():
    t = Algebra.THIN
    assert bracket(E("e_1", t), E("e_5", t)) == E("e_6", t)
    assert bracket(E("e_5", t), E("e_1", t)) == E("-e_6", t)
    assert bracket(E("e_2", t), E("e_3", t)).is_zero()
    assert bracket(E("e_1", t), E("e_1", t)).is_zero()


def test_bracket_self_is_zero_randomized():
    rng = Random(3)
    for algebra, lo in ((Algebra.WITT, -6), (Algebra.WPLUS, 1), (Algebra.THIN, 1)):
        for _ in range(25):
            x = rand_element(rng, algebra, range(lo, 7))
            assert bracket(x, x).is_zero()


def test_bracket_antisymmetry_and_bilinearity():
    rng = Random(5)
    for algebra, lo in ((Algebra.WITT, -6), (Algebra.WPLUS, 1), (Algebra.THIN, 1)):
        for _ in range(40):
            x = rand_element(rng, algebra, range(lo, 7))
            y = rand_element(rng, algebra, range(lo, 7))
            z = rand_element(rng, algebra, range(lo, 7))
            assert bracket(x, y) == -bracket(y, x)
            a, b = Fraction(2, 3), Fraction(-5)
            lhs = bracket(x.scale(a) + y.scale(b), z)
            assert lhs == bracket(x, z).scale(a) + bracket(y, z).scale(b)


def test_bracket_matches_reference():
    """`bracket` against the term-by-term expansion through the helpers' own
    basis rules, on random multi-term elements of every algebra: witt across
    0, wplus_ext with e_0, thin with and without e_1."""
    rng = Random(97)
    domains = {
        Algebra.WITT: range(-9, 10),
        Algebra.WPLUS: range(1, 13),
        Algebra.WPLUS_EXT: range(0, 13),
        Algebra.THIN: range(1, 13),
    }
    for algebra, indices in domains.items():
        nonzero = 0
        for _ in range(60):
            x = rand_element(rng, algebra, indices, max_terms=6)
            y = rand_element(rng, algebra, indices, max_terms=6)
            expected = reference_bracket(x, y)
            assert bracket(x, y) == expected, (x, y)
            nonzero += not expected.is_zero()
        assert nonzero >= 20, algebra


def test_grading():
    rng = Random(9)
    for _ in range(60):
        i, j = rng.randint(-8, 8), rng.randint(-8, 8)
        out = bracket(Element.basis(Algebra.WITT, i), Element.basis(Algebra.WITT, j))
        assert out.support() in ([], [i + j])
    for _ in range(60):
        i, j = rng.randint(1, 9), rng.randint(1, 9)
        out = bracket(Element.basis(Algebra.THIN, i), Element.basis(Algebra.THIN, j))
        if 1 in (i, j) and i != j:
            assert out.support() == [i + j]
        else:
            assert out.is_zero()


def test_mixed_algebras_rejected():
    with pytest.raises(MixedAlgebras):
        bracket(E("e_1"), E("e_1", Algebra.THIN))
    with pytest.raises(MixedAlgebras):
        E("e_1") + E("e_1", Algebra.WPLUS)


def test_index_domains():
    with pytest.raises(IndexOutOfDomain):
        Element(Algebra.WPLUS, {0: 1})
    with pytest.raises(IndexOutOfDomain):
        Element(Algebra.THIN, {-2: 1})
    with pytest.raises(IndexOutOfDomain, match=r"^index -3 not in the wplus index domain$"):
        Element(Algebra.WPLUS, {-3: 1, 0: 2, 5: 1})
    Element(Algebra.WPLUS_EXT, {0: 1})  # fine
    Element(Algebra.WITT, {-100: 1})  # fine


def test_embedding():
    x = Element(Algebra.WPLUS, {1: 2, 3: 1})
    ext = x.in_algebra(Algebra.WPLUS_EXT)
    assert ext.algebra is Algebra.WPLUS_EXT
    assert ext.coeffs == x.coeffs
    assert ext.in_algebra(Algebra.WPLUS) == x
    with pytest.raises(IndexOutOfDomain):
        Element(Algebra.WPLUS_EXT, {0: 1}).in_algebra(Algebra.WPLUS)


def test_ad_tables():
    win = Window(-5, 5)
    d0 = ad(Element.basis(Algebra.WITT, 0), win)
    for j in win.indices():
        assert d0.image(j) == Element.basis(Algebra.WITT, j).scale(j)
    zero = ad(Element.zero(Algebra.WITT), win)
    assert all(zero.image(j).is_zero() for j in win.indices())
    b = Fraction(3, 2)
    d1 = ad(Element.basis(Algebra.WITT, 1).scale(b), win)
    for i in win.indices():
        assert d1.image(i) == Element(Algebra.WITT, {i + 1: (i - 1) * b})


def test_constant_matches_basis_rule():
    """K(i, j) is the summed coefficient of the helpers' basis rule at (i, j),
    and every rule term sits at grade i+j, on a grid through each boundary of
    the rules: i == j, the indices 0, 1 and 2, and negative indices."""
    grid = range(-30, 31)
    for algebra in Algebra:
        constant, rule = algebra.constant, basis_rule(algebra)
        for i in grid:
            for j in grid:
                terms = rule(i, j)
                assert all(h == i + j for h, _ in terms), (algebra, i, j)
                assert constant(i, j) == sum(c for _, c in terms), (algebra, i, j)
    thin = Algebra.THIN.constant
    assert [thin(1, 1), thin(1, 2), thin(2, 1), thin(2, 2)] == [0, 1, -1, 0]


def test_jacobi_passes_on_all_algebras():
    assert jacobi_check(Algebra.WITT, Window(-10, 10)).passed
    assert jacobi_check(Algebra.WPLUS, Window(1, 25)).passed
    assert jacobi_check(Algebra.WPLUS_EXT, Window(0, 25)).passed
    assert jacobi_check(Algebra.THIN, Window(1, 30)).passed


def test_jacobi_rejects_bad_window():
    with pytest.raises(IndexOutOfDomain):
        jacobi_check(Algebra.THIN, Window(0, 10))


def _witt(i, j):
    return Algebra.WITT.constant(i, j)


def _perturbed_witt(p, q, w):
    """The witt K plus w at (p, q) and -w at (q, p): still antisymmetric, no
    longer a Lie bracket."""

    def constant(i, j):
        return _witt(i, j) + {(p, q): w, (q, p): -w}.get((i, j), 0)

    return constant


def _witt_inside(bound):
    """The witt K on pairs with |i|, |j| <= bound and a symmetric,
    non-antisymmetric K = 1 outside: the Jacobi sum only brackets window
    pairs first, so the sorted scan still applies on windows within bound."""

    def constant(i, j):
        return _witt(i, j) if max(abs(i), abs(j)) <= bound else 1

    return constant


def _diagonal_defect(i, j):
    return 1 if i == j == 3 else _witt(i, j)


def _asymmetric_pair(i, j):
    return _witt(i, j) + 1 if (i, j) == (2, 5) else _witt(i, j)


def test_jacobi_matches_ordered_reference():
    cases = [
        (Algebra.WITT, Window(-6, 6), None),
        (Algebra.WPLUS, Window(1, 14), None),
        (Algebra.WPLUS_EXT, Window(0, 14), None),
        (Algebra.THIN, Window(1, 16), None),
        (Algebra.WITT, Window(-5, 5), _witt_inside(5)),
        (Algebra.WITT, Window(-5, 6), _witt_inside(5)),
        (Algebra.WPLUS, Window(1, 8), _diagonal_defect),
        (Algebra.WITT, Window(-3, 7), _asymmetric_pair),
    ]
    rng = Random(61)
    for _ in range(15):
        lo = rng.randint(-6, 3)
        p, q = sorted(rng.sample(range(lo, lo + 9), 2))
        cases.append((Algebra.WITT, Window(lo, lo + 8), _perturbed_witt(p, q, rng.randint(1, 3))))
    sorted_failures = 0
    for algebra, window, constant in cases:
        result = jacobi_check(algebra, window, constant=constant)
        expected = reference_jacobi(algebra, window, constant)
        assert (result.passed, result.counterexample, result.residual) == expected
        if constant not in (None, _diagonal_defect, _asymmetric_pair) and not result.passed:
            sorted_failures += 1
    assert sorted_failures >= 10


def _signed_witt(rng, lo, hi):
    """The witt K conjugated by random signs e_n -> s_n e_n: an integer,
    antisymmetric, graded Lie bracket, K(i,j) = (j-i) s_i s_j s_{i+j}."""
    signs = {n: rng.choice((1, -1)) for n in range(3 * lo - 1, 3 * hi + 2)}
    return {(i, j): (j - i) * signs[i] * signs[j] * signs[i + j]
            for i in range(lo, hi + 1) for j in range(2 * lo - 1, 2 * hi + 2)}


def test_jacobi_graded_table_matches_ordered_reference():
    # seeded structure constants on windows that cross 0: antisymmetric
    # signed-witt tables with one planted antisymmetric defect, and tables
    # made non-antisymmetric at one pair
    rng = Random(89)
    failures = 0
    for n in range(30):
        lo, hi = rng.randint(-5, -1), rng.randint(1, 5)
        window = Window(lo, hi)
        table = _signed_witt(rng, lo, hi)
        p, q = rng.sample(range(lo, hi + 1), 2)
        if n % 2 == 0:
            d = rng.choice((1, -1, 2))
            table[p, q] += d
            table[q, p] -= d
        else:
            table[p, q] += rng.choice((1, -1, 2))

        def constant(i, j, table=table):
            return table.get((i, j), -table.get((j, i), 0))

        result = jacobi_check(Algebra.WITT, window, constant=constant)
        assert (result.passed, result.counterexample, result.residual) == reference_jacobi(
            Algebra.WITT, window, constant
        )
        failures += not result.passed
    assert failures >= 10


def _scans(monkeypatch):
    """The windows `jacobi_check` hands to its triple scan, recorded."""
    scans = []
    scan = algebras._scan

    def recording(table, window, off):
        scans.append(window)
        return scan(table, window, off)

    monkeypatch.setattr(algebras, "_scan", recording)
    return scans


def _affine_constant(a, b, c, d):
    return lambda i, j: a + b * i + c * j + d * i * j


def _thin_blocks_constant(forms):
    """K = a + b i + c j + d ij with its own (a, b, c, d) on each of thin's
    blocks, keyed by (i >= 2, j >= 2)."""
    return lambda i, j: _affine_constant(*forms[i >= 2, j >= 2])(i, j)


def _thin_family(a, b):
    """[e_1, e_j] = (a + b j) e_{j+1} for j >= 2, every other bracket 0: a Lie
    algebra for every a and b, affine on each of thin's blocks."""
    zero = (0, 0, 0, 0)
    return _thin_blocks_constant({(False, True): (a, 0, b, 0), (True, False): (-a, -b, 0, 0),
                                  (False, False): zero, (True, True): zero})


def _closed_form(K, window):
    """Whether K's `jacobi_check` table, K(a, m) for a in the window and m
    from min(lo, 2 lo) to max(hi, 2 hi), has the witt form d (m - a) or the
    thin form, read entry by entry."""
    lo, hi = window.lo, window.hi
    cells = [(a, m) for a in window.indices() for m in range(min(lo, 2 * lo), max(hi, 2 * hi) + 1)]
    a, m = next(((a, m) for a, m in cells if m != a), (lo, lo))
    d = Fraction(K(a, m), m - a) if m != a else 0
    if all(K(a, m) == d * (m - a) for a, m in cells):
        return True

    def thin_entry(a, m):
        if a == 1 and m >= 2:
            return True
        return K(a, m) == (-K(1, a) if a >= 2 and m == 1 else 0)

    return lo == 1 and all(thin_entry(a, m) for a, m in cells)


def test_jacobi_residual_of_the_witt_form_expands_to_zero():
    """For K(a, m) = d (m - a) the Jacobi residual of (i, j, k) is the
    zero polynomial, the identity the witt form of `_certified` rests on."""
    sympy = pytest.importorskip("sympy")
    i, j, k, d = sympy.symbols("i j k d")

    def K(a, m):
        return d * (m - a)

    residual = K(j, k) * K(i, j + k) + K(k, i) * K(j, k + i) + K(i, j) * K(k, i + j)
    assert sympy.expand(residual) == 0


def test_jacobi_certificate_matches_reference(monkeypatch):
    """Seeded affine K, injected: a + b i + c j + d ij on witt and wplus
    windows, and its own such form on each of thin's blocks (i >= 2, j >= 2).
    Each result equals the ordered scan's, and the triple scan runs exactly
    for the K whose table has neither closed form."""
    scans = _scans(monkeypatch)
    rng = Random(97)
    cases = []
    for n in range(150):
        kind = n % 3
        if kind == 0:
            lo = rng.randint(-5, 3)
            algebra = Algebra.WITT if lo < 1 else Algebra.WPLUS
            window = Window(lo, lo + rng.randint(0, 8))
            c = rng.randint(-3, 3)
            coeffs = (0, -c, c, 0) if n % 2 else tuple(rng.randint(-2, 2) for _ in range(4))
            constant = _affine_constant(*coeffs)
        else:
            algebra, window = Algebra.THIN, Window(1, rng.randint(1, 9))
            if kind == 1:
                constant = _thin_family(rng.randint(-3, 3), rng.randint(-3, 3))
            else:
                constant = _thin_blocks_constant(
                    {key: tuple(rng.randint(-2, 2) for _ in range(4))
                     for key in itertools.product((False, True), repeat=2)}
                )
        cases.append((algebra, window, constant))
    passed = 0
    for algebra, window, constant in cases:
        result = jacobi_check(algebra, window, constant=constant)
        expected = reference_jacobi(algebra, window, constant)
        assert (result.passed, result.counterexample, result.residual) == expected
        passed += result.passed
    assert scans == [window for _, window, constant in cases if not _closed_form(constant, window)]
    assert passed >= 50 and len(scans) >= 40 and len(cases) - len(scans) >= 50


def _thin_form(values):
    """K(1, m) = values[m] for m >= 2, K(a, 1) = -K(1, a) for a >= 2, every
    other entry 0: a table of the thin form."""

    def constant(i, j):
        if i == 1:
            return values.get(j, 0) if j >= 2 else 0
        return -values.get(i, 0) if j == 1 else 0

    return constant


def test_jacobi_thin_form_is_certified(monkeypatch):
    """Seeded K(1, m), zeros among them, on windows 1:1 ... 1:12 and 1:200:
    every table of the thin form is certified with no scan.  On the small
    windows the verdict equals the ordered reference scan's; on 1:200 the
    reference would read 8 M triples, so there it is the passing verdict."""
    scans = _scans(monkeypatch)
    rng = Random(113)
    for hi in [*range(1, 13), 200]:
        window = Window(1, hi)
        for _ in range(4 if hi <= 12 else 1):
            values = {m: rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for m in range(2, 2 * hi + 1)}
            constant = _thin_form(values)
            assert _closed_form(constant, window)
            result = jacobi_check(Algebra.THIN, window, constant=constant)
            expected = reference_jacobi(Algebra.THIN, window, constant) if hi <= 12 else (
                True, None, None)
            assert (result.passed, result.counterexample, result.residual) == expected
    assert scans == []


def _changed(base, entries):
    """base with K(i, j) += w for each ((i, j), w) in entries."""
    return lambda i, j: base(i, j) + entries.get((i, j), 0)


def test_jacobi_one_changed_entry_goes_to_the_scan(monkeypatch):
    """A table of either form with one entry changed (or an antisymmetric
    pair, or a whole row) has neither form any more: the scan runs and gives
    the reference's verdict, first failing triple and residual.  The cases
    include defects away from the first indices of the window, K(1, 1) != 0
    on thin, and a thin column 1 that is symmetric instead of antisymmetric."""
    scans = _scans(monkeypatch)
    cases = [(algebra, window, _changed(algebra.constant, {(p, q): 1, (q, p): -1}))
             for algebra, window, p, q in (
                 (Algebra.WPLUS, Window(1, 14), 7, 11), (Algebra.WITT, Window(-6, 7), -1, 4),
                 (Algebra.THIN, Window(1, 14), 6, 9), (Algebra.WPLUS_EXT, Window(0, 13), 5, 8))]
    cases.append((Algebra.WPLUS, Window(1, 14), lambda i, j: _witt(i, j) + (i == 7)))
    thin = Algebra.THIN.constant
    cases += [(Algebra.THIN, Window(1, hi), _changed(thin, {(1, 1): w}))
              for hi in (1, 2, 9) for w in (1, -2)]
    cases.append((Algebra.THIN, Window(1, 9), lambda i, j: thin(i, j) if j != 1 else thin(j, i)))
    rng = Random(127)
    for n in range(40):
        if n % 2:
            values = {m: rng.randint(-3, 3) for m in range(2, 17)}
            algebra, window, base = Algebra.THIN, Window(1, rng.randint(2, 8)), _thin_form(values)
            # K(1, m) for m beyond the window is free in the thin form
            a = rng.randint(1, window.hi)
            m = rng.randint(1, window.hi if a == 1 else 2 * window.hi)
        else:
            lo = rng.randint(-4, 2)
            algebra = Algebra.WITT if lo < 1 else Algebra.WPLUS
            window = Window(lo, lo + rng.randint(2, 7))
            base = _affine_constant(0, -(d := rng.choice((1, -1, 2, -3))), d, 0)
            a = rng.randint(window.lo, window.hi)
            m = rng.randint(min(lo, 2 * lo), max(window.hi, 2 * window.hi))
        cases.append((algebra, window, _changed(base, {(a, m): rng.choice((1, -1, 3))})))
    for algebra, window, constant in cases:
        assert not _closed_form(constant, window)
        result = jacobi_check(algebra, window, constant=constant)
        expected = reference_jacobi(algebra, window, constant)
        assert (result.passed, result.counterexample, result.residual) == expected
    assert len(scans) == len(cases)


@pytest.mark.parametrize("algebra, window", [
    (Algebra.THIN, Window(1, 1)), (Algebra.THIN, Window(1, 2)), (Algebra.THIN, Window(1, 3)),
    (Algebra.WPLUS_EXT, Window(0, 0)), (Algebra.WPLUS_EXT, Window(0, 1)),
    (Algebra.WPLUS_EXT, Window(0, 2)), (Algebra.WPLUS_EXT, Window(0, 3)),
    (Algebra.WITT, Window(0, 0)), (Algebra.WITT, Window(-1, 0)), (Algebra.WITT, Window(0, 1)),
    (Algebra.WITT, Window(-1, 1)), (Algebra.WITT, Window(-2, 0)), (Algebra.WITT, Window(0, 2)),
])
def test_jacobi_certificate_on_cells_smaller_than_its_grid(algebra, window):
    """Windows of one to four indices, where a table of either form has
    only a few entries: every verdict equals the reference's."""
    constants = [None, _affine_constant(0, 0, 0, 1), _affine_constant(0, -1, 2, 0),
                 _thin_family(2, -1), _thin_blocks_constant({
                     (False, False): (1, 0, 0, 0), (False, True): (0, 1, 1, 0),
                     (True, False): (0, -1, -1, 0), (True, True): (0, -1, 1, 0)})]
    for constant in constants:
        result = jacobi_check(algebra, window, constant=constant)
        expected = reference_jacobi(algebra, window, constant)
        assert (result.passed, result.counterexample, result.residual) == expected


def test_jacobi_affine_non_lie_matches_reference():
    """K = ij, K = 2j - i and K = ij - i are affine in each index but not Lie
    brackets: the scan reports the reference's first failing triple.  On
    0:10 the residual of ij - i vanishes on every triple of 0 and 1."""
    cases = [(constant, algebra, window)
             for constant in (_affine_constant(0, 0, 0, 1), _affine_constant(0, -1, 2, 0))
             for algebra, window in ((Algebra.WITT, Window(-5, 6)),
                                     (Algebra.WPLUS, Window(1, 12)), (Algebra.THIN, Window(1, 12)))]
    cases.append((_affine_constant(0, -1, 0, 1), Algebra.WPLUS_EXT, Window(0, 10)))
    for constant, algebra, window in cases:
        result = jacobi_check(algebra, window, constant=constant)
        assert not result.passed
        assert (result.passed, result.counterexample, result.residual) == reference_jacobi(
            algebra, window, constant
        )


def test_jacobi_without_certificate_scans_every_ordered_triple(monkeypatch):
    """With `_certified` failing, every window reaches the ordered triple
    scan, which gives the reference's verdicts, first failing triple and
    residual."""
    scans = _scans(monkeypatch)
    monkeypatch.setattr(algebras, "_certified", lambda *args: False)
    cases = [(Algebra.WITT, Window(-4, 4), None), (Algebra.WPLUS, Window(1, 8), None),
             (Algebra.THIN, Window(1, 8), None),
             (Algebra.WPLUS_EXT, Window(0, 6), _affine_constant(0, 0, 0, 1))]
    for algebra, window, constant in cases:
        result = jacobi_check(algebra, window, constant=constant)
        expected = reference_jacobi(algebra, window, constant)
        assert (result.passed, result.counterexample, result.residual) == expected
    assert len(scans) == len(cases)


def test_jacobi_certificate_skips_the_scan_at_the_cli_cap(monkeypatch):
    """Every built-in algebra at W = 200, and at the widest windows around 0
    that the `jacobi` command's table cap accepts (about 10^6 entries), is
    certified without reaching the triple scan."""

    def unreachable(*args):
        raise AssertionError("triple scan reached")

    monkeypatch.setattr(algebras, "_scan", unreachable)
    start = time.perf_counter()
    for algebra, window in ((Algebra.WITT, Window(-99, 100)), (Algebra.WPLUS, Window(1, 200)),
                            (Algebra.WPLUS_EXT, Window(0, 199)), (Algebra.THIN, Window(1, 200))):
        assert jacobi_check(algebra, window).passed
    assert time.perf_counter() - start < 1.0
    for algebra, window in ((Algebra.WITT, Window(-353, 353)), (Algebra.WPLUS, Window(1, 707)),
                            (Algebra.WPLUS_EXT, Window(0, 706)), (Algebra.THIN, Window(1, 707))):
        start = time.perf_counter()
        assert jacobi_check(algebra, window).passed
        assert time.perf_counter() - start < 1.0


def test_parse_format_round_trip():
    rng = Random(17)
    for _ in range(80):
        x = rand_element(rng, Algebra.WITT, range(-9, 10), max_num=7, max_den=5)
        assert parse_element(format_element(x), Algebra.WITT) == x


def test_parse_examples():
    x = E("3*e_1 - 1/2*e_-4")
    assert x.coefficient(1) == 3
    assert x.coefficient(-4) == Fraction(-1, 2)
    assert E("  3*e_1-1/2*e_-4 ") == x  # whitespace-insensitive
    assert E("0").is_zero()
    assert E("-e_3") == Element(Algebra.WITT, {3: -1})
    assert E("e_1 + e_1") == Element(Algebra.WITT, {1: 2})
    assert E("2/4*e_5") == Element(Algebra.WITT, {5: Fraction(1, 2)})


def test_parse_errors():
    for bad in ("", "e1", "3e_1", "e_1 e_2", "e_1 ++ e_2", "x", "1/0*e_2"):
        with pytest.raises(ParseError):
            E(bad)
    with pytest.raises(ParseError):
        parse_element("e_-4", Algebra.THIN)


def test_format_examples():
    assert format_element(Element.zero(Algebra.WITT)) == "0"
    assert format_element(E("e_5")) == "e_5"
    assert format_element(E("-e_5")) == "-e_5"
    assert format_element(Element(Algebra.WITT, {2: 2, -4: Fraction(-1, 2)})) == (
        "-1/2*e_-4 + 2*e_2"
    )
    assert format_element(Element(Algebra.WITT, {1: 1, 2: -1})) == "e_1 - e_2"


@settings(derandomize=True, max_examples=100)
@given(
    st.dictionaries(st.integers(-8, 8), st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4),
    st.dictionaries(st.integers(-8, 8), st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4),
)
def test_bracket_antisymmetry_property(xs, ys):
    x, y = Element(Algebra.WITT, xs), Element(Algebra.WITT, ys)
    assert bracket(x, y) == -bracket(y, x)


def test_support_bound():
    assert E("3*e_-7 + e_2").support_bound() == 7
    assert Element.zero(Algebra.WITT).support_bound() == 0


# -- lean parse and format against the reference copies ------------------------

_SPACES = st.sampled_from([" ", "\t", "\n", "\r", "\x0b", "\u00a0", "\u2003", "\u3000"])
_GAP = st.lists(_SPACES, max_size=2).map("".join)
_ALGEBRAS = st.sampled_from(list(Algebra))
_BIG = st.integers(10**20, 10**30)


@st.composite
def _coefficient_text(draw):
    """"" (a missing coefficient), "p" or "p/q"; zero, huge and unreduced values included."""
    kind = draw(st.sampled_from(["none", "int", "frac", "zero", "big"]))
    if kind == "none":
        return ""
    if kind == "zero":
        return draw(st.sampled_from(["0*", "0/5*", "00*"]))
    if kind == "big":
        return f"{draw(_BIG)}/{draw(_BIG)}*"
    num = draw(st.integers(0, 12))
    return f"{num}*" if kind == "int" else f"{num}/{draw(st.integers(1, 12))}*"


@st.composite
def element_texts(draw):
    """Text in the element grammar, often with terms that cancel, and odd whitespace."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_GAP) + draw(st.sampled_from(["0", "+0", "-0"])) + draw(_GAP)
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        coeff, k = draw(_coefficient_text()), draw(st.integers(-4, 9))
        terms.append((draw(st.sampled_from("+-")), coeff, k))
        if draw(st.booleans()):  # the same term with the other sign
            terms.append(("-" if terms[-1][0] == "+" else "+", coeff, k))
    text = draw(_GAP)
    for n, (sign, coeff, k) in enumerate(terms):
        lead = "" if n == 0 and sign == "+" and draw(st.booleans()) else sign
        text += f"{lead}{draw(_GAP)}{coeff}{draw(_GAP)}e_{k}{draw(_GAP)}"
    return text


def _outcome(parse, text, algebra):
    try:
        return parse(text, algebra)
    except Exception as exc:  # the class and message must agree too
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300)
@given(element_texts(), _ALGEBRAS)
def test_parse_element_matches_reference(text, algebra):
    got = _outcome(parse_element, text, algebra)
    assert got == _outcome(reference_parse_element, text, algebra)
    if isinstance(got, Element):
        assert_normalised_element(got)
        assert format_element(got) == reference_format_element(got)


@settings(derandomize=True, max_examples=300)
@given(st.text(alphabet="e_0123456789+-*/ \t\u00a0\u2003\x1c x.", max_size=24), _ALGEBRAS)
def test_parse_element_malformed_matches_reference(text, algebra):
    """Malformed text, with Unicode whitespace (no-break space, em space and
    the file separator, which `str.split` and re's `\\s` both drop), parses or
    fails as the reference does."""
    assert _outcome(parse_element, text, algebra) == _outcome(
        reference_parse_element, text, algebra
    )


@settings(derandomize=True, max_examples=200)
@given(
    st.dictionaries(
        st.integers(-9, 9),
        st.one_of(
            st.fractions(min_value=-5, max_value=5, max_denominator=7),
            st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**25)),
            st.integers(-3, 3),
        ),
        max_size=6,
    )
)
def test_format_element_matches_reference(coeffs):
    x = Element(Algebra.WITT, coeffs)
    assert format_element(x) == reference_format_element(x)
    assert parse_element(format_element(x), Algebra.WITT) == x
