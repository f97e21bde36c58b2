from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlocal import linalg
from wittlocal import (
    ParseError,
    SparseVector,
    Subspace,
    Window,
    format_rational,
    kernel_basis,
    parse_rational,
    subspace_intersection,
)

from helpers import (
    complement_intersection,
    dot,
    full_subspace,
    in_span,
    rand_rational,
    reference_basis,
    reference_kernel,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


@settings(derandomize=True, max_examples=200)
@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@settings(derandomize=True, max_examples=100)
@given(rationals)
def test_rational_text_round_trip(a):
    assert parse_rational(format_rational(a)) == a


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-4/6") == Fraction(-2, 3)
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_sparse_vector_basics():
    v = SparseVector({2: Fraction(1, 2), 5: -1, 7: 0})
    assert v.support() == [2, 5]
    assert v.get(7) == 0
    assert (v - v).is_zero()
    assert v + v == v.scale(2)
    assert dot(v, SparseVector({2: 2, 5: 1})) == 0
    assert SparseVector({1: 1, 2: 1}) == SparseVector({2: 1, 1: 1})
    with pytest.raises(TypeError):  # not __getitem__(0), (1), ... forever
        iter(v)


# Results of the arithmetic and elimination paths skip re-normalisation, so
# check they store what the public constructor would.
_WIN = Window(-6, 6)
coefficients = st.one_of(rationals, st.integers(-5, 5))
sparse_vectors = st.dictionaries(
    st.integers(_WIN.lo, _WIN.hi), coefficients, max_size=6
).map(SparseVector)


def assert_normalised(v):
    """v stores only nonzero Fractions and equals its re-normalised copy."""
    entries = dict(v.items())
    assert all(type(k) is int and type(c) is Fraction and c != 0 for k, c in entries.items())
    assert v == SparseVector(entries) and hash(v) == hash(SparseVector(entries))


@st.composite
def cancelling_pairs(draw):
    """(a, b) where b holds the negatives of a drawn subset of a's entries."""
    a, b = draw(sparse_vectors), draw(sparse_vectors)
    cancelled = draw(st.sets(st.sampled_from(a.support()))) if a.support() else set()
    return a, SparseVector({**dict(b.items()), **{k: -a[k] for k in cancelled}})


@settings(derandomize=True, max_examples=150)
@given(cancelling_pairs(), coefficients)
def test_arithmetic_results_are_normalised(pair, c):
    a, b = pair
    for v in (a, b, a + b, b + a, a - (-b), a - b, -a, a.scale(c), c * a, a - a):
        assert_normalised(v)
    assert (a - a).is_zero() and a.scale(0).is_zero()


@settings(derandomize=True, max_examples=100)
@given(st.lists(sparse_vectors, max_size=8), st.integers(0, 8))
def test_echelon_results_are_normalised(rows, cut):
    left, right = Subspace(rows[:cut]), Subspace(rows[cut:])
    kernel = kernel_basis(rows, _WIN)
    for v in left.basis + right.basis + kernel.basis + subspace_intersection(left, right).basis:
        assert_normalised(v)


def test_window():
    w = Window.parse("-3:4")
    assert (w.lo, w.hi) == (-3, 4)
    assert 0 in w and 5 not in w
    assert len(w) == 8
    with pytest.raises(ParseError):
        Window.parse("4:-3")
    with pytest.raises(ParseError):
        Window.parse("1..5")
    assert w == Window(-3, 4) and hash(w) == hash(Window(-3, 4)) and w != Window(-3, 5)
    assert repr(Window(1, 5)) == "Window(lo=1, hi=5)"
    with pytest.raises(AttributeError):
        w.lo = 0
    with pytest.raises(AttributeError):
        del w.hi
    with pytest.raises(ValueError, match="^empty window 3:2$"):
        Window(3, 2)


def test_solve_single_equation_window_dependence():
    rows = [SparseVector({0: 1})]
    assert kernel_basis(rows, Window(0, 0)).dim == 0
    wide = kernel_basis(rows, Window(0, 1))
    assert wide.dim == 1
    assert wide.basis == [SparseVector({1: 1})]


def test_solve_empty_system_is_full_kernel():
    assert kernel_basis([], Window(0, 3)) == full_subspace(Window(0, 3))


def test_kernel_trivial_cases():
    win = Window(0, 4)
    full_rank = [SparseVector({i: 1}) for i in win.indices()]
    assert kernel_basis(full_rank, win).dim == 0
    assert kernel_basis([], win).dim == 5
    with pytest.raises(ValueError, match=r"^row support \[3, 5\] escapes window 0:4$"):
        kernel_basis([SparseVector({3: 1, 5: 2})], win)


def test_kernel_of_grade_scaling_rows():
    # rows with entry j at index j kill exactly the index-0 line
    win = Window(-10, 10)
    rows = [SparseVector({j: j}) for j in win.indices() if j != 0]
    ker = kernel_basis(rows, win)
    assert ker.dim == 1
    assert ker.basis == [SparseVector({0: 1})]


def test_kernel_vectors_annihilate_rows():
    rng = Random(7)
    win = Window(-4, 5)
    for _ in range(50):
        rows = [
            SparseVector(
                {rng.randint(-4, 5): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            )
            for _ in range(rng.randint(0, 6))
        ]
        ker = kernel_basis(rows, win)
        for v in ker.basis:
            assert all(dot(r, v) == 0 for r in rows)


def test_rank_nullity():
    rng = Random(11)
    win = Window(0, 7)
    for _ in range(50):
        rows = [
            SparseVector(
                {rng.randint(0, 7): Fraction(rng.randint(-3, 3)) for _ in range(4)}
            )
            for _ in range(rng.randint(0, 10))
        ]
        rank = Subspace(rows).dim
        assert kernel_basis(rows, win).dim + rank == len(win)


def test_subspace_canonical_form():
    s = Subspace([SparseVector({0: 2, 1: 2}), SparseVector({0: 1, 1: 1, 2: 3})])
    assert s.dim == 2
    for v in s.basis:
        assert v.get(v.leading_index()) == 1
    leads = [v.leading_index() for v in s.basis]
    assert leads == sorted(leads)
    # pivot columns cleared in the other rows
    assert s.basis[0].get(s.basis[1].leading_index()) == 0
    assert in_span(s, SparseVector({0: 3, 1: 3, 2: 9}))
    assert not in_span(s, SparseVector({3: 1}))


def _reduce_inputs(rng, n):
    """The n-th seeded input family for the differential test of `_reduce`:
    shuffled unit vectors, duplicates and zeros, ascending or descending
    chains e_k + c e_{k+1}, planted dependent vectors, or dense rows."""
    lo = rng.randint(-5, 5)
    cols = list(range(lo, lo + rng.randint(1, 8)))
    coeff = lambda: rand_rational(rng, 4, 3, allow_zero=False)
    kind = n % 5
    if kind == 0:
        vecs = [SparseVector({k: coeff()}) for k in cols]
        rng.shuffle(vecs)
    elif kind == 1:
        vecs = [SparseVector({rng.choice(cols): coeff() for _ in range(2)}) for _ in range(3)]
        vecs += [v.scale(coeff()) for v in rng.choices(vecs, k=2)] + [SparseVector()] * 2
        rng.shuffle(vecs)
    elif kind == 2:
        vecs = [SparseVector({k: 1, k + 1: coeff()}) for k in cols]
        if rng.random() < 0.5:
            vecs.reverse()
    elif kind == 3:
        vecs = [SparseVector({rng.choice(cols): coeff() for _ in range(3)}) for _ in range(3)]
        vecs.append(vecs[0].scale(coeff()) + vecs[-1].scale(coeff()))
        rng.shuffle(vecs)
    else:
        cols = cols[:6]
        vecs = [SparseVector({k: coeff() for k in cols}) for _ in range(rng.randint(1, len(cols) + 2))]
    return vecs


def test_subspace_matches_reference_reduce():
    """`Subspace` gives the basis of the elimination as first written, which
    scanned every pivot row for each new lead, on 20000 seeded inputs."""
    rng = Random(97)
    dims = set()
    for n in range(20000):
        vecs = _reduce_inputs(rng, n)
        space = Subspace(vecs)
        assert space.basis == reference_basis(vecs)
        dims.add(space.dim)
    assert dims == set(range(1, 9))


def test_subspace_work_follows_row_entries(monkeypatch):
    """300 ascending chain vectors e_k + e_{k+1} are already echelon: each
    row clears the one later pivot it holds, 299 row operations in all
    (a scan of every earlier pivot per new lead would make 44850)."""
    calls = []
    counted = linalg._add_multiple

    def counting(row, f, other):
        calls.append(1)
        counted(row, f, other)

    monkeypatch.setattr(linalg, "_add_multiple", counting)
    space = Subspace([SparseVector({k: 1, k + 1: 1}) for k in range(1, 301)])
    assert space.dim == 300
    assert 0 < len(calls) <= 300


def test_intersection_examples():
    win = Window(1, 4)

    def span(*vecs):
        return Subspace(vecs)

    e = {i: SparseVector({i: 1}) for i in win.indices()}
    assert subspace_intersection(span(e[2]), span(e[3])).dim == 0
    a = span(SparseVector({1: 1, 2: 1}), e[3])
    assert subspace_intersection(a, a) == a
    b = span(SparseVector({1: 1, 2: 1}), e[4])
    meet = subspace_intersection(a, b)
    assert meet.basis == [SparseVector({1: 1, 2: 1})]


def test_intersection_properties():
    rng = Random(13)
    win = Window(0, 5)
    for _ in range(40):
        vecs = lambda: [
            SparseVector(
                {rng.randint(0, 5): Fraction(rng.randint(-2, 2)) for _ in range(3)}
            )
            for _ in range(rng.randint(1, 4))
        ]
        a, b = Subspace(vecs()), Subspace(vecs())
        meet = subspace_intersection(a, b)
        for v in meet.basis:
            assert in_span(a, v) and in_span(b, v)
        assert meet.dim >= a.dim + b.dim - len(win)


def test_intersection_matches_complement_route():
    # spans on disjoint coordinate sets take the zero shortcut; the others,
    # half of them sharing a planted direction, run the complement route
    rng = Random(71)
    win = Window(-4, 7)
    disjoint = shared = 0
    for n in range(60):
        cols = list(win.indices())
        rng.shuffle(cols)
        cut = rng.randint(1, len(cols) - 1)
        pools = (cols[:cut], cols[cut:]) if n % 2 else (cols, cols)
        a_vecs, b_vecs = (
            [
                SparseVector({rng.choice(pool): rng.randint(-3, 3) for _ in range(3)})
                for _ in range(rng.randint(0, 4))
            ]
            for pool in pools
        )
        if n % 2 == 0 and a_vecs:
            b_vecs.append(a_vecs[0].scale(rng.randint(1, 3)) + a_vecs[-1])
        a, b = Subspace(a_vecs), Subspace(b_vecs)
        meet = subspace_intersection(a, b)
        assert meet.basis == complement_intersection(a, b, win).basis
        supports = [{i for v in s.basis for i in v.support()} for s in (a, b)]
        disjoint += supports[0].isdisjoint(supports[1])
        shared += meet.dim > 0
    assert disjoint >= 25 and shared >= 15


def test_solutions_satisfy_their_systems():
    rng = Random(19)
    win = Window(-2, 5)
    for _ in range(60):
        rows = [
            SparseVector(
                {rng.randint(-2, 5): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)}
            )
            for _ in range(rng.randint(1, 8))
        ]
        ker = kernel_basis(rows, win)
        combination = SparseVector()
        for n, v in enumerate(ker.basis, start=1):
            assert all(dot(r, v) == 0 for r in rows)
            combination = combination + v.scale(n)
        assert all(dot(r, combination) == 0 for r in rows)


def test_solve_thin_leibniz_system():
    # homogeneous Leibniz system for thin-algebra maps with generator
    # images capped at grade 3: the solution space has dimension 5
    from helpers import raw_thin_leibniz_rows

    rows, unknowns = raw_thin_leibniz_rows(3, 9)
    assert kernel_basis(rows, Window(0, unknowns - 1)).dim == 5


def test_kernel_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = Random(53)
    for n in range(60):
        width, max_rows = (7, 9) if n < 40 else (29, 30)  # windows up to 8, then 30 indices
        lo = rng.randint(-3, 2)
        win = Window(lo, lo + rng.randint(0, width))
        rows = [
            SparseVector(
                {
                    rng.randint(win.lo, win.hi): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(rng.randint(1, 3))
                }
            )
            for _ in range(rng.randint(0, max_rows))
        ]
        cols = list(win.indices())
        matrix = sympy.Matrix(len(rows), len(cols), lambda r, c: rows[r].get(cols[c]))
        null = matrix.nullspace()
        rref = sympy.Matrix.hstack(*null).T.rref()[0] if null else sympy.zeros(0, len(cols))
        expected = [
            SparseVector({col: Fraction(int(x.p), int(x.q)) for col, x in zip(cols, rref.row(r))})
            for r in range(rref.rows)
        ]
        assert kernel_basis(rows, win).basis == expected
        assert reference_kernel(rows, win).basis == expected


def test_intersection_of_spans_built_on_different_windows():
    """A span carries no window: spans drawn from two different windows meet
    as the complement route over the hull of both windows says, and in
    dimension dim a + dim b - rank(a and b together), the rank from sympy."""
    sympy = pytest.importorskip("sympy")
    rng = Random(89)
    shared = 0
    for n in range(60):
        wins = []
        for _ in range(2):
            lo = rng.randint(-6, 4)
            wins.append(Window(lo, lo + rng.randint(0, 6)))
        a_vecs, b_vecs = (
            [
                SparseVector(
                    {rng.randint(w.lo, w.hi): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(3)}
                )
                for _ in range(rng.randint(0, 4))
            ]
            for w in wins
        )
        overlap = range(max(w.lo for w in wins), min(w.hi for w in wins) + 1)
        if n % 2 == 0 and overlap:  # plant a direction both windows hold
            planted = SparseVector({rng.choice(overlap): rng.randint(1, 3) for _ in range(2)})
            a_vecs.append(planted)
            b_vecs.append(planted.scale(rng.choice((-2, 1, 3))))
        a, b = Subspace(a_vecs), Subspace(b_vecs)
        meet = subspace_intersection(a, b)
        hull = Window(min(w.lo for w in wins), max(w.hi for w in wins))
        assert meet.basis == complement_intersection(a, b, hull).basis
        both, cols = a.basis + b.basis, list(hull.indices())
        matrix = sympy.Matrix(len(both), len(cols), lambda r, c: both[r].get(cols[c]))
        assert meet.dim == a.dim + b.dim - (matrix.rank() if both else 0)
        for v in meet.basis:
            assert in_span(a, v) and in_span(b, v)
        shared += meet.dim > 0
    assert shared >= 15
