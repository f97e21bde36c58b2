from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    reference_span,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero = rationals.filter(bool)


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


@st.composite
def disjoint_vectors(draw, max_entries=4):
    """Vectors on _WIN with pairwise disjoint supports, in drawn order; a
    vector drawn after the window's indices run out is zero."""
    cols = draw(st.permutations(list(_WIN.indices())))
    vecs = []
    for size in draw(st.lists(st.integers(0, max_entries), max_size=8)):
        chunk, cols = cols[:size], cols[size:]
        vecs.append(SparseVector({i: draw(nonzero) for i in chunk}))
    return vecs


@settings(derandomize=True, max_examples=100)
@given(disjoint_vectors(), disjoint_vectors(max_entries=2), sparse_vectors, sparse_vectors)
def test_echelon_results_are_normalised(vecs, rows, x, y):
    lines = [Subspace([x]), Subspace([y]), Subspace([x.scale(3)])]
    meets = [subspace_intersection(a, b) for a in lines for b in lines]
    for space in [Subspace(vecs), kernel_basis(rows, _WIN), *lines, *meets]:
        for v in space.basis:
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
    """The reference kernel of dense rows, and the library kernel of rows in
    its contract, annihilate every row."""
    rng = Random(7)
    win = Window(-4, 5)
    for _ in range(50):
        dense = [
            SparseVector(
                {rng.randint(-4, 5): Fraction(rng.randint(-3, 3)) for _ in range(3)}
            )
            for _ in range(rng.randint(0, 6))
        ]
        cols = list(win.indices())
        rng.shuffle(cols)
        pairs = [SparseVector({i: rng.randint(-3, 3) for i in cols[k:k + rng.randint(1, 2)]})
                 for k in range(0, 8, 2)]
        for rows, ker in ((dense, reference_kernel(dense, win)), (pairs, kernel_basis(pairs, win))):
            for v in ker.basis:
                assert all(dot(r, v) == 0 for r in rows)


def test_rank_nullity():
    """Rank plus nullity is the window size: for dense rows through the
    reference span and kernel, and for rows in `kernel_basis`'s contract
    through the library."""
    rng = Random(11)
    win = Window(0, 7)
    for _ in range(50):
        rows = [
            SparseVector(
                {rng.randint(0, 7): Fraction(rng.randint(-3, 3)) for _ in range(4)}
            )
            for _ in range(rng.randint(0, 10))
        ]
        assert reference_kernel(rows, win).dim + reference_span(rows).dim == len(win)
        cols = list(win.indices())
        rng.shuffle(cols)
        pairs = [SparseVector({i: rng.randint(-3, 3) for i in cols[k:k + rng.randint(0, 2)]})
                 for k in range(0, 8, 2)]
        assert kernel_basis(pairs, win).dim + Subspace(pairs).dim == len(win)


def test_subspace_canonical_form():
    general = reference_span([SparseVector({0: 2, 1: 2}), SparseVector({0: 1, 1: 1, 2: 3})])
    disjoint = Subspace([SparseVector({3: 4, 5: 2}), SparseVector({0: -2, 1: 2}), SparseVector({2: 3})])
    for s in (general, disjoint):
        for v in s.basis:
            assert v.get(v.leading_index()) == 1
        leads = [v.leading_index() for v in s.basis]
        assert leads == sorted(leads)
        # pivot columns cleared in the other rows
        assert all(v.get(lead) == 0 for v in s.basis for lead in leads if lead != v.leading_index())
    assert general.dim == 2 and in_span(general, SparseVector({0: 3, 1: 3, 2: 9}))
    assert not in_span(general, SparseVector({3: 1}))
    assert disjoint.basis == [
        SparseVector({0: 1, 1: -1}), SparseVector({2: 1}), SparseVector({3: 1, 5: Fraction(1, 2)})
    ]
    with pytest.raises(ValueError, match=r"^support \[0, 1, 2\] overlaps another vector's$"):
        Subspace([SparseVector({0: 2, 1: 2}), SparseVector({0: 1, 1: 1, 2: 3})])


def _reduce_inputs(rng, n):
    """The n-th seeded input family for the differential test of `Subspace`:
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
    """On 20000 seeded inputs, `Subspace` gives the basis of the general
    elimination in `reference_basis` when the supports are pairwise
    disjoint, and refuses the input otherwise."""
    rng = Random(97)
    dims, refused = set(), 0
    for n in range(20000):
        vecs = _reduce_inputs(rng, n)
        supports = [set(v.support()) for v in vecs]
        if sum(map(len, supports)) == len(set().union(*supports)):
            space = Subspace(vecs)
            assert space.basis == reference_basis(vecs)
            dims.add(space.dim)
        else:
            with pytest.raises(ValueError):
                Subspace(vecs)
            refused += 1
    assert dims == set(range(1, 9)) and refused > 5000


def test_subspace_work_follows_row_entries(monkeypatch):
    """300 disjoint chain vectors c e_{2k} + e_{2k+1}, half of them monic:
    `Subspace` keeps each monic vector as it is and rescales only the other
    150, once each."""
    calls = []
    counted = SparseVector.scale

    def counting(self, c):
        calls.append(1)
        return counted(self, c)

    vecs = [SparseVector({2 * k: 1 + k % 2, 2 * k + 1: 1}) for k in range(300)]
    monkeypatch.setattr(SparseVector, "scale", counting)
    space = Subspace(reversed(vecs))
    assert space.dim == 300 and len(calls) == 150
    assert all(space.basis[k] is vecs[k] for k in range(0, 300, 2))


def test_intersection_examples():
    win = Window(1, 4)

    def span(*vecs):
        return Subspace(vecs)

    e = {i: SparseVector({i: 1}) for i in win.indices()}
    assert subspace_intersection(span(e[2]), span(e[3])).dim == 0
    line = span(SparseVector({1: 2, 2: 2}))
    assert subspace_intersection(line, span(SparseVector({1: -1, 2: -1}))) == line
    assert subspace_intersection(line, span(SparseVector({1: 1, 2: 2}))).dim == 0
    assert subspace_intersection(span(), line).dim == 0
    # general spans meet through the reference complement route
    a = reference_span([SparseVector({1: 1, 2: 1}), e[3]])
    assert complement_intersection(a, a, win) == a
    b = reference_span([SparseVector({1: 1, 2: 1}), e[4]])
    assert complement_intersection(a, b, win).basis == [SparseVector({1: 1, 2: 1})]
    with pytest.raises(ValueError, match="^spans of dimension 2 and 1: only lines are intersected$"):
        subspace_intersection(span(e[1], e[3]), span(e[3]))


def test_intersection_properties():
    """The reference meet of general spans lies in both and has at least
    the dimension count's lower bound; so does the library meet of lines."""
    rng = Random(13)
    win = Window(0, 5)
    for _ in range(40):
        vecs = lambda k: [
            SparseVector(
                {rng.randint(0, 5): Fraction(rng.randint(-2, 2)) for _ in range(3)}
            )
            for _ in range(k)
        ]
        a, b = reference_span(vecs(rng.randint(1, 4))), reference_span(vecs(rng.randint(1, 4)))
        x = vecs(1)[0]
        lines = (Subspace([x]), Subspace(vecs(1) if rng.random() < 0.5 else [x.scale(-2)]))
        for (a, b), meet in (((a, b), complement_intersection(a, b, win)),
                             (lines, subspace_intersection(*lines))):
            for v in meet.basis:
                assert in_span(a, v) and in_span(b, v)
            assert meet.dim >= a.dim + b.dim - len(win)


def test_intersection_matches_complement_route():
    # lines on disjoint coordinate sets, on shared ones, and planted equal
    # ones meet as the complement route says
    rng = Random(71)
    win = Window(-4, 7)
    disjoint = shared = 0
    for n in range(60):
        cols = list(win.indices())
        rng.shuffle(cols)
        cut = rng.randint(1, len(cols) - 1)
        pools = (cols[:cut], cols[cut:]) if n % 2 else (cols, cols)
        a_vec, b_vec = (
            SparseVector({rng.choice(pool): rng.randint(-3, 3) for _ in range(3)}) for pool in pools
        )
        if n % 4 == 0:
            b_vec = a_vec.scale(rng.randint(1, 3))
        a, b = Subspace([a_vec]), Subspace([b_vec])
        meet = subspace_intersection(a, b)
        assert meet.basis == complement_intersection(a, b, win).basis
        disjoint += set(a_vec.support()).isdisjoint(b_vec.support())
        shared += meet.dim > 0
    assert disjoint >= 25 and shared >= 15


def test_solutions_satisfy_their_systems():
    """Every reference kernel vector of dense rows, and every combination of
    them, solves the system."""
    rng = Random(19)
    win = Window(-2, 5)
    for _ in range(60):
        rows = [
            SparseVector(
                {rng.randint(-2, 5): Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)}
            )
            for _ in range(rng.randint(1, 8))
        ]
        ker = reference_kernel(rows, win)
        combination = SparseVector()
        for n, v in enumerate(ker.basis, start=1):
            assert all(dot(r, v) == 0 for r in rows)
            combination = combination + v.scale(n)
        assert all(dot(r, combination) == 0 for r in rows)


def test_solve_thin_leibniz_system():
    # homogeneous Leibniz system for thin-algebra maps with generator
    # images capped at grade 3: the solution space has dimension 5; its rows
    # overlap, so only the reference kernel solves it
    from helpers import raw_thin_leibniz_rows

    rows, unknowns = raw_thin_leibniz_rows(3, 9)
    assert reference_kernel(rows, Window(0, unknowns - 1)).dim == 5
    with pytest.raises(ValueError):
        kernel_basis(rows, Window(0, unknowns - 1))


def test_kernel_matches_sympy_nullspace():
    """sympy's nullspace, in reduced echelon form, is the reference kernel of
    random rows; of rows with disjoint supports of at most two entries (every
    other case) it is also `kernel_basis`."""
    sympy = pytest.importorskip("sympy")
    rng = Random(53)
    for n in range(60):
        width, max_rows = (7, 9) if n < 40 else (29, 30)  # windows up to 8, then 30 indices
        lo = rng.randint(-3, 2)
        win = Window(lo, lo + rng.randint(0, width))
        cols = list(win.indices())
        coeff = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if n % 2:
            shuffled = rng.sample(cols, len(cols))
            rows = [SparseVector({i: coeff() for i in shuffled[k:k + 2]})
                    for k in range(0, rng.randint(0, len(cols)), 2)]
        else:
            rows = [
                SparseVector({rng.randint(win.lo, win.hi): coeff() for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(0, max_rows))
            ]
        matrix = sympy.Matrix(len(rows), len(cols), lambda r, c: rows[r].get(cols[c]))
        null = matrix.nullspace()
        rref = sympy.Matrix.hstack(*null).T.rref()[0] if null else sympy.zeros(0, len(cols))
        expected = [
            SparseVector({col: Fraction(int(x.p), int(x.q)) for col, x in zip(cols, rref.row(r))})
            for r in range(rref.rows)
        ]
        assert reference_kernel(rows, win).basis == expected
        if n % 2:
            assert kernel_basis(rows, win).basis == expected


def test_intersection_of_spans_built_on_different_windows():
    """A span carries no window: spans drawn from two different windows meet
    as the complement route over the hull of both windows says, in
    dimension dim a + dim b - rank(a and b together), the rank from sympy.
    General spans meet through the reference route, lines (every other
    case) through `subspace_intersection`."""
    sympy = pytest.importorskip("sympy")
    rng = Random(89)
    shared = 0
    for n in range(60):
        wins = []
        for _ in range(2):
            lo = rng.randint(-6, 4)
            wins.append(Window(lo, lo + rng.randint(0, 6)))
        count = 1 if n % 2 else rng.randint(0, 4)
        a_vecs, b_vecs = (
            [
                SparseVector(
                    {rng.randint(w.lo, w.hi): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(3)}
                )
                for _ in range(count)
            ]
            for w in wins
        )
        overlap = range(max(w.lo for w in wins), min(w.hi for w in wins) + 1)
        if n % 4 < 2 and overlap:  # plant a direction both windows hold
            planted = SparseVector({rng.choice(overlap): rng.randint(1, 3) for _ in range(2)})
            if n % 2:
                a_vecs, b_vecs = [planted], [planted.scale(rng.choice((-2, 1, 3)))]
            else:
                a_vecs.append(planted)
                b_vecs.append(planted.scale(rng.choice((-2, 1, 3))))
        hull = Window(min(w.lo for w in wins), max(w.hi for w in wins))
        if n % 2:
            a, b = Subspace(a_vecs), Subspace(b_vecs)
            meet = subspace_intersection(a, b)
            assert meet.basis == complement_intersection(a, b, hull).basis
        else:
            a, b = reference_span(a_vecs), reference_span(b_vecs)
            meet = complement_intersection(a, b, hull)
        both, cols = a.basis + b.basis, list(hull.indices())
        matrix = sympy.Matrix(len(both), len(cols), lambda r, c: both[r].get(cols[c]))
        assert meet.dim == a.dim + b.dim - (matrix.rank() if both else 0)
        for v in meet.basis:
            assert in_span(a, v) and in_span(b, v)
        shared += meet.dim > 0
    assert shared >= 15


# -- the disjoint-support contracts -------------------------------------------


@settings(derandomize=True, max_examples=150)
@given(disjoint_vectors())
def test_subspace_of_disjoint_vectors_matches_reference_span(vecs):
    assert Subspace(vecs) == reference_span(vecs)


@settings(derandomize=True, max_examples=100)
@given(disjoint_vectors(), st.integers(1, 3), st.data())
def test_subspace_drops_zeros_and_refuses_overlap(vecs, zeros, data):
    kept = [v for v in vecs if not v.is_zero()]
    padded = Subspace(data.draw(st.permutations(vecs + [SparseVector()] * zeros)))
    assert padded == Subspace(kept) and padded.dim == len(kept)
    assume(kept)
    shared = data.draw(st.sampled_from([i for v in kept for i in v.support()]))
    clash = SparseVector({shared: data.draw(nonzero), _WIN.hi + 1: data.draw(coefficients)})
    with pytest.raises(ValueError, match=r"overlaps another vector's$"):
        Subspace(data.draw(st.permutations(vecs + [clash])))


@settings(derandomize=True, max_examples=150)
@given(disjoint_vectors(max_entries=2))
def test_kernel_of_disjoint_rows_matches_reference_kernel(rows):
    assert kernel_basis(rows, _WIN) == reference_kernel(rows, _WIN)


@settings(derandomize=True, max_examples=100)
@given(disjoint_vectors(max_entries=2), st.sampled_from(["escapes", "three", "overlaps"]),
       st.data())
def test_kernel_refuses_rows_outside_its_contract(rows, kind, data):
    indices = st.integers(_WIN.lo, _WIN.hi)
    if kind == "escapes":
        outside = data.draw(st.sampled_from([_WIN.lo - 1, _WIN.hi + 1, _WIN.hi + 5]))
        bad, message = SparseVector({outside: 1, data.draw(indices): 1}), r"escapes window -6:6$"
    elif kind == "three":
        bad = SparseVector(dict.fromkeys(data.draw(st.sets(indices, min_size=3, max_size=3)), 2))
        message = r"has 3\+ entries or meets another row$"
    else:
        used = [i for r in rows for i in r.support()]
        assume(used)
        bad = SparseVector({data.draw(st.sampled_from(used)): data.draw(nonzero)})
        message = r"has 3\+ entries or meets another row$"
    at = data.draw(st.integers(0, len(rows)))
    with pytest.raises(ValueError, match=message):
        kernel_basis(rows[:at] + [bad] + rows[at:], _WIN)


@settings(derandomize=True, max_examples=150)
@given(sparse_vectors, sparse_vectors, coefficients, st.booleans())
def test_intersection_of_lines_matches_complement_route(x, y, c, planted):
    a, b = Subspace([x]), Subspace([x.scale(c) if planted else y])
    assert subspace_intersection(a, b) == complement_intersection(a, b, _WIN)


@settings(derandomize=True, max_examples=50)
@given(disjoint_vectors(), sparse_vectors)
def test_intersection_refuses_spans_above_dimension_one(vecs, x):
    space = Subspace(vecs)
    assume(space.dim > 1)
    for a, b in ((space, Subspace([x])), (Subspace([x]), space)):
        with pytest.raises(ValueError, match="only lines are intersected$"):
            subspace_intersection(a, b)
