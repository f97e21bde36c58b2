"""Shared test utilities: seeded random elements and independent oracles."""

import re
from fractions import Fraction
from random import Random

from wittlocal import (
    Algebra,
    Element,
    LinearMapTable,
    NotADerivation,
    ParseError,
    RigidityTrace,
    SparseVector,
    Subspace,
    ThinDerivationParams,
    Window,
    forced_image_space,
    subspace_intersection,
)


def _witt_rule(i: int, j: int) -> list[tuple[int, int]]:
    return [] if i == j else [(i + j, j - i)]


def _thin_rule(i: int, j: int) -> list[tuple[int, int]]:
    if i == 1 and j >= 2:
        return [(j + 1, 1)]
    if j == 1 and i >= 2:
        return [(i + 1, -1)]
    return []


_RULES = {
    Algebra.WITT: _witt_rule,
    Algebra.WPLUS: _witt_rule,
    Algebra.WPLUS_EXT: _witt_rule,
    Algebra.THIN: _thin_rule,
}


def basis_rule(algebra: Algebra):
    """The algebra's bracket on basis vectors, (i, j) -> the (index,
    coefficient) terms of [e_i, e_j].  Written out here, not read from
    `Algebra.constant`, so the oracles below check the library's K against
    a second definition."""
    return _RULES[algebra]


def constant_rule(constant):
    """The basis rule of an injected structure constant K: [e_i, e_j] is
    K(i, j) e_{i+j}, no term when K(i, j) = 0."""

    def rule(i, j):
        c = constant(i, j)
        return [(i + j, c)] if c else []

    return rule


def reference_bracket(x: Element, y: Element) -> Element:
    """[x, y] expanded term by term through `basis_rule`."""
    assert x.algebra is y.algebra
    rule = basis_rule(x.algebra)
    out: dict[int, Fraction] = {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            for k, c in rule(i, j):
                out[k] = out.get(k, Fraction(0)) + ci * cj * c
    return Element(x.algebra, out)


def ad(a: Element, window: Window, algebra: Algebra | None = None) -> LinearMapTable:
    """The inner map x -> [a, x] through `reference_bracket`, tabulated on
    the window's basis indices, each image moved into `algebra` (a's own by
    default): `ad(a, window, Algebra.WPLUS)` for a wplus_ext witness."""
    target = algebra or a.algebra
    images = {k: reference_bracket(a, Element.basis(a.algebra, k)).in_algebra(target)
              for k in window.indices()}
    return LinearMapTable(target, window, images)


def reference_centralizer(algebra: Algebra, t: Element, window: Window) -> Subspace:
    """The centralizer of t on the window by brute force: [e_g, t] for every
    window index g through `reference_bracket`, one constraint row per grade
    of those images, then `reference_kernel`."""
    t = t.in_algebra(algebra)
    images = {g: reference_bracket(Element.basis(algebra, g), t) for g in window.indices()}
    grades = sorted({h for image in images.values() for h in image.support()})
    rows = [SparseVector({g: image.coefficient(h) for g, image in images.items()}) for h in grades]
    return reference_kernel(rows, window)


def reference_forced_image_space(algebra: Algebra, probe: int, x: Element, window: Window):
    """The forced space at x for probe e_probe through the centralizer of
    e_probe by brute force: [a, x] through `reference_bracket` for each basis
    vector a of `reference_centralizer` (witnesses for wplus live in
    wplus_ext)."""
    walg = Algebra.WPLUS_EXT if algebra is Algebra.WPLUS else algebra
    cent = reference_centralizer(walg, Element.basis(walg, probe), window)
    lifted = x.in_algebra(walg)
    return reference_span([reference_bracket(Element(walg, v), lifted).coeffs for v in cent.basis])


def reference_reduce(vectors) -> dict[int, dict[int, Fraction]]:
    """Reduced row echelon form of the span as first written: each new row
    is reduced by every pivot column it holds, stored monic, and its lead is
    then cleared from every earlier pivot row (a scan of all pivots per row).
    Returns pivot index -> row.  The library has no general elimination, so
    this is the tests' only one."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for v in vectors:
        row = dict(v._entries)
        for col in [c for c in row if c in pivots]:
            _reference_add_multiple(row, -row[col], pivots[col])
        if not row:
            continue
        lead = min(row)
        inv = 1 / row[lead]
        row = {i: inv * x for i, x in row.items()}
        for prow in pivots.values():
            f = prow.get(lead)
            if f:
                _reference_add_multiple(prow, -f, row)
        pivots[lead] = row
    return pivots


def _reference_add_multiple(row: dict[int, Fraction], f: Fraction, other: dict[int, Fraction]) -> None:
    """row += f * other in place, dropping entries that cancel."""
    for i, x in other.items():
        value = row.get(i, 0) + f * x
        if value:
            row[i] = value
        else:
            del row[i]


def reference_basis(vectors) -> list[SparseVector]:
    """The canonical basis of the span through `reference_reduce`, pivots
    ascending."""
    return [SparseVector(row) for _, row in sorted(reference_reduce(vectors).items())]


def reference_span(vectors) -> Subspace:
    """The span of any vectors as a `Subspace` holding `reference_basis`,
    built without `Subspace.__init__`, so it compares equal to a library
    result only when the library's canonical basis agrees with it."""
    space = object.__new__(Subspace)
    Subspace.basis.__set__(space, reference_basis(vectors))  # the slot's own setter: no guard
    return space


def reference_kernel(rows, window: Window) -> Subspace:
    """{v supported in the window : <row, v> = 0 for every row}, read off
    `reference_reduce`: one vector per free column i, with 1 at i and minus
    each pivot row's entry in column i at that pivot, then `reference_span`."""
    assert all(i in window for r in rows for i in r.support()), "row escapes the window"
    pivots = reference_reduce(rows)
    free = {i: {i: Fraction(1)} for i in window.indices() if i not in pivots}
    for col, row in pivots.items():
        for i, x in row.items():
            if i != col:
                free[i][col] = -x
    return reference_span(SparseVector(entries) for entries in free.values())


def dot(u: SparseVector, v: SparseVector) -> Fraction:
    """Sum of u_i v_i over the shared support."""
    return sum((c * v.get(i) for i, c in u.items()), Fraction(0))


def in_span(space: Subspace, v: SparseVector) -> bool:
    """Whether v lies in the span: reduce it by the monic echelon basis and
    test for zero."""
    rem = v
    for b in space.basis:
        c = rem.get(b.leading_index())
        if c != 0:
            rem = rem - b.scale(c)
    return rem.is_zero()


def full_subspace(window: Window) -> Subspace:
    """Every vector supported in the window."""
    return Subspace([SparseVector.unit(i) for i in window.indices()])


def zero_table(algebra: Algebra, window: Window) -> LinearMapTable:
    """The zero map tabulated on the window."""
    z = Element.zero(algebra)
    return LinearMapTable(algebra, window, {k: z for k in window.indices()})


def rand_rational(rng: Random, max_num=3, max_den=3, allow_zero=True) -> Fraction:
    while True:
        q = Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))
        if allow_zero or q != 0:
            return q


def rand_element(
    rng: Random,
    algebra: Algebra,
    indices,
    max_terms=4,
    max_num=3,
    max_den=3,
    nonzero=False,
) -> Element:
    indices = list(indices)
    while True:
        chosen = rng.sample(indices, k=min(rng.randint(1, max_terms), len(indices)))
        entries = {
            i: rand_rational(rng, max_num, max_den, allow_zero=False) for i in chosen
        }
        # thin out randomly so sparser supports appear too
        entries = {i: c for i, c in entries.items() if rng.random() < 0.8}
        elt = Element(algebra, entries)
        if not (nonzero and elt.is_zero()):
            return elt


def raw_thin_leibniz_rows(n: int, depth: int) -> tuple[list[SparseVector], int]:
    """Constraint rows of the Leibniz law for thin-algebra maps, built from
    scratch on the basis rule: one unknown per image coefficient d[k][g]
    (k = 1..depth; the two generator images capped at grade n), one row per
    (pair, grade).  Independent of the generator-extension machinery."""
    rule = basis_rule(Algebra.THIN)
    grade_cap = depth + n
    ids: dict[tuple[int, int], int] = {}
    for k in range(1, depth + 1):
        cap = n if k <= 2 else grade_cap
        for g in range(1, cap + 1):
            ids[(k, g)] = len(ids)

    def support(k):
        return range(1, (n if k <= 2 else grade_cap) + 1)

    rows = []
    for i in range(1, depth + 1):
        for j in range(i + 1, depth + 1):
            lhs = rule(i, j)
            if any(h > depth for h, _ in lhs):
                continue  # image of e_h not among the unknowns
            per_grade: dict[int, dict[int, int]] = {}

            def add(grade, unknown, c):
                row = per_grade.setdefault(grade, {})
                row[unknown] = row.get(unknown, 0) + c

            for h, c in lhs:
                for g in support(h):
                    add(g, ids[(h, g)], c)
            for g in support(i):
                for h, c in rule(g, j):
                    add(h, ids[(i, g)], -c)
            for g in support(j):
                for h, c in rule(i, g):
                    add(h, ids[(j, g)], -c)
            for row in per_grade.values():
                vec = SparseVector({t: Fraction(c) for t, c in row.items()})
                if not vec.is_zero():
                    rows.append(vec)
    return rows, len(ids)


def reference_extension(algebra: Algebra, img_e1: Element, img_e2: Element, truncation: int):
    """Generator extension on whole elements, independent of the per-shift
    solver: images of e_3..e_N from e_k = [e_1, e_{k-1}] (rescaled by
    1/(k-2) for wplus), then every cross relation in lexicographic order.
    Returns (images, None) or (images, ((i, j), residual)) for the first
    relation whose residual is nonzero."""
    e1 = Element.basis(algebra, 1)
    images = {1: img_e1, 2: img_e2}
    for k in range(3, truncation + 1):
        e_prev = Element.basis(algebra, k - 1)
        forced = reference_bracket(images[1], e_prev) + reference_bracket(e1, images[k - 1])
        if algebra is Algebra.WPLUS:
            forced = forced.scale(Fraction(1, k - 2))
        images[k] = forced
    for i in range(2, truncation + 1):
        for j in range(i + 1, truncation + 1):
            if algebra is Algebra.WPLUS and i + j > truncation:
                continue
            lhs = Element.zero(algebra)
            for h, c in basis_rule(algebra)(i, j):
                lhs = lhs + images[h].scale(c)
            e_i, e_j = Element.basis(algebra, i), Element.basis(algebra, j)
            rhs = reference_bracket(images[i], e_j) + reference_bracket(e_i, images[j])
            residual = lhs - rhs
            if not residual.is_zero():
                return images, ((i, j), residual)
    return images, None


def reference_extension_table(algebra: Algebra, img_e1: Element, img_e2: Element,
                              truncation: int) -> LinearMapTable:
    """The table of `reference_extension`, which must pass every relation."""
    images, failure = reference_extension(algebra, img_e1, img_e2, truncation)
    assert failure is None, failure
    return LinearMapTable(algebra, Window(1, truncation), images)


def generator_rigidity(algebra: Algebra, i: int, window: Window) -> RigidityTrace:
    """The rigidity statement for e_i probed at the two generators (e_0, e_1
    on witt, e_1, e_2 on wplus): their forced spaces through the public
    `forced_image_space`, met by `subspace_intersection`."""
    probes = [0, 1] if algebra is Algebra.WITT else [1, 2]
    forced = [forced_image_space(algebra, p, Element.basis(algebra, i), window) for p in probes]
    return RigidityTrace(probes, forced, subspace_intersection(*forced))


def complement_intersection(a: Subspace, b: Subspace, window: Window) -> Subspace:
    """Intersection of two spans supported in the window as the complement
    of the sum of their complements there, with no shortcut for disjoint
    supports."""
    a_perp, b_perp = reference_kernel(a.basis, window), reference_kernel(b.basis, window)
    return reference_kernel(a_perp.basis + b_perp.basis, window)


def reference_jacobi(algebra: Algebra, window, constant=None):
    """The ordered-triple Jacobi scan: every (i, j, k) in the window, in
    lexicographic order, with no use of antisymmetry, bracketing through
    `basis_rule` or the rule of an injected structure constant.  Returns
    (passed, first failing triple, residual)."""
    rule = constant_rule(constant) if constant else basis_rule(algebra)
    idx = window.indices()
    for i in idx:
        for j in idx:
            for k in idx:
                residual: dict[int, int] = {}
                for a, inner, b in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, c1 in rule(inner, b):
                        for h, c2 in rule(a, m):
                            residual[h] = residual.get(h, 0) + c1 * c2
                if any(residual.values()):
                    return False, (i, j, k), SparseVector(residual)
    return True, None, None


def reference_leibniz(table, degree_bound: int):
    """The Leibniz check on whole elements with `reference_bracket`, pair by pair.
    Returns (passed, pairs_checked, first failing pair, residual); raises
    ValueError when no pair is checkable."""
    win, alg = table.window, table.algebra
    checked, failure = 0, None
    for i in win.indices():
        for j in win.indices():
            if j < i or abs(i) > degree_bound or abs(j) > degree_bound or (i + j) not in win:
                continue
            checked += 1
            if failure is not None:
                continue
            lhs = Element.zero(alg)
            for k, c in basis_rule(alg)(i, j):
                lhs = lhs + table.image(k).scale(c)
            e_i, e_j = Element.basis(alg, i), Element.basis(alg, j)
            rhs = reference_bracket(table.image(i), e_j) + reference_bracket(e_i, table.image(j))
            if lhs != rhs:
                failure = ((i, j), lhs - rhs)
    if checked == 0:
        raise ValueError("no checkable pairs")
    if failure is None:
        return True, checked, None, None
    return False, checked, failure[0], failure[1]


def reference_recover_inner(table) -> Element:
    """Inner recovery with the candidate checked by `reference_bracket` index
    by index: the closed forms of `recover_inner_wplus` (table in wplus,
    witness in wplus_ext) and `recover_inner_witt`, raising NotADerivation
    with the same messages.  Call it only on tables that pass the truncation
    guards."""
    if table.algebra is Algebra.WPLUS:
        d1, d2 = table.image(1), table.image(2)
        entries = {0: d1.coefficient(1), 1: d2.coefficient(3)}
        for i in d1.support():
            if i >= 3:
                entries[i - 1] = -d1.coefficient(i) / (i - 2)
        a = Element(Algebra.WPLUS_EXT, entries)
    else:
        d0 = table.image(0)
        if d0.coefficient(0) != 0:
            raise NotADerivation("D(e_0) has an e_0 component, which no [a, e_0] produces")
        entries = {j: -d0.coefficient(j) / j for j in d0.support()}
        entries[0] = table.image(1).coefficient(1)
        a = Element(Algebra.WITT, entries)
    for k in table.window.indices():
        image = table.image(k).in_algebra(a.algebra)
        if reference_bracket(a, Element.basis(a.algebra, k)) != image:
            raise NotADerivation(f"table is not inner: mismatch at e_{k}")
    return a


def reference_derivation_space(algebra: Algebra, n: int, depth: int | None = None):
    """The derivation-space solve with every cross-relation residual built
    in Fractions and passed to `reference_kernel` unreduced, one row per
    relation and shift block.  Returns (coordinate names, canonical Subspace)."""

    rule = basis_rule(algebra)

    def constant(i, j):
        return sum(c for _, c in rule(i, j))

    def sequence(s, a, b):
        c = [Fraction(0), Fraction(a), Fraction(b)]
        for k in range(3, depth + 1):
            forced = a * constant(1 + s, k - 1) + c[k - 1] * constant(1, k - 1 + s)
            c.append(forced / constant(1, k - 1))
        return c

    def residual(s, c, i, j):
        lhs = sum(coef * c[h] for h, coef in rule(i, j))
        return lhs - c[i] * constant(i + s, j) - c[j] * constant(i, j + s)

    depth = 2 * n + 3 if depth is None else depth
    top = {1: n, 2: n if algebra is Algebra.THIN else n + 1}
    beta_lo = 2 if algebra is Algebra.THIN else 1
    coords = [(1, i) for i in range(1, n + 1)] + [(2, i) for i in range(beta_lo, top[2] + 1)]
    position = {coord: p for p, coord in enumerate(coords)}
    relations = [
        (i, j)
        for i in range(2, depth + 1)
        for j in range(i + 1, depth + 1)
        if algebra is Algebra.THIN or i + j <= depth
    ]
    unit = {1: (1, 0), 2: (0, 1)}
    solutions = []
    for s in range(-1, n):
        unknowns = [(gen, gen + s) for gen in (1, 2) if 1 <= gen + s <= top[gen]]
        parts = [sequence(s, *unit[gen]) for gen, _ in unknowns]
        rows = [
            SparseVector({t: residual(s, c, i, j) for t, c in enumerate(parts)})
            for i, j in relations
        ]
        for vec in reference_kernel(rows, Window(0, len(unknowns) - 1)).basis:
            assert all(unknowns[t] in position for t in vec.support()), "thin beta_1 != 0"
            solutions.append(SparseVector({position[unknowns[t]]: c for t, c in vec.items()}))
    names = [f"{'alpha' if gen == 1 else 'beta'}_{i}" for gen, i in coords]
    return names, reference_span(solutions)


def reference_apply(table, x: Element) -> Element:
    """The table extended by linearity to x, as a fold over whole elements:
    one scaled image added at a time."""
    out = Element.zero(table.algebra)
    for k, c in x.coeffs.items():
        out = out + table.image(k).scale(c)
    return out


# Element text and the thin witnesses as first written: every coefficient and
# image built through the normalising public constructors.  The library's
# lean versions must agree with these value for value and byte for byte.

_TERM_RE = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?e_(-?\d+)")


def reference_parse_element(text: str, algebra: Algebra) -> Element:
    """`parse_element` with each term summed as a Fraction into a dict that
    `Element` normalises; the same `ParseError` messages."""
    compact = re.sub(r"\s+", "", text)
    if compact in ("0", "+0", "-0"):
        return Element.zero(algebra)
    if not compact:
        raise ParseError("empty element text")
    out: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if not m or (not first and m.group(1) == ""):
            raise ParseError(f"bad element text {text!r} at position {pos}")
        sign = -1 if m.group(1) == "-" else 1
        if m.group(2):
            num, _, den = m.group(2).partition("/")
            if den and int(den) == 0:
                raise ParseError(f"zero denominator in {text!r}")
            coeff = Fraction(int(num), int(den) if den else 1)
        else:
            coeff = Fraction(1)
        k = int(m.group(3))
        if not algebra.contains_index(k):
            raise ParseError(f"index {k} not allowed in {algebra}: {text!r}")
        out[k] = out.get(k, Fraction(0)) + sign * coeff
        pos = m.end()
        first = False
    return Element(algebra, out)


def reference_format_element(x: Element) -> str:
    """`format_element` through `abs`, Fraction comparisons and `str(Fraction)`."""
    terms = x.coeffs.items()
    if not terms:
        return "0"
    parts: list[str] = []
    for n, (k, c) in enumerate(terms):
        mag = abs(c)
        body = f"e_{k}" if mag == 1 else f"{Fraction(mag)}*e_{k}"
        if n == 0:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def reference_thin_derivation(params: ThinDerivationParams, truncation: int) -> LinearMapTable:
    """`thin_derivation` with every image built through `Element`:
    D(e_j) = ((j-2) alpha_1 + beta_2) e_j + sum_{i>=3} beta_i e_{i+j-2}, j >= 3."""
    if truncation < 3:
        raise ValueError("truncation must be at least 3")
    alpha1 = params.alpha.coefficient(1)
    beta2 = params.beta.coefficient(2)
    images: dict[int, Element] = {1: params.alpha, 2: params.beta}
    for j in range(3, truncation + 1):
        entries = {j: (j - 2) * alpha1 + beta2}
        for i, c in params.beta.coeffs.items():
            if i >= 3:
                entries[i + j - 2] = entries.get(i + j - 2, Fraction(0)) + c
        images[j] = Element(Algebra.THIN, entries)
    return LinearMapTable(Algebra.THIN, Window(1, truncation), images)


def reference_thin_delta(x: Element) -> Element:
    """`thin_delta` by element arithmetic: x minus its e_1 component, or zero
    when that component vanishes."""
    assert x.algebra is Algebra.THIN
    if x.coefficient(1) == 0:
        return Element.zero(Algebra.THIN)
    return x - Element.basis(Algebra.THIN, 1).scale(x.coefficient(1))


def reference_witness_table(cert) -> LinearMapTable:
    """The certificate's witness params tabulated on 1..max(3, top index of
    the pair) by `reference_extension`, which brackets whole elements and
    does not use the closed form of `ThinDerivationParams.image_terms`."""
    top = max(3, cert.x.support_bound(), cert.y.support_bound())
    return reference_extension_table(Algebra.THIN, cert.witness.alpha, cert.witness.beta, top)


def reference_verify_pair(delta, cert) -> tuple[bool, Element, Element]:
    """(passed, residual_x, residual_y) of `verify_pair` by element
    arithmetic: delta(m) - `reference_apply`(extension, m) for each pair
    member m, the extension being `reference_witness_table`."""
    table = reference_witness_table(cert)
    rx = delta(cert.x) - reference_apply(table, cert.x)
    ry = delta(cert.y) - reference_apply(table, cert.y)
    return rx.is_zero() and ry.is_zero(), rx, ry


def assert_normalised_element(x: Element) -> None:
    """x stores only int indices and nonzero Fractions, as `SparseVector`'s
    public constructor would: the lean paths wrap their dicts unchecked."""
    entries = dict(x.coeffs.items())
    assert all(type(k) is int and type(c) is Fraction and c != 0 for k, c in entries.items())
    assert x.coeffs == SparseVector(entries) and hash(x.coeffs) == hash(SparseVector(entries))


# argv of every subcommand's `--help` (both levels of `two-local`) and of the
# bare `wittlocal` call: argparse prints or refuses these by itself
HELP_REQUESTS = [
    *([*name.split(), "--help"] for name in (
        "bracket", "jacobi", "leibniz", "extend", "der-basis", "recover-inner", "centralizer",
        "rigidity", "two-local", "two-local verify", "two-local additivity")),
    [],
]
