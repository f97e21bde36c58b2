"""Metamorphic relations through the command line: each request runs through
`cli.main` in process, and its parsed output must move with its input.

sigma_lam(e_i) = lam^i e_i is an automorphism of every algebra, since each
bracket is K(i, j) e_{i+j}, and theta(e_i) = -e_{-i} is one of witt.  sigma
holds for any K, so it sees a misplaced grade but no wrong constant; theta
and linearity see a wrong constant.  A larger `der-basis` support or
`extend` truncation must restrict back to the smaller result.  The module
runs in well under 5 s.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random

from wittlocal import Algebra, Element, SparseVector, Subspace, Window
from wittlocal.algebras import format_element, parse_element
from wittlocal.cli import main

from helpers import ad, in_span, rand_element, reference_reduce, reference_span

LAMBDAS = (2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))


def cli_json(command, *argv):
    """The parsed JSON output of a request that must succeed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--format", "json", *argv])
    assert (code, err.getvalue()) == (0, ""), (command, *argv)
    return json.loads(out.getvalue())


def sigma(lam, x):
    return Element(x.algebra, {i: c * Fraction(lam) ** i for i, c in x.coeffs.items()})


def theta(x):
    return Element(x.algebra, {-i: -c for i, c in x.coeffs.items()})


def cli_bracket(x, y):
    result = cli_json("bracket", "--algebra", x.algebra.value, "--", format_element(x),
                      format_element(y))["result"]
    return parse_element(result, x.algebra)


def cli_centralizer(t, window):
    reply = cli_json("centralizer", "--algebra", t.algebra.value, "--element", format_element(t),
                     "--window", f"{window.lo}:{window.hi}")
    return [parse_element(v, t.algebra) for v in reply["basis"]]


def span(elements):
    return Subspace([x.coeffs for x in elements])


BRACKET_CASES = ((Algebra.WITT, range(-6, 7)), (Algebra.WPLUS, range(1, 9)),
                 (Algebra.THIN, range(1, 9)))


def test_bracket_commutes_with_sigma():
    rng = Random(211)
    nonzero = 0
    for algebra, indices in BRACKET_CASES:
        for lam in LAMBDAS:
            for _ in range(15):
                x, y = (rand_element(rng, algebra, indices, max_terms=5) for _ in range(2))
                xy = cli_bracket(x, y)
                assert cli_bracket(sigma(lam, x), sigma(lam, y)) == sigma(lam, xy), (lam, x, y)
                nonzero += not xy.is_zero()
    assert nonzero >= 200


def test_witt_bracket_commutes_with_theta():
    rng = Random(223)
    nonzero = 0
    for _ in range(150):
        x, y = (rand_element(rng, Algebra.WITT, range(-6, 7), max_terms=5) for _ in range(2))
        xy = cli_bracket(x, y)
        assert cli_bracket(theta(x), theta(y)) == theta(xy), (x, y)
        nonzero += not xy.is_zero()
    assert nonzero >= 100


def test_centralizer_commutes_with_sigma():
    """The centralizer of sigma t is sigma of the centralizer of t, on a
    window that sigma keeps."""
    rng = Random(227)
    dims = 0
    for algebra, indices, window in ((Algebra.WITT, range(-5, 6), Window(-8, 8)),
                                     (Algebra.THIN, range(1, 7), Window(1, 12))):
        for lam in LAMBDAS:
            for _ in range(12):
                t = rand_element(rng, algebra, indices, max_terms=3, nonzero=True)
                basis = cli_centralizer(t, window)
                mapped = span(sigma(lam, v) for v in basis)
                assert span(cli_centralizer(sigma(lam, t), window)) == mapped, (lam, t)
                dims += len(basis)
    assert dims >= 100


def write_map(path, algebra, images):
    table = {"algebra": algebra.value,
             "truncation": {"min": min(images), "max": max(images)},
             "images": {str(k): [[i, str(c)] for i, c in image.coeffs.items()]
                        for k, image in images.items()}}
    path.write_text(json.dumps(table))
    return str(path)


def cli_recover(path, algebra):
    reply = cli_json("recover-inner", "--algebra", algebra.value, "--map", path)
    return parse_element(reply["element"], Algebra(reply["algebra"]))


def test_recover_inner_is_linear(tmp_path):
    """recover-inner of ad(a) + c ad(b) is a + c b, each read from the CLI."""
    rng = Random(229)
    for algebra, inner, indices, window in (
            (Algebra.WITT, Algebra.WITT, range(-4, 5), Window(-10, 10)),
            (Algebra.WPLUS, Algebra.WPLUS_EXT, range(0, 6), Window(1, 20))):
        for n in range(20):
            a, b = (rand_element(rng, inner, indices, nonzero=True) for _ in range(2))
            c = rng.choice(LAMBDAS)
            da, db = (ad(z, window, algebra).images for z in (a, b))
            mixed = {k: da[k] + c * db[k] for k in window.indices()}
            got_a, got_b, got = (cli_recover(write_map(tmp_path / f"{n}{name}.json", algebra, m),
                                             algebra)
                                 for name, m in (("a", da), ("b", db), ("mixed", mixed)))
            assert got == got_a + c * got_b, (algebra, a, b, c)
            assert got_a == a, (algebra, a)


def cli_extend(algebra, e1, e2, truncation):
    reply = cli_json("extend", "--algebra", algebra.value, "--e1", format_element(e1),
                     "--e2", format_element(e2), "--truncation", str(truncation))
    assert "status" not in reply, (e1, e2)  # images that extend
    return {int(k): Element(algebra, SparseVector({i: Fraction(c) for i, c in terms}))
            for k, terms in reply["images"].items()}


def test_wplus_extend_is_linear():
    """extend of f + c g is extend f + c extend g, for the generator images
    f and g of inner derivations ad(a) and ad(b), a and b in wplus_ext."""
    rng = Random(233)
    wplus, truncation = Algebra.WPLUS, 12
    for _ in range(40):
        f, g = ([image for image in ad(rand_element(rng, Algebra.WPLUS_EXT, range(0, 6)),
                                       Window(1, 2), wplus).images.values()]
                for _ in range(2))
        c = rng.choice(LAMBDAS)
        tf, tg = cli_extend(wplus, *f, truncation), cli_extend(wplus, *g, truncation)
        mixed = cli_extend(wplus, f[0] + c * g[0], f[1] + c * g[1], truncation)
        assert mixed == {k: tf[k] + c * tg[k] for k in range(1, truncation + 1)}, (f, g, c)


def test_thin_extend_is_linear():
    """extend of f + c g is extend f + c extend g on thin, where every pair
    of generator images with no e_1 term in D(e_2) extends."""
    rng = Random(239)
    thin, truncation = Algebra.THIN, 12
    for _ in range(40):
        f, g = ((rand_element(rng, thin, range(1, 7)), rand_element(rng, thin, range(2, 7)))
                for _ in range(2))
        c = rng.choice(LAMBDAS)
        tf, tg = cli_extend(thin, *f, truncation), cli_extend(thin, *g, truncation)
        mixed = cli_extend(thin, f[0] + c * g[0], f[1] + c * g[1], truncation)
        assert mixed == {k: tf[k] + c * tg[k] for k in range(1, truncation + 1)}, (f, g, c)


def test_thin_extend_truncation_is_a_prefix():
    """The table at truncation N is the table at N + 1 without its last
    image: D(e_k) does not depend on how far the table runs."""
    rng = Random(241)
    thin = Algebra.THIN
    for truncation in range(3, 15):
        for _ in range(3):
            e1, e2 = rand_element(rng, thin, range(1, 7)), rand_element(rng, thin, range(2, 7))
            longer = cli_extend(thin, e1, e2, truncation + 1)
            assert cli_extend(thin, e1, e2, truncation) == {
                k: longer[k] for k in range(1, truncation + 1)}, (e1, e2, truncation)


def cli_der_basis(algebra, n):
    """The der-basis space at support n: its coordinates and its basis, with
    alpha_i at index 2i and beta_i at index 2i + 1."""
    reply = cli_json("der-basis", "--algebra", algebra.value, "--support", str(n))

    def index(name):
        gen, i = name.split("_")
        return 2 * int(i) + (gen == "beta")

    return ({index(name) for name in reply["coordinates"]},
            [SparseVector({index(name): Fraction(c) for name, c in v["coords"]})
             for v in reply["basis"]])


def test_der_basis_support_enlargement_restricts():
    """The space at support n is the part of the space at n + 1 that lies
    in n's coordinates C: each basis vector at n lies in the span at n + 1,
    and the dims agree, where the part of span B in C has dimension dim B
    minus the rank of B's entries off C."""
    for algebra in (Algebra.WPLUS, Algebra.THIN):
        coords, basis = cli_der_basis(algebra, 1)
        for n in range(1, 17):
            wider_coords, wider = cli_der_basis(algebra, n + 1)
            assert coords < wider_coords, (algebra, n)
            wider_span = reference_span(wider)
            assert all(in_span(wider_span, v) for v in basis), (algebra, n)
            off = [SparseVector({i: c for i, c in v.items() if i not in coords}) for v in wider]
            assert len(basis) == len(wider) - len(reference_reduce(off)), (algebra, n)
            coords, basis = wider_coords, wider
