"""Acceptance gate: one test per criterion, each printing a verdict line.

Everything asserts exact equality; the only tolerances are wall-clock
budgets on the heavyweight sweeps.  Random suites are seeded and their
sizes fixed, so reruns are bit-identical.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

from wittlocal import (
    Algebra,
    Element,
    InconsistentExtension,
    LinearMapTable,
    SparseVector,
    Window,
    bracket,
    centralizer,
    derivation_space_basis,
    extend_from_generators,
    jacobi_check,
    leibniz_check,
    recover_inner_wplus,
    rigidity_check,
    thin_delta,
    thin_derivation,
    thin_witness,
    verify_pair,
)
from wittlocal.cli import main as cli_main
from wittlocal.derivations import ThinDerivationParams

from helpers import (
    ad,
    generator_rigidity,
    rand_element,
    raw_thin_leibniz_rows,
    reference_extension_table,
    reference_kernel,
)


def _verdict(number, label, body):
    try:
        body()
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_1_structure_sanity():
    def body():
        start = time.perf_counter()
        assert jacobi_check(Algebra.WITT, Window(-20, 20)).passed
        assert jacobi_check(Algebra.WPLUS, Window(1, 40)).passed
        assert jacobi_check(Algebra.WPLUS_EXT, Window(0, 40)).passed
        assert jacobi_check(Algebra.THIN, Window(1, 40)).passed
        assert time.perf_counter() - start < 10.0

    _verdict(1, "structure sanity (Jacobi on all four algebras)", body)


def test_criterion_2_inner_round_trip():
    def body():
        start = time.perf_counter()
        rng = Random(20240202)
        for _ in range(200):
            a = rand_element(rng, Algebra.WPLUS_EXT, range(0, 11), max_num=9, max_den=9)
            table = ad(a, Window(1, 27), Algebra.WPLUS)
            assert recover_inner_wplus(table) == a
        assert time.perf_counter() - start < 5.0

    _verdict(2, "inner round-trip on wplus (200 seeded witnesses)", body)


def test_criterion_3_derivation_space_dimensions():
    def body():
        start = time.perf_counter()
        for n in range(2, 9):
            space = derivation_space_basis(Algebra.THIN, n)
            assert space.dim == 2 * n - 1, (n, space.dim)
            # independent oracle: kernel of the raw Leibniz constraint
            # matrix over all image coefficients, no generator shortcut
            rows, unknowns = raw_thin_leibniz_rows(n, 2 * n + 3)
            raw_dim = reference_kernel(rows, Window(0, unknowns - 1)).dim
            assert raw_dim == 2 * n - 1, (n, raw_dim)
        for n in range(2, 9):
            space = derivation_space_basis(Algebra.WPLUS, n)
            assert space.dim == n, (n, space.dim)
            for vec in space.space.basis:
                e1, e2 = space.generator_images(vec)
                table = extend_from_generators(Algebra.WPLUS, e1, e2, 2 * n + 5)
                assert isinstance(table, LinearMapTable)
                recover_inner_wplus(table)  # raises if not inner
        assert time.perf_counter() - start < 30.0

    _verdict(3, "derivation-space dimensions (thin 2n-1, wplus n + inner)", body)


def test_criterion_4_thin_family_equivalence():
    def body():
        rng = Random(20240204)
        for _ in range(100):
            alpha = {
                rng.randint(1, 8): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for _ in range(rng.randint(0, 4))
            }
            beta = {
                rng.randint(2, 8): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for _ in range(rng.randint(0, 4))
            }
            params = ThinDerivationParams(Element(Algebra.THIN, alpha),
                                          Element(Algebra.THIN, beta))
            table = thin_derivation(params, 30)
            assert leibniz_check(table, 30).passed
        for n in range(2, 9):
            space = derivation_space_basis(Algebra.THIN, n)
            for vec in space.space.basis:
                e1, e2 = space.generator_images(vec)
                params = ThinDerivationParams.from_generator_images(e1, e2)
                direct = thin_derivation(params, 2 * n + 3)
                extended = extend_from_generators(Algebra.THIN, e1, e2, 2 * n + 3)
                assert direct == extended == reference_extension_table(
                    Algebra.THIN, e1, e2, 2 * n + 3)

    _verdict(4, "thin derivation family (Leibniz at depth 30, read-off converse)", body)


def test_criterion_5_rigidity():
    def body():
        start = time.perf_counter()
        for i in range(-20, 21):
            if i in (0, 1):
                continue
            assert generator_rigidity(Algebra.WITT, i, Window(-25, 25)).rigid, i
        for i in range(3, 41):
            assert generator_rigidity(Algebra.WPLUS, i, Window(0, 45)).rigid, i
        rng = Random(20240205)
        for _ in range(100):
            x = rand_element(rng, Algebra.WITT, range(-5, 6), nonzero=True)
            assert rigidity_check(Algebra.WITT, x, Window(-15, 15)).rigid, str(x)
        for _ in range(100):
            x = rand_element(rng, Algebra.WPLUS, range(1, 6), nonzero=True)
            assert rigidity_check(Algebra.WPLUS, x, Window(0, 15)).rigid, str(x)
        assert time.perf_counter() - start < 10.0

    _verdict(5, "rigidity (basis sweep + 200 random targets, zero intersections)", body)


def test_criterion_6_centralizers():
    def body():
        cases = [
            (Algebra.WITT, range(-10, 11), Window(-10, 10)),
            (Algebra.WPLUS_EXT, range(0, 16), Window(0, 15)),
        ]
        for algebra, ks, window in cases:
            for k in ks:
                space = centralizer(algebra, Element.basis(algebra, k), window)
                assert space.dim == 1, (algebra, k)
                assert space.basis == [SparseVector({k: 1})], (algebra, k)
                # brute-force oracle: constraint rows assembled through
                # element brackets, grade by grade
                t = Element.basis(algebra, k)
                images = {
                    g: bracket(Element.basis(algebra, g), t) for g in window.indices()
                }
                grades = sorted({h for img in images.values() for h in img.support()})
                rows = [
                    SparseVector({g: images[g].coefficient(h) for g in window.indices()})
                    for h in grades
                ]
                assert reference_kernel(rows, window) == space

    _verdict(6, "centralizers of basis vectors are the expected lines", body)


def test_criterion_7_thin_counterexample():
    def body():
        start = time.perf_counter()
        code, out = _run_cli(["two-local", "additivity"])
        assert code == 0
        assert "delta(x + y) = 0" in out
        assert "delta(x) + delta(y) = 2*e_2" in out
        assert "violated = true" in out
        rng = Random(20240207)
        for _ in range(1000):
            x = rand_element(rng, Algebra.THIN, range(1, 13))
            y = rand_element(rng, Algebra.THIN, range(1, 13))
            cert = thin_witness(x, y)
            assert verify_pair(thin_delta, cert).passed, (str(x), str(y))
            table = thin_derivation(cert.witness, max(3, x.support_bound(), y.support_bound()))
            assert leibniz_check(table, table.window.hi).passed
        assert time.perf_counter() - start < 10.0

    _verdict(7, "thin 2-local map: counterexample + 1000 verified pairs", body)


def test_criterion_8_inconsistency_detection():
    def body():
        out = extend_from_generators(
            Algebra.WPLUS,
            Element.basis(Algebra.WPLUS, 2),
            Element.zero(Algebra.WPLUS),
            10,
        )
        assert isinstance(out, InconsistentExtension)
        assert out.relation == (2, 3)
        assert out.residual == Element(Algebra.WPLUS, {6: Fraction(4, 3)})
        assert out.describe() == "inconsistent at (2, 3): residual = 4/3*e_6"
        code, text = _run_cli(
            ["extend", "--algebra", "wplus", "--e1", "e_2", "--e2", "0", "--truncation", "10"]
        )
        assert code == 0
        assert text == "inconsistent at (2, 3): residual = 4/3*e_6\n"

    _verdict(8, "generator images that cannot extend are reported", body)


def test_criterion_9_cli_golden():
    def body():
        code, out = _run_cli(["bracket", "--algebra", "witt", "e_2", "e_3"])
        assert (code, out) == (0, "e_5\n")
        code, out = _run_cli(
            ["bracket", "--algebra", "witt", "e_2", "e_3", "--format", "json"]
        )
        assert code == 0
        assert out == (
            '{\n  "algebra": "witt",\n  "x": "e_2",\n  "y": "e_3",\n  "result": "e_5"\n}\n'
        )

        code, out = _run_cli(["two-local", "additivity"])
        assert code == 0
        assert out == (
            "x = e_1 + e_2\n"
            "y = -e_1 + e_2\n"
            "delta(x + y) = 0\n"
            "delta(x) + delta(y) = 2*e_2\n"
            "violated = true\n"
        )
        code, out = _run_cli(["two-local", "additivity", "--format", "json"])
        assert code == 0
        assert out == (
            "{\n"
            '  "x": "e_1 + e_2",\n'
            '  "y": "-e_1 + e_2",\n'
            '  "delta_of_sum": "0",\n'
            '  "sum_of_deltas": "2*e_2",\n'
            '  "residual": "-2*e_2",\n'
            '  "violated": true\n'
            "}\n"
        )

        code, out = _run_cli(
            ["centralizer", "--algebra", "witt", "--element", "e_0", "--window", "-10:10"]
        )
        assert (code, out) == (0, "dim=1; basis: e_0\n")
        code, out = _run_cli(
            [
                "centralizer",
                "--algebra",
                "witt",
                "--element",
                "e_0",
                "--window",
                "-10:10",
                "--format",
                "json",
            ]
        )
        assert code == 0
        assert json.loads(out) == {
            "algebra": "witt",
            "element": "e_0",
            "window": {"min": -10, "max": 10},
            "dim": 1,
            "basis": ["e_0"],
        }

    _verdict(9, "CLI golden outputs (text and JSON)", body)
