"""Fuzz the command line with generated argv for every subcommand and with
generated map and pairs JSON files, well-formed and malformed.

Whatever the input, `main` must return an exit code in {0, 1, 2, 3} and
leave no traceback, and a successful `--format json` run must print exactly
what the stdlib's `json.dumps(..., indent=2)` prints for the same value.
`main` must also answer every argv exactly as when the whole argparse tree
parses it.
Windows, supports, depths and truncations stay far below the `jacobi` and
`der-basis` work bounds, so every example is fast.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlocal import Algebra, Element, Window, cli, table_to_json
from wittlocal.cli import main

from helpers import HELP_REQUESTS, ad

JUNK = st.text(alphabet="e_0123456789+-*/: ,x", max_size=8)


def mostly(valid, invalid):
    """Draw from valid in most examples, so that most get past argument
    parsing, and from invalid otherwise.  (Hypothesis favours drawing 0, the
    simplest value, so 0 selects the valid branch.)"""
    return st.integers(0, 9).flatmap(lambda n: invalid if n == 9 else valid)


ALGEBRAS = mostly(st.sampled_from(["witt", "wplus", "wplus_ext", "thin"]), st.just("nosuch"))
FORMATS = mostly(st.sampled_from(["text", "json"]), st.just("yaml"))
INDEX = st.integers(-6, 12)


def elements(indices):
    """Signed "p/q*e_k" sums, some with a zero denominator, a missing sign or
    an index outside the algebra, or malformed text."""
    coeff = st.builds("{}/{}*".format, st.integers(0, 5), st.sampled_from([1, 2, 3] * 3 + [0]))
    term = st.builds("{}e_{}".format, st.one_of(st.just(""), coeff), indices)
    signed = st.builds("{}{}".format, st.sampled_from(["+ ", "- "] * 4 + [""]), term)
    return mostly(
        st.lists(signed, min_size=1, max_size=3).map(" ".join),
        st.one_of(st.sampled_from(["0", "e_1 +", "e_"]), JUNK),
    )


ELEMENT = elements(INDEX)
WINDOW = mostly(
    st.builds("{0}:{1}".format, st.integers(-8, 4), st.integers(-2, 30)),
    st.one_of(st.sampled_from(["3:1", "1:", "1:2:3"]), JUNK),
)
COUNT = mostly(st.integers(1, 14).map(str), st.sampled_from(["0", "-2", "", "x", "1.5", "07"]))


def _options(draw, options):
    """argv for (name, value) options: each one usually kept, the kept ones in
    any order, some written `--opt=value`, abbreviated, or after the same
    option with another kept value (a repeat), and sometimes followed by a
    stray token."""
    kept = [opt for opt in options if draw(st.integers(0, 19)) < 19]
    argv = []
    for name, value in draw(st.permutations(kept)):
        form = draw(st.integers(0, 19))
        if form == 19:  # a repeat, which argparse resolves last-wins
            argv += [name, draw(st.sampled_from(kept))[1]]
        if form in (16, 17):
            argv.append(f"{name}={value}")
        elif form == 18:
            argv += [name[:draw(st.integers(3, len(name) - 1))], value]
        else:
            argv += [name, value]
    if draw(st.integers(0, 7)) == 7:
        argv.append(draw(st.one_of(JUNK, st.sampled_from(["--format", "--bogus", "-"]))))
    return argv


def _with_operands(draw, argv, operands):
    """argv with the operands at its end, after `--`, or each at any
    position among its tokens."""
    where = draw(st.integers(0, 3))
    if where == 3:
        for operand in operands:
            argv.insert(draw(st.integers(0, len(argv))), operand)
        return argv
    return argv + ["--"] * (where == 2) + operands


@st.composite
def command_argv(draw):
    fmt = ("--format", draw(FORMATS))
    alg = ("--algebra", draw(ALGEBRAS))
    command = draw(st.sampled_from([
        "bracket", "jacobi", "extend", "der-basis", "centralizer", "rigidity",
        "two-local additivity", "two-local", "bogus",
    ]))
    if command == "bracket":
        operands = [draw(ELEMENT), draw(ELEMENT)]
        return ["bracket", *_with_operands(draw, _options(draw, [alg, fmt]), operands)]
    if command == "jacobi":
        return ["jacobi", *_options(draw, [alg, ("--window", draw(WINDOW)), fmt])]
    if command == "extend":
        opts = [alg, ("--e1", draw(ELEMENT)), ("--e2", draw(ELEMENT)),
                ("--truncation", draw(COUNT)), fmt]
        return ["extend", *_options(draw, opts)]
    if command == "der-basis":
        return ["der-basis", *_options(draw, [alg, ("--support", draw(COUNT)), fmt])]
    if command in ("centralizer", "rigidity"):
        opts = [alg, ("--element", draw(ELEMENT)), ("--window", draw(WINDOW)), fmt]
        return [command, *_options(draw, opts)]
    return [*command.split(), *_options(draw, [fmt])]


JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 15), st.floats(-3, 3), JUNK),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(JUNK, inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def map_text(draw):
    """(algebra, text) of a map table file: an inner derivation, a table of
    random images on a small window, the latter with one field replaced by an
    arbitrary JSON value, or arbitrary text."""
    if draw(st.booleans()):
        hi = draw(st.integers(1, 12))
        if draw(st.booleans()):
            algebra, home, window, support = Algebra.WITT, Algebra.WITT, Window(-hi, hi), (-3, 3)
        else:  # a wplus derivation is inner with its witness in wplus_ext
            algebra, home, window = Algebra.WPLUS, Algebra.WPLUS_EXT, Window(1, hi)
            support = (0, 3)
        terms = draw(st.dictionaries(st.integers(*support), st.integers(-3, 3), max_size=3))
        table = ad(Element(home, terms), window, algebra)
        return algebra.value, json.dumps(table_to_json(table))
    lo = draw(st.integers(-4, 4))
    hi = lo + draw(st.integers(0, 8))
    term = st.tuples(INDEX, st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 3)))
    images = {str(k): draw(st.lists(term, max_size=3)) for k in range(lo, hi + 1)}
    algebra = draw(ALGEBRAS)
    table = {"algebra": algebra, "truncation": {"min": lo, "max": hi}, "images": images}
    shape = draw(st.integers(0, 3))
    if shape == 1:
        key = draw(st.sampled_from(["algebra", "truncation", "images"]))
        table[key] = draw(JSON_VALUE)
    elif shape == 2:
        images[draw(st.sampled_from(sorted(images)))] = draw(JSON_VALUE)
    elif shape == 3:
        return algebra, draw(st.one_of(JUNK, JSON_VALUE.map(json.dumps)))
    return algebra, json.dumps(table)


@st.composite
def pairs_text(draw):
    """A pairs file: a well-formed pairs list, one with a non-string or
    malformed member, a repeated key, or arbitrary JSON or text."""
    thin = elements(st.integers(1, 8))
    pair = mostly(st.lists(thin, min_size=2, max_size=2), st.lists(JSON_VALUE, max_size=3))
    pairs = draw(st.lists(pair, max_size=4))
    algebra = draw(st.sampled_from(["thin", "thin", "witt", None]))
    shape = draw(st.integers(0, 4))
    if shape == 3:
        return '{"algebra": "thin", "pairs": %s, "pairs": []}' % json.dumps(pairs)
    if shape == 4:
        return draw(st.one_of(JUNK, JSON_VALUE.map(json.dumps)))
    return json.dumps({"algebra": algebra, "pairs": pairs})


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help exits by itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_whole_tree(argv):
    """`run(argv)` with the request parsed by `build_parser().parse_args`."""
    with mock.patch.object(cli, "_parse_args", lambda parser, argv: parser.parse_args(argv)):
        return run(argv)


def assert_clean(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0 and any(argv[i:i + 2] == ["--format", "json"] for i in range(len(argv))):
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300)
@given(command_argv())
def test_fuzz_argv(argv):
    assert_clean(argv)


@settings(max_examples=300)
@given(command_argv())
def test_main_parses_as_the_whole_tree(argv):
    assert run(argv) == run_whole_tree(argv)


@pytest.mark.parametrize("argv", HELP_REQUESTS + [
    ["-h"],
    ["two-local"],
    ["two-local", "nosuch"],
    ["two-local", "-h", "verify"],
    ["nosuch"],
    ["nosuch", "--help"],
    ["--format", "json", "bracket"],
    ["bracket", "--algebra", "witt", "e_1"],
    ["two-local", "verify"],
    ["two-local", "additivity", "--pairs", "x"],
    ["der-basis", "--algebra", "thin", "--support", "2", "--depth", "7"],
    ["der-basis", "--algebra", "thin", "--support", "2", "stray", "--depth", "7"],
    ["bracket", "--alg", "witt", "e_1", "e_2"],
    ["bracket", "--algebra", "witt", "--", "-e_1", "e_2"],
    ["bracket", "--algebra", "witt", "--format", "json", "--", "e_1", "-1/2*e_3"],
    ["bracket", "--", "--algebra", "witt", "e_1"],
    ["bracket", "--algebra=", "e_1", "e_2"],
    ["bracket", "--algebra", "witt", "--format=yaml", "e_1", "e_2"],
    ["extend", "--algebra", "thin", "--e1", "e_1", "--e2", "e_2", "--truncation", "-2"],
    ["extend", "--algebra", "thin", "--e1", "e_1", "--e2", "e_2", "--truncation=-2"],
    ["der-basis", "--algebra", "thin", "--support", "1_0"],
    ["leibniz", "--algebra", "wplus", "--map", "-x", "--depth", "3"],
    ["bracket", "e_1", "--algebra", "witt", "e_2"],
    ["bracket", "--algebra", "witt", "e_1", "--", "e_2"],
    ["bracket", "--algebra", "witt", "--format", "json", "-h"],
    ["bracket", "--algebra", "thin", "--algebra", "witt", "e_1", "e_2"],
    ["bracket", "--algebra", "witt", "--algebra", "wplus", "e_0", "e_1"],  # e_0 is not in wplus
], ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_usage_and_help_match_the_whole_tree(argv):
    assert run(argv) == run_whole_tree(argv)


@settings(max_examples=150)
@given(
    file=map_text(),
    command=st.sampled_from(["leibniz", "recover-inner"]),
    other_algebra=st.one_of(st.none(), st.none(), ALGEBRAS),
    depth=COUNT,
    fmt=FORMATS,
)
def test_fuzz_map_files(workdir, file, command, other_algebra, depth, fmt):
    algebra, text = file
    path = workdir / "map.json"
    path.write_text(text)
    argv = [command, "--algebra", other_algebra or algebra, "--map", str(path), "--format", fmt]
    if command == "leibniz":
        argv += ["--depth", depth]
    assert_clean(argv)


@settings(max_examples=150)
@given(text=pairs_text(), fmt=FORMATS)
def test_fuzz_pairs_files(workdir, text, fmt):
    path = workdir / "pairs.json"
    path.write_text(text)
    assert_clean(["two-local", "verify", "--pairs", str(path), "--format", fmt])
