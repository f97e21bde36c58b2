import argparse
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittlocal
from wittlocal import (
    Algebra,
    Element,
    JacobiResult,
    SparseVector,
    Window,
    cli,
    derivations,
    table_to_json,
)
from wittlocal.cli import (
    BRACKET_MAX_PRODUCTS,
    CENTRALIZER_MAX_WINDOW,
    DER_BASIS_MAX_SUPPORT,
    EXTEND_MAX_TERMS,
    EXTEND_MAX_TRUNCATION,
    JACOBI_MAX_TABLE,
    JSON_BYTES_PER_TERM,
    LEIBNIZ_MAX_WORK,
    MAP_MAX_TERMS,
    RECOVER_INNER_MAX_WORK,
    VERIFY_MAX_INDEX,
    VERIFY_MAX_TOTAL,
    main,
)

from helpers import HELP_REQUESTS, ad, reference_leibniz


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help exits by itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_bracket_text_golden():
    code, out, err = run(["bracket", "--algebra", "witt", "e_2", "e_3"])
    assert (code, err) == (0, "")
    assert out == "e_5\n"


def test_bracket_json_golden():
    code, out, _ = run(["bracket", "--algebra", "witt", "e_2", "e_3", "--format", "json"])
    assert code == 0
    assert out == (
        '{\n  "algebra": "witt",\n  "x": "e_2",\n  "y": "e_3",\n  "result": "e_5"\n}\n'
    )


def test_additivity_text_golden():
    code, out, _ = run(["two-local", "additivity"])
    assert code == 0
    assert out == (
        "x = e_1 + e_2\n"
        "y = -e_1 + e_2\n"
        "delta(x + y) = 0\n"
        "delta(x) + delta(y) = 2*e_2\n"
        "violated = true\n"
    )


def test_additivity_json_golden():
    code, out, _ = run(["two-local", "additivity", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "x": "e_1 + e_2",
        "y": "-e_1 + e_2",
        "delta_of_sum": "0",
        "sum_of_deltas": "2*e_2",
        "residual": "-2*e_2",
        "violated": True,
    }


def test_centralizer_text_golden():
    code, out, _ = run(
        ["centralizer", "--algebra", "witt", "--element", "e_0", "--window", "-10:10"]
    )
    assert code == 0
    assert out == "dim=1; basis: e_0\n"


def test_centralizer_json_golden():
    code, out, _ = run(
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


def test_jacobi_text():
    code, out, _ = run(["jacobi", "--algebra", "thin", "--window", "1:12"])
    assert code == 0
    assert out == "pass (1728 triples checked)\n"


def test_jacobi_fail_golden(monkeypatch):
    """Every built-in structure constant passes, so a failing result is injected."""
    failing = JacobiResult(False, (1, 2, 3), SparseVector({6: Fraction(-5, 2)}))
    monkeypatch.setattr(cli, "jacobi_check", lambda algebra, window: failing)
    argv = ["jacobi", "--algebra", "witt", "--window", "1:3"]
    assert run(argv) == (0, "fail at (1, 2, 3): residual = -5/2*e_6\n", "")
    code, out, err = run(argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "algebra": "witt",
        "window": {"min": 1, "max": 3},
        "pass": False,
        "triples_checked": 27,
        "counterexample": [1, 2, 3],
        "residual": "-5/2*e_6",
    }


def test_leibniz_fail_golden(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(
        '{"algebra": "wplus", "truncation": {"min": 1, "max": 4}, '
        '"images": {"1": [[1, "1"]], "2": [], "3": [], "4": []}}'
    )
    argv = ["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "4"]
    assert run(argv) == (0, "fail at (1, 2): residual = -e_3\n", "")
    code, out, err = run(argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "algebra": "wplus",
        "depth": 4,
        "pass": False,
        "pairs_checked": 4,
        "pair": [1, 2],
        "residual": "-e_3",
    }


def test_extend_inconsistent_golden():
    argv = ["extend", "--algebra", "wplus", "--e1", "e_2", "--e2", "0", "--truncation", "10"]
    code, out, _ = run(argv)
    assert code == 0
    assert out == "inconsistent at (2, 3): residual = 4/3*e_6\n"
    code, out, _ = run(argv + ["--format", "json"])
    assert json.loads(out) == {
        "status": "inconsistent",
        "relation": [2, 3],
        "residual": "4/3*e_6",
    }


def test_extend_success_text():
    code, out, _ = run(
        ["extend", "--algebra", "thin", "--e1", "0", "--e2", "e_2", "--truncation", "5"]
    )
    assert code == 0
    assert out == (
        "D(e_1) = 0\nD(e_2) = e_2\nD(e_3) = e_3\nD(e_4) = e_4\nD(e_5) = e_5\n"
    )


def test_extend_json_round_trips_into_leibniz(tmp_path):
    code, out, _ = run(
        [
            "extend",
            "--algebra",
            "wplus",
            "--e1",
            "e_1",
            "--e2",
            "2*e_2",
            "--truncation",
            "8",
            "--format",
            "json",
        ]
    )
    assert code == 0
    path = tmp_path / "map.json"
    path.write_text(out)
    code, out2, _ = run(
        ["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "8"]
    )
    assert code == 0
    assert out2.startswith("pass (")


def test_der_basis_text_golden():
    """wplus at support 4 has blocks where 1 - s or 2 - s is zero or
    negative, so a sign or scale slip in a block's solve would show."""
    goldens = {
        ("thin", "2"): (
            "dim=3\n"
            "coordinates: alpha_1, alpha_2, beta_2\n"
            "[1] e1 = e_1; e2 = 0\n"
            "[2] e1 = e_2; e2 = 0\n"
            "[3] e1 = 0; e2 = e_2\n"
        ),
        ("wplus", "4"): (
            "dim=4\n"
            "coordinates: alpha_1, alpha_2, alpha_3, alpha_4, beta_1, beta_2, beta_3, beta_4, beta_5\n"
            "[1] e1 = e_1; e2 = 2*e_2\n"
            "[2] e1 = e_3; e2 = 0\n"
            "[3] e1 = e_4; e2 = 1/2*e_5\n"
            "[4] e1 = 0; e2 = e_3\n"
        ),
    }
    for (algebra, support), expected in goldens.items():
        code, out, _ = run(["der-basis", "--algebra", algebra, "--support", support])
        assert (code, out) == (0, expected)


def test_recover_inner_cli(tmp_path):
    table = ad(Element.basis(Algebra.WPLUS_EXT, 0), Window(1, 12), Algebra.WPLUS)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(table_to_json(table)))
    code, out, _ = run(["recover-inner", "--algebra", "wplus", "--map", str(path)])
    assert code == 0
    assert out == "a = e_0\n"


def test_rigidity_text_golden():
    code, out, _ = run(
        ["rigidity", "--algebra", "witt", "--element", "e_2", "--window", "-12:12"]
    )
    assert code == 0
    assert out == (
        "target = e_2\n"
        "probes: e_0, e_5\n"
        "probe e_0: dim=1; basis: e_2\n"
        "probe e_5: dim=1; basis: e_7\n"
        "intersection: dim=0; basis: -\n"
        "rigid = true\n"
    )


_DEGREE_MAP = {  # D(e_k) = k e_k, a derivation of wplus
    "algebra": "wplus",
    "truncation": {"min": 1, "max": 4},
    "images": {str(k): [[k, str(k)]] for k in range(1, 5)},
}
_BROKEN_MAP = {**_DEGREE_MAP, "images": {"1": [[1, "1"]], "2": [], "3": [], "4": []}}
_INNER = Element.basis(Algebra.WPLUS_EXT, 0) + Element.basis(Algebra.WPLUS_EXT, 2).scale(
    Fraction(1, 2)
)

# (argv, map or pairs file contents or None, text stdout, JSON payload).
# The JSON payload is a dict literal, so its key order is part of the
# expected bytes.
_BYTE_GOLDENS = {
    "jacobi-pass": (
        ["jacobi", "--algebra", "wplus", "--window", "1:6"],
        None,
        "pass (216 triples checked)\n",
        {"algebra": "wplus", "window": {"min": 1, "max": 6}, "pass": True, "triples_checked": 216},
    ),
    "leibniz-pass": (
        ["leibniz", "--algebra", "wplus", "--map", "MAP", "--depth", "4"],
        _DEGREE_MAP,
        "pass (4 pairs checked)\n",
        {"algebra": "wplus", "depth": 4, "pass": True, "pairs_checked": 4},
    ),
    "leibniz-fail": (
        ["leibniz", "--algebra", "wplus", "--map", "MAP", "--depth", "4"],
        _BROKEN_MAP,
        "fail at (1, 2): residual = -e_3\n",
        {"algebra": "wplus", "depth": 4, "pass": False, "pairs_checked": 4, "pair": [1, 2],
         "residual": "-e_3"},
    ),
    "der-basis": (
        ["der-basis", "--algebra", "wplus", "--support", "2"],
        None,
        "dim=2\n"
        "coordinates: alpha_1, alpha_2, beta_1, beta_2, beta_3\n"
        "[1] e1 = e_1; e2 = 2*e_2\n"
        "[2] e1 = 0; e2 = e_3\n",
        {
            "algebra": "wplus",
            "support_bound": 2,
            "dim": 2,
            "coordinates": ["alpha_1", "alpha_2", "beta_1", "beta_2", "beta_3"],
            "basis": [
                {"coords": [["alpha_1", "1"], ["beta_2", "2"]], "e1": "e_1", "e2": "2*e_2"},
                {"coords": [["beta_3", "1"]], "e1": "0", "e2": "e_3"},
            ],
        },
    ),
    "recover-inner": (
        ["recover-inner", "--algebra", "wplus", "--map", "MAP"],
        table_to_json(ad(_INNER, Window(1, 11), Algebra.WPLUS)),
        "a = e_0 + 1/2*e_2\n",
        {"algebra": "wplus_ext", "element": "e_0 + 1/2*e_2"},
    ),
    "rigidity": (
        ["rigidity", "--algebra", "witt", "--element", "e_1 - 1/2*e_2", "--window", "-6:6"],
        None,
        "target = e_1 - 1/2*e_2\n"
        "probes: e_0, e_5\n"
        "probe e_0: dim=1; basis: e_1 - e_2\n"
        "probe e_5: dim=1; basis: e_6 - 3/8*e_7\n"
        "intersection: dim=0; basis: -\n"
        "rigid = true\n",
        {
            "algebra": "witt",
            "target": "e_1 - 1/2*e_2",
            "window": {"min": -6, "max": 6},
            "probes": [0, 5],
            "forced": [
                {"probe": 0, "dim": 1, "basis": ["e_1 - e_2"]},
                {"probe": 5, "dim": 1, "basis": ["e_6 - 3/8*e_7"]},
            ],
            "intersection": {"dim": 0, "basis": []},
            "rigid": True,
        },
    ),
    "rigidity-wplus": (  # witnesses from wplus_ext, which holds e_0
        ["rigidity", "--algebra", "wplus", "--element", "2*e_3 - 1/2*e_5", "--window", "1:40"],
        None,
        "target = 2*e_3 - 1/2*e_5\n"
        "probes: e_1, e_11\n"
        "probe e_1: dim=1; basis: e_4 - 1/2*e_6\n"
        "probe e_11: dim=1; basis: e_14 - 3/16*e_16\n"
        "intersection: dim=0; basis: -\n"
        "rigid = true\n",
        {
            "algebra": "wplus",
            "target": "2*e_3 - 1/2*e_5",
            "window": {"min": 1, "max": 40},
            "probes": [1, 11],
            "forced": [
                {"probe": 1, "dim": 1, "basis": ["e_4 - 1/2*e_6"]},
                {"probe": 11, "dim": 1, "basis": ["e_14 - 3/16*e_16"]},
            ],
            "intersection": {"dim": 0, "basis": []},
            "rigid": True,
        },
    ),
    "centralizer": (
        ["centralizer", "--algebra", "witt", "--element", "-e_1 + e_2", "--window", "-3:3"],
        None,
        "dim=1; basis: e_1 - e_2\n",
        {"algebra": "witt", "element": "-e_1 + e_2", "window": {"min": -3, "max": 3}, "dim": 1,
         "basis": ["e_1 - e_2"]},
    ),
    "centralizer-thin": (  # every index from 2 up commutes with e_2: five free columns
        ["centralizer", "--algebra", "thin", "--element", "e_2", "--window", "1:6"],
        None,
        "dim=5; basis: e_2, e_3, e_4, e_5, e_6\n",
        {"algebra": "thin", "element": "e_2", "window": {"min": 1, "max": 6}, "dim": 5,
         "basis": ["e_2", "e_3", "e_4", "e_5", "e_6"]},
    ),
    "additivity": (
        ["two-local", "additivity"],
        None,
        "x = e_1 + e_2\n"
        "y = -e_1 + e_2\n"
        "delta(x + y) = 0\n"
        "delta(x) + delta(y) = 2*e_2\n"
        "violated = true\n",
        {"x": "e_1 + e_2", "y": "-e_1 + e_2", "delta_of_sum": "0", "sum_of_deltas": "2*e_2",
         "residual": "-2*e_2", "violated": True},
    ),
    "bracket-thin": (
        ["bracket", "--algebra", "thin", "e_1 - 1/2*e_3", "2*e_2 + e_3 - e_1"],
        None,
        "2*e_3 + 1/2*e_4\n",
        {"algebra": "thin", "x": "e_1 - 1/2*e_3", "y": "-e_1 + 2*e_2 + e_3",
         "result": "2*e_3 + 1/2*e_4"},
    ),
    "bracket-wplus": (
        ["bracket", "--algebra", "wplus", "e_1 - 1/2*e_3", "2/3*e_2 - e_4"],
        None,
        "2/3*e_3 - 8/3*e_5 + 1/2*e_7\n",
        {"algebra": "wplus", "x": "e_1 - 1/2*e_3", "y": "2/3*e_2 - e_4",
         "result": "2/3*e_3 - 8/3*e_5 + 1/2*e_7"},
    ),
    "extend-thin": (  # D(e_3) = ((3-2) alpha_1 + beta_2) e_3 + ... has a cancelled diagonal
        ["extend", "--algebra", "thin", "--e1", "e_1 - 1/2*e_3", "--e2", "-e_2 + 2*e_4",
         "--truncation", "5"],
        None,
        "D(e_1) = e_1 - 1/2*e_3\n"
        "D(e_2) = -e_2 + 2*e_4\n"
        "D(e_3) = 2*e_5\n"
        "D(e_4) = e_4 + 2*e_6\n"
        "D(e_5) = 2*e_5 + 2*e_7\n",
        {"algebra": "thin", "truncation": {"min": 1, "max": 5},
         "images": {"1": [[1, "1"], [3, "-1/2"]], "2": [[2, "-1"], [4, "2"]], "3": [[5, "2"]],
                    "4": [[4, "1"], [6, "2"]], "5": [[5, "2"], [7, "2"]]}},
    ),
    "extend-wplus": (  # ad(-e_0 + 1/2*e_1)
        ["extend", "--algebra", "wplus", "--e1", "-e_1", "--e2", "-2*e_2 + 1/2*e_3",
         "--truncation", "5"],
        None,
        "D(e_1) = -e_1\n"
        "D(e_2) = -2*e_2 + 1/2*e_3\n"
        "D(e_3) = -3*e_3 + e_4\n"
        "D(e_4) = -4*e_4 + 3/2*e_5\n"
        "D(e_5) = -5*e_5 + 2*e_6\n",
        {"algebra": "wplus", "truncation": {"min": 1, "max": 5},
         "images": {"1": [[1, "-1"]], "2": [[2, "-2"], [3, "1/2"]], "3": [[3, "-3"], [4, "1"]],
                    "4": [[4, "-4"], [5, "3/2"]], "5": [[5, "-5"], [6, "2"]]}},
    ),
    "extend-inconsistent": (
        ["extend", "--algebra", "wplus", "--e1", "-e_2", "--e2", "1/2*e_3", "--truncation", "5"],
        None,
        "inconsistent at (2, 3): residual = -4/3*e_6\n",
        {"status": "inconsistent", "relation": [2, 3], "residual": "-4/3*e_6"},
    ),
    "twolocal-verify": (  # all three witness cases; e_2 + e_3 - e_3 cancels to e_2
        ["two-local", "verify", "--pairs", "MAP"],
        {"algebra": "thin", "pairs": [["e_2 + e_3 - e_3", "-3/4*e_3"],
                                      ["-2*e_1 + 1/3*e_2 - e_4", "5/7*e_3"],
                                      ["e_1 + e_2", "-1/2*e_1 + e_3"]]},
        "[1] case=zero | D(e_1) = 0 | D(e_2) = 0 | pass=true\n"
        "[2] case=e1-scaled | D(e_1) = -1/6*e_2 + 1/2*e_4 | D(e_2) = 0 | pass=true\n"
        "[3] case=tail-identity | D(e_1) = 0 | D(e_2) = e_2 | pass=true\n"
        "all pass: true\n",
        {
            "algebra": "thin",
            "results": [
                {"pair": ["e_2", "-3/4*e_3"], "case": "zero",
                 "witness": {"algebra": "thin", "truncation": {"min": 1, "max": 3},
                             "images": {"1": [], "2": [], "3": []}},
                 "pass": True},
                {"pair": ["-2*e_1 + 1/3*e_2 - e_4", "5/7*e_3"], "case": "e1-scaled",
                 "witness": {"algebra": "thin", "truncation": {"min": 1, "max": 4},
                             "images": {"1": [[2, "-1/6"], [4, "1/2"]], "2": [], "3": [],
                                        "4": []}},
                 "pass": True},
                {"pair": ["e_1 + e_2", "-1/2*e_1 + e_3"], "case": "tail-identity",
                 "witness": {"algebra": "thin", "truncation": {"min": 1, "max": 3},
                             "images": {"1": [], "2": [[2, "1"]], "3": [[3, "1"]]}},
                 "pass": True},
            ],
            "all_pass": True,
        },
    ),
}


@pytest.mark.parametrize("name", _BYTE_GOLDENS)
def test_output_bytes_golden(tmp_path, name):
    """Exact stdout bytes, text and JSON; the JSON comparison is on the
    printed text, so key order and layout are pinned too."""
    argv, table, text, payload = _BYTE_GOLDENS[name]
    path = tmp_path / "map.json"
    if table is not None:
        path.write_text(json.dumps(table))
    argv = [str(path) if arg == "MAP" else arg for arg in argv]
    assert run(argv) == (0, text, "")
    assert run(argv + ["--format", "json"]) == (0, json.dumps(payload, indent=2) + "\n", "")


# -- the indent-2 JSON writer -------------------------------------------------

def written_json(obj) -> str:
    return "".join(cli._write_json(obj, []))


# text that needs escaping: quotes, backslashes, control characters, non-ASCII
# (two-byte, three-byte, astral) and lone surrogates, among arbitrary characters
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u20ac\U0001f600\ud800'),
                              st.characters()), max_size=6)
JSON_INTS = st.one_of(st.integers(), st.sampled_from([2**64, 2**64 + 1, -(2**64), 10**30, -1]))
# empty lists and dicts are leaves, so they turn up at every depth
JSON_PAYLOADS = st.recursive(
    st.one_of(JSON_TEXT, JSON_INTS, st.booleans(), st.none(), st.just([]), st.just({})),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(JSON_TEXT, inner, max_size=4)),
    max_leaves=30,
)


def _nested(draw, value, depth: int):
    """value at the given depth of lists and str-keyed dicts with siblings."""
    for _ in range(depth):
        siblings = draw(st.lists(JSON_PAYLOADS, max_size=2))
        if draw(st.booleans()):
            value = [*siblings, value]
        else:
            value = {**{f"s{n}": sibling for n, sibling in enumerate(siblings)}, "v": value}
    return value


def _unmarked(obj):
    """obj with every `cli._JsonText` replaced by the value it is the JSON of."""
    if type(obj) is cli._JsonText:
        return json.loads(obj)
    if type(obj) is list:
        return [_unmarked(value) for value in obj]
    if type(obj) is dict:
        return {key: _unmarked(value) for key, value in obj.items()}
    return obj


@settings(max_examples=400)
@given(JSON_PAYLOADS, JSON_PAYLOADS, st.integers(0, 3), st.data())
def test_json_writer_matches_json_dumps(obj, inner, depth, data):
    """Also with JSON text marked `cli._JsonText` at depth 0 to 3, which is
    written as the value it holds, while the same text as a plain str is
    escaped as a string."""
    assert written_json(obj) == json.dumps(obj, indent=2)
    text = json.dumps(inner, indent=2)
    marked = _nested(data.draw, cli._JsonText(text), depth)
    assert written_json(marked) == json.dumps(_unmarked(marked), indent=2)
    plain = _nested(data.draw, text, depth)
    assert written_json(plain) == json.dumps(plain, indent=2)


@pytest.mark.parametrize("obj", [
    [1.5, -0.0, float("inf"), float("nan")],
    {"a": (1, [2, {}]), "b": {1: "x", None: [True], 2.5: {}}},
    [{"k": {3: {"n": [(), {"m": (4,)}]}}}],
])
def test_json_writer_hands_other_values_to_json_dumps(obj):
    """Floats, tuples and dicts with keys other than str go to `json.dumps`,
    re-indented to the depth they sit at."""
    assert written_json(obj) == json.dumps(obj, indent=2)


def test_twolocal_verify_cli(tmp_path):
    pairs = {
        "algebra": "thin",
        "pairs": [["2*e_2", "e_3"], ["e_2", "e_1 + 3*e_2"], ["e_1 + e_2", "-e_1 + e_2"]],
    }
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    code, out, _ = run(["two-local", "verify", "--pairs", str(path)])
    assert code == 0
    assert out == (
        "[1] case=zero | D(e_1) = 0 | D(e_2) = 0 | pass=true\n"
        "[2] case=e1-scaled | D(e_1) = 3*e_2 | D(e_2) = 0 | pass=true\n"
        "[3] case=tail-identity | D(e_1) = 0 | D(e_2) = e_2 | pass=true\n"
        "all pass: true\n"
    )
    code, out, _ = run(["two-local", "verify", "--pairs", str(path), "--format", "json"])
    data = json.loads(out)
    assert data["all_pass"] is True
    assert [r["case"] for r in data["results"]] == ["zero", "e1-scaled", "tail-identity"]
    assert data["results"][1]["witness"]["algebra"] == "thin"


def test_exit_codes(tmp_path):
    code, _, err = run(["bogus-command"])
    assert code == 1 and err

    code, _, err = run(["bracket", "--algebra", "thin", "e_-2", "e_3"])
    assert code == 2 and "not allowed" in err

    code, _, err = run(["bracket", "--algebra", "nosuch", "e_1", "e_2"])
    assert code == 2

    # precondition violation: window misses the needed probe
    code, _, err = run(
        ["rigidity", "--algebra", "witt", "--element", "e_4", "--window", "-5:5"]
    )
    assert code == 3 and "probe" in err

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(["leibniz", "--algebra", "witt", "--map", str(bad), "--depth", "3"])
    assert code == 2


# Valid arguments after `--algebra A` for each subcommand that takes it; the
# last required argument comes last.  MAP is replaced by a wplus map file.
_ALGEBRA_COMMANDS = {
    "bracket": ["e_1", "e_2"],
    "jacobi": ["--window", "1:3"],
    "leibniz": ["--depth", "3", "--map", "MAP"],
    "extend": ["--e1", "e_1", "--e2", "e_2", "--truncation", "5"],
    "der-basis": ["--support", "2"],
    "recover-inner": ["--map", "MAP"],
    "centralizer": ["--element", "e_1", "--window", "1:3"],
    "rigidity": ["--element", "e_1", "--window", "1:3"],
}


@pytest.mark.parametrize("command", _ALGEBRA_COMMANDS)
def test_unknown_algebra_exits_2_after_usage_errors(tmp_path, command):
    table = ad(Element.basis(Algebra.WPLUS, 1), Window(1, 6))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(table_to_json(table)))
    rest = [str(path) if arg == "MAP" else arg for arg in _ALGEBRA_COMMANDS[command]]
    argv = [command, "--algebra", "nosuch", *rest]
    assert run(argv) == (
        2,
        "",
        "error: unknown algebra 'nosuch' (expected one of: witt, wplus, wplus_ext, thin)\n",
    )
    code, out, err = run(argv[:-1] if command == "bracket" else argv[:-2])
    assert (code, out) == (1, "")
    assert err.startswith(f"wittlocal {command}: the following arguments are required: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "algebra, window", [(Algebra.THIN, Window(1, 12)), (Algebra.WPLUS_EXT, Window(0, 12))]
)
def test_recover_inner_refuses_other_algebras(tmp_path, algebra, window):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(table_to_json(ad(Element.basis(algebra, 1), window))))
    argv = ["recover-inner", "--algebra", algebra.value, "--map", str(path)]
    assert run(argv) == (1, "", f"recover-inner handles witt and wplus, not {algebra}\n")


def test_twolocal_verify_rejects_non_string_pair(tmp_path):
    path = tmp_path / "pairs.json"
    for pair in ([1, "e_2"], ["e_1", None], ["e_1", ["e_2"]]):
        path.write_text(json.dumps({"algebra": "thin", "pairs": [pair]}))
        code, out, err = run(["two-local", "verify", "--pairs", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: pair 1 is not a list of two element strings\n"
    path.write_text(json.dumps({"algebra": "thin", "pairs": {}}))
    assert run(["two-local", "verify", "--pairs", str(path)]) == (
        2,
        "",
        'error: pairs file must carry a list under "pairs"\n',
    )


_MAP = '{"algebra": "wplus", "truncation": {"min": 1, "max": 2}, "images": {%s}}'


@pytest.mark.parametrize(
    "text, line",
    [
        (  # "01" aliases "1"
            _MAP % '"1": [[2, "1"]], "2": [], "01": []',
            "non-canonical image key '01' (expected '1')",
        ),
        (  # literal duplicate
            _MAP % '"1": [[2, "1"]], "2": [], "2": [[3, "1"]]',
            "duplicate JSON keys ['2']",
        ),
        (  # two keys repeated, named in order of first appearance
            '{"a": 1, "b": 2, "b": 3, "a": 4}',
            "duplicate JSON keys ['a', 'b']",
        ),
        (
            _MAP.replace('"min": 1', '"min": true') % '"1": [], "2": []',
            "truncation bounds [True, 2] are not integers",
        ),
        (_MAP % '"1": [[true, "1"]], "2": []', "image term index True is not an integer"),
        (
            _MAP.replace('"max": 2', '"max": 2.9') % '"1": [], "2": []',
            "truncation bounds [1, 2.9] are not integers",
        ),
        (_MAP.replace(', "images": {%s}', ""), "malformed map JSON: 'images'"),
        (_MAP.replace("{%s}", "[]"), "map JSON images must be an object"),
        (_MAP % '"1": [[2]], "2": []', "image term [2] is not an [index, rational] pair"),
        (_MAP % '"a": [], "1": [], "2": []', "non-integer image key 'a'"),
        (
            _MAP % '"1": {"2": "1"}, "2": []',
            "image of e_1 must be a list of [index, rational] pairs",
        ),
    ],
    ids=[
        "aliased-key", "duplicate-key", "two-duplicate-keys", "bool-bound", "bool-index",
        "float-bound", "no-images", "images-list", "short-term", "letter-key", "image-object",
    ],
)
def test_malformed_map_exits_2(tmp_path, text, line):
    path = tmp_path / "map.json"
    path.write_text(text)
    code, out, err = run(["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == f"error: {line}\n"


def test_jacobi_refuses_wide_window(monkeypatch):
    """The table-entries cap is the only `jacobi` cap: wide windows are
    refused by their table size, before `jacobi_check` runs."""

    def unreachable(*args):
        raise AssertionError("jacobi_check called")

    monkeypatch.setattr(cli, "jacobi_check", unreachable)
    for window, entries in (("1:1000", 2000000), ("-354:354", 1004653),
                            ("1:100000", 20000000000), ("-100000:100000", 80000600001)):
        code, out, err = run(["jacobi", "--algebra", "witt", "--window", window])
        assert (code, out) == (3, "")
        assert err == f"error: table entries {entries} is above the limit {JACOBI_MAX_TABLE}\n"


def test_jacobi_refuses_a_table_far_from_zero(monkeypatch):
    """A 200-index window far from 0 has a table of K(a, m) for m from
    min(lo, 2 lo) to max(hi, 2 hi) that is refused before `jacobi_check`
    runs.  The windows at the limit (200 x 5000 entries far from 0, 707
    indices around 0) and every window the other tests check are accepted."""

    def unreachable(*args):
        raise AssertionError("jacobi_check called")

    monkeypatch.setattr(cli, "jacobi_check", unreachable)
    for window, entries in (("4602:4801", 1000200), ("200000:200199", 40079800),
                            ("-200199:-200000", 40079800), ("1000000:1000000", 1000001)):
        code, out, err = run(["jacobi", "--algebra", "witt", "--window", window])
        assert (code, out) == (3, "")
        assert err == f"error: table entries {entries} is above the limit {JACOBI_MAX_TABLE}\n"
    monkeypatch.setattr(cli, "jacobi_check", lambda algebra, window: JacobiResult(True))
    for window in ("4601:4800", "-4800:-4601", "1000:1199", "-99:100", "1:200", "-353:353",
                   "1:707"):
        assert run(["jacobi", "--algebra", "witt", "--window", window])[0] == 0


@pytest.mark.parametrize("command", ["centralizer", "rigidity"])
def test_centralizer_and_rigidity_refuse_wide_window(command):
    for window in (f"0:{CENTRALIZER_MAX_WINDOW}", "-12000:12000", "1:1000000000"):
        argv = [command, "--algebra", "witt", "--element", "e_1", "--window", window]
        code, out, err = run(argv)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and f"at most {CENTRALIZER_MAX_WINDOW}" in err


def test_der_basis_refuses_large_support():
    for support in (DER_BASIS_MAX_SUPPORT + 1, 400, 10**9):
        code, out, err = run(["der-basis", "--algebra", "wplus", "--support", str(support)])
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and f"limit {DER_BASIS_MAX_SUPPORT}" in err


def test_der_basis_refuses_deep_depth():
    # der-basis takes no consistency depth: the option is a usage error
    argv = ["der-basis", "--algebra", "thin", "--support", "2", "--depth", "7"]
    assert run(argv) == (1, "", "wittlocal: unrecognized arguments: --depth 7\n")


def test_extend_refuses_long_truncation():
    truncation = EXTEND_MAX_TRUNCATION + 1
    argv = ["extend", "--algebra", "thin", "--e1", "e_1", "--e2", "e_2"]
    assert run(argv + ["--truncation", str(truncation)]) == (
        3,
        "",
        f"error: truncation {truncation} is above the limit {EXTEND_MAX_TRUNCATION}\n",
    )


def test_extend_refuses_many_shifts_at_long_truncation():
    """Each shift s of the generator images (D(e_k) = c e_{k+s}) adds one
    output term per index, so shifts * truncation is bounded."""
    def terms(lo, hi):
        return " + ".join(f"e_{k}" for k in range(lo, hi + 1))

    start = time.perf_counter()
    for algebra, e1, e2, truncation, shifts in [
        ("thin", "e_1", terms(2, 102), EXTEND_MAX_TRUNCATION, 101),  # shifts 0..100
        ("wplus", terms(1, 101), "0", EXTEND_MAX_TRUNCATION, 101),
        ("thin", "e_1", terms(2, 33335), 3, 33334),  # 33333 would be 99999, inside the limit
    ]:
        argv = ["extend", "--algebra", algebra, "--e1", e1, "--e2", e2, "--truncation"]
        assert run(argv + [str(truncation)]) == (
            3,
            "",
            f"error: shifts * truncation {shifts * truncation} is above the limit "
            f"{EXTEND_MAX_TERMS}\n",
        )
    # two shifts at the longest truncation are answered, not refused
    for algebra, e1, e2, residual in [("thin", "e_1", "e_1", "-e_4"),
                                      ("wplus", "e_1 + e_2", "2*e_2", "4/3*e_6")]:
        argv = ["extend", "--algebra", algebra, "--e1", e1, "--e2", e2, "--truncation"]
        assert run(argv + [str(EXTEND_MAX_TRUNCATION)]) == (
            0, f"inconsistent at (2, 3): residual = {residual}\n", "")
    # an algebra generator extension does not handle keeps its message
    argv = ["extend", "--algebra", "witt", "--e1", "e_1 + e_2", "--e2", "e_2", "--truncation"]
    assert run(argv + [str(EXTEND_MAX_TRUNCATION)]) == (
        3,
        "",
        "error: witt is not handled by generator extension\n",
    )
    assert time.perf_counter() - start < 0.5


def test_leibniz_refuses_large_work(tmp_path):
    """Each pair is checked once per shift of the map, and each shift is
    split out over the indices the pairs reach, [-2 depth, 2 depth] of the
    window, so shifts * (pairs + window) over that reach is bounded before
    any pair is checked."""
    path = tmp_path / "map.json"

    def leibniz(images, depth):
        n = len(images)
        table = {"algebra": "wplus", "truncation": {"min": 1, "max": n}, "images": images}
        path.write_text(json.dumps(table))
        return run(["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", str(depth)])

    def refusal(work):
        line = f"shifts * (pairs + window) {work} is above the limit {LEIBNIZ_MAX_WORK}"
        return 3, "", f"error: {line}\n"

    # D(e_k) = e_{2k}: 2000 shifts, but one pair at depth 1 reads e_1 and e_2 only
    spread = {str(k): [[2 * k, "1"]] for k in range(1, 2001)}
    table = {"algebra": "wplus", "truncation": {"min": 1, "max": 2000}, "images": spread}
    passed, checked, _, _ = reference_leibniz(derivations.table_from_json(table), 1)
    assert passed and checked == 1
    start = time.perf_counter()
    # D(e_k) = k e_k: one shift, 2000 * 2000 pairs at depth 4000
    degree = {str(k): [[k, str(k)]] for k in range(1, 4001)}
    assert leibniz(degree, 4000) == refusal(2000 * 2000 + 4000)
    assert leibniz(spread, 1) == (0, "pass (1 pairs checked)\n", "")
    # at depth 1000 the pairs reach 1:2000, every shift: 500500 pairs
    assert leibniz(spread, 1000) == refusal(2000 * (500500 + 2000))
    assert time.perf_counter() - start < 0.5


def test_map_terms_refused_before_the_table(tmp_path):
    """The image terms of a map file are counted as soon as it is read, so
    one term above MAP_MAX_TERMS is refused before any image is built."""
    assert MAP_MAX_TERMS == 100000
    shifts = 100  # D(e_k) = e_k + e_{k+1} + ... + e_{k+99} on 1:1000
    images = {str(k): [[k + s, "1"] for s in range(shifts)] for k in range(1, 1001)}
    table = {"algebra": "wplus", "truncation": {"min": 1, "max": 1000}, "images": images}
    path = tmp_path / "map.json"
    path.write_text(json.dumps(table))
    assert run(["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "1"]) == (
        0, "pass (1 pairs checked)\n", ""
    )
    images["1"].append([1 + shifts, "1"])
    path.write_text(json.dumps(table))
    refusal = (3, "", f"error: map terms {MAP_MAX_TERMS + 1} is above the limit {MAP_MAX_TERMS}\n")
    assert run(["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "1"]) == refusal
    assert run(["recover-inner", "--algebra", "wplus", "--map", str(path)]) == refusal


def test_map_keys_refused_before_the_table(tmp_path, monkeypatch):
    """Image keys are counted with the terms: empty images hold no terms, but
    each one would still become an `Element`, so one key above MAP_MAX_TERMS
    is refused before `table_from_json` runs."""

    def refuse(data):
        raise AssertionError("the table was built")

    def table(top):
        images = {str(k): [] for k in range(1, top + 1)}
        return {"algebra": "wplus", "truncation": {"min": 1, "max": top}, "images": images}

    path = tmp_path / "map.json"
    path.write_text(json.dumps(table(MAP_MAX_TERMS)))
    assert run(["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "1"]) == (
        0, "pass (1 pairs checked)\n", ""
    )
    path.write_text(json.dumps(table(MAP_MAX_TERMS + 1)))
    monkeypatch.setattr(derivations, "table_from_json", refuse)
    refusal = (3, "", f"error: map keys {MAP_MAX_TERMS + 1} is above the limit {MAP_MAX_TERMS}\n")
    assert run(["leibniz", "--algebra", "wplus", "--map", str(path), "--depth", "1"]) == refusal
    assert run(["recover-inner", "--algebra", "wplus", "--map", str(path)]) == refusal


def test_json_inputs_refused_by_size(tmp_path):
    """A map or pairs file above its term bound times JSON_BYTES_PER_TERM
    bytes is refused from its size, before it is read: the 13.9 MB map of
    1:1000000 empty images in under 0.1 s and 30 MiB.  A file of exactly
    the bound is read."""
    big = tmp_path / "big.json"
    with open(big, "w") as fh:
        fh.write('{"algebra": "wplus", "truncation": {"min": 1, "max": 1000000}, "images": {')
        fh.writelines(f'{", " if k > 1 else ""}"{k}": []' for k in range(1, 1000001))
        fh.write("}}\n")
    map_limit = MAP_MAX_TERMS * JSON_BYTES_PER_TERM
    refusal = (3, "", f"error: map file bytes {big.stat().st_size} is above the limit {map_limit}\n")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert run(["leibniz", "--algebra", "wplus", "--map", str(big), "--depth", "1"]) == refusal
        assert run(["recover-inner", "--algebra", "wplus", "--map", str(big)]) == refusal
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 30 * 2**20

    def padded(text, size):
        path = tmp_path / "padded.json"
        path.write_text(text + " " * (size - len(text)))
        return str(path)

    small_map = json.dumps({"algebra": "wplus", "truncation": {"min": 1, "max": 2},
                            "images": {"1": [[1, "1"]], "2": [[2, "2"]]}})
    argv = ["leibniz", "--algebra", "wplus", "--depth", "1", "--map"]
    assert run(argv + [padded(small_map, map_limit)]) == (0, "pass (1 pairs checked)\n", "")
    assert run(argv + [padded(small_map, map_limit + 1)]) == (
        3, "", f"error: map file bytes {map_limit + 1} is above the limit {map_limit}\n"
    )
    pairs = '{"algebra": "thin", "pairs": [["e_1", "e_2"]]}'
    pairs_limit = VERIFY_MAX_TOTAL * JSON_BYTES_PER_TERM
    argv = ["two-local", "verify", "--pairs"]
    assert run(argv + [padded(pairs, pairs_limit)])[0] == 0
    assert run(argv + [padded(pairs, pairs_limit + 1)]) == (
        3, "", f"error: pairs file bytes {pairs_limit + 1} is above the limit {pairs_limit}\n"
    )


def test_json_inputs_refused_from_a_fifo(tmp_path):
    """A FIFO reports size 0, so its bytes are counted as they are read: at
    most the bound + 1 bytes are read, and an oversized map is refused before
    it is parsed, with the file-size message.  A small map through a FIFO is
    read as from a regular file."""
    limit = MAP_MAX_TERMS * JSON_BYTES_PER_TERM
    big = ('{"algebra": "wplus", "truncation": {"min": 1, "max": 1000000}, "images": {'
           + ", ".join(f'"{k}": []' for k in range(1, 1000001)) + "}}\n")
    small = json.dumps({"algebra": "wplus", "truncation": {"min": 1, "max": 2},
                        "images": {"1": [[1, "1"]], "2": [[2, "2"]]}})
    argv = ["leibniz", "--algebra", "wplus", "--depth", "1", "--map"]
    for text, expected in (
        (big, (3, "", f"error: map file bytes {limit + 1} is above the limit {limit}\n")),
        (small, (0, "pass (1 pairs checked)\n", "")),
    ):
        fifo = tmp_path / "map.fifo"
        os.mkfifo(fifo)

        def feed(text=text, fifo=fifo):
            try:
                with open(fifo, "w") as fh:
                    fh.write(text)
            except BrokenPipeError:  # the reader stopped at the bound
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        tracemalloc.start()
        try:
            assert run(argv + [str(fifo)]) == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join(timeout=10)
            fifo.unlink()
        assert peak < 30 * 2**20


def _doubling_map(algebra, window):
    """D(e_k) = e_{2k} on the window: one shift per index."""
    images = {str(k): [[2 * k, "1"]] for k in window.indices()}
    return {"algebra": algebra, "truncation": {"min": window.lo, "max": window.hi},
            "images": images}


def test_recover_inner_refuses_large_work(tmp_path, monkeypatch):
    """Each image is compared with [a, e_k], at most one term per shift of
    the map, so shifts * window bounds the comparison and is checked before
    it starts."""
    path = tmp_path / "map.json"

    def recover(algebra, window):
        path.write_text(json.dumps(_doubling_map(algebra, window)))
        return run(["recover-inner", "--algebra", algebra, "--map", str(path)])

    def refusal(work):
        line = f"shifts * window {work} is above the limit {RECOVER_INNER_MAX_WORK}"
        return 3, "", f"error: {line}\n"

    # at 1:1732 (2999824) the images are compared and the table rejected at e_1
    assert recover("wplus", Window(1, 1732)) == (
        3, "", "error: table is not inner: mismatch at e_1\n"
    )

    def unreachable(*args):
        raise AssertionError("images compared for a refused table")

    monkeypatch.setattr(derivations, "_verified_inner", unreachable)
    start = time.perf_counter()
    assert recover("wplus", Window(1, 2000)) == refusal(2000 * 2000)
    assert recover("wplus", Window(1, 4000)) == refusal(4000 * 4000)
    assert recover("witt", Window(-1000, 1000)) == refusal(2001 * 2001)
    assert time.perf_counter() - start < 0.5


def test_bracket_refuses_many_term_products():
    m = 11
    n = BRACKET_MAX_PRODUCTS // m + 1
    x = " + ".join(f"e_{k}" for k in range(m))
    y = " + ".join(f"e_{k}" for k in range(n))
    start = time.perf_counter()
    assert run(["bracket", "--algebra", "witt", x, y]) == (
        3,
        "",
        f"error: term products {m * n} is above the limit {BRACKET_MAX_PRODUCTS}\n",
    )
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("command", ["centralizer", "rigidity"])
def test_centralizer_and_rigidity_refuse_many_term_products(command):
    """`centralizer` reads its answer off the grading and brackets nothing,
    but terms * window stays bounded like a bracket's term products, as a
    bound on its input, after the library's own checks.  `rigidity` brackets the target with two probes only, and
    its far probe 2 * support_bound + 1 must lie in the window, so the
    window bounds the terms: the largest target at the window cap (2999
    terms) is answered."""
    terms = BRACKET_MAX_PRODUCTS // CENTRALIZER_MAX_WINDOW + 1
    half = CENTRALIZER_MAX_WINDOW // 2
    window = f"-{half}:{half}"
    element = " + ".join(f"e_{k}" for k in range(1, terms + 1))
    argv = [command, "--algebra", "witt", "--element", element, "--window", window]
    if command == "rigidity":
        top = (half - 1) // 2  # the far probe 2 * top + 1 is the window's last index
        target = " + ".join(f"e_{k}" for k in range(-top, top + 1))
        for fmt in ("text", "json"):
            start = time.perf_counter()
            code, out, err = run(argv[:4] + [target, "--window", window, "--format", fmt])
            assert time.perf_counter() - start < 0.5
            assert (code, err) == (0, "")
            rigid = out.endswith("rigid = true\n") if fmt == "text" else json.loads(out)["rigid"]
            assert rigid is True
    start = time.perf_counter()
    if command == "centralizer":
        assert run(argv) == (
            3,
            "",
            f"error: term products {terms * (2 * half + 1)} is above the limit "
            f"{BRACKET_MAX_PRODUCTS}\n",
        )
    argv[2] = "wplus"  # the window leaves the domain of wplus and its witnesses
    domain = "wplus_ext" if command == "rigidity" else "wplus"
    assert run(argv) == (3, "", f"error: window {window} leaves the {domain} index domain\n")
    assert time.perf_counter() - start < 0.5


def test_twolocal_verify_refuses_large_index(tmp_path):
    top = VERIFY_MAX_INDEX + 1
    path = tmp_path / "pairs.json"
    pairs = [["e_2", "e_3"], ["e_1", f"e_{top}"]]
    path.write_text(json.dumps({"algebra": "thin", "pairs": pairs}))
    assert run(["two-local", "verify", "--pairs", str(path)]) == (
        3,
        "",
        f"error: pair 2 index {top} is above the limit {VERIFY_MAX_INDEX}\n",
    )


def test_twolocal_verify_bounds_total_witness_size(tmp_path):
    path = tmp_path / "pairs.json"

    def verify(pairs):
        path.write_text(json.dumps({"algebra": "thin", "pairs": pairs}))
        return run(["two-local", "verify", "--pairs", str(path)])

    def refusal(total):
        return 3, "", f"error: total witness size {total} is above the limit {VERIFY_MAX_TOTAL}\n"

    full, rest = divmod(VERIFY_MAX_TOTAL, VERIFY_MAX_INDEX)
    assert rest >= 3  # so the last pair's witness size is its index
    at_limit = [["e_1", f"e_{VERIFY_MAX_INDEX}"]] * full + [["e_1", f"e_{rest}"]]
    code, out, err = verify(at_limit)
    assert (code, err) == (0, "") and out.endswith("all pass: true\n")
    at_limit[-1] = ["e_1", f"e_{rest + 1}"]
    assert verify(at_limit) == refusal(VERIFY_MAX_TOTAL + 1)
    # every pair is checked before any witness is built: no seconds of work
    # ahead of a refusal or of a malformed last pair
    heavy = [["e_1", f"e_{VERIFY_MAX_INDEX}"]] * 50
    start = time.perf_counter()
    assert verify(heavy) == refusal(50 * VERIFY_MAX_INDEX)
    assert verify(heavy + [["e_1"]]) == (
        2,
        "",
        "error: pair 51 is not a list of two element strings\n",
    )
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_twolocal_verify_builds_no_table(tmp_path, monkeypatch, fmt):
    """A pair at the index cap is verified from the witness params alone: no
    `LinearMapTable` is built and `thin_derivation` is never called, in text
    or JSON mode (JSON writes the witness table from the closed form)."""
    calls = []
    table_init = derivations.LinearMapTable.__init__
    tabulate = derivations.thin_derivation

    def spy_init(self, *args):
        calls.append("LinearMapTable")
        table_init(self, *args)

    def spy_tabulate(*args):
        calls.append("thin_derivation")
        return tabulate(*args)

    monkeypatch.setattr(derivations.LinearMapTable, "__init__", spy_init)
    for module in (derivations, wittlocal):
        monkeypatch.setattr(module, "thin_derivation", spy_tabulate)
    path = tmp_path / "pairs.json"
    top = VERIFY_MAX_INDEX
    path.write_text(json.dumps({"algebra": "thin", "pairs": [[f"e_1 + e_{top}", f"e_{top - 1}"]]}))
    code, out, err = run(["two-local", "verify", "--pairs", str(path), "--format", fmt])
    assert (code, err, calls) == (0, "", [])
    if fmt == "json":
        witness = json.loads(out)["results"][0]["witness"]
        assert witness["truncation"] == {"min": 1, "max": top}
        assert witness["images"]["1"] == [[top, "1"]] and witness["images"][str(top)] == []
    else:
        assert out == f"[1] case=e1-scaled | D(e_1) = e_{top} | D(e_2) = 0 | pass=true\n" \
                      "all pass: true\n"
    zero = Element.zero(Algebra.THIN)
    table_to_json(derivations.thin_derivation(derivations.ThinDerivationParams(zero, zero), 3))
    assert calls == ["thin_derivation", "LinearMapTable"]  # the spies do see a tabulation


_BROKEN_JSON = {"invalid-json": b"{not json", "too-deep": b"[" * 10**5, "not-utf8": b"\xff{}"}


@pytest.mark.parametrize("broken", ["missing-file", *_BROKEN_JSON])
@pytest.mark.parametrize("kind", ["map", "pairs"])
def test_unreadable_input_file_exits_2(tmp_path, kind, broken):
    path = tmp_path / f"{kind}.json"
    if broken in _BROKEN_JSON:
        path.write_bytes(_BROKEN_JSON[broken])
    if kind == "map":
        argv = ["leibniz", "--algebra", "witt", "--map", str(path), "--depth", "3"]
    else:
        argv = ["two-local", "verify", "--pairs", str(path)]
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and str(path) in err
    if broken == "missing-file":
        assert err.startswith(f"error: cannot read {kind} file {path}: ")
    else:
        assert err.startswith(f"error: {kind} file {path} is not valid JSON: ")


_NINES, _SEVENS = "9" * 5000, "7" * 5000  # longer than int() converts by default


@pytest.mark.parametrize(
    "argv, map_text, message",
    [
        (["bracket", "--algebra", "witt", "e_1", f"e_{_NINES}"], None,
         "too many digits in element text at position 0"),
        (["jacobi", "--algebra", "witt", "--window", f"1:{_NINES}"], None,
         "too many digits in window text"),
        (["recover-inner", "--algebra", "wplus", "--map", "MAP"],
         '{"algebra": "wplus", "truncation": {"min": 1, "max": 1}, '
         f'"images": {{"1": [[1, "1/{_SEVENS}"]]}}}}',
         "too many digits in rational literal"),
        (["recover-inner", "--algebra", "wplus", "--map", "MAP"],
         f'{{"algebra": "wplus", "truncation": {{"min": 1, "max": {_NINES}}}, "images": {{}}}}',
         "map file MAP is not valid JSON: Exceeds the limit"),
    ],
    ids=["element", "window", "map-rational", "json-integer"],
)
def test_oversized_integer_literals_exit_2(tmp_path, argv, map_text, message):
    """Integer literals with more digits than int() converts are unparsable
    input: exit 2 with one line, not the interpreter's exit-3 ValueError."""
    path = tmp_path / "map.json"
    if map_text is not None:
        path.write_text(map_text)
    code, out, err = run([str(path) if arg == "MAP" else arg for arg in argv])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {message.replace('MAP', str(path))}")


def test_twolocal_verify_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "pairs.json"
    path.write_text('{"algebra": "thin", "pairs": [["e_1", "e_2"]], "pairs": [["e_1", "e_3"]]}')
    code, out, err = run(["two-local", "verify", "--pairs", str(path)])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "duplicate JSON keys ['pairs']" in err


def test_broken_pipe_exits_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    err = io.StringIO()
    with open(write_end, "w") as closed_pipe:
        with redirect_stdout(closed_pipe), redirect_stderr(err):
            code = main(["bracket", "--algebra", "witt", "e_1", "e_2"])
        # stdout now points at devnull, so the flush on close succeeds
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert (code, err.getvalue()) == (1, "")


def test_cli_start_up_imports_no_dataclasses():
    """Every command starts a fresh interpreter, so `import wittlocal.cli` and
    `build_parser()` must not load `dataclasses` or the modules it pulls in.
    Run in a child, since pytest has loaded them here; only the modules the
    import adds count, so a site hook that loads one cannot fail this."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import wittlocal.cli; wittlocal.cli.build_parser(); "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(os.path.dirname(wittlocal.__file__))
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    added = set(proc.stdout.split())
    assert "wittlocal.cli" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_missing_keys_message_is_bounded(tmp_path):
    """A huge truncation with one image is refused in one short line.  Run in
    a child with a 1 GiB address-space cap, so listing every missing key
    fails fast instead of exhausting memory."""
    path = tmp_path / "map.json"
    path.write_text(
        '{"algebra": "wplus", "truncation": {"min": 1, "max": 1000000000}, '
        '"images": {"1": [[1, "1"]]}}'
    )
    cap = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "wittlocal", "leibniz", "--algebra", "wplus",
         "--map", str(path), "--depth", "3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wittlocal.__file__))},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200
    assert proc.stderr == (
        "error: 999999999 of 1000000000 image keys missing inside the truncation 1:1000000000, "
        "first [2, 3, 4, 5, 6]\n"
    )


def _valid_requests(tmp_path):
    """One valid request per leaf subcommand, in text form."""
    table = ad(Element.basis(Algebra.WPLUS_EXT, 0), Window(1, 12), Algebra.WPLUS)
    map_path = tmp_path / "d.json"
    map_path.write_text(json.dumps(table_to_json(table)))
    pairs_path = tmp_path / "pairs.json"
    pairs_path.write_text(json.dumps({"algebra": "thin", "pairs": [["e_2", "e_1 + 3*e_2"]]}))
    return [
        ["bracket", "--algebra", "witt", "e_2", "e_3"],
        ["jacobi", "--algebra", "thin", "--window", "1:12"],
        ["leibniz", "--algebra", "wplus", "--map", str(map_path), "--depth", "5"],
        ["extend", "--algebra", "wplus", "--e1", "e_1", "--e2", "2*e_2", "--truncation", "6"],
        ["der-basis", "--algebra", "thin", "--support", "3"],
        ["recover-inner", "--algebra", "wplus", "--map", str(map_path)],
        ["centralizer", "--algebra", "witt", "--element", "-e_1 + e_2", "--window", "-8:8"],
        ["rigidity", "--algebra", "wplus", "--element", "e_2", "--window", "1:12"],
        ["two-local", "verify", "--pairs", str(pairs_path)],
        ["two-local", "additivity"],
    ]


def _mixed_requests(tmp_path):
    """Every subcommand in text and JSON, interleaved with a usage error
    (exit 1), a parse error (exit 2) and refusals (exit 3)."""
    commands = _valid_requests(tmp_path)
    wide_path = tmp_path / "wide.json"
    wide_path.write_text(json.dumps(_doubling_map("wplus", Window(1, 2000))))
    failures = [
        ["bracket", "--algebra", "witt", "e_1"],  # missing operand: exit 1
        ["bracket", "--algebra", "witt", "e_x", "e_1"],  # exit 2
        ["jacobi", "--algebra", "witt", "--window", "1:1000"],  # exit 3
        ["two-local"],  # missing subcommand: exit 1
        ["centralizer", "--algebra", "witt", "--element", "e_1", "--window", "-9000:9000",
         "--format", "json"],  # exit 3
        ["recover-inner", "--algebra", "wplus", "--map", str(wide_path)],  # exit 3
    ]
    requests = []
    for n, argv in enumerate(commands):
        requests += [argv, argv + ["--format", "json"]] + failures[n : n + 1]
        requests += HELP_REQUESTS[n : n + 1]
    return requests + HELP_REQUESTS[len(commands):]


def test_main_is_reentrant(tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    requests = _mixed_requests(tmp_path)
    first = [run(argv) for argv in requests]
    second = [run(argv) for argv in requests]
    assert first == second
    assert sorted({code for code, _, _ in first}) == [0, 1, 2, 3]
    assert sum(code == 0 for code, _, _ in first) == 20 + len(HELP_REQUESTS) - 1
    assert sum(out.startswith("usage: wittlocal") for _, out, _ in first) == len(HELP_REQUESTS) - 1
    assert first[-1] == (1, "", "wittlocal: the following arguments are required: command\n")
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [run(argv) for argv in requests] == first


def _parsers(parser):
    """parser and every parser below it in the subcommand tree."""
    subs = [sub for action in parser._actions if isinstance(action, argparse._SubParsersAction)
            for sub in action.choices.values()]
    return [parser, *(p for sub in subs for p in _parsers(sub))]


def test_read_request_matches_argparse_on_every_command():
    """For each `_COMMANDS` entry, `_read_request` gives the namespace
    argparse gives, with every option set and with only the required ones."""
    assert len(cli._COMMANDS) == 10
    for names, (_, _, options, operands) in cli._COMMANDS.items():
        every, required = [], []
        for name, kind, _ in options:
            value = kind[-1] if type(kind) is tuple else "7" if kind is int else "e_2"
            every += [name, value]
            required += [] if type(kind) is tuple else [name, value]
        for argv in (every, required):
            argv = [*names, *argv, *["e_2"] * len(operands)]
            assert cli._read_request(argv) == cli.build_parser().parse_args(argv), argv


def test_main_parses_a_named_subcommand_with_its_own_parser(tmp_path, monkeypatch):
    """A valid request is read off its leaf parser's actions: it reaches no
    argparse parse, at the root, at `two-local` or at the leaf.  A request
    the reader declines goes through the whole tree."""
    root = cli.build_parser()
    calls = []
    for parser in _parsers(root):
        def spy(*args, parser=parser, parse=parser.parse_known_args):
            calls.append(parser.prog)
            return parse(*args)

        monkeypatch.setattr(parser, "parse_known_args", spy)
    requests = [form for argv in _valid_requests(tmp_path)
                for form in (argv, argv + ["--format", "json"])]
    requests += [
        ["bracket", "--algebra=witt", "--format=json", "--", "-e_1", "e_2"],
        ["bracket", "e_1", "--algebra", "witt", "--", "-1/2*e_3"],
        ["extend", "--algebra=thin", "--e1=e_1", "--e2", "e_2", "--truncation=3"],
        ["centralizer", "--window=-8:8", "--algebra", "witt", "--element", "-e_1 + e_2"],
    ]
    for argv in requests:
        code, out, err = run(argv)
        assert (code, err) == (0, ""), argv
    assert calls == []
    assert run(["two-local"])[0] == 1  # the whole tree reports a missing subcommand
    assert calls == ["wittlocal", "wittlocal two-local"]
    calls.clear()
    assert run(["bracket", "--alg", "witt", "e_1", "e_2"]) == (0, "e_3\n", "")  # an abbreviation
    assert calls == ["wittlocal", "wittlocal bracket"]


# Each parser path: the sha256 of its `-h` stdout at 80 columns, and the exit
# code and stderr of the bare path (`two-local additivity` takes no input).
HELP_GOLDEN = {
    "": ("e1ef53ea00b3f6c531daeb437c551ad3d5fc83733d486a9dcf25f95d69f2ff11", 1,
         "wittlocal: the following arguments are required: command\n"),
    "bracket": ("1bdaf1178e7986ec037f7ffc3e7376345429be1cadec9f46fda6290d7b63b482", 1,
                "wittlocal bracket: the following arguments are required: --algebra, x, y\n"),
    "jacobi": ("f823679189ff2b1b9d28d5ce7d2f18e80ee545ef3ed34e589ea41ee309d6056e", 1,
               "wittlocal jacobi: the following arguments are required: --algebra, --window\n"),
    "leibniz": ("20e707dec7de5c699694afec912ac6326f69b1973d2aac2f00fa69d340a50f16", 1,
                "wittlocal leibniz: the following arguments are required: --algebra, --map, "
                "--depth\n"),
    "extend": ("960f2d104cdbcfbcf0f6c0ab86fdb014d1658fc8eeaf581b44551aacf66a69d8", 1,
               "wittlocal extend: the following arguments are required: --algebra, --e1, --e2, "
               "--truncation\n"),
    "der-basis": ("b160add4fb1b29831e7b4b469c967937345b0e84f8e1d1661e1fce2a15d1e079", 1,
                  "wittlocal der-basis: the following arguments are required: --algebra, "
                  "--support\n"),
    "recover-inner": ("17b26ab55f73505f7bcd28292cf83c7df52c7ab4f7f34c21e4499d59be3e3876", 1,
                      "wittlocal recover-inner: the following arguments are required: --algebra, "
                      "--map\n"),
    "centralizer": ("a48e0ab1df7631d9a3eaf5235e4f7a45b4c00ad5c19aafa04f91c8996d01833b", 1,
                    "wittlocal centralizer: the following arguments are required: --algebra, "
                    "--element, --window\n"),
    "rigidity": ("4607850ce089cfa0a13cd83ae0fe70891109ec2fb349d5594b9277c7896f2155", 1,
                 "wittlocal rigidity: the following arguments are required: --algebra, "
                 "--element, --window\n"),
    "two-local": ("23b2f7eee46a502cb4eb5d882c1994394a110567f9d9082d6e912de663bbb391", 1,
                  "wittlocal two-local: the following arguments are required: subcommand\n"),
    "two-local verify": ("f0b6d265327e8b862e6991947a779bff8f2d3c52b7cc661e5a38e16985b7539b", 1,
                         "wittlocal two-local verify: the following arguments are required: "
                         "--pairs\n"),
    "two-local additivity": ("d371deafb3d4b5fb6166c83394503d662618b49b6f09306ad158e41660df85dc",
                             0, ""),
}
# argparse wraps three of the help texts differently from Python 3.13 on
HELP_DIGESTS_SINCE_3_13 = {
    "": "1811ec7aa315ab20949f382b9b085a2fb9ac92493a42b7b8deb84a54b122259d",
    "jacobi": "1ad0895a13fda8abd7b783f59641b196bcdd6edff9ac8344dfe7ba4ca8733a71",
    "leibniz": "e1ee6f6cf9487978d5107e5cf4c3de6e44454c53aa442b7aaef808faf3d223ed",
}


def test_help_and_bare_invocation_golden(monkeypatch):
    """`-h` on every parser path prints the pinned help, and the bare path
    exits with the pinned code and stderr."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    for path, (digest, code, err) in HELP_GOLDEN.items():
        if sys.version_info >= (3, 13):
            digest = HELP_DIGESTS_SINCE_3_13.get(path, digest)
        help_code, out, help_err = run([*path.split(), "-h"])
        assert (help_code, help_err) == (0, ""), path
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out
        assert run(path.split())[::2] == (code, err), path
