"""Command-line frontend.

Every subcommand prints either plain text or JSON (`--format`); output is
byte-deterministic for fixed inputs.  Semantic verdicts (a failed check, an
inconsistent extension, a non-rigid trace) are successful computations and
exit 0; only usage problems (1), unparsable input (2), and precondition
violations (3) use nonzero exit codes.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Sequence

from . import derivations, twolocal
from .algebras import Algebra, Element, bracket, format_element, jacobi_check, parse_element
from .errors import ParseError, WittlocalError
from .linalg import SparseVector, Subspace, Window, format_rational


# Most `jacobi` table entries, W times the columns min(lo, 2 lo)..max(hi, 2 hi),
# which grow with the window's distance from 0; the only `jacobi` cap, as every
# built-in table is certified from its entries.  In a fresh process `--algebra
# witt --window -353:353` (707 x 1413) takes 0.19 s and 49 MiB peak RSS,
# `thin 1:707` (707 x 1414) 0.15 s and 24 MiB, `witt 4601:4800` (200 x 5000)
# 0.20 s and 52 MiB (medians of 7 launches); -354:354 (1004653) is refused, as
# is 200000:200199 (built: 15 s, 1.87 GiB).
JACOBI_MAX_TABLE = 1000000

# Widest window `centralizer` and `rigidity` accept.  `centralizer` reads its
# answer off the grading (`witt e_1` on -3000:3000: 0.02 ms in-process); t = 0
# and a thin target with no e_1 term are centralized by every window index,
# whose W unit vectors `Subspace` canonicalises in one pass: thin `e_3` on
# 1:6001 takes about 16 ms in-process.  `rigidity` (one line per forced
# space, from the target's terms) takes about 0.03 ms at -3000:3000; it keeps
# the same cap.
CENTRALIZER_MAX_WINDOW = 6001

# Largest `der-basis` support bound.  Each of the support + 1 wplus blocks
# reads its row off the [e_2, e_3] form (thin has none), so the cap bounds
# linear solving and an output of support basis vectors (2 support - 1 on
# thin).  Support 64 takes 0.08-0.10 s (medians of 7 launches) and 15 MiB peak
# RSS in a fresh process on wplus and on thin, text or JSON, the start-up of
# any command.  Larger values are refused.
DER_BASIS_MAX_SUPPORT = 64

# Largest `leibniz` work, shifts * (pairs + window): one residual per checked
# pair and shift s of the map (D(e_k) = c e_{k+s}), plus the per-shift split
# of the table, one entry per index and shift.  Both count only what
# `leibniz_check` reads: the images in its reach, the window indices within
# [-2 depth, 2 depth].  It bounds the pair scan, which a table that fails the
# certificate gets: D(e_k) = k e_k on 1:4000 (one shift) took 1.9 s that way
# at depth 2460 (2.8 M pairs) and is refused at depth 4000; the 100-shift
# inner map of e_0 + ... + e_99 on 1:400 took 1.0 s at depth 200 (work 2.05 M).
LEIBNIZ_MAX_WORK = 3000000

# Largest `recover-inner` work, shifts * window.  It bounds the comparison of
# each image with [a, e_k], which reads |a| <= shifts terms per index.  The
# 100-shift inner map of e_0 + ... + e_99 on 1:1000 (work 100000) takes about
# 0.7 s in a fresh process, mostly reading the file; D(e_k) = e_{2k} on
# 1:2000 (work 4000000) is refused.
RECOVER_INNER_MAX_WORK = 3000000

# Most image terms a `leibniz` or `recover-inner` map file may hold, counted
# once the JSON is read and before the table is built.  The number of image
# keys has the same bound, since each key is an `Element` even when its image
# is empty.  In a fresh process,
# reading and tabulating a map on 1:400 takes about 0.3 s / 27 MiB peak RSS
# at 40000 terms, 0.6 s / 43 MiB at 100000 and 4.6 s / 202 MiB at 600000;
# the 600000-term file (11 MB) is refused from its size before it is read
# (JSON_BYTES_PER_TERM).
MAP_MAX_TERMS = 100000

# Largest `extend` truncation, and most output terms, shifts * truncation.  Each
# shift s of the generator images (D(e_k) = c e_{k+s}) is read in closed form,
# one [e_2, e_3] residual and one term per index, so the work and the output
# are linear in shifts * truncation.  In a fresh process (medians of 7 launches)
# `--e1 0 --e2 e_3` at 1000 takes 0.11-0.13 s / 16 MiB peak RSS as JSON; at the
# term cap, the 100-shift inner wplus map of e_0 + ... + e_99 at 1000 takes
# 0.26 s / 32 MiB as text, 0.27 s / 47 MiB as JSON, and 10000 thin shifts at
# 10 0.15 s / 27 MiB and 0.17 s / 40 MiB; thin `--e1 e_1 --e2 'e_2 + ... +
# e_102'` at 1000 (101000) is refused.
EXTEND_MAX_TRUNCATION = 1000
EXTEND_MAX_TERMS = 100000

# Most term products one `bracket` multiplies (terms of x times terms of y),
# about 9 us each.  `centralizer` brackets nothing, yet keeps a bound on
# terms * window as an input bound: at 16 terms on -3000:3000 (96016) it
# takes about 0.04 ms in-process.  `rigidity` needs no bound of its own: its
# far probe 2 * support_bound + 1 must lie in the window, so a target has at
# most 2999 terms, and its two forced spaces are one line of at most `terms`
# entries each (2999 terms on -3000:3000 take about 8 ms in-process).
BRACKET_MAX_PRODUCTS = 100000

# Largest basis index in a `two-local verify` pair.  A witness is its two
# generator images, read at the members' own indices, so text output does not grow
# with the index: `["e_1", "e_6001"]` takes about 0.1 ms in-process.  Only JSON
# writes the witness table, on 1..max(3, largest index): 4.3 ms in-process at
# 6001 (131 KB).  In a fresh process (medians of 7-11 launches) the CI's three
# pairs at this cap take 0.08 s as text, 0.12-0.17 s as JSON (855 KB).
VERIFY_MAX_INDEX = 6001

# Largest sum over a `two-local verify` file of the witness sizes
# max(3, largest index), checked once every pair is parsed and before any
# witness is built.  It bounds the tables JSON output writes; text output
# writes none.  At the limit, in a fresh process (medians of 7 launches,
# start-up about 0.08 s), 5 pairs near 6000 take 0.08 s (0.11 s as JSON) and
# 10000 two-term pairs 0.41 s (0.56 s): each pair has a fixed cost, about
# 0.032 ms (0.045 ms as JSON; in-process, best of 7), of parsing, building
# and checking that the sum omits.
VERIFY_MAX_TOTAL = 30000

# Bytes a JSON input file may hold per term of its bound: a map file
# MAP_MAX_TERMS * 64 (6.4 MB), a pairs file VERIFY_MAX_TOTAL * 64 (1.92 MB).
# 64 bytes hold a term such as `[12345, "-123/4567"]` with its share of image
# keys, separators and `indent=2` whitespace; the largest test map, 99900
# terms, is 1.40 MB.  The size is read with `os.fstat` before the JSON is, so
# the 13.9 MB map of 1:1000000 empty images, which took 4.1 s and 310 MiB to
# read before its key count was refused, is refused at once (`_load_json`).
JSON_BYTES_PER_TERM = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands = None  # the action `add_subparsers` returned, on a parser with subcommands

    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(f"{self.prog}: {message}")


def _format_terms(vector: SparseVector) -> str:
    """Render a grade-indexed vector in the element grammar."""
    return format_element(Element._trusted(Algebra.WITT, vector))  # witt holds every index


def _subspace_json(space: Subspace) -> dict:
    return {"dim": space.dim, "basis": [_format_terms(v) for v in space.basis]}


def _subspace_text(span: dict) -> str:
    """The text form of a `_subspace_json` dict."""
    return f"dim={span['dim']}; basis: {', '.join(span['basis']) or '-'}"


def _window_json(window: Window) -> dict:
    return {"min": window.lo, "max": window.hi}


class _JsonText(str):
    """Indent-2 JSON text at depth 0, which `_write_json` re-indents, not escapes."""


# the JSON text of each scalar type, as `json.dumps` writes it
_JSON_SCALARS = {str: _encode_str, int: int.__repr__, bool: {True: "true", False: "false"}.get,
                 type(None): {None: "null"}.get}


def _write_json(obj, out: list[str], newline: str = "\n") -> list[str]:
    """Append the pieces of `json.dumps(obj, indent=2)`, nested at the depth
    `newline` indents, to out and return out.  Indented `json.dumps` runs a
    pure-Python encoder (the C one takes no indent); this one is about twice
    as fast.  Values other than dicts with str keys, lists, `_JSON_SCALARS` and
    `_JsonText` go to `json.dumps`, which escapes every newline inside a string."""
    is_dict = type(obj) is dict and {*map(type, obj)} <= {str}
    if not is_dict and type(obj) is not list:
        text = obj if type(obj) is _JsonText else json.dumps(obj, indent=2)
        out.append(text.replace("\n", newline))
        return out
    inner = sep = newline + "  "
    out.append("{" if is_dict else "[")
    for key, value in obj.items() if is_dict else enumerate(obj):
        head = f"{sep}{_encode_str(key)}: " if is_dict else sep
        sep = "," + inner
        if scalar := _JSON_SCALARS.get(type(value)):
            out.append(head + scalar(value))
        else:
            out.append(head)
            _write_json(value, out, inner)
    out.append((newline if obj else "") + ("}" if is_dict else "]"))
    return out


def _emit(args, text: str, payload: dict | _JsonText) -> int:
    """Print the JSON payload, or the text made from the payload's strings."""
    if args.format == "json":
        text = "".join(_write_json(payload, []))  # the pieces are freed before printing
    print(text)
    return 0


def _emit_verdict(args, payload: dict, noun: str, count: int, where_key: str, where, residual,
                  fmt) -> int:
    """Emit a check verdict: `pass (N <noun> checked)` when `where` is None,
    else `fail at (i, j, ...): residual = R` with R = fmt(residual).  The
    payload gains the same facts after its own keys."""
    payload.update({"pass": where is None, f"{noun}_checked": count})
    if where is None:
        return _emit(args, f"pass ({count} {noun} checked)", payload)
    payload.update({where_key: list(where), "residual": fmt(residual)})
    return _emit(args, f"fail at {tuple(where)}: residual = {payload['residual']}", payload)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object hook: a repeated key is an error, not a silent last-wins."""
    repeated = [key for key, count in Counter(key for key, _ in pairs).items() if count > 1]
    if repeated:
        raise ParseError(f"duplicate JSON keys {repeated}")
    return dict(pairs)


def _load_json(path: str, kind: str, max_bytes: int) -> object:
    """The contents of a JSON input file of at most `max_bytes` bytes, a
    bound checked from the file's size before it is read; a pipe reports size
    0, so at most `max_bytes + 1` bytes of it are read.  `kind` names it."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            raw = fh.read(-1 if size else max_bytes + 1) if size <= max_bytes else b""
        size = max(size, len(raw))
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")  # newlines as text mode
        data = json.load(text, object_pairs_hook=_unique_keys) if size <= max_bytes else None
    except OSError as exc:
        raise ParseError(f"cannot read {kind} file {path}: {exc}") from exc
    # ValueError covers JSONDecodeError, UnicodeDecodeError and integer
    # literals with more digits than int() converts
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{kind} file {path} is not valid JSON: {exc}") from exc
    _refuse_above(f"{kind} file bytes", size, max_bytes)
    return data


def _load_map(path: str, algebra: Algebra) -> derivations.LinearMapTable:
    data = _load_json(path, "map", MAP_MAX_TERMS * JSON_BYTES_PER_TERM)
    images = data.get("images") if isinstance(data, dict) else None
    if isinstance(images, dict):  # anything else is malformed: table_from_json says how
        _refuse_above("map keys", len(images), MAP_MAX_TERMS)
        terms = sum(len(image) for image in images.values() if isinstance(image, list))
        _refuse_above("map terms", terms, MAP_MAX_TERMS)
    table = derivations.table_from_json(data)
    if table.algebra is not algebra:
        raise ParseError(f"map file algebra {table.algebra} does not match --algebra {algebra}")
    return table


def _cmd_bracket(args) -> int:
    x = parse_element(args.x, args.algebra)
    y = parse_element(args.y, args.algebra)
    _refuse_above("term products", len(x.coeffs) * len(y.coeffs), BRACKET_MAX_PRODUCTS)
    payload = {
        "algebra": args.algebra.value,
        "x": format_element(x),
        "y": format_element(y),
        "result": format_element(bracket(x, y)),
    }
    return _emit(args, payload["result"], payload)


def _refuse_above(what: str, value: int, limit: int) -> None:
    """Refuse an input value above its limit, before any work."""
    if value > limit:
        raise ValueError(f"{what} {value} is above the limit {limit}")


def _bounded_window(args, limit: int) -> Window:
    """The --window option, refused before any work when wider than limit."""
    window = Window.parse(args.window)
    if len(window) > limit:
        raise ValueError(
            f"window {window} has {len(window)} indices; {args.command} checks at most {limit}"
        )
    return window


def _cmd_jacobi(args) -> int:
    window = Window.parse(args.window)
    args.algebra.require_window(window)  # a domain error comes before the size refusal
    columns = max(window.hi, 2 * window.hi) - min(window.lo, 2 * window.lo) + 1
    _refuse_above("table entries", len(window) * columns, JACOBI_MAX_TABLE)
    result = jacobi_check(args.algebra, window)
    payload = {"algebra": args.algebra.value, "window": _window_json(window)}
    return _emit_verdict(args, payload, "triples", len(window) ** 3, "counterexample",
                         result.counterexample, result.residual, _format_terms)


def _shifts(images: dict[int, Element]) -> int:
    """Distinct shifts s of the terms D(e_k) = c e_{k+s} of a map; at least 1."""
    return max(1, len({g - k for k, image in images.items() for g in image.support()}))


def _cmd_leibniz(args) -> int:
    table = _load_map(args.map, args.algebra)
    win, depth = table.window, args.depth
    pairs = sum(len(js) for _, js in derivations.leibniz_pairs(win, depth))
    # `leibniz_check` splits only the images in its reach [-2 depth, 2 depth]
    reach = range(max(win.lo, -2 * depth), min(win.hi, 2 * depth) + 1)
    work = _shifts({k: table.images[k] for k in reach}) * (pairs + len(reach))
    _refuse_above("shifts * (pairs + window)", work, LEIBNIZ_MAX_WORK)
    result = derivations.leibniz_check(table, args.depth)
    payload = {"algebra": args.algebra.value, "depth": args.depth}
    return _emit_verdict(args, payload, "pairs", result.pairs_checked, "pair", result.pair,
                         result.residual, format_element)


def _cmd_extend(args) -> int:
    _refuse_above("truncation", args.truncation, EXTEND_MAX_TRUNCATION)
    img_e1 = parse_element(args.e1, args.algebra)
    img_e2 = parse_element(args.e2, args.algebra)
    derivations.require_generated(args.algebra)
    shifts = _shifts({1: img_e1, 2: img_e2})
    _refuse_above("shifts * truncation", shifts * args.truncation, EXTEND_MAX_TERMS)
    outcome = derivations.extend_from_generators(args.algebra, img_e1, img_e2, args.truncation)
    if isinstance(outcome, derivations.InconsistentExtension):
        i, j = outcome.relation
        return _emit(
            args,
            outcome.describe(),
            {
                "status": "inconsistent",
                "relation": [i, j],
                "residual": format_element(outcome.residual),
            },
        )
    if args.format == "json":
        images = (image.coeffs.items() for image in outcome.images.values())
        table = derivations.table_json_text(outcome.algebra, outcome.window, images)
        return _emit(args, "", _JsonText(table))
    lines = [
        f"D(e_{k}) = {format_element(outcome.image(k))}" for k in outcome.window.indices()
    ]
    return _emit(args, "\n".join(lines), {})


def _cmd_der_basis(args) -> int:
    _refuse_above("support", args.support, DER_BASIS_MAX_SUPPORT)
    space = derivations.derivation_space_basis(args.algebra, args.support)
    basis = []
    for vec in space.space.basis:
        e1, e2 = space.generator_images(vec)
        coords = [[space.coordinates[pos], format_rational(c)] for pos, c in vec.items()]
        basis.append({"coords": coords, "e1": format_element(e1), "e2": format_element(e2)})
    payload = {
        "algebra": args.algebra.value,
        "support_bound": space.support_bound,
        "dim": space.dim,
        "coordinates": space.coordinates,
        "basis": basis,
    }
    lines = [f"dim={space.dim}", "coordinates: " + ", ".join(space.coordinates)]
    lines += [f"[{n}] e1 = {b['e1']}; e2 = {b['e2']}" for n, b in enumerate(basis, start=1)]
    return _emit(args, "\n".join(lines), payload)


def _cmd_recover_inner(args) -> int:
    table = _load_map(args.map, args.algebra)
    recover = {Algebra.WPLUS: derivations.recover_inner_wplus,
               Algebra.WITT: derivations.recover_inner_witt}.get(args.algebra)
    if recover is None:
        raise _UsageError(f"recover-inner handles witt and wplus, not {args.algebra}")
    work = _shifts(table.images) * len(table.window)
    _refuse_above("shifts * window", work, RECOVER_INNER_MAX_WORK)
    a = recover(table)
    payload = {"algebra": a.algebra.value, "element": format_element(a)}
    return _emit(args, f"a = {payload['element']}", payload)


def _cmd_centralizer(args) -> int:
    window = _bounded_window(args, CENTRALIZER_MAX_WINDOW)
    t = parse_element(args.element, args.algebra)
    args.algebra.require_window(window)
    _refuse_above("term products", len(t.coeffs) * len(window), BRACKET_MAX_PRODUCTS)
    space = twolocal.centralizer(args.algebra, t, window)
    payload = {
        "algebra": args.algebra.value,
        "element": format_element(t),
        "window": _window_json(window),
        **_subspace_json(space),
    }
    return _emit(args, _subspace_text(payload), payload)


def _cmd_rigidity(args) -> int:
    window = _bounded_window(args, CENTRALIZER_MAX_WINDOW)
    x = parse_element(args.element, args.algebra)
    trace = twolocal.rigidity_check(args.algebra, x, window)
    payload = {
        "algebra": args.algebra.value,
        "target": format_element(x),
        "window": _window_json(window),
        "probes": trace.probes,
        "forced": [
            {"probe": p, **_subspace_json(s)} for p, s in zip(trace.probes, trace.forced)
        ],
        "intersection": _subspace_json(trace.intersection),
        "rigid": trace.rigid,
    }
    lines = [f"target = {payload['target']}"]
    lines.append("probes: " + ", ".join(f"e_{p}" for p in trace.probes))
    lines += [f"probe e_{f['probe']}: {_subspace_text(f)}" for f in payload["forced"]]
    lines.append(f"intersection: {_subspace_text(payload['intersection'])}")
    lines.append(f"rigid = {str(trace.rigid).lower()}")
    return _emit(args, "\n".join(lines), payload)


def _cmd_twolocal_verify(args) -> int:
    data = _load_json(args.pairs, "pairs", VERIFY_MAX_TOTAL * JSON_BYTES_PER_TERM)
    if not isinstance(data, dict) or data.get("algebra") != "thin":
        raise ParseError('pairs file must be {"algebra": "thin", "pairs": [...]}')
    raw_pairs = data.get("pairs")
    if not isinstance(raw_pairs, list):
        raise ParseError("pairs file must carry a list under \"pairs\"")
    pairs = []
    total = 0
    for n, entry in enumerate(raw_pairs, start=1):
        if not isinstance(entry, list) or len(entry) != 2 or not all(
            isinstance(member, str) for member in entry
        ):
            raise ParseError(f"pair {n} is not a list of two element strings")
        x = parse_element(entry[0], Algebra.THIN)
        y = parse_element(entry[1], Algebra.THIN)
        top = max(x.support_bound(), y.support_bound())
        _refuse_above(f"pair {n} index", top, VERIFY_MAX_INDEX)
        size = max(3, top)  # JSON writes the witness table on 1..size
        pairs.append((x, y, size))
        total += size
    _refuse_above("total witness size", total, VERIFY_MAX_TOTAL)
    as_json = args.format == "json"
    rows = []
    all_pass = True
    for n, (x, y, size) in enumerate(pairs, start=1):
        cert = twolocal.thin_witness(x, y)
        passed = twolocal.verify_pair(twolocal.thin_delta, cert).passed
        all_pass = all_pass and passed
        rows.append(_verify_json(cert, passed, size) if as_json else _verify_line(n, cert, passed))
    if as_json:
        return _emit(args, "", {"algebra": "thin", "results": rows, "all_pass": all_pass})
    rows.append(f"all pass: {str(all_pass).lower()}")
    return _emit(args, "\n".join(rows), {})


def _verify_line(n: int, cert: twolocal.WitnessCertificate, passed: bool) -> str:
    """The text line of one verified pair, with the witness's D(e_1) and
    D(e_2); only `--format text` builds it."""
    d1, d2 = format_element(cert.witness.alpha), format_element(cert.witness.beta)
    return f"[{n}] case={cert.case} | D(e_1) = {d1} | D(e_2) = {d2} | pass={str(passed).lower()}"


def _verify_json(cert: twolocal.WitnessCertificate, passed: bool, size: int) -> dict:
    """The JSON result of one verified pair, with the witness written on
    1..size from its image terms; only `--format json` builds it."""
    images = (cert.witness.image_terms(j).items() for j in range(1, size + 1))
    witness = derivations.table_json_text(Algebra.THIN, Window(1, size), images)
    return {
        "pair": [format_element(cert.x), format_element(cert.y)],
        "case": cert.case,
        "witness": _JsonText(witness),
        "pass": passed,
    }


def _cmd_twolocal_additivity(args) -> int:
    x = parse_element("e_1 + e_2", Algebra.THIN)
    y = parse_element("-e_1 + e_2", Algebra.THIN)
    outcome = twolocal.additivity_violation(twolocal.thin_delta, x, y)
    payload = {
        "x": format_element(x),
        "y": format_element(y),
        "delta_of_sum": format_element(outcome.delta_of_sum),
        "sum_of_deltas": format_element(outcome.sum_of_deltas),
        "residual": format_element(outcome.residual),
        "violated": outcome.violated,
    }
    lines = [
        f"x = {payload['x']}",
        f"y = {payload['y']}",
        f"delta(x + y) = {payload['delta_of_sum']}",
        f"delta(x) + delta(y) = {payload['sum_of_deltas']}",
        f"violated = {str(outcome.violated).lower()}",
    ]
    return _emit(args, "\n".join(lines), payload)


def _subcommand(sub, name: str, handler, help: str, algebra: bool = True):
    """Register a subcommand with its --format option and, unless algebra is
    False, the required --algebra that `main` resolves to an Algebra."""
    p = sub.add_parser(name, help=help)
    if algebra:
        p.add_argument("--algebra", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=handler)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    `main` call in the process; callers must not mutate it.  `main` reads each
    cli-batch request off its leaf's actions (`_read_leaf`), in 7 us warm and
    35 us after `gc.collect()`, against 45 and 105 us through the whole tree."""
    parser = _Parser(prog="wittlocal", description=__doc__)
    parser.commands = sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "bracket", _cmd_bracket, "Lie bracket of two elements")
    p.add_argument("x")
    p.add_argument("y")

    p = _subcommand(sub, "jacobi", _cmd_jacobi, "exhaustive Jacobi identity check on a window")
    p.add_argument("--window", required=True, help="inclusive index range a:b")

    p = _subcommand(sub, "leibniz", _cmd_leibniz, "Leibniz-law check of a map table")
    p.add_argument("--map", required=True, help="map table JSON file")
    p.add_argument("--depth", required=True, type=int)

    p = _subcommand(sub, "extend", _cmd_extend, "extend generator images to a derivation table")
    p.add_argument("--e1", required=True, help="image of e_1")
    p.add_argument("--e2", required=True, help="image of e_2")
    p.add_argument("--truncation", required=True, type=int)

    p = _subcommand(sub, "der-basis", _cmd_der_basis, "basis of the derivation space")
    p.add_argument("--support", required=True, type=int)

    about = "inner element behind a derivation table"
    p = _subcommand(sub, "recover-inner", _cmd_recover_inner, about)
    p.add_argument("--map", required=True)

    p = _subcommand(sub, "centralizer", _cmd_centralizer, "elements commuting with a given one")
    p.add_argument("--element", required=True)
    p.add_argument("--window", required=True)

    p = _subcommand(sub, "rigidity", _cmd_rigidity, "forced-image rigidity trace for a target")
    p.add_argument("--element", required=True)
    p.add_argument("--window", required=True)

    p = sub.add_parser("two-local", help="2-local derivation tools")
    p.commands = tsub = p.add_subparsers(dest="subcommand", required=True)
    about = "batch-verify witness certificates for a pairs file"
    v = _subcommand(tsub, "verify", _cmd_twolocal_verify, about, algebra=False)
    v.add_argument("--pairs", required=True, help="pairs JSON file")
    about = "the additivity counterexample computation"
    _subcommand(tsub, "additivity", _cmd_twolocal_additivity, about, algebra=False)

    return parser


# Options whose values may begin with "-" (windows like -10:10, elements
# like -e_1 + e_2); argparse would lex such values as option strings, so
# they are joined into --opt=value form up front.
_DASH_VALUE_OPTS = {"--window", "--element", "--e1", "--e2"}


def _join_dash_values(argv: Sequence[str]) -> list[str]:
    out: list[str] = []
    for tok in argv:  # a joined `--opt=value` is no option name, so it takes no value
        if out and out[-1] in _DASH_VALUE_OPTS and tok.startswith("-") and tok != "--":
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def _read_leaf(leaf: _Parser, argv: list[str]) -> argparse.Namespace | None:
    """`leaf.parse_known_args(argv)[0]` read off the leaf's actions, or None
    for argparse to answer: each option must be single-value, given once by
    exact name as `--opt=value` or `--opt value` (value not starting with
    "-"), and each operand before a first `--` must not start with "-"."""
    given, operands, tokens = {}, [], iter(argv)
    for tok in tokens:
        if tok == "--":
            operands += tokens
            break
        if not tok.startswith("-"):
            operands.append(tok)
            continue
        name, eq, value = tok.partition("=")
        action = leaf._option_string_actions.get(name)
        value = value if eq else next(tokens, "-")  # a missing value is declined
        if action is None or action in given or not eq and value.startswith("-"):
            return None
        given[action] = value
    positionals = [action for action in leaf._actions if not action.option_strings]
    if "--" in operands or len(operands) != len(positionals):
        return None
    given.update(zip(positionals, operands))
    known = argparse.Namespace(**leaf._defaults)
    for action in leaf._actions:
        if action not in given:
            if action.required:
                return None
            if action.default is not argparse.SUPPRESS:  # `-h` sets nothing
                setattr(known, action.dest, action.default)
        elif type(action) is not argparse._StoreAction or action.nargs is not None:
            return None  # `-h`, or a flag or append action
        else:
            try:
                value = leaf._get_value(action, given[action])
                leaf._check_value(action, value)
            except argparse.ArgumentError:
                return None
            setattr(known, action.dest, value)
    return known


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """`parser.parse_args(argv)`, with a request naming a leaf subcommand read
    by `_read_leaf` when it can; any other argv goes through the whole tree."""
    args, leaf, rest = argparse.Namespace(), parser, argv
    while leaf.commands and rest and rest[0] in leaf.commands.choices:
        setattr(args, leaf.commands.dest, rest[0])
        leaf, rest = leaf.commands.choices[rest[0]], rest[1:]
    known = None if leaf.commands else _read_leaf(leaf, rest)
    if known is None:  # empty, `-h`, an unknown name, or argv the reader declines
        return parser.parse_args(argv)
    return argparse.Namespace(**vars(args), **vars(known))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(parser, _join_dash_values(argv))
        if "algebra" in args:
            args.algebra = Algebra.from_name(args.algebra)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  As the Python docs advise for
        # SIGPIPE, point stdout at devnull so the final flush cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WittlocalError, ValueError) as exc:  # after ParseError, which subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
