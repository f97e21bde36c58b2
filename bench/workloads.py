"""Job lists and oracles for the three benchmark workloads.

A job is one timed call into the library or the CLI plus the answer it must
give.  Expected answers come from theory or from the generated inputs, never
from the code under test: derivation-space dimensions (n for wplus, 2n-1 for
thin), brackets and inner-derivation tables computed here from the structure
constants, closed-form pair counts, the witness case of each pair, and the
rigidity verdict.  `observe` turns a job's output into facts; a job fails
when those facts differ from `expect`.  Expected answers are plain dicts of
bools, ints and strings so that the oracle self-check can corrupt them
generically.

Workloads (the reasons are in README.md):

  der-solve    derivation_space_basis for wplus and thin at n = 8, 16, 24
  check-sweep  jacobi_check windows, leibniz_check on inner wplus tables at
               depth 50/100/200, recover_inner_wplus round trips
  cli-batch    a stream of small `wittlocal.cli.main` requests, text and JSON
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from wittlocal import algebras, cli, derivations
from wittlocal.algebras import Algebra, Element
from wittlocal.derivations import LinearMapTable, ThinDerivationParams
from wittlocal.linalg import Window

WORKLOADS = ("der-solve", "check-sweep", "cli-batch")

# sha256 of the canonical basis text (see `_basis_text`) at the seed commit.
# A solver change that keeps every canonical basis byte-identical keeps these.
DER_SOLVE_DIGESTS = {
    ("wplus", 8):
        "7f10ef5b8776d6612fc61b0391f19adfbf90ac21a8c0fc87d712e481d5ad613e",
    ("wplus", 16):
        "329f02fa2b196ff6c40b8880612b5019491ae15507b0b72c3ca7c2bf5113c618",
    ("wplus", 24):
        "52662d877be44e36ed0a9f9f280c5201a64d38d9a999da64da2fd5822b0446df",
    ("thin", 8):
        "ec03e103ad0d373975efe6c789bc3ee31c293ed93c785e7144d5d9bf5c705926",
    ("thin", 16):
        "f209c568b1f2599f86d81714f5fb2600fd7414d54b00de870388fab664cf5ed3",
    ("thin", 24):
        "e544ab7e78f050eaa4222224061ed1110fc1797f3f51382479b7ef7f0fa9eda6",
}


@dataclass
class Job:
    """One timed call.  `call` runs inside the timed region; `observe` and
    the comparison with `expect` run outside it."""

    name: str
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    expect: dict
    # (exponent metric, group, size) when the job is a rung of a size ladder
    ladder: tuple[str, str, int] | None = None
    # deterministic counters taken from the output in the traced pass
    counters: Callable[[Any], dict] | None = None
    fingerprint: Callable[[Any], str] = repr
    _seen: dict = field(default_factory=dict, repr=False)

    def failure(self, output: Any) -> str | None:
        """None when the output matches the expected answer, else why not."""
        key = self.fingerprint(output)
        facts = self._seen.get(key)
        if facts is None:
            facts = self.observe(output)
            self._seen[key] = facts
        if facts == self.expect:
            return None
        diff = {k: (facts.get(k), self.expect.get(k))
                for k in self.expect.keys() | facts.keys() if facts.get(k) != self.expect.get(k)}
        return f"{self.name}: (observed, expected) {diff}"


# -- independent arithmetic: structure constants and the element grammar -----


def _rule(alg: str, i: int, j: int) -> list[tuple[int, int]]:
    if alg == "thin":
        if i == 1 and j >= 2:
            return [(j + 1, 1)]
        if j == 1 and i >= 2:
            return [(i + 1, -1)]
        return []
    return [] if i == j else [(i + j, j - i)]


def _bracket(alg: str, x: dict, y: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in _rule(alg, i, j):
                out[k] = out.get(k, Fraction(0)) + a * b * c
    return {k: v for k, v in out.items() if v}


def _canon(coeffs: dict) -> str:
    return " ".join(f"{k}:{coeffs[k]}" for k in sorted(coeffs) if coeffs[k]) or "0"


def _text(coeffs: dict) -> str:
    """Element-grammar text with an explicit sign and coefficient on every term."""
    terms = [f"{'-' if c < 0 else '+'}{abs(c)}*e_{k}" for k, c in sorted(coeffs.items()) if c]
    return "".join(terms) or "0"


_TERM = re.compile(r"([+-]?)(?:(\d+)(?:/(\d+))?\*)?e_(-?\d+)")


def _parse(text: str) -> dict:
    s = re.sub(r"\s+", "", text)
    if s == "0":
        return {}
    out: dict[int, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unparsable element {text!r}")
        c = Fraction(int(m[2] or 1), int(m[3] or 1))
        k = int(m[4])
        out[k] = out.get(k, Fraction(0)) + (-c if m[1] == "-" else c)
        pos = m.end()
    return {k: v for k, v in out.items() if v}


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def _element(rng: random.Random, indices: list[int], terms: int) -> dict:
    return {k: _coeff(rng) for k in rng.sample(indices, terms)}


def _inner_images(a: dict, lo: int, hi: int) -> dict[int, dict]:
    """[a, e_k] for k in lo..hi under the witt rule (a may carry e_0)."""
    return {k: _bracket("witt", a, {k: Fraction(1)}) for k in range(lo, hi + 1)}


def _table(alg: Algebra, images: dict[int, dict]) -> LinearMapTable:
    lo, hi = min(images), max(images)
    return LinearMapTable(alg, Window(lo, hi), {k: Element(alg, v) for k, v in images.items()})


def _table_json(alg: str, images: dict[int, dict]) -> dict:
    return {
        "algebra": alg,
        "truncation": {"min": min(images), "max": max(images)},
        "images": {
            str(k): [[i, str(c)] for i, c in sorted(v.items())] for k, v in images.items()
        },
    }


# -- der-solve ----------------------------------------------------------------

DER_LADDER = (("wplus", 8), ("wplus", 16), ("wplus", 24), ("thin", 8), ("thin", 16), ("thin", 24))


def _basis_text(space) -> str:
    lines = [",".join(space.coordinates)]
    for vec in space.space.basis:
        e1, e2 = space.generator_images(vec)
        coords = " ".join(f"{space.coordinates[p]}={c}" for p, c in vec.items())
        lines.append(f"{coords} | e1 = {_canon(dict(e1.coeffs.items()))}"
                     f" | e2 = {_canon(dict(e2.coeffs.items()))}")
    return "\n".join(lines) + "\n"


def basis_digest(space) -> str:
    return hashlib.sha256(_basis_text(space).encode()).hexdigest()


def _observe_der(alg: Algebra, n: int):
    def observe(space) -> dict:
        basis = list(space.space.basis)
        leads = [v.leading_index() for v in basis]
        derivation = True
        for vec in basis:
            e1, e2 = space.generator_images(vec)
            # recover_inner_wplus needs 2*span+3 images; the e_2 image reaches n+1
            truncation = 2 * n + 5 if alg is Algebra.WPLUS else 2 * n + 3
            table = derivations.extend_from_generators(alg, e1, e2, truncation)
            if not isinstance(table, LinearMapTable):
                derivation = False
            elif alg is Algebra.WPLUS:
                # every solution is inner, with its witness supported in 0..n-1
                a = derivations.recover_inner_wplus(table)
                derivation &= all(0 <= i < n for i in a.support())
            else:
                # the extension is the closed-form thin derivation of the pair
                params = ThinDerivationParams.from_generator_images(e1, e2)
                derivation &= table == derivations.thin_derivation(params, truncation)
        return {
            "dim": len(basis),
            "independent": all(a < b for a, b in zip(leads, leads[1:])),
            "derivation": derivation,
            "digest": basis_digest(space),
        }

    return observe


def der_solve(rng: random.Random, work: Path) -> list[Job]:
    jobs = []
    for name, n in DER_LADDER:
        alg = Algebra.from_name(name)
        jobs.append(Job(
            name=f"der {name} n={n}",
            call=lambda alg=alg, n=n: derivations.derivation_space_basis(alg, n),
            observe=_observe_der(alg, n),
            expect={
                "dim": n if alg is Algebra.WPLUS else 2 * n - 1,
                "independent": True,
                "derivation": True,
                "digest": DER_SOLVE_DIGESTS[(name, n)],
            },
            ladder=("derivations.derivation_space_basis.exponent", name, n),
            fingerprint=basis_digest,
        ))
    rng.shuffle(jobs)
    return jobs


# -- check-sweep --------------------------------------------------------------

JACOBI_WINDOWS = (("wplus", 1, 40), ("wplus", 1, 60), ("wplus", 1, 80),
                  ("witt", -20, 20), ("thin", 1, 60))
LEIBNIZ_DEPTHS = (50, 100, 200)
RECOVER_SPANS = tuple(range(3, 27))


def _leibniz_pairs(depth: int) -> int:
    """Pairs 1 <= i <= j with i + j <= depth, the check set of a 1..depth table."""
    return sum(depth - 2 * i + 1 for i in range(1, depth // 2 + 1))


def check_sweep(rng: random.Random, work: Path) -> list[Job]:
    jobs = []
    for name, lo, hi in JACOBI_WINDOWS:
        alg, window = Algebra.from_name(name), Window(lo, hi)
        jobs.append(Job(
            name=f"jacobi {name} {window}",
            call=lambda alg=alg, window=window: algebras.jacobi_check(alg, window),
            observe=lambda r: {"passed": r.passed},
            expect={"passed": True},
            ladder=("algebras.jacobi_check.exponent", name, len(window)),
        ))
    for depth in LEIBNIZ_DEPTHS:
        a = _element(rng, list(range(0, 9)), 4)
        table = _table(Algebra.WPLUS, _inner_images(a, 1, depth))
        jobs.append(Job(
            name=f"leibniz wplus depth={depth} a={_text(a)}",
            call=lambda table=table, depth=depth: derivations.leibniz_check(table, depth),
            observe=lambda r: {"passed": r.passed, "pairs": r.pairs_checked},
            expect={"passed": True, "pairs": _leibniz_pairs(depth)},
            ladder=("derivations.leibniz_check.exponent", "wplus", depth),
        ))
    for m in RECOVER_SPANS:
        a = {k: _coeff(rng) for k in range(0, m + 1)}
        table = _table(Algebra.WPLUS, _inner_images(a, 1, 2 * (m + 2) + 3))
        jobs.append(Job(
            name=f"recover-inner wplus a={_text(a)}",
            call=lambda table=table: derivations.recover_inner_wplus(table),
            observe=lambda r: {"algebra": r.algebra.value, "a": _canon(dict(r.coeffs.items()))},
            expect={"algebra": "wplus_ext", "a": _canon(a)},
        ))
    rng.shuffle(jobs)
    return jobs


# -- cli-batch ----------------------------------------------------------------


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_job(name: str, argv: list[str], fmt: str, facts: Callable[[str, str], dict],
             expect: dict, operands: tuple[str, ...] = ()) -> Job:
    # operands follow "--" because an element may start with a minus sign
    argv = argv + ["--format", fmt] + (["--", *operands] if operands else [])

    def observe(output) -> dict:
        code, out, err = output
        if code != 0:
            return {"exit": code, "stderr": err.strip()}
        return {"exit": 0, **facts(fmt, out)}

    return Job(
        name=f"cli {name} ({fmt}): wittlocal {' '.join(argv)}",
        call=lambda: _run_cli(argv),
        observe=observe,
        expect={"exit": 0, **expect},
        counters=lambda output: {"cli.stdout_bytes": len(output[1].encode())},
    )


def _line_value(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"no line starting with {prefix!r}")


def _span_facts(text: str) -> tuple[int, str]:
    """(dim, canonical basis) from `dim=D; basis: v1, v2` text."""
    dim, basis = text.split("; basis: ")
    vectors = [] if basis == "-" else basis.split(", ")
    return int(dim.removeprefix("dim=")), "|".join(_canon(_parse(v)) for v in vectors)


def _verify_facts(fmt: str, out: str) -> dict:
    if fmt == "json":
        data = json.loads(out)
        results = data["results"]
        return {"all_pass": data["all_pass"] is True and all(r["pass"] for r in results),
                "cases": ",".join(r["case"] for r in results)}
    lines = out.splitlines()
    cases = [re.search(r"case=(\S+)", line)[1] for line in lines[:-1]]
    every = all(line.endswith("pass=true") for line in lines[:-1])
    return {"all_pass": every and lines[-1] == "all pass: true", "cases": ",".join(cases)}


def _rigidity_facts(fmt: str, out: str) -> dict:
    if fmt == "json":
        data = json.loads(out)
        return {"rigid": data["rigid"], "probes": ",".join(map(str, data["probes"])),
                "meet_dim": data["intersection"]["dim"]}
    probes = _line_value(out, "probes: ").replace("e_", "").replace(" ", "")
    return {"rigid": _line_value(out, "rigid = ") == "true", "probes": probes,
            "meet_dim": _span_facts(_line_value(out, "intersection: "))[0]}


def _centralizer_facts(fmt: str, out: str) -> dict:
    if fmt == "json":
        data = json.loads(out)
        return {"dim": data["dim"], "basis": "|".join(_canon(_parse(v)) for v in data["basis"])}
    dim, basis = _span_facts(out.strip())
    return {"dim": dim, "basis": basis}


def _extend_facts(fmt: str, out: str) -> dict:
    if fmt == "json":
        data = json.loads(out)
        if "images" not in data:
            return {"status": data.get("status")}
        images = {int(k): {i: Fraction(c) for i, c in v} for k, v in data["images"].items()}
    else:
        lines = [re.fullmatch(r"D\(e_(\d+)\) = (.*)", line) for line in out.splitlines()]
        if not all(lines):
            return {"status": out.strip()}
        images = {int(m[1]): _parse(m[2]) for m in lines}
    return {"images": "|".join(f"{k}>{_canon(images[k])}" for k in sorted(images))}


def _element_facts(key: str, prefix: str):
    def facts(fmt: str, out: str) -> dict:
        text = json.loads(out)[key] if fmt == "json" else out.strip().removeprefix(prefix)
        return {key: _canon(_parse(text))}

    return facts


def _pair_case(x: dict, y: dict) -> str:
    x1, y1 = x.get(1, 0), y.get(1, 0)
    if x1 == 0 and y1 == 0:
        return "zero"
    return "e1-scaled" if x1 == 0 or y1 == 0 else "tail-identity"


def _thin_element(rng: random.Random) -> dict:
    x = _element(rng, list(range(2, 9)), rng.randint(1, 3))
    if rng.random() < 0.6:
        x[1] = _coeff(rng)
    return x


def _job_verify(rng, work: Path, n: int, name: str, fmt: str) -> Job:
    pairs = [(_thin_element(rng), _thin_element(rng)) for _ in range(rng.randint(4, 12))]
    path = work / f"pairs-{n}.json"
    path.write_text(json.dumps(
        {"algebra": name, "pairs": [[_text(x), _text(y)] for x, y in pairs]}))
    return _cli_job("two-local verify", ["two-local", "verify", "--pairs", str(path)], fmt,
                    _verify_facts,
                    {"all_pass": True, "cases": ",".join(_pair_case(x, y) for x, y in pairs)})


def _job_rigidity(rng, work: Path, n: int, name: str, fmt: str) -> Job:
    indices = list(range(-6, 7)) if name == "witt" else list(range(1, 9))
    x = _element(rng, indices, rng.randint(1, 3))
    far = 2 * max(abs(k) for k in x) + 1
    hi = far + rng.randint(0, 8)
    window = f"-{hi}:{hi}" if name == "witt" else f"1:{hi}"
    return _cli_job("rigidity", ["rigidity", "--algebra", name, "--element", _text(x),
                                 "--window", window], fmt, _rigidity_facts,
                    {"rigid": True, "probes": f"{0 if name == 'witt' else 1},{far}",
                     "meet_dim": 0})


def _job_centralizer(rng, work: Path, n: int, name: str, fmt: str) -> Job:
    k = rng.randint(-8, 8) if name == "witt" else rng.randint(1, 10)
    hi = abs(k) + rng.randint(1, 10)
    window = f"-{hi}:{hi}" if name == "witt" else f"1:{hi}"
    if name == "thin" and k >= 2:  # [e_g, e_k] = 0 unless g = 1
        kernel = list(range(2, hi + 1))
    else:  # only multiples of e_k commute with e_k
        kernel = [k]
    return _cli_job("centralizer", ["centralizer", "--algebra", name, "--element",
                                    _text({k: _coeff(rng)}), "--window", window], fmt,
                    _centralizer_facts,
                    {"dim": len(kernel), "basis": "|".join(f"{i}:1" for i in kernel)})


def _job_extend(rng, work: Path, n: int, name: str, fmt: str) -> Job:
    truncation = rng.randint(8, 20)
    if name == "wplus":  # generator images of an inner derivation [a, -]
        a = _element(rng, list(range(0, 6)), rng.randint(1, 3))
        images = _inner_images(a, 1, truncation)
        e1, e2 = images[1], images[2]
    else:  # thin: D(e_j) = ((j-2) alpha_1 + beta_2) e_j + sum_{i>=3} beta_i e_{i+j-2}
        e1 = _element(rng, list(range(1, 6)), rng.randint(1, 3))
        e2 = _element(rng, list(range(2, 6)), rng.randint(1, 3))
        images = {1: e1, 2: e2}
        for j in range(3, truncation + 1):
            img = {j: (j - 2) * e1.get(1, 0) + e2.get(2, 0)}
            for i, c in e2.items():
                if i >= 3:
                    img[i + j - 2] = img.get(i + j - 2, 0) + c
            images[j] = {k: v for k, v in img.items() if v}
    return _cli_job("extend", ["extend", "--algebra", name, "--e1", _text(e1), "--e2", _text(e2),
                               "--truncation", str(truncation)], fmt, _extend_facts,
                    {"images": "|".join(f"{k}>{_canon(images[k])}" for k in sorted(images))})


def _job_recover(rng, work: Path, n: int, name: str, fmt: str) -> Job:
    if name == "wplus":
        a = _element(rng, list(range(0, 6)), rng.randint(1, 4))
        span = max(a) + 2  # D(e_2) = [a, e_2] reaches grade max(a) + 2
        images = _inner_images(a, 1, 2 * span + 3 + rng.randint(0, 6))
    else:
        a = _element(rng, list(range(-5, 6)), rng.randint(1, 4))
        hi = rng.randint(2, 10)
        images = _inner_images(a, -hi, hi)
    path = work / f"map-{n}.json"
    path.write_text(json.dumps(_table_json(name, images)))
    return _cli_job("recover-inner", ["recover-inner", "--algebra", name, "--map", str(path)],
                    fmt, _element_facts("element", "a = "), {"element": _canon(a)})


def _job_bracket(rng, work: Path, n: int, name: str, fmt: str) -> Job:
    indices = list(range(-8, 9)) if name == "witt" else list(range(1, 12))
    x = _element(rng, indices, rng.randint(1, 4))
    y = _element(rng, indices, rng.randint(1, 4))
    return _cli_job("bracket", ["bracket", "--algebra", name], fmt, _element_facts("result", ""),
                    {"result": _canon(_bracket(name, x, y))}, operands=(_text(x), _text(y)))


# (request kind, requests per pass, algebras): mostly pair verification and
# rigidity.  Each kind cycles through its algebras and then the two output
# formats, so every seed has the same number of requests of each sort.
CLI_MIX = ((_job_verify, 90, ("thin",)), (_job_rigidity, 90, ("witt", "wplus")),
           (_job_centralizer, 30, ("witt", "wplus", "thin")), (_job_extend, 30, ("wplus", "thin")),
           (_job_recover, 30, ("wplus", "witt")), (_job_bracket, 30, ("witt", "wplus", "thin")))


def cli_batch(rng: random.Random, work: Path) -> list[Job]:
    jobs = []
    for make, count, names in CLI_MIX:
        for k in range(count):
            fmt = ("text", "json")[k // len(names) % 2]
            jobs.append(make(rng, work, len(jobs), names[k % len(names)], fmt))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {"der-solve": der_solve, "check-sweep": check_sweep, "cli-batch": cli_batch}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """The workload's job list; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), work)
