"""Layer spans and work counters for the benchmark's traced run.

`Tracer` wraps the public functions of each wittlocal module at every place
they are bound (the defining module, every module that imported the name,
and the package), so a call from inside the library is traced the same way
as a call from the benchmark.  Each call records a span (name, start, end,
parent span, job) in flat arrays; self time is the span's duration minus the
time its child spans cover.  Work counters are computed at the same
boundaries from arguments and return values, so they repeat exactly for the
same inputs.

`ConstructorCounter` counts `Fraction`, `SparseVector` and `Element`
constructions in a separate pass, because a hook on every scalar would
distort the self times of the traced pass.

Nothing here is installed during a timed run; both classes undo every patch
when their `with` block ends.
"""

from __future__ import annotations

import fractions
import sys
from array import array
from collections import defaultdict
from time import perf_counter

from wittlocal import algebras, linalg


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _kernel_counters(c, args, kwargs, result):
    rows, window = _arg(args, kwargs, 0, "rows"), _arg(args, kwargs, 1, "window")
    c["linalg.kernel_basis.rows"] += len(rows)
    c["linalg.kernel_basis.cols"] += len(window)
    c["linalg.kernel_basis.rank"] += len(window) - result.dim
    bits = max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for vec in result.basis for _, v in vec.items()), default=0)
    c["linalg.kernel_basis.out_bits"] = max(c["linalg.kernel_basis.out_bits"], bits)


def _bracket_counters(c, args, kwargs, result):
    x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
    c["algebras.bracket.term_products"] += len(x.coeffs) * len(y.coeffs)


def _jacobi_counters(c, args, kwargs, result):
    c["algebras.jacobi_check.triples"] += len(_arg(args, kwargs, 1, "window")) ** 3


def _leibniz_counters(c, args, kwargs, result):
    c["derivations.leibniz_check.pairs"] += result.pairs_checked


def _verify_counters(c, args, kwargs, result):
    c["twolocal.verify_pair.pairs"] += 1


# (module, attribute, span name, counter hook); "Class.method" patches the class
SPANS = (
    ("linalg", "kernel_basis", "linalg.kernel_basis", _kernel_counters),
    ("linalg", "Subspace.__init__", "linalg.subspace", None),
    ("linalg", "subspace_intersection", "linalg.subspace_intersection", None),
    ("algebras", "bracket", "algebras.bracket", _bracket_counters),
    ("algebras", "jacobi_check", "algebras.jacobi_check", _jacobi_counters),
    ("algebras", "parse_element", "algebras.parse_element", None),
    ("algebras", "format_element", "algebras.format_element", None),
    ("derivations", "derivation_space_basis", "derivations.derivation_space_basis", None),
    ("derivations", "leibniz_check", "derivations.leibniz_check", _leibniz_counters),
    ("derivations", "recover_inner_wplus", "derivations.recover_inner_wplus", None),
    ("derivations", "extend_from_generators", "derivations.extend_from_generators", None),
    ("derivations", "thin_derivation", "derivations.thin_derivation", None),
    ("derivations", "table_to_json", "derivations.table_json", None),
    ("derivations", "table_from_json", "derivations.table_json", None),
    ("twolocal", "rigidity_check", "twolocal.rigidity_check", None),
    ("twolocal", "centralizer", "twolocal.centralizer", None),
    ("twolocal", "forced_image_space", "twolocal.forced_image_space", None),
    ("twolocal", "thin_witness", "twolocal.thin_witness", None),
    ("twolocal", "verify_pair", "twolocal.verify_pair", _verify_counters),
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
)


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wittlocal" or name.startswith("wittlocal."))]


class Tracer:
    """Spans and counters of the traced pass; records only while `active`."""

    def __init__(self):
        self.active = False
        self.job = -1
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        modules = _library_modules()
        by_module = {m.__name__.rpartition(".")[2]: m for m in modules}
        for module, attr, name, hook in SPANS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(by_module[module], cls_name)
                self._patch(owner, meth, self._wrap(name, getattr(owner, meth), hook))
                continue
            original = getattr(by_module[module], attr)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        return self

    def start(self, job: int) -> None:
        self.job = job
        self.active = True

    def stop(self) -> None:
        self.active = False

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _patch(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name, fn, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer, stack, counters = self, self._stack, self.counters
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, kwargs, result)
                return result
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_times(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Per span name: self time and call count; plus the summed duration
        of root spans (those no other span encloses)."""
        n = len(self.span_start)
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child = [0.0] * n
        covered = 0.0
        for sid in range(n):
            duration = ends[sid] - starts[sid]
            if parents[sid] >= 0:
                child[parents[sid]] += duration
            else:
                covered += duration
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            self_s[name] += ends[sid] - starts[sid] - child[sid]
            calls[name] += 1
        return self_s, calls, covered


class ConstructorCounter:
    """Counts Fraction, SparseVector and Element constructions while active."""

    def __init__(self):
        self.active = False
        self.counts = {"linalg.fraction.created": 0, "linalg.sparse_vector.constructed": 0,
                       "algebras.element.constructed": 0}
        self._undo: list[tuple[type, str, object]] = []

    def __enter__(self) -> ConstructorCounter:
        frac = fractions.Fraction
        new = frac.__dict__["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            if self.active:
                self.counts["linalg.fraction.created"] += 1
            return new(cls, *args, **kwargs)

        self._patch(frac, "__new__", staticmethod(counting_new))
        if "_from_coprime_ints" in frac.__dict__:  # Python >= 3.12 bypasses __new__
            coprime = frac.__dict__["_from_coprime_ints"].__func__

            def counting_coprime(cls, *args, **kwargs):
                if self.active:
                    self.counts["linalg.fraction.created"] += 1
                return coprime(cls, *args, **kwargs)

            self._patch(frac, "_from_coprime_ints", classmethod(counting_coprime))
        for cls, key in ((linalg.SparseVector, "linalg.sparse_vector.constructed"),
                         (algebras.Element, "algebras.element.constructed")):
            self._patch(cls, "__init__", self._counting_init(cls.__init__, key))
        return self

    def start(self, job: int) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def _counting_init(self, init, key):
        def counting_init(obj, *args, **kwargs):
            if self.active:
                self.counts[key] += 1
            init(obj, *args, **kwargs)

        return counting_init

    def _patch(self, cls, key, value) -> None:
        self._undo.append((cls, key, cls.__dict__[key]))
        setattr(cls, key, value)

    def __exit__(self, *exc) -> None:
        self.active = False
        for cls, key, value in reversed(self._undo):
            setattr(cls, key, value)
        self._undo.clear()
