"""wittlocal benchmark: one workload, one process, one job at a time.

    python3 bench/run.py --workload der-solve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The workload's job list is generated from the seed and run
in passes, in a closed loop with no threads.  Every job's answer is checked
outside the timed region (see workloads.py); a job that raises, exits
non-zero or fails its oracle counts as failed.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}; a readable
report goes to stderr.

--trace 0  repeats the job list until --seconds have passed (at least
           MIN_PASSES times) and reports the end-to-end metrics.  Each job's
           time is the median over the passes of its wall time rescaled to a
           reference host speed, measured by speed probes around and during
           the job (see `timed` and README.md).
--trace 1  runs the job list three times: untraced, traced (spans and work
           counters), and once more counting constructed objects.  It reports
           the per-layer metrics.  --seconds does not apply; the counters
           come from exactly one pass so that they repeat exactly.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# Timings are rescaled to the host speed at which `reference()` takes this
# long (its fast-state median on the machine in README.md).
REFERENCE_S = 0.0011
BEAT_S = 0.1
MAX_PASSES = 200
SETUP_LAUNCHES = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import wittlocal.cli; wittlocal.cli.build_parser()"
)

UNITS = {
    "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB",
}

# Per-layer metrics printed by --trace 1, with units.  Self times exclude the
# time of child spans; counters are summed over the pass except out_bits,
# which is the peak coefficient bit-height over all kernel_basis results.
LAYER_UNITS = {
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.kernel_basis.rows": "count",
    "linalg.kernel_basis.cols": "count",
    "linalg.kernel_basis.rank": "count",
    "linalg.kernel_basis.out_bits": "bits",
    "linalg.subspace.calls": "count",
    "linalg.subspace.self_s": "s",
    "linalg.subspace_intersection.calls": "count",
    "linalg.subspace_intersection.self_s": "s",
    "linalg.sparse_vector.constructed": "count",
    "linalg.fraction.created": "count",
    "algebras.bracket.calls": "count",
    "algebras.bracket.term_products": "count",
    "algebras.bracket.self_s": "s",
    "algebras.jacobi_check.self_s": "s",
    "algebras.jacobi_check.triples": "count",
    "algebras.jacobi_check.exponent": "1",
    "algebras.element.constructed": "count",
    "algebras.parse_element.self_s": "s",
    "algebras.format_element.self_s": "s",
    "derivations.derivation_space_basis.self_s": "s",
    "derivations.derivation_space_basis.exponent": "1",
    "derivations.leibniz_check.self_s": "s",
    "derivations.leibniz_check.pairs": "count",
    "derivations.leibniz_check.exponent": "1",
    "derivations.recover_inner_wplus.self_s": "s",
    "derivations.extend_from_generators.self_s": "s",
    "derivations.thin_derivation.self_s": "s",
    "derivations.table_json.self_s": "s",
    "twolocal.rigidity_check.self_s": "s",
    "twolocal.centralizer.self_s": "s",
    "twolocal.forced_image_space.self_s": "s",
    "twolocal.thin_witness.self_s": "s",
    "twolocal.verify_pair.self_s": "s",
    "twolocal.verify_pair.pairs": "count",
    "cli.main.self_s": "s",
    "cli.build_parser.calls": "count",
    "cli.build_parser.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "bench.jobs": "count",
    "bench.job_tail_pct": "%",
    "bench.failed_ratio": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import wittlocal from this checkout's src/, or exit 1 when it has none."""
    if not (SRC / "wittlocal" / "__init__.py").is_file():
        sys.exit(f"bench: no wittlocal sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import wittlocal

    if Path(wittlocal.__file__).resolve().parent != SRC / "wittlocal":
        sys.exit(f"bench: imported wittlocal from {wittlocal.__file__}, not from {SRC}")


@contextmanager
def workdir():
    """Scratch directory for generated input files, inside the checkout."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


class Ledger:
    """Attempts and failures over every job run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job, output, error):
        self.attempted += 1
        if error is None:
            try:
                error = job.failure(output)
            except Exception as exc:  # an oracle that cannot read the output
                error = f"{job.name}: oracle raised {exc!r}"
        if error is not None:
            self.failures.append(error)


def reference() -> float:
    """Duration of a fixed pure-Python computation, Fraction arithmetic and
    dict updates like the library's inner loops: a probe of the speed the
    host gives this process at the moment."""
    start = perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        counts[i % 13] = counts.get(i % 13, 0) + 1
    return perf_counter() - start


def timed(call, beats: bool):
    """Run call() between two speed probes and, when `beats`, one more probe
    every BEAT_S seconds while it runs.  Returns (output, exception, wall
    seconds less the probes, seconds at the speed where reference() takes
    REFERENCE_S)."""
    probes = [reference()]
    beat_s = 0.0

    def beat(signum, frame):
        nonlocal beat_s
        start = perf_counter()
        probes.append(reference())
        beat_s += perf_counter() - start

    if beats:
        signal.signal(signal.SIGALRM, beat)
        signal.setitimer(signal.ITIMER_REAL, BEAT_S, BEAT_S)
    output = error = None
    start = perf_counter()
    try:
        output = call()
    except Exception as exc:
        error = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = perf_counter() - start - beat_s
    probes.append(reference())
    return output, error, wall, wall * REFERENCE_S / statistics.fmean(probes)


def _recording(recorder, job, call):
    recorder.start(job)
    try:
        return call()
    finally:
        recorder.stop()


def run_pass(jobs, ledger, times=None, recorder=None) -> tuple[float, list]:
    """Run every job once.  Returns the summed job time at reference speed and
    the outputs; `times[i]` gets (wall, at reference speed).  A `recorder`
    (tracer or constructor counter) is active only inside each job's call, and
    no speed probe runs during the call then, since it would be recorded."""
    total, outputs = 0.0, []
    for i, job in enumerate(jobs):
        gc.collect()
        call = job.call
        if recorder is not None:
            call = functools.partial(_recording, recorder, i, job.call)
        output, exc, wall, scaled = timed(call, beats=recorder is None)
        total += scaled
        outputs.append(output)
        if times is not None:
            times[i].append((wall, scaled))
        ledger.record(job, output, None if exc is None else f"{job.name}: raised {exc!r}")
    return total, outputs


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least ten
    values above it; the maximum when there are fewer than eleven values."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def exponents(jobs, seconds: list[float]) -> dict[str, float]:
    """Log-log slope of time against size over each ladder, one common slope
    per metric with a separate intercept for each group (algebra)."""
    points: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for job, t in zip(jobs, seconds):
        if job.ladder:
            metric, group, size = job.ladder
            points.setdefault(metric, {}).setdefault(group, []).append(
                (math.log(size), math.log(t)))
    out = {}
    for metric, groups in points.items():
        sxy = sxx = 0.0
        for pts in groups.values():
            mx = statistics.fmean(x for x, _ in pts)
            my = statistics.fmean(y for _, y in pts)
            sxy += sum((x - mx) * (y - my) for x, y in pts)
            sxx += sum((x - mx) ** 2 for x, _ in pts)
        out[metric] = sxy / sxx if sxx else 0.0
    return out


def measure_setup() -> tuple[float, float]:
    """Median time to start a fresh interpreter, import wittlocal.cli and
    build the argument parser: (wall, at reference speed)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, cwd=ROOT)  # warm the bytecode cache
    samples = []
    for _ in range(SETUP_LAUNCHES):
        _, exc, wall, scaled = timed(lambda: subprocess.run(cmd, check=True, cwd=ROOT), True)
        if exc is not None:
            raise exc
        samples.append((wall, scaled))
    return tuple(statistics.median(s) for s in zip(*samples))


def timed_run(jobs, seconds: float, ledger: Ledger):
    times: list[list[tuple[float, float]]] = [[] for _ in jobs]
    passes = 0
    start = perf_counter()
    while passes < MAX_PASSES:
        run_pass(jobs, ledger, times)
        passes += 1
        elapsed = perf_counter() - start
        if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > seconds:
            break
    wall = [statistics.median(w for w, _ in t) for t in times]
    per_job = [statistics.median(s for _, s in t) for t in times]
    tail_s, tail_pct = tail(per_job)
    metrics = {
        "wall_s": sum(per_job),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail_s,
    }
    report = {"passes": passes, "jobs": len(jobs), "tail_pct": tail_pct,
              "unscaled wall_s": sum(wall),
              "unscaled job_p50_ms": 1000 * statistics.median(wall),
              "unscaled job_tail_ms": 1000 * tail(wall)[0],
              **exponents(jobs, per_job)}
    for ladder, t in sorted((job.ladder, t) for job, t in zip(jobs, per_job) if job.ladder):
        metric, group, size = ladder
        report[f"{metric.removesuffix('.exponent')} {group} size={size} (s)"] = t
    return metrics, report


def traced_run(jobs, ledger: Ledger):
    import layertrace

    untraced = [[] for _ in jobs]
    wall_untraced, _ = run_pass(jobs, ledger, untraced)
    traced = [[] for _ in jobs]
    with layertrace.Tracer() as tracer:
        wall_traced, outputs = run_pass(jobs, ledger, traced, tracer)
    self_s, calls, covered = tracer.layer_times()
    with layertrace.ConstructorCounter() as constructed:
        run_pass(jobs, ledger, None, constructed)
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for name, value in self_s.items():
        metrics[f"{name}.self_s"] = value
    for name, value in calls.items():
        metrics[f"{name}.calls"] = value
    metrics.update(tracer.counters)
    for job, output in zip(jobs, outputs):
        if job.counters and output is not None:
            for key, value in job.counters(output).items():
                metrics[key] += value
    metrics.update(constructed.counts)
    metrics.update(exponents(jobs, [t[0][1] for t in untraced]))
    metrics["trace.overhead_s"] = wall_traced - wall_untraced
    metrics["trace.coverage"] = covered / sum(t[0][0] for t in traced)
    metrics["bench.jobs"] = len(jobs)
    metrics["bench.job_tail_pct"] = tail([t[0][1] for t in untraced])[1]
    return {k: metrics[k] for k in LAYER_UNITS}, {"wall_untraced_s": wall_untraced,
                                                  "wall_traced_s": wall_traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r} "
                 f"(expected one of: {', '.join(workloads.WORKLOADS)})")
    # one CPU for the whole run: a speed probe, the job it brackets and the
    # set-up launches then share a CPU, whose speed varies on a shared host
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ledger = Ledger()
    setup = None if args.trace else measure_setup()
    with workdir() as work:
        jobs = workloads.build(args.workload, args.seed, work)
        if args.trace:
            metrics, report = traced_run(jobs, ledger)
        else:
            metrics, report = timed_run(jobs, args.seconds, ledger)
    failed = len(ledger.failures)
    failed_ratio = failed / ledger.attempted
    if args.trace:
        metrics["bench.failed_ratio"] = failed_ratio
        units = LAYER_UNITS
    else:
        report["unscaled setup_s"] = setup[0]
        metrics["setup_s"] = setup[1]
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = UNITS
    for line in ledger.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"attempted {ledger.attempted}, failed {failed}, failed_ratio {failed_ratio:g}",
          file=sys.stderr)
    for key, value in report.items():
        print(f"  {key} = {value:g}", file=sys.stderr)
    for key in units:
        print(f"  {key} = {metrics[key]:.6g} {units[key]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
