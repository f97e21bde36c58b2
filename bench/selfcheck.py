"""Oracle self-check: a deliberately wrong expected answer must count as failed.

    python3 bench/selfcheck.py [--seed N] [--workload NAME ...]

For each workload, runs its job list once and checks that no job fails with
the true expected answers.  Then, for every job and every fact in its
expected answer (dimension, digest, verdict, pair count, element, exit code,
...), replaces that one fact with a wrong value and checks that the job is
now counted as failed.  Prints failed_ratio with true and with corrupted
answers; exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import sys

import run


def corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "x"


def check(workload: str, seed: int) -> bool:
    import workloads

    with run.workdir() as work:
        jobs = workloads.build(workload, seed, work)
        honest = run.Ledger()
        _, outputs = run.run_pass(jobs, honest)
    corrupted = run.Ledger()
    missed = []
    for i, job in enumerate(jobs):
        for key, value in list(job.expect.items()):
            job.expect[key] = corrupt(value)
            before = len(corrupted.failures)
            corrupted.record(job, outputs[i], None)
            if len(corrupted.failures) == before:
                missed.append(f"{job.name}: wrong {key} not caught")
            job.expect[key] = value
    print(f"{workload}: {len(jobs)} jobs; true answers: failed_ratio "
          f"{len(honest.failures) / honest.attempted:g}; corrupted answers: "
          f"{len(corrupted.failures)}/{corrupted.attempted} caught, failed_ratio "
          f"{len(corrupted.failures) / corrupted.attempted:g}")
    for line in honest.failures + missed:
        print(f"  {line}")
    return not honest.failures and not missed


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    run.import_library()
    import workloads

    ok = [check(w, args.seed) for w in args.workload or workloads.WORKLOADS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
