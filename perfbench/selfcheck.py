"""Self-check of the oracles: every check must pass the program's real
output and reject one planted wrong answer.

    PYTHONPATH=src python3 perfbench/selfcheck.py [workload ...]

Runs each workload's job list once (seed 0) in this process, then for
every job feeds its check the observation and `job.plant(observation)`.
Exits 1 if a check rejects a real answer or accepts a planted one. A job
that crashes (the named fault in `cli_batch`) has no observation to plant
into and is listed as skipped.
"""

from __future__ import annotations

import importlib
import sys


def check_workload(name: str) -> int:
    mod = importlib.import_module(name)
    bad = 0
    try:
        jobs = mod.make_jobs(0, False)
        for job in jobs:
            try:
                obs = job.run()
            except Exception as exc:  # the program crashed: nothing to plant into
                print(f"{name}: skipped {job.name} ({type(exc).__name__})")
                continue
            real, planted = job.check(obs), job.check(job.plant(obs))
            if real:
                print(f"{name}: {job.name}: real answer rejected: {real}")
                bad += 1
            if not planted:
                print(f"{name}: {job.name}: planted answer accepted")
                bad += 1
        print(f"{name}: {len(jobs)} oracles, {bad} wrong")
    finally:
        if mod.SUBPROCESS:
            mod.close()
    return bad


def main(argv) -> int:
    names = argv or ["complexes", "algebra", "cli_batch"]
    return 1 if sum(check_workload(n) for n in names) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
