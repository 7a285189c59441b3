"""Benchmark entry point: run one workload for a while and print its figures.

    python3 perfbench/run.py --workload complexes|algebra|cli_batch \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/` is put on PYTHONPATH, no
install is needed. The workload runs in whole rounds until S seconds have
passed. Each round is one fresh interpreter (`session.py`) that imports
`anabel`, builds the seeded inputs and runs the job list in a closed loop
with one caller, so module memos start empty in every round.

With --trace 0 the last line of stdout is the end-to-end result:
jobs_per_s (median over rounds), job_p50_ms (median over every job of
every round), setup_s (median over all set-ups, rounds and extra set-up
only starts) and peak_rss_mib (median over rounds). With --trace 1 each
untraced round is followed by a traced one and the per-layer metrics are
medians over the traced rounds; trace.overhead_s is the traced minus the
untraced timed wall time. Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("complexes", "algebra", "cli_batch")
SETUP_SAMPLES = 11
DEADLINE_S = 170.0


def spawn(workload: str, seed: int, traced: bool, deadline: float, setup_only=False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", ANABEL_SEED="0")
    args = [sys.executable, str(HERE / "session.py"), workload, str(seed), str(int(traced))]
    if setup_only:
        args.append("setup-only")
    spawned = time.monotonic()
    args.insert(5, repr(spawned))
    proc = subprocess.run(args, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in (ROOT / "src" / "anabel" / "__init__.py", ROOT / "tests" / "data"):
        if not need.exists():
            print(f"run.py: {need.relative_to(ROOT)} is missing; run from a source checkout",
                  file=sys.stderr)
            return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    try:
        while True:
            plain.append(spawn(args.workload, args.seed, False, deadline))
            if args.trace:
                traced.append(spawn(args.workload, args.seed, True, deadline))
            if time.monotonic() - start >= args.seconds:
                break
        setups = [r["setup_s"] for r in plain]
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args.workload, args.seed, False, deadline,
                                    setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    for r in rounds:
        for f in r["failures"]:
            print(f"failed: {f}", file=sys.stderr)
    for p in problems:
        print(f"wrong: {p}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds)}
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        jobs_ms = [t for r in plain for t in r["job_ms"]]
        result["metrics"] = {
            "jobs_per_s": {"value": statistics.median(r["attempted"] / r["wall_s"] for r in plain),
                           "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(jobs_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["rss_mib"] for r in plain),
                             "unit": "MiB"},
        }
    print(f"rounds={len(plain)} traced_rounds={len(traced)} "
          f"elapsed_s={time.monotonic() - start:.1f} round_wall_s="
          + ",".join(f"{r['wall_s']:.2f}" for r in plain), file=sys.stderr)
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
