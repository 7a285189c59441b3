"""One round of a workload in a fresh interpreter.

    python perfbench/session.py <workload> <seed> <traced 0|1> <spawn time> [setup-only]

`run.py` starts this with PYTHONPATH=src and passes the `time.monotonic()`
reading taken just before the spawn, so set-up is measured from
interpreter start (imports plus input generation) to the first timed job.
The jobs run one after another, each started when the last returned.
Outputs are checked against the oracles after the timed phase. The last
line of stdout is one JSON object with the round's figures.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import subprocess
import sys
import time


def main(argv) -> int:
    workload, seed, traced, spawned = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    mod = importlib.import_module(workload)
    try:
        if argv[4:] == ["setup-only"]:
            mod.make_jobs(seed, traced)
            print(json.dumps({"setup_s": time.monotonic() - spawned}))
            return 0
        return run_round(mod, seed, traced, spawned)
    finally:
        if mod.SUBPROCESS:
            mod.close()


def run_round(mod, seed: int, traced: bool, spawned: float) -> int:
    jobs = mod.make_jobs(seed, traced)

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        if not mod.SUBPROCESS:
            tracer.install(mod)

    observations, job_ms, failures = [], [], []
    own_spans = tracer is not None and not mod.SUBPROCESS
    setup_s = time.monotonic() - spawned
    t_first = time.perf_counter()
    for job in jobs:
        span = tracer.open("bench.job") if own_spans else None
        t0 = time.perf_counter()
        try:
            observations.append((True, job.run()))
        except Exception as exc:  # a crash of the program is a failed operation
            observations.append((False, None))
            failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        job_ms.append((time.perf_counter() - t0) * 1e3)
        if span is not None:
            tracer.close(span)
    wall_s = time.perf_counter() - t_first
    who = resource.RUSAGE_CHILDREN if mod.SUBPROCESS else resource.RUSAGE_SELF
    rss_mib = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    problems = []
    for job, (ran, obs) in zip(jobs, observations):
        if not ran:
            continue
        problems.extend(f"{job.name}: {p}" for p in job.check(obs))

    out = {"setup_s": setup_s, "job_ms": job_ms, "wall_s": wall_s, "rss_mib": rss_mib,
           "attempted": len(jobs), "failed": len(failures), "failures": failures,
           "problems": problems}
    if tracer is not None:
        cli_layers = {"cli.import_ms": 0.0, "documents.load_ms": 0.0, "cli.command_ms": 0.0}
        if mod.SUBPROCESS:
            cli_layers = mod.extra_layer_metrics(tracer, mod.collect_trace(tracer))
        layers = out["layers"] = tracer.layer_metrics()
        layers.update(cli_layers)
        layers["cli.interpreter_ms"] = interpreter_ms()
        layers["trace.wall_s"] = wall_s
        layers["trace.unaccounted_s"] = wall_s - sum(
            v for k, v in layers.items() if k.endswith(".self_s"))
    print(json.dumps(out))
    return 0


def interpreter_ms(runs: int = 5) -> float:
    """Median wall time of a bare `python -c pass`: the start-up floor."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
