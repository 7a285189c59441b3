"""The `cli_batch` workload: one fresh `python -m anabel.cli` process per call.

All 12 subcommands run in human and `--machine` form on small documents:
the `tests/data` documents, seeded variants written by this module, and
a few malformed documents. One call at a time; each job is one process.
Interpreter start, imports, argument parsing and document loading
dominate, and every compute layer runs cold once per process.

A call *fails* when the program crashes: a traceback on stderr or an exit
code outside 0-2. Any other call is checked against its oracle: the exit
code, the one-line reason of a rejected input, and the values parsed from
the output. The malformed extension document whose `alpha` line lacks its
index is kept on purpose: `documents.load_extension_data` raises an
uncaught IndexError on it, so the call fails in every round until the
loader rejects it with exit 2.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from oracles import (Job, burnside_cover_count, cubic_edges, expect_equal, fiber_recursion,
                     invariant_factors, random_edges, tate_expectation)

SUBPROCESS = True
ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench-work" / str(os.getpid())
RUNNER = Path(__file__).resolve().parent / "cli_runner.py"


class Crash(Exception):
    """The CLI died with a traceback instead of reporting."""


# -- documents, written as text ------------------------------------------------------


def graph_doc(vertices: List[str], edges: Dict[str, Tuple[str, str]]) -> str:
    lines = ["kind = graph", "vertices = " + " ".join(vertices)]
    lines += [f"edge {e} = {u} {w}" for e, (u, w) in sorted(edges.items())]
    return "\n".join(lines) + "\n"


def table_block(head: str, n: int) -> List[str]:
    return [f"{head}:"] + [f"  row = " + " ".join(str((a + b) % n) for b in range(n))
                           for a in range(n)]


def monoid_doc(gens: List[Tuple[int, ...]]) -> str:
    return "\n".join(["kind = monoid", f"dim = {len(gens[0])}"]
                     + ["gen = " + " ".join(map(str, g)) for g in gens]) + "\n"


def times_doc(p: int) -> str:
    src = ["  kind = monoid", "  dim = 1", "  gen = 1"]
    return "\n".join(["kind = morphism", "source:", *src, "target:", *src, f"row = {p}"]) + "\n"


def cyclic_gog_doc(vs, edges, orders: Dict[str, int]) -> str:
    """Cyclic vertex groups, trivial edge groups."""
    lines = ["kind = graph-of-groups", "graph:", "  kind = graph", "  vertices = " + " ".join(vs)]
    lines += [f"  edge {e} = {u} {w}" for e, (u, w) in sorted(edges.items())]
    for v in vs:
        lines += table_block(f"vertex-group {v}", orders[v])
    for e in sorted(edges):
        lines += table_block(f"edge-group {e}", 1)
        lines += [f"branch {e} 0 = 0", f"branch {e} 1 = 0"]
    return "\n".join(lines) + "\n"


def semidirect_doc(n: int, m: int, r: int) -> str:
    """Z/n by Z/m with h acting as multiplication by r^h, split."""
    lines = ["kind = extension-data", *table_block("pi", n), *table_block("h", m)]
    for h in range(m):
        lines.append(f"alpha {h} = " + " ".join(str(pow(r, h, n) * x % n) for x in range(n)))
    lines += [f"g {a} {b} = 0" for a in range(m) for b in range(m)]
    return "\n".join(lines) + "\n"


def semidirect_orders(n: int, m: int, r: int) -> List[int]:
    """Element orders of Z/n x| Z/m, by multiplying pairs out."""
    def mul(a, b):
        return ((a[0] + pow(r, a[1], n) * b[0]) % n, (a[1] + b[1]) % m)
    out = []
    for x in range(n):
        for h in range(m):
            k, y = 1, (x, h)
            while y != (0, 0):
                y, k = mul(y, (x, h)), k + 1
            out.append(k)
    return sorted(out)


def polygon_doc(n: int, rng: random.Random) -> str:
    """n vertices and n edges in a cycle, orientations drawn at random."""
    lines = ["kind = polysimplicial"]
    lines += [f"cell v{i} = 0" for i in range(n)] + [f"cell e{i} = 1" for i in range(n)]
    for i in range(n):
        ends = [i, (i + 1) % n]
        if rng.random() < 0.5:
            ends.reverse()
        for end, v in enumerate(ends):
            lines += [f"face e{i}:", f"  along = 0 1 {end}", f"  target = v{v} 0 0 0"]
    return "\n".join(lines) + "\n"


def chain_poset_doc(m: int) -> str:
    els = [f"a{i}" for i in range(m)]
    lines = ["kind = poset", "s1:", "  elements = " + " ".join(els)]
    lines += [f"  le = a{i} a{i + 1}" for i in range(m - 1)]
    lines += ["s2:", "  elements = x"] + [f"pair = x {a}" for a in els]
    return "\n".join(lines) + "\n"


# -- output parsing ----------------------------------------------------------------------


def kv(stdout: str) -> Dict[str, str]:
    """key=value pairs of --machine output; a repeated key keeps the last."""
    out = {}
    for line in stdout.split():
        k, _, v = line.partition("=")
        out[k] = v
    return out


def make_jobs(seed: int, traced: bool = False) -> List[Job]:
    rng = random.Random(seed)
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", ANABEL_SEED="0")
    call_ids = itertools.count()

    def write(name: str, text: str) -> str:
        path = WORK / name
        path.write_text(text)
        return str(path.relative_to(ROOT))

    jobs: List[Job] = []

    def call(name: str, argv: List[str], check: Callable):
        def run():
            if traced:
                spans = WORK / f"spans{next(call_ids)}.json"
                cmd = [sys.executable, str(RUNNER), str(spans), *argv]
            else:
                cmd = [sys.executable, "-m", "anabel.cli", *argv]
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT)
            if "Traceback" in proc.stderr or proc.returncode not in (0, 1, 2):
                last = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
                raise Crash(f"exit {proc.returncode}: {last[0]}")
            return (proc.returncode, proc.stdout, proc.stderr)

        def checked(obs):
            rc, out, err = obs
            return check(rc, out, err)
        jobs.append(Job(name, run, checked, lambda obs: (obs[0] + 1,) + obs[1:]))

    def both(name, argv, human: Callable, machine: Callable):
        call(name, argv, human)
        call(name + " --machine", argv + ["--machine"], machine)

    def rc_is(rc, want):
        return expect_equal("exit code", rc, want)

    # split-radius: band exponents against the one-level recursion
    p = rng.choice((2, 3, 5))
    h = rng.randint(2, 5)
    vals = [Fraction(rng.randint(0, 40), rng.randint(1, 8)) for _ in range(8)]

    def split_human(rc, out, err):
        got = [int(m) for m in re.findall(r"i=(\d+)", out)]
        return rc_is(rc, 0) + expect_equal("fiber exponents", got,
                                           [fiber_recursion(p, h, v) for v in vals])

    def split_machine(rc, out, err):
        rows = [dict(t.split("=") for t in line.split()) for line in out.splitlines()]
        got = [(int(r["i"]), int(r["size"]), r["boundary"]) for r in rows]
        c = Fraction(1, p - 1)
        want = [(fiber_recursion(p, h, v), p ** fiber_recursion(p, h, v),
                 str(int((v - c).denominator == 1 and 1 <= v - c <= h))) for v in vals]
        return rc_is(rc, 0) + expect_equal("exponent, fiber size, boundary", got, want)
    both("split-radius", ["split-radius", str(p), str(h), *map(str, vals)],
         split_human, split_machine)

    # tate-intervals
    tp = rng.choice((2, 3))
    tv = rng.choice((Fraction(1), Fraction(2), Fraction(3, 2)))
    tn = rng.choice([n for n in (1, 3, 5, 7) if n % tp])
    tl = int(1 + 2 * Fraction(tn * tp, tp - 1) / tv) + 1 + rng.randint(0, 2)
    tm = -((-2 * tl) // tn) + 1 + rng.randint(0, 2)
    i1, i2, l1, l2 = tate_expectation(tp, tv, tn, tl, tm)

    def tate_human(rc, out, err):
        got = re.findall(r"\[(-?\d+), (-?\d+)\]  lg = (\S+)", out)
        want = [(str(i1[0]), str(i1[1]), str(l1)), (str(i2[0]), str(i2[1]), str(l2))]
        return rc_is(rc, 0) + expect_equal("intervals", got, want)

    def tate_machine(rc, out, err):
        d = kv(out)
        got = (d.get("i1"), d.get("lg1"), d.get("i2"), d.get("lg2"), d.get("disjoint"))
        want = (f"{i1[0]},{i1[1]}", str(l1), f"{i2[0]},{i2[1]}", str(l2), "1")
        return rc_is(rc, 0) + expect_equal("intervals", got, want)
    both("tate-intervals", ["tate-intervals", str(tp), str(tv), str(tn), str(tl), str(tm)],
         tate_human, tate_machine)

    # verify-rigidity and cover-enum on theta and on a cubic graph of rank 3
    cubic = write("cubic.graph", graph_doc(*cubic_edges(3, rng)))
    theta = str((DATA / "theta.graph").relative_to(ROOT))
    call("verify-rigidity theta", ["verify-rigidity", "--input", theta, "--max-degree", "2"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("kernel", out.strip(),
                                                          "kernel dimension = 0"))
    call("verify-rigidity cubic --machine",
         ["verify-rigidity", "--input", cubic, "--max-degree", "3", "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("kernel", kv(out), {"dim": "0"}))
    call("cover-enum theta", ["cover-enum", "--input", theta, "--max-degree", "2"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "Burnside count", out.splitlines()[0], f"covers of degree 2 = {burnside_cover_count(2, 2)}"))
    call("cover-enum cubic --machine",
         ["cover-enum", "--input", cubic, "--max-degree", "3", "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "Burnside count", out.splitlines()[0], f"count={burnside_cover_count(3, 3)}"))

    # pi1 and abelianize on polygons and graphs of groups
    z3 = str((DATA / "z3circle.gog").relative_to(ROOT))
    for n in (3, 5):
        poly = write(f"polygon{n}.poly", polygon_doc(n, rng))
        call(f"pi1 polygon{n}", ["pi1", "--input", poly],
             lambda rc, out, err: rc_is(rc, 0) + expect_equal(
                 "free of rank 1", re.fullmatch(r"presentation = < \w+ \| - >", out.strip()) is not None,
                 True))
        call(f"abelianize polygon{n} --machine", ["abelianize", "--input", poly, "--machine"],
             lambda rc, out, err: rc_is(rc, 0) + expect_equal("Z", kv(out),
                                                              {"free": "1", "torsion": "-"}))
    call("pi1 z3circle --machine", ["pi1", "--input", z3, "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "two generators survive", len(kv(out).get("generators", "").split(",")), 2))
    call("abelianize z3circle", ["abelianize", "--input", z3],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("Z + Z/3", out.strip(),
                                                          "abelianization = Z x Z/3"))
    vs, edges = random_edges(4, 6, rng)
    orders = {v: rng.choice((2, 3, 4)) for v in vs}
    gog = write("cyclic.gog", cyclic_gog_doc(vs, edges, orders))
    want_t = ",".join(map(str, invariant_factors(list(orders.values())))) or "-"
    call("abelianize free product --machine", ["abelianize", "--input", gog, "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "Z^h + vertex groups", kv(out), {"free": "3", "torsion": want_t}))

    # monoid checkers
    times2 = str((DATA / "times2.morphism").relative_to(ROOT))
    both("saturation-check times2", ["saturation-check", "--input", times2, "--primes", "2",
                                     "--bound", "3"],
         lambda rc, out, err: rc_is(rc, 1) + expect_equal(
             "fails at (1, 1, 2)", out.strip(), "counterexample: a=[1] b=[1] p=2"),
         lambda rc, out, err: rc_is(rc, 1) + expect_equal(
             "fails at (1, 1, 2)", kv(out), {"pass": "0", "a": "1", "b": "1", "p": "2"}))
    q = rng.choice((3, 5))
    times_q = write(f"times{q}.morphism", times_doc(q))
    call(f"saturation-check times{q} --machine",
         ["saturation-check", "--input", times_q, "--primes", str(q), "--machine"],
         lambda rc, out, err: rc_is(rc, 1) + expect_equal(
             "fails at (1, 1, q)", kv(out), {"pass": "0", "a": "1", "b": "1", "p": str(q)}))
    both("kummer-check times2", ["kummer-check", "--input", times2, "--primes", "3,5"],
         lambda rc, out, err: rc_is(rc, 1) + expect_equal("not Kummer", out.strip(),
                                                          "kummer: no (generator [1])"),
         lambda rc, out, err: rc_is(rc, 1) + expect_equal("not Kummer", kv(out),
                                                          {"pass": "0", "witness": "1"}))
    call(f"kummer-check times{q} --machine",
         ["kummer-check", "--input", times_q, "--primes", f"2,{q}", "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("Kummer", kv(out), {"pass": "1"}))
    n2 = str((DATA / "n2.monoid").relative_to(ROOT))
    k = rng.choice((2, 3))
    cone3 = write("cone3.monoid", monoid_doc([(1, 0, 0), (1, k, 0), (1, 0, k), (1, 1, 1)]))
    both("faces n2", ["faces", "--input", n2],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("2^2 faces", out.splitlines()[0],
                                                          "faces = 4"),
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("2^2 faces", out.splitlines()[0],
                                                          "count=4"))
    call("faces cone3 --machine", ["faces", "--input", cone3, "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("2^3 faces", out.splitlines()[0],
                                                          "count=8"))

    # currents
    both("current-group theta", ["current-group", "--input", theta],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "Z^2", out.splitlines()[:2], ["current group = Z^2", "basis currents = 2"]),
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "Z^2", out.splitlines()[:2], ["free=2 torsion=-", "basis=2"]))
    gv, ge = random_edges(8, 14, rng)
    rand = write("random.graph", graph_doc(gv, ge))
    mod = rng.choice((2, 3, 6))
    call(f"current-group random mod {mod} --machine",
         ["current-group", "--input", rand, "--modulus", str(mod), "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "(Z/n)^(E-V+1)", out.splitlines()[:2],
             ["free=0 torsion=" + ",".join([str(mod)] * 7), "basis=7"]))

    # cospec
    chain = str((DATA / "chain.poset").relative_to(ROOT))
    m = rng.randint(3, 6)
    chain_m = write("chain.poset", chain_poset_doc(m))
    both("cospec chain", ["cospec", "--input", chain],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("all to x", out.splitlines(),
                                                          ["a -> x", "b -> x"]),
         lambda rc, out, err: rc_is(rc, 0) + expect_equal("all to x", kv(out),
                                                          {"a": "x", "b": "x"}))
    call("cospec chain_m --machine", ["cospec", "--input", chain_m, "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "all to x", kv(out), {f"a{i}": "x" for i in range(m)}))

    # schreier
    s3 = str((DATA / "s3.extension").relative_to(ROOT))
    both("schreier s3", ["schreier", "--input", s3],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "S3", (out.splitlines()[0], sorted(re.findall(r"\d+", out.splitlines()[1]))),
             ("extension of order 6 (nonabelian)",
              sorted(map(str, semidirect_orders(3, 2, 2))))),
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "S3", (kv(out)["order"], kv(out)["abelian"],
                    sorted(map(int, kv(out)["orders"].split(",")))),
             ("6", "0", semidirect_orders(3, 2, 2))))
    n, mm, r = rng.choice(((5, 4, 2), (7, 3, 2), (7, 6, 3), (4, 2, 3)))
    ext = write("semidirect.extension", semidirect_doc(n, mm, r))
    call("schreier semidirect --machine", ["schreier", "--input", ext, "--machine"],
         lambda rc, out, err: rc_is(rc, 0) + expect_equal(
             "Z/n x| Z/m", (kv(out)["order"], kv(out)["abelian"],
                            sorted(map(int, kv(out)["orders"].split(",")))),
             (str(n * mm), "0", semidirect_orders(n, mm, r))))

    # malformed documents: a one-line reason and exit 2
    def rejected(rc, out, err):
        lines = err.strip().splitlines()
        return rc_is(rc, 2) + expect_equal("one-line input error", len(lines) == 1 and
                                           lines[0].startswith("input error:"), True)
    bad_edge = write("bad_edge.graph", graph_doc(["u", "v"], {"a": ("u", "w")}))
    call("reject edge to unknown vertex", ["current-group", "--input", bad_edge], rejected)
    dup = write("dup.graph", "kind = graph\nvertices = u u\nedge a = u u\n")
    call("reject duplicate vertex ids", ["cover-enum", "--input", dup], rejected)
    bad_gen = write("bad_gen.monoid", "kind = monoid\ndim = 2\ngen = 1 0 0\n")
    call("reject generator of wrong length", ["faces", "--input", bad_gen], rejected)
    bad_alpha = write("bad_alpha.extension", semidirect_doc(3, 2, 2).replace("alpha 1 =", "alpha ="))
    call("reject alpha without index", ["schreier", "--input", bad_alpha], rejected)

    return jobs


def collect_trace(tracer) -> List[float]:
    """Merge the spans each traced call wrote; return its import times (ms)."""
    imports = []
    for path in sorted(WORK.glob("spans*.json")):
        data = json.loads(path.read_text())
        imports.append(data["import_ms"])
        tracer.merge(data["spans"])
    return imports


def extra_layer_metrics(tracer, imports: List[float]) -> Dict[str, float]:
    return {"cli.import_ms": statistics.median(imports),
            "documents.load_ms": statistics.median(tracer.per_root_ms("documents.load")),
            "cli.command_ms": statistics.median(d / 1e6 for d in tracer.durations("cli.main"))}


def close():
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:  # another session still has its directory there
        pass
