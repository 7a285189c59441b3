"""Command-line frontend: load documents, run computations, print reports.

Exit codes: 0 success (and property true), 1 property false (for example a
nontrivial rigidity kernel), 2 input or precondition error, 3 internal
error (a fault in anabel itself, reported in one line). Output is
deterministic: every collection is sorted before printing.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

# each subcommand imports the library modules it runs, so a call loads
# only those
from . import documents


class InputError(Exception):
    pass


def _load_document(path: str, expect=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read input: {exc}") from exc
    try:
        kind, obj = documents.load(text)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if expect and kind not in expect:
        raise InputError(
            f"{path}: expected a document of kind {' or '.join(expect)}, got {kind}"
        )
    return kind, obj


def _emit(lines: List[str], machine_lines: List[str], machine: bool):
    print("\n".join(machine_lines if machine else lines))


def cmd_split_radius(args) -> int:
    from .splitting import band_boundary_flag, fiber_count

    p, h = args.p, args.h
    lines, mlines = [], []
    for tok in args.v:
        v = documents.as_fraction(tok)
        if v < 0:
            raise InputError(f"valuation {tok} violates v >= 0")
        i = fiber_count(p, h, v)
        boundary = band_boundary_flag(p, h, v)
        flag = " boundary" if boundary else ""
        lines.append(f"v={v}: i={i} size={p**i}{flag}")
        mlines.append(f"v={v} i={i} size={p**i} boundary={int(boundary)}")
    _emit(lines, mlines, args.machine)
    return 0


def cmd_tate_intervals(args) -> int:
    from .splitting import tate_intervals

    out = tate_intervals(args.p, documents.as_fraction(args.v), args.n, args.l, args.m)
    lines = [
        f"I1 = [{out.i1[0]}, {out.i1[1]}]  lg = {out.length1}",
        f"I2 = [{out.i2[0]}, {out.i2[1]}]  lg = {out.length2}",
        "disjoint = yes",
    ]
    mlines = [
        f"i1={out.i1[0]},{out.i1[1]} lg1={out.length1}",
        f"i2={out.i2[0]},{out.i2[1]} lg2={out.length2}",
        "disjoint=1",
    ]
    _emit(lines, mlines, args.machine)
    return 0


def cmd_verify_rigidity(args) -> int:
    from .graphs import rigidity_kernel

    _, G = _load_document(args.input, expect=("graph", "metric-graph"))
    basis, warnings = rigidity_kernel(G, args.max_degree)
    lines = [f"kernel dimension = {len(basis)}"]
    mlines = [f"dim={len(basis)}"]
    for w in warnings:
        lines.append(f"warning: {w}")
        mlines.append(f"warning={w}")
    for k, vec in enumerate(basis):
        desc = " ".join(f"{e}:{vec[e]}" for e in sorted(vec))
        lines.append(f"basis[{k}] = {desc}")
        mlines.append(f"basis{k}={desc}")
    _emit(lines, mlines, args.machine)
    return 0 if not basis else 1


def _base_cell(complex_, base):
    if not complex_.cells:
        raise InputError("complex has no cells, so pi1 has no base point")
    return min(complex_.cells) if base is None else base


def cmd_pi1(args) -> int:
    kind, obj = _load_document(
        args.input, expect=("graph-of-groups", "polysimplicial")
    )
    if kind == "graph-of-groups":
        from .gog import pi1_presentation

        pres = pi1_presentation(obj).simplify()
    else:
        from .poly_ops import category_pi1

        pres = category_pi1(obj, _base_cell(obj, args.base)).simplify()
    lines = [f"presentation = {pres.describe()}"]
    mlines = [
        f"generators={','.join(pres.generators) if pres.generators else '-'}",
        f"relators={len(pres.relators)}",
    ]
    _emit(lines, mlines, args.machine)
    return 0


def cmd_abelianize(args) -> int:
    kind, obj = _load_document(
        args.input, expect=("graph-of-groups", "polysimplicial")
    )
    if kind == "graph-of-groups":
        from .gog import abelianized_pi1

        ab = abelianized_pi1(obj)
    else:
        from .poly_ops import category_pi1

        ab = category_pi1(obj, _base_cell(obj, args.base)).abelianization()
    _emit(
        [f"abelianization = {ab}"],
        [f"free={ab.free_rank} torsion={','.join(str(d) for d in ab.torsion) or '-'}"],
        args.machine,
    )
    return 0


def _parse_primes(tokens) -> List[int]:
    from .intlin import is_prime

    out = []
    for t in tokens.split(","):
        p = int(t)
        if not is_prime(p):
            raise InputError(f"{t} violates the primality requirement")
        out.append(p)
    return sorted(set(out))


def cmd_saturation_check(args) -> int:
    from .monoids import check_saturated_bounded

    _, phi = _load_document(args.input, expect=("morphism",))
    primes = _parse_primes(args.primes)
    out = check_saturated_bounded(phi, primes, args.bound)
    if out is None:
        _emit(["saturated: no counterexample up to the bound"], ["pass=1"], args.machine)
        return 0
    a, b, p = out.data
    _emit(
        [f"counterexample: a={list(a)} b={list(b)} p={p}"],
        [f"pass=0 a={','.join(map(str, a))} b={','.join(map(str, b))} p={p}"],
        args.machine,
    )
    return 1


def cmd_kummer_check(args) -> int:
    from .monoids import is_kummer

    _, phi = _load_document(args.input, expect=("morphism",))
    primes = _parse_primes(args.primes) if args.primes else []
    ok, witness = is_kummer(phi, primes, multiplier_bound=args.bound)
    if ok:
        _emit(["kummer: yes"], ["pass=1"], args.machine)
        return 0
    wtxt = "not injective" if witness is None else f"generator {list(witness)}"
    _emit(
        [f"kummer: no ({wtxt})"],
        [f"pass=0 witness={','.join(map(str, witness)) if witness else 'injectivity'}"],
        args.machine,
    )
    return 1


def cmd_faces(args) -> int:
    _, P = _load_document(args.input, expect=("monoid",))
    faces = P.faces()
    lines = [f"faces = {len(faces)}"]
    mlines = [f"count={len(faces)}"]
    for f in faces:
        idx = ",".join(str(i) for i in sorted(f.indices)) or "-"
        lines.append(f"face {{{idx}}}")
        mlines.append(f"face={idx}")
    _emit(lines, mlines, args.machine)
    return 0


def cmd_cover_enum(args) -> int:
    from .graphs import enumerate_covers

    _, G = _load_document(args.input, expect=("graph", "metric-graph"))
    covers = enumerate_covers(G, args.max_degree)
    lines = [f"covers of degree {args.max_degree} = {len(covers)}"]
    mlines = [f"count={len(covers)}"]
    for c in covers:
        perms = ";".join(
            ",".join(str(x) for x in p) for p in c.assignment
        ) or "-"
        tag = "connected" if c.connected else "disconnected"
        lines.append(f"assignment {perms} ({tag})")
        mlines.append(f"assignment={perms} connected={int(c.connected)}")
    _emit(lines, mlines, args.machine)
    return 0


def cmd_current_group(args) -> int:
    from .currents import current_group

    kind, obj = _load_document(
        args.input, expect=("graph", "metric-graph", "current")
    )
    G = obj.graph if kind == "current" else obj
    group, basis = current_group(G, modulus=args.modulus)
    lines = [f"current group = {group}", f"basis currents = {len(basis)}"]
    mlines = [
        f"free={group.free_rank} torsion={','.join(map(str, group.torsion)) or '-'}",
        f"basis={len(basis)}",
    ]
    for k, c in enumerate(basis):
        desc = " ".join(
            f"{e}.{slot}:{c.values[(e, slot)]}"
            for (e, slot) in sorted(c.values)
            if c.values[(e, slot)]
        )
        lines.append(f"basis[{k}] = {desc}")
        mlines.append(f"basis{k}={desc}")
    _emit(lines, mlines, args.machine)
    return 0


def cmd_cospec(args) -> int:
    from .cospec import CospecError, cospec_strata

    _, doc = _load_document(args.input, expect=("poset",))
    if doc.s2 is None or doc.incidence is None:
        raise InputError(f"{args.input}: cospec needs s1, s2 and incidence pairs")
    try:
        mapping = cospec_strata(doc.s1, doc.s2, doc.incidence)
    except CospecError as exc:
        print(f"cospecialization failure: {exc}", file=sys.stderr)
        return 1
    lines = [f"{k} -> {mapping[k]}" for k in sorted(mapping)]
    mlines = [f"{k}={mapping[k]}" for k in sorted(mapping)]
    _emit(lines, mlines, args.machine)
    return 0


def cmd_schreier(args) -> int:
    from .gog import schreier_extension

    _, data = _load_document(args.input, expect=("extension-data",))
    ext = schreier_extension(data)
    E = ext.group
    ab = "abelian" if E.is_abelian() else "nonabelian"
    orders = ",".join(str(E.element_order(a)) for a in range(E.order))
    lines = [
        f"extension of order {E.order} ({ab})",
        f"element orders = {orders}",
        "exact sequence verified",
    ]
    mlines = [f"order={E.order} abelian={int(E.is_abelian())}", f"orders={orders}"]
    _emit(lines, mlines, args.machine)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="anabel",
        description="exact skeleton combinatorics: splitting bands, currents, "
        "covers, monoid criteria, extensions, cospecialization",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("split-radius", help="fiber exponents of the p^h cover")
    sp.add_argument("p", type=int)
    sp.add_argument("h", type=int)
    sp.add_argument("v", nargs="+", help="valuations, rationals like 5/2")
    sp.set_defaults(run=cmd_split_radius)

    sp = sub.add_parser("tate-intervals", help="split-locus intervals on the circle")
    sp.add_argument("p", type=int)
    sp.add_argument("v")
    sp.add_argument("n", type=int)
    sp.add_argument("l", type=int)
    sp.add_argument("m", type=int)
    sp.set_defaults(run=cmd_tate_intervals)

    sp = sub.add_parser("verify-rigidity", help="kernel of all cycle sums over covers")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-degree", type=int, default=2)
    sp.set_defaults(run=cmd_verify_rigidity)

    sp = sub.add_parser("pi1", help="fundamental group presentation")
    sp.add_argument("--input", required=True)
    sp.add_argument("--base", default=None)
    sp.set_defaults(run=cmd_pi1)

    sp = sub.add_parser("abelianize", help="abelianized fundamental group")
    sp.add_argument("--input", required=True)
    sp.add_argument("--base", default=None)
    sp.set_defaults(run=cmd_abelianize)

    sp = sub.add_parser("saturation-check", help="bounded divisibility criterion")
    sp.add_argument("--input", required=True)
    sp.add_argument("--primes", required=True, help="comma-separated primes")
    sp.add_argument("--bound", type=int, default=3)
    sp.set_defaults(run=cmd_saturation_check)

    sp = sub.add_parser("kummer-check", help="bounded multiplier criterion")
    sp.add_argument("--input", required=True)
    sp.add_argument("--primes", default="", help="comma-separated primes")
    sp.add_argument("--bound", type=int, default=60)
    sp.set_defaults(run=cmd_kummer_check)

    sp = sub.add_parser("faces", help="faces of an affine monoid")
    sp.add_argument("--input", required=True)
    sp.set_defaults(run=cmd_faces)

    sp = sub.add_parser("cover-enum", help="covers of a graph up to relabeling")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-degree", type=int, default=2,
                    help="the degree of the covers listed: exactly this degree, "
                    "not every degree up to it")
    sp.set_defaults(run=cmd_cover_enum)

    sp = sub.add_parser("current-group", help="group of currents on a graph")
    sp.add_argument("--input", required=True)
    sp.add_argument("--modulus", type=int, default=None)
    sp.set_defaults(run=cmd_current_group)

    sp = sub.add_parser("cospec", help="cospecialization of strata posets")
    sp.add_argument("--input", required=True)
    sp.set_defaults(run=cmd_cospec)

    sp = sub.add_parser("schreier", help="twisted extension from cocycle data")
    sp.add_argument("--input", required=True)
    sp.set_defaults(run=cmd_schreier)

    for _, action in sub.choices.items():
        action.add_argument("--machine", action="store_true",
                            help="machine-readable key=value output")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except (InputError, ValueError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
