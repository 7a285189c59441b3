"""The `complexes` workload: one library session over polysimplicial sets.

Construction (every build runs the full `validate`) is mixed with queries
that go through `act`/`canonical` (quotients, pi1, isomorphism search).
Base shapes are built first; the remaining jobs run in one fixed shuffled
order, so jobs at indices the module memos already hold are mixed with
jobs at new ones. The order does not follow the seed: which job pays for
filling a memo moves the median job time. The seed picks the polygon
gluing orientations, which changes cell names but not the work. The pi1 base cell is the first
cell, as in the CLI: the choice moves the cost of a pi1 job by up to 40%,
which would make the figures depend on the seed.
"""

from __future__ import annotations

import random
from typing import Dict, List

from anabel.cospec import strata_poset
from anabel.poly import Element, automorphisms, box_product, disjoint_union, identity, representable
from anabel.poly_ops import PolyMorphism, category_pi1, coequalizer, find_isomorphism, is_cospec_iso, quotient

from oracles import (Job, euler_of_indices, expect_equal, index_dim, representable_cell_count,
                     sub_box_order)

# (label, index) of the representables built in the construction phase
REPRESENTABLES = [("pt", (0,)), ("I", (1,)), ("tri", (2,)), ("sq", (1, 1)), ("I3", (3,)),
                  ("tri_I", (2, 1)), ("cube", (1, 1, 1)), ("I3_I", (3, 1))]
POLYGONS = (3, 4, 5, 6)
# first Betti number of each base shape, for the Kunneth oracle
BETTI = {"pt": 0, "I": 0, "tri": 0, "sq": 0, "I3": 0, "tri_I": 0, "cube": 0, "I3_I": 0,
         "S": 1, "P3": 1, "P4": 1, "P5": 1, "P6": 1}
BOX_PAIRS = [("pt", "tri"), ("I", "I"), ("I", "tri"), ("I", "sq"), ("tri", "S"), ("sq", "S"),
             ("S", "S"), ("S", "P3"), ("I", "P4"), ("P3", "P3"), ("tri", "tri"), ("sq", "P3"),
             ("S", "I"), ("P5", "pt"), ("S", "P5"), ("I", "I3"), ("tri", "P4")]
PI1_OF = [("I",), ("tri",), ("sq",), ("S",), ("P3",), ("P4",), ("P5",), ("P6",),
          ("S", "S"), ("S", "I"), ("I", "S"), ("P3", "pt")]
ISO_PAIRS = [(("I", "I"), "sq"), (("I", "pt"), "I"), (("pt", "tri"), "tri"), (("S", "pt"), "S"),
             (("I", "S"), ("S", "I")), (("P3", "pt"), "P3"), (("sq", "pt"), "sq"),
             (("P4", "pt"), "P4")]
STRATA_OF = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (3, 1)]
# jobs that glue a pentagon and take its pi1: the same work up to relabeling,
# so the median job time lands among them instead of in a sparse stretch
# between unrelated jobs, where it would jump from run to run
PENTAGONS = 24
REBUILD = [(1, 1), (2, 1), (1, 1, 1), (3,)]
SUBPROCESS = False


def _circle():
    L1, P = representable((1,)), representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    return coequalizer(f, g).complex


def _polygon(n: int, flips: List[bool]):
    """n intervals glued head to tail; flips reverse single intervals."""
    L1 = representable((1,))
    U, prefixes = L1, [""]
    for _ in range(n - 1):
        U = disjoint_union(L1, U)
        prefixes = ["L."] + ["R." + p for p in prefixes]
    ends = [("s1", "s0") if flip else ("s0", "s1") for flip in flips]
    seeds = [(U.cell_element(prefixes[i] + ends[i][1]),
              U.cell_element(prefixes[(i + 1) % n] + ends[(i + 1) % n][0]))
             for i in range(n)]
    return quotient(U, seeds).complex


def _fold():
    """The interval with both ends and both orientations identified."""
    L1 = representable((1,))
    flip = next(g for g in automorphisms((1,)) if g != identity((1,)))
    return quotient(L1, [(L1.cell_element("s0"), L1.cell_element("s1")),
                         (L1.cell_element("s01"), Element("s01", flip))]).complex


def _indices(C):
    return sorted(C.cells.values())


def _cells_and_chi(C):
    idx = _indices(C)
    return len(idx), euler_of_indices(idx)


def _plant_tuple(obs):
    return (obs[0] + 1,) + tuple(obs[1:])


def make_jobs(seed: int, traced: bool = False) -> List[Job]:
    rng = random.Random(seed)
    shapes: Dict[str, object] = {}
    jobs: List[Job] = []

    def shape(key):
        if isinstance(key, tuple):
            return box_product(shapes[key[0]], shapes[key[1]])
        return shapes[key]

    def shape_betti(key):
        if isinstance(key, tuple):
            return sum(BETTI[k] for k in key)
        return BETTI[key]

    # -- construction phase, fixed order ------------------------------------
    for label, n in REPRESENTABLES:
        def run(label=label, n=n):
            shapes[label] = C = representable(n)
            return _cells_and_chi(C)
        jobs.append(Job(f"representable{n}", run,
                        lambda obs, n=n: expect_equal(f"cells, chi of Lambda{n}", obs,
                                                      (representable_cell_count(n), 1)),
                        _plant_tuple))

    def run_circle():
        shapes["S"] = C = _circle()
        return [index_dim(n) for n in _indices(C)]
    jobs.append(Job("circle", run_circle,
                    lambda obs: expect_equal("circle cell dims", obs, [0, 1]),
                    lambda obs: obs + [1]))
    for n in POLYGONS:
        flips = [rng.random() < 0.5 for _ in range(n)]

        def run(n=n, flips=flips):
            shapes[f"P{n}"] = C = _polygon(n, flips)
            return [index_dim(k) for k in _indices(C)]
        jobs.append(Job(f"polygon{n}", run,
                        lambda obs, n=n: expect_equal(f"polygon{n} cell dims", obs,
                                                      [0] * n + [1] * n),
                        lambda obs: obs[1:]))

    # -- mix of products, pi1, isomorphisms, strata and rebuilds ------------
    mixed: List[Job] = []
    for a, b in BOX_PAIRS:
        def run(a=a, b=b):
            return _cells_and_chi(box_product(shapes[a], shapes[b]))

        def check(obs, a=a, b=b):
            na, ca = _cells_and_chi(shapes[a])
            nb, cb = _cells_and_chi(shapes[b])
            return expect_equal(f"cells, chi of {a} x {b}", obs, (na * nb, ca * cb))
        mixed.append(Job(f"box {a}x{b}", run, check, _plant_tuple))

    for key in PI1_OF:
        key = key if len(key) == 2 else key[0]

        def run(key=key):
            C = shape(key)
            ab = category_pi1(C, min(C.cells)).abelianization()
            return (ab.free_rank, ab.torsion)
        mixed.append(Job(f"pi1 {key}", run,
                         lambda obs, key=key: expect_equal(f"abelianized pi1 of {key}", obs,
                                                           (shape_betti(key), ())),
                         _plant_tuple))

    for left, right in ISO_PAIRS:
        def run(left=left, right=right):
            m = find_isomorphism(shape(left), shape(right))
            if m is None:
                return (False, False)
            rep = is_cospec_iso(m)
            return (True, rep.is_iso and rep.inverse is not None)
        mixed.append(Job(f"iso {left}~{right}", run,
                         lambda obs, left=left, right=right: expect_equal(
                             f"isomorphism {left} ~ {right} with verified inverse",
                             obs, (True, True)),
                         lambda obs: (obs[0], not obs[1])))

    def run_fold():
        circle, fold = shapes["S"], _fold()
        cmap = {c: fold.cell_element(next(d for d in sorted(fold.cells)
                                          if fold.cells[d] == n))
                for c, n in circle.cells.items()}
        rep = is_cospec_iso(PolyMorphism.from_cells(circle, fold, cmap))
        return (rep.is_iso, "interiorly free" in rep.reason)
    mixed.append(Job("fold rejected", run_fold,
                     lambda obs: expect_equal("circle -> fold rejected by interior freeness",
                                              obs, (False, True)),
                     lambda obs: (True, obs[1])))

    for n in STRATA_OF:
        def run(n=n):
            P = strata_poset(representable(n))
            return (set(P.elements), set(P.le))

        def check(obs, n=n):
            cells, order = sub_box_order(n)
            return expect_equal(f"strata of Lambda{n}", obs, (cells, order))
        mixed.append(Job(f"strata{n}", run, check,
                         lambda obs: (obs[0], obs[1] - {min(obs[1])})))

    for i in range(PENTAGONS):
        flips = [rng.random() < 0.5 for _ in range(5)]

        def run(flips=flips):
            C = _polygon(5, flips)
            ab = category_pi1(C, min(C.cells)).abelianization()
            return ([index_dim(k) for k in _indices(C)], ab.free_rank, ab.torsion)
        mixed.append(Job(f"pentagon {i} pi1", run,
                         lambda obs: expect_equal("pentagon cells and abelianized pi1", obs,
                                                  ([0] * 5 + [1] * 5, 1, ())),
                         lambda obs: (obs[0], obs[1] + 1, obs[2])))

    for n in REBUILD:
        def run(n=n):
            return _cells_and_chi(representable(n))
        mixed.append(Job(f"rebuild{n}", run,
                         lambda obs, n=n: expect_equal(f"cells, chi of Lambda{n}", obs,
                                                       (representable_cell_count(n), 1)),
                         _plant_tuple))

    random.Random(0).shuffle(mixed)
    return jobs + mixed
