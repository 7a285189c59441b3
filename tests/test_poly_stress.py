"""Stress tests for the normal-form machinery: larger stabilizers,
randomized quotients and a seeded corpus of constructor outputs, all
deep-validated."""

import os
import random

from anabel.poly import (
    Element,
    automorphisms,
    box_product,
    disjoint_union,
    representable,
)
from anabel.poly_ops import PolyMorphism, coequalizer, quotient

SEED = int(os.environ.get("ANABEL_SEED", "0"))


def test_rotation_fold_of_2_simplex():
    L2 = representable((2,))
    rot = [g for g in automorphisms((2,)) if g.mapping == ((1,), (2,), (0,))][0]
    top = [c for c in L2.cells if L2.cells[c] == (2,)][0]
    Q = quotient(L2, [(L2.cell_element(top), Element(top, rot))]).complex
    counts = {k: len(v) for k, v in Q.nondegenerate_cells().items()}
    assert counts == {(0,): 1, (1,): 1, (2,): 1}
    top_q = [c for c in Q.cells if Q.cells[c] == (2,)][0]
    assert len(Q.stabs[top_q]) == 3
    assert not Q.is_interiorly_free()
    Q.validate(deep=True)
    assert Q.euler_characteristic() == 1


def test_random_vertex_edge_quotients_stay_coherent():
    rng = random.Random(13579)
    shapes = [(1,), (2,), (1, 1)]
    for trial in range(12):
        A = representable(rng.choice(shapes))
        B = representable(rng.choice(shapes))
        C = disjoint_union(A, B)
        vertices = [c for c in C.cells if C.cells[c] == (0,)]
        seeds = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(vertices), rng.choice(vertices)
            seeds.append((C.cell_element(a), C.cell_element(b)))
        edges = [c for c in C.cells if C.cells[c] == (1,)]
        if len(edges) >= 2 and rng.random() < 0.5:
            e1, e2 = rng.sample(edges, 2)
            theta = rng.choice(list(automorphisms((1,))))
            seeds.append((C.cell_element(e1), Element(e2, theta)))
        res = quotient(C, seeds)
        Q = res.complex
        Q.validate(deep=True)
        # projection must be a genuine morphism onto a complex with no more
        # cells than the source
        assert len(Q.cells) <= len(C.cells)
        for c in C.cells:
            img = res.projection.cell_map[c]
            assert img.level == C.cells[c]


def test_random_box_products_validate_deeply():
    rng = random.Random(24680)
    pool = [representable((1,)), representable((2,)), representable((0,))]
    for _ in range(6):
        A, B = rng.choice(pool), rng.choice(pool)
        P = box_product(A, B)
        P.validate(deep=True)
        assert (
            P.euler_characteristic()
            == A.euler_characteristic() * B.euler_characteristic()
        )


def _circle():
    L1, P = representable((1,)), representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    return coequalizer(f, g).complex


def _random_polygon(rng, n):
    """n intervals glued in a cycle, each reversed with probability 1/2."""
    U = representable((1,))
    names = [""]
    for _ in range(n - 1):
        U = disjoint_union(representable((1,)), U)
        names = ["L."] + ["R." + p for p in names]
    ends = [("s1", "s0") if rng.random() < 0.5 else ("s0", "s1") for _ in range(n)]
    seeds = [(U.cell_element(names[i] + ends[i][1]),
              U.cell_element(names[(i + 1) % n] + ends[(i + 1) % n][0]))
             for i in range(n)]
    return quotient(U, seeds).complex


def test_constructor_corpus_validates_deeply():
    # every constructor output is deep-validated, on top of the shallow
    # validation each construction runs
    rng = random.Random(SEED)
    pool = [representable(n) for n in [(0,), (1,), (2,), (1, 1)]]
    pool += [_circle()] + [_random_polygon(rng, rng.randint(2, 4)) for _ in range(3)]
    for C in pool[4:]:
        C.validate(deep=True)
        assert C.euler_characteristic() == 0
    for _ in range(16):
        A, B = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.7 and A.dim() + B.dim() <= 3:
            P = box_product(A, B)
            assert len(P.cells) == len(A.cells) * len(B.cells)
            assert (P.euler_characteristic()
                    == A.euler_characteristic() * B.euler_characteristic())
        else:
            P = disjoint_union(A, B)
            assert len(P.cells) == len(A.cells) + len(B.cells)
            assert (P.euler_characteristic()
                    == A.euler_characteristic() + B.euler_characteristic())
        P.validate(deep=True)
