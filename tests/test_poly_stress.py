"""Stress tests for the normal-form machinery: larger stabilizers,
randomized quotients and a seeded corpus of constructor outputs, all
deep-validated; a differential test of `validate`, which checks
functoriality along generators, against the all-pairs check; and one of
`find_isomorphism`, which prunes by face checks, against the search that
did not; and one of `quotient`, which closes its congruence in one pass
over the seeds, against the fixed-point sweep."""

import itertools
import os
import random
from pathlib import Path

import pytest

from anabel.poly import (
    Element,
    PolysimplicialSet,
    _generators_into,
    automorphisms,
    box_product,
    compose,
    disjoint_union,
    identity,
    index_dim,
    injections_into,
    lambda_hom,
    representable,
)
from anabel.cospec import cospec_polysimplicial
from anabel.documents import load
from anabel.poly_ops import (
    PolyMorphism,
    category_pi1,
    coequalizer,
    compose_poly,
    find_isomorphism,
    is_cospec_iso,
    quotient,
)

import anabel.poly as poly
import constructor_reference
import quotient_reference
from category_reference import all_objects_pi1

SEED = int(os.environ.get("ANABEL_SEED", "0"))


def _rotation_gluing():
    """Lambda(2) and the rotation of its vertices: stabilizer Z/3."""
    L2 = representable((2,))
    rot = [g for g in automorphisms((2,)) if g.mapping == ((1,), (2,), (0,))][0]
    top = [c for c in L2.cells if L2.cells[c] == (2,)][0]
    return L2, [(L2.cell_element(top), Element(top, rot))]


def _rotation_quotient():
    return quotient(*_rotation_gluing()).complex


def test_rotation_fold_of_2_simplex():
    Q = _rotation_quotient()
    counts = {k: len(v) for k, v in Q.nondegenerate_cells().items()}
    assert counts == {(0,): 1, (1,): 1, (2,): 1}
    top_q = [c for c in Q.cells if Q.cells[c] == (2,)][0]
    assert len(Q.stabs[top_q]) == 3
    assert not Q.is_interiorly_free()
    Q.validate(deep=True)
    assert Q.euler_characteristic() == 1


def _vertex_edge_gluings():
    """Twelve seeded gluings of two representables along vertices and,
    half the time, along a pair of edges."""
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
        yield C, seeds


def test_random_vertex_edge_quotients_stay_coherent():
    for C, seeds in _vertex_edge_gluings():
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


def _polygon_gluing(rng, n):
    """n intervals and the seeds that glue them in a cycle, each reversed
    with probability 1/2."""
    U = representable((1,))
    names = [""]
    for _ in range(n - 1):
        U = disjoint_union(representable((1,)), U)
        names = ["L."] + ["R." + p for p in names]
    ends = [("s1", "s0") if rng.random() < 0.5 else ("s0", "s1") for _ in range(n)]
    seeds = [(U.cell_element(names[i] + ends[i][1]),
              U.cell_element(names[(i + 1) % n] + ends[(i + 1) % n][0]))
             for i in range(n)]
    return U, seeds


def _random_polygon(rng, n):
    return quotient(*_polygon_gluing(rng, n)).complex


def _corpus_pool(rng):
    """Lambda of (0), (1), (2) and (1, 1), the circle, three random
    polygons, the rotation quotient (stabilizer Z/3) and the fold (Z/2)."""
    quotients = [_circle()] + [_random_polygon(rng, rng.randint(2, 4)) for _ in range(3)]
    return ([representable(n) for n in [(0,), (1,), (2,), (1, 1)]] + quotients
            + [_rotation_quotient(), _fold()])


def test_constructor_corpus_validates_deeply():
    # representable, disjoint_union and box_product build without
    # validate; every complex they return here is checked deeply and by
    # the all-pairs reference. The rotation quotient and the fold give
    # products with nontrivial stabilizers.
    rng = random.Random(SEED)
    pool = _corpus_pool(rng)
    built, quotients, (rotation, fold) = pool[:4], pool[4:8], pool[8:]
    for C in quotients:
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
        built.append(P)
    # every union, and every product of dimension <= 3, of six shapes:
    # the two above, the circle, Lambda(0), Lambda(1) and Lambda(2)
    shapes = [rotation, fold, quotients[0]] + built[:3]
    for A in shapes:
        for B in shapes:
            built.append(disjoint_union(A, B))
            if A.dim() + B.dim() <= 3:
                built.append(box_product(A, B))
    for P in built:
        P.validate(deep=True)
        _reference_validate(P)


def _tables(C):
    """Cells, stabilizers and face table of C, with morphisms as point tables."""
    return (C.cells,
            {c: sorted(g.key() for g in s) for c, s in C.stabs.items()},
            sorted((c, iota.key(), e.cell, e.epi.key()) for (c, iota), e in C.faces.items()))


def test_constructor_corpus_matches_pointwise_reference():
    # representable and box_product build their face morphisms from
    # triples, and read tables and plans memoized per index and per index
    # pair; the reference builds them point by point, through the checked
    # constructor. Each representable is compared cold and then warm, and
    # the products include factors with stabilizers Z/2 (the fold), Z/3
    # and Z/4 (the rotation quotients)
    poly._representable_tables.cache_clear()
    poly._box_face_plan.cache_clear()
    for n in [(0,), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]:
        want = _tables(constructor_reference.representable(n))
        for _ in range(2):
            assert _tables(representable(n)) == want
    rng = random.Random(SEED)
    pool = _corpus_pool(rng)
    pool += [disjoint_union(rng.choice(pool), rng.choice(pool)) for _ in range(3)]
    pool.append(_square_rotation_quotient())
    for A, B in itertools.product(pool, repeat=2):
        if A.dim() + B.dim() <= 3:
            P = box_product(A, B)
            assert _tables(P) == _tables(constructor_reference.box_product(A, B))


def test_representable_memo_survives_mutation():
    # representable copies the memoized tables into a fresh complex, so
    # changing one complex leaves the next one at that index intact
    want = _tables(constructor_reference.representable((2, 1)))
    L = representable((2, 1))
    key = next(iter(L.faces))
    L.act(L.cell_element(key[0]), key[1])
    L.faces[key] = L.cell_element(min(L.cells))
    del L.faces[next(k for k in L.faces if k != key)]
    L.cells["extra"] = (1,)
    del L.cells[max(L.cells)]
    M = representable((2, 1))
    assert _tables(M) == want
    assert M.faces is not L.faces and M.cells is not L.cells
    assert M._act_cache == {} and M._canon_cache == {}
    M.validate(deep=True)


def test_box_product_memo_reuses_plan():
    # the face plan is kept per index pair and shared by every product
    # whose cells have those indices: a second product over the same
    # pairs, or over other complexes with the same cell indices, plans
    # nothing new and joins no new face epi
    poly._box_face_plan.cache_clear()
    L1, L2, fold = representable((1,)), representable((2,)), _fold()
    first = box_product(L1, L2)
    cold = poly._box_face_plan.cache_info()
    assert cold.misses == len({(a, b) for a in L1.cells.values() for b in L2.cells.values()})
    joined = len(poly._FACE_EPIS)
    again, folded = box_product(L1, L2), box_product(fold, L2)
    warm = poly._box_face_plan.cache_info()
    assert warm.misses == cold.misses
    assert warm.hits == cold.hits + (len(L1.cells) + len(fold.cells)) * len(L2.cells)
    assert len(poly._FACE_EPIS) == joined
    assert _tables(again) == _tables(first) and again.faces is not first.faces
    for P, A in [(again, L1), (folded, fold)]:
        assert _tables(P) == _tables(constructor_reference.box_product(A, L2))


def test_quotient_corpus_matches_fixed_point_reference():
    # quotient closes the congruence in one pass over the seeds and reads
    # normal forms from one table; the reference sweeps every morphism to a
    # fixed point and searches each normal form
    rng = random.Random(SEED)
    L1 = representable((1,))
    circle = (L1, [(L1.cell_element("s0"), L1.cell_element("s1"))])
    # an edge collapsed onto a degenerate edge: the degenerate edges on its
    # ends are joined only along the degeneracy
    I2 = disjoint_union(L1, L1)
    collapse = (I2, [(I2.cell_element("L.s01"),
                      Element("R.s0", lambda_hom((1,), (0,))[0]))])
    gluings = [_polygon_gluing(rng, n) for n in range(3, 7)]
    gluings += [circle, _fold_gluing(), _rotation_gluing(), collapse]
    gluings += list(_vertex_edge_gluings())
    for C, seeds in gluings:
        got, want = quotient(C, seeds), quotient_reference.quotient(C, seeds)
        assert _tables(got.complex) == _tables(want.complex)
        assert ({c: (e.cell, e.epi.key()) for c, e in got.projection.cell_map.items()}
                == {c: (e.cell, e.epi.key()) for c, e in want.projection.cell_map.items()})


def test_only_trust_boundaries_validate(monkeypatch):
    # complexes the library builds from valid ones are valid by
    # construction; the public constructor, the colimits and the document
    # loader still validate
    L1, L2, fold = representable((1,)), representable((2,)), _fold()
    calls = []
    real = PolysimplicialSet.validate

    def counting(self, deep=False):
        calls.append(self)
        return real(self, deep)

    monkeypatch.setattr(PolysimplicialSet, "validate", counting)
    box_product(disjoint_union(representable((0,)), L2), box_product(fold, L1))
    assert calls == []
    torus = (Path(__file__).parent / "data" / "torus.poly").read_text()
    for build in [
        lambda: PolysimplicialSet(L1.cells, L1.stabs, L1.faces),
        lambda: quotient(L1, [(L1.cell_element("s0"), L1.cell_element("s1"))]),
        _circle,  # a coequalizer
        lambda: load(torus),
    ]:
        calls.clear()
        build()
        assert calls


def _reference_validate(C):
    """The all-pairs check: functoriality for every pair of composable
    injections."""
    for c, n in C.cells.items():
        stab = C.stabs[c]
        auts = set(automorphisms(n))
        if not stab <= auts:
            raise ValueError(f"stabilizer of {c} is not a set of automorphisms")
        for a in stab:
            for b in stab:
                if compose(a, b) not in stab:
                    raise ValueError(f"stabilizer of {c} is not a subgroup")
        if identity(n) not in stab:
            raise ValueError(f"stabilizer of {c} misses the identity")
        for iota in injections_into(n):
            if iota.is_iso():
                continue
            entry = C.faces.get((c, iota))
            if entry is None:
                raise ValueError(f"missing face of {c} along {iota!r}")
            if not entry.epi.is_surjective():
                raise ValueError(f"face entry of {c} at {iota!r} is not normal")
            if index_dim(entry.epi.source) > index_dim(n):
                raise ValueError("face raises dimension")
    for c, n in C.cells.items():
        base = C.cell_element(c)
        for iota in injections_into(n):
            mid = C.act(base, iota)
            for theta in C.stabs[c]:
                if C.act(base, compose(theta, iota)) != mid:
                    raise ValueError(f"face table of {c} is not stabilizer-coherent")
            for gamma in injections_into(iota.source):
                if C.act(mid, gamma) != C.act(base, compose(iota, gamma)):
                    raise ValueError(f"functoriality fails at cell {c}")


def _verdicts(cells, stabs, faces, deep):
    """Acceptance of the tables by validate, the reference and, if deep,
    validate(deep=True), each on a fresh object so no act cache is shared."""
    checks = [PolysimplicialSet.validate, _reference_validate]
    if deep:
        checks.append(lambda C: C.validate(deep=True))
    out = []
    for check in checks:
        C = PolysimplicialSet(cells, stabs, faces, validate=False)
        try:
            check(C)
            out.append(True)
        except (ValueError, KeyError):
            out.append(False)
    return out


def _fold_gluing():
    L1 = representable((1,))
    flip = next(g for g in automorphisms((1,)) if g != identity((1,)))
    return L1, [(L1.cell_element("s0"), L1.cell_element("s1")),
                (L1.cell_element("s01"), Element("s01", flip))]


def _fold():
    return quotient(*_fold_gluing()).complex


def _square_rotation_quotient():
    """Lambda(1, 1) and the quarter turn of its square: stabilizer Z/4."""
    L = representable((1, 1))
    turn = next(g for g in automorphisms((1, 1))
                if g.mapping == ((0, 1), (1, 1), (0, 0), (1, 0)))
    top = next(c for c in L.cells if L.cells[c] == (1, 1))
    return quotient(L, [(L.cell_element(top), Element(top, turn))]).complex


def _corruptions(rng, C):
    """Copies of C's tables, each with one seeded fault: a face entry
    rewired to another normal element at its level, the entry along
    iota after theta set to the one along iota, a stabilizer element added and
    one dropped."""
    faces = sorted(C.faces, key=lambda k: (k[0], k[1].key()))
    if faces:
        key = rng.choice(faces)
        current = C.canonical(C.faces[key])
        others = [e for e in C.elements_at(key[1].source) if e != current]
        if others:
            yield "rewired face", C.stabs, {**C.faces, key: rng.choice(others)}
        twistable = [k for k in faces if k[1].source != (0,)]
        if twistable:
            c, iota = rng.choice(twistable)
            auts = [g for g in automorphisms(iota.source)
                    if g != identity(iota.source)]
            twisted = (c, compose(iota, rng.choice(auts)))
            yield "twisted face", C.stabs, {**C.faces, twisted: C.faces[(c, iota)]}
    cells = sorted(c for c in C.cells if C.cells[c] != (0,))
    if cells:
        c = rng.choice(cells)
        extra = sorted(set(automorphisms(C.cells[c])) - C.stabs[c])
        # prefer an element that keeps the stabilizer a group, so that the
        # coherence checks decide
        closed = [a for a in extra
                  if all(compose(a, b) in C.stabs[c] | {a} for b in C.stabs[c] | {a})]
        if extra:
            added = rng.choice(closed or extra)
            yield "stabilizer added", {**C.stabs, c: C.stabs[c] | {added}}, C.faces
    stabbed = sorted(c for c in C.cells if len(C.stabs[c]) > 1)
    if stabbed:
        c = rng.choice(stabbed)
        dropped = rng.choice(sorted(C.stabs[c] - {identity(C.cells[c])}))
        yield "stabilizer dropped", {**C.stabs, c: C.stabs[c] - {dropped}}, C.faces


def test_generator_validation_matches_all_pairs_reference():
    rng = random.Random(SEED)
    pool = [representable(n) for n in
            [(0,), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]]
    pool += [_circle(), _fold()] + [_random_polygon(rng, n) for n in (3, 4, 5)]
    small = pool[1:4] + pool[7:]  # dimension <= 2
    for _ in range(6):
        A, B = rng.choice(small), rng.choice(small)
        if rng.random() < 0.6 and A.dim() + B.dim() <= 3:
            pool.append(box_product(A, B))
        else:
            pool.append(disjoint_union(A, B))
    disagreements = []
    rejected = 0
    for i, C in enumerate(pool):
        deep = C.dim() <= 2
        assert _verdicts(C.cells, C.stabs, C.faces, deep) == [True] * (2 + deep)
        # eight rounds of corruptions: in a copy of validate without the
        # automorphism generators, or without the cofaces, fewer rounds
        # left some seeds with no disagreement
        for what, stabs, faces in [f for _ in range(8)
                                   for f in _corruptions(rng, C)]:
            verdicts = _verdicts(C.cells, stabs, faces, deep)
            rejected += not verdicts[1]
            if len(set(verdicts)) > 1:
                disagreements.append((i, what, verdicts))
    assert not disagreements
    assert rejected >= len(pool)


def _homs_into_symmetric(pres, n):
    """The number of homomorphisms from the presented group into S_n: the
    assignments of permutations to generators under which every relator is
    the identity."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    inv = [index[tuple(sorted(range(n), key=p.__getitem__))] for p in perms]
    one = index[tuple(range(n))]
    count = 0
    for images in itertools.product(range(len(perms)), repeat=len(pres.generators)):
        ok = True
        for rel in pres.relators:
            x = one
            for t in rel:
                x = mult[x][images[t - 1] if t > 0 else inv[images[-t - 1]]]
            if x != one:
                ok = False
                break
        count += ok
    return count


def test_category_pi1_matches_all_objects_reference():
    # the skeleton (one object per cell) against all nondegenerate
    # polysimplexes: equivalent categories, so isomorphic groups; the
    # abelianization and the numbers of homomorphisms into S3 and S4 are
    # isomorphism invariants
    rng = random.Random(SEED)
    pool = [representable(n) for n in [(0,), (1,), (2,), (1, 1)]]
    pool += [_circle()] + [_random_polygon(rng, rng.randint(2, 4)) for _ in range(3)]
    corpus = pool + [_fold(), _rotation_quotient()]
    for _ in range(14):
        A, B = rng.choice(pool), rng.choice(pool)
        # the all-objects reference is too slow on boxes of dimension 3
        if rng.random() < 0.7 and A.dim() + B.dim() <= 2:
            corpus.append(box_product(A, B))
        else:
            corpus.append(disjoint_union(A, B))
    connected = 0
    for C in corpus:
        base = min(C.cells)
        try:
            want = all_objects_pi1(C, base)
        except ValueError as exc:
            assert str(exc) == "complex is disconnected"
            with pytest.raises(ValueError, match="complex is disconnected"):
                category_pi1(C, base)
            continue
        connected += 1
        got = category_pi1(C, base)
        assert got.abelianization() == want.abelianization()
        got, want = got.simplify(), want.simplify()
        assert _homs_into_symmetric(got, 3) == _homs_into_symmetric(want, 3)
        if max(len(got.generators), len(want.generators)) <= 3:
            assert _homs_into_symmetric(got, 4) == _homs_into_symmetric(want, 4)
    assert connected >= 10


def _reference_find_isomorphism(A, B):
    """Reference search: it compares a new image only with faces of the
    cell that are already mapped, so it prunes almost nothing."""
    if sorted(A.cells.values()) != sorted(B.cells.values()):
        return None
    a_cells = sorted(A.cells, key=lambda c: (-index_dim(A.cells[c]), c))
    b_by_index = {}
    for c, n in B.cells.items():
        b_by_index.setdefault(n, []).append(c)
    for lst in b_by_index.values():
        lst.sort()

    def candidates(c):
        n = A.cells[c]
        for y in b_by_index[n]:
            for theta in automorphisms(n):
                yield Element(y, theta)

    def backtrack(i, cmap, used):
        if i == len(a_cells):
            try:
                m = PolyMorphism.from_cells(A, B, cmap)
            except (ValueError, KeyError):
                return None
            rep = is_cospec_iso(m)
            if rep.is_iso:
                return m
            # criterion may refuse for non-interiorly-free targets; try the
            # direct two-sided check instead
            return _reference_direct_iso_check(m)
        c = a_cells[i]
        n = A.cells[c]
        for img in candidates(c):
            if img.cell in used:
                continue
            cmap[c] = B.canonical(img)
            ok = True
            for iota in injections_into(n):
                if iota.is_iso():
                    continue
                src_face = A.faces[(c, iota)]
                if src_face.cell in cmap or src_face.cell == c:
                    want = B.act(cmap[c], iota)
                    have_cell = cmap.get(src_face.cell)
                    if have_cell is None and src_face.cell == c:
                        have_cell = cmap[c]
                    got = B.act(
                        have_cell, src_face.epi
                    ) if have_cell is not None else None
                    if got is not None and got != want:
                        ok = False
                        break
            if ok:
                out = backtrack(i + 1, cmap, used | {img.cell})
                if out is not None:
                    return out
            del cmap[c]
        return None

    return backtrack(0, {}, set())


def _reference_direct_iso_check(m):
    smap = m.strata_map()
    if sorted(smap.values()) != sorted(m.target.cells):
        return None
    if not m.sends_nondegenerate_to_nondegenerate():
        return None
    inverse_cells = {}
    for x, y in smap.items():
        inverse_cells[y] = Element(x, m.cell_map[x].epi.inverse())
    try:
        inv = PolyMorphism.from_cells(m.target, m.source, inverse_cells)
    except ValueError:
        return None
    for c in m.target.cells:
        got = compose_poly(m, inv).cell_map[c]
        if m.target.canonical(got) != m.target.canonical(
            m.target.cell_element(c)
        ):
            return None
    for c in m.source.cells:
        got = compose_poly(inv, m).cell_map[c]
        if m.source.canonical(got) != m.source.canonical(
            m.source.cell_element(c)
        ):
            return None
    return m


def _twisted_copy(rng, C):
    """An isomorphic copy of C with renamed cells, where the new cell of c
    is c read through a random automorphism psi_c: face entries and
    stabilizers are twisted to match."""
    perm = rng.sample(range(len(C.cells)), len(C.cells))
    name = {c: f"t{k}" for c, k in zip(sorted(C.cells), perm)}
    psi = {c: rng.choice(automorphisms(n)) for c, n in C.cells.items()}
    stabs = {name[c]: frozenset(compose(psi[c].inverse(), compose(s, psi[c]))
                                for s in C.stabs[c]) for c in C.cells}
    faces = {}
    for c, n in C.cells.items():
        for iota in injections_into(n):
            if not iota.is_iso():
                e = C.act(Element(c, psi[c]), iota)
                faces[(name[c], iota)] = Element(
                    name[e.cell], compose(psi[e.cell].inverse(), e.epi))
    return PolysimplicialSet({name[c]: n for c, n in C.cells.items()}, stabs, faces)


def _cell_map(m):
    if m is None:
        return None
    return sorted((c, e.cell, e.epi.key()) for c, e in m.cell_map.items())


def test_find_isomorphism_matches_reference_search():
    rng = random.Random(SEED)
    point = representable((0,))
    shapes = [representable(n) for n in [(0,), (1,), (2,), (1, 1)]]
    shapes += [_circle()] + [_random_polygon(rng, n) for n in (3, 4, 5)]
    pairs = [(X, X) for X in shapes]
    pairs += [(box_product(X, point), X) for X in shapes]
    pairs += [(box_product(point, X), X) for X in shapes[:4]]
    for X in shapes:
        T = _twisted_copy(rng, X)
        pairs += [(X, T), (T, X)]
    # negative pairs with equal multisets of cell indices
    circle, P3, P4 = _circle(), _random_polygon(rng, 3), _random_polygon(rng, 4)
    negatives = [(disjoint_union(circle, circle), _random_polygon(rng, 2)),
                 (circle, _fold()), (disjoint_union(P3, circle), P4)]
    for (A, B), iso in [(p, True) for p in pairs] + [(p, False) for p in negatives]:
        assert sorted(A.cells.values()) == sorted(B.cells.values())
        got = _cell_map(find_isomorphism(A, B))
        assert got == _cell_map(_reference_find_isomorphism(A, B))
        assert (got is not None) == iso


def test_find_isomorphism_of_width_two_products():
    # without pruning by face checks, a search tries every combination of
    # images here and runs for minutes
    L1, L2 = representable((1,)), representable((2,))
    for A, B in [(box_product(L2, L1), representable((2, 1))),
                 (box_product(box_product(L1, L1), L1), representable((1, 1, 1)))]:
        m = find_isomorphism(A, B)
        assert m is not None and is_cospec_iso(m).is_iso


def test_cospec_polysimplicial_on_targets_with_stabilizers():
    # realizations on targets with nontrivial stabilizers, pinned
    circle, fold = _circle(), _fold()
    m = cospec_polysimplicial(circle, fold, {"q0": "q0", "q1": "q1"})
    assert _cell_map(m) == [("q0", "q0", ((0,), (0,), ((0,),))),
                            ("q1", "q1", ((1,), (1,), ((0,), (1,))))]
    L2 = representable((2,))
    rot = next(g for g in automorphisms((2,)) if g.mapping == ((1,), (2,), (0,)))
    Q = quotient(L2, [(L2.cell_element("s012"), Element("s012", rot))]).complex
    class_map = {c: f"q{index_dim(n)}" for c, n in L2.cells.items()}
    m = cospec_polysimplicial(L2, Q, class_map)
    edge, rev = ((1,), (1,), ((0,), (1,))), ((1,), (1,), ((1,), (0,)))
    assert _cell_map(m) == [
        ("s0", "q0", ((0,), (0,), ((0,),))), ("s01", "q1", edge),
        ("s012", "q2", ((2,), (2,), ((0,), (1,), (2,)))), ("s02", "q1", rev),
        ("s1", "q0", ((0,), (0,), ((0,),))), ("s12", "q1", edge),
        ("s2", "q0", ((0,), (0,), ((0,),)))]
    # faces agree, but the edge of the fold is flip-invariant and no edge
    # of the circle is
    with pytest.raises(ValueError, match="no morphism realizes"):
        cospec_polysimplicial(fold, circle, {"q0": "q0", "q1": "q1"})


def _natural_on(m, injections):
    """Stabilizer invariance, and naturality along the non-invertible
    injections into each source cell that injections(level) gives."""
    for c, n in m.source.cells.items():
        img = m.target.canonical(m.cell_map[c])
        if any(m.target.act(img, theta) != img for theta in m.source.stabs[c]):
            return False
        for iota in injections(n):
            if not iota.is_iso() and (
                m.apply(m.source.faces[(c, iota)]) != m.target.act(img, iota)
            ):
                return False
    return True


def test_morphism_naturality_is_not_decided_by_generators():
    # two copies of Lambda(2) glued along their edge 01; the lower cells of
    # Lambda(2) go to the first triangle and the top cell to the second, so
    # the faces agree along edge 01 only
    L = representable((2,))
    D = disjoint_union(L, L)
    res = quotient(D, [(D.cell_element("L.s01"), D.cell_element("R.s01"))])
    proj = res.projection.cell_map
    cell_map = {c: proj["R.s012" if c == "s012" else f"L.{c}"] for c in L.cells}
    m = PolyMorphism(L, res.complex, cell_map)
    # the only non-invertible generator into (2,) is edge 01. Checked at each
    # cell c, it covers c along edge 01; the other edges are g.01 for
    # automorphisms g, and naturality along them is a statement about the
    # element c.g, which such a check never visits. So it accepts this map.
    assert [g.mapping for g in _generators_into((2,)) if not g.is_iso()] == [((0,), (1,))]
    assert _natural_on(m, _generators_into)

    def codimension_one(n):
        return [g for g in injections_into(n) if index_dim(g.source) == index_dim(n) - 1]

    assert not _natural_on(m, codimension_one)
    with pytest.raises(ValueError, match="naturality fails at cell s012"):
        PolyMorphism.from_cells(L, res.complex, cell_map)
