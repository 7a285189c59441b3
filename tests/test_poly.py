import copy
import itertools
import pickle

import pytest

from anabel.intlin import FgAbGroup
from anabel.poly import (
    Element,
    LambdaMorphism,
    PolysimplicialSet,
    automorphisms,
    box_product,
    canonical_index,
    check_index,
    compose,
    epi_mono_factor,
    from_triple,
    identity,
    index_dim,
    injections_into,
    lambda_hom,
    points,
    representable,
    structure_of,
)
from anabel.poly_ops import (
    CellFunctor,
    PolyMorphism,
    _category_presentation,
    _nondeg_objects,
    box_extend,
    category_pi1,
    coequalizer,
    compose_poly,
    find_isomorphism,
    is_cospec_iso,
    quotient,
)


def test_index_validation():
    assert check_index((0,)) == (0,)
    assert check_index((2, 1)) == (2, 1)
    with pytest.raises(ValueError):
        check_index((0, 1))
    with pytest.raises(ValueError):
        check_index(())
    assert canonical_index((1, 3, 2)) == (3, 2, 1)
    assert index_dim((2, 1)) == 3
    assert index_dim((0,)) == 0


def test_lambda_hom_counts():
    assert len(lambda_hom((1,), (1,))) == 4
    assert len(lambda_hom((0,), (1,))) == 2
    assert len(lambda_hom((0,), (0,))) == 1
    # enumeration and dedup happen on induced functions
    maps = {g.mapping for g in lambda_hom((1,), (1,))}
    assert len(maps) == 4


def test_lambda_composition_closure():
    homs = {}
    idx = [(0,), (1,), (1, 1)]
    for a in idx:
        for b in idx:
            homs[(a, b)] = set(lambda_hom(a, b))
    for a in idx:
        for b in idx:
            for c in idx:
                for g1 in homs[(a, b)]:
                    for g2 in homs[(b, c)]:
                        assert compose(g2, g1) in homs[(a, c)]


def test_compose_identity_flip_constants():
    ident = identity((1,))
    flip = next(g for g in automorphisms((1,)) if g != ident)
    assert compose(ident, flip) == flip
    assert compose(flip, flip) == ident
    const0 = next(
        g for g in lambda_hom((1,), (1,))
        if not g.is_injective() and g.mapping[0] == (0,)
    )
    assert compose(const0, flip) == const0


def test_rejects_diagonal_function():
    # (pt) -> (pt, pt) reads one source coordinate twice: not in the category
    with pytest.raises(ValueError):
        LambdaMorphism((1,), (1, 1), [(0, 0), (1, 1)])


def test_rejects_diagonal_function_after_memo_is_filled():
    # structure_of and epi_mono_factor memoize successes only: valid
    # morphisms [1] -> [1, 1] in the memo must not let a non-morphism with
    # the same source and target through, neither once nor twice
    for g in lambda_hom((1,), (1, 1)):
        rebuilt = LambdaMorphism(g.source, g.target, g.mapping)
        assert structure_of(rebuilt) == structure_of(g)
        epi_mono_factor(rebuilt)
    for _ in range(2):
        with pytest.raises(ValueError):
            LambdaMorphism((1,), (1, 1), [(0, 0), (1, 1)])


def test_construction_still_validates():
    L1 = representable((1,))
    flip = next(g for g in automorphisms((1,)) if g != identity((1,)))
    # a face table with an entry removed
    faces = dict(L1.faces)
    del faces[sorted(faces)[0]]
    with pytest.raises(ValueError, match="missing face"):
        PolysimplicialSet(L1.cells, L1.stabs, faces)
    # a stabilizer that is not closed under composition: an order-4
    # rotation of the square without its powers
    L11 = representable((1, 1))
    top = next(c for c, n in L11.cells.items() if n == (1, 1))
    rot = next(
        g for g in automorphisms((1, 1))
        if compose(g, g) != identity((1, 1))
    )
    stabs = dict(L11.stabs)
    stabs[top] = frozenset([identity((1, 1)), rot])
    with pytest.raises(ValueError, match="not a subgroup"):
        PolysimplicialSet(L11.cells, stabs, L11.faces)
    # the flip stabilizes the edge, but its two end faces stay distinct
    stabs = dict(L1.stabs)
    stabs["s01"] = frozenset([identity((1,)), flip])
    with pytest.raises(ValueError, match="not stabilizer-coherent"):
        PolysimplicialSet(L1.cells, stabs, L1.faces)


def test_epi_mono_factorization():
    for m, n in [((1,), (1,)), ((1, 1), (1,)), ((2, 1), (2, 1)), ((1,), (2, 1))]:
        for g in lambda_hom(m, n):
            epi, mono = epi_mono_factor(g)
            assert epi.is_surjective()
            assert mono.is_injective()
            assert compose(mono, epi) == g
            assert canonical_index(epi.target) == epi.target


def test_equal_functions_are_one_object():
    ident = identity((1,))
    flip = next(g for g in automorphisms((1,)) if g is not ident)
    assert LambdaMorphism((1,), (1,), [(0,), (1,)]) is ident
    assert LambdaMorphism([1], [1], [[1], [0]]) is flip
    assert from_triple((1,), (1,), {0: (0, (1, 0))}, {}) is flip
    assert compose(flip, flip) is ident
    assert flip.inverse() is flip
    assert copy.deepcopy(flip) is flip
    assert pickle.loads(pickle.dumps(flip)) is flip
    for g in automorphisms((1, 1)):
        assert compose(g, g.inverse()) is identity((1, 1))
        assert g.inverse().inverse() is g
    homs = {g for m, n in [((0,), (1,)), ((1,), (2,)), ((1, 1), (2,)), ((2,), (1, 1))]
            for g in lambda_hom(m, n)}
    for g in homs:
        assert LambdaMorphism(g.source, g.target, list(g.mapping)) is g
        assert g == LambdaMorphism(g.source, g.target, g.mapping)
        assert hash(g) == hash(g.key())
        for part in epi_mono_factor(g):
            assert part in lambda_hom(part.source, part.target)
    assert len({g.id for g in homs}) == len(homs)


def _reference_structure(gamma):
    # the triple, re-derived with no memo: per target coordinate a constant,
    # or the one source coordinate it reads through an injective table
    m, n = gamma.source, gamma.target
    src_pts = points(m)
    out, read = [], set()
    for l in range(len(n)):
        values = [img[l] for img in gamma.mapping]
        if len(set(values)) == 1:
            out.append(("const", values[0]))
            continue
        found = None
        for j in range(len(m) if m != (0,) else 0):
            table = {}
            if all(table.setdefault(p[j], v) == v for p, v in zip(src_pts, values)):
                if len(set(table.values())) == m[j] + 1:
                    found = (j, tuple(table[a] for a in range(m[j] + 1)))
                    break
        if found is None or found[0] in read:
            raise ValueError("not a morphism")
        read.add(found[0])
        out.append(("track",) + found)
    return tuple(out)


def _reference_factor(gamma):
    """(middle index, epi mapping, mono mapping) of the canonical
    epi-mono factorization, with no memo."""
    struct = _reference_structure(gamma)
    tracked = sorted(
        ((l, e[1], e[2]) for l, e in enumerate(struct) if e[0] == "track"),
        key=lambda t: (-gamma.source[t[1]], t[1]),
    )
    if not tracked:
        return (0,), tuple((0,) for _ in gamma.mapping), (gamma.mapping[0],)
    mid = tuple(gamma.source[j] for _, j, _ in tracked)
    epi = tuple(tuple(p[j] for _, j, _ in tracked) for p in points(gamma.source))
    reads = {l: (k, table) for k, (l, _, table) in enumerate(tracked)}
    mono = tuple(
        tuple(reads[l][1][q[reads[l][0]]] if l in reads else struct[l][1]
              for l in range(len(gamma.target)))
        for q in points(mid)
    )
    return mid, epi, mono


HOM_INDICES = [(0,), (1,), (2,), (1, 1), (2, 1), (1, 1, 1)]


def test_memoized_morphism_calculus_matches_reference():
    homs = {(a, b): lambda_hom(a, b) for a in HOM_INDICES for b in HOM_INDICES}
    for (a, b), gs in homs.items():
        for g in gs:
            assert structure_of(g) == _reference_structure(g)
            mid, epi_map, mono_map = _reference_factor(g)
            for _ in range(2):  # the second call reads the memo
                epi, mono = epi_mono_factor(g)
                assert (epi.source, epi.target, epi.mapping) == (a, mid, epi_map)
                assert (mono.source, mono.target, mono.mapping) == (mid, b, mono_map)
    pos = {n: {p: i for i, p in enumerate(points(n))} for n in HOM_INDICES}
    for a, b, c in itertools.product(HOM_INDICES, repeat=3):
        pos_b = pos[b]
        for g1 in homs[(a, b)]:
            for g2 in homs[(b, c)]:
                got = compose(g2, g1)
                want = tuple(g2.mapping[pos_b[q]] for q in g1.mapping)
                assert (got.source, got.target, got.mapping) == (a, c, want)
                assert compose(g2, g1) is got


def test_rejected_function_leaves_no_intern_entry():
    from anabel import poly

    before = len(poly._INTERNED)
    for source, target, mapping in [
        ((1,), (1, 1), ((0, 0), (1, 1))),  # reads one coordinate twice
        ((2,), (1,), ((0,), (1,), (0,))),  # reads through a non-injection
        ((0,), (1,), ((0,), (1,))),  # wrong length
    ]:
        for _ in range(2):
            with pytest.raises(ValueError):
                LambdaMorphism(source, target, mapping)
            assert (source, target, mapping) not in poly._INTERNED
    assert len(poly._INTERNED) == before


def test_representable_cells():
    L1 = representable((1,))
    assert {k: len(v) for k, v in L1.nondegenerate_cells().items()} == {
        (0,): 2,
        (1,): 1,
    }
    L0 = representable((0,))
    assert {k: len(v) for k, v in L0.nondegenerate_cells().items()} == {(0,): 1}
    L11 = representable((1, 1))
    assert {k: len(v) for k, v in L11.nondegenerate_cells().items()} == {
        (0,): 4,
        (1,): 4,
        (1, 1): 1,
    }
    assert L11.is_interiorly_free()


def test_strata_poset_interval():
    L1 = representable((1,))
    le = L1.strata_order_pairs()
    cells = sorted(L1.cells)
    maxes = [c for c in cells if all((c, d) not in le or c == d for d in cells)]
    mins = [c for c in cells if all((d, c) not in le or c == d for d in cells)]
    assert len(maxes) == 1 and len(mins) == 2


def test_strata_poset_square():
    L11 = representable((1, 1))
    le = L11.strata_order_pairs()
    assert len(L11.cells) == 9
    top = [c for c in L11.cells if L11.cells[c] == (1, 1)][0]
    assert all((c, top) in le for c in L11.cells)
    # each edge dominates exactly two vertices
    for e in (c for c in L11.cells if L11.cells[c] == (1,)):
        below = [c for c in L11.cells if (c, e) in le and c != e]
        assert len(below) == 2


def test_disjoint_union_antichain():
    from anabel.poly import disjoint_union, poly_point

    two = disjoint_union(poly_point(), poly_point())
    le = two.strata_order_pairs()
    assert len(two.cells) == 2
    assert all(a == b for a, b in le)


def make_circle():
    L1 = representable((1,))
    P = representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    return coequalizer(f, g).complex


def make_fold():
    L1 = representable((1,))
    flip = next(g for g in automorphisms((1,)) if g != identity((1,)))
    return quotient(
        L1,
        [
            (L1.cell_element("s0"), L1.cell_element("s1")),
            (L1.cell_element("s01"), Element("s01", flip)),
        ],
    ).complex


def test_coequalizer_circle():
    circle = make_circle()
    assert {k: len(v) for k, v in circle.nondegenerate_cells().items()} == {
        (0,): 1,
        (1,): 1,
    }
    assert circle.euler_characteristic() == 0
    assert circle.is_interiorly_free()


def test_coequalizer_trivial_cases():
    L1 = representable((1,))
    ident = PolyMorphism.identity_of(L1)
    res = coequalizer(ident, ident)
    assert sorted(res.complex.cells.values()) == sorted(L1.cells.values())
    assert find_isomorphism(res.complex, L1) is not None


def test_coequalizer_empty_source():
    L1 = representable((1,))
    empty = PolysimplicialSet({}, {}, {})
    none = PolyMorphism.from_cells(empty, L1, {})
    res = coequalizer(none, none)
    assert find_isomorphism(res.complex, L1) is not None


def test_coequalizer_projection_equalizes():
    L1 = representable((1,))
    P = representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    res = coequalizer(f, g)
    proj = res.projection
    left = compose_poly(proj, f)
    right = compose_poly(proj, g)
    for c in P.cells:
        assert res.complex.elements_equal(left.cell_map[c], right.cell_map[c])


def test_fold_is_not_interiorly_free():
    fold = make_fold()
    assert {k: len(v) for k, v in fold.nondegenerate_cells().items()} == {
        (0,): 1,
        (1,): 1,
    }
    assert not fold.is_interiorly_free()


def test_box_product_representables():
    B = box_product(representable((1,)), representable((1,)))
    assert find_isomorphism(B, representable((1, 1))) is not None


def test_box_unit():
    from anabel.poly import poly_point

    L1 = representable((1,))
    assert find_isomorphism(box_product(L1, poly_point()), L1) is not None
    assert find_isomorphism(box_product(poly_point(), L1), L1) is not None


def test_box_euler_multiplicative():
    from anabel.poly import poly_point

    circle = make_circle()
    shapes = [
        representable((1,)),
        representable((2,)),
        representable((1, 1)),
        poly_point(),
        circle,
    ]
    pairs = list(itertools.product(range(len(shapes)), repeat=2))[:10]
    for i, j in pairs:
        A, B = shapes[i], shapes[j]
        P = box_product(A, B)
        assert (
            P.euler_characteristic()
            == A.euler_characteristic() * B.euler_characteristic()
        )


def test_box_extend_constant_singleton():
    L1 = representable((1,))
    E, _ = box_extend(L1, CellFunctor.constant(L1, 1))
    assert find_isomorphism(E, L1) is not None


def test_box_extend_constant_k_disjoint_copies():
    circle = make_circle()
    E, _ = box_extend(circle, CellFunctor.constant(circle, 3))
    counts = {k: len(v) for k, v in E.nondegenerate_cells().items()}
    assert counts == {(0,): 3, (1,): 3}


def test_box_extend_two_gon():
    L1 = representable((1,))
    vals = {"s01": [0, 1], "s0": [0], "s1": [0]}
    trans = {
        key: {v: 0 for v in vals[key[0]]} for key in L1.faces
    }
    acts = {
        (c, theta): {v: v for v in vals[c]}
        for c in L1.cells
        for theta in L1.stabs[c]
    }
    E, _ = box_extend(L1, CellFunctor(vals, trans, acts))
    counts = {k: len(v) for k, v in E.nondegenerate_cells().items()}
    assert counts == {(0,): 2, (1,): 2}
    pres = category_pi1(E, [c for c in E.cells if E.cells[c] == (1,)][0])
    assert pres.abelianization() == FgAbGroup(1)


def test_box_extend_strata_count():
    # |O(C box D)| = sum of fiber sizes over the strata of C
    L1 = representable((1,))
    vals = {"s01": [0, 1], "s0": [0], "s1": [0, 1, 2]}
    trans = {}
    for (c, iota), e in L1.faces.items():
        if e.cell == "s1":
            trans[(c, iota)] = {0: 0, 1: 1}
        else:
            trans[(c, iota)] = {v: 0 for v in vals[c]}
    acts = {
        (c, theta): {v: v for v in vals[c]}
        for c in L1.cells
        for theta in L1.stabs[c]
    }
    E, _ = box_extend(L1, CellFunctor(vals, trans, acts))
    assert len(E.cells) == sum(len(v) for v in vals.values())


def test_box_extend_rejects_nonfunctorial():
    # values shrink along one vertex but the other face map is missing
    L1 = representable((1,))
    vals = {"s01": [0, 1], "s0": [0], "s1": [0]}
    trans = {key: None for key in L1.faces}
    with pytest.raises(ValueError):
        box_extend(L1, CellFunctor(vals, {}, {}))


def test_category_pi1_representables_trivial():
    for n in [(1,), (2,), (1, 1)]:
        pres = category_pi1(
            representable(n),
            [c for c in representable(n).cells][0],
        )
        simplified = pres.simplify()
        assert simplified.rank() == 0 or simplified.abelianization().is_trivial
        assert pres.abelianization() == FgAbGroup(0)


def test_category_pi1_circle():
    circle = make_circle()
    pres = category_pi1(circle, sorted(circle.cells)[0])
    assert pres.abelianization() == FgAbGroup(1)
    simplified = pres.simplify()
    assert simplified.rank() == 1 and simplified.is_free_presentation()


def test_category_pi1_lambda3_is_trivial():
    # 1884 morphisms and 45852 composition relators; with one full
    # re-canonicalization per elimination this ran for over a minute
    L3 = representable((3,))
    assert category_pi1(L3, min(L3.cells)).abelianization().is_trivial


def _reference_category_parts(C, base_cell):
    """Relators and spanning tree as category_pi1 first built them: a
    breadth-first search that rescans every morphism for each node, and an
    all-pairs scan for the composable pairs."""
    objs = _nondeg_objects(C)
    obj_index = {e: i for i, e in enumerate(objs)}
    morphisms = []
    for b, eb in enumerate(objs):
        for gamma in injections_into(eb.level):
            got = C.act(eb, gamma)
            a = obj_index.get(got) if got.is_nondegenerate() else None
            if a is not None and not (a == b and gamma == identity(eb.level)):
                morphisms.append((a, b, gamma))
    morphisms.sort(key=lambda t: (t[0], t[1], t[2].key()))
    base_obj = obj_index[C.canonical(Element(base_cell, identity(C.cells[base_cell])))]
    seen = {base_obj}
    stack = [base_obj]
    tree_edges = set()
    while stack:
        x = stack.pop(0)
        for k, (a, b, gamma) in enumerate(morphisms):
            for u, v in ((a, b), (b, a)):
                if u == x and v not in seen:
                    seen.add(v)
                    tree_edges.add(k)
                    stack.append(v)
    mor_pos = {(a, b, gamma.key()): k for k, (a, b, gamma) in enumerate(morphisms)}
    relators = []
    for k1, (a1, b1, g1) in enumerate(morphisms):
        for k2, (a2, b2, g2) in enumerate(morphisms):
            if b1 != a2:
                continue
            comp = compose(g2, g1)
            if a1 == b2 and comp == identity(objs[a1].level):
                relators.append((k2 + 1, k1 + 1))
            else:
                relators.append((k2 + 1, k1 + 1, -(mor_pos[(a1, b2, comp.key())] + 1)))
    return len(morphisms), relators, sorted(tree_edges)


def test_category_presentation_matches_all_pairs_construction():
    shapes = [representable((1,)), representable((2,)), representable((1, 1)),
              make_circle(), make_fold(), make_wedge()]
    for C in shapes:
        for base in sorted(C.cells):
            pres, tree = _category_presentation(C, base)
            n, relators, want_tree = _reference_category_parts(C, base)
            assert pres.generators == [f"m{k}" for k in range(n)]
            assert pres.relators == relators
            assert tree == want_tree


def make_wedge():
    """Two circles glued at the base vertex."""
    from anabel.poly import disjoint_union

    circle = make_circle()
    two = disjoint_union(circle, circle)
    v = sorted(c for c in two.cells if two.cells[c] == (0,))
    assert len(v) == 2
    return quotient(
        two, [(two.cell_element(v[0]), two.cell_element(v[1]))]
    ).complex


def test_category_pi1_wedge():
    wedge = make_wedge()
    counts = {k: len(v) for k, v in wedge.nondegenerate_cells().items()}
    assert counts == {(0,): 1, (1,): 2}
    pres = category_pi1(wedge, sorted(wedge.cells)[0])
    assert pres.abelianization() == FgAbGroup(2)


def test_pi1_graph_complex_rank_formula():
    # chain of two edges with both endpoints glued pairwise: rank E - V + 1
    wedge = make_wedge()
    E = len([c for c in wedge.cells if wedge.cells[c] == (1,)])
    V = len([c for c in wedge.cells if wedge.cells[c] == (0,)])
    assert category_pi1(wedge, sorted(wedge.cells)[0]).abelianization() == FgAbGroup(
        E - V + 1
    )


def test_is_cospec_iso_identity():
    L11 = representable((1, 1))
    rep = is_cospec_iso(PolyMorphism.identity_of(L11))
    assert rep.is_iso and rep.inverse is not None


def test_is_cospec_iso_rejects_collapse():
    # collapse the edge of Lambda[(1)] onto the point
    from anabel.poly import poly_point

    L1 = representable((1,))
    P = poly_point()
    to_pt = {c: Element("s0", _epi_to_point(L1.cells[c])) for c in L1.cells}
    m = PolyMorphism.from_cells(L1, P, to_pt)
    rep = is_cospec_iso(m)
    assert not rep.is_iso
    assert "degenerate" in rep.reason


def _epi_to_point(n):
    from anabel.poly import LambdaMorphism, points

    return LambdaMorphism(n, (0,), [(0,)] * len(points(n)), _checked=True)


def test_is_cospec_iso_nonfree_target_report():
    circle = make_circle()
    fold = make_fold()
    cmap = {}
    for c, n in circle.cells.items():
        tgt = [d for d in fold.cells if fold.cells[d] == n][0]
        cmap[c] = fold.cell_element(tgt)
    m = PolyMorphism.from_cells(circle, fold, cmap)
    rep = is_cospec_iso(m)
    assert not rep.is_iso
    assert "interiorly free" in rep.reason


def test_iso_criterion_positive_direction():
    # strata-bijective + nondeg-preserving + free target => explicit inverse
    B = box_product(representable((1,)), representable((1,)))
    m = find_isomorphism(B, representable((1, 1)))
    assert m is not None
    rep = is_cospec_iso(m)
    assert rep.is_iso
    assert rep.inverse is not None
    back = compose_poly(m, rep.inverse)
    for c in m.target.cells:
        assert m.target.elements_equal(
            back.cell_map[c], m.target.cell_element(c)
        )
