"""Point-by-point references for `anabel.poly.representable` and
`anabel.poly.box_product`.

The library builds face morphisms from triples: it factors through the
sub-box embedding, slices and concatenates structures, and shifts the
source coordinates of the B block. The builders here do the same work on
point tables, one point at a time, through the checked `LambdaMorphism`
constructor, as the library did when it stored point tables; tests compare
the two entry for entry.
"""

from anabel.poly import (
    Element,
    LambdaMorphism,
    PolysimplicialSet,
    _box_cell_id,
    _box_index,
    _box_injection,
    _boxes_of,
    _pair_id,
    _sorting_iso,
    canonical_index,
    check_index,
    compose,
    concat_index,
    identity,
    injections_into,
    point_pos,
    points,
)


def apply(g, p):
    """The image of the point p under g, read off its point table."""
    return g.mapping[point_pos(g.source)[p]]


def split_morphism(gamma, na, nb):
    """Split [k] -> [na ++ nb] into the block components [k] -> [na], [k] -> [nb]."""
    wa = 0 if na == (0,) else len(na)
    mapping_a = []
    mapping_b = []
    for p in points(gamma.source):
        img = apply(gamma, p)
        mapping_a.append(tuple(img[:wa]) if wa else (0,))
        mapping_b.append(tuple(img[wa:]) if len(img) > wa else (0,))
    return (LambdaMorphism(gamma.source, na if wa else (0,), mapping_a),
            LambdaMorphism(gamma.source, nb, mapping_b))


def join_epis(sa, sb):
    """Combine epis with disjoint tracked sets into one epi onto the
    concatenated index."""
    na, nb = sa.target, sb.target
    mapping = []
    for p in points(sa.source):
        left = apply(sa, p) if na != (0,) else ()
        right = apply(sb, p) if nb != (0,) else ()
        img = tuple(left) + tuple(right)
        mapping.append(img if img else (0,))
    return LambdaMorphism(sa.source, concat_index(na, nb), mapping)


def join_isos(ta, tb, na, nb, raw):
    """Blockwise automorphism of [raw] from automorphisms of the factors."""
    wa = 0 if na == (0,) else len(na)
    mapping = []
    for p in points(raw):
        left = tuple(p[:wa])
        right = tuple(p[wa:]) if len(p) > wa else ()
        la = apply(ta, left) if na != (0,) else ()
        lb = apply(tb, right if right else (0,)) if nb != (0,) else ()
        img = tuple(la) + tuple(lb)
        mapping.append(img if img else (0,))
    return LambdaMorphism(raw, raw, mapping)


def representable(n):
    """Lambda[n], each face read back through a table of the sub-box
    embedding's points."""
    n = check_index(n)
    boxes = _boxes_of(n)
    cells = {}
    injections = {}
    for box in boxes:
        cid = _box_cell_id(box)
        cells[cid] = _box_index(box)
        injections[cid] = _box_injection(box, n)
    by_image = {frozenset(emb.mapping): cid for cid, emb in injections.items()}
    faces = {}
    for cid, emb in injections.items():
        for iota in injections_into(cells[cid]):
            if iota.is_iso():
                continue
            comp = compose(emb, iota)
            tgt = by_image[frozenset(comp.mapping)]
            temb = injections[tgt]
            back = {img: p for p, img in zip(points(temb.source), temb.mapping)}
            theta = LambdaMorphism(
                iota.source, cells[tgt],
                [back[apply(comp, p)] for p in points(iota.source)],
            )
            faces[(cid, iota)] = Element(tgt, theta)
    stabs = {cid: frozenset([identity(idx)]) for cid, idx in cells.items()}
    return PolysimplicialSet(cells, stabs, faces, validate=False)


def box_product(A, B):
    """A box B, each morphism split and joined point by point."""
    cells = {}
    stabs = {}
    faces = {}
    sorters = {}
    unsort = {}
    for ca, na in A.cells.items():
        for cb, nb in B.cells.items():
            cid = _pair_id(ca, cb)
            raw = concat_index(na, nb)
            rho = sorters[cid] = _sorting_iso(raw)
            cells[cid] = canonical_index(raw)
            rho_inv = unsort[cid] = rho.inverse()
            stabs[cid] = frozenset(
                compose(rho_inv, compose(join_isos(ta, tb, na, nb, raw), rho))
                for ta in A.stabs[ca] for tb in B.stabs[cb])
    for ca, na in A.cells.items():
        xa = A.cell_element(ca)
        for cb, nb in B.cells.items():
            xb = B.cell_element(cb)
            cid = _pair_id(ca, cb)
            for iota in injections_into(cells[cid]):
                if iota.is_iso():
                    continue
                ga, gb = split_morphism(compose(sorters[cid], iota), na, nb)
                ea = A.act(xa, ga)
                eb = B.act(xb, gb)
                tgt = _pair_id(ea.cell, eb.cell)
                epi = compose(unsort[tgt], join_epis(ea.epi, eb.epi))
                faces[(cid, iota)] = Element(tgt, epi)
    return PolysimplicialSet(cells, stabs, faces, validate=False)
