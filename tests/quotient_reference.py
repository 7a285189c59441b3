"""Fixed-point references for `anabel.poly_ops.quotient` and for the
enumerations of injections, epimorphisms and automorphisms.

The library closes the congruence in one pass over the seed pairs, and
enumerates only the triples that can be injective, onto or invertible.
The references here are the earlier forms: filters of the
whole hom-set `lambda_hom`, and a quotient that sweeps every morphism over
every element until nothing changes, with a linear search for each normal
form. Tests compare the two entry for entry.
"""

from functools import lru_cache

from anabel.poly import Element, PolysimplicialSet, lambda_hom, sub_indices
from anabel.poly_ops import PolyMorphism, QuotientResult, _UnionFind, _elt_key


@lru_cache(maxsize=None)
def injections_into(n):
    return tuple(sorted(g for k in sub_indices(n) for g in lambda_hom(k, n)
                        if g.is_injective()))


@lru_cache(maxsize=None)
def epis_onto(m, n):
    return tuple(g for g in lambda_hom(m, n) if g.is_surjective())


@lru_cache(maxsize=None)
def automorphisms(n):
    return tuple(g for g in lambda_hom(n, n) if g.is_iso())


def quotient(C, seed_pairs):
    """Quotient of C by the congruence generated by the seed pairs, closed
    by re-sweeping every morphism until no class changes."""
    levels = set()
    for n in C.cells.values():
        levels.update(sub_indices(n))
        levels.add(n)
    for a, b in seed_pairs:
        if a.level != b.level:
            raise ValueError("seed pair levels differ")
        levels.update(sub_indices(a.level))
        levels.add(a.level)
    levels = sorted(levels)
    elements = {lv: C.elements_at(lv) for lv in levels}
    uf = _UnionFind()
    for lv in levels:
        for e in elements[lv]:
            uf.find(_elt_key(C, e))
    for a, b in seed_pairs:
        uf.union(_elt_key(C, a), _elt_key(C, b))
    changed = True
    while changed:
        changed = False
        for src in levels:
            for dst in levels:
                for gamma in lambda_hom(src, dst):
                    buckets = {}
                    for e in elements[dst]:
                        buckets.setdefault(uf.find(_elt_key(C, e)), []).append(e)
                    for group in buckets.values():
                        if len(group) < 2:
                            continue
                        first = C.act(group[0], gamma)
                        for other in group[1:]:
                            moved = C.act(other, gamma)
                            if uf.union(_elt_key(C, first), _elt_key(C, moved)):
                                changed = True

    def class_of(e):
        return uf.find(_elt_key(C, e))

    class_members = {}
    for lv in levels:
        for e in elements[lv]:
            class_members.setdefault(class_of(e), []).append(e)
    degenerate_classes = set()
    for lv in levels:
        for lower in levels:
            for sigma in epis_onto(lv, lower):
                if sigma.is_iso():
                    continue
                for e in elements[lower]:
                    degenerate_classes.add(class_of(C.act(e, sigma)))
    nondeg = []
    for cid, members in sorted(class_members.items()):
        if cid in degenerate_classes:
            continue
        if any(m.is_nondegenerate() for m in members):
            nondeg.append(cid)
    orbit_of = {}
    orbit_members = {}
    for cid in nondeg:
        if cid in orbit_of:
            continue
        rep = class_members[cid][0]
        orbit = {class_of(C.act(rep, theta)) for theta in automorphisms(rep.level)}
        key = min(orbit)
        for member in orbit:
            orbit_of[member] = key
        orbit_members[key] = orbit
    orbit_reps = sorted(orbit_members)
    names = {key: f"q{i}" for i, key in enumerate(orbit_reps)}
    cells = {}
    stabs = {}
    rep_element = {}
    for key in orbit_reps:
        rep = class_members[key][0]
        lv = rep.level
        name = names[key]
        cells[name] = lv
        rep_element[name] = rep
        stabs[name] = frozenset(
            theta for theta in automorphisms(lv)
            if class_of(C.act(rep, theta)) == key
        )

    def normal_form(cid, level):
        for name in sorted(rep_element):
            z = rep_element[name]
            for tau in epis_onto(level, cells[name]):
                if class_of(C.act(z, tau)) == cid:
                    return Element(name, tau)
        raise AssertionError("class has no normal form; EZ failure")

    faces = {}
    for name in sorted(cells):
        rep = rep_element[name]
        for iota in injections_into(cells[name]):
            if iota.is_iso():
                continue
            faces[(name, iota)] = normal_form(class_of(C.act(rep, iota)), iota.source)
    Q = PolysimplicialSet(cells, stabs, faces)
    proj = PolyMorphism.from_cells(
        C, Q,
        {c: normal_form(class_of(C.cell_element(c)), C.cells[c]) for c in C.cells},
    )
    return QuotientResult(Q, proj)
