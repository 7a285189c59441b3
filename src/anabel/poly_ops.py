"""Operations on finite polysimplicial sets: morphisms, colimit quotients,
functor extensions, the isomorphism criterion, and fundamental groups of
cell categories."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .presentations import GroupPresentation
from .poly import (
    Element,
    LambdaMorphism,
    PolysimplicialSet,
    PolyIndex,
    automorphisms,
    compose,
    epis_onto,
    identity,
    index_dim,
    injections_into,
    lambda_hom,
    sub_indices,
)


@dataclass
class PolyMorphism:
    """A map of polysimplicial sets, given on nondegenerate cells."""

    source: PolysimplicialSet
    target: PolysimplicialSet
    cell_map: Dict[str, Element]

    def apply(self, elt: Element) -> Element:
        img = self.cell_map[elt.cell]
        return self.target.act(img, elt.epi)

    def validate(self) -> "PolyMorphism":
        for c, n in self.source.cells.items():
            img = self.cell_map.get(c)
            if img is None or img.level != n:
                raise ValueError(f"cell {c} lacks an image at its level")
            img_c = self.target.canonical(img)
            for theta in self.source.stabs[c]:
                if self.target.act(img_c, theta) != img_c:
                    raise ValueError(
                        f"image of {c} is not stabilizer-invariant"
                    )
            for iota in injections_into(n):
                if iota.is_iso():
                    continue
                lhs = self.apply(self.source.faces[(c, iota)])
                rhs = self.target.act(img_c, iota)
                if lhs != rhs:
                    raise ValueError(
                        f"naturality fails at cell {c} along {iota!r}"
                    )
        return self

    def sends_nondegenerate_to_nondegenerate(self) -> bool:
        return all(
            self.cell_map[c].is_nondegenerate() for c in self.source.cells
        )

    def strata_map(self) -> Dict[str, str]:
        return {c: self.cell_map[c].cell for c in self.source.cells}

    @classmethod
    def from_cells(cls, source, target, cell_map) -> "PolyMorphism":
        return cls(source, target, dict(cell_map)).validate()

    @classmethod
    def identity_of(cls, C: PolysimplicialSet) -> "PolyMorphism":
        return cls(C, C, {c: C.cell_element(c) for c in C.cells}).validate()


def compose_poly(
    second: PolyMorphism, first: PolyMorphism
) -> PolyMorphism:
    if second.source is not first.target:
        raise ValueError("morphisms are not composable")
    return PolyMorphism.from_cells(
        first.source,
        second.target,
        {c: second.apply(first.cell_map[c]) for c in first.source.cells},
    )


# ---------------------------------------------------------------------------
# quotients / colimits
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _elt_key(C: PolysimplicialSet, e: Element):
    e = C.canonical(e)
    return (e.level, e.cell, e.epi)


@dataclass
class QuotientResult:
    complex: PolysimplicialSet
    projection: PolyMorphism


def quotient(
    C: PolysimplicialSet, seed_pairs: Sequence[Tuple[Element, Element]]
) -> QuotientResult:
    """Quotient of C by the congruence generated by the given element pairs,
    renormalized to Eilenberg-Zilber form."""
    levels: Set[PolyIndex] = set()
    for n in C.cells.values():
        levels.update(sub_indices(n))
        levels.add(n)
    for a, b in seed_pairs:
        if a.level != b.level:
            raise ValueError("seed pair levels differ")
        levels.update(sub_indices(a.level))
        levels.add(a.level)
    levels = sorted(levels)
    elements: Dict[PolyIndex, List[Element]] = {
        lv: C.elements_at(lv) for lv in levels
    }
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
                    buckets: Dict[object, List[Element]] = {}
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

    def class_of(e: Element):
        return uf.find(_elt_key(C, e))

    # nondegenerate classes: those containing a nondegenerate element and not
    # hit by a non-invertible degeneracy
    class_members: Dict[object, List[Element]] = {}
    for lv in levels:
        for e in elements[lv]:
            class_members.setdefault(class_of(e), []).append(e)
    degenerate_classes: Set[object] = set()
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
    # orbits under the automorphism action at each level
    orbit_of: Dict[object, object] = {}
    orbit_members: Dict[object, Set[object]] = {}
    for cid in nondeg:
        if cid in orbit_of:
            continue
        rep = class_members[cid][0]
        lv = rep.level
        orbit = set()
        for theta in automorphisms(lv):
            orbit.add(class_of(C.act(rep, theta)))
        key = min(orbit)
        for member in orbit:
            orbit_of[member] = key
        orbit_members[key] = orbit
    orbit_reps = sorted(orbit_members)
    names = {key: f"q{i}" for i, key in enumerate(orbit_reps)}
    cells = {}
    stabs = {}
    rep_element: Dict[str, Element] = {}
    for key in orbit_reps:
        rep = class_members[key][0]
        lv = rep.level
        name = names[key]
        cells[name] = lv
        rep_element[name] = rep
        stab = frozenset(
            theta for theta in automorphisms(lv)
            if class_of(C.act(rep, theta)) == key
        )
        stabs[name] = stab

    def normal_form(cid, level) -> Element:
        """Quotient normal form of the class cid living at the given level."""
        for name in sorted(rep_element):
            z = rep_element[name]
            for tau in epis_onto(level, cells[name]):
                if class_of(C.act(z, tau)) == cid:
                    return Element(name, tau)
        raise AssertionError("class has no normal form; EZ failure")

    faces = {}
    for name in sorted(cells):
        n = cells[name]
        rep = rep_element[name]
        for iota in injections_into(n):
            if iota.is_iso():
                continue
            moved = C.act(rep, iota)
            faces[(name, iota)] = normal_form(class_of(moved), iota.source)
    Q = PolysimplicialSet(cells, stabs, faces)
    proj = PolyMorphism.from_cells(
        C,
        Q,
        {
            c: normal_form(class_of(C.cell_element(c)), C.cells[c])
            for c in C.cells
        },
    )
    return QuotientResult(Q, proj)


def coequalizer(f: PolyMorphism, g: PolyMorphism) -> QuotientResult:
    """Cellwise coequalizer of two parallel morphisms, renormalized."""
    if f.source is not g.source or f.target is not g.target:
        raise ValueError("coequalizer needs a parallel pair")
    seeds = []
    for z in f.source.cells:
        e = f.source.cell_element(z)
        seeds.append((f.apply(e), g.apply(e)))
    return quotient(f.target, seeds)


# ---------------------------------------------------------------------------
# box extension by a set-valued functor on the cell category
# ---------------------------------------------------------------------------


@dataclass
class CellFunctor:
    """Finite-set functor data on the cell category of a complex.

    values[c] lists the set over cell c; transitions[(c, iota)] maps
    values of c to values of the face cell along iota; stab_actions[(c,
    theta)] permutes values[c] for theta in the stabilizer of c. Identity
    transitions may be omitted. Functoriality is certified by validating
    the extended complex.
    """

    values: Dict[str, List]
    transitions: Dict[Tuple[str, LambdaMorphism], Dict]
    stab_actions: Dict[Tuple[str, LambdaMorphism], Dict]

    @classmethod
    def constant(cls, C: PolysimplicialSet, k: int) -> "CellFunctor":
        vals = {c: list(range(k)) for c in C.cells}
        trans = {}
        for (c, iota), e in C.faces.items():
            trans[(c, iota)] = {v: v for v in range(k)}
        acts = {}
        for c in C.cells:
            for theta in C.stabs[c]:
                acts[(c, theta)] = {v: v for v in range(k)}
        return cls(vals, trans, acts)


def box_extend(C: PolysimplicialSet, D: CellFunctor) -> Tuple[
    PolysimplicialSet, Dict[Tuple[str, object], str]
]:
    """The complex with cells (c, d) for d in D(c), faces twisted by the
    transitions of D. Returns the complex and the cell renaming.

    Raises ValueError when D fails to be functorial (the extended face
    table then violates functoriality or stabilizer closure).
    """
    for c in C.cells:
        if c not in D.values or not D.values[c]:
            raise ValueError(f"functor has no values over cell {c}")
    # orbits of values under the stabilizer action give the cells
    naming: Dict[Tuple[str, object], str] = {}
    cells = {}
    stabs = {}
    reps: Dict[str, Tuple[str, object]] = {}
    for c in sorted(C.cells):
        n = C.cells[c]
        seen: Set[object] = set()
        for d in D.values[c]:
            if d in seen:
                continue
            orbit = set()
            for theta in C.stabs[c]:
                act = D.stab_actions.get((c, theta), {v: v for v in D.values[c]})
                orbit.add(act[d])
            rep = min(orbit, key=lambda v: D.values[c].index(v))
            name = f"({c}#{rep})"
            for v in orbit:
                naming[(c, v)] = name
            seen |= orbit
            if name not in cells:
                cells[name] = n
                reps[name] = (c, rep)
                stabs[name] = frozenset(
                    theta
                    for theta in C.stabs[c]
                    if D.stab_actions.get(
                        (c, theta), {v: v for v in D.values[c]}
                    )[rep] == rep
                )
    faces = {}
    for name, (c, d) in reps.items():
        n = cells[name]
        for iota in injections_into(n):
            if iota.is_iso():
                continue
            base = C.faces[(c, iota)]
            t = D.transitions.get((c, iota))
            if t is None or d not in t:
                raise ValueError(f"functor lacks a transition for ({c}, {iota!r})")
            val = t[d]
            zname = naming.get((base.cell, val))
            if zname is None:
                raise ValueError(
                    f"transition of ({c}, {iota!r}) leaves the value set"
                )
            # adjust by a stabilizer element when the value is not the orbit rep
            zc, zrep = reps[zname]
            theta_fix = None
            for theta in C.stabs[zc]:
                act = D.stab_actions.get((zc, theta), {v: v for v in D.values[zc]})
                if act[zrep] == val:
                    theta_fix = theta
                    break
            if theta_fix is None:
                raise ValueError("stabilizer action does not reach the value")
            faces[(name, iota)] = Element(zname, compose(theta_fix, base.epi))
    try:
        E = PolysimplicialSet(cells, stabs, faces)
    except ValueError as exc:
        raise ValueError(f"functor is not functorial: {exc}") from exc
    return E, naming


# ---------------------------------------------------------------------------
# the isomorphism criterion and isomorphism search
# ---------------------------------------------------------------------------


@dataclass
class IsoReport:
    is_iso: bool
    reason: str
    inverse: Optional[PolyMorphism]


def poset_pairs_isomorphic(
    le1: Set[Tuple[str, str]], le2: Set[Tuple[str, str]], mapping: Dict[str, str]
) -> bool:
    els1 = {a for a, _ in le1} | {b for _, b in le1}
    els2 = {a for a, _ in le2} | {b for _, b in le2}
    if sorted(mapping) != sorted(els1):
        return False
    if sorted(mapping.values()) != sorted(els2):
        return False
    return all(((mapping[a], mapping[b]) in le2) == ((a, b) in le1)
               for a in els1 for b in els1)


def is_cospec_iso(m: PolyMorphism) -> IsoReport:
    """The nondegeneracy + strata-bijectivity + interior-freeness criterion.

    When it applies, an explicit inverse is constructed and verified.
    """
    if not m.sends_nondegenerate_to_nondegenerate():
        return IsoReport(False, "a nondegenerate cell maps to a degenerate one", None)
    smap = m.strata_map()
    le1 = m.source.strata_order_pairs()
    le2 = m.target.strata_order_pairs()
    if not poset_pairs_isomorphic(le1, le2, smap):
        return IsoReport(False, "strata map is not a poset isomorphism", None)
    if not m.target.is_interiorly_free():
        return IsoReport(False, "target is not interiorly free", None)
    inverse_cells = {}
    back = {v: k for k, v in smap.items()}
    for y in m.target.cells:
        x = back[y]
        img = m.cell_map[x]  # (y, theta) with theta invertible
        theta = img.epi
        inverse_cells[y] = Element(x, theta.inverse())
    inv = PolyMorphism.from_cells(m.target, m.source, inverse_cells)
    there = compose_poly(m, inv)
    ident_t = PolyMorphism.identity_of(m.target)
    back_ = compose_poly(inv, m)
    ident_s = PolyMorphism.identity_of(m.source)
    for c in m.target.cells:
        if m.target.canonical(there.cell_map[c]) != m.target.canonical(
            ident_t.cell_map[c]
        ):
            return IsoReport(False, "constructed inverse fails on the right", None)
    for c in m.source.cells:
        if m.source.canonical(back_.cell_map[c]) != m.source.canonical(
            ident_s.cell_map[c]
        ):
            return IsoReport(False, "constructed inverse fails on the left", None)
    return IsoReport(True, "nondegenerate + strata bijective + interiorly free", inv)


def find_isomorphism(A: PolysimplicialSet, B: PolysimplicialSet) -> Optional[PolyMorphism]:
    """Backtracking search for an isomorphism of complexes, or None."""
    if sorted(A.cells.values()) != sorted(B.cells.values()):
        return None
    a_cells = sorted(A.cells, key=lambda c: (-index_dim(A.cells[c]), c))
    b_by_index: Dict[PolyIndex, List[str]] = {}
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
            return _direct_iso_check(m)
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


def _direct_iso_check(m: PolyMorphism) -> Optional[PolyMorphism]:
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


# ---------------------------------------------------------------------------
# fundamental group of the cell category
# ---------------------------------------------------------------------------


def _nondeg_objects(C: PolysimplicialSet) -> List[Element]:
    objs = []
    for c in sorted(C.cells):
        n = C.cells[c]
        seen = set()
        for theta in automorphisms(n):
            e = C.canonical(Element(c, theta))
            if e not in seen:
                seen.add(e)
                objs.append(e)
    return objs


def category_pi1(C: PolysimplicialSet, base_cell: str) -> GroupPresentation:
    """Presentation of pi1 of the localized cell category.

    Objects are the nondegenerate polysimplexes, morphisms the injective
    restrictions between them; the composition triangles are the
    relations, collapsed along a spanning tree rooted at the base cell.
    """
    pres, tree_edges = _category_presentation(C, base_cell)
    return pres.kill_generators(tree_edges)


def _category_presentation(
    C: PolysimplicialSet, base_cell: str
) -> Tuple[GroupPresentation, List[int]]:
    """One generator per morphism, one relator per composable pair, and the
    0-based generators of a breadth-first spanning tree from the base cell."""
    if base_cell not in C.cells:
        raise ValueError(f"unknown base cell {base_cell}")
    objs = _nondeg_objects(C)
    obj_index = {e: i for i, e in enumerate(objs)}
    morphisms: List[Tuple[int, int, LambdaMorphism]] = []
    for b, eb in enumerate(objs):
        n = eb.level
        for gamma in injections_into(n):
            got = C.act(eb, gamma)
            if not got.is_nondegenerate():
                continue
            a = obj_index.get(got)
            if a is None:
                continue
            if a == b and gamma == identity(n):
                continue
            morphisms.append((a, b, gamma))
    morphisms.sort(key=lambda t: (t[0], t[1], t[2].key()))
    # incidence lists in morphism order; a breadth-first search over them
    # gives the spanning tree
    incident: List[List[Tuple[int, int]]] = [[] for _ in objs]
    outgoing: List[List[int]] = [[] for _ in objs]
    for k, (a, b, _) in enumerate(morphisms):
        incident[a].append((k, b))
        incident[b].append((k, a))
        outgoing[a].append(k)
    base_obj = obj_index[C.canonical(Element(base_cell, identity(C.cells[base_cell])))]
    seen = {base_obj}
    queue = deque([base_obj])
    tree_edges: List[int] = []
    while queue:
        for k, v in incident[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                tree_edges.append(k)
                queue.append(v)
    if len(seen) != len(objs):
        raise ValueError("complex is disconnected")
    gen_names = [f"m{k}" for k in range(len(morphisms))]
    mor_pos = {(a, b, gamma): k for k, (a, b, gamma) in enumerate(morphisms)}
    relators = []
    for k1, (a1, b1, g1) in enumerate(morphisms):
        for k2 in outgoing[b1]:
            _, b2, g2 = morphisms[k2]
            comp = compose(g2, g1)
            # morphism: objs[a1] -> objs[b2] via comp
            if a1 == b2 and comp == identity(objs[a1].level):
                relators.append((k2 + 1, k1 + 1))
                continue
            k3 = mor_pos.get((a1, b2, comp))
            if k3 is None:
                raise AssertionError("morphism composition left the category")
            relators.append((k2 + 1, k1 + 1, -(k3 + 1)))
    return GroupPresentation(gen_names, relators), sorted(tree_edges)
