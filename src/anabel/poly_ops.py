"""Operations on finite polysimplicial sets: morphisms, colimit quotients,
functor extensions, the isomorphism criterion, and fundamental groups of
cell categories."""

from __future__ import annotations

from collections import deque
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

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


class PolyMorphism:
    """A map of polysimplicial sets, given on nondegenerate cells."""

    def __init__(self, source: PolysimplicialSet, target: PolysimplicialSet,
                 cell_map: Dict[str, Element]):
        self.source, self.target, self.cell_map = source, target, cell_map

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
    """second after first. Natural maps compose to a natural map, so the
    composite of valid morphisms is valid and is not validated."""
    if second.source is not first.target:
        raise ValueError("morphisms are not composable")
    return PolyMorphism(
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


class QuotientResult(NamedTuple):
    complex: PolysimplicialSet
    projection: PolyMorphism


def quotient(
    C: PolysimplicialSet, seed_pairs: Sequence[Tuple[Element, Element]]
) -> QuotientResult:
    """Quotient of C by the congruence generated by the given element pairs,
    renormalized to Eilenberg-Zilber form.

    A seed is an element of C: a cell of C and a morphism that ends at that
    cell's index, so a cell restricted along any morphism into its index is
    a seed. The two seeds of a pair share a level. A seed that breaks
    either rule is refused, by name, before any work. The seeds are all
    that is checked: the complex and the projection built from them are
    valid by construction, as argued below, and are not validated.

    The levels are the sub-indices of the cells and of the seeds. The
    congruence is closed in one pass over the seeds, keying elements by
    their canonical form: for each seed (a, b) and every morphism gamma
    into its level from a level, act(a, gamma) and act(b, gamma) are
    joined (gamma = identity joins the seed itself). The union-find
    relation is the equivalence generated by these image pairs. Act along
    delta maps a chain of image pairs from u to v to a chain of image pairs
    from act(u, delta) to act(v, delta), because act(act(a, gamma), delta)
    = act(a, gamma*delta), as C is a presheaf, and gamma*delta is again a
    morphism from a level into the seed's level. So the relation is closed
    under act: it is the least congruence containing the seeds. This is
    congruence closure (Downey, Sethi & Tarjan 1980; Nelson & Oppen 1980)
    with whole hom-sets as the operations, where a worklist of joined pairs
    would only re-join images of images. Each union makes the lesser root
    the root of the other, so the id of a class is its least key, whatever
    the order of the unions; cell names and tables are read off those ids.

    The table read off the classes is a complex. The index category is an
    EZ category (Berger & Moerdijk, On an extension of the notion of Reedy
    category, Math. Z. 269 (2011), section 6): every morphism is a split
    epi followed by a mono (`epi_mono_factor`), and two split epis out of
    one index, which are coordinate projections up to automorphism, have
    an absolute pushout. So, by their Eilenberg-Zilber lemma, each class
    of the presheaf C/~ is act(y, sigma) for a nondegenerate class y and an
    epi sigma, and (y, sigma) is unique up to (act(y, theta), theta^-1 *
    sigma) for automorphisms theta. A class hit by no non-invertible epi
    is nondegenerate; every degenerate element of C is such a hit, so its
    members are nondegenerate. The cells are the automorphism orbits of
    the nondegenerate classes, each read through the least class y of its
    orbit, with the stabilizer of y. By the lemma the pairs (cell, sigma),
    up to that stabilizer, match the classes one to one: every class has a
    normal form, and the face entries are normal forms. The act of the
    table factors tau*gamma = iota*sigma and reads the entry at iota, which
    is the quotient action carried through this matching. So the table is
    C/~ in normal form, which satisfies everything `validate` checks, and
    the projection c -> normal(class of c) is natural because the quotient
    map is.
    """
    levels: Set[PolyIndex] = set()
    for n in C.cells.values():
        levels.update(sub_indices(n))
        levels.add(n)
    for a, b in seed_pairs:
        for e in (a, b):
            n = C.cells.get(e.cell)
            if n is None:
                raise ValueError(f"seed {e} names no cell of the complex")
            if e.epi.target != n:
                raise ValueError(f"seed {e} does not end at its cell's index {n}")
        if a.level != b.level:
            raise ValueError(f"seed pair levels differ: {a} and {b}")
        levels.update(sub_indices(a.level))
        levels.add(a.level)
    levels = sorted(levels)
    elements: Dict[PolyIndex, List[Element]] = {
        lv: C.elements_at(lv) for lv in levels
    }
    uf = _UnionFind()
    for a, b in seed_pairs:
        for src in levels:
            for gamma in lambda_hom(src, a.level):
                uf.union(_elt_key(C, C.act(a, gamma)), _elt_key(C, C.act(b, gamma)))

    def class_of(e: Element):
        return uf.find(_elt_key(C, e))

    # nondegenerate classes: those not hit by a non-invertible degeneracy
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
    nondeg = [cid for cid in sorted(class_members) if cid not in degenerate_classes]
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

    # the quotient normal form of each class: the first (name, tau), in
    # the order of names and then of epis, whose element lies in it
    normal_form: Dict[object, Element] = {}
    for name in sorted(rep_element):
        z = rep_element[name]
        for lv in levels:
            for tau in epis_onto(lv, cells[name]):
                normal_form.setdefault(class_of(C.act(z, tau)), Element(name, tau))

    def normal(e: Element) -> Element:
        return normal_form[class_of(e)]

    faces = {}
    for name in sorted(cells):
        n = cells[name]
        rep = rep_element[name]
        for iota in injections_into(n):
            if iota.is_iso():
                continue
            faces[(name, iota)] = normal(C.act(rep, iota))
    Q = PolysimplicialSet(cells, stabs, faces, validate=False)
    proj = PolyMorphism(C, Q, {c: normal(C.cell_element(c)) for c in C.cells})
    return QuotientResult(Q, proj)


def coequalizer(f: PolyMorphism, g: PolyMorphism) -> QuotientResult:
    """Cellwise coequalizer of two parallel morphisms, renormalized: the
    quotient of the target by the pairs (f(z), g(z)) over the cells z."""
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


class CellFunctor(NamedTuple):
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


class IsoReport(NamedTuple):
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
    inv = _two_sided_inverse(m)
    if inv is None:
        return IsoReport(False, "constructed inverse is not a two-sided inverse", None)
    return IsoReport(True, "nondegenerate + strata bijective + interiorly free", inv)


def _two_sided_inverse(m: PolyMorphism) -> Optional[PolyMorphism]:
    """The inverse of m read off its strata map, or None when m is not an
    isomorphism."""
    smap = m.strata_map()
    if sorted(smap.values()) != sorted(m.target.cells):
        return None
    if not m.sends_nondegenerate_to_nondegenerate():
        return None
    back = {y: x for x, y in smap.items()}
    try:
        inv = PolyMorphism.from_cells(m.target, m.source, {
            y: Element(back[y], m.cell_map[back[y]].epi.inverse())
            for y in m.target.cells
        })
    except ValueError:
        return None
    for comp in (compose_poly(m, inv), compose_poly(inv, m)):
        C = comp.target
        if any(C.canonical(comp.cell_map[c]) != C.canonical(C.cell_element(c))
               for c in C.cells):
            return None
    return inv


def _natural_maps(
    A: PolysimplicialSet,
    B: PolysimplicialSet,
    candidates: Callable[[str, Dict[str, Element]], Iterable[Element]],
) -> Iterator[PolyMorphism]:
    """Backtracking search: every morphism A -> B whose image of each cell c
    is one of candidates(c, images so far), in search order.

    Cells are tried by descending dimension, then name. Each face entry
    x(b, iota) = (d, e) of A is checked, as soon as both b and d have
    images f(b) and f(d), by f(b)|iota == f(d)|e: the naturality square
    that PolyMorphism.validate checks at b along iota. A pruned candidate
    therefore fails validate, so the maps yielded, and the first of them,
    are the ones an unpruned search would yield. Each complete map is
    still validated.
    """
    order = sorted(A.cells, key=lambda c: (-index_dim(A.cells[c]), c))
    pos = {c: i for i, c in enumerate(order)}
    checks: Dict[str, List[Tuple[str, LambdaMorphism, Element]]] = {c: [] for c in order}
    for b, n in A.cells.items():
        for iota in injections_into(n):
            if not iota.is_iso():
                face = A.faces[(b, iota)]
                checks[max(b, face.cell, key=pos.__getitem__)].append((b, iota, face))
    cmap: Dict[str, Element] = {}

    def extend(i: int) -> Iterator[PolyMorphism]:
        if i == len(order):
            try:
                m = PolyMorphism.from_cells(A, B, cmap)
            except (ValueError, KeyError):
                return
            yield m
            return
        c = order[i]
        for img in candidates(c, cmap):
            cmap[c] = img
            if all(B.act(cmap[b], iota) == B.act(cmap[face.cell], face.epi)
                   for b, iota, face in checks[c]):
                yield from extend(i + 1)
        cmap.pop(c, None)

    return extend(0)


def find_isomorphism(A: PolysimplicialSet, B: PolysimplicialSet) -> Optional[PolyMorphism]:
    """Backtracking search for an isomorphism of complexes, or None."""
    if sorted(A.cells.values()) != sorted(B.cells.values()):
        return None

    def candidates(c, cmap):
        n = A.cells[c]
        used = {e.cell for e in cmap.values()}
        return dict.fromkeys(
            B.canonical(Element(y, theta))
            for y in sorted(B.cells) if B.cells[y] == n and y not in used
            for theta in automorphisms(n)
        )

    for m in _natural_maps(A, B, candidates):
        if _two_sided_inverse(m) is not None:
            return m
    return None


# ---------------------------------------------------------------------------
# fundamental group of the cell category
# ---------------------------------------------------------------------------


def category_pi1(C: PolysimplicialSet, base_cell: str) -> GroupPresentation:
    """Presentation of pi1 of the localized cell category.

    Objects are the nondegenerate polysimplexes, morphisms the injective
    restrictions between them; the composition triangles are the
    relations, collapsed along a spanning tree rooted at the base cell.

    The presentation is built on a skeleton: one object per cell, the
    normal form r_c of (c, identity), and every morphism between these
    objects, the automorphisms of r_c in the stabilizer of c included.
    Each nondegenerate (c, theta) is isomorphic to r_c through theta, so
    this full subcategory meets every isomorphism class and is equivalent
    to the whole category. Equivalent categories have homotopy-equivalent
    nerves (Quillen, Higher algebraic K-theory I, LNM 341, 1973, section 1),
    so pi1 is unchanged. Composites stay in the subcategory, because
    act(r, g2 . g1) = act(act(r, g2), g1). Generator m<k> names the k-th
    morphism of the skeleton.
    """
    pres, tree_edges = _category_presentation(C, base_cell)
    return pres.kill_generators(tree_edges)


def _category_presentation(
    C: PolysimplicialSet, base_cell: str
) -> Tuple[GroupPresentation, List[int]]:
    """One generator per morphism of the skeleton, one relator per
    composable pair, and the 0-based generators of a breadth-first spanning
    tree from the base cell."""
    if base_cell not in C.cells:
        raise ValueError(f"unknown base cell {base_cell}")
    cells = sorted(C.cells)
    objs = [C.canonical(Element(c, identity(C.cells[c]))) for c in cells]
    obj_index = {e: i for i, e in enumerate(objs)}
    morphisms: List[Tuple[int, int, LambdaMorphism]] = []
    for b, eb in enumerate(objs):
        n = eb.level
        for gamma in injections_into(n):
            # a degenerate value is never a representative
            a = obj_index.get(C.act(eb, gamma))
            if a is None or (a == b and gamma == identity(n)):
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
    base_obj = cells.index(base_cell)
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
