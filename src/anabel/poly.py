"""The polysimplicial index category and finite polysimplicial sets.

An index is a tuple n = (n0, ..., np), either (0,) or with every entry
>= 1; the object [n] is the product of the point sets [n_i]. Morphisms are
the functions [m] -> [n] induced by a triple (J, f, alpha): every target
coordinate is either constant or reads exactly one source coordinate
through an injection, and distinct target coordinates read distinct source
coordinates. There is one interned object per function, so equality of
morphisms is identity; the triple is only a constructor. Each morphism
caches its triple, its epi-mono factorization and whether it is an
isomorphism, and composition is memoized on the pair of morphism ids.

A finite polysimplicial set is stored in Eilenberg-Zilber normal form:
one cell per isomorphism class of nondegenerate polysimplexes, the
stabilizer of a representative inside Aut([n]), and a face table giving
the normal form of every non-invertible injective restriction. A general
element at level [m] is a pair (cell, epi); every presheaf operation
factors through epi-mono decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

PolyIndex = Tuple[int, ...]
Point = Tuple[int, ...]


def check_index(n: Sequence[int]) -> PolyIndex:
    n = tuple(int(x) for x in n)
    if n == (0,):
        return n
    if not n or any(x < 1 for x in n):
        raise ValueError(f"invalid poly-index {n}: need (0,) or all entries >= 1")
    return n


def canonical_index(n: Sequence[int]) -> PolyIndex:
    n = check_index(n)
    return n if n == (0,) else tuple(sorted(n, reverse=True))


def index_dim(n: PolyIndex) -> int:
    return 0 if n == (0,) else sum(n)


def index_width(n: PolyIndex) -> int:
    return len(n) - 1


@lru_cache(maxsize=None)
def points(n: PolyIndex) -> Tuple[Point, ...]:
    return tuple(itertools.product(*[range(x + 1) for x in n]))


@lru_cache(maxsize=None)
def point_pos(n: PolyIndex) -> Dict[Point, int]:
    return {p: i for i, p in enumerate(points(n))}


def concat_index(a: PolyIndex, b: PolyIndex) -> PolyIndex:
    parts = tuple(x for x in a if x > 0) + tuple(x for x in b if x > 0)
    return parts if parts else (0,)


# One object per function: key() -> its morphism. Only functions known to
# lie in the category enter, so a rejected function is derived, and raises,
# every time it is presented; entries are never removed, so `id` stays unique.
_INTERNED: Dict[Tuple, "LambdaMorphism"] = {}
# (second.id, first.id) -> second after first
_COMPOSITES: Dict[Tuple[int, int], "LambdaMorphism"] = {}


class LambdaMorphism:
    """A morphism of the index category, stored as its induced function.

    There is one interned object per function (source, target, mapping), so
    equality is identity. Each object has a small integer `id`, keeps the
    hash of key(), and caches its structure, its epi-mono factorization and
    whether it is an isomorphism.
    """

    __slots__ = ("source", "target", "mapping", "id", "_key", "_hash",
                 "_structure", "_factors", "_iso")

    def __new__(cls, source, target, mapping: Sequence[Point], _checked=False):
        if _checked:
            # trusted construction inside this module: checked indices, point
            # tuples, and a function already known to lie in the category
            key = (source, target, tuple(mapping))
            hit = _INTERNED.get(key)
            return hit if hit is not None else _intern(key, None)
        source, target = check_index(source), check_index(target)
        mapping = tuple(tuple(p) for p in mapping)
        if len(mapping) != len(points(source)):
            raise ValueError("mapping length does not match the source")
        key = (source, target, mapping)
        hit = _INTERNED.get(key)
        if hit is None:
            # raises if the function is not in the category
            return _intern(key, _derive_structure(source, target, mapping))
        structure_of(hit)
        return hit

    def __reduce__(self):
        # copies and unpickled objects go through the intern table
        return (LambdaMorphism, self._key)

    def __call__(self, p: Point) -> Point:
        return self.mapping[point_pos(self.source)[p]]

    def key(self):
        return self._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"Lambda({self.source}->{self.target})"

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == len(points(self.target))

    def is_iso(self) -> bool:
        iso = self._iso
        if iso is None:
            iso = self._iso = (
                len(points(self.source)) == len(points(self.target))
                and self.is_injective()
            )
        return iso

    def inverse(self) -> "LambdaMorphism":
        if not self.is_iso():
            raise ValueError("not invertible")
        inv = {img: p for p, img in zip(points(self.source), self.mapping)}
        return LambdaMorphism(
            self.target, self.source, [inv[p] for p in points(self.target)],
            _checked=True,
        )


def _intern(key, structure) -> LambdaMorphism:
    g = object.__new__(LambdaMorphism)
    g.source, g.target, g.mapping = key
    g.id = len(_INTERNED)
    g._key = key
    g._hash = hash(key)
    g._structure = structure
    g._factors = None
    g._iso = None
    _INTERNED[key] = g
    return g


def compose(second: LambdaMorphism, first: LambdaMorphism) -> LambdaMorphism:
    """second after first."""
    ids = (second.id, first.id)
    hit = _COMPOSITES.get(ids)
    if hit is not None:
        return hit
    if first.target != second.source:
        raise ValueError(f"cannot compose {second!r} after {first!r}")
    pos = point_pos(second.source)
    table = second.mapping
    out = _COMPOSITES[ids] = LambdaMorphism(
        first.source,
        second.target,
        tuple(table[pos[q]] for q in first.mapping),
        _checked=True,
    )
    return out


def identity(n: PolyIndex) -> LambdaMorphism:
    n = check_index(n)
    return LambdaMorphism(n, n, points(n), _checked=True)


def structure_of(gamma: LambdaMorphism):
    """Tracked-coordinate structure (the triple), or raise ValueError.

    Returns per target coordinate either ("const", value) or
    ("track", source_coord, alpha) with alpha the injective value table.
    """
    hit = gamma._structure
    if hit is None:
        hit = gamma._structure = _derive_structure(
            gamma.source, gamma.target, gamma.mapping)
    return hit


def _derive_structure(m: PolyIndex, n: PolyIndex, mapping: Tuple[Point, ...]):
    src_pts = points(m)
    pos = point_pos(m)
    out = []
    tracked_sources = set()
    for l in range(len(n)):
        values = [img[l] for img in mapping]
        if all(v == values[0] for v in values):
            out.append(("const", values[0]))
            continue
        if m == (0,):
            raise ValueError("morphism from the point must be constant")
        cand = None
        for j in range(len(m)):
            base = [0] * len(m)
            table = []
            ok = True
            for a in range(m[j] + 1):
                q = list(base)
                q[j] = a
                table.append(mapping[pos[tuple(q)]][l])
            if len(set(table)) != m[j] + 1:
                ok = False
            if ok:
                ok = all(v == table[p[j]] for p, v in zip(src_pts, values))
            if ok:
                cand = (j, tuple(table))
                break
        if cand is None:
            raise ValueError(
                f"coordinate {l} is not constant and reads no single source"
            )
        j, table = cand
        if j in tracked_sources:
            raise ValueError(f"source coordinate {j} is read twice")
        tracked_sources.add(j)
        out.append(("track", j, table))
    return tuple(out)


def from_triple(
    source: PolyIndex,
    target: PolyIndex,
    tracked: Dict[int, Tuple[int, Sequence[int]]],
    constants: Dict[int, int],
    _checked: bool = False,
) -> LambdaMorphism:
    """Build the function of a triple: tracked[l] = (source coord, alpha
    value table) and constants[l] the value of the untracked coordinates."""
    source, target = check_index(source), check_index(target)
    mapping = []
    for p in points(source):
        img = []
        for l in range(len(target)):
            if l in tracked:
                j, table = tracked[l]
                img.append(table[p[j]])
            else:
                img.append(constants[l])
        mapping.append(tuple(img))
    return LambdaMorphism(source, target, mapping, _checked=_checked)


@lru_cache(maxsize=None)
def lambda_hom(m: PolyIndex, n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    """All morphisms [m] -> [n], duplicate-free, in canonical order."""
    m, n = check_index(m), check_index(n)
    wm, wn = len(m), len(n)
    src_coords = [] if m == (0,) else list(range(wm))
    out: Set[LambdaMorphism] = set()
    for size in range(min(len(src_coords), wn) + 1):
        for J in itertools.combinations(src_coords, size):
            for targets in itertools.permutations(range(wn), size):
                if any(m[j] > n[l] for j, l in zip(J, targets)):
                    continue
                alpha_choices = []
                for j, l in zip(J, targets):
                    alpha_choices.append(
                        list(itertools.permutations(range(n[l] + 1), m[j] + 1))
                    )
                const_coords = [l for l in range(wn) if l not in targets]
                const_choices = [range(n[l] + 1) for l in const_coords]
                for alphas in itertools.product(*alpha_choices):
                    for consts in itertools.product(*const_choices):
                        tracked = {
                            l: (j, alpha)
                            for j, l, alpha in zip(J, targets, alphas)
                        }
                        constants = dict(zip(const_coords, consts))
                        out.add(from_triple(m, n, tracked, constants,
                                            _checked=True))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def automorphisms(n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    return tuple(g for g in lambda_hom(n, n) if g.is_iso())


@lru_cache(maxsize=None)
def sub_indices(n: PolyIndex) -> Tuple[PolyIndex, ...]:
    """Canonical indices admitting an injection into [n], including (0,)."""
    n = check_index(n)
    found = {(0,)}
    coords = [] if n == (0,) else list(range(len(n)))
    for size in range(1, len(coords) + 1):
        for T in itertools.combinations(coords, size):
            for vals in itertools.product(*[range(1, n[l] + 1) for l in T]):
                found.add(canonical_index(vals))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def injections_into(n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    """All injective morphisms from canonical indices into [n]."""
    out = []
    for k in sub_indices(n):
        for g in lambda_hom(k, n):
            if g.is_injective():
                out.append(g)
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def epis_onto(m: PolyIndex, n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    return tuple(g for g in lambda_hom(m, n) if g.is_surjective())


def epi_mono_factor(gamma: LambdaMorphism) -> Tuple[LambdaMorphism, LambdaMorphism]:
    """gamma = mono . epi with canonically sorted middle index."""
    hit = gamma._factors
    if hit is None:
        hit = gamma._factors = _factor(gamma)
    return hit


def _factor(gamma: LambdaMorphism) -> Tuple[LambdaMorphism, LambdaMorphism]:
    struct = structure_of(gamma)
    tracked = [(l, j, table) for l, entry in enumerate(struct)
               if entry[0] == "track"
               for j, table in [entry[1:]]]
    if not tracked:
        mid = (0,)
        epi = LambdaMorphism(
            gamma.source, mid, [(0,)] * len(points(gamma.source)), _checked=True
        )
        mono = LambdaMorphism(mid, gamma.target, [gamma.mapping[0]], _checked=True)
        return epi, mono
    order = sorted(
        range(len(tracked)),
        key=lambda i: (-gamma.source[tracked[i][1]], tracked[i][1]),
    )
    mid = tuple(gamma.source[tracked[i][1]] for i in order)
    epi_map = []
    for p in points(gamma.source):
        epi_map.append(tuple(p[tracked[i][1]] for i in order))
    epi = LambdaMorphism(gamma.source, mid, epi_map, _checked=True)
    mono_tracked = {}
    mono_consts = {}
    for pos, i in enumerate(order):
        l, j, table = tracked[i]
        mono_tracked[l] = (pos, table)
    for l, entry in enumerate(struct):
        if entry[0] == "const":
            mono_consts[l] = entry[1]
    mono = from_triple(
        mid, gamma.target, mono_tracked, mono_consts, _checked=True
    )
    return epi, mono


# ---------------------------------------------------------------------------
# polysimplicial sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Element:
    """A polysimplex in normal form: nondegenerate cell plus epi part."""

    cell: str
    epi: LambdaMorphism  # [level] ->> [index of cell]

    @property
    def level(self) -> PolyIndex:
        return self.epi.source

    def is_nondegenerate(self) -> bool:
        return self.epi.is_iso()


class PolysimplicialSet:
    """Finite presheaf on the index category, in normal form storage."""

    def __init__(
        self,
        cells: Dict[str, PolyIndex],
        stabs: Dict[str, FrozenSet[LambdaMorphism]],
        faces: Dict[Tuple[str, LambdaMorphism], Element],
        validate: bool = True,
    ):
        self.cells = {c: check_index(n) for c, n in sorted(cells.items())}
        self.stabs = {c: frozenset(stabs.get(c, [identity(self.cells[c])]))
                      for c in self.cells}
        self.faces = dict(faces)
        # keyed on (cell, epi id) and (cell, epi id, gamma id)
        self._canon_cache: Dict[Tuple[str, int], Element] = {}
        self._act_cache: Dict[Tuple[str, int, int], Element] = {}
        if validate:
            self.validate()

    # -- basic accessors -----------------------------------------------------

    def index_of(self, cell: str) -> PolyIndex:
        return self.cells[cell]

    def cell_ids(self) -> List[str]:
        return sorted(self.cells)

    def dim(self) -> int:
        return max((index_dim(n) for n in self.cells.values()), default=0)

    def euler_characteristic(self) -> int:
        return sum((-1) ** index_dim(n) for n in self.cells.values())

    def nondegenerate_cells(self) -> Dict[PolyIndex, List[str]]:
        out: Dict[PolyIndex, List[str]] = {}
        for c, n in self.cells.items():
            out.setdefault(n, []).append(c)
        return {n: sorted(cs) for n, cs in sorted(out.items())}

    # -- element calculus ------------------------------------------------------

    def canonical(self, elt: Element) -> Element:
        return self._canonical(elt.cell, elt.epi)

    def _canonical(self, cell: str, epi: LambdaMorphism) -> Element:
        key = (cell, epi.id)
        hit = self._canon_cache.get(key)
        if hit is None:
            best = min((compose(theta, epi) for theta in self.stabs[cell]),
                       key=_mapping_of)
            hit = self._canon_cache[key] = Element(cell, best)
        return hit

    def elements_equal(self, a: Element, b: Element) -> bool:
        return a.cell == b.cell and self.canonical(a) == self.canonical(b)

    def cell_element(self, cell: str) -> Element:
        return Element(cell, identity(self.cells[cell]))

    def act(self, elt: Element, gamma: LambdaMorphism) -> Element:
        """The presheaf action C(gamma) applied to an element."""
        key = (elt.cell, elt.epi.id, gamma.id)
        hit = self._act_cache.get(key)
        if hit is not None:
            return hit
        if gamma.target != elt.level:
            raise ValueError("morphism target does not match element level")
        comp = compose(elt.epi, gamma)
        tau, iota = epi_mono_factor(comp)
        if iota.is_iso():
            out = self._canonical(elt.cell, comp)
        else:
            entry = self.faces.get((elt.cell, iota))
            if entry is None:
                raise KeyError(f"missing face entry for ({elt.cell}, {iota!r})")
            out = self._canonical(entry.cell, compose(entry.epi, tau))
        self._act_cache[key] = out
        return out

    def elements_at(self, level: PolyIndex) -> List[Element]:
        """All elements at the given level, canonicalized and sorted."""
        level = check_index(level)
        seen = {}
        for c, n in self.cells.items():
            for epi in epis_onto(level, n):
                e = self.canonical(Element(c, epi))
                seen[(e.cell, e.epi.key())] = e
        return [seen[k] for k in sorted(seen)]

    # -- structural checks ------------------------------------------------------

    def validate(self, deep: bool = False):
        for c, n in self.cells.items():
            stab = self.stabs[c]
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
                entry = self.faces.get((c, iota))
                if entry is None:
                    raise ValueError(f"missing face of {c} along {iota!r}")
                if not entry.epi.is_surjective():
                    raise ValueError(f"face entry of {c} at {iota!r} is not normal")
                if index_dim(entry.epi.source) > index_dim(n):
                    raise ValueError("face raises dimension")
        # stabilizer coherence and functoriality on composable injections;
        # general morphisms factor through these via epi-mono decomposition
        for c, n in self.cells.items():
            base = self.cell_element(c)
            for iota in injections_into(n):
                mid = self.act(base, iota)
                for theta in self.stabs[c]:
                    if self.act(base, compose(theta, iota)) != mid:
                        raise ValueError(
                            f"face table of {c} is not stabilizer-coherent"
                        )
                inner = (
                    lambda_hom_all_into(iota.source)
                    if deep
                    else injections_into(iota.source)
                )
                for gamma in inner:
                    lhs = self.act(mid, gamma)
                    rhs = self.act(base, compose(iota, gamma))
                    if lhs != rhs:
                        raise ValueError(
                            f"functoriality fails at cell {c}: "
                            f"{iota!r} then {gamma!r}"
                        )

    def is_interiorly_free(self) -> bool:
        return all(len(s) == 1 for s in self.stabs.values())

    # -- strata poset -------------------------------------------------------------

    def strata_order_pairs(self) -> Set[Tuple[str, str]]:
        """Pairs (x, y) with x <= y: x arises from y along some morphism."""
        le: Set[Tuple[str, str]] = {(c, c) for c in self.cells}
        for y, n in self.cells.items():
            base = self.cell_element(y)
            for iota in injections_into(n):
                got = self.act(base, iota)
                if got.is_nondegenerate():
                    le.add((got.cell, y))
        changed = True
        while changed:
            changed = False
            for (a, b) in list(le):
                for (c, d) in list(le):
                    if b == c and (a, d) not in le:
                        le.add((a, d))
                        changed = True
        return le


def _mapping_of(g: LambdaMorphism):
    return g.mapping


def lambda_hom_all_into(target: PolyIndex) -> List[LambdaMorphism]:
    out = []
    for k in sub_indices(target):
        out.extend(lambda_hom(k, target))
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _boxes_of(n: PolyIndex) -> List[Tuple[Tuple[int, ...], ...]]:
    """Sub-boxes of [n]: one choice of nonempty value subset per coordinate."""
    coords = [tuple(range(x + 1)) for x in n]
    choices = []
    for vals in coords:
        subs = []
        for size in range(1, len(vals) + 1):
            subs.extend(itertools.combinations(vals, size))
        choices.append(subs)
    return [tuple(c) for c in itertools.product(*choices)]


def _box_cell_id(box) -> str:
    return "s" + "|".join("".join(str(v) for v in T) for T in box)


def _box_index(box) -> PolyIndex:
    vals = tuple(len(T) - 1 for T in box if len(T) >= 2)
    return canonical_index(vals) if vals else (0,)


def _box_injection(box, n: PolyIndex) -> LambdaMorphism:
    """Canonical injection of the sub-box cell into [n]."""
    idx = _box_index(box)
    tracked_targets = sorted(
        (l for l in range(len(n)) if len(box[l]) >= 2),
        key=lambda l: (-(len(box[l]) - 1), l),
    )
    tracked = {}
    consts = {}
    for pos, l in enumerate(tracked_targets):
        tracked[l] = (pos, tuple(sorted(box[l])))
    for l in range(len(n)):
        if l not in tracked:
            consts[l] = min(box[l])
    return from_triple(idx, n, tracked, consts)


def representable(n: Sequence[int]) -> PolysimplicialSet:
    """The polysimplicial set Lambda[n]: cells are the sub-boxes of [n]."""
    n = check_index(n)
    boxes = _boxes_of(n)
    cells = {}
    injections = {}
    for box in boxes:
        cid = _box_cell_id(box)
        cells[cid] = _box_index(box)
        injections[cid] = _box_injection(box, n)
    by_image = {}
    for box in boxes:
        cid = _box_cell_id(box)
        by_image[frozenset(injections[cid].mapping)] = cid
    faces = {}
    for box in boxes:
        cid = _box_cell_id(box)
        emb = injections[cid]
        for iota in injections_into(cells[cid]):
            if iota.is_iso():
                continue
            comp = compose(emb, iota)
            image = frozenset(comp.mapping)
            tgt = by_image[image]
            temb = injections[tgt]
            back = {img: p for p, img in zip(points(temb.source), temb.mapping)}
            theta = LambdaMorphism(
                iota.source,
                cells[tgt],
                [back[comp(p)] for p in points(iota.source)],
                _checked=True,
            )
            faces[(cid, iota)] = Element(tgt, theta)
    stabs = {cid: frozenset([identity(idx)]) for cid, idx in cells.items()}
    return PolysimplicialSet(cells, stabs, faces)


def poly_point() -> PolysimplicialSet:
    return representable((0,))


def disjoint_union(A: PolysimplicialSet, B: PolysimplicialSet) -> PolysimplicialSet:
    cells = {}
    stabs = {}
    faces = {}
    for tag, X in (("L", A), ("R", B)):
        for c, n in X.cells.items():
            cells[f"{tag}.{c}"] = n
            stabs[f"{tag}.{c}"] = X.stabs[c]
        for (c, iota), e in X.faces.items():
            faces[(f"{tag}.{c}", iota)] = Element(f"{tag}.{e.cell}", e.epi)
    return PolysimplicialSet(cells, stabs, faces)


def _pair_id(a: str, b: str) -> str:
    return f"({a})*({b})"


def _split_morphism(gamma: LambdaMorphism, raw: PolyIndex, na: PolyIndex,
                    nb: PolyIndex) -> Tuple[LambdaMorphism, LambdaMorphism]:
    """Split [k] -> [raw] into the block components [k] -> [na], [k] -> [nb]."""
    wa = 0 if na == (0,) else len(na)
    mapping_a = []
    mapping_b = []
    for p in points(gamma.source):
        img = gamma(p)
        mapping_a.append(tuple(img[:wa]) if wa else (0,))
        mapping_b.append(tuple(img[wa:]) if len(img) > wa else (0,))
    ga = LambdaMorphism(gamma.source, na if wa else (0,), mapping_a, _checked=True)
    gb = LambdaMorphism(
        gamma.source, nb if nb != (0,) else (0,), mapping_b, _checked=True
    )
    return ga, gb


def _join_epis(sa: LambdaMorphism, sb: LambdaMorphism) -> LambdaMorphism:
    """Combine epis with disjoint tracked sets into one epi onto the
    concatenated index."""
    na, nb = sa.target, sb.target
    raw = concat_index(na, nb)
    mapping = []
    for p in points(sa.source):
        left = sa(p) if na != (0,) else ()
        right = sb(p) if nb != (0,) else ()
        img = tuple(left) + tuple(right)
        mapping.append(img if img else (0,))
    return LambdaMorphism(sa.source, raw, mapping, _checked=True)


def _sorting_iso(raw: PolyIndex) -> LambdaMorphism:
    """Canonical iso [canonical(raw)] -> [raw] permuting coordinates."""
    canon = canonical_index(raw)
    if raw == (0,):
        return identity((0,))
    order = sorted(range(len(raw)), key=lambda l: (-raw[l], l))
    # order[k] is the raw coordinate shown at canonical position k
    tracked = {}
    for k, l in enumerate(order):
        tracked[l] = (k, tuple(range(raw[l] + 1)))
    return from_triple(canon, raw, tracked, {})


def box_product(A: PolysimplicialSet, B: PolysimplicialSet) -> PolysimplicialSet:
    """Cellwise concatenation product: cells are pairs, indices concatenate."""
    cells = {}
    stabs = {}
    faces = {}
    sorters = {}
    for ca, na in A.cells.items():
        for cb, nb in B.cells.items():
            cid = _pair_id(ca, cb)
            raw = concat_index(na, nb)
            rho = _sorting_iso(raw)
            sorters[cid] = rho
            cells[cid] = canonical_index(raw)
            rho_inv = rho.inverse()
            stab = set()
            for ta in A.stabs[ca]:
                for tb in B.stabs[cb]:
                    joint = _join_isos(ta, tb, na, nb, raw)
                    stab.add(compose(rho_inv, compose(joint, rho)))
            stabs[cid] = frozenset(stab)
    for ca, na in A.cells.items():
        for cb, nb in B.cells.items():
            cid = _pair_id(ca, cb)
            raw = concat_index(na, nb)
            rho = sorters[cid]
            for iota in injections_into(cells[cid]):
                if iota.is_iso():
                    continue
                comp = compose(rho, iota)
                ga, gb = _split_morphism(comp, raw, na, nb)
                ea = A.act(A.cell_element(ca), ga)
                eb = B.act(B.cell_element(cb), gb)
                tgt = _pair_id(ea.cell, eb.cell)
                joined = _join_epis(ea.epi, eb.epi)
                epi = compose(sorters[tgt].inverse(), joined)
                faces[(cid, iota)] = Element(tgt, epi)
    return PolysimplicialSet(cells, stabs, faces)


def _join_isos(ta, tb, na, nb, raw) -> LambdaMorphism:
    """Blockwise automorphism of [raw] from automorphisms of the factors."""
    wa = 0 if na == (0,) else len(na)
    mapping = []
    for p in points(raw):
        left = tuple(p[:wa])
        right = tuple(p[wa:]) if len(p) > wa else ()
        la = ta(left) if na != (0,) else ()
        lb = tb(right if right else (0,)) if nb != (0,) else ()
        img = tuple(la) + tuple(lb)
        mapping.append(img if img else (0,))
    return LambdaMorphism(raw, raw, mapping, _checked=True)
