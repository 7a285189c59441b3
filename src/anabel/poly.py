"""The polysimplicial index category and finite polysimplicial sets.

An index is a tuple n = (n0, ..., np), either (0,) or with every entry
>= 1; the object [n] is the product of the point sets [n_i]. Morphisms are
the functions [m] -> [n] induced by a triple (J, f, alpha): every target
coordinate is either constant or reads exactly one source coordinate
through an injection, and distinct target coordinates read distinct source
coordinates. Each morphism is stored as its triple, which determines the
function, so there is one interned object per function and equality of
morphisms is identity. Composition, factorization and the constructors
below work on triples; the point table is built only where it is read:
for the order of morphisms, their hash, and documents. Each morphism
caches its epi-mono factorization and whether it is an isomorphism, and
composition is memoized on the pair of morphism ids.

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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

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


@lru_cache(maxsize=None)
def points(n: PolyIndex) -> Tuple[Point, ...]:
    return tuple(itertools.product(*[range(x + 1) for x in n]))


@lru_cache(maxsize=None)
def point_pos(n: PolyIndex) -> Dict[Point, int]:
    return {p: i for i, p in enumerate(points(n))}


def concat_index(a: PolyIndex, b: PolyIndex) -> PolyIndex:
    parts = tuple(x for x in a if x > 0) + tuple(x for x in b if x > 0)
    return parts if parts else (0,)


# One object per triple: (source, target, structure) -> its morphism. Only
# triples of the category enter, so a rejected function is derived, and
# raises, every time it is presented; entries are never removed, so `id`
# stays unique.
_INTERNED: Dict[Tuple, "LambdaMorphism"] = {}
# (second.id, first.id) -> second after first
_COMPOSITES: Dict[Tuple[int, int], "LambdaMorphism"] = {}
# checked index -> its identity
_IDENTITIES: Dict[PolyIndex, "LambdaMorphism"] = {}
# the structure of a morphism into [(0,)]
_TO_POINT = (("const", 0),)


class LambdaMorphism:
    """A morphism [m] -> [n] of the index category, stored as its triple.

    `structure` has one entry per target coordinate: ("const", v), or
    ("track", j, alpha) when the coordinate reads source coordinate j
    through the injective value table alpha. The triple is a faithful key
    of the function: a coordinate is constant exactly when the function is
    constant on it, and a tracked table is injective with at least two
    entries, so the coordinate varies with exactly one source coordinate,
    and that coordinate and its table are read off the function. So there
    is one interned object per function, and equality is identity.

    Each object has a small integer `id`. Its point table `mapping` is
    built the first time it is read; key(), the order and the hash are
    those of (source, target, mapping), so sorted and hashed collections
    of morphisms do not depend on the stored form. The constructor takes
    a point table, checks it and derives its triple; it is the one place
    that turns a function into a triple, and documents and pickles go
    through it. Each object caches its epi-mono factorization and whether
    it is an isomorphism.
    """

    __slots__ = ("source", "target", "structure", "id", "_key", "_hash",
                 "_factors", "_iso")

    def __new__(cls, source, target, mapping: Sequence[Point]):
        source, target = check_index(source), check_index(target)
        mapping = tuple(tuple(p) for p in mapping)
        if len(mapping) != len(points(source)):
            raise ValueError("mapping length does not match the source")
        tpos = point_pos(target)
        bad = next((p for p in mapping if p not in tpos), None)
        if bad is not None:
            raise ValueError(f"image point {bad} is not a point of {target}")
        # raises if the function is not in the category
        return _morphism(source, target, _derive_structure(source, target, mapping))

    def __reduce__(self):
        # copies and unpickled objects go through the constructor
        return (LambdaMorphism, self.key())

    @property
    def mapping(self) -> Tuple[Point, ...]:
        return self.key()[2]

    def key(self):
        key = self._key
        if key is None:
            pts = points(self.source)
            columns = [(e[1],) * len(pts) if e[0] == "const"
                       else [e[2][p[e[1]]] for p in pts]
                       for e in self.structure]
            key = self._key = (self.source, self.target, tuple(zip(*columns)))
        return key

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key())
        return h

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return f"Lambda({self.source}->{self.target})"

    def is_injective(self) -> bool:
        # injective exactly when every source coordinate is read
        reads = sum(e[0] == "track" for e in self.structure)
        return reads == (0 if self.source == (0,) else len(self.source))

    def is_surjective(self) -> bool:
        # the image is the product of the coordinate images
        return self.target == (0,) or all(
            e[0] == "track" and len(e[2]) == x + 1
            for e, x in zip(self.structure, self.target))

    def is_iso(self) -> bool:
        iso = self._iso
        if iso is None:
            iso = self._iso = self.is_injective() and self.is_surjective()
        return iso

    def inverse(self) -> "LambdaMorphism":
        if not self.is_iso():
            raise ValueError("not invertible")
        if self.source == (0,):
            return self
        # every coordinate is tracked, by a permutation
        inv = [None] * len(self.source)
        for l, (_, j, alpha) in enumerate(self.structure):
            back = [0] * len(alpha)
            for a, v in enumerate(alpha):
                back[v] = a
            inv[j] = ("track", l, tuple(back))
        return _morphism(self.target, self.source, tuple(inv))


def _morphism(source: PolyIndex, target: PolyIndex, structure) -> LambdaMorphism:
    """The interned morphism of a triple known to lie in the category."""
    key = (source, target, structure)
    g = _INTERNED.get(key)
    if g is None:
        g = object.__new__(LambdaMorphism)
        g.source, g.target, g.structure = key
        g.id = len(_INTERNED)
        g._key = g._hash = g._factors = g._iso = None
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
    inner = first.structure
    out = []
    for e in second.structure:
        if e[0] == "track":
            f, table = inner[e[1]], e[2]
            e = (("const", table[f[1]]) if f[0] == "const"
                 else ("track", f[1], tuple(table[v] for v in f[2])))
        out.append(e)
    hit = _COMPOSITES[ids] = _morphism(first.source, second.target, tuple(out))
    return hit


def identity(n: PolyIndex) -> LambdaMorphism:
    """The identity of [n]; the index is checked on a memo miss only."""
    try:
        return _IDENTITIES[n]
    except (KeyError, TypeError):  # TypeError: an unhashable sequence
        pass
    n = check_index(n)
    structure = _TO_POINT if n == (0,) else tuple(
        ("track", l, tuple(range(x + 1))) for l, x in enumerate(n))
    out = _IDENTITIES[n] = _morphism(n, n, structure)
    return out


def _derive_structure(m: PolyIndex, n: PolyIndex, mapping: Tuple[Point, ...]):
    """The triple of a point table, or raise ValueError."""
    src_pts = points(m)
    out, read = [], set()
    for l in range(len(n)):
        values = [img[l] for img in mapping]
        if len(set(values)) == 1:
            out.append(("const", values[0]))
            continue
        # a non-constant coordinate has a source with at least two points
        for j in range(len(m)):
            table = {}
            if (all(table.setdefault(p[j], v) == v for p, v in zip(src_pts, values))
                    and len(set(table.values())) == m[j] + 1):
                break
        else:
            raise ValueError(
                f"coordinate {l} is not constant and reads no single source"
            )
        if j in read:
            raise ValueError(f"source coordinate {j} is read twice")
        read.add(j)
        out.append(("track", j, tuple(table[a] for a in range(m[j] + 1))))
    return tuple(out)


def from_triple(
    source: PolyIndex,
    target: PolyIndex,
    tracked: Dict[int, Tuple[int, Sequence[int]]],
    constants: Dict[int, int],
) -> LambdaMorphism:
    """The morphism of a triple: tracked[l] = (source coord, alpha value
    table) and constants[l] the value of the untracked coordinates.
    Raises ValueError unless the triple gives a morphism."""
    source, target = check_index(source), check_index(target)
    width = 0 if source == (0,) else len(source)
    structure, read = [], set()
    for l, x in enumerate(target):
        if l in tracked:
            j, alpha = tracked[l][0], tuple(tracked[l][1])
            if not (0 <= j < width and j not in read
                    and len(alpha) == source[j] + 1 == len(set(alpha))
                    and all(0 <= v <= x for v in alpha)):
                raise ValueError(f"coordinate {l} does not read an unread "
                                 f"source coordinate through an injection")
            read.add(j)
            structure.append(("track", j, alpha))
        elif 0 <= constants[l] <= x:
            structure.append(("const", constants[l]))
        else:
            raise ValueError(f"constant {constants[l]} is not a value of coordinate {l}")
    return _morphism(source, target, tuple(structure))


def _width(n: PolyIndex) -> int:
    """The number of coordinates a morphism can read: 0 for the point."""
    return 0 if n == (0,) else len(n)


def _homs_reading(m: PolyIndex, n: PolyIndex, reads: int) -> Iterator[LambdaMorphism]:
    """The morphisms [m] -> [n] that read exactly `reads` source
    coordinates, each once: the choice of those coordinates, the target
    coordinates that read them, an injective value table for each, and a
    constant for every other target coordinate."""
    wn = len(n)
    for J in itertools.combinations(range(_width(m)), reads):
        for targets in itertools.permutations(range(wn), reads):
            if any(m[j] > n[l] for j, l in zip(J, targets)):
                continue
            tables = [itertools.permutations(range(n[l] + 1), m[j] + 1)
                      for j, l in zip(J, targets)]
            const_coords = [l for l in range(wn) if l not in targets]
            values = [range(n[l] + 1) for l in const_coords]
            for alphas in itertools.product(*tables):
                structure = [None] * wn
                for j, l, alpha in zip(J, targets, alphas):
                    structure[l] = ("track", j, alpha)
                for consts in itertools.product(*values):
                    for l, v in zip(const_coords, consts):
                        structure[l] = ("const", v)
                    yield _morphism(m, n, tuple(structure))


@lru_cache(maxsize=None)
def lambda_hom(m: PolyIndex, n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    """All morphisms [m] -> [n], duplicate-free, in canonical order."""
    m, n = check_index(m), check_index(n)
    return tuple(sorted((g for reads in range(min(_width(m), len(n)) + 1)
                         for g in _homs_reading(m, n, reads)), key=LambdaMorphism.key))


@lru_cache(maxsize=None)
def automorphisms(n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    # an isomorphism is onto, and reads every coordinate (see epis_onto)
    n = check_index(n)
    return tuple(sorted((g for g in _homs_reading(n, n, _width(n)) if g.is_iso()),
                        key=LambdaMorphism.key))


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
    """All injective morphisms from canonical indices into [n].

    A morphism from [k] is injective exactly when it reads every source
    coordinate: two points that differ only in an unread coordinate have
    one image. So only the triples that read all of k's coordinates are
    enumerated."""
    return tuple(sorted((g for k in sub_indices(n)
                         for g in _homs_reading(k, n, _width(k))), key=LambdaMorphism.key))


@lru_cache(maxsize=None)
def _generators_into(m: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    """Injections into [m] whose composites give every injection into [m].

    Generators of Aut([m]): on each coordinate the swap of 0 and 1 and the
    cycle v -> v+1, plus the swaps of adjacent equal coordinates. And one
    codimension-1 coface per distinct coordinate size, which drops the last
    point of the first coordinate of that size, or makes it constant 0 when
    the size is 1.
    """
    if m == (0,):
        return ()
    ident = {l: (l, tuple(range(x + 1))) for l, x in enumerate(m)}
    gens = set()
    for l, x in enumerate(m):
        for table in ((1, 0) + ident[l][1][2:], ident[l][1][1:] + (0,)):
            gens.add(from_triple(m, m, {**ident, l: (l, table)}, {}))
        if l + 1 < len(m) and m[l + 1] == x:
            swap = {**ident, l: (l + 1, ident[l][1]), l + 1: (l, ident[l][1])}
            gens.add(from_triple(m, m, swap, {}))
    for x in set(m):
        l = m.index(x)
        sizes = [y - (t == l) for t, y in enumerate(m)]
        kept = sorted((t for t in range(len(m)) if sizes[t]),
                      key=lambda t: (-sizes[t], t))
        tracked = {t: (k, tuple(range(sizes[t] + 1))) for k, t in enumerate(kept)}
        source = tuple(sizes[t] for t in kept) or (0,)
        gens.add(from_triple(source, m, tracked, {} if sizes[l] else {l: 0}))
    return tuple(sorted(gens, key=LambdaMorphism.key))


@lru_cache(maxsize=None)
def epis_onto(m: PolyIndex, n: PolyIndex) -> Tuple[LambdaMorphism, ...]:
    """All epimorphisms [m] ->> [n], in canonical order.

    Only triples that track every coordinate of [n] are enumerated: a
    constant coordinate of an index other than the point misses a value."""
    m, n = check_index(m), check_index(n)
    return tuple(sorted((g for g in _homs_reading(m, n, _width(n)) if g.is_surjective()),
                        key=LambdaMorphism.key))


def epi_mono_factor(gamma: LambdaMorphism) -> Tuple[LambdaMorphism, LambdaMorphism]:
    """gamma = mono . epi with canonically sorted middle index."""
    hit = gamma._factors
    if hit is None:
        hit = gamma._factors = _factor(gamma)
    return hit


def _factor(gamma: LambdaMorphism) -> Tuple[LambdaMorphism, LambdaMorphism]:
    # the epi projects onto the read source coordinates, larger first; the
    # mono reads them in that order through gamma's tables
    m, struct = gamma.source, gamma.structure
    reads = sorted((e[1] for e in struct if e[0] == "track"),
                   key=lambda j: (-m[j], j))
    if not reads:
        return _morphism(m, (0,), _TO_POINT), _morphism((0,), gamma.target, struct)
    mid = tuple(m[j] for j in reads)
    epi = _morphism(m, mid, tuple(
        ("track", j, tuple(range(m[j] + 1))) for j in reads))
    pos = {j: k for k, j in enumerate(reads)}
    mono = _morphism(mid, gamma.target, tuple(
        e if e[0] == "const" else ("track", pos[e[1]], e[2]) for e in struct))
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
        self.stabs = {c: frozenset(stabs[c]) if c in stabs
                      else frozenset([identity(n)])
                      for c, n in self.cells.items()}
        self.faces = dict(faces)
        # keyed on (cell, epi id) and (cell, epi id, gamma id)
        self._canon_cache: Dict[Tuple[str, int], Element] = {}
        self._act_cache: Dict[Tuple[str, int, int], Element] = {}
        if validate:
            self.validate()

    # -- basic accessors -----------------------------------------------------

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
            # all candidates share source and target: least point table
            best = min(compose(theta, epi) for theta in self.stabs[cell])
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
        """Check the normal-form tables and raise ValueError on a fault.

        Checks that each stabilizer is a subgroup of Aut([n]) and that each
        non-invertible injection into [n] has a normal face entry of no
        larger dimension. Then, writing x(d, f) = act(cell_element(d), f),
        x|g = act(x, g) and f*g for f after g, for each cell c and each
        injection iota into [n]:
          (S) x(c, t*iota) = x(c, iota) for t in the stabilizer of c;
          (P) x(c, iota)|g = x(c, iota*g) for g in _generators_into(iota's
              source), or for every morphism g into it when deep.
        These imply (P) for every injection g.

        Proof. By construction of act, (d, e)|g = x(d, e*g); for the
        epi-mono factorization f = mu*tau, x(d, f) = x(d, mu)|tau; and
        acting by an epi only composes and canonicalizes. So (S) gives
        x(d, t*f) = x(d, f) for every f, and (P) along automorphisms gives
        (E) x(d, f)|e = x(d, f*e) for every epi e. Induct on (dim c, word
        length of g in the generators). If iota is invertible,
        x(c, iota) = (c, t*iota) with t in the stabilizer, so
        x(c, iota)|g = x(c, t*iota*g) = x(c, iota*g) by (S). Otherwise
        x(c, iota) = (d, e) with dim d < dim c, and for g = h*g' with h a
        generator, x(c, iota)|g = (x(c, iota)|h)|g' by (M) at d,
        = x(c, iota*h)|g' by (P) at h, = x(c, iota*h*g') by induction on
        word length. (M) is (x|p)|q = x|(p*q) for x = (d, e) and
        injections p, q, given (P) at cells of dimension <= dim d: factor
        e*p = mu*tau and tau*q = mu'*tau'; as mu is injective,
        mu*mu'*tau' is the factorization of e*p*q, and by (P) at d and by
        (S) and (E) at the cell of x(d, mu), both sides are
        (x(d, mu)|mu')|tau'.

        The generators generate: an injection into [m] that is not
        invertible misses a point of some coordinate or is constant on it.
        An automorphism s carries that coordinate and point to the ones
        the coface h of that coordinate size drops, so the injection is
        s*h*g' with g' into a smaller index; Aut([m]) is finite, so s is a
        word in the automorphism generators.
        """
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
        # stabilizer coherence and functoriality along generators (see above)
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
                    else _generators_into(iota.source)
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
        return transitive_closure(le)


def transitive_closure(pairs: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """The transitive closure of a finite relation given by its pairs."""
    succ: Dict[str, Set[str]] = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
        succ.setdefault(b, set())
    for k in succ:  # Warshall: allow paths through k
        for a in succ:
            if k in succ[a]:
                succ[a] |= succ[k]
    return {(a, b) for a in succ for b in succ[a]}


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
    """The polysimplicial set Lambda[n]: cells are the sub-boxes of [n].

    Valid by construction, so it is built without `validate`. The elements
    of Lambda[n] at level [k] are the morphisms [k] -> [n], and the cell of
    a sub-box b is its canonical embedding e_b. An injection into [n] has
    a sub-box as its image and factors uniquely as e_b after an iso, so
    each face entry, the factorization of e_c*iota through the sub-box of
    its image, is a normal element of lower dimension, and the act of the
    tables is composition of morphisms, which is functorial. Distinct
    automorphisms give distinct morphisms e_c*theta, so every stabilizer
    is trivial: a subgroup, and coherence holds vacuously, so the
    constructor's default stabilizers are the right ones.

    The cells and the face table come from `_representable_tables`, which
    keeps them per index; the constructor copies both dicts, so changing
    the returned complex leaves the memo as it was.
    """
    cells, faces = _representable_tables(check_index(n))
    return PolysimplicialSet(cells, {}, faces, validate=False)


@lru_cache(maxsize=None)
def _representable_tables(n: PolyIndex):
    """(cells, faces) of Lambda[n] for a checked index n.

    Kept for the life of the process: the sub-boxes, their indices and
    embeddings, and every face entry are functions of n alone, and the
    morphisms in them are interned, so the tables of a later call would be
    equal entry for entry. Callers must not change the returned dicts."""
    cells = {}
    injections = {}
    box_ids = {}
    for box in _boxes_of(n):
        cid = box_ids[box] = _box_cell_id(box)
        cells[cid] = _box_index(box)
        injections[cid] = _box_injection(box, n)
    faces = {}
    for cid, emb in injections.items():
        for iota in injections_into(cells[cid]):
            if iota.is_iso():
                continue
            comp = compose(emb, iota).structure
            tgt = box_ids[tuple((e[1],) if e[0] == "const" else tuple(sorted(e[2]))
                                for e in comp)]
            # theta reads what comp reads, through the positions of comp's
            # values in the sub-box, so that e_tgt*theta = comp
            theta = [("const", 0)] * len(cells[tgt])
            for e, t in zip(comp, injections[tgt].structure):
                if t[0] == "track":
                    theta[t[1]] = ("track", e[1], tuple(t[2].index(v) for v in e[2]))
            faces[(cid, iota)] = Element(tgt, _morphism(iota.source, cells[tgt],
                                                        tuple(theta)))
    return cells, faces


def poly_point() -> PolysimplicialSet:
    return representable((0,))


def disjoint_union(A: PolysimplicialSet, B: PolysimplicialSet) -> PolysimplicialSet:
    """A + B, with the cells of A renamed L.c and those of B R.c.

    Valid by construction when A and B are, so it is built without
    `validate`: the stabilizers are copied, and every face entry stays
    inside its summand, so act on an L. or R. element is act in A or B
    under the renaming, and the checks hold because they hold there.
    """
    cells = {}
    stabs = {}
    faces = {}
    for tag, X in (("L", A), ("R", B)):
        for c, n in X.cells.items():
            cells[f"{tag}.{c}"] = n
            stabs[f"{tag}.{c}"] = X.stabs[c]
        for (c, iota), e in X.faces.items():
            faces[(f"{tag}.{c}", iota)] = Element(f"{tag}.{e.cell}", e.epi)
    return PolysimplicialSet(cells, stabs, faces, validate=False)


def _pair_id(a: str, b: str) -> str:
    return f"({a})*({b})"


def _split_morphism(gamma: LambdaMorphism, na: PolyIndex,
                    nb: PolyIndex) -> Tuple[LambdaMorphism, LambdaMorphism]:
    """Split [k] -> [na ++ nb] into its blocks [k] -> [na] and [k] -> [nb]."""
    wa = 0 if na == (0,) else len(na)
    s = gamma.structure
    return (_morphism(gamma.source, na, s[:wa] if wa else _TO_POINT),
            _morphism(gamma.source, nb, s[wa:] if nb != (0,) else _TO_POINT))


# (id of the A epi, id of the B epi) -> their joined face epi, and (id of
# the A automorphism, id of the B one) -> the stabilizer element they give
# the product; ids are unique, as for _COMPOSITES
_FACE_EPIS: Dict[Tuple[int, int], LambdaMorphism] = {}
_STABILIZER_ELEMENTS: Dict[Tuple[int, int], LambdaMorphism] = {}


def _face_epi(sa: LambdaMorphism, sb: LambdaMorphism) -> LambdaMorphism:
    """Join epis with disjoint tracked sets into one epi onto the
    concatenated index, read back through its sorting iso.

    Memoized on the pair of epi ids: the join and the sorting iso of its
    target are functions of the two epis alone."""
    ids = (sa.id, sb.id)
    hit = _FACE_EPIS.get(ids)
    if hit is None:
        na, nb = sa.target, sb.target
        s = (sa.structure if na != (0,) else ()) + (sb.structure if nb != (0,) else ())
        raw = concat_index(na, nb)
        joined = _morphism(sa.source, raw, s or _TO_POINT)
        hit = _FACE_EPIS[ids] = compose(_sorting_iso(raw).inverse(), joined)
    return hit


@lru_cache(maxsize=None)
def _sorting_iso(raw: PolyIndex) -> LambdaMorphism:
    """Canonical iso [canonical(raw)] -> [raw] permuting coordinates; a
    function of raw alone, so it is kept per index."""
    canon = canonical_index(raw)
    if raw == (0,):
        return identity((0,))
    order = sorted(range(len(raw)), key=lambda l: (-raw[l], l))
    # order[k] is the raw coordinate shown at canonical position k
    tracked = {}
    for k, l in enumerate(order):
        tracked[l] = (k, tuple(range(raw[l] + 1)))
    return from_triple(canon, raw, tracked, {})


@lru_cache(maxsize=None)
def _box_face_plan(na: PolyIndex, nb: PolyIndex):
    """(iota, ga, gb) for each non-invertible injection iota into the
    canonical index of na ++ nb, with (ga, gb) the split of rho*iota for
    rho its sorting iso.

    Kept per index pair: the injections, rho and the split read na and nb
    only, never a complex, so every product of a cell of index na with
    one of index nb shares the plan."""
    rho = _sorting_iso(concat_index(na, nb))
    return tuple((iota, *_split_morphism(compose(rho, iota), na, nb))
                 for iota in injections_into(rho.source) if not iota.is_iso())


def box_product(A: PolysimplicialSet, B: PolysimplicialSet) -> PolysimplicialSet:
    """Cellwise concatenation product: cells are pairs, indices concatenate.

    Valid by construction when A and B are, so it is built without
    `validate`. A morphism g into [na ++ nb] is a pair (ga, gb) into [na]
    and [nb] whose tracked source coordinates are disjoint, and g*h splits
    as (ga*h, gb*h). The cell (ca, cb) is read through the sorting iso rho
    from its canonical index onto [na ++ nb]; its face along iota is
    (act(ca, ga), act(cb, gb)) for (ga, gb) the split of rho*iota, joined
    and read back through the sorting iso of the target pair. The joined
    epi is surjective, as both factor epis are and they read disjoint
    coordinates, and of no larger dimension than iota's source. So act on
    the product is act on each factor, which is functorial because A and
    B are. The automorphisms of [na ++ nb] that fix (ca, cb) are the
    blockwise pairs (ta, tb) of factor stabilizer elements: one that
    swaps a coordinate of the A block with one of the B block changes
    which coordinates the A part reads. So the stabilizer is the product
    of the factor stabilizers conjugated by rho, a subgroup, and a face
    entry along theta*iota is the pair of factor entries along ta*ga and
    tb*gb, which are coherent in A and B.

    Only the two act calls and the stabilizers read A and B: the triples
    (iota, ga, gb) come from `_box_face_plan`, kept per index pair, and
    the joined epis from `_face_epi`, kept per pair of factor epis.
    """
    cells = {}
    stabs = {}
    faces = {}
    for ca, na in A.cells.items():
        xa = A.cell_element(ca)
        for cb, nb in B.cells.items():
            xb = B.cell_element(cb)
            cid = _pair_id(ca, cb)
            cells[cid] = canonical_index(concat_index(na, nb))
            stabs[cid] = frozenset(_stabilizer_element(ta, tb)
                                   for ta in A.stabs[ca] for tb in B.stabs[cb])
            for iota, ga, gb in _box_face_plan(na, nb):
                ea = A.act(xa, ga)
                eb = B.act(xb, gb)
                faces[(cid, iota)] = Element(_pair_id(ea.cell, eb.cell),
                                             _face_epi(ea.epi, eb.epi))
    return PolysimplicialSet(cells, stabs, faces, validate=False)


def _stabilizer_element(ta: LambdaMorphism, tb: LambdaMorphism) -> LambdaMorphism:
    """The blockwise automorphism of [na ++ nb] from automorphisms of [na]
    and [nb], with the B block reading its source coordinates shifted past
    A's, conjugated by the sorting iso onto the canonical index.

    Memoized on the pair of ids: the result is a function of ta and tb
    alone."""
    ids = (ta.id, tb.id)
    hit = _STABILIZER_ELEMENTS.get(ids)
    if hit is None:
        wa = 0 if ta.target == (0,) else len(ta.target)
        s = (ta.structure if wa else ()) + tuple(
            ("track", e[1] + wa, e[2]) for e in tb.structure if e[0] == "track")
        raw = concat_index(ta.target, tb.target)
        rho = _sorting_iso(raw)
        joint = _morphism(raw, raw, s or _TO_POINT)
        hit = _STABILIZER_ELEMENTS[ids] = compose(rho.inverse(), compose(joint, rho))
    return hit
