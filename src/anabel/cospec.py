"""Cospecialization maps: strata posets, induced polysimplicial morphisms,
and semistable-curve graph cospecialization."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

# the functions below import the modules they run, so a poset document
# (the `cospec` command) loads none of graphs, poly and poly_ops
if TYPE_CHECKING:
    from .graphs import BranchGraph, GeneralizedMorphism
    from .poly import PolysimplicialSet
    from .poly_ops import PolyMorphism


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


class Poset:
    """Finite poset given by elements and either covering or full relations."""

    def __init__(self, elements: Sequence[str], le_pairs: Sequence[Tuple[str, str]]):
        self.elements: Tuple[str, ...] = tuple(sorted(str(e) for e in elements))
        els = set(self.elements)
        if len(els) != len(self.elements):
            raise ValueError("duplicate poset elements")
        rel = {(e, e) for e in self.elements}
        for a, b in le_pairs:
            if a not in els or b not in els:
                raise ValueError(f"relation ({a}, {b}) references unknown element")
            rel.add((str(a), str(b)))
        rel = transitive_closure(rel)
        for (a, b) in sorted(rel):
            if a != b and (b, a) in rel:
                raise ValueError(f"antisymmetry fails between {a} and {b}")
        self.le: Set[Tuple[str, str]] = rel

    def leq(self, a: str, b: str) -> bool:
        return (a, b) in self.le

    def minima(self) -> List[str]:
        return [
            e
            for e in self.elements
            if all(not self.leq(x, e) for x in self.elements if x != e)
        ]

    def maxima_of(self, subset: Sequence[str]) -> List[str]:
        subset = list(subset)
        return [
            e
            for e in subset
            if all(not self.leq(e, x) for x in subset if x != e)
        ]

    def is_monotone(self, other: "Poset", mapping: Dict[str, str]) -> bool:
        return all(
            other.leq(mapping[a], mapping[b])
            for (a, b) in self.le
        )

    def __repr__(self):
        covers = sorted(
            (a, b)
            for (a, b) in self.le
            if a != b
            and not any(
                c not in (a, b) and self.leq(a, c) and self.leq(c, b)
                for c in self.elements
            )
        )
        return f"Poset({list(self.elements)!r}, {covers!r})"


class ClosureIncidence:
    """Relation R(x2, x1): the S1-stratum x1 lies in the closure of x2."""

    def __init__(self, s1: Poset, s2: Poset, pairs: Iterable[Tuple[str, str]] = ()):
        self.s1, self.s2 = s1, s2
        self.pairs: Set[Tuple[str, str]] = {(str(a), str(b)) for a, b in pairs}
        for (x2, x1) in self.pairs:
            if x2 not in self.s2.elements or x1 not in self.s1.elements:
                raise ValueError(f"incidence pair ({x2}, {x1}) out of range")
        for (x2, x1) in self.pairs:
            for x2p in self.s2.elements:
                if self.s2.leq(x2p, x2) and (x2p, x1) not in self.pairs:
                    raise ValueError(
                        "incidence is not downward closed: "
                        f"({x2p}, {x1}) missing below ({x2}, {x1})"
                    )

    def fiber(self, x1: str) -> List[str]:
        return sorted(x2 for (x2, y1) in self.pairs if y1 == x1)


def strata_poset(C: PolysimplicialSet) -> Poset:
    """The poset of nondegenerate cell classes under the restriction order."""
    pairs = C.strata_order_pairs()
    return Poset(sorted(C.cells), [(a, b) for (a, b) in pairs if a != b])


class CospecError(ValueError):
    pass


class NonUniqueMax(CospecError):
    def __init__(self, x1, antichain):
        super().__init__(
            f"stratum {x1} has no unique maximal cospecialization: {sorted(antichain)}"
        )
        self.x1 = x1
        self.antichain = antichain


class EmptyFiber(CospecError):
    def __init__(self, x1):
        super().__init__(f"stratum {x1} has an empty cospecialization fiber")
        self.x1 = x1


def cospec_strata(S1: Poset, S2: Poset, R: ClosureIncidence) -> Dict[str, str]:
    """Send each S1-stratum to the unique maximal S2-stratum whose closure
    contains it; validated to be monotone and minima-preserving."""
    if R.s1 is not S1 or R.s2 is not S2:
        if R.s1.elements != S1.elements or R.s2.elements != S2.elements:
            raise ValueError("incidence does not relate the given posets")
    out = {}
    for x1 in S1.elements:
        fiber = R.fiber(x1)
        if not fiber:
            raise EmptyFiber(x1)
        maxima = S2.maxima_of(fiber)
        if len(maxima) != 1:
            raise NonUniqueMax(x1, maxima)
        out[x1] = maxima[0]
    if not S1.is_monotone(S2, out):
        raise CospecError("cospecialization is not monotone for this incidence")
    min2 = set(S2.minima())
    for x1 in S1.minima():
        if out[x1] not in min2:
            raise CospecError(
                f"minimal stratum {x1} maps to the non-minimal {out[x1]}"
            )
    return out


def cospec_compose(
    f12: Dict[str, str], f23: Dict[str, str], f13: Optional[Dict[str, str]] = None
) -> Dict[str, str]:
    """Compose cospecialization maps; verify coherence when f13 is given."""
    if any(v not in f23 for v in f12.values()):
        raise ValueError("maps are not composable")
    comp = {k: f23[f12[k]] for k in f12}
    if f13 is not None:
        bad = sorted(k for k in comp if f13.get(k) != comp[k])
        if bad:
            raise CospecError(
                f"composition coherence fails at {bad}: "
                f"{ {k: (comp[k], f13.get(k)) for k in bad} }"
            )
    return comp


def cospec_polysimplicial(
    C1: PolysimplicialSet,
    C2: PolysimplicialSet,
    class_map: Dict[str, str],
) -> PolyMorphism:
    """The unique morphism C1 -> C2 inducing the given map on strata.

    class_map sends cells of C1 to cells of C2. The element over each cell
    is found by constraint search; when the target is interiorly free the
    morphism is unique, and this is asserted. A strata map admitting no
    morphism (the compatibility square fails) raises ValueError.
    """
    from .poly import Element, epis_onto
    from .poly_ops import _natural_maps

    for c in C1.cells:
        if c not in class_map or class_map[c] not in C2.cells:
            raise ValueError(f"cell {c} has no valid image class")

    def candidates(c, cmap):
        y = class_map[c]
        return dict.fromkeys(
            C2.canonical(Element(y, epi))
            for epi in epis_onto(C1.cells[c], C2.cells[y])
        )

    morphisms = _natural_maps(C1, C2, candidates)
    morphism = next(morphisms, None)
    if morphism is None:
        raise ValueError(
            "no morphism realizes the strata map; the compatibility square fails"
        )
    if C2.is_interiorly_free() and next(morphisms, None) is not None:
        raise AssertionError("interiorly free target admitted two realizations")
    smap = morphism.strata_map()
    if smap != {c: class_map[c] for c in C1.cells}:
        raise ValueError("constructed morphism induces a different strata map")
    return morphism


def curve_cospec(
    G1: BranchGraph,
    G2: BranchGraph,
    vertex_map: Dict[str, str],
    edge_fate: Dict[str, Tuple],
) -> GeneralizedMorphism:
    """Build the generalized graph morphism of a semistable degeneration.

    edge_fate maps each edge of G1 either to ("keep", target edge, branch
    slot map) or to ("collapse", target vertex). The result is a true
    morphism exactly when nothing collapses.
    """
    from .graphs import GeneralizedMorphism

    emap = {}
    bmaps = {}
    for e in G1.edges:
        fate = edge_fate.get(e)
        if fate is None:
            raise ValueError(f"edge {e} has no fate")
        if fate[0] == "keep":
            _, tgt, bmap = fate
            emap[e] = ("edge", tgt)
            bmaps[e] = dict(bmap)
        elif fate[0] == "collapse":
            emap[e] = ("vertex", fate[1])
        else:
            raise ValueError(f"unknown fate {fate[0]} for edge {e}")
    kept = [e for e in emap if emap[e][0] == "edge"]
    targets = [emap[e][1] for e in kept]
    if len(set(targets)) != len(targets):
        raise ValueError("kept edges do not map injectively")
    return GeneralizedMorphism(G1, G2, dict(vertex_map), emap, bmaps).validate()
