"""Currents on branch graphs: antisymmetric, Kirchhoff-balanced branch data.

Coefficients live in Z or Z/n. Cusp branches have no partner, so only the
vertex law constrains them; they still enter every Kirchhoff sum. A current
stores its support: the branches where its reduced value is nonzero.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graphs import Branch, BranchGraph
from .intlin import FgAbGroup


class Current:
    """Branch-valued function with C(iota b) = -C(b) and zero vertex sums.

    `values` holds the nonzero reduced values; `c[b]` is 0 off them. The
    constructor only reduces the values. Data from outside the library
    goes through `validate`, which checks that every key is a branch,
    antisymmetry and Kirchhoff's law; `add`, `scale`, `reduce_mod`,
    automorphisms and `path_current` keep both laws by construction.
    """

    def __init__(
        self,
        graph: BranchGraph,
        values: Dict[Branch, int],
        modulus: Optional[int] = None,
    ):
        self.graph = graph
        self.modulus = modulus
        if modulus:
            values = {b: x % modulus for b, x in values.items()}
        self.values = {b: x for b, x in values.items() if x}

    @cached_property
    def boundary(self) -> Dict[str, int]:
        """The nonzero vertex sums (Kirchhoff defects), by vertex."""
        m, G = self.modulus, self.graph
        sums: Dict[str, int] = {}
        for b, x in self.values.items():
            v = G.psi(b)
            sums[v] = sums.get(v, 0) + x
        return {v: s % m if m else s for v, s in sorted(sums.items()) if not self._zero(s)}

    def validate(self) -> "Current":
        """Check the modulus, the keys, antisymmetry and Kirchhoff's law;
        return self."""
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        edges = self.graph.edges
        for b in sorted(self.values):
            e, slot = b
            if e not in edges or slot not in range(len(edges[e])):
                raise ValueError(f"graph has no branch {e} {slot}")
            if len(edges[e]) == 2 and not self._zero(self.values[b] + self[(e, 1 - slot)]):
                raise ValueError(f"antisymmetry fails on edge {e}")
        if self.boundary:
            raise ValueError(f"Kirchhoff law fails at {sorted(self.boundary)}")
        return self

    def _zero(self, x: int) -> bool:
        return x % self.modulus == 0 if self.modulus else x == 0

    def __getitem__(self, b: Branch) -> int:
        return self.values.get(b, 0)

    def __eq__(self, other):
        return (
            isinstance(other, Current)
            and self.modulus == other.modulus
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.modulus, tuple(sorted(self.values.items()))))

    def add(self, other: "Current") -> "Current":
        if other.graph is not self.graph and other.graph.edges != self.graph.edges:
            raise ValueError("currents live on different graphs")
        if other.modulus != self.modulus:
            rings = [f"Z/{m}" if m else "Z" for m in (self.modulus, other.modulus)]
            raise ValueError(f"cannot add currents with coefficients in {rings[0]} and {rings[1]}")
        vals = dict(self.values)
        for b, x in other.values.items():
            vals[b] = vals.get(b, 0) + x
        return Current(self.graph, vals, self.modulus)

    def scale(self, k: int) -> "Current":
        return Current(self.graph, {b: k * v for b, v in self.values.items()}, self.modulus)

    def reduce_mod(self, n: int) -> "Current":
        """The image in Z/n; a Z/m current has one only when n divides m."""
        if n < 2:
            raise ValueError("modulus must be >= 2")
        if self.modulus and self.modulus % n:
            raise ValueError(f"cannot reduce a Z/{self.modulus} current mod {n}: "
                             f"{n} does not divide {self.modulus}")
        return Current(self.graph, self.values, n)

    @classmethod
    def zero(cls, graph: BranchGraph, modulus: Optional[int] = None) -> "Current":
        return cls(graph, {}, modulus)


def current_group(
    G: BranchGraph, modulus: Optional[int] = None
) -> Tuple[FgAbGroup, List[Current]]:
    """The group of currents, over Z or over Z/modulus, with a basis.

    The basis has one current around the fundamental cycle of each chord,
    in chord order, then one for each cusp after the first cusp of its
    component: it flows in along that cusp, along the tree path to the
    first cusp's vertex, and out along the first cusp. The group is
    k = len(basis) copies of Z, or of Z/n; a modulus below 2 is refused.

    Why: substituting C(e,1) = -C(e,0) leaves the vertex laws, in one
    unknown per real edge and one per cusp. Append, for each component
    with cusps, minus the sum of its laws, which they imply. The laws are
    then the incidence matrix of G with one extra vertex per such
    component, joined to its cusps. Each column has at most one +1 and one
    -1, so the matrix is totally unimodular (Schrijver, Theory of Linear
    and Integer Programming, 1986, section 19.3) and every nonzero Smith
    invariant is 1. So the kernel is free over Z, and over Z/n it is the
    reduction of the Z kernel, (Z/n)^k. The fundamental cycles of the
    spanning forest of G, extended by each component's first cusp, form a
    Z-basis of that kernel: they are the currents above.
    """
    if modulus is not None and modulus < 2:
        raise ValueError("modulus must be >= 2")
    # (values off the path, tree path) for each basis current
    paths = []
    for e in G.chords():
        u, w = G.edges[e]
        paths.append(({}, G.tree_path(w, u) + [(e, +1)]))
    component = {v: k for k, vs in enumerate(G.components()) for v in vs}
    first: Dict[int, str] = {}
    for c in sorted(G.cusp_edges(), key=lambda c: component[G.edges[c][0]]):
        (v,) = G.edges[c]
        c0 = first.setdefault(component[v], c)
        if c0 != c:
            paths.append(({(c, 0): 1, (c0, 0): -1}, G.tree_path(v, G.edges[c0][0])))
    basis = []
    for values, path in paths:
        for e, d in path:
            values[(e, 0)], values[(e, 1)] = -d, d
        basis.append(Current(G, values, modulus))
    k = len(basis)
    return (FgAbGroup(k) if modulus is None else FgAbGroup(0, (modulus,) * k)), basis


class PathCurrentResult(NamedTuple):
    current: Optional[Current]
    values: Dict[Branch, int]
    boundary: Dict[str, int]


def path_current(
    G: BranchGraph, path: Sequence[Tuple[str, int]], closed: Optional[bool] = None
) -> PathCurrentResult:
    """Unit current along an oriented edge path.

    Each step is (edge, direction); direction +1 traverses from slot 0 to
    slot 1. A closed cycle gives a true current; an open path returns the
    boundary defects at its two endpoints instead of failing.
    """
    if not path:
        raise ValueError("empty path")
    values: Dict[Branch, int] = {}
    seq = []
    used_edges = set()
    for e, d in path:
        if e not in G.edges or len(G.edges[e]) != 2:
            raise ValueError(f"path step {e} is not a real edge")
        if e in used_edges:
            raise ValueError(f"path repeats edge {e}")
        used_edges.add(e)
        u, w = G.edges[e]
        src, dst = (u, w) if d == +1 else (w, u)
        arrive = (e, 1) if d == +1 else (e, 0)
        depart = (e, 0) if d == +1 else (e, 1)
        values[arrive] = values.get(arrive, 0) + 1
        values[depart] = values.get(depart, 0) - 1
        seq.append((src, dst))
    for (_, dst), (nsrc, _) in zip(seq, seq[1:]):
        if dst != nsrc:
            raise ValueError("path steps do not chain")
    interior = [dst for (_, dst) in seq[:-1]]
    if len(set(interior)) != len(interior):
        raise ValueError("path revisits a vertex")
    start, end = seq[0][0], seq[-1][1]
    if start in interior or (end in interior and end != start):
        raise ValueError("path revisits a vertex")
    is_closed = start == end
    if closed is not None and closed != is_closed:
        raise ValueError("path closure does not match expectation")
    cur = Current(G, values)
    return PathCurrentResult(
        current=cur if is_closed else None,
        values=cur.values,
        boundary={} if is_closed else cur.boundary,
    )


class SubgraphStar:
    """A subgraph K and the set of edges meeting it."""

    def __init__(self, graph: BranchGraph, vertices: Set[str], edges: Set[str]):
        if not set(vertices) <= set(graph.vertices):
            raise ValueError("subgraph vertices not in graph")
        for e in edges:
            if not set(graph.edges[e]) <= set(vertices):
                raise ValueError(f"subgraph edge {e} leaves the vertex set")
        self.graph, self.vertices, self.edges = graph, vertices, edges

    def star_edges(self) -> Set[str]:
        return {
            e
            for e, ends in self.graph.edges.items()
            if any(v in self.vertices for v in ends)
        }


def vanishes_on_star(
    current: Current, K: SubgraphStar, modulus: Optional[int] = None
) -> bool:
    """Is the current zero (mod the given modulus) on every branch of the
    edges meeting K?"""
    m = modulus if modulus is not None else current.modulus
    for e in sorted(K.star_edges()):
        for slot in range(len(current.graph.edges[e])):
            v = current[(e, slot)]
            if (v % m if m else v) != 0:
                return False
    return True


class GraphAutomorphism:
    """Vertex/edge/branch permutation of a branch graph.

    Equal and hashed as the tuple of its sorted vertex, edge and slot maps;
    each map is also kept as a dict, built once. `make` validates the maps
    on a graph; `compose` of two automorphisms of one graph is one by
    construction and is not re-checked.
    """

    def __init__(self, vmap: Dict[str, str], emap: Dict[str, str], smap: Dict[str, int]):
        self._v, self._e, self._s = vmap, emap, smap  # smap: edge -> image slot of slot 0
        self.vertex_map, self.edge_map, self.slot_map = (
            tuple(sorted(m.items())) for m in (vmap, emap, smap))

    def _fields(self):
        return self.vertex_map, self.edge_map, self.slot_map

    def __eq__(self, other):
        if other.__class__ is not GraphAutomorphism:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    @classmethod
    def make(cls, G: BranchGraph, vmap: Dict[str, str], emap: Dict[str, str],
             smap: Dict[str, int]) -> "GraphAutomorphism":
        g = cls(dict(vmap), dict(emap), dict(smap))
        g.validate(G)
        return g

    def v(self, x: str) -> str:
        return self._v[x]

    def e(self, x: str) -> str:
        return self._e[x]

    def branch(self, G: BranchGraph, b: Branch) -> Branch:
        e, slot = b
        img = self._e[e]
        if len(G.edges[e]) == 1:
            return (img, 0)
        s0 = self._s[e]
        return (img, s0 if slot == 0 else 1 - s0)

    def validate(self, G: BranchGraph):
        vmap, emap = self._v, self._e
        if sorted(vmap) != list(G.vertices) or sorted(vmap.values()) != list(
            G.vertices
        ):
            raise ValueError("vertex map is not a permutation")
        if sorted(emap) != sorted(G.edges) or sorted(emap.values()) != sorted(
            G.edges
        ):
            raise ValueError("edge map is not a permutation")
        for b in G.branches():
            if vmap[G.psi(b)] != G.psi(self.branch(G, b)):
                raise ValueError(f"automorphism breaks psi at {b}")
            pb = G.iota(b)
            if pb is not None and self.branch(G, pb) != G.iota(self.branch(G, b)):
                raise ValueError(f"automorphism breaks iota at {b}")

    def compose(self, other: "GraphAutomorphism", G: BranchGraph) -> "GraphAutomorphism":
        vmap = {x: self.v(other.v(x)) for x in G.vertices}
        emap = {x: self.e(other.e(x)) for x in G.edges}
        smap = {}
        for e in G.edges:
            if len(G.edges[e]) == 2:
                smap[e] = self.branch(G, other.branch(G, (e, 0)))[1]
        return GraphAutomorphism(vmap, emap, smap)

    def act(self, current: Current) -> Current:
        G = current.graph
        vals = {self.branch(G, b): x for b, x in current.values.items()}
        return Current(G, vals, current.modulus)


def equivariant_average(
    G: BranchGraph,
    group: Sequence[GraphAutomorphism],
    c0: Current,
    stabilizer: Sequence[GraphAutomorphism],
) -> Current:
    """Sum of g . c0 over coset representatives of the stabilizer.

    Each group element is validated on G once, here, so their products are
    automorphisms of G without a check. The group must be closed under
    composition, and the stabilizer a nonempty subset of it that fixes c0.
    Then the cosets gH partition the group, g . c0 depends only on the
    coset of g, and left multiplication by k permutes the cosets, so k
    permutes the summands: the averaged current is invariant under the
    whole acting group by construction, and is not re-checked.
    """
    elements, stab = list(group), list(stabilizer)
    for g in elements:
        g.validate(G)
    members = set(elements)
    products = {(g, h): g.compose(h, G) for g in elements for h in elements}
    if not members.issuperset(products.values()):
        raise ValueError("group is not closed under composition")
    if not stab or not members.issuperset(stab):
        raise ValueError("stabilizer must be a nonempty subset of the group")
    for h in stab:
        if h.act(c0) != c0:
            raise ValueError("given stabilizer does not fix the current")
    seen = set()
    reps = []
    for g in elements:
        coset = frozenset(products[g, h] for h in stab)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    total = Current.zero(G, c0.modulus)
    for g in reps:
        total = total.add(g.act(c0))
    return total.validate()
