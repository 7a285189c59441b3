"""Currents on branch graphs: antisymmetric, Kirchhoff-balanced branch data.

Coefficients live in Z or Z/n. Cusp branches have no partner, so only the
vertex law constrains them; they still enter every Kirchhoff sum.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graphs import Branch, BranchGraph
from .intlin import FgAbGroup, IntMatrix, kernel_rank, solution_group_mod


class Current:
    """Branch-valued function with C(iota b) = -C(b) and zero vertex sums.

    The constructor only reduces the values. Data from outside the library
    goes through `validate`, which checks antisymmetry and Kirchhoff's law;
    `add`, `scale`, `reduce_mod`, automorphisms and `path_current` keep
    both laws by construction.
    """

    def __init__(
        self,
        graph: BranchGraph,
        values: Dict[Branch, int],
        modulus: Optional[int] = None,
    ):
        self.graph = graph
        self.modulus = modulus
        self.values = {
            b: values.get(b, 0) % modulus if modulus else values.get(b, 0)
            for b in graph.branches()
        }

    @cached_property
    def boundary(self) -> Dict[str, int]:
        """The nonzero vertex sums (Kirchhoff defects), by vertex."""
        m, G = self.modulus, self.graph
        sums = {v: sum(self.values[b] for b in G.branches_at(v)) for v in G.vertices}
        return {v: s % m if m else s for v, s in sums.items() if not self._zero(s)}

    def validate(self) -> "Current":
        """Check the modulus, antisymmetry and Kirchhoff's law; return self."""
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        for b in self.graph.branches():
            pb = self.graph.iota(b)
            if pb is not None and not self._zero(self.values[b] + self.values[pb]):
                raise ValueError(f"antisymmetry fails on edge {b[0]}")
        if self.boundary:
            raise ValueError(f"Kirchhoff law fails at {sorted(self.boundary)}")
        return self

    def _zero(self, x: int) -> bool:
        return x % self.modulus == 0 if self.modulus else x == 0

    def __getitem__(self, b: Branch) -> int:
        return self.values[b]

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
        vals = {b: self.values[b] + other.values[b] for b in self.values}
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


def _constraint_matrix(G: BranchGraph) -> Tuple[IntMatrix, List[Branch]]:
    branches = G.branches()
    idx = {b: i for i, b in enumerate(branches)}
    rows = []
    for e in G.real_edges():
        row = [0] * len(branches)
        row[idx[(e, 0)]] = 1
        row[idx[(e, 1)]] = 1
        rows.append(row)
    for v in G.vertices:
        row = [0] * len(branches)
        for b in G.branches_at(v):
            row[idx[b]] += 1
        rows.append(row)
    return IntMatrix(len(rows), len(branches), [x for r in rows for x in r]), branches


def current_group(
    G: BranchGraph, modulus: Optional[int] = None
) -> Tuple[FgAbGroup, List[Current]]:
    """The group of currents with an explicit fundamental-cycle basis.

    Over Z the group is free of rank equal to the cycle rank; over Z/n it
    is the reduction, computed honestly from the constraint matrix.
    """
    M, _ = _constraint_matrix(G)
    if modulus is None:
        group = FgAbGroup(kernel_rank(M))
    else:
        group = solution_group_mod(M, modulus)
    basis = []
    for e in G.chords():
        u, w = G.edges[e]
        path = G.tree_path(w, u) + [(e, +1)]
        basis.append(path_current(G, path, closed=True).current)
    if modulus:
        basis = [c.reduce_mod(modulus) for c in basis]
    return group, basis


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
            v = current.values[(e, slot)]
            if (v % m if m else v) != 0:
                return False
    return True


class GraphAutomorphism(NamedTuple):
    """Vertex/edge/branch permutation of a branch graph."""

    vertex_map: Tuple[Tuple[str, str], ...]
    edge_map: Tuple[Tuple[str, str], ...]
    slot_map: Tuple[Tuple[str, int], ...]  # edge -> image slot of slot 0

    @classmethod
    def make(cls, G: BranchGraph, vmap: Dict[str, str], emap: Dict[str, str],
             smap: Dict[str, int]) -> "GraphAutomorphism":
        g = cls(
            tuple(sorted(vmap.items())),
            tuple(sorted(emap.items())),
            tuple(sorted(smap.items())),
        )
        g.validate(G)
        return g

    def v(self, x: str) -> str:
        return dict(self.vertex_map)[x]

    def e(self, x: str) -> str:
        return dict(self.edge_map)[x]

    def branch(self, G: BranchGraph, b: Branch) -> Branch:
        e, slot = b
        smap = dict(self.slot_map)
        img = self.e(e)
        if len(G.edges[e]) == 1:
            return (img, 0)
        s0 = smap[e]
        return (img, s0 if slot == 0 else 1 - s0)

    def validate(self, G: BranchGraph):
        vmap, emap = dict(self.vertex_map), dict(self.edge_map)
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
        return GraphAutomorphism.make(G, vmap, emap, smap)

    def act(self, current: Current) -> Current:
        G = current.graph
        inv_branch = {}
        for b in G.branches():
            inv_branch[self.branch(G, b)] = b
        vals = {b: current.values[inv_branch[b]] for b in G.branches()}
        return Current(G, vals, current.modulus)


def equivariant_average(
    G: BranchGraph,
    group: Sequence[GraphAutomorphism],
    c0: Current,
    stabilizer: Sequence[GraphAutomorphism],
) -> Current:
    """Sum of g . c0 over coset representatives of the stabilizer.

    The stabilizer must actually fix c0; the averaged current is invariant
    under the whole acting group by construction, and this is re-checked.
    """
    stab = list(stabilizer)
    for h in stab:
        if h.act(c0) != c0:
            raise ValueError("given stabilizer does not fix the current")
    elements = list(group)
    seen = set()
    reps = []
    for g in elements:
        coset = frozenset(g.compose(h, G) for h in stab)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    total = Current.zero(G, c0.modulus)
    for g in reps:
        total = total.add(g.act(c0))
    result = total.validate()
    for g in elements:
        if g.act(result) != result:
            raise AssertionError("averaged current is not invariant")
    return result
