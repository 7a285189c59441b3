"""Finite graphs with explicit branches, covers, and the cycle-sum rigidity test.

Edges carry one or two branches; a one-branch edge is a cusp. Branches are
addressed as (edge_id, slot) with slot 0 or 1, and the branch involution
swaps the two slots of a real edge. Covers are represented by permutation
assignments on the non-tree edges, deduplicated under simultaneous
conjugation of the fibers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

Branch = Tuple[str, int]


class BranchGraph:
    """Vertices, edges with 1 or 2 branches, fixed-point-free pairing."""

    def __init__(self, vertices: Sequence[str], edges: Dict[str, Tuple]):
        self.vertices: Tuple[str, ...] = tuple(sorted(str(v) for v in vertices))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.edges: Dict[str, Tuple[str, ...]] = {}
        for e, ends in sorted(edges.items()):
            ends = tuple(str(v) for v in ends)
            if len(ends) not in (1, 2):
                raise ValueError(f"edge {e} must have 1 or 2 endpoints")
            if any(v not in vs for v in ends):
                raise ValueError(f"edge {e} references unknown vertex")
            self.edges[str(e)] = ends
        # edges is never written after construction, so the branch list and
        # the incidence of each vertex are derived once here
        self._branches: Tuple[Branch, ...] = tuple(
            (e, slot) for e in sorted(self.edges) for slot in range(len(self.edges[e]))
        )
        self._branches_at: Dict[str, List[Branch]] = {v: [] for v in self.vertices}
        for e, slot in self._branches:
            self._branches_at[self.edges[e][slot]].append((e, slot))

    def __repr__(self):
        return f"BranchGraph({list(self.vertices)!r}, {self.edges!r})"

    # -- branch structure ---------------------------------------------------

    def real_edges(self) -> List[str]:
        return sorted(e for e, ends in self.edges.items() if len(ends) == 2)

    def cusp_edges(self) -> List[str]:
        return sorted(e for e, ends in self.edges.items() if len(ends) == 1)

    def branches(self) -> List[Branch]:
        return list(self._branches)

    def psi(self, b: Branch) -> str:
        e, slot = b
        return self.edges[e][slot]

    def iota(self, b: Branch) -> Optional[Branch]:
        e, slot = b
        if len(self.edges[e]) == 1:
            return None
        return (e, 1 - slot)

    def branches_at(self, v: str) -> List[Branch]:
        return list(self._branches_at.get(v, ()))

    def arity(self, v: str) -> int:
        return len(self._branches_at.get(v, ()))

    # -- connectivity --------------------------------------------------------

    def components(self) -> List[Set[str]]:
        seen: Set[str] = set()
        comps = []
        adj: Dict[str, Set[str]] = {v: set() for v in self.vertices}
        for e in self.real_edges():
            u, w = self.edges[e]
            adj[u].add(w)
            adj[w].add(u)
        for v in self.vertices:
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def cycle_rank(self) -> int:
        """|real edges| - |V| + number of components; cusps carry no cycle."""
        return len(self.real_edges()) - len(self.vertices) + len(self.components())

    def spanning_tree(self) -> Set[str]:
        """BFS tree from the lowest vertex id; requires a connected graph."""
        if not self.is_connected():
            raise ValueError("spanning tree requires a connected graph")
        if not self.vertices:
            return set()
        root = self.vertices[0]
        seen = {root}
        tree: Set[str] = set()
        frontier = [root]
        incident: Dict[str, List[Tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in self.real_edges():
            u, w = self.edges[e]
            incident[u].append((e, w))
            incident[w].append((e, u))
        while frontier:
            nxt = []
            for v in sorted(frontier):
                for e, w in sorted(incident[v]):
                    if w not in seen:
                        seen.add(w)
                        tree.add(e)
                        nxt.append(w)
            frontier = nxt
        return tree

    def tree_path(self, tree: Set[str], u: str, v: str) -> List[Tuple[str, int]]:
        """Oriented edge path u -> v inside the tree; +1 means slot0 -> slot1."""
        parent: Dict[str, Optional[Tuple[str, str, int]]] = {u: None}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                break
            for e in sorted(tree):
                a, b = self.edges[e]
                if a == x and b not in parent:
                    parent[b] = (x, e, +1)
                    stack.append(b)
                elif b == x and a not in parent:
                    parent[a] = (x, e, -1)
                    stack.append(a)
        if v not in parent:
            raise ValueError("vertices not connected in tree")
        path = []
        x = v
        while parent[x] is not None:
            px, e, d = parent[x]
            path.append((e, d))
            x = px
        return list(reversed(path))

    def simple_cycles(self) -> List[FrozenSet[str]]:
        """Edge sets of all simple cycles (closed walks with no repeated
        vertex or edge); loops count, cusp edges never do."""
        cycles: Set[FrozenSet[str]] = set()
        incident: Dict[str, List[Tuple[str, str]]] = {v: [] for v in self.vertices}
        for e in self.real_edges():
            u, w = self.edges[e]
            if u == w:
                cycles.add(frozenset([e]))
            else:
                incident[u].append((e, w))
                incident[w].append((e, u))

        def extend(start, current, used_edges, visited):
            for e, w in incident[current]:
                if e in used_edges:
                    continue
                if w == start and len(used_edges) >= 1:
                    cycles.add(frozenset(used_edges | {e}))
                elif w not in visited and w > start:
                    extend(start, w, used_edges | {e}, visited | {w})

        for s in self.vertices:
            extend(s, s, frozenset(), frozenset({s}))
        return sorted(cycles, key=lambda c: (len(c), tuple(sorted(c))))


class MetricGraph(BranchGraph):
    """Branch graph with positive rational edge lengths."""

    def __init__(self, vertices, edges, lengths: Dict[str, Fraction]):
        super().__init__(vertices, edges)
        self.lengths: Dict[str, Fraction] = {}
        for e in self.edges:
            if e not in lengths:
                raise ValueError(f"edge {e} has no length")
            L = Fraction(lengths[e])
            if L <= 0:
                raise ValueError(f"edge {e} must have positive length")
            self.lengths[e] = L

    def vertex_distances(self, source: str) -> Dict[str, Fraction]:
        """Exact single-source shortest path distances over real edges."""
        dist = {source: Fraction(0)}
        todo = {source}
        while todo:
            v = min(todo, key=lambda x: (dist[x], x))
            todo.discard(v)
            for e in self.real_edges():
                a, b = self.edges[e]
                for x, y in ((a, b), (b, a)):
                    if x == v:
                        nd = dist[v] + self.lengths[e]
                        if y not in dist or nd < dist[y]:
                            dist[y] = nd
                            todo.add(y)
        return dist

    def cycle_length(self, cycle: FrozenSet[str]) -> Fraction:
        return sum((self.lengths[e] for e in cycle), Fraction(0))


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

Perm = Tuple[int, ...]


def _perms(d: int) -> List[Perm]:
    return [tuple(p) for p in itertools.permutations(range(d))]


def _conj(p: Perm, t: Perm) -> Perm:
    d = len(p)
    out = [0] * d
    for i in range(d):
        out[t[i]] = t[p[i]]
    return tuple(out)


@dataclass
class GraphCover:
    base: BranchGraph
    total: BranchGraph
    vertex_map: Dict[str, str]
    edge_map: Dict[str, str]
    branch_map: Dict[Branch, Branch]
    assignment: Tuple[Perm, ...] = ()
    connected: bool = True

    def degree(self) -> int:
        counts = {v: 0 for v in self.base.vertices}
        for tv, bv in self.vertex_map.items():
            counts[bv] += 1
        values = set(counts.values())
        if len(values) != 1:
            raise ValueError("fiber cardinality is not constant")
        return values.pop()

    def validate(self):
        for b, img in self.branch_map.items():
            if self.vertex_map[self.total.psi(b)] != self.base.psi(img):
                raise ValueError(f"branch {b} does not commute with psi")
            pb = self.total.iota(b)
            if pb is not None:
                if self.base.iota(img) != self.branch_map[pb]:
                    raise ValueError(f"branch {b} breaks the involution")
        for tv in self.total.vertices:
            local = sorted(self.branch_map[b] for b in self.total.branches_at(tv))
            base_local = sorted(self.base.branches_at(self.vertex_map[tv]))
            if local != base_local:
                raise ValueError(
                    f"projection is not branch-locally bijective at {tv}"
                )
        self.degree()
        return self


def _encode(v, i):
    return f"{v}@{i}"


def enumerate_covers(G: BranchGraph, degree: int) -> List[GraphCover]:
    """All degree-d covers up to fiber relabeling.

    One cover per orbit of permutation assignments on the non-tree edges
    under simultaneous conjugation; tree edges and cusp edges lift as
    identity sheets. Output order is canonical.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    tree = G.spanning_tree()
    chords = [e for e in G.real_edges() if e not in tree]
    allp = _perms(degree)
    seen: Set[Tuple[Perm, ...]] = set()
    reps: List[Tuple[Perm, ...]] = []
    for assignment in itertools.product(allp, repeat=len(chords)):
        canon = min(
            tuple(_conj(p, t) for p in assignment) for t in allp
        )
        if canon not in seen:
            seen.add(canon)
            reps.append(canon)
    reps.sort()
    covers = []
    for assignment in reps:
        sigma = dict(zip(chords, assignment))
        vertices = [_encode(v, i) for v in G.vertices for i in range(degree)]
        edges: Dict[str, Tuple] = {}
        edge_map: Dict[str, str] = {}
        branch_map: Dict[Branch, Branch] = {}
        vertex_map = {
            _encode(v, i): v for v in G.vertices for i in range(degree)
        }
        for e in sorted(G.edges):
            ends = G.edges[e]
            for i in range(degree):
                te = _encode(e, i)
                if len(ends) == 1:
                    edges[te] = (_encode(ends[0], i),)
                    branch_map[(te, 0)] = (e, 0)
                else:
                    u, w = ends
                    j = sigma[e][i] if e in sigma else i
                    edges[te] = (_encode(u, i), _encode(w, j))
                    branch_map[(te, 0)] = (e, 0)
                    branch_map[(te, 1)] = (e, 1)
                edge_map[te] = e
        total = BranchGraph(vertices, edges)
        perm_group_transitive = _transitive(assignment, degree)
        cover = GraphCover(
            base=G,
            total=total,
            vertex_map=vertex_map,
            edge_map=edge_map,
            branch_map=branch_map,
            assignment=assignment,
            connected=G.is_connected() and perm_group_transitive,
        )
        cover.validate()
        covers.append(cover)
    return covers


def _transitive(perms: Sequence[Perm], d: int) -> bool:
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            for y in (p[x], p.index(x)):
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return len(reach) == d


def lift_edge_function(cover: GraphCover, f: Dict[str, Fraction]) -> Dict[str, Fraction]:
    """Pull an edge function back along the projection."""
    return {te: f[be] for te, be in cover.edge_map.items()}


def cycle_sums(G: BranchGraph, f: Dict[str, Fraction]) -> List[Fraction]:
    """Fundamental-cycle sums, one per non-tree edge, in sorted chord order."""
    tree = G.spanning_tree()
    out = []
    for e in G.real_edges():
        if e in tree:
            continue
        u, w = G.edges[e]
        total = f[e]
        for pe, _ in G.tree_path(tree, w, u):
            total += f[pe]
        out.append(total)
    return out


def rigidity_kernel(
    G: BranchGraph, max_degree: int
) -> Tuple[List[Dict[str, Fraction]], List[str]]:
    """Basis of {f : f(C) = 0 for every simple cycle of every cover of
    degree <= max_degree}, as dictionaries on the real edges of G.

    Returns (basis, warnings); vertices of arity < 3 only produce a
    warning, since the kernel is well-defined (if no longer forced to
    vanish) without that hypothesis.
    """
    warnings = []
    if not G.is_connected():
        raise ValueError("rigidity kernel requires a connected graph")
    low = [v for v in G.vertices if G.arity(v) < 3]
    if low:
        warnings.append(
            "vertices of arity < 3: " + ", ".join(low)
        )
    edges = G.real_edges()
    index = {e: i for i, e in enumerate(edges)}
    rows: Set[Tuple[int, ...]] = set()
    for d in range(1, max_degree + 1):
        for cover in enumerate_covers(G, d):
            for cycle in cover.total.simple_cycles():
                row = [0] * len(edges)
                for te in cycle:
                    row[index[cover.edge_map[te]]] += 1
                if any(row):
                    rows.add(tuple(row))
    from .intlin import nullspace  # graph loading and cover enumeration skip it

    basis = nullspace(sorted(rows), len(edges))
    return [
        {e: vec[i] for e, i in index.items()} for vec in basis
    ], warnings


# ---------------------------------------------------------------------------
# generalized morphisms
# ---------------------------------------------------------------------------


@dataclass
class GeneralizedMorphism:
    """Graph map allowed to collapse edges onto vertices."""

    source: BranchGraph
    target: BranchGraph
    vertex_map: Dict[str, str]
    edge_map: Dict[str, Tuple[str, str]]  # e -> ("edge", e') or ("vertex", v')
    branch_maps: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def validate(self) -> "GeneralizedMorphism":
        for v in self.source.vertices:
            if self.vertex_map.get(v) not in self.target.vertices:
                raise ValueError(f"vertex {v} has no valid image")
        for e, ends in self.source.edges.items():
            kind, img = self.edge_map[e]
            if kind == "edge":
                if img not in self.target.edges:
                    raise ValueError(f"edge {e} maps to unknown edge {img}")
                tends = self.target.edges[img]
                if len(tends) != len(ends):
                    raise ValueError(f"edge {e} changes branch count")
                bm = self.branch_maps.get(e)
                if bm is None or sorted(bm) != list(range(len(ends))) or sorted(
                    bm.values()
                ) != list(range(len(tends))):
                    raise ValueError(f"edge {e} lacks a branch bijection")
                for slot, tslot in bm.items():
                    if self.vertex_map[ends[slot]] != tends[tslot]:
                        raise ValueError(
                            f"branch ({e},{slot}) does not commute with psi"
                        )
            elif kind == "vertex":
                if img not in self.target.vertices:
                    raise ValueError(f"edge {e} collapses to unknown vertex {img}")
                for v in ends:
                    if self.vertex_map[v] != img:
                        raise ValueError(
                            f"collapsed edge {e} has endpoint not mapping to {img}"
                        )
            else:
                raise ValueError(f"edge {e} has invalid fate {kind}")
        return self

    def is_true_morphism(self) -> bool:
        return all(kind == "edge" for kind, _ in self.edge_map.values())

    @classmethod
    def identity(cls, G: BranchGraph) -> "GeneralizedMorphism":
        return cls(
            G,
            G,
            {v: v for v in G.vertices},
            {e: ("edge", e) for e in G.edges},
            {e: {i: i for i in range(len(G.edges[e]))} for e in G.edges},
        ).validate()


def compose_generalized(
    second: GeneralizedMorphism, first: GeneralizedMorphism
) -> GeneralizedMorphism:
    """second after first; an edge collapsing at either stage collapses."""
    if first.target is not second.source and first.target.edges != second.source.edges:
        raise ValueError("morphisms are not composable")
    vmap = {v: second.vertex_map[first.vertex_map[v]] for v in first.source.vertices}
    emap = {}
    bmaps = {}
    for e in first.source.edges:
        kind, img = first.edge_map[e]
        if kind == "vertex":
            emap[e] = ("vertex", second.vertex_map[img])
        else:
            kind2, img2 = second.edge_map[img]
            if kind2 == "vertex":
                emap[e] = ("vertex", img2)
            else:
                emap[e] = ("edge", img2)
                bm1 = first.branch_maps[e]
                bm2 = second.branch_maps[img]
                bmaps[e] = {slot: bm2[bm1[slot]] for slot in bm1}
    return GeneralizedMorphism(first.source, second.target, vmap, emap, bmaps).validate()
