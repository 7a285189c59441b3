"""Finite graphs with explicit branches, covers, and the cycle-sum rigidity test.

Edges carry one or two branches; a one-branch edge is a cusp. Branches are
addressed as (edge_id, slot) with slot 0 or 1, and the branch involution
swaps the two slots of a real edge. Covers are represented by permutation
assignments on the non-tree edges, one per orbit under simultaneous
conjugation of the fibers. The orbit representatives (the lex-least
assignment of each orbit) are generated directly by an orderly search, not
found by canonicalizing every assignment. An enumerated cover holds its
assignment and its projection maps; its total graph is built from a
template shared by the covers of one enumeration the first time it is read,
so callers that only count covers or read their assignments never build one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

Branch = Tuple[str, int]


class BranchGraph:
    """Vertices, edges with 1 or 2 branches, fixed-point-free pairing."""

    def __init__(self, vertices: Sequence[str], edges: Dict[str, Tuple]):
        self.vertices: Tuple[str, ...] = tuple(sorted(map(str, vertices)))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        self.edges: Dict[str, Tuple[str, ...]] = {}
        for e, ends in sorted(edges.items()):
            ends = tuple(map(str, ends))
            if len(ends) not in (1, 2):
                raise ValueError(f"edge {e} must have 1 or 2 endpoints")
            if not vs.issuperset(ends):
                raise ValueError(f"edge {e} references unknown vertex")
            self.edges[str(e)] = ends
        # edges is never written after construction, so the branch list and
        # the incidence of each vertex are derived once here
        branches: List[Branch] = []
        self._branches_at: Dict[str, List[Branch]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            for slot, v in enumerate(self.edges[e]):
                branches.append((e, slot))
                self._branches_at[v].append((e, slot))
        self._branches: Tuple[Branch, ...] = tuple(branches)

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

    @cached_property
    def _forest(self) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str, int]]]:
        """Breadth-first spanning forest over the real edges: each vertex's
        root, and each non-root vertex's (parent, edge, direction), where
        direction +1 means the edge runs parent -> child from slot 0 to slot 1.

        Each tree grows from the lowest vertex id not yet reached, one level
        at a time; a level's vertices are visited in sorted order and each
        vertex's edges in edge-id order, so the root of a component is its
        lowest vertex.
        """
        roots: Dict[str, str] = {}
        parent: Dict[str, Tuple[str, str, int]] = {}
        for r in self.vertices:
            if r in roots:
                continue
            roots[r] = r
            level = [r]
            while level:
                nxt = []
                for v in sorted(level):
                    for e, slot in self._branches_at[v]:
                        # the other end; a cusp gives v itself
                        w = self.edges[e][slot - 1]
                        if w not in roots:
                            roots[w] = r
                            parent[w] = (v, e, 1 - 2 * slot)
                            nxt.append(w)
                level = nxt
        return roots, parent

    def components(self) -> List[Set[str]]:
        """Vertex sets of the connected components, ordered by lowest vertex."""
        comps: Dict[str, Set[str]] = {}
        for v, r in self._forest[0].items():
            comps.setdefault(r, set()).add(v)
        return list(comps.values())

    def is_connected(self) -> bool:
        # every vertex but the roots has a parent, one root per component
        return len(self.vertices) - len(self._forest[1]) <= 1

    def cycle_rank(self) -> int:
        """|real edges| - |V| + number of components; cusps carry no cycle."""
        return len(self.real_edges()) - len(self._forest[1])

    def spanning_tree(self) -> Set[str]:
        """Edges of the spanning forest; requires a connected graph."""
        if not self.is_connected():
            raise ValueError("spanning tree requires a connected graph")
        return {e for _, e, _ in self._forest[1].values()}

    def chords(self) -> List[str]:
        """Real edges outside the spanning forest, by component, then by id."""
        roots, parent = self._forest
        tree = {e for _, e, _ in parent.values()}
        return sorted(
            (e for e in self.real_edges() if e not in tree),
            key=lambda e: roots[self.edges[e][0]],
        )

    def tree_path(self, u: str, v: str) -> List[Tuple[str, int]]:
        """Oriented edge path u -> v inside the spanning forest; +1 means
        slot0 -> slot1."""
        roots, parent = self._forest
        if u not in roots or v not in roots or roots[u] != roots[v]:
            raise ValueError("vertices not connected in tree")
        # climb from u to its root, then from v until the climbs meet
        up: List[Tuple[str, int]] = []
        height = {u: 0}
        x = u
        while x in parent:
            x, e, d = parent[x]
            up.append((e, -d))
            height[x] = len(up)
        down: List[Tuple[str, int]] = []
        x = v
        while x not in height:
            x, e, d = parent[x]
            down.append((e, d))
        return up[: height[x]] + down[::-1]

    def simple_cycles(self) -> List[FrozenSet[str]]:
        """Edge sets of all simple cycles (closed walks with no repeated
        vertex or edge); loops count, cusp edges never do."""
        # a loop is a cycle by itself; the walk below reads each vertex's
        # edges to other vertices, with their other ends
        ends = self.edges
        cycles: Set[FrozenSet[str]] = {
            frozenset([e]) for e in self.real_edges() if ends[e][0] == ends[e][1]
        }
        incident = {
            v: [(e, w) for e, slot in bs if (w := ends[e][slot - 1]) != v]
            for v, bs in self._branches_at.items()
        }

        # the path from start to current: its edges in order, and its vertices.
        # Every used edge has both ends in visited, so only an edge back to
        # start can be a used one, and then it is used[0]. Each cycle through
        # start is walked in both directions; it is kept from the walk whose
        # closing edge is larger than its first edge.
        used: List[str] = []
        visited: Set[str] = set()

        def extend(start, current):
            for e, w in incident[current]:
                if w == start:
                    if used and e > used[0]:
                        cycles.add(frozenset(used + [e]))
                elif w > start and w not in visited:
                    used.append(e)
                    visited.add(w)
                    extend(start, w)
                    used.pop()
                    visited.discard(w)

        for s in self.vertices:
            visited.add(s)
            extend(s, s)
            visited.discard(s)
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
        return distances(self, self.lengths, [source])

    def cycle_length(self, cycle: FrozenSet[str]) -> Fraction:
        return sum((self.lengths[e] for e in cycle), Fraction(0))


def distances(
    G: BranchGraph, lengths: Dict[str, Fraction], sources: Iterable[str]
) -> Dict[str, Fraction]:
    """Exact distance from the nearest source to every vertex reachable over
    real edges with the given lengths (multi-source Dijkstra)."""
    dist: Dict[str, Fraction] = {}
    heap = [(Fraction(0), s) for s in sorted(sources)]  # sorted, so a heap
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for e, slot in G._branches_at.get(v, ()):
            w = G.edges[e][slot - 1]  # a cusp or a loop gives v itself
            if w not in dist:
                heapq.heappush(heap, (d + lengths[e], w))
    return dist


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


class GraphCover:
    """A projection of the branch graph `total` onto `base`, given by its
    vertex, edge and branch maps. An enumerated cover also carries its chord
    assignment, and the template its total graph is built from on first
    read; a cover built by hand passes `total` itself."""

    def __init__(
        self,
        base: BranchGraph,
        total: Optional[BranchGraph],
        vertex_map: Dict[str, str],
        edge_map: Dict[str, str],
        branch_map: Dict[Branch, Branch],
        assignment: Tuple[Perm, ...] = (),
        connected: bool = True,
        template: Optional[_CoverTemplate] = None,
    ):
        if total is None and template is None:
            raise ValueError("a cover needs its total graph or a template to build it from")
        self.base = base
        self._total = total
        self._template = template
        self.vertex_map = vertex_map
        self.edge_map = edge_map
        self.branch_map = branch_map
        self.assignment = assignment
        self.connected = connected

    def __repr__(self):
        return f"GraphCover(base={self.base!r}, assignment={self.assignment!r})"

    @property
    def total(self) -> BranchGraph:
        if self._total is None:
            self._total = self._template.total(self.assignment)
        return self._total

    def degree(self) -> int:
        counts = {v: 0 for v in self.base.vertices}
        for tv, bv in self.vertex_map.items():
            counts[bv] += 1
        values = set(counts.values())
        if len(values) != 1:
            raise ValueError("fiber cardinality is not constant")
        return values.pop()

    def validate(self):
        """Check that the projection commutes with psi and the involution, is
        a bijection on the branches at every vertex, and has constant fibers.
        psi and iota are read straight off the two edge tables."""
        total_edges, base_edges = self.total.edges, self.base.edges
        vertex_map, branch_map = self.vertex_map, self.branch_map
        for b, img in branch_map.items():
            e, slot = b
            ends = total_edges[e]
            v = vertex_map[ends[slot]]
            be, bslot = img
            base_ends = base_edges[be]
            if v != base_ends[bslot]:
                raise ValueError(f"branch {b} does not commute with psi")
            if len(ends) != 1:
                base_pair = None if len(base_ends) == 1 else (be, 1 - bslot)
                if base_pair != branch_map[(e, 1 - slot)]:
                    raise ValueError(f"branch {b} breaks the involution")
        base_sorted = {v: sorted(bs) for v, bs in self.base._branches_at.items()}
        total_at = self.total._branches_at
        for tv in self.total.vertices:
            local = sorted([branch_map[b] for b in total_at.get(tv, ())])
            base_local = base_sorted.get(vertex_map[tv], [])
            if local != base_local:
                raise ValueError(
                    f"projection is not branch-locally bijective at {tv}"
                )
        self.degree()
        return self


def _encode(v, i):
    return f"{v}@{i}"


class _CoverTemplate:
    """What the total graphs of all degree-d covers of G share: the vertex
    sheets, the lifted tree and cusp edges, and, per chord, the sheet names
    of the edge and of its two end vertices."""

    def __init__(self, G: BranchGraph, chords: Sequence[str], degree: int):
        sheets = self.sheets = range(degree)
        self.vertices = [_encode(v, i) for v in G.vertices for i in sheets]
        chord_set = set(chords)
        self.fixed_edges: Dict[str, Tuple[str, ...]] = {
            _encode(e, i): tuple(_encode(v, i) for v in ends)
            for e, ends in sorted(G.edges.items()) if e not in chord_set
            for i in sheets
        }
        self.chord_names = []
        for e in chords:
            u, w = G.edges[e]
            self.chord_names.append((
                [_encode(e, i) for i in sheets],
                [_encode(u, i) for i in sheets],
                [_encode(w, j) for j in sheets],
            ))

    def total(self, assignment: Tuple[Perm, ...]) -> BranchGraph:
        """The total graph of the cover whose chords carry `assignment`: a
        chord joins sheet i of its first end to sheet p[i] of its second."""
        edges = dict(self.fixed_edges)
        for p, (tes, us, ws) in zip(assignment, self.chord_names):
            for i in self.sheets:
                edges[tes[i]] = (us[i], ws[p[i]])
        return BranchGraph(self.vertices, edges)


def _orbit_representatives(c: int, perms: List[Perm]) -> List[Tuple[Perm, ...]]:
    """The lex-least c-tuple of each orbit of perms^c under simultaneous
    conjugation, in lex order; perms must be all of S_d in lex order.

    Orderly generation (Read, "Every one a winner", Ann. Discrete Math. 2,
    1978): a depth-first search over prefixes that carries the stabilizer S
    of the prefix, the t with _conj(q, t) == q for every q in it. A prefix
    is extended by p only if no t in S gives _conj(p, t) < p, and the
    stabilizer of the longer prefix is the set of t in S with
    _conj(p, t) == p. This is exact. A lex-least tuple passes every test,
    since a t in the stabilizer of a prefix that made the next entry smaller
    would make the whole tuple smaller. Conversely, let a tuple pass every
    test and take any t. At the first position k where t moves the entry,
    t lies in the stabilizer of the prefix before k, so it makes the entry
    at k larger, and with it the tuple: a t outside the stabilizer of a
    prefix already makes that prefix strictly larger. So the search emits
    each orbit's lex-least tuple exactly once, and, perms being in lex
    order, emits them sorted.
    """
    reps: List[Tuple[Perm, ...]] = []
    prefix: List[Perm] = []

    def extend(stabilizer: List[Perm]):
        if len(prefix) == c:
            reps.append(tuple(prefix))
            return
        for p in perms:
            fixing = []
            for t in stabilizer:
                q = _conj(p, t)
                if q < p:
                    break
                if q == p:
                    fixing.append(t)
            else:
                prefix.append(p)
                extend(fixing)
                prefix.pop()

    extend(perms)
    return reps


def enumerate_covers(G: BranchGraph, degree: int) -> List[GraphCover]:
    """All degree-d covers up to fiber relabeling.

    One cover per orbit of permutation assignments on the non-tree edges
    under simultaneous conjugation; tree edges and cusp edges lift as
    identity sheets. Output order is canonical: the lex-least assignment of
    each orbit, in lex order.

    Everything but the chord edges of the total graph is the same for every
    cover, so the vertex, edge and branch maps are built once, and each
    cover gets its own copy of them; the total graph is built from a shared
    `_CoverTemplate` and the cover's assignment when `GraphCover.total` is
    first read, so an unread cover costs its assignment and three dict
    copies. Sheet i of a branch lies over it at sheet i of its vertex, and
    a chord joins sheet i to sheet p[i] for a permutation p, so every such
    projection is a cover and none is re-validated; `GraphCover.validate`
    checks covers built by hand.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if not G.vertices:
        raise ValueError("graph has no vertices, so it has no covers")
    if not G.is_connected():
        raise ValueError("graph is not connected; cover enumeration needs a connected graph")
    chords = G.chords()
    reps = _orbit_representatives(len(chords), _perms(degree))
    template = _CoverTemplate(G, chords, degree)
    sheets = template.sheets
    vertex_map = {_encode(v, i): v for v in G.vertices for i in sheets}
    edge_map: Dict[str, str] = {}
    branch_map: Dict[Branch, Branch] = {}
    for e in sorted(G.edges):
        for i in sheets:
            te = _encode(e, i)
            for slot in range(len(G.edges[e])):
                branch_map[(te, slot)] = (e, slot)
            edge_map[te] = e
    return [
        GraphCover(
            base=G,
            total=None,
            vertex_map=dict(vertex_map),
            edge_map=dict(edge_map),
            branch_map=dict(branch_map),
            assignment=assignment,
            connected=_transitive(assignment, degree),
            template=template,
        )
        for assignment in reps
    ]


def _transitive(perms: Sequence[Perm], d: int) -> bool:
    """Do the permutations of {0, ..., d-1} generate a transitive group?

    Every permutation p has finite order k, so p^-1 = p^(k-1): the orbit of
    0 under the group is its orbit under forward steps alone, and no
    inverse is ever looked up."""
    reach = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
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
        for pe, _ in G.tree_path(w, u):
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

    Each simple cycle C of a cover gives the row of unsigned edge counts of
    its image in G, and the kernel is the nullspace of all such rows. The
    rows found so far are kept as one reduced row echelon basis, which
    depends only on their span, so the result does not depend on the order
    in which covers are walked.

    The walk stops once that span is certified final. Let K be spanned by
    e_c - e_d for each vertex with exactly two real branches, on distinct
    edges c and d (neither is a loop, which would give two branches by
    itself), and by e_c for each vertex with exactly one real branch, on
    edge c. Every row is orthogonal to K. A lift of such a vertex has the
    same real branches, one over c and one over d, and each lift of c or d
    has exactly one end at a lift of the vertex; a simple cycle through the
    lift enters by one of the two and leaves by the other, so it uses lifts
    of c and of d equally often. With a single real branch no simple cycle
    passes through the lift, so none uses a lift of c. Hence the span of
    all rows lies in the annihilator of K, of dimension |E| - dim K, and
    once the basis reaches that rank its span is the annihilator: further
    rows cannot change it, and the kernel is K. With K = 0 this is the
    stop at a pivot in every real-edge column. The walk still takes at
    least the degree-1 cover.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    warnings = []
    if not G.is_connected():
        raise ValueError("rigidity kernel requires a connected graph")
    low = [v for v in G.vertices if G.arity(v) < 3]
    if low:
        warnings.append(
            "vertices of arity < 3: " + ", ".join(low)
        )
    # graph loading and cover enumeration skip intlin
    from .intlin import fold_row, nullspace, rank

    edges = G.real_edges()
    index = {e: i for i, e in enumerate(edges)}
    certified = []
    for v in G.vertices:
        real = [index[e] for e, _ in G._branches_at[v] if e in index]
        if len(real) in (1, 2) and len(set(real)) == len(real):
            row = [0] * len(edges)
            row[real[0]] = 1
            if len(real) == 2:
                row[real[1]] = -1
            certified.append(row)
    final_rank = len(edges) - rank(certified, len(edges))
    seen: Set[Tuple[int, ...]] = set()
    basis: List[List[Fraction]] = []
    pivots: List[int] = []
    covers = (c for d in range(1, max_degree + 1) for c in enumerate_covers(G, d))
    for cover in covers:
        for cycle in cover.total.simple_cycles():
            row = [0] * len(edges)
            for te in cycle:
                row[index[cover.edge_map[te]]] += 1
            row = tuple(row)
            if row not in seen:
                seen.add(row)
                basis, pivots = fold_row(basis, pivots, row)
        if len(pivots) == final_rank:
            break
    return [
        {e: vec[i] for e, i in index.items()} for vec in nullspace(basis, len(edges))
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
