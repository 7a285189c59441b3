"""Graphs of finite groups, their fundamental-group presentations, and the
explicit extension construction for split fibered data.

Finite groups are multiplication tables over elements 0..n-1; everything is
verified exhaustively on construction, which is the point at this scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graphs import Branch, BranchGraph
from .intlin import FgAbGroup, IntMatrix, cokernel_group
from .presentations import GroupPresentation

Perm = Tuple[int, ...]


class FiniteGroup:
    """Multiplication table group; identity normalized to element 0."""

    def __init__(self, table: Sequence[Sequence[int]], check: bool = True):
        self.table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(x) for x in row) for row in table
        )
        n = len(self.table)
        self.order = n
        if any(len(r) != n for r in self.table):
            raise ValueError("table is not square")
        if any(x < 0 or x >= n for r in self.table for x in r):
            raise ValueError("table entries out of range")
        if check:
            self._validate()
        self.inverse = tuple(
            next(b for b in range(n) if self.table[a][b] == 0) for a in range(n)
        )

    def _validate(self):
        n = self.order
        if n == 0:
            raise ValueError("empty group")
        if any(self.table[0][b] != b or self.table[b][0] != b for b in range(n)):
            raise ValueError("element 0 is not an identity")
        for a in range(n):
            if sorted(self.table[a]) != list(range(n)):
                raise ValueError("left translation is not a bijection")
            if sorted(self.table[b][a] for b in range(n)) != list(range(n)):
                raise ValueError("right translation is not a bijection")
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise ValueError(f"associativity fails at {(a, b, c)}")
        for a in range(n):
            if not any(self.table[a][b] == 0 for b in range(n)):
                raise ValueError(f"element {a} has no inverse")

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    @cached_property
    def _conjugations(self) -> Tuple[Perm, ...]:
        """Row g is the permutation x -> g x g^-1."""
        t, n = self.table, self.order
        return tuple(
            tuple(t[t[g][x]][self.inverse[g]] for x in range(n)) for g in range(n)
        )

    def conj_automorphism(self, g: int) -> Perm:
        return self._conjugations[g]

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.op(x, a)
            k += 1
        return k

    def is_automorphism(self, perm: Sequence[int]) -> bool:
        perm = tuple(perm)
        n = self.order
        if sorted(perm) != list(range(n)) or perm[0] != 0:
            return False
        return all(
            perm[self.table[a][b]] == self.table[perm[a]][perm[b]]
            for a in range(n)
            for b in range(n)
        )

    def automorphisms(self) -> List[Perm]:
        """All automorphisms by brute force; fine for the small orders here."""
        n = self.order
        out = []
        for perm in itertools.permutations(range(n)):
            if perm[0] == 0 and self.is_automorphism(perm):
                out.append(perm)
        return out

    def abelianization(self) -> FgAbGroup:
        rows = []
        n = self.order
        for a in range(n):
            for b in range(n):
                row = [0] * n
                row[a] += 1
                row[b] += 1
                row[self.table[a][b]] -= 1
                rows.append(row)
        # element 0 is the identity: kill its generator
        row = [0] * n
        row[0] = 1
        rows.append(row)
        return cokernel_group(IntMatrix(len(rows), n, [x for r in rows for x in r]))

    def isomorphic_to(self, other: "FiniteGroup") -> bool:
        if self.order != other.order:
            return False
        n = self.order
        mine = sorted(self.element_order(a) for a in range(n))
        theirs = sorted(other.element_order(a) for a in range(n))
        if mine != theirs:
            return False
        targets_by_order: Dict[int, List[int]] = {}
        for b in range(n):
            targets_by_order.setdefault(other.element_order(b), []).append(b)

        def extend(mapping: Dict[int, int], used: Set[int]) -> bool:
            if len(mapping) == n:
                return True
            a = next(x for x in range(n) if x not in mapping)
            for b in targets_by_order.get(self.element_order(a), []):
                if b in used:
                    continue
                new_map = dict(mapping)
                new_map[a] = b
                new_used = used | {b}
                ok = True
                # close under products with already-mapped elements
                stack = [a]
                while stack and ok:
                    x = stack.pop()
                    for y in list(new_map):
                        for u, v in ((x, y), (y, x)):
                            p = self.table[u][v]
                            q = other.table[new_map[u]][new_map[v]]
                            if p in new_map:
                                if new_map[p] != q:
                                    ok = False
                                    break
                            elif q in new_used:
                                ok = False
                                break
                            else:
                                new_map[p] = q
                                new_used.add(q)
                                stack.append(p)
                        if not ok:
                            break
                if ok and extend(new_map, new_used):
                    return True
            return False

        return extend({0: 0}, {0})

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls([[(a + b) % n for b in range(n)] for a in range(n)])

    @classmethod
    def direct_product(cls, A: "FiniteGroup", B: "FiniteGroup") -> "FiniteGroup":
        pairs = [(a, b) for a in range(A.order) for b in range(B.order)]
        idx = {p: i for i, p in enumerate(pairs)}
        table = [
            [idx[(A.op(a1, a2), B.op(b1, b2))] for (a2, b2) in pairs]
            for (a1, b1) in pairs
        ]
        return cls(table)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        perms = sorted(itertools.permutations(range(n)))
        # ensure the identity permutation is element 0
        assert perms[0] == tuple(range(n))
        idx = {p: i for i, p in enumerate(perms)}
        table = [
            [idx[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
        ]
        return cls(table)


# ---------------------------------------------------------------------------
# graphs of groups
# ---------------------------------------------------------------------------


class GraphOfFiniteGroups:
    """Branch graph with finite vertex/edge groups and injective branch maps."""

    def __init__(
        self,
        graph: BranchGraph,
        vertex_groups: Dict[str, FiniteGroup],
        edge_groups: Dict[str, FiniteGroup],
        branch_maps: Dict[Branch, Dict[int, int]],
    ):
        self.graph = graph
        self.vertex_groups = dict(vertex_groups)
        self.edge_groups = dict(edge_groups)
        self.branch_maps = {b: dict(m) for b, m in branch_maps.items()}
        for v in graph.vertices:
            if v not in self.vertex_groups:
                raise ValueError(f"vertex {v} has no group")
        for e in graph.edges:
            if e not in self.edge_groups:
                raise ValueError(f"edge {e} has no group")
        for b in graph.branches():
            m = self.branch_maps.get(b)
            if m is None:
                raise ValueError(f"branch {b} has no monomorphism")
            Ge = self.edge_groups[b[0]]
            Gv = self.vertex_groups[graph.psi(b)]
            if sorted(m) != list(range(Ge.order)):
                raise ValueError(f"branch map at {b} not defined on all of G_e")
            if len(set(m.values())) != Ge.order:
                raise ValueError(f"branch map at {b} is not injective")
            for a in range(Ge.order):
                for c in range(Ge.order):
                    if m[Ge.op(a, c)] != Gv.op(m[a], m[c]):
                        raise ValueError(f"branch map at {b} is not a homomorphism")


def _vertex_symbols(gog: GraphOfFiniteGroups) -> Dict[Tuple[str, int], int]:
    """1-based symbol ids for each nontrivial vertex-group element."""
    symbols: Dict[Tuple[str, int], int] = {}
    k = 0
    for v in gog.graph.vertices:
        for a in range(1, gog.vertex_groups[v].order):
            k += 1
            symbols[(v, a)] = k
    return symbols


def pi1_presentation(
    gog: GraphOfFiniteGroups, tree: Optional[Set[str]] = None
) -> GroupPresentation:
    """Presentation of the fundamental group over a spanning tree.

    Generators: one symbol per non-tree edge and one per nontrivial
    vertex-group element. Relators: the vertex multiplication tables,
    b0(a) b1(a)^-1 across tree edges, and b0(a) e b1(a)^-1 e^-1 across
    the others. Cusp edges contribute nothing.
    """
    G = gog.graph
    if not G.is_connected():
        raise ValueError("graph of groups must be connected")
    if tree is None:
        tree = G.spanning_tree()
    symbols = _vertex_symbols(gog)
    nv = len(symbols)
    chords = [e for e in G.real_edges() if e not in tree]
    names = []
    for v in G.vertices:
        for a in range(1, gog.vertex_groups[v].order):
            names.append(f"{v}.{a}")
    edge_symbol = {}
    for i, e in enumerate(chords):
        edge_symbol[e] = nv + i + 1
        names.append(e)

    def word(v: str, a: int) -> Tuple[int, ...]:
        return () if a == 0 else (symbols[(v, a)],)

    relators: List[Tuple[int, ...]] = []
    for v in G.vertices:
        Gv = gog.vertex_groups[v]
        for a in range(Gv.order):
            for b in range(Gv.order):
                w = word(v, a) + word(v, b) + tuple(
                    -s for s in reversed(word(v, Gv.op(a, b)))
                )
                relators.append(w)
    for e in G.real_edges():
        v0, v1 = G.edges[e]
        m0, m1 = gog.branch_maps[(e, 0)], gog.branch_maps[(e, 1)]
        Ge = gog.edge_groups[e]
        for a in range(1, Ge.order):
            left = word(v0, m0[a])
            right = tuple(-s for s in reversed(word(v1, m1[a])))
            if e in tree:
                relators.append(left + right)
            else:
                t = edge_symbol[e]
                relators.append(left + (t,) + right + (-t,))
    return GroupPresentation(names, relators)


def pi1_top_rank(gog: GraphOfFiniteGroups) -> int:
    """Rank of the free group on the non-tree edges."""
    G = gog.graph
    if not G.is_connected():
        raise ValueError("graph of groups must be connected")
    return G.cycle_rank()


def abelianized_pi1(gog: GraphOfFiniteGroups) -> FgAbGroup:
    return pi1_presentation(gog).abelianization()


def abelianized_pi1_product_formula(gog: GraphOfFiniteGroups) -> FgAbGroup:
    """Independent route: Z^h times the vertex abelianizations modulo the
    branch identifications, glued from a relation matrix directly."""
    G = gog.graph
    if not G.is_connected():
        raise ValueError("graph of groups must be connected")
    offsets = {}
    k = 0
    for v in G.vertices:
        offsets[v] = k
        k += gog.vertex_groups[v].order
    rows = []

    def unit_row():
        return [0] * k

    for v in G.vertices:
        Gv = gog.vertex_groups[v]
        o = offsets[v]
        row = unit_row()
        row[o] = 1
        rows.append(row)
        for a in range(Gv.order):
            for b in range(Gv.order):
                row = unit_row()
                row[o + a] += 1
                row[o + b] += 1
                row[o + Gv.op(a, b)] -= 1
                rows.append(row)
    for e in G.real_edges():
        v0, v1 = G.edges[e]
        m0, m1 = gog.branch_maps[(e, 0)], gog.branch_maps[(e, 1)]
        for a in range(1, gog.edge_groups[e].order):
            row = unit_row()
            row[offsets[v0] + m0[a]] += 1
            row[offsets[v1] + m1[a]] -= 1
            rows.append(row)
    vertex_part = cokernel_group(IntMatrix(len(rows), k, [x for r in rows for x in r]))
    return FgAbGroup(vertex_part.free_rank + G.cycle_rank(), vertex_part.torsion)


@dataclass(frozen=True)
class TemperedAbProfile:
    """Rank profile of the abelianized prime-to-p tempered group."""

    free_rank: int
    pro_pprime_corank: int
    p: int

    def __str__(self):
        return f"Z^{self.free_rank} x (Z^(p'))^{self.pro_pprime_corank} (p={self.p})"


def tempered_ab_profile(g: int, h: int, p: int) -> TemperedAbProfile:
    """Free rank h and prime-to-p profinite corank 2g - h."""
    if g < 0 or h < 0:
        raise ValueError("genus and cycle count must be nonnegative")
    if 2 * g - h < 0:
        raise ValueError("need h <= 2g")
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
        raise ValueError("p must be prime")
    return TemperedAbProfile(free_rank=h, pro_pprime_corank=2 * g - h, p=p)


# ---------------------------------------------------------------------------
# covers of a graph of groups
# ---------------------------------------------------------------------------


@dataclass
class GoGCover:
    """Per-vertex G_v-sets with equivariant edge gluings.

    vertex_sets[v] is the size of S_v; vertex_actions[v][g] is the
    permutation by which g acts; edge_glue[e] is the bijection
    S_{v0} -> S_{v1} over edge e (real edges only).
    """

    vertex_sets: Dict[str, int]
    vertex_actions: Dict[str, List[Perm]]
    edge_glue: Dict[str, Perm]


@dataclass
class CoverReport:
    ok: bool
    violations: List[str]
    topological: bool
    degrees: Dict[str, int]


def validate_gog_cover(gog: GraphOfFiniteGroups, cover: GoGCover) -> CoverReport:
    """Check the action axioms, the equivariance of every gluing, and the
    constancy of the fiber degree; classify topological covers."""
    violations = []
    G = gog.graph
    for v in G.vertices:
        n = cover.vertex_sets.get(v)
        acts = cover.vertex_actions.get(v)
        Gv = gog.vertex_groups[v]
        if n is None or acts is None or len(acts) != Gv.order:
            violations.append(f"vertex {v}: incomplete action data")
            continue
        for g, perm in enumerate(acts):
            if sorted(perm) != list(range(n)):
                violations.append(f"vertex {v}: element {g} does not permute S_v")
        if tuple(acts[0]) != tuple(range(n)):
            violations.append(f"vertex {v}: identity does not act trivially")
        for a in range(Gv.order):
            for b in range(Gv.order):
                left = tuple(acts[a][acts[b][s]] for s in range(n))
                if left != tuple(acts[Gv.op(a, b)]):
                    violations.append(f"vertex {v}: action not a homomorphism")
                    break
            else:
                continue
            break
    for e in G.real_edges():
        v0, v1 = G.edges[e]
        glue = cover.edge_glue.get(e)
        n0, n1 = cover.vertex_sets[v0], cover.vertex_sets[v1]
        if glue is None or sorted(glue) != list(range(n1)) or len(glue) != n0:
            violations.append(f"edge {e}: gluing is not a bijection S_{v0} -> S_{v1}")
            continue
        m0, m1 = gog.branch_maps[(e, 0)], gog.branch_maps[(e, 1)]
        a0 = cover.vertex_actions[v0]
        a1 = cover.vertex_actions[v1]
        for a in range(gog.edge_groups[e].order):
            for s in range(n0):
                if glue[a0[m0[a]][s]] != a1[m1[a]][glue[s]]:
                    violations.append(
                        f"edge {e}: gluing is not equivariant for element {a}"
                    )
                    break
            else:
                continue
            break
    degrees = dict(cover.vertex_sets)
    for comp in G.components():
        sizes = {degrees[v] for v in comp}
        if len(sizes) > 1:
            violations.append(f"component {sorted(comp)}: fiber degree not constant")
    topological = all(
        tuple(perm) == tuple(range(cover.vertex_sets[v]))
        for v in G.vertices
        for perm in cover.vertex_actions.get(v, [])
    )
    return CoverReport(not violations, violations, topological, degrees)


# ---------------------------------------------------------------------------
# the explicit extension construction
# ---------------------------------------------------------------------------


@dataclass
class ExtensionData:
    """Twisting data: automorphisms alpha_h of Pi and elements g_{h,h'}."""

    pi: FiniteGroup
    h: FiniteGroup
    alpha: Dict[int, Perm]
    g: Dict[Tuple[int, int], int]

    def validate(self) -> "ExtensionData":
        Pi, H = self.pi, self.h
        for hh in range(H.order):
            perm = self.alpha.get(hh)
            if perm is None or not Pi.is_automorphism(perm):
                raise ValueError(f"alpha[{hh}] is not an automorphism of Pi")
        for pair in itertools.product(range(H.order), repeat=2):
            if pair not in self.g or not (0 <= self.g[pair] < Pi.order):
                raise ValueError(f"g{pair} missing or out of range")
        for h1 in range(H.order):
            for h2 in range(H.order):
                lhs = tuple(self.alpha[h1][self.alpha[h2][x]] for x in range(Pi.order))
                conj = Pi.conj_automorphism(self.g[(h1, h2)])
                rhs = tuple(
                    conj[self.alpha[H.op(h1, h2)][x]] for x in range(Pi.order)
                )
                if lhs != rhs:
                    raise CocycleError(
                        f"first cocycle condition fails at {(h1, h2)}", (h1, h2)
                    )
        for h1 in range(H.order):
            for h2 in range(H.order):
                for h3 in range(H.order):
                    lhs = Pi.op(self.g[(h1, h2)], self.g[(H.op(h1, h2), h3)])
                    rhs = Pi.op(
                        self.alpha[h1][self.g[(h2, h3)]],
                        self.g[(h1, H.op(h2, h3))],
                    )
                    if lhs != rhs:
                        raise CocycleError(
                            f"second cocycle condition fails at {(h1, h2, h3)}",
                            (h1, h2, h3),
                        )
        return self

    @classmethod
    def trivial(cls, pi: FiniteGroup, h: FiniteGroup) -> "ExtensionData":
        ident = tuple(range(pi.order))
        return cls(
            pi,
            h,
            {hh: ident for hh in range(h.order)},
            {pair: 0 for pair in itertools.product(range(h.order), repeat=2)},
        )


class CocycleError(ValueError):
    def __init__(self, msg, witness):
        super().__init__(msg)
        self.witness = witness


@dataclass
class SchreierExtension:
    group: FiniteGroup
    elements: List[Tuple[int, int]]  # (h, g) pairs, alpha is determined
    inclusion: Dict[int, int]  # Pi -> E
    projection: Dict[int, int]  # E -> H
    data: ExtensionData

    def element_index(self, h: int, g: int) -> int:
        return self.elements.index((h, g))


def schreier_extension(data: ExtensionData) -> SchreierExtension:
    """Build the group on pairs (h, g) with the twisted multiplication
    (h, g)(h', g') = (h h', g alpha_h(g') g_{h,h'}).

    The cocycle conditions are verified first; the group axioms, the
    stated identity and inverse formulas, and the exactness of
    Pi -> E -> H are all checked exhaustively.
    """
    data.validate()
    Pi, H = data.pi, data.h
    elements = [(hh, x) for hh in range(H.order) for x in range(Pi.order)]
    g11_inv = Pi.inv(data.g[(0, 0)])
    ident = (0, g11_inv)
    # normalize: identity must be element 0 of the table
    elements.remove(ident)
    elements.insert(0, ident)
    index = {el: i for i, el in enumerate(elements)}

    def mul(a, b):
        h1, x1 = a
        h2, x2 = b
        return (H.op(h1, h2), Pi.op(Pi.op(x1, data.alpha[h1][x2]), data.g[(h1, h2)]))

    table = [[index[mul(a, b)] for b in elements] for a in elements]
    E = FiniteGroup(table)
    # quoted inverse formula agrees with the table inverse
    for i, (hh, x) in enumerate(elements):
        hinv = H.inv(hh)
        formula = (
            hinv,
            Pi.op(
                Pi.op(g11_inv, Pi.inv(data.g[(hinv, hh)])),
                Pi.inv(data.alpha[hinv][x]),
            ),
        )
        if index[formula] != E.inv(i):
            raise AssertionError(f"inverse formula fails at {(hh, x)}")
    inclusion = {
        x: index[(0, Pi.op(x, g11_inv))] for x in range(Pi.order)
    }
    projection = {index[(hh, x)]: hh for (hh, x) in elements}
    _check_exactness(Pi, H, E, inclusion, projection)
    return SchreierExtension(E, elements, inclusion, projection, data)


def _check_exactness(Pi, H, E, inclusion, projection):
    for a in range(Pi.order):
        for b in range(Pi.order):
            if E.op(inclusion[a], inclusion[b]) != inclusion[Pi.op(a, b)]:
                raise AssertionError("inclusion is not a homomorphism")
    if len(set(inclusion.values())) != Pi.order:
        raise AssertionError("inclusion is not injective")
    for a in range(E.order):
        for b in range(E.order):
            if projection[E.op(a, b)] != H.op(projection[a], projection[b]):
                raise AssertionError("projection is not a homomorphism")
    if set(projection.values()) != set(range(H.order)):
        raise AssertionError("projection is not surjective")
    kernel = {a for a in range(E.order) if projection[a] == 0}
    if kernel != set(inclusion.values()):
        raise AssertionError("kernel of projection differs from image of Pi")
    if E.order != Pi.order * H.order:
        raise AssertionError("extension has wrong order")


def schreier_regauge(data: ExtensionData, gamma: Dict[int, int]) -> Tuple[
    ExtensionData, Dict[Tuple[int, int], Tuple[int, int]]
]:
    """Regauged data (beta, g~) plus the isomorphism (h, g) -> (h, g gamma_h)
    from the regauged extension onto the original one."""
    Pi, H = data.pi, data.h
    for hh in range(H.order):
        if hh not in gamma or not (0 <= gamma[hh] < Pi.order):
            raise ValueError("gamma must assign a Pi element to every H element")
    beta = {}
    for hh in range(H.order):
        conj = Pi.conj_automorphism(gamma[hh])
        beta[hh] = tuple(conj[data.alpha[hh][x]] for x in range(Pi.order))
    g2 = {}
    for (h1, h2), val in data.g.items():
        g2[(h1, h2)] = Pi.op(
            Pi.op(Pi.op(gamma[h1], data.alpha[h1][gamma[h2]]), val),
            Pi.inv(gamma[H.op(h1, h2)]),
        )
    new_data = ExtensionData(Pi, H, beta, g2).validate()
    iso = {
        (hh, x): (hh, Pi.op(x, gamma[hh]))
        for hh in range(H.order)
        for x in range(Pi.order)
    }
    return new_data, iso


def verify_regauge_isomorphism(
    original: SchreierExtension, regauged: SchreierExtension,
    iso: Dict[Tuple[int, int], Tuple[int, int]],
) -> bool:
    """Does the pair map define a group isomorphism regauged -> original?"""
    f = {
        regauged.element_index(*src): original.element_index(*dst)
        for src, dst in iso.items()
    }
    n = regauged.group.order
    if sorted(f.values()) != list(range(n)):
        return False
    return all(
        f[regauged.group.op(a, b)] == original.group.op(f[a], f[b])
        for a in range(n)
        for b in range(n)
    )
