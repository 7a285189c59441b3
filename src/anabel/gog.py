"""Graphs of finite groups, their fundamental-group presentations, and the
explicit extension construction for split fibered data.

Finite groups are multiplication tables over elements 0..n-1, verified on
construction: identity, inverses and bijective translations over the whole
table, associativity on a generating set (Light's test, which is exact).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Dict, List, Sequence, Set, Tuple

from .graphs import Branch, BranchGraph
from .intlin import FgAbGroup, IntMatrix, cokernel_group, is_prime
from .presentations import GroupPresentation

Perm = Tuple[int, ...]


class FiniteGroup:
    """Multiplication table group; identity normalized to element 0."""

    def __init__(self, table: Sequence[Sequence[int]]):
        self.table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(map(int, row)) for row in table
        )
        n = len(self.table)
        self.order = n
        if any(len(r) != n for r in self.table):
            raise ValueError("table is not square")
        # square with n rows, so every row is nonempty
        if any(min(r) < 0 or max(r) >= n for r in self.table):
            raise ValueError("table entries out of range")
        self._validate()
        self.inverse = tuple(row.index(0) for row in self.table)

    def _validate(self):
        n = self.order
        if n == 0:
            raise ValueError("empty group")
        if any(self.table[0][b] != b or self.table[b][0] != b for b in range(n)):
            raise ValueError("element 0 is not an identity")
        full = list(range(n))
        # row a and column a of the table
        for row, col in zip(self.table, zip(*self.table)):
            if sorted(row) != full:
                raise ValueError("left translation is not a bijection")
            if sorted(col) != full:
                raise ValueError("right translation is not a bijection")
        if not self._associative_on(self._right_generators()):
            # name the first failing triple of the exhaustive scan
            for a in range(n):
                for b in range(n):
                    ab = self.table[a][b]
                    for c in range(n):
                        if self.table[ab][c] != self.table[a][self.table[b][c]]:
                            raise ValueError(f"associativity fails at {(a, b, c)}")
        for a, row in enumerate(self.table):
            if 0 not in row:
                raise ValueError(f"element {a} has no inverse")

    def _right_generators(self) -> List[int]:
        """Greedy generators: the smallest element not reached yet joins, and
        the reached set is the closure of {0} under right multiplication by
        the generators chosen so far."""
        t, n = self.table, self.order
        gens: List[int] = []
        reached = {0}
        while len(reached) < n:
            gens.append(min(set(range(n)) - reached))
            reached, frontier = {0}, [0]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = t[x][g]
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        return gens

    def _associative_on(self, gens: Sequence[int]) -> bool:
        """Does (ab)c = a(bc) hold for every b in gens and all a, c?

        Light's test. When 0 is a two-sided identity and the closure of {0}
        under right multiplication by gens is the whole table, this decides
        associativity exactly. Let B be the set of b with (ab)c = a(bc) for
        all a, c. It contains 0, and it is closed under the product: for b
        and b' in B,
            (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c).
        So B holds every x*g with x in B and g in gens, hence the whole table.
        """
        t = self.table
        for b in gens:
            # row ab of the table against a(bc) for all c at once; gens is
            # empty for the trivial group, so itemgetter gets >= 2 indices
            # and returns a tuple
            a_bc = itemgetter(*t[b])
            for ta in t:
                if t[ta[b]] != a_bc(ta):
                    return False
        return True

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
        t = self.table
        # perm(ab) = perm(a) perm(b), one row a at a time
        return all(
            [perm[x] for x in row] == [t[pa][pb] for pb in perm]
            for row, pa in zip(t, perm)
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


def pi1_presentation(gog: GraphOfFiniteGroups) -> GroupPresentation:
    """Presentation of the fundamental group over a spanning tree.

    Generators: one symbol per non-tree edge and one per nontrivial
    vertex-group element. Relators: the vertex multiplication tables,
    b0(a) b1(a)^-1 across tree edges, and b0(a) e b1(a)^-1 e^-1 across
    the others. Cusp edges contribute nothing.
    """
    G = gog.graph
    if not G.is_connected():
        raise ValueError("graph of groups must be connected")
    symbols = _vertex_symbols(gog)
    nv = len(symbols)
    names = []
    for v in G.vertices:
        for a in range(1, gog.vertex_groups[v].order):
            names.append(f"{v}.{a}")
    edge_symbol = {}
    for i, e in enumerate(G.chords()):
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
            if e in edge_symbol:
                t = edge_symbol[e]
                relators.append(left + (t,) + right + (-t,))
            else:
                relators.append(left + right)
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
    if not is_prime(p):
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
        Pt, Ht, alpha, g = Pi.table, H.table, self.alpha, self.g
        for h1 in range(H.order):
            a1 = alpha[h1]
            for h2 in range(H.order):
                lhs = tuple(a1[y] for y in alpha[h2])
                conj = Pi.conj_automorphism(g[(h1, h2)])
                rhs = tuple(conj[y] for y in alpha[Ht[h1][h2]])
                if lhs != rhs:
                    raise CocycleError(
                        f"first cocycle condition fails at {(h1, h2)}", (h1, h2)
                    )
        for h1 in range(H.order):
            a1, h1_row = alpha[h1], Ht[h1]
            for h2 in range(H.order):
                # g_{h1,h2} g_{h1h2,h3} against alpha_h1(g_{h2,h3}) g_{h1,h2h3}
                g12_row, h12, h2_row = Pt[g[(h1, h2)]], h1_row[h2], Ht[h2]
                for h3 in range(H.order):
                    lhs = g12_row[g[(h12, h3)]]
                    rhs = Pt[a1[g[(h2, h3)]]][g[(h1, h2_row[h3])]]
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
    _index: Dict[Tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._index = {el: i for i, el in enumerate(self.elements)}

    def element_index(self, h: int, g: int) -> int:
        return self._index[(h, g)]


def schreier_extension(data: ExtensionData) -> SchreierExtension:
    """Build the group on pairs (h, g) with the twisted multiplication
    (h, g)(h', g') = (h h', g alpha_h(g') g_{h,h'}).

    The cocycle conditions are verified first, and `FiniteGroup` checks the
    group axioms of the table. The rest holds by construction and is not
    checked again (the tests check it on every extension they build). Write
    g00 for g_{0,0}.
    - `elements` lists every pair of H x Pi once, so E has order |H| |Pi|
      and the projection (h, x) -> h is onto.
    - The projection is a homomorphism: the H-coordinate of
      (h1, x1)(h2, x2) is h1 h2, read from H's table.
    - The inclusion x -> (0, x g00^-1) is a bijection of Pi onto the pairs
      (0, y), which are the kernel of the projection.
    - The inclusion is a homomorphism. The first cocycle condition at
      (0, 0) reads alpha_0 alpha_0 = conj(g00) alpha_0, so
      alpha_0 = conj(g00), and (0, a g00^-1)(0, b g00^-1) =
      (0, a g00^-1 g00 b g00^-1 g00^-1 g00) = (0, a b g00^-1).
    - The inverse of (h, x) is
      (h^-1, g00^-1 g_{h^-1,h}^-1 alpha_{h^-1}(x)^-1): multiplied by (h, x)
      on the right it gives (0, g00^-1), the identity, and a left inverse
      in a group is the inverse.
    """
    data.validate()
    Pi, H = data.pi, data.h
    elements = [(hh, x) for hh in range(H.order) for x in range(Pi.order)]
    g00_inv = Pi.inv(data.g[(0, 0)])
    ident = (0, g00_inv)
    # normalize: identity must be element 0 of the table
    elements.remove(ident)
    elements.insert(0, ident)
    # at[h][x] is the index of (h, x); the row of (h1, x1) takes (h2, x2) to
    # (h1 h2, x1 alpha_h1(x2) g_{h1,h2}), read straight off the tables
    at = [[0] * Pi.order for _ in range(H.order)]
    for i, (hh, x) in enumerate(elements):
        at[hh][x] = i
    Ht, Pt = H.table, Pi.table
    table = []
    for h1, x1 in elements:
        h_row, x_row, a = Ht[h1], Pt[x1], data.alpha[h1]
        g_row = [data.g[(h1, h2)] for h2 in range(H.order)]
        table.append([
            at[h_row[h2]][Pt[x_row[a[x2]]][g_row[h2]]] for h2, x2 in elements
        ])
    E = FiniteGroup(table)
    inclusion = {x: at[0][Pi.op(x, g00_inv)] for x in range(Pi.order)}
    projection = {i: hh for i, (hh, _) in enumerate(elements)}
    return SchreierExtension(E, elements, inclusion, projection, data)


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
