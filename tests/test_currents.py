import itertools
import os
import random

import pytest

from anabel.graphs import BranchGraph
from anabel.currents import (
    Current,
    GraphAutomorphism,
    SubgraphStar,
    current_group,
    equivariant_average,
    path_current,
    vanishes_on_star,
)
from anabel.intlin import FgAbGroup, IntMatrix, smith_diagonal

from currents_reference import reference_current_group

SEED = int(os.environ.get("ANABEL_SEED", "0"))


def theta():
    return BranchGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")})


def loop():
    return BranchGraph(["v"], {"l": ("v", "v")})


def random_connected_graph(rng, max_edges=8):
    n = rng.randint(1, 4)
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    # spanning path first, then random extra edges (loops allowed)
    for i in range(1, n):
        edges[f"t{i}"] = (vertices[i - 1], vertices[i])
    extra = rng.randint(0, max_edges - (n - 1))
    for k in range(extra):
        u = rng.choice(vertices)
        w = rng.choice(vertices)
        edges[f"x{k}"] = (u, w)
    return BranchGraph(vertices, edges)


def test_current_group_circle():
    group, basis = current_group(loop())
    assert group == FgAbGroup(1)
    assert len(basis) == 1


def test_current_group_tree():
    tree = BranchGraph(["a", "b"], {"e": ("a", "b")})
    group, basis = current_group(tree)
    assert group == FgAbGroup(0)
    assert basis == []


def test_current_group_theta():
    group, basis = current_group(theta())
    assert group == FgAbGroup(2)
    assert len(basis) == 2
    for c in basis:
        assert not c.boundary


def test_current_group_rank_matches_cycle_rank_random():
    rng = random.Random(20240814)
    for _ in range(50):
        G = random_connected_graph(rng)
        group, basis = current_group(G)
        assert group == FgAbGroup(G.cycle_rank())
        assert len(basis) == G.cycle_rank()
        # the library builds these without checks; each must still be a current
        for c in basis:
            c.validate()
            for n in range(2, 6):
                c.reduce_mod(n).validate()
        if len(basis) >= 2:
            basis[0].add(basis[1]).validate()
            basis[1].scale(-3).validate()


def test_current_group_mod_n():
    group, basis = current_group(theta(), modulus=3)
    assert group == FgAbGroup(0, (3, 3))
    for c in basis:
        assert c.modulus == 3


def _random_cusped_graph(rng):
    """1-3 components, each grown from a random tree (a one-vertex component
    is an isolated vertex unless something lands on it), with extra loops
    and parallel edges, and 0-4 cusps placed at random vertices."""
    names = rng.sample([f"v{i}" for i in range(20)], rng.randint(1, 8))
    cuts = sorted(rng.sample(range(1, len(names)), min(len(names) - 1, rng.randint(0, 2))))
    parts = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    edge_ids = iter(rng.sample(range(100), 40))
    edges = {}
    for part in parts:
        for i in range(1, len(part)):
            edges[f"e{next(edge_ids)}"] = rng.choice(
                [(part[rng.randrange(i)], part[i]), (part[i], part[rng.randrange(i)])])
        for _ in range(rng.randint(0, 3)):
            u, w = rng.choice(part), rng.choice(part)
            edges[f"e{next(edge_ids)}"] = (u, u) if rng.random() < 0.3 else (u, w)
        if len(part) > 1 and rng.random() < 0.3:
            edges[f"e{next(edge_ids)}"] = (part[1], part[0])
    for _ in range(rng.randint(0, 4)):
        edges[f"e{next(edge_ids)}"] = (rng.choice(names),)
    return BranchGraph(names, edges)


def test_current_group_matches_smith_reference():
    rng = random.Random(SEED)
    seen = set()
    for _ in range(300):
        G = _random_cusped_graph(rng)
        isolated = any(G.arity(v) == 0 for v in G.vertices)
        seen.add((len(G.components()), len(G.cusp_edges()), isolated))
        branches = G.branches()
        group, basis = current_group(G)
        assert group == reference_current_group(G)
        assert group == FgAbGroup(len(basis))
        for c in basis:
            assert c.validate() is c
        # the basis spans a saturated sublattice of Z^branches, of the
        # kernel's rank, inside the kernel: it is a Z-basis of the kernel
        rows = [[c[b] for b in branches] for c in basis]
        M = IntMatrix(len(rows), len(branches), [x for r in rows for x in r])
        assert smith_diagonal(M) == (1,) * len(rows)
        for n in (2, 3, 4, 6):
            group_n, basis_n = current_group(G, n)
            assert group_n == reference_current_group(G, n)
            assert group_n == FgAbGroup(0, (n,) * len(basis_n))
            assert basis_n == [c.reduce_mod(n) for c in basis]
            for c in basis_n:
                assert c.validate() is c
    assert {k for k, _, _ in seen} == {1, 2, 3}
    assert {m for _, m, _ in seen} == {0, 1, 2, 3, 4}
    assert {i for _, _, i in seen} == {False, True}
    with pytest.raises(ValueError, match="^modulus must be >= 2$"):
        current_group(G, 1)


def test_current_validation():
    G = theta()
    with pytest.raises(ValueError, match="antisymmetry fails on edge a"):
        Current(G, {("a", 0): 1}).validate()
    c = Current(G, {("a", 0): 1, ("a", 1): -1})
    with pytest.raises(ValueError, match=r"Kirchhoff law fails at \['u', 'v'\]"):
        c.validate()
    assert c.boundary == {"u": 1, "v": -1}
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        Current(G, {}, 1).validate()
    ok = Current(G, {("a", 0): 1, ("a", 1): -1, ("b", 0): -1, ("b", 1): 1}, 3)
    assert ok.validate() is ok
    assert ok.values[("a", 1)] == 2
    # a current stores its support, and every key must be a branch
    assert ok.scale(3).values == {} and ok.scale(3)[("a", 1)] == 0
    for key in (("zz", 0), ("a", 2)):
        with pytest.raises(ValueError, match=f"^graph has no branch {key[0]} {key[1]}$"):
            Current(G, {key: 1}, 3).validate()


def test_add_and_reduce_mod_check_coefficients():
    G = theta()
    cycle = {("a", 0): -1, ("a", 1): 1, ("b", 0): 1, ("b", 1): -1}
    z, z4, z3 = Current(G, cycle), Current(G, cycle, 4), Current(G, cycle, 3)
    with pytest.raises(ValueError, match="cannot add currents with coefficients in Z/4 and Z/3"):
        z4.add(z3)
    with pytest.raises(ValueError, match="cannot add currents with coefficients in Z and Z/4"):
        z.add(z4)
    with pytest.raises(ValueError, match="cannot reduce a Z/4 current mod 3: 3 does not divide 4"):
        z4.reduce_mod(3)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        z.reduce_mod(1)
    assert z4.reduce_mod(2) == z.reduce_mod(2) == z4.scale(3).reduce_mod(2)
    assert z4.add(z4).validate() == z.scale(2).reduce_mod(4)


def test_cusp_branch_enters_kirchhoff():
    G = BranchGraph(["v"], {"l": ("v", "v"), "c": ("v",)})
    # loop contributes 0 to the vertex sum; cusp branch must vanish alone
    with pytest.raises(ValueError, match=r"Kirchhoff law fails at \['v'\]"):
        Current(G, {("l", 0): 1, ("l", 1): -1, ("c", 0): 2}).validate()
    ok = Current(G, {("l", 0): 1, ("l", 1): -1, ("c", 0): 0}).validate()
    assert ok[("c", 0)] == 0
    group, _ = current_group(G)
    assert group == FgAbGroup(1)


def test_path_current_closed():
    G = theta()
    res = path_current(G, [("a", +1), ("b", -1)])
    assert res.current is not None
    assert res.boundary == {}
    # matches a fundamental basis element up to sign
    _, basis = current_group(G)
    vals = res.current.values
    assert any(
        vals == b.values or vals == b.scale(-1).values for b in basis
    )


def test_path_current_open():
    G = BranchGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
    res = path_current(G, [("e1", +1), ("e2", +1)])
    assert res.current is None
    assert set(res.boundary) == {"a", "c"}
    assert res.boundary["a"] == -1 and res.boundary["c"] == 1


def test_path_current_rejects_nonsimple():
    G = theta()
    with pytest.raises(ValueError):
        path_current(G, [("a", +1), ("a", -1)])
    with pytest.raises(ValueError):
        path_current(G, [("a", +1), ("b", +1)])  # steps do not chain


def test_subgraph_star_refuses_bad_input():
    G = theta()
    with pytest.raises(ValueError, match="^subgraph vertices not in graph$"):
        SubgraphStar(G, {"u", "x"}, set())
    with pytest.raises(ValueError, match="^subgraph edge a leaves the vertex set$"):
        SubgraphStar(G, {"u"}, {"a"})
    K = SubgraphStar(G, {"u", "v"}, {"a"})
    assert (K.graph, K.vertices, K.edges) == (G, {"u", "v"}, {"a"})


def test_vanishes_on_star():
    G = theta()
    zero = Current.zero(G)
    K = SubgraphStar(G, {"u"}, set())
    assert vanishes_on_star(zero, K)
    c = path_current(G, [("a", +1), ("b", -1)]).current
    assert not vanishes_on_star(c, K)
    # a subgraph disjoint from the cycle's star
    H = BranchGraph(
        ["u", "v", "w"],
        {"a": ("u", "v"), "b": ("u", "v"), "far": ("w", "w")},
    )
    c2 = path_current(H, [("a", +1), ("b", -1)]).current
    K2 = SubgraphStar(H, {"w"}, {"far"})
    assert vanishes_on_star(c2, K2)
    K3 = SubgraphStar(H, {"u"}, set())
    assert not vanishes_on_star(c2, K3)
    # modulus: the doubled current vanishes mod 2 everywhere
    assert vanishes_on_star(c2.scale(2), K3, modulus=2)


def two_disjoint_loops():
    return BranchGraph(
        ["p", "q"], {"lp": ("p", "p"), "lq": ("q", "q")}
    )


def test_equivariant_average_swap():
    G = two_disjoint_loops()
    ident = GraphAutomorphism.make(
        G, {"p": "p", "q": "q"}, {"lp": "lp", "lq": "lq"}, {"lp": 0, "lq": 0}
    )
    swap = GraphAutomorphism.make(
        G, {"p": "q", "q": "p"}, {"lp": "lq", "lq": "lp"}, {"lp": 0, "lq": 0}
    )
    c0 = path_current(G, [("lp", +1)]).current
    avg = equivariant_average(G, [ident, swap], c0, [ident])
    assert avg.values[("lp", 1)] == 1
    assert avg.values[("lq", 1)] == 1
    assert swap.act(avg) == avg
    # trivial group: unchanged
    assert equivariant_average(G, [ident], c0, [ident]) == c0
    # full stabilizer equal to the group: also unchanged
    sym = avg
    assert equivariant_average(G, [ident, swap], sym, [ident, swap]) == sym


def test_equivariant_average_rejects_bad_stabilizer():
    G = two_disjoint_loops()
    ident = GraphAutomorphism.make(
        G, {"p": "p", "q": "q"}, {"lp": "lp", "lq": "lq"}, {"lp": 0, "lq": 0}
    )
    swap = GraphAutomorphism.make(
        G, {"p": "q", "q": "p"}, {"lp": "lq", "lq": "lp"}, {"lp": 0, "lq": 0}
    )
    c0 = path_current(G, [("lp", +1)]).current
    with pytest.raises(ValueError):
        equivariant_average(G, [ident, swap], c0, [ident, swap])


def test_equivariant_average_rejects_a_set_that_is_no_group():
    G = two_disjoint_loops()
    ident = GraphAutomorphism.make(
        G, {"p": "p", "q": "q"}, {"lp": "lp", "lq": "lq"}, {"lp": 0, "lq": 0}
    )
    swap = GraphAutomorphism.make(
        G, {"p": "q", "q": "p"}, {"lp": "lq", "lq": "lp"}, {"lp": 0, "lq": 0}
    )
    c0 = path_current(G, [("lp", +1)]).current
    # swap o swap is the identity, which [swap] lacks
    with pytest.raises(ValueError, match="^group is not closed under composition$"):
        equivariant_average(G, [swap], c0, [ident])
    symmetric = c0.add(swap.act(c0))
    for group, stabilizer in (([ident], [ident, swap]), ([ident, swap], [])):
        with pytest.raises(ValueError, match="^stabilizer must be a nonempty subset of the group$"):
            equivariant_average(G, group, symmetric, stabilizer)


def _automorphism_group(G):
    """Every automorphism of a graph with no loops and no parallel edges:
    the vertex permutations that keep the edge set, cusps included."""
    def shape(ends):
        return len(ends), frozenset(ends)

    edge_of = {shape(ends): e for e, ends in G.edges.items()}
    group = []
    for perm in itertools.permutations(G.vertices):
        vmap = dict(zip(G.vertices, perm))
        emap = {e: edge_of.get(shape([vmap[x] for x in ends])) for e, ends in G.edges.items()}
        if None not in emap.values():
            smap = {e: G.edges[emap[e]].index(vmap[G.edges[e][0]])
                    for e in G.edges if len(G.edges[e]) == 2}
            group.append(GraphAutomorphism.make(G, vmap, emap, smap))
    return group


def _cycle_rotations(n):
    vertices = [f"v{i:02d}" for i in range(n)]
    G = BranchGraph(vertices, {f"e{i:02d}": (vertices[i], vertices[(i + 1) % n])
                               for i in range(n)})
    return G, [GraphAutomorphism(
        {vertices[i]: vertices[(i + k) % n] for i in range(n)},
        {f"e{i:02d}": f"e{(i + k) % n:02d}" for i in range(n)},
        {f"e{i:02d}": 0 for i in range(n)}) for k in range(n)]


def _powers(G, g):
    """The cyclic group generated by g: g, g^2, ..., up to the identity."""
    out = [g]
    while (nxt := out[-1].compose(g, G)) != g:
        out.append(nxt)
    return out


def test_equivariant_average_is_invariant_under_the_group():
    # equivariant_average does not re-check that its result is invariant:
    # the cosets of the stabilizer argue it. Here every average is checked
    # against its whole group: cyclic groups generated by seeded
    # automorphisms of K4, of K4 with a cusp at each vertex and of the
    # 6-cycle, and the rotations of the 24-cycle, on seeded currents over Z
    # and Z/3 with the full stabilizer of each
    rng = random.Random(SEED)
    k4 = {f"{a}{b}": (a, b) for a, b in itertools.combinations("abcd", 2)}
    graphs = [BranchGraph(list("abcd"), k4),
              BranchGraph(list("abcd"), {**k4, **{f"cusp{v}": (v,) for v in "abcd"}}),
              BranchGraph(list("abcdef"), {f"{a}{b}": (a, b) for a, b in
                                           zip("abcdef", "bcdefa")})]
    autos = [_automorphism_group(G) for G in graphs]
    assert [len(group) for group in autos] == [24, 24, 12]
    cases = [(G, _powers(G, rng.choice(group))) for G, group in zip(graphs, autos)
             for _ in range(4)]
    cases.append(_cycle_rotations(24))
    nonzero = 0
    for G, group in cases:
        for modulus in (None, 3):
            _, basis = current_group(G, modulus)
            c0 = Current.zero(G, modulus)
            for c in basis:
                c0 = c0.add(c.scale(rng.randint(-2, 2)))
            stab = [h for h in group if h.act(c0) == c0]
            avg = equivariant_average(G, group, c0, stab)
            assert all(g.act(avg) == avg for g in group)
            nonzero += bool(avg.values)
    assert nonzero >= 10


def test_equivariant_average_validates_each_group_element():
    # compose does not check its result, so the group's elements are
    # checked once, on entry
    G = two_disjoint_loops()
    ident = GraphAutomorphism.make(
        G, {"p": "p", "q": "q"}, {"lp": "lp", "lq": "lq"}, {"lp": 0, "lq": 0}
    )
    pinch = GraphAutomorphism({"p": "p", "q": "p"}, {"lp": "lp", "lq": "lq"}, {})
    c0 = path_current(G, [("lp", +1)]).current
    with pytest.raises(ValueError, match="^vertex map is not a permutation$"):
        equivariant_average(G, [ident, pinch], c0, [ident])
