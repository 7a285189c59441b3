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
from anabel.intlin import FgAbGroup


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
    assert ok.values[("c", 0)] == 0
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
