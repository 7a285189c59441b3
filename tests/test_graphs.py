import os
import random
from fractions import Fraction

import pytest

from anabel.graphs import (
    BranchGraph,
    GeneralizedMorphism,
    MetricGraph,
    compose_generalized,
    cycle_sums,
    enumerate_covers,
    lift_edge_function,
    rigidity_kernel,
)


def theta():
    return BranchGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")})


def loop_with_cusp():
    return BranchGraph(["v"], {"l": ("v", "v"), "c": ("v",)})


def circle2():
    return BranchGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v")})


SEED = int(os.environ.get("ANABEL_SEED", "0"))


def _reference_branches(G):
    out = []
    for e in sorted(G.edges):
        for slot in range(len(G.edges[e])):
            out.append((e, slot))
    return out


def _reference_branches_at(G, v):
    return [b for b in _reference_branches(G) if G.psi(b) == v]


def _random_branch_graph(rng):
    """Random graph with loops, cusps, multi-edges and isolated vertices. The
    edge ids are all ints or all strings; ints are sorted as their strings."""
    vertices = [rng.choice([str(i), f"v{i}"]) for i in range(rng.randint(1, 6))]
    ints = rng.random() < 0.5
    edges = {}
    for i in range(rng.randint(0, 14)):
        e = rng.choice([i, 3 * i + 2]) if ints else rng.choice([f"e{i}", str(20 - i)])
        u = rng.choice(vertices)
        kind = rng.random()
        edges[e] = (u,) if kind < 0.25 else (u, u) if kind < 0.45 else (u, rng.choice(vertices))
    return BranchGraph(vertices, edges)


def test_branch_index_matches_reference_definitions():
    rng = random.Random(SEED)
    for _ in range(200):
        G = _random_branch_graph(rng)
        assert G.branches() == _reference_branches(G)
        for v in G.vertices + ("not-a-vertex",):
            assert G.branches_at(v) == _reference_branches_at(G, v)
            assert G.arity(v) == len(_reference_branches_at(G, v))
    # edge ids are sorted as strings: "10" comes before "2"
    G = BranchGraph(["a"], {2: ("a",), 10: ("a", "a")})
    assert G.branches() == [("10", 0), ("10", 1), ("2", 0)]
    assert G.branches_at("a") == G.branches()
    assert G.arity("a") == 3


def test_cycle_rank():
    assert theta().cycle_rank() == 2
    tree = BranchGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
    assert tree.cycle_rank() == 0
    assert loop_with_cusp().cycle_rank() == 1


def test_spanning_tree():
    tree = BranchGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
    assert tree.spanning_tree() == {"e1", "e2"}
    assert len(circle2().spanning_tree()) == 1
    t = theta().spanning_tree()
    assert len(t) == 1
    disconnected = BranchGraph(["a", "b"], {})
    with pytest.raises(ValueError):
        disconnected.spanning_tree()


def test_simple_cycles_theta():
    cycles = theta().simple_cycles()
    assert {frozenset(c) for c in cycles} == {
        frozenset({"a", "b"}),
        frozenset({"a", "c"}),
        frozenset({"b", "c"}),
    }


def test_simple_cycles_loop():
    assert loop_with_cusp().simple_cycles() == [frozenset({"l"})]


def test_enumerate_covers_circle():
    loop = BranchGraph(["v"], {"l": ("v", "v")})
    covers = enumerate_covers(loop, 2)
    assert len(covers) == 2
    flags = sorted(c.connected for c in covers)
    assert flags == [False, True]
    for c in covers:
        c.validate()
        assert len(c.total.vertices) == 2 * len(loop.vertices)
    connected = next(c for c in covers if c.connected)
    assert connected.total.cycle_rank() == 1
    assert len(connected.total.simple_cycles()[0]) == 2


def test_enumerate_covers_tree():
    tree = BranchGraph(["a", "b"], {"e": ("a", "b")})
    for d in (1, 2, 3):
        covers = enumerate_covers(tree, d)
        assert len(covers) == 1
        assert covers[0].connected == (d == 1)


def test_enumerate_covers_theta():
    covers = enumerate_covers(theta(), 2)
    assert len(covers) == 4
    for c in covers:
        assert c.degree() == 2


def test_enumerate_covers_degree3_conjugacy_classes():
    # one chord: classes = conjugacy classes of S_3
    loop = BranchGraph(["v"], {"l": ("v", "v")})
    covers = enumerate_covers(loop, 3)
    assert len(covers) == 3
    assert sorted(c.connected for c in covers) == [False, False, True]


def test_covers_lift_cusps_unramified():
    G = loop_with_cusp()
    for cover in enumerate_covers(G, 2):
        cover.validate()
        assert len(cover.total.cusp_edges()) == 2
        assert len(cover.total.real_edges()) == 2


def test_lift_edge_function():
    G = circle2()
    f = {"a": Fraction(1), "b": Fraction(-2)}
    cover = [c for c in enumerate_covers(G, 2) if c.connected][0]
    lifted = lift_edge_function(cover, f)
    assert len(lifted) == 4
    for te, val in lifted.items():
        assert val == f[cover.edge_map[te]]
    # theta double cover: six edges, each carrying the pulled-back value
    T = theta()
    g = {"a": Fraction(1), "b": Fraction(0), "c": Fraction(-1)}
    cov = enumerate_covers(T, 2)[0]
    lifted2 = lift_edge_function(cov, g)
    assert len(lifted2) == 6
    assert all(lifted2[te] == g[cov.edge_map[te]] for te in lifted2)


def test_cycle_sums():
    G = theta()
    f = {"a": Fraction(1), "b": Fraction(-1), "c": Fraction(0)}
    sums = cycle_sums(G, f)
    assert len(sums) == 2
    # chords are the two non-tree edges; each sum is f(chord) + f(tree edge)
    tree = G.spanning_tree()
    chord_sums = sorted(
        f[e] + f[next(iter(tree))] for e in G.real_edges() if e not in tree
    )
    assert sorted(sums) == chord_sums
    line = BranchGraph(["a", "b"], {"e": ("a", "b")})
    assert cycle_sums(line, {"e": Fraction(5)}) == []


def test_rigidity_theta_degree1():
    basis, warnings = rigidity_kernel(theta(), 1)
    assert basis == []
    assert warnings == []


def test_rigidity_two_loops_bridge():
    # two vertices joined by 2 edges plus a loop at each: min arity 3... check
    G = BranchGraph(
        ["u", "v"],
        {"a": ("u", "v"), "b": ("u", "v"), "lu": ("u", "u"), "lv": ("v", "v")},
    )
    assert min(G.arity(x) for x in G.vertices) == 4
    basis, warnings = rigidity_kernel(G, 2)
    assert basis == [] and warnings == []


def test_rigidity_loop_circle_warns():
    loop = BranchGraph(["v"], {"l": ("v", "v")})
    basis, warnings = rigidity_kernel(loop, 1)
    assert basis == []
    assert warnings and "arity" in warnings[0]


def test_rigidity_antitone_in_degree():
    G = circle2()  # arity 2: kernel nontrivial at any degree
    b1, _ = rigidity_kernel(G, 1)
    b2, _ = rigidity_kernel(G, 2)
    assert len(b2) <= len(b1)
    assert len(b1) == 1  # f(a) + f(b) = 0 leaves one degree of freedom


def test_cover_vertex_count_property():
    for d in (1, 2, 3):
        for cover in enumerate_covers(theta(), d):
            assert len(cover.total.vertices) == d * 2
            cover.validate()


def test_metric_graph():
    G = MetricGraph(
        ["u", "v"],
        {"a": ("u", "v"), "b": ("u", "v")},
        {"a": Fraction(1), "b": Fraction(3, 2)},
    )
    d = G.vertex_distances("u")
    assert d["v"] == 1
    assert G.cycle_length(frozenset({"a", "b"})) == Fraction(5, 2)
    with pytest.raises(ValueError):
        MetricGraph(["u"], {"l": ("u", "u")}, {"l": Fraction(0)})


def test_generalized_morphism_identity_and_collapse():
    G = theta()
    ident = GeneralizedMorphism.identity(G)
    assert ident.is_true_morphism()
    # collapse edge c of theta onto the image vertex
    H = BranchGraph(["w"], {"a": ("w", "w"), "b": ("w", "w")})
    phi = GeneralizedMorphism(
        G,
        H,
        {"u": "w", "v": "w"},
        {"a": ("edge", "a"), "b": ("edge", "b"), "c": ("vertex", "w")},
        {"a": {0: 0, 1: 1}, "b": {0: 0, 1: 1}},
    ).validate()
    assert not phi.is_true_morphism()
    comp = compose_generalized(phi, ident)
    assert comp.edge_map == phi.edge_map
    comp2 = compose_generalized(GeneralizedMorphism.identity(H), phi)
    assert comp2.edge_map == phi.edge_map


def test_generalized_morphism_rejects_bad_collapse():
    G = circle2()
    H = BranchGraph(["x", "y"], {"e": ("x", "y")})
    with pytest.raises(ValueError):
        GeneralizedMorphism(
            G,
            H,
            {"u": "x", "v": "y"},
            {"a": ("edge", "e"), "b": ("vertex", "x")},
            {"a": {0: 0, 1: 1}},
        ).validate()


def test_double_collapse_composes():
    # path a-b-c with two edges; collapse one then the other
    P = BranchGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
    Q = BranchGraph(["x", "y"], {"f": ("x", "y")})
    R = BranchGraph(["z"], {})
    phi1 = GeneralizedMorphism(
        P,
        Q,
        {"a": "x", "b": "x", "c": "y"},
        {"e1": ("vertex", "x"), "e2": ("edge", "f")},
        {"e2": {0: 0, 1: 1}},
    ).validate()
    phi2 = GeneralizedMorphism(
        Q, R, {"x": "z", "y": "z"}, {"f": ("vertex", "z")}, {}
    ).validate()
    comp = compose_generalized(phi2, phi1)
    assert comp.edge_map == {"e1": ("vertex", "z"), "e2": ("vertex", "z")}
    assert not comp.is_true_morphism()
