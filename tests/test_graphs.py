import os
import random
import time
from fractions import Fraction

import pytest

from anabel.graphs import (
    BranchGraph,
    GeneralizedMorphism,
    GraphCover,
    MetricGraph,
    _conj,
    _encode,
    _orbit_representatives,
    _perms,
    _transitive,
    compose_generalized,
    cycle_sums,
    distances,
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


# -- covers against the canonicalize-every-assignment enumeration -------------------


def _reference_enumerate_covers(G, degree):
    """enumerate_covers as it was before the orderly orbit search: every
    assignment is canonicalized by all d! conjugations, and every cover is
    built from scratch."""
    import itertools

    if degree < 1:
        raise ValueError("degree must be >= 1")
    tree = G.spanning_tree()
    chords = [e for e in G.real_edges() if e not in tree]
    allp = _perms(degree)
    seen = set()
    reps = []
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
        edges = {}
        edge_map = {}
        branch_map = {}
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


def _reference_validate(cover):
    """GraphCover.validate as it was before it read the edge tables directly."""
    for b, img in cover.branch_map.items():
        if cover.vertex_map[cover.total.psi(b)] != cover.base.psi(img):
            raise ValueError(f"branch {b} does not commute with psi")
        pb = cover.total.iota(b)
        if pb is not None:
            if cover.base.iota(img) != cover.branch_map[pb]:
                raise ValueError(f"branch {b} breaks the involution")
    for tv in cover.total.vertices:
        local = sorted(cover.branch_map[b] for b in cover.total.branches_at(tv))
        base_local = sorted(cover.base.branches_at(cover.vertex_map[tv]))
        if local != base_local:
            raise ValueError(
                f"projection is not branch-locally bijective at {tv}"
            )
    cover.degree()
    return cover


def _reference_simple_cycles(G):
    """simple_cycles as it was before the shared push-and-pop path."""
    cycles = set()
    incident = {v: [] for v in G.vertices}
    for e in G.real_edges():
        u, w = G.edges[e]
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

    for s in G.vertices:
        extend(s, s, frozenset(), frozenset({s}))
    return sorted(cycles, key=lambda c: (len(c), tuple(sorted(c))))


def bouquet(c):
    return BranchGraph(["v"], {f"l{k}": ("v", "v") for k in range(c)})


def _cubic_graph(rank, rng):
    """A random connected cubic multigraph (loops allowed) of the given cycle rank."""
    nv = 2 * (rank - 1)
    vs = [f"v{i}" for i in range(nv)]
    while True:
        stubs = [v for v in range(nv) for _ in range(3)]
        rng.shuffle(stubs)
        edges = {f"e{i}": (vs[stubs[2 * i]], vs[stubs[2 * i + 1]]) for i in range(3 * nv // 2)}
        G = BranchGraph(vs, edges)
        if G.is_connected():
            return G


def _cover_cases():
    cases = [(f"bouquet{c}", bouquet(c), d) for c in (1, 2, 3, 4) for d in (1, 2, 3)]
    cases += [(f"bouquet{c}", bouquet(c), 4) for c in (2, 3)]
    cases += [("bouquet2", bouquet(2), 5)]
    cases += [("theta", theta(), d) for d in (1, 2, 3, 4)]
    cases += [("loop_with_cusp", loop_with_cusp(), d) for d in (1, 2, 3, 4)]
    rng = random.Random(SEED)
    for k, rank in enumerate((2, 3, 3, 4)):
        G = _cubic_graph(rank, rng)
        cases += [(f"cubic{k}-rank{rank}", G, d) for d in (1, 2, 3)]
    return cases


def _cover_fields(cover):
    return (
        cover.assignment,
        cover.connected,
        cover.total.vertices,
        list(cover.total.edges.items()),
        list(cover.vertex_map.items()),
        list(cover.edge_map.items()),
        list(cover.branch_map.items()),
    )


@pytest.mark.parametrize("case", range(len(_cover_cases())),
                         ids=[f"{name}-d{d}" for name, _, d in _cover_cases()])
def test_enumerate_covers_matches_reference(case):
    name, G, d = _cover_cases()[case]
    got = enumerate_covers(G, d)
    want = _reference_enumerate_covers(G, d)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.base is G
        assert _cover_fields(a) == _cover_fields(b)
        # enumerate_covers builds covers without checking them
        assert a.validate() is a
        _reference_validate(a)


def _count_builds(monkeypatch):
    """A list that gets one entry per BranchGraph built from now on."""
    built = []
    init = BranchGraph.__init__
    monkeypatch.setattr(BranchGraph, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    return built


def test_cover_totals_are_built_on_read(monkeypatch):
    G = _cubic_graph(4, random.Random(SEED))
    built = _count_builds(monkeypatch)
    assert len(enumerate_covers(G, 3)) == _burnside_orbit_count(4, 3)
    assert built == []
    covers = enumerate_covers(G, 3)
    for k, cover in enumerate(covers, 1):
        total = cover.total
        assert cover.total is total and len(built) == k
    monkeypatch.undo()
    want = _reference_enumerate_covers(G, 3)
    assert [(c.total.vertices, c.total.edges) for c in covers] == [
        (c.total.vertices, c.total.edges) for c in want
    ]


def test_covers_own_their_maps():
    # writing to one cover's maps leaves the next one alone
    first, second = enumerate_covers(theta(), 2)[:2]
    first.vertex_map["u@0"] = "v"
    first.edge_map["a@0"] = "b"
    first.branch_map[("a@0", 0)] = ("b", 0)
    assert second.vertex_map["u@0"] == "u"
    assert second.edge_map["a@0"] == "a"
    assert second.branch_map[("a@0", 0)] == ("a", 0)


def _reference_transitive(perms, d):
    """Breadth-first search from sheet 0 over the undirected graph with an
    edge x - p[x] for every permutation p."""
    adjacent = {x: set() for x in range(d)}
    for p in perms:
        for x in range(d):
            adjacent[x].add(p[x])
            adjacent[p[x]].add(x)
    seen, queue = {0}, [0]
    for x in queue:
        for y in sorted(adjacent[x] - seen):
            seen.add(y)
            queue.append(y)
    return len(seen) == d


def test_transitive_matches_bfs_reference():
    rng = random.Random(SEED)
    outcomes = {True: 0, False: 0}
    degrees = set()
    for _ in range(400):
        d = rng.randint(1, 6)
        perms = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(d))
            rng.shuffle(p)
            perms.append(tuple(p))
        want = _reference_transitive(perms, d)
        assert _transitive(tuple(perms), d) == want, (perms, d)
        outcomes[want] += 1
        degrees.add(d)
    # the corpus holds transitive and intransitive tuples, and degree 1
    assert outcomes[True] > 50 and outcomes[False] > 50
    assert 1 in degrees


def _burnside_orbit_count(c, d):
    """(1/d!) * sum over t in S_d of |centralizer(t)|^c, by brute force."""
    import itertools
    from math import factorial

    group = list(itertools.permutations(range(d)))
    total = 0
    for t in group:
        commuting = sum(
            1 for s in group if all(t[s[i]] == s[t[i]] for i in range(d))
        )
        total += commuting ** c
    assert total % factorial(d) == 0
    return total // factorial(d)


@pytest.mark.parametrize("c,d", [(c, d) for c in (0, 1, 2, 3) for d in (1, 2, 3, 4, 5)])
def test_orbit_representatives_burnside_count(c, d):
    perms = _perms(d)
    reps = _orbit_representatives(c, perms)
    assert len(reps) == _burnside_orbit_count(c, d)
    assert reps == sorted(set(reps))
    if len(perms) ** c * len(perms) <= 50_000:
        # each representative is the least tuple of its orbit
        for rep in reps:
            assert all(tuple(_conj(p, t) for p in rep) >= rep for t in perms)


def test_burnside_count_matches_known_values():
    # conjugacy classes of S_d are the partitions of d
    assert [_burnside_orbit_count(1, d) for d in range(1, 6)] == [1, 2, 3, 5, 7]
    # the 49 covers of covers_bouquet3.txt and the 14,721 orbits for (3, 5)
    assert _burnside_orbit_count(3, 3) == 49
    assert _burnside_orbit_count(3, 5) == 14_721


def _verdict(check, cover):
    try:
        check(cover)
    except ValueError as exc:
        return ("ValueError", str(exc))
    except KeyError as exc:
        return ("KeyError", repr(exc))
    return ("ok", None)


def _corrupt(cover, vertex_map=None, branch_map=None):
    return GraphCover(
        base=cover.base,
        total=cover.total,
        vertex_map=dict(cover.vertex_map if vertex_map is None else vertex_map),
        edge_map=dict(cover.edge_map),
        branch_map=dict(cover.branch_map if branch_map is None else branch_map),
        assignment=cover.assignment,
        connected=cover.connected,
    )


def test_validate_matches_reference_on_named_corruptions():
    cover = enumerate_covers(theta(), 2)[1]
    assert _verdict(GraphCover.validate, cover) == _verdict(_reference_validate, cover)
    assert _verdict(GraphCover.validate, cover) == ("ok", None)
    corrupted = []
    # a branch mapped over the wrong vertex
    bm = dict(cover.branch_map)
    bm[("a@0", 0)] = ("a", 1)
    corrupted.append(("does not commute with psi", _corrupt(cover, branch_map=bm)))
    # a broken involution: the other end of a@0 is sent to b
    bm = dict(cover.branch_map)
    bm[("a@0", 1)] = ("b", 1)
    corrupted.append(("breaks the involution", _corrupt(cover, branch_map=bm)))
    # two branches at one vertex with the same image: all of b@0 is sent to a
    bm = dict(cover.branch_map)
    bm[("b@0", 0)] = ("a", 0)
    bm[("b@0", 1)] = ("a", 1)
    corrupted.append(("branch-locally bijective", _corrupt(cover, branch_map=bm)))
    # an unequal fiber over an isolated base vertex
    base = BranchGraph(["u", "x"], {"l": ("u", "u")})
    total = BranchGraph(["u@0", "x@0", "x@1"], {"l@0": ("u@0", "u@0")})
    uneven = GraphCover(
        base, total, {"u@0": "u", "x@0": "x", "x@1": "x"}, {"l@0": "l"},
        {("l@0", 0): ("l", 0), ("l@0", 1): ("l", 1)},
    )
    corrupted.append(("fiber cardinality", uneven))
    for fragment, bad in corrupted:
        got = _verdict(GraphCover.validate, bad)
        assert got == _verdict(_reference_validate, bad)
        assert got[0] == "ValueError" and fragment in got[1], got


def test_validate_matches_reference_on_random_corruptions():
    rng = random.Random(SEED)
    verdicts = set()
    for name, G, d in _cover_cases():
        if d > 3:
            continue
        base_branches = G.branches()
        for cover in enumerate_covers(G, d)[:6]:
            assert _verdict(GraphCover.validate, cover) == ("ok", None)
            assert _reference_validate(cover) is cover
            for _ in range(4):
                bm = dict(cover.branch_map)
                vm = dict(cover.vertex_map)
                for _ in range(rng.randint(1, 2)):
                    if rng.random() < 0.7:
                        bm[rng.choice(sorted(bm))] = rng.choice(base_branches)
                    else:
                        vm[rng.choice(sorted(vm))] = rng.choice(G.vertices)
                bad = _corrupt(cover, vertex_map=vm, branch_map=bm)
                got = _verdict(GraphCover.validate, bad)
                assert got == _verdict(_reference_validate, bad), (name, d)
                checks = ("psi", "involution", "locally bijective", "fiber")
                verdicts |= {c for c in checks if c in (got[1] or "")} or {got[0]}
    # the corruptions reach every check but the fibers, and some pass
    assert verdicts == {"ok", "psi", "involution", "locally bijective"}, verdicts


def test_simple_cycles_matches_reference():
    for name, G, d in _cover_cases():
        if d > 3:
            continue
        assert G.simple_cycles() == _reference_simple_cycles(G)
        for cover in enumerate_covers(G, d)[:8]:
            assert cover.total.simple_cycles() == _reference_simple_cycles(cover.total), (name, d)
    rng = random.Random(SEED)
    for _ in range(300):
        G = _random_branch_graph(rng)
        assert G.simple_cycles() == _reference_simple_cycles(G)


# -- traversals against the walks that the spanning forest replaced ------------------


def _reference_components(G):
    """components as it was before the spanning forest."""
    seen = set()
    comps = []
    adj = {v: set() for v in G.vertices}
    for e in G.real_edges():
        u, w = G.edges[e]
        adj[u].add(w)
        adj[w].add(u)
    for v in G.vertices:
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


def _reference_spanning_tree(G):
    """spanning_tree as it was before the spanning forest."""
    if len(_reference_components(G)) > 1:
        raise ValueError("spanning tree requires a connected graph")
    if not G.vertices:
        return set()
    root = G.vertices[0]
    seen = {root}
    tree = set()
    frontier = [root]
    incident = {v: [] for v in G.vertices}
    for e in G.real_edges():
        u, w = G.edges[e]
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


def _reference_tree_path(G, tree, u, v):
    """tree_path as it was before the spanning forest: a search of the tree."""
    parent = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for e in sorted(tree):
            a, b = G.edges[e]
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


def _reference_vertex_distances(G, source):
    """MetricGraph.vertex_distances as it was before graphs.distances."""
    dist = {source: Fraction(0)}
    todo = {source}
    while todo:
        v = min(todo, key=lambda x: (dist[x], x))
        todo.discard(v)
        for e in G.real_edges():
            a, b = G.edges[e]
            for x, y in ((a, b), (b, a)):
                if x == v:
                    nd = dist[v] + G.lengths[e]
                    if y not in dist or nd < dist[y]:
                        dist[y] = nd
                        todo.add(y)
    return dist


def _reference_distance_to_cycle(G, lengths, cycle):
    """splitting._distance_to_cycle as it was before graphs.distances."""
    cycle_vertices = set()
    for e in cycle:
        cycle_vertices.update(G.edges[e])
    dist = {v: Fraction(0) for v in cycle_vertices}
    todo = set(cycle_vertices)
    while todo:
        v = min(todo, key=lambda x: (dist[x], x))
        todo.discard(v)
        for e, ends in G.edges.items():
            if len(ends) != 2:
                continue
            for x, y in (ends, ends[::-1]):
                if x == v:
                    nd = dist[v] + lengths[e]
                    if y not in dist or nd < dist[y]:
                        dist[y] = nd
                        todo.add(y)
    return dist


def _reference_current_basis(G):
    """The basis loop of current_group as it was before the spanning forest:
    one sub-graph and one tree per component."""
    from anabel.currents import path_current

    basis = []
    for comp in _reference_components(G):
        sub_edges = {e: ends for e, ends in G.edges.items() if set(ends) <= comp}
        sub = BranchGraph(sorted(comp), sub_edges)
        tree = _reference_spanning_tree(sub)
        for e in sub.real_edges():
            if e in tree:
                continue
            u, w = sub.edges[e]
            path = _reference_tree_path(sub, tree, w, u) + [(e, +1)]
            basis.append(path_current(G, path, closed=True).current)
    return basis


def _random_multigraph(rng):
    """A metric multigraph of 1-3 components, each grown from a random tree
    and given extra loops, parallel edges and cusps; a component may be an
    isolated vertex. Vertex ids are chosen so that string order differs from
    the order of growth."""
    names = rng.sample([f"v{i}" for i in range(30)], rng.randint(1, 9))
    cuts = sorted(rng.sample(range(1, len(names)), min(len(names) - 1, rng.randint(0, 2))))
    parts = [names[a:b] for a, b in zip([0] + cuts, cuts + [len(names)])]
    edge_ids = iter(rng.sample(range(100), 60))
    edges = {}
    for part in parts:
        for i in range(1, len(part)):
            edges[f"e{next(edge_ids)}"] = (part[rng.randrange(i)], part[i])
        for _ in range(rng.randint(0, 4)):
            u = rng.choice(part)
            kind = rng.random()
            if kind < 0.25:
                edges[f"e{next(edge_ids)}"] = (u,)
            elif kind < 0.45:
                edges[f"e{next(edge_ids)}"] = (u, u)
            else:
                w = rng.choice(part)
                edges[f"e{next(edge_ids)}"] = rng.choice([(u, w), (w, u)])
        if rng.random() < 0.3 and len(part) > 1:
            # two more edges parallel to the first tree edge, one reversed
            u, w = part[0], part[1]
            edges[f"e{next(edge_ids)}"] = (u, w)
            edges[f"e{next(edge_ids)}"] = (w, u)
    lengths = {e: Fraction(rng.randint(1, 6), rng.randint(1, 3)) for e in edges}
    return MetricGraph(names, edges, lengths), len(parts)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_traversals_match_reference():
    rng = random.Random(SEED)
    seen_parts = set()
    for _ in range(300):
        G, parts = _random_multigraph(rng)
        seen_parts.add(parts)
        comps = _reference_components(G)
        assert G.components() == comps
        assert len(comps) == parts
        assert G.is_connected() == (len(comps) <= 1)
        assert G.cycle_rank() == len(G.real_edges()) - len(G.vertices) + len(comps)
        assert _outcome(G.spanning_tree) == _outcome(_reference_spanning_tree, G)
        for comp in comps:
            sub = BranchGraph(sorted(comp), {
                e: ends for e, ends in G.edges.items() if set(ends) <= comp
            })
            tree = _reference_spanning_tree(sub)
            for u in sorted(comp):
                for v in sorted(comp):
                    assert G.tree_path(u, v) == _reference_tree_path(sub, tree, u, v)
        if len(comps) > 1:
            u, v = min(comps[0]), min(comps[1])
            with pytest.raises(ValueError, match="not connected in tree"):
                G.tree_path(u, v)
        for v in G.vertices:
            assert G.vertex_distances(v) == _reference_vertex_distances(G, v)
        for cycle in G.simple_cycles():
            ends = {v for e in cycle for v in G.edges[e]}
            assert distances(G, G.lengths, ends) == _reference_distance_to_cycle(
                G, G.lengths, cycle
            )
        assert G.simple_cycles() == _reference_simple_cycles(G)
    assert seen_parts == {1, 2, 3}


def _current_cases():
    rng = random.Random(SEED)
    cases = [_random_multigraph(rng)[0] for _ in range(300)]
    # two components whose order (by lowest vertex) is not the order of
    # their edge ids, plus an isolated vertex
    cases.append(BranchGraph(["a", "b", "x", "y", "z"], {
        "z1": ("a", "b"), "z2": ("b", "a"), "c1": ("x", "y"), "c2": ("x", "y"),
        "c3": ("y",),
    }))
    return cases


def test_current_group_basis_matches_reference():
    from anabel.currents import current_group

    cases = _current_cases()
    for G in cases:
        want = _reference_current_basis(G)
        assert current_group(G)[1] == want
        for n in (2, 6):
            assert current_group(G, n)[1] == [c.reduce_mod(n) for c in want]
    # the basis runs by component, then by chord: z2 before c2
    _, basis = current_group(cases[-1])
    assert [sorted({e for (e, _), x in c.values.items() if x}) for c in basis] == [
        ["z1", "z2"], ["c1", "c2"],
    ]


def test_degree_zero_certifies_nothing():
    # with no cover tested, the whole edge space and "no witness" would read
    # as results, so a degree below 1 is rejected
    from anabel.splitting import GraphIsomorphism, detect_metric_mismatch

    with pytest.raises(ValueError, match="max_degree must be >= 1"):
        rigidity_kernel(theta(), 0)
    G1 = MetricGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v")},
                     {"a": Fraction(1), "b": Fraction(1)})
    G2 = MetricGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v")},
                     {"a": Fraction(1), "b": Fraction(5)})
    iso = GraphIsomorphism(G1, G2, {"u": "u", "v": "v"}, {"a": "a", "b": "b"})
    assert detect_metric_mismatch(G1, G2, iso, 2, max_cover_degree=1) is not None
    with pytest.raises(ValueError, match="max_cover_degree must be >= 1"):
        detect_metric_mismatch(G1, G2, iso, 2, max_cover_degree=0)
    with pytest.raises(ValueError, match="no vertices"):
        enumerate_covers(BranchGraph([], {}), 1)


def _reference_rigidity_kernel(G, max_degree):
    """The full search: the nullspace of the rows of every simple cycle of
    every cover of every degree up to max_degree."""
    from anabel.intlin import nullspace

    edges = G.real_edges()
    index = {e: i for i, e in enumerate(edges)}
    rows = set()
    for d in range(1, max_degree + 1):
        for cover in enumerate_covers(G, d):
            for cycle in cover.total.simple_cycles():
                row = [0] * len(edges)
                for te in cycle:
                    row[index[cover.edge_map[te]]] += 1
                if any(row):
                    rows.add(tuple(row))
    basis = nullspace(sorted(rows), len(edges))
    return [{e: vec[i] for e, i in index.items()} for vec in basis]


def test_rigidity_search_stops_at_certified_kernel(monkeypatch):
    # rank 3, and x has exactly two real branches, on d and e: every cover
    # keeps e_d - e_e in the kernel, and the degree-1 cover's cycles already
    # reach rank 5, so only that cover's total graph is built
    G = BranchGraph(["u", "v", "w", "x"], {
        "a": ("u", "v"), "b": ("u", "v"), "c": ("v", "w"),
        "d": ("w", "x"), "e": ("x", "u"), "f": ("w", "u"),
    })
    built = _count_builds(monkeypatch)
    start = time.perf_counter()
    basis, warnings = rigidity_kernel(G, 5)
    elapsed = time.perf_counter() - start
    monkeypatch.undo()
    assert len(built) == 1
    assert basis == [{"a": 0, "b": 0, "c": 0, "d": -1, "e": 1, "f": 0}]
    assert basis == _reference_rigidity_kernel(G, 3)
    assert warnings == ["vertices of arity < 3: x"]
    assert elapsed < 1.0


def _random_connected_graph(rng):
    """A connected graph of cycle rank at most 3: a random tree on 1-4
    vertices, plus loops, cusps and parallel edges, so that some vertices
    have arity 1 or 2."""
    vs = [f"v{i}" for i in range(rng.randint(1, 4))]
    edges = {f"t{i}": (vs[rng.randrange(i)], vs[i]) for i in range(1, len(vs))}
    rank = 0
    for k in range(rng.randint(0, 4)):
        u, w = rng.choice(vs), rng.choice(vs)
        if rng.random() < 0.3:
            edges[f"c{k}"] = (u,)
        elif rank < 3:
            edges[f"x{k}"] = (u, u) if rng.random() < 0.3 else (u, w)
            rank += 1
    return BranchGraph(vs, edges)


def test_rigidity_kernel_matches_full_enumeration():
    rng = random.Random(SEED)
    nontrivial = 0
    for _ in range(150):
        G = _random_connected_graph(rng)
        for max_degree in (1, 2, 3):
            basis, warnings = rigidity_kernel(G, max_degree)
            assert basis == _reference_rigidity_kernel(G, max_degree)
            assert bool(warnings) == any(G.arity(v) < 3 for v in G.vertices)
        nontrivial += bool(basis)
    assert nontrivial >= 50


def test_rigidity_search_stops_at_full_rank(monkeypatch):
    # theta's own three cycles already span Q^3, so no cover past the
    # degree-1 cover is built or walked
    walked = []
    degrees = []
    simple_cycles = BranchGraph.simple_cycles
    monkeypatch.setattr(BranchGraph, "simple_cycles",
                        lambda self: walked.append(self) or simple_cycles(self))
    monkeypatch.setattr("anabel.graphs.enumerate_covers",
                        lambda G, d: degrees.append(d) or enumerate_covers(G, d))
    assert rigidity_kernel(theta(), 3) == ([], [])
    assert len(walked) == 1 and degrees == [1]
    monkeypatch.undo()
    start = time.perf_counter()
    assert rigidity_kernel(theta(), 8) == ([], [])
    assert time.perf_counter() - start < 1.0
