"""Property tests for the metric mismatch detector and the rigidity sweep."""

import itertools
import random
from fractions import Fraction

from anabel.graphs import BranchGraph, MetricGraph, enumerate_covers, lift_edge_function
from anabel.splitting import GraphIsomorphism, detect_metric_mismatch

F = Fraction


def random_theta_metrics(rng):
    def L():
        return F(rng.randint(1, 8), rng.randint(1, 4))

    base = {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")}
    G1 = MetricGraph(["u", "v"], base, {e: L() for e in base})
    if rng.random() < 0.5:
        lengths2 = dict(G1.lengths)
    else:
        lengths2 = {e: L() for e in base}
    G2 = MetricGraph(["u", "v"], base, lengths2)
    return G1, G2


def cycle_lengths_of_covers(G, lengths_map=None, max_degree=2):
    out = []
    for d in range(1, max_degree + 1):
        for cover in enumerate_covers(G, d):
            lifted = lift_edge_function(cover, G.lengths)
            for cyc in cover.total.simple_cycles():
                key = (d, cover.assignment, tuple(sorted(cyc)))
                out.append((key, sum(lifted[e] for e in cyc)))
    return dict(out)


def test_detector_none_implies_equal_cycle_lengths():
    rng = random.Random(20260808)
    ident = lambda G1, G2: GraphIsomorphism(
        G1, G2, {v: v for v in G1.vertices}, {e: e for e in G1.edges}
    )
    nones = 0
    hits = 0
    for _ in range(30):
        G1, G2 = random_theta_metrics(rng)
        out = detect_metric_mismatch(G1, G2, ident(G1, G2), 2)
        lengths1 = cycle_lengths_of_covers(G1)
        lengths2 = cycle_lengths_of_covers(G2)
        if out is None:
            nones += 1
            assert lengths1 == lengths2
        else:
            hits += 1
            assert out.values[0] != out.values[1]
    assert nones > 0 and hits > 0


def test_detector_fires_whenever_base_cycles_differ():
    # differing base cycle sums force a witness at scan depth
    base = {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")}
    for delta in (F(1), F(1, 2), F(3)):
        G1 = MetricGraph(["u", "v"], base, {"a": F(1), "b": F(2), "c": F(3)})
        G2 = MetricGraph(
            ["u", "v"], base, {"a": F(1) + delta, "b": F(2), "c": F(3)}
        )
        iso = GraphIsomorphism(
            G1, G2, {v: v for v in G1.vertices}, {e: e for e in G1.edges}
        )
        assert detect_metric_mismatch(G1, G2, iso, 2) is not None


def test_rigidity_enumeration_recount():
    """Independent recount of the acceptance sweep's graph classes."""
    import sys
    import pathlib

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from test_acceptance import _min_arity_graphs

    graphs = _min_arity_graphs()
    by_v = {}
    for G in graphs:
        by_v.setdefault(len(G.vertices), []).append(G)
    # one vertex: only loop bouquets; arity 2L >= 3 needs L >= 2, L <= 5
    assert len(by_v.get(1, [])) == 4
    # two vertices: count solutions (a, b, c) with c >= 1 parallels, loops
    # a <= b, 2a + c >= 3, 2b + c >= 3, a + b + c <= 5
    count2 = 0
    for c in range(1, 6):
        for a in range(0, 6):
            for b in range(a, 6):
                if a + b + c <= 5 and 2 * a + c >= 3 and 2 * b + c >= 3:
                    count2 += 1
    assert len(by_v.get(2, [])) == count2
    # every graph in the sweep really is min-arity-3 and connected
    for G in graphs:
        assert G.is_connected()
        assert min(G.arity(v) for v in G.vertices) >= 3


def _renamed_metric_pairs(rng):
    """Seeded connected metric graphs G1 of rank 1 or 2 with loops,
    parallel edges and cusps, each with a copy G2 under new vertex and edge
    names in a shuffled order and with some edges reversed, so that G2's
    chords need not be the images of G1's. G2's lengths are G1's carried
    over, or G1's with one edge changed, or fresh."""
    def L():
        return F(rng.randint(1, 4), rng.randint(1, 3))

    for _ in range(20):
        vertices = ["u", "v", "w"][:rng.randint(1, 3)]
        edges = {f"t{i}": (vertices[i], vertices[i + 1])
                 for i in range(len(vertices) - 1)}
        for i in range(rng.randint(1, 2)):
            edges[f"c{i}"] = (rng.choice(vertices), rng.choice(vertices))
        if rng.random() < 0.3:
            edges["z"] = (rng.choice(vertices),)
        G1 = MetricGraph(vertices, edges, {e: L() for e in edges})
        vnames = rng.sample(["p", "q", "r", "s"], len(vertices))
        enames = rng.sample([f"e{i}" for i in range(9)], len(edges))
        vmap = dict(zip(vertices, vnames))
        emap = dict(zip(sorted(edges), enames))
        edges2 = {}
        for e, ends in edges.items():
            ends2 = tuple(vmap[x] for x in ends)
            edges2[emap[e]] = ends2[::-1] if rng.random() < 0.5 else ends2
        lengths2 = {emap[e]: G1.lengths[e] for e in edges}
        roll = rng.random()
        if roll < 0.4:
            lengths2[rng.choice(sorted(lengths2))] = L()
        elif roll < 0.6:
            lengths2 = {e: L() for e in edges2}
        G2 = MetricGraph(sorted(vnames), edges2, lengths2)
        yield G1, G2, GraphIsomorphism(G1, G2, vmap, emap)


def test_detector_matches_transport_reference():
    # reading G2's lengths on G1's covers gives the witness of building
    # each cover of G2 from G1's, under isomorphisms that are not identities
    import os

    import splitting_reference

    rng = random.Random(int(os.environ.get("ANABEL_SEED", "0")))
    found, moved_chords = set(), 0
    for G1, G2, iso in _renamed_metric_pairs(rng):
        p = rng.choice([2, 3, 5])
        got = detect_metric_mismatch(G1, G2, iso, p)
        assert got == splitting_reference.detect_metric_mismatch(G1, G2, iso, p)
        found.add(got is None)
        moved_chords += {iso.edge_map[e] for e in G1.chords()} != set(G2.chords())
    assert found == {True, False} and moved_chords
