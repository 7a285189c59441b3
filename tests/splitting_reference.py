"""Transport reference for `anabel.splitting.detect_metric_mismatch`.

The library reads both graphs on the covers of G1: once under G1's edge
lengths and once under G2's, pulled back through the edge map. The
reference here is the earlier form: it rebuilds each cover of G1 as the
corresponding cover of G2, by re-parsing the `v@i` sheet names of
`anabel.graphs`, and measures that copy under G2's lengths. Tests compare
the witnesses of the two.
"""

from typing import Optional

from anabel.graphs import (
    BranchGraph,
    MetricGraph,
    distances,
    enumerate_covers,
    lift_edge_function,
)
from anabel.splitting import (
    GraphIsomorphism,
    MismatchWitness,
    _check_prime,
    _scan_bound,
    detection_function,
)


def detect_metric_mismatch(
    G1: MetricGraph, G2: MetricGraph, iso: GraphIsomorphism, p: int,
    max_cover_degree: int = 2,
) -> Optional[MismatchWitness]:
    """Scan detection values over cycles and vertices of covers of both
    graphs; None certifies equal cycle lengths for all tested cycles.

    For each pair (C, L) of simple cycles of a cover and each vertex z the
    streams max(1, ceil(j lg_i(C) + r_i - 1/(p-1))) are compared, where
    r_i is the distance from z to L; the first disagreement is returned.
    """
    _check_prime(p)
    if max_cover_degree < 1:
        raise ValueError("max_cover_degree must be >= 1")
    pairs = []
    for d in range(1, max_cover_degree + 1):
        for c1 in enumerate_covers(G1, d):
            # transport the cover along the isomorphism: the same permutation
            # data on the corresponding chords gives the corresponding cover
            len1 = lift_edge_function(c1, G1.lengths)
            total2, len2, vmap2, emap2 = _transport_cover(c1, G2, iso)
            pairs.append((c1.total, len1, total2, len2, vmap2, emap2))
    for total1, len1, total2, len2, vmap2, emap2 in pairs:
        cycles1 = total1.simple_cycles()
        # distances from each reference cycle L, in the cover of G1 and
        # transported to the cover of G2
        refs = []
        for ref1 in cycles1:
            ends1 = {v for e in ref1 for v in total1.edges[e]}
            refs.append((ref1, distances(total1, len1, ends1),
                         distances(total2, len2, {vmap2[v] for v in ends1})))
        for cyc1 in cycles1:
            cyc2 = frozenset(emap2[e] for e in cyc1)
            lg1 = sum(len1[e] for e in cyc1)
            lg2 = sum(len2[e] for e in cyc2)
            for ref1, dist1, dist2 in refs:
                for z in total1.vertices:
                    if z not in dist1 or vmap2[z] not in dist2:
                        continue
                    r1, r2 = dist1[z], dist2[vmap2[z]]
                    jmax = _scan_bound(lg1, lg2, r1, r2)
                    for j in range(jmax + 1):
                        a = detection_function(p, j * lg1 + r1)
                        b = detection_function(p, j * lg2 + r2)
                        if a != b:
                            return MismatchWitness(
                                cycle=tuple(sorted(cyc1)),
                                reference_cycle=tuple(sorted(ref1)),
                                vertex=z,
                                step=j,
                                values=(a, b),
                            )
    return None


def _transport_cover(cover, G2: MetricGraph, iso: GraphIsomorphism):
    """The cover of G2 with the same permutation data, edge lengths lifted."""
    vmap2 = {}
    emap2 = {}
    edges = {}
    for tv in cover.total.vertices:
        base, sheet = tv.rsplit("@", 1)
        vmap2[tv] = f"{iso.vertex_map[base]}@{sheet}"
    for te, ends in cover.total.edges.items():
        base, sheet = te.rsplit("@", 1)
        name = f"{iso.edge_map[base]}@{sheet}"
        emap2[te] = name
        edges[name] = tuple(vmap2[x] for x in ends)
    total2 = BranchGraph(sorted(vmap2.values()), edges)
    len2 = {emap2[te]: G2.lengths[iso.edge_map[cover.edge_map[te]]]
            for te in cover.total.edges}
    return total2, len2, vmap2, emap2
