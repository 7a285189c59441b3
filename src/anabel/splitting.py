"""Exact splitting arithmetic in valuation coordinates.

A radius r < 1 is represented by its valuation v = -log_p r >= 0, always an
exact Fraction, so every band boundary (multiples of 1/(p-1)) is compared
exactly. Band boundaries are closed on the high-valuation side: at
v = i + 1/(p-1) the fiber exponent is i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Set, Tuple

from .intlin import is_prime

# split_locus and detect_metric_mismatch import currents and graphs
# themselves, so the band and interval arithmetic loads neither
if TYPE_CHECKING:
    from .currents import Current, SubgraphStar
    from .graphs import BranchGraph, MetricGraph


def _check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime (equal characteristic is rejected)")
    return p


def radius_pushforward(p: int, v: Fraction) -> Fraction:
    """Valuation of the image ball under z -> z^p: v' = min(p v, v + 1)."""
    _check_prime(p)
    v = Fraction(v)
    if v <= 0:
        raise ValueError("pushforward needs v > 0 (unit circle boundary)")
    return min(p * v, v + 1)


def fiber_count(p: int, h: int, v: Fraction) -> int:
    """Exponent i such that the fiber of z -> z^(p^h) over the ball of
    valuation v has p^i points.

    Bands: i = 0 below 1 + 1/(p-1); i on [i + 1/(p-1), i + 1 + 1/(p-1));
    i = h from h + 1/(p-1) on.
    """
    _check_prime(p)
    if h < 1:
        raise ValueError("torsor exponent h must be >= 1")
    a, b = v.as_integer_ratio()
    if a < 0:
        raise ValueError("valuation must be >= 0")
    # v - 1/(p-1) = t/q in integers: v < 1 + 1/(p-1) exactly when t < q,
    # and the band floor(v - 1/(p-1)) is t // q
    t, q = a * (p - 1) - b, b * (p - 1)
    return 0 if t < q else min(h, t // q)


def band_boundary_flag(p: int, h: int, v: Fraction) -> bool:
    """True when v sits exactly on a band boundary i + 1/(p-1)."""
    a, b = v.as_integer_ratio()
    t, q = a * (p - 1) - b, b * (p - 1)  # v - 1/(p-1) = t/q
    return q <= t <= h * q and t % q == 0


def contraction_bound(d: Fraction, lam: Fraction) -> Fraction:
    """Valuation lower bound lam - d for |f(z') - 1| given d(z, z') = d."""
    d, lam = Fraction(d), Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if d < 0:
        raise ValueError("distance must be nonnegative")
    if d > lam:
        raise ValueError("bound is vacuous for d > lambda")
    return lam - d


class SplitLocusReport(NamedTuple):
    split: Set[str]
    non_split: Set[str]
    mode: str  # "uniform" when the vanishing-star hypotheses held


def split_locus(
    G: MetricGraph,
    current: Current,
    p: int,
    e: int,
    lam: Fraction,
    K: SubgraphStar,
    Kprime: SubgraphStar,
) -> SplitLocusReport:
    """Vertices of K where the mod-p^e torsor of the current is split.

    With lam > e + 1/(p-1), every closed lam-ball around K inside K', and
    the current vanishing on the star of K', all of K splits. If the
    current hypotheses fail, falls back to the pointwise test: a vertex is
    non-split when the current is nonzero mod p^e on its star.
    """
    from .currents import SubgraphStar, vanishes_on_star

    _check_prime(p)
    if e < 1:
        raise ValueError("exponent must be >= 1")
    lam = Fraction(lam)
    if lam <= e + Fraction(1, p - 1):
        raise ValueError("need lambda > e + 1/(p-1)")
    balls_ok = True
    for v in sorted(K.vertices):
        dist = G.vertex_distances(v)
        for w in G.vertices:
            if w in dist and dist[w] <= lam and w not in Kprime.vertices:
                balls_ok = False
        for edge, ends in G.edges.items():
            if len(ends) == 1:
                continue
            dmin = min((dist[x] if x in dist else lam + 1) for x in ends)
            if dmin < lam and edge not in Kprime.edges:
                balls_ok = False
    vanishing = vanishes_on_star(current, Kprime, modulus=p**e)
    if balls_ok and vanishing:
        return SplitLocusReport(set(K.vertices), set(), "uniform")
    non_split = set()
    for v in sorted(K.vertices):
        star = SubgraphStar(G, {v}, set())
        if not vanishes_on_star(current, star, modulus=p**e):
            non_split.add(v)
    return SplitLocusReport(set(K.vertices) - non_split, non_split, "pointwise")


class TateIntervals(NamedTuple):
    i1: Tuple[int, int]
    i2: Tuple[int, int]
    length1: Fraction
    length2: Fraction


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _validate_tate_params(p, v, n, l, m, require_coprime=True) -> Fraction:
    _check_prime(p)
    v = Fraction(v)
    if v <= 0:
        raise ValueError("v must be positive")
    if n < 1 or (require_coprime and math.gcd(n, p) != 1):
        raise ValueError("need n >= 1 coprime to p")
    t = Fraction(n * p, (p - 1)) / v
    if l < 1 + 2 * t:
        raise ValueError(f"constraint violated: l >= 1 + 2np/((p-1)v) = {1 + 2 * t}")
    if Fraction(m) < Fraction(2 * l, n):
        raise ValueError(f"constraint violated: m >= 2l/n = {Fraction(2 * l, n)}")
    return t


def tate_intervals(p: int, v: Fraction, n: int, l: int, m: int) -> TateIntervals:
    """The two split-locus index intervals on the mn-vertex circle.

    With t = np/(v(p-1)): I1 = [l + t, mn - t], I2 = [t, l - t], returned
    as integer intervals with exact real lengths mn - l - 2t and l - 2t.
    """
    t = _validate_tate_params(p, v, n, l, m)
    v = Fraction(v)
    i1 = (_ceil(l + t), _floor(m * n - t))
    i2 = (_ceil(t), _floor(l - t))
    out = TateIntervals(i1, i2, m * n - l - 2 * t, l - 2 * t)
    if out.i1[0] > out.i1[1] or out.i2[0] > out.i2[1]:
        raise AssertionError("interval became empty despite the constraints")
    if not (i2[1] < i1[0] or i1[1] < i2[0]):
        raise AssertionError("intervals are not disjoint")
    return out


def interval_gap(p: int, n: int, v1: Fraction, v2: Fraction, l: int, m: int) -> Fraction:
    """Difference of the two interval lengths, 2np/(v1(p-1)) - 2np/(v2(p-1)).

    The gap is >= 2 exactly when n >= v1 v2 (p-1) / ((v2 - v1) p).
    """
    _check_prime(p)
    v1, v2 = Fraction(v1), Fraction(v2)
    if v1 >= v2:
        raise ValueError("need v1 < v2")
    # the length inequalities must hold at both valuations; the gap formula
    # itself is indifferent to the coprimality of n and p
    _validate_tate_params(p, v1, n, l, m, require_coprime=False)
    _validate_tate_params(p, v2, n, l, m, require_coprime=False)
    c = Fraction(2 * n * p, p - 1)
    return c / v1 - c / v2


def gap_threshold(p: int, v1: Fraction, v2: Fraction) -> Fraction:
    return Fraction(v1 * v2 * (p - 1), 1) / ((v2 - v1) * p)


def detection_function(p: int, d: Fraction) -> int:
    """max(1, ceil(d - 1/(p-1))): the splitting level detectable at distance d."""
    _check_prime(p)
    d = Fraction(d)
    if d < 0:
        raise ValueError("distance must be nonnegative")
    return max(1, _ceil(d - Fraction(1, p - 1)))


class MismatchWitness(NamedTuple):
    cycle: Tuple[str, ...]
    reference_cycle: Tuple[str, ...]
    vertex: str
    step: int
    values: Tuple[int, int]


class GraphIsomorphism:
    """Vertex/edge bijection between two branch graphs, validated."""

    def __init__(self, G1: BranchGraph, G2: BranchGraph,
                 vertex_map: Dict[str, str], edge_map: Dict[str, str]):
        self.G1, self.G2 = G1, G2
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        if sorted(self.vertex_map) != list(G1.vertices) or sorted(
            self.vertex_map.values()
        ) != list(G2.vertices):
            raise ValueError("vertex map is not a bijection")
        if sorted(self.edge_map) != sorted(G1.edges) or sorted(
            self.edge_map.values()
        ) != sorted(G2.edges):
            raise ValueError("edge map is not a bijection")
        for e, ends in G1.edges.items():
            img = self.edge_map[e]
            if sorted(self.vertex_map[x] for x in ends) != sorted(G2.edges[img]):
                raise ValueError(f"edge {e} endpoints do not correspond")


def detect_metric_mismatch(
    G1: MetricGraph, G2: MetricGraph, iso: GraphIsomorphism, p: int,
    max_cover_degree: int = 2,
) -> Optional[MismatchWitness]:
    """Scan detection values over cycles and vertices of covers of both
    graphs; None certifies equal cycle lengths for all tested cycles.

    For each pair (C, L) of simple cycles of a cover and each vertex z the
    streams max(1, ceil(j lg_i(C) + r_i - 1/(p-1))) are compared, where
    r_i is the distance from z to L; the first disagreement is returned.
    The cover of G2 with the same permutation data on the corresponding
    chords is the cover of G1 relabeled along the isomorphism, so both
    sides are read on G1's cover: once under G1's edge lengths and once
    under G2's, pulled back through the edge map.
    """
    from .graphs import distances, enumerate_covers, lift_edge_function

    _check_prime(p)
    if max_cover_degree < 1:
        raise ValueError("max_cover_degree must be >= 1")
    pulled = {e: G2.lengths[iso.edge_map[e]] for e in G1.edges}
    for d in range(1, max_cover_degree + 1):
        for cover in enumerate_covers(G1, d):
            total = cover.total
            len1 = lift_edge_function(cover, G1.lengths)
            len2 = lift_edge_function(cover, pulled)
            cycles = total.simple_cycles()
            # distances from each reference cycle L under both lengths
            refs = []
            for ref in cycles:
                ends = {v for e in ref for v in total.edges[e]}
                refs.append((ref, distances(total, len1, ends),
                             distances(total, len2, ends)))
            for cyc in cycles:
                lg1 = sum(len1[e] for e in cyc)
                lg2 = sum(len2[e] for e in cyc)
                for ref, dist1, dist2 in refs:
                    for z in total.vertices:
                        if z not in dist1:
                            continue
                        r1, r2 = dist1[z], dist2[z]
                        jmax = _scan_bound(lg1, lg2, r1, r2)
                        for j in range(jmax + 1):
                            a = detection_function(p, j * lg1 + r1)
                            b = detection_function(p, j * lg2 + r2)
                            if a != b:
                                return MismatchWitness(
                                    cycle=tuple(sorted(cyc)),
                                    reference_cycle=tuple(sorted(ref)),
                                    vertex=z,
                                    step=j,
                                    values=(a, b),
                                )
    return None


def _scan_bound(lg1, lg2, r1, r2) -> int:
    """Steps to scan: enough for a length difference to force a gap >= 2."""
    diff = abs(lg1 - lg2)
    if diff:
        return max(2, _ceil(Fraction(2) / diff) + 2)
    big = max(lg1, r1, r2, Fraction(1))
    return max(4, _ceil(big) + 2)
