import math
from fractions import Fraction

import pytest

from anabel.currents import Current, SubgraphStar, path_current
from anabel.graphs import MetricGraph
from anabel.splitting import (
    GraphIsomorphism,
    band_boundary_flag,
    contraction_bound,
    detect_metric_mismatch,
    detection_function,
    fiber_count,
    gap_threshold,
    interval_gap,
    radius_pushforward,
    split_locus,
    tate_intervals,
)

F = Fraction


def preimage_valuation(p, v):
    """Invert the pushforward: the unique w > 0 with push(w) = v, and the
    local fiber factor (p above the one-step splitting threshold, else 1)."""
    c = F(1, p - 1)
    if v >= 1 + c:
        w = v - 1
        factor = p
    else:
        w = v / p
        factor = 1
    assert radius_pushforward(p, w) == v
    return w, factor


def fiber_count_recursive(p, h, v):
    """Oracle: peel one z -> z^p at a time using the h = 1 band."""
    if v == 0:
        return 0
    count = 0
    for _ in range(h):
        v, factor = preimage_valuation(p, v)
        if factor == p:
            count += 1
    return count


def test_radius_pushforward_examples():
    assert radius_pushforward(2, F(3)) == 4
    assert radius_pushforward(2, F(1, 2)) == 1
    assert radius_pushforward(3, F(1, 2)) == F(3, 2)
    with pytest.raises(ValueError):
        radius_pushforward(2, F(0))
    with pytest.raises(ValueError):
        radius_pushforward(4, F(1))


def test_fiber_count_examples():
    assert fiber_count(2, 1, F(1)) == 0  # r = 1/2 in the outer band
    assert fiber_count(2, 3, F(4)) == 3
    for p in (2, 3, 5):
        assert fiber_count(p, 4, F(0)) == 0


def test_fiber_count_band_boundaries():
    # closed on the high-valuation side: v = i + 1/(p-1) gives i
    assert fiber_count(2, 3, F(3)) == 2
    assert band_boundary_flag(2, 3, F(3))
    assert not band_boundary_flag(2, 3, F(5, 2))
    assert fiber_count(3, 2, F(2) + F(1, 2)) == 2
    assert fiber_count(3, 2, F(5, 2) - F(1, 1000000)) == 1


def test_fiber_count_matches_recursion_sweep():
    # acceptance criterion 1 at module scale: full sweep lives in acceptance
    for p in (2, 3):
        for h in (1, 2, 3):
            for num in range(0, 41):
                v = F(num, 4)
                assert fiber_count(p, h, v) == fiber_count_recursive(p, h, v)


def _reference_band(p, h, v):
    """The band and the boundary flag from their definitions, in Fractions."""
    t = v - F(1, p - 1)
    band = 0 if t < 1 else min(h, math.floor(t))
    return band, 1 <= t <= h and t.denominator == 1


def test_bands_match_fraction_definition():
    values = sorted({F(k, q) for q in range(1, 25) for k in range(0, 14 * q + 1)})
    for p in (2, 3, 5, 7, 11):
        for h in range(1, 7):
            for v in values:
                assert (fiber_count(p, h, v), band_boundary_flag(p, h, v)) == \
                    _reference_band(p, h, v)
    # an int valuation is read as the rational it is
    assert (fiber_count(3, 4, 3), band_boundary_flag(3, 4, 3)) == _reference_band(3, 4, F(3))


def test_fiber_count_monotone_and_bounded():
    for p in (2, 3, 5):
        h = 4
        prev = 0
        for num in range(0, 120):
            v = F(num, 6)
            i = fiber_count(p, h, v)
            assert 0 <= i <= h
            assert i >= prev
            prev = i


def test_contraction_bound():
    assert contraction_bound(F(0), F(3)) == 3
    assert contraction_bound(F(3), F(3)) == 0
    assert contraction_bound(F(1), F(3)) == 2
    with pytest.raises(ValueError):
        contraction_bound(F(4), F(3))


def test_tate_intervals_worked_example():
    out = tate_intervals(2, F(1), 3, 13, 9)
    assert out.i1 == (19, 21)
    assert out.i2 == (6, 7)
    assert out.length1 == 27 - 13 - 12 == 2
    assert out.length2 == 13 - 12 == 1


def test_tate_intervals_constraints():
    with pytest.raises(ValueError):
        tate_intervals(2, F(1), 3, 12, 9)  # l too small
    with pytest.raises(ValueError):
        tate_intervals(2, F(1), 3, 13, 8)  # m too small
    with pytest.raises(ValueError):
        tate_intervals(2, F(1), 2, 13, 9)  # n not coprime to p


def test_interval_gap():
    assert interval_gap(2, 4, F(1), F(2), 17, 9) == 16 - 8 == 8
    with pytest.raises(ValueError):
        interval_gap(2, 4, F(2), F(2), 17, 9)
    # threshold case: gap exactly 2 when n equals the threshold
    p, v1, v2 = 2, F(1), F(2)
    n = gap_threshold(p, v1, v2)
    assert n == 1
    l = 1 + int(2 * n * p / ((p - 1) * v1)) + 1
    m = 2 * l
    assert interval_gap(p, int(n), v1, v2, l, m) == 2


def test_detection_function():
    assert detection_function(2, F(5, 2)) == 2
    assert detection_function(2, F(0)) == 1
    assert detection_function(3, F(1, 2)) == 1
    for p in (2, 3):
        prev = 1
        for num in range(0, 40):
            val = detection_function(p, F(num, 3))
            assert val >= prev and val >= 1
            prev = val


def metric_theta(l_a=1, l_b=1, l_c=1):
    return MetricGraph(
        ["u", "v"],
        {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")},
        {"a": F(l_a), "b": F(l_b), "c": F(l_c)},
    )


def test_split_locus_zero_current():
    G = metric_theta()
    zero = Current.zero(G)
    K = SubgraphStar(G, {"u"}, set())
    Kp = SubgraphStar(G, set(G.vertices), set(G.edges))
    out = split_locus(G, zero, 2, 1, F(5, 2), K, Kp)
    assert out.mode == "uniform"
    assert out.split == {"u"}


def test_split_locus_pointwise_non_split():
    G = metric_theta()
    c = path_current(G, [("a", +1), ("b", -1)]).current
    K = SubgraphStar(G, {"u", "v"}, set())
    Kp = SubgraphStar(G, set(G.vertices), set(G.edges))
    out = split_locus(G, c, 2, 1, F(5, 2), K, Kp)
    assert out.mode == "pointwise"
    assert out.non_split == {"u", "v"}


def test_split_locus_monotone_in_lambda():
    # a long path with a cycle at one end; vertex far from the cycle splits
    G = MetricGraph(
        ["a", "b", "c", "d"],
        {
            "loop1": ("a", "b"),
            "loop2": ("a", "b"),
            "e1": ("b", "c"),
            "e2": ("c", "d"),
        },
        {"loop1": F(1), "loop2": F(1), "e1": F(4), "e2": F(4)},
    )
    c = path_current(G, [("loop1", +1), ("loop2", -1)]).current
    K = SubgraphStar(G, {"d"}, set())
    Kp = SubgraphStar(G, {"c", "d"}, {"e2"})
    out = split_locus(G, c, 2, 1, F(7, 2), K, Kp)
    assert out.mode == "uniform" and out.split == {"d"}
    # enlarging lambda past the geometry switches to pointwise; d still splits
    out2 = split_locus(G, c, 2, 1, F(9), K, Kp)
    assert out2.split >= out.split - out2.non_split
    assert "d" in out2.split


def test_split_locus_lambda_precondition():
    G = metric_theta()
    with pytest.raises(ValueError):
        split_locus(
            G,
            Current.zero(G),
            2,
            1,
            F(2),
            SubgraphStar(G, {"u"}, set()),
            SubgraphStar(G, set(G.vertices), set(G.edges)),
        )


def identity_iso(G1, G2):
    return GraphIsomorphism(
        G1, G2, {v: v for v in G1.vertices}, {e: e for e in G1.edges}
    )


def test_detect_metric_mismatch_identical():
    G1, G2 = metric_theta(), metric_theta()
    assert detect_metric_mismatch(G1, G2, identity_iso(G1, G2), 2) is None


def test_detect_metric_mismatch_finds_difference():
    G1 = metric_theta(1, 1, 1)
    G2 = metric_theta(2, 1, 1)
    w = detect_metric_mismatch(G1, G2, identity_iso(G1, G2), 2)
    assert w is not None
    assert w.values[0] != w.values[1]


def test_detect_none_certifies_cycle_lengths():
    # ground truth oracle: direct cycle-sum comparison
    G1 = metric_theta(1, 2, 3)
    G2 = metric_theta(1, 2, 3)
    assert detect_metric_mismatch(G1, G2, identity_iso(G1, G2), 2) is None
    for cyc in G1.simple_cycles():
        assert G1.cycle_length(cyc) == G2.cycle_length(cyc)


def test_detect_uniform_scaling_ground_truth():
    # scaling all lengths changes cycle sums, so the oracle differs; the
    # detector is only asserted to certify cycle-length equality on None
    G1 = metric_theta(1, 1, 1)
    G2 = metric_theta(2, 2, 2)
    out = detect_metric_mismatch(G1, G2, identity_iso(G1, G2), 2)
    lengths_differ = any(
        G1.cycle_length(c) != G2.cycle_length(c) for c in G1.simple_cycles()
    )
    assert lengths_differ
    if out is None:  # pragma: no cover - documents the one-sided contract
        pass
    else:
        assert out.values[0] != out.values[1]
