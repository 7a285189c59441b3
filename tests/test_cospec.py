import random

import pytest

from anabel.cospec import (
    ClosureIncidence,
    CospecError,
    EmptyFiber,
    NonUniqueMax,
    Poset,
    cospec_compose,
    cospec_polysimplicial,
    cospec_strata,
    curve_cospec,
)
from anabel.graphs import BranchGraph, compose_generalized
from anabel.poly import box_product, representable
from anabel.poly_ops import CellFunctor, box_extend, is_cospec_iso


def test_poset_validation():
    P = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert P.leq("a", "c")
    assert P.minima() == ["a"]
    with pytest.raises(ValueError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_closure_incidence_refuses_bad_input():
    S1 = Poset(["a", "b"], [])
    S2 = Poset(["x", "y"], [("x", "y")])
    with pytest.raises(ValueError, match=r"^incidence pair \(z, a\) out of range$"):
        ClosureIncidence(S1, S2, {("z", "a")})
    with pytest.raises(ValueError, match=r"^incidence pair \(x, x\) out of range$"):
        ClosureIncidence(S1, S2, {("x", "x")})
    with pytest.raises(ValueError, match=r"^incidence is not downward closed: "
                                         r"\(x, a\) missing below \(y, a\)$"):
        ClosureIncidence(S1, S2, {("y", "a")})
    R = ClosureIncidence(S1, S2, [("x", "a"), ("y", "a")])
    assert R.pairs == {("x", "a"), ("y", "a")} and R.fiber("a") == ["x", "y"]
    assert ClosureIncidence(S1, S2).pairs == set()


def test_strata_poset_of_complexes():
    from anabel.cospec import strata_poset
    from anabel.poly import disjoint_union, poly_point

    L1 = representable((1,))
    P = strata_poset(L1)
    assert len(P.elements) == 3
    assert len(P.minima()) == 2
    two_points = strata_poset(disjoint_union(poly_point(), poly_point()))
    assert len(two_points.elements) == 2
    assert set(two_points.minima()) == set(two_points.elements)
    square = strata_poset(representable((1, 1)))
    assert len(square.elements) == 9
    assert len(square.minima()) == 4


def test_cospec_identity():
    # x1 in closure(x2) iff x2 <= x1: the incidence of the identity situation
    P = Poset(["a", "b"], [("a", "b")])
    R = ClosureIncidence(P, P, set(P.le))
    out = cospec_strata(P, P, R)
    assert out == {"a": "a", "b": "b"}


def test_cospec_constant():
    S1 = Poset(["a", "b"], [("a", "b")])
    S2 = Poset(["x"], [])
    R = ClosureIncidence(S1, S2, {("x", "a"), ("x", "b")})
    assert cospec_strata(S1, S2, R) == {"a": "x", "b": "x"}


def test_cospec_non_unique_max():
    S1 = Poset(["a"], [])
    S2 = Poset(["x", "y"], [])
    R = ClosureIncidence(S1, S2, {("x", "a"), ("y", "a")})
    with pytest.raises(NonUniqueMax) as err:
        cospec_strata(S1, S2, R)
    assert sorted(err.value.antichain) == ["x", "y"]


def test_cospec_empty_fiber():
    S1 = Poset(["a"], [])
    S2 = Poset(["x"], [])
    R = ClosureIncidence(S1, S2, set())
    with pytest.raises(EmptyFiber):
        cospec_strata(S1, S2, R)


def test_incidence_downward_closure_enforced():
    S1 = Poset(["a"], [])
    S2 = Poset(["x", "y"], [("x", "y")])
    with pytest.raises(ValueError):
        ClosureIncidence(S1, S2, {("y", "a")})  # (x, a) is forced but missing


def coherent_triple(rng):
    """Random chain posets with incidences induced by a single monotone
    surjection family, so composition coherence holds by construction."""
    n3 = rng.randint(1, 3)
    n2 = rng.randint(n3, 4)
    n1 = rng.randint(n2, 5)
    chain = lambda k, tag: Poset(
        [f"{tag}{i}" for i in range(k)],
        [(f"{tag}{i}", f"{tag}{i+1}") for i in range(k - 1)],
    )
    S1, S2, S3 = chain(n1, "a"), chain(n2, "b"), chain(n3, "c")

    def squash(src, dst, stag, dtag, nsrc, ndst):
        f = {}
        for i in range(nsrc):
            f[f"{stag}{i}"] = f"{dtag}{min(i, ndst - 1)}"
        return f

    f12 = squash(S1, S2, "a", "b", n1, n2)
    f23 = squash(S2, S3, "b", "c", n2, n3)
    f13 = {k: f23[v] for k, v in f12.items()}
    return f12, f23, f13


def test_cospec_compose_coherence_random():
    rng = random.Random(11)
    for _ in range(20):
        f12, f23, f13 = coherent_triple(rng)
        assert cospec_compose(f12, f23, f13) == f13


def test_cospec_compose_detects_violation():
    f12 = {"a": "x"}
    f23 = {"x": "u"}
    bad13 = {"a": "v"}
    with pytest.raises(CospecError):
        cospec_compose(f12, f23, bad13)


def test_cospec_strata_from_chain_family():
    # three nested chains from a single family: pairwise maps compose
    S = [
        Poset(["p0", "p1", "p2"], [("p0", "p1"), ("p1", "p2")]),
        Poset(["q0", "q1"], [("q0", "q1")]),
        Poset(["r0"], []),
    ]
    maps = []
    for a, b, atag, btag, na, nb in [
        (S[0], S[1], "p", "q", 3, 2),
        (S[1], S[2], "q", "r", 2, 1),
        (S[0], S[2], "p", "r", 3, 1),
    ]:
        pairs = set()
        for i in range(na):
            img = min(i, nb - 1)
            for j in range(img + 1):
                pairs.add((f"{btag}{j}", f"{atag}{i}"))
        R = ClosureIncidence(a, b, pairs)
        maps.append(cospec_strata(a, b, R))
    assert cospec_compose(maps[0], maps[1], maps[2]) == maps[2]


def test_cospec_polysimplicial_identity():
    L1 = representable((1,))
    E, _ = box_extend(L1, CellFunctor.constant(L1, 1))
    m = cospec_polysimplicial(E, E, {c: c for c in E.cells})
    rep = is_cospec_iso(m)
    assert rep.is_iso


def test_cospec_polysimplicial_quotient_of_values():
    # D has 2 values on every cell; D' collapses them to 1
    L1 = representable((1,))
    E2, _ = box_extend(L1, CellFunctor.constant(L1, 2))
    E1, _ = box_extend(L1, CellFunctor.constant(L1, 1))
    class_map = {}
    for c in E2.cells:
        base = c.split("#")[0].lstrip("(")
        tgt = [d for d in E1.cells if d.startswith(f"({base}#")][0]
        class_map[c] = tgt
    m = cospec_polysimplicial(E2, E1, class_map)
    assert m.strata_map() == class_map
    assert not is_cospec_iso(m).is_iso  # strata map is 2-to-1


def test_cospec_polysimplicial_incompatible_square():
    # send both vertices of the interval to one vertex but keep the edge:
    # no morphism realizes that strata map
    L1 = representable((1,))
    class_map = {"s01": "s01", "s0": "s0", "s1": "s0"}
    with pytest.raises(ValueError):
        cospec_polysimplicial(L1, L1, class_map)


def test_is_cospec_iso_produces_verified_inverse():
    A = box_product(representable((1,)), representable((0,)))
    from anabel.poly_ops import find_isomorphism

    m = find_isomorphism(A, representable((1,)))
    assert m is not None
    rep = is_cospec_iso(m)
    assert rep.is_iso and rep.inverse is not None


def theta():
    return BranchGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")})


def test_curve_cospec_no_collapse_is_true_morphism():
    G = theta()
    phi = curve_cospec(
        G,
        G,
        {v: v for v in G.vertices},
        {e: ("keep", e, {0: 0, 1: 1}) for e in G.edges},
    )
    assert phi.is_true_morphism()


def test_curve_cospec_collapse_theta_edge():
    G = theta()
    H = BranchGraph(["w"], {"a": ("w", "w"), "b": ("w", "w")})
    phi = curve_cospec(
        G,
        H,
        {"u": "w", "v": "w"},
        {
            "a": ("keep", "a", {0: 0, 1: 1}),
            "b": ("keep", "b", {0: 0, 1: 1}),
            "c": ("collapse", "w"),
        },
    )
    assert not phi.is_true_morphism()
    assert len(H.real_edges()) == 2


def test_curve_cospec_rejects_mismatched_collapse():
    G = theta()
    H = BranchGraph(["x", "y"], {"a": ("x", "y"), "b": ("x", "y")})
    with pytest.raises(ValueError):
        curve_cospec(
            G,
            H,
            {"u": "x", "v": "y"},
            {
                "a": ("keep", "a", {0: 0, 1: 1}),
                "b": ("keep", "b", {0: 0, 1: 1}),
                "c": ("collapse", "x"),  # endpoint v maps to y, not x
            },
        )


def test_curve_cospec_composes_with_generalized():
    P = BranchGraph(["a", "b", "c"], {"e1": ("a", "b"), "e2": ("b", "c")})
    Q = BranchGraph(["x", "y"], {"f": ("x", "y")})
    R = BranchGraph(["z"], {})
    phi1 = curve_cospec(
        P,
        Q,
        {"a": "x", "b": "x", "c": "y"},
        {"e1": ("collapse", "x"), "e2": ("keep", "f", {0: 0, 1: 1})},
    )
    phi2 = curve_cospec(Q, R, {"x": "z", "y": "z"}, {"f": ("collapse", "z")})
    comp = compose_generalized(phi2, phi1)
    assert comp.edge_map == {"e1": ("vertex", "z"), "e2": ("vertex", "z")}
