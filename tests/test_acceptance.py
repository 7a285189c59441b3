"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion. Every expected value is either computed by an independent
oracle inside this file or taken from the worked examples verified in the
module test suites.
"""

import itertools
import os
import random
import time
from fractions import Fraction

import pytest

from anabel.cospec import (
    ClosureIncidence,
    NonUniqueMax,
    Poset,
    cospec_compose,
    cospec_strata,
    is_cospec_iso,
)
from anabel.currents import current_group
from anabel.gog import (
    ExtensionData,
    FiniteGroup,
    GraphOfFiniteGroups,
    abelianized_pi1,
    abelianized_pi1_product_formula,
    schreier_extension,
    schreier_regauge,
    verify_regauge_isomorphism,
)
from anabel.graphs import BranchGraph, rigidity_kernel
from anabel.intlin import FgAbGroup
from anabel.monoids import (
    AffineMonoid,
    Counterexample,
    MonoidMorphism,
    check_integral_bounded,
    check_saturated_bounded,
    is_kummer,
)
from anabel.poly import box_product, lambda_hom, representable
from anabel.poly_ops import (
    PolyMorphism,
    category_pi1,
    coequalizer,
    find_isomorphism,
)
from anabel.splitting import fiber_count, interval_gap, radius_pushforward, tate_intervals

SEED = int(os.environ.get("ANABEL_SEED", "0"))
F = Fraction


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- 1: splitting bands ---------------------------------------------------------


def _recursion_oracle(p, h, v):
    """Peel z -> z^p one level at a time, inverting the radius pushforward
    and applying the one-level band at each stage."""
    if v == 0:
        return 0
    count = 0
    c = F(1, p - 1)
    for _ in range(h):
        if v >= 1 + c:
            w = v - 1
            count += 1
        else:
            w = v / p
        assert radius_pushforward(p, w) == v if w > 0 else True
        v = w
        if v == 0:
            break
    return count


def test_criterion_1_splitting_bands():
    t0 = time.monotonic()
    values = sorted(
        {F(k, q) for q in range(1, 13) for k in range(0, 10 * q + 1)}
    )
    checked = 0
    for p in (2, 3, 5):
        for h in range(1, 6):
            for v in values:
                assert fiber_count(p, h, v) == _recursion_oracle(p, h, v)
                checked += 1
    elapsed = time.monotonic() - t0
    report(
        1,
        elapsed < 1.0,
        f"{checked} band values match the h-fold recursion oracle in {elapsed:.3f}s",
    )


# -- 2: section 3.3 intervals ------------------------------------------------------


def _valid_parameter_sweep():
    cases = []
    for p in (2, 3, 5):
        for v in (F(1), F(2), F(1, 2), F(3, 2)):
            for n in (1, 3, 7):
                if n % p == 0:
                    continue
                t = F(n * p, p - 1) / v
                l = int(1 + 2 * t) + 1
                m = -((-2 * l) // n) + 1  # ceil(2l/n) + 1
                cases.append((p, v, n, l, m))
    return cases[:20]


def test_criterion_2_tate_intervals():
    t0 = time.monotonic()
    cases = _valid_parameter_sweep()
    assert len(cases) == 20
    for (p, v, n, l, m) in cases:
        out = tate_intervals(p, v, n, l, m)
        assert out.length1 >= 1 and out.length2 >= 1
        assert out.i2[1] < out.i1[0] or out.i1[1] < out.i2[0]
    # gap law: >= 2 exactly on the threshold side
    gap_checks = 0
    for p in (2, 3):
        for (v1, v2) in ((F(1), F(2)), (F(1, 2), F(1)), (F(1), F(3))):
            for n in (1, 2, 3, 4, 6):
                threshold = F(v1 * v2 * (p - 1)) / ((v2 - v1) * p)
                t1 = F(n * p, p - 1) / v1
                l = int(1 + 2 * t1) + 1
                m = -((-2 * l) // n) + 1
                gap = interval_gap(p, n, v1, v2, l, m)
                assert (gap >= 2) == (F(n) >= threshold)
                gap_checks += 1
    elapsed = time.monotonic() - t0
    report(
        2,
        elapsed < 1.0,
        f"20 interval cases and {gap_checks} gap laws hold exactly in {elapsed:.3f}s",
    )


# -- 3: rigidity sweep ---------------------------------------------------------------


def _min_arity_graphs():
    """Connected multigraphs, <= 3 vertices, <= 5 edges, min arity >= 3,
    enumerated exhaustively up to vertex relabeling."""
    out = []
    seen = set()
    for nv in (1, 2, 3):
        vertices = [f"v{i}" for i in range(nv)]
        slots = [
            (i, j) for i in range(nv) for j in range(i, nv)
        ]
        for ne in range(1, 6):
            for combo in itertools.combinations_with_replacement(slots, ne):
                edges = {
                    f"e{k}": (vertices[a], vertices[b])
                    for k, (a, b) in enumerate(combo)
                }
                G = BranchGraph(vertices, edges)
                if not G.is_connected():
                    continue
                if any(G.arity(v) < 3 for v in vertices):
                    continue
                canon = min(
                    tuple(
                        sorted(
                            tuple(sorted((perm[a], perm[b]))) for (a, b) in combo
                        )
                    )
                    for perm in itertools.permutations(range(nv))
                )
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(G)
    return out


def test_criterion_3_rigidity():
    t0 = time.monotonic()
    graphs = _min_arity_graphs()
    assert graphs, "enumeration produced no graphs"
    for G in graphs:
        basis, warnings = rigidity_kernel(G, 2)
        assert warnings == []
        assert basis == [], f"nontrivial kernel on {G!r}"
    elapsed = time.monotonic() - t0
    report(
        3,
        elapsed < 60.0,
        f"rigidity kernel trivial on all {len(graphs)} min-arity-3 graphs "
        f"in {elapsed:.1f}s",
    )


# -- 4: current groups ------------------------------------------------------------------


def test_criterion_4_current_groups():
    t0 = time.monotonic()
    rng = random.Random(SEED + 4)
    for _ in range(50):
        nv = rng.randint(1, 5)
        vertices = [f"v{i}" for i in range(nv)]
        edges = {}
        for i in range(1, nv):
            edges[f"t{i}"] = (vertices[i - 1], vertices[i])
        extra = rng.randint(0, 8 - (nv - 1))
        for k in range(extra):
            edges[f"x{k}"] = (rng.choice(vertices), rng.choice(vertices))
        G = BranchGraph(vertices, edges)
        group, basis = current_group(G)
        expected = len(G.real_edges()) - nv + 1
        assert group == FgAbGroup(expected)
        assert len(basis) == expected
    elapsed = time.monotonic() - t0
    report(
        4,
        elapsed < 5.0,
        f"current group rank = E - V + 1 on 50 random graphs in {elapsed:.2f}s",
    )


# -- 5: graph-of-groups abelianization ---------------------------------------------------


def test_criterion_5_gog_abelianization():
    TRIV = FiniteGroup.trivial()
    theta = BranchGraph(
        ["u", "v"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")}
    )
    gog = GraphOfFiniteGroups(
        theta,
        {v: TRIV for v in theta.vertices},
        {e: TRIV for e in theta.edges},
        {b: {0: 0} for b in theta.branches()},
    )
    assert abelianized_pi1(gog) == FgAbGroup(2)
    Z3 = FiniteGroup.cyclic(3)
    circle = BranchGraph(["v"], {"e": ("v", "v")})
    zgog = GraphOfFiniteGroups(
        circle,
        {"v": Z3},
        {"e": Z3},
        {("e", 0): {0: 0, 1: 1, 2: 2}, ("e", 1): {0: 0, 1: 1, 2: 2}},
    )
    assert abelianized_pi1(zgog) == FgAbGroup(1, (3,))
    rng = random.Random(SEED + 5)
    groups = [TRIV, FiniteGroup.cyclic(2), Z3, FiniteGroup.cyclic(4)]
    agreements = 0
    for _ in range(20):
        nv = rng.randint(1, 3)
        vertices = [f"v{i}" for i in range(nv)]
        edges = {}
        for i in range(1, nv):
            edges[f"t{i}"] = (vertices[i - 1], vertices[i])
        for k in range(rng.randint(0, 2)):
            edges[f"x{k}"] = (rng.choice(vertices), rng.choice(vertices))
        G = BranchGraph(vertices, edges)
        vgroups = {v: rng.choice(groups) for v in vertices}
        egroups, bmaps = {}, {}
        for e, ends in G.edges.items():
            divisors = [1] + [
                d for d in (2, 3, 4)
                if all(vgroups[v].order % d == 0 for v in ends)
            ]
            d = rng.choice(divisors)
            egroups[e] = FiniteGroup.cyclic(d) if d > 1 else TRIV
            for slot, v in enumerate(ends):
                step = vgroups[v].order // d
                bmaps[(e, slot)] = {
                    a: (a * step) % vgroups[v].order for a in range(d)
                }
        gog = GraphOfFiniteGroups(G, vgroups, egroups, bmaps)
        assert abelianized_pi1(gog) == abelianized_pi1_product_formula(gog)
        agreements += 1
    report(5, True, f"both abelianization routes agree on {agreements} random inputs")


# -- 6: Schreier battery ---------------------------------------------------------------------


def _hom_candidates(H, auts, pi, abelian):
    """Families alpha: H -> Aut(Pi) worth scanning; for abelian Pi the first
    cocycle condition forces a homomorphism, cutting the candidate space."""
    ident = tuple(range(pi.order))
    funcs = []
    for assignment in itertools.product(range(len(auts)), repeat=H.order - 1):
        alpha = {0: ident}
        for h, k in zip(range(1, H.order), assignment):
            alpha[h] = auts[k]
        if abelian:
            ok = all(
                tuple(alpha[h1][alpha[h2][x]] for x in range(pi.order))
                == alpha[H.op(h1, h2)]
                for h1 in range(H.order)
                for h2 in range(H.order)
            )
            if not ok:
                continue
        funcs.append(alpha)
    return funcs


def _valid_g_tables(pi, H, alpha):
    """All cocycle tables for the given automorphism family, in the order of
    itertools.product over range(pi.order) per pair (h1, h2)."""
    pairs = [(h1, h2) for h1 in range(H.order) for h2 in range(H.order)]
    # first cocycle condition, alpha(h1) alpha(h2) = conj(g(h1, h2)) alpha(h1 h2),
    # constrains each g(h1, h2) on its own; filtering every coordinate keeps
    # the product's order
    allowed = []
    for h1, h2 in pairs:
        lhs = tuple(alpha[h1][alpha[h2][x]] for x in range(pi.order))
        allowed.append([
            g for g in range(pi.order)
            if tuple(pi.conj_automorphism(g)[alpha[H.op(h1, h2)][x]]
                     for x in range(pi.order)) == lhs
        ])
    out = []
    for choice in itertools.product(*allowed):
        g = dict(zip(pairs, choice))
        if all(
            pi.op(g[(h1, h2)], g[(H.op(h1, h2), h3)])
            == pi.op(alpha[h1][g[(h2, h3)]], g[(h1, H.op(h2, h3))])
            for h1 in range(H.order)
            for h2 in range(H.order)
            for h3 in range(H.order)
        ):
            out.append(g)
    return out


def test_criterion_6_schreier():
    t0 = time.monotonic()
    battery = [
        (FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
        (FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)),
        (FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)),
        (FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
         FiniteGroup.cyclic(2)),
        (FiniteGroup.cyclic(5), FiniteGroup.cyclic(2)),
        (FiniteGroup.cyclic(6), FiniteGroup.cyclic(2)),
        (FiniteGroup.symmetric(3), FiniteGroup.cyclic(2)),
        (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)),
        (FiniteGroup.cyclic(3), FiniteGroup.cyclic(3)),
        (FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)),
    ]
    rng = random.Random(SEED + 6)
    total = 0
    for pi, H in battery:
        assert pi.order * H.order <= 24
        auts = pi.automorphisms()
        families = _hom_candidates(H, auts, pi, pi.is_abelian())
        valid = 0
        for alpha in families:
            for g in _valid_g_tables(pi, H, alpha):
                data = ExtensionData(pi, H, alpha, g)
                ext = schreier_extension(data)
                assert ext.group.order == pi.order * H.order
                valid += 1
                if valid % 7 == 0:
                    gamma = {
                        h: rng.randrange(pi.order) for h in range(H.order)
                    }
                    new_data, iso = schreier_regauge(data, gamma)
                    regauged = schreier_extension(new_data)
                    assert verify_regauge_isomorphism(ext, regauged, iso)
        assert valid > 0, f"no valid data for |Pi|={pi.order}, |H|={H.order}"
        total += valid
    # the flagship example: Z/3 by Z/2 with inversion is S3
    inv = (0, 2, 1)
    data = ExtensionData(
        FiniteGroup.cyclic(3),
        FiniteGroup.cyclic(2),
        {0: (0, 1, 2), 1: inv},
        {p: 0 for p in itertools.product(range(2), repeat=2)},
    )
    ext = schreier_extension(data)
    assert ext.group.order == 6 and not ext.group.is_abelian()
    assert ext.group.isomorphic_to(FiniteGroup.symmetric(3))
    elapsed = time.monotonic() - t0
    report(
        6,
        elapsed < 10.0,
        f"{total} valid extension data all pass exhaustive checks in {elapsed:.1f}s",
    )


# -- 7: monoid criteria -------------------------------------------------------------------------


def test_criterion_7_monoids():
    for d in range(1, 5):
        assert len(AffineMonoid.free(d).faces()) == 2 ** d
    for p in (2, 3, 5):
        N = AffineMonoid.free(1)
        phi = MonoidMorphism(N, N, [[p]])
        out = check_saturated_bounded(phi, [p], 3)
        assert isinstance(out, Counterexample)
        assert out.data == ((1,), (1,), p)
    N2 = AffineMonoid.free(2)
    ident = MonoidMorphism(N2, N2, [[1, 0], [0, 1]])
    assert check_integral_bounded(ident, 4) is None
    assert check_saturated_bounded(ident, [2, 3], 3) is None
    ok, _ = is_kummer(ident, [])
    assert ok
    report(7, True, "faces of N^d have 2^d elements; x p fails at (1,1); identity passes")


# -- 8: polysimplicial -----------------------------------------------------------------------------


def test_criterion_8_polysimplicial():
    t0 = time.monotonic()
    assert len(lambda_hom((1,), (1,))) == 4
    L1 = representable((1,))
    assert find_isomorphism(box_product(L1, L1), representable((1, 1))) is not None
    shapes = [
        representable((1,)),
        representable((2,)),
        representable((1, 1)),
        representable((0,)),
    ]
    circle = _circle_complex()
    shapes.append(circle)
    pairs = list(itertools.product(range(len(shapes)), repeat=2))[:10]
    for i, j in pairs:
        A, B = shapes[i], shapes[j]
        assert (
            box_product(A, B).euler_characteristic()
            == A.euler_characteristic() * B.euler_characteristic()
        )
    for n in [(1,), (2,), (1, 1)]:
        C = representable(n)
        assert category_pi1(C, sorted(C.cells)[0]).abelianization().is_trivial
    assert category_pi1(circle, sorted(circle.cells)[0]).abelianization() == FgAbGroup(1)
    # the isomorphism criterion, both directions
    m = find_isomorphism(box_product(L1, L1), representable((1, 1)))
    rep = is_cospec_iso(m)
    assert rep.is_iso and rep.inverse is not None
    fold = _fold_complex()
    cmap = {}
    for c, n in circle.cells.items():
        cmap[c] = fold.cell_element(
            [d for d in fold.cells if fold.cells[d] == n][0]
        )
    not_iso = PolyMorphism.from_cells(circle, fold, cmap)
    rep2 = is_cospec_iso(not_iso)
    assert not rep2.is_iso and "interiorly free" in rep2.reason
    elapsed = time.monotonic() - t0
    report(8, elapsed < 10.0, f"hom counts, box laws, pi1 and the iso criterion in {elapsed:.1f}s")


def _circle_complex():
    L1 = representable((1,))
    P = representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    return coequalizer(f, g).complex


def _fold_complex():
    from anabel.poly import Element, automorphisms, identity
    from anabel.poly_ops import quotient

    L1 = representable((1,))
    flip = next(g for g in automorphisms((1,)) if g != identity((1,)))
    return quotient(
        L1,
        [
            (L1.cell_element("s0"), L1.cell_element("s1")),
            (L1.cell_element("s01"), Element("s01", flip)),
        ],
    ).complex


# -- 9: cospecialization -----------------------------------------------------------------------------


def test_criterion_9_cospec():
    # identity / constant / non-unique maximum
    P = Poset(["a", "b"], [("a", "b")])
    assert cospec_strata(P, P, ClosureIncidence(P, P, set(P.le))) == {
        "a": "a",
        "b": "b",
    }
    S2 = Poset(["x"], [])
    assert cospec_strata(
        P, S2, ClosureIncidence(P, S2, {("x", "a"), ("x", "b")})
    ) == {"a": "x", "b": "x"}
    single = Poset(["a"], [])
    anti = Poset(["x", "y"], [])
    with pytest.raises(NonUniqueMax):
        cospec_strata(single, anti, ClosureIncidence(single, anti, {("x", "a"), ("y", "a")}))
    # composition coherence on 20 random coherent triples
    rng = random.Random(SEED + 9)
    for _ in range(20):
        n3 = rng.randint(1, 3)
        n2 = rng.randint(n3, 4)
        n1 = rng.randint(n2, 5)
        f12 = {f"a{i}": f"b{min(i, n2 - 1)}" for i in range(n1)}
        f23 = {f"b{i}": f"c{min(i, n3 - 1)}" for i in range(n2)}
        f13 = {k: f23[v] for k, v in f12.items()}
        assert cospec_compose(f12, f23, f13) == f13
    # verified inverses and the box-unit isomorphism
    L1 = representable((1,))
    point = representable((0,))
    m = find_isomorphism(box_product(L1, point), L1)
    assert m is not None
    rep = is_cospec_iso(m)
    assert rep.is_iso and rep.inverse is not None
    report(9, True, "strata maps, coherence, inverses and C box point ~ C all exact")


# -- 10: CLI determinism ---------------------------------------------------------------------------------


def test_criterion_10_cli_determinism():
    import pathlib
    import sys

    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    from test_cli import CASES, GOLDEN, run_cli

    for name, argv in sorted(CASES.items()):
        golden = (GOLDEN / name).read_text()
        first = run_cli(argv, hashseed="17")
        second = run_cli(argv, hashseed="9001")
        assert first.stdout == second.stdout == golden, name
    report(10, True, f"{len(CASES)} golden outputs byte-identical across runs")
