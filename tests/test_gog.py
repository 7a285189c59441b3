import dataclasses
import itertools
import os
import random

import pytest

import anabel.gog as gog_module
from anabel.gog import (
    CocycleError,
    ExtensionData,
    FiniteGroup,
    GoGCover,
    GraphOfFiniteGroups,
    TemperedAbProfile,
    abelianized_pi1,
    abelianized_pi1_product_formula,
    pi1_presentation,
    pi1_top_rank,
    schreier_extension,
    schreier_regauge,
    tempered_ab_profile,
    validate_gog_cover,
    verify_regauge_isomorphism,
)
from anabel.graphs import BranchGraph
from anabel.intlin import FgAbGroup

Z2 = FiniteGroup.cyclic(2)
Z3 = FiniteGroup.cyclic(3)
Z4 = FiniteGroup.cyclic(4)
S3 = FiniteGroup.symmetric(3)
TRIV = FiniteGroup.trivial()


def _extension_problems(ext):
    """Every property of `ext` that `schreier_extension` leaves to its
    construction, each checked on its own: the messages of those that fail.
    Pi -> E -> H is exact (the inclusion is an injective homomorphism, the
    projection is onto and its kernel is the image of Pi), E has order
    |Pi| |H|, the inverse formula of the docstring holds, and the projection
    is a homomorphism."""
    Pi, H, E = ext.data.pi, ext.data.h, ext.group
    inclusion, proj = ext.inclusion, [ext.projection[a] for a in range(E.order)]
    problems = []
    if any(E.op(inclusion[a], inclusion[b]) != inclusion[Pi.op(a, b)]
           for a in range(Pi.order) for b in range(Pi.order)):
        problems.append("inclusion is not a homomorphism")
    if len(set(inclusion.values())) != Pi.order:
        problems.append("inclusion is not injective")
    if set(proj) != set(range(H.order)):
        problems.append("projection is not surjective")
    if {a for a in range(E.order) if proj[a] == 0} != set(inclusion.values()):
        problems.append("kernel of projection differs from image of Pi")
    if E.order != Pi.order * H.order:
        problems.append("extension has wrong order")
    g00_inv = Pi.inv(ext.data.g[(0, 0)])
    for i, (h, x) in enumerate(ext.elements):
        hinv = H.inv(h)
        formula = Pi.op(Pi.op(g00_inv, Pi.inv(ext.data.g[(hinv, h)])),
                        Pi.inv(ext.data.alpha[hinv][x]))
        if ext.element_index(hinv, formula) != E.inv(i):
            problems.append("inverse formula fails")
            break
    if any([proj[ab] for ab in row] != [H.table[pa][pb] for pb in proj]
           for row, pa in zip(E.table, proj)):
        problems.append("projection is not a homomorphism")
    return problems


@pytest.fixture(autouse=True)
def projections_checked(monkeypatch):
    """Every extension a test in this module builds, directly or through
    `anabel.gog`, goes through `_extension_problems`; the fixture's list
    holds (|Pi|, |H|) of each one."""
    checked = []
    build = gog_module.schreier_extension

    def checked_build(data):
        ext = build(data)
        assert _extension_problems(ext) == []
        checked.append((data.pi.order, data.h.order))
        return ext

    monkeypatch.setattr(gog_module, "schreier_extension", checked_build)
    monkeypatch.setitem(globals(), "schreier_extension", checked_build)
    return checked


def trivial_gog(graph):
    return GraphOfFiniteGroups(
        graph,
        {v: TRIV for v in graph.vertices},
        {e: TRIV for e in graph.edges},
        {b: {0: 0} for b in graph.branches()},
    )


def theta():
    return BranchGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")})


def test_finite_group_basics():
    assert Z3.order == 3
    assert Z3.op(1, 2) == 0
    assert Z3.inv(2) == 1
    assert S3.order == 6
    assert not S3.is_abelian()
    assert Z4.element_order(1) == 4
    assert sorted(S3.element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]
    assert Z3.abelianization() == FgAbGroup(0, (3,))
    assert S3.abelianization() == FgAbGroup(0, (2,))


def test_finite_group_isomorphism_search():
    assert FiniteGroup.direct_product(Z2, Z3).isomorphic_to(FiniteGroup.cyclic(6))
    assert not FiniteGroup.direct_product(Z2, Z2).isomorphic_to(Z4)
    assert S3.isomorphic_to(FiniteGroup.symmetric(3))


def test_pi1_trivial_groups_theta():
    gog = trivial_gog(theta())
    pres = pi1_presentation(gog)
    simplified = pres.simplify()
    assert simplified.rank() == 2
    assert simplified.is_free_presentation()
    assert pi1_top_rank(gog) == 2
    assert abelianized_pi1(gog) == FgAbGroup(2)


def test_pi1_single_vertex_z3():
    G = BranchGraph(["v"], {})
    gog = GraphOfFiniteGroups(G, {"v": Z3}, {}, {})
    pres = pi1_presentation(gog)
    assert pres.abelianization() == FgAbGroup(0, (3,))


def test_pi1_z3_circle():
    G = BranchGraph(["v"], {"e": ("v", "v")})
    gog = GraphOfFiniteGroups(
        G,
        {"v": Z3},
        {"e": Z3},
        {("e", 0): {0: 0, 1: 1, 2: 2}, ("e", 1): {0: 0, 1: 1, 2: 2}},
    )
    assert abelianized_pi1(gog) == FgAbGroup(1, (3,))
    assert abelianized_pi1_product_formula(gog) == FgAbGroup(1, (3,))


def test_pi1_two_z2_vertices_trivial_edge():
    G = BranchGraph(["u", "v"], {"e": ("u", "v")})
    gog = GraphOfFiniteGroups(
        G,
        {"u": Z2, "v": Z2},
        {"e": TRIV},
        {("e", 0): {0: 0}, ("e", 1): {0: 0}},
    )
    assert abelianized_pi1(gog) == FgAbGroup(0, (2, 2))


def test_ab_routes_agree_random():
    import random

    rng = random.Random(424242)
    groups = [TRIV, Z2, Z3, Z4]
    for _ in range(20):
        n = rng.randint(1, 3)
        vertices = [f"v{i}" for i in range(n)]
        edges = {}
        for i in range(1, n):
            edges[f"t{i}"] = (vertices[i - 1], vertices[i])
        for k in range(rng.randint(0, 2)):
            edges[f"x{k}"] = (rng.choice(vertices), rng.choice(vertices))
        G = BranchGraph(vertices, edges)
        vgroups = {v: rng.choice(groups) for v in vertices}
        egroups = {}
        bmaps = {}
        for e, ends in G.edges.items():
            # edge group: trivial or a common cyclic subgroup of both ends
            sizes = [vgroups[v].order for v in ends]
            candidates = [1]
            for d in (2, 3, 4):
                if all(s % d == 0 for s in sizes):
                    candidates.append(d)
            d = rng.choice(candidates)
            egroups[e] = FiniteGroup.cyclic(d) if d > 1 else TRIV
            for slot, v in enumerate(ends):
                Gv = vgroups[v]
                step = Gv.order // d
                bmaps[(e, slot)] = {a: (a * step) % Gv.order for a in range(d)}
        gog = GraphOfFiniteGroups(G, vgroups, egroups, bmaps)
        assert abelianized_pi1(gog) == abelianized_pi1_product_formula(gog)


def test_ab_free_rank_at_least_cycle_rank():
    G = BranchGraph(["v"], {"e": ("v", "v"), "f": ("v", "v")})
    gog = GraphOfFiniteGroups(
        G,
        {"v": Z2},
        {"e": TRIV, "f": TRIV},
        {("e", 0): {0: 0}, ("e", 1): {0: 0}, ("f", 0): {0: 0}, ("f", 1): {0: 0}},
    )
    ab = abelianized_pi1(gog)
    assert ab.free_rank == G.cycle_rank() == 2


def test_tempered_profile():
    prof = tempered_ab_profile(1, 1, 2)
    assert prof == TemperedAbProfile(1, 1, 2)
    assert tempered_ab_profile(2, 0, 3) == TemperedAbProfile(0, 4, 3)
    assert tempered_ab_profile(2, 2, 5) == TemperedAbProfile(2, 2, 5)
    with pytest.raises(ValueError):
        tempered_ab_profile(1, 3, 2)
    with pytest.raises(ValueError):
        tempered_ab_profile(1, 1, 6)


def test_validate_gog_cover_trivial_base():
    G = BranchGraph(["u", "v"], {"e": ("u", "v")})
    gog = trivial_gog(G)
    cover = GoGCover(
        vertex_sets={"u": 2, "v": 2},
        vertex_actions={"u": [(0, 1)], "v": [(0, 1)]},
        edge_glue={"e": (1, 0)},
    )
    report = validate_gog_cover(gog, cover)
    assert report.ok and report.topological


def test_validate_gog_cover_regular():
    G = BranchGraph(["v"], {})
    gog = GraphOfFiniteGroups(G, {"v": Z3}, {}, {})
    act = [tuple((s + g) % 3 for s in range(3)) for g in range(3)]
    cover = GoGCover({"v": 3}, {"v": act}, {})
    report = validate_gog_cover(gog, cover)
    assert report.ok and not report.topological


def test_validate_gog_cover_catches_violations():
    G = BranchGraph(["u", "v"], {"e": ("u", "v")})
    gog = trivial_gog(G)
    bad = GoGCover(
        vertex_sets={"u": 2, "v": 1},
        vertex_actions={"u": [(0, 1)], "v": [(0,)]},
        edge_glue={"e": (0,)},
    )
    report = validate_gog_cover(gog, bad)
    assert not report.ok
    assert any("bijection" in v or "degree" in v for v in report.violations)
    # equivariance: Z/2 acting on 2 points over one branch, trivially on the other
    gog2 = GraphOfFiniteGroups(
        G,
        {"u": Z2, "v": Z2},
        {"e": Z2},
        {("e", 0): {0: 0, 1: 1}, ("e", 1): {0: 0, 1: 1}},
    )
    cover2 = GoGCover(
        vertex_sets={"u": 2, "v": 2},
        vertex_actions={"u": [(0, 1), (1, 0)], "v": [(0, 1), (0, 1)]},
        edge_glue={"e": (0, 1)},
    )
    report2 = validate_gog_cover(gog2, cover2)
    assert not report2.ok
    assert any("homomorphism" in v or "equivariant" in v for v in report2.violations)


def test_schreier_direct_product():
    data = ExtensionData.trivial(Z3, Z2)
    ext = schreier_extension(data)
    assert ext.group.order == 6
    assert ext.group.is_abelian()
    assert ext.group.isomorphic_to(FiniteGroup.cyclic(6))


def test_schreier_s3():
    inversion = (0, 2, 1)
    assert Z3.is_automorphism(inversion)
    data = ExtensionData(
        Z3,
        Z2,
        {0: (0, 1, 2), 1: inversion},
        {pair: 0 for pair in itertools.product(range(2), repeat=2)},
    )
    ext = schreier_extension(data)
    assert ext.group.order == 6
    assert not ext.group.is_abelian()
    assert ext.group.isomorphic_to(S3)


def test_schreier_z4_from_cocycle():
    ident = (0, 1)
    g = {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}
    data = ExtensionData(Z2, Z2, {0: ident, 1: ident}, g)
    ext = schreier_extension(data)
    assert ext.group.order == 4
    assert ext.group.isomorphic_to(Z4)
    orders = sorted(ext.group.element_order(a) for a in range(4))
    assert orders == [1, 2, 4, 4]


def test_schreier_rejects_bad_cocycle():
    ident = (0, 1)
    g = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 0}
    with pytest.raises(CocycleError):
        schreier_extension(ExtensionData(Z2, Z2, {0: ident, 1: ident}, g))


def test_schreier_regauge():
    inversion = (0, 2, 1)
    data = ExtensionData(
        Z3,
        Z2,
        {0: (0, 1, 2), 1: inversion},
        {pair: 0 for pair in itertools.product(range(2), repeat=2)},
    )
    original = schreier_extension(data)
    for gamma in itertools.product(range(3), repeat=2):
        gmap = {0: gamma[0], 1: gamma[1]}
        new_data, iso = schreier_regauge(data, gmap)
        regauged = schreier_extension(new_data)
        assert verify_regauge_isomorphism(original, regauged, iso)
        # regauging back by the inverse family restores the data
        back = {hh: data.pi.inv(gmap[hh]) for hh in range(2)}
        restored, _ = schreier_regauge(new_data, back)
        assert restored.alpha == data.alpha
        assert restored.g == data.g
    # identity regauge changes nothing
    same, iso = schreier_regauge(data, {0: 0, 1: 0})
    assert same.alpha == data.alpha and same.g == data.g


# -- associativity on generators against the exhaustive scan --------------------------

SEED = int(os.environ.get("ANABEL_SEED", "0"))


def _reference_associative(table):
    """The exhaustive n^3 scan: None, or the reason naming the first failing
    triple in (a, b, c) order."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return f"associativity fails at {(a, b, c)}"
    return None


def _verdict(table):
    try:
        FiniteGroup(table)
    except ValueError as exc:
        return str(exc)
    return None


def _random_loop(rng, n):
    """A random Latin square whose row 0 and column 0 are the identity."""
    t = [[a if b == 0 else b if a == 0 else None for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        a, b = cells[k]
        free = sorted(set(range(n)) - set(t[a]) - {t[x][b] for x in range(n)})
        rng.shuffle(free)
        for x in free:
            t[a][b] = x
            if fill(k + 1):
                return True
        t[a][b] = None
        return False

    assert fill(0)
    return t


def _relabelled(table, rng):
    """The same table under a random relabelling that fixes 0."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def test_associativity_on_generators_matches_exhaustive_scan():
    rng = random.Random(SEED)
    groups = [Z2, Z3, Z4, S3, FiniteGroup.cyclic(5), FiniteGroup.cyclic(6),
              FiniteGroup.direct_product(Z2, Z2)]
    tables = [_relabelled(G.table, rng) for G in groups for _ in range(20)]
    tables += [_random_loop(rng, n) for n in range(2, 7) for _ in range(80 if n < 6 else 200)]
    # Z/2 x (a non-associative loop of order 5), element a + 2b = (a, b):
    # element 1 = (1, 0) associates with everything but generates only
    # Z/2, so a check on the first generator alone would accept the table
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    tables.append([[(a + c) % 2 + 2 * loop[b][d] for d in range(5) for c in range(2)]
                   for b in range(5) for a in range(2)])
    verdicts = set()
    for table in tables:
        want = _reference_associative(table)
        assert _verdict(table) == want, table
        verdicts.add(want is None)
    assert verdicts == {True, False}


def _semidirect_data(n, m, r):
    """Z/n by Z/m with h acting as x -> r^h x, split."""
    alpha = {h: tuple(pow(r, h, n) * x % n for x in range(n)) for h in range(m)}
    g = {p: 0 for p in itertools.product(range(m), repeat=2)}
    return ExtensionData(FiniteGroup.cyclic(n), FiniteGroup.cyclic(m), alpha, g)


def _carry_data(n, m):
    """Z/n by Z/m, trivial action, the carry cocycle."""
    alpha = {h: tuple(range(n)) for h in range(m)}
    g = {(a, b): int(a + b >= m) for a, b in itertools.product(range(m), repeat=2)}
    return ExtensionData(FiniteGroup.cyclic(n), FiniteGroup.cyclic(m), alpha, g)


# the Schreier data sets of the algebra benchmark
BENCHMARK_EXTENSIONS = {
    "Z3:Z2": (_semidirect_data, 3, 2, 2), "Z5:Z4": (_semidirect_data, 5, 4, 2),
    "Z7:Z3": (_semidirect_data, 7, 3, 2), "Z4.Z2": (_carry_data, 4, 2),
    "Z3.Z3": (_carry_data, 3, 3), "Z2.Z4": (_carry_data, 2, 4),
    "Z4:Z2": (_semidirect_data, 4, 2, 3), "Z6:Z2": (_semidirect_data, 6, 2, 5),
    "Z7:Z6": (_semidirect_data, 7, 6, 3), "Z9:Z6": (_semidirect_data, 9, 6, 2),
    "Z11:Z5": (_semidirect_data, 11, 5, 3), "Z5.Z5": (_carry_data, 5, 5),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_EXTENSIONS))
def test_benchmark_extensions_are_groups(name):
    make, *args = BENCHMARK_EXTENSIONS[name]
    data = make(*args)
    rng = random.Random(f"{SEED}/{name}")
    ext = schreier_extension(data)
    assert ext.group.order == data.pi.order * data.h.order
    assert _reference_associative(ext.group.table) is None
    for _ in range(2):
        gamma = {h: rng.randrange(data.pi.order) for h in range(data.h.order)}
        regauged = schreier_extension(schreier_regauge(data, gamma)[0])
        assert _reference_associative(regauged.group.table) is None


# -- group and extension checks against their element-by-element versions --------------


def _reference_group(table):
    """FiniteGroup's checks and inverses element by element: the reason it
    refuses the table, or the tuple of inverses."""
    t = tuple(tuple(int(x) for x in row) for row in table)
    n = len(t)
    if any(len(r) != n for r in t):
        return "table is not square"
    if any(x < 0 or x >= n for r in t for x in r):
        return "table entries out of range"
    if n == 0:
        return "empty group"
    if any(t[0][b] != b or t[b][0] != b for b in range(n)):
        return "element 0 is not an identity"
    for a in range(n):
        if sorted(t[a]) != list(range(n)):
            return "left translation is not a bijection"
        if sorted(t[b][a] for b in range(n)) != list(range(n)):
            return "right translation is not a bijection"
    reason = _reference_associative(t)
    if reason is not None:
        return reason
    for a in range(n):
        if not any(t[a][b] == 0 for b in range(n)):
            return f"element {a} has no inverse"
    return tuple(next(b for b in range(n) if t[a][b] == 0) for a in range(n))


def _group_outcome(table):
    try:
        return FiniteGroup(table).inverse
    except ValueError as exc:
        return str(exc)


def _corrupted_tables(rng, table):
    n = len(table)
    out = []
    for _ in range(6):
        t = [list(row) for row in table]
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(5)
        if kind == 0:  # swap two entries of a row: the columns break
            t[a][b], t[a][c] = t[a][c], t[a][b]
        elif kind == 1:  # swap two entries of a column: the rows break
            t[b][a], t[c][a] = t[c][a], t[b][a]
        elif kind == 2:  # any value, out of range included
            t[a][b] = rng.randrange(-1, n + 1)
        elif kind == 3:  # swap two columns other than column 0
            b, c = 1 + b % max(n - 1, 1), 1 + c % max(n - 1, 1)
            for row in t[1:]:
                row[b], row[c] = row[c], row[b]
        else:  # a ragged row
            t[a] = t[a][:-1]
        out.append(t)
    return out


def _reference_is_automorphism(G, perm):
    n = G.order
    if sorted(perm) != list(range(n)) or perm[0] != 0:
        return False
    return all(perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
               for a in range(n) for b in range(n))


def _reference_extension_check(data):
    """ExtensionData.validate with one group operation per product: None,
    or the exception type, message and witness."""
    Pi, H, alpha, g = data.pi, data.h, data.alpha, data.g
    for hh in range(H.order):
        if alpha.get(hh) is None or not _reference_is_automorphism(Pi, alpha[hh]):
            return ("ValueError", f"alpha[{hh}] is not an automorphism of Pi", None)
    for pair in itertools.product(range(H.order), repeat=2):
        if pair not in g or not (0 <= g[pair] < Pi.order):
            return ("ValueError", f"g{pair} missing or out of range", None)
    for h1 in range(H.order):
        for h2 in range(H.order):
            lhs = tuple(alpha[h1][alpha[h2][x]] for x in range(Pi.order))
            conj = Pi.conj_automorphism(g[(h1, h2)])
            rhs = tuple(conj[alpha[H.op(h1, h2)][x]] for x in range(Pi.order))
            if lhs != rhs:
                return ("CocycleError", f"first cocycle condition fails at {(h1, h2)}",
                        (h1, h2))
    for h1, h2, h3 in itertools.product(range(H.order), repeat=3):
        lhs = Pi.op(g[(h1, h2)], g[(H.op(h1, h2), h3)])
        rhs = Pi.op(alpha[h1][g[(h2, h3)]], g[(h1, H.op(h2, h3))])
        if lhs != rhs:
            return ("CocycleError", f"second cocycle condition fails at {(h1, h2, h3)}",
                    (h1, h2, h3))
    return None


def _extension_outcome(data):
    try:
        data.validate()
    except ValueError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "witness", None))
    return None


def test_group_checks_match_reference():
    rng = random.Random(SEED)
    groups = [FiniteGroup.trivial(), Z2, Z3, Z4, S3, FiniteGroup.cyclic(5),
              FiniteGroup.direct_product(Z2, Z2), FiniteGroup.direct_product(Z2, S3)]
    tables = [[]]
    for G in groups:
        tables.append(G.table)
        tables += _corrupted_tables(rng, G.table)
    tables += [_random_loop(rng, n) for n in range(2, 6) for _ in range(10)]
    outcomes = set()
    for table in tables:
        want = _reference_group(table)
        assert _group_outcome(table) == want, table
        outcomes.add(want if isinstance(want, str) else "group")
    assert {"group", "left translation is not a bijection", "table is not square",
            "right translation is not a bijection", "table entries out of range"} <= outcomes
    for G in groups[:7]:  # orders up to 6
        for perm in itertools.permutations(range(G.order)):
            assert G.is_automorphism(perm) == _reference_is_automorphism(G, perm)


def test_extension_checks_match_reference():
    rng = random.Random(SEED)
    cases = []
    for name in sorted(BENCHMARK_EXTENSIONS):
        make, *args = BENCHMARK_EXTENSIONS[name]
        data = make(*args)
        gamma = {h: rng.randrange(data.pi.order) for h in range(data.h.order)}
        cases += [data, schreier_regauge(data, gamma)[0]]
    for Pi, H in [(Z3, Z2), (FiniteGroup.cyclic(5), Z2), (FiniteGroup.cyclic(5), Z3),
                  (S3, Z2), (FiniteGroup.direct_product(Z2, Z2), Z3)]:
        auts = Pi.automorphisms()
        for _ in range(25):
            alpha = {h: rng.choice(auts) for h in range(H.order)}
            if rng.random() < 0.2:
                alpha[rng.randrange(H.order)] = tuple(rng.sample(range(Pi.order), Pi.order))
            if rng.random() < 0.5:
                g = {p: 0 for p in itertools.product(range(H.order), repeat=2)}
            else:
                g = {p: rng.randrange(Pi.order) if rng.random() < 0.3 else 0
                     for p in itertools.product(range(H.order), repeat=2)}
            cases.append(ExtensionData(Pi, H, alpha, g))
    outcomes = set()
    for data in cases:
        want = _reference_extension_check(data)
        assert _extension_outcome(data) == want
        outcomes.add(None if want is None else want[1].split(" at ")[0].split("[")[0])
    assert {None, "alpha", "first cocycle condition fails",
            "second cocycle condition fails"} <= outcomes


def test_projection_is_a_homomorphism_on_every_extension(projections_checked):
    rng = random.Random(SEED)
    built = []
    for name in sorted(BENCHMARK_EXTENSIONS):
        make, *args = BENCHMARK_EXTENSIONS[name]
        data = make(*args)
        built.append(schreier_extension(data))
        for _ in range(2):
            gamma = {h: rng.randrange(data.pi.order) for h in range(data.h.order)}
            built.append(schreier_extension(schreier_regauge(data, gamma)[0]))
    for Pi, H in [(Z3, Z2), (FiniteGroup.cyclic(5), Z4), (S3, Z2),
                  (FiniteGroup.direct_product(Z2, Z2), Z3)]:
        auts = Pi.automorphisms()
        for _ in range(10):
            data = ExtensionData(Pi, H, {h: rng.choice(auts) for h in range(H.order)},
                                 {p: 0 for p in itertools.product(range(H.order), repeat=2)})
            try:
                data.validate()
            except ValueError:
                continue
            built.append(schreier_extension(data))
    assert len(built) > 40
    assert projections_checked == [(e.data.pi.order, e.data.h.order) for e in built]
    # each check is live: a break planted in what it reads is caught
    ext = built[0]
    proj = ext.projection
    a = next(i for i in proj if proj[i] == 0 and i)
    b = next(i for i in proj if proj[i] != 0)
    # the labels of two elements over different elements of H swapped
    swapped = {**proj, a: proj[b], b: proj[a]}
    relabeled = list(ext.elements)
    relabeled[a], relabeled[b] = relabeled[b], relabeled[a]
    double = FiniteGroup.direct_product(ext.group, Z2)  # element 2k + z is (k, z)
    breaks = {
        "inclusion is not a homomorphism":
            {"inclusion": {**ext.inclusion, 1: ext.inclusion[2], 2: ext.inclusion[1]}},
        "inclusion is not injective": {"inclusion": dict.fromkeys(ext.inclusion, 0)},
        "projection is not surjective": {"projection": dict.fromkeys(proj, 0)},
        "kernel of projection differs from image of Pi": {"projection": swapped},
        "extension has wrong order": {
            "group": double, "elements": [el for el in ext.elements for _ in range(2)],
            "inclusion": {x: 2 * i for x, i in ext.inclusion.items()},
            "projection": {k: proj[k // 2] for k in range(double.order)}},
        "inverse formula fails": {"elements": relabeled},
        "projection is not a homomorphism": {"projection": swapped},
    }
    assert _extension_problems(ext) == []
    for message, planted in breaks.items():
        assert message in _extension_problems(dataclasses.replace(ext, **planted)), message
