"""The `algebra` workload: one library session with no polysimplicial work.

Monoid membership on simplicial cones of dimension 2-4 and on their
saturations, faces, the bounded saturation, integrality and Kummer
checkers, cover enumeration and rigidity kernels on cubic graphs of cycle
rank 2-4, current groups over Z and Z/n on random graphs of up to about 70
edges, splitting-band sweeps, Schreier extensions with regauging, and
graph-of-groups abelianizations. Smith normal forms run on the relation
and incidence matrices these jobs produce.

The seed draws the query points, the graphs, the assignment of vertex
groups and the regauging elements. It never draws a size: dimensions,
generator counts, query degrees, cycle ranks, vertex and edge counts and
group orders are fixed, so the work per job varies little by seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from anabel.currents import current_group
from anabel.gog import (ExtensionData, FiniteGroup, GraphOfFiniteGroups, abelianized_pi1,
                        pi1_presentation, schreier_extension, schreier_regauge)
from anabel.graphs import BranchGraph, enumerate_covers, rigidity_kernel
from anabel.intlin import IntMatrix, smith_normal_form
from anabel.monoids import (AffineMonoid, MonoidMorphism, check_integral_bounded,
                            check_saturated_bounded, is_kummer)
from anabel.splitting import fiber_count, tate_intervals

from oracles import (Job, brute_force_member, burnside_cover_count, cubic_edges, expect_equal,
                     fiber_recursion, invariant_factors, is_group_iso, random_edges,
                     smith_problems, tate_expectation)

SUBPROCESS = False


# -- monoid families with a closed-form saturation ------------------------------
#
# cone(d, k): generators e1, e1 + k e_i (i >= 2) and the all-ones vector, with
# k >= d - 1 so that the all-ones vector lies in the cone spanned by the
# others. The cone is {x : x_i >= 0 (i >= 2), sum_{i>=2} x_i <= k x_1},
# simplicial with 2^d faces, and the group is {x : x_2 = ... = x_d mod k}.
# The saturation is cone cap group.


def cone_gens(d: int, k: int) -> List[Tuple[int, ...]]:
    e = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    gens = [e[0]] + [tuple(a + k * b for a, b in zip(e[0], e[i])) for i in range(1, d)]
    return gens + [tuple([1] * d)]


def in_saturation(d: int, k: int, x) -> bool:
    if any(c < 0 for c in x[1:]) or sum(x[1:]) > k * x[0]:
        return False
    return all((x[i] - x[1]) % k == 0 for i in range(2, d)) if d > 2 else True


MONOIDS = [("N2", 2, 0), ("N3", 3, 0), ("N4", 4, 0),
           ("C2k3", 2, 3), ("C2k4", 2, 4), ("C3k2", 3, 2), ("C3k3", 3, 3), ("C4k3", 4, 3)]
SATURATIONS = ["C2k3", "C2k4", "C3k2", "C3k3"]
# (monoid, query coordinate bound, queries) for the membership batches
CONTAINS = [("N2", 6, 30), ("N3", 4, 30), ("N4", 3, 20), ("C2k3", 6, 30), ("C2k4", 6, 30),
            ("C3k2", 3, 20), ("C4k3", 2, 12)]
SATURATED_CONTAINS = [("C2k3", 4, 20), ("C2k4", 4, 20), ("C3k2", 2, 4)]


def composition(total: int, d: int, bound: int, rng: random.Random) -> Tuple[int, ...]:
    """A random point of N^d with the given coordinate sum, entries <= bound:
    the seed moves the point, the sum fixes the search depth."""
    while True:
        x = [0] * d
        for _ in range(total):
            x[rng.randrange(d)] += 1
        if max(x) <= bound:
            return tuple(x)


def gens_of(d: int, k: int):
    return AffineMonoid.free(d).gens if k == 0 else tuple(cone_gens(d, k))


# -- graphs -----------------------------------------------------------------------


def incidence_rows(G: BranchGraph) -> List[List[int]]:
    """Vertex-by-branch incidence: the Kirchhoff constraint matrix."""
    branches = [(e, s) for e in sorted(G.edges) for s in range(len(G.edges[e]))]
    return [[int(G.edges[e][s] == v) for (e, s) in branches] for v in G.vertices]


# -- groups --------------------------------------------------------------------------


def semidirect_data(n: int, m: int, r: int) -> ExtensionData:
    """Z/n by Z/m with h acting as x -> r^h x (r^m = 1 mod n), split."""
    Pi, H = FiniteGroup.cyclic(n), FiniteGroup.cyclic(m)
    alpha = {h: tuple((pow(r, h, n) * x) % n for x in range(n)) for h in range(m)}
    g = {p: 0 for p in itertools.product(range(m), repeat=2)}
    return ExtensionData(Pi, H, alpha, g)


def cyclic_extension_data(n: int, m: int) -> ExtensionData:
    """Z/n by Z/m, trivial action, the carry cocycle: the group Z/(nm)."""
    Pi, H = FiniteGroup.cyclic(n), FiniteGroup.cyclic(m)
    alpha = {h: tuple(range(n)) for h in range(m)}
    g = {(a, b): int(a + b >= m) for a, b in itertools.product(range(m), repeat=2)}
    return ExtensionData(Pi, H, alpha, g)


EXTENSIONS = [("Z3:Z2", lambda: semidirect_data(3, 2, 2)), ("Z5:Z4", lambda: semidirect_data(5, 4, 2)),
              ("Z7:Z3", lambda: semidirect_data(7, 3, 2)), ("Z4.Z2", lambda: cyclic_extension_data(4, 2)),
              ("Z3.Z3", lambda: cyclic_extension_data(3, 3)), ("Z2.Z4", lambda: cyclic_extension_data(2, 4)),
              ("Z4:Z2", lambda: semidirect_data(4, 2, 3)), ("Z6:Z2", lambda: semidirect_data(6, 2, 5)),
              ("Z7:Z6", lambda: semidirect_data(7, 6, 3)), ("Z9:Z6", lambda: semidirect_data(9, 6, 2)),
              ("Z11:Z5", lambda: semidirect_data(11, 5, 3)), ("Z5.Z5", lambda: cyclic_extension_data(5, 5))]


def _plant_first(obs):
    return (obs[0] + 1,) + tuple(obs[1:])


def _flip_first_bool(obs):
    return [not obs[0]] + list(obs[1:])


def make_jobs(seed: int, traced: bool = False) -> List[Job]:
    rng = random.Random(seed)
    jobs: List[Job] = []
    spec = {name: (d, k) for name, d, k in MONOIDS}

    # -- monoid membership and saturation -------------------------------------
    for name, bound, count in CONTAINS:
        d, k = spec[name]
        queries = [composition(i % (bound * d // 2 + 1) + bound // 2, d, bound, rng)
                   for i in range(count)]

        def run(d=d, k=k, queries=queries):
            P = AffineMonoid(d, gens_of(d, k))
            return [P.contains(q) for q in queries]

        def check(obs, d=d, k=k, queries=queries):
            memo: Dict = {}
            want = [brute_force_member(gens_of(d, k), q, memo) for q in queries]
            return expect_equal("membership against the N-combination search", obs, want)
        jobs.append(Job(f"contains {name}", run, check, _flip_first_bool))

    for name, bound, count in SATURATED_CONTAINS:
        d, k = spec[name]
        queries = [composition(i % (bound * d // 2 + 1) + bound // 2, d, bound, rng)
                   for i in range(count)]

        def run(d=d, k=k, queries=queries):
            S = AffineMonoid(d, gens_of(d, k)).saturation()
            return [S.contains(q) for q in queries]

        def check(obs, d=d, k=k, queries=queries):
            want = [in_saturation(d, k, q) for q in queries]
            return expect_equal("saturated membership against cone cap group", obs, want)
        jobs.append(Job(f"contains saturation {name}", run, check, _flip_first_bool))

    for name in SATURATIONS:
        d, k = spec[name]

        def run(d=d, k=k):
            P = AffineMonoid(d, gens_of(d, k))
            return (set(P.saturation().gens), P.is_saturated())

        def check(obs, d=d, k=k):
            gens, (saturated, witness) = obs
            probs = []
            if not set(gens_of(d, k)) <= gens:
                probs.append("saturation lost an original generator")
            # every point of cone cap group in the generators' zonotope box
            hi = [sum(g[j] for g in gens_of(d, k)) for j in range(d)]
            box = [x for x in itertools.product(*[range(h + 1) for h in hi])
                   if in_saturation(d, k, x)]
            sat_memo, p_memo = {}, {}
            missing = [x for x in box if not brute_force_member(sorted(gens), x, sat_memo)]
            extra = [g for g in gens if not in_saturation(d, k, g)]
            if missing or extra:
                probs.append(f"saturation is not cone cap group: missing {missing[:3]}, "
                             f"extra {extra[:3]}")
            holes = [x for x in box if not brute_force_member(gens_of(d, k), x, p_memo)]
            if saturated != (not holes) or (witness is not None and witness not in holes):
                probs.append(f"is_saturated() gave {saturated}, {witness}; holes {holes[:3]}")
            return probs
        # plant: e_d, outside the cone, as one more generator
        jobs.append(Job(f"saturation {name}", run, check,
                        lambda obs, d=d: (obs[0] | {(0,) * (d - 1) + (1,)}, obs[1])))

    for name, d, k in MONOIDS:
        def run(d=d, k=k):
            return len(AffineMonoid(d, gens_of(d, k)).faces())
        jobs.append(Job(f"faces {name}", run,
                        lambda obs, d=d: expect_equal(f"faces of a simplicial {d}-cone", obs, 2 ** d),
                        lambda obs: obs + 1))

    N, N2 = AffineMonoid.free(1), AffineMonoid.free(2)
    for p in (2, 3, 5):
        def run(p=p):
            out = check_saturated_bounded(MonoidMorphism(N, N, [[p]]), [p], 3)
            return None if out is None else out.data
        jobs.append(Job(f"saturation check x{p}", run,
                        lambda obs, p=p: expect_equal("x p fails at ((1,), (1,), p)", obs,
                                                      ((1,), (1,), p)),
                        lambda obs: None))

        def run_kummer(p=p):
            phi = MonoidMorphism(N, N, [[p]])
            other = 7 if p != 7 else 11
            return (is_kummer(phi, [p])[0], is_kummer(phi, [other]))
        jobs.append(Job(f"kummer x{p}", run_kummer,
                        lambda obs: expect_equal("x p is L-Kummer exactly when p is in L", obs,
                                                 (True, (False, (1,)))),
                        lambda obs: (False, obs[1])))

    def run_identity():
        ident = MonoidMorphism(N2, N2, [[1, 0], [0, 1]])
        return (check_integral_bounded(ident, 2), check_saturated_bounded(ident, [2, 3], 2))
    jobs.append(Job("identity checks", run_identity,
                    lambda obs: expect_equal("the identity passes both checkers", obs, (None, None)),
                    lambda obs: ("counterexample", obs[1])))

    # -- covers and rigidity ---------------------------------------------------------
    for rank in (2, 3, 3, 4, 4):
        G = BranchGraph(*cubic_edges(rank, rng))
        for d in (2, 3):
            def run(G=G, d=d):
                return len(enumerate_covers(G, d))
            jobs.append(Job(f"covers rank{rank} d{d}", run,
                            lambda obs, rank=rank, d=d: expect_equal(
                                "Burnside count", obs, burnside_cover_count(rank, d)),
                            lambda obs: obs - 1))
        max_degree = 3 if rank < 4 else 2

        def run(G=G, max_degree=max_degree):
            basis, warnings = rigidity_kernel(G, max_degree)
            return (len(basis), warnings)
        jobs.append(Job(f"rigidity rank{rank}", run,
                        lambda obs: expect_equal("trivial kernel on a min-arity-3 graph", obs, (0, [])),
                        _plant_first))

    # -- currents and Smith forms of their incidence matrices ----------------------
    for nv, ne, modulus in ((12, 24, None), (20, 40, 6), (30, 70, None), (30, 70, 4),
                            (24, 50, 3), (28, 60, None), (16, 36, 2)):
        G = BranchGraph(*random_edges(nv, ne, rng))
        h = ne - nv + 1

        def run(G=G, modulus=modulus):
            group, basis = current_group(G, modulus=modulus)
            return (group.free_rank, group.torsion, len(basis))
        want = (h, (), h) if modulus is None else (0, (modulus,) * h, h)
        jobs.append(Job(f"currents V{nv} E{ne} mod {modulus}", run,
                        lambda obs, want=want: expect_equal("E - V + 1 copies", obs, want),
                        _plant_first))
    for nv, ne in ((8, 16), (12, 24), (16, 32)):
        G = BranchGraph(*random_edges(nv, ne, rng))
        jobs.append(_snf_job(f"snf incidence V{nv} E{ne}", lambda G=G: incidence_rows(G)))

    # -- splitting bands --------------------------------------------------------------
    grid = sorted({Fraction(k, q) for q in range(1, 13) for k in range(0, 10 * q + 1)})
    for p in (2, 3, 5, 7):
        hs = [2, 3, 4, 6]
        values = rng.sample(grid, 400)

        def run(p=p, hs=hs, values=values):
            return [fiber_count(p, h, v) for h in hs for v in values]
        jobs.append(Job(f"fiber sweep p{p}", run,
                        lambda obs, p=p, hs=hs, values=values: expect_equal(
                            "one-level recursion", obs,
                            [fiber_recursion(p, h, v) for h in hs for v in values]),
                        lambda obs: [obs[0] + 1] + obs[1:]))
    cases = []
    for p in (2, 3, 5):
        for v in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)):
            for n in (1, 2, 3, 4, 7):
                if n % p:
                    t = Fraction(n * p, p - 1) / v
                    l = int(1 + 2 * t) + 1 + rng.randint(0, 3)
                    cases.append((p, v, n, l, -((-2 * l) // n) + 1 + rng.randint(0, 3)))

    def run_tate():
        out = []
        for c in cases:
            r = tate_intervals(*c)
            out.append((r.i1, r.i2, r.length1, r.length2))
        return out
    jobs.append(Job("tate sweep", run_tate,
                    lambda obs: expect_equal("section 3.3 intervals", obs,
                                             [tate_expectation(*c) for c in cases]),
                    lambda obs: obs[1:]))

    # -- Schreier extensions and regauging ----------------------------------------------
    for name, make in EXTENSIONS:
        def run(make=make, name=name):
            data = make()
            ext = schreier_extension(data)
            g_rng = random.Random(f"{seed}/{name}")
            out = [ext.group.order]
            for _ in range(2):
                gamma = {h: g_rng.randrange(data.pi.order) for h in range(data.h.order)}
                new_data, iso = schreier_regauge(data, gamma)
                other = schreier_extension(new_data)
                f = {other.element_index(*a): ext.element_index(*b) for a, b in iso.items()}
                out.append((other.group.table, ext.group.table, f))
            return out

        def check(obs, make=make):
            data = make()
            probs = expect_equal("extension order", obs[0], data.pi.order * data.h.order)
            for table_a, table_b, f in obs[1:]:
                if not is_group_iso(table_a, table_b, f):
                    probs.append("regauge map is not a group isomorphism")
            return probs
        jobs.append(Job(f"schreier {name}", run, check,
                        lambda obs: [obs[0] + 1] + obs[1:]))

    # -- graph-of-groups abelianizations -----------------------------------------------
    for (nv, ne), n in zip(((3, 5), (4, 7), (5, 8), (6, 10)), (2, 3, 5, 3)):
        G = BranchGraph(*random_edges(nv, ne, rng))
        cyclic_orders = [(2, 3, 4, 6)[i % 4] for i in range(nv)]
        rng.shuffle(cyclic_orders)
        orders = dict(zip(G.vertices, cyclic_orders))
        h = ne - nv + 1

        def run(G=G, orders=orders):
            triv = FiniteGroup.trivial()
            gog = GraphOfFiniteGroups(G, {v: FiniteGroup.cyclic(orders[v]) for v in G.vertices},
                                      {e: triv for e in G.edges},
                                      {b: {0: 0} for b in G.branches()})
            ab = abelianized_pi1(gog)
            return (ab.free_rank, ab.torsion)

        want = (h, invariant_factors(list(orders.values())))
        jobs.append(Job(f"gog free product V{nv} E{ne}", run,
                        lambda obs, want=want: expect_equal("Z^h + sum of vertex groups",
                                                            obs, want),
                        _plant_first))

        def run_const(G=G, n=n):
            Zn = FiniteGroup.cyclic(n)
            ident = {a: a for a in range(n)}
            gog = GraphOfFiniteGroups(G, {v: Zn for v in G.vertices}, {e: Zn for e in G.edges},
                                      {b: ident for b in G.branches()})
            ab = abelianized_pi1(gog)
            return (ab.free_rank, ab.torsion)
        jobs.append(Job(f"gog constant Z/{n} V{nv} E{ne}", run_const,
                        lambda obs, h=h, n=n: expect_equal("Z^h + Z/n", obs, (h, (n,))),
                        _plant_first))

        def relations(G=G, orders=orders):
            triv = FiniteGroup.trivial()
            gog = GraphOfFiniteGroups(G, {v: FiniteGroup.cyclic(orders[v]) for v in G.vertices},
                                      {e: triv for e in G.edges},
                                      {b: {0: 0} for b in G.branches()})
            pres = pi1_presentation(gog)
            return [[sum((s > 0) - (s < 0) for s in r if abs(s) == g + 1)
                     for g in range(len(pres.generators))] for r in pres.relators]
        jobs.append(_snf_job(f"snf relations V{nv} E{ne}", relations))
    return jobs


def _snf_job(name: str, matrix) -> Job:
    """Smith form of the matrix that `matrix()` produces inside the job."""
    def run():
        rows = matrix()
        U, S, V = smith_normal_form(IntMatrix.from_rows(rows))
        return (rows, U.to_rows(), S.to_rows(), V.to_rows())

    def check(obs):
        rows, U, S, V = obs
        return smith_problems(rows, [list(r) for r in U], [list(r) for r in S],
                              [list(r) for r in V])

    def plant(obs):
        rows, U, S, V = obs
        S = [list(r) for r in S]
        S[0][0] += 1
        return (rows, U, S, V)
    return Job(name, run, check, plant)
