import itertools
import math
import os
import pathlib
import random
from fractions import Fraction

import pytest

from anabel import documents
from anabel.intlin import FgAbGroup, IntMatrix, rank, smith_normal_form
from anabel.monoids import (
    AffineMonoid,
    Counterexample,
    MonoidMorphism,
    check_integral_bounded,
    check_saturated_bounded,
    cone_member,
    is_kummer,
)

from fm_reference import solve_eq_ineq

SEED = int(os.environ.get("ANABEL_SEED", "0"))

N = AffineMonoid.free(1)
N2 = AffineMonoid.free(2)


def times(n, monoid=N):
    return MonoidMorphism(monoid, monoid, [[n]])


def brute_membership(monoid, x, max_coeff=8):
    """Exhaustive N-combination oracle with an explicit coefficient box."""
    k = len(monoid.gens)
    for coeffs in itertools.product(range(max_coeff + 1), repeat=k):
        s = tuple(
            sum(c * g[j] for c, g in zip(coeffs, monoid.gens))
            for j in range(monoid.dim)
        )
        if s == tuple(x):
            return True
    return False


def test_membership_basics():
    assert N2.contains((1, 1))
    assert N2.contains((0, 0))
    assert not N2.contains((-1, 0))
    P = AffineMonoid(2, [(1, 1), (1, -1)])
    assert not P.contains((1, 0))  # oracle: exhaustive combos stay even-sum
    assert not brute_membership(P, (1, 0))
    assert P.contains((2, 0))
    assert brute_membership(P, (2, 0))


def test_membership_with_units():
    P = AffineMonoid(2, [(1, 0), (-1, 0), (0, 1)])
    assert P.contains((-5, 3))
    assert not P.contains((0, -1))
    Z = AffineMonoid(1, [(1,), (-1,)])
    assert Z.contains((-7,))
    assert Z.contains((7,))


def test_membership_matches_bruteforce_random():
    P = AffineMonoid(2, [(2, 0), (0, 1), (1, 1)])
    for x in itertools.product(range(-2, 7), repeat=2):
        assert P.contains(x) == brute_membership(P, x)


def test_cone_member():
    assert cone_member((1, 0), [(1, 1), (1, -1)])
    assert not cone_member((-1, 0), [(1, 1), (1, -1)])
    assert cone_member((0, 0), [])
    assert not cone_member((1,), [])


def test_solve_eq_ineq():
    # x + y = 1, x >= 1/2, y >= 1/3: x is the pivot, and the free y takes
    # its lower bound
    x = solve_eq_ineq([((1, 1), 1)], [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(1, 3))], 2)
    assert x == [Fraction(2, 3), Fraction(1, 3)]
    assert all(isinstance(c, Fraction) for c in x)
    # inconsistent equalities, and consistent ones with infeasible inequalities
    assert solve_eq_ineq([((1, 1), 1), ((2, 2), 3)], [], 2) is None
    assert solve_eq_ineq([((1, -1), 0)], [((1, 0), 1), ((0, -1), 0)], 2) is None
    # no equalities, integer inequalities: the point is still exact
    assert solve_eq_ineq([], [((2,), 1)], 1) == [Fraction(1, 2)]
    assert solve_eq_ineq([], [], 0) == []


def _reference_cone_member(v, gens):
    """Is v in the rational cone spanned by gens?"""
    k = len(gens)
    if k == 0:
        return all(x == 0 for x in v)
    eqs = [([g[j] for g in gens], v[j]) for j in range(len(v))]
    ins = [(tuple(int(i == t) for i in range(k)), 0) for t in range(k)]
    return solve_eq_ineq(eqs, ins, k) is not None


def _random_generator_sets(rng, d):
    """Generator sets in Z^d: the empty set, zero generators, lines (g and -g),
    cones of every rank up to d, and spans that are not full-dimensional."""
    def vec(lo=-3, hi=3):
        return tuple(rng.randint(lo, hi) for _ in range(d))

    zero = (0,) * d
    g = vec(1, 3)
    yield []
    yield [zero]
    yield [g, tuple(-c for c in g)]
    yield [g, tuple(-c for c in g), zero, vec()]
    for _ in range(20):
        yield [vec() for _ in range(rng.randint(1, d + 3))]
    for _ in range(10):
        basis = [vec() for _ in range(rng.randint(1, max(1, d - 1)))]
        gens = []
        for _ in range(rng.randint(1, d + 2)):
            coeffs = [rng.randint(-2, 2) for _ in basis]
            gens.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(d)))
        if rng.random() < 0.5:
            gens.append(zero)
        yield gens


def test_membership_plan_is_shared_across_queries(monkeypatch):
    """One instance answers every query from one plan and one memo; its
    answers equal a fresh instance's per query, and brute force on pointed
    sets. A second pass reads every answer from the memo."""
    import anabel.monoids as monoids

    leaves = []
    member = monoids.lattice_member

    def counting(vecs, target):
        leaves.append(target)
        return member(vecs, target)

    monkeypatch.setattr(monoids, "lattice_member", counting)
    rng = random.Random(SEED)

    def vec(d, lo, hi):
        return tuple(rng.randint(lo, hi) for _ in range(d))

    cases = []  # (dim, generators, pointed)
    # numerical semigroups: the last weight often leaves a remainder
    cases += [(1, [(3,), (5,)], True), (1, [(4,), (6,), (9,)], True)]
    cases.append((2, [(3, 0), (5, 0), (0, 1), (0, -1)], False))
    for _ in range(12):
        d = rng.randint(1, 3)
        pointed = [vec(d, 0, 3) for _ in range(rng.randint(1, 3))]
        pointed = [g for g in pointed if any(g)] or [(1,) * d]
        cases.append((d, pointed, True))
        g = vec(d, 1, 3)
        cases.append((d, [g, tuple(-c for c in g)] + [vec(d, -2, 3) for _ in range(2)], False))
        cases.append((d, [(0,) * d] + [vec(d, -2, 3) for _ in range(rng.randint(1, 3))], False))
    remainders = searched = 0
    for d, gens, pointed in cases:
        queries = [vec(d, 0, 4 if d == 1 else 3) for _ in range(10)]
        queries += [vec(d, -3, 3) for _ in range(10)]
        for _ in range(5):
            coeffs = [rng.randint(0, 2) for _ in gens]
            queries.append(tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d)))
        fresh = {x: AffineMonoid(d, gens).contains(x) for x in queries}
        if pointed:
            for x in queries:
                if min(x) >= 0:
                    assert fresh[x] == brute_membership(AffineMonoid(d, gens), x, sum(x)), (gens, x)
        P = AffineMonoid(d, gens)
        leaves.clear()
        for _ in range(2):
            order = list(queries)
            rng.shuffle(order)
            assert {x: P.contains(x) for x in order} == fresh, gens
        searched += len(leaves)
        plan = P._membership_plan()
        # states past the last non-unit generator are reached only with the
        # budget spent: the last coefficient is forced
        last = len(plan.others)
        assert all(sum(a * b for a, b in zip(plan.grading, r)) == 0
                   for i, r in plan.memo if i == last), gens
        if plan.others:
            w = plan.weights[-1]
            remainders += any(
                i == last - 1 and sum(a * b for a, b in zip(plan.grading, r)) % w
                for i, r in plan.memo)
        leaves.clear()
        for x in queries:
            P.contains(x)
        assert leaves == [], gens
    assert remainders >= 3 and searched > 50


def test_cone_member_matches_fourier_motzkin_reference():
    rng = random.Random(SEED)
    for d in range(1, 5):
        for gens in _random_generator_sets(rng, d):
            points = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(12)]
            for _ in range(6):
                coeffs = [rng.randint(-1, 3) for _ in gens]
                s = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(d))
                points += [s, tuple(-c for c in s)]
            for v in points:
                assert cone_member(v, gens) == _reference_cone_member(v, gens), (v, gens)


def _reference_faces(P):
    """Face index sets by scanning every generator subset T: T is a face when
    some functional vanishes on T and is at least 1 on the other generators."""
    k = len(P.gens)
    out = []
    for mask in range(1 << k):
        T = {i for i in range(k) if mask >> i & 1}
        eqs = [(P.gens[i], 0) for i in sorted(T)]
        ins = [(g, 1) for i, g in enumerate(P.gens) if i not in T]
        if len(T) == k or solve_eq_ineq(eqs, ins, P.dim) is not None:
            out.append(frozenset(T))
    return sorted(out, key=lambda s: (len(s), tuple(sorted(s))))


def test_faces_match_subset_scan_reference():
    rng = random.Random(SEED)
    for d in range(1, 4):
        for gens in _random_generator_sets(rng, d):
            for gs in (gens, gens + gens[:1]):
                P = AffineMonoid(d, gs)
                assert [f.indices for f in P.faces()] == _reference_faces(P), gs


def test_faces_of_free_monoids():
    for d in range(1, 5):
        faces = AffineMonoid.free(d).faces()
        assert len(faces) == 2 ** d
    f2 = N2.faces()
    index_sets = {tuple(sorted(f.indices)) for f in f2}
    assert index_sets == {(), (0,), (1,), (0, 1)}


def test_faces_group_case():
    Z = AffineMonoid(1, [(1,), (-1,)])
    faces = Z.faces()
    assert len(faces) == 1
    assert faces[0].indices == frozenset({0, 1})


def test_faces_prime_complement_property():
    # complement is prime: a + b in F  =>  a in F and b in F
    P = AffineMonoid(2, [(1, 0), (1, 1), (0, 1)])
    for face in P.faces():
        F = face.as_monoid()
        elems = P.elements_up_to_degree(3)
        for a in elems:
            for b in elems:
                s = tuple(x + y for x, y in zip(a, b))
                if F.contains(s):
                    assert F.contains(a) and F.contains(b)


def test_faces_compare_by_monoid_and_indices():
    P = AffineMonoid(2, [(1, 0), (1, 2), (0, 1)])
    first, again = P.faces(), AffineMonoid(2, [(1, 0), (1, 2), (0, 1)]).faces()
    assert first == again and [f is g for f, g in zip(first, again)] == [False] * len(first)
    assert [hash(f) for f in first] == [hash(g) for g in again]
    assert [hash(f) for f in first] == [hash((f.monoid, f.indices)) for f in first]
    assert len(set(first) | set(again)) == len(first)
    assert first[0] != first[0].indices


def test_counterexample_is_falsy():
    out = Counterexample(((1,), (1,), 2))
    assert not out and out == Counterexample(((1,), (1,), 2)) != Counterexample(())
    assert hash(out) == hash((((1,), (1,), 2),))
    assert repr(out) == "Counterexample(data=((1,), (1,), 2))"


def test_face_queries_share_one_plan(monkeypatch):
    """Each face builds its monoid, and so its membership plan, once:
    twenty queries on one face build one plan, and answer as a fresh monoid
    on the face's generators does."""
    import anabel.monoids as monoids

    built = []

    class CountingPlan(monoids._MembershipPlan):
        __slots__ = ()

        def __init__(self, gens, dim):
            built.append(gens)
            super().__init__(gens, dim)

    monkeypatch.setattr(monoids, "_MembershipPlan", CountingPlan)
    rng = random.Random(SEED)
    P = AffineMonoid(2, [(1, 0), (1, 2), (0, 1)])
    for face in P.faces():
        queries = [(rng.randint(-1, 4), rng.randint(-1, 4)) for _ in range(20)]
        built.clear()
        got = [face.contains(x) for x in queries]
        assert len(built) == 1, face
        assert face.as_monoid() is face.as_monoid()
        fresh = AffineMonoid(2, face.generators())
        assert got == [fresh.contains(x) for x in queries], face


def test_faces_closed_under_intersection():
    P = AffineMonoid(2, [(1, 0), (1, 2)])
    index_sets = {f.indices for f in P.faces()}
    for a in index_sets:
        for b in index_sets:
            assert a & b in index_sets


def test_is_saturated():
    ok, w = AffineMonoid.free(3).is_saturated()
    assert ok and w is None
    P = AffineMonoid(1, [(2,), (3,)])
    ok, w = P.is_saturated()
    assert not ok
    assert w == (1,)
    # lattice-point oracle inside cone(Q): (1, 0) is in the cone and in the
    # lattice generated by the generators, but no N-combination reaches it
    Q = AffineMonoid(2, [(2, 0), (0, 1), (1, 1)])
    okq, wq = Q.is_saturated()
    assert Q.cone_contains((1, 0))
    assert not brute_membership(Q, (1, 0))
    assert not okq and wq is not None
    assert Q.cone_contains(wq) and not Q.contains(wq)


def test_saturation_is_saturated():
    for gens in [[(2,), (3,)], [(2, 0), (0, 1), (1, 1)], [(1, 1), (1, -1)]]:
        P = AffineMonoid(len(gens[0]), gens)
        ok, _ = P.saturation().is_saturated()
        assert ok


def test_sharp_quotient():
    P = AffineMonoid(2, [(1, 0), (-1, 0), (0, 1)])
    units, sharp = P.sharp_quotient()
    assert units == FgAbGroup(1)
    assert sharp.dim == 1
    nonzero = sorted({g for g in sharp.gens if any(g)})
    assert nonzero in ([(1,)], [(-1,)])
    u2, s2 = N2.sharp_quotient()
    assert u2 == FgAbGroup(0)
    assert s2 == N2
    units_rank = units.free_rank
    assert units_rank + sharp.gp_rank() == P.gp_rank()


@pytest.mark.parametrize("gens", [
    [(1, 1), (-1, -1), (1, 0)],
    [(2, 1, 0), (-2, -1, 0), (0, 0, 1), (1, 1, 1)],
])
def test_sharp_quotient_unit_line_off_the_axes(gens):
    # the unit line is not a coordinate axis, so the Smith transform V of
    # the unit generators is not a permutation
    P = AffineMonoid(len(gens[0]), gens)
    units, sharp = P.sharp_quotient()
    assert units == FgAbGroup(1)
    assert sharp.unit_generator_indices() == {
        i for i, g in enumerate(sharp.gens) if not any(g)
    }
    assert units.free_rank + sharp.gp_rank() == P.gp_rank()


def _reference_sharp_quotient(P):
    """The sharp quotient through a separate, fully tracked Smith form of
    the unit generators: project onto the columns of V past their rank."""
    ugens = [P.gens[i] for i in sorted(P.unit_generator_indices())]
    if not ugens:
        return FgAbGroup(0), AffineMonoid(P.dim, P.gens)
    _, _, V = smith_normal_form(IntMatrix.from_rows(ugens))
    r = rank(ugens, P.dim)
    sharp = [tuple(sum(g[k] * V[k, j] for k in range(P.dim)) for j in range(r, P.dim))
             for g in P.gens]
    return FgAbGroup(r), AffineMonoid(P.dim - r, sharp)


def _saturated_with_unit_lines(rng):
    """Z^u x (a saturated sharp monoid) in Z^d, moved by a random unimodular
    map, so that the unit lines are off the coordinate axes."""
    d = rng.randint(2, 4)
    u = rng.randint(1, d - 1)
    e = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    gens = [v for i in range(u) for v in (e[i], tuple(-c for c in e[i]))]
    if u >= 2 and rng.random() < 0.5:
        gens.append(tuple(a - b for a, b in zip(e[0], e[1])))
    gens += e[u:]
    if d - u >= 2 and rng.random() < 0.5:
        # the cone over (1, 0) and (1, 2) with its Hilbert basis
        gens.remove(e[u + 1])
        gens += [tuple(a + 2 * b for a, b in zip(e[u], e[u + 1])),
                 tuple(a + b for a, b in zip(e[u], e[u + 1]))]
    for _ in range(rng.randint(0, 2)):
        gens.append(tuple(rng.randint(-2, 2) if j < u else rng.randint(0, 1)
                          for j in range(d)))
    # a product of elementary column operations
    W = [list(r) for r in e]
    for _ in range(rng.randint(2, 4)):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1, 2))
        for row in W:
            row[j] += c * row[i]
    rng.shuffle(gens)
    return AffineMonoid(d, [tuple(sum(g[k] * W[k][j] for k in range(d)) for j in range(d))
                            for g in gens])


def test_sharp_quotient_matches_tracked_smith_reference():
    rng = random.Random(SEED)
    off_axis = 0
    for _ in range(40):
        P = _saturated_with_unit_lines(rng)
        units, sharp = P.sharp_quotient()
        want_units, want_sharp = _reference_sharp_quotient(P)
        assert units == want_units, P.gens
        zeros = {i for i, g in enumerate(sharp.gens) if not any(g)}
        assert zeros == {i for i, g in enumerate(want_sharp.gens) if not any(g)}, P.gens
        assert zeros == P.unit_generator_indices()
        assert sharp.unit_generator_indices() == zeros
        assert sharp.gp_rank() == want_sharp.gp_rank()
        assert units.free_rank + sharp.gp_rank() == P.gp_rank()
        off_axis += any(sum(map(bool, P.gens[i])) > 1 for i in zeros)
    assert off_axis > 20


def cone_gens(d, k):
    """e1, e1 + k e_i (i >= 2) and the all-ones vector; k = 0 gives N^d."""
    e = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    if k == 0:
        return e
    return [e[0]] + [tuple(a + k * b for a, b in zip(e[0], e[i])) for i in range(1, d)] + [
        tuple([1] * d)]


# The grading fixes the weights by which `contains` searches generators, and
# so the states its search visits; the pins on the benchmark's cone families
# and n2.monoid keep those searches fixed.
@pytest.mark.parametrize("gens,phi", [
    (cone_gens(2, 0), "1 1"),
    (cone_gens(3, 0), "1 1 1"),
    (cone_gens(4, 0), "1 1 1 1"),
    (cone_gens(2, 3), "1 0"),
    (cone_gens(2, 4), "1 0"),
    (cone_gens(3, 2), "1 0 0"),
    (cone_gens(3, 3), "1 0 0"),
    (cone_gens(4, 3), "1 0 0 0"),
    ("n2.monoid", "1 1"),
    ([(2, 0), (0, 1), (1, 1)], "1 1"),
    ([(1, 1), (1, -1)], "1 0"),
    ([(1, 1), (-1, -1), (1, 0)], "1 -1"),
    ([(2, 1, 0), (-2, -1, 0), (0, 0, 1), (1, 1, 1)], "0 0 1"),
    ([(3, 1), (1, 3), (2, 2)], "1 1"),
    ([(1, 2, 3), (3, 1, 2), (2, 3, 1), (-1, 0, 0), (1, 0, 0)], "0 1 2"),
    ([(2, -1, 0), (0, 2, -1), (-1, 0, 2), (1, 1, 1)], "1 1 1"),
])
def test_grading_witness_is_pinned(gens, phi):
    if isinstance(gens, str):
        path = pathlib.Path(__file__).parent / "data" / gens
        _, P = documents.load(path.read_text())
    else:
        P = AffineMonoid(len(gens[0]), gens)
    assert P._grading() == tuple(int(c) for c in phi.split())


def test_grading_and_units_from_facet_normals():
    """The grading is a primitive integer vector, 0 on the unit generators
    and >= 1 on the others, and the units are the generators g with -g in
    the cone, as `cone_member` decides it."""
    rng = random.Random(SEED)
    for d in range(1, 5):
        for gens in _random_generator_sets(rng, d):
            P = AffineMonoid(d, gens)
            units = P.unit_generator_indices()
            assert units == {
                i for i, g in enumerate(gens) if cone_member(tuple(-c for c in g), gens)
            }, gens
            phi = P._grading()
            assert all(isinstance(c, int) for c in phi) and len(phi) == d
            assert math.gcd(*phi) in (0, 1), (gens, phi)
            for i, g in enumerate(gens):
                value = sum(a * b for a, b in zip(phi, g))
                assert (value == 0) if i in units else (value >= 1), (gens, phi, i)


def test_sharp_quotient_requires_saturated():
    with pytest.raises(ValueError):
        AffineMonoid(1, [(2,), (3,)]).sharp_quotient()


def test_is_kummer():
    ok, _ = is_kummer(times(6), [2, 3])
    assert ok
    ok, w = is_kummer(times(2), [3, 5, 7])
    assert not ok and w == (1,)
    incl = MonoidMorphism(N2, N2, [[1, 0], [0, 1]])
    ok, _ = is_kummer(incl, [])
    assert ok


@pytest.mark.parametrize("primes,bound,message", [
    ([1], 60, "primes must be >= 2, got 1"),
    ([2, 0], 60, "primes must be >= 2, got 0"),
    ([-3], 60, "primes must be >= 2, got -3"),
    ([2], 0, "bound must be >= 1"),
    ([2], -5, "bound must be >= 1"),
])
def test_is_kummer_rejects_bad_primes_and_bounds(primes, bound, message):
    # a prime 0 or 1 never grows the multiplier past the bound
    with pytest.raises(ValueError) as exc:
        is_kummer(times(2), primes, multiplier_bound=bound)
    assert str(exc.value) == message


@pytest.mark.parametrize("p", [1, 0, -2])
def test_saturated_check_rejects_primes_below_two(p):
    # x2 : N -> N fails the check at p = 2, and passed it at these
    with pytest.raises(ValueError) as exc:
        check_saturated_bounded(times(2), [p], 2)
    assert str(exc.value) == f"primes must be >= 2, got {p}"


def test_is_kummer_rejects_noninjective():
    collapse = MonoidMorphism(N2, N, [[1, 1]])
    ok, _ = is_kummer(collapse, [2])
    assert not ok


def test_integral_identity_and_diagonal():
    assert check_integral_bounded(times(1), 4) is None
    diag = MonoidMorphism(N, N2, [[1], [1]])
    assert check_integral_bounded(diag, 4) is None


def test_integral_sum_map():
    # the nodal chart map passes the pairwise factorization criterion
    total = MonoidMorphism(N2, N, [[1, 1]])
    assert check_integral_bounded(total, 4) is None


def test_integral_restriction_to_faces():
    # if phi passes at bound B, each face restriction passes at bound B
    diag = MonoidMorphism(N, N2, [[1], [1]])
    assert check_integral_bounded(diag, 3) is None
    for face in N2.faces():
        res = diag.restrict_to_face(face)
        assert check_integral_bounded(res, 3) is None


def test_saturated_identity():
    assert check_saturated_bounded(times(1), [2, 3, 5], 3) is None


def test_saturated_times_p_fails_at_p():
    for p in (2, 3):
        out = check_saturated_bounded(times(p), [p], 3)
        assert isinstance(out, Counterexample)
        a, b, prime = out.data
        assert (a, b, prime) == ((1,), (1,), p)


def test_saturated_diagonal_passes():
    diag = MonoidMorphism(N, N2, [[1], [1]])
    assert check_saturated_bounded(diag, [2, 3], 3) is None


def test_saturated_agrees_with_pushout_oracle():
    """Cross-check the divisibility criterion against honest fs pushouts.

    The pushout of x3 along x2 inside Z is the numerical monoid <2, 3>,
    which is not saturated, so x3 must fail the criterion at p = 2; the
    identity and the diagonal produce saturated pushouts and must pass.
    """
    push = AffineMonoid(1, [(2,), (3,)])
    ok, _ = push.is_saturated()
    assert not ok
    out = check_saturated_bounded(times(3), [2], 5)
    assert isinstance(out, Counterexample)
    a, b, prime = out.data
    # verify the counterexample honestly: phi(a) | p b but no c works
    assert (2 * b[0] - 3 * a[0]) >= 0
    for c in range(0, 20):
        assert not (2 * c - a[0] >= 0 and b[0] - 3 * c >= 0)


def test_elements_up_to_degree():
    elems = N2.elements_up_to_degree(2)
    assert (0, 0) in elems and (1, 1) in elems and (2, 0) in elems
    assert len(elems) == 6


def test_ambient_dimension_must_be_nonnegative():
    with pytest.raises(ValueError, match="ambient dimension must be >= 0"):
        AffineMonoid(-1, [])
    # dimension 0 is the trivial monoid
    P = AffineMonoid(0, [])
    assert P.contains(()) and len(P.faces()) == 1 and P.is_saturated() == (True, None)
