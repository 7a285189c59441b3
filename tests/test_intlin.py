import os
import random
import time
from fractions import Fraction

import pytest

from anabel.currents import _constraint_matrix
from anabel.gog import FiniteGroup, GraphOfFiniteGroups, pi1_presentation
from anabel.graphs import BranchGraph
from anabel.intlin import (
    FgAbGroup,
    IntMatrix,
    cokernel_group,
    fold_row,
    is_prime,
    kernel_rank,
    lattice_member,
    nullspace,
    rank,
    row_reduce,
    smith_diagonal,
    smith_normal_form,
    solution_group_mod,
)


def naive_diagonalize(rows):
    """Row/column reduction oracle: returns the sorted nonzero diagonal
    multiset (up to divisibility normalization this determines the group)."""
    a = [list(r) for r in rows]
    n = len(a)
    m = len(a[0]) if a else 0
    t = 0
    while True:
        nz = [(abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, m) if a[i][j]]
        if not nz:
            break
        _, pi, pj = min(nz)
        a[t], a[pi] = a[pi], a[t]
        for r in a:
            r[t], r[pj] = r[pj], r[t]
        again = True
        while again:
            again = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        again = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        for r in a:
                            r[t], r[j] = r[j], r[t]
                        again = True
        t += 1
        if t >= min(n, m):
            break
    # product of the first k diagonal entries equals gcd of k x k minors,
    # so the multiset of prime contents matches the Smith diagonal
    return sorted(abs(a[i][i]) for i in range(min(n, m)))


def test_identity_case():
    M = IntMatrix.identity(2)
    U, S, V = smith_normal_form(M)
    assert S == IntMatrix.identity(2)
    assert U == IntMatrix.identity(2)
    assert V == IntMatrix.identity(2)


def test_documented_2x2():
    M = IntMatrix.from_rows([[2, 4], [6, 8]])
    _, S, _ = smith_normal_form(M)
    assert smith_diagonal(M) == (2, 4)
    # oracle agreement: elementary reduction gives the same diagonal product
    oracle = naive_diagonalize([[2, 4], [6, 8]])
    assert sorted((S[0, 0], S[1, 1])) == oracle == [2, 4]


def test_zero_matrix():
    M = IntMatrix.zero(1, 3)
    _, S, _ = smith_normal_form(M)
    assert S.entries == (0, 0, 0)


def _bareiss_determinant(M: IntMatrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so the entries stay integers."""
    a = M.to_rows()
    n, sign, prev = M.rows, 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def test_bareiss_determinant():
    assert _bareiss_determinant(IntMatrix.zero(0, 0)) == 1
    assert _bareiss_determinant(IntMatrix.from_rows([[-7]])) == -7
    assert _bareiss_determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert _bareiss_determinant(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
    assert _bareiss_determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0
    # cofactor expansion along the first row
    M = IntMatrix.from_rows([[0, 2, 1], [3, 0, -1], [4, 5, 6]])
    assert _bareiss_determinant(M) == 0 * (0 * 6 + 5) - 2 * (18 + 4) + 1 * (15 - 0)


def _assert_smith_factorization(M: IntMatrix, U: IntMatrix, S: IntMatrix, V: IntMatrix):
    """U*M*V = S with U and V unimodular and S a Smith form."""
    n, m = M.rows, M.cols
    assert U * M * V == S
    assert n == 0 or abs(_bareiss_determinant(U)) == 1
    assert m == 0 or abs(_bareiss_determinant(V)) == 1
    diag = [S[i, i] for i in range(min(n, m))]
    assert all(S[i, j] == 0 for i in range(n) for j in range(m) if i != j)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0


def test_factorization_and_unimodularity_random():
    rng = random.Random(1234)
    for _ in range(120):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        M = IntMatrix(n, m, [rng.randint(-5, 5) for _ in range(n * m)])
        _assert_smith_factorization(M, *smith_normal_form(M))


def test_cokernel_no_relations():
    M = IntMatrix.zero(0, 3)
    assert cokernel_group(M) == FgAbGroup(3)


def test_cokernel_z2_z3_is_z6():
    # oracle: Z^2/(2e1, 3e2) has 6 elements, cyclic since gcd(2,3)=1
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    elems = {(a % 2, b % 3) for a in range(2) for b in range(3)}
    assert len(elems) == 6
    g = cokernel_group(M)
    assert g == FgAbGroup(0, (6,))
    # generator check: (1,1) has order 6 in the quotient
    orders = set()
    x = (0, 0)
    for k in range(1, 7):
        x = ((x[0] + 1) % 2, (x[1] + 1) % 3)
        if x == (0, 0):
            orders.add(k)
            break
    assert orders == {6}


def test_cokernel_single_row():
    M = IntMatrix.from_rows([[1, 1]])
    assert cokernel_group(M) == FgAbGroup(1)


def test_cokernel_permutation_invariance():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        g = cokernel_group(IntMatrix.from_rows(rows))
        rows2 = rows[:]
        rng.shuffle(rows2)
        perm = list(range(m))
        rng.shuffle(perm)
        rows3 = [[r[perm[j]] for j in range(m)] for r in rows2]
        assert cokernel_group(IntMatrix.from_rows(rows3)) == g


def test_diagonal_matches_naive_oracle_random():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(n)]
        diag = [d for d in smith_diagonal(IntMatrix.from_rows(rows))]
        prod_smith = 1
        prod_naive = 1
        for d, e in zip(sorted(abs(x) for x in diag), naive_diagonalize(rows)):
            prod_smith *= d
            prod_naive *= e
        assert prod_smith == prod_naive
        assert kernel_rank(IntMatrix.from_rows(rows)) == m - sum(
            1 for d in diag if d
        )


def test_fg_ab_group_validation():
    with pytest.raises(ValueError):
        FgAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    g = FgAbGroup(2, (2, 6))
    assert str(g) == "Z^2 x Z/2 x Z/6"
    assert g.order() is None
    assert FgAbGroup(0, (2, 4)).order() == 8
    assert FgAbGroup(0).is_trivial


def test_solution_group_mod():
    # x = 0 mod 2 in Z/4: solutions {0, 2} = Z/2
    M = IntMatrix.from_rows([[2]])
    assert solution_group_mod(M, 4) == FgAbGroup(0, (2,))
    # no constraints: (Z/3)^2
    assert solution_group_mod(IntMatrix.zero(0, 2), 3) == FgAbGroup(0, (3, 3))


def test_lattice_member():
    assert lattice_member([[2, 0], [0, 2]], [4, 6])
    assert not lattice_member([[2, 0], [0, 2]], [1, 0])
    assert lattice_member([], [0, 0, 0])
    assert not lattice_member([], [1, 0])
    assert lattice_member([[1, 1]], [3, 3])
    assert not lattice_member([[1, 1]], [1, 0])


def test_is_prime_matches_sieve():
    sieve = [False, False] + [True] * 999
    for q in range(2, 32):
        for k in range(q * q, 1001, q):
            sieve[k] = False
    assert [p for p in range(-5, 1001) if is_prime(p)] == [p for p in range(1001) if sieve[p]]
    assert is_prime(2**31 - 1) and not is_prime(65537 * 65537)


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 9, 91])
def test_prime_checks_keep_their_messages(p):
    from anabel.gog import tempered_ab_profile
    from anabel.splitting import radius_pushforward

    # asked twice, so the second answer comes from the memo
    for _ in range(2):
        assert not is_prime(p)
        with pytest.raises(ValueError) as err:
            radius_pushforward(p, Fraction(1, 2))
        assert str(err.value) == f"{p} is not prime (equal characteristic is rejected)"
        with pytest.raises(ValueError) as err:
            tempered_ab_profile(2, 1, p)
        assert str(err.value) == "p must be prime"
    assert is_prime.cache_info().maxsize is not None


def test_row_reduce():
    rows, pivots = row_reduce([[0, 2, 4], [1, 1, 1], [1, 2, 3]], 3)
    assert pivots == [0, 1]
    assert rows == [[1, 0, -1], [0, 1, 2]]
    assert all(isinstance(x, Fraction) for row in rows for x in row)
    assert row_reduce([], 3) == ([], [])
    assert row_reduce([[0, 0], [0, 0]], 2) == ([], [])
    # pivots are searched only in the first ncols columns
    assert row_reduce([[0, 1]], 1) == ([], [])


def test_fold_row_matches_row_reduce():
    # folding rows in one at a time gives the echelon form of all of them,
    # after every row, including rows already in the span and zero rows
    rng = random.Random(SEED)
    grew = stayed = 0
    for _ in range(200):
        _, m, rows = _random_matrix(rng)
        rows += [[2 * x for x in r] for r in rows[:2]]
        rng.shuffle(rows)
        basis, pivots = [], []
        for k, row in enumerate(rows, 1):
            before = len(pivots)
            basis, pivots = fold_row(basis, pivots, row)
            assert (basis, pivots) == row_reduce(rows[:k], m)
            assert all(isinstance(x, Fraction) for b in basis for x in b)
            grew += len(pivots) > before
            stayed += len(pivots) == before
    assert grew > 100 and stayed > 100


def test_nullspace_and_rank():
    assert nullspace([[1, 1, 1]], 3) == [[-1, 1, 0], [-1, 0, 1]]
    assert nullspace([], 2) == [[1, 0], [0, 1]]
    assert nullspace([[1, 0], [0, 3]], 2) == []
    assert rank([[1, 2], [2, 4]], 2) == 1
    assert rank([], 4) == 0


def _random_matrix(rng, max_size=6, bound=5):
    """Integer matrix up to max_size x max_size with some zero rows/columns."""
    n, m = rng.randint(0, max_size), rng.randint(0, max_size)
    rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
    for r in rows:
        if rng.random() < 0.2:
            r[:] = [0] * m
    for j in range(m):
        if rng.random() < 0.2:
            for r in rows:
                r[j] = 0
    return n, m, rows


def _fraction(q):
    return Fraction(int(q.p), int(q.q))


def test_row_reduction_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    cases = [(0, 0, []), (0, 3, []), (3, 0, [[], [], []])]
    cases += [_random_matrix(rng) for _ in range(300)]
    for n, m, rows in cases:
        S = sympy.Matrix(n, m, [x for r in rows for x in r])
        ref, ref_pivots = S.rref()
        red, pivots = row_reduce(rows, m)
        assert pivots == list(ref_pivots), rows
        assert red == [[_fraction(ref[i, j]) for j in range(m)] for i in range(len(pivots))]
        assert rank(rows, m) == S.rank()
        assert nullspace(rows, m) == [
            [_fraction(v[j]) for j in range(m)] for v in S.nullspace()
        ]


def test_smith_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(12)
    for _ in range(200):
        n, m, rows = _random_matrix(rng, bound=9)
        if not (n and m):
            continue
        ref = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = [abs(int(ref[i, i])) for i in range(min(n, m))]
        assert list(smith_diagonal(IntMatrix.from_rows(rows))) == expected, rows


# -- the Smith form against the full-scan, always-tracking reduction ------------------

SEED = int(os.environ.get("ANABEL_SEED", "0"))


def _reference_pivot_position(a, start, n, m):
    """Smallest nonzero absolute value, ties broken by row-major position."""
    best = None
    for i in range(start, n):
        for j in range(start, m):
            v = a[i][j]
            if v != 0:
                key = (abs(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


def _reference_smith_normal_form(M: IntMatrix):
    """A Smith reduction that always tracks U and V, scans the whole block
    for the pivot and for divisibility, and touches every row of a column
    operation."""
    n, m = M.rows, M.cols
    a = M.to_rows()
    u = IntMatrix.identity(n).to_rows()
    v = IntMatrix.identity(m).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        if c:
            a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
            u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, c):
        if c:
            for r in a:
                r[dst] += c * r[src]
            for r in v:
                r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while True:
        piv = _reference_pivot_position(a, t, n, m)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            # clear column t, then row t; a smaller remainder may reappear
            progress = False
            for i in range(t + 1, n):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    addmul_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        progress = True
            for j in range(t + 1, m):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        progress = True
            if not progress:
                break
        # divisibility: fold any entry not divisible by the pivot back in
        while True:
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if a[i][j] % a[t][t] != 0:
                        bad = (i, j)
                        break
                if bad:
                    break
            if bad is None:
                break
            bi, bj = bad
            addmul_row(t, bi, 1)
            while True:
                progress = False
                for j in range(t + 1, m):
                    if a[t][j]:
                        q = a[t][j] // a[t][t]
                        addmul_col(j, t, -q)
                        if a[t][j]:
                            swap_cols(t, j)
                            progress = True
                for i in range(t + 1, n):
                    if a[i][t]:
                        q = a[i][t] // a[t][t]
                        addmul_row(i, t, -q)
                        if a[i][t]:
                            swap_rows(t, i)
                            progress = True
                if not progress:
                    break
        if a[t][t] < 0:
            negate_row(t)
        t += 1
        if t >= min(n, m):
            break

    U = IntMatrix.from_rows(u) if n else IntMatrix.zero(0, 0)
    V = IntMatrix.from_rows(v) if m else IntMatrix.zero(0, 0)
    S = IntMatrix.from_rows(a) if n else IntMatrix.zero(0, m)
    if n == 0:
        S = IntMatrix.zero(0, m)
    return U, S, V


def _incidence_like(rng, n, m):
    """Columns with at most two nonzero entries, each +1 or -1."""
    rows = [[0] * m for _ in range(n)]
    for j in range(m):
        for i in rng.sample(range(n), min(n, rng.randint(0, 2))):
            rows[i][j] = rng.choice((1, -1))
    return rows


def _random_graph(rng, nv, ne):
    """A connected BranchGraph: a random spanning tree plus random extra
    edges, loops and parallel edges included."""
    vs = [f"v{i}" for i in range(nv)]
    edges = {f"t{i}": (vs[rng.randrange(i)], vs[i]) for i in range(1, nv)}
    for j in range(ne - (nv - 1)):
        edges[f"x{j}"] = (rng.choice(vs), rng.choice(vs))
    return BranchGraph(vs, edges)


def _graph_incidence(rng, nv, ne):
    """Vertex-by-edge incidence matrix: +1 at the head, -1 at the tail, and
    a zero column for a loop."""
    G = _random_graph(rng, nv, ne)
    at = {v: i for i, v in enumerate(G.vertices)}
    rows = [[0] * len(G.edges) for _ in G.vertices]
    for j, (tail, head) in enumerate(G.edges.values()):
        if tail != head:
            rows[at[head]][j], rows[at[tail]][j] = 1, -1
    return rows


def _relation_matrix(rng):
    """Exponent sums of the relators of pi1 of a graph of cyclic groups
    with trivial edge groups, the matrix the abelianization reduces."""
    nv = rng.randint(1, 4)
    G = _random_graph(rng, nv, rng.randint(nv - 1, nv + 2))
    triv = FiniteGroup.trivial()
    gog = GraphOfFiniteGroups(G, {v: FiniteGroup.cyclic(rng.randint(1, 4)) for v in G.vertices},
                              {e: triv for e in G.edges}, {b: {0: 0} for b in G.branches()})
    pres = pi1_presentation(gog)
    n = len(pres.generators)
    rows = []
    for r in pres.relators:
        row = [0] * n
        for s in r:
            row[abs(s) - 1] += 1 if s > 0 else -1
        rows.append(row)
    return n, rows


def _signed_permutation(rng):
    """One +-1 per row and at most one per column, with zero rows and
    columns mixed in."""
    k = rng.randint(1, 8)
    n, m = k + rng.randint(0, 2), k + rng.randint(0, 2)
    rows = [[0] * m for _ in range(n)]
    for i, j in zip(rng.sample(range(n), k), rng.sample(range(m), k)):
        rows[i][j] = rng.choice((1, -1))
    return rows


def _smith_corpus(rng):
    for _ in range(1500):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        yield n, m, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    for _ in range(60):
        n, m = rng.randint(1, 30), rng.randint(1, 60)
        yield n, m, _incidence_like(rng, n, m)
    # no unit entries at all, so the row walk finds no pivot: every pivot
    # is the smallest entry left, and gcd steps and the divisibility fold run
    for _ in range(500):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        yield n, m, [[rng.choice((0, 2, -2, 3, -3, 4, 6, -6, 9)) for _ in range(m)]
                     for _ in range(n)]
    # the sparse matrices the library reduces
    for _ in range(40):
        nv = rng.randint(1, 12)
        rows = _graph_incidence(rng, nv, rng.randint(nv - 1, 20))
        yield len(rows), len(rows[0]), rows
        if rng.random() < 0.5:
            yield len(rows[0]), len(rows), [list(c) for c in zip(*rows)]
    for _ in range(40):
        nv = rng.randint(1, 8)
        M, _ = _constraint_matrix(_random_graph(rng, nv, rng.randint(nv - 1, 14)))
        yield M.rows, M.cols, M.to_rows()
    for _ in range(40):
        m, rows = _relation_matrix(rng)
        yield len(rows), m, rows
    for _ in range(100):
        rows = _signed_permutation(rng)
        yield len(rows), len(rows[0]), rows
    for k in range(4):
        yield 0, k, []
        yield k, 0, [[] for _ in range(k)]


def test_smith_normal_form_matches_reference():
    # S is unique, so it must equal the reference's; U and V come from a
    # different sequence of operations and are checked by U*M*V = S and
    # unimodularity instead
    rng = random.Random(SEED)
    # the first pivot divides no other entry, so the divisibility loop runs
    fixed = [(2, 2, [[2, 0], [0, 3]]), (3, 3, [[6, 0, 0], [0, 4, 0], [0, 0, 9]])]
    for n, m, rows in [*fixed, *_smith_corpus(rng)]:
        M = IntMatrix(n, m, [x for r in rows for x in r])
        U, S, V = smith_normal_form(M)
        want = _reference_smith_normal_form(M)[1]
        assert (S.rows, S.cols, S.entries) == (want.rows, want.cols, want.entries), rows
        _assert_smith_factorization(M, U, S, V)
        assert smith_diagonal(M) == tuple(S[i, i] for i in range(min(n, m))), rows


def test_constraint_matrix_leaves_the_gcd_loop_an_empty_block(monkeypatch):
    # the current constraint matrix of a 30-vertex, 70-edge graph (100 x 140)
    # is cleared by unit pivots alone, with and without transforms: no gcd
    # step is taken
    import anabel.intlin as intlin

    steps = []
    xgcd = intlin._xgcd

    def counting(a, b):
        steps.append((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(intlin, "_xgcd", counting)
    G = _random_graph(random.Random(SEED), 30, 70)
    M, _ = _constraint_matrix(G)
    assert (M.rows, M.cols) == (100, 140)
    # the cycle rank is 70 - 30 + 1 = 41, and every other invariant is 1
    assert smith_diagonal(M) == (1,) * 99 + (0,)
    U, S, V = smith_normal_form(M)
    assert S == IntMatrix(100, 140, [int(i == j < 99) for i in range(100) for j in range(140)])
    assert U * M * V == S
    assert steps == []


# a 7 x 5 matrix on which a reduction that swaps in unreduced remainder rows
# runs for minutes; its Smith diagonal is 1, 1, 1, 1, 2
STIFF_7X5 = [[-7, 4, 5, 6, 1], [-1, 9, 2, 0, 9], [-7, 1, 4, 9, 4], [9, 0, -1, -7, 4],
             [-7, 0, -1, 6, 5], [5, -3, 9, 2, 0], [4, 0, 2, 1, 5]]


def _dense(seed, n=7, m=7, bound=9):
    rng = random.Random(seed)
    return [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]


def test_stiff_matrix_cokernel():
    M = IntMatrix.from_rows(STIFF_7X5)
    assert smith_diagonal(M) == (1, 1, 1, 1, 2)
    assert cokernel_group(M) == FgAbGroup(0, (2,))


@pytest.mark.parametrize("seed", range(6))
def test_dense_smith_normal_form_stays_small(seed):
    M = IntMatrix.from_rows(_dense(seed))
    t0 = time.perf_counter()
    U, S, V = smith_normal_form(M)
    assert time.perf_counter() - t0 < 0.1
    _assert_smith_factorization(M, U, S, V)


def test_stiff_diagonals_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    for rows in [STIFF_7X5, *(_dense(seed) for seed in range(6))]:
        ref = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        expected = tuple(abs(int(ref[i, i])) for i in range(min(ref.shape)))
        assert smith_diagonal(IntMatrix.from_rows(rows)) == expected, rows


def _reference_lattice_member(vecs, target):
    """Membership read off the Smith transforms: with U M V = S, target is
    in the row lattice of M iff z = target V satisfies z = w S for an
    integral w."""
    d = len(target)
    if not vecs:
        return all(t == 0 for t in target)
    M = IntMatrix.from_rows(vecs)
    _, S, V = _reference_smith_normal_form(M)
    z = [sum(target[k] * V[k, j] for k in range(d)) for j in range(d)]
    for j in range(d):
        dj = S[j, j] if j < min(M.rows, d) else 0
        if (z[j] % dj if dj else z[j]) != 0:
            return False
    return True


def test_lattice_member_matches_transform_reference():
    rng = random.Random(SEED)
    members = 0
    for _ in range(300):
        d, k = rng.randint(1, 4), rng.randint(0, 4)
        vecs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        # a random combination of the generators, half the time nudged off
        target = [sum(c * v[j] for c, v in zip([rng.randint(-3, 3) for _ in vecs], vecs))
                  for j in range(d)]
        if rng.random() < 0.5:
            target[rng.randrange(d)] += rng.randint(1, 3)
        want = _reference_lattice_member(vecs, target)
        assert lattice_member(vecs, target) == want, (vecs, target)
        members += want
    assert 50 < members < 250


def test_lattice_member_reduces_each_generator_set_once(monkeypatch):
    import anabel.intlin as intlin

    calls = []
    reduce = intlin._smith_form

    def counting(a, n, m, u=None, v=None):
        calls.append((n, m))
        return reduce(a, n, m, u, v)

    monkeypatch.setattr(intlin, "_smith_form", counting)
    intlin._lattice_transform.cache_clear()
    rng = random.Random(SEED)
    gens = [[3, 1, 0], [0, 2, 5], [1, -1, 2]]
    other = [[2, 0, 0], [0, 4, 2]]
    points = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(40)]
    for x in points:
        assert lattice_member(gens, x) == _reference_lattice_member(gens, x), x
        assert lattice_member(other, x) == _reference_lattice_member(other, x), x
    # one reduction per generator set, none per point
    assert calls == [(3, 3), (2, 3)]
    # a list of lists and a tuple of tuples share the cached transform
    assert lattice_member(tuple(map(tuple, gens)), points[0]) == lattice_member(gens, points[0])
    assert calls == [(3, 3), (2, 3)]
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        lattice_member(gens, [1, 2])
    # every generator is measured against the target, not only the first
    for ragged, x in [([[0, 1], [1]], [1, 0]), ([[1, 0], [0, 1, 5]], [0, 1])]:
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            lattice_member(ragged, x)
