"""Job records, seeded graph generators and the independent oracles
shared by the workloads.

Every expected value here is computed from first principles with plain
integers, sets and Fractions. Nothing imports `anabel`, so an oracle can
never agree with the program merely because it calls the same code.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class Job:
    """One timed call of the session.

    `run` does the program's work and returns a small observation; it is
    the only part inside the timer. `check` compares that observation with
    an independently computed expectation and returns the problems found.
    `plant` turns a correct observation into a wrong one, so the
    benchmark's self-check can show that `check` rejects it.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    plant: Callable[[object], object]


def expect_equal(what: str, got, want) -> List[str]:
    return [] if got == want else [f"{what}: got {got!r}, want {want!r}"]


# -- seeded graphs, as vertex lists and edge dicts ------------------------------


def cubic_edges(rank: int, rng: random.Random) -> Tuple[List[str], Dict]:
    """A random connected cubic multigraph of the given cycle rank."""
    nv = 2 * (rank - 1)
    vs = [f"v{i}" for i in range(nv)]
    while True:
        stubs = [v for v in range(nv) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = [(stubs[2 * i], stubs[2 * i + 1]) for i in range(len(stubs) // 2)]
        reach, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for a, b in pairs:
                for u, w in ((a, b), (b, a)):
                    if u == x and w not in reach:
                        reach.add(w)
                        frontier.append(w)
        if len(reach) == nv:
            return vs, {f"e{i}": (vs[a], vs[b]) for i, (a, b) in enumerate(pairs)}


def random_edges(nv: int, ne: int, rng: random.Random) -> Tuple[List[str], Dict]:
    """A random spanning tree plus random extra edges, loops included."""
    vs = [f"v{i}" for i in range(nv)]
    edges = {f"t{i}": (vs[rng.randrange(i)], vs[i]) for i in range(1, nv)}
    for j in range(ne - (nv - 1)):
        edges[f"x{j}"] = (rng.choice(vs), rng.choice(vs))
    return vs, edges


# -- polysimplicial counts ---------------------------------------------------


def index_dim(n: Sequence[int]) -> int:
    return 0 if tuple(n) == (0,) else sum(n)


def representable_cell_count(n: Sequence[int]) -> int:
    """Sub-boxes of [n]: a nonempty value subset per coordinate."""
    out = 1
    for x in n:
        out *= 2 ** (x + 1) - 1
    return out


def euler_of_indices(indices) -> int:
    return sum((-1) ** index_dim(n) for n in indices)


def sub_box_order(n: Sequence[int]) -> Tuple[set, set]:
    """Cells of Lambda[n] named as the program names them, and the
    inclusion order between them, from plain set inclusion of sub-boxes."""
    choices = []
    for x in n:
        vals = range(x + 1)
        choices.append([frozenset(c) for k in range(1, x + 2)
                        for c in itertools.combinations(vals, k)])
    boxes = list(itertools.product(*choices))

    def name(box):
        return "s" + "|".join("".join(str(v) for v in sorted(T)) for T in box)

    cells = {name(b) for b in boxes}
    order = {
        (name(a), name(b))
        for a in boxes
        for b in boxes
        if all(x <= y for x, y in zip(a, b))
    }
    return cells, order


# -- monoids -------------------------------------------------------------------


def brute_force_member(gens: Sequence[Tuple[int, ...]], x: Tuple[int, ...],
                       memo: Dict) -> bool:
    """Is x an N-combination of nonnegative, nonzero generators? Exhaustive
    search over subtractions that stay in N^d."""
    if all(c == 0 for c in x):
        return True
    if any(c < 0 for c in x):
        return False
    hit = memo.get(x)
    if hit is None:
        hit = any(
            brute_force_member(gens, tuple(a - b for a, b in zip(x, g)), memo)
            for g in gens
        )
        memo[x] = hit
    return hit


# -- graphs ------------------------------------------------------------------------


def conjugacy_class_sizes(d: int) -> List[Tuple[int, int]]:
    """(class size, centralizer order) for each cycle type of S_d."""
    out = []

    def partitions(n, largest):
        if n == 0:
            yield []
            return
        for k in range(min(n, largest), 0, -1):
            for rest in partitions(n - k, k):
                yield [k] + rest

    for part in partitions(d, d):
        cent = 1
        for k in set(part):
            m = part.count(k)
            cent *= k ** m * factorial(m)
        out.append((factorial(d) // cent, cent))
    return out


def burnside_cover_count(rank: int, d: int) -> int:
    """Orbits of rank-tuples in S_d under simultaneous conjugation:
    (1/d!) sum over t in S_d of |C(t)|^rank."""
    total = sum(size * cent ** rank for size, cent in conjugacy_class_sizes(d))
    count, rest = divmod(total, factorial(d))
    if rest:
        raise ArithmeticError("Burnside sum is not divisible by d!")
    return count


# -- abelian groups ------------------------------------------------------------------


def invariant_factors(orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/a, by merging
    prime powers: the largest power of each prime goes to the last factor."""
    powers: Dict[int, List[int]] = {}
    for a in orders:
        p = 2
        while a > 1:
            if a % p == 0:
                q = 1
                while a % p == 0:
                    a //= p
                    q *= p
                powers.setdefault(p, []).append(q)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for p, qs in powers.items():
        for k, q in enumerate(sorted(qs, reverse=True)):
            factors[length - 1 - k] *= q
    return tuple(f for f in factors if f > 1)


def mat_mul(A: List[List[int]], B: List[List[int]]) -> List[List[int]]:
    cols = list(zip(*B)) if B else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A]


def determinant(A: List[List[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(r) for r in A]
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def smith_problems(M, U, S, V) -> List[str]:
    """U*M*V = S, det U and det V are +-1, S is diagonal with a
    nonnegative divisibility chain."""
    probs = []
    if mat_mul(mat_mul(U, M), V) != S:
        probs.append("U*M*V != S")
    if abs(determinant(U)) != 1:
        probs.append("det U is not +-1")
    if abs(determinant(V)) != 1:
        probs.append("det V is not +-1")
    diag = []
    for i, row in enumerate(S):
        for j, x in enumerate(row):
            if i != j and x != 0:
                probs.append(f"S has an off-diagonal entry at {(i, j)}")
                return probs
            if i == j:
                diag.append(x)
    if any(d < 0 for d in diag):
        probs.append("S has a negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a != 0):
            probs.append(f"diagonal breaks the divisibility chain at {a}, {b}")
            break
    return probs


# -- splitting ---------------------------------------------------------------------


def fiber_recursion(p: int, h: int, v: Fraction) -> int:
    """Peel z -> z^p one level at a time: above 1 + 1/(p-1) a level splits
    and the valuation drops by 1, below it the valuation divides by p."""
    if v == 0:
        return 0
    count = 0
    c = Fraction(1, p - 1)
    for _ in range(h):
        if v >= 1 + c:
            v = v - 1
            count += 1
        else:
            v = v / p
        if v == 0:
            break
    return count


def tate_expectation(p, v, n, l, m):
    """Section 3.3 intervals from t = np / (v (p - 1))."""
    t = Fraction(n * p, p - 1) / Fraction(v)

    def ceil(x):
        return -((-x.numerator) // x.denominator)

    def floor(x):
        return x.numerator // x.denominator

    return ((ceil(l + t), floor(m * n - t)), (ceil(t), floor(l - t)),
            m * n - l - 2 * t, l - 2 * t)


def is_group_iso(table_a, table_b, f: Dict[int, int]) -> bool:
    """Is f a bijection with f(a b) = f(a) f(b) between the two tables?"""
    n = len(table_a)
    if len(table_b) != n or sorted(f.values()) != list(range(n)):
        return False
    return all(f[table_a[a][b]] == table_b[f[a]][f[b]]
               for a in range(n) for b in range(n))
