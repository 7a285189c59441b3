"""Exact linear algebra: row reduction over Q, Smith normal form over Z.

These are the library's two eliminations. Over Q: row reduction, one row
folded into a reduced basis, nullspace and rank. Over Z: primality, Smith
normal form, f.g. abelian groups, cokernels and lattice membership. One
Smith kernel serves three modes: `smith_normal_form` has it track U and
V, lattice membership has it track V alone, once per generator set, and
`smith_diagonal` (behind cokernels) tracks no transforms. The kernel is
one elimination on sparse rows. Its pivots come first from a walk over
the rows, each offering a +-1 entry in the sparsest of its columns, and
then from the smallest entry left. A unit pivot clears its column with
no remainder to come back, and the column operations that clear its row
add multiples of a column that is 0 outside the pivot row, so they run
on V alone; the incidence-type matrices of graphs of groups are mostly
or wholly cleared this way. An entry the pivot does not divide is
cleared by a 2 x 2 gcd step, so the pivot shrinks to the gcd and no
unreduced remainder becomes the next pivot; that is what keeps entries
from running away. Everything works with plain integers and `Fraction`, so
there is no overflow.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import isqrt
from operator import mul
from typing import Iterable, List, Sequence, Tuple


class IntMatrix:
    """Immutable dense integer matrix, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other[k, j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({self.to_rows()!r})"


class FgAbGroup:
    """Finitely generated abelian group: free rank plus invariant factors.

    The invariant factors d1 | d2 | ... | dk are all >= 2; the divisibility
    chain is checked on construction.
    """

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int] = ()):
        torsion = tuple(int(d) for d in torsion)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d < 2 for d in torsion):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FgAbGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FgAbGroup({self.free_rank}, {self.torsion})"


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------


def row_reduce(rows: Sequence[Sequence], ncols: int) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q of a matrix with `ncols` columns.

    Entries may be ints or Fractions. Returns the nonzero rows of the (unique)
    echelon form as lists of Fractions, and their pivot columns, ascending.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        prow = a[r] = [x * inv if x else x for x in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if f and i != r:
                a[i] = [x - f * y if y else x for x, y in zip(row, prow)]
        pivots.append(c)
    return a[: len(pivots)], pivots


def fold_row(
    basis: List[List[Fraction]], pivots: List[int], row: Sequence
) -> Tuple[List[List[Fraction]], List[int]]:
    """Fold one row into a reduced row echelon form: returns
    `row_reduce(basis + [row], len(row))` for (basis, pivots) as
    `row_reduce` returns them, without reducing the basis again.

    The row is cleared at every pivot column by the basis row that has a 1
    there. If nothing is left it is in the span, and (basis, pivots) is
    returned as it is. Otherwise its first nonzero column becomes a new
    pivot: the rest is scaled to 1 there, and that column is cleared from
    the basis rows. The rest is 0 at the old pivot columns and before its
    own, so each basis row keeps its pivot and its zeros; the result is in
    reduced echelon form with the span of basis + [row], and that form is
    unique.
    """
    r = [Fraction(x) for x in row]
    for b, p in zip(basis, pivots):
        f = r[p]
        if f:
            r = [x - f * y if y else x for x, y in zip(r, b)]
    lead = next((c for c, x in enumerate(r) if x), None)
    if lead is None:
        return basis, pivots
    inv = 1 / r[lead]
    r = [x * inv if x else x for x in r]
    k = bisect_left(pivots, lead)
    basis = [
        [x - b[lead] * y if y else x for x, y in zip(b, r)] if b[lead] else b
        for b in basis
    ]
    return basis[:k] + [r] + basis[k:], pivots[:k] + [lead] + pivots[k:]


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[List[Fraction]]:
    """Basis of {x in Q^ncols : row . x = 0 for every row}: one vector per
    non-pivot column c, with x_c = 1 and 0 at the other non-pivot columns."""
    red, pivots = row_reduce(rows, ncols)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def rank(rows: Sequence[Sequence], ncols: int) -> int:
    """Rank over Q (equal to the number of nonzero Smith invariants)."""
    return len(row_reduce(rows, ncols)[1])


# ---------------------------------------------------------------------------
# over Z: primality and Smith normal form
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    """Trial division by every q >= 2 with q * q <= p. Memoized: the
    splitting sweeps ask about the same few small primes thousands of
    times."""
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0, for a and b not both 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - q * x1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _smith_form(entries, n, m, u=False, v=False):
    """Smith form of the n x m integer matrix with row-major `entries`.

    Returns (diag, U, V): diag holds the min(n, m) diagonal entries
    d1 | d2 | ... of S, all >= 0 and zeros last, and U and V are lists of
    rows with U*M*V = S, U and V unimodular, or None where `u` or `v` is
    false. A matrix with no rows or no columns returns at once.

    One elimination on sparse rows ({col: value} dicts) with a
    column-to-rows index; U's rows and V's columns are sparse too. Pivots
    come from two sources. First the rows are walked in order once: each
    offers a +-1 entry, in the column that holds the fewest entries (ties
    to the lower column). Then, while entries are left, the smallest
    |entry|, first in row order. A pivot step clears the pivot's column by
    row operations and then its row by column operations. An entry the
    pivot d divides is cleared by subtracting a multiple of the pivot row
    or column; any other entry x by a 2 x 2 unimodular step that puts
    gcd(d, x) in the pivot's place, so the pivot only shrinks and no
    unreduced remainder becomes the next pivot, which is what keeps entries
    from running away. Once the column is clear, a column operation adds a
    multiple of a column that is 0 outside the pivot row, so it changes no
    other row and runs on V alone; a gcd step on columns refills the
    pivot column, and the clearing starts again. Once row and column are
    clear, a row holding an entry the pivot does not divide is added to
    the pivot row and the clearing repeats, so each pivot divides every
    entry left and the divisibility chain holds. A unit divides
    everything, so a pivot from the walk never needs a gcd step or the
    fold. U's rows and V's columns come out as the pivots in order, then
    the zero rows and columns.
    """
    size = min(n, m)
    if not size:
        return (
            [],
            [[int(i == j) for j in range(n)] for i in range(n)] if u else None,
            [[int(i == j) for j in range(m)] for i in range(m)] if v else None,
        )
    rows = [{} for _ in range(n)]
    at = [set() for _ in range(m)]
    for k in compress(range(n * m), entries):
        i, j = divmod(k, m)
        rows[i][j] = entries[k]
        at[j].add(i)
    us = [{i: 1} for i in range(n)] if u else None
    vs = [{j: 1} for j in range(m)] if v else None
    pivots = []
    walk = iter(range(n))
    while True:
        for i in walk:
            units = [j for j, x in rows[i].items() if x == 1 or x == -1]
            if units:
                c = min(units, key=lambda j: (len(at[j]), j))
                break
        else:
            least = min(((abs(x), r, j) for r, row in enumerate(rows) if row
                         for j, x in row.items()), default=None)
            if least is None:
                break
            _, i, c = least
        d = rows[i][c]
        while True:
            # clear column c by row operations
            prow = rows[i]
            for r in list(at[c]):
                if r == i:
                    continue
                x = rows[r][c]
                if x % d:
                    g, p, q = _xgcd(d, x)
                    s, t = -(x // g), d // g
                    _pair(rows, i, r, p, q, s, t, at)
                    if u:
                        _pair(us, i, r, p, q, s, t)
                    d, prow = g, rows[i]
                    continue
                row, f = rows[r], -(x // d)
                for j, y in prow.items():
                    z = row.get(j, 0) + f * y
                    if z:
                        if j not in row:
                            at[j].add(r)
                        row[j] = z
                    else:
                        del row[j]
                        if j != c:
                            at[j].discard(r)
                if u:
                    _addmul(us[r], us[i], f)
            at[c] = {i}
            # clear row i by column operations; column c is 0 outside row i
            # until a gcd step refills it and the clearing starts again
            for j, x in list(prow.items()):
                if j == c:
                    continue
                if x % d:
                    g, p, q = _xgcd(d, x)
                    s, t = -(x // g), d // g
                    for r in at[c] | at[j]:
                        row = rows[r]
                        y, z = row.pop(c, 0), row.pop(j, 0)
                        for k, w in ((c, p * y + q * z), (j, s * y + t * z)):
                            if w:
                                row[k] = w
                                at[k].add(r)
                            else:
                                at[k].discard(r)
                    if v:
                        _pair(vs, c, j, p, q, s, t)
                    d = g
                    break
                del prow[j]
                at[j].discard(i)
                if v:
                    _addmul(vs[j], vs[c], -(x // d))
            else:
                # fold in a row with an entry the pivot does not divide
                if d == 1 or d == -1:
                    break
                bad = next((r for r, row in enumerate(rows) if row and r != i
                            and any(x % d for x in row.values())), None)
                if bad is None:
                    break
                _pair(rows, i, bad, 1, 1, 0, 1, at)
                if u:
                    _addmul(us[i], us[bad], 1)
        if d < 0 and u:
            us[i] = {j: -x for j, x in us[i].items()}
        rows[i] = None
        at[c] = set()
        pivots.append((i, c, abs(d)))

    diag = [d for _, _, d in pivots] + [0] * (size - len(pivots))
    U = V = None
    if u:
        order = [i for i, _, _ in pivots] + [i for i, row in enumerate(rows) if row is not None]
        U = [_dense_row(us[i], n) for i in order]
    if v:
        pcols = [c for _, c, _ in pivots]
        V = [[0] * m for _ in range(m)]
        for t, j in enumerate(pcols + sorted(set(range(m)).difference(pcols))):
            for r, x in vs[j].items():
                V[r][t] = x
    return diag, U, V


def _addmul(dst: dict, src: dict, f: int) -> None:
    """dst += f * src on sparse vectors."""
    for j, x in src.items():
        y = dst.get(j, 0) + f * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _pair(vecs, i, k, p, q, r, s, at=None) -> None:
    """(vecs[i], vecs[k]) <- (p vecs[i] + q vecs[k], r vecs[i] + s vecs[k])
    on sparse vectors. `at`, when given, maps each index to the set of
    vectors that hold it, and is kept current."""
    a, b = vecs[i], vecs[k]
    for t, x, y in ((i, p, q), (k, r, s)):
        new = {j: z for j in a.keys() | b.keys() if (z := x * a.get(j, 0) + y * b.get(j, 0))}
        if at is not None:
            for j in vecs[t].keys() - new.keys():
                at[j].discard(t)
            for j in new.keys() - vecs[t].keys():
                at[j].add(t)
        vecs[t] = new


def _dense_row(row: dict, width: int) -> List[int]:
    out = [0] * width
    for j, x in row.items():
        out[j] = x
    return out


def smith_normal_form(M: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U*M*V = S, U and V unimodular, S in Smith form
    (pivot rules and divisibility chain as in `_smith_form`)."""
    n, m = M.rows, M.cols
    diag, u, v = _smith_form(M.entries, n, m, True, True)
    s = [0] * (n * m)
    for t, d in enumerate(diag):
        s[t * m + t] = d
    U = IntMatrix(n, n, [x for r in u for x in r])
    V = IntMatrix(m, m, [x for r in v for x in r])
    return U, IntMatrix(n, m, s), V


def smith_diagonal(M: IntMatrix) -> Tuple[int, ...]:
    """The diagonal of the Smith form of M, including zeros, length min(n, m).

    Only the matrix itself is reduced; no transforms are tracked.
    """
    return tuple(_smith_form(M.entries, M.rows, M.cols)[0])


def cokernel_group(M: IntMatrix) -> FgAbGroup:
    """Z^cols modulo the subgroup generated by the rows of M."""
    diag = smith_diagonal(M)
    torsion = tuple(d for d in diag if d >= 2)
    return FgAbGroup(M.cols - len(diag) + diag.count(0), torsion)


def lattice_member(vecs: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Is target in the sublattice L of Z^d generated by vecs?

    Let U M V = S be the Smith form of the matrix M whose rows are vecs.
    U is unimodular, so L = Z^k M = Z^k S V^-1, and x lies in L iff x V is
    an integral combination of the rows of S: iff (x V)_j is a multiple of
    d_j for each nonzero invariant d_j, and (x V)_j = 0 past the rank. V
    comes from one reduction per generator set, so a query is d dot
    products at most.
    """
    if not vecs:
        return all(t == 0 for t in target)
    gens = tuple(map(tuple, vecs))
    if len(gens[0]) != len(target):
        raise ValueError("ambient dimension mismatch")
    for column, d in _lattice_transform(gens):
        z = sum(map(mul, target, column))
        if z % d if d else z:
            return False
    return True


@lru_cache(maxsize=256)
def _lattice_transform(gens: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """(column j of V, d_j) for each j with d_j != 1, where U M V = S is the
    Smith form of the rows gens and d_j = 0 past the rank; a unit invariant
    constrains nothing. `is_saturated`, `saturation` and monoid membership
    ask about many points of one lattice, so each set is reduced once, and
    checked once to hold generators of one length."""
    k, d = len(gens), len(gens[0])
    if any(len(g) != d for g in gens):
        raise ValueError("ambient dimension mismatch")
    diag, _, v = _smith_form([x for g in gens for x in g], k, d, False, True)
    out = []
    for j in range(d):
        dj = diag[j] if j < k else 0
        if dj != 1:
            out.append((tuple(row[j] for row in v), dj))
    return tuple(out)
