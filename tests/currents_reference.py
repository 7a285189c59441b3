"""The Smith route to the group of currents: a reference for `current_group`.

The library reads the group off its basis: the vertex laws form a totally
unimodular matrix, so the group is free (over Z/n, a power of Z/n) of the
basis's rank. This module computes the group the long way, from the
Smith diagonal of the full constraint matrix (one antisymmetry row per real
edge, one Kirchhoff row per vertex), with no use of that argument. Tests
compare the two.
"""

from math import gcd
from typing import List, Optional, Sequence, Tuple

from anabel.graphs import Branch, BranchGraph
from anabel.intlin import FgAbGroup, IntMatrix, smith_diagonal


def _constraint_matrix(G: BranchGraph) -> Tuple[IntMatrix, List[Branch]]:
    branches = G.branches()
    idx = {b: i for i, b in enumerate(branches)}
    rows = []
    for e in G.real_edges():
        row = [0] * len(branches)
        row[idx[(e, 0)]] = 1
        row[idx[(e, 1)]] = 1
        rows.append(row)
    for v in G.vertices:
        row = [0] * len(branches)
        for b in G.branches_at(v):
            row[idx[b]] += 1
        rows.append(row)
    return IntMatrix(len(rows), len(branches), [x for r in rows for x in r]), branches


def _smith_rank(diag: Sequence[int]) -> int:
    return len(diag) - diag.count(0)


def kernel_rank(M: IntMatrix) -> int:
    """Rank of the kernel of M acting on column vectors."""
    return M.cols - _smith_rank(smith_diagonal(M))


def solution_group_mod(M: IntMatrix, n: int) -> FgAbGroup:
    """Structure of {x in (Z/n)^cols : M x = 0 mod n} as an abelian group."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    diag = smith_diagonal(M)
    factors = sorted(
        [gcd(d, n) for d in diag if d != 0 and gcd(d, n) >= 2]
        + [n] * (M.cols - _smith_rank(diag))
    )
    # every factor divides n, and d_i | d_j gives gcd(d_i, n) | gcd(d_j, n),
    # so the sorted factors form a divisibility chain
    return FgAbGroup(0, tuple(factors))


def reference_current_group(G: BranchGraph, modulus: Optional[int] = None) -> FgAbGroup:
    """The group of currents on G, over Z or Z/modulus, by the Smith route."""
    M, _ = _constraint_matrix(G)
    if modulus is None:
        return FgAbGroup(kernel_rank(M))
    return solution_group_mod(M, modulus)
