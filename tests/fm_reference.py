"""Fourier-Motzkin elimination: an exact linear-feasibility reference.

The library answers its cone questions (membership, faces, units and the
grading of `AffineMonoid.contains`) from one representation, the facet
normals that the double description method gives. This module is a second,
independent algorithm for the same questions. Tests use it as the oracle of
`cone_member` and `faces`.
"""

from fractions import Fraction
from typing import List, Optional

from anabel.intlin import row_reduce


def _fm_solve(ineqs, nvars):
    """Feasible point of {x : coeffs . x >= rhs for all (coeffs, rhs)} or None.

    Coefficients may be ints; the point has Fraction entries.
    """
    if nvars == 0:
        for _, rhs in ineqs:
            if rhs > 0:
                return None
        return []
    last = nvars - 1
    pos, neg, rest = [], [], []
    for coeffs, rhs in ineqs:
        c = coeffs[last]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            rest.append((coeffs[:last], rhs))
    projected = list(rest)
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = pc[last], -nc[last]
            coeffs = tuple(b * pc[j] + a * nc[j] for j in range(last))
            projected.append((coeffs, b * pr + a * nr))
    sol = _fm_solve(projected, last)
    if sol is None:
        return None

    def bound(coeffs, rhs):
        # the sum starts at Fraction(0) so that the bound is never a float
        return (rhs - sum((c * s for c, s in zip(coeffs, sol)), Fraction(0))) / coeffs[last]

    lo = max((bound(*q) for q in pos), default=None)
    hi = min((bound(*q) for q in neg), default=None)
    if lo is not None:
        x = lo
    elif hi is not None:
        x = min(hi, Fraction(0))
    else:
        x = Fraction(0)
    return sol + [x]


def solve_eq_ineq(equalities, inequalities, nvars: int) -> Optional[List[Fraction]]:
    """A point of {x in Q^nvars : A x = a, B x >= b} with Fraction entries, or None.

    equalities and inequalities are (coeffs, rhs) pairs of ints or Fractions.
    A pivot in the last column of the reduced augmented equalities means they
    are inconsistent; otherwise each pivot variable, x_p = row[nvars] -
    sum(row[f] x_f) over the free variables f, is substituted into the
    inequalities, and Fourier-Motzkin solves for the free variables.
    """
    rows, pivots = row_reduce([[*coeffs, rhs] for coeffs, rhs in equalities], nvars + 1)
    if pivots and pivots[-1] == nvars:
        return None
    free = sorted(set(range(nvars)) - set(pivots))
    reduced = []
    for coeffs, rhs in inequalities:
        subs = [(coeffs[p], row) for p, row in zip(pivots, rows) if coeffs[p]]
        reduced.append((
            tuple(coeffs[f] - sum(c * row[f] for c, row in subs) for f in free),
            rhs - sum(c * row[nvars] for c, row in subs),
        ))
    sol = _fm_solve(reduced, len(free))
    if sol is None:
        return None
    out = [Fraction(0)] * nvars
    for f, value in zip(free, sol):
        out[f] = value
    for p, row in zip(pivots, rows):
        out[p] = row[nvars] - sum(row[f] * out[f] for f in free)
    return out
