"""Fine monoids embedded in integer lattices, their faces and morphism tests.

A monoid is stored as the N-span of finitely many lattice vectors, so
integrality is automatic and membership, faces, units and saturation all
reduce to exact rational cone geometry plus bounded lattice searches.
Divisibility is written additively: a | b iff b - a lies in the monoid.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .intlin import (
    FgAbGroup, _lattice_transform, lattice_member, nullspace, rank, row_reduce,
)

Vec = Tuple[int, ...]

def _primitive(v: Sequence) -> Vec:
    """The primitive integer vector on the ray of a rational vector (0 stays 0)."""
    den = lcm(*(Fraction(c).denominator for c in v))
    ints = [int(c * den) for c in v]
    g = gcd(*ints) or 1
    return tuple(c // g for c in ints)


def _dot(a: Sequence[int], x: Sequence[int]) -> int:
    return sum(map(mul, a, x))


def _combine(s: int, x: Vec, t: int, y: Vec) -> Vec:
    """The primitive vector on the ray of s x + t y."""
    return _primitive([s * a + t * b for a, b in zip(x, y)])


@lru_cache(maxsize=None)
def _cone_inequalities(gens: Tuple[Vec, ...], dim: int) -> Tuple[Tuple[Vec, ...], Tuple[Vec, ...]]:
    """Integer (equations, facet normals) of the rational cone C spanned by gens
    in Q^dim: C = {x : e.x = 0 for every equation e, a.x >= 0 for every a}.

    The equations are a basis of the orthogonal complement of the linear span
    L of gens. The facet normals inside L are the extreme rays of the dual
    cone {a in L : a.g >= 0 for every g}, which is pointed. They come from
    the double description method (Fukuda & Prodon, "Double description
    method revisited", 1996): start from the lineality basis of L, add one
    generator's inequality at a time, and keep the rays as integer vectors
    with the set of generators each one vanishes on. Two rays on opposite
    sides of a new inequality are combined only when they are adjacent, that
    is when no third ray vanishes on every generator both vanish on.
    """
    equations = tuple(_primitive(y) for y in nullspace(gens, dim))
    lineality = [_primitive(row) for row in row_reduce(gens, dim)[0]]
    rays: List[Tuple[Vec, int]] = []  # (normal, bitmask of the generators it vanishes on)
    for k, g in enumerate(sorted({_primitive(g) for g in gens if any(g)})):
        bit = 1 << k
        i0 = next((i for i, b in enumerate(lineality) if _dot(b, g)), None)
        if i0 is not None:
            # g cuts the lineality space: b0 on its positive side becomes a
            # ray, everything else is moved onto the hyperplane g = 0 along b0
            b0 = lineality.pop(i0)
            s0 = _dot(b0, g)
            if s0 < 0:
                b0, s0 = tuple(-c for c in b0), -s0
            lineality = [_combine(s0, b, -_dot(b, g), b0) for b in lineality]
            rays = [(_combine(s0, r, -_dot(r, g), b0), z | bit) for r, z in rays]
            rays.append((b0, bit - 1))
            continue
        side = [_dot(r, g) for r, _ in rays]
        new = [(r, z | bit if d == 0 else z) for (r, z), d in zip(rays, side) if d >= 0]
        for i, (p, zp) in enumerate(rays):
            for j, (n, zn) in enumerate(rays):
                if side[i] <= 0 or side[j] >= 0:
                    continue
                common = zp & zn
                if all(z & common != common for m, (_, z) in enumerate(rays) if m not in (i, j)):
                    new.append((_combine(side[i], n, -side[j], p), common | bit))
        rays = new
    return equations, tuple(sorted(r for r, _ in rays))


def cone_member(v: Sequence[int], gens: Sequence[Vec]) -> bool:
    """Is v in the rational cone spanned by gens?"""
    return _in_cone(v, *_cone_inequalities(tuple(map(tuple, gens)), len(v)))


def _in_cone(v: Sequence[int], equations: Tuple[Vec, ...], facets: Tuple[Vec, ...]) -> bool:
    return (all(_dot(e, v) == 0 for e in equations)
            and all(_dot(a, v) >= 0 for a in facets))


class _MembershipPlan:
    """What membership in one monoid P reads, built once per monoid.

    It holds the cone's equations and facet normals, the unit generators
    (those on which every facet normal vanishes), the other generators with
    their weights under the grading, and the search's memo.

    The grading phi is the primitive vector on the ray of the sum of the
    facet normals. The facet normals are the extreme rays of the dual cone
    {a in L : a.g >= 0 for every g} inside the span L of the generators, and
    that dual cone is pointed, so their sum lies in its relative interior.
    Each normal is 0 on a unit g, as a.g >= 0 and a.(-g) >= 0. A generator
    on which every normal vanishes is a unit, since -g then satisfies every
    inequality of the cone; so on every other generator some integer normal
    is >= 1 and the others are >= 0, and the sum is >= 1. Dividing the sum
    by the gcd of its entries keeps the values on generators positive
    integers.

    The search state (idx, r) asks whether r is an N-combination of the
    non-unit generators from idx on plus a Z-combination of the units. Its
    budget, the weight those non-unit coefficients must add up to, is
    phi(r), so the answer is a function of (idx, r) alone: it depends
    neither on the path that reached the state nor on the query that
    started the search. So one memo, holding successes and failures, serves
    every query on P, and it is freed with P. At budget 0 every remaining
    coefficient is 0, so such a state is filed under idx = len(others).
    A positive budget always has a non-unit generator left to spend it on:
    the last one's coefficient is forced to spend it all, and with no
    non-unit generators there are no facet normals, so phi = 0.
    """

    __slots__ = ("equations", "facets", "units", "unit_gens", "others", "weights",
                 "grading", "memo")

    def __init__(self, gens: Tuple[Vec, ...], dim: int):
        self.equations, self.facets = _cone_inequalities(gens, dim)
        self.units = frozenset(
            i for i, g in enumerate(gens) if not any(_dot(a, g) for a in self.facets)
        )
        self.unit_gens = tuple(gens[i] for i in sorted(self.units))
        self.others = tuple(g for i, g in enumerate(gens) if i not in self.units)
        self.grading = _primitive([sum(a[j] for a in self.facets) for j in range(dim)])
        self.weights = tuple(_dot(self.grading, g) for g in self.others)
        self.memo: Dict[Tuple[int, Vec], bool] = {}

    def search(self, idx: int, residual: Vec, budget: int) -> bool:
        last = len(self.others) - 1
        if budget == 0:
            idx = last + 1
        key = (idx, residual)
        found = self.memo.get(key)
        if found is not None:
            return found
        if budget == 0:
            found = lattice_member(self.unit_gens, residual)
        else:
            g, w = self.others[idx], self.weights[idx]
            if idx == last:
                # the budget must drop to 0 exactly: one coefficient can work
                c, rest = divmod(budget, w)
                found = not rest and self.search(
                    idx + 1, tuple(r - c * gj for r, gj in zip(residual, g)), 0)
            else:
                found = any(
                    self.search(idx + 1, tuple(r - c * gj for r, gj in zip(residual, g)),
                                budget - c * w)
                    for c in range(budget // w + 1)
                )
        self.memo[key] = found
        return found


# ---------------------------------------------------------------------------
# affine monoids
# ---------------------------------------------------------------------------


class AffineMonoid:
    """N-span of a finite set of vectors in Z^d."""

    def __init__(self, ambient_dim: int, generators: Sequence[Sequence[int]]):
        self.dim = int(ambient_dim)
        if self.dim < 0:
            raise ValueError("ambient dimension must be >= 0")
        gens = []
        for g in generators:
            g = tuple(int(c) for c in g)
            if len(g) != self.dim:
                raise ValueError(f"generator {g} not in Z^{self.dim}")
            gens.append(g)
        self.gens: Tuple[Vec, ...] = tuple(gens)
        self._plan: Optional[_MembershipPlan] = None

    def __repr__(self):
        return f"AffineMonoid({self.dim}, {list(self.gens)!r})"

    def __eq__(self, other):
        return (
            isinstance(other, AffineMonoid)
            and self.dim == other.dim
            and sorted(self.gens) == sorted(other.gens)
        )

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self.gens))))

    @classmethod
    def free(cls, d: int) -> "AffineMonoid":
        return cls(d, [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)])

    # -- cone structure ----------------------------------------------------

    def _membership_plan(self) -> _MembershipPlan:
        if self._plan is None:
            self._plan = _MembershipPlan(self.gens, self.dim)
        return self._plan

    def cone_contains(self, x: Sequence[int]) -> bool:
        plan = self._membership_plan()
        return _in_cone(x, plan.equations, plan.facets)

    def unit_generator_indices(self) -> FrozenSet[int]:
        """Indices of generators lying in the lineality space of the cone,
        that is of the generators on which every facet normal vanishes."""
        return self._membership_plan().units

    def _grading(self) -> Vec:
        """An integer functional vanishing on units and >= 1 on the other
        generators (see `_MembershipPlan`)."""
        return self._membership_plan().grading

    # -- membership --------------------------------------------------------

    def contains(self, x: Sequence[int]) -> bool:
        """Exact membership: is x an N-combination of the generators?"""
        x = tuple(int(c) for c in x)
        if len(x) != self.dim:
            raise ValueError("ambient dimension mismatch")
        if all(c == 0 for c in x):
            return True
        plan = self._membership_plan()
        if not _in_cone(x, plan.equations, plan.facets):
            return False
        return plan.search(0, x, _dot(plan.grading, x))

    # -- element enumeration ------------------------------------------------

    def elements_up_to_degree(self, bound: int) -> List[Vec]:
        """All distinct sums of at most `bound` generators, sorted."""
        frontier = {tuple([0] * self.dim)}
        seen = set(frontier)
        for _ in range(bound):
            nxt = set()
            for x in frontier:
                for g in self.gens:
                    y = tuple(a + b for a, b in zip(x, g))
                    if y not in seen:
                        nxt.add(y)
            seen |= nxt
            frontier = nxt
            if not frontier:
                break
        return sorted(seen)

    # -- faces ---------------------------------------------------------------

    def faces(self) -> List["Face"]:
        """All faces, as generator-index subsets, ordered by inclusion-size.

        A face is where a nonnegative combination of facet normals vanishes,
        so its generator set is the intersection of the zero sets of some
        facet normals (of none, for the whole cone).
        """
        index_sets = {frozenset(range(len(self.gens)))}
        for a in self._membership_plan().facets:
            zero = frozenset(i for i, g in enumerate(self.gens) if _dot(a, g) == 0)
            index_sets |= {s & zero for s in index_sets}
        return sorted((Face(self, s) for s in index_sets),
                      key=lambda f: (len(f.indices), tuple(sorted(f.indices))))

    # -- saturation -----------------------------------------------------------

    def _zonotope_points(self):
        lo = [sum(min(g[j], 0) for g in self.gens) for j in range(self.dim)]
        hi = [sum(max(g[j], 0) for g in self.gens) for j in range(self.dim)]
        ranges = [range(lo[j], hi[j] + 1) for j in range(self.dim)]
        return itertools.product(*ranges)

    def is_saturated(self) -> Tuple[bool, Optional[Vec]]:
        """Check P = P^gp cap cone(P); a witness is in the saturation, not P.

        Every element of the saturation is a P-element plus a lattice point of
        the generator zonotope, so scanning the zonotope is a complete test.
        """
        for x in self._zonotope_points():
            x = tuple(x)
            if not self.cone_contains(x):
                continue
            if not lattice_member(self.gens, x):
                continue
            if not self.contains(x):
                return False, x
        return True, None

    def saturation(self) -> "AffineMonoid":
        extra = []
        for x in self._zonotope_points():
            x = tuple(x)
            if any(x):
                if self.cone_contains(x) and lattice_member(self.gens, x):
                    extra.append(x)
        return AffineMonoid(self.dim, list(self.gens) + extra)

    # -- sharp decomposition ----------------------------------------------------

    def sharp_quotient(self) -> Tuple[FgAbGroup, "AffineMonoid"]:
        """Split P as units x sharp; requires P saturated.

        Returns the unit group P^* as an FgAbGroup and the sharp monoid
        P/P^* embedded in the quotient lattice.
        """
        ok, _ = self.is_saturated()
        if not ok:
            raise ValueError("sharp decomposition requires a saturated monoid")
        units = sorted(self.unit_generator_indices())
        ugens = [self.gens[i] for i in units]
        if not ugens:
            return FgAbGroup(0), AffineMonoid(self.dim, self.gens)
        # U ugens V = S, so the unit lattice is spanned by the rows of S V^-1:
        # in the basis given by the rows of V^-1 it lies in the coordinates
        # with d_j != 0, and the coordinates of x in that basis are x V. The
        # columns of V with d_j = 0 come from the cached lattice transform.
        free = [col for col, d in _lattice_transform(tuple(ugens)) if d == 0]

        def project(x: Vec) -> Vec:
            return tuple(_dot(x, col) for col in free)

        sharp = AffineMonoid(len(free), [project(g) for g in self.gens])
        if sharp.unit_generator_indices() != {
            i for i, g in enumerate(sharp.gens) if not any(g)
        }:
            raise AssertionError("sharp quotient kept nontrivial units")
        return FgAbGroup(self.dim - len(free)), sharp

    def gp_rank(self) -> int:
        return rank(self.gens, self.dim)


class Face:
    """A face of an affine monoid, as the set of generator indices it spans."""

    def __init__(self, monoid: AffineMonoid, indices: frozenset):
        self.monoid, self.indices = monoid, indices

    def __eq__(self, other):
        if other.__class__ is not Face:
            return NotImplemented
        return (self.monoid, self.indices) == (other.monoid, other.indices)

    def __hash__(self):
        return hash((self.monoid, self.indices))

    def generators(self) -> List[Vec]:
        return [self.monoid.gens[i] for i in sorted(self.indices)]

    def as_monoid(self) -> AffineMonoid:
        """The face as a monoid of its own, built once per face, so that
        every query on the face shares its membership plan."""
        return self._submonoid

    @cached_property
    def _submonoid(self) -> AffineMonoid:
        return AffineMonoid(self.monoid.dim, self.generators())

    def contains(self, x: Sequence[int]) -> bool:
        return self._submonoid.contains(x)

    def __le__(self, other: "Face") -> bool:
        return self.indices <= other.indices

    def __repr__(self):
        return f"Face({sorted(self.indices)})"


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class MonoidMorphism:
    """Lattice map sending each source generator into the target monoid."""

    def __init__(self, source: AffineMonoid, target: AffineMonoid,
                 matrix: Sequence[Sequence[int]]):
        self.source = source
        self.target = target
        rows = [tuple(int(c) for c in row) for row in matrix]
        if len(rows) != target.dim or any(len(r) != source.dim for r in rows):
            raise ValueError("matrix shape must be target.dim x source.dim")
        self.matrix = tuple(rows)
        for g in source.gens:
            if not target.contains(self.apply(g)):
                raise ValueError(
                    f"morphism does not map generator {g} into the target monoid"
                )

    def apply(self, x: Sequence[int]) -> Vec:
        return tuple(sum(r[j] * x[j] for j in range(self.source.dim)) for r in self.matrix)

    def image_monoid(self) -> AffineMonoid:
        return AffineMonoid(self.target.dim, [self.apply(g) for g in self.source.gens])

    def injective_on_gp(self) -> bool:
        gens = self.source.gens
        image = [self.apply(g) for g in gens]
        return rank(gens, self.source.dim) == rank(image, self.target.dim)

    def restrict_to_face(self, face: Face) -> "MonoidMorphism":
        """The induced morphism phi^-1(F') -> F' for a face F' of the target."""
        if face.monoid is not self.target and face.monoid != self.target:
            raise ValueError("face does not belong to the target monoid")
        F = face.as_monoid()
        pre_gens = [g for g in self.source.gens if F.contains(self.apply(g))]
        src = AffineMonoid(self.source.dim, pre_gens)
        return MonoidMorphism(src, F, self.matrix)


def _l_integers(primes: Sequence[int], bound: int) -> List[int]:
    out = [1]
    for p in sorted(set(primes)):
        new = []
        for n in out:
            m = n * p
            while m <= bound:
                new.append(m)
                m *= p
        out.extend(new)
    return sorted(n for n in out if n <= bound)


def is_kummer(phi: MonoidMorphism, primes: Sequence[int],
              multiplier_bound: int = 60) -> Tuple[bool, Optional[Vec]]:
    """L-Kummer test: injective on gp and every target generator has an
    L-integer multiple in the image. The multiplier search is bounded."""
    if multiplier_bound < 1:
        raise ValueError("bound must be >= 1")
    _check_primes(primes)
    if not phi.injective_on_gp():
        return False, None
    image = phi.image_monoid()
    mults = _l_integers(primes, multiplier_bound)
    for t in phi.target.gens:
        if not any(image.contains(tuple(n * c for c in t)) for n in mults):
            return False, t
    return True, None


def _check_primes(primes: Sequence[int]) -> None:
    for p in primes:
        if p < 2:
            raise ValueError(f"primes must be >= 2, got {p}")


class Counterexample:
    """Violating tuple returned by the bounded morphism checkers; falsy, so
    a checker's result reads as its verdict."""

    def __init__(self, data: tuple):
        self.data = data

    def __eq__(self, other):
        if other.__class__ is not Counterexample:
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash((self.data,))

    def __bool__(self):
        return False

    def __repr__(self):
        return f"Counterexample(data={self.data!r})"


PASS = None  # sentinel: checkers return None on Pass, a Counterexample otherwise


def check_integral_bounded(phi: MonoidMorphism, bound: int):
    """Bounded integrality test.

    Scans quadruples (f1', f2', f1, f2) of degree <= bound with
    f1' + phi(f1) = f2' + phi(f2) and looks for g', g1, g2 with
    f1' = g' + phi(g1) and f2' = g' + phi(g2); g1 ranges over degree
    <= 2*bound, the remaining memberships are decided exactly.
    Returns None on Pass, else the lexicographically least counterexample.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    src = phi.source.elements_up_to_degree(bound)
    tgt = phi.target.elements_up_to_degree(bound)
    src_wide = phi.source.elements_up_to_degree(2 * bound)
    image = phi.image_monoid()
    buckets: Dict[Vec, List[Tuple[Vec, Vec]]] = {}
    for fp in tgt:
        for f in src:
            key = tuple(a + b for a, b in zip(fp, phi.apply(f)))
            buckets.setdefault(key, []).append((fp, f))
    bad = None
    for key in sorted(buckets):
        pairs = buckets[key]
        for (f1p, f1) in pairs:
            for (f2p, f2) in pairs:
                quad = (f1p, f2p, f1, f2)
                if bad is not None and quad >= bad:
                    continue
                ok = False
                for g1 in src_wide:
                    gp = tuple(a - b for a, b in zip(f1p, phi.apply(g1)))
                    if not phi.target.contains(gp):
                        continue
                    rem = tuple(a - b for a, b in zip(f2p, gp))
                    if image.contains(rem):
                        ok = True
                        break
                if not ok:
                    bad = quad
    return None if bad is None else Counterexample(bad)


def check_saturated_bounded(phi: MonoidMorphism, primes: Sequence[int], bound: int):
    """Bounded version of the prime-divisibility saturation test.

    For a, b of degree <= bound and p in primes with phi(a) | p*b, some
    c with a | p*c and phi(c) | b must exist; c is searched up to degree
    2*bound. Returns None on Pass, else Counterexample((a, b, p)).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    _check_primes(primes)
    src = phi.source.elements_up_to_degree(bound)
    tgt = phi.target.elements_up_to_degree(bound)
    cand = phi.source.elements_up_to_degree(2 * bound)
    for a in src:
        fa = phi.apply(a)
        for b in tgt:
            for p in sorted(set(primes)):
                pb = tuple(p * x for x in b)
                if not phi.target.contains(tuple(x - y for x, y in zip(pb, fa))):
                    continue
                found = False
                for c in cand:
                    pc = tuple(p * x for x in c)
                    if not phi.source.contains(tuple(x - y for x, y in zip(pc, a))):
                        continue
                    fc = phi.apply(c)
                    if phi.target.contains(tuple(x - y for x, y in zip(b, fc))):
                        found = True
                        break
                if not found:
                    return Counterexample((a, b, p))
    return None
