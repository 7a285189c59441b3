import os
import random
from typing import Dict, List

import pytest

from anabel.intlin import FgAbGroup
from anabel.poly import box_product, disjoint_union, representable
from anabel.poly_ops import (
    PolyMorphism,
    coequalizer,
    quotient,
)
from anabel.presentations import GroupPresentation, free_reduce, invert_word

from category_reference import all_objects_presentation


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert invert_word((1, -2)) == (2, -1)


def test_validation():
    with pytest.raises(ValueError):
        GroupPresentation(["a"], [(2,)])
    with pytest.raises(ValueError):
        GroupPresentation(["a"], [(0,)])


def test_abelianization_free():
    pres = GroupPresentation(["a", "b"], [])
    assert pres.abelianization() == FgAbGroup(2)


def test_abelianization_torsion():
    pres = GroupPresentation(["a"], [(1, 1, 1)])
    assert pres.abelianization() == FgAbGroup(0, (3,))
    # surface-like relator: commutator abelianizes away
    pres2 = GroupPresentation(["a", "b"], [(1, 2, -1, -2)])
    assert pres2.abelianization() == FgAbGroup(2)


def test_simplify_eliminates_generators():
    # b = a^2 forced; group is free on a
    pres = GroupPresentation(["a", "b"], [(2, -1, -1)])
    out = pres.simplify()
    assert out.rank() == 1
    assert out.is_free_presentation()


def test_simplify_trivial_group():
    pres = GroupPresentation(["a", "b"], [(1, -2), (2,)])
    out = pres.simplify()
    assert out.rank() == 0


def test_kill_generators():
    pres = GroupPresentation(["a", "b"], [])
    out = pres.kill_generators([1])
    assert out.rank() == 1 and out.is_free_presentation()


def test_relator_dedup_under_rotation_and_inverse():
    pres = GroupPresentation(
        ["a", "b"], [(1, 2), (2, 1), (-2, -1), (-1, -2)]
    ).simplify()
    # all four are the same relator up to rotation and inversion;
    # simplification eliminates b = a^-1 entirely
    assert out_rank_free(pres)


def out_rank_free(pres):
    return pres.rank() == 1 and pres.is_free_presentation()


def test_describe():
    pres = GroupPresentation(["a"], [(1, 1)])
    assert pres.describe() == "< a | a*a >"


# -- differential test against the one-relator-at-a-time Tietze loop ---------------
#
# `_reference_simplify` is the simplification this module used before the
# incremental rewrite, copied verbatim together with the two helpers it
# calls. It re-canonicalizes and re-sorts every relator after each single
# elimination, so it is slow but obviously follows the elimination rule.

SEED = int(os.environ.get("ANABEL_SEED", "0"))


def _cyclic_reduce(word):
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _relator_canon(word):
    """Least representative among cyclic rotations of the word and its inverse."""
    w = _cyclic_reduce(word)
    if not w:
        return w
    candidates = []
    for u in (w, invert_word(w)):
        for k in range(len(u)):
            candidates.append(u[k:] + u[:k])
    return min(candidates)


def _reference_simplify(self, budget: int = 10000) -> "GroupPresentation":
    """Elementary Tietze simplification under a step budget."""
    gens = list(self.generators)
    rels = [_cyclic_reduce(r) for r in self.relators]
    steps = 0
    changed = True
    while changed and steps < budget:
        changed = False
        rels = sorted(
            {_relator_canon(r) for r in rels if r}, key=lambda w: (len(w), w)
        )
        # eliminate a generator via a relator where it occurs exactly once
        elim = None
        for r in rels:
            counts: Dict[int, int] = {}
            for s in r:
                counts[abs(s)] = counts.get(abs(s), 0) + 1
            for g, c in sorted(counts.items()):
                if c == 1:
                    elim = (r, g)
                    break
            if elim:
                break
        if elim is not None:
            r, g = elim
            i = next(k for k, s in enumerate(r) if abs(s) == g)
            # r = a g^e b  =>  g^e = a^-1 b^-1, so g = (a^-1 b^-1)^e
            a, e, b = r[:i], r[i], r[i + 1 :]
            repl = free_reduce(invert_word(a) + invert_word(b))
            if e < 0:
                repl = invert_word(repl)
            new_rels = []
            for s in rels:
                if s == r:
                    continue
                out: List[int] = []
                for t in s:
                    if abs(t) == g:
                        out.extend(repl if t > 0 else invert_word(repl))
                    else:
                        out.append(t)
                new_rels.append(_cyclic_reduce(out))
            # renumber generators above g down by one
            def shift(word):
                return tuple(
                    (t - 1 if t > g else t + 1 if t < -g else t) for t in word
                )

            rels = [shift(w) for w in new_rels]
            del gens[g - 1]
            changed = True
            steps += 1
            continue
        steps += 1
    rels = sorted(
        {_relator_canon(r) for r in rels if r}, key=lambda w: (len(w), w)
    )
    return GroupPresentation(gens, rels)


BUDGETS = (0, 1, 2, 3, None)


def _assert_same(pres, budgets=BUDGETS):
    for budget in budgets:
        kw = {} if budget is None else {"budget": budget}
        got = pres.simplify(**kw)
        want = _reference_simplify(pres, **kw)
        assert got.generators == want.generators, (pres, budget)
        assert got.relators == want.relators, (pres, budget)


def _random_presentation(rng):
    n = rng.randint(1, 6)
    letters = [s for k in range(1, n + 1) for s in (k, -k)]
    rels = [
        tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        for _ in range(rng.randint(0, 7))
    ]
    return GroupPresentation([f"x{k}" for k in range(n)], rels)


def test_simplify_matches_reference_on_random_presentations():
    rng = random.Random(SEED)
    for _ in range(400):
        _assert_same(_random_presentation(rng))


def _circle():
    L1, P = representable((1,)), representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    return coequalizer(f, g).complex


def _polygon(n):
    """n intervals glued head to tail."""
    L1 = representable((1,))
    U, prefixes = L1, [""]
    for _ in range(n - 1):
        U = disjoint_union(L1, U)
        prefixes = ["L."] + ["R." + p for p in prefixes]
    seeds = [
        (U.cell_element(prefixes[i] + "s1"), U.cell_element(prefixes[(i + 1) % n] + "s0"))
        for i in range(n)
    ]
    return quotient(U, seeds).complex


SHAPES = {
    "L1": lambda: representable((1,)),
    "L2": lambda: representable((2,)),
    "L11": lambda: representable((1, 1)),
    "L21": lambda: representable((2, 1)),
    "circle": _circle,
    **{f"P{n}": (lambda n=n: _polygon(n)) for n in range(3, 7)},
    "SxS": lambda: box_product(_circle(), _circle()),
}


@pytest.mark.parametrize("name", list(SHAPES))
def test_simplify_matches_reference_on_category_presentations(name):
    # the all-objects presentations: larger than category_pi1's, so they
    # exercise more of simplify
    C = SHAPES[name]()
    pres, tree = all_objects_presentation(C, min(C.cells))
    # all_objects_pi1 returns raw.simplify()
    raw = GroupPresentation(pres.generators, pres.relators + [(k + 1,) for k in tree])
    if name == "L21":
        # 1530 generators and 22457 relators: the reference takes minutes
        # for the full run, so it is compared on the first steps, and the
        # full run against the reference's full result, the trivial group.
        _assert_same(raw, budgets=(1, 2, 3))
        out = raw.simplify()
        assert out.generators == [] and out.relators == []
    else:
        _assert_same(raw)
        out = raw.simplify()
    # the CLI simplifies the result of category_pi1 once more
    _assert_same(out)


def test_simplify_matches_reference_hypothesis():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def words(n):
        letter = st.integers(1, n).flatmap(lambda k: st.sampled_from((k, -k)))
        return st.lists(st.lists(letter, max_size=8).map(tuple), max_size=7)

    presentations = st.integers(1, 6).flatmap(
        lambda n: words(n).map(
            lambda rels: GroupPresentation([f"x{k}" for k in range(n)], rels)
        )
    )

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(presentations, st.sampled_from(BUDGETS))
    def check(pres, budget):
        _assert_same(pres, budgets=(budget,))

    check()
