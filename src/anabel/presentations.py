"""Finitely presented groups as generator symbols plus relator words.

Words are tuples of nonzero ints: k stands for generator k-1, -k for its
inverse. Simplification sticks to elementary Tietze moves under a step
budget; no attempt is made to decide isomorphism.

Relators are kept canonical: the least cyclic rotation of the word or its
inverse, empty and duplicate ones dropped. One elimination step takes the
first relator in (length, word) order in which some generator occurs
exactly once, takes the smallest such generator g, solves the relator for
g and substitutes the solution into every other relator.

`simplify` does this incrementally and returns what the plain loop (re-
canonicalize and re-sort every relator after each step, renumber the
generators above g down by one) returns:
- Renumbering maps letters monotonically and commutes with inversion, so
  it changes neither canonical forms, nor the (length, word) order, nor
  which generator is the smallest; it is done once, at the end.
- A relator without g is unchanged by the substitution, so only the
  relators containing g, found through a generator -> relator index, are
  rewritten and re-canonicalized.
- The relators with a once-occurring generator sit in a heap keyed by
  (length, word), so the next step's relator is its least live entry.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Set, Tuple

from .intlin import FgAbGroup, IntMatrix, cokernel_group

Word = Tuple[int, ...]


def free_reduce(word: Sequence[int]) -> Word:
    out: List[int] = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def invert_word(word: Sequence[int]) -> Word:
    return tuple(-s for s in reversed(word))


def _cyclic_reduce(word: Word) -> Word:
    w = free_reduce(word)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def _relator_canon(word: Word) -> Word:
    """Least representative among cyclic rotations of the word and its inverse."""
    w = _cyclic_reduce(word)
    if not w:
        return w
    candidates = []
    for u in (w, invert_word(w)):
        for k in range(len(u)):
            candidates.append(u[k:] + u[:k])
    return min(candidates)


class GroupPresentation:
    """Generators with names, relator words over them."""

    def __init__(self, generators: Sequence[str], relators: Sequence[Sequence[int]]):
        self.generators = list(generators)
        n = len(self.generators)
        rels = []
        for r in relators:
            r = free_reduce(r)
            if any(s == 0 or abs(s) > n for s in r):
                raise ValueError(f"relator {r} references unknown generator")
            rels.append(r)
        self.relators = rels

    def __repr__(self):
        return f"GroupPresentation({self.generators!r}, {self.relators!r})"

    def describe(self) -> str:
        def show(word):
            if not word:
                return "1"
            parts = []
            for s in word:
                name = self.generators[abs(s) - 1]
                parts.append(name if s > 0 else name + "^-1")
            return "*".join(parts)

        gens = ", ".join(self.generators) if self.generators else "-"
        rels = "; ".join(show(r) for r in self.relators if r) or "-"
        return f"< {gens} | {rels} >"

    def rank(self) -> int:
        return len(self.generators)

    def is_free_presentation(self) -> bool:
        return all(not r for r in self.relators)

    def abelianization(self) -> FgAbGroup:
        n = len(self.generators)
        rows = []
        for r in self.relators:
            row = [0] * n
            for s in r:
                row[abs(s) - 1] += 1 if s > 0 else -1
            rows.append(row)
        M = IntMatrix(len(rows), n, [e for row in rows for e in row])
        return cokernel_group(M)

    def kill_generators(self, kill: Sequence[int]) -> "GroupPresentation":
        """Tietze: add relators g = 1 for the given generator indices (0-based),
        then eliminate those generators."""
        pres = GroupPresentation(
            self.generators, self.relators + [(k + 1,) for k in kill]
        )
        return pres.simplify()

    def simplify(self, budget: int = 10000) -> "GroupPresentation":
        """Elementary Tietze simplification under a step budget.

        The budget caps the number of eliminations. The relators come back
        canonical, deduplicated and in (length, word) order.
        """
        live: Set[Word] = set()
        containing: Dict[int, Set[Word]] = {}
        # heap of (length, word, smallest generator occurring once in it);
        # words that have left `live` are skipped when they surface
        candidates: List[Tuple[int, Word, int]] = []

        def add(w: Word) -> None:
            if not w or w in live:
                return
            live.add(w)
            counts: Dict[int, int] = {}
            for s in w:
                counts[abs(s)] = counts.get(abs(s), 0) + 1
            for g in counts:
                containing.setdefault(g, set()).add(w)
            singles = [g for g, c in counts.items() if c == 1]
            if singles:
                heapq.heappush(candidates, (len(w), w, min(singles)))

        for r in self.relators:
            add(_relator_canon(r))
        eliminated: Set[int] = set()
        while len(eliminated) < budget:
            while candidates and candidates[0][1] not in live:
                heapq.heappop(candidates)
            if not candidates:
                break
            _, r, g = heapq.heappop(candidates)
            i = next(k for k, s in enumerate(r) if abs(s) == g)
            # r = a g^e b  =>  g^e = a^-1 b^-1, so g = (a^-1 b^-1)^e
            a, e, b = r[:i], r[i], r[i + 1 :]
            repl = free_reduce(invert_word(a) + invert_word(b))
            if e < 0:
                repl = invert_word(repl)
            inv_repl = invert_word(repl)
            touched = containing.pop(g)
            for w in touched:
                live.discard(w)
                for s in w:
                    if abs(s) != g:
                        containing[abs(s)].discard(w)
            touched.discard(r)
            for w in touched:
                out: List[int] = []
                for t in w:
                    if t == g:
                        out.extend(repl)
                    elif t == -g:
                        out.extend(inv_repl)
                    else:
                        out.append(t)
                add(_relator_canon(out))
            eliminated.add(g)
        kept = [k for k in range(1, len(self.generators) + 1) if k not in eliminated]
        number = {k: j for j, k in enumerate(kept, 1)}
        rels = [
            tuple(number[t] if t > 0 else -number[-t] for t in w)
            for w in sorted(live, key=lambda w: (len(w), w))
        ]
        return GroupPresentation([self.generators[k - 1] for k in kept], rels)
