"""The all-objects presentation of pi1 of a cell category, kept as the
reference for `anabel.poly_ops.category_pi1`.

Objects are all nondegenerate polysimplexes, every automorphic copy
(c, theta) of a cell included; one generator per morphism between them and
one relator per composable pair. `category_pi1` builds the same group on one
object per cell; tests compare the two, and the Tietze reference tests run
on these larger presentations.
"""

from collections import deque

from anabel.poly import Element, automorphisms, compose, identity, injections_into
from anabel.presentations import GroupPresentation


def nondeg_objects(C):
    """Every nondegenerate polysimplex of C once, by cell, then automorphism."""
    objs = []
    for c in sorted(C.cells):
        seen = set()
        for theta in automorphisms(C.cells[c]):
            e = C.canonical(Element(c, theta))
            if e not in seen:
                seen.add(e)
                objs.append(e)
    return objs


def all_objects_presentation(C, base_cell):
    """One generator per morphism between nondegenerate polysimplexes, one
    relator per composable pair, and the 0-based generators of a
    breadth-first spanning tree from the base cell."""
    if base_cell not in C.cells:
        raise ValueError(f"unknown base cell {base_cell}")
    objs = nondeg_objects(C)
    obj_index = {e: i for i, e in enumerate(objs)}
    morphisms = []
    for b, eb in enumerate(objs):
        n = eb.level
        for gamma in injections_into(n):
            got = C.act(eb, gamma)
            if not got.is_nondegenerate():
                continue
            a = obj_index.get(got)
            if a is None:
                continue
            if a == b and gamma == identity(n):
                continue
            morphisms.append((a, b, gamma))
    morphisms.sort(key=lambda t: (t[0], t[1], t[2].key()))
    incident = [[] for _ in objs]
    outgoing = [[] for _ in objs]
    for k, (a, b, _) in enumerate(morphisms):
        incident[a].append((k, b))
        incident[b].append((k, a))
        outgoing[a].append(k)
    base_obj = obj_index[C.canonical(Element(base_cell, identity(C.cells[base_cell])))]
    seen = {base_obj}
    queue = deque([base_obj])
    tree_edges = []
    while queue:
        for k, v in incident[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                tree_edges.append(k)
                queue.append(v)
    if len(seen) != len(objs):
        raise ValueError("complex is disconnected")
    mor_pos = {(a, b, gamma): k for k, (a, b, gamma) in enumerate(morphisms)}
    relators = []
    for k1, (a1, b1, g1) in enumerate(morphisms):
        for k2 in outgoing[b1]:
            _, b2, g2 = morphisms[k2]
            comp = compose(g2, g1)
            if a1 == b2 and comp == identity(objs[a1].level):
                relators.append((k2 + 1, k1 + 1))
            else:
                relators.append((k2 + 1, k1 + 1, -(mor_pos[(a1, b2, comp)] + 1)))
    gen_names = [f"m{k}" for k in range(len(morphisms))]
    return GroupPresentation(gen_names, relators), sorted(tree_edges)


def all_objects_pi1(C, base_cell):
    """category_pi1 as it was built on all objects."""
    pres, tree_edges = all_objects_presentation(C, base_cell)
    return pres.kill_generators(tree_edges)
