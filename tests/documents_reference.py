"""Fixed-point reference for the face closure of `anabel.documents`.

The loader derives the missing face entries of a document in one forward
pass over the complex it returns. The reference here is the earlier form:
for each missing injection it re-sorts the whole face table and searches
for a factorization through any entry, given or derived, until nothing
changes. Tests compare the two tables entry for entry.
"""

from anabel.documents import DocumentError
from anabel.poly import PolysimplicialSet


def load_tables(cells, stabs, faces):
    """The complex a document with these tables loads to: faces closed by
    the fixed point below, then validated."""
    return PolysimplicialSet(cells, stabs, _close_faces(cells, stabs, faces))


def _close_faces(cells, stabs, faces):
    """Derive missing face entries by composing through the given ones, so
    a generating set of injective assignments suffices in documents."""
    from anabel.poly import compose, index_dim, injections_into

    faces = dict(faces)
    partial = PolysimplicialSet(cells, stabs, faces, validate=False)
    partial.faces = faces  # share, so derived entries are visible to act()
    for c in sorted(cells, key=lambda x: (index_dim(cells[x]), x)):
        n = cells[c]
        needed = [i for i in injections_into(n) if not i.is_iso()]
        changed = True
        while changed:
            changed = False
            for iota in needed:
                if (c, iota) in faces:
                    continue
                for (c2, iota2), entry in sorted(
                    faces.items(), key=lambda kv: (kv[0][0], kv[0][1].key())
                ):
                    if c2 != c or iota2.source == iota.source:
                        continue
                    for inner in injections_into(iota2.source):
                        if inner.source != iota.source or inner.is_iso():
                            continue
                        if compose(iota2, inner) == iota:
                            faces[(c, iota)] = partial.act(entry, inner)
                            changed = True
                            break
                    if (c, iota) in faces:
                        break
        missing = [i for i in needed if (c, i) not in faces]
        if missing:
            raise DocumentError(
                f"face assignments of cell {c} do not generate: "
                f"{len(missing)} restrictions are missing"
            )
    return faces
