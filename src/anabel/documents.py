"""Self-describing structured-text documents for every object the CLI reads.

Syntax: one entry per line. `key tokens = value tokens` declares a scalar
entry; `key tokens:` opens a nested block indented by two more spaces.
Scalars are ints, rationals written a/b, or bare strings. Keys repeat to
build lists. Serialization is deterministic, so documents are diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

# each loader imports the library module it builds from, so parsing a
# document loads only the modules its kind needs
if TYPE_CHECKING:
    from .cospec import ClosureIncidence, Poset
    from .currents import Current
    from .gog import ExtensionData, FiniteGroup, GraphOfFiniteGroups
    from .graphs import BranchGraph, MetricGraph
    from .monoids import AffineMonoid, MonoidMorphism
    from .poly import LambdaMorphism, PolysimplicialSet

KINDS = (
    "graph",
    "metric-graph",
    "current",
    "monoid",
    "morphism",
    "polysimplicial",
    "graph-of-groups",
    "poset",
    "extension-data",
)


@dataclass
class Node:
    entries: List[Tuple[Tuple[str, ...], Union[Tuple[str, ...], "Node"]]] = field(
        default_factory=list
    )

    def scalars(self, head: str):
        return [
            (key, val)
            for key, val in self.entries
            if key and key[0] == head and not isinstance(val, Node)
        ]

    def children(self, head: str):
        return [
            (key, val)
            for key, val in self.entries
            if key and key[0] == head and isinstance(val, Node)
        ]

    def one(self, head: str):
        hits = self.scalars(head)
        if len(hits) != 1:
            raise DocumentError(f"expected exactly one '{head}' entry, found {len(hits)}")
        return hits[0][1]

    def maybe_one(self, head: str):
        hits = self.scalars(head)
        if not hits:
            return None
        if len(hits) > 1:
            raise DocumentError(f"duplicate '{head}' entry")
        return hits[0][1]

    def one_child(self, head: str) -> "Node":
        hits = self.children(head)
        if len(hits) != 1:
            raise DocumentError(f"expected exactly one '{head}' block, found {len(hits)}")
        return hits[0][1]


class DocumentError(ValueError):
    pass


def parse(text: str) -> Node:
    root = Node()
    stack: List[Tuple[int, Node]] = [(-1, root)]
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        indent = len(raw) - len(raw.lstrip(" "))
        line = raw.strip()
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if not stack:
            raise DocumentError(f"line {lineno}: bad indentation")
        node = stack[-1][1]
        if line.endswith(":"):
            key = tuple(line[:-1].split())
            child = Node()
            node.entries.append((key, child))
            stack.append((indent, child))
        elif "=" in line:
            left, _, right = line.partition("=")
            key = tuple(left.split())
            val = tuple(right.split())
            node.entries.append((key, val))
        else:
            raise DocumentError(f"line {lineno}: expected 'key = value' or 'key:'")
    return root


def serialize(node: Node, indent: int = 0) -> str:
    out = []
    pad = " " * indent
    for key, val in node.entries:
        if isinstance(val, Node):
            out.append(f"{pad}{' '.join(key)}:")
            out.append(serialize(val, indent + 2))
        else:
            out.append(f"{pad}{' '.join(key)} = {' '.join(str(v) for v in val)}")
    return "\n".join(x for x in out if x)


def as_int(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise DocumentError(f"expected an integer, got {tok!r}") from exc


def as_fraction(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"expected a rational a/b, got {tok!r}") from exc


def _need(val: Tuple[str, ...], count: int, form: str) -> Tuple[str, ...]:
    """The value tokens of an entry, which must number at least `count`."""
    if len(val) < count:
        raise DocumentError(f"expected an entry like: {form}")
    return val


def kind_of(node: Node) -> str:
    kind = node.one("kind")
    if len(kind) != 1 or kind[0] not in KINDS:
        raise DocumentError(f"unknown document kind {kind}")
    return kind[0]


def load(text: str):
    """Parse and dispatch on the document kind."""
    node = parse(text)
    kind = kind_of(node)
    loader = {
        "graph": load_graph,
        "metric-graph": load_metric_graph,
        "current": load_current,
        "monoid": load_monoid,
        "morphism": load_morphism,
        "polysimplicial": load_polysimplicial,
        "graph-of-groups": load_graph_of_groups,
        "poset": load_poset_document,
        "extension-data": load_extension_data,
    }[kind]
    return kind, loader(node)


# -- graphs -----------------------------------------------------------------


def _graph_parts(node: Node):
    vertices = list(node.one("vertices"))
    edges = {}
    lengths = {}
    for key, val in node.scalars("edge"):
        if len(key) != 2:
            raise DocumentError(f"edge entry {key} needs an id")
        if len(val) not in (2, 3):
            raise DocumentError(f"edge {key[1]} needs two endpoints")
        edges[key[1]] = (val[0], val[1])
        if len(val) == 3:
            lengths[key[1]] = as_fraction(val[2])
    for key, val in node.scalars("cusp"):
        if len(key) != 2:
            raise DocumentError(f"cusp entry {key} needs an id")
        if len(val) not in (1, 2):
            raise DocumentError(f"cusp {key[1]} needs one endpoint")
        edges[key[1]] = (val[0],)
        if len(val) == 2:
            lengths[key[1]] = as_fraction(val[1])
    return vertices, edges, lengths


def load_graph(node: Node) -> BranchGraph:
    from .graphs import BranchGraph

    vertices, edges, _ = _graph_parts(node)
    return BranchGraph(vertices, edges)


def load_metric_graph(node: Node) -> MetricGraph:
    from .graphs import MetricGraph

    vertices, edges, lengths = _graph_parts(node)
    missing = sorted(set(edges) - set(lengths))
    if missing:
        raise DocumentError(f"edges without length: {', '.join(missing)}")
    return MetricGraph(vertices, edges, lengths)


def dump_graph(G: BranchGraph, kind: str = "graph") -> str:
    from .graphs import MetricGraph

    node = Node()
    node.entries.append((("kind",), (kind,)))
    node.entries.append((("vertices",), tuple(G.vertices)))
    for e in sorted(G.edges):
        ends = G.edges[e]
        extra = ()
        if isinstance(G, MetricGraph):
            extra = (str(G.lengths[e]),)
        head = "edge" if len(ends) == 2 else "cusp"
        node.entries.append(((head, e), tuple(ends) + extra))
    return serialize(node)


def load_current(node: Node) -> Current:
    from .currents import Current

    G = load_graph(node.one_child("graph"))
    modulus = node.maybe_one("modulus")
    modulus = as_int(modulus[0]) if modulus else None
    branches = set(G.branches())
    values = {}
    for key, val in node.scalars("value"):
        if len(key) != 3:
            raise DocumentError("value entries look like: value <edge> <slot> = k")
        branch = (key[1], as_int(key[2]))
        if branch not in branches:
            raise DocumentError(f"graph has no branch {key[1]} {key[2]}")
        values[branch] = as_int(_need(val, 1, "value <edge> <slot> = k")[0])
    return Current(G, values, modulus).validate()


# -- monoids ------------------------------------------------------------------


def load_monoid(node: Node) -> AffineMonoid:
    from .monoids import AffineMonoid

    dim = as_int(_need(node.one("dim"), 1, "dim = <n>")[0])
    gens = [tuple(as_int(t) for t in val) for _, val in node.scalars("gen")]
    return AffineMonoid(dim, gens)


def dump_monoid(P: AffineMonoid) -> str:
    node = Node()
    node.entries.append((("kind",), ("monoid",)))
    node.entries.append((("dim",), (str(P.dim),)))
    for g in P.gens:
        node.entries.append((("gen",), tuple(str(c) for c in g)))
    return serialize(node)


def load_morphism(node: Node) -> MonoidMorphism:
    from .monoids import MonoidMorphism

    src = load_monoid(node.one_child("source"))
    tgt = load_monoid(node.one_child("target"))
    rows = [tuple(as_int(t) for t in val) for _, val in node.scalars("row")]
    if len(rows) != tgt.dim:
        raise DocumentError(
            f"matrix needs {tgt.dim} rows (target dimension), found {len(rows)}"
        )
    return MonoidMorphism(src, tgt, rows)


# -- polysimplicial ------------------------------------------------------------


def _index_token(n) -> str:
    return ",".join(str(x) for x in n)


def _parse_index(tok: str):
    return tuple(as_int(t) for t in tok.split(","))


def _point_token(p) -> str:
    return ".".join(str(x) for x in p)


def _parse_point(tok: str):
    return tuple(as_int(t) for t in tok.split("."))


def _morphism_tokens(g: LambdaMorphism) -> Tuple[str, ...]:
    return (
        _index_token(g.source),
        _index_token(g.target),
    ) + tuple(_point_token(p) for p in g.mapping)


def _parse_morphism(tokens: Sequence[str]) -> LambdaMorphism:
    from .poly import LambdaMorphism

    if len(tokens) < 2:
        raise DocumentError("morphism needs source, target and mapping")
    src = _parse_index(tokens[0])
    tgt = _parse_index(tokens[1])
    mapping = [_parse_point(t) for t in tokens[2:]]
    return LambdaMorphism(src, tgt, mapping)


# Loading enumerates the injections into every cell's index; an index at
# this bound takes about 2 s.
MAX_INJECTIONS = 100_000


def _injection_bound(n) -> int:
    """An upper bound on the injections into [n], or MAX_INJECTIONS + 1
    once past it. An injection puts an injective value table of length 1
    (a constant) to n_l + 1 on each target coordinate l, and matches the
    tracked coordinates with source coordinates in one of at most width!
    ways."""
    bound = 1
    for k, x in enumerate(n, 1):
        tables, run = 0, 1
        for v in range(x + 1, 0, -1):
            run *= v
            tables += run
            if bound * k * tables > MAX_INJECTIONS:
                return MAX_INJECTIONS + 1
        bound *= k * tables
    return bound


def load_polysimplicial(node: Node) -> PolysimplicialSet:
    from .poly import Element, PolysimplicialSet, identity

    cells = {}
    for key, val in node.scalars("cell"):
        if len(key) != 2:
            raise DocumentError("cell entries look like: cell <id> = n1,n2")
        n = cells[key[1]] = _parse_index(_need(val, 1, "cell <id> = n1,n2")[0])
        if _injection_bound(n) > MAX_INJECTIONS:
            raise DocumentError(f"cell {key[1]} = {_index_token(n)} is too large: the "
                                f"injections into its index may exceed the limit of "
                                f"{MAX_INJECTIONS}")
    stabs = {}
    for key, val in node.scalars("stab"):
        if len(key) != 2:
            raise DocumentError("stab entries look like: stab <id> = <morphism>")
        stabs.setdefault(key[1], set()).add(_parse_morphism(val))
    for c in cells:
        stabs.setdefault(c, set()).add(identity(cells[c]))
    faces = {}
    for key, block in node.children("face"):
        if len(key) != 2:
            raise DocumentError("face blocks look like: face <cell>:")
        cell = key[1]
        if cell not in cells:
            raise DocumentError(f"face block of unknown cell {cell}")
        iota = _parse_morphism(block.one("along"))
        along = " ".join(_morphism_tokens(iota))
        if iota.target != cells[cell]:
            raise DocumentError(f"face {cell} along {along}: along must end at the "
                                f"index {_index_token(cells[cell])} of {cell}")
        if iota.is_iso() or not iota.is_injective():
            raise DocumentError(f"face {cell} along {along}: "
                                "faces are along non-invertible injections")
        if (cell, iota) in faces:
            raise DocumentError(f"face {cell} along {along} is given twice")
        target = _need(block.one("target"), 1, "target = <cell> <morphism>")
        if target[0] not in cells:
            raise DocumentError(f"face {cell} along {along}: unknown target cell {target[0]}")
        epi = _parse_morphism(target[1:])
        if epi.target != cells[target[0]]:
            raise DocumentError(f"face {cell} along {along}: target must end at the "
                                f"index {_index_token(cells[target[0]])} of {target[0]}")
        faces[(cell, iota)] = Element(target[0], epi)
    stabs = {c: frozenset(s) for c, s in stabs.items()}
    C = PolysimplicialSet(cells, stabs, faces, validate=False)
    _close_faces(C)
    C.validate()
    return C


def _close_faces(C: PolysimplicialSet) -> None:
    """Derive the missing face entries of C in place from the given ones,
    so a generating set of injective assignments suffices in documents.

    Cells are taken in order of dimension. For each given entry (c, i) and
    each non-invertible injection k into the source of i, a missing entry
    (c, i*k) is set to act(x(c, i), k), x(c, i) being the given element.
    One pass suffices: a composite of non-invertible injections is one, so
    whatever a closure through derived entries reaches is reached from a
    given entry. act reads only the face entries of the cell of x(c, i),
    of lower dimension when the entry is normal, and those are complete.
    Which given i reaches i*k does not matter: once the table validates,
    functoriality gives act(x(c, i), k) = x(c, i*k) for all of them. So
    any other order of derivation, a fixed-point sweep included, builds
    the same table whenever either table validates.
    """
    from .poly import compose, index_dim, injections_into

    given = {}
    for (c, iota), entry in sorted(C.faces.items(),
                                   key=lambda kv: (kv[0][0], kv[0][1].key())):
        given.setdefault(c, []).append((iota, entry))
    for c in sorted(C.cells, key=lambda x: (index_dim(C.cells[x]), x)):
        todo = {i for i in injections_into(C.cells[c])
                if not i.is_iso() and (c, i) not in C.faces}
        for iota, entry in given.get(c, []):
            if not todo:
                break
            for kappa in injections_into(iota.source):
                if kappa.is_iso():
                    continue
                derived = compose(iota, kappa)
                if derived in todo:
                    todo.discard(derived)
                    C.faces[(c, derived)] = C.act(entry, kappa)
        if todo:
            raise DocumentError(
                f"face assignments of cell {c} do not generate: "
                f"{len(todo)} restrictions are missing"
            )


def dump_polysimplicial(C: PolysimplicialSet) -> str:
    from .poly import identity

    node = Node()
    node.entries.append((("kind",), ("polysimplicial",)))
    for c in sorted(C.cells):
        node.entries.append((("cell", c), (_index_token(C.cells[c]),)))
    for c in sorted(C.cells):
        for theta in sorted(C.stabs[c]):
            if theta == identity(C.cells[c]):
                continue
            node.entries.append((("stab", c), _morphism_tokens(theta)))
    for (c, iota), e in sorted(
        C.faces.items(), key=lambda kv: (kv[0][0], kv[0][1].key())
    ):
        block = Node()
        block.entries.append((("along",), _morphism_tokens(iota)))
        block.entries.append((("target",), (e.cell,) + _morphism_tokens(e.epi)))
        node.entries.append((("face", c), block))
    return serialize(node)


# -- graphs of groups ------------------------------------------------------------


def _load_table(block: Node) -> FiniteGroup:
    from .gog import FiniteGroup

    rows = [tuple(as_int(t) for t in val) for _, val in block.scalars("row")]
    return FiniteGroup(rows)


def load_graph_of_groups(node: Node) -> GraphOfFiniteGroups:
    from .gog import GraphOfFiniteGroups

    G = load_graph(node.one_child("graph"))
    vgroups = {}
    for key, block in node.children("vertex-group"):
        if len(key) != 2:
            raise DocumentError("vertex-group blocks look like: vertex-group <vertex>:")
        vgroups[key[1]] = _load_table(block)
    egroups = {}
    for key, block in node.children("edge-group"):
        if len(key) != 2:
            raise DocumentError("edge-group blocks look like: edge-group <edge>:")
        egroups[key[1]] = _load_table(block)
    bmaps = {}
    for key, val in node.scalars("branch"):
        if len(key) != 3:
            raise DocumentError("branch entries look like: branch <edge> <slot> = images")
        bmaps[(key[1], as_int(key[2]))] = {i: as_int(t) for i, t in enumerate(val)}
    return GraphOfFiniteGroups(G, vgroups, egroups, bmaps)


# -- posets and incidences ----------------------------------------------------------


@dataclass
class PosetDocument:
    s1: Poset
    s2: Optional[Poset]
    incidence: Optional[ClosureIncidence]


def _load_single_poset(block: Node) -> Poset:
    from .cospec import Poset

    elements = list(block.one("elements"))
    le = [_need(val, 2, "le = <x> <y>")[:2] for _, val in block.scalars("le")]
    return Poset(elements, le)


def load_poset_document(node: Node) -> PosetDocument:
    from .cospec import ClosureIncidence

    s1 = _load_single_poset(node.one_child("s1"))
    s2 = None
    incidence = None
    if node.children("s2"):
        s2 = _load_single_poset(node.one_child("s2"))
        pairs = {_need(val, 2, "pair = <s2 element> <s1 element>")[:2]
                 for _, val in node.scalars("pair")}
        incidence = ClosureIncidence(s1, s2, pairs)
    return PosetDocument(s1, s2, incidence)


# -- extension data ------------------------------------------------------------------


def load_extension_data(node: Node) -> ExtensionData:
    from .gog import ExtensionData

    pi = _load_table(node.one_child("pi"))
    h = _load_table(node.one_child("h"))
    alpha = {}
    for key, val in node.scalars("alpha"):
        if len(key) != 2:
            raise DocumentError("alpha entries look like: alpha <h> = images")
        alpha[as_int(key[1])] = tuple(as_int(t) for t in val)
    g = {}
    for key, val in node.scalars("g"):
        if len(key) != 3 or len(val) != 1:
            raise DocumentError("g entries look like: g <h1> <h2> = <value>")
        g[(as_int(key[1]), as_int(key[2]))] = as_int(val[0])
    return ExtensionData(pi, h, alpha, g)
