import pathlib
from fractions import Fraction

import pytest

from anabel import documents
from anabel.documents import DocumentError, dump_graph, dump_monoid, dump_polysimplicial, load, parse, serialize
from anabel.graphs import BranchGraph, MetricGraph
from anabel.monoids import AffineMonoid
from anabel.poly import Element, box_product, representable


def test_parse_serialize_roundtrip():
    text = "\n".join(
        [
            "kind = graph",
            "vertices = u v",
            "edge a = u v",
            "cusp z = u",
        ]
    )
    node = parse(text)
    assert serialize(node) == text


def test_graph_roundtrip():
    G = BranchGraph(["u", "v"], {"a": ("u", "v"), "z": ("u",)})
    kind, G2 = load(dump_graph(G))
    assert kind == "graph"
    assert G2.edges == G.edges and G2.vertices == G.vertices


def test_metric_graph_roundtrip():
    G = MetricGraph(
        ["u", "v"],
        {"a": ("u", "v"), "b": ("u", "v")},
        {"a": Fraction(3, 2), "b": Fraction(1)},
    )
    kind, G2 = load(dump_graph(G, kind="metric-graph"))
    assert kind == "metric-graph"
    assert G2.lengths == G.lengths


def test_metric_graph_requires_lengths():
    text = "\n".join(
        ["kind = metric-graph", "vertices = u v", "edge a = u v"]
    )
    with pytest.raises(DocumentError):
        load(text)


def test_monoid_roundtrip():
    P = AffineMonoid(2, [(1, 0), (1, 2)])
    kind, P2 = load(dump_monoid(P))
    assert kind == "monoid"
    assert P2 == P


def test_morphism_document():
    text = "\n".join(
        [
            "kind = morphism",
            "source:",
            "  kind = monoid",
            "  dim = 1",
            "  gen = 1",
            "target:",
            "  kind = monoid",
            "  dim = 2",
            "  gen = 1 0",
            "  gen = 0 1",
            "row = 1",
            "row = 1",
        ]
    )
    kind, phi = load(text)
    assert kind == "morphism"
    assert phi.apply((2,)) == (2, 2)


def test_morphism_document_validates_membership():
    text = "\n".join(
        [
            "kind = morphism",
            "source:",
            "  kind = monoid",
            "  dim = 1",
            "  gen = 1",
            "target:",
            "  kind = monoid",
            "  dim = 1",
            "  gen = 1",
            "row = -1",
        ]
    )
    with pytest.raises(ValueError):
        load(text)


def test_polysimplicial_roundtrip():
    for C in (representable((1,)), box_product(representable((1,)), representable((1,)))):
        kind, C2 = load(dump_polysimplicial(C))
        assert kind == "polysimplicial"
        assert C2.cells == C.cells
        assert C2.nondegenerate_cells() == C.nondegenerate_cells()
        from anabel.poly_ops import find_isomorphism

        assert find_isomorphism(C2, C) is not None


def test_polysimplicial_generating_set_closes():
    # keep only the codimension-1 face entries; loading must derive the rest
    from anabel.poly import index_dim

    C = representable((1, 1))
    node = documents.parse(dump_polysimplicial(C))
    kept = documents.Node()
    for key, val in node.entries:
        if key[0] != "face":
            kept.entries.append((key, val))
            continue
        cell = key[1]
        iota = documents._parse_morphism(val.one("along"))
        if index_dim(iota.source) == index_dim(C.cells[cell]) - 1:
            kept.entries.append((key, val))
    trimmed = documents.serialize(kept)
    assert trimmed != dump_polysimplicial(C)
    kind, C2 = load(trimmed)
    assert kind == "polysimplicial"
    assert C2.faces == C.faces


def test_polysimplicial_nongenerating_set_rejected():
    from anabel.poly import index_dim

    C = representable((1, 1))
    node = documents.parse(dump_polysimplicial(C))
    kept = documents.Node()
    for key, val in node.entries:
        if key[0] == "face":
            cell = key[1]
            iota = documents._parse_morphism(val.one("along"))
            if C.cells[cell] == (1, 1):
                continue  # drop every face of the top cell
        kept.entries.append((key, val))
    with pytest.raises(DocumentError) as err:
        load(documents.serialize(kept))
    assert "generate" in str(err.value)


@pytest.mark.parametrize("trim", [False, True])
def test_face_target_must_end_at_its_cell(trim):
    # the edge of Λ(2) along 1 2 0 1 pointed at the top cell through a
    # morphism ending at [1]; with only the top cell's edges given, closing
    # its faces used to reach act() and fail there with a KeyError
    import re

    text = dump_polysimplicial(representable((2,)))
    if trim:
        text = re.sub(r"face s012:\n  along = 0 2 \d\n  target = .*\n", "", text)
    old = "along = 1 2 0 1\n  target = s01 1 1 0 1\n"
    assert old in text
    with pytest.raises(DocumentError) as err:
        load(text.replace(old, "along = 1 2 0 1\n  target = s012 1 1 0 1\n"))
    assert str(err.value) == (
        "face s012 along 1 2 0 1: target must end at the index 2 of s012"
    )


def test_injection_bound_bounds_the_enumeration():
    from anabel.poly import injections_into

    for n in [(0,), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2)]:
        assert len(injections_into(n)) <= documents._injection_bound(n)
    assert documents._injection_bound((1, 1)) == 32
    # capped, so a huge index costs nothing to bound
    for n in [(9,), (10 ** 9,), (1,) * 10 ** 5]:
        assert documents._injection_bound(n) == documents.MAX_INJECTIONS + 1
        with pytest.raises(DocumentError, match="too large"):
            load("kind = polysimplicial\ncell x = " + ",".join(map(str, n)) + "\n")


def test_unknown_kind_rejected():
    with pytest.raises(DocumentError):
        load("kind = widget")


def test_error_reports_missing_entry():
    with pytest.raises(DocumentError) as err:
        load("kind = monoid")
    assert "dim" in str(err.value)


S3_EXTENSION = (pathlib.Path(__file__).parent / "data" / "s3.extension").read_text()


@pytest.mark.parametrize(
    "old,new",
    [
        ("alpha 1 =", "alpha ="),
        ("g 1 0 =", "g 1 ="),
        ("g 1 0 =", "g ="),
        ("g 1 0 = 0", "g 1 0 ="),
    ],
)
def test_malformed_extension_entries_rejected(old, new):
    assert old in S3_EXTENSION
    with pytest.raises(DocumentError) as err:
        load(S3_EXTENSION.replace(old, new))
    assert "look like" in str(err.value)


def _trimmed_tables(rng):
    """Seeded face tables to load: each corpus complex keeps every
    codimension-1 face entry and a random share of the others, then has
    one kept entry retargeted to another cell of the same index, or one
    codimension-1 entry dropped, or neither."""
    from anabel.poly import index_dim

    def order(key):
        return key[0], key[1].key()

    corpus = [representable(n) for n in
              [(0,), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]]
    corpus.append(load((pathlib.Path(__file__).parent / "data" / "torus.poly").read_text())[1])
    for C in corpus:
        for change in ["none", "retarget", "drop", "retarget"]:
            keep = rng.random()
            codim1 = sorted((k for k in C.faces
                             if index_dim(k[1].source) == index_dim(C.cells[k[0]]) - 1),
                            key=order)
            faces = {k: C.faces[k] for k in sorted(C.faces, key=order)
                     if k in codim1 or rng.random() < keep}
            if faces and change == "retarget":
                key = rng.choice(sorted(faces, key=order))
                cell = faces[key].cell
                others = sorted(d for d in C.cells
                                if d != cell and C.cells[d] == C.cells[cell])
                if others:
                    faces[key] = Element(rng.choice(others), faces[key].epi)
            elif faces and change == "drop":
                del faces[rng.choice(codim1)]
            yield C.cells, C.stabs, faces


def test_close_faces_matches_reference():
    # the one-pass closure of the loader against the fixed-point sweep it
    # replaced, on trimmed and corrupted documents
    import os
    import random

    import documents_reference
    from anabel.poly import PolysimplicialSet

    def outcome(build):
        try:
            C = build()
        except ValueError as exc:
            return type(exc), str(exc)
        return sorted((c, iota.key(), e.cell, e.epi.key())
                      for (c, iota), e in C.faces.items())

    rng = random.Random(int(os.environ.get("ANABEL_SEED", "0")))
    kinds = set()
    for cells, stabs, faces in _trimmed_tables(rng):
        text = dump_polysimplicial(PolysimplicialSet(cells, stabs, faces, validate=False))
        got = outcome(lambda: load(text)[1])
        want = outcome(lambda: documents_reference.load_tables(cells, stabs, faces))
        assert got == want
        kinds.add(got[0] if isinstance(got, tuple) else "loaded")
    assert kinds == {"loaded", ValueError, DocumentError}
