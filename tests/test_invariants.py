"""Cross-module invariants that do not fit a single module's test file."""

import pathlib
import subprocess
import sys

import pytest

from anabel.gog import FiniteGroup, GoGCover, GraphOfFiniteGroups, validate_gog_cover
from anabel.graphs import (
    BranchGraph,
    GeneralizedMorphism,
    compose_generalized,
    enumerate_covers,
)
from anabel.poly import box_product, representable
from anabel.poly_ops import coequalizer, PolyMorphism

# every quotient and composite built here is checked (tests/conftest.py)
pytestmark = pytest.mark.usefixtures("quotients_checked")


def theta():
    return BranchGraph(["u", "v"], {"a": ("u", "v"), "b": ("u", "v"), "c": ("u", "v")})


def test_generalized_morphism_composition_associative():
    P = BranchGraph(
        ["a", "b", "c", "d"],
        {"e1": ("a", "b"), "e2": ("b", "c"), "e3": ("c", "d")},
    )
    Q = BranchGraph(["x", "y", "z"], {"f1": ("x", "y"), "f2": ("y", "z")})
    R = BranchGraph(["p", "q"], {"g1": ("p", "q")})
    S = BranchGraph(["w"], {})
    m1 = GeneralizedMorphism(
        P,
        Q,
        {"a": "x", "b": "x", "c": "y", "d": "z"},
        {"e1": ("vertex", "x"), "e2": ("edge", "f1"), "e3": ("edge", "f2")},
        {"e2": {0: 0, 1: 1}, "e3": {0: 0, 1: 1}},
    ).validate()
    m2 = GeneralizedMorphism(
        Q,
        R,
        {"x": "p", "y": "p", "z": "q"},
        {"f1": ("vertex", "p"), "f2": ("edge", "g1")},
        {"f2": {0: 0, 1: 1}},
    ).validate()
    m3 = GeneralizedMorphism(
        R, S, {"p": "w", "q": "w"}, {"g1": ("vertex", "w")}, {}
    ).validate()
    left = compose_generalized(m3, compose_generalized(m2, m1))
    right = compose_generalized(compose_generalized(m3, m2), m1)
    assert left.vertex_map == right.vertex_map
    assert left.edge_map == right.edge_map
    assert left.branch_maps == right.branch_maps


def test_true_morphisms_compose_to_true():
    G = theta()
    ident = GeneralizedMorphism.identity(G)
    swap = GeneralizedMorphism(
        G,
        G,
        {"u": "v", "v": "u"},
        {e: ("edge", e) for e in G.edges},
        {e: {0: 1, 1: 0} for e in G.edges},
    ).validate()
    comp = compose_generalized(swap, ident)
    assert comp.is_true_morphism()
    comp2 = compose_generalized(swap, swap)
    assert comp2.is_true_morphism()
    assert comp2.vertex_map == {"u": "u", "v": "v"}


def test_topological_gog_covers_match_graph_covers():
    """For trivial vertex/edge groups, equivariant covers of the graph of
    groups are exactly permutation covers of the underlying graph."""
    G = theta()
    TRIV = FiniteGroup.trivial()
    gog = GraphOfFiniteGroups(
        G,
        {v: TRIV for v in G.vertices},
        {e: TRIV for e in G.edges},
        {b: {0: 0} for b in G.branches()},
    )
    covers = enumerate_covers(G, 2)
    assert len(covers) == 4
    for cover in covers:
        # rebuild as a graph-of-groups cover: fibers with trivial actions,
        # gluings given by the sheet permutation over each edge
        glue = {}
        for e in G.real_edges():
            perm = [None, None]
            for i in range(2):
                te = f"{e}@{i}"
                _, w = cover.total.edges[te]
                perm[i] = int(w.rsplit("@", 1)[1])
            glue[e] = tuple(perm)
        gcover = GoGCover(
            vertex_sets={v: 2 for v in G.vertices},
            vertex_actions={v: [(0, 1)] for v in G.vertices},
            edge_glue=glue,
        )
        report = validate_gog_cover(gog, gcover)
        assert report.ok, report.violations
        assert report.topological


def test_deep_validation_of_constructed_complexes():
    L1 = representable((1,))
    B = box_product(L1, L1)
    B.validate(deep=True)
    P = representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    circle = coequalizer(f, g).complex
    circle.validate(deep=True)
    representable((2, 1)).validate(deep=True)


def test_deep_validation_with_nontrivial_stabilizers():
    from anabel.poly import Element, automorphisms, identity
    from anabel.poly_ops import quotient

    L1 = representable((1,))
    flip = next(g for g in automorphisms((1,)) if g != identity((1,)))
    fold = quotient(
        L1,
        [
            (L1.cell_element("s0"), L1.cell_element("s1")),
            (L1.cell_element("s01"), Element("s01", flip)),
        ],
    ).complex
    fold.validate(deep=True)
    assert not fold.is_interiorly_free()
    boxed = box_product(fold, L1)
    boxed.validate(deep=True)
    assert not boxed.is_interiorly_free()
    assert (
        boxed.euler_characteristic()
        == fold.euler_characteristic() * L1.euler_characteristic()
    )
    # the folded direction contributes an order-2 stabilizer to the square cell
    square = [c for c in boxed.cells if boxed.cells[c] == (1, 1)][0]
    assert len(boxed.stabs[square]) == 2


def test_cli_pi1_on_polysimplicial_document(tmp_path):
    from anabel.documents import dump_polysimplicial
    from anabel.poly_ops import quotient

    L1 = representable((1,))
    P = representable((0,))
    f = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s0")})
    g = PolyMorphism.from_cells(P, L1, {"s0": L1.cell_element("s1")})
    circle = coequalizer(f, g).complex
    doc = tmp_path / "circle.poly"
    doc.write_text(dump_polysimplicial(circle))
    proc = subprocess.run(
        [sys.executable, "-m", "anabel.cli", "abelianize", "--input", str(doc)],
        capture_output=True,
        text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    assert proc.returncode == 0, proc.stderr
    assert "abelianization = Z" in proc.stdout
