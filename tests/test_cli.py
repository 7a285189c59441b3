"""CLI behavior: golden outputs, exit codes, determinism across hash seeds."""

import os
import pathlib
import subprocess
import sys
import time

import pytest

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "split_radius.txt": ["split-radius", "2", "3", "0", "1", "5/2", "3", "4", "10"],
    "tate_intervals.txt": ["tate-intervals", "2", "1", "3", "13", "9"],
    "rigidity_theta.txt": [
        "verify-rigidity", "--input", str(DATA / "theta.graph"), "--max-degree", "2",
    ],
    "abelianize_z3circle.txt": ["abelianize", "--input", str(DATA / "z3circle.gog")],
    "pi1_z3circle.txt": ["pi1", "--input", str(DATA / "z3circle.gog")],
    "pi1_torus.txt": ["pi1", "--input", str(DATA / "torus.poly")],
    "saturation_times2.txt": [
        "saturation-check", "--input", str(DATA / "times2.morphism"),
        "--primes", "2", "--bound", "3",
    ],
    "kummer_times2.txt": [
        "kummer-check", "--input", str(DATA / "times2.morphism"), "--primes", "3,5",
    ],
    "faces_n2.txt": ["faces", "--input", str(DATA / "n2.monoid")],
    "covers_theta.txt": [
        "cover-enum", "--input", str(DATA / "theta.graph"), "--max-degree", "2",
    ],
    "covers_bouquet3.txt": [
        "cover-enum", "--input", str(DATA / "bouquet3.graph"), "--max-degree", "3",
        "--machine",
    ],
    "current_group_theta.txt": [
        "current-group", "--input", str(DATA / "theta.graph"),
    ],
    "cospec_chain.txt": ["cospec", "--input", str(DATA / "chain.poset")],
    "schreier_s3.txt": ["schreier", "--input", str(DATA / "s3.extension")],
}

EXPECTED_RC = {
    "saturation_times2.txt": 1,
    "kummer_times2.txt": 1,
}


def run_cli(argv, hashseed="0"):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["ANABEL_SEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-m", "anabel.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    return proc


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    proc = run_cli(CASES[name])
    assert proc.returncode == EXPECTED_RC.get(name, 0), proc.stderr
    golden = (GOLDEN / name).read_text()
    assert proc.stdout == golden


@pytest.mark.parametrize("name", sorted(CASES))
def test_byte_identical_across_runs_and_hash_seeds(name):
    a = run_cli(CASES[name], hashseed="1")
    b = run_cli(CASES[name], hashseed="271828")
    c = run_cli(CASES[name], hashseed="1")
    assert a.stdout == b.stdout == c.stdout
    assert a.returncode == b.returncode == c.returncode


def test_machine_flag():
    proc = run_cli(CASES["tate_intervals.txt"] + ["--machine"])
    assert proc.returncode == 0
    assert "i1=19,21" in proc.stdout


def test_input_error_exit_code():
    proc = run_cli(["verify-rigidity", "--input", "no-such-file"])
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_constraint_error_names_inequality(tmp_path):
    proc = run_cli(["tate-intervals", "2", "1", "3", "12", "9"])
    assert proc.returncode == 2
    assert "l >= 1 + 2np/((p-1)v)" in proc.stderr


def test_nonprime_rejected():
    proc = run_cli(["split-radius", "4", "1", "1"])
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["split-radius", "2", "3", "1/0"],
    ["tate-intervals", "2", "1/0", "1", "3", "3"],
])
def test_valuation_with_zero_denominator_is_an_input_error(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: expected a rational a/b, got '1/0'\n"


def test_rigidity_exit_code_on_nontrivial_kernel(tmp_path):
    doc = tmp_path / "circle.graph"
    doc.write_text(
        "kind = graph\nvertices = u v\nedge a = u v\nedge b = u v\n"
    )
    proc = run_cli(["verify-rigidity", "--input", str(doc), "--max-degree", "1"])
    assert proc.returncode == 1
    assert "warning" in proc.stdout


def test_rigidity_degree_zero_is_rejected():
    proc = run_cli([
        "verify-rigidity", "--input", str(DATA / "theta.graph"), "--max-degree", "0",
    ])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: max_degree must be >= 1\n"


@pytest.mark.parametrize("bound", ["0", "-3"])
@pytest.mark.parametrize("command,primes", [("kummer-check", "3,5"), ("saturation-check", "2")])
def test_bound_below_one_is_rejected(command, primes, bound):
    proc = run_cli([
        command, "--input", str(DATA / "times2.morphism"), "--primes", primes, "--bound", bound,
    ])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: bound must be >= 1\n"


@pytest.mark.parametrize("block,form", [
    ("vertex-group v:", "vertex-group <vertex>:"),
    ("edge-group e:", "edge-group <edge>:"),
])
def test_group_block_without_id_is_rejected(tmp_path, block, form):
    text = (DATA / "z3circle.gog").read_text()
    assert block in text
    doc = tmp_path / "noid.gog"
    doc.write_text(text.replace(block, block.split()[0] + ":"))
    proc = run_cli(["pi1", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"input error: {doc}: {block.split()[0]} blocks look like: {form}\n"
    )


@pytest.mark.parametrize("command", ["cover-enum", "verify-rigidity"])
def test_graph_without_vertices_has_no_covers(tmp_path, command):
    doc = tmp_path / "empty.graph"
    doc.write_text("kind = graph\nvertices =\n")
    proc = run_cli([command, "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: graph has no vertices, so it has no covers\n"
    # its current group is still the trivial group
    proc = run_cli(["current-group", "--input", str(doc)])
    assert proc.returncode == 0
    assert proc.stdout == "current group = 0\nbasis currents = 0\n"


@pytest.mark.parametrize("command", ["pi1", "abelianize"])
def test_complex_without_cells_has_no_pi1(tmp_path, command):
    doc = tmp_path / "empty.poly"
    doc.write_text("kind = polysimplicial\n")
    proc = run_cli([command, "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "input error: complex has no cells, so pi1 has no base point\n"


def test_face_target_off_its_cell_is_an_input_error(tmp_path):
    # Λ(2) with top cell t and only t's edges given; the edge along 1 2 0 1
    # points at t through a morphism ending at [1], not at t's index [2]
    import re

    from anabel.documents import dump_polysimplicial
    from anabel.poly import representable

    text = dump_polysimplicial(representable((2,))).replace("s012", "t")
    text = re.sub(r"face t:\n  along = 0 2 \d\n  target = .*\n", "", text)
    old = "along = 1 2 0 1\n  target = s01 1 1 0 1\n"
    assert old in text
    doc = tmp_path / "misdirected.poly"
    doc.write_text(text.replace(old, "along = 1 2 0 1\n  target = t 1 1 0 1\n"))
    proc = run_cli(["pi1", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"input error: {doc}: face t along 1 2 0 1: target must "
                           "end at the index 2 of t\n")


@pytest.mark.parametrize("command,name,text", [
    (["faces"], "negative.monoid", "kind = monoid\ndim = -1\n"),
    (["saturation-check", "--primes", "2"], "negative.morphism",
     "kind = morphism\nsource:\n  kind = monoid\n  dim = -1\n"
     "target:\n  kind = monoid\n  dim = 1\n  gen = 1\n"),
])
def test_negative_ambient_dimension_is_an_input_error(tmp_path, command, name, text):
    doc = tmp_path / name
    doc.write_text(text)
    proc = run_cli([command[0], "--input", str(doc), *command[1:]])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {doc}: ambient dimension must be >= 0\n"


def test_oversized_cell_is_rejected_before_enumeration(tmp_path):
    # loading enumerates every injection into a cell's index; [9] has
    # millions, and the loader refuses it before enumerating any
    doc = tmp_path / "big.poly"
    doc.write_text("kind = polysimplicial\ncell x = 9\n")
    start = time.perf_counter()
    proc = run_cli(["pi1", "--input", str(doc)])
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (f"input error: {doc}: cell x = 9 is too large: the injections "
                           "into its index may exceed the limit of 100000\n")


def test_disconnected_graph_has_no_cover_enumeration(tmp_path):
    doc = tmp_path / "two.graph"
    doc.write_text("kind = graph\nvertices = u v\nedge a = u u\n")
    proc = run_cli(["cover-enum", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "input error: graph is not connected; cover enumeration needs a connected graph\n"
    )


@pytest.mark.parametrize("old,new", [("alpha 1 =", "alpha ="), ("g 1 0 = 0", "g 1 =")])
def test_malformed_extension_exit_code(tmp_path, old, new):
    doc = tmp_path / "bad.extension"
    doc.write_text((DATA / "s3.extension").read_text().replace(old, new))
    proc = run_cli(["schreier", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_non_associative_pi_table_exit_code(tmp_path):
    # pi is a Latin square with identity 0 of order 5 that is not a group
    doc = tmp_path / "loop.extension"
    doc.write_text(
        "kind = extension-data\npi:\n"
        "  row = 0 1 2 3 4\n  row = 1 0 3 4 2\n  row = 2 4 0 1 3\n"
        "  row = 3 2 4 0 1\n  row = 4 3 1 2 0\n"
        "h:\n  row = 0 1\n  row = 1 0\n"
        "alpha 0 = 0 1 2 3 4\nalpha 1 = 0 1 2 3 4\n"
        "g 0 0 = 0\ng 0 1 = 0\ng 1 0 = 0\ng 1 1 = 0\n"
    )
    proc = run_cli(["schreier", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {doc}: associativity fails at (1, 1, 2)\n"


def test_input_error_loads_no_cospec_module():
    # the handler tells a CospecError apart without importing anabel.cospec
    code = ("import sys; from anabel import cli; "
            "rc = cli.main(['verify-rigidity', '--input', 'tests/data/theta.graph', "
            "'--max-degree', '0']); "
            "print(rc, 'anabel.cospec' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    assert proc.stdout == "2 False\n", proc.stderr
    assert proc.stderr == "input error: max_degree must be >= 1\n"


def test_cospec_failure_exit_code(tmp_path):
    # a is minimal in s1, but the unique maximum of its fiber, y, is not
    # minimal in s2
    doc = tmp_path / "bad.poset"
    doc.write_text(
        "kind = poset\ns1:\n  elements = a b\ns2:\n  elements = x y\n  le = x y\n"
        "pair = x a\npair = x b\npair = y a\npair = y b\n"
    )
    proc = run_cli(["cospec", "--input", str(doc)])
    assert proc.returncode == 1
    assert proc.stderr == (
        "cospecialization failure: minimal stratum a maps to the non-minimal y\n"
    )


def test_cli_import_loads_no_library_module():
    # each subcommand imports the modules it runs; start-up pays for none
    code = ("import sys, anabel.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('anabel')))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['anabel', 'anabel.cli', 'anabel.documents']"


def test_library_imports_neither_dataclasses_nor_inspect():
    # every CLI call is a fresh process; dataclasses would import inspect,
    # ast, dis and tokenize in each, so the records are named tuples and
    # plain classes
    src = pathlib.Path(__file__).parent.parent / "src" / "anabel"
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert "cli" in modules and "poly_ops" in modules
    code = ("import sys\n"
            f"for m in {modules!r}:\n"
            "    __import__('anabel.' + m)\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert [p.name for p in sorted(src.glob("*.py")) if "dataclass" in p.read_text()] == []


def _exit_code_and_modules(argv):
    """Run the CLI on argv in a fresh interpreter; print its exit code and
    the anabel modules it loaded."""
    code = ("import contextlib, io, sys, anabel.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = anabel.cli.main(sys.argv[1:])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('anabel')))")
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        cwd=str(pathlib.Path(__file__).parent.parent),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("name", ["split_radius.txt", "tate_intervals.txt"])
def test_band_commands_load_neither_currents_nor_graphs(name):
    # split_locus and detect_metric_mismatch import currents and graphs
    # themselves; the band and interval commands never run them
    assert _exit_code_and_modules(CASES[name]) == (
        "0 ['anabel', 'anabel.cli', 'anabel.documents', 'anabel.intlin', 'anabel.splitting']")


def test_cospec_command_loads_neither_graphs_nor_poly_ops():
    # a poset document needs Poset and ClosureIncidence, and Poset closes
    # its relation with cospec.transitive_closure, so poly is not loaded
    # either
    assert _exit_code_and_modules(CASES["cospec_chain.txt"]) == (
        "0 ['anabel', 'anabel.cli', 'anabel.cospec', 'anabel.documents']")


def test_schreier_command_loads_neither_graphs_nor_intlin_nor_presentations():
    # gog imports those three inside the functions that run them
    assert _exit_code_and_modules(CASES["schreier_s3.txt"]) == (
        "0 ['anabel', 'anabel.cli', 'anabel.documents', 'anabel.gog']")


@pytest.mark.parametrize("command,doc,old,new", [
    ("faces", "n2.monoid", "dim = 2", "dim ="),
    ("cospec", "chain.poset", "pair = x a", "pair = x"),
    ("pi1", "torus.poly", "along = 1 1,1 0.0 0.1", "along = 1 1,1 99 0.0"),
    ("pi1", "torus.poly", "target = q2 1 1 0 1", "target = zz 1 1 0 1"),
])
def test_malformed_document_exit_code(tmp_path, command, doc, old, new):
    text = (DATA / doc).read_text()
    assert old in text
    bad = tmp_path / doc
    bad.write_text(text.replace(old, new, 1))
    proc = run_cli([command, "--input", str(bad)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("block,reason", [
    ("face zz:\n  along = 0 1 0\n  target = q0 0 0 0\n", "face block of unknown cell zz"),
    ("face q1:\n  along = 1 1 0 1\n  target = q2 1 1 0 1\n",
     "face q1 along 1 1 0 1: faces are along non-invertible injections"),
    ("face q3:\n  along = 1 1,1 0.0 0.0\n  target = q1 1 1 0 1\n",
     "face q3 along 1 1,1 0.0 0.0: faces are along non-invertible injections"),
    ("face q1:\n  along = 0 1 0\n  target = q0 0 0 0\n", "face q1 along 0 1 0 is given twice"),
    ("face q0:\n  along = 0 1 0\n  target = q0 0 0 0\n",
     "face q0 along 0 1 0: along must end at the index 0 of q0"),
])
def test_face_entries_the_normal_form_never_reads(tmp_path, block, reason):
    # each block is read by no normal-form lookup, or contradicts an entry
    # that is, so the document is rejected instead of silently accepted
    bad = tmp_path / "torus.poly"
    bad.write_text((DATA / "torus.poly").read_text() + block)
    proc = run_cli(["pi1", "--input", str(bad)])
    assert proc.returncode == 2
    assert proc.stderr == f"input error: {bad}: {reason}\n"


def test_internal_fault_exit_code(monkeypatch, capsys):
    from anabel import cli
    from anabel.monoids import AffineMonoid

    def broken(self):
        raise AssertionError("planted fault")

    monkeypatch.setattr(AffineMonoid, "faces", broken)
    rc = cli.main(["faces", "--input", str(DATA / "n2.monoid")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "internal error: AssertionError: planted fault\n"
    assert "Traceback" not in err


THETA_CURRENT = (
    "kind = current\ngraph:\n  vertices = u v\n"
    "  edge a = u v\n  edge b = u v\n  edge c = u v\n"
)


@pytest.mark.parametrize("values, reason", [
    ("value a 0 = 1\n", "antisymmetry fails on edge a"),
    ("value a 0 = 1\nvalue a 1 = -1\n", "Kirchhoff law fails at ['u', 'v']"),
    ("value zz 0 = 5\n", "graph has no branch zz 0"),
    ("value a 7 = 1\n", "graph has no branch a 7"),
], ids=["antisymmetry", "kirchhoff", "unknown-edge", "unknown-slot"])
def test_current_document_is_checked(tmp_path, values, reason):
    doc = tmp_path / "bad.current"
    doc.write_text(THETA_CURRENT + values)
    proc = run_cli(["current-group", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {doc}: {reason}\n"


def test_cusp_currents_are_in_the_basis(tmp_path):
    # the current entering at one cusp and leaving at the other spans Z
    doc = tmp_path / "two_cusps.graph"
    doc.write_text("kind = graph\nvertices = v w\nedge e = v w\ncusp c1 = v\ncusp c2 = w\n")
    proc = run_cli(["current-group", "--input", str(doc)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("current group = Z\nbasis currents = 1\n"
                           "basis[0] = c1.0:-1 c2.0:1 e.0:1 e.1:-1\n")
    proc = run_cli(["current-group", "--input", str(doc), "--modulus", "3"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("current group = Z/3\nbasis currents = 1\n"
                           "basis[0] = c1.0:2 c2.0:1 e.0:1 e.1:2\n")
    proc = run_cli(["current-group", "--input", str(doc), "--modulus", "1"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "input error: modulus must be >= 2\n"


def test_current_document_gives_its_graphs_current_group(tmp_path):
    doc = tmp_path / "cycle.current"
    doc.write_text(
        THETA_CURRENT + "modulus = 4\n"
        "value a 0 = -1\nvalue a 1 = 1\nvalue b 0 = 1\nvalue b 1 = -1\n"
    )
    for extra in ([], ["--modulus", "3"], ["--machine"]):
        got = run_cli(["current-group", "--input", str(doc), *extra])
        want = run_cli(["current-group", "--input", str(DATA / "theta.graph"), *extra])
        assert got.returncode == want.returncode == 0, got.stderr
        assert got.stdout == want.stdout
