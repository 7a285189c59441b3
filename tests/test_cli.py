"""CLI behavior: golden outputs, exit codes, determinism across hash seeds."""

import os
import pathlib
import subprocess
import sys

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


def test_rigidity_exit_code_on_nontrivial_kernel(tmp_path):
    doc = tmp_path / "circle.graph"
    doc.write_text(
        "kind = graph\nvertices = u v\nedge a = u v\nedge b = u v\n"
    )
    proc = run_cli(["verify-rigidity", "--input", str(doc), "--max-degree", "1"])
    assert proc.returncode == 1
    assert "warning" in proc.stdout


@pytest.mark.parametrize("old,new", [("alpha 1 =", "alpha ="), ("g 1 0 = 0", "g 1 =")])
def test_malformed_extension_exit_code(tmp_path, old, new):
    doc = tmp_path / "bad.extension"
    doc.write_text((DATA / "s3.extension").read_text().replace(old, new))
    proc = run_cli(["schreier", "--input", str(doc)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


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
