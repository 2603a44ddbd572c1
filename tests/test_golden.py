"""Byte-exact guard on README commands.

The README outputs live in ``bench/golden/``, the one tree that the tests,
CI and the benchmark read, and that ``python3 bench/freeze.py`` re-freezes:
``NN.stdout`` holds the standard output of the NN-th command of the README's
"Command line" section and ``<name>`` each ``--out`` file it writes.
``tests/golden/`` holds only tables that no README command writes:
``sweep5.json`` and ``en_grid3.json`` the JSON tables of a short detuning
sweep and a squeezed-thermal grid, and ``sweep150.csv`` and ``sweep150.json``
a 150 mW sweep whose unstable points (about four in five) print ``stable=0``
and NaN cells.  Every printed digit (qubit and Gaussian measures, the exact
cavity-mirror model, the steady-state sweep, the spin-bus quadratures and
the ED engine) must stay the same through any rewrite of the numerics or of
the table writer.

The ED goldens (``ed.csv``, ``13.stdout``, ``14.stdout``) hold with OpenBLAS
on 2 or more threads.  With ``OPENBLAS_NUM_THREADS=1``, the ``12.stdout``,
``13.stdout`` and ``14.stdout`` cases of ``test_command_byte_identical``
fail: ``ed.csv`` moves in the 12th digit at kT = 9.4e-4 and 1.43e-2, and so
do ``fit_eta``, ``fit_rms_residual``, ``corr_T0_abs_error`` and
``tstar_rel_error`` of ``14.stdout``.  With 2, 3 and 4 threads they pass.
"""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qcb.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden"
TABLE_GOLDEN = Path(__file__).resolve().parent / "golden"
COMMAND_LINE = (ROOT / "README.md").read_text().split("## Command line", 1)[1]

# README "Command line", in order.
_block = COMMAND_LINE.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
README_ARGVS = [shlex.split(line, comments=True)[1:] for line in _block.splitlines()
                if line.startswith("qcb ")]


def out_names(argv):
    return [w for prev, w in zip(argv, argv[1:]) if prev == "--out"]


# Each case is named after the file that holds its stdout: a README command
# after its bench/golden/NN.stdout, a test-only table after its file in
# tests/golden/.
CASES = {f"{i:02d}.stdout": (GOLDEN, argv) for i, argv in enumerate(README_ARGVS, 1)} | {
    name: (TABLE_GOLDEN, shlex.split(cmd)) for name, cmd in (
        ("sweep5.json", "optomech-steady --steps 5 --format json"),
        ("en_grid3.json", "gaussian --grid 3 --format json"),
        ("sweep150.csv", "optomech-steady --dmin 0.2 --dmax 3.0 --steps 281 --power 0.15"),
        ("sweep150.json",
         "optomech-steady --dmin 0.2 --dmax 3.0 --steps 281 --power 0.15 --format json"))}

# The README commands that print one line instead of writing a table.  A
# missing golden file fails the tests below, not the collection of this module.
ONE_LINE_CASES = [name for name, (golden, _) in CASES.items() if golden == GOLDEN
                  and (GOLDEN / name).is_file()
                  and (GOLDEN / name).read_text().count("\n") == 1]


def test_readme_lists_the_guarded_commands():
    """Adding or changing a README command needs a golden output: bench/golden/
    holds exactly the stdout and --out files of the README commands,
    tests/golden/ exactly the test-only tables, and no name is in both."""
    readme = {name for name, (golden, _) in CASES.items() if golden == GOLDEN}
    readme |= {out for argv in README_ARGVS for out in out_names(argv)}
    tables = {name for name, (golden, _) in CASES.items() if golden == TABLE_GOLDEN}
    assert {p.name for p in GOLDEN.iterdir()} == readme
    assert {p.name for p in TABLE_GOLDEN.iterdir()} == tables
    assert not readme & tables


def test_scipy_free_readme_commands_load_no_scipy(tmp_path):
    """The README commands that README does not name as loading scipy run in
    a fresh process without loading any scipy module; ``ed run`` among them,
    whose blocks are all dense."""
    named = COMMAND_LINE.split("only these commands load one, when they run:", 1)[1]
    loaders = [shlex.split(cmd) for cmd in re.findall(r"`([^`]+)`", named.split(".", 1)[0])]
    argvs = [argv for argv in README_ARGVS
             if not any(argv[:len(loader)] == loader for loader in loaders)]
    assert len(argvs) == len(README_ARGVS) - len(loaders)
    code = ("import contextlib, io, sys; from qcb.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env=os.environ | {"PYTHONPATH": str(ROOT / "src")},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_optomech_workload_loads_no_scipy(tmp_path):
    """The cavity-mirror calls of the benchmark run in a fresh process
    without loading any scipy module: the 6x20 projected block, the MI
    average at alpha = 10 and a 2810-step detuning sweep."""
    code = ("import contextlib, io, sys\n"
            "from qcb.cli import main\n"
            "from qcb.optomech_unitary import OptoUnitaryParams, SubspaceSelector,"
            " projected_density\n"
            "p = OptoUnitaryParams(k=0.4, alpha=1.0, n_bar=2.0, t=2.5)\n"
            "projected_density(p, SubspaceSelector(tuple(range(6)), tuple(range(40, 60))),"
            " normalize=False)\n"
            "for argv in (['optomech-unitary', '--quantity', 'mi-average', '--k', '1',"
            " '--alpha', '10', '--n-bar', '10'],\n"
            "             ['optomech-steady', '--dmin', '0.2', '--dmax', '3.0',"
            " '--steps', '2810']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                            env=os.environ | {"PYTHONPATH": str(ROOT / "src")},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(work directory, {case: (exit code, stdout)}): every case runs once, in
    one directory, the README commands in README order, so that ``lde fit``
    reads the ``ed.csv`` that ``ed run`` wrote."""
    workdir = tmp_path_factory.mktemp("golden")
    results = {}
    with contextlib.chdir(workdir):
        for name, (_, argv) in CASES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                results[name] = main(argv), stdout.getvalue().encode()
    return workdir, results


@pytest.mark.parametrize("case", CASES)
def test_command_byte_identical(runs, case):
    golden, argv = CASES[case]
    workdir, results = runs
    code, stdout = results[case]
    assert code == 0
    assert stdout == (golden / case).read_bytes()
    for out in out_names(argv):
        assert (workdir / out).read_bytes() == (golden / out).read_bytes(), out


@pytest.mark.parametrize("golden", ONE_LINE_CASES)
def test_one_line_result_goes_to_out(tmp_path, capsys, golden):
    """--out takes a one-line result as it takes a table: the file holds the
    bytes the command prints without it, and nothing is printed."""
    out = tmp_path / "result.txt"
    assert main([*CASES[golden][1], "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
