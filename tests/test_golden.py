"""Byte-exact guard on README commands.

``golden/NN.stdout`` holds the standard output of the NN-th command of the
README's "Command line" section and ``golden/<name>`` each ``--out`` file it
writes; ``sweep5.json`` and ``en_grid3.json`` hold the JSON tables of a short
detuning sweep and a squeezed-thermal grid, and ``sweep150.csv`` and
``sweep150.json`` a 150 mW sweep whose unstable points (about four in five)
print ``stable=0`` and NaN cells.  Every printed digit (qubit and
Gaussian measures, the exact cavity-mirror model, the steady-state sweep,
the spin-bus quadratures and the ED engine) must stay the same through any
rewrite of the numerics or of the table writer.

The ED goldens (``ed.csv``, ``13.stdout``, ``14.stdout``) hold with OpenBLAS
on 2 or more threads.  With ``OPENBLAS_NUM_THREADS=1``,
``test_readme_ed_commands_byte_identical`` fails: ``ed.csv`` moves in the
12th digit at kT = 9.4e-4 and 1.43e-2, and so do ``fit_eta``,
``fit_rms_residual``, ``corr_T0_abs_error`` and ``tstar_rel_error`` of
``14.stdout``.  With 2, 3 and 4 threads it passes.
"""

import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qcb.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
LATTICE = ["--L", "8", "--alpha", "0.05", "--probes", "1,6"]

# README "Command line", in order.  The ED commands (12-14) and the sweep (8)
# are checked by the two tests below, which chain and name them.
README_COMMANDS = [
    "werner --f -1",
    "werner --grid 100 --out werner.csv",
    "gaussian --r 1 --n-bar 0",
    "gaussian --grid 20 --out en_grid.csv",
    "optomech-unitary --quantity tangle --k 1 --alpha 1 --n-bar 0 --t 3.141592653589793",
    "optomech-unitary --quantity marker --k 0.4 --alpha 1 --n-bar 2 --t 2.5 --mirror 3,4,5",
    "optomech-unitary --quantity mi-average --k 1 --alpha 10 --n-bar 10",
    "optomech-steady --dmin 0.2 --dmax 3.0 --steps 281 --out sweep.csv",
    "lde chi --model aklt --r 1",
    "lde chi --model ring --L 100 --r 31",
    "lde thermal --jcan 5.07e-4 --phi 1.03e-2 --eta 6.23e-4"
    " --tmin 2e-5 --tmax 1e-2 --steps 24 --out thermal.csv",
    "ed run --lattice chain --L 8 --alpha 0.05 --probes 1,6 --temps auto --out ed.csv",
    "lde fit --in ed.csv",
    "ed report --L 8 --alpha 0.05 --probes 1,6",
]
SINGLE_CASES = [(f"{i:02d}.stdout", cmd) for i, cmd in enumerate(README_COMMANDS, 1)
                if i not in (8, 12, 13, 14)] + [
    ("sweep5.json", "optomech-steady --steps 5 --format json"),
    ("en_grid3.json", "gaussian --grid 3 --format json"),
    ("sweep150.csv", "optomech-steady --dmin 0.2 --dmax 3.0 --steps 281 --power 0.15"),
    ("sweep150.json",
     "optomech-steady --dmin 0.2 --dmax 3.0 --steps 281 --power 0.15 --format json"),
]

# The README commands that print one line instead of writing a table.
ONE_LINE_CASES = [(golden, cmd) for golden, cmd in SINGLE_CASES
                  if golden.endswith(".stdout") and "--out" not in cmd]


def test_readme_lists_the_guarded_commands():
    """Adding or changing a README command needs a golden output here."""
    text = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    listed = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
              if line.startswith("qcb ")]
    assert listed == [shlex.split(cmd) for cmd in README_COMMANDS]


def test_scipy_free_readme_commands_load_no_scipy(tmp_path):
    """The README commands that call no scipy function run in a fresh
    process without loading any scipy module; ``ed run`` among them, whose
    blocks are all dense."""
    argvs = [shlex.split(README_COMMANDS[i - 1]) for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12)]
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


@pytest.mark.parametrize("golden, cmd", SINGLE_CASES, ids=[g for g, _ in SINGLE_CASES])
def test_command_byte_identical(tmp_path, golden, cmd):
    words = shlex.split(cmd)
    argv = [str(tmp_path / w) if prev == "--out" else w
            for prev, w in zip([None] + words, words)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    if "--out" in words:
        out = words[words.index("--out") + 1]
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes()
    assert stdout.getvalue().encode() == (GOLDEN / golden).read_bytes()


def test_readme_ed_commands_byte_identical(tmp_path, capsys):
    table = tmp_path / "ed.csv"
    assert main(["ed", "run", "--lattice", "chain", *LATTICE, "--temps", "auto",
                 "--out", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert table.read_bytes() == (GOLDEN / "ed.csv").read_bytes()

    assert main(["lde", "fit", "--in", str(table)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "13.stdout").read_text()

    assert main(["ed", "report", *LATTICE]) == 0
    assert capsys.readouterr().out == (GOLDEN / "14.stdout").read_text()


def test_readme_detuning_sweep_byte_identical(tmp_path, capsys):
    table = tmp_path / "sweep.csv"
    assert main(["optomech-steady", "--dmin", "0.2", "--dmax", "3.0",
                 "--steps", "281", "--out", str(table)]) == 0
    assert capsys.readouterr().out == ""
    assert table.read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


@pytest.mark.parametrize("golden, cmd", ONE_LINE_CASES, ids=[g for g, _ in ONE_LINE_CASES])
def test_one_line_result_goes_to_out(tmp_path, capsys, golden, cmd):
    """--out takes a one-line result as it takes a table: the file holds the
    bytes the command prints without it, and nothing is printed."""
    out = tmp_path / "result.txt"
    assert main([*shlex.split(cmd), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
