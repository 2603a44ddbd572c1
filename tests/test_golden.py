"""Byte-exact guard on README commands.

``golden/NN.stdout`` holds the standard output of the NN-th command of the
README's "Command line" section and ``golden/<name>`` each ``--out`` file it
writes; ``sweep5.json`` and ``en_grid3.json`` hold the JSON tables of a short
detuning sweep and a squeezed-thermal grid.  Every printed digit (qubit and
Gaussian measures, the exact cavity-mirror model, the steady-state sweep,
the spin-bus quadratures and the ED engine) must stay the same through any
rewrite of the numerics or of the table writer.
"""

import contextlib
import io
import shlex
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
]


def test_readme_lists_the_guarded_commands():
    """Adding or changing a README command needs a golden output here."""
    text = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = text.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    listed = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
              if line.startswith("qcb ")]
    assert listed == [shlex.split(cmd) for cmd in README_COMMANDS]


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
