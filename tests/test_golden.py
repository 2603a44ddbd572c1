"""Byte-exact guard on the README exact-diagonalization commands.

``golden/`` holds the output of ``ed run``, ``lde fit --in`` on that table,
and ``ed report`` for the README's 8-site chain.  Every printed digit of the
ED engine (J_can, robust gap, thermal correlators, fit, T = 0 correlator and
T*) must stay the same through any rewrite of the engine.
"""

from pathlib import Path

from qcb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
LATTICE = ["--L", "8", "--alpha", "0.05", "--probes", "1,6"]


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
