"""README outputs under emulated BLAS kernels, SIMD targets and thread counts.

The golden bytes in ``bench/golden/`` hold on the reference configuration:
OpenBLAS's SkylakeX kernels on 2 or more threads, and numpy's ``X86_V4``
loops for exp, log, sin and cos.  Each emulation here runs every README
command, in README order, in one fresh process under per-process
environment variables that select other code paths on the same CPU, and
diffs every printed cell against the goldens.  :data:`KNOWN_DIFFERENT` lists
each cell that differs today, with its cause and the ROADMAP item that is to
mend it; one test per emulation asserts every other cell, and one strict
xfail asserts each listed cell, so a cell that starts or stops moving fails.

An emulation is defined relative to the reference configuration, so on a
host whose native OpenBLAS core is not SkylakeX, whose numpy target is not
``X86_V4``, or which gives this process fewer than 2 CPUs, every test here
skips and says which.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from test_golden import GOLDEN, README_ARGVS, ROOT, out_names

# name -> the environment variables that select it
EMULATIONS = {
    "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "haswell-avx2": {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4"},
}
SELECTORS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

HASWELL = ("haswell", "haswell-avx2")
EIGH = ("item 23 (item 11 re-freezes): LAPACK eigh's last bits follow the kernel and the"
        " thread count, and kT and beta follow J_can")
FIT = "items 23 and 12: the canonical fit of the ED table carries the table's last bits"
ERROR = "items 23 and 21: an error measure printed to 12 digits prints rounding noise"
ZERO = "item 23: V12 = V21 = 0 exactly, and the Lyapunov solve prints the kernel's residue"
# (emulation, file, column, row) -> its cause and ROADMAP item; a row is the
# index of a data row of a table, "#" a `# key=value` header, and None the
# one line or JSON object that a command prints
KNOWN_DIFFERENT = {
    (emulation, name, column, row): cause
    for emulations, cause, moved in (
        (("one-thread",), EIGH, {("ed.csv", "concurrence"): (5,),
                                 ("ed.csv", "correlator"): (10,)}),
        (("one-thread",), FIT, {("13.stdout", "eta"): (None,),
                                ("13.stdout", "rms_residual"): (None,),
                                ("14.stdout", "fit_eta"): (None,),
                                ("14.stdout", "fit_rms_residual"): (None,)}),
        (("one-thread",), ERROR, {("14.stdout", "corr_T0_abs_error"): (None,),
                                  ("14.stdout", "tstar_rel_error"): (None,)}),
        (HASWELL, EIGH, {("ed.csv", "kT"): (9,), ("ed.csv", "beta"): (7, 10),
                         ("ed.csv", "correlator"): (6, 11), ("ed.csv", "concurrence"): (5,)}),
        (HASWELL, FIT, {("13.stdout", "Phi"): (None,), ("13.stdout", "eta"): (None,),
                        ("13.stdout", "rms_residual"): (None,),
                        ("14.stdout", "fit_eta"): (None,),
                        ("14.stdout", "fit_rms_residual"): (None,)}),
        (HASWELL, ERROR, {("14.stdout", "corr_T0_abs_error"): (None,),
                          ("14.stdout", "jcan_rel_error"): (None,)}),
        (HASWELL, ZERO, {("sweep.csv", "V12"): (*range(10), *range(11, 16)),
                         ("sweep.csv", "V21"): (*range(10), *range(11, 16))}),
        (HASWELL, "item 23: the Lyapunov solve's 12th digit follows the kernel",
         {("sweep.csv", "V11"): (67,)}),
        (HASWELL, "item 21: E_N from block determinants, good to about 1e-13 relative; the"
                  " Haswell kernel prints the right rounding, the golden does not",
         {("sweep.csv", "EN"): (199,)}),
    )
    for emulation in emulations for (name, column), rows in moved.items() for row in rows
}

# The OpenBLAS core line and numpy's dispatch targets of exp, log, sin and
# cos, printed by a fresh process.
PROBE = ("import numpy\n"
         "info = numpy.lib.introspect.opt_func_info(func_name='^(exp|log|sin|cos)$',"
         " signature='float64')\n"
         "print(sorted({f['dd']['current'] for f in info.values()}))")

RUN = ("import contextlib, io, sys\n"
       "from qcb.cli import main\n"
       "for n, argv in enumerate({argvs!r}, 1):\n"
       "    out = io.StringIO()\n"
       "    with contextlib.redirect_stdout(out):\n"
       "        code = main(argv)\n"
       "    open(f'{{n:02d}}.stdout', 'w').write(out.getvalue())\n"
       "    assert code == 0, argv\n")


def environment(extra):
    env = {k: v for k, v in os.environ.items() if k not in SELECTORS}
    return env | {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_VERBOSE": "2"} | extra


@functools.cache
def reference_mismatch():
    """Why this host is not the reference configuration, or None."""
    if len(os.sched_getaffinity(0)) < 2:
        return "fewer than 2 CPUs: the goldens hold on 2 or more OpenBLAS threads"
    probe = subprocess.run([sys.executable, "-c", PROBE], env=environment({}),
                           capture_output=True, text=True, check=True)
    if probe.stderr.strip() != "Core: SkylakeX":
        return f"native OpenBLAS core is not SkylakeX: {probe.stderr.strip()!r}"
    if probe.stdout.strip() != "['X86_V4']":
        return f"numpy's exp/log/sin/cos target is not X86_V4: {probe.stdout.strip()}"
    return None


def cells(name, text):
    """{(column, row): text} of output file ``name``."""
    if name.endswith(".csv"):
        lines = text.splitlines()
        header = {(line[2:].split("=", 1)[0], "#"): line[2:].split("=", 1)[1]
                  for line in lines if line.startswith("# ")}
        rows = [line.split(",") for line in lines if not line.startswith("# ")]
        return header | {(column, n): cell for n, row in enumerate(rows[1:])
                         for column, cell in zip(rows[0], row)}
    if text.startswith("{"):
        return {(key, None): value for key, value in json.loads(text).items()}
    return {(cell.split("=", 1)[0] if "=" in cell else None, None): cell.split("=", 1)[-1]
            for cell in text.split()}


@functools.cache
def emulated(emulation):
    """(stderr, {(file, column, row): (golden text, emulated text)}) of every
    cell of every README output that differs from its golden under
    ``emulation``; a cell missing on one side reads None there."""
    if reason := reference_mismatch():
        pytest.skip(reason)
    with tempfile.TemporaryDirectory() as workdir:
        run = subprocess.run([sys.executable, "-c", RUN.format(argvs=README_ARGVS)],
                             cwd=workdir, env=environment(EMULATIONS[emulation]),
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        names = [f"{n:02d}.stdout" for n in range(1, len(README_ARGVS) + 1)]
        names += [out for argv in README_ARGVS for out in out_names(argv)]
        diff = {}
        for name in names:
            want = cells(name, (GOLDEN / name).read_text())
            got = cells(name, (Path(workdir) / name).read_text())
            diff |= {(name, *cell): (want.get(cell), got.get(cell))
                     for cell in want.keys() | got.keys() if want.get(cell) != got.get(cell)}
    return run.stderr, diff


@pytest.mark.parametrize("emulation", EMULATIONS)
def test_emulated_readme_outputs_match_golden(emulation):
    stderr, diff = emulated(emulation)
    core = EMULATIONS[emulation].get("OPENBLAS_CORETYPE", "SkylakeX")
    # the emulation took, in numpy's OpenBLAS and scipy's, and nothing warned
    assert set(stderr.splitlines()) == {f"Core: {core}"}
    unlisted = {cell: texts for cell, texts in diff.items()
                if (emulation, *cell) not in KNOWN_DIFFERENT}
    assert not unlisted


@pytest.mark.xfail(strict=True, reason="the cells of KNOWN_DIFFERENT, ROADMAP items 12, 21, 23")
@pytest.mark.parametrize("emulation, name, column, row", sorted(KNOWN_DIFFERENT, key=str),
                         ids=[f"{e}:{name}:{column}@{row}"
                              for e, name, column, row in sorted(KNOWN_DIFFERENT, key=str)])
def test_known_different_cells(emulation, name, column, row):
    _, diff = emulated(emulation)
    assert (name, column, row) not in diff
