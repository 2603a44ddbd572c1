"""Benchmark workloads: inputs drawn from a seed, the jobs that feed them to
qcb through its public entry points, and the checks on every output.

A job is a timed call (``run``) plus an untimed ``collect`` that turns the
raw result into the bytes compared across passes and a failure message (or
``None``).  Seed 0 reproduces the reference inputs exactly; other seeds draw
inputs of the same size from ranges known to raise no error.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shlex
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
REFERENCE_FILE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
WORKLOADS = ("readme", "spin_bus", "optomech")
QCB_MODULES = ("qstate", "gaussian", "optomech_unitary", "optomech_stationary",
               "spin_lde", "ed", "output", "cli")

# README "Command line" section, in order and with the same argv.  ``--out``
# and ``--in`` names are redirected into the run's work directory.
README_COMMANDS = (
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
)

# Frozen 16-spin probe gap and its tolerance, as pinned by the ED test suite.
PROBE_GAP_JCAN = 7.808983e-4
PROBE_GAP_TOL = 1e-9
MAP_STEPS = 2810
# Power bands [mW] for seeds other than 0: two fully stable sweeps, one
# partly stable and one mostly unstable, as at 5, 25, 75 and 150 mW.  Keeping
# each draw in its band keeps the share of Lyapunov solves, and so the cost
# of a pass, close across seeds.
POWER_BANDS_MW = ((5.0, 15.0), (20.0, 40.0), (65.0, 85.0), (130.0, 150.0))
# Of the 704 powers the bands hold at 0.1 mW, these two make the 2810-step
# sweep stop with "Lyapunov residual ... exceeds 1e-10 * ||D||" (exit code
# 3).  That is a defect of qcb's steady-state check, not of the benchmark;
# a seed that draws one draws again, so that every run measures speed.
UNSOLVED_POWERS_MW = (68.4, 79.7)


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on the import path.

    Exits with status 2 when the checkout holds no qcb sources, so that an
    installed copy elsewhere is never measured instead.
    """
    src = ROOT / "src"
    if not (src / "qcb" / "__init__.py").is_file():
        print(f"bench: no qcb sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def load_qcb() -> dict:
    """Import qcb.cli and every qcb module; returns {short name: module}.

    ``__import__`` (not importlib.import_module) keeps the top-level imports
    visible to ``python -X importtime``.
    """
    mods = {}
    for name in ("cli",) + QCB_MODULES:
        __import__(f"qcb.{name}")
        mods[name] = sys.modules[f"qcb.{name}"]
    if not Path(mods["cli"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: qcb imported from {mods['cli'].__file__}, not src/")
    return mods


@dataclass(frozen=True)
class Job:
    """``collect`` returns (output, failure or None).  The output is bytes,
    which every pass must reproduce exactly, or, for a job with a
    ``tolerance``, a tuple of floats that must agree within it."""

    name: str
    metric: str | None          # per-job time this job adds to, if any
    run: Callable[[], object]   # the timed call
    collect: Callable[[object], tuple[bytes | tuple, str | None]]
    tolerance: float = 0.0


# ------------------------------------------------------------------ inputs


def draw_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; seed 0 gives the reference set."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "readme":
        return {"commands": list(README_COMMANDS)}
    rng = random.Random(f"{workload}:{seed}")

    def draw(lo, hi, digits=4):
        return round(rng.uniform(lo, hi), digits)

    def draw_power(lo, hi):
        while (mw := draw(lo, hi, 1)) in UNSOLVED_POWERS_MW:
            pass
        return mw

    if workload == "spin_bus":
        if seed == DEFAULT_SEED:
            return {"report_alpha": 0.05, "gap_alpha": 0.05}
        return {"report_alpha": draw(0.03, 0.07), "gap_alpha": draw(0.03, 0.07)}
    if seed == DEFAULT_SEED:
        return {"marker": {"k": 0.4, "n_bar": 2.0, "t": 2.5},
                "mi_n_bar": [10.0, 1.0], "powers_mw": [5.0, 25.0, 75.0, 150.0]}
    return {"marker": {"k": draw(0.2, 0.6), "n_bar": draw(0.0, 3.0), "t": draw(0.5, 6.0)},
            "mi_n_bar": [draw(1.0, 10.0), draw(1.0, 10.0)],
            "powers_mw": [draw_power(lo, hi) for lo, hi in POWER_BANDS_MW]}


def make_jobs(workload: str, seed: int, mods: dict, workdir: Path,
              ref: dict | None = None) -> list[Job]:
    """Build the workload's jobs; library inputs are constructed here.

    ``ref`` maps job names to frozen results (see :func:`load_reference`);
    jobs without an entry get the invariant checks only.
    """
    inputs = draw_inputs(workload, seed)
    ref = ref or {}
    if workload == "readme":
        return [_readme_job(i, cmd, mods, workdir)
                for i, cmd in enumerate(inputs["commands"], 1)]
    if workload == "spin_bus":
        return _spin_bus_jobs(inputs, mods, ref)
    return _optomech_jobs(inputs, mods, ref)


def load_reference() -> dict:
    """Seed-0 results of the scaled-up jobs, frozen by freeze.py."""
    return json.loads(REFERENCE_FILE.read_text())


def cli_call(mods: dict, argv: list[str]) -> tuple[int, str]:
    """qcb.cli.main(argv) with stdout captured; looked up at call time so a
    tracing wrapper installed on the module is honoured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods["cli"].main(argv)
    return rc, buf.getvalue()


def _num(x: float) -> str:
    return repr(float(x))


# ------------------------------------------------------------------ readme


def _readme_argv(cmd: str, workdir: Path) -> tuple[list[str], list[str]]:
    """(argv with file names moved into workdir, names of the --out files)."""
    words = shlex.split(cmd)
    outs = [w for prev, w in zip(words, words[1:]) if prev == "--out"]
    argv = [str(workdir / w) if prev in ("--out", "--in") else w
            for prev, w in zip([None] + words, words)]
    return argv, outs


def _readme_job(i: int, cmd: str, mods: dict, workdir: Path) -> Job:
    argv, outs = _readme_argv(cmd, workdir)
    return Job(f"readme{i:02d}", None, partial(cli_call, mods, argv),
               partial(_collect_readme, i, outs, workdir))


def _collect_readme(i, outs, workdir, raw):
    rc, stdout = raw
    produced = {f"{i:02d}.stdout": stdout.encode()}
    for name in outs:
        path = workdir / name
        produced[name] = path.read_bytes() if path.is_file() else b""
    if rc != 0:
        return b"".join(produced.values()), f"exit code {rc}"
    bad = [name for name, data in produced.items()
           if data != (GOLDEN_DIR / name).read_bytes()]
    return b"".join(produced.values()), (f"differs from golden: {', '.join(bad)}"
                                         if bad else None)


# ---------------------------------------------------------------- spin_bus


def _spin_bus_jobs(inputs, mods, ref) -> list[Job]:
    ed = mods["ed"]
    argv = ["ed", "report", "--L", "10", "--alpha", _num(inputs["report_alpha"]),
            "--probes", "1,8"]
    spec = ed.chain(14, inputs["gap_alpha"], probes=(1, 12))
    return [
        Job("scorecard", "scorecard_s", partial(cli_call, mods, argv),
            partial(_collect_scorecard, ref.get("scorecard"))),
        # eigsh draws a new start vector on every call, so repeated calls in
        # one process agree only to about 1e-13: compare at the test tolerance.
        Job("probe_gap", "probe_gap_s", lambda: mods["ed"].low_spectrum_jcan(spec),
            partial(_collect_probe_gap, bool(ref)), tolerance=PROBE_GAP_TOL),
    ]


def scorecard_fields(raw) -> dict:
    rc, stdout = raw
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return {k: (v if v is None or k == "lattice" else float(v))
            for k, v in json.loads(stdout).items()}


def _collect_scorecard(ref, raw):
    payload = raw[1].encode()
    try:
        rep = scorecard_fields(raw)
    except ValueError as exc:
        return payload, str(exc)
    problems = []
    if not (rep["J_can_exact"] > 0 and rep["robust_gap"] > 0):
        problems.append("probe gap not positive")
    for key in ("corr_T0_exact", "corr_T0_model"):
        if not -3.0 <= rep[key] <= 1.0:
            problems.append(f"{key} outside [-3, 1]")
    # The three-parameter model's residual grows with alpha: 2e-8 at 0.05,
    # 2.6e-5 at 0.07, the top of the drawn range.
    if not rep["fit_rms_residual"] < 1e-4:
        problems.append(f"fit RMS {rep['fit_rms_residual']} >= 1e-4")
    if ref is not None:
        for key, want in ref.items():
            got = rep.get(key)
            same = (got == want if not isinstance(want, float)
                    else abs(got - want) <= 1e-6 * abs(want) + 1e-9)
            if not same:
                problems.append(f"{key}={got} vs reference {want}")
    return payload, "; ".join(problems) or None


def _collect_probe_gap(is_default, raw):
    j_can, gap = payload = raw
    if not (j_can > 0 and gap > 0):
        return payload, f"probe gap not positive: {raw}"
    if is_default and abs(j_can - PROBE_GAP_JCAN) >= PROBE_GAP_TOL:
        return payload, f"J_can={j_can} vs frozen {PROBE_GAP_JCAN}"
    return payload, None


# ---------------------------------------------------------------- optomech


def _optomech_jobs(inputs, mods, ref) -> list[Job]:
    ou = mods["optomech_unitary"]
    m = inputs["marker"]
    p = ou.OptoUnitaryParams(k=m["k"], alpha=1.0, n_bar=m["n_bar"], t=m["t"])
    sel = ou.SubspaceSelector(tuple(range(6)), tuple(range(40, 60)))
    jobs = [Job("marker", "marker_s",
                lambda: mods["optomech_unitary"].projected_density(p, sel, normalize=False),
                partial(_collect_marker, ref.get("marker")))]
    for n_bar in inputs["mi_n_bar"]:
        argv = ["optomech-unitary", "--quantity", "mi-average", "--k", "1",
                "--alpha", "10", "--n-bar", _num(n_bar)]
        name = f"mi_average@{_num(n_bar)}"
        jobs.append(Job(name, "mi_average_s", partial(cli_call, mods, argv),
                        partial(_collect_mi, ref.get(name))))
    for mw in inputs["powers_mw"]:
        argv = ["optomech-steady", "--dmin", "0.2", "--dmax", "3.0",
                "--steps", str(MAP_STEPS), "--power", f"{mw / 1000:.6g}"]
        name = f"map@{_num(mw)}mW"
        jobs.append(Job(name, "map_s", partial(cli_call, mods, argv),
                        partial(_collect_map, ref.get(name))))
    return jobs


def marker_summary(raw) -> dict:
    """Trace and Frobenius norm of the raw projected block.  The marker
    itself is not used: the 120 x 120 determinant underflows to -0."""
    return {"trace": float(np.trace(raw).real), "frobenius": float(np.linalg.norm(raw))}


def _collect_marker(ref, raw):
    payload = raw.tobytes()
    problems = []
    scale = float(np.abs(raw).max())
    if float(np.abs(raw - raw.conj().T).max()) > 1e-12 * scale:
        problems.append("projected block is not Hermitian")
    diag = np.diag(raw)
    if float(np.abs(diag.imag).max()) > 1e-12 * scale or float(diag.real.min()) < -1e-12 * scale:
        problems.append("diagonal is not real and non-negative")
    s = marker_summary(raw)
    if not 0.0 < s["trace"] <= 1.0:
        problems.append(f"trace {s['trace']} outside (0, 1]")
    if ref is not None:
        for key, want in ref.items():
            if abs(s[key] - want) > 1e-9 * abs(want):
                problems.append(f"{key}={s[key]} vs reference {want}")
    return payload, "; ".join(problems) or None


def mi_value(raw) -> float:
    rc, stdout = raw
    if rc != 0 or not stdout.startswith("MI_av="):
        raise ValueError(f"exit code {rc}, output {stdout[:40]!r}")
    return float(stdout.strip().split("=", 1)[1])


def _collect_mi(ref, raw):
    payload = raw[1].encode()
    try:
        mi = mi_value(raw)
    except ValueError as exc:
        return payload, str(exc)
    if not 0.0 <= mi <= 1.0:
        return payload, f"MI {mi} outside [0, 1]"
    if ref is not None and abs(mi - ref) > 1e-9 * abs(ref):
        return payload, f"MI {mi} vs reference {ref}"
    return payload, None


def map_summary(raw) -> dict:
    """Checks the sweep row by row and returns its stable count and sums."""
    rc, stdout = raw
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    rows = list(csv.DictReader(l for l in stdout.splitlines() if not l.startswith("#")))
    if len(rows) != MAP_STEPS:
        raise ValueError(f"{len(rows)} rows, expected {MAP_STEPS}")
    stable, en_sum, neff_sum = 0, 0.0, 0.0
    for row in rows:
        s1, s2, en, neff = (float(row[k]) for k in ("S1", "S2", "EN", "n_eff"))
        ok = s1 > 0.0 and s2 > 0.0
        if int(row["stable"]) != ok:
            raise ValueError(f"stable flag disagrees with S1, S2 at {row['Delta_over_wm']}")
        if ok:
            if not (en >= 0.0 and math.isfinite(neff)):
                raise ValueError(f"EN={en}, n_eff={neff} at {row['Delta_over_wm']}")
            stable += 1
            en_sum += en
            neff_sum += neff
        elif not (math.isnan(en) and math.isnan(neff)):
            raise ValueError(f"unstable point with values at {row['Delta_over_wm']}")
    return {"stable": stable, "EN_sum": en_sum, "n_eff_sum": neff_sum}


def _collect_map(ref, raw):
    payload = raw[1].encode()
    try:
        s = map_summary(raw)
    except ValueError as exc:
        return payload, str(exc)
    if ref is not None:
        if s["stable"] != ref["stable"]:
            return payload, f"{s['stable']} stable points vs reference {ref['stable']}"
        for key in ("EN_sum", "n_eff_sum"):
            if abs(s[key] - ref[key]) > 1e-9 * abs(ref[key]):
                return payload, f"{key}={s[key]} vs reference {ref[key]}"
    return payload, None
