import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import row_template_writer
from qcb import cli, ed, optomech_stationary, optomech_unitary, output
from qcb.cli import MAX_TABLE_CELLS, _parser, main
from qcb.exceptions import QcbError
from qcb.output import export_table, fmt_value, read_table, write_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "werner", "--f", "-1")
        assert code == 0
        assert out.strip() == "N=0.5 EN=1"

    def test_usage_error_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "werner", "--nope", "1")
        assert code == 2

    def test_usage_error_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "werner", "--f", "-2")
        assert code == 3
        assert "error" in err

    def test_no_output_file_on_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, _, _ = run(capsys, "werner", "--badflag", "--out", str(out))
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["optomech-steady", "--steps", "-2"],
        ["werner", "--grid", "-3"],
        ["gaussian", "--grid", "-3"],
        ["optomech-unitary", "--sweep-t", "-1"],
        ["lde", "thermal", "--jcan", "1e-3", "--tmin", "0", "--tmax", "1e-2"],
        ["ed", "run", "--temps", "abc"],
        ["ed", "run", "--temps", "0"],
        ["optomech-steady", "--kappa", "-5"],
        ["optomech-steady", "--kappa", "0"],
        ["optomech-steady", "--temperature", "-1"],
        # 1/T overflows: no beta
        ["ed", "run", "--L", "8", "--temps", "1e-310"],
        ["lde", "thermal", "--jcan", "1", "--tmin", "1e-320", "--tmax", "1e-319", "--steps", "2"],
        # both probes on one site
        ["ed", "run", "--L", "8", "--probes", "3,3"],
        ["ed", "run", "--lattice", "ladder", "--L", "4", "--probes", "2,2"],
        ["ed", "report", "--L", "6", "--probes", "0,0"],
    ])
    def test_out_of_range_rejected_at_parse_time(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gaussian", "--grid", "100000"],
        ["optomech-steady", "--steps", "1000000000"],
        ["werner", "--grid", str(MAX_TABLE_CELLS // 3 + 1)],
        ["optomech-unitary", "--sweep-t", str(MAX_TABLE_CELLS // 2 + 1)],
        ["lde", "thermal", "--jcan", "1", "--tmin", "0.1", "--tmax", "1",
         "--steps", str(MAX_TABLE_CELLS // 5 + 1)],
    ])
    def test_oversized_table_rejected_at_parse_time(self, capsys, argv):
        # more than MAX_TABLE_CELLS cells: a usage error before any allocation
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "table cells" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gaussian", "--grid", "1000"],
        ["optomech-steady", "--steps", "1000000"],
        ["werner", "--grid", str(MAX_TABLE_CELLS // 3)],
    ])
    def test_large_tables_within_the_bound_parse(self, argv):
        assert _parser().parse_args(argv).run is not None

    @pytest.mark.parametrize("argv", [
        ["lde", "chi", "--model", "aklt", "--r", "1", "--method", "numeric"],
        ["optomech-unitary", "--quantity", "mi-average", "--mi-steps", "256"],
    ])
    def test_no_numerics_flags(self, capsys, argv):
        # AKLT chi has one path and the MI average sizes its own grid
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert argv[-2] in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag, value", [
        (["werner", "--grid", "2"], "--f", "5"),
        (["gaussian", "--grid", "2"], "--n-bar", "1"),
        (["optomech-unitary", "--quantity", "tangle"], "--sweep-t", "3"),
    ])
    def test_flag_of_the_other_output_shape_is_a_usage_error(self, tmp_path, capsys,
                                                             argv, flag, value):
        # a flag that the chosen output shape would not read, from argv or
        # from --config, is refused with both flags named
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag.lstrip('-')} = {value}\n")
        for extra in ([flag, value], ["--config", str(cfg)]):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 2 and out == ""
            assert flag in err and argv[1] in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["gaussian", "--r", "300"],
        ["gaussian", "--n-bar", "1e300"],
        ["optomech-steady", "--steps", "2", "--power", "1e300"],
        ["optomech-steady", "--steps", "2", "--mass", "1e-300"],
        ["optomech-steady", "--steps", "2", "--dmax", "1e300"],
        ["gaussian", "--r", "20"],
        ["ed", "report", "--L", "4", "--alpha", "8.98846567431158e+307"],
        ["gaussian", "--r", "400"],
        ["gaussian", "--grid", "3", "--r-max", "400"],
        ["ed", "run", "--L", "1000000000"],
        ["ed", "report", "--lattice", "ladder", "--L", "1000000000"],
        ["optomech-unitary", "--quantity", "marker", "--n-bar", "1.3753913865555556",
         "--t", "1e-300"],
        *(["optomech-unitary", "--quantity", q, "--alpha", "1e200", "--n-bar", "1"]
          for q in ("entropies", "mi-average", "tangle", "marker")),
        ["optomech-unitary", "--k", "0.4", "--n-bar", "2", "--t", "2.5",
         "--cavity", "0,1,2,3,4,5", "--mirror", ",".join(map(str, range(40, 60)))],
    ])
    def test_overflowing_inputs_are_domain_errors(self, capsys, argv):
        # finite flags whose derived quantities overflow (or, at r = 20,
        # lose det V to rounding): an error, not nan/inf rows or an
        # entangled state printed as separable=1, and no numpy warning.
        # From r = 356 on, cosh(r)^2 overflows the covariance itself; a
        # lattice of 10^9 sites is refused before its bonds are built; at
        # t = 1e-300 the marker block is singular and its det is not finite;
        # an |alpha| of 1e200 is named by its square; the det of the 6 x 20
        # marker block at README command 6's couplings underflows to 0, and
        # its log|det| is named instead of marker=-0.
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("qcb: error:") and err.count("\n") == 1
        if argv[0] == "optomech-unitary" and "--alpha" in argv:
            assert err == "qcb: error: derived |alpha|^2 is not finite; inputs out of range\n"
        if "--cavity" in argv:
            assert err == ("qcb: error: marker determinant underflows: log|det| = -2635.92"
                           " at t = 2.5\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, named", [
        (["optomech-unitary", "--quantity", "tangle", "--k", "1e154"], "log weight"),
        (["optomech-unitary", "--quantity", "negativity", "--k", "1e100", "--t", "1e300"],
         "phase"),
        (["optomech-unitary", "--quantity", "mi", "--k", "1e154", "--t", "2", "--n-bar", "1"],
         "k^2 |eta(t)|^2 (1 + 2 n_bar)"),
        (["optomech-unitary", "--quantity", "mi-average", "--k", "1e154", "--n-bar", "1"],
         "k^2 |eta(t)|^2 (1 + 2 n_bar)"),
        (["optomech-unitary", "--quantity", "marker", "--k", "1e154", "--t", "2"],
         "log weight"),
        (["optomech-unitary", "--quantity", "marker", "--k", "1e150", "--t", "1e10",
          "--mirror", "3,4,5"], "phase"),
        (["optomech-unitary", "--quantity", "entropies", "--k", "1e200", "--n-bar", "1"],
         "k^2 is not finite"),
        *((["lde", "chi", "--model", "aklt", "--r", r], "log10|chi|")
          for r in ("652", "670", "679", "680")),
        (["lde", "chi", "--model", "ring", "--L", "1" + "0" * 400, "--r", "1"],
         "ring size L = 10^400"),
        (["lde", "chi", "--model", "aklt", "--r", "1" + "0" * 400], "separation r = 10^400"),
        *((["lde", "thermal", "--jcan", "1", "--phi", phi, "--eta", eta, "--tmin", "6e-309",
            "--tmax", "1", "--steps", "2"], "log10|J_ab|")
          for phi, eta in (("1.2", "0.3"), ("0.5", "0.1"))),
    ], ids=lambda v: " ".join(v)[:60] if isinstance(v, list) else None)
    def test_overflow_is_named_not_printed(self, capsys, argv, named):
        # a coupling whose square, weight or phase overflows, or an AKLT chi
        # or a J_ab below the smallest normal double, once printed nan, -0, 0,
        # a subnormal or an errno tuple, or ended in a traceback
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("qcb: error:") and err.count("\n") == 1
        assert named in err and "Traceback" not in err

    def test_grid_failure_names_the_point(self, capsys):
        # det V is lost to rounding at r = 9, the 16th point of the 5 x 5 grid
        code, out, err = run(capsys, "gaussian", "--grid", "5", "--r-max", "12",
                             "--nbar-max", "0.5")
        assert code == 3 and out == ""
        assert err == ("qcb: error: V + i sigma/2 has eigenvalue < -1e-10"
                       " at r = 9, n_bar = 0\n")

    @pytest.mark.parametrize("value", ["1e-300", "1e300"])
    @pytest.mark.parametrize("flag", ["--length", "--mass", "--power", "--quality",
                                      "--temperature", "--wavelength", "--finesse",
                                      "--fm", "--kappa"])
    def test_extreme_physical_flags(self, capsys, flag, value):
        """Each physical flag of optomech-steady at 1e-300 and 1e300 exits 0
        or 3.  An exit 3 writes one error line that names what overflowed;
        an exit 0 writes nothing to stderr but, at L or f_m of 1e300, the
        adiabatic warning as one line."""
        code, out, err = run(capsys, "optomech-steady", flag, value, "--steps", "3")
        assert code in (0, 3)
        if code == 3:
            assert out == "" and err.count("\n") == 1
            assert err.startswith(("qcb: error: derived ", "qcb: error: covariance "))
        elif flag in ("--length", "--fm") and value == "1e300":
            assert err == "qcb: warning: adiabatic condition omega_m << pi c / L is marginal\n"
        else:
            assert err == ""

    @pytest.mark.parametrize("argv", [["--length", "1e-80"], ["--quality", "1e-160"],
                                      ["--finesse", "1e-100"], ["--kappa", "1e90"],
                                      ["--kappa", "1e290"], ["--fm", "1e300", "--kappa", "1e200"],
                                      ["--fm", "1e308"], ["--length", "1e-70"],
                                      *(["--quality", f"1e-{e}"] for e in range(110, 160, 10)),
                                      ["--finesse", "1e-60"], ["--finesse", "1e-70"],
                                      ["--kappa", "1e80"]],
                             ids=" ".join)
    def test_overflowing_derived_quantities_are_named(self, capsys, argv):
        """Inputs whose (gamma_m/omega_m)^2, kappa^2, Routh-Hurwitz S1 at zero
        detuning or omega_m = 2 pi f_m overflows end in an error that names
        the derived quantity, not the detuning."""
        code, out, err = run(capsys, "optomech-steady", *argv, "--steps", "3")
        assert code == 3 and out == ""
        assert err.splitlines()[-1].startswith("qcb: error: derived ")


def test_allocation_failure_is_a_domain_error():
    """An input too large to hold in memory ends in exit 3 and one error
    line.  The child runs under a 2 GiB address-space limit, so its 800 MB
    arrays fail to allocate within a second."""
    import resource

    def cap_address_space():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))

    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-m", "qcb.cli", "optomech-steady", "--steps", "100000000"],
        preexec_fn=cap_address_space, timeout=60, capture_output=True, text=True,
        env=os.environ | {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"})
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr.startswith("qcb: error:") and "Traceback" not in result.stderr


def run_in_fresh_process(argv):
    """``qcb`` on ``argv`` in a fresh process with a 10 s timeout: the
    result, with the process's peak RSS in KiB as the last word of stderr.

    The peak is ``VmHWM`` of ``/proc/self/status`` (Linux), which starts
    anew at exec; ``ru_maxrss`` would carry the parent's (pytest's) peak
    across fork and exec."""
    code = ("import sys; from qcb.cli import main; rc = main(sys.argv[1:]); "
            "print(next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('VmHWM:')), file=sys.stderr); sys.exit(rc)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code, *argv], timeout=10,
                          env=os.environ | {"PYTHONPATH": src},
                          capture_output=True, text=True)


def test_mi_at_alpha_1000_ends_in_bounded_time_and_memory():
    """``mi`` at |alpha| = 1000 sums over its Skellam lags (about 13 |alpha|,
    from an O(|alpha|) recurrence), so a fresh process ends within 10 s and
    300 MB."""
    result = run_in_fresh_process(["optomech-unitary", "--quantity", "mi", "--k", "1",
                                   "--alpha", "1000", "--n-bar", "10", "--t", "1"])
    assert result.returncode == 0 and result.stdout.startswith("MI="), result.stderr
    assert int(result.stderr.split()[-1]) < 300 * 1024  # VmHWM in KiB


def test_entropies_at_alpha_1e5_end_in_bounded_time_and_memory():
    """``entropies`` at |alpha| = 1e5 (1.4 million Skellam lags) ends within
    10 s and 300 MB in a fresh process."""
    result = run_in_fresh_process(["optomech-unitary", "--quantity", "entropies", "--k", "1",
                                   "--alpha", "1e5", "--n-bar", "1", "--t", "1"])
    assert result.returncode == 0 and result.stdout.startswith("S_total="), result.stderr
    assert int(result.stderr.split()[-1]) < 300 * 1024  # VmHWM in KiB


def test_cli_import_leaves_out_scipy_stats():
    """Importing the CLI (and with it every module) loads no scipy module:
    each scipy name is imported by the function that calls it, so a command
    that needs none starts without scipy's import time."""
    code = ("import sys, qcb.cli; qcb.cli.build_parser(); "
            "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run([sys.executable, "-c", code], env=os.environ | {"PYTHONPATH": src},
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


class TestFileErrors:
    """Unwritable outputs and unreadable inputs exit 3 without a traceback."""

    def test_ed_report_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code, _, err = run(capsys, "ed", "report", "--L", "6", "--alpha", "0.08",
                           "--probes", "1,4", "--out", str(out))
        assert code == 3 and err.startswith("qcb: error:")

    def test_lde_fit_unwritable_out(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "lde", "thermal", "--jcan", "2e-3", "--tmin", "1e-4",
            "--tmax", "4e-2", "--out", str(data))
        code, _, err = run(capsys, "lde", "fit", "--in", str(data),
                           "--out", str(tmp_path / "missing" / "fit.json"))
        assert code == 3 and err.startswith("qcb: error:")

    def test_lde_fit_missing_input(self, tmp_path, capsys):
        code, _, err = run(capsys, "lde", "fit", "--in", str(tmp_path / "none.csv"))
        assert code == 3 and err.startswith("qcb: error:")

    def test_lde_fit_names_a_json_table(self, tmp_path, capsys):
        """A table written with --format json is refused as such, not as a
        CSV row of the wrong width."""
        data = tmp_path / "ed.json"
        run(capsys, "ed", "run", "--L", "4", "--format", "json", "--out", str(data))
        code, out, err = run(capsys, "lde", "fit", "--in", str(data))
        assert code == 3 and out == ""
        assert err == f"qcb: error: {data} is a JSON table; read_table reads the CSV form\n"


def count_calls(monkeypatch, owner, name):
    """A list that grows by one per call of ``owner.name``."""
    calls, inner = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("argv, counted", [
    (["gaussian", "--grid", "20"], [("gaussian.GaussianState", "__post_init__")]),
    (["werner", "--grid", "100"], [("qstate", "negativity"),
                                   ("qstate.DensityMatrix", "__post_init__")]),
])
def test_grid_commands_make_one_stacked_call(monkeypatch, capsys, argv, counted):
    """A grid is one array call, not one state object per point."""
    import qcb

    tallies = []
    for path, name in counted:
        owner = qcb
        for part in path.split("."):
            owner = getattr(owner, part)
        tallies.append(count_calls(monkeypatch, owner, name))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) > 100
    assert [len(t) for t in tallies] == [1] * len(counted)


class TestWerner:
    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, _ = run(capsys, "werner", "--grid", "10", "--out", str(out))
        assert code == 0
        config, columns, table = read_table(out)
        assert columns == ["f", "N", "EN"]
        assert len(table["N"]) == 10
        assert abs(table["N"][0] - 0.5) < 1e-12   # f = -1
        assert table["N"][-1] == 0.0              # f = 1/3


class TestLde:
    def test_aklt_print(self, capsys):
        code, out, _ = run(capsys, "lde", "chi", "--model", "aklt", "--r", "1")
        assert code == 0 and out.strip() == "2.1"

    def test_ring_requires_geometry(self, capsys):
        assert run(capsys, "lde", "chi", "--model", "ring")[0] == 2

    def test_odd_ring_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "lde", "chi", "--model", "ring", "--L", "3", "--r", "1")
        assert (code, out) == (3, "") and "needs an even L" in err

    def test_thermal_table(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "lde", "thermal", "--jcan", "1e-3",
                         "--phi", "0.01", "--eta", "0", "--tmin", "1e-4",
                         "--tmax", "1e-2", "--steps", "8", "--out", str(out))
        assert code == 0
        config, columns, table = read_table(out)
        assert columns == ["kT", "beta", "J_ab", "correlator", "concurrence"]
        assert len(table["kT"]) == 8
        assert "kT_star_exact" in config

    def test_thermal_never_entangled_an_ulp_from_minus_one(self):
        # -3 + eta + 3 Phi is an ulp below -1, but the correlator that the
        # bisection reads never drops below -1: never entangled, exit 0 (a
        # subprocess with a timeout, so that an endless bracket search fails)
        argv = ["lde", "thermal", "--jcan", "1", "--phi", "0.44082434220621386",
                "--eta", "0.6775269733813583", "--tmin", "0.1", "--tmax", "1",
                "--steps", "2"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-m", "qcb.cli", *argv], timeout=5,
                                env=os.environ | {"PYTHONPATH": src},
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert "# kT_star_exact=nan\n" in result.stdout

    @pytest.mark.parametrize("tmin", ["0.01", "1e-4"])
    def test_thermal_without_corrections_at_low_temperature(self, capsys, tmin):
        # Phi = eta = 0 zeroes the e^(beta J) term of the J_ab denominator;
        # at beta J = 1e4 forming e^(beta J) would overflow
        code, out, err = run(capsys, "lde", "thermal", "--jcan", "1", "--tmin", tmin,
                             "--tmax", "1", "--steps", "2")
        assert code == 0, err
        assert out.splitlines()[-2].split(",")[2] == "0.25"

    def test_thermal_never_separable_is_domain_error(self, capsys):
        # eta = -1: the correlator stays at or below -1 at every temperature,
        # so there is no separability point to bracket
        code, out, err = run(capsys, "lde", "thermal", "--jcan", "1", "--phi", "0.5",
                             "--eta", "-1", "--tmin", "0.1", "--tmax", "1")
        assert code == 3 and out == "" and err.startswith("qcb: error:")

    def test_fit_round_trip(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        run(capsys, "lde", "thermal", "--jcan", "2e-3", "--phi", "0.05",
            "--eta", "0.001", "--tmin", "1e-4", "--tmax", "4e-2",
            "--steps", "12", "--out", str(data))
        code, out, _ = run(capsys, "lde", "fit", "--in", str(data))
        assert code == 0
        fit = json.loads(out)
        assert abs(float(fit["J_can"]) - 2e-3) < 1e-8
        assert abs(float(fit["Phi"]) - 0.05) < 1e-6


class TestEd:
    def test_run_and_report(self, tmp_path, capsys):
        out = tmp_path / "ed.csv"
        code, _, _ = run(capsys, "ed", "run", "--L", "6", "--alpha", "0.08",
                         "--out", str(out))
        assert code == 0
        config, columns, table = read_table(out)
        assert columns == ["kT", "beta", "correlator", "concurrence"]
        assert len(table["kT"]) == 12
        assert config["J_can_exact"] > 0
        code, rep, _ = run(capsys, "ed", "report", "--L", "6", "--alpha", "0.08",
                           "--probes", "1,4")
        assert code == 0
        payload = json.loads(rep)
        assert float(payload["gap_over_jcan"]) > 5.0

    def test_run_at_given_temperatures(self, capsys):
        # --temps gives the kT column as written, and each correlator cell
        # is the library's Boltzmann average at beta = 1/kT
        code, out, _ = run(capsys, "ed", "run", "--L", "4", "--alpha", "0.1",
                           "--temps", "0.05,0.5")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert rows[0] == ["kT", "beta", "correlator", "concurrence"]
        assert [row[0] for row in rows[1:]] == ["0.05", "0.5"]
        want = ed.thermal_correlator_exact(ed.chain(4, 0.1), 1.0 / np.array([0.05, 0.5]))
        assert [row[2] for row in rows[1:]] == [fmt_value(c) for c in want.tolist()]


class TestOptomechUnitary:
    def test_marker_sweep(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = run(capsys, "optomech-unitary", "--quantity", "marker",
                         "--k", "0.3", "--alpha", "0.9", "--n-bar", "0",
                         "--sweep-t", "9", "--out", str(out))
        assert code == 0
        _, columns, table = read_table(out)
        assert columns == ["t", "marker"]
        assert len(table["marker"]) == 9
        assert abs(table["marker"][0]) < 1e-20  # t = 0: product state
        assert max(table["marker"]) > 0.0       # entangled in between

    def test_mi_average_print(self, capsys):
        code, out, _ = run(capsys, "optomech-unitary", "--quantity",
                           "mi-average", "--k", "1", "--alpha", "3",
                           "--n-bar", "2")
        assert code == 0 and out.startswith("MI_av=")

    def test_entropies_print(self, capsys):
        code, out, _ = run(capsys, "optomech-unitary", "--quantity", "entropies",
                           "--k", "0.5", "--alpha", "1.5", "--n-bar", "0.7", "--t", "2")
        assert code == 0
        s_tot, s_cav, s_mir = optomech_unitary.linear_entropies_closed(
            optomech_unitary.OptoUnitaryParams(k=0.5, alpha=1.5, n_bar=0.7, t=2.0))
        assert out == (f"S_total={fmt_value(s_tot)} S_cav={fmt_value(s_cav)} "
                       f"S_mir={fmt_value(s_mir)}\n")
        # the unitary keeps the purity of the initial thermal mirror
        assert abs(s_tot - (1.0 - 1.0 / (2.0 * 0.7 + 1.0))) < 1e-15


class TestOptomechSteady:
    def test_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "optomech-steady", "--steps", "4",
                         "--dmin", "0.5", "--dmax", "2.0", "--out", str(out))
        assert code == 0
        _, columns, table = read_table(out)
        want = ["Delta_over_wm", "alpha_s", "G", "S1", "S2", "stable", "EN",
                "n_eff"] + [f"V{i}{j}" for i in range(1, 5) for j in range(1, 5)]
        assert columns == want
        assert len(table["stable"]) == 4
        assert all(s == 1 for s in table["stable"])

    def test_zero_steps_header_only(self, capsys):
        code, out, _ = run(capsys, "optomech-steady", "--steps", "0")
        assert code == 0
        assert out.splitlines()[-1].startswith("Delta_over_wm,alpha_s,")

    def test_underflowing_thermal_energy_is_zero_occupancy(self, capsys):
        # k_B T underflows to 0 below about 1.8e-301 K: n_bar = 0, as at
        # T = 0 and 1e-300 K, and every other byte as there
        outs = {}
        for t in ("0", "1e-300", "1e-310"):
            code, out, _ = run(capsys, "optomech-steady", "--steps", "2", "--temperature", t)
            assert code == 0 and "# n_bar=0\n" in out
            outs[t] = out.replace(f"# temperature={t}\n", "# temperature=\n")
        assert outs["1e-310"] == outs["1e-300"] == outs["0"]

    @pytest.mark.parametrize("power", ["0.0644", "0.0647", "0.0986", "0.1167"])
    def test_marginal_points_refined_past_the_gate(self, capsys, power):
        # One point of each map missed the 1e-10 ||D|| gate after two plain
        # refinement steps; the compensated steps bring it below.
        code, out, _ = run(capsys, "optomech-steady", "--steps", "2810", "--power", power)
        assert code == 0
        assert sum(not line.startswith("#") for line in out.splitlines()) == 1 + 2810

    def test_residual_failure_names_the_point(self, capsys, monkeypatch):
        # A marginally stable point (S2 ~ 6e-6) that misses the 1e-10 ||D||
        # gate in double and passes it once refined and checked by Dot2.
        # With a compensated gate that refuses every system, the error names
        # the point.
        x = "1.6523317906728372"
        argv = ("optomech-steady", "--power", "0.0797", "--dmin", x, "--dmax", x,
                "--steps", "1")
        assert run(capsys, *argv)[0] == 0

        def refuse(a, d, v):
            residual = optomech_stationary._gate(a, d, v)[0]
            return residual, np.ones(residual.shape, dtype=bool)

        monkeypatch.setattr(optomech_stationary, "_gate_dot2", refuse)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("qcb: error:") and "1.65233" in err


class TestDeterminismAndRoundTrip:
    def test_identical_argv_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["optomech-steady", "--steps", "5", "--dmin", "0.4",
                "--dmax", "2.5"]
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_parse_reemit_byte_identical(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        run(capsys, "werner", "--grid", "25", "--out", str(src))
        config, columns, table = read_table(src)
        text = export_table(table, columns, config)
        assert text.encode() == src.read_bytes()

    def test_structured_array_reads_as_its_columns(self):
        # a structured array and a dict of the same columns give one text
        cols = {"x": [0.1, -0.0, math.nan, 1e300], "stable": [1, 0, 0, 1]}
        records = np.rec.fromarrays(list(cols.values()), names=list(cols))
        for fmt in ("csv", "json"):
            assert (export_table(records, ["stable", "x"], {"n": 4}, fmt)
                    == export_table(cols, ["stable", "x"], {"n": 4}, fmt))

    def test_empty_rows_header_only(self):
        assert export_table({"a": [], "b": []}, ["a", "b"], {"seed": 1}) == "# seed=1\na,b\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "werner", "--grid", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["f", "N", "EN"]
        assert len(payload["rows"]) == 3

    @pytest.mark.parametrize("argv, hint", [
        (["werner", "--f", "-1"], "--grid"),
        (["gaussian", "--r", "1"], "--grid"),
        (["optomech-unitary", "--quantity", "marker"], "--sweep-t"),
        (["optomech-unitary", "--quantity", "tangle", "--sweep-t", "3"], "--sweep-t"),
        (["lde", "chi", "--model", "aklt", "--r", "1"], "one value"),
    ])
    def test_json_of_one_line_result_is_usage_error(self, capsys, argv, hint):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 2 and out == ""
        assert "--format json" in err and hint in err and "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_are_json_whatever_the_format(self, capsys, fmt):
        code, out, _ = run(capsys, "ed", "report", "--L", "4", "--alpha", "0.08",
                           "--probes", "1,2", "--format", fmt)
        assert code == 0 and float(json.loads(out)["J_can_exact"]) > 0

    def test_thread_cap_keeps_output_identical(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["optomech-steady", "--steps", "6", "--dmin", "0.4", "--dmax", "2.5"]
        run(capsys, *argv, "--out", str(a))
        monkeypatch.setenv("QCB_THREADS", "4")
        run(capsys, *argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 1.0\nn-bar = 0.0\n")
        code, out, _ = run(capsys, "gaussian", "--config", str(cfg))
        assert code == 0 and "EN=2" in out
        code, out, _ = run(capsys, "gaussian", "--config", str(cfg),
                           "--r", "0.5")
        assert code == 0 and "EN=1" in out  # flag wins over config

    def test_config_value_differs_from_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.5\n")
        code, out, _ = run(capsys, "gaussian", "--config", str(cfg))
        assert code == 0 and "EN=1" in out

    def test_flag_equal_to_default_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.5\n")
        code, out, _ = run(capsys, "gaussian", "--config", str(cfg), "--r", "1")
        assert code == 0 and "EN=2" in out

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = abc\n")
        code, _, err = run(capsys, "gaussian", "--config", str(cfg))
        assert code == 3 and err.startswith("qcb: error:")
        cfg.write_text("quantity = bogus\n")  # a value outside the flag's choices
        code, _, err = run(capsys, "optomech-unitary", "--config", str(cfg))
        assert code == 3 and err.startswith("qcb: error:") and "bogus" in err

    def test_nested_subcommand_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\nphi = 0.01\n")
        code, out, _ = run(capsys, "lde", "thermal", "--jcan", "1e-3", "--tmin",
                           "1e-4", "--tmax", "1e-2", "--config", str(cfg))
        assert code == 0
        assert "# phi=0.01" in out and "# steps=3" in out
        table = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(table) == 1 + 3  # header and three temperatures

    def test_config_defaults_do_not_reach_a_later_call(self, tmp_path, capsys):
        argv = ["lde", "thermal", "--jcan", "1e-3", "--tmin", "1e-4", "--tmax", "1e-2"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        fresh = subprocess.run([sys.executable, "-m", "qcb.cli", *argv],
                               env=os.environ | {"PYTHONPATH": src},
                               capture_output=True, text=True)
        assert fresh.returncode == 0, fresh.stderr
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\nphi = 0.01\n")
        code, out, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == 0 and "# steps=3" in out
        assert run(capsys, *argv) == (0, fresh.stdout, "")

    def test_config_skips_blank_comment_and_bare_lines(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\nr = 0.5\n# r = 2\nn-bar\n")
        want = run(capsys, "gaussian", "--r", "0.5")
        assert want[0] == 0 and "EN=1" in want[1]
        assert run(capsys, "gaussian", "--config", str(cfg)) == want

    def test_missing_config_file(self, capsys):
        assert run(capsys, "gaussian", "--config", "/nonexistent")[0] == 3

    def test_config_supplies_required_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jcan = 1e-3\ntmin = 1e-4\ntmax = 1e-2\nsteps = 2\n")
        code, out, _ = run(capsys, "lde", "thermal", "--config", str(cfg))
        assert code == 0 and "# jcan=0.001" in out and "# tmin=0.0001" in out
        code, out, _ = run(capsys, "lde", "thermal", "--config", str(cfg),
                           "--jcan", "2e-3")
        assert code == 0 and "# jcan=0.002" in out  # flag wins over config

    def test_config_keys_are_flag_names(self, tmp_path, capsys):
        # a key may name the flag (in) or the attribute it sets (infile)
        data = tmp_path / "t.csv"
        run(capsys, "lde", "thermal", "--jcan", "2e-3", "--tmin", "1e-4",
            "--tmax", "4e-2", "--out", str(data))
        want = run(capsys, "lde", "fit", "--in", str(data))
        assert want[0] == 0
        for key in ("in", "infile"):
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {data}\n")
            assert run(capsys, "lde", "fit", "--config", str(cfg)) == want

    def test_required_flag_missing_from_argv_and_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jcan = 1e-3\ntmin = 1e-4\n")
        code, out, err = run(capsys, "lde", "thermal", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "required: --tmax" in err and "Traceback" not in err


def reference_cell(v) -> str:
    """The per-cell text rule that table rows must reproduce."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.12g}"
    return str(v)


CELL = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1e16, 123456789012.5]),
    st.floats().map(np.float64), st.booleans(), st.integers(), st.text("a,%s ", max_size=3))
FLOAT64 = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                     -2.2250738585072014e-308, 1e300, -1e300]))


@st.composite
def array_tables(draw):
    """Array columns of one drawn length: float64 (with its copy, its
    negation, a 0.0 and a -0.0 column and an all-NaN one), float32, int64
    and bool."""
    n = draw(st.integers(0, 7))

    def cells(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    f64 = np.array(cells(FLOAT64), dtype=np.float64)
    return {"f64": f64, "f64_copy": f64.copy(), "neg": -f64, "zero": np.zeros(n),
            "negzero": -np.zeros(n), "nan": np.full(n, np.nan),
            "f32": np.array(cells(st.floats(width=32)), dtype=np.float32),
            "i64": np.array(cells(st.integers(-2**63, 2**63 - 1)), dtype=np.int64),
            "b": np.array(cells(st.booleans()), dtype=bool)}


# The array columns in an order that puts repeats apart; f64 and i64 twice.
ARRAY_COLUMNS = ["f64", "b", "zero", "negzero", "nan", "f64_copy", "i64", "neg", "f32",
                 "f64", "i64"]


def cli_table(monkeypatch, argv):
    """The (table, columns, config) that the command ``argv`` hands to
    export_table."""
    seen = []

    def record(table, columns, config=None, fmt="csv"):
        seen.append((table, columns, config))
        return export_table(table, columns, config, fmt)

    monkeypatch.setattr(cli, "export_table", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    [call] = seen
    return call


ORACLE_TABLES = [["optomech-steady", "--dmin", "0.2", "--dmax", "3.0", "--steps", "2810",
                  "--power", power] for power in ("0.005", "0.025", "0.075", "0.15")]
ORACLE_TABLES += [["gaussian", "--grid", "20"], ["werner", "--grid", "100"]]
# Tables with list columns: beta, J_ab, concurrence and marker.
ORACLE_TABLES += [
    ["optomech-steady", "--dmin", "0.2", "--dmax", "3.0", "--steps", "281"],
    ["lde", "thermal", "--jcan", "5.07e-4", "--phi", "1.03e-2", "--eta", "6.23e-4",
     "--tmin", "2e-5", "--tmax", "1e-2", "--steps", "24"],
    ["ed", "run", "--lattice", "chain", "--L", "8", "--alpha", "0.05", "--probes", "1,6",
     "--temps", "auto"],
    ["optomech-unitary", "--quantity", "marker", "--k", "0.4", "--alpha", "1", "--n-bar", "2",
     "--t", "2.5", "--mirror", "3,4,5", "--sweep-t", "5"]]


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt_value(math.pi) == "3.14159265359"
        assert fmt_value(1.0) == "1"
        assert fmt_value(float("nan")) == "nan"
        assert fmt_value(True) == "1"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(CELL, min_size=3, max_size=3), max_size=6))
    def test_rows_render_as_fmt_value_cells(self, table):
        """The writer gives each cell the text of fmt_value, in CSV and
        JSON, over floats (nan, +-inf, +-0.0, subnormals, +-1e300), numpy
        float64, bools, ints and strings, homogeneous rows or not, in one
        chunk of rows or several."""
        columns = {c: [cells[i] for cells in table] for i, c in enumerate("abc")}
        for chunk_rows in (output.CHUNK_ROWS, 2):
            with mock.patch.object(output, "CHUNK_ROWS", chunk_rows):
                csv_rows = export_table(columns, ["a", "b", "c"]).splitlines()[1:]
                payload = json.loads(export_table(columns, ["a", "b", "c"], fmt="json"))
            assert csv_rows == [",".join(map(reference_cell, cells)) for cells in table]
            assert payload["rows"] == [list(map(reference_cell, cells)) for cells in table]
        assert all(fmt_value(v) == reference_cell(v) for cells in table for v in cells)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(array_tables())
    def test_array_columns_render_as_fmt_value_cells(self, table):
        """Array columns give each cell the text of fmt_value of its ``tolist``
        value, as the row-template writer does: repeated columns, a 0.0
        column beside a -0.0 one, an all-NaN column, zero rows, and more rows
        than a chunk holds."""
        rows = list(zip(*(table[c].tolist() for c in ARRAY_COLUMNS)))
        for chunk_rows in (output.CHUNK_ROWS, 2):
            with mock.patch.object(output, "CHUNK_ROWS", chunk_rows):
                texts = {fmt: export_table(table, ARRAY_COLUMNS, {"n": len(rows)}, fmt)
                         for fmt in ("csv", "json")}
            assert texts["csv"].splitlines()[2:] == [",".join(map(reference_cell, r))
                                                     for r in rows]
            assert json.loads(texts["json"])["rows"] == [list(map(reference_cell, r))
                                                         for r in rows]
            for fmt, text in texts.items():
                assert text == row_template_writer.export_table(table, ARRAY_COLUMNS,
                                                                {"n": len(rows)}, fmt)

    def test_equal_bytes_of_another_dtype_share_no_text(self):
        """0.0 beside -0.0, and int64 1 beside the float64 of the same bytes
        (5e-324), keep their own texts; an all-NaN column reads nan."""
        ints = np.array([1, 0, 1])
        table = {"zero": np.zeros(3), "negzero": -np.zeros(3), "nan": np.full(3, np.nan),
                 "int": ints, "bits": ints.view(np.float64)}
        text = export_table(table, ["zero", "negzero", "nan", "int", "bits", "zero"])
        assert text.splitlines()[1:] == ["0,-0,nan,1,4.94065645841e-324,0",
                                         "0,-0,nan,0,0,0",
                                         "0,-0,nan,1,4.94065645841e-324,0"]
        assert export_table({k: v[:0] for k, v in table.items()}, ["zero", "nan"]) == (
            "zero,nan\n")

    @pytest.mark.parametrize("dtype", [np.longdouble, np.complex128, object, "U3",
                                       "datetime64[D]"])
    def test_other_dtypes_read_as_their_cells(self, dtype):
        """Arrays whose cells are not Python floats, ints or bools (longdouble,
        complex, object, str, datetime) read as the row-template writer reads
        them: cell by cell, as list columns."""
        table = {"x": np.array([1, 2, 1], dtype=dtype), "y": np.array([1, 2, 1], dtype=dtype)}
        for fmt in ("csv", "json"):
            assert (export_table(table, ["x", "y"], fmt=fmt)
                    == row_template_writer.export_table(table, ["x", "y"], fmt=fmt))

    def test_repeats_are_found_chunk_by_chunk(self):
        """A column equal to another in some chunks of rows only, and NaN
        cells in one chunk only, read as the row-template writer reads them."""
        n = 2 * output.CHUNK_ROWS + 3
        a = np.random.default_rng(0).standard_normal(n)
        b = a.copy()
        b[output.CHUNK_ROWS + 5] = 1.0  # equal to a outside the second chunk
        c = a.copy()
        c[-2:] = np.nan
        table = {"a": a, "b": b, "c": c, "k": np.arange(n), "list": a.tolist()}
        for fmt in ("csv", "json"):
            assert (export_table(table, list(table), {"n": n}, fmt)
                    == row_template_writer.export_table(table, list(table), {"n": n}, fmt))

    @pytest.mark.parametrize("argv", ORACLE_TABLES, ids=lambda argv: " ".join(argv[-4:]))
    def test_cli_tables_equal_the_row_template_writer(self, monkeypatch, argv):
        """The detuning maps of the benchmark (2810 points at 5, 25, 75 and
        150 mW), the README grids and four tables with list columns are
        byte-identical to the row-template writer's, in CSV and JSON."""
        table, columns, config = cli_table(monkeypatch, argv)
        for fmt in ("csv", "json"):
            assert (export_table(table, columns, config, fmt)
                    == row_template_writer.export_table(table, columns, config, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", [{"a": [1, 2, 3], "b": [1.5]},
                                       {"a": np.arange(3), "b": np.ones(1)}])
    def test_columns_of_unequal_length_are_refused(self, table, fmt):
        with pytest.raises(QcbError, match="table columns differ in length: a=3, b=1"):
            export_table(table, ["a", "b"], fmt=fmt)

    def test_unwritable_path(self):
        from qcb.exceptions import QcbError

        with pytest.raises(QcbError):
            write_text("/nonexistent-dir/x.csv", export_table({"a": [1]}, ["a"]))


# ------------------------------------------------------------- argv fuzzing

NUMBER = st.one_of(st.floats().map(repr),
                   st.sampled_from(["0", "-1", "1e-300", "1e300", "abc", ""]))
COUNT = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["x", "1.5"]))
SMALL = st.one_of(st.floats(0.0, 3.0).map(repr), NUMBER)
# r from 356 to 710 overflows cosh(r)^2 but not cosh(r)
SQUEEZING = st.one_of(NUMBER, st.floats(356.0, 710.0).map(repr),
                      st.sampled_from(["356", "400", "709.7"]))
LEVELS = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(
    lambda levels: ",".join(map(str, levels)))
# lde fit inputs that are tables but not fit data: a non-numeric kT or beta
# cell, a row shorter than the header, a beta = 0 row, no correlator column.
MALFORMED_TABLES = {
    "text_kt.csv": "kT,correlator\n1e-3,-1.5\n2e-3,-1\nabc,-0.5\n4e-3,-0.3\n",
    "text_beta.csv": "beta,correlator\n1000,-1.5\nabc,-1\n250,-0.5\n125,-0.3\n",
    "short_row.csv": "beta,correlator\n1000,-1.5\n500\n250,-0.5\n125,-0.3\n",
    "zero_beta.csv": "beta,correlator\n1000,-1.5\n500,-1\n250,-0.5\n0,0\n",
    "no_correlator.csv": "beta,J_ab\n1000,1e-3\n500,1e-3\n250,9e-4\n125,8e-4\n",
}
# An ed lattice of 10^9 sites, to be refused before its bonds are built.
HUGE_L = st.just("1000000000")
# Couplings and times where k^2, the cavity-pair weights and phases, or
# k^2 |eta(t)|^2 (1 + 2 n_bar) overflow.
OVERFLOW_EDGE = st.sampled_from(["1e100", "1e154", "1e160"])
# An integer that no double holds, for lde chi --L and --r.
NO_DOUBLE = st.just("1" + "0" * 400)
# command: (flags always given, optional flags); sizes stay tiny.

FUZZ_COMMANDS = {
    "werner": ({}, {"--f": NUMBER, "--grid": COUNT,
                    "--format": st.sampled_from(["csv", "json"])}),
    "gaussian": ({}, {"--r": SQUEEZING, "--theta": NUMBER, "--n-bar": NUMBER,
                      "--grid": COUNT, "--r-max": SQUEEZING, "--nbar-max": NUMBER}),
    "optomech-unitary": ({"--quantity": st.sampled_from(
        ["marker", "tangle", "negativity", "entropies", "mi", "mi-average"]),
        "--n-bar": SMALL},
        {"--k": st.one_of(SMALL, OVERFLOW_EDGE), "--t": st.one_of(SMALL, OVERFLOW_EDGE),
         "--alpha": st.floats(-3.0, 3.0).map(repr), "--cavity": LEVELS,
         "--mirror": LEVELS, "--sweep-t": st.integers(0, 5).map(str)}),
    "optomech-steady": ({}, {**{f"--{name}": NUMBER for name in (
        "length", "mass", "power", "quality", "temperature", "wavelength",
        "finesse", "fm", "kappa", "dmin", "dmax")}, "--steps": COUNT}),
    "lde thermal": ({"--jcan": NUMBER, "--tmin": NUMBER, "--tmax": NUMBER},
                    {"--phi": NUMBER, "--eta": NUMBER, "--steps": COUNT}),
    "ed run": ({"--L": st.one_of(st.integers(4, 8).map(str), HUGE_L)},
               {"--lattice": st.sampled_from(["chain", "ladder"]),
                "--alpha": NUMBER,
                "--probes": st.sampled_from(["ends", "1,2", "0,9", "a,b", "1"]),
                "--temps": st.one_of(NUMBER, st.sampled_from(["auto", "0.1,0.2"]))}),
    "ed report": ({"--L": st.one_of(st.integers(4, 6).map(str), HUGE_L)},  # 6-8 spins or HUGE_L
                  {"--alpha": NUMBER,
                   "--probes": st.sampled_from(["ends", "1,2", "0,9", "a,b"])}),
    "lde chi": ({"--model": st.sampled_from(["ring", "aklt", "x"])},
                {"--L": st.one_of(COUNT, NO_DOUBLE), "--r": st.one_of(COUNT, NO_DOUBLE)}),
    # --in names a file of fuzz_inputs (missing.csv does not exist)
    "lde fit": ({"--in": st.sampled_from(["thermal.csv", "short.csv", "werner.csv",
                                          "text.csv", "missing.csv",
                                          *MALFORMED_TABLES])},
                {"--kind": st.sampled_from(["correlator", "jab", "x"]),
                 "--format": st.sampled_from(["csv", "json"])}),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input tables for ``lde fit``: a thermal sweep, a two-row one, a table
    without a temperature column, a file that is no table and
    :data:`MALFORMED_TABLES`."""
    d = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in (("thermal.csv", ["lde", "thermal", "--steps", "8"]),
                           ("short.csv", ["lde", "thermal", "--steps", "2"])):
            assert main(argv + ["--jcan", "2e-3", "--phi", "0.05", "--tmin", "1e-4",
                                "--tmax", "4e-2", "--out", str(d / name)]) == 0
        assert main(["werner", "--grid", "4", "--out", str(d / "werner.csv")]) == 0
    (d / "text.csv").write_text("not,a\ntable\n\x00\n")
    for name, text in MALFORMED_TABLES.items():
        (d / name).write_text(text)
    return d


@pytest.mark.parametrize("name", sorted(MALFORMED_TABLES))
def test_malformed_fit_table_exits_3(fuzz_inputs, capsys, name):
    code, out, err = run(capsys, "lde", "fit", "--in", str(fuzz_inputs / name))
    assert code == 3 and out == ""
    assert err.startswith("qcb: error:") and "Traceback" not in err


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    names = list(required) + draw(st.lists(st.sampled_from(sorted(optional)),
                                           unique=True, max_size=4))
    flags = required | optional
    return command.split() + [w for n in names for w in (n, draw(flags[n]))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=fuzz_argv())
def test_argv_fuzz_exit_codes(fuzz_inputs, argv):
    """Every generated argv ends in exit 0, 2 or 3, never a traceback."""
    argv = [str(fuzz_inputs / w) if prev == "--in" else w
            for prev, w in zip([None] + argv, argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
