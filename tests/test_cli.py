import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcb.cli import main
from qcb.output import export_table, fmt_value, read_table


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
    ])
    def test_out_of_range_rejected_at_parse_time(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "usage:" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["gaussian", "--r", "300"],
        ["gaussian", "--n-bar", "1e300"],
        ["optomech-steady", "--steps", "2", "--power", "1e300"],
        ["optomech-steady", "--steps", "2", "--mass", "1e-300"],
        ["optomech-steady", "--steps", "2", "--dmax", "1e300"],
        ["gaussian", "--r", "20"],
        ["ed", "report", "--L", "4", "--alpha", "8.98846567431158e+307"],
    ])
    def test_overflowing_inputs_are_domain_errors(self, capsys, argv):
        # finite flags whose derived quantities overflow (or, at r = 20,
        # lose det V to rounding): an error, not nan/inf rows or an
        # entangled state printed as separable=1, and no numpy warning
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("qcb: error:") and "Traceback" not in err


def test_cli_import_leaves_out_scipy_stats():
    """Importing the CLI (and with it every module) stays off scipy.stats,
    whose import is a large share of the start-up time."""
    code = ("import sys, qcb.cli; qcb.cli.build_parser(); "
            "sys.exit('scipy.stats' in sys.modules)")
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


class TestWerner:
    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        code, _, _ = run(capsys, "werner", "--grid", "10", "--out", str(out))
        assert code == 0
        config, columns, rows = read_table(out)
        assert columns == ["f", "N", "EN"]
        assert len(rows) == 10
        assert abs(rows[0]["N"] - 0.5) < 1e-12   # f = -1
        assert rows[-1]["N"] == 0.0              # f = 1/3


class TestLde:
    def test_aklt_print(self, capsys):
        code, out, _ = run(capsys, "lde", "chi", "--model", "aklt", "--r", "1")
        assert code == 0 and out.strip() == "2.1"

    def test_ring_requires_geometry(self, capsys):
        assert run(capsys, "lde", "chi", "--model", "ring")[0] == 2

    def test_thermal_table(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "lde", "thermal", "--jcan", "1e-3",
                         "--phi", "0.01", "--eta", "0", "--tmin", "1e-4",
                         "--tmax", "1e-2", "--steps", "8", "--out", str(out))
        assert code == 0
        config, columns, rows = read_table(out)
        assert columns == ["kT", "beta", "J_ab", "correlator", "concurrence"]
        assert len(rows) == 8
        assert "kT_star_exact" in config

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
        config, columns, rows = read_table(out)
        assert columns == ["kT", "beta", "correlator", "concurrence"]
        assert len(rows) == 12
        assert config["J_can_exact"] > 0
        code, rep, _ = run(capsys, "ed", "report", "--L", "6", "--alpha", "0.08",
                           "--probes", "1,4")
        assert code == 0
        payload = json.loads(rep)
        assert float(payload["gap_over_jcan"]) > 5.0


class TestOptomechUnitary:
    def test_marker_sweep(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code, _, _ = run(capsys, "optomech-unitary", "--quantity", "marker",
                         "--k", "0.3", "--alpha", "0.9", "--n-bar", "0",
                         "--sweep-t", "9", "--out", str(out))
        assert code == 0
        _, columns, rows = read_table(out)
        assert columns == ["t", "marker"]
        assert len(rows) == 9
        assert abs(rows[0]["marker"]) < 1e-20        # t = 0: product state
        assert max(r["marker"] for r in rows) > 0.0  # entangled in between

    def test_mi_average_print(self, capsys):
        code, out, _ = run(capsys, "optomech-unitary", "--quantity",
                           "mi-average", "--k", "1", "--alpha", "3",
                           "--n-bar", "2")
        assert code == 0 and out.startswith("MI_av=")


class TestOptomechSteady:
    def test_csv_columns(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "optomech-steady", "--steps", "4",
                         "--dmin", "0.5", "--dmax", "2.0", "--out", str(out))
        assert code == 0
        _, columns, rows = read_table(out)
        want = ["Delta_over_wm", "alpha_s", "G", "S1", "S2", "stable", "EN",
                "n_eff"] + [f"V{i}{j}" for i in range(1, 5) for j in range(1, 5)]
        assert columns == want
        assert len(rows) == 4
        assert all(r["stable"] == 1 for r in rows)

    def test_zero_steps_header_only(self, capsys):
        code, out, _ = run(capsys, "optomech-steady", "--steps", "0")
        assert code == 0
        assert out.splitlines()[-1].startswith("Delta_over_wm,alpha_s,")

    def test_residual_failure_names_the_point(self, capsys):
        # A marginally stable point (S2 ~ 6e-6) whose Lyapunov residual
        # misses the 1e-10 ||D|| gate.
        x = "1.6523317906728372"
        code, _, err = run(capsys, "optomech-steady", "--power", "0.0797",
                           "--dmin", x, "--dmax", x, "--steps", "1")
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
        config, columns, rows = read_table(src)
        text = export_table(rows, columns, config)
        assert text.encode() == src.read_bytes()

    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        export_table([], ["a", "b"], {"seed": 1}, out)
        assert out.read_text() == "# seed=1\na,b\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "werner", "--grid", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["f", "N", "EN"]
        assert len(payload["rows"]) == 3

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

    def test_nested_subcommand_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\nphi = 0.01\n")
        code, out, _ = run(capsys, "lde", "thermal", "--jcan", "1e-3", "--tmin",
                           "1e-4", "--tmax", "1e-2", "--config", str(cfg))
        assert code == 0
        assert "# phi=0.01" in out and "# steps=3" in out
        table = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(table) == 1 + 3  # header and three temperatures

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


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt_value(math.pi) == "3.14159265359"
        assert fmt_value(1.0) == "1"
        assert fmt_value(float("nan")) == "nan"
        assert fmt_value(True) == "1"

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(CELL, min_size=3, max_size=3), max_size=6))
    def test_rows_render_as_fmt_value_cells(self, table):
        """The row templates give each cell the text of fmt_value, in CSV and
        JSON, over floats (nan, +-inf, +-0.0, subnormals, +-1e300), numpy
        float64, bools, ints and strings, homogeneous rows or not."""
        rows = [dict(zip("abc", cells)) for cells in table]
        csv_rows = export_table(rows, ["a", "b", "c"]).splitlines()[1:]
        assert csv_rows == [",".join(map(reference_cell, cells)) for cells in table]
        payload = json.loads(export_table(rows, ["a", "b", "c"], fmt="json"))
        assert payload["rows"] == [list(map(reference_cell, cells)) for cells in table]
        assert all(fmt_value(v) == reference_cell(v) for cells in table for v in cells)

    def test_unwritable_path(self):
        from qcb.exceptions import QcbError

        with pytest.raises(QcbError):
            export_table([{"a": 1}], ["a"], {}, "/nonexistent-dir/x.csv")


# ------------------------------------------------------------- argv fuzzing

NUMBER = st.one_of(st.floats().map(repr),
                   st.sampled_from(["0", "-1", "1e-300", "1e300", "abc", ""]))
COUNT = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["x", "1.5"]))
SMALL = st.one_of(st.floats(0.0, 3.0).map(repr), NUMBER)
LEVELS = st.lists(st.integers(0, 6), min_size=1, max_size=3).map(
    lambda levels: ",".join(map(str, levels)))
# command: (flags always given, optional flags); sizes stay tiny.
FUZZ_COMMANDS = {
    "werner": ({}, {"--f": NUMBER, "--grid": COUNT,
                    "--format": st.sampled_from(["csv", "json"])}),
    "gaussian": ({}, {"--r": NUMBER, "--theta": NUMBER, "--n-bar": NUMBER,
                      "--grid": COUNT, "--r-max": NUMBER, "--nbar-max": NUMBER}),
    "optomech-unitary": ({"--quantity": st.sampled_from(
        ["marker", "tangle", "negativity", "entropies", "mi", "mi-average"]),
        "--n-bar": SMALL},
        {"--k": SMALL, "--t": SMALL,
         "--alpha": st.floats(-3.0, 3.0).map(repr), "--cavity": LEVELS,
         "--mirror": LEVELS, "--sweep-t": st.integers(0, 5).map(str),
         "--mi-steps": st.sampled_from(["63", "64"])}),
    "optomech-steady": ({}, {**{f"--{name}": NUMBER for name in (
        "length", "mass", "power", "quality", "temperature", "wavelength",
        "finesse", "fm", "kappa", "dmin", "dmax")}, "--steps": COUNT}),
    "lde thermal": ({"--jcan": NUMBER, "--tmin": NUMBER, "--tmax": NUMBER},
                    {"--phi": NUMBER, "--eta": NUMBER, "--steps": COUNT}),
    "ed run": ({"--L": st.integers(4, 8).map(str)},
               {"--lattice": st.sampled_from(["chain", "ladder"]),
                "--alpha": NUMBER,
                "--probes": st.sampled_from(["ends", "1,2", "0,9", "a,b", "1"]),
                "--temps": st.one_of(NUMBER, st.sampled_from(["auto", "0.1,0.2"]))}),
    "ed report": ({"--L": st.integers(4, 6).map(str)},  # chains of 6-8 spins
                  {"--alpha": NUMBER,
                   "--probes": st.sampled_from(["ends", "1,2", "0,9", "a,b"])}),
    "lde chi": ({"--model": st.sampled_from(["ring", "aklt", "x"])},
                {"--L": COUNT, "--r": COUNT,
                 "--method": st.sampled_from(["closed", "numeric", "x"])}),
    # --in names a file of fuzz_inputs (missing.csv does not exist)
    "lde fit": ({"--in": st.sampled_from(["thermal.csv", "short.csv", "werner.csv",
                                          "text.csv", "missing.csv"])},
                {"--kind": st.sampled_from(["correlator", "jab", "x"]),
                 "--format": st.sampled_from(["csv", "json"])}),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Input tables for ``lde fit``: a thermal sweep, a two-row one, a table
    without a temperature column and a file that is no table."""
    d = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in (("thermal.csv", ["lde", "thermal", "--steps", "8"]),
                           ("short.csv", ["lde", "thermal", "--steps", "2"])):
            assert main(argv + ["--jcan", "2e-3", "--phi", "0.05", "--tmin", "1e-4",
                                "--tmax", "4e-2", "--out", str(d / name)]) == 0
        assert main(["werner", "--grid", "4", "--out", str(d / "werner.csv")]) == 0
    (d / "text.csv").write_text("not,a\ntable\n\x00\n")
    return d


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
