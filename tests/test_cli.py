import json
import math

import pytest

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

    def test_missing_config_file(self, capsys):
        assert run(capsys, "gaussian", "--config", "/nonexistent")[0] == 3


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt_value(math.pi) == "3.14159265359"
        assert fmt_value(1.0) == "1"
        assert fmt_value(float("nan")) == "nan"
        assert fmt_value(True) == "1"

    def test_unwritable_path(self):
        from qcb.exceptions import QcbError

        with pytest.raises(QcbError):
            export_table([{"a": 1}], ["a"], {}, "/nonexistent-dir/x.csv")
