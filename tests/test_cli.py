"""Tests for the command-line interface: contracts, formats, determinism."""

import csv
import io
import json

import pytest

from noongen import analysis
from noongen.cli import OUTPUT_DIR_ENV, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_method4_json(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--method", "4", "--d", "4", "--N", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "M4"
        assert payload["report"]["generation_probability"] == pytest.approx(0.25)
        assert payload["report"]["balanced"] is True
        assert len(payload["noon_state_rows"]) == 4
        # canonical lexicographic occupation order
        assert payload["noon_state_rows"][0][0] == [0, 0, 0, 4]

    def test_method1_headline(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "generate", "--method", "1", "--d", "4", "--N", "4", "--alpha-sq", "1.0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["generation_probability"] == pytest.approx(
            4.2e-6, rel=0.03
        )
        assert payload["report"]["alpha_sq"] == 1.0

    def test_power_of_two_constraint(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--method", "3", "--d", "3", "--N", "4")
        assert code == 1
        assert out == ""
        assert "power of two" in err

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "generate", "--method", "4", "--d", "2", "--N", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["method"] == "M4"
        assert float(rows[0]["generation_probability"]) == pytest.approx(0.5)
        assert rows[0]["balanced"] == "true"

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--method", "4", "--d", "4")
        assert code == 1
        assert "--N" in err or "N" in err


class TestSweep:
    def test_over_d_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--vary", "d", "--N", "4", "--d-range", "2:8",
            "--methods", "all", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == analysis.SWEEP_CSV_HEADER
        records = list(csv.DictReader(io.StringIO(out)))
        m3_ds = [int(r["d"]) for r in records if r["method"] == "M3"]
        assert m3_ds == [2, 4, 8]
        m1_ds = [int(r["d"]) for r in records if r["method"] == "M1"]
        assert m1_ds == list(range(2, 9))
        # beyond the simulation ceiling the simulation cells are empty
        big = next(r for r in records if r["method"] == "M1" and r["d"] == "8")
        assert big["p_sim"] == "" and big["rel_err"] == ""

    def test_over_n_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--vary", "N", "--d", "4", "--N-range", "2:8",
            "--methods", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["N"] for row in payload] == list(range(2, 9))
        values = [row["p_closed"] for row in payload]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_power_of_two_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--vary", "d", "--N", "4", "--d-range", "2:3", "--methods", "3",
        )
        assert code == 0
        records = list(csv.DictReader(io.StringIO(out)))
        assert [r["d"] for r in records] == ["2"]

    def test_missing_range(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--vary", "d", "--N", "4")
        assert code == 1
        assert "--d-range" in err


class TestVerify:
    def test_default_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith("PASS")
        assert " FAIL" not in out

    def test_corrupted_closed_form_fails(self, capsys, monkeypatch):
        true_fn = analysis.closed_form_probability

        def corrupted(method, d, n, alpha_sq=None):
            return true_fn(method, d, n, alpha_sq) * (1.0 + 1e-6)

        monkeypatch.setattr(analysis, "closed_form_probability", corrupted)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 2
        assert "FAIL" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--methods", "4", "--N-range", "2:3", "--tolerance", "1e-30"
        )
        assert code == 2

    def test_beyond_simulation_limits(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--d-values", "2,8")
        assert code == 1
        assert "simulation limit" in err
        code, _, err = run_cli(capsys, "verify", "--N-range", "2:7")
        assert code == 1
        assert "simulation limit" in err

    def test_reports_every_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--methods", "1,4", "--d-values", "2", "--N-range", "2:3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # 4 points + summary
        assert lines[0].startswith("M1 d=2 N=2")


class TestResources:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(capsys, "resources", "--methods", "all", "--d", "4", "--N", "4")
        assert code == 0
        records = {r["method"]: r for r in csv.DictReader(io.StringIO(out))}
        assert records["M1"]["beam_splitters"] == "8"
        assert records["M1"]["single_photon_inputs"] == "8"
        assert records["M2"]["beam_splitters"] == "11"
        assert records["M3"]["beam_splitters"] == "18"
        assert records["M3"]["spcd_detectors"] == "12"
        assert records["M4"]["beam_splitters"] == "12"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "resources", "--methods", "3", "--d", "4", "--N", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["odd_n_variant"] is True
        assert payload[0]["beam_splitters"] == 27

    def test_invalid_tuple(self, capsys):
        code, _, err = run_cli(capsys, "resources", "--methods", "3", "--d", "5", "--N", "2")
        assert code == 1
        assert "power of two" in err


class TestDeterminismAndIo:
    def test_byte_identical_repeats(self, capsys):
        _, first, _ = run_cli(
            capsys, "sweep", "--vary", "d", "--N", "4", "--d-range", "2:4"
        )
        _, second, _ = run_cli(
            capsys, "sweep", "--vary", "d", "--N", "4", "--d-range", "2:4"
        )
        assert first == second
        _, g1, _ = run_cli(capsys, "generate", "--method", "2", "--d", "3", "--N", "3")
        _, g2, _ = run_cli(capsys, "generate", "--method", "2", "--d", "3", "--N", "3")
        assert g1 == g2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--vary", "d", "--N", "2", "--d-range", "2:3",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(analysis.SWEEP_CSV_HEADER)

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        code, _, _ = run_cli(
            capsys,
            "generate", "--method", "4", "--d", "2", "--N", "2",
            "--format", "csv", "--output", "report.csv",
        )
        assert code == 0
        assert (tmp_path / "report.csv").exists()

    def test_config_file_defaults_and_override(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("method=4\nd=4\nN=4\nformat=csv\n# comment line\n")
        code, out, _ = run_cli(capsys, "--config", str(config), "generate")
        assert code == 0
        assert out.splitlines()[1].startswith("M4,4,4")
        # explicit flag beats the config value
        code, out, _ = run_cli(
            capsys, "--config", str(config), "generate", "--d", "2"
        )
        assert code == 0
        assert out.splitlines()[1].startswith("M4,2,4")

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("mystery=1\n")
        code, _, err = run_cli(capsys, "--config", str(config), "generate")
        assert code == 1
        assert "mystery" in err

    def test_abbreviated_config_key(self, capsys, tmp_path):
        config = tmp_path / "abbrev.cfg"
        config.write_text("method=4\nd=2\nN=2\nform=csv\n")
        code, _, err = run_cli(capsys, "--config", str(config), "generate")
        assert code == 1
        assert "'form'" in err

    @pytest.mark.parametrize(
        "argv",
        [("generate", "--method", "4", "--d", "2", "--N", "2"), ("resources", "--d", "2", "--N", "2")],
    )
    def test_config_values_checked_like_flags(self, capsys, tmp_path, argv):
        config = tmp_path / "xml.cfg"
        config.write_text("format=xml\n")
        code, out, err = run_cli(capsys, "--config", str(config), *argv)
        assert code == 1
        assert out == ""
        assert "invalid choice: 'xml'" in err

    def test_float_rendering_in_csv(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "sweep", "--vary", "d", "--N", "4", "--d-range", "4:4", "--methods", "2",
        )
        record = next(csv.DictReader(io.StringIO(out)))
        # scientific notation below 1e-4, 12 significant digits
        assert record["p_closed"] == "2.14334705075e-05"
