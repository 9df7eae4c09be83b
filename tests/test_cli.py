"""Tests for the command-line interface: contracts, formats, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noongen
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
        # component j is the amplitude of all N photons in mode j
        assert payload["report"]["component_amplitudes"] == [[0.25, 0.0]] * 4

    def test_json_grows_linearly_in_d(self, capsys):
        # Each of the d components is printed once, as one [re, im] pair.
        code, out, _ = run_cli(capsys, "generate", "--method", "4", "--d", "2048", "--N", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"method", "report"}
        assert len(payload["report"]["component_amplitudes"]) == 2048
        assert len(out.encode()) < 250_000

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

    @pytest.mark.parametrize(
        "argv, row",
        [(("--d", "3", "--N", "3", "--alpha-sq", "0"), "M1,3,3,0,0,false,0")],
    )
    def test_all_zero_report_is_not_balanced(self, capsys, argv, row):
        # Every NOON component is 0: at alpha 0 there are no photons. Equal
        # zeros are no balanced state.
        code, out, _ = run_cli(capsys, "generate", "--method", "1", *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == row

    @pytest.mark.parametrize(
        "method, d, n, row",
        [
            (1, 12, 12, "M1,12,12,1,1.71491062026e-28,true,0"),
            (2, 16, 12, "M2,16,12,,2.63766126428e-32,true,0"),
        ],
    )
    def test_filtration_below_the_amplitude_floor(self, capsys, method, d, n, row):
        # Components of about 3.8e-15 and 4.1e-17, below the cascade's 1e-14
        # amplitude floor, give the closed form.
        argv = ("--method", str(method), "--d", str(d), "--N", str(n))
        code, out, _ = run_cli(capsys, "generate", *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == row
        assert float(row.split(",")[4]) == pytest.approx(
            analysis.closed_form_probability(method, d, n), rel=1e-9, abs=0.0
        )

    def test_pass_through_below_the_floor_is_an_error(self, capsys):
        # At N = 40 the generator's vacuum pass-through (7.8e-15) is below
        # the absolute amplitude floor, so its vacuum table is empty.
        code, out, err = run_cli(capsys, "generate", "--method", "3", "--d", "2", "--N", "40")
        assert code == 1
        assert out == ""
        assert err == (
            "error: the generator's vacuum pass-through at N = 40 is below"
            " PRUNE_THRESHOLD = 1e-14\n"
        )

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

    @pytest.mark.parametrize("error, code", [(2e-9, 2), (5e-10, 0)])
    def test_fixed_gate(self, capsys, monkeypatch, error, code):
        # Every point is judged at a relative error of 1e-9.
        true_fn = analysis.closed_form_probability

        def shifted(method, d, n, alpha_sq=None):
            return true_fn(method, d, n, alpha_sq) * (1.0 + error)

        monkeypatch.setattr(analysis, "closed_form_probability", shifted)
        argv = ("--methods", "4", "--d-values", "2", "--N-range", "2:2")
        assert run_cli(capsys, "verify", *argv)[0] == code

    def test_default_tolerance(self, capsys):
        # verify judges every point at one fixed relative gate, 1e-9.
        code, out, _ = run_cli(capsys, "verify", "--methods", "2", "--d-values", "2")
        assert code == 0
        assert out.splitlines()[-1].endswith(" tolerance=1.00000000000e-09 -> PASS")

    def test_zero_closed_form(self, capsys):
        # alpha = 0: the closed form and the simulation are both exactly 0,
        # and the relative error reads 0 rather than 0/0.
        code, out, _ = run_cli(
            capsys,
            "verify", "--methods", "1", "--d-values", "2", "--N-range", "2:3",
            "--alpha-sq", "0",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith(" rel_err=0 ok") for line in lines[:2])
        assert lines[2].endswith("-> PASS")

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

    @pytest.mark.parametrize("name", ["missing/report.csv", "."])
    def test_unwritable_output_is_an_error(self, capsys, tmp_path, name):
        # A path in a missing directory, and a directory: exit 1 and one
        # error line, no traceback.
        target = tmp_path / name
        code, out, err = run_cli(
            capsys,
            "generate", "--method", "4", "--d", "2", "--N", "2",
            "--output", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write output file {target}: ")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--method", "4", "--d", "2", "--N", "2"),
            ("verify", "--methods", "4", "--d-values", "2", "--N-range", "2:2"),
        ],
    )
    def test_tolerance_config_key_is_unknown(self, capsys, tmp_path, argv):
        config = tmp_path / "tolerance.cfg"
        config.write_text("tolerance=1e-3\n")
        code, out, err = run_cli(capsys, "--config", str(config), *argv)
        assert code == 1
        assert out == ""
        assert err == "error: unknown config key 'tolerance'\n"

    def test_config_equals_form(self, capsys, tmp_path):
        # ``--config=FILE`` reads the file as ``--config FILE`` does.
        config = tmp_path / "run.cfg"
        config.write_text("method=4\nd=4\nN=4\nformat=csv\n")
        code, spaced, _ = run_cli(capsys, "--config", str(config), "generate")
        assert code == 0
        code, joined, _ = run_cli(capsys, f"--config={config}", "generate")
        assert code == 0
        assert joined == spaced
        assert joined.splitlines()[1].startswith("M4,4,4")

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


# Prints the modules a fresh interpreter loads to import the CLI and run ARGV.
_LOADED_PROBE = """
import sys
pre = set(sys.modules)
import noongen.cli
code = noongen.cli.main(ARGV) if ARGV else 0
print(*sorted(set(sys.modules) - pre))
sys.exit(code)
"""


def loaded_modules(*argv) -> set[str]:
    src = str(Path(noongen.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE.replace("ARGV", repr(list(argv)))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


class TestStartUp:
    """What a fresh ``noongen`` process loads: start-up is most of a request."""

    def test_import_loads_neither_dataclasses_nor_json(self):
        loaded = loaded_modules()
        assert "noongen.cli" in loaded
        assert not loaded & {"dataclasses", "json"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--method", "1", "--d", "3", "--N", "3", "--format", "csv"),
            ("sweep", "--vary", "d", "--N", "2", "--d-range", "2:3"),
            ("verify", "--d-values", "2", "--N-range", "2:3"),
            ("resources", "--d", "4", "--N", "4"),
        ],
    )
    def test_csv_and_verify_never_load_json(self, argv):
        assert "json" not in loaded_modules(*argv)

    def test_json_output_loads_json(self):
        argv = ("generate", "--method", "1", "--d", "3", "--N", "3", "--format", "json")
        assert "json" in loaded_modules(*argv)


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--methods", "3", "--d-values", "3"),
            ("sweep", "--vary", "N", "--d", "3", "--N-range", "2:4", "--methods", "3"),
        ],
    )
    def test_empty_grid_fails(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "power-of-two" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--method", "1", "--d", "2", "--N", "2"),
            ("verify", "--methods", "1", "--d-values", "2", "--N-range", "2:3"),
            ("sweep", "--vary", "N", "--d", "2", "--N-range", "1:3", "--methods", "1"),
        ],
    )
    def test_bad_alpha_sq(self, capsys, argv, value):
        code, out, err = run_cli(capsys, *argv, "--alpha-sq", value)
        assert code == 1
        assert out == ""
        assert "alpha_sq must be finite and non-negative" in err

    def test_generate_takes_no_tolerance(self, capsys):
        # The NOON report's threshold is fixed at 1e-10.
        code, out, err = run_cli(
            capsys, "generate", "--method", "4", "--d", "2", "--N", "2", "--tolerance", "1e-3"
        )
        assert code == 1
        assert out == ""
        assert err == "error: unrecognized arguments: --tolerance 1e-3\n"

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            (
                None,
                ("generate", "--method", "4", "--d", "2", "--N", "2", "--config"),
                "--config requires a file path",
            ),
            ("method=4\n", ("--config", "{config}"), "--config requires a subcommand"),
            (None, ("--config", "{config}", "generate"), "cannot read config file {config}: "),
            (
                "method 4\n",
                ("--config", "{config}", "generate"),
                "{config}:1: expected key=value, got 'method 4'",
            ),
            (None, ("verify", "--methods", "1,x"), "invalid method list '1,x'"),
            (
                None,
                ("sweep", "--vary", "d", "--N", "4", "--d-range", "4:2"),
                "invalid --d-range '4:2'; expected lo:hi or a,b,c",
            ),
            (None, ("sweep", "--vary", "N", "--d", "2"), "sweep --vary N requires --d and --N-range"),
            (
                None,
                ("sweep", "--vary", "N", "--N-range", "2:3"),
                "sweep --vary N requires --d and --N-range",
            ),
            # verify judges every point at one fixed gate, so it takes no
            # --tolerance.
            (
                None,
                ("verify", "--methods", "4", "--d-values", "2", "--N-range", "2:2",
                 "--tolerance", "1e-3"),
                "unrecognized arguments: --tolerance 1e-3",
            ),
            # verify prints text lines only, so it takes no --format.
            (
                None,
                ("verify", "--d-values", "2", "--N-range", "2:2", "--format", "json"),
                "unrecognized arguments: --format json",
            ),
            (
                "format=json\n",
                ("--config", "{config}", "verify", "--d-values", "2", "--N-range", "2:2"),
                "unknown config key 'format'",
            ),
            (
                None,
                ("generate", "--method", "3", "--d", "2", "--N", "2", "--alpha-sq", "5"),
                "alpha applies to method 1 only, got method 3",
            ),
        ],
    )
    def test_one_error_line(self, capsys, tmp_path, config, argv, message):
        # ``{config}`` stands for a config file holding ``config``, or for a
        # missing file when ``config`` is None.
        path = tmp_path / "run.cfg"
        if config is not None:
            path.write_text(config)
        code, out, err = run_cli(capsys, *(arg.format(config=path) for arg in argv))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message.format(config=path)}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--methods", "3", "--d-values=-3,2"), "d must be at least 2, got -3"),
            (("--methods", "4", "--d-values", "1"), "d must be at least 2, got 1"),
            (("--N-range", "0:2"), "N must be at least 1, got 0"),
        ],
    )
    def test_verify_domain_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


# Exact stdout of each command, pinning JSON key order (sorted for generate
# and resources, column order for sweep) and the 12-digit float rendering.
# The default-alpha M1 and the M2 entries also pin the filter's signed zeros.
PINNED_OUTPUTS = [
    (
        "generate --method 1 --d 2 --N 4",
        """\
{
  "method": "M1",
  "report": {
    "N": 4,
    "alpha_sq": 2.0,
    "balanced": true,
    "component_amplitudes": [
      [
        0.0122778662268,
        0.0
      ],
      [
        0.0122778662268,
        0.0
      ]
    ],
    "d": 2,
    "generation_probability": 0.000301491998168,
    "residual_norm": 0.0,
    "sign_pattern": [
      [
        1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ]
    ]
  }
}
""",
    ),
    (
        "generate --method 2 --d 4 --N 4",
        """\
{
  "method": "M2",
  "report": {
    "N": 4,
    "alpha_sq": null,
    "balanced": true,
    "component_amplitudes": [
      [
        0.00231481481481,
        0.0
      ],
      [
        0.00231481481481,
        0.0
      ],
      [
        0.00231481481481,
        0.0
      ],
      [
        0.00231481481481,
        0.0
      ]
    ],
    "d": 4,
    "generation_probability": 2.14334705075e-05,
    "residual_norm": 0.0,
    "sign_pattern": [
      [
        1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ]
    ]
  }
}
""",
    ),
    (
        "generate --method 1 --d 2 --N 2 --alpha-sq 0.7",
        """\
{
  "method": "M1",
  "report": {
    "N": 2,
    "alpha_sq": 0.7,
    "balanced": true,
    "component_amplitudes": [
      [
        -0.061449296256,
        0.0
      ],
      [
        -0.061449296256,
        0.0
      ]
    ],
    "d": 2,
    "generation_probability": 0.00755203202071,
    "residual_norm": 0.0,
    "sign_pattern": [
      [
        1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ]
    ]
  }
}
""",
    ),
    (
        "generate --method 1 --d 2 --N 2 --alpha-sq 0.7 --format csv",
        """\
method,d,N,alpha_sq,generation_probability,balanced,residual_norm
M1,2,2,0.7,0.00755203202071,true,0
""",
    ),
    (
        "generate --method 3 --d 2 --N 3",
        """\
{
  "method": "M3",
  "report": {
    "N": 3,
    "alpha_sq": null,
    "balanced": true,
    "component_amplitudes": [
      [
        -7.97972798949e-17,
        -0.0589255650989
      ],
      [
        0.0,
        -0.0589255650989
      ]
    ],
    "d": 2,
    "generation_probability": 0.00694444444444,
    "residual_norm": 0.0,
    "sign_pattern": [
      [
        1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ]
    ]
  }
}
""",
    ),
    (
        "generate --method 3 --d 2 --N 3 --format csv",
        """\
method,d,N,alpha_sq,generation_probability,balanced,residual_norm
M3,2,3,,0.00694444444444,true,0
""",
    ),
    (
        "sweep --vary d --N 3 --d-range 2,8 --methods 1,4 --alpha-sq 0.5",
        """\
method,d,N,alpha_sq,p_closed,p_sim,rel_err
M1,2,3,0.5,0.0019160387561,0.0019160387561,1.13171215252e-15
M1,8,3,0.5,5.96212203409e-06,,
M4,2,3,,0.5,0.5,0
M4,8,3,,0.125,,
""",
    ),
    (
        "sweep --vary d --N 3 --d-range 2,8 --methods 1,4 --alpha-sq 0.5 --format json",
        """\
[
  {
    "method": "M1",
    "d": 2,
    "N": 3,
    "alpha_sq": 0.5,
    "p_closed": 0.0019160387561,
    "p_sim": 0.0019160387561,
    "rel_err": 1.13171215252e-15
  },
  {
    "method": "M1",
    "d": 8,
    "N": 3,
    "alpha_sq": 0.5,
    "p_closed": 5.96212203409e-06,
    "p_sim": null,
    "rel_err": null
  },
  {
    "method": "M4",
    "d": 2,
    "N": 3,
    "alpha_sq": null,
    "p_closed": 0.5,
    "p_sim": 0.5,
    "rel_err": 0.0
  },
  {
    "method": "M4",
    "d": 8,
    "N": 3,
    "alpha_sq": null,
    "p_closed": 0.125,
    "p_sim": null,
    "rel_err": null
  }
]
""",
    ),
    (
        "resources --methods 1,3 --d 2 --N 3",
        """\
method,d,N,beam_splitters,phase_shifters,spcd_detectors,fock_inputs,single_photon_inputs,odd_n_variant
M1,2,3,2,0,2,0,2,false
M3,2,3,9,3,3,2,0,true
""",
    ),
    (
        "resources --methods 1,3 --d 2 --N 3 --format json",
        """\
[
  {
    "N": 3,
    "beam_splitters": 2,
    "d": 2,
    "fock_inputs": 0,
    "method": "M1",
    "odd_n_variant": false,
    "phase_shifters": 0,
    "single_photon_inputs": 2,
    "spcd_detectors": 2
  },
  {
    "N": 3,
    "beam_splitters": 9,
    "d": 2,
    "fock_inputs": 2,
    "method": "M3",
    "odd_n_variant": true,
    "phase_shifters": 3,
    "single_photon_inputs": 0,
    "spcd_detectors": 3
  }
]
""",
    ),
    # The verify grid the benchmark's cli workload runs: every p_closed and
    # rel_err byte, and the summary line.
    (
        "verify --d-values 2 --N-range 2:4",
        """\
M1 d=2 N=2 alpha_sq=1 p_closed=0.00845845520229 p_sim=0.00845845520229 rel_err=4.10175010564e-16 ok
M1 d=2 N=3 alpha_sq=1.5 p_closed=0.00700130648923 p_sim=0.00700130648923 rel_err=3.71657092568e-16 ok
M1 d=2 N=4 alpha_sq=2 p_closed=0.000301491998168 p_sim=0.000301491998168 rel_err=1.61825514635e-15 ok
M2 d=2 N=2 alpha_sq=- p_closed=0.03125 p_sim=0.03125 rel_err=6.66133814775e-16 ok
M2 d=2 N=3 alpha_sq=- p_closed=0.03125 p_sim=0.03125 rel_err=4.44089209850e-16 ok
M2 d=2 N=4 alpha_sq=- p_closed=0.00154320987654 p_sim=0.00154320987654 rel_err=1.12410081243e-15 ok
M3 d=2 N=2 alpha_sq=- p_closed=0.0625 p_sim=0.0625 rel_err=1.11022302463e-16 ok
M3 d=2 N=3 alpha_sq=- p_closed=0.00694444444444 p_sim=0.00694444444444 rel_err=8.74300631892e-16 ok
M3 d=2 N=4 alpha_sq=- p_closed=0.000732421875 p_sim=0.000732421875 rel_err=7.40148683083e-16 ok
M4 d=2 N=2 alpha_sq=- p_closed=0.5 p_sim=0.5 rel_err=2.22044604925e-16 ok
M4 d=2 N=3 alpha_sq=- p_closed=0.5 p_sim=0.5 rel_err=0 ok
M4 d=2 N=4 alpha_sq=- p_closed=0.5 p_sim=0.5 rel_err=1.11022302463e-16 ok
verify: 12 points, max rel_err=1.61825514635e-15, tolerance=1.00000000000e-09 -> PASS
""",
    ),
    # The cascades: 64 modes through the generator tables, and the odd-N
    # polarized tree, whose residual real parts pin every bit of the sums.
    (
        "generate --method 4 --d 64 --N 8 --format csv",
        """\
method,d,N,alpha_sq,generation_probability,balanced,residual_norm
M4,64,8,,0.015625,true,0
""",
    ),
    (
        "generate --method 3 --d 8 --N 5",
        """\
{
  "method": "M3",
  "report": {
    "N": 5,
    "alpha_sq": null,
    "balanced": true,
    "component_amplitudes": [
      [
        1.92998011897e-27,
        3.30681115276e-13
      ],
      [
        -1.68408306625e-27,
        -3.30681115276e-13
      ],
      [
        1.43818601353e-27,
        3.30681115276e-13
      ],
      [
        -1.68408306625e-27,
        -3.30681115276e-13
      ],
      [
        1.43818601353e-27,
        3.30681115276e-13
      ],
      [
        -1.19228896081e-27,
        -3.30681115276e-13
      ],
      [
        1.43818601353e-27,
        3.30681115276e-13
      ],
      [
        -1.68408306625e-27,
        -3.30681115276e-13
      ]
    ],
    "d": 8,
    "generation_probability": 8.748e-25,
    "residual_norm": 0.0,
    "sign_pattern": [
      [
        1.0,
        0.0
      ],
      [
        -1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ],
      [
        -1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ],
      [
        -1.0,
        0.0
      ],
      [
        1.0,
        0.0
      ],
      [
        -1.0,
        0.0
      ]
    ]
  }
}
""",
    ),
]


@pytest.mark.parametrize("command, expected", PINNED_OUTPUTS)
def test_pinned_output_bytes(capsys, command, expected):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert out == expected
