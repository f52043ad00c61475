"""Command-line interface tests: flags, config round-trip, exit codes, plot scripts."""

import json
import math

import pytest

from carl.cli import main
from carl.cli import build_parser

GAMMA_WAO_AB1 = 0.56227951206230124


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrumMode:
    def test_unstable_point(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--delta21", "0", "--alpha-beta", "1", "--eta", "1")
        assert code == 0
        assert "Γ = 0.56228, Case II" in out

    def test_stable_point(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--delta21", "0", "--alpha-beta", "0.1", "--eta", "1")
        assert code == 0
        assert "Γ = 0, Case I" in out

    def test_json_output(self, capsys, tmp_path):
        out_path = tmp_path / "spectrum.json"
        code, _, _ = run_cli(
            capsys, "spectrum", "--delta21", "0", "--alpha-beta", "1", "--eta", "1", "-o", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["case"] == "II"
        assert doc["gamma"] == pytest.approx(GAMMA_WAO_AB1, abs=1e-12)
        assert len(doc["lambdas"]) == 3

    def test_alpha_beta_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--delta21", "0", "--alpha", "0.5", "--beta", "2.0", "--eta", "1"
        )
        assert code == 0
        assert "Case II" in out

    def test_conflicting_alpha_beta_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--alpha-beta", "1", "--alpha", "1", "--beta", "1", "--eta", "1"
        )
        assert code == 1
        assert "not both" in err


class TestCurveMode:
    def test_record_count(self, capsys, tmp_path):
        out = tmp_path / "fig1.csv"
        code, stdout, _ = run_cli(
            capsys,
            "curve", "--axis", "delta21", "--from", "-2", "--to", "6", "--points", "801",
            "--alpha-beta", "1", "--regimes", "both", "-o", str(out),
        )
        assert code == 0
        assert "1602 records" in stdout
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 1603  # header + 801 x 2
        assert data[0].startswith("axis_name,axis_value,regime,gamma,case")

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "c.json"
        code, _, _ = run_cli(
            capsys,
            "curve", "--axis", "alpha_beta", "--from", "0.1", "--to", "2", "--points", "5",
            "--delta21", "0.5", "--regimes", "wao", "--format", "json", "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["records"]) == 5
        assert all(r["regime"] == "WAO" for r in doc["records"])

    def test_bad_regimes(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "curve", "--axis", "delta21", "--from", "0", "--to", "1", "--points", "3",
            "--alpha-beta", "1", "--regimes", "xao", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "regimes" in err


class TestConfigRoundTrip:
    def test_curve_flags_vs_config_byte_identical(self, capsys, tmp_path):
        flag_out = tmp_path / "flags.csv"
        code, _, _ = run_cli(
            capsys,
            "curve", "--axis", "delta21", "--from", "-1", "--to", "3", "--points", "41",
            "--alpha-beta", "0.5", "--regimes", "both", "-o", str(flag_out),
        )
        assert code == 0

        cfg_out = tmp_path / "config.csv"
        config = {
            "mode": "curve",
            "scaled": {"delta21": 0.0, "alpha": 0.5, "beta": 1.0, "eta": 0},
            "options": {
                "axis": "delta21",
                "from": -1.0,
                "to": 3.0,
                "points": 41,
                "regimes": "both",
                "output": str(cfg_out),
                "format": "csv",
            },
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        code, _, _ = run_cli(capsys, "run", "--config", str(cfg_path))
        assert code == 0
        assert flag_out.read_bytes() == cfg_out.read_bytes()

    @pytest.mark.parametrize(
        "argv, config, outputs",
        [
            (
                "spectrum --delta21 0.5 --alpha-beta 1 --eta 1 -o spectrum.json",
                {"mode": "spectrum", "scaled": {"delta21": 0.5, "alpha": 1.0, "beta": 1.0, "eta": 1},
                 "options": {"output": "spectrum.json"}},
                ["spectrum.json"],
            ),
            (
                "curve --axis alpha_beta --from 0.1 --to 2 --points 5 --delta21 0.5 --regimes wao "
                "--format json -o curve.json",
                {"mode": "curve", "scaled": {"delta21": 0.5, "alpha": 0.0, "beta": 1.0, "eta": 0},
                 "options": {"axis": "alpha_beta", "from": 0.1, "to": 2, "points": 5, "regimes": "wao",
                             "format": "json", "output": "curve.json"}},
                ["curve.json"],
            ),
            (
                "threshold --delta21 0 --alpha-beta 1 --eta 1 --delta21-from -2 --delta21-to 6 "
                "--alpha-beta-from 0.01 --alpha-beta-to 10 --resolution 64 -o thr.csv",
                {"mode": "threshold", "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1},
                 "options": {"delta21_from": -2, "delta21_to": 6, "alpha_beta_from": 0.01,
                             "alpha_beta_to": 10, "resolution": 64, "output": "thr.csv"}},
                ["thr.csv"],
            ),
            (
                "evolve --delta21 0 --alpha-beta 1 --eta 1 --tau-end 2 -o traj.csv",
                {"mode": "evolve", "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1},
                 "options": {"tau_end": 2, "output": "traj.csv"}},
                ["traj.csv"],
            ),
            (
                "mass-study --alpha-beta-base 5 --ratios 1,10 --points 51 -o fig2",
                {"mode": "mass-study",
                 "options": {"alpha_beta_base": 5, "ratios": "1,10", "points": 51, "output": "fig2"}},
                ["fig2_r1.csv", "fig2_r10.csv"],
            ),
            (
                "validate --axis delta21 --from -1 --to 3 --points 41 --alpha-beta 1 --samples 4 --seed 1 "
                "-o report.json",
                {"mode": "validate", "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 0},
                 "options": {"axis": "delta21", "from": -1, "to": 3, "points": 41, "samples": 4, "seed": 1,
                             "output": "report.json"}},
                ["report.json"],
            ),
            (
                "curve --axis delta21 --from -1 --to 3 --points 5 --alpha-beta 0.5 -o nulls.csv",
                {"mode": "curve", "scaled": {"delta21": 0.0, "alpha": 0.5, "beta": 1.0, "eta": 0},
                 "options": {"axis": "delta21", "from": -1, "to": 3, "points": 5, "regimes": None,
                             "format": None, "output": "nulls.csv"}},
                ["nulls.csv"],
            ),
        ],
        ids=["spectrum", "curve-json", "threshold", "evolve", "mass-study", "validate", "curve-null-defaults"],
    )
    def test_every_mode_flags_vs_config_byte_identical(self, capsys, tmp_path, monkeypatch, argv, config, outputs):
        # relative output paths, so stdout (which names them) must match too
        runs = {}
        for how in ("flags", "config"):
            workdir = tmp_path / how
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            if how == "flags":
                code, out, _ = run_cli(capsys, *argv.split())
            else:
                (workdir / "run.json").write_text(json.dumps(config))
                code, out, _ = run_cli(capsys, "run", "--config", "run.json")
            assert code == 0
            runs[how] = (out, [(workdir / name).read_bytes() for name in outputs])
        assert runs["flags"] == runs["config"]

    def test_integral_float_eta_in_scaled_block(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "spectrum", "scaled": dict(SCALED_WAO, eta=1.0), "options": {}}))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert "Γ = 0.56228, Case II" in out

    def test_spectrum_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mode": "spectrum",
                    "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1},
                    "options": {},
                }
            )
        )
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        assert "Case II" in out

    def test_unknown_top_level_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "spectrum", "scaled": {}, "bogus": 1}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("mode", ["nope", ["curve"], None])
    def test_unknown_or_malformed_mode_is_config_error(self, capsys, tmp_path, mode):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "mode must be one of" in err

    def test_unknown_option_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mode": "spectrum",
                    "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1},
                    "options": {"outputt": "x.json"},
                }
            )
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "outputt" in err

    def test_both_blocks_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mode": "spectrum",
                    "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1},
                    "physical": {"mu": 1e-29},
                    "options": {},
                }
            )
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "exactly one" in err

    def test_missing_scaled_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"mode": "spectrum", "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0}, "options": {}})
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "eta" in err

    def test_unknown_scaled_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mode": "spectrum",
                    "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1, "alpha_beta": 1.0},
                    "options": {},
                }
            )
        )
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "alpha_beta" in err


SCALED_WAO = {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 1}
VALIDATE_ARGV = "validate --axis delta21 --from -1 --to 3 --points 41 --alpha-beta 1 --samples 4"


class TestBadOptionValues:
    """A bad option value is a named configuration error (exit 1), never a traceback."""

    @pytest.mark.parametrize(
        "run, named",
        [
            (VALIDATE_ARGV.replace("--samples 4", "--samples 0"), ["samples", "0"]),
            (VALIDATE_ARGV + " --seed -1", ["seed", "-1"]),
            ({"mode": "mass-study", "options": {"alpha_beta_base": 5, "ratios": ["1", "10"], "output": "ms"}},
             ["ratios", "['1', '10']"]),
            ({"mode": "threshold", "scaled": SCALED_WAO,
              "options": {"delta21_from": -2, "delta21_to": 6, "alpha_beta_from": 0.01, "alpha_beta_to": 10,
                          "resolution": "x", "output": "thr.csv"}},
             ["resolution", "'x'"]),
            ({"mode": "evolve", "scaled": SCALED_WAO,
              "options": {"tau_end": 1, "a1_seed": ["a", 0], "output": "traj.csv"}},
             ["a1_seed", "['a', 0]"]),
            ({"mode": "spectrum", "scaled": SCALED_WAO, "options": []}, ["options", "[]"]),
            ({"mode": "curve", "scaled": SCALED_WAO,
              "options": {"axis": "delta21", "from": -1, "to": 3, "points": 5.7, "output": "c.csv"}},
             ["points", "5.7"]),
            ({"mode": "spectrum", "scaled": SCALED_WAO, "options": {"eta": 1.5}}, ["eta", "1.5"]),
            ({"mode": "spectrum", "scaled": dict(SCALED_WAO, eta=1.5), "options": {}}, ["eta", "1.5"]),
        ],
        ids=["samples-0", "seed-negative", "ratios-strings", "resolution-string", "a1_seed-pair", "options-list",
             "points-fraction", "eta-fraction", "scaled-eta-fraction"],
    )
    def test_named_error_not_traceback(self, capsys, tmp_path, monkeypatch, run, named):
        monkeypatch.chdir(tmp_path)
        if isinstance(run, str):
            code, _, err = run_cli(capsys, *run.split())
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(run))
            code, _, err = run_cli(capsys, "run", "--config", "cfg.json")
        assert code == 1
        assert err.startswith("error: ")
        for text in named:
            assert text in err

    @pytest.mark.parametrize(
        "config, where",
        [
            ([{"mode": "spectrum"}], "config"),
            ({"mode": "spectrum", "scaled": [0.0, 1.0, 1.0, 1], "options": {}}, "'scaled' block"),
            ({"mode": "spectrum", "physical": "phys.json", "options": {"eta": 1}}, "'physical' block"),
        ],
    )
    def test_non_object_document_is_config_error(self, capsys, tmp_path, config, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert f"{where} must be a JSON object" in err


class TestPhysicalBlock:
    def physical_block(self):
        k0 = 2.0 * math.pi / 780e-9
        omega0 = 2.0 * math.pi * 384.23e12
        omega2 = omega0 - 2.0 * math.pi * 30e9
        return {
            "mu": 2.5e-29,
            "V": 1e-6,
            "m": 1.44316e-25,
            "N": 10**6,
            "k0": k0,
            "omega0": omega0,
            "omega1": omega2,
            "omega2": omega2,
            "a2_0": 1e4,
        }

    def test_physical_file_flag(self, capsys, tmp_path):
        blob = tmp_path / "phys.json"
        blob.write_text(json.dumps(self.physical_block()))
        code, out, _ = run_cli(capsys, "spectrum", "--physical", str(blob), "--eta", "1")
        assert code == 0
        assert "Γ =" in out

    def test_physical_requires_eta_option_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "spectrum", "physical": self.physical_block(), "options": {}}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "eta" in err

    def test_physical_with_scaled_flags_conflicts(self, capsys, tmp_path):
        blob = tmp_path / "phys.json"
        blob.write_text(json.dumps(self.physical_block()))
        code, _, err = run_cli(capsys, "spectrum", "--physical", str(blob), "--alpha-beta", "1")
        assert code == 1
        assert "not both" in err


class TestEvolveMode:
    def test_trajectory_file(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run_cli(
            capsys,
            "evolve", "--delta21", "0", "--alpha-beta", "1", "--eta", "1",
            "--tau-end", "10", "--dt", "1e-3", "--stride", "100", "-o", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header.startswith("tau,re_A1,im_A1,abs_A1")
        assert "evolve: " in stdout

    def test_step_rejection_exit_code_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "evolve", "--delta21", "1", "--alpha-beta", "5", "--eta", "1",
            "--tau-end", "10", "--dt", "0.8", "-o", str(tmp_path / "t.csv"),
        )
        assert code == 2
        assert "reduce dt" in err

    @pytest.mark.filterwarnings("error")
    def test_overflow_exit_code_2_and_no_file(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, stdout, err = run_cli(
            capsys,
            "evolve", "--delta21", "0.5", "--alpha-beta", "1", "--eta", "1",
            "--tau-end", "1500", "--dt", "0.01", "--stride", "1000", "-o", str(out),
        )
        assert code == 2
        assert err.startswith("numerical failure: ") and "float range at tau = " in err
        assert stdout == "" and not out.exists()


class TestThresholdMode:
    def test_boundary_csv(self, capsys, tmp_path):
        out = tmp_path / "thr.csv"
        code, stdout, _ = run_cli(
            capsys,
            "threshold", "--eta", "1", "--delta21-from", "-2", "--delta21-to", "6",
            "--alpha-beta-from", "0.01", "--alpha-beta-to", "10", "--resolution", "64",
            "-o", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "branch_id,delta21,alpha_beta"
        assert "branch(es)" in stdout


class TestMassStudyMode:
    def test_per_ratio_files(self, capsys, tmp_path):
        stem = tmp_path / "fig2"
        code, stdout, _ = run_cli(
            capsys,
            "mass-study", "--alpha-beta-base", "5", "--ratios", "1,10", "--points", "51", "-o", str(stem),
        )
        assert code == 0
        for suffix in ("_r1.csv", "_r10.csv"):
            path = tmp_path / ("fig2" + suffix)
            assert path.exists()
            data = [l for l in path.read_text().splitlines() if not l.startswith("#")]
            assert len(data) == 1 + 51 * 2


class TestValidateMode:
    def test_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys,
            "validate", "--axis", "delta21", "--from", "-1", "--to", "3", "--points", "41",
            "--alpha-beta", "1", "--regimes", "both", "--samples", "4", "--seed", "1",
            "-o", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["entries"]) == 4
        assert "validate_sweep" in stdout


class TestPlotScript:
    def make_curve(self, capsys, tmp_path, name="fig1.csv", ab="1"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys,
            "curve", "--axis", "delta21", "--from", "-2", "--to", "6", "--points", "21",
            "--alpha-beta", ab, "--regimes", "both", "-o", str(out),
        )
        assert code == 0
        return out

    def test_fig1_style_one_line_per_file_and_regime(self, capsys, tmp_path):
        a = self.make_curve(capsys, tmp_path, "a.csv", "0.1")
        b = self.make_curve(capsys, tmp_path, "b.csv", "5")
        script = tmp_path / "fig1.gp"
        code, _, _ = run_cli(capsys, "plot-script", str(a), str(b), "--style", "fig1", "-o", str(script))
        assert code == 0
        text = script.read_text()
        assert text.count("with lines") == 4  # 2 files x 2 regimes
        assert "ab=0.1" in text and "ab=5" in text
        assert text.count("dashtype 2") == 2  # RAO dashed

    def test_mass_study_style_solid_wao_dashed_rao(self, capsys, tmp_path):
        stem = tmp_path / "fig2"
        run_cli(capsys, "mass-study", "--alpha-beta-base", "5", "--ratios", "1,10",
                "--points", "31", "-o", str(stem))
        script = tmp_path / "fig2.gp"
        code, _, _ = run_cli(
            capsys,
            "plot-script", str(tmp_path / "fig2_r1.csv"), str(tmp_path / "fig2_r10.csv"),
            "--style", "mass-study", "-o", str(script),
        )
        assert code == 0
        text = script.read_text()
        assert "m/m0=1" in text and "m/m0=10" in text
        for line in text.splitlines():
            if "'RAO'" in line:
                assert "dashtype 2" in line
            if "'WAO'" in line:
                assert "dashtype" not in line

    def test_missing_column_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("axis_name,axis_value,regime,gamma\ndelta21,0,RAO,0.5\n")
        code, _, err = run_cli(capsys, "plot-script", str(bad), "-o", str(tmp_path / "x.gp"))
        assert code == 1
        assert "re_l1" in err

    def test_empty_result_file_is_error(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3\n")
        script = tmp_path / "x.gp"
        code, _, err = run_cli(capsys, "plot-script", str(empty), "-o", str(script))
        assert code == 1
        assert "no data rows" in err
        assert not script.exists()


class TestHelp:
    def test_help_states_units(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", "--help"])
        out = capsys.readouterr().out
        assert "scaled" in out
        assert "RAO" in out and "WAO" in out

    def test_every_mode_has_help(self, capsys):
        for mode in ("spectrum", "curve", "threshold", "evolve", "mass-study", "validate", "plot-script", "run"):
            with pytest.raises(SystemExit) as exc:
                main([mode, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["bogus"], []]
        + [[mode, "--help"] for mode in ("spectrum", "curve", "threshold", "evolve", "mass-study", "validate", "plot-script", "run")],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_output_matches_fully_built_parser(self, capsys, argv):
        # main builds only the selected subcommand's arguments
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert capsys.readouterr() == expected
        assert got.value.code == full.value.code
