"""Command-line interface tests: flags, config round-trip, exit codes, plot scripts."""

import json
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from carl.cli import MODES, POINT, ConfigError, _inspect_result_csv, build_parser, main

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
MASS_STUDY_ARGV = "mass-study --alpha-beta-base 1 --ratios 1 --from {} --to {} --points {} -o rev"
THRESHOLD_ARGV = "threshold --eta 1 --delta21-from -2 --delta21-to 6 --alpha-beta-from 0.01 --alpha-beta-to 10 -o thr.csv"
EVOLVE_ARGV = "evolve --delta21 0.5 --alpha-beta 1 --eta 1 --dt 1e-3 -o traj.csv"
K0 = 2.0 * math.pi / 780e-9
OMEGA0 = 2.0 * math.pi * 384.23e12
OMEGA2 = OMEGA0 - 2.0 * math.pi * 30e9
PHYSICAL_RB = {
    "mu": 2.5e-29, "V": 1e-6, "m": 1.44316e-25, "N": 10**6, "k0": K0,
    "omega0": OMEGA0, "omega1": OMEGA2, "omega2": OMEGA2, "a2_0": 1e4,
}


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
            ({"mode": "spectrum", "scaled": dict(SCALED_WAO, delta21="x"), "options": {}}, ["delta21", "'x'"]),
            ({"mode": "spectrum", "physical": dict(PHYSICAL_RB, N=1.5), "options": {"eta": 1}}, ["N", "1.5"]),
            ({"mode": "spectrum", "physical": dict(PHYSICAL_RB, mu="x"), "options": {"eta": 1}}, ["mu", "'x'"]),
            ({"mode": "spectrum", "physical": dict(PHYSICAL_RB, mu=-1), "options": {"eta": 1}},
             ["'mu' = -1 in 'physical' block: must be a finite positive number"]),
            ({"mode": "spectrum", "physical": dict(PHYSICAL_RB, N=0), "options": {"eta": 1}},
             ["'N' = 0 in 'physical' block: must be >= 1"]),
            ({"mode": "spectrum", "physical": dict(PHYSICAL_RB, mu=10**400), "options": {"eta": 1}},
             ["'mu' = 1000", "in 'physical' block: int too large to convert to float"]),
            (MASS_STUDY_ARGV.format(6, -2, 5), ["start (6.0) must be < stop (-2.0)"]),
            (MASS_STUDY_ARGV.format(1, 1, 5), ["start (1.0) must be < stop (1.0)"]),
            (MASS_STUDY_ARGV.format(-2, 6, 0), ["num_points must be >= 2, got 0"]),
            (MASS_STUDY_ARGV.format(-2, 6, 1), ["num_points must be >= 2, got 1"]),
            (MASS_STUDY_ARGV.replace("--ratios 1", "--ratios 1,1.0000001").format(-2, 6, 5),
             ["ratios 1.0 and 1.0000001 would both write rev_r1.csv"]),
            (MASS_STUDY_ARGV.replace("--ratios 1", "--ratios 1,1").format(-2, 6, 5),
             ["ratios 1.0 and 1.0 would both write rev_r1.csv"]),
            # sizes numpy refuses before it allocates anything, by several kinds of error
            ({"mode": "curve", "scaled": SCALED_WAO,
              "options": {"axis": "delta21", "from": -1, "to": 3, "points": 10**30, "output": "c.csv"}},
             [f"'points' = {10**30} in options for mode 'curve': must be <= 2**48 = 281474976710656"]),
            (MASS_STUDY_ARGV.format(-2, 6, 10**30), [f"'points' = {10**30} in options for mode 'mass-study': must be <="]),
            (VALIDATE_ARGV.replace("--points 41", f"--points {10**30}"),
             [f"'points' = {10**30} in options for mode 'validate': must be <="]),
            (THRESHOLD_ARGV + f" --resolution {10**30}", [f"'resolution' = {10**30} in options for mode 'threshold': must be <="]),
            (EVOLVE_ARGV + f" --tau-end 1 --stride {10**30}", [f"'stride' = {10**30} in options for mode 'evolve': must be <="]),
            (EVOLVE_ARGV + " --tau-end 1e300", ["tau_end - tau = 1e+300 is 1e+303 steps of dt = 0.001, more than 2**53"]),
            # the window of the threshold map, checked by the option table
            (THRESHOLD_ARGV.replace("--alpha-beta-to 10", "--alpha-beta-to=1e200"),
             ["'alpha_beta_to' = 1e+200 in options for mode 'threshold': "
              "must be finite and either <= 0 or in [2.2250738585072014e-308, 1e+150]"]),
            (THRESHOLD_ARGV.replace("--alpha-beta-from 0.01", "--alpha-beta-from=1e-320"),
             ["'alpha_beta_from' = 1e-320 in options for mode 'threshold': must be finite and either <= 0"]),
            (THRESHOLD_ARGV.replace("--delta21-from -2", "--delta21-from=-1e101"),
             ["'delta21_from' = -1e+101 in options for mode 'threshold': must be in [-1e+100, 1e+100]"]),
            (THRESHOLD_ARGV.replace("--alpha-beta-from 0.01", "--alpha-beta-from=nan"),
             ["'alpha_beta_from' = nan in options for mode 'threshold': must be finite and either <= 0"]),
            # input files with a byte that is not UTF-8
            (("run --config cfg.json", "cfg.json",
              json.dumps({"mode": "spectrum", "scaled": SCALED_WAO, "options": {}}).encode().replace(b"spectrum", b"spec\xfftrum")),
             ["cannot load config 'cfg.json': 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"]),
            (("spectrum --physical phys.json --eta 0", "phys.json", json.dumps(PHYSICAL_RB).encode().replace(b'"N"', b'"\xffN"')),
             ["cannot load physical-parameter file 'phys.json': 'utf-8' codec can't decode byte 0xff in position"]),
            (("plot-script curve.csv -o x.gp", "curve.csv", b"axis_name,axis_value,regime\ndelta21,0.5,RAO\n\xff\n"),
             ["cannot read result file 'curve.csv': 'utf-8' codec can't decode byte 0xff in position"]),
            # no key takes a boolean, which Python would read as 1
            ({"mode": "spectrum", "scaled": dict(SCALED_WAO, eta=True), "options": {}}, ["'eta' = True in 'scaled' block"]),
            ({"mode": "spectrum", "physical": dict(PHYSICAL_RB, N=True), "options": {"eta": 1}}, ["'N' = True in 'physical' block"]),
            ({"mode": "curve", "scaled": SCALED_WAO,
              "options": {"axis": "delta21", "from": True, "to": 3, "points": 5, "output": "c.csv"}},
             ["'from' = True in options for mode 'curve'"]),
            ({"mode": "mass-study", "options": {"alpha_beta_base": 5, "ratios": [True, 10], "output": "ms"}},
             ["'ratios' = [True, 10] in options for mode 'mass-study'"]),
            ({"mode": "evolve", "scaled": SCALED_WAO, "options": {"tau_end": 1, "a1_seed": [True, 0], "output": "traj.csv"}},
             ["'a1_seed' = [True, 0] in options for mode 'evolve'"]),
            ({"mode": "spectrum", "scaled": SCALED_WAO, "options": {"output": True}}, ["'output' = True in options for mode 'spectrum'"]),
        ],
        ids=["samples-0", "seed-negative", "ratios-strings", "resolution-string", "a1_seed-pair", "options-list",
             "points-fraction", "eta-fraction", "scaled-eta-fraction", "scaled-delta21-string",
             "physical-N-fraction", "physical-mu-string", "physical-mu-negative", "physical-N-0", "physical-mu-past-float",
             "mass-study-reversed", "mass-study-empty-range", "mass-study-points-0", "mass-study-points-1",
             "mass-study-same-file", "mass-study-same-ratio",
             "curve-points-1e30", "mass-study-points-1e30", "validate-points-1e30", "threshold-resolution-1e30",
             "evolve-stride-1e30", "evolve-steps-past-2**53",
             "threshold-alpha-beta-to-1e200", "threshold-alpha-beta-from-subnormal", "threshold-delta21-from-1e101",
             "threshold-alpha-beta-from-nan", "config-not-utf8", "physical-file-not-utf8", "plot-script-result-not-utf8",
             "scaled-eta-bool", "physical-N-bool", "from-bool", "ratios-bool", "a1_seed-bool-pair", "output-bool"],
    )
    def test_named_error_not_traceback(self, capsys, tmp_path, monkeypatch, run, named):
        monkeypatch.chdir(tmp_path)
        inputs = ["cfg.json"]
        if isinstance(run, tuple):  # a command line, and the input file it reads with its bytes
            run, name, data = run
            (tmp_path / name).write_bytes(data)
            inputs = [name]
        if isinstance(run, str):
            code, out, err = run_cli(capsys, *run.split())
        else:
            (tmp_path / "cfg.json").write_text(json.dumps(run))
            code, out, err = run_cli(capsys, "run", "--config", "cfg.json")
        assert code == 1
        assert err.startswith("error: ")
        for text in named:
            assert text in err
        # and nothing was written
        assert out == "" and sorted(p.name for p in tmp_path.iterdir()) in ([], inputs)

    @pytest.mark.parametrize(
        "run, builder, named",
        [
            ("curve --axis delta21 --from -1 --to 3 --points 100000000000 --alpha-beta 1 -o c.csv", "linspace",
             "'points' = 100000000000 in options for mode 'curve': Unable to allocate"),
            (MASS_STUDY_ARGV.format(-2, 6, 100000000000), "linspace",
             "'points' = 100000000000 in options for mode 'mass-study': Unable to allocate"),
            (VALIDATE_ARGV.replace("--points 41", "--points 100000000000"), "linspace",
             "'points' = 100000000000 in options for mode 'validate': Unable to allocate"),
            (THRESHOLD_ARGV + " --resolution 100000000000", "linspace",
             "'resolution' = 100000000000 in options for mode 'threshold': Unable to allocate"),
            (EVOLVE_ARGV + " --tau-end 1e12 --stride 1", "empty",
             "'tau_end' = 1000000000000.0, 'dt' = 0.001, 'stride' = 1 in options for mode 'evolve': Unable to allocate"),
        ],
        ids=["curve", "mass-study", "validate", "threshold", "evolve"],
    )
    def test_allocation_failure_names_the_size_options(self, capsys, tmp_path, monkeypatch, run, builder, named):
        # the builder fails as numpy does where the memory is not there; no test
        # asks for a real oversized array, which a host that overcommits memory
        # could grant and then kill the run on first touch
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(np, builder, fail)
        code, out, err = run_cli(capsys, *run.split())
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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


class TestNegativeValues:
    """A negative value after a flag parses as its ``--flag=value`` form does, exponent notation and -inf included."""

    @pytest.mark.parametrize("value", ["-2e-1", "-1e-320", "-inf"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("spectrum --delta21 {} --alpha-beta 1 -o s.json", "--delta21"),
            ("curve --axis delta21 --from {} --to 3 --points 5 --alpha-beta 1 -o c.csv", "--from"),
            (THRESHOLD_ARGV.replace("--alpha-beta-from 0.01", "--alpha-beta-from {}"), "--alpha-beta-from"),
        ],
        ids=["spectrum", "curve", "threshold"],
    )
    def test_plain_and_equals_forms_agree(self, capsys, tmp_path, monkeypatch, argv, flag, value):
        runs = []
        for k, words in enumerate((argv.format(value), argv.replace(f"{flag} {{}}", f"{flag}={value}"))):
            (tmp_path / str(k)).mkdir()
            monkeypatch.chdir(tmp_path / str(k))
            code, out, err = run_cli(capsys, *words.split())
            runs.append((code, out, {p.name: p.read_bytes() for p in (tmp_path / str(k)).iterdir()}))
        assert runs[0] == runs[1]
        if value == "-inf":
            assert runs[0][0] == 1 and "must be finite" in err
        else:
            assert runs[0][0] == 0 and runs[0][2]


class TestPhysicalBlock:
    def test_physical_file_flag(self, capsys, tmp_path):
        blob = tmp_path / "phys.json"
        blob.write_text(json.dumps(PHYSICAL_RB))
        code, out, _ = run_cli(capsys, "spectrum", "--physical", str(blob), "--eta", "1")
        assert code == 0
        assert "Γ =" in out

    def test_physical_requires_eta_option_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "spectrum", "physical": PHYSICAL_RB, "options": {}}))
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 1
        assert "eta" in err

    def test_integral_float_atom_number(self, capsys, tmp_path):
        outs = []
        for n in (10**6, 1e6):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"mode": "spectrum", "physical": dict(PHYSICAL_RB, N=n), "options": {"eta": 1}}))
            code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
            assert code == 0 and "Γ =" in out
            outs.append(out)
        assert outs[0] == outs[1]

    def test_physical_with_scaled_flags_conflicts(self, capsys, tmp_path):
        blob = tmp_path / "phys.json"
        blob.write_text(json.dumps(PHYSICAL_RB))
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta21", ["1e60", "1e80", "1e100"])
    def test_overflowing_step_matrix_exit_code_2_and_no_file(self, capsys, tmp_path, delta21):
        out = tmp_path / "f.csv"
        code, stdout, err = run_cli(
            capsys,
            "evolve", "--delta21", delta21, "--alpha-beta", "1", "--eta", "1",
            "--tau-end", "1", "--dt", "1e-3", "-o", str(out),
        )
        assert code == 2
        assert err.startswith("numerical failure: ") and "reduce dt" in err and "nan" not in err
        assert stdout == "" and not out.exists()


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tau-end", "inf", "tau_end must be finite, got inf"),
            ("--tau-end", "nan", "tau_end must be finite, got nan"),
            ("--dt", "inf", "dt must be positive and finite, got inf"),
            ("--dt", "nan", "dt must be positive and finite, got nan"),
        ],
    )
    def test_non_finite_span_or_step_exit_code_1(self, capsys, tmp_path, flag, value, message):
        out = tmp_path / "f.csv"
        argv = {"--tau-end": "10", "--dt": "1e-3", flag: value}
        code, stdout, err = run_cli(
            capsys,
            "evolve", "--delta21", "0", "--alpha-beta", "1", "--eta", "1",
            *(x for kv in argv.items() for x in kv), "-o", str(out),
        )
        assert code == 1
        assert message in err
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


    def test_ratio_past_the_float_range_is_named(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *"mass-study --alpha-beta-base 1 --ratios 1,1e200 -o ms".split())
        assert code == 1
        assert err == (
            "error: mass ratio 1e+200 takes the control point (s*delta21, alpha_beta_base*s**2) past the float range "
            f"at alpha_beta_base = 1.0, delta21 in [-2.0, 6.0]: both must stay within {sys.float_info.max!r} in magnitude\n"
        )
        assert out == "" and not any(tmp_path.iterdir())


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

    def test_quote_in_path_is_doubled(self, capsys, tmp_path):
        # gnuplot ends a single-quoted string at a lone quote; inside one, '' stands for '
        a = self.make_curve(capsys, tmp_path, "it's.csv", "0.1")
        script = tmp_path / "q.gp"
        code, _, _ = run_cli(capsys, "plot-script", str(a), "-o", str(script))
        assert code == 0
        text = script.read_text()
        quoted = "'" + str(a).replace("'", "''") + "'"
        assert text.count(quoted + " using") == 2
        assert str(a) + "'" not in text.replace(quoted, "")

    @pytest.mark.parametrize("where", ["path", "axis"])
    @pytest.mark.parametrize("brk", ["\n", "\r"])
    def test_line_break_is_rejected(self, capsys, tmp_path, where, brk):
        # a line break would end the quoted string and start a new gnuplot command
        if where == "path":
            a = self.make_curve(capsys, tmp_path, f"a{brk}system('true').csv")
        else:
            a = self.make_curve(capsys, tmp_path)
            text = a.read_text().replace('"axis": "delta21"', '"axis": "x' + json.dumps(brk)[1:-1] + "system('true')\"", 1)
            a.write_text(text)
        script = tmp_path / "q.gp"
        code, _, err = run_cli(capsys, "plot-script", str(a), "-o", str(script))
        assert code == 1
        assert "line break" in err
        assert not script.exists()

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

    HEADER = "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3"
    ROW = "delta21,0.5,{},0.1,II,0,0,0,0,0,0"

    def test_reordered_columns_refused(self, capsys, tmp_path):
        # the script reads the growth rate by position: a file with gamma and re_l1 swapped would plot re_l1
        bad = tmp_path / "bad.csv"
        swap = lambda line: ",".join(line.split(",")[i] for i in (0, 1, 2, 5, 4, 3, 6, 7, 8, 9, 10))
        bad.write_text(f"{swap(self.HEADER)}\n{swap('delta21,0.5,RAO,0.1,II,0.7,0,0,0,0,0')}\n")
        code, out, err = run_cli(capsys, "plot-script", str(bad), "-o", str(tmp_path / "x.gp"))
        assert (code, out) == (1, "")
        assert "columns must be axis_name,axis_value,regime,gamma," in err
        assert not (tmp_path / "x.gp").exists()

    @pytest.mark.parametrize(
        "text, meta, regimes, rows",
        [
            # a '#' line after the header, and one without a colon
            (f"# spec: {{\"axis\": \"delta21\"}}\n{HEADER}\n# note: not json\n#bare\n{ROW.format('RAO')}\n",
             {"spec": {"axis": "delta21"}, "note": "not json"}, ["RAO"], 1),
            # blank lines anywhere, and a header with padded cells
            (f"\n\n{HEADER.replace(',', ' , ')}\n\n{ROW.format('RAO')}\n\n{ROW.format('WAO')}\n\n",
             {}, ["RAO", "WAO"], 2),
            # CRLF line ends
            (f"# mass_ratio: 10\r\n{HEADER}\r\n{ROW.format('WAO')}\r\n", {"mass_ratio": 10}, ["WAO"], 1),
            # a two-cell row counts as a row without a regime
            (f"{HEADER}\ndelta21,0.5\n{ROW.format('RAO')}", {}, ["RAO"], 2),
            # regimes keep the order of their first rows
            (f"{HEADER}\n{ROW.format('WAO')}\n{ROW.format('WAO')}\n{ROW.format('RAO')}\n{ROW.format('WAO')}\n",
             {}, ["WAO", "RAO"], 4),
        ],
        ids=["comment_after_header", "blank_lines", "crlf", "two_cells", "wao_first"],
    )
    def test_inspect_hand_written(self, tmp_path, text, meta, regimes, rows):
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _inspect_result_csv(str(path)) == {"meta": meta, "regimes": regimes, "rows": rows}

    def test_inspect_header_without_rows_and_missing_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"# spec: {{}}\n{self.HEADER}\n\n# late: 1\n")
        with pytest.raises(ConfigError, match="no data rows"):
            _inspect_result_csv(str(path))
        path.write_text("# spec: {}\n\n")
        with pytest.raises(ConfigError, match="no data rows"):
            _inspect_result_csv(str(path))
        with pytest.raises(ConfigError, match="cannot read result file"):
            _inspect_result_csv(str(tmp_path / "absent.csv"))

    def test_inspect_memory_stays_bounded(self, tmp_path):
        # 10**5 rows, a 3.5 MB file: the scan holds one line at a time
        path = tmp_path / "big.csv"
        path.write_text(f"# spec: {{\"axis\": \"delta21\"}}\n{self.HEADER}\n" + "".join(f"{self.ROW.format(r)}\n" for r in ("RAO", "WAO") * 50_000))
        tracemalloc.start()
        try:
            info = _inspect_result_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info["rows"] == 10**5 and info["regimes"] == ["RAO", "WAO"]
        assert peak <= 1e6

    @pytest.mark.parametrize("regime", ["rao", " RAO ", "wao"])
    def test_no_plottable_rows_is_error(self, capsys, tmp_path, regime):
        # regimes are matched exactly: no file has a row to plot, so there is no script
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            path.write_text(f"{self.HEADER}\n{self.ROW.format(regime)}\n")
        script = tmp_path / "x.gp"
        code, _, err = run_cli(capsys, "plot-script", *map(str, paths), "-o", str(script))
        assert code == 1
        assert "no RAO or WAO rows to plot" in err and all(repr(str(p)) in err for p in paths)
        assert not script.exists()

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

    @pytest.mark.parametrize("mode", list(MODES))
    def test_help_lists_the_flags_of_the_tables_only(self, capsys, mode):
        # every flag of a mode comes from its rows: POINT (with a parameter block) and its options, ETA among them
        with pytest.raises(SystemExit):
            main([mode, "--help"])
        rows = (POINT if MODES[mode].block else ()) + MODES[mode].options
        flags = {flag for o in rows for flag in o.flags if flag.startswith("--")}
        assert set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) == flags | {"--help"}
        assert (mode in ("spectrum", "threshold", "evolve")) == ("--eta" in flags)

    def test_every_mode_has_help(self, capsys):
        for mode in ("spectrum", "curve", "threshold", "evolve", "mass-study", "validate", "plot-script", "run"):
            with pytest.raises(SystemExit) as exc:
                main([mode, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["bogus"], [], ["-h", "curve"]]
        + [[mode, "--help"] for mode in ("spectrum", "curve", "threshold", "evolve", "mass-study", "validate", "plot-script", "run")]
        + [
            ["curve", "--axis", "delta21"],
            ["curve", "--axis", "bogus", "--from", "0", "--to", "1", "--points", "5", "-o", "x.csv"],
            ["evolve", "--tau-end", "1", "--a1-seed", "x", "-o", "x.csv"],
            ["curve", "--axis", "delta21", "--from", "0", "--to", "1", "--points", "5", "-o", "x.csv", "--bogus"],
            ["curve", "--axis", "delta21", "--from", "0", "--to", "1", "--points", "5", "-o", "x.csv", "--version"],
            ["plot-script", "a.csv", "--bogus", "-o", "x.gp"],
            # no parser takes an abbreviated flag, whatever value follows it
            ["spectrum", "--delta", "-2e-1", "--alpha-beta", "1"],
            ["spectrum", "--delta", "-2", "--alpha-beta", "1"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_output_matches_fully_built_parser(self, capsys, argv):
        # main parses a subcommand's arguments with that subcommand's parser alone
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert capsys.readouterr() == expected
        assert got.value.code == full.value.code
