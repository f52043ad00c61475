"""Command-line interface tests: flags, config round-trip, exit codes, plot scripts."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carl
from carl.cli import (
    MODES,
    POINT,
    REQUIRED,
    ConfigError,
    _config_from_args,
    _inspect_result_csv,
    _parse_args,
    _ROWS,
    build_parser,
    emit_plot_script,
    main,
)

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
                "mass-study --alpha-beta-base 5 --ratios 1,10 --points 51 -o fig2",
                {"mode": "mass-study",
                 "options": {"alpha_beta_base": 5, "ratios": [1, 10], "points": 51, "output": "fig2"}},
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
                "evolve --delta21 0 --alpha-beta 1 --eta 1 --tau-end 2 --a1-seed 1e-6 -o traj.csv",
                None,  # the flag run's own config document, as JSON
                ["traj.csv"],
            ),
            (
                "curve --axis delta21 --from -1 --to 3 --points 5 --alpha-beta 0.5 -o nulls.csv",
                {"mode": "curve", "scaled": {"delta21": 0.0, "alpha": 0.5, "beta": 1.0, "eta": 0},
                 "options": {"axis": "delta21", "from": -1, "to": 3, "points": 5, "regimes": None,
                             "format": None, "output": "nulls.csv"}},
                ["nulls.csv"],
            ),
        ],
        ids=["spectrum", "curve-json", "threshold", "evolve", "mass-study", "mass-study-ratios-list", "validate",
             "evolve-a1-seed-dumped", "curve-null-defaults"],
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
                config = _config_from_args(_parse_args(argv.split())) if config is None else config
                (workdir / "run.json").write_text(json.dumps(config))
                code, out, _ = run_cli(capsys, "run", "--config", "run.json")
            assert code == 0
            runs[how] = (out, [(workdir / name).read_bytes() for name in outputs])
        assert runs["flags"] == runs["config"]

    def test_flags_left_out_stay_out_of_the_config(self):
        # the values and defaults come from the rows, in _resolve, so the config of a flag run holds the text of the flags given
        args = _parse_args("mass-study --alpha-beta-base 5 --ratios 1,10 -o fig2".split())
        assert _config_from_args(args) == {
            "mode": "mass-study", "options": {"alpha_beta_base": "5", "ratios": "1,10", "output": "fig2"}}
        args = _parse_args("curve --axis delta21 --from -1 --to 3 --points 5 -o c.csv".split())
        assert _config_from_args(args)["options"] == {"axis": "delta21", "from": "-1", "to": "3", "points": "5", "output": "c.csv"}

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
CURVE_ARGV = "curve --axis delta21 --from -1 --to 3 --points 5 --alpha-beta 1 -o c.csv"
CURVE_CONFIG = {"mode": "curve", "scaled": {"delta21": 0.0, "alpha": 1.0, "beta": 1.0, "eta": 0},
                "options": {"axis": "delta21", "from": -1, "to": 3, "points": 5, "output": "c.csv"}}
K0 = 2.0 * math.pi / 780e-9
OMEGA0 = 2.0 * math.pi * 384.23e12
OMEGA2 = OMEGA0 - 2.0 * math.pi * 30e9
PHYSICAL_RB = {
    "mu": 2.5e-29, "V": 1e-6, "m": 1.44316e-25, "N": 10**6, "k0": K0,
    "omega0": OMEGA0, "omega1": OMEGA2, "omega2": OMEGA2, "a2_0": 1e4,
}
# a sweep result file with a row of each plotted regime, for plot-script runs
RESULT_CSV = ('# spec: {"axis": "delta21", "fixed": 1.0}\n# mass_ratio: 10\n'
              "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3\n"
              "delta21,0.5,RAO,0.1,II,0,0,0,0,0,0\ndelta21,0.5,WAO,0.2,II,0,0,0,0,0,0\n")


@contextlib.contextmanager
def _cwd(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def _run_in(workdir, argv, inputs=("phys.json", "run.json", "a.csv", "b.csv")):
    """``main(argv)`` run in ``workdir``: its exit code, stdout, stderr and the bytes of each file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with _cwd(workdir), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for name in sorted(set(os.listdir(workdir)) - set(inputs)):
        with open(os.path.join(workdir, name), "rb") as f:
            files[name] = f.read()
    return code, out.getvalue(), err.getvalue(), files


def _menu(mode, o):
    """The texts of row ``o`` of ``mode``: two valid ones that run in milliseconds, and the ones its row refuses."""
    valid = {
        "delta21": ("0.5", "-1"), "alpha_beta": ("1", "0.25"), "alpha": ("0.5", "2"), "beta": ("2", "0.5"),
        "physical": ("phys.json", "phys.json"), "eta": ("0", "1"), "output": ("out", "out.json"),
        "axis": ("delta21", "alpha_beta"), "from": ("-1", "0.5"), "to": ("3", "1"), "points": ("5", "64"),
        "regimes": ("wao", "both"), "format": ("csv", "json"), "delta21_from": ("-2", "0"), "delta21_to": ("6", "2"),
        "alpha_beta_from": ("0.01", "0"), "alpha_beta_to": ("10", "2"), "resolution": ("16", "64"),
        "tau_end": ("0.5", "2"), "dt": ("1e-3", "0.01"), "stride": ("1", "50"), "a1_seed": ("1e-6", "-2e-3"),
        "b0": ("0", "1e-3"), "bdot0": ("0", "-1e-3"), "alpha_beta_base": ("1", "5"), "ratios": ("1,10", "2"),
        "samples": ("1", "2"), "seed": ("0", "7"), "results": ("a.csv", "b.csv a.csv"), "style": ("fig1", "mass-study"),
    }[o.key]
    refused = ["missing/out" if o.key == "output" else "x"]
    refused += ["2.5"] if o.key in ("eta", "points", "resolution", "stride", "samples", "seed") else []
    refused += ["2"] if o.choices else []
    refused += ["nan", "-inf", "1e30"] if o.key in MODES[mode].sizes else []
    refused += ["-1", "nan"] if o.key == "alpha_beta" else []
    return valid, refused


# the control-point flags a command line gives: each valid set, then three that conflict
POINT_SETS = ((), ("delta21",), ("alpha_beta",), ("delta21", "alpha_beta"), ("delta21", "alpha", "beta"), ("physical",),
              ("alpha",), ("alpha_beta", "alpha", "beta"), ("delta21", "physical"))


@st.composite
def _flag_runs(draw, mode):
    """A command line of ``mode``: every required row and a subset of the others, at most one of them with a refused text."""
    point = draw(st.sampled_from(POINT_SETS)) if MODES[mode].block else ()
    rows = [o for o in POINT if o.key in point] + [o for o in MODES[mode].options if o.default is REQUIRED or draw(st.booleans())]
    refused = draw(st.sampled_from(rows)) if rows and draw(st.booleans()) else None
    texts = {o.key: draw(st.sampled_from(_menu(mode, o)[o is refused])) for o in rows}
    # a positional row's text holds its words
    return [mode, *(x for o in rows for x in ((o.flags[-1], texts[o.key]) if o.flags else texts[o.key].split()))]


@pytest.mark.parametrize("mode", list(MODES))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_flag_run_is_its_config_document(mode, data):
    """A flag run and ``carl run --config`` of its JSON config document give the same exit code, output and files."""
    argv = data.draw(_flag_runs(mode))
    with tempfile.TemporaryDirectory() as flags, tempfile.TemporaryDirectory() as config:
        with open(os.path.join(flags, "phys.json"), "w") as f:
            json.dump(PHYSICAL_RB, f)
        for workdir in (flags, config):
            for name in ("a.csv", "b.csv"):
                with open(os.path.join(workdir, name), "w") as f:
                    f.write(RESULT_CSV)
        ran = _run_in(flags, argv)
        with _cwd(flags):  # where the --physical file is
            try:
                doc = _config_from_args(_parse_args(argv))
            except ConfigError as exc:
                assert ran == (1, "", f"error: {exc}\n", {})
                return
        with open(os.path.join(config, "run.json"), "w") as f:
            json.dump(doc, f)
        assert ran == _run_in(config, ["run", "--config", "run.json"])


# a physical block with each mode's options, as flags and as a config; --eta and the eta option are added to both
REGIME_RUNS = {
    "spectrum": ("spectrum -o out.json", {"output": "out.json"}),
    "threshold": ("threshold --delta21-from -2 --delta21-to 6 --alpha-beta-from 0.01 --alpha-beta-to 10 --resolution 32 -o out.csv",
                  {"delta21_from": -2, "delta21_to": 6, "alpha_beta_from": 0.01, "alpha_beta_to": 10, "resolution": 32,
                   "output": "out.csv"}),
    "evolve": ("evolve --tau-end 1 -o out.csv", {"tau_end": 1, "output": "out.csv"}),
    "curve": ("curve --axis delta21 --from -1 --to 3 --points 5 -o out.csv",
              {"axis": "delta21", "from": -1, "to": 3, "points": 5, "output": "out.csv"}),
}


class TestRegimeOfAPhysicalBlock:
    """A physical block carries no regime: the modes with the eta option need it, by flags and by config alike."""

    def runs(self, tmp_path, mode, eta):
        argv, options = REGIME_RUNS[mode]
        if eta is not None:
            argv, options = f"{argv} --eta {eta}", dict(options, eta=eta)
        (tmp_path / "flags").mkdir()
        (tmp_path / "config").mkdir()
        (tmp_path / "flags" / "phys.json").write_text(json.dumps(PHYSICAL_RB))
        (tmp_path / "config" / "run.json").write_text(json.dumps({"mode": mode, "physical": PHYSICAL_RB, "options": options}))
        ran = _run_in(tmp_path / "flags", [*argv.split(), "--physical", "phys.json"])
        assert ran == _run_in(tmp_path / "config", ["run", "--config", "run.json"])
        return ran

    @pytest.mark.parametrize("mode", ["spectrum", "threshold", "evolve"])
    def test_without_eta_is_named_error(self, tmp_path, mode):
        code, out, err, files = self.runs(tmp_path, mode, None)
        assert (code, out, files) == (1, "", {})
        assert err == "error: the 'physical' block carries no regime; set the 'eta' option (0=RAO, 1=WAO)\n"

    @pytest.mark.parametrize("mode", ["spectrum", "threshold", "evolve"])
    def test_with_eta_writes_the_same_bytes(self, tmp_path, mode):
        code, _, err, files = self.runs(tmp_path, mode, 1)
        assert (code, err) == (0, "") and list(files) == [REGIME_RUNS[mode][1]["output"]]

    def test_curve_reads_only_the_fixed_control(self, tmp_path):
        code, _, err, files = self.runs(tmp_path, "curve", None)
        assert (code, err) == (0, "") and list(files) == ["out.csv"]


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
            (MASS_STUDY_ARGV.format(-2, 6, 10**30), [f"'points' = '{10**30}' in options for mode 'mass-study': must be <="]),
            (VALIDATE_ARGV.replace("--points 41", f"--points {10**30}"),
             [f"'points' = '{10**30}' in options for mode 'validate': must be <="]),
            (THRESHOLD_ARGV + f" --resolution {10**30}", [f"'resolution' = '{10**30}' in options for mode 'threshold': must be <="]),
            (EVOLVE_ARGV + f" --tau-end 1 --stride {10**30}", [f"'stride' = '{10**30}' in options for mode 'evolve': must be <="]),
            (EVOLVE_ARGV + " --tau-end 1e300", ["tau_end - tau = 1e+300 is 1e+303 steps of dt = 0.001, more than 2**53"]),
            # the window of the threshold map, checked by the option table
            (THRESHOLD_ARGV.replace("--alpha-beta-to 10", "--alpha-beta-to=1e200"),
             ["'alpha_beta_to' = '1e200' in options for mode 'threshold': "
              "must be finite and either <= 0 or in [2.2250738585072014e-308, 1e+150]"]),
            (THRESHOLD_ARGV.replace("--alpha-beta-from 0.01", "--alpha-beta-from=1e-320"),
             ["'alpha_beta_from' = '1e-320' in options for mode 'threshold': must be finite and either <= 0"]),
            (THRESHOLD_ARGV.replace("--delta21-from -2", "--delta21-from=-1e101"),
             ["'delta21_from' = '-1e101' in options for mode 'threshold': must be in [-1e+100, 1e+100]"]),
            (THRESHOLD_ARGV.replace("--alpha-beta-from 0.01", "--alpha-beta-from=nan"),
             ["'alpha_beta_from' = 'nan' in options for mode 'threshold': must be finite and either <= 0"]),
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
            # regimes and ratios are parsed by their rows, from a flag's text or a config value alike
            (CURVE_ARGV + " --regimes x", ["'regimes' = 'x' in options for mode 'curve': must be 'rao', 'wao' or 'both'"]),
            (CURVE_ARGV + " --regimes 5", ["'regimes' = '5' in options for mode 'curve': must be 'rao', 'wao' or 'both'"]),
            (CURVE_ARGV + " --regimes rao,wao", ["'regimes' = 'rao,wao' in options for mode 'curve': must be 'rao', 'wao'"]),
            (VALIDATE_ARGV + " --regimes x", ["'regimes' = 'x' in options for mode 'validate': must be 'rao', 'wao'"]),
            (MASS_STUDY_ARGV.format(-2, 6, 5) + " --regimes x", ["'regimes' = 'x' in options for mode 'mass-study': must be"]),
            (dict(CURVE_CONFIG, options=dict(CURVE_CONFIG["options"], regimes=5)),
             ["'regimes' = 5 in options for mode 'curve': must be 'rao', 'wao' or 'both'"]),
            (dict(CURVE_CONFIG, options=dict(CURVE_CONFIG["options"], regimes="x")),
             ["'regimes' = 'x' in options for mode 'curve': must be 'rao', 'wao' or 'both'"]),
            (dict(CURVE_CONFIG, options=dict(CURVE_CONFIG["options"], regimes=["rao"])),
             ["'regimes' = ['rao'] in options for mode 'curve': must be 'rao', 'wao' or 'both'"]),
            (MASS_STUDY_ARGV.replace("--ratios 1", "--ratios x").format(-2, 6, 5),
             ["'ratios' = 'x' in options for mode 'mass-study': must be a comma-separated list of numbers"]),
            (MASS_STUDY_ARGV.replace("--ratios 1", "--ratios 1,x").format(-2, 6, 5),
             ["'ratios' = '1,x' in options for mode 'mass-study': must be a comma-separated list of numbers"]),
            ({"mode": "mass-study", "options": {"alpha_beta_base": 5, "ratios": 5, "output": "ms"}},
             ["'ratios' = 5 in options for mode 'mass-study': must be a comma-separated list of numbers"]),
            ({"mode": "mass-study", "options": {"alpha_beta_base": 5, "ratios": "x", "output": "ms"}},
             ["'ratios' = 'x' in options for mode 'mass-study': must be a comma-separated list of numbers"]),
            ({"mode": "mass-study", "options": {"alpha_beta_base": 5, "ratios": [1, "10"], "output": "ms"}},
             ["'ratios' = [1, '10'] in options for mode 'mass-study': must be a comma-separated list of numbers"]),
            ({"mode": "mass-study", "options": {"alpha_beta_base": 5, "ratios": [1, 10**400], "output": "ms"}},
             ["'ratios' = [1, 1000", "in options for mode 'mass-study': int too large to convert to float"]),
            # a config value outside a row's choices, which argparse checks for a flag
            (dict(CURVE_CONFIG, options=dict(CURVE_CONFIG["options"], axis="x")),
             ["'axis' = 'x' in options for mode 'curve': must be one of delta21, alpha_beta"]),
            (dict(CURVE_CONFIG, options=dict(CURVE_CONFIG["options"], format="xml")),
             ["'format' = 'xml' in options for mode 'curve': must be one of csv, json"]),
            ({"mode": "spectrum", "scaled": SCALED_WAO, "options": {"eta": 2}},
             ["'eta' = 2 in options for mode 'spectrum': must be one of 0, 1"]),
            # a flag's value is read by its row too, not by argparse
            ("curve --axis bogus --from 0 --to 1 --points 5 -o x.csv",
             ["'axis' = 'bogus' in options for mode 'curve': must be one of delta21, alpha_beta"]),
            ("evolve --tau-end 1 --a1-seed x -o x.csv", ["'a1_seed' = 'x' in options for mode 'evolve': complex() arg is a malformed string"]),
            ("spectrum --eta 2", ["'eta' = '2' in options for mode 'spectrum': must be one of 0, 1"]),
            ("plot-script a.csv --style bogus -o x.gp", ["'style' = 'bogus' in options for mode 'plot-script': must be one of fig1, mass-study"]),
            ({"mode": "plot-script", "options": {"results": [], "output": "x.gp"}},
             ["'results' = [] in options for mode 'plot-script': must be a non-empty list of paths"]),
            (CURVE_ARGV.replace("--points 5", "--points 5.7"), ["'points' = '5.7' in options for mode 'curve'"]),
            ("spectrum --alpha-beta x", ["'alpha_beta' = 'x' in control-point flags: could not convert string to float: 'x'"]),
            # a product the scaled flags cannot split into alpha = alpha_beta, beta = 1 is named by its own flag
            ("spectrum --alpha-beta -1", ["'alpha_beta' = '-1' in control-point flags: must be finite and >= 0"]),
            (EVOLVE_ARGV.replace("--alpha-beta 1", "--alpha-beta nan") + " --tau-end 1",
             ["'alpha_beta' = 'nan' in control-point flags: must be finite and >= 0"]),
            # half of the --alpha/--beta pair
            ("spectrum --alpha 1 --eta 1", ["--alpha and --beta must be given together"]),
            ("spectrum --beta 1 --eta 1", ["--alpha and --beta must be given together"]),
            # an output path into a directory that does not exist
            (CURVE_ARGV.replace("-o c.csv", "-o missing/c.csv"), ["error: [Errno 2] No such file or directory: 'missing/c.csv'\n"]),
            (CURVE_ARGV.replace("-o c.csv", "--format json -o missing/c.json"), ["error: [Errno 2] No such file or directory: 'missing/c.json'\n"]),
            (THRESHOLD_ARGV.replace("-o thr.csv", "-o missing/thr.csv"), ["error: [Errno 2] No such file or directory: 'missing/thr.csv'\n"]),
            (EVOLVE_ARGV.replace("-o traj.csv", "-o missing/traj.csv") + " --tau-end 1", ["error: [Errno 2] No such file or directory: 'missing/traj.csv'\n"]),
            (MASS_STUDY_ARGV.replace("-o rev", "-o missing/rev").format(-2, 6, 5),
             ["error: [Errno 2] No such file or directory: 'missing/rev_r1.csv'\n"]),
            ("spectrum --alpha-beta 1 -o missing/s.json", ["error: [Errno 2] No such file or directory: 'missing/s.json'\n"]),
            (VALIDATE_ARGV + " -o missing/v.json", ["error: [Errno 2] No such file or directory: 'missing/v.json'\n"]),
            # an initial state that is not finite is refused by its row, before any step
            ("evolve --alpha-beta 1 --eta 1 --tau-end 1 --a1-seed nan -o x.csv",
             ["'a1_seed' = 'nan' in options for mode 'evolve': must be finite"]),
            ("evolve --alpha-beta 1 --eta 1 --tau-end 1 --a1-seed inf -o x.csv",
             ["'a1_seed' = 'inf' in options for mode 'evolve': must be finite"]),
            (EVOLVE_ARGV + " --tau-end 1 --b0=-inf", ["'b0' = '-inf' in options for mode 'evolve': must be finite"]),
            ({"mode": "evolve", "scaled": SCALED_WAO, "options": {"tau_end": 1, "bdot0": [0, math.nan], "output": "traj.csv"}},
             ["'bdot0' = [0, nan] in options for mode 'evolve': must be finite"]),
            # a constant term alpha_beta + eta*delta21 past the float range names the control point
            ("spectrum --delta21 1e308 --alpha-beta 1e308 --eta 1",
             ["alpha_beta + eta*delta21 must be finite, got delta21 = 1e+308, alpha_beta = 1e+308, eta = 1"]),
            ("curve --delta21 1e308 --axis alpha_beta --from 1e308 --to 1.5e308 --points 2 -o c.csv",
             ["alpha_beta + eta*delta21 must be finite, got delta21 = 1e+308, alpha_beta = 1e+308, eta = 1"]),
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
             "scaled-eta-bool", "physical-N-bool", "from-bool", "ratios-bool", "a1_seed-bool-pair", "output-bool",
             "regimes-flag-word", "regimes-flag-number", "regimes-flag-list", "validate-regimes-flag", "mass-study-regimes-flag",
             "regimes-number", "regimes-word", "regimes-list", "ratios-flag-word", "ratios-flag-list-with-word",
             "ratios-number", "ratios-word", "ratios-list-with-string", "ratios-past-float",
             "axis-not-a-choice", "format-not-a-choice", "eta-not-a-choice",
             "axis-flag-not-a-choice", "a1_seed-flag-word", "eta-flag-not-a-choice", "style-flag-not-a-choice",
             "results-empty", "points-flag-fraction", "alpha-beta-flag-word", "alpha-beta-flag-negative", "alpha-beta-flag-nan",
             "alpha-without-beta", "beta-without-alpha",
             "curve-missing-dir", "curve-json-missing-dir", "threshold-missing-dir", "evolve-missing-dir", "mass-study-missing-dir",
             "spectrum-missing-dir", "validate-missing-dir",
             "a1_seed-flag-nan", "a1_seed-flag-inf", "b0-flag-minus-inf", "bdot0-nan-pair",
             "spectrum-constant-term-past-float", "curve-constant-term-past-float"],
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

    @pytest.mark.parametrize(
        "argv, options, named",
        [
            ("spectrum --alpha-beta 1 --output=--", None, "'output' = [] in options for mode 'spectrum'"),
            (CURVE_ARGV.replace("-o c.csv", "--output=--"), None, "'output' = [] in options for mode 'curve'"),
            ("spectrum --physical=--", None, "'physical' = [] in control-point flags"),
            ("run --config run.json", {"output": ["a"]}, "'output' = ['a'] in options for mode 'curve'"),
            ("run --config=--", None, "'config' = [] in run flags"),
        ],
        ids=["spectrum-output", "curve-output", "physical", "config-output-list", "run-config"],
    )
    def test_text_rows_take_text_only(self, tmp_path, argv, options, named):
        # argparse reads --flag=-- as [], which str() would spell as the file name '[]'
        if options:
            (tmp_path / "run.json").write_text(json.dumps(dict(CURVE_CONFIG, options=dict(CURVE_CONFIG["options"], **options))))
        assert _run_in(tmp_path, argv.split()) == (1, "", f"error: {named}: must be text\n", {})


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


def _negatives_joined(argv):
    """``argv`` as ``_parse_args`` hands it to argparse: a negative number after a flag of the tables as ``--flag=value``."""
    joined = []
    for token in argv:
        if joined and joined[-1] in carl.cli._VALUE_FLAGS and re.fullmatch(r"-(inf|\d*\.?\d+(e-?\d+)?)", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parsed(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, with what it printed to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _refuse(*args, **kwargs):
    raise AssertionError("an argparse parser was built")


# values of every kind: numbers, negative ones in exponent notation, empty, dashes, help, unknown flags and text
_VALUE_MENU = ["1", "0.5", "-2e-1", "-1e-320", "-inf", "", "-", "--", "-h", "--bogus", "x.csv", "delta21", "1,10", "a=b"]
_STRAY_TOKENS = ["-h", "--help", "--version", "--bogus", "--", "-ox.csv", "-o=x.csv", "x.csv", "--delta", "--output="]


def _command_lines(name):
    """Command lines of subcommand ``name``: its flags, spaced or ``--flag=value``, bare or stray tokens, runs of words
    for a positional row, its required rows or not."""
    rows = _ROWS[name]
    flags = [flag for o in rows for flag in o.flags]
    value = st.one_of(st.just("1"), st.sampled_from(_VALUE_MENU))
    group = st.one_of(
        st.tuples(st.sampled_from(flags), value).map(list),
        st.tuples(st.sampled_from([f for f in flags if f.startswith("--")]), value).map(lambda fv: ["=".join(fv)]),
        st.sampled_from(_STRAY_TOKENS + flags).map(lambda token: [token]),
        *([st.lists(value, min_size=1, max_size=3)] if any(not o.flags for o in rows) else []),
    )
    required = [[o.flags[-1], "1"] if o.flags else ["a.csv"] for o in rows if o.default is REQUIRED]
    groups = st.tuples(st.lists(group, max_size=4), st.booleans()).flatmap(
        lambda drawn: st.permutations(drawn[0] + (required if drawn[1] else [])))
    return groups.map(lambda drawn: [name] + [token for g in drawn for token in g])


class TestFlagRunReadOffTheRows:
    """A well-formed flag run is read off its mode's rows; the namespace, the exit code and every printed byte are argparse's."""

    THRESHOLD = "threshold --eta 1 --delta21-from -2 --delta21-to 6 --alpha-beta-from 0.01 --alpha-beta-to 10"

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(argv=st.one_of(*(_command_lines(name) for name in _ROWS)))
    @example(argv=["spectrum", "--alpha=--", "--beta", "1"])
    @example(argv=[*THRESHOLD.split(), "-o=x.csv"])
    @example(argv=[*THRESHOLD.split(), "-ox.csv"])
    @example(argv=["spectrum", "--output", "-"])
    @example(argv=["curve", "--axis", "delta21", "--from", "0", "--to", "1", "--points", "5", "--points=7", "--points", "9", "-o", "c.csv"])
    @example(argv=["spectrum", "--delta21", "-2e-1"])
    @example(argv=["spectrum", "--delta21=-inf"])
    @example(argv=[*THRESHOLD.split(), "-o", "x.csv", "-h"])
    @example(argv=["plot-script", "a.csv", "-o", "x.gp", "b.csv"])
    @example(argv=["plot-script", "-", "-o", "x.gp"])
    @example(argv=["plot-script", "--style", "fig1", "a.csv", "b.csv", "-o", "x.gp"])
    @example(argv=["run", "--config=--"])
    def test_rows_read_what_argparse_reads(self, argv):
        assert _parsed(_parse_args, argv) == _parsed(build_parser().parse_args, _negatives_joined(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            "spectrum --delta21=0.5 --alpha-beta 1 --eta 1 -o spectrum.json",
            "curve --axis alpha_beta --from 0.1 --to=2 --points 5 --delta21 -5e-1 --regimes wao --format json --output curve.json",
            THRESHOLD + " --resolution 32 --resolution=64 -o thr.csv",
            "evolve --delta21 0 --alpha-beta 1 --eta 1 --tau-end 2 --a1-seed=-1e-6 -o traj.csv",
            "mass-study --alpha-beta-base 5 --ratios 1,10 --points 51 -o fig2",
            "validate --axis delta21 --from -1 --to 3 --points 41 --alpha-beta 1 --samples 4 --seed 1 -o report.json",
            "plot-script a.csv b.csv --style=mass-study -o fig.gp",
            "run --config run.json",
        ],
        ids=list(_ROWS),
    )
    def test_a_well_formed_run_builds_no_parser(self, capsys, tmp_path, monkeypatch, argv):
        # the reference run parses by argparse, as every run did before the rows read a flag run
        inputs = {"a.csv": RESULT_CSV, "b.csv": RESULT_CSV, "run.json": json.dumps(CURVE_CONFIG)}
        runs = []
        for how in ("argparse", "rows"):
            (tmp_path / how).mkdir()
            for name, text in inputs.items():
                (tmp_path / how / name).write_text(text)
            monkeypatch.chdir(tmp_path / how)
            with monkeypatch.context() as mp:
                if how == "argparse":
                    mp.setattr(carl.cli, "_parse_args", lambda words: build_parser().parse_args(_negatives_joined(words)))
                else:
                    mp.setattr(argparse, "ArgumentParser", _refuse)
                code, out, err = run_cli(capsys, *argv.split())
            runs.append((code, out, err, sorted((p.name, p.read_bytes()) for p in (tmp_path / how).iterdir() if p.name not in inputs)))
        assert runs[0] == runs[1]
        assert runs[1][0] == 0 and runs[1][3]


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


    @pytest.mark.parametrize("output", ["fig.csv", "fig.json", "fig"])
    def test_extension_of_the_stem_is_dropped(self, capsys, tmp_path, monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        fmt = "json" if output.endswith(".json") else "csv"
        code, out, _ = run_cli(capsys, *f"mass-study --alpha-beta-base 5 --ratios 1,10 --points 5 --format {fmt} -o {output}".split())
        assert code == 0
        assert out == f"mass-study: ratios [1.0, 10.0] -> fig_r1.{fmt}, fig_r10.{fmt}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig_r1.{fmt}", f"fig_r10.{fmt}"]

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

    @pytest.mark.parametrize(
        "argv, counts",
        [
            ("--samples 1", {"consistent_stable": 1}),
            ("--samples 6 --seed 3 --alpha-beta 1e-9", {"consistent_stable": 3, "skipped_slow": 3}),
        ],
        ids=["decoupled-default", "decoupled-small-product"],
    )
    def test_rate_the_fit_cannot_tell_from_zero_is_stable(self, capsys, tmp_path, argv, counts):
        # below threshold at delta21 = 3 (and -1) the fit finds a rate of -2e-8 to -1.6e-11: no growth, not a mismatch
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(capsys, *f"validate --axis delta21 --from -1 --to 3 --points 5 {argv}".split(), "-o", str(out))
        assert (code, err) == (0, "")
        doc = json.loads(out.read_text())
        assert doc["counts"] == counts
        assert stdout.splitlines()[1:] == [f"wrote {out}"]
        stable = [e for e in doc["entries"] if e["status"] == "consistent_stable"]
        assert all(e["gamma_spectrum"] == 0.0 and 0.0 < abs(e["gamma_fit"]) * 40.0 <= 1e-2 for e in stable)

    def test_mismatch_lines_and_exit_code_2(self, capsys, tmp_path, monkeypatch):
        # every fit off by a half: each sample is a mismatch, printed and reported
        monkeypatch.setattr(carl.sweep, "fit_growth_rate", lambda traj, window: 1.5 * 60.0 / window[1])
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(
            capsys,
            "validate", "--axis", "delta21", "--from", "-0.1", "--to", "0.1", "--points", "3",
            "--alpha-beta", "1", "--regimes", "wao", "--samples", "2", "--seed", "0", "-o", str(out),
        )
        assert (code, err) == (2, "")
        doc = json.loads(out.read_text())
        assert doc["counts"] == {"mismatch": 2}
        lines = stdout.splitlines()
        assert lines[0] == "validate_sweep: 2 samples (mismatch=2)"
        for line, entry in zip(lines[1:3], doc["entries"]):
            assert line == (f"  MISMATCH WAO delta21={entry['axis_value']:g}: "
                            f"spectrum gamma={entry['gamma_spectrum']:.6g}, fit={entry['gamma_fit']}")
            assert entry["gamma_fit"] == 1.5 * entry["gamma_spectrum"]
        assert lines[3:] == [f"wrote {out}"]


def _inspect_by_lines(path):
    """The per-line scan the block reader replaced, its regimes restricted to RAO and WAO: the reference it must match."""
    meta, header, regimes, n_rows = {}, None, [], 0
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if ":" in body:
                        key, _, raw = body.partition(":")
                        try:
                            meta[key.strip()] = json.loads(raw.strip())
                        except json.JSONDecodeError:
                            meta[key.strip()] = raw.strip()
                elif header is None:
                    header = line
                    got, columns = [c.strip() for c in line.split(",")], carl.sweep._CSV_COLUMNS.split(",")
                    if got != columns:
                        missing = [c for c in columns if c not in got]
                        raise ConfigError(f"{path}: result file is missing column(s): {', '.join(missing)}" if missing
                                          else f"{path}: result file columns must be {carl.sweep._CSV_COLUMNS}, got {','.join(got)}")
                else:
                    n_rows += 1
                    cells = line.split(",", 3)
                    if len(cells) > 2 and cells[2] in ("RAO", "WAO") and cells[2] not in regimes:
                        regimes.append(cells[2])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read result file {path!r}: {exc}") from exc
    if n_rows == 0:
        raise ConfigError(f"{path}: result file contains no data rows; nothing to plot")
    return {"meta": meta, "regimes": regimes, "rows": n_rows}


def _outcome(inspect, path):
    """What ``inspect`` returns as JSON text, which refuses a numpy integer in place of an int, or its error."""
    try:
        return json.dumps(inspect(path))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


# the lines a result file is drawn from: meta, comments and blank lines anywhere, the header (padded or not,
# or missing), rows with and without a regime, lookalike regimes and non-ASCII cells
_RESULT_LINES = [
    '# spec: {"axis": "delta21", "fixed": 2.5}', "# mass_ratio: 10", "# note: not json", "#bare", "#: no key", "  # indented",
    "", "", carl.sweep._CSV_COLUMNS, carl.sweep._CSV_COLUMNS.replace(",", " , "), "delta21,0.5",
    *(f"delta21,0.5,{r},0.1,II,0,0,0,0,0,0" for r in ("RAO", "WAO", "RAO", "WAO", "rao", " RAO ", "RAOX", ",RAO", "WAO,")),
    "delta21,RAO,WAO,0.1", "delta21,WAO,x", "#,1,RAO", "# spec: ,WAO", "δ21,0.5,WAO,γ", "é,RAO,RAO", "\u2028,\x85,RAO",
]


# bytes that are not UTF-8: a sequence cut by an ASCII byte, an invalid start byte, a surrogate, and sequences the file ends in
DECODE_TAILS = [b"\xe2\x82A\n", b"\xff\n", b"\xed\xa0\x80\n", b"\xf0\x9f\x98", b"\xc3"]


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

    @pytest.mark.parametrize(
        "paths, style, message",
        [(["a.csv"], "fig2", "style must be 'fig1' or 'mass-study', got 'fig2'"),
         ([], "fig1", "at least one result file is required")],
        ids=["bad-style", "no-files"],
    )
    def test_emit_refuses_bad_style_or_no_files(self, tmp_path, paths, style, message):
        script = tmp_path / "x.gp"
        with pytest.raises(ConfigError, match=re.escape(message)):
            emit_plot_script(paths, style, str(script))
        assert not script.exists()

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
        "style, meta, label",
        [
            ("fig1", "# spec: 5", "fixed=?"),
            ("fig1", "# spec: not json", "fixed=?"),
            ("fig1", "# spec: [1, 2]", "fixed=?"),
            ("fig1", '# spec: {"fixed": true}', "fixed=?"),
            ("fig1", '# spec: {"fixed": "2"}', "fixed=?"),
            ("fig1", '# spec: {"fixed": 1' + "0" * 400 + "}", "fixed=?"),
            ("fig1", '# spec: {"fixed": 2.5}', "ab=2.5"),
            ("mass-study", "# mass_ratio: true", "m/m0=?"),
            ("mass-study", "# mass_ratio: 10", "m/m0=10"),
        ],
        ids=["spec-int", "spec-text", "spec-list", "fixed-bool", "fixed-text", "fixed-past-float", "fixed-float",
             "ratio-bool", "ratio-int"],
    )
    def test_label_only_from_a_number(self, capsys, tmp_path, style, meta, label):
        # meta that is not a JSON object, or a value that is not a number, takes the fallback label and axis
        path = tmp_path / "r.csv"
        path.write_text(f"{meta}\n{self.HEADER}\n{self.ROW.format('WAO')}\n")
        script = tmp_path / "x.gp"
        code, _, err = run_cli(capsys, "plot-script", str(path), "--style", style, "-o", str(script))
        assert (code, err) == (0, "")
        text = script.read_text()
        assert "set xlabel 'delta21 (scaled units)'" in text
        assert text.count("with lines") == 1 and f"title 'WAO {label}'" in text

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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_inspect_memory_stays_bounded(self, tmp_path, end):
        # 10**5 rows, a 3.5 MB file: the scan holds one line at a time, whichever byte ends the lines
        path = tmp_path / "big.csv"
        text = f"# spec: {{\"axis\": \"delta21\"}}\n{self.HEADER}\n" + "".join(f"{self.ROW.format(r)}\n" for r in ("RAO", "WAO") * 50_000)
        path.write_bytes(text.replace("\n", end).encode())
        tracemalloc.start()
        try:
            info = _inspect_result_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info["rows"] == 10**5 and info["regimes"] == ["RAO", "WAO"]
        assert peak <= 1e6

    def test_decode_error_names_the_byte_in_the_file(self, capsys, tmp_path):
        # a text read names the offset within the read it decodes, not within the file
        path = tmp_path / "bad.csv"
        code, _, _ = run_cli(capsys, "curve", "--axis", "delta21", "--from", "-2", "--to", "6", "--points", "801", "--alpha-beta", "1", "-o", str(path))
        data = bytearray(path.read_bytes())
        assert code == 0 and len(data) > 100000
        data[100000] = 0xFF
        path.write_bytes(data)
        code, out, err = run_cli(capsys, "plot-script", str(path), "-o", str(tmp_path / "x.gp"))
        assert (code, out) == (1, "")
        assert err == f"error: cannot read result file {str(path)!r}: 'utf-8' codec can't decode byte 0xff in position 100000: invalid start byte\n"

    @pytest.mark.parametrize("tail", DECODE_TAILS, ids=["cut-sequence", "invalid-start", "surrogate", "truncated-at-end", "one-byte-at-end"])
    @pytest.mark.parametrize("size", [1, 2, 7, 8])
    def test_decode_error_across_a_read_edge(self, tmp_path, monkeypatch, tail, size):
        # reads of 2, 7 and 8 bytes end at byte 56, inside a sequence from byte 55; its bytes are named at their offset
        # in the file, as a decode of the whole file names them
        data = self.HEADER.encode()[:55] + tail
        path = tmp_path / "r.csv"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        monkeypatch.setattr(carl.cli, "_READ", size)
        with pytest.raises(ConfigError) as exc:
            _inspect_result_csv(str(path))
        assert str(exc.value) == f"cannot read result file {str(path)!r}: {whole.value}"

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        lines=st.lists(st.tuples(st.sampled_from(_RESULT_LINES), st.sampled_from(["\n", "\r\n", "\r"])), max_size=10),
        end=st.sampled_from(["\n", "\r\n", "\r"]),
        tail=st.sampled_from(DECODE_TAILS),
        data=st.data(),
    )
    def test_decode_error_names_the_byte_anywhere(self, lines, end, tail, data):
        # a bad tail at any byte of a file with any line ends is named as a decode of the whole file names it
        text = (self.HEADER + end + "".join(line + e for line, e in lines)).encode()
        at = data.draw(st.integers(0, len(text)))
        bad = text[:at] + tail + text[at:]
        with pytest.raises(UnicodeDecodeError) as whole:
            bad.decode()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "r.csv")
            with open(path, "wb") as f:
                f.write(bad)
            for size in (1, 2, 7, carl.cli._READ):
                mp.setattr(carl.cli, "_READ", size)
                with pytest.raises(ConfigError) as exc:
                    _inspect_result_csv(path)
                assert str(exc.value) == f"cannot read result file {path!r}: {whole.value}", size

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

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        lines=st.lists(st.tuples(st.sampled_from(_RESULT_LINES), st.sampled_from(["\n", "\r\n", "\r"])), max_size=14),
        final=st.booleans(),
    )
    def test_block_reader_matches_the_per_line_scan(self, lines, final):
        # reads of 1, 2 and 7 characters cut lines and CRLF pairs across blocks
        text = "".join(line + end for line, end in lines)
        if lines and not final:
            text = text[:-len(lines[-1][1])]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = os.path.join(tmp, "r.csv")
            with open(path, "wb") as f:
                f.write(text.encode("utf-8"))
            expected = _outcome(_inspect_by_lines, path)
            for size in (1, 2, 7, carl.cli._READ):
                mp.setattr(carl.cli, "_READ", size)
                assert _outcome(_inspect_result_csv, path) == expected, size


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
        # main hands every line it cannot read off the rows, help and errors among them, to the fully built parser
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert capsys.readouterr() == expected
        assert got.value.code == full.value.code
