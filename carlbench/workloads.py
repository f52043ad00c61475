"""The three workloads: their seeded inputs, the operations of one pass and their checks.

A pass is a fixed list of operations. Each CLI invocation is one operation
(``carl.cli.main(argv)``, as the ``carl`` console script runs it), and so is
each library query. Every pass of a run repeats the same list on the same
inputs, so a run attempts whole rounds and a fault that fails every time
is the same share of every run.

An operation's ``run`` is timed; its ``collect`` (reading back the files it
wrote) and its ``check`` are not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

import checks

CURVE_POINTS = 801  # the CLI's usual curve size (mass-study default)
CURVE_RANGE = (-2.0, 6.0)  # the mass-study default detuning range
MASS_RATIOS = (1.0, 10.0, 100.0)
THRESHOLD_WINDOW = ((-4.0, 6.0), (0.05, 40.0))  # holds the whole boundary of both regimes
REFINE_TOL = 1e-8  # threshold_map's default vertex refinement
CD21_WINDOW = (-10.0, 20.0)  # critical_delta21's default window


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    collect: Callable[[object], object]
    check: Callable[[Dict[str, object]], None] = lambda outputs: None
    # a fault of the program that this operation shows on every run
    known_fault: Optional[str] = None


def _cli(name: str, carl_cli, argv: List[str], files: List[str]) -> Op:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = carl_cli.main(argv)
        return rc, out.getvalue()

    def collect(result):
        rc, stdout = result
        data = {}
        for path in files:
            with open(path, "rb") as f:
                data[path] = f.read()
        return {"rc": rc, "stdout": stdout, "files": data}

    return Op(name=name, run=run, collect=collect)


def _text(outputs, op: str, path: str) -> str:
    out = outputs[op]
    checks.fail_unless(out["rc"] == 0, f"{op}: exit code {out['rc']}")
    return out["files"][path].decode("utf-8")


def _seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


def curves(seed: int, workdir: str, carl) -> List[Op]:
    """Gain curves along delta21 at alpha_beta = A, A/10 and A/100, one along
    alpha_beta as JSON, the mass study at ratios 1, 10 and 100 from A, one
    curve again through ``run --config`` and the plot script over the CSVs.
    A is log-uniform in [0.5, 5] and the fixed delta21 of the JSON curve
    uniform in [-1, 3]."""
    rng = _seeded(seed, 1)
    base = float(10.0 ** rng.uniform(np.log10(0.5), np.log10(5.0)))
    d_fixed = float(rng.uniform(-1.0, 3.0))
    ops = []
    p = lambda name: os.path.join(workdir, name)

    lo, hi = CURVE_RANGE
    curve_paths, curve_ops = {}, {}
    for ratio in MASS_RATIOS:
        ab = base / ratio
        path = p(f"curve_r{ratio:g}.csv")
        argv = ["curve", "--axis", "delta21", "--from", repr(lo), "--to", repr(hi), "--points", str(CURVE_POINTS),
                "--alpha-beta", repr(ab), "--regimes", "both", "--format", "csv", "-o", path]
        op = _cli(f"carl curve delta21 alpha_beta={ab:.6g}", carl.cli, argv, [path])
        op.check = lambda o, n=op.name, path=path, ab=ab: checks.check_sweep_rows(checks.parse_sweep_csv(_text(o, n, path)), ab)
        ops.append(op)
        curve_paths[ratio], curve_ops[ratio] = path, op.name

    json_path = p("curve_alpha_beta.json")
    op = _cli(f"carl curve alpha_beta delta21={d_fixed:.6g} json", carl.cli,
              ["curve", "--axis", "alpha_beta", "--from", "0.01", "--to", "5", "--points", str(CURVE_POINTS),
               "--delta21", repr(d_fixed), "--format", "json", "-o", json_path], [json_path])
    op.check = lambda o, n=op.name: checks.check_sweep_rows(checks.parse_sweep_json(_text(o, n, json_path)), d_fixed)
    ops.append(op)

    stem = p("mass")
    mass_paths = {s: f"{stem}_r{s:g}.csv" for s in MASS_RATIOS}
    op = _cli(f"carl mass-study alpha_beta_base={base:.6g}", carl.cli,
              ["mass-study", "--alpha-beta-base", repr(base), "--ratios", ",".join(f"{s:g}" for s in MASS_RATIOS),
               "-o", stem], list(mass_paths.values()))

    def check_mass(o, n=op.name):
        gaps = {}
        for s, path in mass_paths.items():
            rows = checks.parse_sweep_csv(_text(o, n, path))
            checks.check_sweep_rows(rows, base, ratio=s)
            plain = checks.parse_sweep_csv(_text(o, curve_ops[s], curve_paths[s]))
            checks.check_mass_identity(rows, plain, s)
            gaps[s] = checks.wao_rao_gap(rows)
        checks.check_gap_shrinks(gaps)

    op.check = check_mass
    ops.append(op)

    config_path, config_out = p("curve_config.json"), p("curve_config.csv")
    config = {
        "mode": "curve",
        "scaled": {"delta21": 0.0, "alpha": base, "beta": 1.0, "eta": 0},
        "options": {"axis": "delta21", "from": lo, "to": hi, "points": CURVE_POINTS, "regimes": "both",
                    "output": config_out, "format": "csv"},
    }
    with open(config_path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    op = _cli("carl run --config (curve)", carl.cli, ["run", "--config", config_path], [config_out])
    op.check = lambda o, n=op.name: checks.check_identical(
        _text(o, n, config_out), _text(o, curve_ops[1.0], curve_paths[1.0]), "run --config against flags"
    )
    ops.append(op)

    sources = list(curve_paths.values()) + list(mass_paths.values())
    script = p("plot.gp")
    op = _cli("carl plot-script", carl.cli, ["plot-script", *sources, "--style", "fig1", "-o", script], [script])
    op.check = lambda o, n=op.name: checks.check_plot_script(_text(o, n, script), {s: ("RAO", "WAO") for s in sources})
    ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def _library(name: str, call: Callable[[], object], check: Callable[[object], None], known_fault=None) -> Op:
    return Op(name=name, run=call, collect=lambda r: {"value": r}, check=lambda o: check(o[name]["value"]), known_fault=known_fault)


def thresholds(seed: int, workdir: str, carl) -> List[Op]:
    """``carl threshold`` in both regimes at resolution 256 and 512 over a
    fixed window; ``critical_alpha_beta`` at 8 seeded detunings per regime,
    drawn where the threshold is at least 4e-3; ``critical_delta21`` at 3
    narrow WAO bands (alpha_beta log-uniform in [1e-4, 1e-2]) and 2 values
    per regime uniform in [0.1, 5]. Two fixed queries show faults."""
    rng = _seeded(seed, 2)
    ops = []
    d_range, ab_range = THRESHOLD_WINDOW
    for eta in (0, 1):
        for res in (256, 512):
            path = os.path.join(workdir, f"threshold_eta{eta}_{res}.csv")
            argv = ["threshold", "--eta", str(eta), "--delta21-from", repr(d_range[0]), "--delta21-to", repr(d_range[1]),
                    "--alpha-beta-from", repr(ab_range[0]), "--alpha-beta-to", repr(ab_range[1]),
                    "--resolution", str(res), "-o", path]
            op = _cli(f"carl threshold eta={eta} resolution={res}", carl.cli, argv, [path])
            op.check = lambda o, n=op.name, path=path, eta=eta: checks.check_polylines(
                checks.parse_polylines(_text(o, n, path)), eta, d_range, ab_range, REFINE_TOL
            )
            ops.append(op)

    sp = carl.spectrum
    # Thresholds of at least 4e-3 keep the bisection's absolute tolerance
    # (1e-10) below 1e-7 of the value; the fixed query further down shows
    # what happens closer to 0.
    detunings = {
        0: np.concatenate([rng.uniform(-3.0, -0.2, 3), rng.uniform(0.3, 5.0, 5)]),
        1: np.concatenate([rng.uniform(-5.0, 0.9, 4), rng.uniform(1.1, 8.0, 4)]),
    }
    for eta, ds in detunings.items():
        for d in map(float, ds):
            ops.append(_library(
                f"critical_alpha_beta({d!r}, {eta})",
                lambda d=d, eta=eta: sp.critical_alpha_beta(d, eta),
                lambda v, d=d, eta=eta: checks.check_critical_alpha_beta(d, eta, v),
            ))
    d = 1.0 + 1e-6
    ops.append(_library(
        f"critical_alpha_beta({d!r}, 1)",
        lambda: sp.critical_alpha_beta(d, 1),
        lambda v: checks.check_critical_alpha_beta(d, 1, v),
        known_fault="absolute bisection tolerance 1e-10 against a threshold of 5e-13",
    ))

    products = [(float(ab), 1) for ab in 10.0 ** rng.uniform(-4.0, -2.0, 3)]
    products += [(float(ab), eta) for eta in (0, 1) for ab in rng.uniform(0.1, 5.0, 2)]
    for ab, eta in products:
        ops.append(_library(
            f"critical_delta21({ab!r}, {eta})",
            lambda ab=ab, eta=eta: sp.critical_delta21(ab, eta),
            lambda v, ab=ab, eta=eta: checks.check_critical_delta21(ab, eta, CD21_WINDOW, v),
        ))
    window = (-10.0005, 20.0005)
    ops.append(_library(
        f"critical_delta21(1e-08, 1, window={window})",
        lambda: sp.critical_delta21(1e-8, 1, window=window),
        lambda v: checks.check_critical_delta21(1e-8, 1, window, v),
        known_fault="gain band narrower than the 1e-3 scan step, missed off the grid nodes",
    ))
    return ops


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

ABOVE = {"alpha": 1.0, "beta": 1.0, "eta": 1, "tau_end": 30.0, "dt": 1e-3}  # |B| crosses 1 near tau = 23
BELOW = {"alpha": 0.5, "beta": 1.0, "eta": 0, "tau_end": 60.0, "dt": 5e-3}  # threshold is 1.19 at delta21 = 2
VALIDATE = {"alpha_beta": 4.0, "from": 0.0, "to": 1.0, "points": 101, "samples": 8}  # gamma 1.2-1.4 on the whole axis
SEED_A1 = 1e-6


def _evolve_argv(run: Dict, stride: int, path: str) -> List[str]:
    return ["evolve", "--delta21", repr(run["delta21"]), "--alpha-beta", repr(run["alpha"] * run["beta"]),
            "--eta", str(run["eta"]), "--tau-end", repr(run["tau_end"]), "--dt", repr(run["dt"]),
            "--stride", str(stride), "--a1-seed", repr(SEED_A1), "-o", path]


def dynamics(seed: int, workdir: str, carl) -> List[Op]:
    """``carl evolve`` above threshold (WAO, delta21 uniform in [0.3, 0.7]) and
    below it (RAO, delta21 uniform in [2, 3]); the growth-rate fit of the
    below-threshold run through the library; ``carl validate`` along
    delta21 in [0, 1] at alpha_beta = 4, both regimes, with the run's seed
    choosing the samples."""
    rng = _seeded(seed, 3)
    above = dict(ABOVE, delta21=float(rng.uniform(0.3, 0.7)))
    below = dict(BELOW, delta21=float(rng.uniform(2.0, 3.0)))
    y0 = [SEED_A1, 0.0, 0.0]
    ops = []

    for label, run, crossing in (("above", above, True), ("below", below, False)):
        path = os.path.join(workdir, f"evolve_{label}.csv")
        op = _cli(f"carl evolve {label} threshold delta21={run['delta21']:.6g}", carl.cli,
                  _evolve_argv(run, 100 if crossing else 50, path), [path])

        def check(o, n=op.name, path=path, run=run, crossing=crossing):
            traj = checks.parse_trajectory(_text(o, n, path))
            checks.check_final_state(run, y0, traj, run["tau_end"], run["dt"])
            checks.check_linearity_flag(run, y0, traj["flag"], run["dt"], crossing)

        op.check = check
        ops.append(op)

    dyn, params = carl.dynamics, carl.params

    def fit_below():
        traj = dyn.evolve(params.ScaledParams.from_product(below["delta21"], below["alpha"], below["eta"]),
                          dyn.TrajectoryState(0.0, complex(SEED_A1), 0j, 0j), below["tau_end"], below["dt"],
                          output_stride=50)
        last = traj.samples[-1]
        out = {"tau": last.tau, "y": np.array([last.A1, last.B, last.Bdot]), "raised": False}
        try:
            out["rate"] = dyn.fit_growth_rate(traj, (20.0, below["tau_end"]))
        except dyn.NonExponentialFitError:
            out["raised"] = True
        return out

    def check_fit(out):
        checks.check_final_state(below, y0, out, below["tau_end"], below["dt"])
        checks.check_fit_raised(out)

    ops.append(_library("evolve + fit_growth_rate below threshold", fit_below, check_fit))

    v = VALIDATE
    path = os.path.join(workdir, "validate.json")
    argv = ["validate", "--axis", "delta21", "--from", repr(v["from"]), "--to", repr(v["to"]), "--points", str(v["points"]),
            "--alpha-beta", repr(v["alpha_beta"]), "--regimes", "both", "--samples", str(v["samples"]),
            "--seed", str(seed), "-o", path]
    op = _cli("carl validate", carl.cli, argv, [path])
    op.check = lambda o, n=op.name: checks.check_validate(json.loads(_text(o, n, path)), v["alpha_beta"], v["samples"])
    ops.append(op)
    return ops


WORKLOADS = {"curves": curves, "thresholds": thresholds, "dynamics": dynamics}
