"""Command-line front end.

Every subcommand can equivalently be driven by a JSON config file via
``carl run --config FILE``; the config document is

    {"mode": "<subcommand>",
     "scaled":   {"delta21": ..., "alpha": ..., "beta": ..., "eta": ...}   (xor)
     "physical": {"mu": ..., "V": ..., "m": ..., "N": ..., "k0": ...,
                  "omega0": ..., "omega1": ..., "omega2": ..., "a2_0": ...},
     "options":  {... mode-specific keys, mirroring the flags ...}}

Flag-driven runs are normalized to exactly this structure before execution,
so a config echoing a flag run produces byte-identical output. Exit codes:
0 success, 1 configuration error, 2 numerical failure (integrator step
rejection).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from carl._version import __version__
from carl.dynamics import StepSizeRejection, TrajectoryState, evolve, write_trajectory_csv
from carl.params import PhysicalParams, ScaledParams, to_scaled
from carl.spectrum import eigen_spectrum
from carl.sweep import (
    SweepSpec,
    gain_curve,
    mass_study,
    threshold_map,
    validate_sweep,
    write_polylines_csv,
    write_sweep_csv,
    write_sweep_json,
)

MODES = ("spectrum", "curve", "threshold", "evolve", "mass-study", "validate")

_SCALED_KEYS = ("delta21", "alpha", "beta", "eta")
_PHYSICAL_KEYS = ("mu", "V", "m", "N", "k0", "omega0", "omega1", "omega2", "a2_0")
_OPTION_KEYS = {
    "spectrum": {"eta", "output"},
    "curve": {"axis", "from", "to", "points", "regimes", "output", "format"},
    "threshold": {
        "eta",
        "delta21_from",
        "delta21_to",
        "alpha_beta_from",
        "alpha_beta_to",
        "resolution",
        "output",
    },
    "evolve": {"eta", "tau_end", "dt", "stride", "a1_seed", "b0", "bdot0", "output"},
    "mass-study": {"alpha_beta_base", "ratios", "from", "to", "points", "regimes", "output", "format"},
    "validate": {"axis", "from", "to", "points", "regimes", "samples", "seed", "output"},
}


class ConfigError(Exception):
    """Invalid configuration (unknown keys, missing/conflicting blocks...)."""


# ---------------------------------------------------------------------------
# config validation and parameter-block resolution
# ---------------------------------------------------------------------------


def _check_keys(mapping: Dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _require(options: Dict, keys: Sequence[str], mode: str) -> None:
    missing = sorted(k for k in keys if options.get(k) is None)
    if missing:
        raise ConfigError(f"mode '{mode}' requires option(s): {', '.join(missing)}")


def _scaled_from_config(config: Dict, eta: Optional[int] = None) -> ScaledParams:
    """Resolve the scaled/physical parameter block (exactly one must be present).

    ``eta`` overrides the regime. The physical block carries no regime of its
    own, so there ``eta`` is mandatory (handlers pass the mode's eta option).
    """
    has_scaled = "scaled" in config
    has_physical = "physical" in config
    if has_scaled == has_physical:
        raise ConfigError("exactly one of the 'scaled' and 'physical' parameter blocks must be given")
    try:
        if has_scaled:
            block = config["scaled"]
            _check_keys(block, _SCALED_KEYS, "'scaled' block")
            missing = sorted(set(_SCALED_KEYS) - set(block))
            if missing:
                raise ConfigError(f"'scaled' block is missing key(s): {', '.join(missing)}")
            params = ScaledParams(
                delta21=float(block["delta21"]),
                alpha=float(block["alpha"]),
                beta=float(block["beta"]),
                eta=int(block["eta"]),
            )
            return params if eta is None else params.with_eta(eta)
        block = config["physical"]
        _check_keys(block, _PHYSICAL_KEYS, "'physical' block")
        missing = sorted(set(_PHYSICAL_KEYS) - set(block))
        if missing:
            raise ConfigError(f"'physical' block is missing key(s): {', '.join(missing)}")
        phys = PhysicalParams(
            dipole_moment=float(block["mu"]),
            quantization_volume=float(block["V"]),
            atom_mass=float(block["m"]),
            atom_number=int(block["N"]),
            wavenumber_k0=float(block["k0"]),
            omega0=float(block["omega0"]),
            omega1=float(block["omega1"]),
            omega2=float(block["omega2"]),
            pump_amplitude=float(block["a2_0"]),
        )
        if eta is None:
            raise ConfigError("the 'physical' block carries no regime; set the 'eta' option (0=RAO, 1=WAO)")
        return to_scaled(phys, eta)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _params_for_mode(config: Dict, options: Dict) -> ScaledParams:
    """Parameter resolution for single-point modes (spectrum/evolve/threshold)."""
    eta_opt = options.get("eta")
    return _scaled_from_config(config, eta=None if eta_opt is None else int(eta_opt))


def _parse_regimes(value: str) -> Tuple[str, ...]:
    lowered = str(value).lower()
    table = {"rao": ("RAO",), "wao": ("WAO",), "both": ("RAO", "WAO")}
    if lowered not in table:
        raise ConfigError(f"regimes must be 'rao', 'wao' or 'both', got {value!r}")
    return table[lowered]


def _sweep_spec(config: Dict, options: Dict, mode: str) -> SweepSpec:
    _require(options, ("axis", "from", "to", "points"), mode)
    axis = str(options["axis"])
    regimes = _parse_regimes(options.get("regimes", "both"))
    base = _scaled_from_config(config, eta=0)
    if axis == "delta21":
        fixed = base.alpha_beta
    elif axis == "alpha_beta":
        fixed = base.delta21
    else:
        raise ConfigError(f"axis must be 'delta21' or 'alpha_beta', got {axis!r}")
    try:
        return SweepSpec(
            axis=axis,
            start=float(options["from"]),
            stop=float(options["to"]),
            num_points=int(options["points"]),
            fixed=fixed,
            regimes=regimes,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _complex_option(value, name: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(float(value), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"option '{name}' must be a number or a [re, im] pair, got {value!r}")


# ---------------------------------------------------------------------------
# mode handlers
# ---------------------------------------------------------------------------


def _run_spectrum(config: Dict, options: Dict) -> int:
    params = _params_for_mode(config, options)
    sp = eigen_spectrum(params)
    print(f"Γ = {sp.gamma:.6g}, Case {sp.case.value}")
    out = options.get("output")
    if out:
        doc = {
            "delta21": params.delta21,
            "alpha": params.alpha,
            "beta": params.beta,
            "eta": params.eta,
            "alpha_beta": params.alpha_beta,
            "gamma": sp.gamma,
            "case": sp.case.value,
            "boundary": sp.boundary,
            "lambdas": [[lam.real, lam.imag] for lam in sp.lambdas],
            "version": __version__,
        }
        with open(out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {out}")
    return 0


def _write_result(result, path: str, fmt: str) -> None:
    if fmt == "csv":
        write_sweep_csv(result, path)
    elif fmt == "json":
        write_sweep_json(result, path)
    else:
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")


def _run_curve(config: Dict, options: Dict) -> int:
    _require(options, ("output",), "curve")
    spec = _sweep_spec(config, options, "curve")
    result = gain_curve(spec)
    _write_result(result, options["output"], options.get("format", "csv"))
    regs = ",".join(spec.regimes)
    print(f"curve: {len(result.records)} records ({spec.axis} in [{spec.start:g}, {spec.stop:g}], {regs}) -> {options['output']}")
    return 0


def _run_threshold(config: Dict, options: Dict) -> int:
    _require(
        options,
        ("delta21_from", "delta21_to", "alpha_beta_from", "alpha_beta_to", "output"),
        "threshold",
    )
    params = _params_for_mode(config, options)
    resolution = int(options.get("resolution", 256))
    d_range = (float(options["delta21_from"]), float(options["delta21_to"]))
    ab_range = (float(options["alpha_beta_from"]), float(options["alpha_beta_to"]))
    try:
        lines = threshold_map(d_range, ab_range, params.eta, resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    meta = {
        "eta": params.eta,
        "delta21_range": list(d_range),
        "alpha_beta_range": list(ab_range),
        "resolution": resolution,
        "version": __version__,
    }
    write_polylines_csv(lines, options["output"], meta=meta)
    n_vertices = sum(len(l) for l in lines)
    print(f"threshold: {len(lines)} branch(es), {n_vertices} vertices -> {options['output']}")
    return 0


def _run_evolve(config: Dict, options: Dict) -> int:
    _require(options, ("tau_end", "output"), "evolve")
    params = _params_for_mode(config, options)
    init = TrajectoryState(
        tau=0.0,
        A1=_complex_option(options.get("a1_seed", 1e-6), "a1_seed"),
        B=_complex_option(options.get("b0", 0.0), "b0"),
        Bdot=_complex_option(options.get("bdot0", 0.0), "bdot0"),
    )
    try:
        traj = evolve(
            params,
            init,
            tau_end=float(options["tau_end"]),
            dt=float(options.get("dt", 1e-3)),
            output_stride=int(options.get("stride", 100)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_trajectory_csv(traj, options["output"])
    last = traj.samples[-1]
    flag = "within linear regime" if traj.linearity_flag is None else f"|B|>1 from tau={traj.linearity_flag:.6g}"
    print(f"evolve: {len(traj.samples)} samples to tau={last.tau:g}, |A1|={abs(last.A1):.6g} ({flag}) -> {options['output']}")
    return 0


def _run_mass_study(config: Dict, options: Dict) -> int:
    _require(options, ("alpha_beta_base", "ratios", "output"), "mass-study")
    ratios = options["ratios"]
    if isinstance(ratios, str):
        try:
            ratios = [float(x) for x in ratios.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"ratios must be a comma-separated list of numbers, got {options['ratios']!r}") from exc
    regimes = _parse_regimes(options.get("regimes", "both"))
    try:
        results = mass_study(
            float(options["alpha_beta_base"]),
            ratios,
            delta21_range=(float(options.get("from", -2.0)), float(options.get("to", 6.0))),
            num_points=int(options.get("points", 801)),
            regimes=regimes,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    fmt = options.get("format", "csv")
    stem = str(options["output"])
    if stem.endswith(".csv") or stem.endswith(".json"):
        stem = stem.rsplit(".", 1)[0]
    written = []
    for ratio, result in zip(ratios, results):
        path = f"{stem}_r{ratio:g}.{fmt}"
        _write_result(result, path, fmt)
        written.append(path)
    print(f"mass-study: ratios {ratios} -> {', '.join(written)}")
    return 0


def _run_validate(config: Dict, options: Dict) -> int:
    _require(options, ("samples",), "validate")
    spec = _sweep_spec(config, options, "validate")
    report = validate_sweep(spec, int(options["samples"]), seed=int(options.get("seed", 0)))
    print(report)
    for entry in report.mismatches():
        print(
            f"  MISMATCH {entry.regime} {spec.axis}={entry.axis_value:g}: "
            f"spectrum gamma={entry.gamma_spectrum:.6g}, fit={entry.gamma_fit}"
        )
    out = options.get("output")
    if out:
        doc = {
            "seed": report.seed,
            "counts": report.counts(),
            "entries": [
                {
                    "axis_value": e.axis_value,
                    "regime": e.regime,
                    "gamma_spectrum": e.gamma_spectrum,
                    "gamma_fit": e.gamma_fit,
                    "status": e.status,
                    "rel_err": e.rel_err,
                }
                for e in report.entries
            ],
            "version": __version__,
        }
        with open(out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {out}")
    return 0 if not report.mismatches() else 2


_HANDLERS = {
    "spectrum": _run_spectrum,
    "curve": _run_curve,
    "threshold": _run_threshold,
    "evolve": _run_evolve,
    "mass-study": _run_mass_study,
    "validate": _run_validate,
}


def execute(config: Dict) -> int:
    """Validate and run one config document; shared by flags and ``run --config``."""
    _check_keys(config, ("mode", "scaled", "physical", "options"), "config")
    mode = config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    options = config.get("options", {})
    _check_keys(options, sorted(_OPTION_KEYS[mode]), f"options for mode '{mode}'")
    return _HANDLERS[mode](config, options)


# ---------------------------------------------------------------------------
# gnuplot script emission
# ---------------------------------------------------------------------------

_SWEEP_HEADER = "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3"


def _inspect_result_csv(path: str) -> Dict:
    """Schema check a sweep CSV; returns meta + which regimes have data."""
    meta: Dict = {}
    header = None
    regimes = []
    n_rows = 0
    try:
        f = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read result file {path!r}: {exc}") from exc
    with f:
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
                continue
            if header is None:
                header = line
                expected = _SWEEP_HEADER.split(",")
                got = [c.strip() for c in line.split(",")]
                missing = [c for c in expected if c not in got]
                if missing:
                    raise ConfigError(f"{path}: result file is missing column(s): {', '.join(missing)}")
                continue
            n_rows += 1
            cells = line.split(",")
            if len(cells) > 2 and cells[2] not in regimes:
                regimes.append(cells[2])
    if header is None or n_rows == 0:
        raise ConfigError(f"{path}: result file contains no data rows; nothing to plot")
    return {"meta": meta, "regimes": regimes, "rows": n_rows}


def emit_plot_script(
    result_paths: Sequence[str],
    style: str,
    out_path: str,
) -> None:
    """Write a gnuplot script rendering sweep CSVs.

    ``style='fig1'`` draws growth rate versus the swept axis, one curve per
    (file, regime), labeled by the fixed control value. ``style='mass-study'``
    labels curves by mass ratio and uses the solid-WAO / dashed-RAO
    convention. RAO curves are dashed in both styles.
    """
    if style not in ("fig1", "mass-study"):
        raise ConfigError(f"style must be 'fig1' or 'mass-study', got {style!r}")
    if not result_paths:
        raise ConfigError("at least one result file is required")
    infos = [(p, _inspect_result_csv(p)) for p in result_paths]

    lines: List[str] = [
        "# gnuplot script generated by carl " + __version__,
        "set datafile separator ','",
        "set key top right",
        "set grid",
    ]
    axis = infos[0][1]["meta"].get("spec", {}).get("axis", "delta21")
    lines.append(f"set xlabel '{axis} (scaled units)'")
    lines.append("set ylabel 'growth rate (scaled units)'")
    plot_clauses = []
    for path, info in infos:
        spec_meta = info["meta"].get("spec", {})
        if style == "mass-study":
            label = f"m/m0={info['meta'].get('mass_ratio', '?'):g}" if isinstance(
                info["meta"].get("mass_ratio"), (int, float)
            ) else "m/m0=?"
        else:
            fixed = spec_meta.get("fixed")
            label = f"ab={fixed:g}" if isinstance(fixed, (int, float)) else "fixed=?"
        for regime in ("RAO", "WAO"):
            if regime not in info["regimes"]:
                continue
            dash = " dashtype 2" if regime == "RAO" else ""
            plot_clauses.append(
                f"  '{path}' using 2:(strcol(3) eq '{regime}' ? column(4) : NaN) "
                f"with lines lw 2{dash} title '{regime} {label}'"
            )
    lines.append("plot \\")
    lines.append(", \\\n".join(plot_clauses))
    lines.append("pause -1 'press return to close'")
    with open(out_path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_scaled_flags(sub: argparse.ArgumentParser, *, with_eta: bool = True) -> None:
    sub.add_argument("--delta21", type=float, default=None, help="pump-probe detuning (scaled units, recoil quanta)")
    sub.add_argument("--alpha-beta", type=float, default=None, dest="alpha_beta", help="gain control product alpha*beta (scaled, dimensionless)")
    sub.add_argument("--alpha", type=float, default=None, help="pump-intensity control alpha (scaled; use with --beta)")
    sub.add_argument("--beta", type=float, default=None, help="density control beta (scaled; use with --alpha)")
    if with_eta:
        sub.add_argument("--eta", type=int, choices=(0, 1), default=None, help="regime flag: 0 = RAO (classical), 1 = WAO (quantum)")
    sub.add_argument("--physical", metavar="FILE", default=None, help="JSON file with SI-unit parameters (keys mu,V,m,N,k0,omega0,omega1,omega2,a2_0) instead of scaled flags")


def _scaled_block_from_args(args: argparse.Namespace, *, default_eta: int = 0):
    """Build the parameter block from flags.

    Returns ``(block, eta_option)``: with scaled flags the regime lives inside
    the block and ``eta_option`` is None; with ``--physical`` the regime must
    travel as a mode option instead (the SI block has no eta key).
    """
    if getattr(args, "physical", None):
        try:
            with open(args.physical, "r", encoding="utf-8") as f:
                block = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load physical-parameter file {args.physical!r}: {exc}") from exc
        if any(
            getattr(args, name, None) is not None for name in ("delta21", "alpha_beta", "alpha", "beta")
        ):
            raise ConfigError("give either --physical or scaled flags, not both")
        eta = getattr(args, "eta", None)
        return {"physical": block}, (default_eta if eta is None else eta)
    delta21 = args.delta21 if args.delta21 is not None else 0.0
    eta = getattr(args, "eta", None)
    eta = default_eta if eta is None else eta
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ConfigError("--alpha and --beta must be given together")
        if args.alpha_beta is not None:
            raise ConfigError("give either --alpha-beta or the --alpha/--beta pair, not both")
        alpha, beta = args.alpha, args.beta
    else:
        product = args.alpha_beta if args.alpha_beta is not None else 0.0
        alpha, beta = product, 1.0
    return {"scaled": {"delta21": delta21, "alpha": alpha, "beta": beta, "eta": eta}}, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carl",
        description="Linear stability and dynamics of the collective atomic-recoil laser. "
        "All numeric flags are in scaled (dimensionless) units unless stated otherwise; "
        "SI input goes through --physical.",
    )
    parser.add_argument("--version", action="version", version=f"carl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="eigenvalues, stability case and growth rate at one control point")
    _add_scaled_flags(sp)
    sp.add_argument("-o", "--output", default=None, help="optional JSON output path")

    cv = subs.add_parser("curve", help="growth-rate curve along one control axis (CSV/JSON)")
    _add_scaled_flags(cv, with_eta=False)
    cv.add_argument("--axis", choices=("delta21", "alpha_beta"), required=True, help="swept control (scaled units)")
    cv.add_argument("--from", dest="from_", type=float, required=True, help="axis start (scaled units)")
    cv.add_argument("--to", dest="to", type=float, required=True, help="axis stop (scaled units)")
    cv.add_argument("--points", type=int, required=True, help="number of grid points (>= 2)")
    cv.add_argument("--regimes", default="both", help="rao, wao or both (default both)")
    cv.add_argument("-o", "--output", required=True, help="output file path")
    cv.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")

    th = subs.add_parser("threshold", help="instability boundary polyline in the (delta21, alpha_beta) plane")
    _add_scaled_flags(th)
    th.add_argument("--delta21-from", dest="delta21_from", type=float, required=True, help="detuning window start (scaled)")
    th.add_argument("--delta21-to", dest="delta21_to", type=float, required=True, help="detuning window stop (scaled)")
    th.add_argument("--alpha-beta-from", dest="alpha_beta_from", type=float, required=True, help="alpha*beta window start (scaled)")
    th.add_argument("--alpha-beta-to", dest="alpha_beta_to", type=float, required=True, help="alpha*beta window stop (scaled)")
    th.add_argument("--resolution", type=int, default=256, help="number of delta21 grid points (>= 16, default 256)")
    th.add_argument("-o", "--output", required=True, help="output CSV path (branch_id,delta21,alpha_beta)")

    ev = subs.add_parser("evolve", help="integrate the coupled-mode equations, write trajectory CSV")
    _add_scaled_flags(ev)
    ev.add_argument("--tau-end", dest="tau_end", type=float, required=True, help="final scaled time tau")
    ev.add_argument("--dt", type=float, default=1e-3, help="integrator step in scaled time (default 1e-3)")
    ev.add_argument("--stride", type=int, default=100, help="output every N steps (default 100)")
    ev.add_argument("--a1-seed", dest="a1_seed", type=float, default=1e-6, help="initial probe amplitude A1(0), real (default 1e-6)")
    ev.add_argument("--b0", type=float, default=0.0, help="initial bunching B(0), real (default 0)")
    ev.add_argument("--bdot0", type=float, default=0.0, help="initial dB/dtau, real (default 0)")
    ev.add_argument("-o", "--output", required=True, help="trajectory CSV path")

    ms = subs.add_parser("mass-study", help="RAO/WAO convergence with atomic mass, in reference-mass units")
    ms.add_argument("--alpha-beta-base", dest="alpha_beta_base", type=float, required=True, help="alpha*beta at mass ratio 1 (scaled)")
    ms.add_argument("--ratios", required=True, help="comma-separated mass ratios, e.g. 1,10,100")
    ms.add_argument("--from", dest="from_", type=float, default=-2.0, help="detuning start in reference units (default -2)")
    ms.add_argument("--to", dest="to", type=float, default=6.0, help="detuning stop in reference units (default 6)")
    ms.add_argument("--points", type=int, default=801, help="grid points (default 801)")
    ms.add_argument("--regimes", default="both", help="rao, wao or both (default both)")
    ms.add_argument("-o", "--output", required=True, help="output stem; files <stem>_r<ratio>.<fmt>")
    ms.add_argument("--format", choices=("csv", "json"), default="csv", help="output format (default csv)")

    va = subs.add_parser("validate", help="cross-check sweep growth rates against time-domain fits")
    _add_scaled_flags(va, with_eta=False)
    va.add_argument("--axis", choices=("delta21", "alpha_beta"), required=True, help="swept control (scaled units)")
    va.add_argument("--from", dest="from_", type=float, required=True, help="axis start (scaled)")
    va.add_argument("--to", dest="to", type=float, required=True, help="axis stop (scaled)")
    va.add_argument("--points", type=int, required=True, help="number of grid points")
    va.add_argument("--regimes", default="both", help="rao, wao or both (default both)")
    va.add_argument("--samples", type=int, required=True, help="number of random grid samples to validate")
    va.add_argument("--seed", type=int, default=0, help="RNG seed for sample selection (default 0)")
    va.add_argument("-o", "--output", default=None, help="optional JSON report path")

    ps = subs.add_parser("plot-script", help="emit a gnuplot script for sweep result files")
    ps.add_argument("results", nargs="+", help="sweep CSV file(s) produced by curve/mass-study")
    ps.add_argument("--style", choices=("fig1", "mass-study"), default="fig1", help="labeling convention")
    ps.add_argument("-o", "--output", required=True, help="gnuplot script path")

    rn = subs.add_parser("run", help="execute a JSON config file (flag-equivalent)")
    rn.add_argument("--config", required=True, help="path to the JSON config document")

    return parser


def _config_from_args(args: argparse.Namespace) -> Dict:
    command = args.command
    if command == "spectrum":
        config, eta_opt = _scaled_block_from_args(args, default_eta=0)
        options = {}
        if eta_opt is not None:
            options["eta"] = eta_opt
        if args.output:
            options["output"] = args.output
        return {"mode": "spectrum", **config, "options": options}
    if command == "curve":
        config, _ = _scaled_block_from_args(args)
        return {
            "mode": "curve",
            **config,
            "options": {
                "axis": args.axis,
                "from": args.from_,
                "to": args.to,
                "points": args.points,
                "regimes": args.regimes,
                "output": args.output,
                "format": args.format,
            },
        }
    if command == "threshold":
        config, eta_opt = _scaled_block_from_args(args)
        options = {
            "delta21_from": args.delta21_from,
            "delta21_to": args.delta21_to,
            "alpha_beta_from": args.alpha_beta_from,
            "alpha_beta_to": args.alpha_beta_to,
            "resolution": args.resolution,
            "output": args.output,
        }
        if eta_opt is not None:
            options["eta"] = eta_opt
        return {"mode": "threshold", **config, "options": options}
    if command == "evolve":
        config, eta_opt = _scaled_block_from_args(args)
        options = {
            "tau_end": args.tau_end,
            "dt": args.dt,
            "stride": args.stride,
            "a1_seed": args.a1_seed,
            "b0": args.b0,
            "bdot0": args.bdot0,
            "output": args.output,
        }
        if eta_opt is not None:
            options["eta"] = eta_opt
        return {"mode": "evolve", **config, "options": options}
    if command == "mass-study":
        return {
            "mode": "mass-study",
            "options": {
                "alpha_beta_base": args.alpha_beta_base,
                "ratios": args.ratios,
                "from": args.from_,
                "to": args.to,
                "points": args.points,
                "regimes": args.regimes,
                "output": args.output,
                "format": args.format,
            },
        }
    if command == "validate":
        config, _ = _scaled_block_from_args(args)
        options = {
            "axis": args.axis,
            "from": args.from_,
            "to": args.to,
            "points": args.points,
            "regimes": args.regimes,
            "samples": args.samples,
            "seed": args.seed,
        }
        if args.output:
            options["output"] = args.output
        return {"mode": "validate", **config, "options": options}
    raise ConfigError(f"unhandled command {command!r}")  # pragma: no cover


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "plot-script":
            emit_plot_script(args.results, args.style, args.output)
            print(f"wrote {args.output}")
            return 0
        if args.command == "run":
            try:
                with open(args.config, "r", encoding="utf-8") as f:
                    config = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot load config {args.config!r}: {exc}") from exc
            return execute(config)
        return execute(_config_from_args(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StepSizeRejection as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
