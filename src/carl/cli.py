"""Command-line front end.

Every subcommand can equivalently be driven by a JSON config file via
``carl run --config FILE``; the config document is

    {"mode": "<subcommand>",
     "scaled":   {"delta21": ..., "alpha": ..., "beta": ..., "eta": ...}   (xor)
     "physical": {"mu": ..., "V": ..., "m": ..., "N": ..., "k0": ...,
                  "omega0": ..., "omega1": ..., "omega2": ..., "a2_0": ...},
     "options":  {... mode-specific keys, mirroring the flags ...}}

The mode table :data:`MODES` is the one place an option is declared: one row
per option gives its flag(s), config key, type, default (or that it is
required), help and choices. The table generates each subcommand's flags,
the option keys a config may use, the defaults a config run gets (the same
as the flag defaults) and the config a flag run is normalized to, so a
config echoing a flag run produces byte-identical output. Exit codes: 0
success, 1 configuration error, 2 numerical failure (integrator step
rejection, or a state past the float range).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from carl._io import text_sink, write_json
from carl._version import __version__
from carl.dynamics import NonFiniteStateError, StepSizeRejection, TrajectoryState, evolve, write_trajectory_csv
from carl.params import PhysicalParams, ScaledParams, to_scaled
from carl.spectrum import eigen_spectrum
from carl.sweep import (
    _CSV_COLUMNS,
    SweepSpec,
    gain_curve,
    mass_study,
    threshold_map,
    validate_sweep,
    write_polylines_csv,
    write_sweep_csv,
    write_sweep_json,
)

_SCALED_KEYS = ("delta21", "alpha", "beta", "eta")
_PHYSICAL_KEYS = ("mu", "V", "m", "N", "k0", "omega0", "omega1", "omega2", "a2_0")
DEFAULT_ETA = 0  # regime of scaled flags without --eta, and of the sweep modes' base point


class ConfigError(Exception):
    """Invalid configuration (unknown keys, missing/conflicting blocks...)."""


REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    """One option of a mode: its flag(s), config key, type, default and help.

    ``type`` parses the flag and converts the config value alike; ``None``
    takes the value as given, for the handler to parse.
    """

    flags: Tuple[str, ...]
    key: str
    type: Optional[Callable]
    default: Any
    help: str
    choices: Optional[Tuple] = None


class Mode(NamedTuple):
    """One mode: its help, its handler ``run(params, options)`` and its options.

    ``block`` says whether it takes the scaled/physical parameter block (its
    handler then gets the resolved :class:`ScaledParams`, else None) and
    ``eta`` whether it also takes the ``--eta`` option.
    """

    help: str
    run: Callable[[Optional[ScaledParams], Dict], int]
    block: bool
    eta: bool
    options: Tuple[Option, ...]


def _integer(value) -> int:
    """An integer; a float only if it is integral (``41.0``, not ``5.7``), not truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be an integer")
    return int(value)


ETA = Option(("--eta",), "eta", _integer, None, "regime flag: 0 = RAO (classical), 1 = WAO (quantum)", (0, 1))


# ---------------------------------------------------------------------------
# config validation and parameter-block resolution
# ---------------------------------------------------------------------------


def _check_keys(mapping, allowed: Sequence[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object, got {mapping!r}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _scaled_from_config(config: Dict, eta: Optional[int]) -> ScaledParams:
    """Resolve the scaled/physical parameter block (exactly one must be present).

    ``eta`` overrides the regime. The physical block carries no regime of its
    own, so there ``eta`` is mandatory (handlers pass the mode's eta option).
    """
    if ("scaled" in config) == ("physical" in config):
        raise ConfigError("exactly one of the 'scaled' and 'physical' parameter blocks must be given")
    name, keys = ("scaled", _SCALED_KEYS) if "scaled" in config else ("physical", _PHYSICAL_KEYS)
    block = config[name]
    _check_keys(block, keys, f"'{name}' block")
    missing = sorted(set(keys) - set(block))
    if missing:
        raise ConfigError(f"'{name}' block is missing key(s): {', '.join(missing)}")
    if name == "scaled":
        try:
            regime = _integer(block["eta"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"'scaled' block: eta = {block['eta']!r}: {exc}") from exc
        params = ScaledParams(
            delta21=float(block["delta21"]),
            alpha=float(block["alpha"]),
            beta=float(block["beta"]),
            eta=regime,
        )
        return params if eta is None else params.with_eta(eta)
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


def _parse_regimes(value: str) -> Tuple[str, ...]:
    table = {"rao": ("RAO",), "wao": ("WAO",), "both": ("RAO", "WAO")}
    if value.lower() not in table:
        raise ValueError(f"regimes must be 'rao', 'wao' or 'both', got {value!r}")
    return table[value.lower()]


def _parse_ratios(value) -> List[float]:
    """Mass ratios from the flag's comma-separated string or a config list of numbers."""
    if isinstance(value, str):
        try:
            return [float(x) for x in value.split(",") if x.strip()]
        except ValueError:
            pass
    elif isinstance(value, list) and all(isinstance(x, (int, float)) for x in value):
        return value
    raise ValueError(f"ratios must be a comma-separated list of numbers, got {value!r}")


def _complex(value) -> complex:
    """A number, or (in a config) a ``[re, im]`` pair."""
    if isinstance(value, list):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


# ---------------------------------------------------------------------------
# mode handlers
# ---------------------------------------------------------------------------


def _write_report(doc: Dict, out: Optional[str]) -> None:
    if out:
        write_json(doc, out)
        print(f"wrote {out}")


def _run_spectrum(params: ScaledParams, options: Dict) -> int:
    sp = eigen_spectrum(params)
    print(f"Γ = {sp.gamma:.6g}, Case {sp.case.value}")
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
    _write_report(doc, options["output"])
    return 0


def _sweep_spec(params: ScaledParams, options: Dict) -> SweepSpec:
    return SweepSpec(
        axis=options["axis"],
        start=options["from"],
        stop=options["to"],
        num_points=options["points"],
        fixed=params.alpha_beta if options["axis"] == "delta21" else params.delta21,
        regimes=_parse_regimes(options["regimes"]),
    )


def _write_result(result, path: str, fmt: str) -> None:
    (write_sweep_csv if fmt == "csv" else write_sweep_json)(result, path)


def _run_curve(params: ScaledParams, options: Dict) -> int:
    spec = _sweep_spec(params, options)
    result = gain_curve(spec)
    _write_result(result, options["output"], options["format"])
    regs = ",".join(spec.regimes)
    print(f"curve: {len(result.axis)} records ({spec.axis} in [{spec.start:g}, {spec.stop:g}], {regs}) -> {options['output']}")
    return 0


def _run_threshold(params: ScaledParams, options: Dict) -> int:
    d_range = (options["delta21_from"], options["delta21_to"])
    ab_range = (options["alpha_beta_from"], options["alpha_beta_to"])
    lines = threshold_map(d_range, ab_range, params.eta, options["resolution"])
    meta = {
        "eta": params.eta,
        "delta21_range": list(d_range),
        "alpha_beta_range": list(ab_range),
        "resolution": options["resolution"],
        "version": __version__,
    }
    write_polylines_csv(lines, options["output"], meta=meta)
    n_vertices = sum(len(l) for l in lines)
    print(f"threshold: {len(lines)} branch(es), {n_vertices} vertices -> {options['output']}")
    return 0


def _run_evolve(params: ScaledParams, options: Dict) -> int:
    init = TrajectoryState(tau=0.0, A1=options["a1_seed"], B=options["b0"], Bdot=options["bdot0"])
    traj = evolve(params, init, tau_end=options["tau_end"], dt=options["dt"], output_stride=options["stride"])
    write_trajectory_csv(traj, options["output"])
    last = traj.samples[-1]
    flag = "within linear regime" if traj.linearity_flag is None else f"|B|>1 from tau={traj.linearity_flag:.6g}"
    print(f"evolve: {len(traj.samples)} samples to tau={last.tau:g}, |A1|={abs(last.A1):.6g} ({flag}) -> {options['output']}")
    return 0


def _run_mass_study(_: None, options: Dict) -> int:
    ratios = _parse_ratios(options["ratios"])
    results = mass_study(
        options["alpha_beta_base"],
        ratios,
        delta21_range=(options["from"], options["to"]),
        num_points=options["points"],
        regimes=_parse_regimes(options["regimes"]),
    )
    fmt = options["format"]
    stem = options["output"]
    if stem.endswith((".csv", ".json")):
        stem = stem.rsplit(".", 1)[0]
    written = [f"{stem}_r{ratio:g}.{fmt}" for ratio in ratios]
    for path, result in zip(written, results):
        _write_result(result, path, fmt)
    print(f"mass-study: ratios {ratios} -> {', '.join(written)}")
    return 0


def _run_validate(params: ScaledParams, options: Dict) -> int:
    spec = _sweep_spec(params, options)
    report = validate_sweep(spec, options["samples"], seed=options["seed"])
    print(report)
    for entry in report.mismatches():
        print(
            f"  MISMATCH {entry.regime} {spec.axis}={entry.axis_value:g}: "
            f"spectrum gamma={entry.gamma_spectrum:.6g}, fit={entry.gamma_fit}"
        )
    doc = {
        "seed": report.seed,
        "counts": report.counts(),
        "entries": [asdict(e) for e in report.entries],
        "version": __version__,
    }
    _write_report(doc, options["output"])
    return 0 if not report.mismatches() else 2


_AXIS = ("delta21", "alpha_beta")
_FORMAT = ("csv", "json")

MODES: Dict[str, Mode] = {
    "spectrum": Mode(
        "eigenvalues, stability case and growth rate at one control point", _run_spectrum, True, True,
        (Option(("-o", "--output"), "output", str, None, "optional JSON output path"),),
    ),
    "curve": Mode(
        "growth-rate curve along one control axis (CSV/JSON)", _run_curve, True, False,
        (
            Option(("--axis",), "axis", str, REQUIRED, "swept control (scaled units)", _AXIS),
            Option(("--from",), "from", float, REQUIRED, "axis start (scaled units)"),
            Option(("--to",), "to", float, REQUIRED, "axis stop (scaled units)"),
            Option(("--points",), "points", _integer, REQUIRED, "number of grid points (>= 2)"),
            Option(("--regimes",), "regimes", str, "both", "rao, wao or both (default both)"),
            Option(("-o", "--output"), "output", str, REQUIRED, "output file path"),
            Option(("--format",), "format", str, "csv", "output format (default csv)", _FORMAT),
        ),
    ),
    "threshold": Mode(
        "instability boundary polyline in the (delta21, alpha_beta) plane", _run_threshold, True, True,
        (
            Option(("--delta21-from",), "delta21_from", float, REQUIRED, "detuning window start (scaled)"),
            Option(("--delta21-to",), "delta21_to", float, REQUIRED, "detuning window stop (scaled)"),
            Option(("--alpha-beta-from",), "alpha_beta_from", float, REQUIRED, "alpha*beta window start (scaled)"),
            Option(("--alpha-beta-to",), "alpha_beta_to", float, REQUIRED, "alpha*beta window stop (scaled)"),
            Option(("--resolution",), "resolution", _integer, 256, "number of delta21 grid points (>= 16, default 256)"),
            Option(("-o", "--output"), "output", str, REQUIRED, "output CSV path (branch_id,delta21,alpha_beta)"),
        ),
    ),
    "evolve": Mode(
        "integrate the coupled-mode equations, write trajectory CSV", _run_evolve, True, True,
        (
            Option(("--tau-end",), "tau_end", float, REQUIRED, "final scaled time tau"),
            Option(("--dt",), "dt", float, 1e-3, "integrator step in scaled time (default 1e-3)"),
            Option(("--stride",), "stride", _integer, 100, "output every N steps (default 100)"),
            Option(("--a1-seed",), "a1_seed", _complex, 1e-6, "initial probe amplitude A1(0), real (default 1e-6)"),
            Option(("--b0",), "b0", _complex, 0.0, "initial bunching B(0), real (default 0)"),
            Option(("--bdot0",), "bdot0", _complex, 0.0, "initial dB/dtau, real (default 0)"),
            Option(("-o", "--output"), "output", str, REQUIRED, "trajectory CSV path"),
        ),
    ),
    "mass-study": Mode(
        "RAO/WAO convergence with atomic mass, in reference-mass units", _run_mass_study, False, False,
        (
            Option(("--alpha-beta-base",), "alpha_beta_base", float, REQUIRED, "alpha*beta at mass ratio 1 (scaled)"),
            Option(("--ratios",), "ratios", None, REQUIRED, "comma-separated mass ratios, e.g. 1,10,100"),
            Option(("--from",), "from", float, -2.0, "detuning start in reference units (default -2)"),
            Option(("--to",), "to", float, 6.0, "detuning stop in reference units (default 6)"),
            Option(("--points",), "points", _integer, 801, "grid points (default 801)"),
            Option(("--regimes",), "regimes", str, "both", "rao, wao or both (default both)"),
            Option(("-o", "--output"), "output", str, REQUIRED, "output stem; files <stem>_r<ratio>.<fmt>"),
            Option(("--format",), "format", str, "csv", "output format (default csv)", _FORMAT),
        ),
    ),
    "validate": Mode(
        "cross-check sweep growth rates against time-domain fits", _run_validate, True, False,
        (
            Option(("--axis",), "axis", str, REQUIRED, "swept control (scaled units)", _AXIS),
            Option(("--from",), "from", float, REQUIRED, "axis start (scaled)"),
            Option(("--to",), "to", float, REQUIRED, "axis stop (scaled)"),
            Option(("--points",), "points", _integer, REQUIRED, "number of grid points"),
            Option(("--regimes",), "regimes", str, "both", "rao, wao or both (default both)"),
            Option(("--samples",), "samples", _integer, REQUIRED, "number of random grid samples to validate"),
            Option(("--seed",), "seed", _integer, 0, "RNG seed for sample selection (default 0)"),
            Option(("-o", "--output"), "output", str, None, "optional JSON report path"),
        ),
    ),
}


def execute(config: Dict) -> int:
    """Validate and run one config document; shared by flags and ``run --config``.

    Options left out or null get their table defaults. A ``TypeError`` or
    ``ValueError`` from converting an option or running the mode becomes a
    :class:`ConfigError`, which names the option and value of a conversion.
    """
    _check_keys(config, ("mode", "scaled", "physical", "options"), "config")
    name = config.get("mode")
    if not isinstance(name, str) or name not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {name!r}")
    mode = MODES[name]
    rows = mode.options + ((ETA,) if mode.eta else ())
    given = config.get("options", {})
    _check_keys(given, [o.key for o in rows], f"options for mode '{name}'")
    options = {o.key: None if o.default is REQUIRED else o.default for o in rows}
    options.update((key, value) for key, value in given.items() if value is not None)
    missing = sorted(o.key for o in rows if o.default is REQUIRED and options[o.key] is None)
    if missing:
        raise ConfigError(f"mode '{name}' requires option(s): {', '.join(missing)}")
    key = None
    try:
        for o in rows:
            key, raw = o.key, options[o.key]
            if raw is not None and o.type is not None:
                options[key] = o.type(raw)
            if raw is not None and o.choices and options[key] not in o.choices:
                raise ValueError(f"must be one of {', '.join(map(str, o.choices))}")
        key = None
        params = _scaled_from_config(config, options["eta"] if mode.eta else DEFAULT_ETA) if mode.block else None
        return mode.run(params, options)
    except (TypeError, ValueError) as exc:
        where = "" if key is None else f"option '{key}' = {raw!r}: "
        raise ConfigError(f"{where}{exc}") from exc


# ---------------------------------------------------------------------------
# gnuplot script emission
# ---------------------------------------------------------------------------


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
                got = [c.strip() for c in line.split(",")]
                missing = [c for c in _CSV_COLUMNS.split(",") if c not in got]
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
    with text_sink(out_path) as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_option(sub: argparse.ArgumentParser, o: Option) -> None:
    required = o.default is REQUIRED
    sub.add_argument(
        *o.flags, dest=o.key, type=o.type, choices=o.choices, required=required,
        default=None if required else o.default, help=o.help,
    )


def _add_scaled_flags(sub: argparse.ArgumentParser, *, with_eta: bool) -> None:
    sub.add_argument("--delta21", type=float, default=None, help="pump-probe detuning (scaled units, recoil quanta)")
    sub.add_argument("--alpha-beta", type=float, default=None, dest="alpha_beta", help="gain control product alpha*beta (scaled, dimensionless)")
    sub.add_argument("--alpha", type=float, default=None, help="pump-intensity control alpha (scaled; use with --beta)")
    sub.add_argument("--beta", type=float, default=None, help="density control beta (scaled; use with --alpha)")
    if with_eta:
        _add_option(sub, ETA)
    sub.add_argument("--physical", metavar="FILE", default=None, help="JSON file with SI-unit parameters (keys mu,V,m,N,k0,omega0,omega1,omega2,a2_0) instead of scaled flags")


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {what} {path!r}: {exc}") from exc


def _block_from_args(args: argparse.Namespace) -> Dict:
    """The parameter block the flags give: ``{"physical": ...}`` or ``{"scaled": ...}``."""
    if args.physical:
        block = _load_json(args.physical, "physical-parameter file")
        if any(getattr(args, name) is not None for name in ("delta21", "alpha_beta", "alpha", "beta")):
            raise ConfigError("give either --physical or scaled flags, not both")
        return {"physical": block}
    eta = DEFAULT_ETA if getattr(args, "eta", None) is None else args.eta
    delta21 = args.delta21 if args.delta21 is not None else 0.0
    if args.alpha is not None or args.beta is not None:
        if args.alpha is None or args.beta is None:
            raise ConfigError("--alpha and --beta must be given together")
        if args.alpha_beta is not None:
            raise ConfigError("give either --alpha-beta or the --alpha/--beta pair, not both")
        alpha, beta = args.alpha, args.beta
    else:
        product = args.alpha_beta if args.alpha_beta is not None else 0.0
        alpha, beta = product, 1.0
    return {"scaled": {"delta21": delta21, "alpha": alpha, "beta": beta, "eta": eta}}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``carl`` parser; given ``command``, only that subcommand gets its arguments.

    Every subcommand is registered with its help either way, so the top-level
    help and an invalid-choice error do not depend on ``command``.
    """
    parser = argparse.ArgumentParser(
        prog="carl",
        description="Linear stability and dynamics of the collective atomic-recoil laser. "
        "All numeric flags are in scaled (dimensionless) units unless stated otherwise; "
        "SI input goes through --physical.",
    )
    parser.add_argument("--version", action="version", version=f"carl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, mode in MODES.items():
        sub = subs.add_parser(name, help=mode.help)
        if command not in (None, name):
            continue
        if mode.block:
            _add_scaled_flags(sub, with_eta=mode.eta)
        for o in mode.options:
            _add_option(sub, o)

    ps = subs.add_parser("plot-script", help="emit a gnuplot script for sweep result files")
    if command in (None, "plot-script"):
        ps.add_argument("results", nargs="+", help="sweep CSV file(s) produced by curve/mass-study")
        ps.add_argument("--style", choices=("fig1", "mass-study"), default="fig1", help="labeling convention")
        ps.add_argument("-o", "--output", required=True, help="gnuplot script path")

    rn = subs.add_parser("run", help="execute a JSON config file (flag-equivalent)")
    if command in (None, "run"):
        rn.add_argument("--config", required=True, help="path to the JSON config document")

    return parser


def _config_from_args(args: argparse.Namespace) -> Dict:
    """The config document a flag run stands for; flags left unset (None) are left out."""
    mode = MODES[args.command]
    options = {o.key: getattr(args, o.key) for o in mode.options if getattr(args, o.key) is not None}
    config = {"mode": args.command, "options": options}
    if mode.block:
        config.update(_block_from_args(args))
        # the SI block has no eta key, so there the regime travels as an option
        if mode.eta and "physical" in config:
            options["eta"] = DEFAULT_ETA if args.eta is None else args.eta
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option with a value, so the first other word names the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        if args.command == "plot-script":
            emit_plot_script(args.results, args.style, args.output)
            print(f"wrote {args.output}")
            return 0
        if args.command == "run":
            return execute(_load_json(args.config, "config"))
        return execute(_config_from_args(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StepSizeRejection, NonFiniteStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
