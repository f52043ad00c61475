"""Command-line front end.

Every subcommand but ``run`` itself can equivalently be driven by a JSON
config file via ``carl run --config FILE``; the config document is

    {"mode": "<subcommand>",
     "scaled":   {"delta21": ..., "alpha": ..., "beta": ..., "eta": ...}   (xor)
     "physical": {"mu": ..., "V": ..., "m": ..., "N": ..., "k0": ...,
                  "omega0": ..., "omega1": ..., "omega2": ..., "a2_0": ...},
     "options":  {... mode-specific keys, mirroring the flags ...}}

The option tables declare every flag and config key: :data:`POINT` the
flags of the control point, :data:`SCALED` and :data:`PHYSICAL` the keys
of the two parameter blocks, :data:`MODES` each mode's options and
:data:`RUN` ``run``'s. One row gives its flag(s) (a block key and a
positional argument have none), config key, type, default (or that it is
required), help and choices. A well-formed command line is read off its
subcommand's rows; argparse writes every help, usage and error text, and
parses any other line, checking only its shape. Every value is read by one
resolver, :func:`_resolve`, against its row: the row's type parses the flag
text and the config value alike, its choices check it, and only its default
fills a key left out. A flag run is the config document of the flags given,
its options holding their text, so ``carl run --config`` of that document
is the same run. Exit codes: 0 success, 1 configuration error, 2 numerical
failure (integrator step rejection, or a state past the float range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from carl._io import text_sink, write_json
from carl._version import __version__
from carl.dynamics import NonFiniteStateError, StepSizeRejection, TrajectoryState, evolve, write_trajectory_csv
from carl.params import PhysicalParams, ScaledParams, to_scaled
from carl.spectrum import _ALPHA_BETA_MAX, _ALPHA_BETA_MIN, _DELTA21_MAX, spectrum_arrays
from carl.sweep import (
    _CSV_COLUMNS,
    _inspect_result_csv,
    AXES,
    REGIMES,
    SweepSpec,
    gain_curve,
    mass_study,
    threshold_map,
    validate_sweep,
    write_polylines_csv,
    write_sweep_csv,
    write_sweep_json,
)

DEFAULT_ETA = 0  # regime of a flag run's scaled point, and of the base point of the modes without --eta


class ConfigError(Exception):
    """Invalid configuration (unknown keys, missing/conflicting blocks...)."""


REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    """One option: its flag(s), config key, type, default and help.

    ``type`` parses the flag text and the config value alike, ``choices``
    checks the result, and ``default`` fills a key left out, all in
    :func:`_resolve`. A row without flags in an option table is a positional
    argument of one or more words. The rows read a well-formed command line
    in :func:`_parse_args`; argparse, given them in :func:`_add_rows`,
    writes help, usage and errors, and parses, checks and defaults no value.
    """

    flags: Tuple[str, ...]
    key: str
    type: Callable
    default: Any
    help: str = ""  # a config key without a flag has none
    choices: Optional[Tuple] = None
    metavar: Optional[str] = None


class Mode(NamedTuple):
    """One mode: its help, its handler ``run(params, options)`` and its options.

    ``block`` says whether it takes the :data:`POINT` flags, or the
    scaled/physical parameter block of a config; its handler then gets the
    resolved :class:`ScaledParams`, else None. ``sizes`` are the options
    that set the sizes of its arrays, which an allocation failure names.
    """

    help: str
    run: Callable[[Optional[ScaledParams], Dict], int]
    block: bool
    sizes: Tuple[str, ...]
    options: Tuple[Option, ...]


def _integer(value) -> int:
    """An integer: an int, an integral float (``41.0``, not ``5.7``: none is truncated) or the text of an int (``41``)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("must be an integer")
    return int(value)


def _checked(convert: Callable, ok: Callable, text: str) -> Callable:
    """A type that converts by ``convert``, then raises ``ValueError(text)`` unless ``ok``.

    :func:`_resolve` calls it on a flag's text and a config value alike, and names the key in its error.
    """
    def parse(value):
        if not ok(value := convert(value)):
            raise ValueError(text)
        return value
    return parse


# a path or a word, text only: str() would make a file name of a config's list, or of the [] argparse reads --flag=-- as
_TEXT = _checked(lambda v: v, lambda v: isinstance(v, str), "must be text")
_PATHS = _checked(lambda v: v, lambda v: isinstance(v, list) and v and all(isinstance(p, str) for p in v), "must be a non-empty list of paths")
ETA = Option(("--eta",), "eta", _integer, None, "regime flag: 0 = RAO (classical), 1 = WAO (quantum)", (0, 1))

# the keys of the config blocks, in the order of the fields of ScaledParams and PhysicalParams;
# the physical keys check the ranges PhysicalParams checks, so that an error names the key
SCALED = (*(Option((), key, float, REQUIRED) for key in ("delta21", "alpha", "beta")), ETA._replace(flags=(), default=REQUIRED))
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0, "must be a finite positive number")
_FINITE = _checked(float, math.isfinite, "must be finite")
_KINDS = {"N": _checked(_integer, lambda v: v >= 1, "must be >= 1"), "omega0": _FINITE, "omega1": _FINITE, "omega2": _FINITE}
PHYSICAL = tuple(Option((), key, _KINDS.get(key, _POSITIVE), REQUIRED) for key in ("mu", "V", "m", "N", "k0", "omega0", "omega1", "omega2", "a2_0"))
# a count past 2**48 (2 PiB of floats) is refused before numpy, which refuses sizes near 2**63 bytes by a
# ValueError, OverflowError or IndexError depending on the call; below it an allocation failure names the option
_SIZE = _checked(_integer, lambda v: v <= 2**48, f"must be <= 2**48 = {2**48}")
# the window of carl threshold: the detunings and products threshold_map accepts
_DETUNING = _checked(float, lambda v: abs(v) <= _DELTA21_MAX, f"must be in [{-_DELTA21_MAX:g}, {_DELTA21_MAX:g}]")
_PRODUCT = _checked(float, lambda v: -math.inf < v <= 0.0 or _ALPHA_BETA_MIN <= v <= _ALPHA_BETA_MAX,
                    f"must be finite and either <= 0 or in [{_ALPHA_BETA_MIN!r}, {_ALPHA_BETA_MAX:g}]")
POINT = (
    Option(("--delta21",), "delta21", float, 0.0, "pump-probe detuning (scaled units, recoil quanta)"),
    Option(("--alpha-beta",), "alpha_beta", _checked(float, lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"), 0.0, "gain control product alpha*beta (scaled, dimensionless)"),
    Option(("--alpha",), "alpha", float, None, "pump-intensity control alpha (scaled; use with --beta)"),
    Option(("--beta",), "beta", float, None, "density control beta (scaled; use with --alpha)"),
    Option(("--physical",), "physical", _TEXT, None, f"JSON file with SI-unit parameters (keys {','.join(o.key for o in PHYSICAL)}) instead of scaled flags", metavar="FILE"),
)


# ---------------------------------------------------------------------------
# config validation and parameter-block resolution
# ---------------------------------------------------------------------------


def _check_keys(mapping, allowed: Sequence[str], where: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object, got {mapping!r}")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _resolve(rows: Sequence[Option], given, where: str) -> Dict:
    """The values of ``rows`` from the mapping ``given``, each converted by its type.

    A key left out or null gets its row's default. An unknown key, a missing
    required key, a boolean (alone or in a list: no key takes one, and
    Python reads ``true`` as 1), a failed conversion or a value outside the
    choices is a :class:`ConfigError` naming ``where``, the key and the value.
    """
    _check_keys(given, [o.key for o in rows], where)
    missing = [o.key for o in rows if o.default is REQUIRED and given.get(o.key) is None]
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {', '.join(sorted(missing))}")
    values = {o.key: o.default for o in rows}
    for o in rows:
        raw = given.get(o.key)
        if raw is None:
            continue
        try:
            if any(isinstance(v, bool) for v in (raw if isinstance(raw, list) else [raw])):
                raise ValueError("must not be a boolean")
            values[o.key] = o.type(raw)
            if o.choices and values[o.key] not in o.choices:
                raise ValueError(f"must be one of {', '.join(map(str, o.choices))}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"'{o.key}' = {raw!r} in {where}: {exc}") from exc
    return values


def _scaled_from_config(config: Dict, eta: Optional[int]) -> ScaledParams:
    """Resolve the scaled/physical parameter block (exactly one must be present).

    ``eta`` overrides the regime. The physical block carries no regime of its
    own, so there ``eta`` is mandatory (handlers pass the mode's eta option).
    """
    if ("scaled" in config) == ("physical" in config):
        raise ConfigError("exactly one of the 'scaled' and 'physical' parameter blocks must be given")
    if "scaled" in config:
        params = ScaledParams(**_resolve(SCALED, config["scaled"], "'scaled' block"))
        return params if eta is None else replace(params, eta=eta)
    phys = PhysicalParams(*_resolve(PHYSICAL, config["physical"], "'physical' block").values())
    if eta is None:
        raise ConfigError("the 'physical' block carries no regime; set the 'eta' option (0=RAO, 1=WAO)")
    return to_scaled(phys, eta)


def _parse_regimes(value) -> Tuple[str, ...]:
    """The regimes ``rao``, ``wao`` or ``both`` name, in any case."""
    if not isinstance(value, str) or value.lower() not in _REGIMES:
        raise ValueError("must be 'rao', 'wao' or 'both'")
    return _REGIMES[value.lower()]


def _parse_ratios(value) -> List[float]:
    """Mass ratios, as floats, from the flag's comma-separated text or a config list of numbers."""
    if isinstance(value, list) and all(isinstance(x, (int, float)) for x in value):
        return [float(x) for x in value]
    try:
        return [float(x) for x in value.split(",") if x.strip()]
    except (AttributeError, ValueError):  # not text, or a word in it
        raise ValueError("must be a comma-separated list of numbers") from None


def _complex(value) -> complex:
    """A number, or (in a config) a ``[re, im]`` pair."""
    if isinstance(value, list):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


_STATE = _checked(_complex, np.isfinite, "must be finite")


# ---------------------------------------------------------------------------
# mode handlers
# ---------------------------------------------------------------------------


def _report(lines: List[str], doc: Dict, out: Optional[str]) -> None:
    """Write ``doc`` to ``out``, if given, and only then print ``lines`` and the path written."""
    if out:
        write_json(doc, out)
        lines.append(f"wrote {out}")
    print("\n".join(lines))


def _run_spectrum(params: ScaledParams, options: Dict) -> int:
    lambdas, gamma, case, boundary = (v[0].tolist() for v in spectrum_arrays(params.delta21, params.alpha_beta, params.eta))
    doc = {
        **asdict(params),
        "alpha_beta": params.alpha_beta,
        "gamma": gamma,
        "case": case,
        "boundary": boundary,
        "lambdas": [[lam.real, lam.imag] for lam in lambdas],
        "version": __version__,
    }
    _report([f"Γ = {gamma:.6g}, Case {case}"], doc, options["output"])
    return 0


def _sweep_spec(params: ScaledParams, options: Dict) -> SweepSpec:
    return SweepSpec(
        axis=options["axis"],
        start=options["from"],
        stop=options["to"],
        num_points=options["points"],
        fixed=params.alpha_beta if options["axis"] == "delta21" else params.delta21,
        regimes=options["regimes"],
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
    flag = "within linear regime" if traj.linearity_flag is None else f"|B|>1 from tau={traj.linearity_flag:.6g}"
    print(f"evolve: {len(traj.tau)} samples to tau={traj.tau[-1]:g}, |A1|={abs(complex(traj.y[-1, 0])):.6g} ({flag}) -> {options['output']}")
    return 0


def _run_mass_study(_: None, options: Dict) -> int:
    ratios = options["ratios"]
    results = mass_study(
        options["alpha_beta_base"],
        ratios,
        delta21_range=(options["from"], options["to"]),
        num_points=options["points"],
        regimes=options["regimes"],
    )
    fmt = options["format"]
    stem = options["output"]
    if stem.endswith((".csv", ".json")):
        stem = stem.rsplit(".", 1)[0]
    written = [f"{stem}_r{ratio:g}.{fmt}" for ratio in ratios]
    for k, path in enumerate(written):
        if path in written[:k]:
            raise ConfigError(f"ratios {ratios[written.index(path)]!r} and {ratios[k]!r} would both write {path}")
    for path, result in zip(written, results):
        _write_result(result, path, fmt)
    print(f"mass-study: ratios {ratios} -> {', '.join(written)}")
    return 0


def _run_validate(params: ScaledParams, options: Dict) -> int:
    spec = _sweep_spec(params, options)
    report = validate_sweep(spec, options["samples"], seed=options["seed"])
    lines = [str(report)] + [
        f"  MISMATCH {entry.regime} {spec.axis}={entry.axis_value:g}: "
        f"spectrum gamma={entry.gamma_spectrum:.6g}, fit={entry.gamma_fit}"
        for entry in report.mismatches()
    ]
    doc = {
        "seed": report.seed,
        "counts": report.counts(),
        "entries": [asdict(e) for e in report.entries],
        "version": __version__,
    }
    _report(lines, doc, options["output"])
    return 0 if not report.mismatches() else 2


def _run_plot_script(_: None, options: Dict) -> int:
    emit_plot_script(options["results"], options["style"], options["output"])
    print(f"wrote {options['output']}")
    return 0


_FORMAT = ("csv", "json")
_REGIMES = {"rao": ("RAO",), "wao": ("WAO",), "both": REGIMES}
_REGIMES_OPTION = Option(("--regimes",), "regimes", _parse_regimes, REGIMES, "rao, wao or both (default both)")

MODES: Dict[str, Mode] = {
    "spectrum": Mode(
        "eigenvalues, stability case and growth rate at one control point", _run_spectrum, True, (),
        (ETA, Option(("-o", "--output"), "output", _TEXT, None, "optional JSON output path")),
    ),
    "curve": Mode(
        "growth-rate curve along one control axis (CSV/JSON)", _run_curve, True, ("points",),
        (
            Option(("--axis",), "axis", _TEXT, REQUIRED, "swept control (scaled units)", AXES),
            Option(("--from",), "from", float, REQUIRED, "axis start (scaled units)"),
            Option(("--to",), "to", float, REQUIRED, "axis stop (scaled units)"),
            Option(("--points",), "points", _SIZE, REQUIRED, "number of grid points (>= 2)"),
            _REGIMES_OPTION,
            Option(("-o", "--output"), "output", _TEXT, REQUIRED, "output file path"),
            Option(("--format",), "format", _TEXT, "csv", "output format (default csv)", _FORMAT),
        ),
    ),
    "threshold": Mode(
        "instability boundary polyline in the (delta21, alpha_beta) plane", _run_threshold, True, ("resolution",),
        (
            ETA,
            Option(("--delta21-from",), "delta21_from", _DETUNING, REQUIRED, "detuning window start (scaled)"),
            Option(("--delta21-to",), "delta21_to", _DETUNING, REQUIRED, "detuning window stop (scaled)"),
            Option(("--alpha-beta-from",), "alpha_beta_from", _PRODUCT, REQUIRED, "alpha*beta window start (scaled)"),
            Option(("--alpha-beta-to",), "alpha_beta_to", _PRODUCT, REQUIRED, "alpha*beta window stop (scaled)"),
            Option(("--resolution",), "resolution", _SIZE, 256, "number of delta21 grid points (>= 16, default 256)"),
            Option(("-o", "--output"), "output", _TEXT, REQUIRED, "output CSV path (branch_id,delta21,alpha_beta)"),
        ),
    ),
    "evolve": Mode(
        "integrate the coupled-mode equations, write trajectory CSV", _run_evolve, True, ("tau_end", "dt", "stride"),
        (
            ETA,
            Option(("--tau-end",), "tau_end", float, REQUIRED, "final scaled time tau"),
            Option(("--dt",), "dt", float, 1e-3, "integrator step in scaled time (default 1e-3)"),
            Option(("--stride",), "stride", _SIZE, 100, "output every N steps (default 100)"),
            Option(("--a1-seed",), "a1_seed", _STATE, 1e-6, "initial probe amplitude A1(0), real (default 1e-6)"),
            Option(("--b0",), "b0", _STATE, 0.0, "initial bunching B(0), real (default 0)"),
            Option(("--bdot0",), "bdot0", _STATE, 0.0, "initial dB/dtau, real (default 0)"),
            Option(("-o", "--output"), "output", _TEXT, REQUIRED, "trajectory CSV path"),
        ),
    ),
    "mass-study": Mode(
        "RAO/WAO convergence with atomic mass, in reference-mass units", _run_mass_study, False, ("points",),
        (
            Option(("--alpha-beta-base",), "alpha_beta_base", float, REQUIRED, "alpha*beta at mass ratio 1 (scaled)"),
            Option(("--ratios",), "ratios", _parse_ratios, REQUIRED, "comma-separated mass ratios, e.g. 1,10,100"),
            Option(("--from",), "from", float, -2.0, "detuning start in reference units (default -2)"),
            Option(("--to",), "to", float, 6.0, "detuning stop in reference units (default 6)"),
            Option(("--points",), "points", _SIZE, 801, "grid points (default 801)"),
            _REGIMES_OPTION,
            Option(("-o", "--output"), "output", _TEXT, REQUIRED, "output stem; files <stem>_r<ratio>.<fmt>"),
            Option(("--format",), "format", _TEXT, "csv", "output format (default csv)", _FORMAT),
        ),
    ),
    "validate": Mode(
        "cross-check sweep growth rates against time-domain fits", _run_validate, True, ("points",),
        (
            Option(("--axis",), "axis", _TEXT, REQUIRED, "swept control (scaled units)", AXES),
            Option(("--from",), "from", float, REQUIRED, "axis start (scaled)"),
            Option(("--to",), "to", float, REQUIRED, "axis stop (scaled)"),
            Option(("--points",), "points", _SIZE, REQUIRED, "number of grid points"),
            _REGIMES_OPTION,
            Option(("--samples",), "samples", _integer, REQUIRED, "number of random grid samples to validate"),
            Option(("--seed",), "seed", _integer, 0, "RNG seed for sample selection (default 0)"),
            Option(("-o", "--output"), "output", _TEXT, None, "optional JSON report path"),
        ),
    ),
    "plot-script": Mode(
        "emit a gnuplot script for sweep result files", _run_plot_script, False, (),
        (
            Option((), "results", _PATHS, REQUIRED, "sweep CSV file(s) produced by curve/mass-study"),
            Option(("--style",), "style", _TEXT, "fig1", "labeling convention", ("fig1", "mass-study")),
            Option(("-o", "--output"), "output", _TEXT, REQUIRED, "gnuplot script path"),
        ),
    ),
}
# run is no mode and has no handler: _config_from_args reads its config file as the document to execute
RUN = Mode("execute a JSON config file (flag-equivalent)", None, False, (),
           (Option(("--config",), "config", _TEXT, REQUIRED, "path to the JSON config document"),))


def execute(config: Dict) -> int:
    """Validate and run one config document; shared by flags and ``run --config``.

    Options and block keys are checked and converted by :func:`_resolve`;
    options left out or null get their table defaults. A ``TypeError`` or
    ``ValueError`` from building the parameters or running the mode becomes
    a :class:`ConfigError`, and so does a ``MemoryError``, named by the
    mode's size options. The regime comes from the eta option, else from
    the scaled block; a physical block carries none, so there a mode with
    the option needs it given. The other modes take ``DEFAULT_ETA``.
    """
    _check_keys(config, ("mode", "scaled", "physical", "options"), "config")
    name = config.get("mode")
    if not isinstance(name, str) or name not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {name!r}")
    mode = MODES[name]
    options = _resolve(mode.options, config.get("options", {}), f"options for mode '{name}'")
    try:
        # a mode without the eta option reads only the fixed control of its base point, the same in either regime
        params = _scaled_from_config(config, options.get("eta", DEFAULT_ETA)) if mode.block else None
        return mode.run(params, options)
    except MemoryError as exc:
        given = ", ".join(f"'{key}' = {options[key]!r}" for key in mode.sizes)
        raise ConfigError(f"{given} in options for mode '{name}': {str(exc) or 'out of memory'}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# gnuplot script emission
# ---------------------------------------------------------------------------

_AT = {name: k + 1 for k, name in enumerate(_CSV_COLUMNS.split(","))}  # gnuplot's number of each sweep CSV column


def _spec(info: Dict) -> Dict:
    """The ``spec`` meta of an inspected result file, or ``{}`` where it is missing or not a JSON object."""
    spec = info["meta"].get("spec")
    return spec if isinstance(spec, dict) else {}


def _quoted(text: str) -> str:
    """``text`` as a gnuplot single-quoted string, in which a quote is doubled.

    A line break ends a gnuplot command, so text holding one is rejected.
    """
    text = str(text)
    if "\n" in text or "\r" in text:
        raise ConfigError(f"{text!r} holds a line break, which a gnuplot string cannot")
    return "'" + text.replace("'", "''") + "'"


def emit_plot_script(result_paths: Sequence[str], style: str, out_path: str) -> None:
    """Write a gnuplot script rendering sweep CSVs.

    ``style='fig1'`` draws growth rate versus the swept axis, one curve per
    (file, regime), labeled by the fixed control value. ``style='mass-study'``
    labels curves by mass ratio and uses the solid-WAO / dashed-RAO
    convention. RAO curves are dashed in both styles. A file whose meta
    gives no number for its label is labeled ``fixed=?`` or ``m/m0=?``.
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
    axis = _spec(infos[0][1]).get("axis", "delta21")
    lines.append(f"set xlabel {_quoted(f'{axis} (scaled units)')}")
    lines.append("set ylabel 'growth rate (scaled units)'")
    plot_clauses = []
    for path, info in infos:
        if style == "mass-study":
            name, value, unknown = "m/m0", info["meta"].get("mass_ratio"), "m/m0=?"
        else:
            name, value, unknown = "ab", _spec(info).get("fixed"), "fixed=?"
        # a label only from a number: not a bool, nor an int past the float range, which :g cannot format
        number = type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
        label = f"{name}={value:g}" if number else unknown
        for regime in REGIMES:
            if regime not in info["regimes"]:
                continue
            dash = " dashtype 2" if regime == "RAO" else ""
            plot_clauses.append(
                f"  {_quoted(path)} using {_AT['axis_value']}:(strcol({_AT['regime']}) eq '{regime}' ? column({_AT['gamma']}) : NaN) "
                f"with lines lw 2{dash} title {_quoted(f'{regime} {label}')}"
            )
    if not plot_clauses:  # a plot command with no clause is a gnuplot error
        raise ConfigError(f"no RAO or WAO rows to plot in {', '.join(map(repr, result_paths))}")
    lines.append("plot \\")
    lines.append(", \\\n".join(plot_clauses))
    lines.append("pause -1 'press return to close'")
    with text_sink(out_path) as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_rows(sub: argparse.ArgumentParser, rows: Sequence[Option]) -> None:
    # no type, choices or default: the flag's text goes into the config as given, and _resolve reads it by the row
    for o in rows:
        metavar = "{" + ",".join(map(str, o.choices)) + "}" if o.choices else o.metavar
        shape = {"dest": o.key, "required": o.default is REQUIRED} if o.flags else {"nargs": "+"}
        sub.add_argument(*(o.flags or (o.key,)), **shape, help=o.help, metavar=metavar)


def _load_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {what} {path!r}: {exc}") from exc


def _block_from_args(args: argparse.Namespace) -> Dict:
    """The block the flags give, ``{"physical": ...}`` or ``{"scaled": ...}``: conflicts checked, then values read by :data:`POINT`."""
    given = {o.key: getattr(args, o.key) for o in POINT}
    if given["physical"] is not None and any(given[key] is not None for key in ("delta21", "alpha_beta", "alpha", "beta")):
        raise ConfigError("give either --physical or scaled flags, not both")
    if (given["alpha"] is None) != (given["beta"] is None):
        raise ConfigError("--alpha and --beta must be given together")
    if given["alpha"] is not None and given["alpha_beta"] is not None:
        raise ConfigError("give either --alpha-beta or the --alpha/--beta pair, not both")
    point = _resolve(POINT, given, "control-point flags")
    if point["physical"] is not None:
        return {"physical": _load_json(point["physical"], "physical-parameter file")}
    alpha, beta = (point["alpha_beta"], 1.0) if point["alpha"] is None else (point["alpha"], point["beta"])
    # the scaled flags have no block of their own to carry a regime: --eta, where the mode has it, overrides this one
    return {"scaled": {"delta21": point["delta21"], "alpha": alpha, "beta": beta, "eta": DEFAULT_ETA}}


# the rows of each subcommand, in the order the top-level help lists them
_ROWS = {name: (POINT if table.block else ()) + table.options for name, table in {**MODES, "run": RUN}.items()}


def build_parser() -> argparse.ArgumentParser:
    """The ``carl`` parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="carl",
        allow_abbrev=False,
        description="Linear stability and dynamics of the collective atomic-recoil laser. "
        "All numeric flags are in scaled (dimensionless) units unless stated otherwise; "
        "SI input goes through --physical.",
    )
    parser.add_argument("--version", action="version", version=f"carl {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, rows in _ROWS.items():
        _add_rows(subs.add_parser(name, help=MODES.get(name, RUN).help, allow_abbrev=False), rows)
    return parser


# the flags of the option tables, each of which takes one value
_VALUE_FLAGS = frozenset(f for rows in _ROWS.values() for o in rows for f in o.flags)


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse a command line: a well-formed one off its subcommand's rows, anything else by the full parser.

    A negative number after a flag of the tables is first passed as
    ``--flag=value``: argparse alone reads ``-2e-1``, ``-1e-320`` or ``-inf``
    there as a flag. A line is read off the rows, with no parser built, when
    each token is a row's flag and a value not starting with ``-``,
    ``--flag=value`` with a value other than ``--``, or a word not starting
    with ``-`` of the positional row, whose words are one unbroken run; and
    every required row is given. The last of repeated flags wins, and the
    namespace is argparse's. Anything else goes to :func:`build_parser`:
    ``-h``, ``--version``, an unknown or abbreviated flag (none is taken: a
    flag is spelled in full, as a config key is), ``-ox``, ``-o=x``,
    ``--output -``, a missing value or required row, a second run of words
    and no subcommand, so that help and errors are argparse's.
    """
    joined: List[str] = []
    for token in argv:
        if joined and joined[-1] in _VALUE_FLAGS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + token
                continue
        joined.append(token)
    argv = joined
    if argv and argv[0] in _ROWS:
        rows = _ROWS[argv[0]]
        keys, given, tokens = {flag: o.key for o in rows for flag in o.flags}, {}, iter(argv[1:])
        words, flag = next((o.key for o in rows if not o.flags), None), None  # the positional row, and the flag read last
        for token in tokens:
            if words and not token.startswith("-"):  # a word of the positional row, whose words are one unbroken run
                if flag and words in given:
                    break
                given.setdefault(words, []).append(token)
                flag = None
                continue
            flag, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
            value = value if eq else next(tokens, "-")  # a missing value reads as "-", which goes to argparse
            if flag not in keys or value == "--" or not eq and value.startswith("-"):
                break
            given[keys[flag]] = value
        else:
            if all(o.key in given for o in rows if o.default is REQUIRED):
                return argparse.Namespace(command=argv[0], **{o.key: given.get(o.key) for o in rows})
    return build_parser().parse_args(argv)


def _config_from_args(args: argparse.Namespace) -> Dict:
    """The config document a command line stands for: ``run``'s file, else the text of each option flag given, and the flags' block."""
    if args.command == "run":
        return _load_json(_resolve(RUN.options, {"config": args.config}, "run flags")["config"], "config")
    mode = MODES[args.command]
    options = {o.key: getattr(args, o.key) for o in mode.options if getattr(args, o.key) is not None}
    return {"mode": args.command, "options": options, **(_block_from_args(args) if mode.block else {})}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv)
    try:
        return execute(_config_from_args(args))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StepSizeRejection, NonFiniteStateError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
