"""Parameter sweeps: gain curves, mass-convergence studies, threshold maps.

Everything here evaluates the spectrum module over grids and tabulates the
results in a fixed, deterministic order so that identical inputs produce
byte-identical CSV/JSON files. Gain curves and mass studies are columnar:
one :func:`carl.spectrum.spectrum_arrays` call per regime fills whole
columns of a :class:`SweepResult`, and the writers format rows straight
from those columns.

The threshold map needs no root finding on a grid: the stability boundary is
the graph of the closed-form critical alpha*beta over delta21 (the
nonnegative root of the discriminant, a quadratic in alpha*beta), evaluated
in whole arrays, with the exact points where it crosses the edges of the
alpha*beta window added as vertices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from carl._io import PathOrFile, text_sink, write_json
from carl._version import __version__
from carl.dynamics import NonExponentialFitError, TrajectoryState, evolve, fit_growth_rate
from carl.params import RAO, WAO, ScaledParams
from carl.spectrum import _alpha_beta_roots, critical_delta21, spectrum_arrays

__all__ = [
    "SweepSpec",
    "SweepRecord",
    "SweepResult",
    "ValidationEntry",
    "ValidationReport",
    "gain_curve",
    "mass_study",
    "threshold_map",
    "validate_sweep",
    "write_sweep_csv",
    "write_sweep_json",
    "write_polylines_csv",
]

AXES = ("delta21", "alpha_beta")
REGIMES = ("RAO", "WAO")  # canonical output order
_REGIME_ETA = {"RAO": RAO, "WAO": WAO}


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep description.

    ``axis`` is the swept control (``delta21`` or ``alpha_beta``); ``fixed``
    is the value of the other one. ``regimes`` selects RAO (eta = 0), WAO
    (eta = 1) or both.
    """

    axis: str
    start: float
    stop: float
    num_points: int
    fixed: float
    regimes: Tuple[str, ...] = REGIMES

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.start < self.stop:
            raise ValueError(f"start ({self.start}) must be < stop ({self.stop})")
        if self.num_points < 2:
            raise ValueError(f"num_points must be >= 2, got {self.num_points}")
        if not self.regimes or any(r not in REGIMES for r in self.regimes):
            raise ValueError(f"regimes must be a nonempty subset of {REGIMES}, got {self.regimes!r}")
        if self.axis == "delta21" and self.fixed < 0:
            raise ValueError(f"fixed alpha_beta must be >= 0, got {self.fixed}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.num_points)

    def controls(self, axis_values):
        """``(delta21, alpha_beta)`` at one axis value or an array of them."""
        return (axis_values, self.fixed) if self.axis == "delta21" else (self.fixed, axis_values)

    def point(self, axis_value: float, regime: str) -> ScaledParams:
        """Control-parameter set at one grid point of the sweep."""
        return ScaledParams.from_product(*self.controls(axis_value), _REGIME_ETA[regime])

    def as_dict(self) -> Dict:
        return {
            "axis": self.axis,
            "start": self.start,
            "stop": self.stop,
            "num_points": self.num_points,
            "fixed": self.fixed,
            "regimes": list(self.regimes),
        }


@dataclass(frozen=True)
class SweepRecord:
    """Spectrum summary at one grid point."""

    axis_value: float
    regime: str
    gamma: float
    case: str  # "I" (stable) or "II" (unstable)
    lambdas: Tuple[complex, complex, complex]
    boundary: bool


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns, one row per grid point and regime, plus reproducibility metadata.

    Rows come in regime blocks (RAO before WAO), the axis ascending within
    each block. ``axis``, ``regime``, ``gamma``, ``case`` ("I" or "II") and
    ``boundary`` have one entry per row and ``lambdas`` is (rows, 3);
    :attr:`records` gives the same rows as :class:`SweepRecord` objects.
    """

    axis: np.ndarray
    regime: np.ndarray
    gamma: np.ndarray
    case: np.ndarray
    lambdas: np.ndarray
    boundary: np.ndarray
    meta: Dict = field(default_factory=dict)

    @property
    def records(self) -> Tuple[SweepRecord, ...]:
        columns = (self.axis, self.regime, self.gamma, self.case, self.lambdas, self.boundary)
        return tuple(SweepRecord(a, r, g, c, tuple(l), b) for a, r, g, c, l, b in zip(*(v.tolist() for v in columns)))

    def filtered(self, regime: str) -> List[SweepRecord]:
        return [r for r in self.records if r.regime == regime]

    def gamma_array(self, regime: str) -> np.ndarray:
        return self.gamma[self.regime == regime]


def _columns(grid: np.ndarray, regimes: Sequence[str], spectra, meta: Dict) -> SweepResult:
    # one (lambdas, gamma, case, boundary) block per regime, stacked in order
    lambdas, gamma, case, boundary = (np.concatenate(block) for block in zip(*spectra))
    axis, regime = np.tile(grid, len(regimes)), np.repeat(regimes, len(grid))
    return SweepResult(axis, regime, gamma, case, lambdas, boundary, meta)


def gain_curve(spec: SweepSpec, *, timestamp: Optional[str] = None) -> SweepResult:
    """Growth rate (and full spectrum) along one control axis.

    Output ordering is fixed: RAO block before WAO block, axis ascending
    within each block. Each regime is one :func:`spectrum_arrays` call.
    """
    grid = spec.grid()
    regimes = [r for r in REGIMES if r in spec.regimes]
    meta = {"spec": spec.as_dict(), "version": __version__}
    if timestamp is not None:
        meta["timestamp"] = timestamp
    return _columns(grid, regimes, [spectrum_arrays(*spec.controls(grid), _REGIME_ETA[r]) for r in regimes], meta)


def mass_study(
    alpha_beta_base: float,
    mass_ratios: Sequence[float],
    *,
    delta21_range: Tuple[float, float] = (-2.0, 6.0),
    num_points: int = 801,
    regimes: Tuple[str, ...] = REGIMES,
    timestamp: Optional[str] = None,
) -> List[SweepResult]:
    """Gain curves at scaled mass, expressed in reference-mass units.

    Scaling the atomic mass by ``s`` at fixed pump intensity, density and
    geometry divides the recoil frequency by ``s``; in scaled variables the
    control point moves to ``(s*delta21, alpha_beta_base*s**2)`` and rates
    shrink by ``1/s`` when quoted per unit of reference-mass scaled time.
    Each returned result therefore holds curves over the *reference* detuning
    grid with gamma (and the eigenvalues) already converted back, so curves
    for different ratios are directly comparable. For eta = 0 this mapping
    is exact: the converted curve at ratio s equals the plain gain curve at
    ``alpha_beta_base/s`` (the self-consistency check used in the tests).
    """
    if alpha_beta_base < 0:
        raise ValueError(f"alpha_beta_base must be >= 0, got {alpha_beta_base}")
    if not mass_ratios or any(not (math.isfinite(s) and s > 0) for s in mass_ratios):
        raise ValueError(f"mass_ratios must be positive and finite, got {mass_ratios!r}")
    if not regimes or any(r not in REGIMES for r in regimes):
        raise ValueError(f"regimes must be a nonempty subset of {REGIMES}, got {regimes!r}")

    results: List[SweepResult] = []
    lo, hi = delta21_range
    grid = np.linspace(lo, hi, num_points)
    blocks = [r for r in REGIMES if r in regimes]
    for ratio in mass_ratios:
        ab_scaled = alpha_beta_base * ratio * ratio
        spectra = []
        for regime in blocks:
            lambdas, gamma, case, boundary = spectrum_arrays(ratio * grid, ab_scaled, _REGIME_ETA[regime])
            # lambdas / ratio, each part formed as Python's complex / float forms it; its
            # zero terms set the signs of zero that the CSV writes as 0 or -0
            scaled = np.empty_like(lambdas)
            scaled.real = (lambdas.real + lambdas.imag * 0.0) / ratio
            scaled.imag = (lambdas.imag - lambdas.real * 0.0) / ratio
            spectra.append((scaled, gamma / ratio, case, boundary))
        meta = {
            "spec": {
                "axis": "delta21",
                "start": lo,
                "stop": hi,
                "num_points": num_points,
                "fixed": ab_scaled,
                "regimes": list(regimes),
            },
            "version": __version__,
            "mass_ratio": ratio,
            "alpha_beta_base": alpha_beta_base,
            "units": "reference mass (ratio 1)",
        }
        if timestamp is not None:
            meta["timestamp"] = timestamp
        results.append(_columns(grid, blocks, spectra, meta))
    return results


# ---------------------------------------------------------------------------
# threshold boundary: the graph of the closed-form critical alpha*beta
# ---------------------------------------------------------------------------


def threshold_map(
    delta21_range: Tuple[float, float],
    alpha_beta_range: Tuple[float, float],
    eta: int,
    resolution: int = 256,
) -> List[np.ndarray]:
    """Stability-boundary polylines in the (delta21, alpha_beta) plane.

    The boundary is the graph of the critical alpha*beta as a function of
    delta21 (see :func:`carl.spectrum.critical_alpha_beta`), the nonnegative
    root of :func:`carl.spectrum.threshold_lhs` as a quadratic in alpha*beta. It is
    evaluated in closed form on ``resolution`` equally spaced detunings, and
    the exact points where it crosses the lower and upper edges of
    ``alpha_beta_range`` (from :func:`carl.spectrum.critical_delta21`) are
    added as vertices, so a piece narrower than one grid cell is still
    found. The curve is split into branches wherever it leaves the window.
    Every vertex lies on the boundary up to rounding.

    Returns a list of (n, 2) arrays with columns (delta21, alpha_beta):
    branches in ascending delta21, and the vertices of each in ascending
    delta21. The list is empty when no boundary crosses the window.
    """
    if resolution < 16:
        raise ValueError(f"resolution must be >= 16, got {resolution}")
    x_lo, x_hi = delta21_range
    y_lo, y_hi = alpha_beta_range
    if not (x_hi > x_lo and y_hi > y_lo):
        raise ValueError("ranges must be increasing")

    crossings = [critical_delta21(y, eta, window=(x_lo, x_hi)) for y in (y_lo, y_hi) if y > 0.0]
    xs = np.unique(np.concatenate([np.linspace(x_lo, x_hi, resolution), *crossings]))
    ys = _alpha_beta_roots(xs, eta)[0]
    # the curve leaves the window only at a crossing, which is a vertex, so
    # between two neighbouring vertices it is inside iff it is at the midpoint
    mid = _alpha_beta_roots(0.5 * (xs[:-1] + xs[1:]), eta)[0]
    inside = (mid >= y_lo) & (mid <= y_hi)
    # runs of consecutive inside segments; run k spans vertices starts[k]..ends[k]
    edges = np.diff(np.concatenate([[0], inside.astype(np.int8), [0]]))
    starts, ends = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    return [np.column_stack([xs[a : b + 1], ys[a : b + 1]]) for a, b in zip(starts, ends)]


# ---------------------------------------------------------------------------
# dynamics-versus-spectrum validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationEntry:
    axis_value: float
    regime: str
    gamma_spectrum: float
    gamma_fit: Optional[float]
    status: str  # ok | mismatch | consistent_stable | inconsistent | skipped_boundary | skipped_slow
    rel_err: Optional[float]


@dataclass(frozen=True)
class ValidationReport:
    entries: Tuple[ValidationEntry, ...]
    seed: int

    def mismatches(self) -> List[ValidationEntry]:
        return [e for e in self.entries if e.status in ("mismatch", "inconsistent")]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for e in self.entries:
            out[e.status] = out.get(e.status, 0) + 1
        return out

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"validate_sweep: {len(self.entries)} samples ({parts})"


def validate_sweep(
    spec: SweepSpec,
    n_samples: int,
    *,
    seed: int = 0,
    probe_seed: float = 1e-6,
    rate_tol: float = 0.01,
    gamma_floor: float = 0.05,
) -> ValidationReport:
    """Cross-check spectrum growth rates against time-domain fits.

    Draws ``n_samples`` grid points (seeded, reproducible), integrates the
    coupled-mode equations from a small probe seed and compares the fitted
    late-time slope of ln|A1| with the spectral gamma. Above threshold the
    two must agree within ``rate_tol``; below threshold the fit must report
    a non-exponential signal. Boundary-flagged points are excluded, as are
    unstable points with gamma below ``gamma_floor`` (their fit window would
    be impractically long); both are listed as skipped.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    grid = spec.grid()
    regimes = [r for r in REGIMES if r in spec.regimes]

    draws = [(float(grid[int(rng.integers(0, len(grid)))]), regimes[int(rng.integers(0, len(regimes)))]) for _ in range(n_samples)]
    points = [spec.point(axis_value, regime) for axis_value, regime in draws]
    # the spectra of all samples in one call
    spectra = spectrum_arrays([p.delta21 for p in points], [p.alpha_beta for p in points], [p.eta for p in points])

    entries: List[ValidationEntry] = []
    for (axis_value, regime), params, lambdas, gamma, _, boundary in zip(draws, points, *(v.tolist() for v in spectra)):
        if boundary:
            entries.append(ValidationEntry(axis_value, regime, gamma, None, "skipped_boundary", None))
            continue

        init = TrajectoryState(tau=0.0, A1=complex(probe_seed), B=0.0, Bdot=0.0)
        if gamma > 0.0:
            if gamma < gamma_floor:
                entries.append(ValidationEntry(axis_value, regime, gamma, None, "skipped_slow", None))
                continue
            window = (30.0 / gamma, 60.0 / gamma)
            dt = min(5e-3, 0.02 / max(abs(lam) for lam in lambdas))
            traj = evolve(params, init, tau_end=window[1], dt=dt, output_stride=50)
            try:
                fitted = fit_growth_rate(traj, window)
            except NonExponentialFitError:
                entries.append(ValidationEntry(axis_value, regime, gamma, None, "inconsistent", None))
                continue
            rel = abs(fitted - gamma) / gamma
            status = "ok" if rel <= rate_tol else "mismatch"
            entries.append(ValidationEntry(axis_value, regime, gamma, fitted, status, rel))
        else:
            traj = evolve(params, init, tau_end=60.0, dt=5e-3, output_stride=50)
            try:
                fitted = fit_growth_rate(traj, (20.0, 60.0))
            except NonExponentialFitError:
                entries.append(ValidationEntry(axis_value, regime, 0.0, None, "consistent_stable", None))
            else:
                entries.append(ValidationEntry(axis_value, regime, 0.0, fitted, "inconsistent", None))
    return ValidationReport(entries=tuple(entries), seed=seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3"
_CSV_ROW = "%s,%.17g,%s,%.17g,%s" + ",%.17g" * 6 + "\n"


def _rows(result: SweepResult):
    """The rows of the CSV and JSON writers: axis name, then one value per remaining column."""
    axis_name = result.meta.get("spec", {}).get("axis", "axis")
    lam = result.lambdas
    parts = [lam[:, j // 2].imag if j % 2 else lam[:, j // 2].real for j in range(6)]
    columns = (result.axis, result.regime, result.gamma, result.case, *parts)
    return zip(repeat(axis_name), *(v.tolist() for v in columns))


def write_sweep_csv(result: SweepResult, path_or_file: PathOrFile) -> None:
    """Tabulate a sweep as CSV with ``#`` metadata lines and a header row."""
    with text_sink(path_or_file) as f:
        for key in sorted(result.meta):
            f.write(f"# {key}: {json.dumps(result.meta[key], sort_keys=True)}\n")
        f.write(_CSV_COLUMNS + "\n")
        f.write("".join(_CSV_ROW % row for row in _rows(result)))


def write_sweep_json(result: SweepResult, path_or_file: PathOrFile) -> None:
    """Same records as the CSV writer, as one JSON document."""
    keys = _CSV_COLUMNS.split(",")
    write_json({"meta": result.meta, "records": [dict(zip(keys, row)) for row in _rows(result)]}, path_or_file)


def write_polylines_csv(
    polylines: Sequence[np.ndarray],
    path_or_file: PathOrFile,
    *,
    meta: Optional[Dict] = None,
) -> None:
    """Write threshold-boundary polylines as CSV (branch_id, delta21, alpha_beta)."""
    with text_sink(path_or_file) as f:
        for key in sorted(meta or {}):
            f.write(f"# {key}: {json.dumps(meta[key], sort_keys=True)}\n")
        f.write("branch_id,delta21,alpha_beta\n")
        for branch, line in enumerate(polylines):
            for x, y in line:
                f.write(f"{branch},{format(x, '.17g')},{format(y, '.17g')}\n")
