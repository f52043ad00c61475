"""Parameter sweeps: gain curves, mass-convergence studies, threshold maps.

Everything here evaluates the spectrum module over grids and tabulates the
results in a fixed, deterministic order so that identical inputs produce
byte-identical CSV/JSON files. Gain-curve grid points are independent and
are evaluated one after the other. Setting the environment variable
``CARL_THREADS`` to more than 1 evaluates them in a thread pool of that
size instead, with results still gathered in grid order; the work holds the
interpreter lock, so this is slower than the serial default (about twice
as slow on 2 CPUs).

The threshold map needs no root finding on a grid: the stability boundary is
the graph of the closed-form critical alpha*beta over delta21 (the
nonnegative root of the discriminant, a quadratic in alpha*beta), evaluated
in whole arrays, with the exact points where it crosses the edges of the
alpha*beta window added as vertices.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Sequence, Tuple, Union

import numpy as np

from carl._version import __version__
from carl.dynamics import NonExponentialFitError, TrajectoryState, evolve, fit_growth_rate
from carl.params import RAO, WAO, ScaledParams
from carl.spectrum import Spectrum, _alpha_beta_roots, critical_delta21, eigen_spectrum

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


def _worker_count() -> int:
    raw = os.environ.get("CARL_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError as exc:
            raise ValueError(f"CARL_THREADS must be an integer, got {raw!r}") from exc
        if n < 1:
            raise ValueError(f"CARL_THREADS must be >= 1, got {n}")
        return n
    return 1


def _grid_map(func, items: Sequence) -> List:
    # deterministic gather: results ordered by grid index, never by completion
    n = _worker_count()
    if n <= 1 or len(items) < 64:
        return [func(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(func, items))


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

    def point(self, axis_value: float, regime: str) -> ScaledParams:
        """Control-parameter set at one grid point of the sweep."""
        eta = _REGIME_ETA[regime]
        if self.axis == "delta21":
            return ScaledParams.from_product(axis_value, self.fixed, eta)
        return ScaledParams.from_product(self.fixed, axis_value, eta)

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


@dataclass(frozen=True)
class SweepResult:
    """Ordered sweep records plus reproducibility metadata."""

    records: Tuple[SweepRecord, ...]
    meta: Dict = field(default_factory=dict)

    def filtered(self, regime: str) -> List[SweepRecord]:
        return [r for r in self.records if r.regime == regime]

    def gamma_array(self, regime: str) -> np.ndarray:
        return np.array([r.gamma for r in self.filtered(regime)])


def _record(axis_value: float, regime: str, spec_point: Spectrum) -> SweepRecord:
    return SweepRecord(
        axis_value=float(axis_value),
        regime=regime,
        gamma=spec_point.gamma,
        case=spec_point.case.value,
        lambdas=spec_point.lambdas,
        boundary=spec_point.boundary,
    )


def gain_curve(spec: SweepSpec, *, timestamp: Optional[str] = None) -> SweepResult:
    """Growth rate (and full spectrum) along one control axis.

    Output ordering is fixed: RAO block before WAO block, axis ascending
    within each block.
    """
    grid = spec.grid()
    records: List[SweepRecord] = []
    for regime in REGIMES:
        if regime not in spec.regimes:
            continue
        spectra = _grid_map(lambda v, _r=regime: eigen_spectrum(spec.point(float(v), _r)), grid)
        records.extend(_record(v, regime, sp) for v, sp in zip(grid, spectra))
    meta = {"spec": spec.as_dict(), "version": __version__}
    if timestamp is not None:
        meta["timestamp"] = timestamp
    return SweepResult(records=tuple(records), meta=meta)


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

    results: List[SweepResult] = []
    lo, hi = delta21_range
    grid = np.linspace(lo, hi, num_points)
    for ratio in mass_ratios:
        ab_scaled = alpha_beta_base * ratio * ratio
        records: List[SweepRecord] = []
        for regime in REGIMES:
            if regime not in regimes:
                continue
            eta = _REGIME_ETA[regime]

            def at_point(d0: float, _eta=eta) -> SweepRecord:
                sp = eigen_spectrum(ScaledParams.from_product(ratio * d0, ab_scaled, _eta))
                lambdas = tuple(lam / ratio for lam in sp.lambdas)
                return SweepRecord(
                    axis_value=float(d0),
                    regime="RAO" if _eta == RAO else "WAO",
                    gamma=sp.gamma / ratio,
                    case=sp.case.value,
                    lambdas=lambdas,
                    boundary=sp.boundary,
                )

            records.extend(_grid_map(at_point, grid))
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
        results.append(SweepResult(records=tuple(records), meta=meta))
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
    rng = np.random.default_rng(seed)
    grid = spec.grid()
    regimes = [r for r in REGIMES if r in spec.regimes]

    entries: List[ValidationEntry] = []
    for _ in range(n_samples):
        axis_value = float(grid[int(rng.integers(0, len(grid)))])
        regime = regimes[int(rng.integers(0, len(regimes)))]
        params = spec.point(axis_value, regime)
        sp = eigen_spectrum(params)

        if sp.boundary:
            entries.append(ValidationEntry(axis_value, regime, sp.gamma, None, "skipped_boundary", None))
            continue

        init = TrajectoryState(tau=0.0, A1=complex(probe_seed), B=0.0, Bdot=0.0)
        if sp.gamma > 0.0:
            if sp.gamma < gamma_floor:
                entries.append(ValidationEntry(axis_value, regime, sp.gamma, None, "skipped_slow", None))
                continue
            window = (30.0 / sp.gamma, 60.0 / sp.gamma)
            dt = min(5e-3, 0.02 / max(abs(lam) for lam in sp.lambdas))
            traj = evolve(params, init, tau_end=window[1], dt=dt, output_stride=50)
            try:
                fitted = fit_growth_rate(traj, window)
            except NonExponentialFitError:
                entries.append(ValidationEntry(axis_value, regime, sp.gamma, None, "inconsistent", None))
                continue
            rel = abs(fitted - sp.gamma) / sp.gamma
            status = "ok" if rel <= rate_tol else "mismatch"
            entries.append(ValidationEntry(axis_value, regime, sp.gamma, fitted, status, rel))
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


def _record_row(axis_name: str, rec: SweepRecord) -> List:
    row: List = [axis_name, rec.axis_value, rec.regime, rec.gamma, rec.case]
    for lam in rec.lambdas:
        row.extend((lam.real, lam.imag))
    return row


def write_sweep_csv(result: SweepResult, path_or_file: Union[str, IO[str]]) -> None:
    """Tabulate a sweep as CSV with ``#`` metadata lines and a header row."""

    def emit(f: IO[str]) -> None:
        for key in sorted(result.meta):
            f.write(f"# {key}: {json.dumps(result.meta[key], sort_keys=True)}\n")
        f.write(_CSV_COLUMNS + "\n")
        axis_name = result.meta.get("spec", {}).get("axis", "axis")
        for rec in result.records:
            cells = [
                x if isinstance(x, str) else format(x, ".17g") for x in _record_row(axis_name, rec)
            ]
            f.write(",".join(cells) + "\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as f:
            emit(f)
    else:
        emit(path_or_file)


def write_sweep_json(result: SweepResult, path_or_file: Union[str, IO[str]]) -> None:
    """Same records as the CSV writer, as one JSON document."""
    axis_name = result.meta.get("spec", {}).get("axis", "axis")
    doc = {
        "meta": result.meta,
        "records": [
            {
                "axis_name": axis_name,
                "axis_value": rec.axis_value,
                "regime": rec.regime,
                "gamma": rec.gamma,
                "case": rec.case,
                "re_l1": rec.lambdas[0].real,
                "im_l1": rec.lambdas[0].imag,
                "re_l2": rec.lambdas[1].real,
                "im_l2": rec.lambdas[1].imag,
                "re_l3": rec.lambdas[2].real,
                "im_l3": rec.lambdas[2].imag,
            }
            for rec in result.records
        ],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        path_or_file.write(text)


def write_polylines_csv(
    polylines: Sequence[np.ndarray],
    path_or_file: Union[str, IO[str]],
    *,
    meta: Optional[Dict] = None,
) -> None:
    """Write threshold-boundary polylines as CSV (branch_id, delta21, alpha_beta)."""

    def emit(f: IO[str]) -> None:
        for key in sorted(meta or {}):
            f.write(f"# {key}: {json.dumps(meta[key], sort_keys=True)}\n")
        f.write("branch_id,delta21,alpha_beta\n")
        for branch, line in enumerate(polylines):
            for x, y in line:
                f.write(f"{branch},{format(x, '.17g')},{format(y, '.17g')}\n")

    if isinstance(path_or_file, str):
        with open(path_or_file, "w", encoding="utf-8") as f:
            emit(f)
    else:
        emit(path_or_file)
