"""Parameter sweeps: gain curves, mass-convergence studies, threshold maps.

Everything here evaluates the spectrum module over grids and tabulates the
results in a fixed, deterministic order so that identical inputs produce
byte-identical CSV/JSON files. Sweep results are columns only: one
:func:`carl.spectrum.spectrum_arrays` call over every regime and mass ratio
fills the columns of their :class:`SweepResult` objects.

Every writer (sweeps here, trajectories in :mod:`carl.dynamics`) builds its
rows with :func:`carl._io.csv_rows`, which spells every float exactly as
``'%.17g' % x`` does, or for the sweep JSON as the json module does, but
from whole arrays, in blocks of rows. A JSON record is a row whose fixed
text is the record's keys and braces; only ``meta`` goes through
``json.dumps`` whole.

The sweep CSV is also read back here, for ``carl plot-script``:
:func:`_inspect_result_csv` checks a file's header against the columns the
writer writes and returns its ``#`` meta lines, its regimes and its row count.

The threshold map needs no root finding on a grid: the stability boundary is
the graph of the closed-form critical alpha*beta over delta21 (the
nonnegative root of the discriminant, a quadratic in alpha*beta), evaluated
in whole arrays, with the exact points where it crosses the edges of the
alpha*beta window added as vertices.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from carl._io import PathOrFile, csv_rows, text_sink
from carl._version import __version__
from carl.dynamics import NonExponentialFitError, TrajectoryState, evolve, fit_growth_rate
from carl.params import RAO, WAO, ScaledParams
from carl.spectrum import _alpha_beta_roots, critical_delta21, spectrum_arrays

__all__ = [
    "SweepSpec",
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
        if not all(map(math.isfinite, (self.stop - self.start, self.fixed))):
            raise ValueError(f"start ({self.start}), stop ({self.stop}), stop - start and fixed ({self.fixed}) must be finite")
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

    def as_dict(self) -> Dict:
        return {**asdict(self), "regimes": list(self.regimes)}


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns, one row per grid point and regime, plus reproducibility metadata.

    Rows come in regime blocks (RAO before WAO), the axis ascending within
    each block. ``axis``, ``regime``, ``gamma``, ``case`` ("I" or "II") and
    ``boundary`` have one entry per row and ``lambdas`` is (rows, 3).
    """

    axis: np.ndarray
    regime: np.ndarray
    gamma: np.ndarray
    case: np.ndarray
    lambdas: np.ndarray
    boundary: np.ndarray
    meta: Dict = field(default_factory=dict)


def _columns(grid: np.ndarray, regimes: Sequence[str], spectra, meta: Dict) -> SweepResult:
    # spectra: the (lambdas, gamma, case, boundary) rows of the regime blocks in order
    lambdas, gamma, case, boundary = spectra
    return SweepResult(np.tile(grid, len(regimes)), np.repeat(regimes, len(grid)), gamma, case, lambdas, boundary, meta)


def gain_curve(spec: SweepSpec) -> SweepResult:
    """Growth rate (and full spectrum) along one control axis.

    Output ordering is fixed: RAO block before WAO block, axis ascending
    within each block. The blocks are one :func:`spectrum_arrays` call.
    """
    grid = spec.grid()
    regimes = [r for r in REGIMES if r in spec.regimes]
    meta = {"spec": spec.as_dict(), "version": __version__}
    etas = np.repeat([_REGIME_ETA[r] for r in regimes], len(grid))
    return _columns(grid, regimes, spectrum_arrays(*spec.controls(np.tile(grid, len(regimes))), etas), meta)


def mass_study(
    alpha_beta_base: float,
    mass_ratios: Sequence[float],
    *,
    delta21_range: Tuple[float, float] = (-2.0, 6.0),
    num_points: int = 801,
    regimes: Tuple[str, ...] = REGIMES,
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
    if not mass_ratios or any(not (math.isfinite(s) and s > 0) for s in mass_ratios):
        raise ValueError(f"mass_ratios must be positive and finite, got {mass_ratios!r}")
    spec = SweepSpec("delta21", *delta21_range, num_points, alpha_beta_base, regimes)
    fixed = [alpha_beta_base * r * r for r in mass_ratios]
    for s, ab in zip(mass_ratios, fixed):
        if not all(map(math.isfinite, (s * spec.start, s * spec.stop, ab))):
            raise ValueError(f"mass ratio {s!r} takes the control point (s*delta21, alpha_beta_base*s**2) past the float "
                             f"range at alpha_beta_base = {alpha_beta_base!r}, delta21 in [{spec.start!r}, {spec.stop!r}]: "
                             f"both must stay within {sys.float_info.max!r} in magnitude")

    results: List[SweepResult] = []
    grid = spec.grid()
    blocks = [r for r in REGIMES if r in regimes]
    # one call over the regime blocks of every ratio, ratio and ab holding each row's values
    rows = len(blocks) * num_points
    ratio, ab = (np.repeat(np.array(v, dtype=float), rows) for v in (mass_ratios, fixed))
    etas = np.tile(np.repeat([_REGIME_ETA[r] for r in blocks], num_points), len(mass_ratios))
    lambdas, gamma, case, boundary = spectrum_arrays(ratio * np.tile(grid, len(ratio) // num_points), ab, etas)
    # lambdas / ratio, each part formed as Python's complex / float forms it; its
    # zero terms set the signs of zero that the CSV writes as 0 or -0
    scaled = np.empty_like(lambdas)
    scaled.real = (lambdas.real + lambdas.imag * 0.0) / ratio[:, None]
    scaled.imag = (lambdas.imag - lambdas.real * 0.0) / ratio[:, None]
    gamma = gamma / ratio
    for k, ratio in enumerate(mass_ratios):
        meta = {
            "spec": replace(spec, fixed=fixed[k]).as_dict(),
            "version": __version__,
            "mass_ratio": ratio,
            "alpha_beta_base": alpha_beta_base,
            "units": "reference mass (ratio 1)",
        }
        at = slice(k * rows, (k + 1) * rows)
        results.append(_columns(grid, blocks, (scaled[at], gamma[at], case[at], boundary[at]), meta))
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
    the detunings where it crosses the lower and upper edges of
    ``alpha_beta_range``, correctly rounded (from
    :func:`carl.spectrum.critical_delta21`), are added as vertices, so a
    piece narrower than one grid cell is still found. The curve is split
    into branches wherever it leaves the window. Every vertex lies on the
    boundary up to rounding.

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
        return dict(Counter(e.status for e in self.entries))

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"validate_sweep: {len(self.entries)} samples ({parts})"


def validate_sweep(spec: SweepSpec, n_samples: int, *, seed: int = 0) -> ValidationReport:
    """Cross-check spectrum growth rates against time-domain fits.

    Draws ``n_samples`` grid points (seeded, reproducible), integrates the
    coupled-mode equations from a probe seed ``A1 = 1e-6`` and compares the
    fitted late-time slope of ln|A1| with the spectral gamma. Above
    threshold the two must agree within a relative 0.01; below threshold
    the fit must report a non-exponential signal, or a rate it cannot tell
    from 0 (one that moves ln|A1| by at most its residual bound, 1e-2, over
    the window). Boundary-flagged points are excluded, as are unstable
    points with gamma below 0.05 (their fit window would be impractically
    long); both are listed as skipped.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    grid = spec.grid()
    regimes = [r for r in REGIMES if r in spec.regimes]

    draws = [(float(grid[int(rng.integers(0, len(grid)))]), regimes[int(rng.integers(0, len(regimes)))]) for _ in range(n_samples)]
    # the spectra of all samples in one call
    spectra = spectrum_arrays(*spec.controls(np.array([a for a, _ in draws])), [_REGIME_ETA[r] for _, r in draws])

    entries: List[ValidationEntry] = []
    for (axis_value, regime), lambdas, gamma, _, boundary in zip(draws, *(v.tolist() for v in spectra)):
        if boundary or 0.0 < gamma < 0.05:
            status = "skipped_boundary" if boundary else "skipped_slow"
            entries.append(ValidationEntry(axis_value, regime, gamma, None, status, None))
            continue

        params = ScaledParams.from_product(*spec.controls(axis_value), _REGIME_ETA[regime])
        init = TrajectoryState(tau=0.0, A1=1e-6 + 0j, B=0.0, Bdot=0.0)
        if gamma > 0.0:
            window, dt = (30.0 / gamma, 60.0 / gamma), min(5e-3, 0.02 / max(abs(lam) for lam in lambdas))
        else:
            window, dt = (20.0, 60.0), 5e-3
        traj = evolve(params, init, tau_end=window[1], dt=dt, output_stride=50)
        try:
            fitted = fit_growth_rate(traj, window)
        except NonExponentialFitError:
            fitted = None
        # above threshold the fit must find gamma, below it no exponential at all
        rel = abs(fitted - gamma) / gamma if gamma > 0.0 and fitted is not None else None
        if gamma > 0.0:
            status = "inconsistent" if fitted is None else "ok" if rel <= 0.01 else "mismatch"
        else:
            # a rate the fit cannot tell from 0: over the window it moves ln|A1| by no more than the fit's residual bound
            stable = fitted is None or abs(fitted) * (window[1] - window[0]) <= 1e-2
            status = "consistent_stable" if stable else "inconsistent"
        entries.append(ValidationEntry(axis_value, regime, gamma, fitted, status, rel))
    return ValidationReport(entries=tuple(entries), seed=seed)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_CSV_COLUMNS = "axis_name,axis_value,regime,gamma,case,re_l1,im_l1,re_l2,im_l2,re_l3,im_l3"
_TEXT_COLUMNS = ("axis_name", "regime", "case")
# one JSON record as json.dumps(indent=2, sort_keys=True) lays it out inside "records",
# cut at its values, and the text after each value, a comma after the record
_JSON_KEYS = sorted(_CSV_COLUMNS.split(","))
_JSON_PIECES = ("    {\n" + ",\n".join(f'      "{key}": %s' for key in _JSON_KEYS) + "\n    }").split("%s")
_JSON_AFTER = _JSON_PIECES[1:-1] + [_JSON_PIECES[-1] + ",\n"]


def _fields(result: SweepResult, keys: Sequence[str], spell) -> List:
    """The fields of a sweep writer's rows in the order of ``keys``, the axis name spelled by ``spell``."""
    lam = result.lambdas
    columns = {"axis_name": spell(result.meta.get("spec", {}).get("axis", "axis")), "axis_value": result.axis}
    columns.update(regime=result.regime, gamma=result.gamma, case=result.case)
    for j in range(3):
        columns[f"re_l{j + 1}"], columns[f"im_l{j + 1}"] = lam[:, j].real, lam[:, j].imag
    return [columns[key] if key in _TEXT_COLUMNS else np.asarray(columns[key], dtype=float) for key in keys]


def _meta_lines(meta: Dict) -> List[str]:
    """The ``# key: json`` lines that open a CSV file, in key order."""
    return [f"# {key}: {json.dumps(meta[key], sort_keys=True)}\n" for key in sorted(meta)]


def write_sweep_csv(result: SweepResult, path_or_file: PathOrFile) -> None:
    """Tabulate a sweep as CSV with ``#`` metadata lines and a header row."""
    with text_sink(path_or_file) as f:
        f.writelines(_meta_lines(result.meta))
        f.write(_CSV_COLUMNS + "\n")
        f.writelines(csv_rows(_fields(result, _CSV_COLUMNS.split(","), str), len(result.axis)))


def write_sweep_json(result: SweepResult, path_or_file: PathOrFile) -> None:
    """Same records as the CSV writer, as one JSON document.

    The document is byte for byte ``json.dumps({"meta": ..., "records": [...]},
    indent=2, sort_keys=True)`` plus a newline, each record an object keyed by
    the CSV header. Only ``meta`` goes through ``json.dumps`` whole. The
    records are rows of :func:`carl._io.csv_rows` with its json spelling, the
    fixed text of a record after each value, so they are written in blocks as
    the CSV rows are.
    """
    n = len(result.axis)
    # the meta object with its closing "\n}" cut off; "records" sorts after "meta"
    head = json.dumps({"meta": result.meta}, indent=2, sort_keys=True)[:-2]
    # each row opens its record, which the axis name's text leads
    fields = _fields(result, _JSON_KEYS, lambda name: _JSON_PIECES[0] + json.dumps(name))
    with text_sink(path_or_file) as f:
        f.write(f'{head},\n  "records": [' + ("\n" if n else ""))
        text = ""
        for block in csv_rows(fields, n, _JSON_AFTER, as_json=True):
            f.write(text)
            text = block
        f.write(text[:-2] + ("\n  ]" if n else "]") + "\n}\n")  # the last record is followed by no comma


def write_polylines_csv(
    polylines: Sequence[np.ndarray],
    path_or_file: PathOrFile,
    *,
    meta: Optional[Dict] = None,
) -> None:
    """Write threshold-boundary polylines as CSV (branch_id, delta21, alpha_beta)."""
    with text_sink(path_or_file) as f:
        f.writelines(_meta_lines(meta or {}))
        f.write("branch_id,delta21,alpha_beta\n")
        lines = [np.asarray(line, dtype=float).reshape(len(line), 2) for line in polylines]
        points = np.concatenate(lines) if lines else np.zeros((0, 2))
        branch = np.repeat(np.arange(len(lines)), [len(line) for line in lines])
        f.writelines(csv_rows([branch, points[:, 0], points[:, 1]], len(points)))


# ---------------------------------------------------------------------------
# reading a sweep CSV back
# ---------------------------------------------------------------------------

_READ = 1 << 16  # bytes read at a time by the result-file scan


def _line_blocks(f, path: str) -> Iterator[bytes]:
    """The bytes of ``f`` in blocks of whole lines, each ending in LF; CRLF and CR line ends read as LF.

    Each block must be UTF-8, else a ``ValueError`` names ``path`` and the
    bad bytes by their offset in the file. No UTF-8 sequence holds an LF or
    CR byte, so a block decodes as it does within the whole file. A CRLF
    pair that a read cuts reads as one more empty line. A line longer than a
    read grows in place, in time linear in its length.
    """
    rest, offset, data = bytearray(), 0, None
    while data != b"":
        data = f.read(_READ)
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
        # the read's whole lines, or at the end of the file the unfinished last line
        rest += data[:cut] if cut else data
        block, rest = (bytes(rest), bytearray(data[cut:])) if cut or not data else (b"", rest)
        if not block:
            continue
        try:
            block.decode()
        except UnicodeDecodeError as exc:
            start, bad = offset + exc.start, exc.object[exc.start:exc.end]
            where = f"byte 0x{bad[0]:02x} in position {start}" if len(bad) == 1 else f"bytes in position {start}-{start + len(bad) - 1}"
            raise ValueError(f"cannot read result file {path!r}: 'utf-8' codec can't decode {where}: {exc.reason}") from exc
        offset += len(block)
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield block if data else block + b"\n"


def _inspect_result_csv(path: str) -> Dict:
    """Schema check a sweep CSV; returns its meta, its plotted regimes and its row count.

    The file is read once, as bytes, in blocks of whole lines of about
    :data:`_READ` bytes (:func:`_line_blocks`: CRLF and CR line ends read as
    LF, and every byte must be UTF-8). Each block is scanned as a byte array:
    a line is empty, a ``#`` comment (parsed into meta) or, after the
    header, a row. Only the comment lines, the header and the first row of
    each regime are handled one at a time, and a row's regime is found by
    its commas, not by splitting the row, so memory holds one block, its
    arrays and at most the longest line, however many lines the file has.
    ``regimes`` holds RAO and WAO only, the regimes a plot script draws, in
    the order of their first rows. A file that cannot be read, or is not a
    sweep CSV with rows, is a ``ValueError``.
    """
    meta: Dict = {}
    header, n_rows = None, 0
    firsts: Dict[str, Tuple[int, int]] = {}  # regime -> (block, offset) of its first row
    try:
        with open(path, "rb") as f:
            for number, data in enumerate(_line_blocks(f, path)):
                view = np.frombuffer(data, np.uint8)
                starts = np.concatenate(([0], np.flatnonzero(view[:-1] == 10) + 1))  # where each line starts
                heads = view[starts]  # the first byte of each line
                comments = np.flatnonzero(heads == 35)
                skipped = int(np.count_nonzero(heads == 10)) + comments.size
                begin = 0
                if header is None:
                    others = np.flatnonzero((heads != 10) & (heads != 35))
                    if others.size:
                        at = int(starts[others[0]])
                        begin = data.index(b"\n", at)
                        header = data[at:begin].decode()
                        got, columns = [c.strip() for c in header.split(",")], _CSV_COLUMNS.split(",")
                        if got != columns:  # a plot script reads the columns by position
                            missing = [c for c in columns if c not in got]
                            raise ValueError(f"{path}: result file is missing column(s): {', '.join(missing)}" if missing
                                             else f"{path}: result file columns must be {_CSV_COLUMNS}, got {','.join(got)}")
                        skipped += 1
                for at in starts[comments] if comments.size else ():  # one int at a time, not a list of them
                    body = data[at + 1:data.index(b"\n", at)].decode().strip()
                    if ":" in body:
                        key, _, raw = body.partition(":")
                        try:
                            meta[key.strip()] = json.loads(raw.strip())
                        except json.JSONDecodeError:
                            meta[key.strip()] = raw.strip()
                if header is None:
                    continue
                n_rows += heads.size - skipped
                for regime in REGIMES:
                    # by its first letter: a one-byte find runs as a memchr, and no other cell of a sweep file holds R or W
                    name = regime.encode()
                    hit = data.find(name[:1], begin) if regime not in firsts else -1
                    while hit >= 0:  # the first row whose third cell is the regime; a hit elsewhere goes on after its line
                        line_start, line_end = data.rfind(b"\n", 0, hit) + 1, data.index(b"\n", hit)
                        comma = data.find(b",", line_start, line_end)
                        comma = data.find(b",", comma + 1, line_end) if comma >= 0 else -1  # the one before the third cell
                        if data[line_start] != 35 and comma >= 0 and data.startswith(name, comma + 1, line_end) and data[comma + 1 + len(name)] in b",\n":
                            firsts[regime] = (number, hit)
                            break
                        hit = data.find(name[:1], line_end)
    except OSError as exc:
        raise ValueError(f"cannot read result file {path!r}: {exc}") from exc
    if n_rows == 0:
        raise ValueError(f"{path}: result file contains no data rows; nothing to plot")
    return {"meta": meta, "regimes": sorted(firsts, key=firsts.get), "rows": n_rows}
