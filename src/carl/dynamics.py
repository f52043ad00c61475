"""Time-domain integration of the linearized coupled-mode equations.

The state is the complex triple y = (A1, B, dB/dtau) obeying

    dA1/dtau   = i*(delta21*A1 + beta*B)
    dB/dtau    = Bdot
    dBdot/dtau = alpha*A1 - eta*B

i.e. ``dy/dtau = M y`` with the constant matrix :func:`system_matrix`.
:func:`evolve` integrates with classic fixed-step RK4. For a linear
autonomous system the four stages collapse exactly to one matrix ``F``, the
degree-4 Taylor polynomial of ``exp(dt*M)``, so every step is the same
product and a trajectory is ``F^n y0`` (see Moler and Van Loan, "Nineteen
dubious ways to compute the exponential of a matrix", SIAM Review, 2003).
The stepper takes a chunk of 2048 steps per Python iteration: one product
of a table of powers ``F^j`` with the chunk's block-start states gives every
state, a second every step's step-doubling error estimate, and each step's
checks run over those arrays. :func:`propagator` provides the exact
``exp(tau*M)`` through the eigenvalues of the spectrum module, serving as an
independent oracle. Exponential growth rates are extracted from
trajectories by :func:`fit_growth_rate` and compared against the spectrum's
gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from carl._io import PathOrFile, text_sink
from carl.params import ScaledParams
from carl.spectrum import eigen_spectrum

__all__ = [
    "TrajectoryState",
    "Trajectory",
    "StepSizeRejection",
    "NonFiniteStateError",
    "NonExponentialFitError",
    "system_matrix",
    "evolve",
    "propagator",
    "fit_growth_rate",
    "write_trajectory_csv",
]


class StepSizeRejection(RuntimeError):
    """Raised when the step-doubling error estimate exceeds the tolerance."""


class NonFiniteStateError(ArithmeticError):
    """Raised at the first step whose state leaves the float range; its tau is ``tau``."""

    def __init__(self, tau: float):
        super().__init__(f"the state overflows the float range at tau = {tau:.6g}; shorten tau_end or scale the initial state down")
        self.tau = tau


class NonExponentialFitError(RuntimeError):
    """Raised when ln|A1| is not well described by a straight line.

    This is the expected outcome below threshold, where the probe amplitude
    oscillates instead of growing. The achieved fit residual is available
    as ``residual``.
    """

    def __init__(self, residual: float, bound: float):
        super().__init__(
            f"ln|A1| is not linear on the window: rms residual {residual:.3g} "
            f"exceeds the bound {bound:.3g} (oscillatory / below-threshold signal)"
        )
        self.residual = residual
        self.bound = bound


@dataclass(frozen=True)
class TrajectoryState:
    """State of the linear system at one scaled time."""

    tau: float
    A1: complex
    B: complex
    Bdot: complex

    def as_vector(self) -> np.ndarray:
        return np.array([self.A1, self.B, self.Bdot], dtype=complex)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution plus the parameters and step that produced it.

    ``linearity_flag`` is the tau of the first step after which |B| exceeded
    1; beyond that point the linearized model no longer represents the
    physical bunching (|B| <= 1 for any real density grating), although the
    linear system itself remains well defined. ``steps`` counts the RK4
    steps taken (a shortened final step included) and ``max_step_error`` is
    the largest step-doubling error estimate among them.
    """

    samples: Tuple[TrajectoryState, ...]
    params: ScaledParams
    dt: float
    linearity_flag: Optional[float] = None
    steps: int = 0
    max_step_error: float = 0.0

    def taus(self) -> np.ndarray:
        return np.array([s.tau for s in self.samples])

    def probe_magnitudes(self) -> np.ndarray:
        return np.array([abs(s.A1) for s in self.samples])


def system_matrix(s: ScaledParams) -> np.ndarray:
    """Generator M of the linearized system, dy/dtau = M y."""
    return np.array(
        [
            [1j * s.delta21, 1j * s.beta, 0.0],
            [0.0, 0.0, 1.0],
            [s.alpha, -float(s.eta), 0.0],
        ],
        dtype=complex,
    )


def _rk4_step_matrix(m: np.ndarray, dt: float) -> np.ndarray:
    # classic RK4 on a linear autonomous system == exp(dt*M) through order 4
    eye = np.eye(3, dtype=complex)
    a = dt * m
    a2 = a @ a
    return eye + a + a2 / 2.0 + (a2 @ a) / 6.0 + (a2 @ a2) / 24.0


# Steps per block: the powers F^k are precomputed for k <= _BLOCK, a few
# tens of kilobytes. A chunk of _CHUNK steps (whole blocks) is one Python
# iteration of evolve; its temporaries are a few hundred kilobytes, and
# larger chunks cost memory without saving time.
_BLOCK = 256
_CHUNK = 8 * _BLOCK
_LOW = 16  # the table is F^(_LOW a) F^j with j < _LOW


def _step_powers(m: np.ndarray, h: float, k: int) -> Tuple[np.ndarray, np.ndarray, List[List[complex]]]:
    """Transposed ``F^j`` and ``(F - H^2) F^(j-1)`` for ``j = 1..k``, and ``F^k``.

    ``F`` is the RK4 step matrix for a step ``h`` and ``H`` the one for
    ``h/2``. Columns ``3(j-1)`` to ``3j - 1`` of the two ``(3, 3k)`` arrays,
    applied to a row of states, give the state after ``j`` steps and the
    step-doubling difference of the ``j``-th step. ``F^k``, the step of the
    block chain, comes back as nested lists of Python complex numbers.
    ``F^j`` for ``j <= 16`` and ``F^(16a)`` are built one factor at a time
    in extended precision, then every ``F^(16a + j)`` in one product. In
    double, the rounding of ``F^16`` compounds over the chain: a stable WAO
    trajectory of 15 403 steps drifted 4.9e-12 from a step-by-step loop,
    against 6.4e-13 for a one-factor table and 2.1e-13 for this one.
    """
    full = _rk4_step_matrix(m, h)
    half = _rk4_step_matrix(m, h / 2.0)
    low = np.empty((_LOW + 1, 3, 3), dtype=np.clongdouble)
    high = np.empty((k // _LOW + 1, 3, 3), dtype=np.clongdouble)
    low[0] = high[0] = np.eye(3)
    for j in range(_LOW):
        np.matmul(full, low[j], out=low[j + 1])
    for a in range(1, len(high)):
        np.matmul(low[_LOW], high[a - 1], out=high[a])
    low, high = low.astype(complex), high.astype(complex)
    # t[d, n, c] = (F^n)[c, d] for n = 16a + j, all from one product
    t = (high.reshape(-1, 3) @ low[:_LOW].transpose(1, 0, 2).reshape(3, -1)).reshape(len(high), 3, _LOW, 3)
    t = t.transpose(3, 0, 2, 1).reshape(3, -1, 3)[:, : k + 1]
    errors = (t[:, :k].reshape(-1, 3) @ (full - half @ half).T).reshape(3, -1)
    return np.ascontiguousarray(t[:, 1:]).reshape(3, -1), errors, t[:, k].T.tolist()


def _chunk(table, y, taus, h, error_tol, flag):
    """States after each of ``len(taus)`` steps of size ``h`` from ``y``.

    Block-start states follow from ``y_{b+1} = F^k y_b`` in Python complex
    arithmetic. Also returns the largest error estimate and, if ``flag``, the
    tau of the first step after which |B| > 1, or None. The first step whose
    estimate exceeds ``error_tol`` or whose state overflows raises.
    """
    powers, errors, ((f00, f01, f02), (f10, f11, f12), (f20, f21, f22)) = table
    n = len(taus)
    starts = [y]
    for _ in range((n - 1) // (powers.shape[1] // 3)):
        a, b, c = starts[-1]
        starts.append((f00 * a + f01 * b + f02 * c, f10 * a + f11 * b + f12 * c, f20 * a + f21 * b + f22 * c))
    starts = np.array(starts)
    ys = (starts @ powers).reshape(-1, 3)[:n]
    diff = (starts @ errors).reshape(-1, 3)[:n]
    yv, dv = ys.view(float), diff.view(float)
    den = np.einsum("ij,ij->i", yv, yv)
    if not (den.min() > 1e-290 and den.max() < 1e290):
        # a sum of squares left the float range: scale each row by a power of
        # two, which leaves |diff| / |y| exact; a non-finite state gets nan
        top = np.abs(yv).max(axis=1)
        yv, dv = (np.ldexp(v, -np.frexp(top)[1][:, None]) for v in (yv, dv))
        den = np.where(top < math.inf, np.einsum("ij,ij->i", yv, yv), math.nan)
    err = np.sqrt(np.einsum("ij,ij->i", dv, dv) / np.maximum(den, 1e-300))
    bad = np.flatnonzero(~(err <= error_tol))
    if bad.size:
        k = bad[0]
        if not np.isfinite(ys[k]).all():
            raise NonFiniteStateError(float(taus[k]))
        raise StepSizeRejection(
            f"local error estimate {err[k]:.3g} exceeds {error_tol:.3g} at tau = {taus[k]:.6g} "
            f"for dt = {h:.3g}; reduce dt"
        )
    crossed = None
    if flag:
        over = np.flatnonzero(np.abs(ys[:, 1]) > 1.0)
        crossed = float(taus[over[0]]) if over.size else None
    return ys, float(err.max()), crossed


def evolve(
    s: ScaledParams,
    init: TrajectoryState,
    tau_end: float,
    dt: float = 1e-3,
    *,
    output_stride: int = 100,
    error_tol: float = 1e-6,
) -> Trajectory:
    """Integrate from ``init`` to ``tau_end`` with fixed-step RK4.

    Every step applies the same matrix ``F`` (the RK4 step for ``dt``), so
    the steps are taken a chunk of up to 2048 at a time. The chunk is cut
    into blocks of 256 steps; the state of step ``j`` of a block is
    ``F^j y_b`` for the block's starting state ``y_b``, and all of them come
    from one product with the precomputed powers (see :func:`_step_powers`).
    Each step's error estimate is unchanged, ``|F y_k - H^2 y_k| / |F y_k|``
    with ``H`` the half step, formed so that it holds at any magnitude of
    the state, and it is checked for every step, as are the linearity flag
    and the output samples. A shortened final step is a chunk of one step.

    Parameters
    ----------
    s : ScaledParams
        Control parameters (alpha and beta enter separately here).
    init : TrajectoryState
        Initial state; ``init.tau`` is the starting time.
    tau_end : float
        Final scaled time, must exceed ``init.tau``. If the span is not an
        integer number of steps, a single shortened final step is taken.
    dt : float
        Step size in scaled time.
    output_stride : int
        A sample is stored every this many steps (plus the initial and final
        states).
    error_tol : float
        Per-step relative error bound, estimated by step doubling (one full
        step against two half steps). Exceeding it raises
        :class:`StepSizeRejection` at the first step that does, with advice
        to reduce ``dt``. A state past the float range raises
        :class:`NonFiniteStateError` at the first step that reaches it.

    Returns
    -------
    Trajectory
        With ``steps`` taken and the largest error estimate of any step,
        ``max_step_error``.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not tau_end > init.tau:
        raise ValueError(f"tau_end ({tau_end}) must exceed the initial tau ({init.tau})")
    if output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, got {output_stride}")

    span = tau_end - init.tau
    n_full = int(math.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    if remainder < 1e-9 * dt:
        remainder = 0.0

    m = system_matrix(s)
    y = init.as_vector().tolist()
    samples: List[TrajectoryState] = [init]
    linearity_flag = None if abs(init.B) <= 1.0 else init.tau
    max_err = 0.0

    def chunks():  # (table, step, steps before the chunk, taus)
        if n_full:
            table = _step_powers(m, dt, min(_BLOCK, n_full))
            for start in range(0, n_full, _CHUNK):
                yield table, dt, start, init.tau + np.arange(start + 1, min(start + _CHUNK, n_full) + 1) * dt
        if remainder > 0.0:
            yield _step_powers(m, remainder, 1), remainder, n_full, np.array([tau_end])

    # past the float range a product overflows; _chunk names the step
    with np.errstate(over="ignore", invalid="ignore"):
        for table, h, start, taus in chunks():
            ys, err, crossed = _chunk(table, y, taus, h, error_tol, linearity_flag is None)
            max_err = max(max_err, err)
            if linearity_flag is None:
                linearity_flag = crossed
            # every output_stride-th step up to, not including, the final state
            first = (start // output_stride + 1) * output_stride
            last = min(start + len(taus), n_full - (remainder == 0.0))
            if first <= last:
                picked = ys[first - start - 1 : last - start : output_stride].T.tolist()
                taus = init.tau + np.arange(first, last + 1, output_stride) * dt
                samples.extend(map(TrajectoryState, taus.tolist(), *picked))
            y = ys[-1].tolist()

    final_tau = init.tau + n_full * dt if remainder == 0.0 else tau_end
    samples.append(TrajectoryState(final_tau, *y))
    return Trajectory(
        samples=tuple(samples),
        params=s,
        dt=dt,
        linearity_flag=linearity_flag,
        steps=n_full + int(remainder > 0.0),
        max_step_error=max_err,
    )


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    # scaled-squaring Taylor series; adequate for well-scaled 3x3 blocks
    norm = float(np.linalg.norm(a, ord=np.inf))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    b = a / (2.0**squarings)
    result = np.eye(3, dtype=complex)
    term = np.eye(3, dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if float(np.linalg.norm(term, ord=np.inf)) < 1e-18 * float(np.linalg.norm(result, ord=np.inf)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def propagator(s: ScaledParams, tau: float) -> np.ndarray:
    """Exact propagator exp(tau*M) of the linearized system.

    Built from the eigenvalues delivered by the spectrum module (each
    eigenvector obtained as the null direction of M - lambda*I), which makes
    trajectories an end-to-end test of the spectrum. Falls back to a
    scaled-squaring series when the eigenvalues are within 1e-6 of
    degenerate, where the eigenbasis is ill conditioned.
    """
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    m = system_matrix(s)
    lambdas = eigen_spectrum(s).lambdas

    gap = min(
        abs(lambdas[i] - lambdas[j]) for i in range(3) for j in range(i + 1, 3)
    )
    if gap < 1e-6:
        return _expm_taylor(tau * m)

    columns = []
    for lam in lambdas:
        _, _, vh = np.linalg.svd(m - lam * np.eye(3, dtype=complex))
        columns.append(vh[-1].conj())
    v = np.column_stack(columns)
    return (v * np.exp(np.array(lambdas) * tau)) @ np.linalg.inv(v)


def fit_growth_rate(
    traj: Trajectory,
    window: Tuple[float, float],
    *,
    residual_bound: float = 1e-2,
) -> float:
    """Least-squares slope of ln|A1| over a time window.

    Intended for late windows where the dominant eigenmode has taken over;
    there the slope equals the spectral growth rate gamma. If the rms
    residual of the straight-line fit exceeds ``residual_bound`` the signal
    is not exponential (oscillatory, below threshold) and
    :class:`NonExponentialFitError` is raised.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError(f"window must be increasing, got {window}")
    taus = traj.taus()
    if lo < taus[0] - 1e-12 or hi > taus[-1] + 1e-12:
        raise ValueError(
            f"window {window} not contained in trajectory span ({taus[0]:.6g}, {taus[-1]:.6g})"
        )
    mask = (taus >= lo) & (taus <= hi)
    if int(mask.sum()) < 5:
        raise ValueError(f"window {window} contains fewer than 5 samples; widen it or reduce the stride")
    mags = traj.probe_magnitudes()[mask]
    if np.any(mags == 0.0):
        raise ValueError("|A1| vanishes inside the window; growth rate undefined")
    t = taus[mask]
    logmag = np.log(mags)
    slope, intercept = np.polyfit(t, logmag, 1)
    residual = float(np.sqrt(np.mean((logmag - (slope * t + intercept)) ** 2)))
    if residual > residual_bound:
        raise NonExponentialFitError(residual=residual, bound=residual_bound)
    return float(slope)


_TRAJECTORY_ROW = ",".join(["%.17g"] * 9) + "\n"


def write_trajectory_csv(traj: Trajectory, path_or_file: PathOrFile) -> None:
    """Write a trajectory as CSV.

    Columns: tau, re_A1, im_A1, abs_A1, re_B, im_B, abs_B, re_Bdot, im_Bdot.
    Parameters, step size and seed amplitude go into ``#`` comment lines
    ahead of the mandatory header row.
    """
    with text_sink(path_or_file) as f:
        p = traj.params
        seed = traj.samples[0]
        f.write(
            f"# params: delta21={p.delta21!r} alpha={p.alpha!r} beta={p.beta!r} eta={p.eta}\n"
        )
        f.write(f"# dt: {traj.dt!r}\n")
        f.write(f"# seed: abs_A1={abs(seed.A1)!r} abs_B={abs(seed.B)!r} abs_Bdot={abs(seed.Bdot)!r}\n")
        flag = "none" if traj.linearity_flag is None else repr(traj.linearity_flag)
        f.write(f"# linearity_flag_tau: {flag}\n")
        f.write("tau,re_A1,im_A1,abs_A1,re_B,im_B,abs_B,re_Bdot,im_Bdot\n")
        # Python's abs, not numpy's: they differ by an ulp on some values
        f.write("".join(
            _TRAJECTORY_ROW % (s.tau, s.A1.real, s.A1.imag, abs(s.A1), s.B.real, s.B.imag, abs(s.B), s.Bdot.real, s.Bdot.imag)
            for s in traj.samples
        ))
