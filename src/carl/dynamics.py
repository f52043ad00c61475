"""Time-domain integration of the linearized coupled-mode equations.

The state is the complex triple y = (A1, B, dB/dtau) obeying

    dA1/dtau   = i*(delta21*A1 + beta*B)
    dB/dtau    = Bdot
    dBdot/dtau = alpha*A1 - eta*B

i.e. ``dy/dtau = M y`` with the constant matrix :func:`system_matrix`.
:func:`evolve` integrates with classic fixed-step RK4. For a linear
autonomous system the four stages collapse exactly to one matrix ``F``, the
degree-4 Taylor polynomial of ``exp(dt*M)``, so every step is the same
product. The stepper therefore works a block of steps at a time: with the
powers ``F^k`` precomputed, one matrix-vector product gives all states of a
block, and one more gives the step-doubling error estimate of each of its
steps, which is the same per-step estimate a step-by-step loop would check
(see Moler and Van Loan, "Nineteen dubious ways to compute the exponential
of a matrix", SIAM Review, 2003). :func:`propagator` provides the exact
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
    "NonExponentialFitError",
    "system_matrix",
    "evolve",
    "propagator",
    "fit_growth_rate",
    "write_trajectory_csv",
]


class StepSizeRejection(RuntimeError):
    """Raised when the step-doubling error estimate exceeds the tolerance."""


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


# Steps taken per block of whole-array work in evolve: the powers F^k are
# precomputed for k <= _BLOCK, a few tens of kilobytes.
_BLOCK = 256


def _step_powers(m: np.ndarray, h: float, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``F^j`` and ``(F - H^2) F^(j-1)`` for ``j = 1..k``, stacked row-wise.

    ``F`` is the RK4 step matrix for a step ``h`` and ``H`` the one for
    ``h/2``. Rows ``3(j-1)`` to ``3j - 1`` of the two ``(3k, 3)`` arrays,
    applied to a state ``y``, give the state after ``j`` steps and the
    step-doubling difference of the ``j``-th step, each in one matrix-vector
    product for the whole block. The powers are built one factor at a time,
    as the steps would apply them (built by repeated squaring they drift up
    to 2e-12 from a step-by-step loop on an oscillating trajectory, one
    factor at a time about 2e-13).
    """
    full = _rk4_step_matrix(m, h)
    half = _rk4_step_matrix(m, h / 2.0)
    p = np.empty((k + 1, 3, 3), dtype=complex)
    p[0] = np.eye(3)
    for j in range(k):
        np.matmul(full, p[j], out=p[j + 1])
    return p[1:].reshape(-1, 3), ((full - half @ half) @ p[:-1]).reshape(-1, 3)


def _block(powers, errors, y, taus, h, error_tol):
    """States after each of ``len(taus)`` steps of size ``h`` from ``y``.

    Also returns the largest step-doubling estimate of the block and the tau
    of its first step after which |B| > 1, or None. Raises
    :class:`StepSizeRejection` at the first step whose estimate exceeds
    ``error_tol``.
    """
    n = len(taus)
    ys = (powers[: 3 * n] @ y).reshape(n, 3)
    diff = (errors[: 3 * n] @ y).reshape(n, 3)
    err = np.linalg.norm(diff, axis=1) / np.maximum(np.linalg.norm(ys, axis=1), 1e-300)
    rejected = np.flatnonzero(err > error_tol)
    if rejected.size:
        k = rejected[0]
        raise StepSizeRejection(
            f"local error estimate {err[k]:.3g} exceeds {error_tol:.3g} at tau = {taus[k]:.6g} "
            f"for dt = {h:.3g}; reduce dt"
        )
    over = np.flatnonzero(np.abs(ys[:, 1]) > 1.0)
    return ys, float(err.max()), float(taus[over[0]]) if over.size else None


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
    the steps are taken a block of up to 256 at a time: the states of a
    block are ``F^k y`` for the block's starting state ``y``, formed in one
    batched product with the precomputed powers ``F^k``. Each step's error
    estimate is unchanged, ``|F y_k - H^2 y_k| / |F y_k|`` with ``H`` the
    half step, and is checked for every step, as are the linearity flag and
    the output samples.

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
        to reduce ``dt``.

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
    y = init.as_vector()
    samples: List[TrajectoryState] = [init]
    linearity_flag = None if abs(init.B) <= 1.0 else init.tau
    max_err = 0.0

    powers, errors = _step_powers(m, dt, min(_BLOCK, n_full))
    for start in range(0, n_full, _BLOCK):
        stop = min(start + _BLOCK, n_full)
        taus = init.tau + np.arange(start + 1, stop + 1) * dt
        ys, err, crossed = _block(powers, errors, y, taus, dt, error_tol)
        max_err = max(max_err, err)
        if linearity_flag is None:
            linearity_flag = crossed
        last = stop - 1 if stop == n_full and remainder == 0.0 else stop
        for i in range((start // output_stride + 1) * output_stride, last + 1, output_stride):
            yi = ys[i - start - 1]
            samples.append(TrajectoryState(init.tau + i * dt, complex(yi[0]), complex(yi[1]), complex(yi[2])))
        y = ys[-1]

    if remainder > 0.0:
        powers, errors = _step_powers(m, remainder, 1)
        ys, err, crossed = _block(powers, errors, y, np.array([tau_end]), remainder, error_tol)
        max_err = max(max_err, err)
        if linearity_flag is None:
            linearity_flag = crossed
        y = ys[0]

    final_tau = init.tau + n_full * dt if remainder == 0.0 else tau_end
    samples.append(TrajectoryState(final_tau, complex(y[0]), complex(y[1]), complex(y[2])))
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
        for s in traj.samples:
            row = (
                s.tau,
                s.A1.real,
                s.A1.imag,
                abs(s.A1),
                s.B.real,
                s.B.imag,
                abs(s.B),
                s.Bdot.real,
                s.Bdot.imag,
            )
            f.write(",".join(format(x, ".17g") for x in row) + "\n")
