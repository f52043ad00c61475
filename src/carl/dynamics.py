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
state, a second every step's step-doubling error estimate. Every step is
checked in a few whole-array passes per chunk: the largest estimate is
compared with the tolerance, and the steps are searched only when it fails;
the search for |B| > 1 runs only in a chunk whose states come near that
size. :func:`propagator` gives the exact ``exp(tau*M)`` by scaling and
squaring its Taylor series, an oracle independent of the stepper.
Exponential growth rates are extracted from trajectories by
:func:`fit_growth_rate` and compared against the spectrum's gamma: the
least-squares line through ``math.log`` of |A1| in closed form from centred
sums, each taken with ``math.fsum``, so the fit calls no LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from carl._io import PathOrFile, csv_rows, text_sink
from carl.params import ScaledParams

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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution plus the parameters and step that produced it.

    The samples are the read-only columns ``tau`` ``(n,)`` and ``y``
    ``(n, 3)`` complex (A1, B, Bdot); :attr:`samples` reads them as
    :class:`TrajectoryState` values. ``linearity_flag`` is the tau of the
    first step after which |B| exceeded 1; beyond that point the linearized
    model no longer represents the physical bunching (|B| <= 1 for any real
    density grating), although the linear system itself remains well
    defined. ``steps`` counts the RK4 steps taken (a shortened final step
    included) and ``max_step_error`` is the largest step-doubling error
    estimate among them.
    """

    tau: np.ndarray
    y: np.ndarray
    params: ScaledParams
    dt: float
    linearity_flag: Optional[float] = None
    steps: int = 0
    max_step_error: float = 0.0

    def __post_init__(self):
        self.tau.flags.writeable = self.y.flags.writeable = False

    @property
    def samples(self) -> Tuple[TrajectoryState, ...]:
        return tuple(map(TrajectoryState, self.tau.tolist(), *self.y.T.tolist()))

    def probe_magnitudes(self) -> np.ndarray:
        """|A1| of every sample, bit for bit Python's ``abs`` (hypot; numpy's complex abs is off by an ulp at times)."""
        return np.abs(np.hypot(self.y[:, 0].real, self.y[:, 0].imag))


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
# iteration of evolve and one round of whole-array checks; its temporaries
# are a few hundred kilobytes, and larger chunks cost memory without saving
# time.
_BLOCK = 256
_CHUNK = 8 * _BLOCK
_LOW = 16  # the table is F^(_LOW a) F^j with j < _LOW


def _step_powers(m: np.ndarray, h: float, k: int, step: str) -> Tuple[np.ndarray, np.ndarray, List[List[complex]]]:
    """Transposed ``F^j`` and ``(F - H^2) F^(j-1)`` for ``j = 1..k``, and ``F^k``.

    ``F`` is the RK4 step matrix for a step ``h`` and ``H`` the one for
    ``h/2``. Columns ``3(j-1)`` to ``3j - 1`` of the two ``(3, 3k)`` arrays,
    applied to a row of states, give the state after ``j`` steps and the
    step-doubling difference of the ``j``-th step. ``F^k``, the step of the
    block chain, comes back as nested lists of Python complex numbers.
    ``F^j`` for ``j <= min(k, 16)`` and ``F^(16a)`` are built one factor at
    a time in extended precision, so that rounding does not compound along
    the chain, then every ``F^(16a + j)`` in one product; a shortened final
    step (``k = 1``) forms ``F`` alone. If ``F`` or ``F - H^2`` leaves the
    float range, no step can be taken: that raises, naming ``step``.
    """
    full = _rk4_step_matrix(m, h)
    half = _rk4_step_matrix(m, h / 2.0)
    diff = full - half @ half
    if not np.isfinite((full, diff)).all():
        size = h * float(np.abs(m).max())
        raise StepSizeRejection(f"the RK4 step matrix overflows the float range for {step}, where the step times M has entries up to {size:.3g}; reduce dt")
    low = np.empty((min(k, _LOW) + 1, 3, 3), dtype=np.clongdouble)
    high = np.empty((k // _LOW + 1, 3, 3), dtype=np.clongdouble)
    low[0] = high[0] = np.eye(3)
    for j in range(len(low) - 1):
        np.matmul(full, low[j], out=low[j + 1])
    for a in range(1, len(high)):
        np.matmul(low[_LOW], high[a - 1], out=high[a])
    low, high = low[:_LOW].astype(complex), high.astype(complex)
    # t[d, n, c] = (F^n)[c, d] for n = 16a + j, all from one product
    t = (high.reshape(-1, 3) @ low.transpose(1, 0, 2).reshape(3, -1)).reshape(len(high), 3, len(low), 3)
    t = t.transpose(3, 0, 2, 1).reshape(3, -1, 3)[:, : k + 1]
    errors = (t[:, :k].reshape(-1, 3) @ diff.T).reshape(3, -1)
    return np.ascontiguousarray(t[:, 1:]).reshape(3, -1), errors, t[:, k].T.tolist()


def _chunk(table, y, n, tau, step, error_tol, flag):
    """States after each of ``n`` steps from ``y``; row ``i`` is at ``tau(i)``.

    Block-start states follow from ``y_{b+1} = F^k y_b`` in Python complex
    arithmetic. Also returns the largest error estimate and, if ``flag``, the
    tau of the first step after which |B| > 1, or None. The first step whose
    estimate exceeds ``error_tol`` or whose state overflows raises, naming
    ``step``. The checks take one maximum per chunk: ``sqrt`` is correctly
    rounded and monotone, so the square root of the largest squared estimate
    is the largest estimate, and the steps are searched only when it fails.
    |B|^2 <= |y|^2, so the |B| > 1 search runs only in a chunk whose largest
    |y|^2 reaches 0.99, a bound far from any rounding.
    """
    powers, errors, ((f00, f01, f02), (f10, f11, f12), (f20, f21, f22)) = table
    starts = [y]
    for _ in range((n - 1) // (powers.shape[1] // 3)):
        a, b, c = starts[-1]
        starts.append((f00 * a + f01 * b + f02 * c, f10 * a + f11 * b + f12 * c, f20 * a + f21 * b + f22 * c))
    starts = np.array(starts)
    ys = (starts @ powers).reshape(-1, 3)[:n]
    diff = (starts @ errors).reshape(-1, 3)[:n]
    # row sums of squares as products with ones: a reduction over 6 columns is several times slower
    yv, dv, ones = ys.view(float), diff.view(float), np.ones(6)
    den = np.square(yv) @ ones
    top = den.max()
    if not (den.min() > 1e-290 and top < 1e290):
        # a sum of squares left the float range: scale each row by a power of
        # two, which leaves |diff| / |y| exact; a non-finite state gets nan,
        # a zero state the estimate 0
        big = np.abs(yv).max(axis=1)
        yv, dv = (np.ldexp(v, -np.frexp(big)[1][:, None]) for v in (yv, dv))
        den = np.maximum(np.where(big < math.inf, np.square(yv) @ ones, math.nan), 1e-300)
    ratio = (np.square(dv) @ ones) / den
    err = math.sqrt(ratio.max())
    if not err <= error_tol:
        errs = np.sqrt(ratio)
        k = int(np.argmax(~(errs <= error_tol)))
        if not np.isfinite(ys[k]).all():
            raise NonFiniteStateError(tau(k))
        raise StepSizeRejection(f"local error estimate {errs[k]:.3g} exceeds {error_tol:.3g} at tau = {tau(k):.6g} for {step}; reduce dt")
    crossed = None
    if flag and top >= 0.99:
        over = np.flatnonzero(np.abs(ys[:, 1]) > 1.0)
        crossed = tau(int(over[0])) if over.size else None
    return ys, err, crossed


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
        Initial state, every component finite; ``init.tau`` is the starting time.
    tau_end : float
        Final scaled time, finite, past ``init.tau`` and fewer than 2**53
        steps from it. If the span is not an integer number of steps, a
        single shortened final step is taken.
    dt : float
        Step size in scaled time, positive and finite.
    output_stride : int
        A sample is stored every this many steps (plus the initial and final
        states).
    error_tol : float
        Per-step relative error bound, estimated by step doubling (one full
        step against two half steps). Exceeding it raises
        :class:`StepSizeRejection` at the first step that does, with advice
        to reduce ``dt``, and so does a step matrix past the float range,
        before any step. A state past the float range raises
        :class:`NonFiniteStateError` at the first step that reaches it.

    Returns
    -------
    Trajectory
        Its ``tau`` and ``y`` columns allocated once and filled chunk by chunk,
        ``steps`` taken and the largest error estimate of any step, ``max_step_error``.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(tau_end):
        raise ValueError(f"tau_end must be finite, got {tau_end}")
    if not math.isfinite(init.tau):
        raise ValueError(f"the initial tau must be finite, got {init.tau}")
    for name in ("A1", "B", "Bdot"):
        if not np.isfinite(value := getattr(init, name)):
            raise ValueError(f"the initial {name} must be finite, got {value}")
    if not tau_end > init.tau:
        raise ValueError(f"tau_end ({tau_end}) must exceed the initial tau ({init.tau})")
    if output_stride < 1:
        raise ValueError(f"output_stride must be >= 1, got {output_stride}")

    span = tau_end - init.tau
    if not span / dt < 2.0**53:  # past it a float does not count the steps exactly
        raise ValueError(f"tau_end - tau = {span:g} is {span / dt:g} steps of dt = {dt:g}, more than 2**53")
    n_full = int(math.floor(span / dt + 1e-9))
    remainder = span - n_full * dt
    if remainder < 1e-9 * dt and n_full:  # rounding, unless it is the whole span
        remainder = 0.0

    m = system_matrix(s)
    y = init.as_vector().tolist()
    linearity_flag = None if abs(init.B) <= 1.0 else init.tau
    max_err = 0.0
    # samples: the initial state, every output_stride-th step before the last one, the final state
    before_last = max(n_full - (remainder == 0.0), 0)
    n = 2 + before_last // output_stride
    tau, out = np.empty(n), np.empty((n, 3), dtype=complex)
    tau[0], out[0] = init.tau, y
    tau[1:-1] = init.tau + np.arange(1, n - 1) * output_stride * dt
    tau[-1] = init.tau + n_full * dt if remainder == 0.0 else tau_end

    def chunks():  # (table, the step in words, steps before the chunk, steps in it, tau of its row i)
        if n_full:
            step = f"dt = {dt:.3g}"
            table = _step_powers(m, dt, min(_BLOCK, n_full), step)
            for start in range(0, n_full, _CHUNK):
                yield table, step, start, min(_CHUNK, n_full - start), lambda i, start=start: init.tau + (start + 1 + i) * dt
        if remainder > 0.0:
            step = f"the shortened final step {remainder:.3g} of dt = {dt:.3g}"
            yield _step_powers(m, remainder, 1, step), step, n_full, 1, lambda i: tau_end

    # past the float range a product overflows; _chunk names the step
    with np.errstate(over="ignore", invalid="ignore"):
        for table, step, start, count, tau_at in chunks():
            ys, err, crossed = _chunk(table, y, count, tau_at, step, error_tol, linearity_flag is None)
            max_err = max(max_err, err)
            if linearity_flag is None:
                linearity_flag = crossed
            # samples a..b-1 are the steps k * output_stride in this chunk; copied, no view of ys outlives it
            a, b = start // output_stride + 1, min(start + count, before_last) // output_stride + 1
            out[a:b] = ys[a * output_stride - start - 1 : b * output_stride - start - 1 : output_stride]
            y = ys[-1].tolist()

    out[-1] = y
    return Trajectory(
        tau=tau,
        y=out,
        params=s,
        dt=dt,
        linearity_flag=linearity_flag,
        steps=n_full + int(remainder > 0.0),
        max_step_error=max_err,
    )


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    # the Taylor series of exp(a / 2^s) to convergence, with |a / 2^s| <= 0.5 in the inf-norm, squared s times
    norm = float(np.linalg.norm(a, ord=np.inf))
    squarings = int(math.ceil(math.log2(norm / 0.5))) if 0.5 < norm < math.inf else 0
    b = a / (2.0**squarings)
    result = term = np.eye(3, dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if float(np.linalg.norm(term, ord=np.inf)) < 1e-18 * float(np.linalg.norm(result, ord=np.inf)):
            break
    for _ in range(squarings):
        result = result @ result
    return result


def propagator(s: ScaledParams, tau: float) -> np.ndarray:
    """Exact propagator exp(tau*M) of the linearized system, the oracle of :func:`evolve`.

    One method for every ``tau`` and every spectrum, degenerate or not:
    scaling and squaring of the Taylor series (Moler and Van Loan, 2003).
    ``tau`` must be finite and >= 0; a ``tau*M`` or a result past the float
    range raises ``OverflowError`` naming ``tau``.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    with np.errstate(over="ignore", invalid="ignore"):
        result = _expm_taylor(tau * system_matrix(s))
    if not np.isfinite(result).all():
        raise OverflowError(f"exp(tau*M) overflows the float range at tau = {tau:.6g}")
    return result


def fit_growth_rate(traj: Trajectory, window: Tuple[float, float]) -> float:
    """Least-squares slope of ln|A1| over a time window.

    Reads the ``tau`` column and |A1| of the ``y`` column of ``traj``.
    Intended for late windows where the dominant eigenmode has taken over;
    there the slope equals the spectral growth rate gamma. The line through
    ``y = math.log(|A1|)`` is closed-form, from centred sums each taken with
    ``math.fsum`` (no LAPACK): ``slope = fsum((t - t_bar)(y - y_bar)) /
    fsum((t - t_bar)^2)``, intercept ``y_bar - slope*t_bar``. If the rms
    residual ``sqrt(fsum(r^2)/n)`` exceeds 1e-2 the signal is not
    exponential (oscillatory, below threshold) and
    :class:`NonExponentialFitError` is raised.
    """
    lo, hi = window
    if not hi > lo:
        raise ValueError(f"window must be increasing, got {window}")
    taus = traj.tau
    if lo < taus[0] - 1e-12 or hi > taus[-1] + 1e-12:
        raise ValueError(
            f"window {window} not contained in trajectory span ({taus[0]:.6g}, {taus[-1]:.6g})"
        )
    mask = (taus >= lo) & (taus <= hi)
    if int(mask.sum()) < 5:
        raise ValueError(f"window {window} contains fewer than 5 samples; widen it or reduce the stride")
    mags = traj.probe_magnitudes()[mask].tolist()
    if 0.0 in mags:
        raise ValueError("|A1| vanishes inside the window; growth rate undefined")
    t, y = taus[mask].tolist(), list(map(math.log, mags))
    n = len(t)
    t_bar, y_bar = math.fsum(t) / n, math.fsum(y) / n
    dt, dy = [v - t_bar for v in t], [v - y_bar for v in y]
    slope = math.fsum(a * b for a, b in zip(dt, dy)) / math.fsum(v * v for v in dt)
    residual = math.sqrt(math.fsum((b - slope * a) ** 2 for a, b in zip(dt, dy)) / n)
    if residual > 1e-2:
        raise NonExponentialFitError(residual=residual, bound=1e-2)
    return slope


def write_trajectory_csv(traj: Trajectory, path_or_file: PathOrFile) -> None:
    """Write a trajectory as CSV.

    Columns: tau, re_A1, im_A1, abs_A1, re_B, im_B, abs_B, re_Bdot, im_Bdot,
    passed to :func:`carl._io.csv_rows` as views of the trajectory's
    ``tau`` and ``y`` columns. Parameters, step size and seed amplitude go
    into ``#`` comment lines ahead of the mandatory header row.
    """
    with text_sink(path_or_file) as f:
        p, (a1, b, bdot) = traj.params, traj.y[0].tolist()
        flag = "none" if traj.linearity_flag is None else repr(traj.linearity_flag)
        f.write(
            f"# params: delta21={p.delta21!r} alpha={p.alpha!r} beta={p.beta!r} eta={p.eta}\n# dt: {traj.dt!r}\n"
            f"# seed: abs_A1={abs(a1)!r} abs_B={abs(b)!r} abs_Bdot={abs(bdot)!r}\n"
            f"# linearity_flag_tau: {flag}\ntau,re_A1,im_A1,abs_A1,re_B,im_B,abs_B,re_Bdot,im_Bdot\n"
        )
        a1, b, bdot = traj.y.T
        # hypot gives Python's abs of a complex (up to the sign of a nan, which '%.17g' does not spell)
        fields = [traj.tau, a1.real, a1.imag, np.hypot(a1.real, a1.imag), b.real, b.imag, np.hypot(b.real, b.imag), bdot.real, bdot.imag]
        f.writelines(csv_rows(fields, len(traj.tau)))
