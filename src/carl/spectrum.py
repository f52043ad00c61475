"""Eigenvalue spectrum, growth rate and instability thresholds.

Linearizing the probe field A1 and the bunching parameter B about the
unbunched, probe-free state gives a constant-coefficient 3x3 system whose
eigenvalues solve

    lambda^3 - i*delta21*lambda^2 + eta*lambda - i*(alpha*beta + eta*delta21) = 0.

With ``lambda = i*x`` this becomes a real cubic,

    x^3 - delta21*x^2 - eta*x + (alpha*beta + eta*delta21) = 0,

so the spectrum splits into exactly two classes: all three x real (all
eigenvalues imaginary, no growth, case I) or one real x plus a conjugate
pair (one eigenvalue with positive real part, exponential growth at rate
``gamma = |Im x_pair|``, case II). The class boundary is the vanishing of
the cubic's discriminant, which :func:`threshold_lhs` expresses directly in
the controls (delta21, alpha*beta, eta).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from carl.cubic import RealCubic, solve_cubics
from carl.params import RAO, WAO, ScaledParams

__all__ = [
    "SpectrumCase",
    "Spectrum",
    "eigen_spectrum",
    "spectrum_arrays",
    "gamma_rao_closed_form",
    "threshold_lhs",
    "critical_alpha_beta",
    "critical_delta21",
]


class SpectrumCase(Enum):
    """Stability class of the linearized system."""

    STABLE = "I"  # all eigenvalues imaginary: bounded oscillation
    UNSTABLE = "II"  # one conjugate-broken pair: exponential growth

    def __str__(self) -> str:
        return f"Case {self.value}"


@dataclass(frozen=True)
class Spectrum:
    """Three eigenvalues of the linearized system plus their classification.

    ``gamma`` is the largest real part, clamped to 0 in the stable case.
    ``boundary`` marks points where the discriminant of the underlying real
    cubic falls inside the classification tolerance band (a repeated root:
    the stable/unstable distinction is not numerically meaningful there).
    """

    lambdas: Tuple[complex, complex, complex]
    case: SpectrumCase
    gamma: float
    boundary: bool

    def __str__(self) -> str:
        return f"gamma = {self.gamma:.6g}, {self.case}"


def _dispersion_cubic(delta21: float, alpha_beta: float, eta: int) -> RealCubic:
    # Python floats, which saturate to +-inf without numpy's overflow warnings
    d, ab = float(delta21), float(alpha_beta)
    return RealCubic(1.0, -d, -float(eta), ab + eta * d)


def spectrum_arrays(delta21, alpha_beta, eta):
    """Spectra of the linearized system at many control points, as arrays.

    ``delta21``, ``alpha_beta`` and ``eta`` are broadcast against each other
    to n points. Returns ``(lambdas, gamma, case, boundary)``: the (n, 3)
    eigenvalues, the growth rates, the stability classes ("I" or "II") and
    the boundary flags of :class:`Spectrum`, from one call of
    :func:`carl.cubic.solve_cubics` on the real cubics for ``x = -i*lambda``.
    The inputs are checked as :class:`ScaledParams` checks them: a
    non-finite value, ``alpha_beta < 0`` or an ``eta`` other than 0 or 1
    raises ``ValueError`` naming the parameter.
    """
    arrays = np.broadcast_arrays(np.asarray(delta21, dtype=float), np.asarray(alpha_beta, dtype=float), np.asarray(eta))
    d, ab, eta = (np.ravel(v) for v in arrays)
    bad = (eta != RAO) & (eta != WAO)
    if bad.any():
        raise ValueError(f"eta must be exactly 0 (RAO) or 1 (WAO), got {eta[bad.argmax()].item()!r}")
    if (ab < 0.0).any():
        raise ValueError(f"alpha_beta must be >= 0, got {ab[(ab < 0.0).argmax()].item()}")
    for name, v in (("delta21", d), ("alpha_beta", ab)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        solved = solve_cubics(-d, -eta.astype(float), ab + eta * d)
    lambdas = 1j * solved.roots
    unstable = ~solved.three_real
    # the pair's -imag member is the eigenvalue with real part +gamma
    return lambdas, np.where(unstable, lambdas[:, 2].real, 0.0), np.where(unstable, "II", "I"), solved.boundary


def eigen_spectrum(s: ScaledParams) -> Spectrum:
    """Spectrum of the linearized probe/bunching system at one control point.

    :func:`spectrum_arrays` with one element. The unstable case yields real
    parts ``+gamma`` and ``-gamma`` (exactly opposite, by conjugate
    symmetrization in the cubic solver) plus one purely imaginary
    eigenvalue.
    """
    lambdas, gamma, case, boundary = spectrum_arrays(s.delta21, s.alpha_beta, s.eta)
    return Spectrum(
        lambdas=tuple(lambdas[0].tolist()), case=SpectrumCase(case[0]), gamma=float(gamma[0]), boundary=bool(boundary[0])
    )


def _cbrt(x: float) -> float:
    """Signed real cube root: pow's estimate and one Newton step (math.cbrt is 3.11+)."""
    y = math.copysign(abs(x) ** (1.0 / 3.0), x)
    return y - (y - x / (y * y)) / 3.0 if y else y


def gamma_rao_closed_form(delta21: float, alpha_beta: float) -> float:
    """Closed-form growth rate of the ray-atom-optics (eta = 0) regime.

    Above the RAO threshold ``alpha_beta > 4*delta21^3/27``,

        gamma = (sqrt(3)/2) * (alpha_beta/4)^(1/3)
                * | (1 + sqrt(d))^(2/3) - (1 - sqrt(d))^(2/3) |,

    with ``d = 1 - 4*delta21^3/(27*alpha_beta)``. The two-thirds powers are
    real: ``x^(2/3) = cbrt(x)^2``, which for ``d > 1`` (negative detuning,
    where ``1 - sqrt(d) < 0``) is the branch that reproduces the numerical
    spectrum; principal complex powers do not. At or below threshold the
    rate is 0 by definition.

    With ``s = sqrt(d)``, ``a = cbrt(1 + s)``, ``b = cbrt(1 - s)`` and
    ``1 - s = (1 - d)/(1 + s)``, the lobe is ``a^2 - b^2 = 4s / ((a^2 + ab
    + b^2)(a^2 - ab + b^2))``, so nothing cancels. Past ``1 - d < -1e100``,
    where it may overflow, the rate is ``sqrt(alpha_beta/|delta21|)`` to
    double precision. ``|delta21| > 1e100`` raises ``ValueError``.
    """
    delta21, alpha_beta = float(delta21), float(alpha_beta)
    if not (math.isfinite(delta21) and math.isfinite(alpha_beta)):
        raise ValueError("delta21 and alpha_beta must be finite")
    if abs(delta21) > _DELTA21_MAX:
        raise _delta21_out_of_range(delta21)
    if alpha_beta < 0.0:
        raise ValueError(f"alpha_beta must be >= 0, got {alpha_beta}")
    if alpha_beta == 0.0:
        return 0.0
    threshold = 4.0 * delta21**3 / 27.0
    if alpha_beta <= threshold:
        return 0.0
    if -threshold > 1e100 * alpha_beta:
        return math.sqrt(alpha_beta) / math.sqrt(-delta21)
    r = threshold / alpha_beta  # 1 - d, below 1 above threshold
    s = math.sqrt(1.0 - r)
    a, b = _cbrt(1.0 + s), _cbrt(r / (1.0 + s))
    lobe = 4.0 * s / ((a * a + a * b + b * b) * (a * a - a * b + b * b))
    return math.sqrt(3.0) / 2.0 * _cbrt(alpha_beta / 4.0) * lobe


# Largest |delta21| the threshold functions accept: below it both roots of
# threshold_lhs in alpha_beta (the larger is about 4|delta21|^3/27) and every
# intermediate of _alpha_beta_roots stay finite.
_DELTA21_MAX = 1e100
# Range of alpha_beta critical_delta21 accepts: normal floats, so that its
# indicator's division by alpha_beta cannot overflow, up to where its
# quartic's constant term, 27 alpha_beta^2/4, stays finite.
_ALPHA_BETA_MIN = sys.float_info.min
_ALPHA_BETA_MAX = 1e150


def _delta21_out_of_range(bad: float) -> ValueError:
    return ValueError(
        f"delta21 = {bad!r} is out of range: |delta21| must be <= {_DELTA21_MAX:g}, "
        "beyond which the roots of threshold_lhs in alpha_beta overflow"
    )


def _alpha_beta_roots(delta21, eta):
    """Roots ``r1 >= 0 >= r2`` of :func:`threshold_lhs` as a quadratic in alpha*beta.

    With ``u = delta21/3``, ``b = u(eta - u^2)`` and
    ``r = sqrt(eta/27)|1 - 9u^2|``, the indicator is ``ab^2/4 + b ab - r^2``,
    so with ``h = hypot(b, r)`` the roots are ``r1 = 2(h - b)`` and
    ``r2 = -2(h + b)``. Of the two, the one that would cancel is taken from
    ``r1 r2 = -4r^2`` instead (``r1 = 2r^2/(h + b)`` when ``b > 0``), and
    ``1 - 9u^2`` is formed as ``(1 - delta21)(1 + delta21)``, so both roots
    are accurate to a few ulps, also next to the recoil resonance.
    Accepts scalars or arrays; returns arrays.
    """
    if eta not in (RAO, WAO):
        raise ValueError(f"eta must be 0 (RAO) or 1 (WAO), got {eta!r}")
    d = np.asarray(delta21, dtype=float)
    in_range = np.abs(d) <= _DELTA21_MAX
    if not np.all(in_range):
        raise _delta21_out_of_range(float(d.flat[np.argmin(in_range)]))
    u = d / 3.0
    b = u * (eta - u * u)
    r = math.sqrt(eta / 27.0) * np.abs((1.0 - d) * (1.0 + d))
    half_big = np.hypot(b, r) + np.abs(b)
    big = 2.0 * half_big
    small = 2.0 * r * np.divide(r, half_big, out=np.zeros_like(r), where=r > 0.0)
    positive = b > 0.0
    return np.where(positive, small, big), np.where(positive, -big, -small)


def threshold_lhs(delta21, alpha_beta, eta):
    """Instability indicator: positive exactly where the spectrum is unstable.

    Equals ``-disc/108`` where ``disc`` is the discriminant of the real
    dispersion cubic, written out in the controls (u = delta21/3):

        (alpha_beta/2)^2 + alpha_beta*u*(eta - u^2) - eta*(1 - 9 u^2)^2 / 27.

    For eta = 0 this reduces to ``(ab/2)^2 - ab*delta21^3/27``, positive iff
    ``ab > 4*delta21^3/27``; for eta = 1, delta21 = 0 it is
    ``(ab/2)^2 - 1/27``, positive iff ``ab > 2/(3*sqrt(3))``. Accepts scalars
    or numpy arrays and returns numpy values.

    It is evaluated in the factored form ``(ab - r1)(ab - r2)/4`` over the
    roots of the quadratic in alpha*beta, so no finite input gives NaN. A
    value beyond the float range saturates to +-inf with its sign kept, and
    a tiny one can underflow to +-0: at ``(0, 1e-200, RAO)`` it is 0 although
    the spectrum is unstable. :func:`critical_alpha_beta` is the scale-safe
    sign test. ``|delta21| > 1e100`` raises ``ValueError``.
    """
    r1, r2 = _alpha_beta_roots(delta21, eta)
    half = 0.5 * np.asarray(alpha_beta, dtype=float)
    with np.errstate(over="ignore"):
        return (half - 0.5 * r1) * (half - 0.5 * r2)


def critical_alpha_beta(delta21: float, eta: int) -> Optional[float]:
    """Smallest alpha*beta at which instability sets in at fixed detuning.

    The nonnegative root of :func:`threshold_lhs` as a quadratic in
    alpha*beta, in closed form: with ``u = delta21/3``,
    ``b = u(eta - u^2)``, ``r = sqrt(eta/27)|1 - 9u^2|`` and
    ``h = hypot(b, r)`` it is ``2(h - b)``, evaluated as ``2r^2/(h + b)``
    when ``b > 0``. It is accurate to a few ulps at every scale, also as it
    goes to 0 next to the recoil resonance. Returns ``None`` when the
    system is unstable for every alpha*beta > 0 (for example eta = 0 with
    delta21 <= 0, or eta = 1 at the recoil resonance delta21 = 1): there is
    then no finite positive threshold. ``|delta21| > 1e100`` raises
    ``ValueError``.
    """
    r1 = float(_alpha_beta_roots(delta21, eta)[0])
    return None if r1 == 0.0 else r1


def critical_delta21(
    alpha_beta: float,
    eta: int,
    *,
    window: Tuple[float, float] = (-10.0, 20.0),
) -> List[float]:
    """All detunings where the stability class flips, at fixed alpha*beta.

    These are the gain-band edges of a growth-rate-versus-detuning curve:
    the real roots of ``27*threshold_lhs`` as a polynomial in delta21 across
    which it changes sign. For eta = 0 that is ``27ab^2/4 - ab d^3``, with
    the single root ``(27ab/4)^(1/3)``. For eta = 1 it is the quartic
    ``-d^4 - ab d^3 + 2d^2 + 9ab d + 27ab^2/4 - 1``: ``numpy.roots`` gives
    starting points, a guarded Newton iteration polishes them and only the
    roots with opposite signs of the indicator on either side are kept, so a
    gain band of any width is found. ``window`` filters the result. Returns
    an ascending (possibly empty) list.
    """
    if not _ALPHA_BETA_MIN <= alpha_beta <= _ALPHA_BETA_MAX:
        raise ValueError(f"alpha_beta must be in [{_ALPHA_BETA_MIN:g}, {_ALPHA_BETA_MAX:g}], got {alpha_beta}")
    if eta not in (RAO, WAO):
        raise ValueError(f"eta must be 0 (RAO) or 1 (WAO), got {eta!r}")
    lo_w, hi_w = window
    if not -_DELTA21_MAX <= lo_w < hi_w <= _DELTA21_MAX:
        raise ValueError(f"window must be increasing and inside |delta21| <= {_DELTA21_MAX:g}, got {window}")
    ab = float(alpha_beta)
    if eta == RAO:
        edges = [3.0 * _cbrt(ab / 4.0)]
    else:
        edges = _wao_edges(ab)
    return [e for e in edges if lo_w <= e <= hi_w]


def _wao_edges(ab: float) -> List[float]:
    """Ascending detunings where the eta = 1 class flips at alpha*beta = ab."""

    def indicator(d):
        # threshold_lhs / ab: same sign and roots, but it does not underflow
        # where ab and the band width are tiny
        r1, r2 = _alpha_beta_roots(d, WAO)
        return (ab - r1) * ((ab - r2) / (4.0 * ab))

    # numpy.roots can return two roots closer than it resolves as a complex
    # pair with a small imaginary part; starting on both sides of the pair
    # lets Newton reach each root from outside it. Above ab ~ 1e30 it loses
    # the smaller roots to the one near -ab; the large-ab asymptotes of the
    # two edges, -ab and (27ab/4)^(1/3), are started from as well.
    z = np.roots([1.0, ab, -2.0, -9.0 * ab, 1.0 - 6.75 * ab * ab])
    z = z[np.abs(z.imag) <= 1e-6 * (1.0 + np.abs(z))]
    x = np.concatenate([z.real - np.abs(z.imag), z.real + np.abs(z.imag), [-ab, 3.0 * _cbrt(ab / 4.0)]])
    x = np.clip(x, -_DELTA21_MAX, _DELTA21_MAX)
    with np.errstate(all="ignore"):
        f = indicator(x)
        for _ in range(100):
            slope = (9.0 - 3.0 * x * x + 4.0 * x * (1.0 - x) * (1.0 + x) / ab) / 27.0
            xn = np.clip(x - f / slope, -_DELTA21_MAX, _DELTA21_MAX)
            xn = np.where(np.isfinite(xn), xn, x)
            fn = indicator(xn)
            better = np.abs(fn) < np.abs(f)
            if not better.any():
                break
            x, f = np.where(better, xn, x), np.where(better, fn, f)
        # keep a root where the indicator has opposite signs at the probes on
        # either side of it: midway to its neighbours, or the ends of the range
        x = np.unique(x)
        probes = np.concatenate([[-_DELTA21_MAX], 0.5 * (x[:-1] + x[1:]), [_DELTA21_MAX]])
        unstable = indicator(probes) > 0.0
    return [float(e) for e in x[unstable[:-1] != unstable[1:]]]
