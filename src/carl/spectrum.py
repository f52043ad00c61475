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
import struct
import sys
from typing import List, Optional, Tuple

import numpy as np

from carl.cubic import solve_cubics
from carl.params import RAO, WAO, _check_eta

__all__ = [
    "spectrum_arrays",
    "gamma_rao_closed_form",
    "threshold_lhs",
    "critical_alpha_beta",
    "critical_delta21",
]


def spectrum_arrays(delta21, alpha_beta, eta):
    """Spectra of the linearized system at many control points, as arrays.

    ``delta21``, ``alpha_beta`` and ``eta`` are broadcast against each other
    to n points. Returns ``(lambdas, gamma, case, boundary)`` from one call of
    :func:`carl.cubic.solve_cubics` on the real cubics for ``x = -i*lambda``:
    the (n, 3) eigenvalues, the growth rates (the largest real part: 0 in
    case I, while in case II the real parts are ``+gamma``, ``-gamma``,
    exactly opposite by conjugate symmetrization, and 0), the stability
    classes ("I" or "II") and the boundary flags. A flag marks a discriminant
    inside the tolerance band of a repeated root, where the class is not
    numerically meaningful. The inputs are checked as :class:`ScaledParams`
    checks them: a non-finite value, ``alpha_beta < 0`` or an ``eta`` other
    than 0 or 1 (a bool included) raises ``ValueError`` naming the parameter,
    and a constant term ``alpha_beta + eta*delta21`` past the float range
    names all three at the first point where it is.
    """
    arrays = np.broadcast_arrays(np.asarray(delta21, dtype=float), np.asarray(alpha_beta, dtype=float), np.asarray(eta))
    d, ab, eta = (np.ravel(v) for v in arrays)
    bad = (eta != RAO) & (eta != WAO) | (eta.dtype == bool)
    if bad.any():
        raise ValueError(f"eta must be exactly 0 (RAO) or 1 (WAO), got {eta[bad.argmax()].item()!r}")
    if (ab < 0.0).any():
        raise ValueError(f"alpha_beta must be >= 0, got {ab[(ab < 0.0).argmax()].item()}")
    for name, v in (("delta21", d), ("alpha_beta", ab)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite")
    with np.errstate(over="ignore"):
        constant = ab + eta * d
    if not np.isfinite(constant).all():
        i = np.isfinite(constant).argmin()
        raise ValueError(f"alpha_beta + eta*delta21 must be finite, got delta21 = {d[i].item()!r}, alpha_beta = {ab[i].item()!r}, eta = {eta[i].item()!r}")
    solved = solve_cubics(-d, -eta.astype(float), constant)
    lambdas = 1j * solved.roots
    unstable = ~solved.three_real
    # the pair's -imag member is the eigenvalue with real part +gamma
    return lambdas, np.where(unstable, lambdas[:, 2].real, 0.0), np.where(unstable, "II", "I"), solved.boundary


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
# Range of alpha_beta critical_delta21 accepts: the normal floats, up to a
# bound under which the fourth power of its estimates' sqrt(2 alpha_beta)
# stays finite.
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
    _check_eta(eta)
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


def critical_delta21(alpha_beta: float, eta: int, *, window: Tuple[float, float] = (-10.0, 20.0)) -> List[float]:
    """All detunings where the stability class flips, at fixed alpha*beta.

    These are the gain-band edges of a growth-rate-versus-detuning curve:
    the real roots of ``108*threshold_lhs`` as a polynomial in delta21, each
    returned as the double nearest it. For eta = 0 that is ``27ab^2 -
    4ab d^3``, with the single root ``(27ab/4)^(1/3)``. For eta = 1 the
    dispersion cubic has a double root ``x > 0`` on the boundary, where
    ``ab = (x^2 - 1)^2/2x`` and ``delta21 = (3x^2 - 1)/2x``: with
    ``w = sqrt(2ab)``, the lower edge has ``x = z^-2``, ``z^4 - w z^3 = 1``,
    and the upper edge ``x = v^2``, ``v^4 - w v = 1``. Newton's iteration
    from above on each estimates its edge, and :func:`_round_edge` rounds
    it by the exact sign of the indicator. ``delta21 = 1`` is unstable at
    every ab > 0, so each side of it holds exactly one edge. ``window``
    filters the result. Returns an ascending (possibly empty) list.
    """
    if not _ALPHA_BETA_MIN <= alpha_beta <= _ALPHA_BETA_MAX:
        raise ValueError(f"alpha_beta must be in [{_ALPHA_BETA_MIN:g}, {_ALPHA_BETA_MAX:g}], got {alpha_beta}")
    _check_eta(eta)
    lo_w, hi_w = window
    if not -_DELTA21_MAX <= lo_w < hi_w <= _DELTA21_MAX:
        raise ValueError(f"window must be increasing and inside |delta21| <= {_DELTA21_MAX:g}, got {window}")
    ab = float(alpha_beta)
    if eta == RAO:
        edges = [_round_edge(3.0 * _cbrt(ab / 4.0), ab, RAO, -1)]
    else:
        # in t = z - 1 and t = v - 1, where nothing cancels next to the
        # resonance, from t = w and t = cbrt(w), which lie above the roots
        w = math.sqrt(2.0 * ab)
        quartic = lambda t: t * (4.0 + t * (6.0 + t * (4.0 + t)))  # (1 + t)^4 - 1
        z = 1.0 + _newton_from_above(w, lambda t: (quartic(t) - w * (1.0 + t) ** 3, (1.0 + t) ** 2 * (4.0 + 4.0 * t - 3.0 * w)))
        v = 1.0 + _newton_from_above(_cbrt(w), lambda t: (quartic(t) - w * (1.0 + t), 4.0 * (1.0 + t) ** 3 - w))
        lower, upper = (3.0 / (z * z) - z * z) / 2.0, (3.0 * v * v - 1.0 / (v * v)) / 2.0
        edges = [_round_edge(lower, ab, WAO, 1), _round_edge(upper, ab, WAO, -1)]
    return [e for e in edges if lo_w <= e <= hi_w]


def _newton_from_above(t: float, g) -> float:
    """Newton's iteration on ``g(t) -> (value, slope)``, increasing and convex
    right of its root, from a ``t`` right of it: it descends to the root and
    stops at the first step that does not lower ``t``."""
    while True:
        value, slope = g(t)
        t_next = t - value / slope
        if not t_next < t:
            return t
        t = t_next


def _unstable(d, ab, eta: int) -> int:
    """Exact sign of ``108*threshold_lhs = 27ab^2 + 4ab*d(9eta - d^2) - 4eta(1 - d^2)^2``.

    ``ab`` is a float and ``d`` a float or a pair ``(p, q)`` of integers
    standing for ``p/q`` with ``q > 0``. The polynomial times ``q^4`` and
    the square of ``ab``'s denominator is evaluated in Python integers, so
    with no rounding: 1 where the spectrum is unstable, -1 where it is
    stable and 0 on the boundary.
    """
    (p, q), (a, b) = d if isinstance(d, tuple) else d.as_integer_ratio(), ab.as_integer_ratio()
    p2, q2 = p * p, q * q
    s = 27 * a * a * q2 * q2 + 4 * a * b * p * q * (9 * eta * q2 - p2) - 4 * eta * (b * (q2 - p2)) ** 2
    return (s > 0) - (s < 0)


def _rank(x: float) -> int:
    """Position of ``x`` among the doubles: +-0 is 0 and neighbours differ by 1."""
    (n,) = struct.unpack("<q", struct.pack("<d", x))
    return n if n >= 0 else -(1 << 63) - n


def _unrank(k: int) -> float:
    """The double at position ``k`` (the inverse of :func:`_rank`)."""
    return struct.unpack("<d", struct.pack("<q", k if k >= 0 else -(1 << 63) - k))[0]


def _round_edge(estimate: float, ab: float, eta: int, rising: int) -> float:
    """The double nearest the root of ``_unstable(., ab, eta)`` on one side
    of ``delta21 = eta``: below it if ``rising`` is 1, above it if -1, where
    ``rising * _unstable`` goes from -1 left of the root to 1 right of it.

    ``delta21 = eta`` is unstable at every ab > 0 (the indicator is
    ``27ab^2`` there for eta = 0 and ``27ab^2 + 32ab`` for eta = 1), and the
    search stays on the root's side of it. From ``estimate``, on that side
    too, it gallops until the sign flips, bisects to two neighbouring
    doubles and returns the one on the root's side of their exact midpoint
    (the lower one on a tie).
    """
    right = lambda x: rising * _unstable(x, ab, eta) >= 0
    pivot, k, side = _rank(float(eta)), _rank(estimate), right(estimate)
    step = -1 if side else 1
    while True:
        probe = pivot if rising * (k + step - pivot) > 0 else k + step
        if right(_unrank(probe)) != side:
            break
        k, step = probe, 2 * step
    lo, hi = sorted((k, probe))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if right(_unrank(mid)) else (mid, hi)
    (p, q), (r, s) = _unrank(lo).as_integer_ratio(), _unrank(hi).as_integer_ratio()
    return _unrank(lo) if right((p * s + r * q, 2 * q * s)) else _unrank(hi)
