"""Reference computations for the output checks, made with numpy and the stdlib.

Nothing here imports carl. Every value is derived afresh from the paper's
linear model:

* the dispersion cubic ``x^3 - delta21 x^2 - eta x + (alpha_beta + eta delta21)``
  (``lambda = i x``), solved by ``numpy.roots``;
* its discriminant, from the general formula for a monic cubic;
* the ray-atom-optics closed-form growth rate;
* the system matrix of dA1/dtau = i(delta21 A1 + beta B), dB/dtau = Bdot,
  dBdot/dtau = alpha A1 - eta B, propagated through ``numpy.linalg.eig``.
"""

from __future__ import annotations

import math

import numpy as np

# A conjugate pair counts as present when its imaginary part exceeds this
# share of the root scale. numpy.roots resolves a double root to about
# sqrt(eps) ~ 1.5e-8 of that scale; a point outside carl's boundary band
# (normalized discriminant above 1e-12) splits its pair by about 1e-6.
PAIR_TOL = 1e-7


def roots(delta21: float, alpha_beta: float, eta: int) -> np.ndarray:
    """Roots x of the dispersion cubic, by numpy.roots."""
    return np.roots([1.0, -delta21, -float(eta), alpha_beta + eta * delta21])


def rate_of_roots(x: np.ndarray):
    """``(gamma, unstable, scale)`` of the spectrum with roots ``x``.

    ``Re(lambda) = -Im(x)``, so once a conjugate pair exists the growth
    rate is the largest ``|Im x|``; otherwise it is 0. ``scale`` is
    max(1, largest |x|), the scale absolute tolerances are taken on.
    """
    scale = max(1.0, float(np.max(np.abs(x))))
    im = float(np.max(np.abs(x.imag)))
    unstable = im > PAIR_TOL * scale
    return (im if unstable else 0.0), unstable, scale


def rate(delta21: float, alpha_beta: float, eta: int):
    """``(gamma, unstable, scale)`` from numpy.roots."""
    return rate_of_roots(roots(delta21, alpha_beta, eta))


def discriminant(delta21, alpha_beta, eta):
    """Discriminant of the monic dispersion cubic; negative exactly where unstable.

    ``18bcd - 4b^3 d + b^2 c^2 - 4c^3 - 27d^2`` with ``b = -delta21``,
    ``c = -eta``, ``d = alpha_beta + eta delta21``. Works on arrays.
    """
    b = -delta21
    c = -float(eta)
    d = alpha_beta + eta * delta21
    return 18.0 * b * c * d - 4.0 * b * b * b * d + b * b * c * c - 4.0 * c**3 - 27.0 * d * d


def critical_alpha_beta(delta21: float, eta: int) -> float:
    """The alpha_beta at which the spectrum turns unstable at fixed delta21.

    Written out, the discriminant is a quadratic in ``A = alpha_beta``:
    ``-27 A^2 + 2 P A + C`` with ``P = 2 delta21 (delta21^2 - 9 eta)`` and
    ``C = 4 eta (delta21^2 - eta)^2 >= 0``. Its positive root is
    ``(P + sqrt(P^2 + 27 C)) / 27``, evaluated as ``C / (sqrt(P^2 + 27 C) - P)``
    when ``P < 0`` to avoid cancellation. It is 0 where every
    ``alpha_beta > 0`` is unstable.
    """
    p = 2.0 * delta21 * (delta21 * delta21 - 9.0 * eta)
    c = 4.0 * eta * (delta21 * delta21 - eta) ** 2
    s = math.sqrt(p * p + 27.0 * c)
    if p >= 0.0:
        return (p + s) / 27.0
    return c / (s - p) if c > 0.0 else 0.0


def critical_alpha_beta_slope(delta21: float, eta: int) -> float:
    """d(critical_alpha_beta)/d(delta21), by implicit differentiation."""
    a = critical_alpha_beta(delta21, eta)
    f_d = -4.0 * (3.0 * delta21 * delta21 - 9.0 * eta) * a - 16.0 * eta * delta21 * (delta21 * delta21 - eta)
    f_a = 54.0 * a - 4.0 * delta21 * (delta21 * delta21 - 9.0 * eta)
    return -f_d / f_a if f_a != 0.0 else math.inf


def sign_changes(alpha_beta: float, eta: int, window, step: float):
    """Intervals ``(lo, hi)`` of a fine delta21 grid across which the discriminant changes sign."""
    lo_w, hi_w = window
    n = int(math.ceil((hi_w - lo_w) / step)) + 1
    grid = np.linspace(lo_w, hi_w, n)
    out = []
    for start in range(0, n - 1, 1 << 20):  # chunks keep the arrays small
        g = grid[start : start + (1 << 20) + 1]
        neg = discriminant(g, alpha_beta, eta) < 0.0
        for i in np.nonzero(neg[:-1] != neg[1:])[0]:
            out.append((float(g[i]), float(g[i + 1])))
    return out


def rao_rate(delta21, alpha_beta):
    """Closed-form RAO growth rate, on arrays.

    Above ``alpha_beta > 4 delta21^3 / 27`` it is
    ``(sqrt 3 / 2) cbrt(alpha_beta / 4) |cbrt(1 + sqrt d)^2 - cbrt(1 - sqrt d)^2|``
    with ``d = 1 - 4 delta21^3 / (27 alpha_beta)``; below, 0.
    """
    delta21 = np.asarray(delta21, dtype=float)
    alpha_beta = np.broadcast_to(np.asarray(alpha_beta, dtype=float), delta21.shape)
    out = np.zeros(delta21.shape)
    above = alpha_beta > 4.0 * delta21**3 / 27.0
    ab = alpha_beta[above]
    s = np.sqrt(1.0 - 4.0 * delta21[above] ** 3 / (27.0 * ab))
    lobe = np.cbrt(1.0 + s) ** 2 - np.cbrt(1.0 - s) ** 2
    out[above] = math.sqrt(3.0) / 2.0 * np.cbrt(ab / 4.0) * np.abs(lobe)
    return out


def system_matrix(delta21: float, alpha: float, beta: float, eta: int) -> np.ndarray:
    """Generator M of dy/dtau = M y for y = (A1, B, dB/dtau)."""
    return np.array(
        [[1j * delta21, 1j * beta, 0.0], [0.0, 0.0, 1.0], [alpha, -float(eta), 0.0]],
        dtype=complex,
    )


def propagate(m: np.ndarray, y0, tau: float) -> np.ndarray:
    """exp(tau M) y0 through the eigen-decomposition of M."""
    w, v = np.linalg.eig(m)
    return v @ (np.exp(w * tau) * np.linalg.solve(v, np.asarray(y0, dtype=complex)))


def rk4_tolerance(m: np.ndarray, tau: float, dt: float) -> float:
    """Relative error bound for fixed-step RK4 over ``tau``.

    Each step matches exp(dt lambda) to a relative ``(dt |lambda|)^5 / 120``;
    over ``tau / dt`` steps that sums to ``tau |lambda|^5 dt^4 / 120``. A factor
    of 10 and a rounding floor of 1e-10 make it a bound, not an estimate.
    """
    lam = float(np.max(np.abs(np.linalg.eigvals(m))))
    return 10.0 * tau * lam**5 * dt**4 / 120.0 + 1e-10
