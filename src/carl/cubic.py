"""Robust roots of real-coefficient cubics.

This is the computational kernel behind the dispersion relation of the
linearized CARL: the substitution ``lambda = i*x`` turns its complex cubic
into one with real coefficients, so only the real case is needed.

Two independent routes are provided: :func:`solve_cubic` (closed form,
trigonometric for three real roots, Cardano for one real plus a conjugate
pair, Newton-polished) and :func:`companion_roots` (eigenvalues of the
companion matrix), used to cross-check each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Tuple

import numpy as np

__all__ = [
    "RealCubic",
    "RootNature",
    "CubicRoots",
    "Classification",
    "solve_cubic",
    "classify",
    "companion_roots",
]

#: Tolerance band on the normalized discriminant inside which the
#: three-real/one-pair distinction is not numerically meaningful.
DEFAULT_BOUNDARY_TOL = 1e-12

# Band of the largest monic coefficient inside which no rescaling is needed.
_SAFE_LO = 2.0**-128
_SAFE_HI = 2.0**128

# A real root this many times larger than the other two leaves them to the
# quadratic factor it deflates to. The discriminant is about the root spread
# squared times smaller than its terms, so its sign is lost to rounding once
# that nears 1/eps; at 2^20 it still has some 20 good bits.
_SPREAD = 2.0**20


class RootNature(Enum):
    """Root structure of a real cubic."""

    THREE_REAL = "three_real"
    ONE_REAL_ONE_PAIR = "one_real_one_pair"


@dataclass(frozen=True)
class RealCubic:
    """Polynomial c3*x^3 + c2*x^2 + c1*x + c0 with real coefficients, c3 != 0."""

    c3: float
    c2: float
    c1: float
    c0: float

    def __post_init__(self):
        for name in ("c3", "c2", "c1", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite, got {getattr(self, name)!r}")
        if self.c3 == 0.0:
            raise ValueError("c3 must be nonzero (degree exactly 3)")

    def monic(self) -> Tuple[float, float, float]:
        """Coefficients (b, c, d) of the monic form x^3 + b x^2 + c x + d."""
        return self.c2 / self.c3, self.c1 / self.c3, self.c0 / self.c3

    def __call__(self, x):
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0


@dataclass(frozen=True)
class CubicRoots:
    """All three roots plus structure metadata.

    ``discriminant`` is the discriminant of the caller's monic polynomial
    (positive: three distinct real roots, negative: one real root and a
    conjugate pair, zero: repeated root). When the roots are far from order 1
    its magnitude can leave the float range; it then saturates to +-0 or
    +-inf with its sign kept. ``nature`` reflects the exact sign of that
    discriminant, with one exception: a pair whose imaginary part is exactly
    0 after Newton polishing (a double real root that rounding placed just
    inside the pair region) is reported as THREE_REAL, since it holds no
    complex root. Use :func:`classify` for the tolerance-banded tag; it
    reports the same band as THREE_REAL with ``boundary=True``.

    Ordering convention: three real roots ascending; otherwise the real root
    first, then the pair with positive imaginary part before its conjugate.
    """

    roots: Tuple[complex, complex, complex]
    nature: RootNature
    discriminant: float


class Classification(NamedTuple):
    """Tolerance-aware root-structure tag (see :func:`classify`)."""

    nature: RootNature
    boundary: bool
    discriminant: float  # normalized, scale-free


def _cbrt(x: float) -> float:
    # signed real cube root (math.cbrt is 3.11+)
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _depressed(b: float, c: float, d: float) -> Tuple[float, float]:
    # x = t - b/3 turns x^3 + b x^2 + c x + d into t^3 + p t + q
    p = c - b * b / 3.0
    q = d - b * c / 3.0 + 2.0 * b**3 / 27.0
    return p, q


def _scaled_monic(cubic: RealCubic) -> Tuple[float, float, float, int]:
    """Monic coefficients of the polynomial in y = x / 2**k, and k.

    While the largest monic coefficient lies in [2^-128, 2^128], every power
    formed on the way to the discriminant (b^3, p^3, q^2, up to the sixth
    power of the root scale) stays normal and finite, so k = 0 and the caller
    sees the plain monic form. Outside that band k is the binary exponent of
    ``max(|b|, sqrt|c|, cbrt|d|)``, which brings the roots to order 1. The
    substitution is exact in binary floating point.
    """
    b, c, d = cubic.monic()
    m = max(abs(b), abs(c), abs(d))
    if _SAFE_LO <= m <= _SAFE_HI:
        return b, c, d, 0
    if not math.isfinite(m):
        raise ValueError(f"monic coefficients of {cubic} overflow a float")
    k = math.frexp(max(abs(b), math.sqrt(abs(c)), abs(d) ** (1.0 / 3.0)))[1]
    return math.ldexp(b, -k), math.ldexp(c, -2 * k), math.ldexp(d, -3 * k), k


def _ldexp(x: float, k: int) -> float:
    # x * 2**k, saturating to +-inf where math.ldexp would raise
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _polish(x, b: float, c: float, d: float):
    # <= 3 guarded Newton steps on the monic polynomial, at a real or complex x
    f = ((x + b) * x + c) * x + d
    for _ in range(3):
        if f == 0.0:
            break
        fp = (3.0 * x + 2.0 * b) * x + c
        if fp == 0.0:
            break
        xn = x - f / fp
        fn = ((xn + b) * xn + c) * xn + d
        if abs(fn) >= abs(f):
            break
        x, f = xn, fn
    return x


def solve_cubic(cubic: RealCubic) -> CubicRoots:
    """All three roots of a real cubic, closed form plus Newton polish.

    Three distinct real roots are computed by the trigonometric method;
    the one-real-plus-pair case by Cardano with cancellation-safe radical
    arithmetic. The conjugate pair is symmetrized exactly (the second member
    is the mirror of the polished first), so downstream sign tests on real
    parts are reliable.

    Cubics whose monic coefficients are far from order 1 are solved for
    ``y = x / 2**k`` (see Blinn, "How to Solve a Cubic Equation", IEEE CG&A
    2006-07) and the roots scaled back. Powers of two make the substitution
    exact, so no p^3 or q^2 underflows to a spurious repeated root and none
    overflows to NaN. Ordinary inputs take k = 0 and are unaffected.

    When one real root exceeds the other two by more than a factor 2^20,
    the discriminant no longer tells their structure apart reliably: the
    two are then taken from the quadratic factor ``x^2 + s1 x + s0`` left by
    that root ``r0`` (``s0 = -d/r0``, ``s1 = (s0 - c)/r0``), which also sets
    ``nature`` and ``discriminant``. Below that spread nothing changes.
    """
    b, c, d, k = _scaled_monic(cubic)
    p, q = _depressed(b, c, d)
    disc = -4.0 * p**3 - 27.0 * q * q
    shift = -b / 3.0
    pair = None  # +imag member of the conjugate pair, if any

    if disc > 0.0:
        # three distinct real roots; p < 0 is guaranteed here
        m = 2.0 * math.sqrt(-p / 3.0)
        # cos(3*theta) = 3q / (p*m); clamp against rounding at the boundary
        arg = min(1.0, max(-1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * j / 3.0) for j in range(3)]
        reals = [_polish(t + shift, b, c, d) for t in ts]
    elif disc < 0.0:
        # one real root and a conjugate pair; the radicand is rounded apart
        # from disc and can dip below 0 next to a double root
        s = math.sqrt(max(0.0, q * q / 4.0 + p**3 / 27.0))
        # pick the larger-magnitude radicand to avoid cancellation
        t_big = -q / 2.0 - math.copysign(s, q) if q != 0.0 else s
        u = _cbrt(t_big)
        v = 0.0 if u == 0.0 else -p / (3.0 * u)
        reals = [_polish(u + v + shift, b, c, d)]
        z = complex(-(u + v) / 2.0 + shift, math.sqrt(3.0) / 2.0 * abs(u - v))
        z = _polish(z, b, c, d)
        pair = complex(z.real, abs(z.imag))  # mirror convention: +imag member first
    elif p == 0.0:
        reals = [shift] * 3  # triple root: q == 0 follows from disc == 0 and p == 0
    else:
        double = -3.0 * q / (2.0 * p) + shift
        reals = [3.0 * q / p + shift, double, double]

    if k:
        reals = [_ldexp(x, k) for x in reals]
        disc = _ldexp(disc, 6 * k)
        if pair is not None:
            pair = complex(_ldexp(pair.real, k), _ldexp(pair.imag, k))
    r0 = max(reals, key=abs)
    if r0 != 0.0 and (pair is None or abs(pair) < abs(r0)):
        # x^3 + b x^2 + c x + d = (x - r0)(x^2 + s1 x + s0), by Vieta from
        # c and d of the unscaled monic form, where the small roots survive
        _, c0, d0 = cubic.monic()
        s0 = -d0 / r0
        s1 = (s0 - c0) / r0
        if abs(r0) > _SPREAD * max(abs(s1), math.sqrt(abs(s0))):
            h = -s1 / 2.0
            dq = h * h - s0  # a quarter of the quadratic's discriminant
            g = r0 * (r0 + s1) + s0  # (r0 - r1)(r0 - r2)
            disc = 0.0 if dq == 0.0 else 4.0 * dq * g * g
            if dq < 0.0:
                reals, pair = [r0], complex(h, math.sqrt(-dq))
            else:
                t = h + math.copysign(math.sqrt(dq), h)
                reals, pair = [r0, t, s0 / t if t else 0.0], None
    if pair is not None:
        if pair.imag > 0.0:
            roots = (complex(reals[0], 0.0), pair, pair.conjugate())
            return CubicRoots(roots=roots, nature=RootNature.ONE_REAL_ONE_PAIR, discriminant=disc)
        reals += [pair.real, pair.real]  # the pair collapsed onto a double root
    roots = tuple(complex(r, 0.0) for r in sorted(reals))
    return CubicRoots(roots=roots, nature=RootNature.THREE_REAL, discriminant=disc)


def classify(cubic: RealCubic, tol: float = DEFAULT_BOUNDARY_TOL) -> Classification:
    """Scale-free root-structure tag with a tolerance band at the boundary.

    The discriminant of the monic depressed cubic is normalized by
    ``max(1, |p|^3, q^2)`` before comparison, so the verdict does not depend
    on the overall coefficient scale. Far from order 1 the same ratio is
    evaluated on the power-of-two rescaled cubic of :func:`solve_cubic`, so
    neither term overflows. Inside the band ``|disc| <= tol`` the tag is
    reported as THREE_REAL with ``boundary=True`` (a repeated real root and
    a barely split conjugate pair are indistinguishable there).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    b, c, d, k = _scaled_monic(cubic)
    p, q = _depressed(b, c, d)
    disc = -4.0 * p**3 - 27.0 * q * q
    unit = _ldexp(1.0, -6 * k) if k else 1.0  # the 1 of max(1, |p|^3, q^2), rescaled
    norm = max(unit, abs(p) ** 3, q * q)
    disc_hat = disc / norm if norm else disc  # norm == 0 only at a far-scale triple root
    boundary = abs(disc_hat) <= tol
    nature = RootNature.THREE_REAL if disc_hat >= -tol else RootNature.ONE_REAL_ONE_PAIR
    return Classification(nature=nature, boundary=boundary, discriminant=disc_hat)


def companion_roots(cubic: RealCubic) -> CubicRoots:
    """Roots via eigenvalues of the companion matrix (cross-check oracle).

    Independent of :func:`solve_cubic`: no closed forms, no polishing, no
    conjugate symmetrization. Eigenvalues of a THREE_REAL case may therefore
    carry tiny spurious imaginary parts; keep that in mind when comparing.
    """
    b, c, d = cubic.monic()
    comp = np.array(
        [
            [0.0, 0.0, -d],
            [1.0, 0.0, -c],
            [0.0, 1.0, -b],
        ]
    )
    eigs = sorted(np.linalg.eigvals(comp), key=lambda z: (z.real, z.imag))
    bs, cs, ds, k = _scaled_monic(cubic)
    p, q = _depressed(bs, cs, ds)
    disc = -4.0 * p**3 - 27.0 * q * q
    nature = RootNature.THREE_REAL if disc >= 0.0 else RootNature.ONE_REAL_ONE_PAIR
    return CubicRoots(
        roots=tuple(complex(z) for z in eigs), nature=nature, discriminant=_ldexp(disc, 6 * k)
    )


def residual_scale(cubic: RealCubic) -> float:
    """Normalization for root residuals: max(1, |b|, |c|, |d|) of the monic form."""
    b, c, d = cubic.monic()
    return max(1.0, abs(b), abs(c), abs(d))


def monic_residual(cubic: RealCubic, root: complex) -> float:
    """|x^3 + b x^2 + c x + d| at ``root``."""
    b, c, d = cubic.monic()
    return abs(((root + b) * root + c) * root + d)
