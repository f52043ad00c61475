"""Robust roots of real-coefficient cubics.

This is the computational kernel behind the dispersion relation of the
linearized CARL: the substitution ``lambda = i*x`` turns its complex cubic
into one with real coefficients, so only the real case is needed.

:func:`solve_cubics` is the one solver: it takes whole arrays of monic
coefficients and runs every branch (trigonometric, Cardano, repeated roots,
Newton polish, power-of-two rescaling, dominant-root deflation) by mask,
per element. :func:`solve_cubic` and :func:`classify` are its one-element
calls. :func:`companion_roots` (eigenvalues of the companion matrix) shares
none of it and is the oracle the test suite checks it against.
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
    "CubicArrays",
    "solve_cubics",
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


class CubicArrays(NamedTuple):
    """Per-row results of :func:`solve_cubics`, in input order.

    ``roots`` is (n, 3) complex, in the ordering of :class:`CubicRoots`, and
    ``three_real`` its nature. ``discriminant`` is that of the caller's
    monic polynomial, as in :class:`CubicRoots`. ``normalized`` is the
    scale-free discriminant :func:`classify` reports, and ``boundary`` is
    ``|normalized| <= tol``.
    """

    roots: np.ndarray
    three_real: np.ndarray
    discriminant: np.ndarray
    normalized: np.ndarray
    boundary: np.ndarray


def _polish(x: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    # <= 3 guarded Newton steps per element on the monic polynomial, real or
    # complex. An element takes a step only while |f| decreases (at f = 0 or
    # f' = 0 the step fails that test), and only the elements still
    # improving are carried to the next step.
    x = x.copy()
    live, x1, b1, c1, d1 = np.arange(x.size), x, b, c, d
    f1 = ((x + b) * x + c) * x + d
    for _ in range(3):
        xn = x1 - f1 / ((3.0 * x1 + 2.0 * b1) * x1 + c1)
        fn = ((xn + b1) * xn + c1) * xn + d1
        k = (abs(fn) < abs(f1)).nonzero()[0]
        if not k.size:
            break
        live, x1, b1, c1, d1, f1 = live[k], xn[k], b1[k], c1[k], d1[k], fn[k]
        x[live] = x1
    return x


def _cube(v: np.ndarray) -> np.ndarray:
    # v**3; numpy's power is far slower on a negative base
    return np.copysign(abs(v) ** 3, v)


# Each branch of solve_cubics maps the depressed cubic t^3 + p t + q (x = t + shift)
# of some rows to (x, y): x (3, rows) holds their real roots, or the real root
# and the pair's real part twice, and y the pair's imaginary part (0 if none).


def _three_real(p, q, shift, b, c, d):
    # three distinct real roots, trigonometric; p < 0 follows from disc > 0
    m = 2.0 * np.sqrt(-p / 3.0)
    # cos(3*theta) = 3q / (p*m); clamp against rounding at the boundary
    theta = np.arccos(np.clip(3.0 * q / (p * m), -1.0, 1.0)) / 3.0
    ts = m * np.cos(theta - 2.0 * math.pi * np.arange(3.0)[:, None] / 3.0) + shift
    return _polish(ts.ravel(), *(np.concatenate((k, k, k)) for k in (b, c, d))).reshape(3, -1), 0.0


def _one_pair(p, q, shift, b, c, d):
    # one real root and a conjugate pair, Cardano; the radicand is rounded
    # apart from disc and can dip below 0 next to a double root, and the
    # larger-magnitude cube root avoids cancellation
    s = np.sqrt(np.maximum(0.0, q * q / 4.0 + _cube(p) / 27.0))
    u = np.cbrt(np.where(q != 0.0, -q / 2.0 - np.copysign(s, q), s))
    v = np.where(u != 0.0, -p / (3.0 * u), 0.0)
    # the real root and the +imag member of the pair, polished together
    z = np.zeros(2 * p.size, complex)
    z.real = np.concatenate((u + v, -(u + v) / 2.0)) + np.concatenate((shift, shift))
    z.imag[p.size :] = math.sqrt(3.0) / 2.0 * abs(u - v)
    z = _polish(z, *(np.concatenate((k, k)) for k in (b, c, d)))
    real, pair = z[: p.size].real, z[p.size :]
    return np.stack((real, pair.real, pair.real)), abs(pair.imag)


def _repeated(p, q, shift, b, c, d):
    # disc == 0: a triple root where p == 0 (q == 0 follows), else a double root
    single = np.where(p != 0.0, 3.0 * q / p + shift, shift)
    double = np.where(p != 0.0, -3.0 * q / (2.0 * p) + shift, shift)
    return np.stack((single, double, double)), 0.0


def solve_cubics(b, c, d, tol: float = DEFAULT_BOUNDARY_TOL) -> CubicArrays:
    """All three roots of ``x^3 + b x^2 + c x + d``, over arrays of monic coefficients.

    Every step is taken per element, by mask. Three distinct real roots come
    from the trigonometric method, one real root and a conjugate pair from
    Cardano with cancellation-safe radicals, both Newton-polished; a zero
    discriminant is a triple root (``p == 0``) or a double root. The pair is
    symmetrized exactly (the second member is the mirror of the polished
    first), so sign tests on real parts are reliable; a pair that polishing
    lands on the real axis is a double real root (THREE_REAL).

    Rows whose largest monic coefficient is outside [2^-128, 2^128] are
    solved for ``y = x / 2**k`` (Blinn, "How to Solve a Cubic Equation",
    IEEE CG&A 2006-07), which is exact in binary, so no p^3 or q^2
    underflows to a spurious repeated root or overflows to NaN. A monic
    coefficient that is not finite (a monic form that overflows a float)
    raises ``ValueError``.

    Where one real root ``r0`` exceeds the other two by more than 2^20, the
    discriminant's sign is lost to rounding: those two then come from the
    quadratic factor ``x^2 + s1 x + s0`` (``s0 = -d/r0``, ``s1 = (s0 - c)/r0``),
    which also sets the nature, the discriminant and the boundary flag.

    The boundary flag is scale-free: the rescaled discriminant is divided by
    ``max(|p|^3, q^2, (b^2/3)^3)``, the sixth power of the root scale, or,
    after deflation, the quadratic's ``h^2 - s0`` (``h = -s1/2``) by
    ``h^2 + |s0|``. Inside ``|normalized| <= tol`` a repeated real root and a
    barely split pair are indistinguishable.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    b0, c0, d0 = (np.ravel(v) for v in np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (b, c, d))))
    with np.errstate(all="ignore"):  # saturation to +-0 or +-inf is intended
        m = np.maximum(np.maximum(abs(b0), abs(c0)), abs(d0))
        if not np.isfinite(m).all():
            i = int(np.argmin(np.isfinite(m)))
            raise ValueError(f"monic coefficients ({b0[i]:.17g}, {c0[i]:.17g}, {d0[i]:.17g}) must be finite floats")
        far = (m < _SAFE_LO) | (m > _SAFE_HI)
        b, c, d, k = b0, c0, d0, None
        if far.any():
            # k is the binary exponent of the root scale max(|b|, sqrt|c|, cbrt|d|)
            scale = np.maximum(np.maximum(abs(b0), np.sqrt(abs(c0))), abs(d0) ** (1.0 / 3.0))
            k = np.where(far, np.frexp(scale)[1], 0)
            b, c, d = np.ldexp(b0, -k), np.ldexp(c0, -2 * k), np.ldexp(d0, -3 * k)
        # x = t - b/3 turns the cubic into t^3 + p t + q
        p = c - b * b / 3.0
        q = d - b * c / 3.0 + 2.0 * _cube(b) / 27.0
        disc = -4.0 * _cube(p) - 27.0 * q * q
        norm = np.maximum(np.maximum(abs(p) ** 3, q * q), (b * b / 3.0) ** 3)
        normalized = np.where(norm != 0.0, disc / norm, disc)
        shift = -b / 3.0
        cardano = disc < 0.0
        n = disc.size
        x, y = np.zeros((3, n)), np.zeros(n)
        for rows, branch in ((disc > 0.0, _three_real), (cardano, _one_pair), (disc == 0.0, _repeated)):
            i = rows.nonzero()[0]
            if i.size:
                x[:, i], y[i] = branch(p[i], q[i], shift[i], b[i], c[i], d[i])
        if k is not None:
            x, y, disc = np.ldexp(x, k), np.ldexp(y, k), np.ldexp(disc, 6 * k)

        # deflation by a dominant real root r0, the first of largest magnitude:
        # x^3 + b x^2 + c x + d = (x - r0)(x^2 + s1 x + s0), by Vieta from c
        # and d of the unscaled monic form, where the small roots survive
        r0 = x[0]
        for xj in x[1:]:
            r0 = np.where(abs(xj) > abs(r0), xj, r0)
        r0 = np.where(cardano, x[0], r0)
        s0 = -d0 / r0
        s1 = (s0 - c0) / r0
        i = (
            (r0 != 0.0)
            & (~cardano | (np.hypot(x[1], y) < abs(r0)))
            & (abs(r0) > _SPREAD * np.maximum(abs(s1), np.sqrt(abs(s0))))
        ).nonzero()[0]
        if i.size:
            r0, s0, s1 = r0[i], s0[i], s1[i]
            h = -s1 / 2.0
            dq = h * h - s0  # a quarter of the quadratic's discriminant
            g = r0 * (r0 + s1) + s0  # (r0 - r1)(r0 - r2)
            disc[i] = np.where(dq == 0.0, 0.0, 4.0 * dq * g * g)
            norm = h * h + abs(s0)
            normalized[i] = np.where(norm != 0.0, dq / norm, dq)
            t = h + np.copysign(np.sqrt(dq), h)
            pair = dq < 0.0
            x[:, i] = np.stack((r0, np.where(pair, h, t), np.where(pair, h, np.where(t != 0.0, s0 / t, 0.0))))
            y[i] = np.where(pair, np.sqrt(-dq), 0.0)

    pair = y > 0.0
    roots = np.zeros((n, 3), complex)
    roots.real = np.where(pair, x, np.sort(x, axis=0, kind="stable")).T
    roots.imag[:, 1] = y
    roots.imag[:, 2] = np.where(pair, -y, 0.0)
    return CubicArrays(roots, ~pair, disc, normalized, abs(normalized) <= tol)


def solve_cubic(cubic: RealCubic) -> CubicRoots:
    """All three roots of one real cubic: :func:`solve_cubics` on its monic form."""
    solved = solve_cubics(*cubic.monic())
    nature = RootNature.THREE_REAL if solved.three_real[0] else RootNature.ONE_REAL_ONE_PAIR
    return CubicRoots(roots=tuple(solved.roots[0].tolist()), nature=nature, discriminant=float(solved.discriminant[0]))


def classify(cubic: RealCubic, tol: float = DEFAULT_BOUNDARY_TOL) -> Classification:
    """Scale-free root-structure tag with a tolerance band at the boundary.

    The tag is that of the normalized discriminant of :func:`solve_cubics`,
    which depends on neither the coefficient scale nor the root scale.
    Inside the band ``|disc| <= tol`` it is reported as THREE_REAL with
    ``boundary=True`` (a repeated real root and a barely split conjugate
    pair are indistinguishable there).
    """
    disc_hat = float(solve_cubics(*cubic.monic(), tol=tol).normalized[0])
    nature = RootNature.THREE_REAL if disc_hat >= -tol else RootNature.ONE_REAL_ONE_PAIR
    return Classification(nature=nature, boundary=abs(disc_hat) <= tol, discriminant=disc_hat)


def companion_roots(cubic: RealCubic) -> CubicRoots:
    """Roots via eigenvalues of the companion matrix (cross-check oracle).

    Independent of :func:`solve_cubics`: no closed forms, no polishing, no
    conjugate symmetrization. Eigenvalues of a THREE_REAL case may therefore
    carry tiny spurious imaginary parts; keep that in mind when comparing.
    The discriminant is the product of the squared root differences, formed
    at a power-of-two root scale and scaled back, and sets the nature.
    """
    b, c, d = cubic.monic()
    comp = np.array([[0.0, 0.0, -d], [1.0, 0.0, -c], [0.0, 1.0, -b]])
    eigs = sorted(np.linalg.eigvals(comp), key=lambda z: (z.real, z.imag))
    k = math.frexp(max(abs(z) for z in eigs))[1]
    r1, r2, r3 = (complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) for z in eigs)
    disc = (((r1 - r2) * (r1 - r3) * (r2 - r3)) ** 2).real
    nature = RootNature.THREE_REAL if disc >= 0.0 else RootNature.ONE_REAL_ONE_PAIR
    with np.errstate(over="ignore"):
        disc = float(np.ldexp(disc, 6 * k))
    return CubicRoots(roots=tuple(complex(z) for z in eigs), nature=nature, discriminant=disc)


def residual_scale(cubic: RealCubic) -> float:
    """Normalization for root residuals: max(1, |b|, |c|, |d|) of the monic form."""
    b, c, d = cubic.monic()
    return max(1.0, abs(b), abs(c), abs(d))


def monic_residual(cubic: RealCubic, root: complex) -> float:
    """|x^3 + b x^2 + c x + d| at ``root``."""
    b, c, d = cubic.monic()
    return abs(((root + b) * root + c) * root + d)
