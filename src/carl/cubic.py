"""Robust roots of real-coefficient cubics.

This is the computational kernel behind the dispersion relation of the
linearized CARL: the substitution ``lambda = i*x`` turns its complex cubic
into one with real coefficients, so only the real case is needed.

:func:`solve_cubics` is the one solver: it takes whole arrays of monic
coefficients and runs every branch (trigonometric, Cardano, repeated roots,
Newton polish, power-of-two rescaling, dominant-root deflation) by mask,
per element, into a :class:`CubicArrays`; one cubic is an array of one row.
The polish works on a branch's (3, n) or (2, n) starts at once, its (n,)
coefficients broadcast against them.
:func:`companion_roots` (eigenvalues of the companion matrix) shares none
of it and is the oracle the test suite checks it against.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple

import numpy as np

__all__ = ["CubicArrays", "solve_cubics", "companion_roots"]

#: Tolerance band on the normalized discriminant inside which the
#: three-real/one-pair distinction is not numerically meaningful.
DEFAULT_BOUNDARY_TOL = 1e-12

# Band of the largest monic coefficient inside which no rescaling is needed.
_SAFE_LO = 2.0**-128
_SAFE_HI = 2.0**128

_NORMAL_MIN = 2.0**-1022  # the smallest normal float

# A real root this many times larger than the other two leaves them to the
# quadratic factor it deflates to. The discriminant is about the root spread
# squared times smaller than its terms, so its sign is lost to rounding once
# that nears 1/eps; at 2^20 it still has some 20 good bits.
_SPREAD = 2.0**20


class CubicArrays(NamedTuple):
    """Per-row results of :func:`solve_cubics`, in input order.

    ``roots`` is (n, 3) complex: three real roots ascending, or the real
    root, then the pair member with positive imaginary part, then its
    conjugate. ``three_real`` follows the exact sign of the discriminant,
    which ``normalized`` carries scale-free (positive for three distinct
    real roots, negative for a real root and a pair, zero for a repeated
    root), except that a pair which polishing takes to imaginary part
    exactly 0 (a double real root that rounding placed just inside the pair
    region) counts as three real roots. ``boundary`` is
    ``|normalized| <= DEFAULT_BOUNDARY_TOL``.
    """

    roots: np.ndarray
    three_real: np.ndarray
    normalized: np.ndarray
    boundary: np.ndarray


def _polish(x: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    # <= 3 guarded Newton steps per element on the monic polynomial, real or
    # complex, over x of any shape with the (n,) coefficients broadcast along
    # its last axis. An element takes a step only while |f| decreases (at f = 0
    # or f' = 0 the step fails that test); one that fails is retried from the
    # same x and fails again, so it keeps the value where it stopped.
    f = ((x + b) * x + c) * x + d
    for _ in range(3):
        xn = x - f / ((3.0 * x + 2.0 * b) * x + c)
        fn = ((xn + b) * xn + c) * xn + d
        better = abs(fn) < abs(f)
        if not better.any():
            break
        x, f = np.where(better, xn, x), np.where(better, fn, f)
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
    return _polish(ts, b, c, d), 0.0


def _one_pair(p, q, shift, b, c, d):
    # one real root and a conjugate pair, Cardano; the radicand is rounded
    # apart from disc and can dip below 0 next to a double root, and the
    # larger-magnitude cube root avoids cancellation
    s = np.sqrt(np.maximum(0.0, q * q / 4.0 + _cube(p) / 27.0))
    u = np.cbrt(np.where(q != 0.0, -q / 2.0 - np.copysign(s, q), s))
    v = np.where(u != 0.0, -p / (3.0 * u), 0.0)
    # the real root and the +imag member of the pair, polished together
    z = np.zeros((2, p.size), complex)
    z.real = np.stack((u + v, -(u + v) / 2.0)) + shift
    z.imag[1] = math.sqrt(3.0) / 2.0 * abs(u - v)
    real, pair = _polish(z, b, c, d)
    return np.stack((real.real, pair.real, pair.real)), abs(pair.imag)


def _repeated(p, q, shift, b, c, d):
    # disc == 0: a triple root where p == 0 (q == 0 follows), else a double root
    single = np.where(p != 0.0, 3.0 * q / p + shift, shift)
    double = np.where(p != 0.0, -3.0 * q / (2.0 * p) + shift, shift)
    return np.stack((single, double, double)), 0.0


def solve_cubics(b, c, d) -> CubicArrays:
    """All three roots of ``x^3 + b x^2 + c x + d``, over arrays of monic coefficients.

    Every step is taken per element, by mask. Three distinct real roots come
    from the trigonometric method, one real root and a conjugate pair from
    Cardano with cancellation-safe radicals, both Newton-polished (all the
    starts of a branch in one broadcast array); a zero discriminant is a
    triple root (``p == 0``) or a double root. The pair is symmetrized
    exactly (the second member is the mirror of the polished first), so sign
    tests on real parts are reliable.

    Rows whose largest monic coefficient is outside [2^-128, 2^128] are
    solved for ``y = x / 2**k`` (Blinn, "How to Solve a Cubic Equation",
    IEEE CG&A 2006-07), which is exact in binary, so no p^3 or q^2
    underflows to a spurious repeated root or overflows to NaN. A monic
    coefficient that is not finite (a monic form that overflows a float)
    raises ``ValueError``.

    Where one real root ``r0`` exceeds the other two by more than 2^20, the
    discriminant's sign is lost to rounding: those two then come from the
    quadratic factor ``x^2 + s1 x + s0`` (``s0 = -d/r0``, ``s1 = (s0 - c)/r0``),
    which also sets the nature and the boundary flag.
    Where ``s0`` falls below the normal float range, the quadratic is formed
    for ``y = x / 2**k`` at the binary exponent ``k`` of its root scale, so a
    pair of normal size is not lost with it.

    The boundary flag is scale-free: the rescaled discriminant is divided by
    ``max(|p|^3, q^2, (b^2/3)^3)``, the sixth power of the root scale, or,
    after deflation, the quadratic's ``h^2 - s0`` (``h = -s1/2``) by ``h^2 + |s0|``.
    """
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
            x, y = np.ldexp(x, k), np.ldexp(y, k)

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
            r0, s0, s1, c0, d0 = r0[i], s0[i], s1[i], c0[i], d0[i]
            # s0 = -d/r0 can fall below the normal range while the pair, of scale
            # sqrt|s0|, does not: those rows form the quadratic for x = 2^k y, k the
            # binary exponent of max(|s1|, sqrt|s0|); the others keep k = 0 and their bits
            k = np.zeros(i.size, np.intc)
            low = ((abs(s0) < _NORMAL_MIN) & (d0 != 0.0)).nonzero()[0]
            if low.size:
                scale = np.maximum(abs(s1[low]), np.sqrt(abs(d0[low])) / np.sqrt(abs(r0[low])))
                k[low] = np.frexp(scale)[1]
                s0[low] = -np.ldexp(d0[low], -2 * k[low]) / r0[low]
                s1[low] = (np.ldexp(s0[low], k[low]) - np.ldexp(c0[low], -k[low])) / r0[low]
            h = -s1 / 2.0
            dq = h * h - s0  # a quarter of the quadratic's discriminant
            norm = h * h + abs(s0)
            normalized[i] = np.where(norm != 0.0, dq / norm, dq)
            t = h + np.copysign(np.sqrt(dq), h)
            pair = dq < 0.0
            x[0, i] = r0
            x[1:, i] = np.ldexp(np.stack((np.where(pair, h, t), np.where(pair, h, np.where(t != 0.0, s0 / t, 0.0)))), k)
            y[i] = np.ldexp(np.where(pair, np.sqrt(-dq), 0.0), k)

    pair = y > 0.0
    roots = np.zeros((n, 3), complex)
    roots.real = np.where(pair, x, np.sort(x, axis=0, kind="stable")).T
    roots.imag[:, 1] = y
    roots.imag[:, 2] = np.where(pair, -y, 0.0)
    return CubicArrays(roots, ~pair, normalized, abs(normalized) <= DEFAULT_BOUNDARY_TOL)


def companion_roots(b: float, c: float, d: float) -> Tuple[complex, complex, complex]:
    """Roots of ``x^3 + b x^2 + c x + d`` from the companion matrix.

    The cross-check oracle, independent of :func:`solve_cubics`: no closed
    forms, no polishing, no conjugate symmetrization. The eigenvalues come
    sorted by real, then imaginary part; those of three real roots may
    therefore carry tiny spurious imaginary parts.
    """
    comp = np.array([[0.0, 0.0, -d], [1.0, 0.0, -c], [0.0, 1.0, -b]])
    eigs = sorted(np.linalg.eigvals(comp), key=lambda z: (z.real, z.imag))
    return tuple(complex(z) for z in eigs)
