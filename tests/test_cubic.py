"""Cubic kernel tests: closed-form solver against the companion-matrix oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carl import RealCubic, RootNature, classify, companion_roots, solve_cubic
from carl.cubic import monic_residual, residual_scale


def root_set_distance(a, b):
    """Max over best-matched pairs of the relative distance between root sets."""
    best = math.inf
    for perm in itertools.permutations(range(3)):
        worst = max(
            abs(x - b[k]) / max(1.0, abs(x), abs(b[k])) for x, k in zip(a, perm)
        )
        best = min(best, worst)
    return best


def newton_real_root(b, c, d, x0):
    """Independent oracle: plain Newton on the monic cubic from a seed."""
    x = x0
    for _ in range(100):
        f = ((x + b) * x + c) * x + d
        fp = (3.0 * x + 2.0 * b) * x + c
        step = f / fp
        x -= step
        if abs(step) < 1e-16 * max(1.0, abs(x)):
            break
    return x


class TestKnownCubics:
    def test_factorizable(self):
        r = solve_cubic(RealCubic(1.0, 0.0, -1.0, 0.0))
        assert r.nature is RootNature.THREE_REAL
        assert [z.real for z in r.roots] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)
        assert all(z.imag == 0.0 for z in r.roots)

    def test_one_real_one_pair(self):
        # oracle: Newton for the real root, the quadratic cofactor for the pair
        r_real = newton_real_root(0.0, -1.0, 1.0, x0=-1.3)
        pair_re = -r_real / 2.0
        pair_im = math.sqrt(3.0 * r_real**2 - 4.0) / 2.0  # from x^2 + r x + (r^2 - 1)
        r = solve_cubic(RealCubic(1.0, 0.0, -1.0, 1.0))
        assert r.nature is RootNature.ONE_REAL_ONE_PAIR
        assert r.roots[0].real == pytest.approx(r_real, abs=1e-12)
        assert r.roots[1] == pytest.approx(complex(pair_re, pair_im), abs=1e-12)
        # frozen literals for downstream reference
        assert r.roots[0].real == pytest.approx(-1.324717957244746, abs=1e-12)
        assert r.roots[1] == pytest.approx(0.66235897862237301 + 0.56227951206230124j, abs=1e-12)

    def test_triple_zero(self):
        r = solve_cubic(RealCubic(1.0, 0.0, 0.0, 0.0))
        assert r.nature is RootNature.THREE_REAL
        assert r.roots == (0j, 0j, 0j)
        assert r.discriminant == 0.0

    def test_triple_one_conditioning(self):
        # (x-1)^3: cube-root conditioning limits accuracy to ~1e-4 in general
        r = solve_cubic(RealCubic(1.0, -3.0, 3.0, -1.0))
        assert r.nature is RootNature.THREE_REAL
        for z in r.roots:
            assert z == pytest.approx(1.0, abs=1e-4)

    def test_non_monic_scaling(self):
        a = solve_cubic(RealCubic(1.0, 0.0, -1.0, 1.0))
        b = solve_cubic(RealCubic(-7.5, 0.0, 7.5, -7.5))
        assert root_set_distance(a.roots, b.roots) < 1e-12

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            RealCubic(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            RealCubic(float("inf"), 1.0, 1.0, 1.0)


class TestClassify:
    def test_three_real_discriminant(self):
        # -4p^3 - 27q^2 with p=-1, q=0.1: 4 - 0.27 = 3.73
        c = classify(RealCubic(1.0, 0.0, -1.0, 0.1))
        assert c.nature is RootNature.THREE_REAL
        assert not c.boundary
        assert c.discriminant == pytest.approx(3.73, rel=1e-12)

    def test_one_pair_discriminant(self):
        # p=-1, q=1: 4 - 27 = -23
        c = classify(RealCubic(1.0, 0.0, -1.0, 1.0))
        assert c.nature is RootNature.ONE_REAL_ONE_PAIR
        assert not c.boundary
        assert c.discriminant == pytest.approx(-23.0, rel=1e-12)

    def test_boundary_flag_on_triple_root(self):
        c = classify(RealCubic(1.0, 0.0, 0.0, 0.0))
        assert c.nature is RootNature.THREE_REAL
        assert c.boundary
        assert c.discriminant == 0.0

    def test_scale_free(self):
        # same polynomial scaled by 1e8 classifies identically
        a = classify(RealCubic(1.0, 0.0, -1.0, 1.0))
        b = classify(RealCubic(1e8, 0.0, -1e8, 1e8))
        assert a == b

    @pytest.mark.parametrize("r", [2.0**200, 2.0**-200])
    def test_far_scale_exact_triple_root(self, r):
        # (x - r)^3 with every coefficient exact: solved after rescaling by a
        # power of two, where p = q = 0 exactly
        cubic = RealCubic(1.0, -3.0 * r, 3.0 * r * r, -(r**3))
        c = classify(cubic)
        assert c.nature is RootNature.THREE_REAL
        assert c.boundary
        assert c.discriminant == 0.0
        assert solve_cubic(cubic).roots == (complex(r, 0.0),) * 3

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            classify(RealCubic(1.0, 0.0, -1.0, 1.0), tol=0.0)


class TestCompanionOracle:
    def test_agreement_on_reference_cubic(self):
        c = RealCubic(1.0, 0.0, -1.0, 1.0)
        assert root_set_distance(solve_cubic(c).roots, companion_roots(c).roots) < 1e-9

    def test_agreement_on_random_draws(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10**4:
            c3, c2, c1, c0 = rng.uniform(-10.0, 10.0, size=4)
            if c3 == 0.0:
                continue
            cubic = RealCubic(c3, c2, c1, c0)
            # exclude the discriminant boundary band where near-double roots
            # limit both routes to far worse than 1e-9
            if abs(classify(cubic).discriminant) <= 1e-9:
                continue
            d = root_set_distance(solve_cubic(cubic).roots, companion_roots(cubic).roots)
            assert d < 1e-9, (cubic, d)
            checked += 1

    def test_near_boundary_agreement_relaxed(self):
        # inside the band the compare tolerance drops to the conditioning limit
        rng = np.random.default_rng(7)
        for _ in range(200):
            # construct a cubic with an exact double root: (x-a)^2 (x-b)
            a, b = rng.uniform(-3, 3, size=2)
            cubic = RealCubic(1.0, -(2 * a + b), a * a + 2 * a * b, -(a * a * b))
            d = root_set_distance(solve_cubic(cubic).roots, companion_roots(cubic).roots)
            assert d < 1e-4, (a, b, d)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    c3=st.floats(-10, 10).filter(lambda x: abs(x) > 1e-3),
    c2=st.floats(-10, 10),
    c1=st.floats(-10, 10),
    c0=st.floats(-10, 10),
)
@example(1.0, 0.0, 1.631052858413565e-176, 1.631052858413565e-176)  # p^3, q^2 underflow
@example(9.0, 1.055302523068883e-35, 0.0, 0.0)  # double root at 0 near the rescaling band edge
@example(1.0, -1.0649540032124332, 0.0, 0.0)  # Cardano radicand rounds below 0
def test_solver_invariants(c3, c2, c1, c0):
    """Residual bound, Vieta identities, exact conjugacy on arbitrary cubics."""
    cubic = RealCubic(c3, c2, c1, c0)
    result = solve_cubic(cubic)
    scale = residual_scale(cubic)
    b, c, d = cubic.monic()

    r1, r2, r3 = result.roots
    for z in result.roots:
        assert monic_residual(cubic, z) <= 1e-9 * scale

    # Vieta: sum = -b, product = -d (monic form)
    root_mag = max(1.0, max(abs(z) for z in result.roots))
    assert abs((r1 + r2 + r3) - (-b)) <= 1e-10 * max(1.0, abs(b), root_mag)
    assert abs((r1 * r2 * r3) - (-d)) <= 1e-10 * max(1.0, abs(d), root_mag**3)

    if result.nature is RootNature.ONE_REAL_ONE_PAIR:
        assert r1.imag == 0.0
        assert r2 == r3.conjugate()  # exact, by construction
        assert r2.imag > 0.0
    else:
        assert all(z.imag == 0.0 for z in result.roots)
        assert r1.real <= r2.real <= r3.real


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    c2=st.floats(-10, 10),
    c1=st.floats(-10, 10),
    c0=st.floats(-10, 10),
)
def test_classify_matches_solver_structure(c2, c1, c0):
    """Outside the boundary band the banded tag equals the solver's structure."""
    cubic = RealCubic(1.0, c2, c1, c0)
    tag = classify(cubic)
    if not tag.boundary:
        assert tag.nature is solve_cubic(cubic).nature


def cubic_from_roots(r1, r2, r3):
    return RealCubic(1.0, -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))


def cubic_from_pair(real, re, im):
    # (x - real)(x^2 - 2 re x + re^2 + im^2)
    s1, s0 = -2.0 * re, re * re + im * im
    return RealCubic(1.0, s1 - real, s0 - real * s1, -real * s0)


class TestScaleFreeBoundary:
    """The boundary tag depends on the shape of the roots, not on their scale."""

    @pytest.mark.parametrize("k", [10, -10, 40, -40, 300, -300])
    def test_tag_invariant_under_power_of_two_root_scaling(self, k):
        # scaling the roots by 2^k scales each coefficient exactly
        rng = np.random.default_rng(5)
        s = 2.0**k
        for _ in range(300):
            a, b, c = rng.normal(size=3)
            for make, roots in ((cubic_from_roots, (a, b, c)), (cubic_from_pair, (c, a, abs(b)))):
                base, scaled = classify(make(*roots)), classify(make(*(r * s for r in roots)))
                assert (scaled.nature, scaled.boundary) == (base.nature, base.boundary), (make, roots, k)

    def test_small_roots_are_not_boundary(self):
        # roots 0 and +-1e-15: a plain three-real shape, far from a repeated root
        c = classify(RealCubic(1.0, 0.0, -1e-30, 0.0))
        assert c.nature is RootNature.THREE_REAL
        assert not c.boundary
        assert c.discriminant == pytest.approx(4.0, rel=1e-12)

    def test_rounded_triple_root_at_large_scale_is_boundary(self):
        # (x - 1e100)^3 with rounded coefficients: p and q are rounding residues
        c = classify(RealCubic(1.0, -3e100, 3e200, -1e300))
        assert c.nature is RootNature.THREE_REAL
        assert c.boundary


def root_distance(a, b):
    """Max over best-matched pairs of the absolute distance between root sets."""
    return min(max(abs(x - b[k]) for x, k in zip(a, perm)) for perm in itertools.permutations(range(3)))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    exponent=st.floats(-100.0, 100.0),
    a=st.floats(-10.0, 10.0),
    b=st.floats(-10.0, 10.0),
    c=st.floats(-10.0, 10.0),
    pair=st.booleans(),
)
def test_companion_matches_solver_over_log_uniform_root_scales(exponent, a, b, c, pair):
    """The unscaled companion matrix and the solver agree relative to the root scale.

    Roots of order 10^exponent, three real or a real root and a conjugate
    pair; boundary-flagged cubics (near-repeated roots) compare nothing.
    """
    s = 10.0**exponent
    cubic = cubic_from_pair(c * s, a * s, abs(b) * s) if pair else cubic_from_roots(a * s, b * s, c * s)
    if classify(cubic).boundary:
        return
    solved = solve_cubic(cubic).roots
    scale = max(abs(z) for z in solved)
    assert root_distance(solved, companion_roots(cubic).roots) <= 1e-9 * scale, (cubic, solved)
