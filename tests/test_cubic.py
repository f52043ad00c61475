"""Cubic kernel tests: closed-form solver against the companion-matrix oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carl import companion_roots, solve_cubics
from carl.cubic import _polish


def monic(c3, c2, c1, c0):
    """Coefficients (b, c, d) of the monic form x^3 + b x^2 + c x + d of c3 x^3 + c2 x^2 + c1 x + c0."""
    return c2 / c3, c1 / c3, c0 / c3


def banded_three_real(solved):
    """The tolerance-banded tag: three real roots outside the boundary band, and inside it."""
    return solved.boundary | (solved.normalized > 0.0)


def residual_scale(b, c, d):
    """Normalization for root residuals: max(1, |b|, |c|, |d|) of the monic form."""
    return max(1.0, abs(b), abs(c), abs(d))


def monic_residual(b, c, d, root):
    """|x^3 + b x^2 + c x + d| at ``root``."""
    return abs(((root + b) * root + c) * root + d)


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
        r = solve_cubics(0.0, -1.0, 0.0)
        roots = r.roots[0].tolist()
        assert r.three_real[0]
        assert [z.real for z in roots] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-14)
        assert all(z.imag == 0.0 for z in roots)

    def test_one_real_one_pair(self):
        # oracle: Newton for the real root, the quadratic cofactor for the pair
        r_real = newton_real_root(0.0, -1.0, 1.0, x0=-1.3)
        pair_re = -r_real / 2.0
        pair_im = math.sqrt(3.0 * r_real**2 - 4.0) / 2.0  # from x^2 + r x + (r^2 - 1)
        r = solve_cubics(0.0, -1.0, 1.0)
        roots = r.roots[0].tolist()
        assert not r.three_real[0]
        assert roots[0].real == pytest.approx(r_real, abs=1e-12)
        assert roots[1] == pytest.approx(complex(pair_re, pair_im), abs=1e-12)
        # frozen literals for downstream reference
        assert roots[0].real == pytest.approx(-1.324717957244746, abs=1e-12)
        assert roots[1] == pytest.approx(0.66235897862237301 + 0.56227951206230124j, abs=1e-12)

    def test_triple_zero(self):
        r = solve_cubics(0.0, 0.0, 0.0)
        assert r.three_real[0]
        assert tuple(r.roots[0].tolist()) == (0j, 0j, 0j)

    def test_triple_one_conditioning(self):
        # (x-1)^3: cube-root conditioning limits accuracy to ~1e-4 in general
        r = solve_cubics(-3.0, 3.0, -1.0)
        assert r.three_real[0]
        for z in r.roots[0].tolist():
            assert z == pytest.approx(1.0, abs=1e-4)

    def test_non_monic_scaling(self):
        # x^3 - x + 1 and -7.5 times it, solved in one call
        r = solve_cubics(*monic(np.array([1.0, -7.5]), np.array([0.0, 0.0]), np.array([-1.0, 7.5]), np.array([1.0, -7.5])))
        assert root_set_distance(r.roots[0].tolist(), r.roots[1].tolist()) < 1e-12

    def test_rejects_non_finite_monic_coefficients(self):
        with pytest.raises(ValueError, match="must be finite"):
            solve_cubics([0.0, math.inf], 1.0, 1.0)


class TestBoundaryTag:
    def test_three_real_discriminant(self):
        # -4p^3 - 27q^2 with p=-1, q=0.1: 4 - 0.27 = 3.73
        c = solve_cubics(0.0, -1.0, 0.1)
        assert banded_three_real(c)[0]
        assert not c.boundary[0]
        assert c.normalized[0] == pytest.approx(3.73, rel=1e-12)

    def test_one_pair_discriminant(self):
        # p=-1, q=1: 4 - 27 = -23
        c = solve_cubics(0.0, -1.0, 1.0)
        assert not banded_three_real(c)[0]
        assert not c.boundary[0]
        assert c.normalized[0] == pytest.approx(-23.0, rel=1e-12)

    def test_boundary_flag_on_triple_root(self):
        c = solve_cubics(0.0, 0.0, 0.0)
        assert banded_three_real(c)[0]
        assert c.boundary[0]
        assert c.normalized[0] == 0.0

    def test_scale_free(self):
        # same polynomial scaled by 1e8 tags identically
        c = solve_cubics(*monic(np.array([1.0, 1e8]), np.array([0.0, 0.0]), np.array([-1.0, -1e8]), np.array([1.0, 1e8])))
        for field in (banded_three_real(c), c.boundary, c.normalized):
            assert field[0] == field[1]

    @pytest.mark.parametrize("r", [2.0**200, 2.0**-200])
    def test_far_scale_exact_triple_root(self, r):
        # (x - r)^3 with every coefficient exact: solved after rescaling by a
        # power of two, where p = q = 0 exactly
        c = solve_cubics(-3.0 * r, 3.0 * r * r, -(r**3))
        assert banded_three_real(c)[0]
        assert c.boundary[0]
        assert c.normalized[0] == 0.0
        assert tuple(c.roots[0].tolist()) == (complex(r, 0.0),) * 3


class TestCompanionOracle:
    def test_agreement_on_reference_cubic(self):
        assert root_set_distance(solve_cubics(0.0, -1.0, 1.0).roots[0].tolist(), companion_roots(0.0, -1.0, 1.0)) < 1e-9

    def test_agreement_on_random_draws(self):
        # the first 10**4 draws of the generator with c3 != 0, excluding the
        # discriminant boundary band where near-double roots limit both routes
        # to far worse than 1e-9; solved in one call, each checked against the oracle
        draws = np.random.default_rng(42).uniform(-10.0, 10.0, size=(10**4 + 100, 4))
        b, c, d = monic(*draws[draws[:, 0] != 0.0].T)
        solved = solve_cubics(b, c, d)
        checked = np.flatnonzero(np.abs(solved.normalized) > 1e-9)[: 10**4]
        assert len(checked) == 10**4
        for k in checked.tolist():
            cubic = (b[k], c[k], d[k])
            dist = root_set_distance(solved.roots[k].tolist(), companion_roots(*cubic))
            assert dist < 1e-9, (cubic, dist)

    def test_near_boundary_agreement_relaxed(self):
        # inside the band the compare tolerance drops to the conditioning limit;
        # 200 cubics with an exact double root, (x-a)^2 (x-b), solved in one call
        a, b = np.random.default_rng(7).uniform(-3, 3, size=(200, 2)).T
        cubics = np.stack((-(2 * a + b), a * a + 2 * a * b, -(a * a * b)))
        solved = solve_cubics(*cubics)
        for k in range(200):
            d = root_set_distance(solved.roots[k].tolist(), companion_roots(*cubics[:, k]))
            assert d < 1e-4, (a[k], b[k], d)


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
    b, c, d = monic(c3, c2, c1, c0)
    result = solve_cubics(b, c, d)
    roots = r1, r2, r3 = result.roots[0].tolist()
    scale = residual_scale(b, c, d)

    for z in roots:
        assert monic_residual(b, c, d, z) <= 1e-9 * scale

    # Vieta: sum = -b, product = -d (monic form)
    root_mag = max(1.0, max(abs(z) for z in roots))
    assert abs((r1 + r2 + r3) - (-b)) <= 1e-10 * max(1.0, abs(b), root_mag)
    assert abs((r1 * r2 * r3) - (-d)) <= 1e-10 * max(1.0, abs(d), root_mag**3)

    if not result.three_real[0]:
        assert r1.imag == 0.0
        assert r2 == r3.conjugate()  # exact, by construction
        assert r2.imag > 0.0
    else:
        assert all(z.imag == 0.0 for z in roots)
        assert r1.real <= r2.real <= r3.real


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    c2=st.floats(-10, 10),
    c1=st.floats(-10, 10),
    c0=st.floats(-10, 10),
)
def test_banded_tag_matches_solver_structure(c2, c1, c0):
    """Outside the boundary band the banded tag equals the solver's structure."""
    solved = solve_cubics(c2, c1, c0)
    if not solved.boundary[0]:
        assert banded_three_real(solved)[0] == solved.three_real[0]


def cubic_from_roots(r1, r2, r3):
    """Monic coefficients (b, c, d) of (x - r1)(x - r2)(x - r3)."""
    return -(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3)


def cubic_from_pair(real, re, im):
    # (x - real)(x^2 - 2 re x + re^2 + im^2)
    s1, s0 = -2.0 * re, re * re + im * im
    return s1 - real, s0 - real * s1, -real * s0


class TestScaleFreeBoundary:
    """The boundary tag depends on the shape of the roots, not on their scale."""

    @pytest.mark.parametrize("k", [10, -10, 40, -40, 300, -300])
    def test_tag_invariant_under_power_of_two_root_scaling(self, k):
        # scaling the roots by 2^k scales each coefficient exactly; 300 draws of
        # each shape, at scale 1 and 2^k, solved in one call
        a, b, c = np.random.default_rng(5).normal(size=(300, 3)).T
        shapes = ((cubic_from_roots, (a, b, c)), (cubic_from_pair, (c, a, abs(b))))
        cubics = [make(*(r * f for r in roots)) for make, roots in shapes for f in (1.0, 2.0**k)]
        solved = solve_cubics(*(np.concatenate(v) for v in zip(*cubics)))
        # (tag, shape, scale, draw)
        tags = np.stack((banded_three_real(solved), solved.boundary)).reshape(2, 2, 2, 300)
        changed = (tags[:, :, 0] != tags[:, :, 1]).any(axis=0)
        assert not changed.any(), [(shapes[s][0].__name__, i, k) for s, i in np.argwhere(changed).tolist()]

    def test_small_roots_are_not_boundary(self):
        # roots 0 and +-1e-15: a plain three-real shape, far from a repeated root
        c = solve_cubics(0.0, -1e-30, 0.0)
        assert banded_three_real(c)[0]
        assert not c.boundary[0]
        assert c.normalized[0] == pytest.approx(4.0, rel=1e-12)

    def test_rounded_triple_root_at_large_scale_is_boundary(self):
        # (x - 1e100)^3 with rounded coefficients: p and q are rounding residues
        c = solve_cubics(-3e100, 3e200, -1e300)
        assert banded_three_real(c)[0]
        assert c.boundary[0]


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
    solved = solve_cubics(*cubic)
    if solved.boundary[0]:
        return
    roots = solved.roots[0].tolist()
    scale = max(abs(z) for z in roots)
    assert root_distance(roots, companion_roots(*cubic)) <= 1e-9 * scale, (cubic, roots)


# log-uniform magnitudes of either sign, 1e-30 to 1e31
log_uniform = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-30, 30))


def polish_case(data):
    """(n,) coefficients b, c, d and (k, n) starts, real or complex, drawn log-uniformly."""
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
    b, c, d = (np.array(data.draw(st.lists(log_uniform, min_size=n, max_size=n))) for _ in range(3))
    x = np.array(data.draw(st.lists(log_uniform, min_size=k * n, max_size=k * n))).reshape(k, n)
    if data.draw(st.booleans()):
        x = x + 1j * np.array(data.draw(st.lists(log_uniform, min_size=k * n, max_size=k * n))).reshape(k, n)
    return x, b, c, d


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_polish_never_raises_the_residual(data):
    """Every element's |f| after the polish is at most its |f| before."""
    x, b, c, d = polish_case(data)
    with np.errstate(all="ignore"):
        before, after = monic_residual(b, c, d, x), monic_residual(b, c, d, _polish(x, b, c, d))
    assert (after <= before).all(), (x, b, c, d)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_polish_of_rows_at_once_equals_each_row_alone(data):
    """A (k, n) array of starts against (n,) coefficients polishes each row as it would alone, to the bit."""
    x, b, c, d = polish_case(data)
    with np.errstate(all="ignore"):
        together = _polish(x, b, c, d)
        alone = [_polish(row, b, c, d) for row in x]
    assert together.dtype == x.dtype
    for row, one in zip(together, alone):
        assert row.tobytes() == one.tobytes(), (x, b, c, d)
