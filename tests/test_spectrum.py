"""Eigenvalue spectra, growth rates and threshold tests."""

import math
import re
import struct
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carl import (
    RAO,
    WAO,
    ScaledParams,
    critical_alpha_beta,
    critical_delta21,
    gamma_rao_closed_form,
    solve_cubics,
    spectrum_arrays,
    threshold_lhs,
)
from carl.spectrum import _DELTA21_MAX, _alpha_beta_roots, _cbrt, _unstable

SQRT3_HALF = 0.86602540378443865  # sqrt(3)/2
WAO_ZERO_DETUNING_THRESHOLD = 0.38490017945975051  # 2/(3*sqrt(3))
GAMMA_WAO_AB1 = 0.56227951206230124  # |Im| of the pair of x^3 - x + 1


def spectrum_at(d, ab, eta):
    """:func:`spectrum_arrays` at one point, as Python values: (lambdas, gamma, case, boundary)."""
    return tuple(v[0].tolist() for v in spectrum_arrays(d, ab, eta))


class TestEigenSpectrum:
    def test_empty_system_triple_zero(self):
        lambdas, gamma, case, boundary = spectrum_at(0.0, 0.0, RAO)
        assert case == "I"
        assert gamma == 0.0
        assert lambdas == [0j, 0j, 0j]
        assert boundary  # triple root sits on the discriminant boundary

    def test_wao_reference_point(self):
        _, gamma, case, _ = spectrum_at(0.0, 1.0, WAO)
        assert case == "II"
        assert gamma == pytest.approx(GAMMA_WAO_AB1, abs=1e-12)

    def test_rao_reference_point(self):
        assert spectrum_at(0.0, 1.0, RAO)[1] == pytest.approx(SQRT3_HALF, abs=1e-12)

    def test_stable_case_real_parts_vanish_exactly(self):
        lambdas, gamma, case, _ = spectrum_at(3.0, 0.5, RAO)  # below the RAO threshold of 4
        assert case == "I"
        assert all(lam.real == 0.0 for lam in lambdas)
        assert gamma == 0.0

    def test_unstable_case_opposite_real_parts(self):
        lambdas, gamma, case, _ = spectrum_at(1.0, 2.0, WAO)
        assert case == "II"
        reals = sorted(lam.real for lam in lambdas)
        assert reals[0] == -reals[2]  # exact, by conjugate symmetrization
        assert reals[1] == 0.0
        assert gamma == reals[2] > 0.0

    def test_vieta_anchors(self):
        rng = np.random.default_rng(11)
        d, ab, eta = np.array([(rng.uniform(-5, 10), rng.uniform(0, 20), int(rng.integers(0, 2))) for _ in range(500)]).T
        l1, l2, l3 = spectrum_arrays(d, ab, eta)[0].T
        assert (abs((l1 + l2 + l3) - 1j * d) <= 1e-10).all()
        assert (abs(l1 * l2 * l3 - 1j * (ab + eta * d)) <= 1e-10).all()

    def test_dispersion_residual(self):
        rng = np.random.default_rng(12)
        d, ab, eta = np.array([(rng.uniform(-5, 10), rng.uniform(0, 20), int(rng.integers(0, 2))) for _ in range(300)]).T
        lam = spectrum_arrays(d, ab, eta)[0]
        d, ab, eta = d[:, None], ab[:, None], eta[:, None]
        scale = np.maximum.reduce([np.ones_like(d), abs(d), eta, ab + eta * abs(d)])
        resid = abs(lam**3 - 1j * d * lam**2 + eta * lam - 1j * (ab + eta * d))
        assert (resid <= 1e-9 * scale).all()

    def test_huge_alpha_beta_gives_finite_rate(self):
        # cubic coefficients of order 1e300: unscaled p^3 and q^2 overflow to NaN
        lambdas, gamma, case, _ = spectrum_at(1.0, 1e300, WAO)
        with np.errstate(over="ignore"):
            lhs = threshold_lhs(np.float64(1.0), np.float64(1e300), WAO)
        assert lhs > 0.0
        assert case == "II"
        assert all(np.isfinite(lam) for lam in lambdas)
        # far above threshold gamma -> (sqrt(3)/2) * ab^(1/3)
        assert gamma == pytest.approx(SQRT3_HALF * 1e100, rel=1e-12)

    def test_tiny_alpha_beta_rao_stays_unstable(self):
        # RAO at delta21 = 0 is unstable for every ab > 0; at ab = 1e-200 the
        # unscaled discriminant underflows to 0 and reads as a stable triple root
        _, gamma, case, _ = spectrum_at(0.0, 1e-200, RAO)
        assert case == "II"
        assert gamma == pytest.approx(gamma_rao_closed_form(0.0, 1e-200), rel=1e-12)

    @pytest.mark.parametrize("d, eta", [(1e6, RAO), (1e9, RAO), (1e9, WAO), (1e20, WAO), (1e200, WAO)])
    def test_large_detuning_is_stable_with_accurate_small_roots(self, d, eta):
        # one root near d and two of order sqrt(ab/d) (RAO) or 1 (WAO): once
        # the spread squared passes 1/eps the discriminant's sign is rounding
        # (the first three read as case II; at 1e20 the small roots came out
        # as +-7e10, at 1e200 as 0 and 0)
        ab = 1.0
        lambdas, gamma, case, _ = spectrum_at(d, ab, eta)
        assert case == "I"
        assert gamma == 0.0
        xs = sorted((-1j * lam for lam in lambdas), key=lambda x: x.real)  # lambda = i x
        assert all(x.imag == 0.0 for x in xs)
        assert xs[2].real == pytest.approx(d, rel=1e-12)
        small = np.sqrt(ab / d) if eta == RAO else 1.0 + ab / (2.0 * d)
        assert xs[0].real == pytest.approx(-small, rel=1e-9)
        assert xs[1].real == pytest.approx(small, rel=1e-9)

    def test_zero_alpha_beta_rao_double_root_is_stable(self):
        # x^2 (x - 0.5): the double root came out as a pair with gamma 1.5e-10
        lambdas, gamma, case, _ = spectrum_at(0.5, 0.0, RAO)
        assert case == "I"
        assert gamma == 0.0
        assert sorted(abs(lam) for lam in lambdas) == [0.0, 0.0, 0.5]

    def test_gamma_stable_under_tolerance_refinement(self):
        # the boundary band does not feed the rate: the banded tag is the same
        # at a 10x stricter band, and so is gamma
        points = [(0.0, 1.0, 1), (2.0, 5.0, 0), (1.5, 0.3, 1)]
        d, ab, eta = (np.array(v, dtype=float) for v in zip(*points))
        normalized = solve_cubics(-d, -eta, ab + eta * d).normalized
        assert ((normalized >= -1e-13) == (normalized >= -1e-12)).all()
        gamma = spectrum_arrays(d, ab, eta)[1]
        assert (spectrum_arrays(d, ab, eta)[1] == gamma).all()


class TestGammaRaoClosedForm:
    def test_zero_detuning(self):
        assert gamma_rao_closed_form(0.0, 1.0) == pytest.approx(SQRT3_HALF, abs=1e-14)
        # gamma = (sqrt(3)/2) * ab^(1/3) at zero detuning
        assert gamma_rao_closed_form(0.0, 8.0) == pytest.approx(SQRT3_HALF * 2.0, rel=1e-14)

    def test_threshold_boundary_is_zero(self):
        assert gamma_rao_closed_form(3.0, 4.0) == 0.0  # d = 0 exactly
        assert gamma_rao_closed_form(3.0, 3.999999) == 0.0  # just below
        assert gamma_rao_closed_form(3.0, 4.0001) > 0.0

    def test_zero_gain_parameter(self):
        assert gamma_rao_closed_form(5.0, 0.0) == 0.0
        assert gamma_rao_closed_form(-5.0, 0.0) == 0.0

    def test_matches_numeric_spectrum_on_grid(self):
        # the acceptance suite runs the full 200x200 grid; spot-check here
        d, ab = (v.ravel() for v in np.meshgrid(np.linspace(-5.0, 10.0, 40), np.linspace(0.25, 20.0, 40), indexing="ij"))
        numeric = spectrum_arrays(d, ab, RAO)[1]
        worst = max(abs(gamma_rao_closed_form(x, y) - g) for x, y, g in zip(d, ab, numeric.tolist()))
        assert worst <= 1e-8

    def test_negative_detuning_branch(self):
        # d > 1 exercises the signed-cube-root branch of the two-thirds powers
        numeric = spectrum_at(-3.0, 1.0, RAO)[1]
        assert gamma_rao_closed_form(-3.0, 1.0) == pytest.approx(numeric, abs=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            gamma_rao_closed_form(0.0, -1.0)
        with pytest.raises(ValueError):
            gamma_rao_closed_form(float("nan"), 1.0)


class TestThresholdLhs:
    def test_rao_reduction(self):
        # eta=0 reduces to (ab/2)^2 - ab*delta21^3/27
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = rng.uniform(-5, 10)
            ab = rng.uniform(0, 20)
            expected = (ab / 2.0) ** 2 - ab * d**3 / 27.0
            assert threshold_lhs(d, ab, 0) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rao_sign_flips_at_threshold(self):
        for d in (0.5, 1.0, 2.0, 3.0):
            thr = 4.0 * d**3 / 27.0
            assert threshold_lhs(d, thr * 1.0001, 0) > 0.0
            assert threshold_lhs(d, thr * 0.9999, 0) < 0.0

    def test_wao_zero_detuning_reduction(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ab = rng.uniform(0, 5)
            assert threshold_lhs(0.0, ab, 1) == pytest.approx((ab / 2.0) ** 2 - 1.0 / 27.0, rel=1e-12, abs=1e-15)
        assert threshold_lhs(0.0, WAO_ZERO_DETUNING_THRESHOLD * 1.001, 1) > 0.0
        assert threshold_lhs(0.0, WAO_ZERO_DETUNING_THRESHOLD * 0.999, 1) < 0.0

    def test_sign_agrees_with_case_tag(self):
        rng = np.random.default_rng(5)
        points = []
        while len(points) < 2000:
            d = rng.uniform(-5, 10)
            ab = rng.uniform(1e-6, 20)
            eta = int(rng.integers(0, 2))
            lhs = float(threshold_lhs(d, ab, eta))
            if abs(lhs) <= 1e-10:
                continue
            points.append((d, ab, eta, lhs))
        d, ab, eta, lhs = np.array(points).T
        case = spectrum_arrays(d, ab, eta)[2]
        wrong = (lhs > 0.0) != (case == "II")
        assert not wrong.any(), np.array(points)[wrong]

    def test_array_evaluation(self):
        d = np.linspace(-2, 6, 11)
        out = threshold_lhs(d, 1.0, 1)
        assert out.shape == d.shape
        assert float(out[0]) == pytest.approx(float(threshold_lhs(float(d[0]), 1.0, 1)))

    def test_huge_alpha_beta_saturates_without_overflow_error(self):
        # the unfactored form raised OverflowError on Python floats here
        assert threshold_lhs(1.0, 1e300, WAO) == np.inf
        assert threshold_lhs(1.0, -1e300, RAO) == np.inf

    def test_huge_detuning_is_a_named_error(self):
        # the unfactored form returned NaN at delta21 = -1e200
        with pytest.raises(ValueError, match=r"delta21 = -1e\+200 .*1e\+100"):
            threshold_lhs(-1e200, 1.0, WAO)
        with pytest.raises(ValueError, match="delta21"):
            critical_alpha_beta(np.inf, RAO)

    def test_no_nan_on_log_uniform_draws(self):
        rng = np.random.default_rng(8)
        n = 20000
        d = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 100, n)
        ab = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
        for eta in (RAO, WAO):
            values = threshold_lhs(d, ab, eta)
            assert not np.any(np.isnan(values))


class TestCriticalAlphaBeta:
    def test_wao_zero_detuning(self):
        value = critical_alpha_beta(0.0, WAO)
        assert value == pytest.approx(WAO_ZERO_DETUNING_THRESHOLD, abs=1e-9)

    def test_rao_threshold_law(self):
        for d in (0.5, 1.0, 2.0, 3.0):
            assert critical_alpha_beta(d, RAO) == pytest.approx(4.0 * d**3 / 27.0, abs=1e-9)

    def test_always_unstable_returns_none(self):
        assert critical_alpha_beta(-1.0, RAO) is None
        assert critical_alpha_beta(0.0, RAO) is None
        # WAO recoil resonance: unstable for every positive alpha_beta
        assert critical_alpha_beta(1.0, WAO) is None

    def test_wao_negative_detuning_has_finite_threshold(self):
        # at delta21 = -1 the lhs is x^2/4 - (8/27) x: crossing at 32/27
        value = critical_alpha_beta(-1.0, WAO)
        assert value == pytest.approx(32.0 / 27.0, abs=1e-9)

    def test_relative_accuracy_next_to_recoil_resonance(self):
        # an absolute bisection tolerance of 1e-10 returned 2.96e-11 here
        value = critical_alpha_beta(1.0 + 1e-6, WAO)
        assert value == pytest.approx(5.000001249621916e-13, rel=1e-6)
        # a scan floor of 1e-13 returned None, though the threshold is 5e-15
        assert critical_alpha_beta(1.0 + 1e-7, WAO) is not None


class TestCriticalDelta21:
    def test_rao_single_edge(self):
        edges = critical_delta21(1.0, RAO)
        assert len(edges) == 1
        assert edges[0] == pytest.approx(1.8898815748423097, abs=1e-9)  # (27/4)^(1/3)

    def test_rao_edge_inverts_threshold_law(self):
        for ab in (0.5, 1.0, 5.0):
            edges = critical_delta21(ab, RAO)
            assert len(edges) == 1
            assert edges[0] == pytest.approx((27.0 * ab / 4.0) ** (1.0 / 3.0), abs=1e-8)

    def test_wao_small_ab_band_brackets_recoil_resonance(self):
        edges = critical_delta21(0.1, WAO)
        assert len(edges) == 2
        assert edges[0] < 1.0 < edges[1]
        # gamma at zero detuning must vanish: 0.1 < 2/(3 sqrt 3)
        assert spectrum_at(0.0, 0.1, WAO)[1] == 0.0

    def test_wao_ab1_lower_edge_negative(self):
        edges = critical_delta21(1.0, WAO)
        assert any(e < 0.0 for e in edges)
        assert spectrum_at(0.0, 1.0, WAO)[1] > 0.0

    def test_edges_are_actual_case_flips(self):
        cases = [(0.1, WAO), (1.0, WAO), (1.0, RAO)]
        d, ab, eta = np.array([(edge, ab, eta) for ab, eta in cases for edge in critical_delta21(ab, eta)]).T
        below, above = (spectrum_arrays(d + side, ab, eta)[2] for side in (-1e-6, 1e-6))
        assert (below != above).all()

    def test_rejects_nonpositive_ab(self):
        with pytest.raises(ValueError):
            critical_delta21(0.0, WAO)

    def test_rejects_ab_outside_normal_range(self):
        # alpha_beta must be a normal float, at most 1e150
        with pytest.raises(ValueError, match="alpha_beta"):
            critical_delta21(1e-310, WAO)
        with pytest.raises(ValueError, match="alpha_beta"):
            critical_delta21(1e200, RAO)

    @pytest.mark.parametrize("window", [(20.0, -10.0), (1.0, 1.0)])
    def test_rejects_window_that_is_not_increasing(self, window):
        with pytest.raises(ValueError, match=re.escape(f"window must be increasing and inside |delta21| <= 1e+100, got {window}")):
            critical_delta21(1.0, RAO, window=window)

    def test_band_narrower_than_old_scan_step_off_grid(self):
        # a 1e-3 scan found this band only when 1.0 was one of its nodes
        edges = critical_delta21(1e-8, WAO, window=(-10.0005, 20.0005))
        assert len(edges) == 2
        assert edges[0] < 1.0 < edges[1]
        below, above = (spectrum_arrays(np.array(edges) + side, 1e-8, WAO)[2] for side in (-1e-6, 1e-6))
        assert (below != above).all()


class TestModuleProperties:
    def test_wao_gain_band_second_threshold(self):
        # below the zero-detuning threshold there is still gain off resonance
        ab = np.array([0.05, 0.2, 0.35])[:, None]
        gamma = spectrum_arrays(np.linspace(0.0, 2.0, 401), ab, WAO)[1].reshape(3, 401)
        assert (gamma[:, 0] == 0.0).all()  # delta21 = 0 is the grid's first node
        assert (gamma.max(axis=1) > 0.0).all()

    def test_classical_limit_consistency(self):
        rng = np.random.default_rng(6)
        d, ab = np.array([(rng.uniform(-5, 10), rng.uniform(0.01, 20)) for _ in range(300)]).T
        numeric = spectrum_arrays(d, ab, RAO)[1]
        for x, y, g in zip(d.tolist(), ab.tolist(), numeric.tolist()):
            assert abs(gamma_rao_closed_form(x, y) - g) <= 1e-8


def test_log_uniform_spectrum_matches_closed_form_threshold():
    """Finite eigenvalues whose class matches the closed-form threshold, or a named error.

    |delta21| and alpha*beta span 300 decades; boundary-flagged points carry
    no class to compare.
    """
    rng = np.random.default_rng(21)
    n = 4000
    points = []
    for _ in range(n):
        d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150, 150))
        ab = float(10.0 ** rng.uniform(-150, 150))
        eta = int(rng.integers(0, 2))
        try:
            points.append((d, ab, eta, critical_alpha_beta(d, eta) or 0.0))
        except ValueError:
            continue
    d, ab, eta, threshold = np.array(points).T
    lambdas, gamma, case, boundary = spectrum_arrays(d, ab, eta)
    assert np.isfinite(lambdas).all() and np.isfinite(gamma).all()
    wrong = ~boundary & ((case == "II") != (ab > threshold))
    assert not wrong.any(), np.array(points)[wrong]
    assert (~boundary).sum() >= n // 4


def test_large_detuning_class_matches_closed_form_threshold_inside_boundary_band():
    """Large |delta21| puts one root far from the other two, and the points land
    in the boundary band, where the test above compares no class. Away from
    the threshold itself the class must still be right.
    """
    rng = np.random.default_rng(11)
    points = []
    for _ in range(2000):
        d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 100))
        ab = float(10.0 ** rng.uniform(-10, 10))
        eta = int(rng.integers(0, 2))
        threshold = critical_alpha_beta(d, eta) or 0.0
        if abs(ab - threshold) <= 1e-3 * max(ab, threshold):
            continue
        points.append((d, ab, eta, threshold))
    d, ab, eta, threshold = np.array(points).T
    wrong = (spectrum_arrays(d, ab, eta)[2] == "II") != (ab > threshold)
    assert not wrong.any(), np.array(points)[wrong]
    assert len(points) >= 1900


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    d=st.floats(-5, 10),
    ab=st.floats(0.0, 20.0),
    eta=st.sampled_from([RAO, WAO]),
    split_log2=st.integers(-8, 8),
)
def test_spectrum_depends_only_on_product(d, ab, eta, split_log2):
    """(alpha, beta) -> (c*alpha, beta/c) leaves the spectrum unchanged.

    Power-of-two splits keep the float product exactly equal, so the
    comparison isolates the invariant from rounding of alpha*beta itself.
    """
    split = 2.0**split_log2
    base, other = (
        spectrum_at(p.delta21, p.alpha_beta, p.eta)
        for p in (ScaledParams(d, ab, 1.0, eta), ScaledParams(d, ab * split, 1.0 / split, eta))
    )
    assert other[1] == pytest.approx(base[1], abs=1e-12)
    for a, b in zip(base[0], other[0]):
        assert a == pytest.approx(b, abs=1e-10)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(log_d=st.floats(0.0, 100.0), log_ab=st.floats(-300.0, -100.0))
@example(log_d=100.0, log_ab=-300.0)  # s0 = ab/|delta21| = 1e-400 underflowed to 0: case I, gamma 0
def test_rao_rate_where_deflated_pair_leaves_normal_range(log_d, log_ab):
    """Far below resonance the pair is deflated from the quadratic with
    ``s0 = ab/|delta21|``, below the normal float range for about a fifth of
    this box. The rate ``sqrt(s0)`` is not, and must match the closed form.
    Measured worst relative error: 4.4e-16 in 200000 log-uniform draws.
    """
    d, ab = -(10.0**log_d), 10.0**log_ab
    _, gamma, case, boundary = spectrum_at(d, ab, RAO)
    assert case == "II" and not boundary
    assert gamma == pytest.approx(gamma_rao_closed_form(d, ab), rel=1e-15, abs=0.0)


@pytest.mark.filterwarnings("error")
class TestGammaRaoClosedFormAtExtremes:
    """The RAO closed form at extreme scales: right, or a named error; never NaN,
    a false 0, a bare OverflowError or a RuntimeWarning. The references are
    spectrum_arrays's rates (the last one matches 60-digit mpmath)."""

    @pytest.mark.parametrize("to_float", [float, np.float64])
    @pytest.mark.parametrize(
        "delta21, alpha_beta, expected",
        [
            (-1e100, 1e-150, 1e-125),
            (-1e60, 1e-150, 1e-105),
            (-1e99, 1e-10, 3.1622776601683795e-55),
            (-129.12305433359612, 1.4241876651161433e21, 9743605.794853207),
        ],
    )
    def test_pinned_points(self, to_float, delta21, alpha_beta, expected):
        d, ab = to_float(delta21), to_float(alpha_beta)
        assert spectrum_at(d, ab, RAO)[1] == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert gamma_rao_closed_form(d, ab) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("to_float", [float, np.float64])
    @pytest.mark.parametrize("delta21", [1e200, -1e200])
    def test_huge_detuning_is_named_error(self, to_float, delta21):
        with pytest.raises(ValueError, match="delta21"):
            gamma_rao_closed_form(to_float(delta21), to_float(1.0))

    @pytest.mark.parametrize("delta21, alpha_beta", [(1e100, 1e-100), (1e200, 1.0)])
    def test_wao_spectrum_of_numpy_scalars_saturates_silently(self, delta21, alpha_beta):
        lambdas, _, case, _ = spectrum_at(np.float64(delta21), np.float64(alpha_beta), WAO)
        assert case == "I"
        assert all(np.isfinite(lam) for lam in lambdas)

    def test_log_uniform_matches_spectrum(self):
        # 40 000 scratch draws gave at most 5.9e-15 of the root scale, from the
        # pow-based cube root at large alpha_beta; the bound leaves 3x of room
        rng = np.random.default_rng(31)
        draws = [(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150, 100), 10.0 ** rng.uniform(-150, 150)) for _ in range(4000)]
        d, ab = np.array(draws).T
        lambdas, gamma = spectrum_arrays(d, ab, RAO)[:2]
        scale = abs(lambdas).max(axis=1)
        for x, y, g, s in zip(d.tolist(), ab.tolist(), gamma.tolist(), scale.tolist()):
            assert abs(gamma_rao_closed_form(x, y) - g) <= 2e-14 * s, (x, y, g)


class TestSpectrumArrays:
    def test_one_call_equals_pointwise_calls(self):
        """One array call gives, bit for bit, what one-element calls give.

        Log-uniform magnitudes put some rows into the power-of-two rescaling
        and the dominant-root deflation and leave others out, so a step
        applied to the whole array instead of per row shows up here.
        """
        rng = np.random.default_rng(41)
        n = 4000
        d = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 100, n)
        ab = 10.0 ** rng.uniform(-150, 150, n)
        eta = rng.integers(0, 2, n)
        pinned = [(1.5, 0.5, RAO), (0.0, 0.0, RAO), (0.5, 0.0, RAO), (1e200, 1.0, WAO), (1.0, 1e300, WAO)]
        d = np.concatenate([d, [p[0] for p in pinned]])
        ab = np.concatenate([ab, [p[1] for p in pinned]])
        eta = np.concatenate([eta, [p[2] for p in pinned]])
        lambdas, gamma, case, boundary = spectrum_arrays(d, ab, eta)
        for i in range(d.size):
            one = spectrum_arrays(d[i], ab[i], int(eta[i]))
            assert one[0].tobytes() == lambdas[i].tobytes(), (d[i], ab[i], eta[i])
            assert one[1].tobytes() == gamma[i].tobytes()
            assert (one[2][0], one[3][0]) == (case[i], boundary[i])
        # the exact RAO double root: x^3 - 1.5 x^2 + 0.5 = (x - 1)^2 (x + 0.5)
        assert tuple(lambdas[n]) == (-0.5j, 1j, 1j)
        assert case[n] == "I" and boundary[n]

    @pytest.mark.parametrize(
        "args, message",
        [
            (([0.0, 1.0], [1.0, -1.0], RAO), "alpha_beta must be >= 0, got -1.0"),
            (([0.0, np.inf], 1.0, RAO), "delta21 must be finite"),
            ((0.0, [1.0, np.nan], WAO), "alpha_beta must be finite"),
            ((0.0, 1.0, [0, 2]), "eta must be exactly 0 (RAO) or 1 (WAO), got 2"),
            ((0.0, 1.0, True), "eta must be exactly 0 (RAO) or 1 (WAO), got True"),
            ((0.0, 1.0, [False, True]), "eta must be exactly 0 (RAO) or 1 (WAO), got False"),
            # the constant term of the cubic overflows while every input is finite
            (([0.0, 1e308], [1.0, 1e308], WAO),
             "alpha_beta + eta*delta21 must be finite, got delta21 = 1e+308, alpha_beta = 1e+308, eta = 1"),
        ],
    )
    def test_bad_inputs_are_named_errors(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            spectrum_arrays(*args)


def test_small_rao_controls_raise_no_spurious_boundary_flags():
    """Roots well below 1 are no reason for a boundary flag: near the RAO
    threshold's cusp at delta21 = 0 the flag must mark only points next to
    the threshold itself."""
    rng = np.random.default_rng(7)
    d = rng.uniform(-1e-2, 1e-2, 2000)
    ab = 10.0 ** rng.uniform(-12, -2, 2000)
    boundary = spectrum_arrays(d, ab, RAO)[3]
    spurious = []
    for x, y in zip(d[boundary], ab[boundary]):
        threshold = critical_alpha_beta(x, RAO) or 0.0
        if abs(y - threshold) > 0.1 * max(y, threshold):
            spurious.append((x, y))
    assert spurious == []


def _decimal_cbrt(x: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return abs(Decimal(x)) ** (Decimal(1) / 3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=st.floats(-1e308, 1e308))
@example(x=6.532959754169764e149 / 4.0)  # the cube root in the pinned gamma_rao_closed_form point
def test_cbrt_within_one_ulp(x):
    got = _cbrt(x)
    assert math.copysign(1.0, got) == math.copysign(1.0, x)
    if x != 0.0:
        ref = _decimal_cbrt(x)
        assert abs(Decimal(abs(got)) - ref) <= Decimal(math.ulp(float(ref)))


def test_closed_form_at_large_alpha_beta_within_4_ulps():
    # 60-digit reference; pow's cube root alone gave 7.514509294399335e49, about 30 ulps off
    expected = 7.5145092943993853e49
    got = gamma_rao_closed_form(-28.735343225800317, 6.532959754169764e149)
    assert abs(got - expected) <= 4 * math.ulp(expected)


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


def exact_lhs_times_108(d, ab, eta):
    """``108*threshold_lhs`` from its docstring polynomial, in fractions: with
    ``u = d/3``, ``(ab/2)^2 + ab*u*(eta - u^2) - eta*(1 - 9u^2)^2/27``."""
    d, ab = Fraction(d), Fraction(ab)
    u = d / 3
    return 108 * ((ab / 2) ** 2 + ab * u * (eta - u * u) - eta * (1 - 9 * u * u) ** 2 / 27)


def exact_sign(x):
    return (x > 0) - (x < 0)


FINITE_FROM_BITS = st.integers(0, 2**64 - 1).map(lambda n: struct.unpack("<d", struct.pack("<Q", n))[0]).filter(math.isfinite)
LOG_UNIFORM = st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-320.0, 300.0))


@pytest.mark.parametrize("eta", [RAO, WAO])
@settings(max_examples=300, derandomize=True, deadline=None)
@given(d=st.one_of(FINITE_FROM_BITS, LOG_UNIFORM), ab=st.one_of(FINITE_FROM_BITS, LOG_UNIFORM).map(abs))
@example(d=2.75, ab=2.25)  # on the WAO boundary: x = 2 in ab = (x^2 - 1)^2/2x, d = (3x^2 - 1)/2x
@example(d=3.0, ab=4.0)  # on the RAO boundary ab = 4d^3/27
@example(d=1.0, ab=sys.float_info.min)
@example(d=-sys.float_info.max, ab=sys.float_info.max)
@example(d=5e-324, ab=5e-324)
def test_unstable_is_the_exact_sign_of_the_indicator(d, ab, eta):
    assert _unstable(d, ab, eta) == exact_sign(exact_lhs_times_108(d, ab, eta))
    # d as a pair (p, q): the midpoint to its upper neighbour, which is no double
    mid = Fraction(d) + Fraction(math.ulp(d)) / 2
    assert _unstable(mid.as_integer_ratio(), ab, eta) == exact_sign(exact_lhs_times_108(mid, ab, eta))


CARLBENCH_EDGE_QUERIES = [3.3018366875322775, 0.6739461058938351, 0.008238095108849326, 2.2467024527091355, 3.507841285904287, 4.01735951995301]


@pytest.mark.parametrize("eta", [RAO, WAO])
@settings(max_examples=400, derandomize=True, deadline=None)
@given(ab=st.floats(math.log10(sys.float_info.min), 150.0).map(lambda e: min(max(10.0**e, sys.float_info.min), 1e150)))
@example(ab=1e-8)  # the workload's band narrower than any scan step
@example(ab=0.05)  # the threshold map's lower window edge
@example(ab=40.0)  # and its upper one
@example(ab=WAO_ZERO_DETUNING_THRESHOLD)  # the WAO lower edge next to delta21 = 0, the slowest query
@example(ab=1e30)
@example(ab=1e100)  # the WAO lower edge next to -1e100, the end of the detuning range
@example(ab=2.0955345732413593e101)
@example(ab=1e150)
@example(ab=sys.float_info.min)  # both WAO edges round to 1.0
@example(ab=CARLBENCH_EDGE_QUERIES[0])  # the carlbench queries whose edges moved to the nearest double
@example(ab=CARLBENCH_EDGE_QUERIES[1])
@example(ab=CARLBENCH_EDGE_QUERIES[2])
@example(ab=CARLBENCH_EDGE_QUERIES[3])
@example(ab=CARLBENCH_EDGE_QUERIES[4])
@example(ab=CARLBENCH_EDGE_QUERIES[5])
def test_every_edge_is_the_double_nearest_its_root(ab, eta):
    """Each edge's true root lies between the midpoints to the edge's two
    neighbouring doubles, by the exact sign of the indicator there."""
    lhs = lambda x: exact_lhs_times_108(x, ab, eta)
    edges = critical_delta21(ab, eta, window=(-_DELTA21_MAX, _DELTA21_MAX))
    if eta == RAO:
        # unstable below the one edge, stable above it
        past_root = [lambda x: -lhs(x)]
    else:
        # delta21 = 1 is unstable, and each side of it holds one edge; the
        # lower one is dropped where it rounds below -1e100
        assert lhs(1) > 0
        past_root = [lambda x: lhs(min(x, Fraction(1))), lambda x: -lhs(max(x, Fraction(1)))]
        if lhs((Fraction(-_DELTA21_MAX) + Fraction(math.nextafter(-_DELTA21_MAX, -math.inf))) / 2) >= 0:
            past_root = past_root[1:]
    assert len(edges) == len(past_root) and edges == sorted(edges)
    for edge, past in zip(edges, past_root):
        below, above = ((Fraction(edge) + Fraction(math.nextafter(edge, side))) / 2 for side in (-math.inf, math.inf))
        assert past(below) <= 0 <= past(above), (edge, ab, eta)


def assert_one_point_roots_equal_the_array_roots(d, eta):
    r1 = _alpha_beta_roots(d, eta)[0]
    assert _bits([critical_alpha_beta(d, eta)]) == _bits([float(r1) or None])


CRITICAL_DETUNINGS = [0.0, -0.0, 1.0, -1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-52, -1.0 + 2.0**-52, -1.0 - 2.0**-52, 1e100, -1e100]


@pytest.mark.parametrize("eta", [RAO, WAO])
@pytest.mark.parametrize("d", CRITICAL_DETUNINGS)
def test_one_point_roots_equal_the_array_roots_at_edge_detunings(d, eta):
    assert_one_point_roots_equal_the_array_roots(d, eta)


def test_one_point_roots_equal_the_array_roots_on_a_dense_grid():
    d = np.concatenate([np.linspace(-6.0, 6.0, 12001), np.linspace(0.999, 1.001, 2001)])
    for eta in (RAO, WAO):
        got = [critical_alpha_beta(v, eta) for v in d.tolist()]
        assert _bits(got) == _bits([x or None for x in _alpha_beta_roots(d, eta)[0].tolist()])


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    log_d=st.floats(-320.0, 100.0),
    sign=st.sampled_from([-1.0, 1.0]),
    eta=st.sampled_from([RAO, WAO]),
)
def test_one_point_roots_equal_the_array_roots(log_d, sign, eta):
    assert_one_point_roots_equal_the_array_roots(sign * 10.0**log_d, eta)


@pytest.mark.parametrize(
    "query",
    [lambda eta: critical_alpha_beta(0.0, eta), lambda eta: threshold_lhs(0.0, 1.0, eta), lambda eta: critical_delta21(1.0, eta)],
    ids=["critical_alpha_beta", "threshold_lhs", "critical_delta21"],
)
def test_eta_other_than_0_or_1_is_a_named_error(query):
    with pytest.raises(ValueError, match=re.escape("eta must be exactly 0 (RAO) or 1 (WAO), got 2")):
        query(2)


@pytest.mark.parametrize("eta", [True, False, np.True_])
@pytest.mark.parametrize(
    "query",
    [lambda eta: critical_alpha_beta(0.5, eta), lambda eta: threshold_lhs(0.0, 1.0, eta), lambda eta: critical_delta21(1.0, eta)],
    ids=["critical_alpha_beta", "threshold_lhs", "critical_delta21"],
)
def test_bool_eta_is_a_named_error(query, eta):
    # a bool equals 0 or 1 but names no regime, as in ScaledParams and spectrum_arrays
    with pytest.raises(ValueError, match=re.escape(f"eta must be exactly 0 (RAO) or 1 (WAO), got {eta!r}")):
        query(eta)


@pytest.mark.parametrize("eta", [RAO, WAO])
def test_critical_alpha_beta_nan_is_a_named_error(eta):
    with pytest.raises(ValueError, match=r"delta21 = nan is out of range"):
        critical_alpha_beta(math.nan, eta)
