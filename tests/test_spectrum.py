"""Spectrum, growth rate and threshold tests."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carl import (
    RAO,
    WAO,
    ScaledParams,
    SpectrumCase,
    critical_alpha_beta,
    critical_delta21,
    eigen_spectrum,
    gamma_rao_closed_form,
    threshold_lhs,
)
from carl.spectrum import _cbrt, spectrum_arrays

SQRT3_HALF = 0.86602540378443865  # sqrt(3)/2
WAO_ZERO_DETUNING_THRESHOLD = 0.38490017945975051  # 2/(3*sqrt(3))
GAMMA_WAO_AB1 = 0.56227951206230124  # |Im| of the pair of x^3 - x + 1


def from_product(d, ab, eta):
    return ScaledParams.from_product(d, ab, eta)


class TestEigenSpectrum:
    def test_empty_system_triple_zero(self):
        sp = eigen_spectrum(from_product(0.0, 0.0, RAO))
        assert sp.case is SpectrumCase.STABLE
        assert sp.gamma == 0.0
        assert sp.lambdas == (0j, 0j, 0j)
        assert sp.boundary  # triple root sits on the discriminant boundary

    def test_wao_reference_point(self):
        sp = eigen_spectrum(from_product(0.0, 1.0, WAO))
        assert sp.case is SpectrumCase.UNSTABLE
        assert sp.gamma == pytest.approx(GAMMA_WAO_AB1, abs=1e-12)

    def test_rao_reference_point(self):
        sp = eigen_spectrum(from_product(0.0, 1.0, RAO))
        assert sp.gamma == pytest.approx(SQRT3_HALF, abs=1e-12)

    def test_stable_case_real_parts_vanish_exactly(self):
        sp = eigen_spectrum(from_product(3.0, 0.5, RAO))  # below the RAO threshold of 4
        assert sp.case is SpectrumCase.STABLE
        assert all(lam.real == 0.0 for lam in sp.lambdas)
        assert sp.gamma == 0.0

    def test_unstable_case_opposite_real_parts(self):
        sp = eigen_spectrum(from_product(1.0, 2.0, WAO))
        assert sp.case is SpectrumCase.UNSTABLE
        reals = sorted(lam.real for lam in sp.lambdas)
        assert reals[0] == -reals[2]  # exact, by conjugate symmetrization
        assert reals[1] == 0.0
        assert sp.gamma == reals[2] > 0.0

    def test_vieta_anchors(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d = rng.uniform(-5, 10)
            ab = rng.uniform(0, 20)
            eta = int(rng.integers(0, 2))
            sp = eigen_spectrum(from_product(d, ab, eta))
            l1, l2, l3 = sp.lambdas
            assert abs((l1 + l2 + l3) - 1j * d) <= 1e-10
            assert abs(l1 * l2 * l3 - 1j * (ab + eta * d)) <= 1e-10

    def test_dispersion_residual(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d = rng.uniform(-5, 10)
            ab = rng.uniform(0, 20)
            eta = int(rng.integers(0, 2))
            sp = eigen_spectrum(from_product(d, ab, eta))
            scale = max(1.0, abs(d), float(eta), ab + eta * abs(d))
            for lam in sp.lambdas:
                resid = abs(lam**3 - 1j * d * lam**2 + eta * lam - 1j * (ab + eta * d))
                assert resid <= 1e-9 * scale

    def test_huge_alpha_beta_gives_finite_rate(self):
        # cubic coefficients of order 1e300: unscaled p^3 and q^2 overflow to NaN
        sp = eigen_spectrum(from_product(1.0, 1e300, WAO))
        with np.errstate(over="ignore"):
            lhs = threshold_lhs(np.float64(1.0), np.float64(1e300), WAO)
        assert lhs > 0.0
        assert sp.case is SpectrumCase.UNSTABLE
        assert all(np.isfinite(lam) for lam in sp.lambdas)
        # far above threshold gamma -> (sqrt(3)/2) * ab^(1/3)
        assert sp.gamma == pytest.approx(SQRT3_HALF * 1e100, rel=1e-12)

    def test_tiny_alpha_beta_rao_stays_unstable(self):
        # RAO at delta21 = 0 is unstable for every ab > 0; at ab = 1e-200 the
        # unscaled discriminant underflows to 0 and reads as a stable triple root
        sp = eigen_spectrum(from_product(0.0, 1e-200, RAO))
        assert sp.case is SpectrumCase.UNSTABLE
        assert sp.gamma == pytest.approx(gamma_rao_closed_form(0.0, 1e-200), rel=1e-12)

    @pytest.mark.parametrize("d, eta", [(1e6, RAO), (1e9, RAO), (1e9, WAO), (1e20, WAO), (1e200, WAO)])
    def test_large_detuning_is_stable_with_accurate_small_roots(self, d, eta):
        # one root near d and two of order sqrt(ab/d) (RAO) or 1 (WAO): once
        # the spread squared passes 1/eps the discriminant's sign is rounding
        # (the first three read as case II; at 1e20 the small roots came out
        # as +-7e10, at 1e200 as 0 and 0)
        ab = 1.0
        sp = eigen_spectrum(from_product(d, ab, eta))
        assert sp.case is SpectrumCase.STABLE
        assert sp.gamma == 0.0
        xs = sorted((-1j * lam for lam in sp.lambdas), key=lambda x: x.real)  # lambda = i x
        assert all(x.imag == 0.0 for x in xs)
        assert xs[2].real == pytest.approx(d, rel=1e-12)
        small = np.sqrt(ab / d) if eta == RAO else 1.0 + ab / (2.0 * d)
        assert xs[0].real == pytest.approx(-small, rel=1e-9)
        assert xs[1].real == pytest.approx(small, rel=1e-9)

    def test_zero_alpha_beta_rao_double_root_is_stable(self):
        # x^2 (x - 0.5): the double root came out as a pair with gamma 1.5e-10
        sp = eigen_spectrum(from_product(0.5, 0.0, RAO))
        assert sp.case is SpectrumCase.STABLE
        assert sp.gamma == 0.0
        assert sorted(abs(lam) for lam in sp.lambdas) == [0.0, 0.0, 0.5]

    def test_gamma_stable_under_tolerance_refinement(self):
        # classification tolerance does not feed the rate: same gamma at 10x stricter tol
        from carl.cubic import classify
        from carl.spectrum import _dispersion_cubic

        for d, ab, eta in [(0.0, 1.0, 1), (2.0, 5.0, 0), (1.5, 0.3, 1)]:
            sp = eigen_spectrum(from_product(d, ab, eta))
            cubic = _dispersion_cubic(d, ab, eta)
            assert classify(cubic, tol=1e-13).nature is classify(cubic, tol=1e-12).nature
            assert eigen_spectrum(from_product(d, ab, eta)).gamma == sp.gamma


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
        worst = 0.0
        for d in np.linspace(-5.0, 10.0, 40):
            for ab in np.linspace(0.25, 20.0, 40):
                numeric = eigen_spectrum(from_product(d, ab, RAO)).gamma
                worst = max(worst, abs(gamma_rao_closed_form(d, ab) - numeric))
        assert worst <= 1e-8

    def test_negative_detuning_branch(self):
        # d > 1 exercises the signed-cube-root branch of the two-thirds powers
        numeric = eigen_spectrum(from_product(-3.0, 1.0, RAO)).gamma
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
        checked = 0
        while checked < 2000:
            d = rng.uniform(-5, 10)
            ab = rng.uniform(1e-6, 20)
            eta = int(rng.integers(0, 2))
            lhs = float(threshold_lhs(d, ab, eta))
            if abs(lhs) <= 1e-10:
                continue
            case = eigen_spectrum(from_product(d, ab, eta)).case
            assert (lhs > 0.0) == (case is SpectrumCase.UNSTABLE), (d, ab, eta, lhs, case)
            checked += 1

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
        assert eigen_spectrum(from_product(0.0, 0.1, WAO)).gamma == 0.0

    def test_wao_ab1_lower_edge_negative(self):
        edges = critical_delta21(1.0, WAO)
        assert any(e < 0.0 for e in edges)
        assert eigen_spectrum(from_product(0.0, 1.0, WAO)).gamma > 0.0

    def test_edges_are_actual_case_flips(self):
        for ab, eta in [(0.1, WAO), (1.0, WAO), (1.0, RAO)]:
            for edge in critical_delta21(ab, eta):
                below = eigen_spectrum(from_product(edge - 1e-6, ab, eta)).case
                above = eigen_spectrum(from_product(edge + 1e-6, ab, eta)).case
                assert below is not above

    def test_rejects_nonpositive_ab(self):
        with pytest.raises(ValueError):
            critical_delta21(0.0, WAO)

    def test_rejects_ab_outside_normal_range(self):
        # a subnormal alpha_beta would lose the WAO band edges to overflow
        with pytest.raises(ValueError, match="alpha_beta"):
            critical_delta21(1e-310, WAO)
        with pytest.raises(ValueError, match="alpha_beta"):
            critical_delta21(1e200, RAO)

    def test_band_narrower_than_old_scan_step_off_grid(self):
        # a 1e-3 scan found this band only when 1.0 was one of its nodes
        edges = critical_delta21(1e-8, WAO, window=(-10.0005, 20.0005))
        assert len(edges) == 2
        assert edges[0] < 1.0 < edges[1]
        for edge in edges:
            below = eigen_spectrum(from_product(edge - 1e-6, 1e-8, WAO)).case
            above = eigen_spectrum(from_product(edge + 1e-6, 1e-8, WAO)).case
            assert below is not above


class TestModuleProperties:
    def test_wao_gain_band_second_threshold(self):
        # below the zero-detuning threshold there is still gain off resonance
        for ab in (0.05, 0.2, 0.35):
            assert eigen_spectrum(from_product(0.0, ab, WAO)).gamma == 0.0
            grid = np.linspace(0.0, 2.0, 401)
            gammas = [eigen_spectrum(from_product(float(d), ab, WAO)).gamma for d in grid]
            assert max(gammas) > 0.0

    def test_classical_limit_consistency(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            d = rng.uniform(-5, 10)
            ab = rng.uniform(0.01, 20)
            numeric = eigen_spectrum(from_product(d, ab, RAO)).gamma
            assert abs(gamma_rao_closed_form(d, ab) - numeric) <= 1e-8


def test_log_uniform_spectrum_matches_closed_form_threshold():
    """Finite eigenvalues whose class matches the closed-form threshold, or a named error.

    |delta21| and alpha*beta span 300 decades; boundary-flagged points carry
    no class to compare.
    """
    rng = np.random.default_rng(21)
    n = 4000
    checked = 0
    for _ in range(n):
        d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150, 150))
        ab = float(10.0 ** rng.uniform(-150, 150))
        eta = int(rng.integers(0, 2))
        try:
            sp = eigen_spectrum(from_product(d, ab, eta))
            threshold = critical_alpha_beta(d, eta)
        except ValueError:
            continue
        assert all(np.isfinite(lam) for lam in sp.lambdas), (d, ab, eta, sp)
        assert np.isfinite(sp.gamma), (d, ab, eta, sp)
        if sp.boundary:
            continue
        unstable = ab > (threshold or 0.0)
        assert (sp.case is SpectrumCase.UNSTABLE) == unstable, (d, ab, eta, sp, threshold)
        checked += 1
    assert checked >= n // 4


def test_large_detuning_class_matches_closed_form_threshold_inside_boundary_band():
    """Large |delta21| puts one root far from the other two, and the points land
    in the boundary band, where the test above compares no class. Away from
    the threshold itself the class must still be right.
    """
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(2000):
        d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 100))
        ab = float(10.0 ** rng.uniform(-10, 10))
        eta = int(rng.integers(0, 2))
        threshold = critical_alpha_beta(d, eta) or 0.0
        if abs(ab - threshold) <= 1e-3 * max(ab, threshold):
            continue
        sp = eigen_spectrum(from_product(d, ab, eta))
        assert (sp.case is SpectrumCase.UNSTABLE) == (ab > threshold), (d, ab, eta, sp, threshold)
        checked += 1
    assert checked >= 1900


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
    base = eigen_spectrum(ScaledParams(delta21=d, alpha=ab, beta=1.0, eta=eta))
    other = eigen_spectrum(ScaledParams(delta21=d, alpha=ab * split, beta=1.0 / split, eta=eta))
    assert other.gamma == pytest.approx(base.gamma, abs=1e-12)
    for a, b in zip(base.lambdas, other.lambdas):
        assert a == pytest.approx(b, abs=1e-10)


@pytest.mark.filterwarnings("error")
class TestGammaRaoClosedFormAtExtremes:
    """The RAO closed form at extreme scales: right, or a named error; never NaN,
    a false 0, a bare OverflowError or a RuntimeWarning. The references are
    eigen_spectrum's rates (the last one matches 60-digit mpmath)."""

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
        assert eigen_spectrum(from_product(d, ab, RAO)).gamma == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert gamma_rao_closed_form(d, ab) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("to_float", [float, np.float64])
    @pytest.mark.parametrize("delta21", [1e200, -1e200])
    def test_huge_detuning_is_named_error(self, to_float, delta21):
        with pytest.raises(ValueError, match="delta21"):
            gamma_rao_closed_form(to_float(delta21), to_float(1.0))

    @pytest.mark.parametrize("delta21, alpha_beta", [(1e100, 1e-100), (1e200, 1.0)])
    def test_wao_spectrum_of_numpy_scalars_saturates_silently(self, delta21, alpha_beta):
        sp = eigen_spectrum(from_product(np.float64(delta21), np.float64(alpha_beta), WAO))
        assert sp.case is SpectrumCase.STABLE
        assert all(np.isfinite(lam) for lam in sp.lambdas)

    def test_log_uniform_matches_spectrum(self):
        # 40 000 scratch draws gave at most 5.9e-15 of the root scale, from the
        # pow-based cube root at large alpha_beta; the bound leaves 3x of room
        rng = np.random.default_rng(31)
        for _ in range(4000):
            d = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-150, 100))
            ab = float(10.0 ** rng.uniform(-150, 150))
            sp = eigen_spectrum(from_product(d, ab, RAO))
            scale = max(abs(lam) for lam in sp.lambdas)
            assert abs(gamma_rao_closed_form(d, ab) - sp.gamma) <= 2e-14 * scale, (d, ab, sp)


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
            sp = eigen_spectrum(from_product(d[i], ab[i], int(eta[i])))
            assert np.array(sp.lambdas).tobytes() == lambdas[i].tobytes(), (d[i], ab[i], eta[i])
            assert np.float64(sp.gamma).tobytes() == gamma[i].tobytes()
            assert (sp.case.value, sp.boundary) == (case[i], boundary[i])
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
