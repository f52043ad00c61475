"""Physical-to-dimensionless mapping tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carl import (
    HBAR,
    RAO,
    WAO,
    DegenerateDetuningError,
    PhysicalParams,
    ScaledParams,
    coupling_g,
    recoil_frequency,
    to_scaled,
)

# rubidium-87-like reference point used throughout
RB = dict(
    dipole_moment=2.5e-29,
    quantization_volume=1e-6,
    atom_mass=1.44316e-25,
    atom_number=10**6,
    wavenumber_k0=2.0 * math.pi / 780e-9,
    omega0=2.0 * math.pi * 384.23e12,
    omega2=2.0 * math.pi * (384.23e12 - 30e9),  # pump 30 GHz red of resonance
    omega1=2.0 * math.pi * (384.23e12 - 30e9) - 4.0 * 23708.398,  # near recoil resonance
    pump_amplitude=1e4,
)


def rb_params(**overrides):
    return PhysicalParams(**{**RB, **overrides})


class TestRecoilFrequency:
    def test_rubidium_like_value(self):
        # oracle: direct evaluation of hbar*k0^2/(2m) with CODATA hbar
        p = rb_params()
        expected = 1.054571817e-34 * (2.0 * math.pi / 780e-9) ** 2 / (2.0 * 1.44316e-25)
        assert recoil_frequency(p) == pytest.approx(expected, rel=1e-15)
        assert recoil_frequency(p) == pytest.approx(23708.39822792627, rel=1e-12)
        assert recoil_frequency(p) == pytest.approx(2.37e4, rel=1e-2)

    def test_monotone_decreasing_in_mass(self):
        masses = [1e-26, 1e-25, 1e-24, 1e-23]
        values = [recoil_frequency(rb_params(atom_mass=m)) for m in masses]
        assert all(a > b for a, b in zip(values, values[1:]))
        # classical limit: omega_r -> 0 as m -> infinity
        assert recoil_frequency(rb_params(atom_mass=1e10)) < 1e-30

    def test_doubling_k0_quadruples(self):
        p1 = rb_params()
        p2 = rb_params(wavenumber_k0=2.0 * RB["wavenumber_k0"])
        assert recoil_frequency(p2) == pytest.approx(4.0 * recoil_frequency(p1), rel=1e-14)


class TestCoupling:
    def test_vanishes_with_dipole(self):
        base = coupling_g(rb_params())
        tiny = coupling_g(rb_params(dipole_moment=RB["dipole_moment"] * 1e-12))
        assert tiny == pytest.approx(base * 1e-12, rel=1e-12)

    def test_quadrupling_volume_halves(self):
        g1 = coupling_g(rb_params())
        g2 = coupling_g(rb_params(quantization_volume=4.0 * RB["quantization_volume"]))
        assert g2 == pytest.approx(g1 / 2.0, rel=1e-14)

    def test_g_squared_linear_in_k0_over_v(self):
        g1 = coupling_g(rb_params())
        p2 = rb_params(wavenumber_k0=3.0 * RB["wavenumber_k0"], quantization_volume=3.0 * RB["quantization_volume"])
        assert coupling_g(p2) == pytest.approx(g1, rel=1e-14)


class TestToScaled:
    def test_equal_pump_probe_frequency_gives_zero_detuning(self):
        s = to_scaled(rb_params(omega1=RB["omega2"]), WAO)
        assert s.delta21 == 0.0

    def test_doubling_atom_number_doubles_beta_only(self):
        s1 = to_scaled(rb_params(), WAO)
        s2 = to_scaled(rb_params(atom_number=2 * RB["atom_number"]), WAO)
        assert s2.beta == pytest.approx(2.0 * s1.beta, rel=1e-14)
        assert s2.alpha == pytest.approx(s1.alpha, rel=1e-14)

    def test_doubling_pump_amplitude_quadruples_alpha_only(self):
        s1 = to_scaled(rb_params(), WAO)
        s2 = to_scaled(rb_params(pump_amplitude=2.0 * RB["pump_amplitude"]), WAO)
        assert s2.alpha == pytest.approx(4.0 * s1.alpha, rel=1e-14)
        assert s2.beta == pytest.approx(s1.beta, rel=1e-14)

    def test_product_matches_closed_form(self):
        p = rb_params()
        s = to_scaled(p, RAO)
        g = coupling_g(p)
        omega_r = recoil_frequency(p)
        closed = (
            2.0
            * g**4
            * p.atom_number
            * p.pump_amplitude**2
            / (16.0 * omega_r**2 * (p.omega0 - p.omega2) ** 2)
        )
        assert s.alpha_beta == pytest.approx(closed, rel=1e-12)

    def test_alpha_beta_share_sign(self):
        # pump blue of resonance flips both signs; the product stays positive
        blue = rb_params(omega2=2.0 * math.pi * (384.23e12 + 30e9))
        s = to_scaled(blue, WAO)
        assert s.alpha < 0 and s.beta < 0
        assert s.alpha_beta > 0

    def test_mass_scaling_identity(self):
        # m -> s*m at fixed g, N, a2(0), detuning: alpha*beta -> s^2 * alpha*beta
        s1 = to_scaled(rb_params(), WAO)
        scale = 7.0
        s2 = to_scaled(rb_params(atom_mass=scale * RB["atom_mass"]), WAO)
        assert s2.alpha_beta == pytest.approx(scale**2 * s1.alpha_beta, rel=1e-12)
        assert s2.delta21 == pytest.approx(scale * s1.delta21, rel=1e-12)

    def test_degenerate_detuning_floor(self):
        near_resonant = rb_params(omega2=RB["omega0"] - 10.0)  # 10 rad/s off resonance
        with pytest.raises(DegenerateDetuningError):
            to_scaled(near_resonant, WAO)
        # the floor is a policy knob, not physics: it can be lowered
        s = to_scaled(near_resonant, WAO, detuning_floor=1e-10)
        assert math.isfinite(s.alpha_beta)

    def test_eta_copied(self):
        assert to_scaled(rb_params(), RAO).eta == RAO
        assert to_scaled(rb_params(), WAO).eta == WAO


class TestInvariantValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("dipole_moment", 0.0),
            ("dipole_moment", -1e-29),
            ("quantization_volume", 0.0),
            ("atom_mass", -1.0),
            ("wavenumber_k0", 0.0),
            ("pump_amplitude", 0.0),
            ("atom_number", 0),
        ],
    )
    def test_physical_rejects_nonpositive(self, field, value):
        with pytest.raises(ValueError):
            rb_params(**{field: value})

    @pytest.mark.parametrize("field", ["omega0", "omega1", "omega2"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_physical_rejects_non_finite_frequency(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            rb_params(**{field: value})

    def test_physical_rejects_exact_resonance(self):
        with pytest.raises(ValueError):
            rb_params(omega2=RB["omega0"])

    def test_scaled_rejects_bad_eta(self):
        for eta in (2, -1, 0.5):
            with pytest.raises(ValueError):
                ScaledParams(delta21=0.0, alpha=1.0, beta=1.0, eta=eta)

    def test_scaled_rejects_mixed_signs(self):
        with pytest.raises(ValueError):
            ScaledParams(delta21=0.0, alpha=1.0, beta=-1.0, eta=WAO)

    def test_scaled_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ScaledParams(delta21=float("nan"), alpha=1.0, beta=1.0, eta=RAO)

    def test_from_product(self):
        s = ScaledParams.from_product(0.5, 2.0, WAO)
        assert s.alpha_beta == 2.0 and s.delta21 == 0.5 and s.eta == WAO
        with pytest.raises(ValueError):
            ScaledParams.from_product(0.0, -1.0, RAO)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
    def test_from_product_names_a_bad_alpha_beta(self, value):
        # a non-finite product was once reported as a bad alpha
        with pytest.raises(ValueError, match=re.escape(f"alpha_beta must be finite and >= 0, got {value!r}")):
            ScaledParams.from_product(0.5, value, WAO)

    @pytest.mark.parametrize("eta", [True, False, np.True_, np.False_])
    def test_scaled_rejects_bool_eta(self, eta):
        # True equals 1, and was written to a trajectory header as eta=True
        with pytest.raises(ValueError, match=re.escape("eta must be exactly 0 (RAO) or 1 (WAO)")):
            ScaledParams(delta21=0.5, alpha=1.0, beta=1.0, eta=eta)


@settings(max_examples=200, derandomize=True)
@given(
    mass_factor=st.floats(0.1, 100.0),
    n_factor=st.integers(1, 1000),
    amp_factor=st.floats(0.1, 10.0),
)
@example(mass_factor=0.125, n_factor=1, amp_factor=1.0)  # once rejected by the detuning floor
def test_product_identity_property(mass_factor, n_factor, amp_factor):
    """alpha*beta from the returned pair always equals the closed-form product."""
    p = rb_params(
        atom_mass=RB["atom_mass"] * mass_factor,
        atom_number=RB["atom_number"] * n_factor,
        pump_amplitude=RB["pump_amplitude"] * amp_factor,
    )
    s = to_scaled(p, WAO)
    g = coupling_g(p)
    omega_r = recoil_frequency(p)
    closed = 2.0 * g**4 * p.atom_number * p.pump_amplitude**2 / (
        16.0 * omega_r**2 * (p.omega0 - p.omega2) ** 2
    )
    assert s.alpha_beta == pytest.approx(closed, rel=1e-12)
    assert s.alpha_beta >= 0.0
