"""Physical parameters of the CARL and their dimensionless reduction.

The linearized pump/probe problem is fully controlled by three scaled
quantities: the pump-probe detuning ``delta21 = (omega2 - omega1)/4*omega_r``,
the density control ``beta = g^2 N / 4*omega_r*(omega0 - omega2)`` and the
pump-intensity control ``alpha = 2 g^2 a2(0)^2 / 4*omega_r*(omega0 - omega2)``,
plus the regime flag ``eta`` (0 = ray atom optics, 1 = wave atom optics).
Everything downstream (spectrum, thresholds, dynamics) consumes
:class:`ScaledParams`; :class:`PhysicalParams` exists to derive those
controls from an SI-unit description of an experiment.

Dimensionless workflows may construct :class:`ScaledParams` directly and
never touch SI units; this is the normal path for sweeps, since gain curves
live entirely in (delta21, alpha*beta) space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "HBAR",
    "C_LIGHT",
    "EPSILON_0",
    "RAO",
    "WAO",
    "DegenerateDetuningError",
    "PhysicalParams",
    "ScaledParams",
    "recoil_frequency",
    "coupling_g",
    "to_scaled",
]

# CODATA 2018 values, frozen for reproducibility.
HBAR = 1.054571817e-34  # reduced Planck constant (J s)
C_LIGHT = 299792458.0  # speed of light (m/s)
EPSILON_0 = 8.8541878128e-12  # vacuum permittivity (F/m)

# Regime flags for the eta field.
RAO = 0  # ray atom optics: classical center-of-mass motion, no diffraction
WAO = 1  # wave atom optics: quantum center-of-mass motion


class DegenerateDetuningError(ValueError):
    """Pump tuned too close to the atomic resonance for the dispersive model.

    The adiabatic elimination of the excited state assumes
    ``|omega0 - omega2| >> omega_r``; below the configured floor the derived
    alpha and beta are meaningless.
    """


@dataclass(frozen=True)
class PhysicalParams:
    """SI-unit description of atoms, fields and geometry.

    Attributes
    ----------
    dipole_moment : float
        Magnitude of the atomic dipole matrix element (C m).
    quantization_volume : float
        Mode quantization volume V (m^3).
    atom_mass : float
        Atomic mass m (kg).
    atom_number : int
        Number of atoms N in the sample.
    wavenumber_k0 : float
        Common optical wavenumber k0 = omega0/c (1/m); probe and pump are
        taken counterpropagating with ``k1 ~ -k2 ~ k0``.
    omega0, omega1, omega2 : float
        Atomic transition, probe and pump angular frequencies (rad/s).
    pump_amplitude : float
        Initial pump normal-variable amplitude a2(0), real and dimensionless.
    """

    dipole_moment: float
    quantization_volume: float
    atom_mass: float
    atom_number: int
    wavenumber_k0: float
    omega0: float
    omega1: float
    omega2: float
    pump_amplitude: float

    def __post_init__(self):
        positives = {
            "dipole_moment": self.dipole_moment,
            "quantization_volume": self.quantization_volume,
            "atom_mass": self.atom_mass,
            "wavenumber_k0": self.wavenumber_k0,
            "pump_amplitude": self.pump_amplitude,
        }
        for name, value in positives.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        for name in ("omega0", "omega1", "omega2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.atom_number < 1:
            raise ValueError(f"atom_number must be >= 1, got {self.atom_number}")
        if self.omega0 == self.omega2:
            raise ValueError("omega0 == omega2: far-off-resonance model undefined at exact resonance")


def _check_eta(eta) -> None:
    """Refuse a regime ``eta`` other than exactly 0 (RAO) or 1 (WAO) with ``ValueError``."""
    # a bool equals 0 or 1 but names no regime (numpy's bool is no Number)
    if isinstance(eta, bool) or not isinstance(eta, numbers.Number) or eta not in (RAO, WAO):
        raise ValueError(f"eta must be exactly 0 (RAO) or 1 (WAO), got {eta!r}")


@dataclass(frozen=True)
class ScaledParams:
    """Dimensionless control set of the linearized CARL.

    ``alpha`` and ``beta`` always carry the sign of ``omega0 - omega2``, so
    the product ``alpha*beta`` (the only combination the spectrum depends on,
    together with ``delta21``) is never negative.
    """

    delta21: float
    alpha: float
    beta: float
    eta: int

    def __post_init__(self):
        for name in ("delta21", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_eta(self.eta)
        if self.alpha * self.beta < 0:
            raise ValueError(
                "alpha and beta must share their sign (both follow sign(omega0 - omega2)); "
                f"got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def alpha_beta(self) -> float:
        """Pump-intensity times density control, the single gain parameter."""
        return self.alpha * self.beta

    @classmethod
    def from_product(cls, delta21: float, alpha_beta: float, eta: int) -> "ScaledParams":
        """Build dimensionless controls from the product ``alpha*beta`` alone.

        The split is conventional (alpha = alpha_beta, beta = 1); any other
        split with the same product yields the identical spectrum, and
        identical dynamics for trajectories seeded with B = dB/dtau = 0.
        """
        if not (math.isfinite(alpha_beta) and alpha_beta >= 0):
            raise ValueError(f"alpha_beta must be finite and >= 0, got {alpha_beta!r}")
        return cls(delta21=delta21, alpha=alpha_beta, beta=1.0, eta=eta)


def recoil_frequency(p: PhysicalParams) -> float:
    """Two-photon recoil frequency omega_r = hbar k0^2 / 2m (rad/s).

    Sets the time scale of the problem: scaled time is tau = 4 omega_r t.
    """
    return HBAR * p.wavenumber_k0**2 / (2.0 * p.atom_mass)


def coupling_g(p: PhysicalParams) -> float:
    """Atom-field dipole coupling g = mu * sqrt(c k0 / (2 hbar eps0 V)) (rad/s).

    Uses the single common wavenumber k0 for both beams, consistent with the
    counterpropagating approximation ``k1 ~ -k2 ~ k0``, ``g1 ~ g2 = g``.
    """
    return p.dipole_moment * math.sqrt(
        C_LIGHT * p.wavenumber_k0 / (2.0 * HBAR * EPSILON_0 * p.quantization_volume)
    )


def to_scaled(p: PhysicalParams, eta: int, *, detuning_floor: float = 1e3) -> ScaledParams:
    """Map an SI-unit description onto the dimensionless control set.

    Parameters
    ----------
    p : PhysicalParams
        Experiment description.
    eta : int
        Regime flag, 0 (RAO) or 1 (WAO).
    detuning_floor : float, optional
        Validity guard: requires ``|omega0 - omega2| >= detuning_floor * omega_r``.
        The adiabatic elimination of the excited state drops terms of
        relative order ``omega_r / |omega0 - omega2|``; the default (1e3)
        keeps them below one part in a thousand. Lower it explicitly to
        model less detuned pumps.

    Returns
    -------
    ScaledParams
        With ``delta21 = (omega2 - omega1)/(4 omega_r)``,
        ``beta = g^2 N / (4 omega_r (omega0 - omega2))`` and
        ``alpha = 2 g^2 a2(0)^2 / (4 omega_r (omega0 - omega2))``.

    Raises
    ------
    DegenerateDetuningError
        If the pump-atom detuning is below the validity floor.
    """
    omega_r = recoil_frequency(p)
    pump_detuning = p.omega0 - p.omega2
    if abs(pump_detuning) < detuning_floor * omega_r:
        raise DegenerateDetuningError(
            f"|omega0 - omega2| = {abs(pump_detuning):.6g} rad/s is below the validity floor "
            f"{detuning_floor:.3g} * omega_r = {detuning_floor * omega_r:.6g} rad/s; "
            "the far-off-resonance (dispersive) model does not apply"
        )
    g = coupling_g(p)
    denom = 4.0 * omega_r * pump_detuning
    return ScaledParams(
        delta21=(p.omega2 - p.omega1) / (4.0 * omega_r),
        alpha=2.0 * g**2 * p.pump_amplitude**2 / denom,
        beta=g**2 * p.atom_number / denom,
        eta=eta,
    )
