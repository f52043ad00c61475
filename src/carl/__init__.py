"""Linear theory of the collective atomic-recoil laser (CARL).

The package covers both treatments of the atomic center-of-mass motion:
the classical ray-atom-optics (RAO) limit and the quantum wave-atom-optics
(WAO) regime, selected by the ``eta`` flag of :class:`ScaledParams`.
It provides

* the eigenvalue spectrum of the linearized probe/bunching system and its
  stable/unstable classification (:mod:`carl.spectrum`),
* instability thresholds in the (delta21, alpha*beta) control plane,
* time-domain integration of the coupled-mode equations with independent
  matrix-exponential validation (:mod:`carl.dynamics`),
* sweep engines that tabulate gain curves, mass-convergence studies and
  threshold boundaries as CSV/JSON (:mod:`carl.sweep`),
* a command-line front end (:mod:`carl.cli`).
"""

from carl._version import __version__
from carl.params import (
    HBAR,
    C_LIGHT,
    EPSILON_0,
    RAO,
    WAO,
    DegenerateDetuningError,
    PhysicalParams,
    ScaledParams,
    coupling_g,
    recoil_frequency,
    to_scaled,
)
from carl.cubic import (
    Classification,
    CubicRoots,
    RealCubic,
    RootNature,
    classify,
    companion_roots,
    solve_cubic,
)
from carl.spectrum import (
    Spectrum,
    SpectrumCase,
    critical_alpha_beta,
    critical_delta21,
    eigen_spectrum,
    gamma_rao_closed_form,
    threshold_lhs,
)
from carl.dynamics import (
    NonExponentialFitError,
    NonFiniteStateError,
    StepSizeRejection,
    Trajectory,
    TrajectoryState,
    evolve,
    fit_growth_rate,
    propagator,
    system_matrix,
    write_trajectory_csv,
)
from carl.sweep import (
    SweepRecord,
    SweepResult,
    SweepSpec,
    ValidationReport,
    gain_curve,
    mass_study,
    threshold_map,
    validate_sweep,
    write_polylines_csv,
    write_sweep_csv,
    write_sweep_json,
)

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
    "RealCubic",
    "CubicRoots",
    "RootNature",
    "Classification",
    "solve_cubic",
    "classify",
    "companion_roots",
    "Spectrum",
    "SpectrumCase",
    "eigen_spectrum",
    "gamma_rao_closed_form",
    "threshold_lhs",
    "critical_alpha_beta",
    "critical_delta21",
    "TrajectoryState",
    "Trajectory",
    "StepSizeRejection",
    "NonFiniteStateError",
    "NonExponentialFitError",
    "system_matrix",
    "evolve",
    "propagator",
    "fit_growth_rate",
    "write_trajectory_csv",
    "SweepSpec",
    "SweepRecord",
    "SweepResult",
    "ValidationReport",
    "gain_curve",
    "mass_study",
    "threshold_map",
    "validate_sweep",
    "write_sweep_csv",
    "write_sweep_json",
    "write_polylines_csv",
    "__version__",
]
