"""Linear theory of the collective atomic-recoil laser (CARL).

The package covers both treatments of the atomic center-of-mass motion:
the classical ray-atom-optics (RAO) limit and the quantum wave-atom-optics
(WAO) regime, selected by the ``eta`` flag of :class:`ScaledParams`.
It provides

* the parameter sets and their dimensionless reduction (:mod:`carl.params`),
* the cubic kernel (:mod:`carl.cubic`),
* the eigenvalue spectrum of the linearized probe/bunching system, its
  stable/unstable classification and the instability thresholds in the
  (delta21, alpha*beta) control plane (:mod:`carl.spectrum`),
* time-domain integration of the coupled-mode equations with independent
  matrix-exponential validation (:mod:`carl.dynamics`),
* sweep engines that tabulate gain curves, mass-convergence studies and
  threshold boundaries as CSV/JSON (:mod:`carl.sweep`),
* a command-line front end (:mod:`carl.cli`).

Each module lists its public names in its own ``__all__``; the package
re-exports them all, and ``__all__`` here is their concatenation.
"""

from carl import cubic, dynamics, params, spectrum, sweep
from carl._version import __version__
from carl.params import *
from carl.cubic import *
from carl.spectrum import *
from carl.dynamics import *
from carl.sweep import *

__all__ = [*params.__all__, *cubic.__all__, *spectrum.__all__, *dynamics.__all__, *sweep.__all__, "__version__"]
