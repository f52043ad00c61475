"""Package export tests: ``carl.__all__`` names what ``from carl import`` gives."""

import pytest

import carl
import carl.cubic
import carl.dynamics
import carl.params
import carl.spectrum
import carl.sweep

# the cubic kernel is one array function, its result type and the oracle: no per-point layer
KERNEL = {"CubicArrays", "solve_cubics", "companion_roots"}
# the spectrum is one array function beside the threshold functions: no per-point record
SPECTRUM = {"spectrum_arrays", "gamma_rao_closed_form", "threshold_lhs", "critical_alpha_beta", "critical_delta21"}


@pytest.mark.parametrize("name", carl.__all__)
def test_every_export_imports(name):
    namespace = {}
    exec(f"from carl import {name}", namespace)
    assert namespace[name] is getattr(carl, name)


def test_no_duplicate_exports():
    assert len(set(carl.__all__)) == len(carl.__all__)


def test_package_exports_are_the_module_lists():
    modules = (carl.params, carl.cubic, carl.spectrum, carl.dynamics, carl.sweep)
    assert carl.__all__ == [name for module in modules for name in module.__all__] + ["__version__"]


def test_kernel_exports_only_the_array_layer():
    assert set(carl.cubic.__all__) == KERNEL
    assert {name for name in carl.__all__ if getattr(getattr(carl, name), "__module__", None) == "carl.cubic"} == KERNEL


def test_spectrum_exports_the_array_function_and_no_record():
    assert set(carl.spectrum.__all__) == SPECTRUM
    assert {name for name in carl.__all__ if getattr(getattr(carl, name), "__module__", None) == "carl.spectrum"} == SPECTRUM
