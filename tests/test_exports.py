"""Package export tests: ``carl.__all__`` names what ``from carl import`` gives."""

import pytest

import carl
import carl.cubic

# the cubic kernel is one array function, its result type and the oracle: no per-point layer
KERNEL = {"CubicArrays", "solve_cubics", "companion_roots"}


@pytest.mark.parametrize("name", carl.__all__)
def test_every_export_imports(name):
    namespace = {}
    exec(f"from carl import {name}", namespace)
    assert namespace[name] is getattr(carl, name)


def test_no_duplicate_exports():
    assert len(set(carl.__all__)) == len(carl.__all__)


def test_kernel_exports_only_the_array_layer():
    assert set(carl.cubic.__all__) == KERNEL
    assert {name for name in carl.__all__ if getattr(getattr(carl, name), "__module__", None) == "carl.cubic"} == KERNEL
