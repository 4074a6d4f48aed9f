"""Every docstring example in the library must execute as written."""

import doctest

import pytest

import qca.cartan
import qca.classical
import qca.checks
import qca.coeffs
import qca.gls
import qca.seeds
import qca.serialize
import qca.torus

MODULES = [
    qca.cartan,
    qca.coeffs,
    qca.torus,
    qca.seeds,
    qca.gls,
    qca.classical,
    qca.checks,
    qca.serialize,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
