"""Every docstring example in the library must execute as written."""

import doctest
import importlib
import pkgutil

import pytest

import qca

# the package and every module in it, so a new module is covered unasked
MODULES = [qca] + [importlib.import_module("qca." + m.name)
                   for m in pkgutil.iter_modules(qca.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
