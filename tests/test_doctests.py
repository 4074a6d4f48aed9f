"""Every docstring example in the library must execute as written."""

import doctest

import pytest

from conftest import MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
