"""Every name that a module of the package lists in __all__ exists."""

import pytest

from conftest import MODULES


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_listed_name_resolves_once(module):
    # a stale entry breaks `from module import *`, which nothing else runs
    names = module.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(module, n)] == []
