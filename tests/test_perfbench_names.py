"""The qca names that the benchmark harness under perfbench/ reads.

perfbench/spans.py wraps the functions named in its TARGETS (and
TorusElem.__mul__), and perfbench/run.py and workloads.py read a few
constants.  A change that deletes or renames one of them would otherwise
show only in the harness's own tests or in a traced run.  spans.py is read
as text and its TARGETS parsed as a literal, so nothing under perfbench/
is executed or written.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qca
import qca.cli
import qca.serialize
import qca.torus

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def span_targets():
    """The (module, attribute, span name) triples of spans.py's TARGETS."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no TARGETS")


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in span_targets()])
def test_every_traced_name_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_the_names_the_harness_reads_exist():
    assert callable(qca.torus.TorusElem.__mul__)
    assert callable(qca.serialize.seed_to_json)
    assert isinstance(qca.KERNEL_BACKEND, str)
    assert isinstance(qca.cli.CACHE_ENV, str)
