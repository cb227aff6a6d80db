"""The layer functions that BENCHMARK.json traces exist under their names.

perfbench's tracer wraps every public function defined in a ``vwslab``
layer module, and its run fails when a traced name is missing; this test
makes a renamed or deleted function fail the tier-1 suite as well.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def traced_names() -> list:
    # the names perfbench computes (grid.fft_count, cli.import_s, ...) carry
    # neither suffix; GridSpec.kappa_mesh is a method, wrapped on the class
    per_layer = json.loads(BENCHMARK.read_text("utf-8"))["per_layer"]
    names = {m["name"].rsplit(".", 1)[0] for m in per_layer
             if m["name"].endswith((".calls", ".self_s"))}
    return sorted(names - {"grid.kappa_mesh"})


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"vwslab.{layer}")
    obj = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(obj), f"vwslab.{name} is not a function"
    assert obj.__module__ == module.__name__, (
        f"vwslab.{name} is defined in {obj.__module__}")
