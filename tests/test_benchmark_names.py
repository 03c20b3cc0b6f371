"""Every per-layer metric in BENCHMARK.json names code that exists.

A name `<layer>.<fn>.calls`, `.s` or `.yield` is read by the tracer from a
wrapper around `leafatlas.<layer>.<fn>`; the traced run stops when the
function is missing, so a rename or deletion in the package breaks the
benchmark.  `<layer>.self_s` and the `trace.*` metrics name no function.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# classes whose constructor the tracer wraps
CLASSES = {"linalg": {"Subspace", "Lattice"}}


def _function_metrics():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    for name in names:
        layer, _, rest = name.partition(".")
        if layer == "trace" or rest == "self_s":
            continue
        fn, _, kind = rest.rpartition(".")
        assert kind in ("calls", "s", "yield"), name
        yield name, layer, fn


def test_per_layer_names_resolve():
    checked = 0
    for name, layer, fn in _function_metrics():
        module = importlib.import_module(f"leafatlas.{layer}")
        assert not fn.startswith("_"), name
        obj = getattr(module, fn, None)
        if fn in CLASSES.get(layer, ()):
            assert inspect.isclass(obj), name
        else:
            assert inspect.isfunction(obj), name
            assert obj.__module__ == module.__name__, name
        checked += 1
    assert checked > 0
