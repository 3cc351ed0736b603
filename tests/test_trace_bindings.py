"""Every function the benchmark's tracer wraps must still exist.

`perfbench/tracing.py` wraps `sqom` functions where their callers bind them
(for example `sqom.oracle.tms_couplings`). A refactor that drops or renames
one of those names breaks only a traced benchmark run, so it is checked here.
The tracer module imports only the standard library, so it is loaded by path.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layer_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


@pytest.mark.parametrize("module_name, attr, layer", _layer_functions())
def test_traced_name_resolves(module_name, attr, layer):
    assert callable(getattr(importlib.import_module(module_name), attr))
