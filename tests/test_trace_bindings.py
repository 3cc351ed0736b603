"""Every function the benchmark's tracer wraps must still exist.

`perfbench/tracing.py` wraps `sqom` functions where their callers bind them
(for example `sqom.oracle.tms_couplings`). A refactor that drops or renames
one of those names breaks only a traced benchmark run, so it is checked here,
as is that a function imported only when its subcommand runs still runs
through the tracer's wrapper. The tracer module imports only the standard library, so it is loaded by path.
"""
import importlib
import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import laser_set

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr, layer", _tracing().LAYER_FUNCTIONS)
def test_traced_name_resolves(module_name, attr, layer):
    assert callable(getattr(importlib.import_module(module_name), attr))


def _layers(argv) -> set:
    """The layers of the spans one traced `sqom` call records."""
    from sqom.cli import main

    tracer = _tracing().Tracer()
    tracer.install(0)
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    return {span[0] for span in tracer.spans}


# A function `cli` or `sweep` imports only when it runs is still called
# through the module global, so the wrapper the tracer set there runs.

def test_deferred_functions_run_through_the_tracer(tmp_path):
    config = tmp_path / "laser.json"
    config.write_text(json.dumps(asdict(laser_set())))
    out = str(tmp_path / "out.csv")
    grid = str(tmp_path / "grid.csv")
    common = ["--config", str(config), "--out"]
    assert "verify" in _layers(["verify", *common, out, "--random", "1"])
    # the sampler's draws run through a name the tracer wraps
    assert "verify.sample" in _layers(["verify", *common, out, "--random", "2"])
    assert {"branch_tms", "branch_bs", "laser"} <= _layers(
        ["sweep", *common, out, "--axis", "delta_phi", "--from", "0", "--to", "1",
         "--steps", "3"])
    _layers(["grid", *common, grid, "--x-axis", "delta_phi", "--x-from", "0", "--x-to", "6",
             "--x-steps", "4", "--y-axis", "g0", "--y-from", "0.001", "--y-to", "0.003",
             "--y-steps", "3"])
    assert "contours" in _layers(["contours", "--grid", grid, "--field", "f2",
                                  "--level", "1", "--out", out])
