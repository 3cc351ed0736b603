"""A fresh process imports only the modules its subcommand runs.

Each subcommand runs in its own interpreter, and the `sqom.*` modules in
`sys.modules` afterwards are pinned: a module imported at the top of `cli`
or `sweep` again would cost every `sqom` process its import (and, without
cached bytecode, its compilation).
"""
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import sqom
from sqom.cli import main

from conftest import laser_set

SRC = str(Path(sqom.__file__).resolve().parents[1])

# what `import sqom.cli` loads, and what every subcommand needs
BASE = {"cli", "elementwise", "errors", "params", "regime", "stage1", "sweep"}
BRANCHES = {"second_stage", "validity"}

# subcommand -> (arguments after the subcommand, modules beyond BASE)
CASES = {
    "analyze": ([], BRANCHES | {"laser", "oracle"}),
    "sweep": (["--axis", "delta_phi", "--from", "0", "--to", "1", "--steps", "3"],
              BRANCHES | {"laser"}),
    "grid": (["--x-axis", "delta_phi", "--x-from", "0", "--x-to", "6", "--x-steps", "4",
              "--y-axis", "g0", "--y-from", "0.001", "--y-to", "0.003", "--y-steps", "3",
              "--outputs", "f1,f2,branch"],
             set()),
    "laser-sweep": (["--steps", "3"], BRANCHES | {"laser"}),
    "verify": (["--random", "1"], BRANCHES | {"oracle", "verify"}),
}

_RUN = """
import json, sys
from sqom.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("sqom."))]))
"""


def _fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, env=env, check=True)
    return run.stdout


def _modules_after(argv) -> set:
    code, modules = json.loads(_fresh(_RUN, json.dumps(argv)))
    assert code == 0
    return {name.removeprefix("sqom.") for name in modules}


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "laser.json"
    path.write_text(json.dumps(asdict(laser_set())))
    return str(path)


@pytest.mark.parametrize("command", sorted(CASES))
def test_a_subcommand_loads_only_what_it_runs(command, config, tmp_path):
    args, extra = CASES[command]
    argv = [command, "--config", config, *args, "--out", str(tmp_path / "out.csv")]
    assert _modules_after(argv) == BASE | extra


def test_contours_loads_the_contours_module_only(config, tmp_path):
    grid = tmp_path / "grid.csv"
    args = CASES["grid"][0]
    assert main(["grid", "--config", config, *args, "--out", str(grid)]) == 0
    argv = ["contours", "--grid", str(grid), "--field", "f2", "--level", "1",
            "--out", str(tmp_path / "contours.csv")]
    assert _modules_after(argv) == BASE | {"contours"}


def test_import_sqom_loads_no_submodule():
    modules = _fresh("import sys, sqom; print(sorted(m for m in sys.modules if 'sqom' in m))")
    assert modules.split() == ["['sqom']"]


def test_every_public_name_resolves():
    assert set(sqom.__all__) <= set(dir(sqom))
    for name in sqom.__all__:
        assert getattr(sqom, name) is getattr(sys.modules[f"sqom.{sqom._EXPORTS[name]}"], name)


def test_star_and_submodule_imports():
    namespace = {}
    exec("from sqom import *", namespace)
    assert set(sqom.__all__) <= set(namespace)
    from sqom import laser, oracle

    assert laser.laser_point is sqom.laser_point
    assert oracle.rwa_error_report is sqom.rwa_error_report


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'sqom' has no attribute 'nope'$"):
        sqom.nope  # noqa: B018
    with pytest.raises(ImportError):
        from sqom import nope  # noqa: F401
