"""The CLI's sweep, grid and laser-sweep evaluate and write one block of rows
at a time: the bytes equal those of the whole table, and the allocation peak
does not grow with the point count."""
import dataclasses
import json
import math
import tracemalloc

import pytest

from sqom import cli, sweep
from sqom.params import load_config
from sqom.sweep import (
    COLUMNS,
    LASER_SWEEP_OUTPUTS,
    GridSpec,
    SweepSpec,
    grid_columns,
    grid_csv_rows,
    laser_columns,
    laser_rows,
    run_grid,
    run_sweep,
    sweep_columns,
    sweep_csv_rows,
)

from conftest import laser_set, rows_to_csv


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "laser.json"
    path.write_text(json.dumps(dataclasses.asdict(laser_set(0.0))))
    return str(path)


@pytest.fixture
def blocks(monkeypatch):
    """Sets the cell budget to `rows` rows of `outputs` a block, and counts
    the run_sweep/run_grid calls the CLI makes."""
    calls = []
    for name in ("run_sweep", "run_grid"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))

    def size(rows: int, outputs) -> list:
        monkeypatch.setattr(sweep, "BLOCK_CELLS", rows * len(sweep._returned_columns(outputs)))
        return calls

    return size


def _cli_csv(argv, tmp_path) -> str:
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_text()


def _lambda2_axis(n: int) -> tuple[str, str]:
    """Endpoints of n lambda2 points 0.5 apart from 49: the points from the
    third on (lambda2 >= delta2/2 = 50) are Stage1Unstable."""
    return "49", repr(49.0 + 0.5 * (n - 1))


BLOCK = 4


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("outputs", [None, ("f1", "branch", "tms_g1", "laser_n_threshold")])
def test_sweep_blocks_write_the_whole_table(n, outputs, config, blocks, tmp_path):
    # the first block mixes valid and Stage1Unstable points; from n = BLOCK + 1
    # on, a later block holds only Stage1Unstable points. None: no --outputs
    start, stop = _lambda2_axis(n)
    argv = ["sweep", "--config", config, "--axis", "lambda2", "--from", start, "--to", stop,
            "--steps", str(n)]
    spec = SweepSpec("lambda2", float(start), float(stop), n)
    if outputs is not None:
        argv += ["--outputs", ",".join(outputs)]
        spec = dataclasses.replace(spec, outputs=outputs)
    calls = blocks(BLOCK, spec.outputs)
    got = _cli_csv(argv, tmp_path)
    assert len(calls) == math.ceil(n / BLOCK)
    params, opts = load_config(config)
    assert got == rows_to_csv(sweep_csv_rows(run_sweep(params, spec, opts), spec),
                              sweep_columns(spec))


# (x_steps, y_steps) for N = block - 1, block, block + 1 and 2 * block + 1
GRID_BLOCK = 25


@pytest.mark.parametrize("shape", [(2, 12), (5, 5), (2, 13), (3, 17)])
@pytest.mark.parametrize("outputs", [("f1", "f2", "branch"), COLUMNS])
def test_grid_blocks_write_the_whole_table(shape, outputs, config, blocks, tmp_path):
    # y is lambda2, so the rows from y index 2 on are Stage1Unstable: the
    # 3x17 grid's second block holds only those
    nx, ny = shape
    calls = blocks(GRID_BLOCK, outputs)
    start, stop = _lambda2_axis(ny)
    got = _cli_csv([
        "grid", "--config", config,
        "--x-axis", "delta_phi", "--x-from", "0", "--x-to", "6.283185307179586",
        "--x-steps", str(nx),
        "--y-axis", "lambda2", "--y-from", start, "--y-to", stop, "--y-steps", str(ny),
        "--outputs", ",".join(outputs),
    ], tmp_path)
    assert len(calls) == math.ceil(nx * ny / GRID_BLOCK)
    params, opts = load_config(config)
    spec = GridSpec("delta_phi", 0.0, 2.0 * math.pi, nx, "lambda2", float(start), float(stop),
                    ny, outputs)
    assert got == rows_to_csv(grid_csv_rows(run_grid(params, spec, opts), spec),
                              grid_columns(spec))


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("axis", ["lambda2", "delta_phi"])
def test_laser_sweep_blocks_write_the_whole_table(n, axis, config, blocks, tmp_path):
    calls = blocks(BLOCK, LASER_SWEEP_OUTPUTS)
    start, stop = _lambda2_axis(n) if axis == "lambda2" else ("0", repr(2.0 * math.pi))
    got = _cli_csv(["laser-sweep", "--config", config, "--axis", axis, "--from", start,
                    "--to", stop, "--steps", str(n)], tmp_path)
    assert len(calls) == math.ceil(n / BLOCK)
    params, opts = load_config(config)
    spec = SweepSpec(axis, float(start), float(stop), n, LASER_SWEEP_OUTPUTS)
    assert got == rows_to_csv(laser_rows(run_sweep(params, spec, opts), spec),
                              laser_columns(spec))


def test_a_sweeps_allocation_peak_does_not_grow_with_its_points(config, blocks, tmp_path):
    blocks(32, COLUMNS)

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            assert cli.main(["sweep", "--config", config, "--axis", "delta_phi", "--from", "0",
                             "--to", "6.283185307179586", "--steps", str(n),
                             "--out", str(tmp_path / "out.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64)  # imports the stages
    small, large = peak(128), peak(8 * 128)
    # a table of all 1024 rows would hold several times the 128-row peak
    assert large < 1.15 * small, (small, large)
