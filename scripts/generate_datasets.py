#!/usr/bin/env python3
"""Regenerate the reference datasets of the three reference sets.

Produces, in --outdir (default ./datasets):

  strong_drive_couplings.csv   enhanced couplings G1, G2 and supermode
                               frequencies versus the drive phase difference
                               for the squeezing-dominated (f1 >> 1) set
  strong_drive_grid.csv        f1, G1, G2, eta over (lambda1, delta_phi)
  strong_drive_contours.csv    equipotentials f1 = 10, G2 = 0.1, eta = 0.05
  boundary_grid.csv            f1 and the stability margin f2 over
                               (lambda1, delta_phi) for the near-boundary set
  boundary_contours.csv        equipotentials f1 = 10 and f2 = 0
  boundary_resonance.csv       pair-resonance hunt: W1 + W2 vs delta_phi
  laser_threshold.csv          |gp12|, supermode splitting, threshold density
                               and power versus delta_phi (f1 << 1 set)
  phonon_number.csv            stimulated phonon number vs pump density at
                               the threshold dips, at delta_phi = pi, and for
                               the undriven baseline tuned to resonance

Six files are what a `sqom` command writes (CALLS; a contour file is one
`sqom contours` call per field, under one header). boundary_resonance.csv is
a sweep table plus its derived w_sum column, and phonon_number.csv the laser
block of one evaluation over every (working point, density) pair.
Rerunning the script yields byte-identical output.
"""
import argparse
import contextlib
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sqom.cli import main as sqom  # noqa: E402
from sqom.elementwise import stack, take  # noqa: E402
from sqom.params import PhysicalParams, PipelineOptions, load_config  # noqa: E402
from sqom.sweep import (  # noqa: E402
    Axis, SweepSpec, Table, _evaluate, run_sweep, sweep_csv_rows, write_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWO_PI = 2.0 * math.pi

# dataset file -> the `sqom` call that writes it, a configs/ name in place of --config PATH
CALLS = {
    "strong_drive_couplings.csv": (
        "sweep", "strong_drive", "--axis", "delta_phi", "--from", "0", "--to", repr(TWO_PI),
        "--steps", "401", "--outputs", "tms_r,tms_w1,tms_w2,tms_g1,tms_g2,tms_eta,f1,f2,branch,"
        "tms_error",
    ),
    "strong_drive_grid.csv": (
        "grid", "strong_drive", "--x-axis", "lambda1", "--x-from", "1995", "--x-to", "1999.95",
        "--x-steps", "101", "--y-axis", "delta_phi", "--y-from", "0", "--y-to", repr(TWO_PI),
        "--y-steps", "101", "--outputs", "f1,f2,tms_g1,tms_g2,tms_eta,branch",
    ),
    "boundary_grid.csv": (
        "grid", "boundary", "--x-axis", "lambda1", "--x-from", "197.2", "--x-to", "199.9",
        "--x-steps", "109", "--y-axis", "delta_phi", "--y-from", "0", "--y-to", repr(TWO_PI),
        "--y-steps", "109", "--outputs", "f1,f2,branch",
    ),
    "laser_threshold.csv": ("laser-sweep", "laser", "--steps", "721"),
}
# contour file -> the grid file it contours and its (field, level) pairs, in order
CONTOURS = {
    "strong_drive_contours.csv": (
        "strong_drive_grid.csv", [("f1", "10"), ("tms_g2", "0.1"), ("tms_eta", "0.05")],
    ),
    "boundary_contours.csv": ("boundary_grid.csv", [("f1", "10"), ("f2", "0")]),
}


def _sqom(*argv: str) -> str:
    """What `sqom argv` writes to stdout; a failed call, whose `error:` line
    is on stderr, ends the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sqom(list(argv))
    if code:
        sys.exit(f"sqom {' '.join(argv)} exited {code}")
    return out.getvalue()


def _write(path: Path, rows: str | Table) -> None:
    """Write `rows`, a command's CSV text or a table, to `path`."""
    with open(path, "w", newline="") as fh:
        if isinstance(rows, str):
            fh.write(rows)
        else:
            write_csv(rows, fh)
    print(f"wrote {path}")


def boundary_resonance() -> Table:
    """The boundary set's phase sweep plus its derived w_sum column."""
    spec = SweepSpec(
        Axis("delta_phi", 0.0, TWO_PI, 401),
        outputs=("tms_w1", "tms_w2", "tms_g2", "tms_g12_re", "tms_g12_im",
                 "tms_gp12_abs", "tms_resonance", "f1", "f2", "tms_error"),
    )
    rows = sweep_csv_rows(run_sweep(load_config(CONFIGS / "boundary.json")[0], spec), spec)
    rows["w_sum"] = rows["tms_w1"] + rows["tms_w2"]
    return rows


def phonon_number(laser_threshold: str) -> Table:
    """The stimulated phonon number vs pump density at the dips of the
    threshold power in `laser_threshold` (the text of laser_threshold.csv),
    at delta_phi = pi and for the undriven baseline, on the branch
    `classify` picks at each point."""
    sweep = list(csv.DictReader(laser_threshold.splitlines()))
    pth = [float(row["p_threshold"]) for row in sweep]
    dips = [i for i in range(1, len(pth) - 1) if pth[i] < pth[i - 1] and pth[i] < pth[i + 1]]
    working_points = {f"dip_{k}": float(sweep[i]["delta_phi"]) for k, i in enumerate(dips)}
    working_points["pi"] = math.pi
    laser = load_config(CONFIGS / "laser.json")[0]
    points = [
        (label, dphi, laser.replace(phi_d1=laser.phi_d2 + dphi))
        for label, dphi in sorted(working_points.items())
    ]
    # undriven baseline: no parametric drives, hopping retuned so the
    # supermode splitting sits exactly on the mechanical resonance
    points.append((
        "undriven_baseline", 0.0,
        laser.replace(lambda1=0.0, lambda2=0.0, delta1=20.0, delta2=19.2, j_hop=0.3),
    ))

    labels, dphis, params = zip(*points)
    # one row per working point and density, working points outermost
    densities = np.geomspace(1e-3, 10.0, 201)
    at = np.repeat(np.arange(len(points)), densities.size)
    n_plus = np.tile(densities, len(points))
    keys = ("gain", "n_b", "n_b_capped", "n_threshold")
    cells = _evaluate(take(stack(PhysicalParams, params), at), PipelineOptions(n_plus=n_plus),
                      ["laser_" + key for key in keys])
    return Table({"point": np.array(labels, dtype=object)[at], "delta_phi": np.array(dphis)[at],
                  "n_plus": n_plus, **{key: cells["laser_" + key] for key in keys}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="datasets", type=Path)
    outdir = parser.parse_args(argv).outdir
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, (command, config, *rest) in CALLS.items():
        written[name] = _sqom(command, "--config", str(CONFIGS / f"{config}.json"), *rest)
        _write(outdir / name, written[name])
    for name, (grid, fields) in CONTOURS.items():
        parts = [_sqom("contours", "--grid", str(outdir / grid), "--field", field,
                       "--level", level) for field, level in fields]
        _write(outdir / name, parts[0] + "".join(p.split("\n", 1)[1] for p in parts[1:]))
    _write(outdir / "boundary_resonance.csv", boundary_resonance())
    _write(outdir / "phonon_number.csv", phonon_number(written["laser_threshold.csv"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
