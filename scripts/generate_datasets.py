#!/usr/bin/env python3
"""Regenerate the reference datasets for the two working regimes.

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

Every file is produced through the same pipeline as the CLI; rerunning the
script yields byte-identical output.
"""
import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sqom import (  # noqa: E402
    GridSpec,
    PhysicalParams,
    SweepSpec,
    extract_contours,
    laser_point,
    run_grid,
    run_sweep,
    stage1_transform,
    validate,
)
from sqom.contours import contour_table  # noqa: E402
from sqom.elementwise import cabs, stack  # noqa: E402
from sqom.params import load_config  # noqa: E402
from sqom.second_stage import bs_couplings  # noqa: E402
from sqom.sweep import (  # noqa: E402
    LASER_SWEEP_OUTPUTS,
    Table,
    grid_csv_rows,
    laser_rows,
    sweep_csv_rows,
    write_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWO_PI = 2.0 * math.pi


def _reference(name: str) -> PhysicalParams:
    """The reference parameter set configs/<name>.json (drive phases 0)."""
    return load_config(CONFIGS / f"{name}.json")[0]


def _write(path: Path, rows):
    with open(path, "w", newline="") as fh:
        write_csv(rows, fh)
    print(f"wrote {path} ({len(rows)} rows)")


def _grid_field(rows, spec, name):
    # grid rows are row-major with y outermost
    return rows[name].reshape(spec.y_steps, spec.x_steps)


def _stacked(tables):
    """The rows of several tables with the same columns, one table after
    another."""
    return Table({c: np.concatenate([t[c] for t in tables]) for c in tables[0].columns})


def _contours(grows, spec, levels_by_field):
    """The contour rows of several fields of a grid, one field after another."""
    xs, ys = spec.x_values(), spec.y_values()
    tables = [
        contour_table(extract_contours(xs, ys, _grid_field(grows, spec, name), levels), name)
        for name, levels in levels_by_field
    ]
    return _stacked(tables)


def strong_drive_datasets(outdir: Path):
    params = _reference("strong_drive")
    spec = SweepSpec(
        axis="delta_phi", start=0.0, stop=TWO_PI, steps=401,
        outputs=("tms_r", "tms_w1", "tms_w2", "tms_g1", "tms_g2", "tms_eta",
                 "f1", "f2", "branch", "tms_error"),
    )
    rows = run_sweep(params, spec)
    _write(outdir / "strong_drive_couplings.csv", sweep_csv_rows(rows, spec))

    gspec = GridSpec(
        x_axis="lambda1", x_start=1995.0, x_stop=1999.95, x_steps=101,
        y_axis="delta_phi", y_start=0.0, y_stop=TWO_PI, y_steps=101,
        outputs=("f1", "f2", "tms_g1", "tms_g2", "tms_eta", "branch"),
    )
    grows = run_grid(params, gspec)
    _write(outdir / "strong_drive_grid.csv", grid_csv_rows(grows, gspec))

    crows = _contours(grows, gspec, [("f1", [10.0]), ("tms_g2", [0.1]), ("tms_eta", [0.05])])
    _write(outdir / "strong_drive_contours.csv", crows)


def boundary_datasets(outdir: Path):
    params = _reference("boundary")
    gspec = GridSpec(
        x_axis="lambda1", x_start=197.2, x_stop=199.9, x_steps=109,
        y_axis="delta_phi", y_start=0.0, y_stop=TWO_PI, y_steps=109,
        outputs=("f1", "f2", "branch"),
    )
    grows = run_grid(params, gspec)
    _write(outdir / "boundary_grid.csv", grid_csv_rows(grows, gspec))

    crows = _contours(grows, gspec, [("f1", [10.0]), ("f2", [0.0])])
    _write(outdir / "boundary_contours.csv", crows)

    spec = SweepSpec(
        axis="delta_phi", start=0.0, stop=TWO_PI, steps=401,
        outputs=("tms_w1", "tms_w2", "tms_g2", "tms_g12_re", "tms_g12_im",
                 "tms_gp12_abs", "tms_resonance", "f1", "f2", "tms_error"),
    )
    rows = sweep_csv_rows(run_sweep(params, spec), spec)
    rows["w_sum"] = rows["tms_w1"] + rows["tms_w2"]
    _write(outdir / "boundary_resonance.csv", rows)


def laser_datasets(outdir: Path):
    laser = _reference("laser")
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=TWO_PI, steps=721,
                     outputs=LASER_SWEEP_OUTPUTS)
    projected = laser_rows(run_sweep(laser, spec), spec)
    _write(outdir / "laser_threshold.csv", projected)

    # stimulated phonon number vs pump density at selected working points
    pth = projected["p_threshold"].tolist()
    dips = [
        i for i in range(1, len(pth) - 1) if pth[i] < pth[i - 1] and pth[i] < pth[i + 1]
    ]
    working_points = {f"dip_{k}": projected[i]["delta_phi"] for k, i in enumerate(dips)}
    working_points["pi"] = math.pi
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
    vp = validate(stack(PhysicalParams, params))
    c = bs_couplings(stage1_transform(vp), vp)
    # one row per working point and density, working points outermost
    densities = np.geomspace(1e-3, 10.0, 201)
    at = np.repeat(np.arange(len(points)), densities.size)
    n_plus = np.tile(densities, len(points))
    res = laser_point(cabs(c.gp12)[at], c.w1[at], c.w2[at],
                      vp.omega_m[at], vp.kappa[at], vp.gamma_m[at], n_plus=n_plus)
    table = Table(
        {"point": np.array(labels, dtype=object)[at], "delta_phi": np.array(dphis)[at],
         "n_plus": n_plus, "gain": res.gain, "n_b": res.n_b,
         "n_b_capped": res.n_b_capped, "n_threshold": res.n_threshold}
    )
    _write(outdir / "phonon_number.csv", table)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="datasets", type=Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    strong_drive_datasets(args.outdir)
    boundary_datasets(args.outdir)
    laser_datasets(args.outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
