"""Command-line interface: analyze, sweep, grid, contours, laser-sweep, verify.

All subcommands read a JSON parameter file (see README for the schema) and
emit CSV to stdout or to --out FILE. Exit codes: 0 success, 1 configuration
or usage errors, 2 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from .contours import CONTOUR_COLUMNS, contour_table, extract_contours
from .elementwise import broadcast
from .errors import ConfigError, SqomError
from .params import load_config
from .sweep import (
    COLUMN_SCHEMA,
    COLUMNS,
    LASER_COLUMN_NAMES,
    ORACLE_COLUMNS,
    GridSpec,
    PipelineOptions,
    SweepSpec,
    analyze,
    grid_columns,
    grid_csv_rows,
    laser_rows,
    run_grid,
    run_sweep,
    sweep_columns,
    sweep_csv_rows,
    write_csv,
)
from .verify import CheckRow, all_passed, run_verification


def _emit(rows, columns, out_path: str | None) -> None:
    if out_path is None:
        write_csv(rows, columns, sys.stdout)
    else:
        with open(out_path, "w", newline="") as fh:
            write_csv(rows, columns, fh)


def _options(args, cfg) -> PipelineOptions:
    """The config's regime thresholds plus the pipeline options the
    subcommand offers; the others keep their PipelineOptions defaults."""
    knobs = {k: v for k, v in vars(args).items() if k in PipelineOptions.__dataclass_fields__}
    return PipelineOptions(f1_hi=cfg.f1_hi, f1_lo=cfg.f1_lo, **knobs)


def _parse_outputs(text: str | None):
    if text is None:
        return None
    return tuple(s.strip() for s in text.split(",") if s.strip())


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    row = analyze(cfg.params, _options(args, cfg))
    columns = list(COLUMNS) + list(ORACLE_COLUMNS)
    _emit([row], columns, args.out)
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = SweepSpec(
        axis=args.axis,
        start=args.from_,
        stop=args.to,
        steps=args.steps,
        outputs=_parse_outputs(args.outputs),
    )
    rows = run_sweep(cfg.params, spec, _options(args, cfg))
    _emit(sweep_csv_rows(rows, spec), sweep_columns(spec), args.out)
    return 0


def cmd_grid(args) -> int:
    cfg = load_config(args.config)
    spec = GridSpec(
        x_axis=args.x_axis,
        x_start=args.x_from,
        x_stop=args.x_to,
        x_steps=args.x_steps,
        y_axis=args.y_axis,
        y_start=args.y_from,
        y_stop=args.y_to,
        y_steps=args.y_steps,
        outputs=_parse_outputs(args.outputs) or GridSpec.outputs,
    )
    rows = run_grid(cfg.params, spec, _options(args, cfg))
    _emit(grid_csv_rows(rows, spec), grid_columns(spec), args.out)
    return 0


def cmd_laser_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = SweepSpec(axis=args.axis, start=args.from_, stop=args.to, steps=args.steps)
    rows = run_sweep(cfg.params, spec, _options(args, cfg))
    _emit(laser_rows(rows), LASER_COLUMN_NAMES, args.out)
    return 0


def _parsed(cells, convert) -> list:
    """convert(cell) for each cell, called once per distinct cell in order of
    first appearance, so a bad cell raises as in a row-by-row pass."""
    distinct = {cell: convert(cell) for cell in dict.fromkeys(cells)}
    return list(map(distinct.__getitem__, cells))


def _read_grid_csv(path: str, field: str | None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None:
            raise ConfigError(f"grid file {path} is empty")
        required = {"x_index", "y_index"}
        if not required <= set(names):
            raise ConfigError(
                f"grid file {path} lacks x_index/y_index columns; "
                "produce it with the `grid` subcommand"
            )
        rows = (row for row in reader if row)  # blank lines carry no row
        first = next(rows, None)
        if first is None:
            raise ConfigError(f"grid file {path} has no data rows")
        if len(names) < 4:
            missing = " and ".join(("x axis", "y axis")[len(names) - 2:])
            header = ",".join(names)
            raise ConfigError(f"grid file {path} lacks the {missing} column after {header}")
        x_axis, y_axis = names[2], names[3]
        non_numeric = {name for name, kind in COLUMN_SCHEMA if kind != "float"}
        numeric = [n for n in names[4:] if n not in non_numeric]
        if field is None:
            if len(numeric) != 1:
                raise ConfigError(
                    f"grid file has {len(numeric)} candidate value columns "
                    f"({', '.join(numeric)}); pick one with --field"
                )
            field = numeric[0]
        elif field not in numeric:
            raise ConfigError(f"--field {field!r} not among numeric grid columns {numeric}")

        # only the cells converted below are kept; a short row has empty
        # trailing cells; of a repeated name, the last column counts
        position = {name: i for i, name in enumerate(names)}
        columns = {name: [] for name in ("x_index", "y_index", x_axis, y_axis, field)}
        kept = [(position[name], column) for name, column in columns.items()]
        for row in itertools.chain([first], rows):
            for i, column in kept:
                column.append(row[i] if i < len(row) else "")
    xi = np.array(_parsed(columns["x_index"], int))
    yi = np.array(_parsed(columns["y_index"], int))
    xs = np.full(xi.max() + 1, np.nan)
    ys = np.full(yi.max() + 1, np.nan)
    values = np.full((ys.size, xs.size), np.nan)
    # the last row for an index wins
    xs[xi] = _parsed(columns[x_axis], float)
    ys[yi] = _parsed(columns[y_axis], float)
    values[yi, xi] = [float(cell) if cell else math.nan for cell in columns[field]]
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise ConfigError(f"grid file {path} does not cover the full index range")
    return xs, ys, values, field


def cmd_contours(args) -> int:
    xs, ys, values, field = _read_grid_csv(args.grid, args.field)
    contour_set = extract_contours(xs, ys, values, args.level)
    for level in contour_set.empty_levels():
        print(f"note: level {level:g} never crosses field {field}", file=sys.stderr)
    _emit(contour_table(contour_set, field), CONTOUR_COLUMNS, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.random < 0:
        raise ConfigError(f"--random must be >= 0, got {args.random}")
    cfg = load_config(args.config)
    from .params import validate

    rows = run_verification(
        validate(broadcast(cfg.params, 1)),
        n_random=args.random, seed=args.seed, oracle_rtol=args.rel_tol,
    )
    _emit([asdict(r) for r in rows], [f.name for f in fields(CheckRow)], args.out)
    return 0 if all_passed(rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqom",
        description=(
            "Squeezing-engineered optomechanical couplings: two-stage "
            "transformations, regime classification, phonon-laser thresholds, "
            "and an exact-diagonalization self-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON parameter file")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    def add_pipeline_options(p, densities=True):
        if densities:
            p.add_argument("--n-plus", type=float, default=PipelineOptions.n_plus,
                           help="pump supermode density")
            p.add_argument("--n-minus", type=float, default=PipelineOptions.n_minus,
                           help="idle supermode density")
        p.add_argument(
            "--resonance-floor", type=float, default=PipelineOptions.resonance_floor,
            help="frequency gap below which a term is flagged as a resonance hit",
        )

    p = sub.add_parser("analyze", help="full single-point report with oracle cross-check")
    add_common(p)
    add_pipeline_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="1-D sweep over any parameter or delta_phi")
    add_common(p)
    p.add_argument("--axis", required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--outputs", default=None, help="comma-separated column subset")
    add_pipeline_options(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("grid", help="2-D grid over two axes")
    add_common(p)
    p.add_argument("--x-axis", required=True)
    p.add_argument("--x-from", type=float, required=True)
    p.add_argument("--x-to", type=float, required=True)
    p.add_argument("--x-steps", type=int, required=True)
    p.add_argument("--y-axis", required=True)
    p.add_argument("--y-from", type=float, required=True)
    p.add_argument("--y-to", type=float, required=True)
    p.add_argument("--y-steps", type=int, required=True)
    p.add_argument("--outputs", default=None, help="comma-separated column subset")
    add_pipeline_options(p, densities=False)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("contours", help="marching-squares equipotentials of a grid CSV")
    p.add_argument("--grid", required=True, help="CSV produced by the grid subcommand")
    p.add_argument("--field", default=None, help="value column to contour")
    p.add_argument("--level", type=float, action="append", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_contours)

    p = sub.add_parser("laser-sweep", help="phonon-laser quantities along one axis")
    add_common(p)
    p.add_argument("--axis", default="delta_phi")
    p.add_argument("--from", dest="from_", type=float, default=0.0)
    p.add_argument("--to", type=float, default=2.0 * math.pi)
    p.add_argument("--steps", type=int, required=True)
    add_pipeline_options(p)
    p.set_defaults(func=cmd_laser_sweep)

    p = sub.add_parser("verify", help="exact identities + oracle agreement; exit 2 on failure")
    add_common(p)
    p.add_argument("--random", type=int, default=200, help="random sets per branch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=1e-9, help="oracle agreement tolerance")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SqomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
