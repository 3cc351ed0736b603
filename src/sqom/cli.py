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
import warnings
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
    LASER_SWEEP_OUTPUTS,
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
        outputs=GridSpec.outputs if args.outputs is None else _parse_outputs(args.outputs),
    )
    rows = run_grid(cfg.params, spec, _options(args, cfg))
    _emit(grid_csv_rows(rows, spec), grid_columns(spec), args.out)
    return 0


def cmd_laser_sweep(args) -> int:
    cfg = load_config(args.config)
    spec = SweepSpec(
        axis=args.axis, start=args.from_, stop=args.to, steps=args.steps,
        outputs=LASER_SWEEP_OUTPUTS,
    )
    rows = run_sweep(cfg.params, spec, _options(args, cfg))
    out, columns = laser_rows(rows), LASER_COLUMN_NAMES
    if spec.axis != "delta_phi":  # delta_phi leads already, canonical
        out[spec.axis] = rows["axis_value"]
        columns = [spec.axis] + columns
    _emit(out, columns, args.out)
    return 0


def _bad_cell(path: str, name: str, cells, convert) -> ConfigError:
    """The error for the first of `cells` (column `name`) that convert refuses."""
    for row, cell in enumerate(cells, 1):
        try:
            convert(cell)
        except ValueError:
            kind = "an integer" if convert is int else "a number"
            return ConfigError(
                f"grid file {path}: {name} cell {cell!r} in data row {row} is not {kind}"
            )
    raise AssertionError(f"every {name} cell converts")


def _parsed(path: str, name: str, cells, convert) -> np.ndarray:
    """convert(cell) for each cell of column `name`, called once per distinct
    cell; a cell it refuses is named with its column and row."""
    try:
        distinct = {cell: convert(cell) for cell in dict.fromkeys(cells)}
    except ValueError:
        raise _bad_cell(path, name, cells, convert) from None
    return np.array(list(map(distinct.__getitem__, cells)))


def _value_cell(cell: str) -> float:
    """A value cell; an empty one (a failed point) is NaN, not an error."""
    return float(cell) if cell else math.nan


def _loadtxt_columns(path: str, usecols: list):
    """The kept columns by numpy's C parser, or None for a file it may read
    otherwise than csv and int()/float(): one that is not ASCII (numpy takes
    some letters for digits), quotes, holds a separator \\x1c-\\x1f (numpy
    strips those), keeps a column twice, or that numpy refuses or warns about
    (numpy < 2 reads '1.0' as the integer 1 with a DeprecationWarning)."""
    with open(path, newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            text = fh.read()
            if (not text.isascii() or any(c in text for c in '"\x1c\x1d\x1e\x1f')
                    or len(set(usecols)) < len(usecols)):
                return None
            fh.seek(0)
            table = np.loadtxt(
                fh, dtype="i8,i8,f8,f8,f8", delimiter=",", comments=None, quotechar=None,
                skiprows=1, usecols=usecols, ndmin=1, converters={usecols[-1]: _value_cell},
            )
        except (ValueError, Warning):  # a decoding error too
            return None
    return [table[name] for name in table.dtype.names]


def _csv_columns(path: str, names, usecols, rows):
    """The kept columns of csv rows, a short row's missing cells empty; each
    is converted when asked for, so the index checks precede the axis cells'."""
    columns = [[] for _ in usecols]
    kept = list(zip(usecols, columns))
    for row in rows:
        for i, column in kept:
            column.append(row[i] if i < len(row) else "")
    for name, cells, convert in zip(names, columns, (int, int, float, float, _value_cell)):
        yield _parsed(path, name, cells, convert)


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

        # of a repeated name, the last column counts
        kept = ("x_index", "y_index", x_axis, y_axis, field)
        position = {name: i for i, name in enumerate(names)}
        usecols = [position[name] for name in kept]
        columns = iter(_loadtxt_columns(path, usecols)
                       or _csv_columns(path, kept, usecols, itertools.chain([first], rows)))
        xi, yi = next(columns), next(columns)
    for name, index in (("x_index", xi), ("y_index", yi)):
        if index.min() < 0:
            raise ConfigError(f"grid file {path} has a negative {name}: {index.min()}")
    x_cells, y_cells, field_cells = columns
    for name, index, cells in ((x_axis, xi, x_cells), (y_axis, yi, y_cells)):
        if not np.isfinite(cells).all():
            # only the last row for an index counts
            last = np.zeros(index.size, bool)
            last[index.size - 1 - np.unique(index[::-1], return_index=True)[1]] = True
            bad = np.flatnonzero(last & ~np.isfinite(cells))
            if bad.size:
                raise ConfigError(f"grid file {path}: {name} value {float(cells[bad[0]])!r} "
                                  f"in data row {bad[0] + 1} is not finite")
    uncovered = ConfigError(f"grid file {path} does not cover the full index range")
    # n rows cover at most n cells: a larger index range (a sparse or diagonal
    # file) is refused before the index-sized arrays below are allocated; the
    # product is taken in Python ints, which do not wrap
    if (int(xi.max()) + 1) * (int(yi.max()) + 1) > xi.size:
        raise uncovered
    xs = np.full(xi.max() + 1, np.nan)
    ys = np.full(yi.max() + 1, np.nan)
    values = np.full((ys.size, xs.size), np.nan)
    # the last row for an index wins
    xs[xi] = x_cells
    ys[yi] = y_cells
    values[yi, xi] = field_cells
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise uncovered
    return xs, ys, values, field


def cmd_contours(args) -> int:
    try:
        xs, ys, values, field = _read_grid_csv(args.grid, args.field)
    except csv.Error as exc:  # e.g. a cell past the csv module's field size limit
        raise ConfigError(f"grid file {args.grid}: {exc}") from None
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


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON parameter file")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def _add_pipeline_options(p, densities=True):
    if densities:
        p.add_argument("--n-plus", type=float, default=PipelineOptions.n_plus,
                       help="pump supermode density")
        p.add_argument("--n-minus", type=float, default=PipelineOptions.n_minus,
                       help="idle supermode density")
    p.add_argument(
        "--resonance-floor", type=float, default=PipelineOptions.resonance_floor,
        help="frequency gap below which a term is flagged as a resonance hit",
    )


def _analyze_arguments(p):
    _add_common(p)
    _add_pipeline_options(p)
    p.set_defaults(func=cmd_analyze)


def _sweep_arguments(p):
    _add_common(p)
    p.add_argument("--axis", required=True)
    p.add_argument("--from", dest="from_", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--outputs", default=None, help="comma-separated column subset")
    _add_pipeline_options(p)
    p.set_defaults(func=cmd_sweep)


def _grid_arguments(p):
    _add_common(p)
    p.add_argument("--x-axis", required=True)
    p.add_argument("--x-from", type=float, required=True)
    p.add_argument("--x-to", type=float, required=True)
    p.add_argument("--x-steps", type=int, required=True)
    p.add_argument("--y-axis", required=True)
    p.add_argument("--y-from", type=float, required=True)
    p.add_argument("--y-to", type=float, required=True)
    p.add_argument("--y-steps", type=int, required=True)
    p.add_argument("--outputs", default=None, help="comma-separated column subset")
    _add_pipeline_options(p, densities=False)
    p.set_defaults(func=cmd_grid)


def _contours_arguments(p):
    p.add_argument("--grid", required=True, help="CSV produced by the grid subcommand")
    p.add_argument("--field", default=None, help="value column to contour")
    p.add_argument("--level", type=float, action="append", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_contours)


def _laser_sweep_arguments(p):
    _add_common(p)
    p.add_argument("--axis", default="delta_phi")
    p.add_argument("--from", dest="from_", type=float, default=0.0)
    p.add_argument("--to", type=float, default=2.0 * math.pi)
    p.add_argument("--steps", type=int, required=True)
    _add_pipeline_options(p)
    p.set_defaults(func=cmd_laser_sweep)


def _verify_arguments(p):
    _add_common(p)
    p.add_argument("--random", type=int, default=200, help="random sets per branch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=1e-9, help="oracle agreement tolerance")
    p.set_defaults(func=cmd_verify)


# name -> (help, add_arguments), in the order `sqom -h` lists them
SUBCOMMANDS = {
    "analyze": ("full single-point report with oracle cross-check", _analyze_arguments),
    "sweep": ("1-D sweep over any parameter or delta_phi", _sweep_arguments),
    "grid": ("2-D grid over two axes", _grid_arguments),
    "contours": ("marching-squares equipotentials of a grid CSV", _contours_arguments),
    "laser-sweep": ("phonon-laser quantities along one axis", _laser_sweep_arguments),
    "verify": ("exact identities + oracle agreement; exit 2 on failure", _verify_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of `command` alone when it names a subcommand, else of all.

    A parser of one subcommand parses that subcommand's argv as the full one
    does, with the same messages: its usage line still lists every command.
    `-h`, an empty argv and an unknown command need the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="sqom",
        description=(
            "Squeezing-engineered optomechanical couplings: two-stage "
            "transformations, regime classification, phonon-laser thresholds, "
            "and an exact-diagonalization self-check."
        ),
    )
    narrow = command in SUBCOMMANDS
    # without a metavar, argparse lists only the registered commands in usage
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(SUBCOMMANDS) + "}" if narrow else None,
    )
    for name in [command] if narrow else SUBCOMMANDS:
        help_text, add_arguments = SUBCOMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command's argv leads with its name; only that subcommand is built
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
