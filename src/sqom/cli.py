"""Command-line interface: analyze, sweep, grid, contours, laser-sweep, verify.

All subcommands read a JSON parameter file (see README for the schema) and
emit CSV to stdout or to --out FILE. Exit codes: 0 success, 1 configuration
or usage errors or a reader of stdout that closed early, 2 verification
failure.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import fields

from . import _deferred
from .elementwise import broadcast
from .errors import ConfigError, SqomError
from .params import load_config
from .sweep import (
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

# name -> module of the functions one subcommand alone calls: imported when
# that subcommand runs (`_command`), so `grid` loads neither
_COMMAND_MODULES = {"extract_contours": "contours", "run_verification": "verify"}


def _command(name: str):
    """`name` from its module, imported on first use; a call through it runs
    whatever this module binds under that name, a wrapper included."""
    return _deferred(globals(), _COMMAND_MODULES, name)


__getattr__ = _command  # PEP 562: sqom.cli.run_verification before verify ran


def _emit(rows, columns, out_path: str | None) -> None:
    if out_path is None:
        write_csv(rows, columns, sys.stdout)
    else:
        try:
            with open(out_path, "w", newline="") as fh:
                write_csv(rows, columns, fh)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out_path}: {exc}") from exc


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


def cmd_contours(args) -> int:
    from .contours import CONTOUR_COLUMNS, contour_table, read_grid_file

    xs, ys, values, field = read_grid_file(args.grid, args.field)
    contour_set = _command("extract_contours")(xs, ys, values, args.level)
    for level in contour_set.empty_levels():
        print(f"note: level {level:g} never crosses field {field}", file=sys.stderr)
    _emit(contour_table(contour_set, field), CONTOUR_COLUMNS, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.random < 0:
        raise ConfigError(f"--random must be >= 0, got {args.random}")
    cfg = load_config(args.config)
    from .params import validate
    from .verify import CheckRow, all_passed

    rows = _command("run_verification")(
        validate(broadcast(cfg.params, 1)),
        n_random=args.random, seed=args.seed, oracle_rtol=args.rel_tol,
    )
    _emit(map(vars, rows), [f.name for f in fields(CheckRow)], args.out)
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


@functools.cache
def _parser(command: str | None) -> argparse.ArgumentParser:
    """`build_parser(command)`, built once per process: parsing leaves no
    state in a parser, and building one costs several times the parse."""
    return build_parser(command)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command's argv leads with its name; only that subcommand is built.
    # Any other argv shares the full parser's key, so the cache stays small.
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    args = _parser(command).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that left raises here, not at exit
        return code
    except BrokenPipeError:
        # Python docs, "Note on SIGPIPE": the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SqomError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
