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
from dataclasses import fields, replace

from . import _deferred
from .elementwise import broadcast
from .errors import ConfigError, SqomError
from .params import PhysicalParams, PipelineOptions, load_config
from .sweep import (
    LASER_SWEEP_OUTPUTS,
    GridSpec,
    SweepSpec,
    analyze,
    grid_columns,
    grid_csv_rows,
    laser_columns,
    laser_rows,
    row_blocks,
    run_grid,
    run_sweep,
    sweep_columns,
    sweep_csv_rows,
    write_csv,
)

# name -> module of the functions one subcommand alone calls: imported when
# that subcommand runs (`_command`), so `grid` loads neither; and of COLUMNS,
# which perfbench/run.py reads as `sqom.cli.COLUMNS`
_COMMAND_MODULES = {"extract_contours": "contours", "run_verification": "verify",
                    "COLUMNS": "sweep"}


def _command(name: str):
    """`name` from its module, imported on first use; a call through it runs
    whatever this module binds under that name, a wrapper included."""
    return _deferred(globals(), _COMMAND_MODULES, name)


__getattr__ = _command  # PEP 562: sqom.cli.run_verification before verify ran


def _emit(blocks, columns, out_path: str | None) -> None:
    """Write `blocks`, each a Table or an iterable of row dicts, as one CSV:
    the header, then each block's rows as soon as the block comes, so a
    generator of blocks holds one block at a time."""
    def write(out) -> None:
        for i, rows in enumerate(blocks):
            write_csv(rows, columns, out, header=i == 0)

    if out_path is None:
        write(sys.stdout)
    else:
        try:
            with open(out_path, "w", newline="") as fh:
                write(fh)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out_path}: {exc}") from exc


def _check_flag(flag: str, value, non_negative: bool = False) -> None:
    """Refuse a float flag's non-finite value, and a negative one where the
    flag must be `non_negative`."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite, got {value}")
    if non_negative and value < 0:
        raise ConfigError(f"{flag} must be >= 0, got {value}")


def _load(args) -> tuple[PhysicalParams, PipelineOptions]:
    """The config's parameter point and options, with the pipeline options
    the subcommand offers set from its flags, which must be finite."""
    knobs = {k: v for k, v in vars(args).items() if k in PipelineOptions.__dataclass_fields__}
    for key, value in knobs.items():
        _check_flag("--" + key.replace("_", "-"), value)
    params, opts = load_config(args.config)
    return params, replace(opts, **knobs)


def _outputs(args) -> dict:
    """`outputs=` from --outputs, a comma-separated list; without it, the spec's default."""
    if args.outputs is None:
        return {}
    return {"outputs": tuple(s.strip() for s in args.outputs.split(",") if s.strip())}


def cmd_analyze(args) -> int:
    row = analyze(*_load(args))
    _emit([[row]], list(row), args.out)
    return 0


def cmd_sweep(args) -> int:
    params, opts = _load(args)
    spec = SweepSpec(
        axis=args.axis,
        start=args.from_,
        stop=args.to,
        steps=args.steps,
        **_outputs(args),
    )
    blocks = (sweep_csv_rows(run_sweep(params, spec, opts, rows), spec)
              for rows in row_blocks(spec.steps, spec.outputs))
    _emit(blocks, sweep_columns(spec), args.out)
    return 0


def cmd_grid(args) -> int:
    params, opts = _load(args)
    spec = GridSpec(
        x_axis=args.x_axis,
        x_start=args.x_from,
        x_stop=args.x_to,
        x_steps=args.x_steps,
        y_axis=args.y_axis,
        y_start=args.y_from,
        y_stop=args.y_to,
        y_steps=args.y_steps,
        **_outputs(args),
    )
    blocks = (grid_csv_rows(run_grid(params, spec, opts, rows), spec)
              for rows in row_blocks(spec.x_steps * spec.y_steps, spec.outputs))
    _emit(blocks, grid_columns(spec), args.out)
    return 0


def cmd_laser_sweep(args) -> int:
    params, opts = _load(args)
    spec = SweepSpec(
        axis=args.axis, start=args.from_, stop=args.to, steps=args.steps,
        outputs=LASER_SWEEP_OUTPUTS,
    )
    blocks = (laser_rows(run_sweep(params, spec, opts, rows), spec)
              for rows in row_blocks(spec.steps, spec.outputs))
    _emit(blocks, laser_columns(spec), args.out)
    return 0


def cmd_contours(args) -> int:
    from .contours import CONTOUR_COLUMNS, contour_table, read_grid_file

    xs, ys, values, field = read_grid_file(args.grid, args.field)
    contour_set = _command("extract_contours")(xs, ys, values, args.level)
    for level in contour_set.empty_levels():
        print(f"note: level {level:g} never crosses field {field}", file=sys.stderr)
    _emit([contour_table(contour_set, field)], CONTOUR_COLUMNS, args.out)
    return 0


def cmd_verify(args) -> int:
    for flag, value in (("--random", args.random), ("--seed", args.seed),
                        ("--rel-tol", args.rel_tol)):
        _check_flag(flag, value, non_negative=True)
    params, _ = load_config(args.config)
    from .params import validate
    from .verify import CheckRow, all_passed

    rows = _command("run_verification")(
        validate(broadcast(params, 1)),
        n_random=args.random, seed=args.seed, oracle_rtol=args.rel_tol,
    )
    _emit([map(vars, rows)], [f.name for f in fields(CheckRow)], args.out)
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
    try:
        args = _parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse's: 0 after -h, 2 after a usage error
        if exc.code == 2:  # its message is on stderr; our 2 means a failed verification
            return 1
        raise
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
