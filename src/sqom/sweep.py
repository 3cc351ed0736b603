"""Single-point analysis, 1-D sweeps and 2-D grids with CSV emission.

The pipeline is columnar: an evaluation builds one array per parameter over
its points, and each stage (validate -> stage 1 -> regime -> both
second-stage branches -> validity -> laser -> oracle) runs at most once on
those arrays. A stage runs only when a requested column needs it (`NEEDS`; a
branch runs with its validity report): the `f1,f2,branch` regime map stops
after `classify`, and the table it returns holds only the requested columns
plus `error`: a spec's `outputs`, by default every column (COLUMNS) for a
SweepSpec and the regime map for a GridSpec. `run_sweep` and `run_grid`
evaluate the rows they are asked for, all by default; the CLI asks for one
block of rows at a time (`row_blocks`: at most BLOCK_CELLS returned cells,
1927 rows of the full sweep, one block for a regime map of up to 32 768
points) and writes each block before it evaluates the next, so the stages
run once per block, not once per sweep, and peak memory does not grow with
the point count. A command's header is `sweep_columns`, `grid_columns` or
`laser_columns` (of `laser_rows`) of its spec, or an `analyze` row's keys.
`evaluate_point` and `analyze` are the length-1 case of the same evaluator
with every column (`analyze` adds the oracle's), so a sweep row and a
single-point analysis of the same parameters agree field by field.
Per-point failures (e.g. the two-mode-squeezing stage refusing) never abort
a sweep: they become masks, numeric cells keep a NaN sentinel and the typed
error name lands in the matching error column.

Exactness rule. A row must not depend on the batch its point is evaluated
in, and must equal CPython's float math on that point bit for bit; numpy's
SIMD math does not match libm in the last bit. So numpy touches row values
only through +, -, *, / on float arrays, complex + complex, complex + real,
comparisons and `where`; every libm call (exp, log, cosh, sinh, cos, sin,
atan2, x**2, cmath.exp, cmath.phase, complex abs) is the math/cmath function
mapped over `arr.tolist()`, and a real times complex product is spelled out
as CPython computes it. A map of one float array makes one libm call per
distinct bit pattern: libm is a pure function of its input's bits, so the
bits match a call per element. See `elementwise`.

CSV conventions: header row, fixed column order (see COLUMNS), '.' decimal
separator, 17 significant digits, 'nan' sentinel, lowercase true/false.
Identical inputs produce byte-identical output, whatever the blocks: a row
never depends on its batch. `write_csv` formats a table column by column,
one %-format per float column, and formats each distinct value of a float,
int, bool or str column once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, TextIO

import numpy as np

from . import _deferred
from .elementwise import broadcast, distinct, take
from .errors import TMS_UNSTABLE, ZERO_COUPLING
from .params import (
    PhysicalParams,
    PipelineOptions,
    canonical_delta_phi,
    validate,
    validation_errors,
)
from .regime import TERMS, Branch, classify
from .stage1 import stage1_transform

# name -> module of the stages a column may need: imported when the stage
# first runs (`_stage`), so the `f1,f2,branch` map loads no branch
_STAGE_MODULES = {
    "tms_couplings": "second_stage",
    "rwa_validity_tms": "second_stage",
    "bs_couplings": "second_stage",
    "rwa_validity_bs": "second_stage",
    "laser_point": "laser",
}


def _stage(name: str):
    """`name` from its stage's module, imported on first use; a call through
    it runs whatever this module binds under that name, a wrapper included."""
    return _deferred(globals(), _STAGE_MODULES, name)


__getattr__ = _stage  # PEP 562: sqom.sweep.tms_couplings before the stage ran

# Axes accepted by sweeps and grids. delta_phi is virtual: it moves phi_d1
# with phi_d2 held fixed, matching how the phase difference is scanned.
SWEEPABLE_AXES = (
    "delta_phi",
    "delta1",
    "delta2",
    "lambda1",
    "lambda2",
    "phi_d1",
    "phi_d2",
    "j_hop",
    "g0",
    "kappa",
    "gamma_m",
)

_F, _S, _B = "float", "str", "bool"

# (name, kind) in emission order; kind picks the sentinel for failed rows.
COLUMN_SCHEMA: tuple[tuple[str, str], ...] = (
    ("delta_phi", _F),
    ("r_d1", _F),
    ("r_d2", _F),
    ("omega_s1", _F),
    ("omega_s2", _F),
    ("g_s2", _F),
    ("g_p2", _F),
    ("lam1_re", _F),
    ("lam1_im", _F),
    ("lam2_re", _F),
    ("lam2_im", _F),
    ("f_disp", _F),
    ("c_const", _F),
    ("f1", _F),
    ("f2", _F),
    ("f1_degenerate", _B),
    ("branch", _S),
    ("tms_r", _F),
    ("tms_phi", _F),
    ("tms_w1", _F),
    ("tms_w2", _F),
    ("tms_g1", _F),
    ("tms_g2", _F),
    ("tms_g11_re", _F),
    ("tms_g11_im", _F),
    ("tms_g22_re", _F),
    ("tms_g22_im", _F),
    ("tms_g12_re", _F),
    ("tms_g12_im", _F),
    ("tms_gp12_re", _F),
    ("tms_gp12_im", _F),
    ("tms_gp12_abs", _F),
    ("tms_f_prime", _F),
    ("tms_c_prime", _F),
    ("tms_eta", _F),
    ("tms_max_rwa_ratio", _F),
    ("tms_resonance", _B),
    ("tms_error", _S),
    ("bs_theta", _F),
    ("bs_phi", _F),
    ("bs_w1", _F),
    ("bs_w2", _F),
    ("bs_g1", _F),
    ("bs_g2", _F),
    ("bs_g11_re", _F),
    ("bs_g11_im", _F),
    ("bs_g22_re", _F),
    ("bs_g22_im", _F),
    ("bs_g12_re", _F),
    ("bs_g12_im", _F),
    ("bs_gp12_re", _F),
    ("bs_gp12_im", _F),
    ("bs_gp12_abs", _F),
    ("bs_max_rwa_ratio", _F),
    ("bs_resonance", _B),
    ("laser_source", _S),
    ("laser_w1", _F),
    ("laser_w2", _F),
    ("laser_detuning", _F),
    ("laser_gp12_abs", _F),
    ("laser_gain", _F),
    ("laser_n_b", _F),
    ("laser_n_b_capped", _B),
    ("laser_n_threshold", _F),
    ("laser_p_threshold", _F),
    ("laser_error", _S),
    ("error", _S),
)

COLUMNS = tuple(name for name, _ in COLUMN_SCHEMA)

def _column_needs(name: str) -> frozenset:
    """The stages column `name` needs beyond validation, read off its prefix.

    Every column but `error` needs stage 1, which runs with `classify`;
    `delta_phi` needs the fold of the phases too. A `tms_`/`bs_` column needs
    that branch, which runs with its validity report. The `laser_` and
    `oracle_` blocks need both branches.
    """
    if name == "error":
        return frozenset()
    if name == "delta_phi":
        return frozenset({"stage1", "delta_phi"})
    for branch in ("tms", "bs"):
        if name.startswith(branch + "_"):
            return frozenset({"stage1", branch})
    if name.startswith(("laser_", "oracle_")):
        return frozenset({"stage1", "tms", "bs", name.split("_")[0]})
    return frozenset({"stage1"})


ORACLE_SCHEMA: tuple[tuple[str, str], ...] = (
    ("oracle_nu1", _F),
    ("oracle_nu2", _F),
    ("oracle_stable", _B),
    ("oracle_freq_dev_lo", _F),
    ("oracle_freq_dev_hi", _F),
    ("oracle_coeff_defect_tms", _F),
    ("oracle_coeff_defect_bs", _F),
    ("oracle_metric_defect", _F),
)

ORACLE_COLUMNS = tuple(name for name, _ in ORACLE_SCHEMA)

NEEDS = {name: _column_needs(name) for name in COLUMNS + ORACLE_COLUMNS}

# Column projection for the laser-focused sweep (fixed external names).
LASER_SWEEP_COLUMNS = (
    ("delta_phi", "delta_phi"),
    ("w1", "laser_w1"),
    ("w2", "laser_w2"),
    ("detuning", "laser_detuning"),
    ("gp12_abs", "laser_gp12_abs"),
    ("gain", "laser_gain"),
    ("n_b", "laser_n_b"),
    ("n_threshold", "laser_n_threshold"),
    ("p_threshold", "laser_p_threshold"),
    ("branch", "branch"),
    ("f1", "f1"),
    ("error", "error"),
)

# What `laser_rows` reads: the projected columns and the laser error.
LASER_SWEEP_OUTPUTS = tuple(key for _, key in LASER_SWEEP_COLUMNS) + ("laser_error",)


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis, inclusive endpoints, `steps` evenly spaced samples."""

    axis: str
    start: float
    stop: float
    steps: int
    outputs: tuple[str, ...] = COLUMNS

    def __post_init__(self):
        _check_axis(self.axis)
        _check_span(self.axis, self.start, self.stop)
        _check_steps(self.steps)
        _check_outputs(self.outputs)

    def values(self, index=None) -> np.ndarray:
        return _linspace(self.start, self.stop, self.steps, index)


@dataclass(frozen=True)
class GridSpec:
    """Two swept axes; the y axis varies slowest in the emitted rows."""

    x_axis: str
    x_start: float
    x_stop: float
    x_steps: int
    y_axis: str
    y_start: float
    y_stop: float
    y_steps: int
    outputs: tuple[str, ...] = ("f1", "f2", "branch")

    def __post_init__(self):
        _check_axis(self.x_axis)
        _check_axis(self.y_axis)
        if self.x_axis == self.y_axis:
            raise ValueError(f"grid axes must differ, both are {self.x_axis!r}")
        _check_span(self.x_axis, self.x_start, self.x_stop)
        _check_span(self.y_axis, self.y_start, self.y_stop)
        _check_steps(self.x_steps)
        _check_steps(self.y_steps)
        _check_outputs(self.outputs)

    def x_values(self, index=None) -> np.ndarray:
        return _linspace(self.x_start, self.x_stop, self.x_steps, index)

    def y_values(self, index=None) -> np.ndarray:
        return _linspace(self.y_start, self.y_stop, self.y_steps, index)


def _linspace(start: float, stop: float, steps: int, index=None) -> np.ndarray:
    """np.linspace(start, stop, steps)[index] (all of it by default) for an
    integer array `index`, computed at those indices only and bit for bit:
    numpy takes i*step + start, or (i/div)*delta + start where the step
    underflows to 0, and writes `stop` last."""
    div = steps - 1
    i = np.arange(steps, dtype=float) if index is None else np.asarray(index, dtype=float)
    delta = float(stop) - float(start)
    step = delta / div
    values = i / div * delta if step == 0 else i * step
    values += float(start)
    values[i == div] = stop
    return values


def _check_axis(axis: str):
    if axis not in SWEEPABLE_AXES:
        raise ValueError(f"unknown axis {axis!r}; choose one of {', '.join(SWEEPABLE_AXES)}")


def _check_span(axis: str, start: float, stop: float):
    """Refuse a non-finite endpoint, and a span `stop - start` that overflows:
    linspace would write NaN points there."""
    start, stop = float(start), float(stop)
    if not all(map(math.isfinite, (start, stop, stop - start))):
        raise ValueError(
            f"the {axis} axis from {start!r} to {stop!r}: its endpoints and their span "
            "must be finite"
        )


def _check_steps(steps: int):
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")


def _check_outputs(outputs):
    bad = [o for o in outputs if o not in COLUMNS]
    if bad:
        raise ValueError(f"unknown output column(s): {', '.join(bad)}")
    repeated = [o for o in dict.fromkeys(outputs) if outputs.count(o) > 1]
    if repeated:
        raise ValueError(f"repeated output column(s): {', '.join(repeated)}")


def apply_axis(params: PhysicalParams, axis: str, value: float) -> PhysicalParams:
    """Move one axis of a parameter set; `value` may be an array of points."""
    _check_axis(axis)
    if axis == "delta_phi":
        return params.replace(phi_d1=params.phi_d2 + value)
    return params.replace(**{axis: value})


class Table:
    """Equal-length columns by name.

    `table[name]` is a column (a numpy array); `table[i]` and iteration give
    row dicts of Python values, so a table reads like a list of rows.
    """

    def __init__(self, columns: dict):
        self.columns = dict(columns)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.columns[key]
        i = range(len(self))[key]
        return {name: col[i : i + 1].tolist()[0] for name, col in self.columns.items()}

    def __setitem__(self, name: str, column) -> None:
        self.columns[name] = column

    def __iter__(self):
        names = list(self.columns)
        for values in zip(*(col.tolist() for col in self.columns.values())):
            yield dict(zip(names, values))

    def copy(self) -> "Table":
        return Table(self.columns)


_KIND = dict(COLUMN_SCHEMA + ORACLE_SCHEMA)


# a failed point's cell: NaN for numbers, '' for text, None (empty) for flags
_BLANK = {_F: math.nan, _S: np.array("", dtype=object), _B: np.array(None, dtype=object)}


def _flatten(prefix: str, result) -> dict:
    """Columns of a stage result: prefix + field name, complex fields split
    into _re/_im; fields without a column are dropped."""
    out = {}
    for field, value in vars(result).items():
        name = prefix + field
        if value.dtype.kind == "c":
            out[name + "_re"], out[name + "_im"] = value.real, value.imag
        else:
            out[name] = value
    return {name: value for name, value in out.items() if name in _KIND}


def _branch_columns(prefix: str, c, validity) -> dict:
    return {
        **_flatten(prefix, c),
        # a copy: a view of the row would keep the whole (6, N) report alive
        prefix + "gp12_abs": validity.coupling_abs[TERMS.index("gp12")].copy(),
        prefix + "max_rwa_ratio": validity.max_ratio,
        prefix + "resonance": validity.any_resonance,
    }


# The branch column's cells: each point shares one of three str objects.
_BRANCH_NAMES = np.array(
    [Branch.TWO_MODE_SQUEEZING.value, Branch.BEAM_SPLITTER.value, Branch.INTERMEDIATE.value],
    dtype=object,
)


def _blank_where(cells: dict, mask: np.ndarray, names) -> None:
    if not mask.any():
        return
    for name in names:
        cells[name] = np.where(mask, _BLANK[_KIND[name]], cells[name])


def _stage_columns(vp, s, stages, opts: PipelineOptions) -> dict:
    """The columns of stage 1, the regime and the stages in `stages`, over
    valid points; the cells an error leaves blank are blank, and the error
    names are set."""
    regime = classify(s, vp, f1_hi=opts.f1_hi, f1_lo=opts.f1_lo)
    on_tms = regime.branch == Branch.TWO_MODE_SQUEEZING
    on_bs = regime.branch == Branch.BEAM_SPLITTER
    cells = {
        **_flatten("", s),
        "f1": regime.f1,
        "f2": regime.f2,
        "f1_degenerate": regime.f1_degenerate,
        "branch": _BRANCH_NAMES[np.where(on_tms, 0, np.where(on_bs, 1, 2))],
    }
    if "delta_phi" in stages:
        cells["delta_phi"] = canonical_delta_phi(vp.phi_d1, vp.phi_d2)
    if "tms" in stages:
        tms = _stage("tms_couplings")(s, vp)
        tms_cells = _branch_columns(
            "tms_", tms, _stage("rwa_validity_tms")(tms, vp.omega_m, opts.resonance_floor)
        )
        # tms_couplings marks the points where the stage is unstable with r = NaN
        unstable = np.isnan(tms.r)
        _blank_where(tms_cells, unstable, list(tms_cells))
        cells.update(tms_cells, tms_error=np.where(unstable, TMS_UNSTABLE, ""))
    if "bs" in stages:
        bs = _stage("bs_couplings")(s, vp)
        cells.update(_branch_columns(
            "bs_", bs, _stage("rwa_validity_bs")(bs, vp.omega_m, opts.resonance_floor)
        ))
    if "laser" in stages:
        cells.update(_laser_columns(vp, cells, on_tms & unstable, on_tms, opts))
    if "oracle" in stages:
        cells.update(_oracle_columns(vp, s, tms, bs, unstable, on_tms))
    return cells


def _laser_columns(vp, cells: dict, no_source, on_tms, opts: PipelineOptions) -> dict:
    """The laser block from the branch columns. The laser interaction lives
    on the classified branch; the beam-splitter frame hosts it in the
    intermediate band too (flagged via laser_source)."""
    w1, w2, gp12_abs = (
        np.where(on_tms, cells["tms_" + k], cells["bs_" + k]) for k in ("w1", "w2", "gp12_abs")
    )
    res = _stage("laser_point")(
        gp12_abs, w1, w2, vp.omega_m, vp.kappa, vp.gamma_m,
        n_plus=opts.n_plus, n_minus=opts.n_minus,
    )
    laser = _flatten("laser_", res)
    zero = gp12_abs == 0.0  # an infinite threshold: ZeroCoupling (NaN without a source)
    _blank_where(laser, no_source | zero, list(laser))
    return {
        "laser_source": np.where(on_tms, "tms", "bs"),
        "laser_w1": w1,
        "laser_w2": w2,
        "laser_detuning": w1 - w2 - vp.omega_m,
        "laser_gp12_abs": gp12_abs,
        **laser,
        "laser_error": np.select(
            [no_source, zero], [TMS_UNSTABLE, ZERO_COUPLING], ""
        ),
    }


def _oracle_columns(vp, s, tms, bs, unstable, on_tms) -> dict:
    """The exact oracle's check of both branches: one photonic form, one
    symplectic solve and one report batch, sharing the stage-1 map. The
    frequency deviations are those of the laser's branch, whose |W| the
    laser block reads. Blank are the TMS defect where that stage is
    unstable, the frequency deviations where the laser sits on an unstable
    TMS frame, and every cell where the exact frequencies cannot be
    paired."""
    from . import oracle  # through the module: a wrapper bound there sees the call

    freqs = oracle.symplectic_frequencies(oracle.build_photonic_form(vp))
    tms_report, bs_report = oracle.rwa_error_report(vp, s, [tms, bs])
    _, (dev_lo, dev_hi) = oracle.frequency_deviation(
        np.where(on_tms, tms.w1, bs.w1), np.where(on_tms, tms.w2, bs.w2), freqs)
    # the worst report's, as verify folds it: a NaN defect wins
    worst = np.maximum(tms_report.metric_defect, bs_report.metric_defect)
    cells = {
        "oracle_nu1": freqs.nu1,
        "oracle_nu2": freqs.nu2,
        "oracle_stable": freqs.stable,
        "oracle_freq_dev_lo": dev_lo,
        "oracle_freq_dev_hi": dev_hi,
        "oracle_coeff_defect_tms": tms_report.coeff_defect,
        "oracle_coeff_defect_bs": bs_report.coeff_defect,
        "oracle_metric_defect": np.where(unstable, bs_report.metric_defect, worst),
    }
    _blank_where(cells, unstable, ["oracle_coeff_defect_tms"])
    _blank_where(cells, on_tms & unstable, ["oracle_freq_dev_lo", "oracle_freq_dev_hi"])
    _blank_where(cells, ~freqs.paired, list(cells))
    return cells


def _returned_columns(outputs) -> list[str]:
    """The columns `_evaluate` returns for `outputs`: those plus `error`, in
    schema order."""
    wanted = {"error", *outputs}
    return [name for name in _KIND if name in wanted]


# The cells one block of a CLI sweep or grid may hold (`row_blocks`); its
# stage temporaries and CSV text scale with them.
BLOCK_CELLS = 2**17


def row_blocks(n: int, outputs) -> Iterator[slice]:
    """The consecutive slices of `n` points that a CLI sweep or grid with
    `outputs` evaluates and writes one at a time: as many rows each as
    BLOCK_CELLS holds of the columns `_evaluate` returns."""
    size = max(1, BLOCK_CELLS // len(_returned_columns(outputs)))
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def _evaluate(params: PhysicalParams, opts: PipelineOptions, outputs) -> dict:
    """The pipeline over parameter arrays, each stage called at most once for
    all points, and only when one of `outputs` needs it (`NEEDS`); the
    oracle is the last stage.

    Returns the `outputs` columns plus `error`, in schema order (COLUMN_SCHEMA,
    then ORACLE_SCHEMA). A point that fails validation runs on a stand-in, the
    first valid point's parameters; its cells are then blanked, exactly those
    the error would leave blank in a point-by-point evaluation, and the error
    name lands in its column.
    """
    columns = dict.fromkeys(_returned_columns(outputs))
    names = [name for name in columns if name != "error"]
    stages = frozenset().union(*(NEEDS[name] for name in names))
    errors = validation_errors(params)
    valid = errors == ""
    if not stages or not valid.any():  # no stages: only `error` is asked for
        columns.update((name, np.full(len(errors), _BLANK[_KIND[name]])) for name in names)
    else:
        checked = errors
        if not valid.all():  # the first valid point stands in for a failed one
            stand_in = np.where(valid, np.arange(len(valid)), np.argmax(valid))
            params, checked = take(params, stand_in), errors[stand_in]
        with np.errstate(all="ignore"):
            vp = validate(params, checked)
            cells = _stage_columns(vp, stage1_transform(vp), stages, opts)
        columns.update((name, cells[name]) for name in names)
        _blank_where(columns, ~valid, names)
    columns["error"] = errors
    return columns


def evaluate_point(params: PhysicalParams, opts: PipelineOptions = PipelineOptions()) -> dict:
    """Full pipeline for one parameter set; never raises on physics errors."""
    return Table(_evaluate(broadcast(params, 1), opts, COLUMNS))[0]


def analyze(params: PhysicalParams, opts: PipelineOptions = PipelineOptions()) -> dict:
    """Single-point report: the full pipeline row plus the oracle cross-check,
    the evaluator's last stage.

    The oracle block is blank (NaN, an empty `oracle_stable`) for a point
    that fails validation, and for one whose exact frequencies cannot be
    paired (`SymplecticFrequencies.paired`, e.g. a drive at the stage-1
    boundary to rounding); the pipeline cells are written either way."""
    return Table(_evaluate(broadcast(params, 1), opts, COLUMNS + ORACLE_COLUMNS))[0]


def run_sweep(
    params: PhysicalParams,
    spec: SweepSpec,
    opts: PipelineOptions = PipelineOptions(),
    rows: slice = slice(None),
) -> Table:
    """One row per axis value that `rows` selects (all by default), evaluated
    at once; the table holds the spec's outputs plus `error`.

    The requested (raw) axis value is stored under 'axis_value'; the
    pipeline's own delta_phi column stays canonical in [0, 2*pi), so a sweep
    row agrees with the single-point analysis field by field even at the
    2*pi endpoint.
    """
    index = range(spec.steps)[rows]
    values = spec.values(np.arange(index.start, index.stop, index.step))
    point = apply_axis(broadcast(params, len(values)), spec.axis, values)
    table = Table(_evaluate(point, opts, spec.outputs))
    table["axis_value"] = values
    return table


def sweep_columns(spec: SweepSpec) -> list[str]:
    return [spec.axis] + [c for c in spec.outputs if c != spec.axis]


def sweep_csv_rows(rows: Table, spec: SweepSpec) -> Table:
    """Project sweep rows for emission: the axis column carries the raw
    requested value (so e.g. a delta_phi sweep ends at 2*pi, not at its
    canonical image 0)."""
    out = rows.copy()
    out[spec.axis] = rows["axis_value"]
    return out


def run_grid(
    params: PhysicalParams,
    spec: GridSpec,
    opts: PipelineOptions = PipelineOptions(),
    rows: slice = slice(None),
) -> Table:
    """Dense row-major grid of the spec's outputs plus `error`, the rows that
    `rows` selects (all by default); failed points carry sentinels, never
    abort.

    Raw axis coordinates are stored under 'x_value'/'y_value' plus the
    integer indices, so the emitted file reconstructs the exact grid
    geometry regardless of any phase canonicalization.
    """
    index = range(spec.x_steps * spec.y_steps)[rows]
    y_index, x_index = np.divmod(np.arange(index.start, index.stop, index.step), spec.x_steps)
    x, y = spec.x_values(x_index), spec.y_values(y_index)
    point = apply_axis(apply_axis(broadcast(params, len(x)), spec.y_axis, y), spec.x_axis, x)
    table = Table(_evaluate(point, opts, spec.outputs))
    table["x_index"] = x_index
    table["y_index"] = y_index
    table["x_value"] = x
    table["y_value"] = y
    return table


def grid_columns(spec: GridSpec) -> list[str]:
    head = ["x_index", "y_index", spec.x_axis, spec.y_axis]
    return head + [c for c in spec.outputs if c not in head]


def grid_csv_rows(rows: Table, spec: GridSpec) -> Table:
    """Project grid rows for emission: axis-name columns carry the raw
    coordinates."""
    out = rows.copy()
    out[spec.x_axis] = rows["x_value"]
    out[spec.y_axis] = rows["y_value"]
    return out


def format_cell(value) -> str:
    if type(value) is float:  # most cells of a row dict: tested first
        return _FLOAT_CELL % value
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_CELL % float(value)
    return str(value)


_FLOAT_CELL = "%.17g"
_CHUNK_ROWS = 1024


def _cells(values: np.ndarray) -> list[str]:
    if values.dtype.kind == "f":
        return list(map(_FLOAT_CELL.__mod__, values.tolist()))
    return list(map(format_cell, values.tolist()))


def _format_column(values: np.ndarray) -> list[str]:
    """The CSV cells of one column: float arrays through one %-format, other
    values cell by cell.

    A fixed-width column (float, int, bool, str) formats each distinct value
    once: a column that does not depend on the swept axis repeats one value,
    and a grid's index and axis columns repeat theirs. Floats are told apart
    by their bits, so -0.0 stays apart from 0.0.
    """
    found = distinct(values) if values.dtype.kind in "fiubU" else None
    if found is None:
        return _cells(values)
    keys, inverse = found
    text = _cells(keys)
    return list(map(text.__getitem__, inverse.tolist()))


def write_csv(
    rows: Table | Iterable[dict], columns: list[str], out: TextIO, header: bool = True
) -> None:
    """Header (unless `header` is false) plus one line per row.

    `rows` is a Table, formatted column by column in chunks, or any iterable
    of row dicts, formatted row by row (a missing key is an empty cell).
    """
    if header:
        out.write(",".join(columns) + "\n")
    if not isinstance(rows, Table):
        for row in rows:
            out.write(",".join([format_cell(row.get(c)) for c in columns]) + "\n")
        return
    for start in range(0, len(rows), _CHUNK_ROWS):
        cells = [_format_column(rows[c][start : start + _CHUNK_ROWS]) for c in columns]
        out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def laser_columns(spec: SweepSpec) -> list[str]:
    """The laser sweep's header: its external columns, led by the raw swept
    value unless the axis is one of them (delta_phi, which stays canonical)."""
    names = [ext for ext, _ in LASER_SWEEP_COLUMNS]
    return names if spec.axis in names else [spec.axis] + names


def laser_rows(rows: Table, spec: SweepSpec) -> Table:
    """Sweep rows of LASER_SWEEP_OUTPUTS projected onto `laser_columns(spec)`."""
    out = {ext: rows[key] for ext, key in LASER_SWEEP_COLUMNS}
    out["error"] = np.where(rows["error"] != "", rows["error"], rows["laser_error"])
    return Table({name: out.get(name, rows["axis_value"]) for name in laser_columns(spec)})
