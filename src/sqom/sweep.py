"""Single-point analysis, 1-D sweeps and 2-D grids with CSV emission.

The pipeline is columnar: a sweep or grid builds one array per parameter
over all its points, and each stage (validate -> stage 1 -> regime -> both
second-stage branches -> validity -> laser) runs at most once on those
arrays. A stage runs only when a requested column needs it (`NEEDS`; a
branch runs with its validity report): the `f1,f2,branch` regime map stops
after `classify`, and the table it returns holds only the requested columns
plus `error`. `evaluate_point` and `analyze` are the length-1 case of the
same evaluator with every column, so a sweep row and a single-point
analysis of the same parameters agree field by field. Per-point failures
(e.g. the two-mode-squeezing stage refusing) never abort a sweep: they
become masks, numeric cells keep a NaN sentinel and the typed error name
lands in the matching error column.

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
Identical inputs produce byte-identical output. `write_csv` formats a table
column by column, one %-format per float column, and formats each distinct
value of a float, int, bool or str column once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from . import _deferred
from .elementwise import broadcast, distinct, take
from .errors import NumericalDegeneracy, TmsUnstable, ZeroCoupling
from .params import (
    N_MINUS_DEFAULT,
    N_PLUS_DEFAULT,
    RESONANCE_FLOOR_DEFAULT,
    PhysicalParams,
    validate,
    validation_errors,
)
from .regime import F1_HI_DEFAULT, F1_LO_DEFAULT, TERMS, Branch, classify
from .stage1 import stage1_transform

# name -> module of the stages a column may need: imported when the stage
# first runs (`_stage`), so the `f1,f2,branch` map loads no branch
_STAGE_MODULES = {
    "tms_couplings": "second_stage",
    "rwa_validity_tms": "second_stage",
    "bs_couplings": "second_stage",
    "rwa_validity_bs": "second_stage",
    "LaserInput": "laser",
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

    Every column but `error` needs stage 1, which runs with `classify`. A
    `tms_`/`bs_` column needs that branch, which runs with its validity
    report. The `laser_` block needs both branches.
    """
    if name == "error":
        return frozenset()
    for branch in ("tms", "bs"):
        if name.startswith(branch + "_"):
            return frozenset({"stage1", branch})
    if name.startswith("laser_"):
        return frozenset({"stage1", "tms", "bs", "laser"})
    return frozenset({"stage1"})


NEEDS = {name: _column_needs(name) for name in COLUMNS}

ORACLE_COLUMNS = (
    "oracle_nu1",
    "oracle_nu2",
    "oracle_stable",
    "oracle_freq_dev_lo",
    "oracle_freq_dev_hi",
    "oracle_coeff_defect_tms",
    "oracle_coeff_defect_bs",
    "oracle_metric_defect",
)

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
    outputs: tuple[str, ...] | None = None

    def __post_init__(self):
        _check_axis(self.axis)
        _check_steps(self.steps)
        _check_outputs(self.outputs)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


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
        _check_steps(self.x_steps)
        _check_steps(self.y_steps)
        _check_outputs(self.outputs)

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_start, self.x_stop, self.x_steps)

    def y_values(self) -> np.ndarray:
        return np.linspace(self.y_start, self.y_stop, self.y_steps)


@dataclass(frozen=True)
class PipelineOptions:
    """Knobs shared by every evaluation; the CLI takes its defaults from here."""

    f1_hi: float = F1_HI_DEFAULT
    f1_lo: float = F1_LO_DEFAULT
    n_plus: float = N_PLUS_DEFAULT
    n_minus: float = N_MINUS_DEFAULT
    resonance_floor: float = RESONANCE_FLOOR_DEFAULT


def _check_axis(axis: str):
    if axis not in SWEEPABLE_AXES:
        raise ValueError(f"unknown axis {axis!r}; choose one of {', '.join(SWEEPABLE_AXES)}")


def _check_steps(steps: int):
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")


def _check_outputs(outputs):
    if outputs is None:
        return
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


_KIND = dict(COLUMN_SCHEMA)


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


def _stage_columns(vp, s, stages, opts: PipelineOptions):
    """The columns of stage 1, the regime and the stages in `stages`, over
    valid points, plus the couplings of each branch that ran; the cells an
    error leaves blank are blank, and the error names are set."""
    regime = classify(s, vp, f1_hi=opts.f1_hi, f1_lo=opts.f1_lo)
    on_tms = regime.branch == Branch.TWO_MODE_SQUEEZING
    on_bs = regime.branch == Branch.BEAM_SPLITTER
    cells = {
        "delta_phi": vp.delta_phi,
        **_flatten("", s),
        "f1": regime.f1,
        "f2": regime.f2,
        "f1_degenerate": regime.f1_degenerate,
        "branch": _BRANCH_NAMES[np.where(on_tms, 0, np.where(on_bs, 1, 2))],
    }
    couplings = {}
    if "tms" in stages:
        tms = couplings[Branch.TWO_MODE_SQUEEZING] = _stage("tms_couplings")(s, vp)
        tms_cells = _branch_columns(
            "tms_", tms, _stage("rwa_validity_tms")(tms, vp.omega_m, opts.resonance_floor)
        )
        # tms_couplings marks the points where the stage is unstable with r = NaN
        unstable = np.isnan(tms.r)
        _blank_where(tms_cells, unstable, list(tms_cells))
        cells.update(tms_cells, tms_error=np.where(unstable, TmsUnstable.__name__, ""))
    if "bs" in stages:
        bs = couplings[Branch.BEAM_SPLITTER] = _stage("bs_couplings")(s, vp)
        cells.update(_branch_columns(
            "bs_", bs, _stage("rwa_validity_bs")(bs, vp.omega_m, opts.resonance_floor)
        ))
    if "laser" in stages:
        cells.update(_laser_columns(vp, cells, on_tms & unstable, on_tms, opts))
    return cells, couplings


def _laser_columns(vp, cells: dict, no_source, on_tms, opts: PipelineOptions) -> dict:
    """The laser block from the branch columns. The laser interaction lives
    on the classified branch; the beam-splitter frame hosts it in the
    intermediate band too (flagged via laser_source)."""
    w1, w2, gp12_abs = (
        np.where(on_tms, cells["tms_" + k], cells["bs_" + k]) for k in ("w1", "w2", "gp12_abs")
    )
    res = _stage("laser_point")(
        _stage("LaserInput")(
            gp12_abs=gp12_abs, w1=w1, w2=w2, n_plus=opts.n_plus, n_minus=opts.n_minus
        ),
        vp.omega_m,
        vp.kappa,
        vp.gamma_m,
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
            [no_source, zero], [TmsUnstable.__name__, ZeroCoupling.__name__], ""
        ),
    }


def _evaluate(params: PhysicalParams, opts: PipelineOptions, outputs=None):
    """The pipeline over parameter arrays, each stage called at most once for
    all points, and only when one of `outputs` (None: every column) needs it
    (`NEEDS`).

    Returns the `outputs` columns plus `error`, in COLUMN_SCHEMA order, plus
    the validated parameters, the stage 1 result and the couplings of each
    branch that ran, over all points (None when no stage ran). A point that
    fails validation runs on a stand-in, the first valid point's parameters;
    its cells are then blanked, exactly those the error would leave blank in
    a point-by-point evaluation, and the error name lands in its column.
    """
    wanted = set(COLUMNS if outputs is None else outputs)
    names = [name for name in COLUMNS if name in wanted and name != "error"]
    stages = frozenset().union(*(NEEDS[name] for name in names))
    errors = validation_errors(params)
    valid = errors == ""
    if not stages or not valid.any():  # no stages: only `error` is asked for
        blank = {name: np.full(len(errors), _BLANK[_KIND[name]]) for name in names}
        return blank | {"error": errors}, None
    checked = errors
    if not valid.all():  # the first valid point stands in for a failed one
        stand_in = np.where(valid, np.arange(len(valid)), np.argmax(valid))
        params, checked = take(params, stand_in), errors[stand_in]
    with np.errstate(all="ignore"):
        vp = validate(params, checked)
        s = stage1_transform(vp)
        cells, couplings = _stage_columns(vp, s, stages, opts)
    columns = {name: cells[name] for name in names}
    _blank_where(columns, ~valid, names)
    columns["error"] = errors
    return columns, (vp, s, couplings)


def evaluate_point(params: PhysicalParams, opts: PipelineOptions = PipelineOptions()) -> dict:
    """Full pipeline for one parameter set; never raises on physics errors."""
    return Table(_evaluate(broadcast(params, 1), opts)[0])[0]


def analyze(params: PhysicalParams, opts: PipelineOptions = PipelineOptions()) -> dict:
    """Single-point report: the full pipeline row plus the oracle cross-check,
    which reuses the evaluator's stages and solves the photonic form once.

    The oracle block stays blank (NaN, an empty `oracle_stable`) for a point
    that fails validation, and for one whose exact frequencies cannot be
    paired (`NumericalDegeneracy`, e.g. a drive at the stage-1 boundary to
    rounding); the pipeline cells are written either way."""
    from . import oracle

    columns, stages = _evaluate(broadcast(params, 1), opts)
    row = Table(columns)[0]
    for name in ORACLE_COLUMNS:
        row[name] = math.nan
    row["oracle_stable"] = None
    if row["error"]:
        return row

    vp, s, couplings = stages
    if row["tms_error"]:
        del couplings[Branch.TWO_MODE_SQUEEZING]
    try:
        freqs = oracle.symplectic_frequencies(oracle.build_photonic_form(vp))
    except NumericalDegeneracy:
        return row
    # one report batch for both branches, sharing the stage-1 map
    reports = dict(zip(couplings, oracle.rwa_error_report(vp, s, list(couplings.values()), freqs)))
    row.update(oracle_nu1=freqs.nu1.item(), oracle_nu2=freqs.nu2.item(),
               oracle_stable=freqs.stable.item())
    for member, report in reports.items():
        row[f"oracle_coeff_defect_{member.value}"] = report.coeff_defect.item()
    laser_frame = reports.get(Branch(row["laser_source"]))
    if laser_frame is not None:
        row["oracle_freq_dev_lo"], row["oracle_freq_dev_hi"] = laser_frame.freq_dev[:, 0].tolist()
    # the worst report's, as verify folds it: a NaN defect wins
    row["oracle_metric_defect"] = float(np.max([r.metric_defect for r in reports.values()]))
    return row


def run_sweep(
    params: PhysicalParams,
    spec: SweepSpec,
    opts: PipelineOptions = PipelineOptions(),
) -> Table:
    """One row per axis value, all evaluated at once; the table holds the
    spec's outputs (every column without them) plus `error`.

    The requested (raw) axis value is stored under 'axis_value'; the
    pipeline's own delta_phi column stays canonical in [0, 2*pi), so a sweep
    row agrees with the single-point analysis field by field even at the
    2*pi endpoint.
    """
    values = spec.values()
    point = apply_axis(broadcast(params, len(values)), spec.axis, values)
    table = Table(_evaluate(point, opts, spec.outputs)[0])
    table["axis_value"] = values
    return table


def sweep_columns(spec: SweepSpec) -> list[str]:
    wanted = spec.outputs if spec.outputs is not None else COLUMNS
    return [spec.axis] + [c for c in wanted if c != spec.axis]


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
) -> Table:
    """Dense row-major grid of the spec's outputs plus `error`; failed points
    carry sentinels, never abort.

    Raw axis coordinates are stored under 'x_value'/'y_value' plus the
    integer indices, so the emitted file reconstructs the exact grid
    geometry regardless of any phase canonicalization.
    """
    nx, ny = spec.x_steps, spec.y_steps
    x = np.tile(spec.x_values(), ny)
    y = np.repeat(spec.y_values(), nx)
    point = apply_axis(apply_axis(broadcast(params, nx * ny), spec.y_axis, y), spec.x_axis, x)
    table = Table(_evaluate(point, opts, spec.outputs)[0])
    table["x_index"] = np.tile(np.arange(nx), ny)
    table["y_index"] = np.repeat(np.arange(ny), nx)
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


def write_csv(rows: Table | Iterable[dict], columns: list[str], out: TextIO) -> None:
    """Header plus one line per row.

    `rows` is a Table, formatted column by column in chunks, or any iterable
    of row dicts, formatted row by row (a missing key is an empty cell).
    """
    out.write(",".join(columns) + "\n")
    if not isinstance(rows, Table):
        for row in rows:
            out.write(",".join([format_cell(row.get(c)) for c in columns]) + "\n")
        return
    for start in range(0, len(rows), _CHUNK_ROWS):
        cells = [_format_column(rows[c][start : start + _CHUNK_ROWS]) for c in columns]
        out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def rows_to_csv(rows: Table | Iterable[dict], columns: list[str]) -> str:
    import io

    buf = io.StringIO()
    write_csv(rows, columns, buf)
    return buf.getvalue()


def laser_rows(rows: Table) -> Table:
    """Project full pipeline rows onto the laser sweep's external columns."""
    out = Table({ext: rows[key] for ext, key in LASER_SWEEP_COLUMNS})
    out["error"] = np.where(rows["error"] != "", rows["error"], rows["laser_error"])
    return out


LASER_COLUMN_NAMES = [ext for ext, _ in LASER_SWEEP_COLUMNS]
