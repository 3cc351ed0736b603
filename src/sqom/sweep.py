"""Single-point analysis, 1-D sweeps and 2-D grids with CSV emission.

The pipeline is columnar: a sweep or grid builds one array per parameter
over all its points, and each stage (validate -> stage 1 -> regime -> both
second-stage branches -> validity -> laser) runs once on those arrays.
`evaluate_point` and `analyze` are the length-1 case of the same evaluator,
so a sweep row and a single-point analysis of the same parameters agree
field by field. Per-point failures (e.g. the two-mode-squeezing stage
refusing) never abort a sweep: they become masks, numeric cells keep a NaN
sentinel and the typed error name lands in the matching error column.

Exactness rule. A row must not depend on the batch its point is evaluated
in, and must equal CPython's float math on that point bit for bit; numpy's
SIMD math does not match libm in the last bit. So numpy touches row values
only through +, -, *, / on float arrays, complex + complex, complex + real,
comparisons and `where`; every libm call (exp, log, cosh, sinh, cos, sin,
atan2, x**2, cmath.exp, cmath.phase, complex abs) is the math/cmath function
mapped over `arr.tolist()`, and a real times complex product is spelled out
as CPython computes it. See `elementwise`.

CSV conventions: header row, fixed column order (see COLUMNS), '.' decimal
separator, 17 significant digits, 'nan' sentinel, lowercase true/false.
Identical inputs produce byte-identical output. `write_csv` formats a table
column by column, one %-format per float column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, TextIO

import numpy as np

from . import oracle
from .branch_bs import bs_couplings, rwa_validity_bs
from .branch_tms import rwa_validity_tms, tms_couplings
from .elementwise import broadcast, take
from .errors import TmsUnstable, ZeroCoupling
from .laser import LaserInput, laser_point
from .params import PhysicalParams, validate, validation_errors
from .regime import F1_HI_DEFAULT, F1_LO_DEFAULT, Branch, classify
from .stage1 import stage1_transform
from .validity import RESONANCE_FLOOR_DEFAULT

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
    n_plus: float = LaserInput.n_plus
    n_minus: float = LaserInput.n_minus
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


_RENAMED = {"phi_big": "phi"}
_KIND = dict(COLUMN_SCHEMA)


def _blank(name: str, n: int) -> np.ndarray:
    """n cells of a failed point: NaN for numbers, '' for text, None (an
    empty cell) for flags."""
    kind = _KIND[name]
    if kind == _F:
        return np.full(n, math.nan)
    return np.full(n, "" if kind == _S else None, dtype=object)


def _flatten(prefix: str, result) -> dict:
    """Columns of a stage result: prefix + field name, complex fields split
    into _re/_im; fields without a column are dropped."""
    out = {}
    for f in fields(result):
        value = getattr(result, f.name)
        name = prefix + _RENAMED.get(f.name, f.name)
        if value.dtype.kind == "c":
            out[name + "_re"], out[name + "_im"] = value.real, value.imag
        else:
            out[name] = value
    return {name: value for name, value in out.items() if name in _KIND}


def _branch_columns(prefix: str, c, validity) -> dict:
    return {
        **_flatten(prefix, c),
        prefix + "gp12_abs": validity.term("gp12").coupling_abs,
        prefix + "max_rwa_ratio": validity.max_ratio,
        prefix + "resonance": validity.any_resonance,
    }


def _blank_where(cells: dict, mask: np.ndarray, names) -> None:
    for name in names:
        cells[name] = np.where(mask, _blank(name, 1), cells[name])


def _stage_columns(vp, s, tms, bs, opts: PipelineOptions) -> dict:
    """Every column after stage 1, over valid points; the cells an error
    leaves blank are blank, and the error names are set."""
    regime = classify(s, vp, f1_hi=opts.f1_hi, f1_lo=opts.f1_lo)
    cells = {
        "f1": regime.f1,
        "f2": regime.f2,
        "f1_degenerate": regime.f1_degenerate,
        "branch": np.array([b.value for b in regime.branch.tolist()]),
        **_branch_columns("tms_", tms, rwa_validity_tms(tms, vp.omega_m, opts.resonance_floor)),
        **_branch_columns("bs_", bs, rwa_validity_bs(bs, vp.omega_m, opts.resonance_floor)),
    }
    # tms_couplings marks the points where the stage is unstable with r = NaN
    unstable = np.isnan(tms.r)
    _blank_where(cells, unstable, [name for name in cells if name.startswith("tms_")])
    cells["tms_error"] = np.where(unstable, TmsUnstable.__name__, "")

    # The laser interaction lives on the classified branch; the beam-splitter
    # frame hosts it in the intermediate band too (flagged via laser_source).
    on_tms = regime.branch == Branch.TWO_MODE_SQUEEZING
    w1, w2, gp12_abs = (
        np.where(on_tms, cells["tms_" + k], cells["bs_" + k]) for k in ("w1", "w2", "gp12_abs")
    )
    cells.update(
        laser_source=np.where(on_tms, "tms", "bs"),
        laser_w1=w1,
        laser_w2=w2,
        laser_detuning=w1 - w2 - vp.omega_m,
        laser_gp12_abs=gp12_abs,
    )
    res = laser_point(
        LaserInput(gp12_abs=gp12_abs, w1=w1, w2=w2, n_plus=opts.n_plus, n_minus=opts.n_minus),
        vp.omega_m,
        vp.kappa,
        vp.gamma_m,
    )
    laser = _flatten("laser_", res)
    no_source = on_tms & unstable
    zero = gp12_abs == 0.0  # an infinite threshold: ZeroCoupling (NaN without a source)
    _blank_where(laser, no_source | zero, list(laser))
    cells.update(laser)
    cells["laser_error"] = np.select(
        [no_source, zero], [TmsUnstable.__name__, ZeroCoupling.__name__], ""
    )
    return cells


def _evaluate(params: PhysicalParams, opts: PipelineOptions):
    """The pipeline over parameter arrays, each stage called once for all points.

    Returns the COLUMN_SCHEMA columns, plus the validated parameters, the
    stage 1 result and the couplings of each branch over the valid points
    (None when no point is valid). A failed point gets exactly the cells the
    error would leave blank in a point-by-point evaluation, and the error
    name in its column.
    """
    n = len(params.kappa)
    columns = {name: _blank(name, n) for name in COLUMNS}
    columns["error"] = validation_errors(params)
    valid = columns["error"] == ""
    if not valid.any():
        return columns, None
    with np.errstate(all="ignore"):
        vp = validate(take(params, valid))
        s = stage1_transform(vp)
        tms, bs = tms_couplings(s, vp), bs_couplings(s, vp)
        cells = {"delta_phi": vp.delta_phi, **_flatten("", s)}
        cells.update(_stage_columns(vp, s, tms, bs, opts))
    for name, value in cells.items():
        columns[name][valid] = value
    return columns, (vp, s, {Branch.TWO_MODE_SQUEEZING: tms, Branch.BEAM_SPLITTER: bs})


def evaluate_point(params: PhysicalParams, opts: PipelineOptions = PipelineOptions()) -> dict:
    """Full pipeline for one parameter set; never raises on physics errors."""
    return Table(_evaluate(broadcast(params, 1), opts)[0])[0]


def analyze(params: PhysicalParams, opts: PipelineOptions = PipelineOptions()) -> dict:
    """Single-point report: the full pipeline row plus the oracle cross-check,
    which reuses the evaluator's stages and solves the photonic form once."""
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
    form = oracle.build_photonic_form(vp)
    freqs = oracle.symplectic_frequencies(form)
    reports = {
        member: oracle.rwa_error_report(vp, member, s, c, form, freqs)
        for member, c in couplings.items()
    }
    row["oracle_nu1"] = freqs.nu1.item()
    row["oracle_nu2"] = freqs.nu2.item()
    row["oracle_stable"] = freqs.stable.item()
    for member, report in reports.items():
        row[f"oracle_coeff_defect_{member.value}"] = report.coeff_defect.item()
    laser_frame = reports.get(Branch(row["laser_source"]))
    if laser_frame is not None:
        row["oracle_freq_dev_lo"] = laser_frame.freq_devs[0].rel_dev.item()
        row["oracle_freq_dev_hi"] = laser_frame.freq_devs[1].rel_dev.item()
    row["oracle_metric_defect"] = max(r.metric_defect.item() for r in reports.values())
    return row


def _run(params: PhysicalParams, opts: PipelineOptions) -> Table:
    return Table(_evaluate(params, opts)[0])


def run_sweep(
    params: PhysicalParams,
    spec: SweepSpec,
    opts: PipelineOptions = PipelineOptions(),
) -> Table:
    """One row per axis value, all evaluated at once.

    The requested (raw) axis value is stored under 'axis_value'; the
    pipeline's own delta_phi column stays canonical in [0, 2*pi), so a sweep
    row agrees with the single-point analysis field by field even at the
    2*pi endpoint.
    """
    values = spec.values()
    table = _run(apply_axis(broadcast(params, len(values)), spec.axis, values), opts)
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
    """Dense row-major grid; failed points carry sentinels, never abort.

    Raw axis coordinates are stored under 'x_value'/'y_value' plus the
    integer indices, so the emitted file reconstructs the exact grid
    geometry regardless of any phase canonicalization.
    """
    nx, ny = spec.x_steps, spec.y_steps
    x = np.tile(spec.x_values(), ny)
    y = np.repeat(spec.y_values(), nx)
    point = apply_axis(apply_axis(broadcast(params, nx * ny), spec.y_axis, y), spec.x_axis, x)
    table = _run(point, opts)
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


def _format_column(values) -> list[str]:
    """The CSV cells of one column: float arrays through one %-format, other
    values cell by cell."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "f":
            # a column that does not depend on the swept axis repeats one
            # value: format each distinct bit pattern (so -0.0 apart from 0.0) once
            bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
            text = list(map(_FLOAT_CELL.__mod__, bits.view(np.float64).tolist()))
            return list(map(text.__getitem__, inverse.tolist()))
        values = values.tolist()
    return list(map(format_cell, values))


def write_csv(rows: Table | Iterable[dict], columns: list[str], out: TextIO) -> None:
    """Header plus one line per row, formatted column by column in chunks.

    `rows` is a Table, or any iterable of row dicts (a missing key is an
    empty cell).
    """
    if not isinstance(rows, Table):
        rows = list(rows)
        rows = Table({c: [row.get(c) for row in rows] for c in columns})
    out.write(",".join(columns) + "\n")
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
