"""Single-point analysis, 1-D sweeps and 2-D grids with CSV emission.

The pipeline is columnar: an evaluation builds one array per parameter over
its points, and each stage (validate -> stage 1 -> regime -> both
second-stage branches -> validity -> laser -> oracle) runs at most once on
those arrays. A stage runs only when a requested column needs it (`NEEDS`; a
branch runs with its validity report): the `f1,f2,branch` regime map stops
after `classify`, and the table it returns holds only the requested columns
plus `error`: a spec's `outputs`, any of COLUMN_SCHEMA's names, by default
the schema through `error` (COLUMNS) for a SweepSpec and the regime map for
a GridSpec. A SweepSpec scans one `Axis` (a parameter, its endpoints and its
step count), a GridSpec two (`x`, `y`), each at np.linspace's values.
`run_sweep` and `run_grid` evaluate the rows they are asked for, all by
default; the CLI asks for one block of rows at a time (`row_blocks`: at most
BLOCK_CELLS cells, of the returned columns or, where a branch runs, of
COLUMNS if those are more, so 1956 rows of any output set of up to 67
columns with a branch, one block for a regime map of up to 32 768 points)
and writes each block before it evaluates the next, so the stages run once
per block, not once per sweep, and peak memory does not grow with the point
count. A command's CSV is the table its projection returns
(`sweep_csv_rows`, `grid_csv_rows`, `laser_rows`), header and all, or an
`analyze` row.
`evaluate_point` and `analyze` are the length-1 case of the same evaluator
with COLUMNS (`analyze` adds ORACLE_COLUMNS), so a sweep row and a
single-point analysis of the same parameters agree field by field.
Per-point failures never abort a sweep: the typed error name lands in its
error column, and a blank cell is NaN in a float64 column and ''/None in a
text/flag column, which is `object` (Python str/bool) whatever the batch.

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
int, bool or str column once; within a chunk of rows, a column that repeats
an earlier one bit for bit (same dtype, same bytes) reuses its text.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, TextIO

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
from .regime import TERMS, classify
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

# (name, kind) in emission order; kind picks the dtype and the blank of failed
# rows. Three tiers: the default row (COLUMNS) through `error`, `analyze`'s oracle
# block (ORACLE_COLUMNS) through `oracle_metric_defect`, then opt-in columns.
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
    ("oracle_nu1", _F),
    ("oracle_nu2", _F),
    ("oracle_stable", _B),
    ("oracle_freq_dev_lo", _F),
    ("oracle_freq_dev_hi", _F),
    ("oracle_coeff_defect_tms", _F),
    ("oracle_coeff_defect_bs", _F),
    ("oracle_metric_defect", _F),
)

_KIND = dict(COLUMN_SCHEMA)
COLUMNS = tuple(_KIND)[: list(_KIND).index("error") + 1]
ORACLE_COLUMNS = tuple(_KIND)[len(COLUMNS): list(_KIND).index("oracle_metric_defect") + 1]

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


NEEDS = {name: _column_needs(name) for name in _KIND}

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
class Axis:
    """One swept parameter (SWEEPABLE_AXES): `steps` evenly spaced values
    from `start` to `stop`, both included."""

    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        _check_axis(self.name)
        # a non-finite endpoint or span would make linspace write NaN points
        start, stop = float(self.start), float(self.stop)
        if not all(map(math.isfinite, (start, stop, stop - start))):
            raise ValueError(
                f"the {self.name} axis from {start!r} to {stop!r}: its endpoints and their "
                "span must be finite"
            )
        try:
            steps = operator.index(self.steps)  # a numpy integer passes, 3.0 and "3" do not
        except TypeError:
            raise TypeError(f"steps must be an integer, got {self.steps!r}") from None
        if steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    def values(self, index=None) -> np.ndarray:
        """np.linspace(start, stop, steps)[index] (all of it by default) for
        an integer array `index`, computed at those indices only and bit for
        bit: numpy takes i*step + start, or (i/div)*delta + start where the
        step underflows to 0, and writes `stop` last."""
        div = self.steps - 1
        i = np.arange(self.steps, dtype=float) if index is None else np.asarray(index, dtype=float)
        delta = float(self.stop) - float(self.start)
        step = delta / div
        values = i / div * delta if step == 0 else i * step
        values += float(self.start)
        values[i == div] = self.stop
        return values


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis and the columns to emit."""

    axis: Axis
    outputs: tuple[str, ...] = COLUMNS

    def __post_init__(self):
        _check_outputs(self.outputs)


@dataclass(frozen=True)
class GridSpec:
    """Two swept axes; the y axis varies slowest in the emitted rows."""

    x: Axis
    y: Axis
    outputs: tuple[str, ...] = ("f1", "f2", "branch")

    def __post_init__(self):
        # each axis checked itself when built: only the rules of the pair are left
        if self.x.name == self.y.name:
            raise ValueError(f"grid axes must differ, both are {self.x.name!r}")
        if {self.x.name, self.y.name} == {"delta_phi", "phi_d1"}:
            raise ValueError("grid axes delta_phi and phi_d1 both move phi_d1; choose one")
        _check_outputs(self.outputs)


def _check_axis(axis: str):
    if axis not in SWEEPABLE_AXES:
        raise ValueError(f"unknown axis {axis!r}; choose one of {', '.join(SWEEPABLE_AXES)}")


def _check_outputs(outputs):
    bad = [o for o in outputs if o not in _KIND]
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

    `table[name]` is a column (an evaluated one float64, or object for text
    and flags); `table[i]` and iteration give row dicts of Python values.
    """

    def __init__(self, columns: dict):
        self.columns = dict(columns)

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.columns[key]
        i = range(len(self))[key]
        return {name: col.item(i) for name, col in self.columns.items()}

    def __setitem__(self, name: str, column) -> None:
        self.columns[name] = column

    def __iter__(self):
        names = list(self.columns)
        for values in zip(*(col.tolist() for col in self.columns.values())):
            yield dict(zip(names, values))


# a failed point's cell: NaN in a float64 column, '' (text) or None (flag) in an object one
_BLANK = {_F: math.nan, _S: np.array("", dtype=object), _B: np.array(None, dtype=object)}


def _flatten(prefix: str, result) -> dict:
    """Columns of a stage result: prefix + field name, complex fields split
    into _re/_im; fields without a column are dropped."""
    out = {}
    for field, value in vars(result).items():
        name = prefix + field
        if name + "_re" in _KIND:
            out[name + "_re"], out[name + "_im"] = value.real, value.imag
        elif name in _KIND:
            out[name] = value
    return out


def _branch_columns(prefix: str, c, validity) -> dict:
    return {
        **_flatten(prefix, c),
        # a copy: a view of the row would keep the whole (6, N) report alive
        prefix + "gp12_abs": validity.coupling_abs[TERMS.index("gp12")].copy(),
        prefix + "max_rwa_ratio": validity.max_ratio,
        prefix + "resonance": validity.any_resonance,
    }


def _blank_where(cells: dict, mask: np.ndarray, names) -> None:
    if not np.count_nonzero(mask):
        return
    floats = [name for name in names if _KIND[name] == _F]
    if floats:  # in one `where`, as the rows of one array
        cells.update(zip(floats, np.where(mask, math.nan, [cells[name] for name in floats])))
    for name in names:
        if _KIND[name] != _F:
            cells[name] = np.where(mask, _BLANK[_KIND[name]], cells[name])


def _stage_columns(vp, s, stages, opts: PipelineOptions) -> dict:
    """The columns of stage 1, the regime and the stages in `stages`, over
    valid points; the cells an error leaves blank are blank, and the error
    names are set."""
    regime = classify(s, vp, f1_hi=opts.f1_hi, f1_lo=opts.f1_lo)
    on_tms = regime.branch == "tms"
    cells = {**_flatten("", s), **_flatten("", regime)}
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
    keys = ("w1", "w2", "gp12_abs")
    w1, w2, gp12_abs = np.where(on_tms, [cells["tms_" + k] for k in keys],
                                [cells["bs_" + k] for k in keys])
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
        "laser_error": np.where(no_source, TMS_UNSTABLE, np.where(zero, ZERO_COUPLING, "")),
    }


def _oracle_columns(vp, s, tms, bs, unstable, on_tms) -> dict:
    """The exact oracle's check of both branches: one photonic form, one
    symplectic solve and one report batch, sharing the stage-1 map. The
    frequency deviations are those of the laser's branch, whose |W| the
    laser block reads. Every cell is blank where the exact frequencies
    cannot be paired; an unstable TMS stage's NaN r already blanks its
    defect, and the deviations where the laser sits on that frame."""
    from . import oracle  # through the module: a wrapper bound there sees the call

    freqs = oracle.symplectic_frequencies(oracle.build_photonic_form(vp))
    (tms_coeff, bs_coeff), (tms_metric, bs_metric) = oracle.rwa_error_report(vp, s, [tms, bs])
    _, (dev_lo, dev_hi) = oracle.frequency_deviation(
        *np.where(on_tms, (tms.w1, tms.w2), (bs.w1, bs.w2)), freqs)
    # the worst branch's, as verify folds it: a NaN defect wins
    worst = np.maximum(tms_metric, bs_metric)
    cells = {
        "oracle_nu1": freqs.nu1,
        "oracle_nu2": freqs.nu2,
        "oracle_stable": freqs.stable,
        "oracle_freq_dev_lo": dev_lo,
        "oracle_freq_dev_hi": dev_hi,
        "oracle_coeff_defect_tms": tms_coeff,
        "oracle_coeff_defect_bs": bs_coeff,
        "oracle_metric_defect": np.where(unstable, bs_metric, worst),
    }
    _blank_where(cells, ~freqs.paired, list(cells))
    return cells


@functools.cache
def _plan(outputs: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """The columns `_evaluate` returns for `outputs` (those plus `error`, in
    schema order), those but `error`, the text and flag columns among them
    and the stages they need (`NEEDS`)."""
    wanted = {"error", *outputs}
    returned = tuple(name for name in _KIND if name in wanted)
    names = tuple(name for name in returned if name != "error")
    objects = tuple(name for name in names if _KIND[name] != _F)
    return returned, names, objects, frozenset().union(*(NEEDS[name] for name in names))


# The cells one block of a CLI sweep or grid may hold (`row_blocks`). A
# block that runs a branch counts at least the cells of every COLUMNS column:
# its stage temporaries, about 1 kB a point, do not shrink with the columns
# it returns. An oracle block's 4x4 stacks cost about 2.6 kB a point more.
BLOCK_CELLS = 2**17
# The cells `write_csv` formats at a time. A float64 cell is 8 B in a block,
# but in flight its text is about 70 B of `str`, a list slot and its share of
# the joined and encoded chunk, so the text has its own, smaller budget: 122
# rows of the full sweep, 1170 of a 7-column regime-map grid.
CSV_CHUNK_CELLS = 2**13


def row_blocks(n: int, outputs) -> Iterator[slice]:
    """The consecutive slices of `n` points that a CLI sweep or grid with
    `outputs` evaluates and writes one at a time: as many rows each as
    BLOCK_CELLS holds of the columns `_evaluate` returns or, where a branch
    runs, of COLUMNS if those are more."""
    returned, _, _, stages = _plan(tuple(outputs))
    width = max(len(returned), len(COLUMNS) if stages & {"tms", "bs"} else 0)
    size = max(1, BLOCK_CELLS // width)
    return (slice(start, min(start + size, n)) for start in range(0, n, size))


def _evaluate(params: PhysicalParams, opts: PipelineOptions, outputs) -> dict:
    """The pipeline over parameter arrays, each stage called at most once for
    all points, and only when one of `outputs` needs it (`NEEDS`); the
    oracle is the last stage.

    Returns the `outputs` columns plus `error`, in schema order
    (COLUMN_SCHEMA). A point that fails validation runs on a stand-in, the
    first valid point's parameters; its cells are then blanked, exactly those
    the error would leave blank in a point-by-point evaluation, and the error
    name lands in its column.
    """
    returned, names, objects, stages = _plan(tuple(outputs))
    columns = dict.fromkeys(returned)
    errors = validation_errors(params)
    valid = errors == ""
    if not stages or not np.count_nonzero(valid):  # no stages: only `error` is asked for
        columns.update((name, np.zeros(len(errors))) for name in names)  # blanked below
    else:
        checked = errors
        if not valid.all():  # the first valid point stands in for a failed one
            stand_in = np.where(valid, np.arange(len(valid)), np.argmax(valid))
            params, checked = take(params, stand_in), errors[stand_in]
        with np.errstate(all="ignore"):
            # never raises (`checked` holds no error); perfbench/tracing.py wraps it as `params`
            vp = validate(params, checked)
            cells = _stage_columns(vp, stage1_transform(vp), stages, opts)
        columns.update({name: cells[name] for name in names})
    _blank_where(columns, ~valid, names)
    for name in objects:  # a text or flag column is `object` even with no blank
        columns[name] = columns[name].astype(object, copy=False)
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
    index = range(spec.axis.steps)[rows]
    values = spec.axis.values(np.arange(index.start, index.stop, index.step))
    point = apply_axis(broadcast(params, len(values)), spec.axis.name, values)
    table = Table(_evaluate(point, opts, spec.outputs))
    table["axis_value"] = values
    return table


def sweep_csv_rows(rows: Table, spec: SweepSpec) -> Table:
    """The sweep's CSV columns: the axis, which carries the raw requested
    value (so e.g. a delta_phi sweep ends at 2*pi, not at its canonical
    image 0), then the spec's outputs in their order."""
    outputs = {c: rows[c] for c in spec.outputs if c != spec.axis.name}
    return Table({spec.axis.name: rows["axis_value"], **outputs})


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
    index = range(spec.x.steps * spec.y.steps)[rows]
    y_index, x_index = np.divmod(np.arange(index.start, index.stop, index.step), spec.x.steps)
    x, y = spec.x.values(x_index), spec.y.values(y_index)
    # y, then x; delta_phi reads phi_d2, so it goes after the other axis
    first, last = sorted([(spec.y.name, y), (spec.x.name, x)], key=lambda a: a[0] == "delta_phi")
    point = apply_axis(apply_axis(broadcast(params, len(x)), *first), *last)
    table = Table(_evaluate(point, opts, spec.outputs))
    table["x_index"] = x_index
    table["y_index"] = y_index
    table["x_value"] = x
    table["y_value"] = y
    return table


def grid_csv_rows(rows: Table, spec: GridSpec) -> Table:
    """The grid's CSV columns: the indices and the axis-name columns, which
    carry the raw coordinates, then the spec's outputs in their order."""
    head = {"x_index": rows["x_index"], "y_index": rows["y_index"],
            spec.x.name: rows["x_value"], spec.y.name: rows["y_value"]}
    return Table({**head, **{c: rows[c] for c in spec.outputs if c not in head}})


def format_cell(value) -> str:
    """The CSV text of one Python value (a row dict's or `tolist()`'s)."""
    if isinstance(value, float):  # most cells of a row dict: tested first
        return _FLOAT_CELL % value
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


_FLOAT_CELL = "%.17g"


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


def write_csv(rows: Table | list[dict], out: TextIO, header: bool = True) -> None:
    """Header (unless `header` is false) plus one line per row, of every
    column of `rows` in its order.

    `rows` is a Table, formatted column by column in chunks of at most
    CSV_CHUNK_CELLS cells (one row at least), or a non-empty list of row
    dicts with the first row's keys, formatted row by row: the faster path
    for a row or a few.

    A chunk's column is formatted once: one equal to an earlier column of the
    chunk in dtype and bytes takes that column's text, which is the same,
    since `_format_column` reads nothing else. An `object` column's bytes are
    its cells' addresses, so it repeats a column of the same Python objects,
    which the table keeps alive while it is written.
    """
    if header:
        out.write(",".join(rows.columns if isinstance(rows, Table) else rows[0]) + "\n")
    if not isinstance(rows, Table):
        for row in rows:
            out.write(",".join([format_cell(v) for v in row.values()]) + "\n")
        return
    size = max(1, CSV_CHUNK_CELLS // max(1, len(rows.columns)))
    for start in range(0, len(rows), size):
        # (dtype, bytes) -> text, for this chunk's columns; the dtype, not
        # its `str`, since any two record dtypes of 8 bytes are both '|V8'
        formatted = {}
        cells = []
        for col in rows.columns.values():
            part = col[start : start + size]
            key = (part.dtype, part.tobytes())
            if key not in formatted:
                formatted[key] = _format_column(part)
            cells.append(formatted[key])
        out.write("\n".join(map(",".join, zip(*cells))) + "\n")


def laser_rows(rows: Table, spec: SweepSpec) -> Table:
    """Sweep rows of LASER_SWEEP_OUTPUTS projected onto the laser sweep's
    external columns, led by the raw swept value unless the axis is one of
    them (delta_phi, which stays canonical)."""
    out = {ext: rows[key] for ext, key in LASER_SWEEP_COLUMNS}
    out["error"] = np.where(rows["error"] != "", rows["error"], rows["laser_error"])
    return Table(out if spec.axis.name in out else {spec.axis.name: rows["axis_value"], **out})
