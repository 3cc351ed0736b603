"""Sweep/grid mechanics: consistency, sentinels, determinism."""
import dataclasses
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqom import (
    Axis,
    GridSpec,
    PhysicalParams,
    PipelineOptions,
    SweepSpec,
    analyze,
    evaluate_point,
    run_grid,
    run_sweep,
)
from sqom import sweep
from sqom.elementwise import stack, take
from sqom.sweep import (
    COLUMN_SCHEMA,
    COLUMNS,
    LASER_SWEEP_OUTPUTS,
    ORACLE_COLUMNS,
    ORACLE_SCHEMA,
    Table,
    apply_axis,
    grid_csv_rows,
    laser_rows,
    sweep_csv_rows,
)

from conftest import (
    batch,
    boundary_set,
    laser_set,
    on_one_point,
    rows_to_csv,
    strong_drive_set,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="axis"):
        SweepSpec(Axis("lamda1", 0.0, 1.0, 5))
    with pytest.raises(ValueError, match="steps"):
        SweepSpec(Axis("lambda1", 0.0, 1.0, 1))
    with pytest.raises(ValueError, match="output"):
        SweepSpec(Axis("lambda1", 0.0, 1.0, 5), outputs=("nope",))
    with pytest.raises(ValueError, match="differ"):
        GridSpec(
            Axis("lambda1", 0.0, 1.0, 3),
            Axis("lambda1", 0.0, 1.0, 3),
        )


@pytest.mark.parametrize("start, stop", [
    (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),  # the span overflows
])
def test_spec_refuses_a_non_finite_axis(start, stop):
    with pytest.raises(ValueError, match="must be finite"):
        SweepSpec(Axis("delta1", start, stop, 3))
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(Axis("delta1", start, stop, 3), Axis("delta_phi", 0.0, 1.0, 3))
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(Axis("delta_phi", 0.0, 1.0, 3), Axis("delta1", start, stop, 3))


def test_delta_phi_axis_moves_phi_d1_only():
    base = laser_set().replace(phi_d1=0.0, phi_d2=0.4)
    moved = apply_axis(base, "delta_phi", 1.0)
    assert moved.phi_d2 == 0.4
    assert moved.phi_d1 == pytest.approx(1.4)
    row = evaluate_point(moved)
    assert row["delta_phi"] == pytest.approx(1.0)


def test_sweep_rows_match_single_point_analysis():
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 7))
    rows = run_sweep(laser_set(), spec)
    for value, row in zip(spec.axis.values(), rows):
        point = analyze(apply_axis(laser_set(), "delta_phi", float(value)))
        for key in COLUMNS:
            a, b = row[key], point[key]
            if isinstance(a, float) and isinstance(b, float):
                if math.isnan(a) and math.isnan(b):
                    continue
                assert a == b, key
            else:
                assert a == b, key


def test_sweep_error_rows_do_not_abort():
    # lambda2 sweep crosses the stage-1 stability boundary at 50
    spec = SweepSpec(Axis("lambda2", 49.0, 51.0, 9))
    rows = run_sweep(laser_set(), spec)
    errors = [r["error"] for r in rows]
    assert "Stage1Unstable" in errors
    assert any(e == "" for e in errors)
    for row in rows:
        if row["error"]:
            assert math.isnan(row["f1"])
            assert row["branch"] == ""


@pytest.mark.parametrize("axis, start, stop", [
    ("kappa", -0.05, 0.05),  # NonPositiveParameter up to and at kappa = 0
    ("lambda2", 51.0, 49.0),  # Stage1Unstable down to lambda2 = 50
])
def test_rows_after_failed_leading_points_equal_single_points(axis, start, stop):
    spec = SweepSpec(Axis(axis, start, stop, 9))
    rows = run_sweep(laser_set(), spec)
    assert rows["error"][0] != "" and rows["error"][-1] == ""
    lines = rows_to_csv(rows, list(COLUMNS)).splitlines()[1:]
    for value, line in zip(spec.axis.values(), lines):
        row = evaluate_point(apply_axis(laser_set(), axis, float(value)))
        assert line == rows_to_csv([row], list(COLUMNS)).splitlines()[1], value


def test_tms_refusal_is_per_point_sentinel():
    # the moderate-drive set loses the TMS stage near delta_phi = 0, where
    # |J'| = 2*j_hop*|lam2| exceeds omega_s1 + omega_s2
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 13))
    rows = run_sweep(laser_set(), spec)
    refused = [r for r in rows if r["tms_error"] == "TmsUnstable"]
    valid = [r for r in rows if r["tms_error"] == ""]
    assert refused and valid
    for row in refused:
        assert math.isnan(row["tms_g1"])
        assert row["error"] == ""  # the row itself is healthy
        assert not math.isnan(row["bs_w1"])  # mixing never refuses


def test_grid_sentinel_region():
    spec = GridSpec(
        Axis("lambda1", 195.0, 205.0, 6),
        Axis("delta_phi", 0.0, 2.0 * math.pi, 5),
        outputs=("f1", "f2", "branch"),
    )
    rows = run_grid(boundary_set(), spec)
    assert len(rows) == 30
    bad = [r for r in rows if r["error"] == "Stage1Unstable"]
    good = [r for r in rows if r["error"] == ""]
    assert bad and good  # lambda1 crosses |delta1|/2 = 200
    assert all(math.isnan(r["f1"]) for r in bad)
    # row-major: y outermost
    assert rows[0]["x_index"] == 0 and rows[1]["x_index"] == 1
    assert rows[6]["y_index"] == 1


def _sweep_header(spec: SweepSpec) -> list[str]:
    return list(sweep_csv_rows(run_sweep(laser_set(), spec), spec).columns)


def _grid_header(spec: GridSpec) -> list[str]:
    return list(grid_csv_rows(run_grid(laser_set(), spec), spec).columns)


def test_outputs_subset_and_column_order():
    spec = SweepSpec(Axis("delta_phi", 0.0, 1.0, 3), outputs=("f1", "branch"))
    assert _sweep_header(spec) == ["delta_phi", "f1", "branch"]
    assert _sweep_header(dataclasses.replace(spec, outputs=())) == ["delta_phi"]
    # the outputs' order, not the schema's; the raw axis leads
    assert _sweep_header(dataclasses.replace(spec, outputs=("branch", "delta_phi", "f1"))) == [
        "delta_phi", "branch", "f1"]
    gspec = GridSpec(
        Axis("lambda1", 1.0, 2.0, 2),
        Axis("delta_phi", 0.0, 1.0, 2),
        outputs=("f2", "f1"),
    )
    assert _grid_header(gspec) == ["x_index", "y_index", "lambda1", "delta_phi", "f2", "f1"]
    assert _grid_header(dataclasses.replace(gspec, outputs=())) == [
        "x_index", "y_index", "lambda1", "delta_phi"]


def test_axis_column_not_duplicated():
    spec = SweepSpec(Axis("delta_phi", 0.0, 1.0, 3))
    cols = _sweep_header(spec)
    assert cols.count("delta_phi") == 1
    assert cols[0] == "delta_phi"


def test_csv_determinism():
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 21))
    a = rows_to_csv(sweep_csv_rows(run_sweep(laser_set(), spec), spec))
    b = rows_to_csv(sweep_csv_rows(run_sweep(laser_set(), spec), spec))
    assert a == b
    assert a.count("\n") == 22  # header + 21 rows
    # the emitted axis column keeps the raw requested endpoint, 2*pi
    assert a.splitlines()[-1].startswith("6.28318530717958")


def test_csv_17_significant_digits():
    spec = SweepSpec(Axis("delta_phi", 0.0, 1.0, 2), outputs=("f1",))
    text = rows_to_csv(sweep_csv_rows(run_sweep(laser_set(), spec), spec))
    value = text.splitlines()[2].split(",")[1]
    assert float(value) == evaluate_point(apply_axis(laser_set(), "delta_phi", 1.0))["f1"]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


# cells of every column kind: signed zeros, NaN with two payloads,
# infinities, a subnormal and ordinary values among the floats
CELL_POOLS = {
    "float": np.array([0.0, -0.0, math.nan, np.array(0x7FF8_0000_0000_0001).view(float),
                       math.inf, -math.inf, 5e-324, 1.0, -2.5, 1.0 / 3.0]),
    "int": np.array([0, 1, -7, 108, 2**62]),
    "bool": np.array([True, False]),
    "str": np.array(["", "tms", "bs", "TmsUnstable"]),
    "object": np.array(["", "beam_splitter", None, True, False, 1.5, -0.0], dtype=object),
}


def _all_distinct(kind, gen, n):
    if kind == "float":  # random bit patterns: NaNs of many payloads, subnormals
        return gen.integers(-(2**63), 2**63 - 1, n, dtype=np.int64, endpoint=True).view(float)
    order = gen.permutation(n)
    if kind == "int":
        return order - n // 2
    if kind == "bool":  # distinct for n <= 2
        return order < 1
    if kind == "str":
        return np.array([f"e{i}" for i in order])
    return np.array([f"e{i}" if i % 2 else 0.5 * i for i in order], dtype=object)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 1023, 1025, 2500]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_table_csv_equals_row_dict_csv(seed, n, repeated):
    """The column-wise Table path formats every cell as `format_cell` does on
    the row dicts, for repeated and all-distinct columns of each kind, and
    for columns that do and do not share an earlier column's dtype and bytes."""
    gen = np.random.default_rng(seed)
    columns = {}
    for kind, pool in CELL_POOLS.items():
        columns[kind] = (
            pool[gen.integers(0, len(pool), n)] if repeated else _all_distinct(kind, gen, n)
        )
        columns[kind + "_constant"] = np.repeat(pool[gen.integers(0, len(pool), 1)], n)
    floats, text = columns["float"], columns["str"]
    nan = np.full(n, math.nan)
    columns.update({
        "float_again": floats,  # one array as two columns
        "float_copy": floats.copy(),
        "float_bits": floats.view(np.int64),  # an int64 column of the float column's bits
        "zero": np.zeros(n),
        "negative_zero": np.full(n, -0.0),
        "int_zero": np.zeros(n, np.int64),  # the bytes of the float zeros
        "nan": nan,
        "nan_payload": (nan.view(np.int64) | 1).view(float),
        "str_again": text.copy(),
        "str_wider": text.astype(f"<U{text.itemsize // 4 + 1}"),
        "object_same_cells": columns["object"].copy(),  # a copy holds the same Python objects
        "halves": np.full(n, 1.5, dtype=object),  # one object in every cell
        "other_halves": np.array([float("1.5") for _ in range(n)], dtype=object),
        "trues": np.full(n, True, dtype=object),
        "ones": np.full(n, 1, dtype=object),  # equal to True, and another object
    })
    names = list(columns)
    table = Table(columns)
    assert rows_to_csv(table, names) == rows_to_csv(list(table), names)


# a table of every column kind the writer sees: 1.5 and 'bs' repeat across
# any chunk boundary, and each text or flag column has its blank
CHUNKED = Table({
    "float": np.array([1.5, math.nan, -0.0, 1.5, 0.0, 1.5, math.nan]),
    "int": np.array([3, 3, -1, 0, 3, 2**40, -1]),
    "text": np.array(["bs", "", "tms", "bs", "", "bs", "TmsUnstable"], dtype=object),
    "flag": np.array([True, None, False, True, None, True, False], dtype=object),
    "fixed": np.array(["bs", "", "x", "bs", "bs", "", "x"]),
})
WIDTH = len(CHUNKED.columns)


@pytest.mark.parametrize("cells", [1, WIDTH - 1, WIDTH + 1, 2 * WIDTH + 1, 3 * WIDTH, 10**6])
def test_table_csv_bytes_do_not_depend_on_the_chunk_budget(cells, monkeypatch):
    """One row a chunk, a few rows or the whole table: the same text, that of
    the row dicts, since a cell is formatted the same whatever its chunk."""
    want = rows_to_csv(list(CHUNKED))
    assert "nan" in want and "-0" in want and ",," in want
    monkeypatch.setattr(sweep, "CSV_CHUNK_CELLS", cells)
    assert rows_to_csv(CHUNKED) == want
    # a table of no columns, and one of no rows: the header line alone
    assert rows_to_csv(Table({})) == "\n"
    empty = Table({name: col[:0] for name, col in CHUNKED.columns.items()})
    assert rows_to_csv(empty) == want.splitlines(keepends=True)[0]


def test_table_csv_formats_a_repeated_column_once(monkeypatch):
    """Within a chunk, each distinct (dtype, bytes) column is formatted once:
    on a laser-set delta_phi sweep the `laser_` copies of the beam-splitter
    columns, and the all-False flag and all-'' error columns, take an earlier
    column's text."""
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 300))
    table = sweep_csv_rows(run_sweep(laser_set(), spec), spec)

    def key(values):
        return values.dtype, values.tobytes()

    formatted = []  # per line write: the keys of the columns formatted after it

    class Out:
        def write(self, text):
            formatted.append([])

    format_column = sweep._format_column
    monkeypatch.setattr(sweep, "_format_column",
                        lambda values: formatted[-1].append(key(values)) or format_column(values))
    sweep.write_csv(table, Out())
    size = sweep.CSV_CHUNK_CELLS // len(table.columns)
    starts = range(0, len(table), size)
    # one list after the header line and one after each chunk's lines, the last empty
    assert len(formatted) == len(starts) + 1 > 3 and not formatted[-1]
    shared_flags = shared_errors = 0
    for start, calls in zip(starts, formatted):
        part = {name: col[start : start + size] for name, col in table.columns.items()}
        keys = {name: key(values) for name, values in part.items()}
        assert calls == list(dict.fromkeys(keys.values()))  # each once, in column order
        for name in ("w1", "w2", "gp12_abs"):
            assert keys["laser_" + name] == keys["bs_" + name]
        flags = [name for name in ("f1_degenerate", "tms_resonance", "bs_resonance",
                                   "laser_n_b_capped") if all(v is False for v in part[name])]
        errors = [name for name in ("tms_error", "laser_error", "error")
                  if all(v == "" for v in part[name])]
        for blank in (flags, errors):
            assert len({keys[name] for name in blank}) <= 1
        shared_flags += len(flags) > 1
        shared_errors += len(errors) > 1
    assert shared_flags and shared_errors


def test_table_csv_allocation_peak_does_not_grow_with_width():
    """A chunk holds a number of cells, not of rows: a 64-column and a
    4-column table of as many distinct floats peak alike while written."""
    values = np.random.default_rng(7).random(2**17)

    def peak(width: int) -> int:
        table = Table({f"c{i}": col for i, col in enumerate(values.reshape(width, -1))})
        with open(os.devnull, "w") as out:
            tracemalloc.start()
            try:
                sweep.write_csv(table, out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    wide, narrow = peak(64), peak(4)
    assert max(wide, narrow) < 2 * min(wide, narrow), (wide, narrow)


def test_laser_projection_columns():
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 5))
    rows = laser_rows(run_sweep(laser_set(), spec), spec)
    assert list(rows[0].keys()) == [
        "delta_phi", "w1", "w2", "detuning", "gp12_abs", "gain", "n_b",
        "n_threshold", "p_threshold", "branch", "f1", "error",
    ]
    assert rows[0]["branch"] == "bs"


def test_intermediate_rows_fill_both_branches():
    # near delta_phi = 0 the strong-drive set sits between the f1 thresholds
    # while |J'| is far below omega_s1+omega_s2, so both branches evaluate
    rows = run_sweep(
        strong_drive_set(),
        SweepSpec(Axis("delta_phi", 0.0, 0.2, 3)),
    )
    for row in rows:
        assert row["branch"] == "intermediate"
        assert not math.isnan(row["bs_g1"])
        assert not math.isnan(row["tms_g1"])  # dual-branch reporting
        assert row["laser_source"] == "bs"


def test_analyze_includes_oracle_block():
    row = analyze(laser_set())
    assert row["oracle_stable"] is True
    assert row["oracle_coeff_defect_bs"] < 1e-12
    assert row["oracle_metric_defect"] < 1e-12
    assert row["oracle_freq_dev_lo"] < 0.01
    assert row["oracle_freq_dev_hi"] < 0.01


def test_analyze_at_threshold_dip():
    row = analyze(laser_set(delta_phi=2.6957770487662587))
    assert row["branch"] == "bs"
    assert row["bs_resonance"] is True  # the triple resonance is the point
    assert row["laser_n_threshold"] <= 1.0
    assert row["error"] == ""


def test_analyze_strong_drive_at_pi():
    p = strong_drive_set()
    row = analyze(p)
    assert row["branch"] == "tms"
    assert row["tms_g2"] > p.kappa
    assert row["oracle_coeff_defect_tms"] < 1e-12
    # exact frequencies within the 1% rotating-wave budget at this point
    assert row["oracle_freq_dev_hi"] <= 0.01


def test_analyze_laser_block_matches_direct_laser_call():
    opts = PipelineOptions(n_plus=2.0)
    row = analyze(laser_set(), opts)
    assert row["laser_source"] == "bs"
    from sqom import laser_point

    res = on_one_point(laser_point)(
        row["bs_gp12_abs"], row["bs_w1"], row["bs_w2"],
        1.0, laser_set().kappa, laser_set().gamma_m, n_plus=2.0,
    )
    assert row["laser_gain"] == res.gain
    assert row["laser_n_threshold"] == res.n_threshold


def test_per_point_densities_give_each_point_its_scalar_laser_cells():
    """`n_plus` and `n_minus` may hold one value per point: each laser cell
    of the batch is, by type and bits, that point's evaluation with its own
    densities as floats, a point that fails validation in the batch too."""
    points = [
        laser_set(2.6957770487662587),  # the threshold dip: n_b capped at this n_plus
        laser_set(0.0),  # TmsUnstable, the laser on the beam-splitter frame
        laser_set().replace(lambda2=51.0),  # Stage1Unstable: runs on a stand-in
        strong_drive_set(),  # the laser on the two-mode-squeezing frame
        strong_drive_set(math.pi / 20, 1996.0),  # the laser on an unstable TMS frame
        laser_set().replace(g0=0.0),  # ZeroCoupling
        boundary_set(),
    ]
    n_plus = np.array([1e3, 2.0, 3.0, 0.5, 1.0, 4.0, 7.25])
    n_minus = np.array([0.0, 0.25, 1.0, 0.125, 0.0, 2.0, 8.0])
    names = [name for name in COLUMNS if name.startswith("laser_")]
    table = Table(sweep._evaluate(stack(PhysicalParams, points),
                                  PipelineOptions(n_plus=n_plus, n_minus=n_minus), names))
    assert table["error"][2] == "Stage1Unstable"
    assert table["laser_n_b_capped"][0] is True
    assert table["laser_error"][4:6].tolist() == ["TmsUnstable", "ZeroCoupling"]
    for i, p in enumerate(points):
        row = evaluate_point(p, PipelineOptions(n_plus=float(n_plus[i]),
                                                n_minus=float(n_minus[i])))
        assert [_cell(table[i][name]) for name in names] == [_cell(row[name]) for name in names], i


def test_analyze_solves_the_photonic_form_once(monkeypatch):
    from sqom import oracle

    calls = {}
    for name in ("build_photonic_form", "symplectic_frequencies"):
        def counted(*args, _fn=getattr(oracle, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(oracle, name, counted)
    row = analyze(strong_drive_set())  # both branches give a report here
    assert not math.isnan(row["oracle_coeff_defect_tms"])
    assert not math.isnan(row["oracle_coeff_defect_bs"])
    assert calls == {"build_photonic_form": 1, "symplectic_frequencies": 1}


@pytest.mark.parametrize("params", [laser_set(), boundary_set(), strong_drive_set()])
def test_analyze_does_each_piece_of_work_once(params, monkeypatch):
    """One `analyze` validates once, builds the stage-1 map once, solves the
    form with one `eigvals` call and takes both branches' reports from one
    `rwa_error_report` call, wherever the function is bound."""
    from sqom import oracle, params as params_module, sweep

    calls = dict.fromkeys(
        ("validation_errors", "stage1_map", "eigvals", "rwa_error_report"), 0)
    for module, name in ((sweep, "validation_errors"), (params_module, "validation_errors"),
                         (oracle, "stage1_map"), (np.linalg, "eigvals"),
                         (oracle, "rwa_error_report")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    row = analyze(params)
    assert not math.isnan(row["oracle_coeff_defect_bs"])
    assert calls == dict.fromkeys(calls, 1)


def test_a_nan_metric_defect_wins_the_analyze_fold(monkeypatch):
    from sqom import oracle

    report_of = oracle.rwa_error_report

    def nan_for_the_bs_report(*args):
        coeff, metric = report_of(*args)  # rows in the branch order `analyze` asks for
        metric = metric.copy()
        metric[1] = math.nan
        return coeff, metric

    monkeypatch.setattr(oracle, "rwa_error_report", nan_for_the_bs_report)
    row = analyze(strong_drive_set())  # both branches give a report here
    assert not math.isnan(row["oracle_coeff_defect_tms"])
    assert not math.isnan(row["oracle_coeff_defect_bs"])
    assert math.isnan(row["oracle_metric_defect"])


# both drives within about 1e-13 of the stage-1 boundary: the exact
# eigenvalues miss the +/- pairing tolerance (NumericalDegeneracy)
UNPAIRED = laser_set().replace(
    delta1=445.6813207479668, lambda1=222.84066037398313,
    delta2=-13.274826580266046, lambda2=6.637413290132873,
    j_hop=0.6248372277393877, g0=0.05179304768804502, phi_d1=math.pi, phi_d2=math.pi,
)


def test_analyze_writes_the_row_when_the_oracle_cannot_pair_frequencies():
    from sqom import oracle

    freqs = oracle.symplectic_frequencies(oracle.build_photonic_form(batch(UNPAIRED)))
    assert not freqs.paired.item()
    row, expected = analyze(UNPAIRED), evaluate_point(UNPAIRED)
    assert rows_to_csv([row], list(COLUMNS)) == rows_to_csv([expected], list(COLUMNS))
    assert row["error"] == ""
    assert all(math.isnan(row[name]) for name in ORACLE_COLUMNS if name != "oracle_stable")
    assert row["oracle_stable"] is None


def test_oracle_columns_of_a_batch_equal_analyze_per_point():
    from sqom import sweep

    points = [
        laser_set(2.7),  # stable, paired
        UNPAIRED,
        laser_set(0.0),  # TmsUnstable, the laser on the beam-splitter frame
        laser_set().replace(lambda2=51.0),  # Stage1Unstable
        strong_drive_set(math.pi / 20, 1996.0),  # the laser on an unstable TMS frame
    ]
    names = list(COLUMNS + ORACLE_COLUMNS)
    table = Table(sweep._evaluate(stack(PhysicalParams, points), PipelineOptions(), names))
    assert list(table.columns) == names  # `error` keeps its place before the oracle's
    assert table["tms_error"].tolist() == ["", "TmsUnstable", "TmsUnstable", "", "TmsUnstable"]
    assert table["laser_error"][4] == "TmsUnstable"
    assert table["error"][3] == "Stage1Unstable"
    for i, p in enumerate(points):
        assert rows_to_csv([table[i]], names) == rows_to_csv([analyze(p)], names), i
    assert [row["oracle_stable"] is None for row in table] == [False, True, False, True, False]


# (parameters, axis, start, stop): each range crosses a per-point failure
_FAILING_RANGES = [
    (laser_set(), "lambda2", 49.0, 51.0),  # Stage1Unstable past lambda2 = 50
    (laser_set(), "lambda2", 50.5, 52.0),  # no valid point at all
    (laser_set(), "delta_phi", 0.0, 2.0 * math.pi),  # TmsUnstable near 0
    (laser_set(), "g0", 0.0, 0.004),  # ZeroCoupling at g0 = 0
    (boundary_set(), "j_hop", 0.0, 0.6),  # a zero beam-splitter gp12 at j_hop = 0
    (strong_drive_set(), "delta_phi", 0.0, 2.0 * math.pi),  # tms, intermediate, bs
]


def _assert_projection(narrow, full, outputs, bookkeeping):
    assert set(narrow.columns) == set(outputs) | {"error"} | set(bookkeeping)
    for name, column in narrow.columns.items():
        expected = full[name]
        assert column.dtype == expected.dtype, name
        if column.dtype.kind == "f":
            assert np.array_equal(column.view(np.int64), expected.view(np.int64)), name
        else:
            assert column.tolist() == expected.tolist(), name


_SUBSETS = st.lists(st.sampled_from(COLUMNS), unique=True)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_FAILING_RANGES), steps=st.integers(2, 9), outputs=_SUBSETS)
def test_narrow_sweep_is_a_projection_of_the_full_sweep(case, steps, outputs):
    params, axis, start, stop = case
    spec = SweepSpec(Axis(axis, start, stop, steps))
    full = run_sweep(params, spec)
    narrow = run_sweep(params, dataclasses.replace(spec, outputs=tuple(outputs)))
    _assert_projection(narrow, full, outputs, ["axis_value"])


@settings(max_examples=30, deadline=None)
@given(x_steps=st.integers(2, 5), y_steps=st.integers(2, 5), outputs=_SUBSETS)
def test_narrow_grid_is_a_projection_of_the_full_grid(x_steps, y_steps, outputs):
    # lambda1 crosses |delta1|/2 = 200 (Stage1Unstable), and the boundary
    # set loses its TMS stage over part of the phase range
    spec = GridSpec(
        Axis("lambda1", 196.0, 201.0, x_steps),
        Axis("delta_phi", 0.0, 2.0 * math.pi, y_steps),
        outputs=COLUMNS,
    )
    full = run_grid(boundary_set(), spec)
    narrow = run_grid(boundary_set(), dataclasses.replace(spec, outputs=tuple(outputs)))
    _assert_projection(narrow, full, outputs, ["x_index", "y_index", "x_value", "y_value"])


@pytest.mark.parametrize("phase_is_x", [True, False])
def test_grid_axis_delta_phi_is_set_after_phi_d2(phase_is_x):
    """Each row of a (phi_d2, delta_phi) grid, in either order, is the point
    with that phi_d2 and phi_d1 = phi_d2 + delta_phi."""
    phase, diff = Axis("phi_d2", 0.5, 1.0, 2), Axis("delta_phi", 2.0, 3.0, 2)
    spec = GridSpec(*((phase, diff) if phase_is_x else (diff, phase)), outputs=COLUMNS)
    table = run_grid(laser_set(), spec)
    phi_d2, dphi = (
        (table["x_value"], table["y_value"]) if phase_is_x
        else (table["y_value"], table["x_value"])
    )
    assert table["delta_phi"].tolist() == pytest.approx(dphi.tolist(), rel=1e-15)
    assert sorted(set(zip(phi_d2.tolist(), dphi.tolist()))) == [
        (0.5, 2.0), (0.5, 3.0), (1.0, 2.0), (1.0, 3.0)]
    for i, (p2, d) in enumerate(zip(phi_d2.tolist(), dphi.tolist())):
        point = laser_set().replace(phi_d2=p2, phi_d1=p2 + d)
        assert rows_to_csv([table[i]], COLUMNS) == rows_to_csv([evaluate_point(point)], COLUMNS)


@pytest.mark.parametrize("x_axis, y_axis", [("delta_phi", "phi_d1"), ("phi_d1", "delta_phi")])
def test_grid_axis_pair_delta_phi_and_phi_d1_is_refused(x_axis, y_axis):
    # both move phi_d1: the second axis would overwrite the first
    with pytest.raises(ValueError, match="delta_phi and phi_d1 both move phi_d1"):
        GridSpec(Axis(x_axis, 0.0, 1.0, 2), Axis(y_axis, 2.0, 3.0, 2))


def test_narrow_table_has_no_unrequested_column():
    spec = SweepSpec(Axis("delta_phi", 0.0, 1.0, 3), outputs=("f1",))
    rows = run_sweep(laser_set(), spec)
    assert list(rows[0]) == ["f1", "error", "axis_value"]
    with pytest.raises(KeyError):
        rows["tms_g1"]


_STAGE_FUNCTIONS = (
    "tms_couplings", "bs_couplings", "rwa_validity_tms", "rwa_validity_bs", "laser_point",
)


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of each gated stage function, counted where the sweep binds it."""
    from sqom import sweep

    calls = dict.fromkeys(_STAGE_FUNCTIONS, 0)
    for name in _STAGE_FUNCTIONS:
        def counted(*args, _fn=getattr(sweep, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sweep, name, counted)
    return calls


@pytest.mark.parametrize("outputs, expected", [
    (("f1", "f2", "branch"), {}),
    (("tms_g1", "tms_error"), {"tms_couplings": 1, "rwa_validity_tms": 1}),
    (("bs_resonance",), {"bs_couplings": 1, "rwa_validity_bs": 1}),
    (LASER_SWEEP_OUTPUTS, dict.fromkeys(_STAGE_FUNCTIONS, 1)),
    (None, dict.fromkeys(_STAGE_FUNCTIONS, 1)),
])
def test_only_the_needed_stages_run(stage_calls, outputs, expected):
    # None: the spec's default, every column
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 7))
    if outputs is not None:
        spec = dataclasses.replace(spec, outputs=outputs)
    run_sweep(laser_set(), spec)
    assert stage_calls == {name: expected.get(name, 0) for name in _STAGE_FUNCTIONS}


@pytest.mark.parametrize("outputs, calls", [
    (("f1", "f2", "branch"), 0), (("tms_g1", "error"), 0), (("delta_phi",), 1), (None, 1),
])
def test_the_phase_fold_runs_only_for_the_delta_phi_column(outputs, calls, monkeypatch):
    from sqom import sweep

    folds = []
    fold = sweep.canonical_delta_phi
    monkeypatch.setattr(sweep, "canonical_delta_phi", lambda *a: folds.append(1) or fold(*a))
    spec = GridSpec(
        Axis("lambda1", 197.2, 199.9, 4),
        Axis("delta_phi", 0.0, 2.0 * math.pi, 4), outputs=COLUMNS,
    )
    full = run_grid(boundary_set(), spec)
    folds.clear()
    narrow = run_grid(boundary_set(), dataclasses.replace(spec, outputs=outputs or COLUMNS))
    assert len(folds) == calls
    _assert_projection(narrow, full, outputs or COLUMNS,
                       ["x_index", "y_index", "x_value", "y_value"])


def _assert_kind_dtypes(columns):
    """Each evaluated column has its kind's dtype: float64 for numbers,
    object for text and flags, whatever its batch."""
    for name, kind in COLUMN_SCHEMA + ORACLE_SCHEMA:
        if name in columns:
            want = np.float64 if kind == "float" else object
            assert columns[name].dtype == want, name


# 12 lambda2 values from 49 to 51 (the grid's 4 slowest): Stage1Unstable from row 6 on
@pytest.mark.parametrize("rows", [
    slice(0, 5),  # every point valid
    slice(5, 11),  # valid and invalid points
    slice(6, 12),  # no valid point: the all-blank path
    slice(11, 12),
    slice(3, 3),  # no row
])
def test_a_slice_of_rows_is_that_slice_of_the_whole_table(rows):
    sweep_spec = SweepSpec(Axis("lambda2", 49.0, 51.0, 12))
    grid_spec = GridSpec(
        Axis("delta_phi", 0.0, 2.0 * math.pi, 3),
        Axis("lambda2", 49.0, 51.0, 4), outputs=COLUMNS,
    )
    for run, spec in ((run_sweep, sweep_spec), (run_grid, grid_spec)):
        whole, part = run(laser_set(), spec), run(laser_set(), spec, rows=rows)
        names = list(whole.columns)
        assert list(part.columns) == names
        sliced = Table({name: column[rows] for name, column in whole.columns.items()})
        _assert_projection(part, sliced, names, [])
        _assert_kind_dtypes(part.columns)
        assert rows_to_csv(part, names) == rows_to_csv(sliced, names)


@pytest.mark.parametrize("p", [laser_set(), laser_set(0.0), laser_set().replace(lambda2=51.0)])
def test_a_one_point_evaluation_has_the_dtype_of_its_kind(p):
    # valid, TmsUnstable, Stage1Unstable: the batches of evaluate_point and analyze
    from sqom import sweep

    _assert_kind_dtypes(sweep._evaluate(batch(p), PipelineOptions(), COLUMNS + ORACLE_COLUMNS))
    _assert_kind_dtypes(sweep._evaluate(batch(p), PipelineOptions(), COLUMNS))


# a flag's own error column: where it is set, the flag cell is blank too
_FLAG_ERROR = {"tms_resonance": "tms_error", "laser_n_b_capped": "laser_error"}


def _assert_flag_cells(row, flags):
    """A flag cell is None where the row or the flag's stage has an error,
    else a Python bool (never np.bool_, which would print True, not true)."""
    for name in flags:
        blank = row["error"] != "" or row.get(_FLAG_ERROR.get(name), "") != ""
        assert row[name] is None if blank else type(row[name]) is bool, name


@pytest.mark.parametrize("axis, start, stop, steps", [
    ("delta_phi", 0.0, 2.0 * math.pi, 12),  # TmsUnstable at both ends
    ("g0", 0.0, 0.004, 5),  # ZeroCoupling at g0 = 0
    ("lambda2", 49.0, 51.0, 12),  # Stage1Unstable from row 6 on
])
def test_a_flag_cell_is_a_python_bool_or_none(axis, start, stop, steps):
    flags = [name for name, kind in COLUMN_SCHEMA if kind == "bool"]
    spec = SweepSpec(Axis(axis, start, stop, steps))
    for rows in (slice(1, 5), slice(None)):  # every point valid, then a blank in each case
        table = run_sweep(laser_set(), spec, rows=rows)
        for i, row in enumerate(table):
            _assert_flag_cells(row, flags)
            _assert_flag_cells(table[i], flags)
    # valid, TmsUnstable, ZeroCoupling (each with paired frequencies), Stage1Unstable
    for p in (laser_set(), laser_set(0.0), laser_set().replace(g0=0.0),
              laser_set().replace(lambda2=51.0)):
        _assert_flag_cells(evaluate_point(p), flags)
        _assert_flag_cells(analyze(p), flags + ["oracle_stable"])


_AXIS_END = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310])


@settings(max_examples=300, deadline=None)
@given(start=_AXIS_END, stop=_AXIS_END, steps=st.integers(2, 5000), data=st.data())
@example(start=0.0, stop=1.0, steps=2, data=None)
@example(start=1.5, stop=1.5, steps=5, data=None)  # a zero span
@example(start=0.0, stop=5e-324, steps=3, data=None)  # the step underflows to 0
@example(start=0.0, stop=1e-310, steps=1000, data=None)  # a subnormal step
@example(start=-0.0, stop=0.0, steps=4, data=None)
def test_axis_values_of_some_rows_are_those_rows_of_linspace(start, stop, steps, data):
    """A block's axis values are computed for its rows alone, bit for bit
    those of the whole np.linspace; the endpoint is `stop` exactly."""
    rows = slice(-1, None) if data is None else data.draw(st.slices(steps))
    index = np.arange(steps)[rows]
    want = np.linspace(start, stop, steps)
    sweep = SweepSpec(Axis("delta1", start, stop, steps))
    grid = GridSpec(Axis("delta1", start, stop, steps), Axis("delta2", stop, start, steps))
    assert sweep.axis.values(index).tobytes() == want[rows].tobytes()
    assert grid.x.values(index).tobytes() == want[rows].tobytes()
    assert grid.y.values(index).tobytes() == np.linspace(stop, start, steps)[rows].tobytes()
    assert sweep.axis.values().tobytes() == want.tobytes()
    if data is None:
        assert sweep.axis.values(index).tolist() == [stop]


def test_regime_map_grid_runs_no_branch(stage_calls):
    spec = GridSpec(
        Axis("lambda1", 197.2, 199.9, 4),
        Axis("delta_phi", 0.0, 2.0 * math.pi, 4),
    )
    assert spec.outputs == ("f1", "f2", "branch")
    run_grid(boundary_set(), spec)
    assert not any(stage_calls.values())


# every point validates; they cover TmsUnstable (laser set near 0),
# ZeroCoupling (g0 = 0) and the three regimes
_VALID_POINTS = [
    laser_set(0.0), laser_set(0.3), laser_set(2.6957770487662587), laser_set().replace(g0=0.0),
    boundary_set(0.5), boundary_set(), strong_drive_set(0.2), strong_drive_set(),
]


@pytest.mark.parametrize("outputs", [None, ("f1", "branch"), LASER_SWEEP_OUTPUTS])
def test_fully_valid_batch_equals_the_blank_and_fill_path(outputs, monkeypatch):
    from sqom import sweep

    outputs = COLUMNS if outputs is None else outputs  # None: what evaluate_point asks for
    taken = []
    monkeypatch.setattr(sweep, "take", lambda *a: taken.append(1) or take(*a))
    params = stack(PhysicalParams, _VALID_POINTS)
    # a Stage1Unstable point (lambda2 past delta2/2) runs on a stand-in, and
    # is blanked; projected out below
    mixed = stack(PhysicalParams, [*_VALID_POINTS[:3], laser_set().replace(lambda2=51.0),
                                   *_VALID_POINTS[3:]])
    columns = sweep._evaluate(params, PipelineOptions(), outputs)
    assert taken == []
    reference = sweep._evaluate(mixed, PipelineOptions(), outputs)
    assert taken == [1] and reference["error"][3] == "Stage1Unstable"
    keep = np.arange(len(_VALID_POINTS) + 1) != 3
    assert list(columns) == list(reference)
    for name, column in columns.items():
        expected = reference[name][keep]
        assert len(column) == len(_VALID_POINTS), name
        assert column.dtype == expected.dtype, name
        if expected.dtype.kind == "f":
            assert column.dtype == np.float64, name
            assert np.array_equal(column.view(np.int64), expected.view(np.int64)), name
        else:
            assert column.tolist() == expected.tolist(), name
    _assert_kind_dtypes(columns)
    names = list(columns)
    for i, name in enumerate(names):
        for other in names[i + 1:]:
            assert not np.shares_memory(columns[name], columns[other]), (name, other)
        for f in dataclasses.fields(params):
            assert not np.shares_memory(columns[name], getattr(params, f.name)), (name, f.name)


_MAGNITUDES = st.sampled_from([1e-300, 1e300]) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def _drive(draw, delta):
    """lambda at 0, inside |delta| > 2*lambda, or within 1e-16 of its edge."""
    half = 0.5 * abs(delta)
    mode = draw(st.sampled_from(["zero", "inside", "edge"]))
    if mode == "zero":
        return 0.0
    if mode == "edge":
        return half * (1.0 - draw(st.floats(0.0, 1e-16)))
    return half * draw(st.floats(0.0, 1.0, exclude_max=True))


@st.composite
def _domain_points(draw):
    delta1 = draw(st.sampled_from([-1.0, 1.0])) * draw(_MAGNITUDES)
    delta2 = draw(st.sampled_from([-1.0, 1.0])) * draw(_MAGNITUDES)
    return PhysicalParams(
        delta1=delta1,
        delta2=delta2,
        lambda1=draw(_drive(delta1)),
        lambda2=draw(_drive(delta2)),
        j_hop=draw(st.just(0.0) | _MAGNITUDES),
        g0=draw(st.just(0.0) | _MAGNITUDES),
        kappa=draw(_MAGNITUDES),
        gamma_m=draw(_MAGNITUDES),
        phi_d1=draw(st.floats(-10.0, 10.0)),
        phi_d2=draw(st.floats(-10.0, 10.0)),
    )


@settings(max_examples=200, deadline=None)
@given(_domain_points())
@example(laser_set().replace(kappa=1e200))  # x**2 overflows in the laser gain
@example(laser_set().replace(delta2=1e200))
@example(PhysicalParams(  # the oracle's frequency deviation overflows
    delta1=1.0821473844320759e-293, delta2=4.023806653587475e+244, lambda1=0.0, lambda2=0.0,
    j_hop=3.037557298636246e+197, g0=0.0, kappa=1.2111533654996346e+291,
    gamma_m=1.4333800811831704e-100, phi_d1=-2.5237097209841703, phi_d2=-8.365970948436372,
))
@example(PhysicalParams(  # arg(J') underflows: cmath.phase raises where atan2 gives -0.0
    delta1=-1e-300, delta2=-1e-300, lambda1=2.5e-301, lambda2=4.999999999999999e-301,
    j_hop=1e300, g0=0.0, kappa=1e-300, gamma_m=1e-300, phi_d1=0.0, phi_d2=5e-324,
))
def test_rows_never_raise_over_the_valid_domain(p):
    """Magnitudes from 1e-300 to 1e300, negative detunings, drives at the
    stage-1 edge: a row comes back, with no exception and, since pytest
    turns RuntimeWarnings into errors, no floating-point warning."""
    assert evaluate_point(p)["error"] in ("", "Stage1Unstable")
    analyze(p)


def _cell(value):
    """A Python cell by its type and its bits: a float by its IEEE pattern,
    so -0.0 and each NaN payload stay apart."""
    return type(value), struct.pack("<d", value) if type(value) is float else value


def test_table_row_is_the_tolist_of_each_column():
    """`table[i]` is `{name: col.tolist()[i]}` for every column kind, by type
    and bits: float64 cells with -0.0 and NaN payloads, int64 grid indices,
    and str, bool and None cells of the object columns; negative i too."""
    # lambda2 past 50 is Stage1Unstable: blank '' and None cells in the object columns
    spec = GridSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 3),
                    Axis("lambda2", 49.0, 51.0, 4), outputs=COLUMNS)
    table = run_grid(laser_set(), spec)
    payloads = np.array([0x7FF8000000000001, -0x7FF4000000000000, 0], dtype=np.int64)
    table["signed"] = np.resize(np.concatenate((payloads.view(float), [-0.0, 0.0])), len(table))
    assert table["x_index"].dtype == np.int64
    kinds = {name: {_cell(v)[0] for v in col.tolist()} for name, col in table.columns.items()}
    assert kinds["x_index"] == {int} and kinds["signed"] == {float}
    assert kinds["tms_resonance"] == {bool, type(None)} and kinds["tms_error"] == {str}
    for i in range(-len(table), len(table)):
        row = table[i]
        assert list(row) == list(table.columns)
        for name, col in table.columns.items():
            assert _cell(row[name]) == _cell(col.tolist()[i]), (name, i)


def _csv_and_dtypes(table):
    return rows_to_csv(table), {name: col.dtype for name, col in table.columns.items()}


def test_outputs_as_a_list_give_the_table_of_the_tuple():
    from sqom import sweep

    outputs = ["laser_error", "tms_g1", "f1", "tms_resonance", "branch"]
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 5))
    as_list = run_sweep(laser_set(), dataclasses.replace(spec, outputs=outputs))
    as_tuple = run_sweep(laser_set(), dataclasses.replace(spec, outputs=tuple(outputs)))
    assert _csv_and_dtypes(as_list) == _csv_and_dtypes(as_tuple)
    outputs.append("oracle_stable")
    point = batch(strong_drive_set())
    assert _csv_and_dtypes(Table(sweep._evaluate(point, PipelineOptions(), outputs))) == (
        _csv_and_dtypes(Table(sweep._evaluate(point, PipelineOptions(), tuple(outputs)))))


def test_each_output_set_gets_its_own_columns_and_stages(stage_calls):
    """Output sets evaluated one after another in one process, the regime map
    among them, each return their own columns and run only their stages."""
    spec = SweepSpec(Axis("delta_phi", 0.0, 2.0 * math.pi, 5))
    cases = [
        (("tms_g1",), {"tms_couplings": 1, "rwa_validity_tms": 1}),
        (("f1", "f2", "branch"), {}),
        (("bs_resonance", "f1"), {"bs_couplings": 1, "rwa_validity_bs": 1}),
        (("tms_g1",), {"tms_couplings": 1, "rwa_validity_tms": 1}),
        (("f1", "f2", "branch"), {}),
    ]
    for outputs, expected in cases:
        table = run_sweep(laser_set(), dataclasses.replace(spec, outputs=outputs))
        order = [name for name in COLUMNS if name in {*outputs, "error"}]
        assert list(table.columns) == order + ["axis_value"], outputs
        assert stage_calls == {name: expected.get(name, 0) for name in _STAGE_FUNCTIONS}, outputs
        stage_calls.update(dict.fromkeys(stage_calls, 0))
