"""Sweep/grid mechanics: consistency, sentinels, determinism."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqom import (
    GridSpec,
    PhysicalParams,
    PipelineOptions,
    SweepSpec,
    analyze,
    evaluate_point,
    run_grid,
    run_sweep,
)
from sqom.elementwise import stack, take
from sqom.sweep import (
    COLUMNS,
    LASER_SWEEP_OUTPUTS,
    ORACLE_COLUMNS,
    Table,
    apply_axis,
    grid_columns,
    laser_rows,
    sweep_columns,
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
        SweepSpec(axis="lamda1", start=0.0, stop=1.0, steps=5)
    with pytest.raises(ValueError, match="steps"):
        SweepSpec(axis="lambda1", start=0.0, stop=1.0, steps=1)
    with pytest.raises(ValueError, match="output"):
        SweepSpec(axis="lambda1", start=0.0, stop=1.0, steps=5, outputs=("nope",))
    with pytest.raises(ValueError, match="differ"):
        GridSpec(
            x_axis="lambda1", x_start=0.0, x_stop=1.0, x_steps=3,
            y_axis="lambda1", y_start=0.0, y_stop=1.0, y_steps=3,
        )


@pytest.mark.parametrize("start, stop", [
    (math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308),  # the span overflows
])
def test_spec_refuses_a_non_finite_axis(start, stop):
    with pytest.raises(ValueError, match="must be finite"):
        SweepSpec(axis="delta1", start=start, stop=stop, steps=3)
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(x_axis="delta1", x_start=start, x_stop=stop, x_steps=3,
                 y_axis="delta_phi", y_start=0.0, y_stop=1.0, y_steps=3)
    with pytest.raises(ValueError, match="must be finite"):
        GridSpec(x_axis="delta_phi", x_start=0.0, x_stop=1.0, x_steps=3,
                 y_axis="delta1", y_start=start, y_stop=stop, y_steps=3)


def test_delta_phi_axis_moves_phi_d1_only():
    base = laser_set().replace(phi_d1=0.0, phi_d2=0.4)
    moved = apply_axis(base, "delta_phi", 1.0)
    assert moved.phi_d2 == 0.4
    assert moved.phi_d1 == pytest.approx(1.4)
    row = evaluate_point(moved)
    assert row["delta_phi"] == pytest.approx(1.0)


def test_sweep_rows_match_single_point_analysis():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=2.0 * math.pi, steps=7)
    rows = run_sweep(laser_set(), spec)
    for value, row in zip(spec.values(), rows):
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
    spec = SweepSpec(axis="lambda2", start=49.0, stop=51.0, steps=9)
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
    spec = SweepSpec(axis=axis, start=start, stop=stop, steps=9)
    rows = run_sweep(laser_set(), spec)
    assert rows["error"][0] != "" and rows["error"][-1] == ""
    lines = rows_to_csv(rows, list(COLUMNS)).splitlines()[1:]
    for value, line in zip(spec.values(), lines):
        row = evaluate_point(apply_axis(laser_set(), axis, float(value)))
        assert line == rows_to_csv([row], list(COLUMNS)).splitlines()[1], value


def test_tms_refusal_is_per_point_sentinel():
    # the moderate-drive set loses the TMS stage near delta_phi = 0, where
    # |J'| = 2*j_hop*|lam2| exceeds omega_s1 + omega_s2
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=2.0 * math.pi, steps=13)
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
        x_axis="lambda1", x_start=195.0, x_stop=205.0, x_steps=6,
        y_axis="delta_phi", y_start=0.0, y_stop=2.0 * math.pi, y_steps=5,
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


def test_outputs_subset_and_column_order():
    spec = SweepSpec(
        axis="delta_phi", start=0.0, stop=1.0, steps=3, outputs=("f1", "branch")
    )
    assert sweep_columns(spec) == ["delta_phi", "f1", "branch"]
    assert sweep_columns(dataclasses.replace(spec, outputs=())) == ["delta_phi"]
    gspec = GridSpec(
        x_axis="lambda1", x_start=1.0, x_stop=2.0, x_steps=2,
        y_axis="delta_phi", y_start=0.0, y_stop=1.0, y_steps=2,
        outputs=("f1", "f2"),
    )
    assert grid_columns(gspec) == ["x_index", "y_index", "lambda1", "delta_phi", "f1", "f2"]
    assert grid_columns(dataclasses.replace(gspec, outputs=())) == [
        "x_index", "y_index", "lambda1", "delta_phi"]


def test_axis_column_not_duplicated():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=1.0, steps=3)
    cols = sweep_columns(spec)
    assert cols.count("delta_phi") == 1
    assert cols[0] == "delta_phi"


def test_csv_determinism():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=2.0 * math.pi, steps=21)
    a = rows_to_csv(sweep_csv_rows(run_sweep(laser_set(), spec), spec), sweep_columns(spec))
    b = rows_to_csv(sweep_csv_rows(run_sweep(laser_set(), spec), spec), sweep_columns(spec))
    assert a == b
    assert a.count("\n") == 22  # header + 21 rows
    # the emitted axis column keeps the raw requested endpoint, 2*pi
    assert a.splitlines()[-1].startswith("6.28318530717958")


def test_csv_17_significant_digits():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=1.0, steps=2, outputs=("f1",))
    text = rows_to_csv(sweep_csv_rows(run_sweep(laser_set(), spec), spec), sweep_columns(spec))
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
    the row dicts, for repeated and all-distinct columns of each kind."""
    gen = np.random.default_rng(seed)
    columns = {}
    for kind, pool in CELL_POOLS.items():
        columns[kind] = (
            pool[gen.integers(0, len(pool), n)] if repeated else _all_distinct(kind, gen, n)
        )
        columns[kind + "_constant"] = np.repeat(pool[gen.integers(0, len(pool), 1)], n)
    names = list(columns)
    table = Table(columns)
    assert rows_to_csv(table, names) == rows_to_csv(list(table), names)


def test_laser_projection_columns():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=2.0 * math.pi, steps=5)
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
        SweepSpec(axis="delta_phi", start=0.0, stop=0.2, steps=3),
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
        tms_report, bs_report = report_of(*args)  # the branch order `analyze` asks for
        return [tms_report, dataclasses.replace(bs_report, metric_defect=np.array([math.nan]))]

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
    spec = SweepSpec(axis=axis, start=start, stop=stop, steps=steps)
    full = run_sweep(params, spec)
    narrow = run_sweep(params, dataclasses.replace(spec, outputs=tuple(outputs)))
    _assert_projection(narrow, full, outputs, ["axis_value"])


@settings(max_examples=30, deadline=None)
@given(x_steps=st.integers(2, 5), y_steps=st.integers(2, 5), outputs=_SUBSETS)
def test_narrow_grid_is_a_projection_of_the_full_grid(x_steps, y_steps, outputs):
    # lambda1 crosses |delta1|/2 = 200 (Stage1Unstable), and the boundary
    # set loses its TMS stage over part of the phase range
    spec = GridSpec(
        x_axis="lambda1", x_start=196.0, x_stop=201.0, x_steps=x_steps,
        y_axis="delta_phi", y_start=0.0, y_stop=2.0 * math.pi, y_steps=y_steps,
        outputs=COLUMNS,
    )
    full = run_grid(boundary_set(), spec)
    narrow = run_grid(boundary_set(), dataclasses.replace(spec, outputs=tuple(outputs)))
    _assert_projection(narrow, full, outputs, ["x_index", "y_index", "x_value", "y_value"])


def test_narrow_table_has_no_unrequested_column():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=1.0, steps=3, outputs=("f1",))
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
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=2.0 * math.pi, steps=7)
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
        x_axis="lambda1", x_start=197.2, x_stop=199.9, x_steps=4,
        y_axis="delta_phi", y_start=0.0, y_stop=2.0 * math.pi, y_steps=4, outputs=COLUMNS,
    )
    full = run_grid(boundary_set(), spec)
    folds.clear()
    narrow = run_grid(boundary_set(), dataclasses.replace(spec, outputs=outputs or COLUMNS))
    assert len(folds) == calls
    _assert_projection(narrow, full, outputs or COLUMNS,
                       ["x_index", "y_index", "x_value", "y_value"])


@pytest.mark.parametrize("rows", [slice(0, 5), slice(5, 11), slice(11, 12), slice(3, 3)])
def test_a_slice_of_rows_is_that_slice_of_the_whole_table(rows):
    sweep_spec = SweepSpec(axis="lambda2", start=49.0, stop=51.0, steps=12)
    grid_spec = GridSpec(
        x_axis="delta_phi", x_start=0.0, x_stop=2.0 * math.pi, x_steps=3,
        y_axis="lambda2", y_start=49.0, y_stop=51.0, y_steps=4, outputs=COLUMNS,
    )
    for run, spec in ((run_sweep, sweep_spec), (run_grid, grid_spec)):
        whole, part = run(laser_set(), spec), run(laser_set(), spec, rows=rows)
        names = list(whole.columns)
        assert list(part.columns) == names
        # a flag column is bool, or object where a point of the batch is blank
        sliced = Table({name: column[rows] for name, column in whole.columns.items()})
        assert rows_to_csv(part, names) == rows_to_csv(sliced, names)


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
    sweep = SweepSpec(axis="delta1", start=start, stop=stop, steps=steps)
    grid = GridSpec(x_axis="delta1", x_start=start, x_stop=stop, x_steps=steps,
                    y_axis="delta2", y_start=stop, y_stop=start, y_steps=steps)
    assert sweep.values(index).tobytes() == want[rows].tobytes()
    assert grid.x_values(index).tobytes() == want[rows].tobytes()
    assert grid.y_values(index).tobytes() == np.linspace(stop, start, steps)[rows].tobytes()
    assert sweep.values().tobytes() == want.tobytes()
    if data is None:
        assert sweep.values(index).tolist() == [stop]


def test_regime_map_grid_runs_no_branch(stage_calls):
    spec = GridSpec(
        x_axis="lambda1", x_start=197.2, x_stop=199.9, x_steps=4,
        y_axis="delta_phi", y_start=0.0, y_stop=2.0 * math.pi, y_steps=4,
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
        if expected.dtype.kind == "f":
            assert column.dtype == np.float64, name
            assert np.array_equal(column.view(np.int64), expected.view(np.int64)), name
        else:
            assert column.tolist() == expected.tolist(), name
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
def test_rows_never_raise_over_the_valid_domain(p):
    """Magnitudes from 1e-300 to 1e300, negative detunings, drives at the
    stage-1 edge: a row comes back, with no exception and, since pytest
    turns RuntimeWarnings into errors, no floating-point warning."""
    assert evaluate_point(p)["error"] in ("", "Stage1Unstable")
    analyze(p)
