"""Sweep/grid mechanics: consistency, sentinels, determinism."""
import math

import pytest

from sqom import GridSpec, PipelineOptions, SweepSpec, analyze, evaluate_point, run_grid, run_sweep
from sqom.sweep import (
    COLUMNS,
    apply_axis,
    grid_columns,
    laser_rows,
    rows_to_csv,
    sweep_columns,
    sweep_csv_rows,
)

from conftest import boundary_set, laser_set, on_one_point, strong_drive_set


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
    gspec = GridSpec(
        x_axis="lambda1", x_start=1.0, x_stop=2.0, x_steps=2,
        y_axis="delta_phi", y_start=0.0, y_stop=1.0, y_steps=2,
        outputs=("f1", "f2"),
    )
    assert grid_columns(gspec) == ["x_index", "y_index", "lambda1", "delta_phi", "f1", "f2"]


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


def test_laser_projection_columns():
    spec = SweepSpec(axis="delta_phi", start=0.0, stop=2.0 * math.pi, steps=5)
    rows = laser_rows(run_sweep(laser_set(), spec))
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
    from sqom import LaserInput, laser_point

    res = on_one_point(laser_point)(
        LaserInput(row["bs_gp12_abs"], row["bs_w1"], row["bs_w2"], n_plus=2.0),
        1.0, laser_set().kappa, laser_set().gamma_m,
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
