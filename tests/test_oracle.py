"""Exact-diagonalization oracle: structure, frequencies, conjugation."""
import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest

from sqom import (
    PhysicalParams,
    analyze,
    build_photonic_form,
    conjugate_coupling,
    oracle,
    rwa_error_report,
    symplectic_frequencies,
    validate,
    verify,
)
from sqom.elementwise import stack
from sqom.oracle import (
    COEFFICIENTS,
    SIGMA,
    bs_map,
    coefficient_defect,
    stage1_map,
    symplectic_defect,
    tms_map,
)
from sqom.second_stage import TmsCouplings, bs_couplings, tms_couplings
from sqom.verify import random_branch_params, random_sets, random_valid_params, validated

from conftest import (
    assert_rel,
    batch,
    boundary_set,
    laser_set,
    oracle_report,
    oracle_stages,
    point,
    points,
    strong_drive_set,
)


def _report(p, branch):
    """The oracle's two defects of one set, the deviation of the branch's |W|
    from the exact frequencies and those frequencies, as Python scalars."""
    vp = validate(batch(p))
    (coeff, metric), dev = oracle_report(vp, branch)
    return ((coeff.item(), metric.item()), dev[:, 0].tolist(),
            point(symplectic_frequencies(build_photonic_form(vp))))


def _dropped_term(p, label):
    """`verify`'s info row on the term the `label` branch drops at the
    configured point `p`: the dropped coupling over its gap, and the detail."""
    rows = verify.run_verification(validate(batch(p)), n_random=0, seed=0, oracle_rtol=1e-9)
    (row,) = [r for r in rows if r["check"] == f"rwa_dropped_term[{label}]"]
    return row["max_error"], row["detail"]


def _final_map(vp, s, c):
    """Stage-1 squeezing composed with the rotation of the branch of `c`."""
    return stage1_map(vp, s) @ (tms_map(c) if isinstance(c, TmsCouplings) else bs_map(c))


def _squeezed(delta, lambda_amp):
    """omega_s, cosh(r_d) and sinh(r_d) of one cavity, as stage1_transform
    computes them, on floats."""
    r = 0.25 * math.log((delta + 2.0 * lambda_amp) / (delta - 2.0 * lambda_amp))
    return (delta - 2.0 * lambda_amp) * math.exp(2.0 * r), math.cosh(r), math.sinh(r)


def stacked(branch, drawn):
    """Sets drawn one at a time, as (set, u) pairs, as one validated batch and
    its stage 1 result."""
    sets, u = zip(*drawn) if drawn else ((), ())
    return validated(branch, stack(PhysicalParams, sets), np.array(u, dtype=float))


def _reference_valid_params(rng):
    """The sampler the stream is pinned to: one `rng.choice` per sign and
    one `rng.uniform` per value."""
    while True:
        d1 = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 100.0)
        d2 = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 100.0)
        p = PhysicalParams(
            delta1=float(d1),
            delta2=float(d2),
            lambda1=float(rng.uniform(0.0, 0.495 * abs(d1))),
            lambda2=float(rng.uniform(0.0, 0.495 * abs(d2))),
            j_hop=float(rng.uniform(0.0, 2.0)),
            g0=float(10.0 ** rng.uniform(-4.0, -1.0)),
            kappa=0.05,
            gamma_m=0.001,
            phi_d1=float(rng.uniform(0.0, 2.0 * math.pi)),
            phi_d2=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        w1 = _squeezed(p.delta1, p.lambda1)[0]
        w2 = _squeezed(p.delta2, p.lambda2)[0]
        if abs(w1 - w2) >= 0.01 * max(1.0, abs(w1) + abs(w2)):
            return p


def _reference_branch_params(rng, branch):
    while True:
        p = _reference_valid_params(rng)
        if branch == "bs":
            return p, math.nan
        w1, c1, s1 = _squeezed(p.delta1, p.lambda1)
        w2, c2, s2 = _squeezed(p.delta2, p.lambda2)
        if w1 + w2 < 0.01 * max(1.0, abs(w1) + abs(w2)):
            continue
        lam2 = c1 * s2 * cmath.exp(1j * p.phi_d2) + s1 * c2 * cmath.exp(1j * p.phi_d1)
        if abs(lam2) < 1e-9:
            continue
        return p, rng.uniform(0.05, 0.95)


def _draws(sampler, seed, n):
    """n sets of each branch, alternating as `run_verification` draws them,
    each as float.hex strings with the generator state after it."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        for branch in ("tms", "bs"):
            p, u = sampler(rng, branch)
            draws.append(([float.hex(float(x)) for x in astuple(p) + (u,)],
                          rng.bit_generator.state))
    return draws


@pytest.mark.parametrize("seed", range(20))
def test_sampler_stream_is_pinned(seed):
    """The sampler reads the generator as one `rng.choice` per sign and one
    `rng.uniform` per value would: equal sets, bit for bit, and an equal
    generator state after each set."""
    assert _draws(random_branch_params, seed, 500) == _draws(_reference_branch_params, seed, 500)


def _bytes(batch_of_sets):
    return [getattr(batch_of_sets, f).tobytes() for f in batch_of_sets.__dataclass_fields__]


@pytest.mark.parametrize("seed", range(20))
def test_oracle_phase_runs_are_pinned(seed):
    """`random_sets` draws a run of one branch, as the oracle phase of
    `verify` does (two-mode squeezing, then beam splitter, after the
    alternating identity sets), as the reference sampler does: equal stacked
    sets and an equal generator state after each run."""
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        for branch in ("tms", "bs"):
            random_branch_params(rng, branch)
            _reference_branch_params(reference, branch)
    for branch in ("tms", "bs"):
        sets, stage1 = random_sets(rng, branch, 100)
        want = stacked(branch, [_reference_branch_params(reference, branch) for _ in range(100)])
        assert _bytes(sets) + _bytes(stage1) == _bytes(want[0]) + _bytes(want[1])
        assert rng.bit_generator.state == reference.bit_generator.state


def _per_attempt_valid_params(rng, tms):
    """The per-attempt sampler the look-ahead reader replaces: each attempt
    makes two 32-bit draws through the bit generator's `next_uint32`, then
    one `rng.random(8)`."""
    bits = rng.bit_generator.ctypes
    while True:
        s1, s2 = bits.next_uint32(bits.state) >> 31, bits.next_uint32(bits.state) >> 31
        m1, m2, u1, u2, uj, ug, up1, up2 = rng.random(8).tolist()
        d1 = (-1.0, 1.0)[s1] * (1.0 + (100.0 - 1.0) * m1)
        d2 = (-1.0, 1.0)[s2] * (1.0 + (100.0 - 1.0) * m2)
        lambda1 = 0.0 + (0.495 * abs(d1) - 0.0) * u1
        lambda2 = 0.0 + (0.495 * abs(d2) - 0.0) * u2
        phi_d1 = 0.0 + (2.0 * math.pi - 0.0) * up1
        phi_d2 = 0.0 + (2.0 * math.pi - 0.0) * up2
        (w1, c1, s1), (w2, c2, s2) = _squeezed(d1, lambda1), _squeezed(d2, lambda2)
        near = 0.01 * max(1.0, abs(w1) + abs(w2))
        if abs(w1 - w2) < near:
            continue
        if tms:
            if w1 + w2 < near:
                continue
            lam2 = c1 * s2 * cmath.exp(1j * phi_d2) + s1 * c2 * cmath.exp(1j * phi_d1)
            if abs(lam2) < 1e-9:
                continue
        return PhysicalParams(
            delta1=d1, delta2=d2, lambda1=lambda1, lambda2=lambda2,
            j_hop=0.0 + (2.0 - 0.0) * uj, g0=10.0 ** (-4.0 + (-1.0 - -4.0) * ug),
            kappa=0.05, gamma_m=0.001, phi_d1=phi_d1, phi_d2=phi_d2,
        )


def _per_attempt_branch_params(rng, branch):
    tms = branch == "tms"
    p = _per_attempt_valid_params(rng, tms)
    return p, 0.05 + (0.95 - 0.05) * rng.random() if tms else math.nan


def _plain(state):
    """A bit generator's state with its arrays as lists, so states compare."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def _assert_reader_is_per_attempt(bit_generator, n, prior_draws=0):
    """The phases of a `verify` run of n sets per branch (both branches
    alternately, then each branch alone) drawn by the reader and by the
    per-attempt sampler: equal sets, bit for bit, and an equal full
    generator state after each phase. `prior_draws` calls of
    `rng.integers(2)` come first, so an odd number leaves a half word
    pending."""
    rng, reference = (np.random.Generator(bit_generator(2024)) for _ in range(2))
    for _ in range(prior_draws):
        assert rng.integers(2) == reference.integers(2)
    for phase in (["tms", "bs"] * n, ["tms"] * n, ["bs"] * n):
        drawn = random_valid_params(rng, phase)
        want = {branch: [] for branch in phase}  # a batch per branch drawn
        for branch in phase:
            want[branch].append(_per_attempt_branch_params(reference, branch))
        assert list(drawn) == list(want)
        for branch, sets in want.items():
            p, u = zip(*sets)
            got, got_u = drawn[branch]
            assert _bytes(got) + [got_u.tobytes()] == (
                _bytes(stack(PhysicalParams, p)) + [np.array(u, dtype=float).tobytes()])
        assert _plain(rng.bit_generator.state) == _plain(reference.bit_generator.state)


def test_reader_crosses_look_ahead_blocks():
    """2000 sets per branch read dozens of look-ahead blocks a phase."""
    _assert_reader_is_per_attempt(np.random.PCG64, 2000)


@pytest.mark.parametrize("prior_draws", [1, 2, 3])
def test_reader_keeps_a_pending_half_word(prior_draws):
    _assert_reader_is_per_attempt(np.random.PCG64, 300, prior_draws)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.Philox,
                                           np.random.SFC64])
@pytest.mark.parametrize("prior_draws", [0, 1])
def test_reader_reads_every_half_word_bit_generator(bit_generator, prior_draws):
    _assert_reader_is_per_attempt(bit_generator, 300, prior_draws)


def test_no_sets_leave_the_generator_alone():
    rng = np.random.default_rng(5)
    rng.integers(2)
    before = rng.bit_generator.state
    drawn = random_valid_params(rng, [])
    assert rng.bit_generator.state == before
    assert all(len(sets.delta1) == len(u) == 0 for sets, u in drawn.values())


def test_a_bit_generator_without_a_half_word_is_refused():
    """MT19937 makes a double of two 32-bit outputs, not of one 64-bit word."""
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        random_sets(rng, "bs", 1)


def test_form_trivial_diagonal():
    p = PhysicalParams(
        delta1=3.0, delta2=7.0, lambda1=0.0, lambda2=0.0,
        j_hop=0.0, g0=0.0, kappa=0.05, gamma_m=0.001,
    )
    form = build_photonic_form(batch(p))
    assert np.allclose(form[0], np.diag([3.0, 7.0, 3.0, 7.0]))
    freqs = point(symplectic_frequencies(form))
    assert freqs.stable
    assert_rel(freqs.nu1, 7.0, 1e-14)
    assert_rel(freqs.nu2, 3.0, 1e-14)


def test_form_structure_on_random_sets(rng):
    vps, _ = random_sets(rng, "bs", 200)
    for M in build_photonic_form(vps):
        # hermiticity and particle-hole block structure
        assert np.max(np.abs(M - M.conj().T)) == 0.0
        assert np.max(np.abs(M[2:, 2:] - M[:2, :2].T)) == 0.0
        assert np.max(np.abs(M[2:, :2] - M[:2, 2:].conj())) == 0.0


def test_decoupled_frequencies_match_stage1(rng):
    vps, ss = random_sets(rng, "bs", 100)
    vps = validate(vps.replace(j_hop=np.zeros(100)))
    all_freqs = symplectic_frequencies(build_photonic_form(vps))
    for s, freqs in zip(points(ss), points(all_freqs)):
        expected = sorted([abs(s.omega_s1), abs(s.omega_s2)])
        assert freqs.stable
        assert_rel(freqs.nu2, expected[0], 1e-9, atol=1e-12)
        assert_rel(freqs.nu1, expected[1], 1e-9, atol=1e-12)


def test_parametric_instability_flagged():
    p = PhysicalParams(
        delta1=10.0, delta2=10.0, lambda1=6.0, lambda2=0.0,
        j_hop=0.0, g0=0.0, kappa=0.05, gamma_m=0.001,
    )
    # |delta1| < 2*lambda1: deliberately invalid, built from raw params
    freqs = point(symplectic_frequencies(build_photonic_form(batch(p))))
    assert not freqs.stable


def test_maps_preserve_symplectic_metric(rng):
    vps, ss = random_sets(rng, "bs", 300)
    stacks = zip(stage1_map(vps, ss), bs_map(bs_couplings(ss, vps)), tms_map(tms_couplings(ss, vps)))
    for vp, s, (m1, mb, mt) in zip(points(vps), points(ss), stacks):
        maps = [m1, mb]
        if s.omega_sum > 2.0 * vp.j_hop * abs(s.lam2) and s.omega_sum > 0:
            maps.append(mt)
        composed = maps[0]
        for m in maps[1:]:
            composed = composed @ m
            assert symplectic_defect(m) < 1e-12
        assert symplectic_defect(composed) < 1e-12


def test_identity_map_recovers_bare_coupling():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0, j_hop=0.0)
    vp = validate(batch(p))
    s, c, _ = oracle_stages(vp, "bs")
    rows = conjugate_coupling(vp, _final_map(vp, s, c))
    coeffs = {k: v.item() for k, v in zip(COEFFICIENTS, rows)}
    assert abs(coeffs["n22"] + p.g0) < 1e-18
    for name, value in coeffs.items():
        if name != "n22":
            assert abs(value) < 1e-18


def test_branch_transformations_diagonalize_their_hamiltonian(rng):
    """The rotation must cancel the photonic term it was built to remove."""
    drawn = random_valid_params(rng, ["tms", "bs"] * 100)  # both branches alternately
    vps, ss = validated("tms", *drawn["tms"])
    cs = tms_couplings(ss, vps)
    bvps, bss = validated("bs", *drawn["bs"])
    bcs = bs_couplings(bss, bvps)
    tms_rows = zip(points(vps), points(ss), points(cs), tms_map(cs))
    bs_rows = zip(points(bvps), points(bss), points(bcs), bs_map(bcs))
    for (vp, s, c, T), (bvp, bs_, bc, Tb) in zip(tms_rows, bs_rows):
        P = np.diag([s.omega_s1, s.omega_s2]).astype(complex)
        Q = np.array(
            [[0.0, -vp.j_hop * np.conj(s.lam2)], [-vp.j_hop * np.conj(s.lam2), 0.0]]
        )
        M = np.block([[P, Q], [Q.conj().T, P.T]])
        M2 = T.conj().T @ M @ T
        scale = max(abs(s.omega_s1), abs(s.omega_s2), 1.0)
        assert np.max(np.abs(M2[:2, 2:])) < 1e-11 * scale  # pair block gone
        assert abs(M2[0, 1]) < 1e-11 * scale
        assert_rel(M2[0, 0].real, c.w1, 1e-10, atol=1e-12)
        assert_rel(M2[1, 1].real, c.w2, 1e-10, atol=1e-12)

        Pb = np.array(
            [
                [bs_.omega_s1, bvp.j_hop * np.conj(bs_.lam1)],
                [bvp.j_hop * bs_.lam1, bs_.omega_s2],
            ]
        )
        Mb = np.block([[Pb, np.zeros((2, 2))], [np.zeros((2, 2)), Pb.T]])
        Mb2 = Tb.conj().T @ Mb @ Tb
        scale = max(abs(bs_.omega_s1), abs(bs_.omega_s2), 1.0)
        assert abs(Mb2[0, 1]) < 1e-11 * scale
        assert_rel(Mb2[0, 0].real, bc.w1, 1e-10, atol=1e-12)
        assert_rel(Mb2[1, 1].real, bc.w2, 1e-10, atol=1e-12)


@pytest.mark.parametrize("branch", ["tms", "bs"])
def test_conjugation_matches_analytics_random(branch, rng):
    vps, _ = random_sets(rng, branch, 300)
    s, c, _ = oracle_stages(vps, branch)
    exact = conjugate_coupling(vps, _final_map(vps, s, c))
    tms = branch == "tms"
    # the closed forms: two-mode squeezing flips the sign of n12 and moves
    # -f_prime into the scalar part
    analytic = {
        "n11": -c.g1, "n22": -c.g2, "n12": -c.gp12 if tms else c.gp12,
        "p11": c.g11, "p22": c.g22, "p12": c.g12,
        "const": -(s.f_disp + c.f_prime) if tms else -s.f_disp,
    }
    analytic = np.stack([analytic[k] for k in COEFFICIENTS])
    worst = max(coefficient_defect(exact, analytic, scale_floor=vps.g0))
    assert worst < 1e-9


def test_coefficient_defect_is_the_per_key_worst_ratio():
    # reference: each point's keys in COEFFICIENTS order, the largest ratio
    # from 0.0; a NaN ratio makes the point's defect NaN
    gen = np.random.default_rng(7)
    n, keys = 64, COEFFICIENTS

    def coefficients():
        values = {k: gen.normal(size=n) + 1j * gen.normal(size=n) for k in keys}
        for k in keys:
            values[k][gen.random(n) < 0.03] = complex(math.nan, 0.0)
        return values

    a, b = coefficients(), coefficients()
    b["p22"] = a["p22"].copy()  # an exact zero deviation
    floor = 10.0 ** gen.uniform(-3, 1, n)
    expected = []
    for i in range(n):
        ratios = [0.0]
        for k in keys:
            x, y = complex(a[k][i]), complex(b[k][i])
            ratios.append(abs(x - y) / max(max(abs(x), abs(y)), floor[i]))
        expected.append(math.nan if any(map(math.isnan, ratios)) else max(ratios))
    assert 0 < sum(map(math.isnan, expected)) < n
    got = coefficient_defect(
        np.stack([a[k] for k in keys]), np.stack([b[k] for k in keys]), scale_floor=floor
    )
    assert list(map(float.hex, got.tolist())) == list(map(float.hex, expected))


def test_nan_coefficient_is_no_agreement():
    one = np.full((len(COEFFICIENTS), 1), 1.0 + 1.0j)
    nan = one.copy()
    nan[COEFFICIENTS.index("n11")] = math.nan + 0j
    assert math.isnan(coefficient_defect(nan, one, [1e-3])[0])
    assert math.isnan(coefficient_defect(one, nan, [1e-3])[0])


def _nan_at_first_set(k):
    """rwa_error_report with its defect k (0: coefficients, 1: metric) NaN
    at the first point of each couplings."""
    def patched(*args):
        defects = list(rwa_error_report(*args))
        defects[k] = defects[k].copy()
        defects[k][:, 0] = math.nan
        return tuple(defects)
    return patched


def test_verify_fails_the_oracle_check_on_a_nan_defect(monkeypatch):
    monkeypatch.setattr(verify.oracle, "rwa_error_report", _nan_at_first_set(0))
    rows = {r["check"]: r for r in verify.run_verification(
        validate(batch(laser_set())), n_random=3, seed=0, oracle_rtol=1e-9)}
    for label in ("tms", "bs"):
        row = rows[f"oracle_coefficients[{label}]"]
        assert row["status"] == "fail" and math.isnan(row["max_error"])
    assert not verify.all_passed(list(rows.values()))


def test_verify_fails_identity_and_metric_checks_on_a_nan_error(monkeypatch):
    def nan_at_first_set(errors):
        def patched(*args):
            out = errors(*args)
            name = min(out)
            out[name] = out[name].copy()
            out[name][0] = math.nan
            return out
        return patched

    for helper in ("_identity_errors_tms", "_identity_errors_bs"):
        monkeypatch.setattr(verify, helper, nan_at_first_set(getattr(verify, helper)))
    monkeypatch.setattr(verify.oracle, "rwa_error_report", _nan_at_first_set(1))
    rows = {r["check"]: r for r in verify.run_verification(
        validate(batch(laser_set())), n_random=3, seed=0, oracle_rtol=1e-9)}
    failed = [r for r in rows.values() if r["status"] == "fail"]
    names = {r["check"] for r in failed}
    assert names == {
        "identity[G1+G2=g0*cosh(2r_d2)]", "identity[G2-G1=g0*cosh(2r_d2)]",
        "symplectic_metric[tms]", "symplectic_metric[bs]",
        # the configured point's one set is its own worst
        "config_point_metric[tms]", "config_point_metric[bs]",
    }, names
    assert all(math.isnan(r["max_error"]) for r in failed)
    assert not verify.all_passed(list(rows.values()))


@pytest.mark.parametrize("n_random", [0, 1, 5])
def test_verify_solves_only_the_configured_point(n_random, monkeypatch):
    """`verify` builds one photonic form and makes one `eigvals` call, for
    its configured point: the random sets' checks read no frequency."""
    calls = dict.fromkeys(("build_photonic_form", "eigvals"), 0)
    for module, name in ((oracle, "build_photonic_form"), (np.linalg, "eigvals")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    rows = verify.run_verification(validate(batch(boundary_set())), n_random=n_random, seed=0,
                                   oracle_rtol=1e-9)
    assert verify.all_passed(rows)
    assert calls == dict.fromkeys(calls, 1)


def test_conjugation_displacement_bookkeeping():
    """Scalar part: -(f_disp + f_prime) after two-mode squeezing, -f_disp
    after beam-splitter mixing (number conserving)."""
    row = COEFFICIENTS.index("const")
    vp = validate(batch(strong_drive_set()))
    s, c, _ = oracle_stages(vp, "tms")
    const = conjugate_coupling(vp, _final_map(vp, s, c))[row].item()
    assert_rel(const.real, -(point(s).f_disp + point(c).f_prime), 1e-12)
    assert abs(const.imag) < 1e-15

    vpb = validate(batch(laser_set()))
    sb, cb, _ = oracle_stages(vpb, "bs")
    constb = conjugate_coupling(vpb, _final_map(vpb, sb, cb))[row].item()
    assert_rel(constb.real, -point(sb).f_disp, 1e-12)


def test_frequency_invariance_global_phase(rng):
    drawn = []
    for _ in range(50):  # a set, then its shift
        drawn.append(random_branch_params(rng, "bs"))
        drawn.append(float(rng.uniform(0.0, 2.0 * math.pi)))
    vps, _ = stacked("bs", drawn[::2])
    shift = np.array(drawn[1::2])
    shifted = validate(
        vps.replace(phi_d1=vps.phi_d1 + shift, phi_d2=vps.phi_d2 + shift)
    )
    f0s = points(symplectic_frequencies(build_photonic_form(vps)))
    f1s = points(symplectic_frequencies(build_photonic_form(shifted)))
    for f0, f1 in zip(f0s, f1s):
        assert_rel(f0.nu1, f1.nu1, 1e-9, atol=1e-9)
        assert_rel(f0.nu2, f1.nu2, 1e-9, atol=1e-9)


def test_rwa_report_trivial_zero_dropped_weight():
    p = laser_set().replace(lambda1=0.0, lambda2=0.0)
    (coeff, _), _, _ = _report(p, "bs")
    ratio, detail = _dropped_term(p, "bs")
    assert detail.startswith("pair_squeezing: |coupling|=0,")  # the dropped coupling is 0.0
    assert ratio == 0.0
    assert coeff < 1e-12


def test_a_zero_gap_makes_the_dropped_ratio_infinite():
    """Opposite undriven detunings: the pair term beats at omega_sum = 0, so
    its ratio is inf, also with no coupling to drop."""
    p = laser_set().replace(delta1=2.0, delta2=-2.0, lambda1=0.0, lambda2=0.0)
    assert _dropped_term(p, "bs") == (math.inf, "pair_squeezing: |coupling|=0, gap=0")


def test_rwa_report_strong_drive_within_1pc():
    _, dev, freqs = _report(strong_drive_set(), "tms")
    assert freqs.stable
    assert all(d <= 0.01 for d in dev)
    ratio, detail = _dropped_term(strong_drive_set(), "tms")
    assert detail.startswith("coherent_hopping:")
    assert ratio < 0.1  # dropped coherent hopping vs its gap


def test_rwa_report_laser_set_within_1pc():
    _, dev, freqs = _report(laser_set(), "bs")
    assert freqs.stable
    assert all(d <= 0.01 for d in dev)
    ratio, detail = _dropped_term(laser_set(), "bs")
    assert detail.startswith("pair_squeezing:")
    assert ratio < 0.1  # dropped pair term vs its gap


def test_sigma_metric_definition():
    assert np.allclose(SIGMA, np.diag([1, 1, -1, -1]))
    # symplectic defect of the identity is zero
    assert symplectic_defect(np.eye(4, dtype=complex)) == 0.0


def test_the_oracle_computes_no_stage(monkeypatch):
    """Callers hand the oracle every stage: with the stage functions bound in
    `sqom.oracle` refusing, `analyze` and `verify` give the same rows."""
    config = validate(batch(laser_set()))

    def rows():
        analyzed = [analyze(p) for p in (laser_set(), boundary_set(), strong_drive_set())]
        checks = verify.run_verification(config, n_random=3, seed=0, oracle_rtol=1e-9)
        return repr((analyzed, checks))  # float repr round-trips, NaN included

    expected = rows()

    def refuse(*args):
        raise AssertionError("the oracle computed a pipeline stage")

    for name in ("stage1_transform", "tms_couplings", "bs_couplings"):
        monkeypatch.setattr(oracle, name, refuse)
    assert rows() == expected
