"""Seeded inputs of the three benchmark workloads.

A workload pass is a fixed list of `sqom` CLI calls. `build` writes the
config files a pass reads into a work directory and returns the calls with
their arguments. The default seed reproduces the paper's three reference
parameter sets and windows exactly (the ones `scripts/generate_datasets.py`
and the acceptance tests use); any other seed shifts the windows and the
`verify --seed`, keeping the size and the mix of per-point outcomes close to
the reference so that throughput stays comparable between seeds.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
TWO_PI = 2.0 * math.pi

# The paper's reference parameter sets (units of omega_m).
LASER = {
    "delta1": 20.0, "delta2": 100.0, "lambda1": 9.94, "lambda2": 49.99,
    "j_hop": 0.1, "g0": 0.002, "kappa": 0.05, "gamma_m": 0.001,
}
BOUNDARY = {
    "delta1": -400.0, "delta2": 400.0, "lambda1": 198.305, "lambda2": 198.0,
    "j_hop": 0.3, "g0": 0.005, "kappa": 0.05, "gamma_m": 0.001,
}
STRONG_DRIVE = {
    "delta1": -4000.0, "delta2": 4000.0, "lambda1": 1997.96, "lambda2": 1997.0,
    "j_hop": 0.95, "g0": 0.005, "kappa": 0.05, "gamma_m": 0.001,
}

SWEEP_STEPS = 10_000   # ROADMAP size of the delta_phi sweep
GRID_STEPS = 109       # per axis, as boundary_grid.csv
GRID_LAMBDA1 = (197.2, 199.9)
GRID_LAMBDA1_SHIFT = 0.02  # keeps lambda1 < 200 = |delta|/2 and the failure mix within ~2%
VERIFY_RANDOM = 200
ANALYZE_PHASES = 8     # per reference set


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a pass.

    `table` names the output the correctness check digests; calls sharing a
    table have their rows concatenated in call order. `points` is the number
    of parameter points the call completes and `rows` the data rows its
    output must have (None when the count depends on the data).
    """

    argv: tuple[str, ...]
    out: Path
    table: str
    points: int
    rows: int | None


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    config: Path             # the config the set-up probe loads
    warmup: tuple[str, ...]  # the set-up probe's one warm-up call

    @property
    def points(self) -> int:
        return sum(c.points for c in self.calls)


def _write_config(path: Path, params: dict) -> Path:
    path.write_text(json.dumps(params, sort_keys=True))
    return path


def _phase_sweep(rng: random.Random | None, work: Path) -> Workload:
    config = _write_config(work / "laser.json", LASER)
    # always one full period, so the unstable beam-splitter rows stay in
    start = 0.0 if rng is None else rng.uniform(0.0, TWO_PI)
    out = work / "sweep.csv"
    argv = ("sweep", "--config", str(config), "--axis", "delta_phi",
            "--from", repr(start), "--to", repr(start + TWO_PI),
            "--steps", str(SWEEP_STEPS), "--out", str(out))
    warmup = argv[:-3] + ("2", "--out", str(work / "warmup.csv"))
    return Workload("phase_sweep", (Call(argv, out, "sweep", SWEEP_STEPS, SWEEP_STEPS),),
                    config, warmup)


def _regime_grid(rng: random.Random | None, work: Path) -> Workload:
    config = _write_config(work / "boundary.json", BOUNDARY)
    lo, hi = GRID_LAMBDA1
    shift, phase = (0.0, 0.0) if rng is None else (
        rng.uniform(-GRID_LAMBDA1_SHIFT, GRID_LAMBDA1_SHIFT), rng.uniform(0.0, TWO_PI))
    grid = work / "grid.csv"

    def grid_argv(steps: int, out: Path) -> tuple[str, ...]:
        return ("grid", "--config", str(config),
                "--x-axis", "lambda1", "--x-from", repr(lo + shift), "--x-to", repr(hi + shift),
                "--x-steps", str(steps),
                "--y-axis", "delta_phi", "--y-from", repr(phase), "--y-to", repr(phase + TWO_PI),
                "--y-steps", str(steps),
                "--outputs", "f1,f2,branch", "--out", str(out))

    points = GRID_STEPS * GRID_STEPS
    calls = [Call(grid_argv(GRID_STEPS, grid), grid, "grid", points, points)]
    for field, level in (("f1", "10"), ("f2", "0")):
        out = work / f"contours_{field}.csv"
        calls.append(Call(("contours", "--grid", str(grid), "--field", field,
                           "--level", level, "--out", str(out)),
                          out, f"contours_{field}", 0, None))
    return Workload("regime_grid", tuple(calls), config,
                    grid_argv(2, work / "warmup.csv"))


def _oracle_check(rng: random.Random | None, work: Path) -> Workload:
    config = _write_config(work / "laser.json", LASER)
    seed = 0 if rng is None else rng.randrange(1, 2**31)
    out = work / "verify.csv"
    verify = ("verify", "--config", str(config), "--random", str(VERIFY_RANDOM),
              "--seed", str(seed), "--out", str(out))
    # one random set checked = one point: identities and oracle, per branch
    calls = [Call(verify, out, "verify", 4 * VERIFY_RANDOM, None)]
    offset = 0.0 if rng is None else rng.uniform(0.0, TWO_PI / ANALYZE_PHASES)
    for label, params in (("laser", LASER), ("boundary", BOUNDARY), ("strong", STRONG_DRIVE)):
        for k in range(ANALYZE_PHASES):
            point = dict(params, phi_d1=offset + k * TWO_PI / ANALYZE_PHASES)
            cfg = _write_config(work / f"analyze_{label}_{k}.json", point)
            out = work / f"analyze_{label}_{k}.csv"
            calls.append(Call(("analyze", "--config", str(cfg), "--out", str(out)),
                              out, "analyze", 1, 1))
    warmup = ("verify", "--config", str(config), "--random", "1",
              "--seed", str(seed), "--out", str(work / "warmup.csv"))
    return Workload("oracle_check", tuple(calls), config, warmup)


WORKLOADS = ("phase_sweep", "regime_grid", "oracle_check")


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `work`."""
    work.mkdir(parents=True, exist_ok=True)
    rng = None if seed == DEFAULT_SEED else random.Random(f"{name}:{seed}")
    if name == "phase_sweep":
        return _phase_sweep(rng, work)
    if name == "regime_grid":
        return _regime_grid(rng, work)
    if name == "oracle_check":
        return _oracle_check(rng, work)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
