#!/usr/bin/env python3
"""Benchmark of the sqom command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
One client in one process drives `sqom.cli.main` in a closed loop, one
workload pass after another, with `--out` files in a work directory under
`perfbench/out/`. A pass is the workload's fixed list of CLI calls (see
workloads.py). Before the timed passes, one untimed pass on the default
seed's inputs is checked against the stored per-column digests; every timed
pass must then write the same bytes as the run's first (checks.py).

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: set-up time
of a fresh interpreter (median of probes spread over the run), parameter
points per second (median over the passes) and peak resident memory.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the fastest traced pass (tracing.py), with the tracing overhead.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; `failed / attempted` is `failed_frac`.

On a shared machine the speed of the whole CPU drifts by tens of per cent,
for seconds or minutes at a time (see README.md). So the throughput of a pass
is scaled to a reference machine speed (calibrate.py), by a fixed loop timed
every 10 ms during the pass, and a set-up time by the loop timed just before
and after the probe. The benchmark and its probes run on one core, so that
the loop measures the core they run on. The result file keeps the raw
figures too.
"""
from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 15
MIN_PASSES = 5  # per measured kind, whatever --seconds says
PROBE_TIMEOUT_S = 60


def import_cli():
    if not (SRC / "sqom" / "cli.py").is_file():
        raise SystemExit(f"error: no sqom sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sqom.cli

    return sqom.cli


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


class Run:
    """The passes of one benchmark run and the outcome of their checks."""

    def __init__(self, cli, name: str, seed: int, work: Path):
        self.cli = cli
        self.name = name
        self.reference = workloads.build(name, workloads.DEFAULT_SEED, work / "reference")
        self.seeded = workloads.build(name, seed, work / "run")
        self.attempted = 0
        self.problems: list[str] = []
        self._first_digest = None

    def _calls(self, workload, sampler=None) -> tuple[float, list[str]]:
        """Makes the calls of a pass. Returns their time, less the time the
        sampler's loops took during them, and the problems found."""
        elapsed, problems = 0.0, []
        for call in workload.calls:
            looped = sampler.loop_s if sampler else 0.0
            start = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv))
            except Exception:  # a crashing call fails its pass, not the benchmark
                traceback.print_exc()
                code = "an exception"
            elapsed += time.perf_counter() - start
            if sampler:
                elapsed -= sampler.loop_s - looped
            if code != 0:
                problems.append(f"`sqom {call.argv[0]}` exited with {code}")
        return elapsed, problems or checks.shape_problems(workload.calls)

    def _record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"attempt {self.attempted}: " + "; ".join(problems[:5]))

    def reference_pass(self) -> None:
        """Untimed warm-up on the default seed, checked against the stored digests."""
        _, problems = self._calls(self.reference)
        if not problems:
            got = checks.pass_digests(self.reference.calls)
            problems = checks.reference_mismatches(got, checks.load_reference(self.name))
        self._record(problems)

    def timed_pass(self, sampler=None) -> float:
        """One pass on the seeded inputs; returns parameter points per second."""
        gc.collect()
        elapsed, problems = self._calls(self.seeded, sampler)
        if not problems:
            digest = checks.file_digest(self.seeded.calls)
            if self._first_digest is None:
                self._first_digest = digest
            elif digest != self._first_digest:
                problems = ["output differs from the run's first timed pass"]
        self._record(problems)
        return self.seeded.points / elapsed

    def setup_probe(self) -> tuple[float, float]:
        """Set-up time of one fresh interpreter (see setup_probe.py), raw and
        scaled to the reference speed. Each probe is an attempt, failed when
        its warm-up call fails."""
        workload = self.seeded
        before = calibrate.slowdown_now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(workload.config),
             json.dumps(list(workload.warmup))],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if not proc.stdout.strip():
            raise RuntimeError(f"set-up probe crashed: {proc.stderr.strip()[-2000:]}")
        self._record([f"set-up probe: {proc.stderr.strip()[-500:]}"] if proc.returncode else [])
        setup = float(proc.stdout)
        return setup, setup * 2.0 / (before + calibrate.slowdown_now())

    @property
    def failed(self) -> int:
        return len(self.problems)


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    run.reference_pass()
    raw_rates, rates, raw_setups, setups = [], [], [], []

    def probe_setup():
        raw, scaled = run.setup_probe()
        raw_setups.append(raw)
        setups.append(scaled)

    start = time.perf_counter()
    while len(rates) < MIN_PASSES or time.perf_counter() < start + seconds:
        with calibrate.Sampler() as sampler:
            rate = run.timed_pass(sampler)
        raw_rates.append(rate)
        rates.append(rate * sampler.slowdown)
        # The machine's speed drifts, so the probes are spread over the run
        # rather than taken back to back.
        if (len(setups) < SETUP_PROBES
                and time.perf_counter() - start >= len(setups) * seconds / SETUP_PROBES):
            probe_setup()
    while len(setups) < SETUP_PROBES:
        probe_setup()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": statistics.median(rates),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    return metrics, {"points_per_s_by_pass": rates,
                     "raw_points_per_s_by_pass": raw_rates,
                     "raw_points_per_s_median": statistics.median(raw_rates),
                     "setup_s_by_probe": setups,
                     "raw_setup_s_by_probe": raw_setups,
                     "raw_setup_s_median": statistics.median(raw_setups)}


def _grid_field(path: Path, field: str) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    nx = 1 + max(int(r["x_index"]) for r in rows)
    ny = 1 + max(int(r["y_index"]) for r in rows)
    values = np.full((ny, nx), np.nan)
    for r in rows:
        values[int(r["y_index"]), int(r["x_index"])] = float(r[field] or "nan")
    return values


def crossing_cell_ratio(calls) -> float:
    """Share of grid cells the contoured level crosses (marching-squares case
    not 0 or 15, corners at or above the level counting as above), over all
    cells of every `contours` call of the pass; cells with a NaN corner never
    cross."""
    crossing = cells = 0
    for call in calls:
        if call.argv[0] != "contours":
            continue
        opts = dict(zip(call.argv[1::2], call.argv[2::2]))
        f = _grid_field(Path(opts["--grid"]), opts["--field"])
        corners = np.stack([f[:-1, :-1], f[:-1, 1:], f[1:, :-1], f[1:, 1:]])
        above = corners >= float(opts["--level"])
        finite = np.isfinite(corners).all(axis=0)
        crossing += int((finite & above.any(axis=0) & ~above.all(axis=0)).sum())
        cells += corners[0].size
    return crossing / cells if cells else 0.0


def emitted_ratio(calls, columns: tuple[str, ...]) -> float:
    """Pipeline columns emitted per row over the len(COLUMNS) every row
    computes, weighted by rows, over the sweep/grid/analyze outputs; grid
    index and axis columns are not counted."""
    emitted = computed = 0
    for call in calls:
        if call.argv[0] not in ("sweep", "grid", "analyze"):
            continue
        with open(call.out) as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = sum(1 for _ in fh)
        if call.argv[0] == "grid":
            header = header[4:]
        emitted += rows * len(set(header) & set(columns))
        computed += rows * len(columns)
    return emitted / computed if computed else 0.0


def per_layer(run: Run, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    run.reference_pass()
    tracer = tracing.Tracer()
    untraced, traced = [], []
    best_spans = None
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        untraced.append(run.timed_pass())
        tracer.install(pass_id=len(traced))
        try:
            traced.append(run.timed_pass())
        finally:
            tracer.uninstall()
        if traced[-1] == max(traced):
            best_spans = tracer.spans
    tracing.write_spans(spans_path, best_spans)

    calls = run.seeded.calls
    metrics = tracing.layer_figures(best_spans, [(c.argv[0], c.points) for c in calls])
    metrics["sweep.csv_bytes"] = sum(c.out.stat().st_size for c in calls)
    metrics["sweep.cols_emitted_ratio"] = emitted_ratio(calls, run.cli.COLUMNS)
    metrics["contours.crossing_cell_ratio"] = crossing_cell_ratio(calls)
    u, t = statistics.median(untraced), statistics.median(traced)
    metrics.update({
        "trace.points_per_s": t,
        "trace.untraced_points_per_s": u,
        "trace.overhead_frac": u / t - 1.0,
    })
    return metrics, {"traced_points_per_s_by_pass": traced,
                     "untraced_points_per_s_by_pass": untraced,
                     "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    # one core for the run and the set-up probes it starts (see calibrate.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{tag}_", dir=OUT))
    try:
        run = Run(cli, args.workload, args.seed, work)
        if args.trace:
            values, detail = per_layer(run, args.seconds, OUT / f"spans_{tag}.csv")
        else:
            values, detail = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         f"differ between {SPEC.name} and the benchmark")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    failed_frac = run.failed / run.attempted
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"result_{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "environment": env, "failed_frac": failed_frac, "problems": run.problems,
         **detail, **result}, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"points/pass={run.seeded.points} env={json.dumps(env)}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(f"failed_frac = {failed_frac:.6g} ({run.failed}/{run.attempted} attempts)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
