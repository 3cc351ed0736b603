"""A fixed differential corpus: parameter points that reach the edges of the
input domain, and the per-column digests of what the evaluator makes of them.

`draw(seed, n)` takes n points from `random.Random(seed)`, whose stream
Python keeps the same across versions and platforms. The points cycle
through KINDS in a fixed order:

- generic: detunings log-uniform in 1e-2..1e4 of either sign, each drive a
  uniform fraction of its stage-1 bound |delta|/2, uniform phases,
  log-uniform hopping, g0 and rates;
- opposed: a generic point with delta2 = -delta1 and lambda2 a relative
  1e-6..1e-1 below lambda1, as in the boundary and strong-drive reference
  sets, where the squeezed frequencies nearly cancel and the
  two-mode-squeezing branch applies;
- boundary: a generic point with one or both drives within a relative
  1e-15..1e-2 of |delta| = 2 lambda;
- no_hop: a generic point with j_hop = 0;
- tiny_g0: a generic point with g0 zero or subnormal;
- invalid: a generic point with one of `params.validate`'s checks broken;
- unpaired: both drives within a relative 1e-14..1e-12 of the boundary at
  equal phases, where the exact eigenvalues of many points cannot be paired
  into +/- frequencies (NumericalDegeneracy).

`column_digests` is the per-column SHA-256 of a table's CSV, in the format
of `perfbench.checks.column_digests`: each cell's text and a newline, row
after row. `verify_digests` is the SHA-256 of `sqom verify`'s stdout on the
laser and boundary reference sets. `python tests/corpus.py` prints every
digest `test_corpus.py` pins, as JSON.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys

from conftest import CONFIGS

from sqom.cli import main
from sqom.elementwise import stack
from sqom.params import PhysicalParams, PipelineOptions
from sqom.sweep import COLUMNS, ORACLE_COLUMNS, Table, _evaluate, write_csv

KINDS = ("generic", "opposed", "boundary", "no_hop", "tiny_g0", "invalid", "unpaired")

SEED = 2017
SIZE = 5005  # 715 points of each kind
OPTIONS = {
    "default": PipelineOptions(),
    "custom": PipelineOptions(f1_hi=3.0, f1_lo=0.3, n_plus=2.5, n_minus=0.5,
                              resonance_floor=1e-3),
}

# a field set to a value that fails one check of `params.validate`
_BROKEN = (
    ("kappa", 0.0), ("kappa", -0.05), ("gamma_m", math.inf), ("omega_m", 2.0),
    ("lambda1", -1.0), ("j_hop", -0.1), ("g0", math.nan), ("delta2", math.inf),
    ("phi_d1", math.nan), ("lambda2", "over"),
)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _generic(rng: random.Random) -> dict:
    d1, d2 = (rng.choice((-1.0, 1.0)) * _log_uniform(rng, -2.0, 4.0) for _ in range(2))
    return {
        "delta1": d1,
        "delta2": d2,
        "lambda1": 0.5 * abs(d1) * rng.random(),
        "lambda2": 0.5 * abs(d2) * rng.random(),
        "j_hop": _log_uniform(rng, -3.0, 2.0),
        "g0": _log_uniform(rng, -6.0, -1.0),
        "kappa": _log_uniform(rng, -3.0, 0.0),
        "gamma_m": _log_uniform(rng, -4.0, -1.0),
        "phi_d1": rng.uniform(0.0, 2.0 * math.pi),
        "phi_d2": rng.uniform(0.0, 2.0 * math.pi),
    }


def _near_boundary(p: dict, j: int, lo: float, hi: float, rng: random.Random) -> None:
    """Drive cavity j within a relative 10**lo..10**hi of |delta_j| = 2 lambda_j."""
    p[f"lambda{j}"] = 0.5 * abs(p[f"delta{j}"]) * (1.0 - _log_uniform(rng, lo, hi))


def _point(kind: str, rng: random.Random) -> dict:
    p = _generic(rng)
    if kind == "opposed":
        p["delta2"] = -p["delta1"]
        p["lambda2"] = p["lambda1"] * (1.0 - _log_uniform(rng, -6.0, -1.0))
    elif kind == "boundary":
        for j in rng.choice(((1,), (2,), (1, 2))):
            _near_boundary(p, j, -15.0, -2.0, rng)
    elif kind == "no_hop":
        p["j_hop"] = 0.0
    elif kind == "tiny_g0":
        p["g0"] = rng.choice((0.0, 5e-324, _log_uniform(rng, -323.0, -308.0)))
    elif kind == "invalid":
        field, value = rng.choice(_BROKEN)
        # "over": a drive past the stage-1 bound (Stage1Unstable)
        p[field] = 0.5 * abs(p["delta2"]) * (1.0 + rng.random()) if value == "over" else value
    elif kind == "unpaired":
        for j in (1, 2):
            _near_boundary(p, j, -14.0, -12.0, rng)
        p["phi_d2"] = p["phi_d1"]
        p["j_hop"] = rng.uniform(0.1, 1.0)
    return p


def draw(seed: int = SEED, n: int = SIZE) -> PhysicalParams:
    """n corpus points as one batch, the kinds in turn."""
    rng = random.Random(seed)
    return stack(PhysicalParams, [PhysicalParams(**_point(KINDS[i % len(KINDS)], rng))
                                  for i in range(n)])


def column_digests(columns: dict) -> dict[str, str]:
    """Per column of `columns` (name -> array), the SHA-256 of its CSV cells,
    each followed by a newline."""
    buf = io.StringIO()
    write_csv(Table(columns), buf, header=False)
    cells = zip(*(line.split(",") for line in buf.getvalue().splitlines()))
    return {name: hashlib.sha256("".join(c + "\n" for c in column).encode()).hexdigest()
            for name, column in zip(columns, cells)}


def evaluated_digests(options: PipelineOptions) -> dict[str, str]:
    """The per-column digests of the corpus under `options`, every column."""
    return column_digests(_evaluate(draw(), options, COLUMNS + ORACLE_COLUMNS))


# case -> (reference set, argv after --config PATH)
VERIFY_CASES = {
    f"{name}_seed{seed}": (name, ("--random", "30", "--seed", str(seed)))
    for name in ("laser", "boundary") for seed in range(3)
}


def verify_digests() -> dict[str, list]:
    """Per case of VERIFY_CASES, `sqom verify`'s exit code and the SHA-256
    of its stdout on configs/<reference set>.json."""
    found = {}
    for case, (name, argv) in VERIFY_CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--config", str(CONFIGS / f"{name}.json"), *argv])
        found[case] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    return found


if __name__ == "__main__":
    json.dump({"evaluate": {name: evaluated_digests(opts) for name, opts in OPTIONS.items()},
               "verify": verify_digests()}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
