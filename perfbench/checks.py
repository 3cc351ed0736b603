"""Correctness checks on the CSV files a workload pass writes.

Three checks, counted per pass:

* Reference digests. For the default seed the benchmark stores, per output
  table, a SHA-256 digest of every column (its cells in row order). A pass
  on the reference inputs must reproduce every stored column exactly; a
  column added later is allowed, a changed or missing one is not.
* Repeatability. Every pass of a run must write byte-identical files.
* Shape. Each output must have the data rows its call promises.

Cells are split on the first (n_columns - 1) commas, because the last column
of `verify` (free-text detail) may itself contain commas.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference_digests.json"


def _tables(calls) -> dict[str, list[Path]]:
    tables: dict[str, list[Path]] = {}
    for call in calls:
        tables.setdefault(call.table, []).append(call.out)
    return tables


def column_digests(paths: list[Path]) -> dict:
    """Per-column SHA-256 of the files of one table, rows concatenated."""
    header: list[str] | None = None
    hashers = []
    rows = 0
    for path in paths:
        with open(path, newline="") as fh:
            names = fh.readline().rstrip("\n").split(",")
            if header is None:
                header = names
                hashers = [hashlib.sha256() for _ in names]
            elif names != header:
                raise ValueError(f"{path.name}: header differs from the table's first file")
            for line in fh:
                cells = line.rstrip("\n").split(",", len(header) - 1)
                if len(cells) != len(header):
                    raise ValueError(f"{path.name}: row {rows + 1} has {len(cells)} cells")
                for hasher, cell in zip(hashers, cells):
                    hasher.update(cell.encode() + b"\n")
                rows += 1
    return {"rows": rows, "columns": {n: h.hexdigest() for n, h in zip(header, hashers)}}


def pass_digests(calls) -> dict[str, dict]:
    return {table: column_digests(paths) for table, paths in _tables(calls).items()}


def load_reference(workload: str) -> dict[str, dict]:
    return json.loads(REFERENCE.read_text())[workload]


def reference_mismatches(got: dict[str, dict], want: dict[str, dict]) -> list[str]:
    """Every stored column that `got` lacks or differs in; empty when correct."""
    problems = []
    for table, ref in want.items():
        if table not in got:
            problems.append(f"{table}: table missing")
            continue
        if got[table]["rows"] != ref["rows"]:
            problems.append(f"{table}: {got[table]['rows']} rows, reference {ref['rows']}")
        for column, digest in ref["columns"].items():
            if got[table]["columns"].get(column) != digest:
                problems.append(f"{table}.{column}: differs from the reference")
    return problems


def shape_problems(calls) -> list[str]:
    """Row counts that do not match what each call must emit."""
    problems = []
    for call in calls:
        with open(call.out, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows < 1 or (call.rows is not None and rows != call.rows):
            problems.append(f"{call.out.name}: {rows} data rows, expected {call.rows or '>= 1'}")
    return problems


def file_digest(calls) -> str:
    """One SHA-256 over every output of a pass, in call order."""
    hasher = hashlib.sha256()
    for call in calls:
        with open(call.out, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                hasher.update(block)
    return hasher.hexdigest()
