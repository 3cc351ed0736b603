"""Byte-identity of the evaluator and of `verify` on the differential corpus.

`corpus_digests.json` holds, per pipeline options of `corpus.OPTIONS`, the
SHA-256 of each column of `_evaluate(corpus.draw(), options, COLUMNS +
ORACLE_COLUMNS)`, and per case of `corpus.VERIFY_CASES` the exit code and
the stdout digest of `sqom verify --random 30`. The digests hold for the
libm and the LAPACK (numpy's bundled OpenBLAS, whose kernels depend on the
CPU) they were captured with; on another build a last digit may move. A
change that moves a column names it in the failure. Recapture only for a
deliberate output change, say which columns move and why, and write the new
file with `python tests/corpus.py > tests/corpus_digests.json`.
"""
import collections
import json
from pathlib import Path

import numpy as np
import pytest

import corpus
from sqom.sweep import COLUMNS, ORACLE_COLUMNS, _evaluate

PINS = json.loads((Path(__file__).parent / "corpus_digests.json").read_text())


@pytest.mark.parametrize("options", sorted(corpus.OPTIONS))
def test_every_column_of_the_corpus_keeps_its_digest(options):
    got = corpus.evaluated_digests(corpus.OPTIONS[options])
    want = PINS["evaluate"][options]
    assert list(got) == list(COLUMNS + ORACLE_COLUMNS)
    moved = sorted(name for name in want if got.get(name) != want[name])
    assert not moved, f"columns that moved under {options} options: {moved}"


def test_verify_keeps_its_stdout_on_the_reference_sets():
    assert corpus.verify_digests() == PINS["verify"]


def test_the_corpus_reaches_every_outcome():
    """Each kind of point lands where it is meant to, so a narrowed draw
    shows here and not as a pin that silently covers less."""
    table = _evaluate(corpus.draw(), corpus.OPTIONS["default"], ["branch", "tms_error",
                                                                 "laser_error", "oracle_stable"])
    kinds = np.resize(np.array(corpus.KINDS), len(table["error"]))
    count = collections.Counter
    assert set(count(table["error"][kinds == "invalid"])) == {
        "ConfigError", "NegativeParameter", "NonPositiveParameter", "Stage1Unstable"}
    assert set(table["error"][kinds != "invalid"]) == {""}
    assert count(table["branch"][kinds == "opposed"])["tms"] > 50
    assert {"tms", "bs", "intermediate"} <= set(table["branch"])
    assert {"", "TmsUnstable"} == set(table["tms_error"][kinds != "invalid"])
    assert count(table["laser_error"][kinds == "no_hop"])["ZeroCoupling"] > 500
    assert count(table["laser_error"][kinds == "tiny_g0"])["ZeroCoupling"] > 100
    unpaired = [stable is None for stable in table["oracle_stable"][kinds == "unpaired"]]
    assert sum(unpaired) > 10
