"""Spans around the layer functions of `sqom`, installed from outside.

The layers are the package's modules. Each public function a layer exposes
is wrapped where the calling module binds it (for example
`sqom.sweep.stage1_transform` or `sqom.cli.extract_contours`), so the wrapper
sees exactly the calls the program makes. A span records its layer, start,
end, parent span, pass id and whether the call raised. The spans of a pass
stay in memory; the benchmark keeps those of its fastest traced pass, folds
them into per-layer figures and writes them out at the end.

A layer's self time is the span's duration minus the time its child spans
cover. Wrapper cost lands in the self time of the calling layer, so the
traced run's self times are read against each other, not against the
untraced throughput; the untraced/traced ratio is reported as the overhead.
"""
from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, layer)
LAYER_FUNCTIONS = (
    ("sqom.cli", "main", "cli"),
    ("sqom.cli", "run_sweep", "sweep.axis"),
    ("sqom.cli", "run_grid", "sweep.axis"),
    ("sqom.cli", "sweep_csv_rows", "sweep.axis"),
    ("sqom.cli", "grid_csv_rows", "sweep.axis"),
    ("sqom.cli", "write_csv", "sweep.csv"),
    ("sqom.cli", "analyze", "sweep.analyze"),
    ("sqom.cli", "extract_contours", "contours"),
    ("sqom.cli", "run_verification", "verify"),
    ("sqom.sweep", "evaluate_point", "sweep.row"),
    ("sqom.sweep", "validate", "params"),
    ("sqom.sweep", "stage1_transform", "stage1"),
    ("sqom.sweep", "classify", "regime"),
    ("sqom.sweep", "tms_couplings", "branch_tms"),
    ("sqom.sweep", "bs_couplings", "branch_bs"),
    ("sqom.sweep", "rwa_validity_tms", "validity"),
    ("sqom.sweep", "rwa_validity_bs", "validity"),
    ("sqom.sweep", "laser_point", "laser"),
    # cmd_verify imports validate from sqom.params at call time
    ("sqom.params", "validate", "params"),
    ("sqom.verify", "validate", "params"),
    ("sqom.verify", "stage1_transform", "stage1"),
    ("sqom.verify", "tms_couplings", "branch_tms"),
    ("sqom.verify", "bs_couplings", "branch_bs"),
    ("sqom.verify", "random_valid_params", "verify.sample"),
    ("sqom.verify", "random_branch_params", "verify.sample"),
    # sweep and verify call these through the module (oracle.rwa_error_report)
    ("sqom.oracle", "rwa_error_report", "oracle.report"),
    ("sqom.oracle", "build_photonic_form", "oracle.form"),
    ("sqom.oracle", "symplectic_frequencies", "oracle.symplectic"),
    ("sqom.oracle", "stage1_transform", "stage1"),
    ("sqom.oracle", "tms_couplings", "branch_tms"),
    ("sqom.oracle", "bs_couplings", "branch_bs"),
)

# span fields
LAYER, START, END, PARENT, PASS, RAISED = range(6)


class Tracer:
    """Installs the span wrappers for one pass at a time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.pass_id = 0

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.pass_id, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    def install(self, pass_id: int) -> None:
        self.spans = []
        self.pass_id = pass_id
        for module_name, attr, layer in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(layer, original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _ancestor(spans, index: int, layer: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][LAYER] == layer:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_figures(spans, roots: list[tuple[str, int]]) -> dict[str, float]:
    """Per-layer figures of one pass.

    `roots` gives, for each CLI call of the pass in order, its subcommand and
    the parameter points it completes.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    errors: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for span, own in zip(spans, selfs):
        calls[span[LAYER]] += 1
        errors[span[LAYER]] += span[RAISED]
        self_s[span[LAYER]] += own

    reports = calls["oracle.report"]
    in_report = Counter(
        spans[i][LAYER] for i in range(len(spans))
        if spans[i][LAYER] in ("oracle.form", "branch_tms", "branch_bs")
        and _ancestor(spans, i, "oracle.report")
    )

    # validate calls per point, over the calls that evaluate pipeline rows
    root_ids = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    validates = points = 0
    for (command, n_points), root in zip(roots, root_ids):
        if command in ("sweep", "grid", "analyze"):
            end = next((j for j in root_ids if j > root), len(spans))
            validates += sum(1 for s in spans[root:end] if s[LAYER] == "params")
            points += n_points

    figures = {
        f"{layer}.{kind}": value
        for layer in ("cli", "params", "stage1", "regime", "branch_tms", "branch_bs",
                      "validity", "laser", "contours")
        for kind, value in (("calls", calls[layer]), ("self_s", self_s[layer]))
    }
    figures.update({
        "params.errors": errors["params"],
        "params.validate_per_point": validates / points if points else 0.0,
        "branch_tms.errors": errors["branch_tms"],
        "laser.errors": errors["laser"],
        "sweep.row_calls": calls["sweep.row"],
        "sweep.row_self_s": self_s["sweep.row"],
        "sweep.axis_self_s": self_s["sweep.axis"],
        "sweep.csv_self_s": self_s["sweep.csv"],
        "sweep.analyze_self_s": self_s["sweep.analyze"],
        "oracle.calls": reports,
        "oracle.self_s": sum(self_s[k] for k in ("oracle.report", "oracle.form",
                                                 "oracle.symplectic")),
        "oracle.symplectic_self_s": self_s["oracle.symplectic"],
        "oracle.form_per_report": in_report["oracle.form"] / reports if reports else 0.0,
        "oracle.couplings_per_report": (
            (in_report["branch_tms"] + in_report["branch_bs"]) / reports if reports else 0.0),
        "verify.self_s": self_s["verify"],
        "verify.sample_self_s": self_s["verify.sample"],
    })
    return figures


def write_spans(path, spans) -> None:
    """One CSV row per span, times in seconds from the first span's start."""
    t0 = spans[0][START] if spans else 0.0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "pass", "layer", "parent", "start_s", "end_s", "self_s", "raised"])
        for i, (span, own) in enumerate(zip(spans, self_times(spans))):
            out.writerow([i, span[PASS], span[LAYER], span[PARENT], f"{span[START] - t0:.9f}",
                          f"{span[END] - t0:.9f}", f"{own:.9f}", int(span[RAISED])])
