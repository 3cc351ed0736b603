"""Squeezing-engineered optomechanical couplings for an OPA-driven
coupled-cavity system: two-stage mode transformations, regime
classification, phonon-laser gain/threshold, and an exact-diagonalization
oracle that cross-checks every closed form.
"""

from .errors import (
    ConfigError,
    NegativeParameter,
    NonPositiveParameter,
    SqomError,
    Stage1Unstable,
    TmsUnstable,
    ZeroCoupling,
)
from .laser import (
    LaserInput,
    laser_point,
    mechanical_gain,
    phonon_number,
    threshold,
)
from .oracle import (
    build_photonic_form,
    conjugate_coupling,
    rwa_error_report,
    symplectic_frequencies,
)
from .params import (
    PhysicalParams,
    canonical_delta_phi,
    parse_config,
    validate,
)
from .regime import Branch, classify
from .stage1 import squeeze_param, stage1_transform
from .sweep import (
    GridSpec,
    PipelineOptions,
    SweepSpec,
    analyze,
    evaluate_point,
    run_grid,
    run_sweep,
)
from .contours import extract_contours

__all__ = [
    "Branch",
    "ConfigError",
    "GridSpec",
    "LaserInput",
    "NegativeParameter",
    "NonPositiveParameter",
    "PhysicalParams",
    "PipelineOptions",
    "SqomError",
    "Stage1Unstable",
    "SweepSpec",
    "TmsUnstable",
    "ZeroCoupling",
    "analyze",
    "build_photonic_form",
    "canonical_delta_phi",
    "classify",
    "conjugate_coupling",
    "evaluate_point",
    "extract_contours",
    "laser_point",
    "mechanical_gain",
    "parse_config",
    "phonon_number",
    "run_grid",
    "run_sweep",
    "rwa_error_report",
    "squeeze_param",
    "stage1_transform",
    "symplectic_frequencies",
    "threshold",
    "validate",
]

__version__ = "0.1.0"
