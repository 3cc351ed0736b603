"""Squeezing-engineered optomechanical couplings for an OPA-driven
coupled-cavity system: two-stage mode transformations, regime
classification, phonon-laser gain/threshold, and an exact-diagonalization
oracle that cross-checks every closed form.

`import sqom` loads no submodule: each public name is imported from its
module on first use (PEP 562), so a process pays only for what it runs.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "ConfigError NegativeParameter NonPositiveParameter SqomError "
                   "Stage1Unstable"),
        ("laser", "laser_point"),
        ("oracle", "build_photonic_form conjugate_coupling rwa_error_report "
                   "symplectic_frequencies"),
        ("params", "PhysicalParams PipelineOptions canonical_delta_phi parse_config "
                   "validate"),
        ("regime", "classify"),
        ("stage1", "squeeze_param stage1_transform"),
        ("sweep", "Axis GridSpec SweepSpec analyze evaluate_point run_grid run_sweep"),
        ("contours", "extract_contours"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def _deferred(namespace: dict, table: dict, name: str):
    """`name` from the submodule `table` maps it to, imported when first
    asked for and kept in `namespace`, a module's globals.

    A value `namespace` holds already wins, so a wrapper set on the module
    from outside (a tracer, a test's monkeypatch) is the one a caller gets.
    A name `table` lacks raises AttributeError, as a missing attribute does.
    """
    if name not in table:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    if name not in namespace:
        namespace[name] = getattr(importlib.import_module(f"{__name__}.{table[name]}"), name)
    return namespace[name]


def __getattr__(name: str):
    return _deferred(globals(), _EXPORTS, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
