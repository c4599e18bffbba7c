"""Observability experiment engine for a simulated microservice mesh.

Inject faults and instrumentation changes into a deterministic simulation,
collect the resulting metrics and traces, quantify how visible each fault
is to a detection mechanism, and account the CPU cost of the observability
configuration.

``import oxn`` loads only the experiment format (``oxn.config``), so parsing
and validating a file does not load numpy. Every other name in ``__all__`` is
imported from its module, with the simulation stack, when it is first read.
"""

import importlib

from .config import (ExperimentFormatError, ExperimentSpec, Violation, apply_instrumentation, parse_experiment,
                     parse_experiment_file, register_mechanism, render_experiment, validate)

# The module that defines each name read on first use.
_LAZY = {
    name: module
    for module, names in {
        "costs": ("CostReport", "account", "overhead"),
        "detection": ("DetectionOutcome", "InsufficientDataError", "LabeledDataset", "build_dataset"),
        "report": ("ObservabilityReport", "Ratio", "VisibilityMatrix", "compare_docs"),
        "runner": ("run_experiment",),
        "simulator": ("SimState",),
        "telemetry": ("TelemetryBatch", "materialize_response"),
    }.items()
    for name in names
}

__all__ = ["ExperimentFormatError", "ExperimentSpec", "Violation", "apply_instrumentation", "parse_experiment",
           "parse_experiment_file", "register_mechanism", "render_experiment", "validate", *_LAZY]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value
