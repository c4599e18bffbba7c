"""Observability experiment engine for a simulated microservice mesh.

Inject faults and instrumentation changes into a deterministic simulation,
collect the resulting metrics and traces, quantify how visible each fault
is to a detection mechanism, and account the CPU cost of the observability
configuration.
"""

from .config import (
    ExperimentFormatError,
    ExperimentSpec,
    Violation,
    apply_instrumentation,
    parse_experiment,
    parse_experiment_file,
    render_experiment,
    validate,
)
from .costs import CostReport, account, overhead
from .detection import (
    DetectionOutcome,
    InsufficientDataError,
    LabeledDataset,
    build_dataset,
    register_mechanism,
)
from .runner import ObservabilityReport, compare_docs, run_experiment
from .scoring import Ratio, VisibilityMatrix
from .simulator import SimState
from .telemetry import TelemetryBatch, materialize_response

__version__ = "0.1.0"
