"""Treatment enactment: configuration rewrites and fault scheduling.

Instrumentation treatments are applied to the mesh configuration before a
run starts; fault treatments form a start-time-ordered schedule that the
simulator applies and reverts at the window boundaries. Both take
treatments from a spec that passed ``config.validate``, which checks every
treatment invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from .config import Fault, Instrumentation, MetricSamplingInterval, SueSpec, TracingSamplingRate


@dataclass(frozen=True)
class FaultSchedule:
    entries: tuple[Fault, ...]


def apply_instrumentation(sue: SueSpec, treatments: Iterable[Instrumentation]) -> SueSpec:
    """Return a new SueSpec with sampling intervals and trace settings
    replaced per the instrumentation treatments; the input is untouched."""
    points = list(sue.metric_points)
    trace = sue.trace_config
    for t in treatments:
        if isinstance(t, MetricSamplingInterval):
            index = [p.metric_name for p in points].index(t.metric)
            point = points[index]
            # Keep the aggregation-to-sampling multiplier so aggregated
            # windows still contain a whole number of samples.
            multiplier = point.aggregation_interval_ms // point.sampling_interval_ms
            points[index] = replace(
                point,
                sampling_interval_ms=t.interval_ms,
                aggregation_interval_ms=t.interval_ms * multiplier,
            )
        elif isinstance(t, TracingSamplingRate):
            trace = replace(trace, rate=t.rate)
        else:
            trace = replace(trace, strategy=t.strategy, rate=trace.rate if t.rate is None else t.rate)
    return replace(sue, metric_points=tuple(points), trace_config=trace)


def compile_schedule(faults: Iterable[Fault]) -> FaultSchedule:
    """Order fault treatments by start time."""
    return FaultSchedule(entries=tuple(sorted(faults, key=lambda f: f.start_ms)))
