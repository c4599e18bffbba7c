"""Parse, validate and render the declarative experiment file.

An experiment file is a YAML document with top-level keys
``name, seed, repetitions, sue, workload, treatments, responses, detection``
plus an optional ``cost_model``. Durations are written in seconds (decimal),
point latencies and service times in milliseconds; everything is normalized
to integer milliseconds internally so runs are exactly reproducible.

Every mapping in the file is one frozen dataclass below, and every treatment
kind is its own dataclass. One field table per class, built from
``dataclasses.fields`` and the field metadata, drives both parsing and
canonical rendering. Parsing checks structure and types only; every range
and cross-reference invariant is checked once, in ``validate``.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Callable, ClassVar, Iterable, Mapping, NamedTuple, get_args, get_origin, get_type_hints

import yaml

METRIC_KINDS = frozenset({"cpu_gauge", "request_counter", "custom_gauge"})
TRACE_STRATEGIES = frozenset({"always_on", "probabilistic"})
RESPONSE_KINDS = frozenset({"metric", "trace_duration"})

SYSTEM_TARGET = "system"

# Field metadata. SECONDS: held as integer milliseconds in ``<stem>_ms`` and
# written in the file as decimal seconds under ``<stem>_s``. FROM_KIND: set by
# the treatment kind, never written in the file.
SECONDS = {"seconds": True}
FROM_KIND = {"from_kind": True}


class ExperimentFormatError(ValueError):
    """Raised when the experiment file is structurally malformed."""


@dataclass(frozen=True)
class Violation:
    """One failed invariant, naming the offending field."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


@dataclass(frozen=True)
class LognormalSpec:
    """Lognormal distribution given as (median ms, sigma); sigma=0 degenerates
    to a constant, which unit tests rely on."""

    median_ms: float
    sigma: float


@dataclass(frozen=True)
class ServiceSpec:
    id: str
    workers: int
    service_time: LognormalSpec
    cpu_per_request_ms: float
    error_response_time_ms: int = 300


@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    calls_per_request: float
    latency_ms: int


@dataclass(frozen=True)
class MetricPointSpec:
    metric_name: str
    kind: str
    target: str
    sampling_interval_ms: int = field(metadata=SECONDS)
    # Optional in the file, where it defaults to the sampling interval.
    aggregation_interval_ms: int = field(
        metadata={**SECONDS, "default_from": "sampling_interval_ms"}
    )
    # How per-service readings combine when target is "system".
    system_aggregation: str = "sum"


@dataclass(frozen=True)
class TraceConfigSpec:
    strategy: str = "probabilistic"
    rate: float = 1.0


@dataclass(frozen=True)
class SueSpec:
    services: tuple[ServiceSpec, ...]
    edges: tuple[CallEdge, ...] = ()
    metric_points: tuple[MetricPointSpec, ...] = ()
    trace_config: TraceConfigSpec = TraceConfigSpec()

    def service_ids(self) -> frozenset[str]:
        return frozenset(s.id for s in self.services)

    def metric_names(self) -> frozenset[str]:
        return frozenset(p.metric_name for p in self.metric_points)

    def metric_point(self, name: str) -> MetricPointSpec:
        for point in self.metric_points:
            if point.metric_name == name:
                return point
        raise KeyError(name)


@dataclass(frozen=True)
class WorkloadSpec:
    users: int
    duration_ms: int = field(metadata=SECONDS)
    think_time: LognormalSpec = LognormalSpec(1000.0, 0.25)
    ramp_up_ms: int = field(default=0, metadata=SECONDS)


@dataclass(frozen=True)
class ResponseVariableSpec:
    name: str
    kind: str
    source: str


@dataclass(frozen=True)
class DetectionSpec:
    mechanism: str = "logistic_regression"
    alpha: float = 0.7
    split_ratio: float = 0.7
    feature_window: int = 3
    l2: float = 1e-4
    tol: float = 1e-6
    alert_k: float = 3.0


@dataclass(frozen=True)
class CostModelSpec:
    """Linear CPU-cost coefficients, all in CPU-ms per counted unit."""

    per_metric_event_collector_ms: float = 1000.0
    per_metric_event_metrics_backend_ms: float = 300.0
    per_span_collector_ms: float = 2.0
    per_span_trace_backend_ms: float = 1.0
    per_instrumentation_call_ms: float = 0.02


# ---------------------------------------------------------------------------
# Treatments: one dataclass per kind. A fault dataclass is also the effect the
# simulator applies at ``start_ms`` and reverts at ``end_ms``.


@dataclass(frozen=True)
class Fault:
    """Fields every fault kind shares: a window on one target service."""

    name: str
    target: str
    start_ms: int = field(metadata=SECONDS)
    end_ms: int = field(metadata=SECONDS)


@dataclass(frozen=True)
class Pause(Fault):
    """Suspend all processing at the target; arrivals queue up."""

    kind: ClassVar[str] = "pause"


@dataclass(frozen=True)
class Kill(Fault):
    """Crash the target: in-flight work fails instantly, new calls fail after
    the target's error response time, nothing is emitted."""

    kind: ClassVar[str] = "kill"


@dataclass(frozen=True)
class NetworkDelay(Fault):
    """One uniform latency add-on per hop on the target's inbound edges."""

    kind: ClassVar[str] = "network_delay"
    delay_min_ms: int
    delay_max_ms: int


@dataclass(frozen=True)
class PacketLoss(Fault):
    """Geometric retransmissions on the target's inbound edges. With
    ``corrupt`` (kind ``packet_corruption``) each hop also draws, with the
    same probability, a failure that the callee rejects unprocessed."""

    probability: float
    corrupt: bool = field(default=False, metadata=FROM_KIND)

    @property
    def kind(self) -> str:
        return "packet_corruption" if self.corrupt else "packet_loss"


@dataclass(frozen=True)
class Stress(Fault):
    """Inflate the target's service times and CPU per request by ``factor``."""

    kind: ClassVar[str] = "stress"
    factor: float


@dataclass(frozen=True)
class MetricSamplingInterval:
    """Set one metric point's sampling interval."""

    kind: ClassVar[str] = "metric_sampling_interval"
    name: str
    metric: str
    interval_ms: int = field(metadata=SECONDS)


@dataclass(frozen=True)
class TracingSamplingRate:
    kind: ClassVar[str] = "tracing_sampling_rate"
    name: str
    rate: float


@dataclass(frozen=True)
class TracingSamplingStrategy:
    """Set the trace sampling strategy, and the rate when one is given."""

    kind: ClassVar[str] = "tracing_sampling_strategy"
    name: str
    strategy: str
    rate: float | None = None


Instrumentation = MetricSamplingInterval | TracingSamplingRate | TracingSamplingStrategy
Treatment = Pause | Kill | NetworkDelay | PacketLoss | Stress | Instrumentation

# kind -> (dataclass, the fields the kind itself sets)
TREATMENT_KINDS: dict[str, tuple[type, dict[str, Any]]] = {
    "pause": (Pause, {}),
    "kill": (Kill, {}),
    "network_delay": (NetworkDelay, {}),
    "packet_loss": (PacketLoss, {}),
    "packet_corruption": (PacketLoss, {"corrupt": True}),
    "stress": (Stress, {}),
    "metric_sampling_interval": (MetricSamplingInterval, {}),
    "tracing_sampling_rate": (TracingSamplingRate, {}),
    "tracing_sampling_strategy": (TracingSamplingStrategy, {}),
}


def apply_instrumentation(sue: SueSpec, treatments: Iterable[Instrumentation]) -> SueSpec:
    """Return a new SueSpec with sampling intervals and trace settings
    replaced per the instrumentation treatments (which passed ``validate``);
    the input is untouched."""
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


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    # Field order is the canonical rendering order.
    name: str
    seed: int
    repetitions: int = 1
    sue: SueSpec
    workload: WorkloadSpec
    treatments: tuple[Treatment, ...] = ()
    responses: tuple[ResponseVariableSpec, ...]
    detection: DetectionSpec = DetectionSpec()
    cost_model: CostModelSpec = CostModelSpec()

    def fault_treatments(self) -> tuple[Fault, ...]:
        return tuple(t for t in self.treatments if isinstance(t, Fault))

    def instrumentation_treatments(self) -> tuple[Instrumentation, ...]:
        return tuple(t for t in self.treatments if not isinstance(t, Fault))


# ---------------------------------------------------------------------------
# The field table


class FileField(NamedTuple):
    """How one dataclass field is read from and written to the file."""

    name: str  # dataclass attribute
    key: str  # YAML key
    required: bool
    default_from: str | None  # attribute whose value a missing key copies
    parse: Callable[[Any, str], Any]  # (value, field path) -> attribute value
    render: Callable[[Any], Any]  # attribute value -> YAML value


@functools.cache
def field_table(cls: type) -> tuple[FileField, ...]:
    """The file fields of a spec dataclass in canonical order, resolved once
    per class."""
    hints = get_type_hints(cls)
    table = []
    for f in fields(cls):
        if f.metadata.get("from_kind"):
            continue
        if f.metadata.get("seconds"):
            key, parse, render = f.name.removesuffix("_ms") + "_s", _seconds_to_ms, _ms_to_s
        else:
            key = f.name
            parse, render = _codec(hints[f.name])
        default_from = f.metadata.get("default_from")
        required = f.default is MISSING and f.default_factory is MISSING and default_from is None
        table.append(FileField(f.name, key, required, default_from, parse, render))
    return tuple(table)


def _codec(tp: Any) -> tuple[Callable[[Any, str], Any], Callable[[Any], Any]]:
    """Parser and renderer for a field annotated ``tp``."""
    if tp == Treatment:
        return _parse_treatment, _render_treatment
    if get_origin(tp) is tuple:
        parse_item, render_item = _codec(get_args(tp)[0])

        def parse_items(value: Any, where: str) -> tuple:
            return tuple(parse_item(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where)))

        return parse_items, lambda value: [render_item(v) for v in value]
    if is_dataclass(tp):
        return functools.partial(_parse_obj, tp), _render_obj
    if isinstance(tp, UnionType):  # ``T | None``: None is the default and is not written
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    return _SCALARS[tp], _same


# ---------------------------------------------------------------------------
# Parsing


def _as_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ExperimentFormatError(f"{where} must be a mapping")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ExperimentFormatError(f"{where} must be a list")
    return value


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExperimentFormatError(f"{where} must be an integer")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentFormatError(f"{where} must be a number")
    return float(value)


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ExperimentFormatError(f"{where} must be a string")
    return value


_SCALARS = {int: _as_int, float: _as_number, str: _as_str}


def _seconds_to_ms(value: Any, where: str) -> int:
    return int(round(_as_number(value, where) * 1000))


def _parse_obj(cls: type, value: Any, where: str, **fixed: Any) -> Any:
    """Build ``cls`` from a mapping; ``where`` is its field path, empty for
    the top-level experiment."""
    label = where or "experiment"
    m = _as_mapping(value, label)
    table = field_table(cls)
    unknown = set(m) - {f.key for f in table}
    if unknown:
        raise ExperimentFormatError(f"unknown field '{sorted(unknown)[0]}' in {label}")
    kwargs = dict(fixed)
    for f in table:
        if f.key in m:
            kwargs[f.name] = f.parse(m[f.key], f"{where}.{f.key}" if where else f.key)
        elif f.default_from is not None:
            kwargs[f.name] = kwargs[f.default_from]
        elif f.required:
            raise ExperimentFormatError(f"missing required field '{f.key}' in {label}")
    return cls(**kwargs)


def _parse_treatment(value: Any, where: str) -> Treatment:
    m = _as_mapping(value, where)
    if "kind" not in m:
        raise ExperimentFormatError(f"missing required field 'kind' in {where}")
    kind = _as_str(m["kind"], f"{where}.kind")
    if kind not in TREATMENT_KINDS:
        raise ExperimentFormatError(f"unknown treatment kind '{kind}' in {where}")
    cls, fixed = TREATMENT_KINDS[kind]
    return _parse_obj(cls, {k: v for k, v in m.items() if k != "kind"}, where, **fixed)


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse experiment-file contents into a fully resolved ExperimentSpec.

    Applies defaults (repetitions=1, alpha=0.7, probabilistic tracing) and
    raises ExperimentFormatError for syntax errors (position-annotated),
    unknown fields and missing required fields.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ExperimentFormatError(
                f"syntax error at line {mark.line + 1}, column {mark.column + 1}: "
                f"{getattr(exc, 'problem', exc)}"
            ) from exc
        raise ExperimentFormatError(f"syntax error: {exc}") from exc
    if raw is None:
        raise ExperimentFormatError("experiment file is empty")
    spec = _parse_obj(ExperimentSpec, raw, "")
    if not spec.responses:
        raise ExperimentFormatError("responses must be nonempty")
    return spec


def parse_experiment_file(path: str | Path) -> ExperimentSpec:
    return parse_experiment(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Validation


def _dag_violations(sue: SueSpec) -> list[Violation]:
    out: list[Violation] = []
    ids = sue.service_ids()
    indegree = {sid: 0 for sid in ids}
    adjacency: dict[str, list[str]] = {sid: [] for sid in ids}
    for i, edge in enumerate(sue.edges):
        for endpoint, label in ((edge.caller, "caller"), (edge.callee, "callee")):
            if endpoint not in ids:
                out.append(
                    Violation(f"sue.edges[{i}].{label}", f"unresolved service '{endpoint}'")
                )
        if edge.caller in ids and edge.callee in ids:
            adjacency[edge.caller].append(edge.callee)
            indegree[edge.callee] += 1
    if out:
        return out

    roots = sorted(sid for sid, deg in indegree.items() if deg == 0)
    if len(roots) != 1:
        out.append(
            Violation(
                "sue.edges",
                f"call graph must be rooted at exactly one entry service, found {roots or 'none'}",
            )
        )
        return out

    # Cycle check via Kahn's algorithm.
    pending = dict(indegree)
    queue = [roots[0]]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for nxt in adjacency[node]:
            pending[nxt] -= 1
            if pending[nxt] == 0:
                queue.append(nxt)
    if seen != len(ids):
        unreached = sorted(sid for sid, deg in pending.items() if deg > 0)
        out.append(Violation("sue.edges", f"edges must form a DAG reaching every service; stuck at {unreached}"))
    return out


def validate(spec: ExperimentSpec) -> list[Violation]:
    """Check every ExperimentSpec invariant; returns an empty list iff valid."""
    v: list[Violation] = []
    ids = spec.sue.service_ids()
    metric_names = spec.sue.metric_names()

    if not spec.responses:
        v.append(Violation("responses", "responses must be nonempty"))
    if spec.repetitions < 1:
        v.append(Violation("repetitions", "repetitions must be >= 1"))
    if spec.seed < 0 or spec.seed >= 2**64:
        v.append(Violation("seed", "seed must fit in 64 unsigned bits"))

    for i, svc in enumerate(spec.sue.services):
        where = f"sue.services[{i}]"
        if svc.workers < 1:
            v.append(Violation(f"{where}.workers", "workers must be >= 1"))
        if svc.service_time.median_ms <= 0:
            v.append(Violation(f"{where}.service_time", "median must be > 0"))
        if svc.service_time.sigma < 0:
            v.append(Violation(f"{where}.service_time", "sigma must be >= 0"))
        if svc.cpu_per_request_ms < 0:
            v.append(Violation(f"{where}.cpu_per_request_ms", "must be >= 0"))
        if svc.error_response_time_ms < 0:
            v.append(Violation(f"{where}.error_response_time_ms", "must be >= 0"))
    if len(ids) != len(spec.sue.services):
        v.append(Violation("sue.services", "service ids must be unique"))
    if not spec.sue.services:
        v.append(Violation("sue.services", "at least one service is required"))
    else:
        v.extend(_dag_violations(spec.sue))

    for i, edge in enumerate(spec.sue.edges):
        where = f"sue.edges[{i}]"
        if edge.calls_per_request < 0:
            v.append(Violation(f"{where}.calls_per_request", "must be >= 0"))
        if edge.latency_ms < 0:
            v.append(Violation(f"{where}.latency_ms", "must be >= 0"))

    seen_metrics: set[str] = set()
    for i, point in enumerate(spec.sue.metric_points):
        where = f"sue.metric_points[{i}]"
        if point.kind not in METRIC_KINDS:
            v.append(Violation(f"{where}.kind", f"unknown metric kind '{point.kind}'"))
        if point.target != SYSTEM_TARGET and point.target not in ids:
            v.append(Violation(f"{where}.target", f"unresolved target '{point.target}'"))
        if point.sampling_interval_ms <= 0:
            v.append(Violation(f"{where}.sampling_interval_s", "must be > 0"))
        elif point.aggregation_interval_ms < point.sampling_interval_ms:
            v.append(
                Violation(
                    f"{where}.aggregation_interval_s",
                    "aggregation interval must be >= sampling interval",
                )
            )
        elif point.aggregation_interval_ms % point.sampling_interval_ms != 0:
            v.append(
                Violation(
                    f"{where}.aggregation_interval_s",
                    "sampling interval must divide aggregation interval",
                )
            )
        if point.system_aggregation not in ("sum", "mean"):
            v.append(Violation(f"{where}.system_aggregation", "must be 'sum' or 'mean'"))
        if point.metric_name in seen_metrics:
            v.append(Violation(f"{where}.metric_name", f"duplicate metric '{point.metric_name}'"))
        seen_metrics.add(point.metric_name)

    trace = spec.sue.trace_config
    if trace.strategy not in TRACE_STRATEGIES:
        v.append(Violation("sue.trace_config.strategy", f"unknown strategy '{trace.strategy}'"))
    if trace.strategy == "probabilistic" and not 0.0 <= trace.rate <= 1.0:
        v.append(Violation("sue.trace_config.rate", "rate must be within [0, 1]"))

    wl = spec.workload
    if wl.users < 1:
        v.append(Violation("workload.users", "users must be >= 1"))
    if wl.ramp_up_ms < 0:
        v.append(Violation("workload.ramp_up_s", "ramp_up must be >= 0"))
    if wl.duration_ms <= wl.ramp_up_ms:
        v.append(Violation("workload.duration_s", "duration must exceed ramp_up"))
    if wl.think_time.median_ms <= 0:
        v.append(Violation("workload.think_time", "median must be > 0"))
    if wl.think_time.sigma < 0:
        v.append(Violation("workload.think_time", "sigma must be >= 0"))

    seen_fault = False
    seen_treatments: set[str] = set()
    for i, t in enumerate(spec.treatments):
        where = f"treatments[{i}]"
        if t.name in seen_treatments:
            v.append(Violation(f"{where}.name", f"duplicate treatment '{t.name}'"))
        seen_treatments.add(t.name)
        if isinstance(t, Fault):
            seen_fault = True
            if t.target not in ids:
                v.append(Violation(f"{where}.target", f"unresolved target '{t.target}'"))
            if not 0 < t.start_ms < t.end_ms:
                v.append(Violation(f"{where}", "fault window must satisfy 0 < start < end"))
            elif t.end_ms >= wl.duration_ms:
                v.append(
                    Violation(
                        f"{where}",
                        "fault window exceeds workload duration (a nonempty normal "
                        "interval is required after the fault)",
                    )
                )
            if isinstance(t, NetworkDelay):
                if t.delay_min_ms < 0:
                    v.append(Violation(f"{where}", "delay bounds must be >= 0"))
                elif t.delay_min_ms > t.delay_max_ms:
                    v.append(Violation(f"{where}", "delay min must be <= max"))
            elif isinstance(t, PacketLoss) and not 0.0 <= t.probability <= 1.0:
                v.append(Violation(f"{where}.probability", "must be within [0, 1]"))
            elif isinstance(t, Stress) and t.factor <= 0:
                v.append(Violation(f"{where}.factor", "must be > 0"))
        else:
            if seen_fault:
                v.append(
                    Violation(
                        f"{where}",
                        "instrumentation treatments must precede fault treatments",
                    )
                )
            if isinstance(t, MetricSamplingInterval):
                if t.metric not in metric_names:
                    v.append(Violation(f"{where}.metric", f"unresolved metric '{t.metric}'"))
                if t.interval_ms <= 0:
                    v.append(Violation(f"{where}.interval_s", "must be > 0"))
            elif isinstance(t, TracingSamplingStrategy) and t.strategy not in TRACE_STRATEGIES:
                v.append(Violation(f"{where}.strategy", f"unknown strategy '{t.strategy}'"))
            # Both tracing kinds may carry a rate.
            if getattr(t, "rate", None) is not None and not 0.0 <= t.rate <= 1.0:
                v.append(Violation(f"{where}.rate", "rate must be within [0, 1]"))

    seen_responses: set[str] = set()
    for i, resp in enumerate(spec.responses):
        where = f"responses[{i}]"
        if resp.name in seen_responses:
            v.append(Violation(f"{where}.name", f"duplicate response '{resp.name}'"))
        seen_responses.add(resp.name)
        if resp.kind not in RESPONSE_KINDS:
            v.append(Violation(f"{where}.kind", f"unknown response kind '{resp.kind}'"))
        elif resp.kind == "metric" and resp.source not in metric_names:
            v.append(Violation(f"{where}.source", f"unresolved metric '{resp.source}'"))
        elif resp.kind == "trace_duration" and resp.source not in ids:
            v.append(Violation(f"{where}.source", f"unresolved service '{resp.source}'"))

    # Imported here: config -> detection -> telemetry -> config is a cycle.
    from .detection import _REGISTRY

    det = spec.detection
    if det.mechanism not in _REGISTRY:
        v.append(Violation("detection.mechanism", f"unknown mechanism '{det.mechanism}'"))
    if not 0.0 < det.alpha < 1.0:
        v.append(Violation("detection.alpha", "alpha must be within (0, 1)"))
    if not 0.0 < det.split_ratio < 1.0:
        v.append(Violation("detection.split_ratio", "must be within (0, 1)"))
    if det.feature_window < 1:
        v.append(Violation("detection.feature_window", "must be >= 1"))
    if det.l2 < 0:
        v.append(Violation("detection.l2", "must be >= 0"))
    if det.tol <= 0:
        v.append(Violation("detection.tol", "must be > 0"))
    if det.alert_k <= 0:
        v.append(Violation("detection.alert_k", "must be > 0"))

    for key, value in spec.cost_model.__dict__.items():
        if value < 0:
            v.append(Violation(f"cost_model.{key}", "must be >= 0"))
    return v


# ---------------------------------------------------------------------------
# Canonical rendering (round-trips exactly through parse_experiment)


def _ms_to_s(ms: int) -> float | int:
    seconds = ms / 1000
    return int(seconds) if seconds == int(seconds) else seconds


def _same(value: Any) -> Any:
    return value


def _render_obj(obj: Any) -> dict:
    doc = {}
    for f in field_table(type(obj)):
        value = getattr(obj, f.name)
        if value is not None:
            doc[f.key] = f.render(value)
    return doc


def _render_treatment(t: Treatment) -> dict:
    # ``name`` keeps its leading position when the field table re-adds it.
    return {"name": t.name, "kind": t.kind} | _render_obj(t)


def render_experiment(spec: ExperimentSpec) -> str:
    """Serialize a spec to canonical YAML; parse(render(spec)) == spec."""
    return yaml.safe_dump(_render_obj(spec), sort_keys=False, default_flow_style=False)
