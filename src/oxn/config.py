"""Parse, validate and render the declarative experiment file.

An experiment file is a YAML document with top-level keys
``name, seed, repetitions, sue, workload, treatments, responses, detection``
plus an optional ``cost_model``. Durations are written in seconds (decimal),
point latencies and service times in milliseconds; everything is normalized
to integer milliseconds internally so runs are exactly reproducible.

Every mapping in the file is one frozen dataclass below, and every treatment
kind is its own dataclass. One field table per class, built from
``dataclasses.fields`` and the field metadata, drives parsing, canonical
rendering, the single-field checks and ``experiment_schema``, the file's JSON
Schema. Parsing checks structure and types and rejects NaN and infinities. A
field's bound (``Range``, ``OneOf`` or ``Excludes``), a list's non-emptiness,
a key unique within its list and a name that must be declared live only in
its metadata; ``validate`` checks them in one walk, at the field's file-key
path. Only checks that join two fields are written out.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping, NamedTuple, get_args, get_origin, get_type_hints

import yaml

SYSTEM_TARGET = "system"
MAX_SEED = 2**64 - 1  # random streams take the seed modulo 2**64, so no run seed may pass this
# A span id is ``(request << SPAN_BITS) | n`` for the request's n-th span.
SPAN_BITS = 16

# PyYAML resolves YAML 1.1, which reads a number with an exponent but no
# decimal point or no exponent sign (``1e-6``, ``6e3``, ``1.0e6``) as a
# string. YAML 1.2 and JSON read it as a float, and so does the file format.
# Rendering resolves the same way, so a string of that form keeps its quotes.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$")


class _Loader(yaml.SafeLoader):
    pass


class _Dumper(yaml.SafeDumper):
    pass


for _yaml_class in (_Loader, _Dumper):
    _yaml_class.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+.0123456789"))


class Range(NamedTuple):
    """The interval a number field must lie in, in interval notation: a round
    bracket excludes its end."""

    low: float
    high: float
    brackets: str  # "[]", "[)", "(]" or "()"

    def admits(self, value: Any) -> bool:
        # Written as "inside the bound": every comparison with NaN is false.
        above = self.low <= value if self.brackets[0] == "[" else self.low < value
        below = value <= self.high if self.brackets[1] == "]" else value < self.high
        return above and below

    def message(self, key: str, value: Any) -> str:
        if self.high == math.inf:
            return f"{key} must be {'>=' if self.brackets[0] == '[' else '>'} {self.low}"
        return f"{key} must be within {self.brackets[0]}{self.low}, {self.high}{self.brackets[1]}"

    def schema(self, render: Callable[[Any], Any]) -> dict:
        """The JSON Schema keywords of the bound, its ends in file units."""
        keywords = {"minimum" if self.brackets[0] == "[" else "exclusiveMinimum": render(self.low)}
        if self.high != math.inf:
            keywords["maximum" if self.brackets[1] == "]" else "exclusiveMaximum"] = render(self.high)
        return keywords


class OneOf(NamedTuple):
    """The strings a choice field may hold."""

    choices: tuple[str, ...]

    def admits(self, value: Any) -> bool:
        return value in self.choices

    def message(self, key: str, value: Any) -> str:
        return f"unknown {key} '{value}'"

    def schema(self, render: Callable[[Any], Any]) -> dict:
        return {"enum": list(self.choices)}


class Excludes(NamedTuple):
    """The characters a string field must not contain, and the values it must not be."""

    chars: str
    words: tuple[str, ...] = ()

    def admits(self, value: Any) -> bool:
        return not any(c in value for c in self.chars) and value not in self.words

    def message(self, key: str, value: Any) -> str:
        taken = "".join(f" and not {w!r}" for w in self.words)
        return f"{key} must be free of {', '.join(map(repr, self.chars))}{taken}, got {value!r}"

    def schema(self, render: Callable[[Any], Any]) -> dict:
        pattern = {"pattern": "^[^" + "".join(f"\\x{ord(c):02x}" for c in self.chars) + "]*$"}
        return pattern | ({"not": {"enum": list(self.words)}} if self.words else {})


# Field metadata. SECONDS: held as integer milliseconds in ``<stem>_ms`` and
# written in the file as decimal seconds under ``<stem>_s``. The rest bound
# the value the attribute holds. A list marked "nonempty" must hold an item;
# no two of its items share the value of a "unique" field. A "names" field
# holds a name of that kind that the file declares (see ``validate``). A
# "description" is copied into the JSON Schema.
SECONDS = {"seconds": True}
NONNEGATIVE = {"bound": Range(0, math.inf, "[)")}
POSITIVE = {"bound": Range(0, math.inf, "()")}
AT_LEAST_ONE = {"bound": Range(1, math.inf, "[)")}
UNIT = {"bound": Range(0, 1, "[]")}
OPEN_UNIT = {"bound": Range(0, 1, "()")}
STRATEGY = {"bound": OneOf(("always_on", "probabilistic"))}
UNIQUE = {"unique": True}
# Experiment, treatment and response names become parts of output file names;
# a response named "spans" would write its CSV file over its run's spans file.
FILE_NAME_PART = {"bound": Excludes("/\\\0")}
RESPONSE_NAME = {"bound": Excludes("/\\\0", ("spans",))}


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

    median_ms: float = field(metadata=POSITIVE)
    sigma: float = field(metadata=NONNEGATIVE)


@dataclass(frozen=True)
class ServiceSpec:
    id: str = field(metadata=UNIQUE)
    workers: int = field(metadata=AT_LEAST_ONE)
    service_time: LognormalSpec
    cpu_per_request_ms: float = field(metadata=NONNEGATIVE)
    error_response_time_ms: int = field(default=300, metadata=NONNEGATIVE)


@dataclass(frozen=True)
class CallEdge:
    caller: str = field(metadata={"names": "service"})
    callee: str = field(metadata={"names": "service"})
    calls_per_request: float = field(metadata=NONNEGATIVE)
    latency_ms: int = field(metadata=NONNEGATIVE)


@dataclass(frozen=True)
class MetricPointSpec:
    metric_name: str = field(metadata=UNIQUE)
    kind: str = field(metadata={"bound": OneOf(("cpu_gauge", "request_counter", "custom_gauge")), "description": (
        "cpu_gauge: busy CPU fraction per sampling window; request_counter: spans closed ok per aggregation window; "
        "custom_gauge: spans of the target in flight at the last millisecond of each sampling window. Gauges "
        "average their samples per aggregation window.")})
    target: str = field(metadata={"names": "target", "description": "service id or 'system'"})
    sampling_interval_ms: int = field(metadata=SECONDS | POSITIVE)
    aggregation_interval_ms: int = field(metadata=SECONDS | POSITIVE | {
        "default_from": "sampling_interval_ms",
        "description": "defaults to the sampling interval; must be a whole multiple of it"})
    # How per-service readings combine when target is "system".
    system_aggregation: str = field(default="sum", metadata={"bound": OneOf(("sum", "mean"))})


@dataclass(frozen=True)
class TraceConfigSpec:
    strategy: str = field(default="probabilistic", metadata=STRATEGY)
    rate: float = field(default=1.0, metadata=UNIT)


@dataclass(frozen=True)
class SueSpec:
    services: tuple[ServiceSpec, ...] = field(metadata={"nonempty": True})
    edges: tuple[CallEdge, ...] = ()
    metric_points: tuple[MetricPointSpec, ...] = ()
    trace_config: TraceConfigSpec = TraceConfigSpec()

    def metric_point(self, name: str) -> MetricPointSpec:
        for point in self.metric_points:
            if point.metric_name == name:
                return point
        raise KeyError(name)


@dataclass(frozen=True)
class WorkloadSpec:
    users: int = field(metadata=AT_LEAST_ONE)
    duration_ms: int = field(metadata=SECONDS | POSITIVE)
    think_time: LognormalSpec = LognormalSpec(1000.0, 0.25)
    ramp_up_ms: int = field(default=0, metadata=SECONDS | NONNEGATIVE)


@dataclass(frozen=True)
class ResponseVariableSpec:
    name: str = field(metadata=RESPONSE_NAME | UNIQUE)
    kind: str = field(metadata={"bound": OneOf(("metric", "trace_duration"))})
    source: str = field(metadata={"description": "metric name (kind=metric) or service id whose traces define the "
                                                 "duration series (kind=trace_duration)"})


@dataclass(frozen=True)
class DetectionSpec:
    mechanism: str = field(default="logistic_regression", metadata={"description": (
        "a built-in mechanism (logistic_regression, threshold_alert) or one added with register_mechanism")})
    alpha: float = field(default=0.7, metadata=OPEN_UNIT)
    split_ratio: float = field(default=0.7, metadata=OPEN_UNIT)
    feature_window: int = field(default=3, metadata=AT_LEAST_ONE)
    l2: float = field(default=1e-4, metadata=NONNEGATIVE)
    tol: float = field(default=1e-6, metadata=POSITIVE)
    alert_k: float = field(default=3.0, metadata=POSITIVE)


@dataclass(frozen=True)
class CostModelSpec:
    """Linear CPU-cost coefficients, all in CPU-ms per counted unit."""

    per_metric_event_collector_ms: float = field(default=1000.0, metadata=NONNEGATIVE)
    per_metric_event_metrics_backend_ms: float = field(default=300.0, metadata=NONNEGATIVE)
    per_span_collector_ms: float = field(default=2.0, metadata=NONNEGATIVE)
    per_span_trace_backend_ms: float = field(default=1.0, metadata=NONNEGATIVE)
    per_instrumentation_call_ms: float = field(default=0.02, metadata=NONNEGATIVE)


# ---------------------------------------------------------------------------
# Treatments: one dataclass per kind. A fault dataclass is also the effect the
# simulator applies at ``start_ms`` and reverts at ``end_ms``.


@dataclass(frozen=True)
class Fault:
    """Fields every fault kind shares: a window on one target service."""

    name: str = field(metadata=FILE_NAME_PART | UNIQUE)
    target: str = field(metadata={"names": "service"})
    start_ms: int = field(metadata=SECONDS | POSITIVE)
    end_ms: int = field(metadata=SECONDS | POSITIVE)


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
    delay_min_ms: int = field(metadata=NONNEGATIVE)
    delay_max_ms: int = field(metadata=NONNEGATIVE)


@dataclass(frozen=True)
class PacketLoss(Fault):
    """Geometric retransmissions on the target's inbound edges."""

    kind: ClassVar[str] = "packet_loss"
    probability: float = field(metadata=UNIT)


@dataclass(frozen=True)
class PacketCorruption(PacketLoss):
    """Packet loss whose every hop also draws, with the same probability, a
    failure that the callee rejects unprocessed."""

    kind: ClassVar[str] = "packet_corruption"


@dataclass(frozen=True)
class Stress(Fault):
    """Inflate the target's service times and CPU per request by ``factor``."""

    kind: ClassVar[str] = "stress"
    factor: float = field(metadata=POSITIVE)


@dataclass(frozen=True)
class MetricSamplingInterval:
    """Set one metric point's sampling interval."""

    kind: ClassVar[str] = "metric_sampling_interval"
    name: str = field(metadata=FILE_NAME_PART | UNIQUE)
    metric: str = field(metadata={"names": "metric"})
    interval_ms: int = field(metadata=SECONDS | POSITIVE)


@dataclass(frozen=True)
class TracingSamplingRate:
    kind: ClassVar[str] = "tracing_sampling_rate"
    name: str = field(metadata=FILE_NAME_PART | UNIQUE)
    rate: float = field(metadata=UNIT)


@dataclass(frozen=True)
class TracingSamplingStrategy:
    """Set the trace sampling strategy, and the rate when one is given."""

    kind: ClassVar[str] = "tracing_sampling_strategy"
    name: str = field(metadata=FILE_NAME_PART | UNIQUE)
    strategy: str = field(metadata=STRATEGY)
    rate: float | None = field(default=None, metadata=UNIT)


Instrumentation = MetricSamplingInterval | TracingSamplingRate | TracingSamplingStrategy
Treatment = Pause | Kill | NetworkDelay | PacketLoss | PacketCorruption | Stress | Instrumentation
TREATMENT_KINDS: dict[str, type] = {cls.kind: cls for cls in get_args(Treatment)}


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
    name: str = field(metadata=FILE_NAME_PART)
    seed: int = field(metadata={"bound": Range(0, MAX_SEED, "[]")})
    repetitions: int = field(default=1, metadata=AT_LEAST_ONE)
    sue: SueSpec
    workload: WorkloadSpec
    treatments: tuple[Treatment, ...] = field(metadata={"description": (
        "Executed in file order; instrumentation treatments must precede fault treatments. Each fault runs in "
        "its own series of runs.")})
    responses: tuple[ResponseVariableSpec, ...] = field(metadata={"nonempty": True})
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
    bound: Range | OneOf | Excludes | None  # what the attribute value must lie in
    nonempty: bool  # a list that must hold an item
    unique: bool  # no two items of the list that holds the object share the value
    names: str | None  # the kind of declared name the value must be (such a field has no bound)
    schema: Callable[[], dict]  # () -> the JSON Schema of the YAML value


@functools.cache
def field_table(cls: type) -> tuple[FileField, ...]:
    """The file fields of a spec dataclass in canonical order, resolved once
    per class."""
    hints = get_type_hints(cls)
    table = []
    for f in fields(cls):
        key, (parse, render, schema) = f.name, _codec(hints[f.name])
        if f.metadata.get("seconds"):
            key, parse, render, schema = f.name.removesuffix("_ms") + "_s", _seconds_to_ms, _ms_to_s, _codec(float)[2]
        default_from = f.metadata.get("default_from")
        required = f.default is MISSING and f.default_factory is MISSING and default_from is None
        table.append(FileField(f.name, key, required, default_from, parse, render, f.metadata.get("bound"),
                               f.metadata.get("nonempty", False), f.metadata.get("unique", False),
                               f.metadata.get("names"), functools.partial(_field_schema, f, schema, render)))
    return tuple(table)


def _codec(tp: Any) -> tuple[Callable[[Any, str], Any], Callable[[Any], Any], Callable[[], dict]]:
    """Parser, renderer and JSON Schema of a field annotated ``tp``."""
    if tp == Treatment:
        return _parse_treatment, _render_treatment, lambda: {
            "oneOf": [_obj_schema(cls, kind) for kind, cls in TREATMENT_KINDS.items()]}
    if get_origin(tp) is tuple:
        parse_item, render_item, item_schema = _codec(get_args(tp)[0])

        def parse_items(value: Any, where: str) -> tuple:
            return tuple(parse_item(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where)))

        return (parse_items, lambda value: [render_item(v) for v in value],
                lambda: {"type": "array", "items": item_schema()})
    if is_dataclass(tp):
        return functools.partial(_parse_obj, tp), _render_obj, functools.partial(_obj_schema, tp)
    if isinstance(tp, UnionType):  # ``T | None``: None is the default and is not written
        (tp,) = (arg for arg in get_args(tp) if arg is not type(None))
    parse, json_type = _SCALARS[tp]
    return parse, _same, functools.partial(dict, type=json_type)


def _field_schema(f: Field, schema: Callable[[], dict], render: Callable[[Any], Any]) -> dict:
    """The JSON Schema of one field's YAML value, in file units."""
    doc = schema() | (f.metadata["bound"].schema(render) if "bound" in f.metadata else {})
    doc |= {"minItems": 1} if f.metadata.get("nonempty") else {}
    doc |= {"default": render(f.default)} if isinstance(f.default, (int, float, str)) else {}
    return doc | ({"description": f.metadata["description"]} if "description" in f.metadata else {})


def _obj_schema(cls: type, kind: str | None = None) -> dict:
    """The JSON Schema of a mapping read as ``cls``; a treatment's holds its ``kind`` too."""
    table = field_table(cls)
    consts = {} if kind is None else {"kind": {"const": kind}}
    return {"type": "object", "required": [*consts, *(f.key for f in table if f.required)],
            "additionalProperties": False, "properties": consts | {f.key: f.schema() for f in table}}


def experiment_schema() -> dict:
    """The JSON Schema (draft-07) of the experiment file, built from the field
    tables. ``src/oxn/experiment_schema.json`` holds it as
    ``json.dumps(experiment_schema(), indent=2) + "\\n"``."""
    doc = _obj_schema(ExperimentSpec)
    # ``validate``'s "no fault treatments to run", as draft-07 states it.
    faults = [kind for kind, cls in TREATMENT_KINDS.items() if issubclass(cls, Fault)]
    doc["properties"]["treatments"]["contains"] = {"required": ["kind"], "properties": {"kind": {"enum": faults}}}
    return {"$schema": "http://json-schema.org/draft-07/schema#", "$id": "oxn/experiment_schema.json",
            "title": "Experiment file", "description": "Structure of the YAML experiment file (version 1). Durations "
            "suffixed _s are decimal seconds; _ms fields are milliseconds."} | doc


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
    """An integer, or a float with no fraction read as one, as JSON Schema's
    ``integer`` admits it (``16.0``); booleans are not integers."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExperimentFormatError(f"{where} must be an integer")
    return value


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentFormatError(f"{where} must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities and integers beyond any float
        raise ExperimentFormatError(f"{where} must be a finite number")
    return float(value)


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ExperimentFormatError(f"{where} must be a string")
    return value


_SCALARS = {int: (_as_int, "integer"), float: (_as_number, "number"), str: (_as_str, "string")}


def _seconds_to_ms(value: Any, where: str) -> int:
    """Whole milliseconds of a seconds value; a fraction of a millisecond is
    rejected here, because rounding it away would hide it from every bound.
    The tolerance is 1e-6 ms, or one float spacing of the product where that
    is wider (beyond ~1.7e10 ms), so every rendered whole-ms value parses.
    Seconds whose milliseconds overflow a float are rejected the same way."""
    ms = _as_number(value, where) * 1000
    if not math.isfinite(ms) or abs(ms - round(ms)) > max(1e-6, math.ulp(ms)):
        raise ExperimentFormatError(f"{where}: {where.rsplit('.', 1)[-1]} must be a whole number of milliseconds")
    return int(round(ms))


def _parse_obj(cls: type, value: Any, where: str) -> Any:
    """Build ``cls`` from a mapping; ``where`` is its field path, empty for
    the top-level experiment."""
    label = where or "experiment"
    m = _as_mapping(value, label)
    table = field_table(cls)
    unknown = set(m) - {f.key for f in table}
    if unknown:
        raise ExperimentFormatError(f"unknown field '{sorted(unknown)[0]}' in {label}")
    kwargs = {}
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
    return _parse_obj(TREATMENT_KINDS[kind], {k: v for k, v in m.items() if k != "kind"}, where)


def parse_experiment(text: str) -> ExperimentSpec:
    """Parse experiment-file contents into a fully resolved ExperimentSpec.

    Applies defaults (repetitions=1, alpha=0.7, probabilistic tracing) and
    raises ExperimentFormatError for syntax errors (position-annotated),
    unknown fields and missing required fields.
    """
    try:
        raw = yaml.load(text, Loader=_Loader)
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
    return _parse_obj(ExperimentSpec, raw, "")


def parse_experiment_file(path: str | Path) -> ExperimentSpec:
    return parse_experiment(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Validation


def _dag_violations(sue: SueSpec, ids: frozenset[str]) -> list[Violation]:
    if any(edge.caller not in ids or edge.callee not in ids for edge in sue.edges):
        return []  # the field walk names each unresolved endpoint
    indegree = {sid: 0 for sid in ids}
    adjacency: dict[str, list[CallEdge]] = {sid: [] for sid in ids}
    for edge in sue.edges:
        adjacency[edge.caller].append(edge)
        indegree[edge.callee] += 1

    roots = sorted(sid for sid, deg in indegree.items() if deg == 0)
    if len(roots) != 1:
        found = roots or "none"
        return [Violation("sue.edges", f"call graph must be rooted at exactly one entry service, found {found}")]

    # Cycle check via Kahn's algorithm.
    queue = [roots[0]]
    order = []
    while queue:
        node = queue.pop()
        order.append(node)
        for edge in adjacency[node]:
            indegree[edge.callee] -= 1
            if indegree[edge.callee] == 0:
                queue.append(edge.callee)
    if len(order) != len(ids):
        unreached = sorted(sid for sid, deg in indegree.items() if deg > 0)
        return [Violation("sue.edges", f"edges must form a DAG reaching every service; stuck at {unreached}")]

    # The most spans one request can open: its call tree with every edge's calls rounded up.
    spans: dict[str, int] = {}
    for node in reversed(order):
        spans[node] = 1 + sum(math.ceil(e.calls_per_request) * spans[e.callee] for e in adjacency[node])
    if spans[roots[0]] > 1 << SPAN_BITS:
        return [Violation("sue.edges", f"a request can open {spans[roots[0]]:,} spans; span ids "
                                       f"hold at most {1 << SPAN_BITS:,} per request")]
    return []


def _field_violations(obj: Any, where: str, names: Mapping[str, frozenset[str]]) -> Iterator[Violation]:
    """Each field of ``obj``, and of every object it holds, whose value lies
    outside the bound in its metadata or is not a declared name of its kind in
    ``names``, and each list item whose unique key an earlier item of the list
    holds, reported at its file-key path."""
    for f in field_table(type(obj)):
        value = getattr(obj, f.name)
        path = f"{where}.{f.key}" if where else f.key
        if f.bound is not None:
            if value is not None and not f.bound.admits(value):
                yield Violation(path, f.bound.message(f.key, value))
        elif f.names is not None:
            if value not in names[f.names]:
                yield Violation(path, f"unresolved {f.names} '{value}'")
        elif is_dataclass(value):
            yield from _field_violations(value, path, names)
        elif isinstance(value, tuple):
            if f.nonempty and not value:
                yield Violation(path, f"{f.key} must be nonempty")
            held: set[tuple[str, Any]] = set()
            for i, item in enumerate(value):
                for key in ((g.key, getattr(item, g.name)) for g in field_table(type(item)) if g.unique):
                    if key in held:
                        yield Violation(f"{path}[{i}].{key[0]}", f"duplicate {key[0]} '{key[1]}'")
                    held.add(key)
                yield from _field_violations(item, f"{path}[{i}]", names)


def validate(spec: ExperimentSpec) -> list[Violation]:
    """Check every ExperimentSpec invariant; returns an empty list iff valid."""
    ids = frozenset(s.id for s in spec.sue.services)
    names = {"service": ids, "target": ids | {SYSTEM_TARGET},
             "metric": frozenset(p.metric_name for p in spec.sue.metric_points)}
    v = list(_field_violations(spec, "", names))
    if spec.seed <= MAX_SEED < spec.seed + spec.repetitions - 1:
        v.append(Violation("seed", f"seed + repetitions - 1 passes {MAX_SEED}, where random streams wrap to seed 0"))
    if spec.sue.services:
        v.extend(_dag_violations(spec.sue, ids))

    for i, point in enumerate(spec.sue.metric_points):
        where = f"sue.metric_points[{i}]"
        if point.aggregation_interval_ms < point.sampling_interval_ms:
            v.append(Violation(f"{where}.aggregation_interval_s",
                               "aggregation interval must be >= sampling interval"))
        elif point.sampling_interval_ms > 0 and point.aggregation_interval_ms % point.sampling_interval_ms:
            v.append(Violation(f"{where}.aggregation_interval_s",
                               "sampling interval must divide aggregation interval"))

    wl = spec.workload
    if wl.duration_ms <= wl.ramp_up_ms:
        v.append(Violation("workload.duration_s", "duration must exceed ramp_up"))

    any_fault = False
    for i, t in enumerate(spec.treatments):
        where = f"treatments[{i}]"
        if isinstance(t, Fault):
            any_fault = True
            if t.start_ms >= t.end_ms:
                v.append(Violation(where, "fault window must satisfy start < end"))
            elif t.end_ms >= wl.duration_ms:
                v.append(Violation(where, "fault window exceeds workload duration (a nonempty normal "
                                          "interval is required after the fault)"))
            if isinstance(t, NetworkDelay) and t.delay_min_ms > t.delay_max_ms:
                v.append(Violation(where, "delay min must be <= max"))
        elif any_fault:
            v.append(Violation(where, "instrumentation treatments must precede fault treatments"))
    if not any_fault:
        v.append(Violation("treatments", "experiment has no fault treatments to run"))

    for i, resp in enumerate(spec.responses):
        where = f"responses[{i}]"
        if resp.kind == "metric" and resp.source not in names["metric"]:
            v.append(Violation(f"{where}.source", f"unresolved metric '{resp.source}'"))
        elif resp.kind == "trace_duration" and resp.source not in ids:
            v.append(Violation(f"{where}.source", f"unresolved service '{resp.source}'"))

    # Imported here: config -> detection -> telemetry -> config is a cycle.
    from .detection import _REGISTRY

    if spec.detection.mechanism not in _REGISTRY:
        v.append(Violation("detection.mechanism", f"unknown mechanism '{spec.detection.mechanism}'"))
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
    return yaml.dump(_render_obj(spec), Dumper=_Dumper, sort_keys=False, default_flow_style=False)

