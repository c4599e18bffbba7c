from __future__ import annotations

import copy
import functools
import importlib
import json
import math
import operator
import subprocess
import sys
from dataclasses import is_dataclass, replace

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from oxn import config
from oxn.config import (
    TREATMENT_KINDS,
    CallEdge,
    DetectionSpec,
    ExperimentFormatError,
    ExperimentSpec,
    Excludes,
    Kill,
    LognormalSpec,
    MetricPointSpec,
    MetricSamplingInterval,
    NetworkDelay,
    OneOf,
    PacketCorruption,
    ResponseVariableSpec,
    ServiceSpec,
    Stress,
    TraceConfigSpec,
    TracingSamplingRate,
    TracingSamplingStrategy,
    Violation,
    _parse_obj,
    experiment_schema,
    field_table,
    parse_experiment,
    parse_experiment_file,
    render_experiment,
    validate,
)
from oxn.report import _scored_doc, build_matrix
from oxn.runner import spec_digest

from conftest import CANONICAL_NAMES, REPO_ROOT, experiment_path, metric_point, small_spec

SCHEMA_PATH = REPO_ROOT / "src/oxn/experiment_schema.json"


def set_leaf(doc, path, value):
    """Set ``doc[path[0]][path[1]]...`` to ``value``, adding missing mappings."""
    for key in path[:-1]:
        doc = doc.setdefault(key, {}) if isinstance(key, str) else doc[key]
    doc[path[-1]] = value


def dotted(path) -> str:
    """A document path as ``validate`` and the parser name it: ``a.b[0].c``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


MINIMAL = """
name: minimal
seed: 1
sue:
  services:
    - id: api
      workers: 1
      service_time: {median_ms: 10, sigma: 0.0}
      cpu_per_request_ms: 5
  metric_points:
    - {metric_name: cpu, kind: cpu_gauge, target: api, sampling_interval_s: 5}
workload:
  users: 1
  duration_s: 60
treatments:
  - {name: pause_api, kind: pause, target: api, start_s: 20, end_s: 40}
responses:
  - {name: cpu, kind: metric, source: cpu}
"""


class TestParse:
    def test_minimal_file_applies_defaults(self):
        spec = parse_experiment(MINIMAL)
        assert spec.repetitions == 1
        assert spec.detection.alpha == 0.7
        assert spec.detection.mechanism == "logistic_regression"
        assert spec.sue.trace_config.strategy == "probabilistic"
        assert spec.workload.duration_ms == 60_000
        assert spec.treatments[0].start_ms == 20_000
        assert validate(spec) == []

    def test_baseline_file_matches_reference_shape(self):
        spec = parse_experiment_file(experiment_path("baseline"))
        assert spec.name == "baseline"
        assert spec.seed == 0
        assert spec.repetitions == 10
        assert spec.workload.users == 50
        assert spec.workload.duration_ms == 600_000
        assert spec.sue.trace_config == TraceConfigSpec("probabilistic", 0.01)
        counter = metric_point(spec.sue, "recomms_per_minute")
        assert counter.aggregation_interval_ms == 60_000
        gauge = metric_point(spec.sue, "system_cpu")
        assert gauge.sampling_interval_ms == 5_000
        assert len(spec.sue.services) == 6
        assert [t.kind for t in spec.treatments] == ["pause", "packet_loss", "network_delay"]
        delay = spec.treatments[2]
        assert (delay.delay_min_ms, delay.delay_max_ms) == (0, 90)
        assert (delay.start_ms, delay.end_ms) == (250_000, 490_000)
        assert len(spec.responses) == 3

    def test_alternative_b_adds_trace_rate_treatment(self):
        spec = parse_experiment_file(experiment_path("alternative_b"))
        instrumentation = spec.instrumentation_treatments()
        assert len(instrumentation) == 1
        assert instrumentation[0].kind == "tracing_sampling_rate"
        assert instrumentation[0].rate == 0.05
        baseline = parse_experiment_file(experiment_path("baseline"))
        assert spec.sue == baseline.sue
        assert spec.workload == baseline.workload

    def test_empty_responses_rejected(self):
        text = MINIMAL.replace(
            "responses:\n  - {name: cpu, kind: metric, source: cpu}", "responses: []"
        )
        spec = parse_experiment(text)
        assert [str(v) for v in validate(spec)] == ["responses: responses must be nonempty"]

    def test_empty_services_rejected_without_a_call_graph_check(self):
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, sue=replace(spec.sue, services=(), metric_points=()), treatments=(),
                      responses=(ResponseVariableSpec("cpu", "trace_duration", "api"),))
        assert [str(v) for v in validate(bad)] == [
            "sue.services: services must be nonempty", "treatments: experiment has no fault treatments to run",
            "responses[0].source: unresolved service 'api'"]

    def test_unknown_field_rejected(self):
        with pytest.raises(ExperimentFormatError, match="unknown field 'flavor'"):
            parse_experiment(MINIMAL + "\nflavor: vanilla\n")

    def test_missing_field_rejected(self):
        with pytest.raises(ExperimentFormatError, match="missing required field 'workers'"):
            parse_experiment(MINIMAL.replace("workers: 1\n      ", ""))

    def test_syntax_error_is_position_annotated(self):
        with pytest.raises(ExperimentFormatError, match=r"line \d+, column \d+"):
            parse_experiment("name: [unclosed\nseed: 1\n")

    def test_wrong_type_rejected(self):
        with pytest.raises(ExperimentFormatError, match="seed must be an integer"):
            parse_experiment(MINIMAL.replace("seed: 1", "seed: one"))

    @pytest.mark.parametrize(
        "path,value",
        [
            (("workload", "duration_s"), math.inf),
            (("workload", "duration_s"), math.nan),
            (("workload", "ramp_up_s"), -math.inf),
            (("detection", "l2"), math.nan),
            (("detection", "tol"), math.nan),
            (("sue", "services", 0, "service_time", "median_ms"), math.nan),
            (("sue", "services", 0, "cpu_per_request_ms"), math.inf),
            (("sue", "services", 0, "cpu_per_request_ms"), 10**400),
        ],
    )
    def test_non_finite_number_rejected(self, path, value):
        doc = yaml.safe_load(MINIMAL)
        set_leaf(doc, path, value)
        with pytest.raises(ExperimentFormatError) as raised:
            parse_experiment(yaml.safe_dump(doc))
        assert str(raised.value) == f"{dotted(path)} must be a finite number"

    @pytest.mark.parametrize(
        "path,value",
        [
            (("workload", "ramp_up_s"), -0.0004),
            (("sue", "metric_points", 0, "sampling_interval_s"), 0.0004),
            (("workload", "duration_s"), 1e306),
        ],
    )
    def test_seconds_off_the_millisecond_grid_rejected(self, path, value):
        # Rounded to whole milliseconds first, the first two would pass every
        # bound as 0; the last overflows a float once in milliseconds.
        doc = yaml.safe_load(MINIMAL)
        set_leaf(doc, path, value)
        with pytest.raises(ExperimentFormatError) as raised:
            parse_experiment(yaml.safe_dump(doc))
        assert str(raised.value) == f"{dotted(path)}: {path[-1]} must be a whole number of milliseconds"


class TestValidate:
    def test_baseline_is_valid(self):
        assert validate(parse_experiment_file(experiment_path("baseline"))) == []

    def test_fault_window_exceeding_duration(self):
        spec = parse_experiment(MINIMAL)
        bad = replace(
            spec,
            treatments=(replace(spec.treatments[0], start_ms=550_000, end_ms=650_000),),
            workload=replace(spec.workload, duration_ms=600_000),
        )
        violations = validate(bad)
        assert any("exceeds workload duration" in v.message for v in violations)

    def test_unresolved_treatment_target(self):
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, treatments=(replace(spec.treatments[0], target="paymnet"),))
        violations = validate(bad)
        assert any("unresolved service 'paymnet'" in v.message for v in violations)

    def test_unresolved_response_source(self):
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, responses=(ResponseVariableSpec("x", "metric", "nope"),))
        assert any("unresolved metric 'nope'" in v.message for v in validate(bad))

    def test_call_tree_beyond_the_span_id_space(self):
        spec = parse_experiment(MINIMAL)
        services = tuple(replace(spec.sue.services[0], id=sid) for sid in ("api", "b", "c"))

        def violations(calls_ab, calls_bc):
            edges = (CallEdge("api", "b", calls_ab, 0), CallEdge("b", "c", calls_bc, 0))
            return [str(v) for v in validate(replace(spec, sue=replace(spec.sue, services=services, edges=edges)))]

        message = "sue.edges: a request can open {} spans; span ids hold at most 65,536 per request"
        assert violations(300, 300) == [message.format("90,301")]  # 1 + 300 * (1 + 300)
        assert violations(255, 256) == []  # 1 + 255 * (1 + 256): exactly the id space
        assert violations(255, 256.5) == [message.format("65,791")]  # a fractional call rounds up

    @pytest.mark.parametrize("treatments", [(), (TracingSamplingRate(name="rate", rate=0.5),)],
                             ids=["none", "instrumentation_only"])
    def test_a_spec_without_a_fault_is_rejected(self, treatments):
        spec = replace(parse_experiment(MINIMAL), treatments=treatments)
        assert [str(v) for v in validate(spec)] == ["treatments: experiment has no fault treatments to run"]

    def test_run_seeds_must_not_wrap(self):
        # Random streams read the seed modulo 2**64, so a second repetition
        # after seed 2**64 - 1 would replay every stream of seed 0.
        spec = replace(parse_experiment(MINIMAL), seed=2**64 - 1)
        assert validate(spec) == []
        assert [v.field for v in validate(replace(spec, repetitions=2))] == ["seed"]
        assert [v.field for v in validate(replace(spec, seed=2**64 - 2, repetitions=2))] == []

    def test_instrumentation_must_precede_faults(self):
        spec = parse_experiment(MINIMAL)
        late = MetricSamplingInterval(name="late", metric="cpu", interval_ms=1000)
        bad = replace(spec, treatments=spec.treatments + (late,))
        assert any("must precede fault treatments" in v.message for v in validate(bad))

    def test_sampling_must_divide_aggregation(self):
        spec = parse_experiment(MINIMAL)
        point = MetricPointSpec("cpu", "cpu_gauge", "api", 7000, 10_000)
        bad = replace(spec, sue=replace(spec.sue, metric_points=(point,)))
        assert any("must divide" in v.message for v in validate(bad))

    def test_cycle_rejected(self):
        spec = small_spec()
        cyclic = replace(
            spec.sue, edges=spec.sue.edges + (CallEdge("backend", "gateway", 1.0, 1),)
        )
        violations = validate(replace(spec, sue=cyclic))
        assert any("exactly one entry service" in v.message for v in violations)

    def test_two_roots_rejected(self):
        spec = small_spec()
        lonely = replace(spec.sue, services=spec.sue.services + (
            ServiceSpec("orphan", 1, LognormalSpec(5, 0.0), 1.0),
        ))
        violations = validate(replace(spec, sue=lonely))
        assert any("exactly one entry service" in v.message for v in violations)

    def test_alpha_range(self):
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, detection=replace(spec.detection, alpha=1.0))
        assert any("alpha" in v.field for v in validate(bad))

    @pytest.mark.parametrize("strategy", ["always_on", "probabilistic"])
    def test_trace_rate_bounded_under_every_strategy(self, strategy):
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, sue=replace(spec.sue, trace_config=TraceConfigSpec(strategy, 5.0)))
        assert [str(v) for v in validate(bad)] == [
            "sue.trace_config.rate: rate must be within [0, 1]"
        ]

    def test_bound_violations_name_the_field(self):
        spec = parse_experiment(MINIMAL)
        service = replace(spec.sue.services[0], service_time=LognormalSpec(0.0, 0.5))
        bad = replace(
            spec,
            seed=2**64,
            sue=replace(spec.sue, services=(service,)),
            workload=replace(spec.workload, think_time=LognormalSpec(1000.0, math.nan)),
            treatments=(replace(spec.treatments[0], start_ms=0),),
        )
        assert [str(v) for v in validate(bad)] == [
            "seed: seed must be within [0, 18446744073709551615]",
            "sue.services[0].service_time.median_ms: median_ms must be within (0, 9007199254740992]",
            "workload.think_time.sigma: sigma must be >= 0",
            "treatments[0].start_s: start_s must be > 0",
        ]

    def test_durations_no_run_can_simulate_rejected_at_their_field(self):
        """Edge latencies, network delays, error response times and lognormal
        medians stop at 2**53 ms; a run's int64 clock would pass 2**63 - 1 ms
        on the first such duration."""
        spec = small_spec(repetitions=1)
        sue = spec.sue

        def durations(ms):
            gateway, backend = sue.services
            return replace(
                spec, workload=replace(spec.workload, think_time=LognormalSpec(ms, 0.5)),
                treatments=(NetworkDelay("delay", "backend", 40_000, 80_000, ms, ms),),
                sue=replace(sue, edges=(replace(sue.edges[0], latency_ms=ms),), services=(
                    gateway, replace(backend, service_time=LognormalSpec(ms, 0.0), error_response_time_ms=ms))))

        assert config.MAX_DURATION_MS == 2**53
        assert validate(durations(2**53)) == []
        assert [str(v) for v in validate(durations(2**53 + 1))] == [
            "sue.services[1].service_time.median_ms: median_ms must be within (0, 9007199254740992]",
            "sue.services[1].error_response_time_ms: error_response_time_ms must be within [0, 9007199254740992]",
            "sue.edges[0].latency_ms: latency_ms must be within [0, 9007199254740992]",
            "workload.think_time.median_ms: median_ms must be within (0, 9007199254740992]",
            "treatments[0].delay_min_ms: delay_min_ms must be within [0, 9007199254740992]",
            "treatments[0].delay_max_ms: delay_max_ms must be within [0, 9007199254740992]",
        ]
        too_long = replace(sue, edges=(replace(sue.edges[0], latency_ms=2**63),),
                           services=(sue.services[0], replace(sue.services[1], service_time=LognormalSpec(1e19, 0.5))))
        assert [v.field for v in validate(replace(spec, sue=too_long))] == [
            "sue.services[1].service_time.median_ms", "sue.edges[0].latency_ms"]

    @pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "a\0b", "", ".", ".."])
    def test_names_that_leave_the_output_directory_rejected(self, name):
        spec = parse_experiment(MINIMAL)
        bad = replace(
            spec,
            name=name,
            treatments=(replace(spec.treatments[0], name=name),),
            responses=(replace(spec.responses[0], name=name),),
        )
        assert [v.field for v in validate(bad)] == ["name", "treatments[0].name", "responses[0].name"]
        assert validate(bad)[0].message == (
            f"name must be free of '/', '\\\\', '\\x00' and not one of '', '.', '..', got {name!r}")

    def test_a_response_named_spans_rejected(self):
        """Its CSV file would be written over the spans file of its run.
        Only a response name is reserved so."""
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, responses=(replace(spec.responses[0], name="spans"),))
        assert [str(v) for v in validate(bad)] == [
            "responses[0].name: name must be free of '/', '\\\\', '\\x00' and not one of '', '.', '..', 'spans', "
            "got 'spans'"]
        assert validate(replace(spec, name="spans", treatments=(replace(spec.treatments[0], name="spans"),))) == []

    def test_validate_is_pure(self):
        spec = parse_experiment(MINIMAL)
        bad = replace(spec, repetitions=0)
        assert validate(bad) == validate(bad)


class TestRoundTrip:
    @pytest.mark.parametrize("name", CANONICAL_NAMES)
    def test_shipped_files_round_trip(self, name):
        spec = parse_experiment_file(experiment_path(name))
        assert parse_experiment(render_experiment(spec)) == spec

    def test_constructed_spec_round_trips(self):
        spec = small_spec(
            detection=DetectionSpec(mechanism="threshold_alert", alpha=0.55, alert_k=2.5),
            treatments=(
                TracingSamplingRate(name="rate", rate=0.125),
                NetworkDelay(
                    name="delay",
                    target="backend",
                    start_ms=30_000,
                    end_ms=60_000,
                    delay_min_ms=5,
                    delay_max_ms=50,
                ),
                PacketCorruption(
                    name="corrupt",
                    target="backend",
                    start_ms=30_000,
                    end_ms=60_000,
                    probability=0.05,
                ),
            ),
        )
        text = render_experiment(spec)
        assert "kind: packet_corruption" in text
        assert parse_experiment(text) == spec

    def test_exponent_without_point_or_sign_is_a_float(self, baseline_spec):
        text = render_experiment(baseline_spec)
        assert "tol: 1.0e-06" in text
        spec = parse_experiment(text.replace("tol: 1.0e-06", "tol: 1e-6"))
        assert spec.detection.tol == 1e-06
        assert spec == baseline_spec

    def test_json_document_round_trips(self, baseline_spec):
        doc = yaml.safe_load(render_experiment(baseline_spec))
        assert '"tol": 1e-06' in json.dumps(doc)
        assert parse_experiment(json.dumps(doc)) == baseline_spec

    def test_string_that_reads_as_a_float_keeps_its_quotes(self):
        spec = small_spec(name="6e3")
        assert parse_experiment(render_experiment(spec)) == spec


class TestSpecDigest:
    """Every report carries ``spec_digest``, the sha256 of the canonical
    rendering, so any drift in ``render_experiment`` changes report bytes.
    These pins catch it without running a simulation."""

    PINNED = {
        "experiments/baseline.yaml": "fdb01e3f0ac422decf5208c663eb150a8f4378c4a87eef574235b8bd049d80ea",
        "experiments/alternative_a.yaml": "f0331e527b40e543a963c584c37a3a792495d82e4fd27a7682c83226d820f96c",
        "experiments/alternative_b.yaml": "29781aeaac223b922069395bb97b613408999233a7471f0c7d174a65296998db",
        "experiments/alternative_c.yaml": "9a3232881a4f5d9d7ef10c7d44329ba6d124c1ba0da3b146bcb0e84a12741c81",
        "bench/workloads/surge.yaml": "723d63d60e3a8442b3fe64b943960f6351440f99fec1331895cc047149ecd157",
        "bench/workloads/dense.yaml": "fb41eb3184f0b1cd4144aa6468aa02838dbc366b91e395bde30fce7de53111ee",
    }

    @pytest.mark.parametrize("path", sorted(PINNED))
    def test_spec_digest_pinned(self, path):
        spec = parse_experiment_file(REPO_ROOT / path)
        assert spec_digest(spec) == "sha256:" + self.PINNED[path]


def spec_objects(obj, path=()):
    """(document path, object) of ``obj`` and of every object it holds."""
    yield path, obj
    for f in field_table(type(obj)):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from spec_objects(value, path + (f.key,))
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                yield from spec_objects(item, path + (f.key, i))


# The baseline with one treatment of every kind, each with every field it may hold.
BASELINE = parse_experiment_file(experiment_path("baseline"))
WINDOW = dict(target="recommendation", start_ms=250_000, end_ms=490_000)
EVERY_KIND = replace(BASELINE, treatments=(
    MetricSamplingInterval(name="sampling", metric="system_cpu", interval_ms=10_000),
    TracingSamplingRate(name="rate", rate=0.05),
    TracingSamplingStrategy(name="strategy", strategy="always_on", rate=0.25),
    *BASELINE.treatments,
    Kill(name="kill", **WINDOW),
    PacketCorruption(name="corruption", probability=0.1, **WINDOW),
    Stress(name="stress", factor=3.0, **WINDOW),
))
EVERY_KIND_DOC = yaml.safe_load(render_experiment(EVERY_KIND))
EVERY_KIND_OBJECTS = list(spec_objects(EVERY_KIND))
# (document path, field, value) of every bounded field the rendering writes.
LEAVES = [(path + (f.key,), f, getattr(obj, f.name)) for path, obj in EVERY_KIND_OBJECTS
          for f in field_table(type(obj)) if f.bound is not None and getattr(obj, f.name) is not None]
# Document path and field of every key unique within its list that some item
# before it holds too, and of every field that names a declared name.
LATER_UNIQUE_KEYS = [(path + (f.key,), f) for path, obj in EVERY_KIND_OBJECTS
                     for f in field_table(type(obj)) if f.unique and path[-1] > 0]
NAME_FIELDS = [(path + (f.key,), f) for path, obj in EVERY_KIND_OBJECTS for f in field_table(type(obj)) if f.names]
OBJECT_CLASSES = list(dict.fromkeys(type(o) for _, o in EVERY_KIND_OBJECTS if type(o) not in TREATMENT_KINDS.values()))


@functools.cache
def schema_validator():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft7Validator(json.loads(SCHEMA_PATH.read_text()))


def parser_rejects(doc) -> bool:
    try:
        _parse_obj(ExperimentSpec, doc, "")
    except ExperimentFormatError:
        return True
    return False


def key_edit_disagreements(path) -> list:
    """Each edit of the object at ``path`` in the every-kind document, one key
    deleted or the unknown key ``bogus`` added, that the schema and the parser
    judge differently, as (dotted path, key)."""
    disagreements = []
    for key in [*functools.reduce(operator.getitem, path, EVERY_KIND_DOC), "bogus"]:
        doc = copy.deepcopy(EVERY_KIND_DOC)
        node = functools.reduce(operator.getitem, path, doc)
        if node.pop(key, None) is None:  # no value in the document is None
            node[key] = 1
        if schema_validator().is_valid(doc) == parser_rejects(doc):
            disagreements.append((dotted(path), key))
    return disagreements


class TestSchemaDescription:
    def test_schema_file_is_generated_from_the_field_tables(self):
        assert SCHEMA_PATH.read_text() == json.dumps(experiment_schema(), indent=2) + "\n", (
            "regenerate with: PYTHONPATH=src python -c 'import json; from oxn.config import experiment_schema; "
            "print(json.dumps(experiment_schema(), indent=2))' > src/oxn/experiment_schema.json")

    def test_every_kind_document_is_a_valid_experiment(self):
        assert {t.kind for t in EVERY_KIND.treatments} == set(TREATMENT_KINDS)
        assert validate(EVERY_KIND) == []
        assert schema_validator().is_valid(EVERY_KIND_DOC)

    def test_shipped_files_conform_to_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for name in CANONICAL_NAMES:
            doc = yaml.safe_load(experiment_path(name).read_text())
            jsonschema.validate(doc, schema)

    def test_schema_rejects_unknown_top_level_key(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        doc = yaml.safe_load(experiment_path("baseline").read_text())
        doc["flavor"] = "vanilla"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)

    @pytest.mark.parametrize("cls", OBJECT_CLASSES, ids=[cls.__name__ for cls in OBJECT_CLASSES])
    def test_schema_matches_field_table(self, cls):
        """At every object of class ``cls`` in the every-kind document, the
        schema rejects a deleted key or an added unknown one exactly when the
        parser, which reads the field table, rejects it."""
        paths = [path for path, obj in EVERY_KIND_OBJECTS if type(obj) is cls]
        assert paths
        assert [d for path in paths for d in key_edit_disagreements(path)] == []

    def test_schema_treatment_keys_match_kind_classes(self):
        """The same at the treatment of every kind."""
        paths = [path for path, obj in EVERY_KIND_OBJECTS if type(obj) in TREATMENT_KINDS.values()]
        assert len(paths) == len(TREATMENT_KINDS)
        assert [d for path in paths for d in key_edit_disagreements(path)] == []

    def test_registered_mechanism_conforms_to_schema(self, monkeypatch):
        jsonschema = pytest.importorskip("jsonschema")
        monkeypatch.setitem(config._REGISTRY, "mine", config._REGISTRY["threshold_alert"])
        doc = yaml.safe_load(experiment_path("baseline").read_text())
        doc["detection"]["mechanism"] = "mine"
        assert validate(parse_experiment(yaml.safe_dump(doc))) == []
        jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))

    @pytest.mark.parametrize("value, accepted", [(16.0, True), (16.5, False), (True, False)],
                             ids=["integral_float", "fraction", "true"])
    def test_schema_and_parser_judge_an_integer_field_alike(self, value, accepted):
        """Value edits: every integer field of the every-kind document set to
        ``value``. JSON Schema's ``integer`` admits a number with a zero
        fraction, and so does the parser."""
        leaves = [path + (f.key,) for path, obj in EVERY_KIND_OBJECTS for f in field_table(type(obj))
                  if f.schema().get("type") == "integer"]
        assert len(leaves) >= 5
        judged = []
        for leaf in leaves:
            doc = copy.deepcopy(EVERY_KIND_DOC)
            set_leaf(doc, leaf, value)
            judged.append((dotted(leaf), schema_validator().is_valid(doc), not parser_rejects(doc)))
        assert judged == [(leaf, accepted, accepted) for leaf, _, _ in judged]

    @pytest.mark.parametrize("treatments", [None, [], "instrumentation_only"],
                             ids=["removed", "empty", "instrumentation_only"])
    def test_schema_rejects_a_file_without_a_fault(self, treatments):
        """The schema requires ``treatments`` and a fault kind in it, as the
        parser requires the key and ``validate`` a fault treatment."""
        doc = yaml.safe_load(experiment_path("baseline").read_text())
        if treatments is None:
            del doc["treatments"]
        elif treatments == "instrumentation_only":
            alternative = yaml.safe_load(experiment_path("alternative_a").read_text())
            doc["treatments"] = [t for t in alternative["treatments"] if t["kind"] == "metric_sampling_interval"]
            assert len(doc["treatments"]) == 1
        else:
            doc["treatments"] = treatments
        assert not schema_validator().is_valid(doc)
        if treatments is None:
            assert parser_rejects(doc)
        else:
            assert [str(v) for v in validate(_parse_obj(ExperimentSpec, doc, ""))] == [
                "treatments: experiment has no fault treatments to run"]

    @pytest.mark.parametrize(
        "treatment",
        [
            {"kind": "pause", "factor": 2},
            {"kind": "pause", "bogus": 1},
            {"kind": "stress"},
        ],
        ids=["pause_with_factor", "pause_with_unknown_key", "stress_without_factor"],
    )
    def test_schema_rejects_treatments_the_parser_rejects(self, treatment):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        doc = yaml.safe_load(experiment_path("baseline").read_text())
        window = {"target": "recommendation", "start_s": 250, "end_s": 490}
        doc["treatments"] = [{"name": "t", **treatment, **window}]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)
        with pytest.raises(ExperimentFormatError):
            parse_experiment(yaml.safe_dump(doc))


def oxn_modules_after(code: str) -> str:
    """The output of ``code``, run in a fresh isolated interpreter with this
    oxn first on ``sys.path``, and then the oxn and numpy modules it loaded."""
    code = (f"import sys; sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n{code}\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('oxn', 'numpy')))")
    return subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout


def test_import_parse_and_validate_leave_numpy_unloaded():
    """numpy loads only once a simulation starts: importing oxn and checking
    the canonical files, which a run's setup time measures, load the
    experiment format alone."""
    paths = [str(experiment_path(name)) for name in CANONICAL_NAMES]
    code = f"import oxn\nfor path in {paths!r}:\n    assert oxn.validate(oxn.parse_experiment_file(path)) == []"
    assert oxn_modules_after(code) == "['oxn', 'oxn.config']\n"


def test_cli_validate_leaves_numpy_unloaded():
    """The same for ``oxn validate``, run as ``python -I -m oxn.cli`` runs it:
    as ``__main__``, so ``oxn.cli`` is not in ``sys.modules``."""
    code = (f"import runpy; sys.argv[1:] = ['validate', {str(experiment_path('baseline'))!r}]\n"
            "try:\n    runpy.run_module('oxn.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    print('exit', exc.code)")
    assert oxn_modules_after(code) == "ok: baseline\nexit 0\n['oxn', 'oxn.config']\n"


def test_cli_compare_leaves_numpy_unloaded(tmp_path):
    """``oxn compare`` reads two reports with the report module alone: it
    loads neither the runner nor numpy."""
    doc = {"experiment": "x", "cost": {"total": 1.0},
           **_scored_doc(build_matrix({("f", "r"): [1.0, None]}, ["f"], ["r"], 0.5))}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(json.dumps(doc))
    code = (f"import runpy; sys.argv[1:] = ['compare', *{[str(p) for p in paths]!r}]\n"
            "try:\n    runpy.run_module('oxn.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    print('exit', exc.code)")
    *comparison, exit_line, modules = oxn_modules_after(code).splitlines()
    assert json.loads("\n".join(comparison))["cells_changed"] == []
    assert (exit_line, modules) == ("exit 0", "['oxn', 'oxn.config', 'oxn.costs', 'oxn.report']")


def test_package_root_names_are_their_modules_objects():
    """Each name ``oxn`` exports, read on first use or not, is the object its
    module defines; a name it does not export is an AttributeError."""
    import oxn

    for name in oxn.__all__:
        module = importlib.import_module(f"oxn.{oxn._LAZY.get(name, 'config')}")
        assert getattr(oxn, name) is getattr(module, name) and getattr(module, name).__module__ == module.__name__
    with pytest.raises(AttributeError, match="has no attribute 'init_sim'"):
        oxn.init_sim


# Every experiment file in the repository and the spec texts the tests build.
YAML_TEXTS = {
    **{path.relative_to(REPO_ROOT).as_posix(): path.read_text()
       for folder in ("experiments", "bench/workloads") for path in sorted((REPO_ROOT / folder).glob("*.yaml"))},
    "MINIMAL": MINIMAL,
    "EVERY_KIND": render_experiment(EVERY_KIND),
    "small_spec": render_experiment(small_spec()),
}


class TestLoaders:
    """libyaml's parser, where PyYAML has it, and PyYAML's Python parser read
    every file alike and reject every malformed one at one position."""

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
    def test_libyaml_parses_where_pyyaml_has_it(self):
        assert issubclass(config._Loader, yaml.CSafeLoader)

    def test_every_file_is_read(self):
        assert {"experiments/baseline.yaml", "bench/workloads/dense.yaml", "bench/workloads/surge.yaml"} < set(YAML_TEXTS)

    @pytest.mark.parametrize("name", YAML_TEXTS)
    def test_both_parsers_give_one_spec(self, name, monkeypatch):
        spec = parse_experiment(YAML_TEXTS[name])
        monkeypatch.setattr(config, "_Loader", config._PyLoader)
        assert parse_experiment(YAML_TEXTS[name]) == spec
        assert render_experiment(parse_experiment(YAML_TEXTS[name])) == render_experiment(spec)

    @pytest.mark.parametrize("text, position", [
        ("[oops", "line 1, column 6"),
        ("name: [oops\n", "line 2, column 1"),
        ("a: b: c\n", "line 1, column 5"),
        ("sue:\n  services: []\n   seed: 1\n", "line 3, column 4"),
        ("sue:\n\tservices: []\n", "line 2, column 1"),
        ("name: 'x", "line 1, column 9"),
        ("name: \x07\n", None),
        ("name: \ud800\n", None),
    ], ids=["flow_at_end", "flow", "nested_value", "indent", "tab_indent", "quote", "control", "lone_surrogate"])
    def test_both_parsers_reject_at_one_position(self, text, position, monkeypatch):
        with pytest.raises(ExperimentFormatError) as raised:
            parse_experiment(text)
        monkeypatch.setattr(config, "_Loader", config._PyLoader)
        with pytest.raises(ExperimentFormatError) as raised_by_python:
            parse_experiment(text)
        assert str(raised.value) == str(raised_by_python.value)
        assert str(raised.value).startswith(f"syntax error at {position}:" if position else "syntax error: ")

    @pytest.mark.parametrize("loader", ["_Loader", "_PyLoader"])
    def test_a_date_is_read_as_a_string(self, loader, monkeypatch):
        monkeypatch.setattr(config, "_Loader", getattr(config, loader))
        assert parse_experiment(MINIMAL.replace("name: minimal", "name: 2001-12-05")).name == "2001-12-05"
        with pytest.raises(ExperimentFormatError, match="^seed must be an integer$"):
            parse_experiment(MINIMAL.replace("seed: 1", "seed: 2001-13-45"))

    @pytest.mark.parametrize("loader", ["_Loader", "_PyLoader"])
    @pytest.mark.parametrize("old, new, position, key", [
        ("seed: 1\n", "seed: 1\nrepetitions: 10\nrepetitions: 3\n", "line 5, column 1", "repetitions"),
        ("{median_ms: 10, sigma: 0.0}", "{median_ms: 10, sigma: 0.0, median_ms: 20}", "line 8, column 49", "median_ms"),
    ], ids=["top_level", "nested_flow"])
    def test_a_repeated_key_is_rejected_at_its_second_place(self, loader, old, new, position, key, monkeypatch):
        monkeypatch.setattr(config, "_Loader", getattr(config, loader))
        with pytest.raises(ExperimentFormatError) as raised:
            parse_experiment(MINIMAL.replace(old, new))
        assert str(raised.value) == f"syntax error at {position}: duplicate key '{key}'"

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
    def test_libyaml_reads_a_tab_after_a_colon_as_a_space(self, monkeypatch):
        """YAML allows it; PyYAML's Python parser rejects it."""
        assert parse_experiment(MINIMAL.replace("seed: 1", "seed:\t1")) == parse_experiment(MINIMAL)
        monkeypatch.setattr(config, "_Loader", config._PyLoader)
        with pytest.raises(ExperimentFormatError, match="line 3, column 6"):
            parse_experiment(MINIMAL.replace("seed: 1", "seed:\t1"))


def near_bound(f, current) -> list:
    """File values for a bounded field that now holds ``current``: each end of
    its bound and one step either side of that end, a step being one unit of
    the attribute (1 ms for a seconds field) or one float ulp; for a choice
    field, every choice and one outsider; for a field that excludes
    characters, the value itself, the value with each one appended and each
    excluded word."""
    if isinstance(f.bound, OneOf):
        return list(f.bound.choices) + ["bogus"]
    if isinstance(f.bound, Excludes):
        return [current] + [current + c for c in f.bound.chars] + list(f.bound.words)
    ends = [x for x in f.bound[:2] if x != math.inf]
    if isinstance(current, float):
        near = [(math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)) for x in ends]
    else:
        near = [(x - 1, x, x + 1) for x in ends]
    return [f.render(y) for trio in near for y in trio]


def any_file_value(f, current):
    """Any file value of the field's type. NaN is left out: JSON Schema cannot
    state it, and the parser rejects it."""
    if isinstance(f.bound, OneOf):
        return st.sampled_from(near_bound(f, current))
    if isinstance(f.bound, Excludes):
        return st.text(st.sampled_from("a._-" + f.bound.chars)) | st.text()
    if isinstance(current, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    return st.integers(-(2**70), 2**70).map(f.render)


def with_every_edge(test):
    """Run ``test`` on every value ``near_bound`` gives for every leaf."""
    for path, f, current in LEAVES:
        for value in near_bound(f, current):
            test = example((path, f, value))(test)
    return test


class TestBoundsAgreeWithSchema:
    """``validate`` and the JSON Schema draw each single-field bound at the
    same place."""

    @given(
        st.sampled_from(LEAVES).flatmap(
            lambda leaf: any_file_value(leaf[1], leaf[2]).map(lambda value: (leaf[0], leaf[1], value))
        )
    )
    @with_every_edge
    @settings(max_examples=100, deadline=None)
    def test_validate_flags_the_leaf_iff_schema_rejects(self, drawn):
        path, f, value = drawn
        doc = copy.deepcopy(EVERY_KIND_DOC)
        set_leaf(doc, path, value)
        rejected = not schema_validator().is_valid(doc)
        # Cross-field checks may name the same path (``duration_s`` against
        # ``ramp_up_s``), so the bound's violation is told by its message form.
        # The document is parsed without a YAML round trip, which would
        # dominate the run time and is covered by TestRoundTrip.
        flagged = any(
            v.field == dotted(path) and v.message.startswith((f"{f.key} must be ", f"unknown {f.key} "))
            for v in validate(_parse_obj(ExperimentSpec, doc, ""))
        )
        assert flagged == rejected, (dotted(path), value)


class TestNamesFromFieldTable:
    """``validate`` flags a repeated unique key and an undeclared name at
    exactly the field's path, for every such field the field table marks."""

    def test_every_rule_is_exercised(self):
        assert {dotted(path[-3:-2] + path[-1:]) for path, _ in LATER_UNIQUE_KEYS} == {
            "services.id", "metric_points.metric_name", "treatments.name", "responses.name"}
        assert {f.names for _, f in NAME_FIELDS} == {"service", "target", "metric"}

    @pytest.mark.parametrize("path, f", LATER_UNIQUE_KEYS, ids=[dotted(path) for path, _ in LATER_UNIQUE_KEYS])
    def test_repeated_unique_key_is_flagged_at_the_later_item(self, path, f):
        doc = copy.deepcopy(EVERY_KIND_DOC)
        earlier = functools.reduce(operator.getitem, path[:-2], doc)[path[-2] - 1][f.key]
        set_leaf(doc, path, earlier)
        duplicates = [v for v in validate(_parse_obj(ExperimentSpec, doc, "")) if v.message.startswith("duplicate ")]
        assert duplicates == [Violation(dotted(path), f"duplicate {f.key} '{earlier}'")]

    @pytest.mark.parametrize("path, f", NAME_FIELDS, ids=[dotted(path) for path, _ in NAME_FIELDS])
    def test_undeclared_name_is_flagged_at_its_field(self, path, f):
        doc = copy.deepcopy(EVERY_KIND_DOC)
        set_leaf(doc, path, "nowhere")
        violations = validate(_parse_obj(ExperimentSpec, doc, ""))
        assert violations == [Violation(dotted(path), f"unresolved {f.names} 'nowhere'")]
