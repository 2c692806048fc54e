from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    random_trace,
    reference_feature_check,
    reference_find_cycle,
    reference_parse_trace,
    serialize_trace,
)

from graphlets.trace import (
    Artifact,
    ArtifactType,
    Edge,
    EdgeRole,
    Execution,
    ExecutionState,
    FeatureKind,
    FeatureStats,
    OperatorKind,
    Trace,
    TraceParseError,
    _cycle_node,
    parse_trace,
    parse_trace_file,
    valid_traces,
    validate_trace,
)

MINIMAL = [
    json.dumps(
        {
            "kind": "execution",
            "id": "eg",
            "operator": "example_gen",
            "pipeline_id": "p",
            "start_at": 1,
            "end_at": 2,
            "state": "complete",
            "cpu_cost": 1.0,
            "properties": {},
        }
    ),
    json.dumps(
        {
            "kind": "artifact",
            "id": "s",
            "type": "data_span",
            "created_at": 2,
            "pipeline_id": "p",
            "properties": {
                "span_stats": {
                    "features": [
                        {"name": "x", "type": "numerical", "hist": [0.1] * 10}
                    ]
                }
            },
        }
    ),
    json.dumps({"kind": "edge", "from": "eg", "to": "s", "role": "output"}),
]


def _exec(node_id, operator, start, end, pipeline="p", **props):
    return json.dumps(
        {
            "kind": "execution",
            "id": node_id,
            "operator": operator,
            "pipeline_id": pipeline,
            "start_at": start,
            "end_at": end,
            "state": "complete",
            "cpu_cost": 1.0,
            "properties": props,
        }
    )


def _artifact(node_id, a_type, created, pipeline="p"):
    return json.dumps(
        {
            "kind": "artifact",
            "id": node_id,
            "type": a_type,
            "created_at": created,
            "pipeline_id": pipeline,
            "properties": {},
        }
    )


def _edge(src, dst, role):
    return json.dumps({"kind": "edge", "from": src, "to": dst, "role": role})


def test_parse_minimal_file():
    trace = parse_trace(MINIMAL)
    assert len(trace.artifacts) == 1
    assert len(trace.executions) == 1
    assert len(trace.edges) == 1


def test_parse_rejects_swapped_edge_orientation():
    lines = MINIMAL[:2] + [_edge("s", "eg", "output")]
    with pytest.raises(TraceParseError, match="bipartite orientation"):
        parse_trace(lines)


def test_parse_rejects_duplicate_node_id():
    with pytest.raises(TraceParseError, match="duplicate node id"):
        parse_trace(MINIMAL + [MINIMAL[1]])


def test_parse_rejects_dangling_edge():
    with pytest.raises(TraceParseError, match="does not exist"):
        parse_trace(MINIMAL[:2] + [_edge("eg", "ghost", "output")])


def test_parse_reports_line_numbers():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace([MINIMAL[0], "{broken"])


def test_parse_rejects_missing_timestamps():
    bad = json.loads(MINIMAL[0])
    del bad["end_at"]
    with pytest.raises(TraceParseError, match="end_at"):
        parse_trace([json.dumps(bad)])


def _with(line, path, value):
    """``line`` re-encoded with the field at ``path`` (keys and list indexes) set."""
    record = json.loads(line)
    target = record
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(record)


TRANSFORM = _exec("tf", "transform", 1, 2, analyzers=["mean"])
SPAN_STATS = ("properties", "span_stats")
HIST = SPAN_STATS + ("features", 0, "hist")


@pytest.mark.parametrize(
    "lines, message",
    [
        ([_with(MINIMAL[0], ("cpu_cost",), 10**400)] + MINIMAL[1:], "line 1: cpu_cost"),
        ([MINIMAL[0], _with(MINIMAL[1], SPAN_STATS, [1]), MINIMAL[2]],
         "line 2: span_stats must be an object"),
        ([MINIMAL[0], _with(MINIMAL[1], HIST, ["x"] + [0.1] * 9), MINIMAL[2]],
         "line 2: numerical feature 'x' hist must hold numbers"),
        ([_with(TRANSFORM, ("properties", "analyzers"), 5)], "line 1: analyzers must be a list"),
        ([MINIMAL[0], '{"kind": ' + "1" * 5000 + "}"], "line 2: invalid JSON"),
        ([MINIMAL[0], "[" * 100_000 + "]" * 100_000], "line 2: invalid JSON"),
        ([MINIMAL[0], MINIMAL[2] + " {}"], r"line 2: invalid JSON \(Extra data\)"),
    ],
    ids=[
        "huge_cpu_cost", "span_stats_not_object", "hist_not_numbers", "analyzers_not_list",
        "integer_literal_over_digit_limit", "nesting_too_deep", "data_after_the_record",
    ],
)
def test_parse_malformed_field_raises_typed_error(lines, message):
    with pytest.raises(TraceParseError, match=message):
        parse_trace(lines)


FUZZ_LINES = [
    _exec("t", "trainer", 1, 4, model_type="dnn", architecture="ff", code_version="v1"),
    TRANSFORM,
    _with(
        MINIMAL[1],
        SPAN_STATS + ("features",),
        [
            {"name": "x", "type": "numerical", "hist": [0.1] * 10},
            {"name": "y", "type": "categorical", "top10": [5, 3], "unique": 12, "total": 20},
        ],
    ),
    _edge("tf", "s", "output"),
    _edge("s", "t", "input"),
]


def _field_paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _field_paths(child, prefix + (key,))


FUZZ_FIELDS = [
    (i, path) for i, line in enumerate(FUZZ_LINES) for path in _field_paths(json.loads(line))
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


FEATURES = SPAN_STATS + ("features",)


@pytest.mark.parametrize(
    "index, path, value, message",
    [
        # ``index`` None: every node record, so that the file's pipeline ids agree.
        (None, ("pipeline_id",), None, "line 1: pipeline_id must be a string"),
        (None, ("pipeline_id",), 5, "line 1: pipeline_id must be a string"),
        (2, FEATURES + (0, "name"), None, "line 3: span_stats feature name must be a string"),
        (2, FEATURES + (1, "top10"), "21",
         "line 3: categorical feature 'y' top10 must be a list of integers"),
        (2, FEATURES + (1, "top10"), [2.9, 1.2],
         "line 3: categorical feature 'y' top10 must be a list of integers"),
        (2, FEATURES + (1, "unique"), True,
         "line 3: categorical feature 'y' unique/total must be integers"),
        (2, FEATURES + (1, "total"), "3",
         "line 3: categorical feature 'y' unique/total must be integers"),
        (2, FEATURES + (0, "hist", 0), True,
         "line 3: numerical feature 'x' hist must hold numbers"),
        (2, FEATURES + (0, "hist", 0), "1",
         "line 3: numerical feature 'x' hist must hold numbers"),
        (2, ("properties",), [], "line 3: artifact properties must be an object"),
        (1, ("properties",), 0, "line 2: execution properties must be an object"),
        (1, ("properties",), False, "line 2: execution properties must be an object"),
        (1, ("properties",), "", "line 2: execution properties must be an object"),
        (0, ("properties", "code_version"), {"a": 1}, "line 1: code_version must be a string"),
        (0, ("properties", "architecture"), [1], "line 1: architecture must be a string"),
    ],
    ids=[
        "pipeline_id_null", "pipeline_id_int", "feature_name_null", "top10_string",
        "top10_floats", "unique_bool", "total_string", "hist_bool", "hist_string",
        "properties_empty_list", "properties_zero", "properties_false", "properties_empty_string",
        "code_version_object", "architecture_list",
    ],
)
def test_ill_typed_field_is_rejected_not_coerced(index, path, value, message):
    lines = copy.copy(FUZZ_LINES)
    for i in range(3) if index is None else [index]:
        lines[i] = _with(lines[i], path, value)
    reference_parse_trace(lines)  # the reference parser coerced the value
    with pytest.raises(TraceParseError, match=re.escape(message)):
        parse_trace(lines)


def test_null_or_absent_optional_field_means_none():
    trainer, transform, span = (json.loads(line) for line in FUZZ_LINES[:3])
    trainer["properties"].update(code_version=None, architecture=None)
    del transform["properties"]
    span["properties"] = None
    for record in (trainer, transform, span):
        del record["pipeline_id"]
    trace = parse_trace([json.dumps(trainer), json.dumps(transform), json.dumps(span)])
    assert trace.pipeline_id == ""
    assert trace.executions["t"].code_version is None
    assert trace.executions["t"].architecture is None
    assert trace.executions["tf"].analyzers is None
    assert trace.artifacts["s"].span_stats is None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _ill_typed(record) -> bool:
    """True if a node record holds a field of a JSON type the format does not
    allow, of the kinds the reference parser coerced instead of rejecting."""
    if not isinstance(record, dict) or record.get("kind") not in ("artifact", "execution"):
        return False
    if not isinstance(record.get("pipeline_id", ""), str):
        return True
    props = record.get("properties")
    if props is not None and not isinstance(props, dict):
        return True
    props = props or {}
    if record["kind"] == "execution":
        return any(
            props.get(key) is not None and not isinstance(props[key], str)
            for key in ("code_version", "architecture")
        )
    stats = props.get("span_stats")
    features = stats.get("features") if isinstance(stats, dict) else None
    for f in features if isinstance(features, list) else ():
        if not isinstance(f, dict):
            continue
        if "name" in f and not isinstance(f["name"], str):
            return True
        if f.get("type") == "numerical" and isinstance(f.get("hist"), list):
            if not all(_is_int(b) or isinstance(b, float) for b in f["hist"]):
                return True
        elif f.get("type") == "categorical":
            top10 = f.get("top10")
            if top10 is not None and not (isinstance(top10, list) and all(map(_is_int, top10))):
                return True
            if any(f.get(key) is not None and not _is_int(f[key]) for key in ("unique", "total")):
                return True
    return False


# The rules an ill-typed field breaks; the reference parser coerced such fields.
TYPE_RULES = re.compile(
    r"must be a string|must be a list of integers|must be integers|hist must hold numbers"
    r"|properties must be an object"
)


def _outcome(parse, lines):
    """The parsed trace's repr (NaN-safe, unlike ==), or the error's line and text."""
    try:
        return repr(parse(lines))
    except TraceParseError as exc:
        return exc.line, str(exc)


def _records(lines):
    for line in lines:
        try:
            yield json.loads(line)
        except (ValueError, RecursionError):
            pass


def _assert_parses_like_reference(lines):
    """Same trace or same error as ``reference_parse_trace``, except where a
    record holds an ill-typed field: then the parser rejects it by its rule."""
    got, want = _outcome(parse_trace, lines), _outcome(reference_parse_trace, lines)
    if got == want:
        return
    assert isinstance(got, tuple), f"accepted a file the reference rejects: {want}"
    assert TYPE_RULES.search(got[1]), (got, want)
    assert any(_ill_typed(r) for r in _records(lines)), (got, want)


def test_fuzz_base_record_set_is_valid():
    assert validate_trace(parse_trace(FUZZ_LINES)) == []


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=JSON_VALUES)
def test_any_field_value_parses_or_raises_parse_error(field, value):
    index, path = field
    lines = copy.copy(FUZZ_LINES)
    lines[index] = _with(lines[index], path, value) if path else json.dumps(value)
    try:
        parse_trace(lines)
    except TraceParseError as exc:
        assert exc.line is not None, exc
    _assert_parses_like_reference(lines)


@settings(max_examples=60, deadline=None)
@given(
    pyrandom=st.randoms(use_true_random=False),
    blanks=st.lists(st.sampled_from(["", "   ", "\t", " \u3000 "]), max_size=4),
    value=st.none() | JSON_VALUES,
)
def test_parse_matches_reference_on_shuffled_random_traces(pyrandom, blanks, value):
    """Random valid traces, shuffled, with blank lines, one record repeated and,
    when ``value`` is set, one field of one record replaced by it."""
    rng = np.random.default_rng(pyrandom.randrange(2**32))
    lines = list(serialize_trace(random_trace(rng, max_execs=25)))
    lines.append(pyrandom.choice(lines))
    pyrandom.shuffle(lines)
    if value is not None:
        i = pyrandom.randrange(len(lines))
        path = pyrandom.choice(list(_field_paths(json.loads(lines[i]))))
        lines[i] = _with(lines[i], path, value) if path else json.dumps(value)
    for blank in blanks:
        lines.insert(pyrandom.randrange(len(lines) + 1), blank)
    _assert_parses_like_reference(lines)


def test_valid_file_parses_without_json_loads_or_enum_calls(warm_pair_dir, monkeypatch):
    calls = []
    loads, enum_call = json.loads, type(ArtifactType).__call__

    def counting_loads(*args, **kwargs):
        calls.append("json.loads")
        return loads(*args, **kwargs)

    def counting_enum_call(cls, *args, **kwargs):
        calls.append(cls.__name__)
        return enum_call(cls, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    monkeypatch.setattr(type(ArtifactType), "__call__", counting_enum_call)
    trace = parse_trace_file(warm_pair_dir / "warmstart_pair.ndjson")
    assert calls == []
    assert validate_trace(trace) == []
    with pytest.raises(TraceParseError, match="line 2: invalid JSON"):
        parse_trace([MINIMAL[0], "{broken", MINIMAL[1]])
    assert calls == ["json.loads"]


def test_parse_trace_file_names_path_and_line(tmp_path):
    path = tmp_path / "p.ndjson"
    path.write_text(MINIMAL[0] + "\n{broken\n")
    with pytest.raises(TraceParseError) as err:
        parse_trace_file(path)
    assert str(err.value).startswith(f"{path}: line 2: invalid JSON")
    assert err.value.line == 2


def test_parse_trace_file_rejects_non_utf8_with_path(tmp_path):
    path = tmp_path / "p.ndjson"
    path.write_bytes(b"\xff\xfe" + MINIMAL[0].encode("utf-16-le"))
    with pytest.raises(TraceParseError) as err:
        parse_trace_file(path)
    assert str(err.value).startswith(f"{path}: not UTF-8 text")


def test_valid_traces_rejects_missing_directory_or_one_without_traces(tmp_path):
    with pytest.raises(FileNotFoundError, match="corpus directory not found"):
        next(valid_traces(tmp_path / "missing"))
    (tmp_path / "truth.json").write_text("{}")
    with pytest.raises(ValueError, match="no trace files in"):
        next(valid_traces(tmp_path))


def test_parse_order_independent():
    a = parse_trace(MINIMAL)
    b = parse_trace(list(reversed(MINIMAL)))
    assert a == b


def test_unknown_property_keys_are_ignored():
    execution, artifact = json.loads(MINIMAL[0]), json.loads(MINIMAL[1])
    execution["properties"]["owner_team"] = "ranking"
    artifact["properties"]["retention"] = {"days": 30}
    trace = parse_trace([json.dumps(execution), json.dumps(artifact)] + MINIMAL[2:])
    assert trace == parse_trace(MINIMAL)


def test_validate_clean_fixture(warm_pair_trace):
    assert validate_trace(warm_pair_trace) == []


def test_validate_flags_cycle():
    lines = [
        _exec("e1", "trainer", 1, 2, model_type="dnn"),
        _exec("e2", "evaluator", 3, 4),
        _artifact("m", "model", 2),
        _artifact("r", "eval_result", 4),
        _edge("e1", "m", "output"),
        _edge("m", "e2", "input"),
        _edge("e2", "r", "output"),
        _edge("r", "e1", "input"),
    ]
    violations = validate_trace(parse_trace(lines))
    assert any("cycle through" in v for v in violations)


def test_validate_flags_trainer_without_model_type():
    lines = [_exec("t", "trainer", 1, 2)]
    violations = validate_trace(parse_trace(lines))
    assert any("missing model_type" in v for v in violations)


def test_validate_flags_missing_trainer():
    violations = validate_trace(parse_trace(MINIMAL))
    assert "trace has no trainer execution" in violations


def test_validate_flags_analyzers_outside_transform():
    lines = [_exec("t", "trainer", 1, 2, model_type="dnn", analyzers=["mean"])]
    violations = validate_trace(parse_trace(lines))
    assert any("analyzers only allowed" in v for v in violations)


def test_validate_flags_non_finite_cost_and_histogram():
    # Python's json reads NaN and Infinity; neither may pass validation.
    trainer = json.loads(_exec("t", "trainer", 1, 2, model_type="dnn"))
    trainer["cpu_cost"] = float("nan")
    other = json.loads(MINIMAL[0])
    other["cpu_cost"] = float("inf")
    span = json.loads(MINIMAL[1])
    span["properties"]["span_stats"]["features"][0]["hist"] = [float("nan")] + [0.1] * 9
    trace = parse_trace([json.dumps(trainer), json.dumps(other), json.dumps(span), MINIMAL[2]])
    violations = validate_trace(trace)
    assert "execution t: cpu_cost must be finite" in violations
    assert "execution eg: cpu_cost must be finite" in violations
    assert "artifact s: feature 'x' histogram has non-finite mass" in violations


def test_validate_flags_top_terms_short_of_total():
    # All ten terms are top terms, so their counts must add up to the total.
    span = _with(
        MINIMAL[1],
        SPAN_STATS + ("features",),
        [{"name": "c", "type": "categorical", "top10": [1] * 10, "unique": 10, "total": 11}],
    )
    violations = validate_trace(parse_trace([MINIMAL[0], span, MINIMAL[2]]))
    assert "artifact s: feature 'c' top-term counts do not cover the total" in violations


def test_validate_flags_non_finite_timestamps():
    trace = parse_trace(MINIMAL)
    ex = trace.executions["eg"]._replace(start_at=float("-inf"), end_at=float("nan"))
    art = trace.artifacts["s"]._replace(created_at=float("inf"))
    trace = dataclasses.replace(trace, executions={"eg": ex}, artifacts={"s": art})
    violations = validate_trace(trace)
    assert "execution eg: start_at must be finite" in violations
    assert "execution eg: end_at must be finite" in violations
    assert "artifact s: created_at must be finite" in violations


def test_index_orders_trainers_by_end_time():
    lines = [
        _exec("late", "trainer", 1, 100, model_type="dnn"),
        _exec("early", "trainer", 1, 50, model_type="dnn"),
    ]
    assert parse_trace(lines).trainers == ("early", "late")


def test_index_breaks_ties_by_node_id():
    lines = [
        _exec("tb", "trainer", 1, 100, model_type="dnn"),
        _exec("ta", "trainer", 1, 100, model_type="dnn"),
    ]
    assert parse_trace(lines).trainers == ("ta", "tb")


def test_index_fixture_trainers(warm_pair_trace):
    assert warm_pair_trace.trainers == ("t1", "t2")
    assert len(warm_pair_trace.parents["t2"]) == 2
    assert len(warm_pair_trace.children["t2"]) == 1


def test_every_edge_alternates_kinds(warm_pair_trace):
    executions = warm_pair_trace.executions
    for e in warm_pair_trace.edges:
        assert (e.src in executions) != (e.dst in executions)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_round_trip_random_traces(pyrandom):
    rng = np.random.default_rng(pyrandom.randrange(2**32))
    trace = random_trace(rng, max_execs=25)
    assert validate_trace(trace) == []
    reparsed = parse_trace(list(serialize_trace(trace)))
    assert reparsed == trace
    again = parse_trace(list(serialize_trace(reparsed)))
    assert again == reparsed


def test_reindexing_permuted_file_is_identical(warm_pair_dir):
    import random

    path = warm_pair_dir / "warmstart_pair.ndjson"
    lines = path.read_text().strip().splitlines()
    shuffled = lines[:]
    random.Random(3).shuffle(shuffled)
    a = parse_trace(lines)
    b = parse_trace(shuffled)
    assert a == b
    assert a.trainers == b.trainers
    assert (a.parents, a.children) == (b.parents, b.children)


def test_records_are_immutable_hashable_and_picklable(warm_pair_trace):
    trace = warm_pair_trace
    feature = trace.artifacts["span_a"].span_stats.features[0]
    records = [feature, trace.artifacts["span_a"], trace.executions["t2"], trace.edges[0]]
    assert [type(r) for r in records] == [FeatureStats, Artifact, Execution, Edge]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], "x")
        twin = record._replace()
        assert twin == record and twin is not record and hash(twin) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
    assert parse_trace(list(serialize_trace(trace))) == trace
    assert pickle.loads(pickle.dumps(trace)) == trace
    # Edges keep their (src, dst, role) ordering.
    assert list(trace.edges) == sorted(trace.edges)
    assert Edge("a", "b", EdgeRole.OUTPUT) > Edge("a", "b", EdgeRole.INPUT)
    assert trace.executions["t2"].group.value == "training"


def _graph(n_nodes, pairs):
    """A trace over ``n_nodes`` nodes, even ones executions and odd ones
    artifacts, with an edge for each distinct pair; kinds and roles are
    ignored by the cycle check."""
    executions, artifacts = {}, {}
    for i in range(n_nodes):
        node = f"n{i:02d}"
        if i % 2:
            artifacts[node] = Artifact(node, ArtifactType.OTHER, 1, "p")
        else:
            executions[node] = Execution(
                node, OperatorKind.TRAINER, "p", 1, 2, ExecutionState.COMPLETE, 1.0)
    edges = {Edge(f"n{a:02d}", f"n{b:02d}", EdgeRole.INPUT) for a, b in pairs}
    return Trace("p", artifacts, executions, tuple(sorted(edges)))


@settings(max_examples=300, deadline=None)
@given(
    n_nodes=st.integers(1, 12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30),
    acyclic=st.booleans(),
)
def test_index_cycle_check_matches_reference(n_nodes, pairs, acyclic):
    pairs = [(a % n_nodes, b % n_nodes) for a, b in pairs]
    if acyclic:
        pairs = [(a, b) for a, b in pairs if a < b]
    trace = _graph(n_nodes, pairs)
    want = reference_find_cycle(trace)
    assert _cycle_node(trace) == want
    if acyclic:
        assert want is None
    cycles = [v for v in validate_trace(trace) if v.startswith("cycle through")]
    assert cycles == ([] if want is None else [f"cycle through {want}"])
    # No trace holds an edge to a missing node.
    with pytest.raises(ValueError, match=re.escape("edge n00->zz: dangling endpoint")):
        dataclasses.replace(trace, edges=trace.edges + (Edge("n00", "zz", EdgeRole.OUTPUT),))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_index_cycle_check_matches_reference_on_random_traces(pyrandom):
    """Random valid traces are DAGs; one edge back from a later node to an
    earlier execution closes a cycle."""
    trace = random_trace(np.random.default_rng(pyrandom.randrange(2**32)), max_execs=25)
    assert reference_find_cycle(trace) is None
    assert _cycle_node(trace) is None
    art = pyrandom.choice(sorted(trace.artifacts))
    ex = pyrandom.choice(sorted(trace.executions))
    cyclic = dataclasses.replace(
        trace, edges=tuple(sorted(trace.edges + (Edge(art, ex, EdgeRole.INPUT),))))
    assert _cycle_node(cyclic) == reference_find_cycle(cyclic)


@pytest.mark.parametrize("key, index", [("end_at", 0), ("start_at", 0), ("created_at", 1)])
def test_timestamp_beyond_signed_64_bits_raises(key, index):
    for value in (-(2**63), 2**63 - 1):
        lines = list(MINIMAL)
        lines[index] = _with(lines[index], (key,), value)
        parse_trace(lines)
    for value in (2**63, -(2**63) - 1, 10**400):
        lines = list(MINIMAL)
        lines[index] = _with(lines[index], (key,), value)
        with pytest.raises(TraceParseError) as err:
            parse_trace(lines)
        assert str(err.value) == (
            f"line {index + 1}: timestamp {key!r} is out of signed 64-bit range")
        with pytest.raises(TraceParseError, match=re.escape(str(err.value))):
            reference_parse_trace(lines)


def test_validate_flags_cost_total_beyond_float_range():
    trainer = _exec("t", "trainer", 1, 2, model_type="dnn")
    huge = [_with(line, ("cpu_cost",), 1.7e308) for line in (MINIMAL[0], trainer)]
    assert validate_trace(parse_trace([huge[0], trainer, *MINIMAL[1:]])) == []
    violations = validate_trace(parse_trace([*huge, *MINIMAL[1:]]))
    assert violations == ["execution cpu_cost total is out of float range"]
    # A non-finite cost is reported as itself, not again as an overflowing total.
    inf = _with(trainer, ("cpu_cost",), float("inf"))
    assert validate_trace(parse_trace([huge[0], inf, *MINIMAL[1:]])) == [
        "execution t: cpu_cost must be finite"]


HIST_VALUES = (
    st.floats(min_value=0.0, max_value=1.0)
    | st.sampled_from([0.0, -0.0, 0.1, 1.0, -1e-12, 1.7e308, float("inf"), float("-inf"),
                       float("nan")])
    | st.floats()
)


@settings(max_examples=600, deadline=None)
@given(
    name=st.sampled_from(["", "x"]),
    hist=st.none() | st.lists(HIST_VALUES, max_size=12).map(tuple)
    | st.lists(st.just(0.1), min_size=10, max_size=10).map(tuple),
    top10=st.none() | st.lists(st.integers(-2, 60), max_size=12).map(tuple),
    unique=st.none() | st.integers(-1, 15),
    total=st.none() | st.integers(-1, 200),
)
def test_feature_check_matches_element_wise_reference(name, hist, top10, unique, total):
    for kind in FeatureKind:
        feature = FeatureStats(name, kind, hist, top10, unique, total)
        assert feature.check() == reference_feature_check(feature)
