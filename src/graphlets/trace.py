"""Provenance data model for ML pipeline traces.

A trace is the full provenance DAG of one pipeline: execution nodes (operator
runs) and artifact nodes (data spans, models, statistics, ...) linked by
input/output edges.  Input edges point artifact -> execution, output edges
point execution -> artifact, so every path alternates between the two node
kinds.

Traces are stored as newline-delimited records, one JSON object per line with
a ``kind`` field in {"artifact", "execution", "edge"}.  One file holds one
pipeline; a corpus is a directory of such files.  A ``Trace`` is immutable
after construction and safe to share across threads.

The per-record types ``FeatureStats``, ``Artifact``, ``Execution`` and
``Edge`` are ``NamedTuple``s, built positionally: a tuple costs a fraction
of a dataclass instance to make, and a trace holds tens of thousands of
them.  A changed copy is ``record._replace(...)``.  ``SpanStats`` and
``Trace`` stay frozen dataclasses, which can be weakly referenced.  A
``Trace`` builds its adjacency (``parents``, ``children``) and its
chronological ``trainers`` once, when it is made: ``validate_trace`` walks
them for the cycle check and ``segmentation.extract_graphlets`` for
membership.

Decoding: each stripped line takes one call of json's C scanner.  Only a line
that fails to scan, or holds data after its first value, goes on to
``json.loads``, which raises the message reported as ``invalid JSON (...)``.
Enum fields are looked up in read-only ``{value: member}`` tables built at
import.  Every field must have its documented JSON type: a wrong type raises
``TraceParseError`` rather than being coerced, ``null`` or an absent optional
property means none, and an unknown property key is ignored.  Edges are
checked, here only, and deduplicated as ``(src, dst, role)`` tuples, sorted,
and only then made into ``Edge`` objects.
"""

from __future__ import annotations

import json
import json.scanner
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from .transport import MAX_SIDE

__all__ = [
    "ArtifactType",
    "OperatorKind",
    "OperatorGroup",
    "OPERATOR_GROUPS",
    "ModelType",
    "Analyzer",
    "ExecutionState",
    "EdgeRole",
    "FeatureKind",
    "FeatureStats",
    "SpanStats",
    "Artifact",
    "Execution",
    "Edge",
    "Trace",
    "TraceParseError",
    "parse_trace",
    "parse_trace_file",
    "validate_trace",
    "CorpusValidationError",
    "valid_traces",
]

MS_PER_DAY = 86_400_000
MS_PER_HOUR = 3_600_000


class ArtifactType(str, Enum):
    DATA_SPAN = "data_span"
    MODEL = "model"
    STATISTICS = "statistics"
    SCHEMA = "schema"
    TRANSFORM_GRAPH = "transform_graph"
    EVAL_RESULT = "eval_result"
    PUSH_RESULT = "push_result"
    OTHER = "other"


class OperatorKind(str, Enum):
    EXAMPLE_GEN = "example_gen"
    STATISTICS_GEN = "statistics_gen"
    SCHEMA_GEN = "schema_gen"
    EXAMPLE_VALIDATOR = "example_validator"
    TRANSFORM = "transform"
    TRAINER = "trainer"
    TUNER = "tuner"
    EVALUATOR = "evaluator"
    MODEL_VALIDATOR = "model_validator"
    PUSHER = "pusher"
    CUSTOM = "custom"


class OperatorGroup(str, Enum):
    DATA_INGESTION = "data_ingestion"
    DATA_ANALYSIS_VALIDATION = "data_analysis_validation"
    DATA_PREPROCESSING = "data_preprocessing"
    TRAINING = "training"
    MODEL_ANALYSIS_VALIDATION = "model_analysis_validation"
    DEPLOYMENT = "deployment"


# Fixed operator -> functional group mapping. Custom operators are UDF-style
# steps that in practice appear inside the pre-processing stage.
OPERATOR_GROUPS: Mapping[OperatorKind, OperatorGroup] = {
    OperatorKind.EXAMPLE_GEN: OperatorGroup.DATA_INGESTION,
    OperatorKind.STATISTICS_GEN: OperatorGroup.DATA_ANALYSIS_VALIDATION,
    OperatorKind.SCHEMA_GEN: OperatorGroup.DATA_ANALYSIS_VALIDATION,
    OperatorKind.EXAMPLE_VALIDATOR: OperatorGroup.DATA_ANALYSIS_VALIDATION,
    OperatorKind.TRANSFORM: OperatorGroup.DATA_PREPROCESSING,
    OperatorKind.TUNER: OperatorGroup.DATA_PREPROCESSING,
    OperatorKind.TRAINER: OperatorGroup.TRAINING,
    OperatorKind.EVALUATOR: OperatorGroup.MODEL_ANALYSIS_VALIDATION,
    OperatorKind.MODEL_VALIDATOR: OperatorGroup.MODEL_ANALYSIS_VALIDATION,
    OperatorKind.PUSHER: OperatorGroup.DEPLOYMENT,
    OperatorKind.CUSTOM: OperatorGroup.DATA_PREPROCESSING,
}


class ModelType(str, Enum):
    DNN = "dnn"
    LINEAR = "linear"
    DNN_LINEAR = "dnn_linear"
    TREE = "tree"
    ENSEMBLE = "ensemble"
    CUSTOM = "custom"
    OTHER = "other"


class Analyzer(str, Enum):
    VOCABULARY = "vocabulary"
    MIN = "min"
    MAX = "max"
    MEAN = "mean"
    VARIANCE = "variance"
    CUSTOM = "custom"


class ExecutionState(str, Enum):
    COMPLETE = "complete"
    FAILED = "failed"


class EdgeRole(str, Enum):
    INPUT = "input"
    OUTPUT = "output"


class FeatureKind(str, Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"


class FeatureStats(NamedTuple):
    """Per-feature summary statistics recorded on a data span.

    Numerical features carry a 10-bin equi-width histogram over the rescaled
    [0, 1] value range.  Categorical features carry the counts of the top 10
    most frequent terms, the number of unique terms, and the total number of
    datapoints; the terms themselves are anonymized.
    """

    name: str
    kind: FeatureKind
    numerical_hist: tuple[float, ...] | None = None
    cat_top10: tuple[int, ...] | None = None
    cat_unique: int | None = None
    cat_total: int | None = None

    def check(self) -> list[str]:
        """Return a list of invariant violations (empty when valid)."""
        name, kind, hist, top10, unique, total = self
        bad = []
        if not name:
            bad.append("feature with empty name")
        if kind is FeatureKind.NUMERICAL:
            if hist is None:
                bad.append(f"numerical feature {name!r} missing histogram")
            else:
                if len(hist) != 10:
                    bad.append(f"feature {name!r} histogram must have 10 bins")
                mass = sum(hist)
                flaw = None
                # A finite sum has only finite terms, so one min settles the
                # sign; only otherwise do the element-wise checks run.
                if not (math.isfinite(mass) and min(hist, default=0.0) >= 0):
                    if not all(math.isfinite(b) for b in hist):
                        flaw = "has non-finite mass"
                    elif any(b < 0 for b in hist):
                        flaw = "has negative mass"
                if flaw is None and abs(mass - 1.0) > 1e-9:
                    flaw = "mass != 1"
                if flaw is not None:
                    bad.append(f"feature {name!r} histogram {flaw}")
            if top10 is not None or unique is not None or total is not None:
                bad.append(f"numerical feature {name!r} carries categorical fields")
        else:
            if hist is not None:
                bad.append(f"categorical feature {name!r} carries a histogram")
            if top10 is None or unique is None or total is None:
                bad.append(f"categorical feature {name!r} missing count fields")
            elif unique <= 0 or total <= 0:
                bad.append(f"feature {name!r} has non-positive unique/total counts")
            elif min(top10, default=1) <= 0:
                bad.append(f"feature {name!r} has non-positive top-term counts")
            else:
                top_sum = sum(top10)
                if top_sum > total:
                    bad.append(f"feature {name!r} top-term counts exceed total")
                elif top_sum < total and len(top10) == unique:
                    # Every term is a top term, so their counts make up the whole total.
                    bad.append(f"feature {name!r} top-term counts do not cover the total")
                if len(top10) > min(10, unique):
                    bad.append(f"feature {name!r} has too many top-term counts")
                if unique > total:
                    bad.append(f"feature {name!r} unique count exceeds total")
        return bad


@dataclass(frozen=True)
class SpanStats:
    """Summary statistics for all features of one data span."""

    features: tuple[FeatureStats, ...]

    def check(self) -> list[str]:
        """Return a list of invariant violations (empty when valid)."""
        bad = []
        if len(self.features) > MAX_SIDE:
            bad.append(f"span has {len(self.features)} features, more than {MAX_SIDE}")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            bad.append("duplicate feature names in span stats")
        for f in self.features:
            bad.extend(f.check())
        return bad


class Artifact(NamedTuple):
    id: str
    artifact_type: ArtifactType
    created_at: int
    pipeline_id: str
    span_stats: SpanStats | None = None


class Execution(NamedTuple):
    id: str
    operator: OperatorKind
    pipeline_id: str
    start_at: int
    end_at: int
    state: ExecutionState
    cpu_cost: float
    code_version: str | None = None
    model_type: ModelType | None = None
    architecture: str | None = None
    analyzers: tuple[Analyzer, ...] | None = None

    @property
    def group(self) -> OperatorGroup:
        return OPERATOR_GROUPS[self.operator]


class Edge(NamedTuple):
    src: str
    dst: str
    role: EdgeRole


@dataclass(frozen=True)
class Trace:
    """One pipeline's provenance DAG.

    Node dictionaries are keyed by node id and sorted by id; edges are
    deduplicated and sorted, so two parses of the same records compare equal
    regardless of record order in the file.

    Every edge's endpoints exist: an edge to or from a missing node raises
    ``ValueError`` (the parser rejects one first, with its line).  Built once
    from the nodes and edges, and left out of equality: ``parents[x]`` holds
    the sources of edges into node ``x`` and ``children[x]`` the targets of
    edges out of it, each sorted by node id.  ``trainers`` lists trainer
    executions in chronological order of ``end_at`` with ties broken by id,
    which makes "consecutive graphlets" deterministic.
    """

    pipeline_id: str
    artifacts: dict[str, Artifact]
    executions: dict[str, Execution]
    edges: tuple[Edge, ...]
    parents: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    children: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)
    trainers: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        parents: dict[str, list[str]] = {n: [] for n in (*self.artifacts, *self.executions)}
        children: dict[str, list[str]] = {n: [] for n in parents}
        for src, dst, _ in self.edges:
            if src not in parents or dst not in parents:
                raise ValueError(f"edge {src}->{dst}: dangling endpoint")
            children[src].append(dst)
            parents[dst].append(src)
        trainers = sorted(
            (ex for ex in self.executions.values() if ex.operator is OperatorKind.TRAINER),
            key=lambda ex: (ex.end_at, ex.id),
        )
        # The class is frozen; these are set once, here.
        object.__setattr__(self, "parents", {n: tuple(sorted(v)) for n, v in parents.items()})
        object.__setattr__(self, "children", {n: tuple(sorted(v)) for n, v in children.items()})
        object.__setattr__(self, "trainers", tuple([ex.id for ex in trainers]))


class TraceParseError(ValueError):
    """Malformed trace file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _members(enum_cls: type[Enum]) -> Mapping[str, Any]:
    """Read-only ``{value: member}`` table of one enum, built at import."""
    return MappingProxyType({member.value: member for member in enum_cls})


_ARTIFACT_TYPES = _members(ArtifactType)
_OPERATORS = _members(OperatorKind)
_STATES = _members(ExecutionState)
_MODEL_TYPES = _members(ModelType)
_ANALYZERS = _members(Analyzer)
_ROLES = _members(EdgeRole)
_FEATURE_KINDS = _members(FeatureKind)
_NUMBER_TYPES = frozenset((int, float))
_INT_TYPES = frozenset((int,))
# Timestamps are signed 64-bit milliseconds, so spans of them stay in float range.
_TIME_MIN, _TIME_MAX = -(2**63), 2**63 - 1

# The C scanner behind json.loads, called directly: one scan per line and no
# Python-level decode/raw_decode frames. It keeps no state between calls.
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def _enum(value: Any, members: Mapping[str, Any], what: str, line: int) -> Any:
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable list or object
        raise TraceParseError(f"unknown {what}: {value!r}", line) from None


def _timestamp(record: dict[str, Any], key: str, line: int) -> int:
    value = record.get(key)
    if type(value) is not int:  # a JSON bool is not a timestamp either
        raise TraceParseError(f"missing or non-integer timestamp {key!r}", line)
    if not _TIME_MIN <= value <= _TIME_MAX:
        raise TraceParseError(f"timestamp {key!r} is out of signed 64-bit range", line)
    return value


def _string(value: Any, what: str, line: int) -> str:
    if not isinstance(value, str):
        raise TraceParseError(f"{what} must be a string", line)
    return value


def _optional_string(props: dict[str, Any], key: str, line: int) -> str | None:
    value = props.get(key)
    return None if value is None else _string(value, key, line)


def _properties(record: dict[str, Any], what: str, line: int) -> dict[str, Any]:
    props = record.get("properties")
    if props is None:
        return {}
    if not isinstance(props, dict):
        raise TraceParseError(f"{what} properties must be an object", line)
    return props


def _feature(entry: Any, line: int) -> FeatureStats:
    if not isinstance(entry, dict) or "name" not in entry or "type" not in entry:
        raise TraceParseError("span_stats feature missing name/type", line)
    name = entry["name"]
    kind = _enum(entry["type"], _FEATURE_KINDS, "feature type", line)
    if kind is FeatureKind.NUMERICAL:
        hist = entry.get("hist")
        if not isinstance(hist, list):
            raise TraceParseError(f"numerical feature {name!r} missing hist", line)
        numerical_hist = None
        if _NUMBER_TYPES.issuperset(map(type, hist)):
            try:
                numerical_hist = tuple(map(float, hist))
            except OverflowError:  # an integer beyond float range
                pass
        if numerical_hist is None:
            raise TraceParseError(f"numerical feature {name!r} hist must hold numbers", line)
        return FeatureStats(_string(name, "span_stats feature name", line), kind, numerical_hist)
    name = _string(name, "span_stats feature name", line)
    top10, unique, total = entry.get("top10"), entry.get("unique"), entry.get("total")
    if top10 is None or unique is None or total is None:
        raise TraceParseError(f"categorical feature {name!r} missing top10/unique/total", line)
    if not isinstance(top10, list) or not _INT_TYPES.issuperset(map(type, top10)):
        raise TraceParseError(
            f"categorical feature {name!r} top10 must be a list of integers", line
        )
    if type(unique) is not int or type(total) is not int:
        raise TraceParseError(f"categorical feature {name!r} unique/total must be integers", line)
    return FeatureStats(name, kind, None, tuple(top10), unique, total)


def _span_stats(payload: Any, line: int) -> SpanStats:
    if not isinstance(payload, dict):
        raise TraceParseError("span_stats must be an object", line)
    raw = payload.get("features")
    if not isinstance(raw, list):
        raise TraceParseError("span_stats must contain a feature list", line)
    return SpanStats(features=tuple([_feature(entry, line) for entry in raw]))


def _parse_artifact(record: dict[str, Any], line: int) -> Artifact:
    node_id = record.get("id")
    if not node_id or not isinstance(node_id, str):
        raise TraceParseError("artifact missing id", line)
    props = _properties(record, "artifact", line)
    stats = None
    if props.get("span_stats") is not None:
        stats = _span_stats(props["span_stats"], line)
    return Artifact(
        node_id,
        _enum(record.get("type"), _ARTIFACT_TYPES, "artifact type", line),
        _timestamp(record, "created_at", line),
        _string(record.get("pipeline_id", ""), "pipeline_id", line),
        stats,
    )


def _parse_execution(record: dict[str, Any], line: int) -> Execution:
    node_id = record.get("id")
    if not node_id or not isinstance(node_id, str):
        raise TraceParseError("execution missing id", line)
    props = _properties(record, "execution", line)
    cost = record.get("cpu_cost", 0.0)
    if type(cost) not in _NUMBER_TYPES:
        raise TraceParseError("cpu_cost must be a number", line)
    try:
        cost = float(cost)
    except OverflowError:
        raise TraceParseError("cpu_cost is out of float range", line) from None
    model_type = props.get("model_type")
    analyzers = props.get("analyzers")
    if analyzers is not None and not isinstance(analyzers, list):
        raise TraceParseError("analyzers must be a list", line)
    return Execution(
        node_id,
        _enum(record.get("operator"), _OPERATORS, "operator", line),
        _string(record.get("pipeline_id", ""), "pipeline_id", line),
        _timestamp(record, "start_at", line),
        _timestamp(record, "end_at", line),
        _enum(record.get("state"), _STATES, "execution state", line),
        cost,
        _optional_string(props, "code_version", line),
        None if model_type is None else _enum(model_type, _MODEL_TYPES, "model type", line),
        _optional_string(props, "architecture", line),
        None
        if analyzers is None
        else tuple([_enum(a, _ANALYZERS, "analyzer", line) for a in analyzers]),
    )


def _invalid_json(text: str, line: int) -> Any:
    """Re-decode a line the scanner rejected with ``json.loads`` for its message."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, over-long integer literals, too-deep nesting
        raise TraceParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line) from None


def parse_trace(lines: Iterable[str]) -> Trace:
    """Parse newline-delimited trace records into a fully linked ``Trace``.

    Record order is irrelevant to the result.  Raises ``TraceParseError`` on a
    malformed record (with its line number), a duplicate node id, a dangling
    edge endpoint, or an edge whose role violates the bipartite orientation.
    """
    artifacts: dict[str, Artifact] = {}
    executions: dict[str, Execution] = {}
    # (src, dst, role) -> the line of its first record; later duplicates add nothing.
    edge_lines: dict[tuple[str, str, EdgeRole], int] = {}
    pipeline_id: str | None = None

    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            record, end = _scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(text):  # a decode error, or data after the first value
            record = _invalid_json(text, line_no)
        if not isinstance(record, dict):
            raise TraceParseError("record must be a JSON object", line_no)
        kind = record.get("kind")
        if kind == "edge":
            src, dst = record.get("from"), record.get("to")
            if not isinstance(src, str) or not isinstance(dst, str):
                raise TraceParseError("edge missing from/to", line_no)
            role = _enum(record.get("role"), _ROLES, "edge role", line_no)
            edge_lines.setdefault((src, dst, role), line_no)
            continue
        if kind == "artifact":
            node = _parse_artifact(record, line_no)
        elif kind == "execution":
            node = _parse_execution(record, line_no)
        else:
            raise TraceParseError(f"unknown record kind: {kind!r}", line_no)

        if node.id in artifacts or node.id in executions:
            raise TraceParseError(f"duplicate node id {node.id!r}", line_no)
        if pipeline_id is None:
            pipeline_id = node.pipeline_id
        elif node.pipeline_id != pipeline_id:
            raise TraceParseError(
                f"conflicting pipeline_id {node.pipeline_id!r} (file is {pipeline_id!r})", line_no
            )
        if kind == "artifact":
            artifacts[node.id] = node
        else:
            executions[node.id] = node

    # A duplicate passes or fails with its first record, so checking each
    # distinct edge at its first line raises the same first error.
    for (src, dst, role), line_no in edge_lines.items():
        if role is EdgeRole.INPUT:
            ok = src in artifacts and dst in executions
        else:
            ok = src in executions and dst in artifacts
        if not ok:
            for endpoint in (src, dst):
                if endpoint not in artifacts and endpoint not in executions:
                    raise TraceParseError(f"edge endpoint {endpoint!r} does not exist", line_no)
            raise TraceParseError(
                f"edge {src!r}->{dst!r} role violates bipartite orientation", line_no
            )

    if pipeline_id is None:
        raise TraceParseError("no node records")
    return Trace(
        pipeline_id=pipeline_id,
        artifacts=dict(sorted(artifacts.items())),
        executions=dict(sorted(executions.items())),
        edges=tuple(map(Edge._make, sorted(edge_lines))),
    )


def parse_trace_file(path: str | Path) -> Trace:
    """``parse_trace`` on a file; errors read ``<path>: line N: <message>``."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        try:
            return parse_trace(fh)
        except TraceParseError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _is_finite(x: float) -> bool:
    # Python ints are always finite; math.isfinite overflows on huge ones.
    return isinstance(x, int) or math.isfinite(x)


def validate_trace(trace: Trace) -> list[str]:
    """Check what a parsed trace can still break; each violation names the
    node and rule.  The edge rules are ``parse_trace``'s alone.

    Violations are data, not errors: an empty list means the trace is valid.
    The cycle check walks the trace's adjacency.
    """
    bad: list[str] = []
    for art in trace.artifacts.values():
        if not _is_finite(art.created_at):
            bad.append(f"artifact {art.id}: created_at must be finite")
        elif art.created_at <= 0:
            bad.append(f"artifact {art.id}: created_at must be positive")
        if art.artifact_type is ArtifactType.DATA_SPAN:
            if art.span_stats is None:
                bad.append(f"artifact {art.id}: data_span missing span_stats")
            else:
                bad.extend(f"artifact {art.id}: {m}" for m in art.span_stats.check())
        elif art.span_stats is not None:
            bad.append(f"artifact {art.id}: span_stats only allowed on data_span artifacts")

    trainer_seen = False
    costs_finite = True
    cost_total = 0.0
    for ex in trace.executions.values():
        start_at, end_at, cost = ex.start_at, ex.end_at, ex.cpu_cost
        if not _is_finite(start_at):
            bad.append(f"execution {ex.id}: start_at must be finite")
        if not _is_finite(end_at):
            bad.append(f"execution {ex.id}: end_at must be finite")
        if not _is_finite(cost):
            bad.append(f"execution {ex.id}: cpu_cost must be finite")
            costs_finite = False
        if end_at < start_at:
            bad.append(f"execution {ex.id}: end_at precedes start_at")
        if start_at <= 0:
            bad.append(f"execution {ex.id}: start_at must be positive")
        if cost < 0:
            bad.append(f"execution {ex.id}: negative cpu_cost")
        if ex.operator is OperatorKind.TRAINER:
            trainer_seen = True
            if ex.model_type is None:
                bad.append(f"trainer {ex.id} missing model_type")
        elif ex.model_type is not None:
            bad.append(f"execution {ex.id}: model_type only allowed on trainers")
        if ex.analyzers is not None and ex.operator is not OperatorKind.TRANSFORM:
            bad.append(f"execution {ex.id}: analyzers only allowed on transform executions")
        cost_total += cost
    if not trainer_seen:
        bad.append("trace has no trainer execution")
    # Graphlet and group costs are sums of these; each must stay a float.
    if costs_finite and not math.isfinite(cost_total):
        bad.append("execution cpu_cost total is out of float range")

    cycle_node = _cycle_node(trace)
    if cycle_node is not None:
        bad.append(f"cycle through {cycle_node}")
    return bad


def _cycle_node(trace: Trace) -> str | None:
    """The least node id left on or below a directed cycle once every node
    that no cycle reaches is peeled off (Kahn's algorithm), or None when
    the graph is acyclic."""
    children = trace.children
    indeg = {node: len(sources) for node, sources in trace.parents.items()}
    ready = [node for node, d in indeg.items() if not d]
    for node in ready:  # grows while it is walked
        for child in children[node]:
            indeg[child] -= 1
            if not indeg[child]:
                ready.append(child)
    if len(ready) == len(indeg):
        return None
    return min(node for node, d in indeg.items() if d)


class CorpusValidationError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__(f"{len(violations)} trace violations")


def valid_traces(directory: str | Path) -> Iterator[Trace]:
    """Parse and check a corpus directory's ``*.ndjson`` trace files one at a
    time, in name order; a missing directory or one without trace files
    raises (``FileNotFoundError``, ``ValueError``).

    Each trace is checked (``validate_trace``, and its pipeline id against
    the earlier files') and yielded as long as no file so far was malformed
    or invalid.  After the first failure the remaining files are still
    parsed and checked, so that every error is reported, but nothing more is
    yielded.  At the end the parse errors are raised, one as itself and
    several as one ``TraceParseError`` with a line per file; if there were
    none, every violation, in file order, as a ``CorpusValidationError``.
    Callers must therefore write nothing before the pass is exhausted.
    Nothing is kept from one file to the next.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {directory}")
    paths = sorted(directory.glob("*.ndjson"))
    if not paths:
        raise ValueError(f"no trace files in {directory}")
    errors: list[TraceParseError] = []
    violations: list[str] = []
    seen: set[str] = set()
    for path in paths:
        try:
            trace = parse_trace_file(path)
        except TraceParseError as exc:
            errors.append(exc)
            continue
        if trace.pipeline_id in seen:
            violations.append(f"{trace.pipeline_id}: pipeline id used by more than one trace")
        seen.add(trace.pipeline_id)
        violations.extend(f"{trace.pipeline_id}: {v}" for v in validate_trace(trace))
        if not (errors or violations):
            yield trace
        del trace  # not held while the next file parses
    if len(errors) == 1:
        raise errors[0]
    if errors:
        raise TraceParseError("\n".join(str(exc) for exc in errors))
    if violations:
        raise CorpusValidationError(violations)
