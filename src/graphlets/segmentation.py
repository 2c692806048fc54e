"""Trace segmentation into per-model graphlets.

Each trainer execution anchors one graphlet: the subgraph holding everything
that fed the training run plus its downstream results, without leaking into
the subgraphs of other training runs.  Membership is the least fixpoint of
three rules, seeded with the anchor trainer ``n``:

* ancestors: if ``X`` is in the graphlet and edge ``V -> X`` exists, ``V``
  joins, unless ``V`` is a trainer execution other than ``n``.  Stopping at
  foreign trainers cuts warmstart chains: a model artifact consumed by a later
  trainer joins that trainer's graphlet, but the subgraph that produced the
  model does not.
* descendants: if ``X`` is in the graphlet and edge ``X -> V`` exists, ``V``
  joins, unless ``V`` is an execution whose operator is in the stop set and
  ``V`` is not ``n``.  The default stop set {transform, trainer} keeps the
  next run's pre-processing and training out while still picking up the
  data-analysis executions that ran on this run's input spans.

Graphlets from one trace may overlap; shared executions contribute their full
cost to every graphlet that contains them.

Segmentation walks the adjacency the trace built when it was made, and
keeps on the graphlet what later layers need: its shape, the anchor trainer's model type and architecture, and
whether that trainer reads a model artifact (warmstart).  Each graphlet's
nodes are walked once, in sorted order, for its costs, shape and push label,
and each ``Graphlet`` is built once.  ``extract_graphlets``
returns a trace's graphlets ordered by ``(trainer_end_at, anchor)``.  Every
consumer of a trace's graphlet list (``consecutive_pairs``,
``is_warmstart``, features, analytics) expects the whole list in that
order and never re-sorts it.

Every command reads its corpus through one per-pipeline pass,
``stream_corpus``: each trace file is parsed, checked (``valid_traces``),
segmented and handed to the caller, which reduces it and drops it before the
next file is parsed.  Memory is bounded by one trace plus the reductions: on
the default 150-pipeline corpus, ``stats`` peaks near 60 MB where holding
every trace took over 450 MB.  A corpus with a malformed or invalid file
yields nothing after that file, and the pass raises once every file is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .trace import (
    ArtifactType,
    ExecutionState,
    ModelType,
    OperatorGroup,
    OperatorKind,
    Trace,
    valid_traces,
)

__all__ = [
    "StopSet",
    "Graphlet",
    "extract_graphlets",
    "consecutive_pairs",
    "is_warmstart",
    "overlap_adjusted_costs",
    "graphlet_record",
    "dump_graphlets",
    "stream_corpus",
]


@dataclass(frozen=True)
class StopSet:
    """Operator kinds at which descendant traversal halts."""

    kinds: frozenset[OperatorKind] = frozenset({OperatorKind.TRANSFORM, OperatorKind.TRAINER})

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ValueError("stop set must not be empty")


DEFAULT_STOP_SET = StopSet()


@dataclass(frozen=True)
class Graphlet:
    anchor: str
    pipeline_id: str
    nodes: frozenset[str]
    input_spans: tuple[str, ...]
    pushed: bool
    costs: dict[OperatorGroup, float]
    trainer_end_at: int
    trainer_code_version: str | None
    model_type: ModelType
    architecture: str | None
    # operator kind -> (executions, summed in-degree, summed out-degree)
    shape: dict[OperatorKind, tuple[int, int, int]]
    warmstart: bool  # the anchor trainer reads a model artifact

    @property
    def total_cost(self) -> float:
        return sum(self.costs.values())


def _grow(trace: Trace, anchor: str, stop: StopSet) -> frozenset[str]:
    """Least fixpoint of the ancestor/descendant membership rules."""
    executions = trace.executions
    parents, children = trace.parents, trace.children
    stop_kinds = stop.kinds
    nodes = {anchor}
    frontier = [anchor]
    while frontier:
        x = frontier.pop()
        for v in parents[x]:
            if v in nodes:
                continue
            ex = executions.get(v)
            if ex is not None and ex.operator is OperatorKind.TRAINER and v != anchor:
                continue
            nodes.add(v)
            frontier.append(v)
        for v in children[x]:
            if v in nodes:
                continue
            ex = executions.get(v)
            if ex is not None and ex.operator in stop_kinds and v != anchor:
                continue
            nodes.add(v)
            frontier.append(v)
    return frozenset(nodes)


def extract_graphlets(trace: Trace, stop: StopSet = DEFAULT_STOP_SET) -> list[Graphlet]:
    """One graphlet per trainer execution, ordered by ``(trainer_end_at, anchor)``."""
    artifacts, executions = trace.artifacts, trace.executions
    parents, children = trace.parents, trace.children
    graphlets = []
    for anchor in trace.trainers:
        trainer = executions[anchor]
        nodes = _grow(trace, anchor, stop)
        costs: dict[OperatorGroup, float] = {}
        shape: dict[OperatorKind, tuple[int, int, int]] = {}
        pushed = False
        # Sorted order pins the float accumulation order of the costs, which
        # keeps dumps byte-identical across processes.
        for node in sorted(nodes):
            ex = executions.get(node)
            if ex is None:
                continue
            group = ex.group
            costs[group] = costs.get(group, 0.0) + ex.cpu_cost
            count, fan_in, fan_out = shape.get(ex.operator, (0, 0, 0))
            shape[ex.operator] = (
                count + 1, fan_in + len(parents[node]), fan_out + len(children[node])
            )
            # The push label: a completed pusher run deploys the model; a
            # pusher run that failed leaves it undeployed.
            if ex.operator is OperatorKind.PUSHER and ex.state is ExecutionState.COMPLETE:
                pushed = True
        spans = []
        warmstart = False
        for p in parents[anchor]:
            art = artifacts.get(p)
            if art is None:
                continue
            if art.artifact_type is ArtifactType.DATA_SPAN:
                spans.append(art)
            elif art.artifact_type is ArtifactType.MODEL:
                warmstart = True
        spans.sort(key=lambda a: (a.created_at, a.id))  # oldest first
        graphlets.append(
            Graphlet(
                anchor=anchor,
                pipeline_id=trace.pipeline_id,
                nodes=nodes,
                input_spans=tuple([a.id for a in spans]),
                pushed=pushed,
                costs=costs,
                trainer_end_at=trainer.end_at,
                trainer_code_version=trainer.code_version,
                model_type=trainer.model_type or ModelType.OTHER,
                architecture=trainer.architecture,
                shape=shape,
                warmstart=warmstart,
            )
        )
    return graphlets


def consecutive_pairs(graphlets: Sequence[Graphlet]) -> list[tuple[Graphlet, Graphlet]]:
    """Pair each graphlet with its successor in ``extract_graphlets`` order."""
    return list(zip(graphlets, graphlets[1:]))


def is_warmstart(graphlets: Sequence[Graphlet]) -> bool:
    """True iff a trainer of the pipeline consumes a model artifact directly.

    Unpushed graphlets in warmstart pipelines can still be useful to later
    training runs, so they must not be counted as waste, and the model
    commands leave such pipelines out.  ``graphlets`` must be every graphlet
    of one trace, as ``extract_graphlets`` returns them.
    """
    return any(g.warmstart for g in graphlets)


def _costs_for(trace: Trace, nodes: frozenset[str]) -> dict[OperatorGroup, float]:
    costs: dict[OperatorGroup, float] = {}
    # Sorted iteration pins the float accumulation order, which keeps dumps
    # byte-identical across processes regardless of hash randomization.
    for node in sorted(nodes):
        ex = trace.executions.get(node)
        if ex is None:
            continue
        costs[ex.group] = costs.get(ex.group, 0.0) + ex.cpu_cost
    return costs


def overlap_adjusted_costs(
    graphlets: Sequence[Graphlet], trace: Trace
) -> dict[OperatorGroup, float]:
    """Per-group cost over the union of graphlet nodes, counting each execution once."""
    union: set[str] = set()
    for g in graphlets:
        union.update(g.nodes)
    return _costs_for(trace, frozenset(union))


def graphlet_record(g: Graphlet) -> dict:
    return {
        "pipeline_id": g.pipeline_id,
        "anchor": g.anchor,
        "nodes": sorted(g.nodes),
        "input_spans": list(g.input_spans),
        "pushed": g.pushed,
        "costs": {grp.value: cost for grp, cost in sorted(g.costs.items())},
        "trainer_end_at": g.trainer_end_at,
        "code_version": g.trainer_code_version,
        "model_type": g.model_type.value,
    }


def dump_graphlets(graphlets: Iterable[Graphlet]) -> Iterator[str]:
    for g in graphlets:
        yield json.dumps(graphlet_record(g), sort_keys=True)


def stream_corpus(
    directory: str | Path, stop: StopSet = DEFAULT_STOP_SET
) -> Iterator[tuple[Trace, list[Graphlet]]]:
    """The per-pipeline pass: each valid trace with all its graphlets
    (warmstart pipelines included), in file name order; fails as
    ``valid_traces`` does."""
    for trace in valid_traces(directory):
        yield trace, extract_graphlets(trace, stop)
