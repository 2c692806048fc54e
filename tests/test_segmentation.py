from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    has_warmstart,
    loop_graphlet_walks,
    loop_shape_features,
    naive_graphlet_nodes,
    random_trace,
)

from graphlets.features import Featurizer
from graphlets.segmentation import (
    StopSet,
    consecutive_pairs,
    extract_graphlets,
    is_warmstart,
    overlap_adjusted_costs,
)
from graphlets.trace import (
    Artifact,
    ArtifactType,
    Edge,
    EdgeRole,
    Execution,
    ExecutionState,
    ModelType,
    OperatorGroup,
    OperatorKind,
    SpanStats,
    Trace,
    parse_trace,
    validate_trace,
)


def exec_kinds(trace, graphlet):
    kinds = {}
    for n in graphlet.nodes:
        ex = trace.executions.get(n)
        if ex is not None:
            kinds[ex.operator] = kinds.get(ex.operator, 0) + 1
    return kinds


def test_fixture_has_two_graphlets(warm_pair_trace, warm_pair_graphlets):
    assert len(warm_pair_graphlets) == 2
    assert [g.anchor for g in warm_pair_graphlets] == ["t1", "t2"]


def test_consumer_graphlet_contents(warm_pair_trace, warm_pair_graphlets):
    consumer = warm_pair_graphlets[1]
    parents, children = warm_pair_trace.parents, warm_pair_trace.children
    kinds = exec_kinds(warm_pair_trace, consumer)
    assert kinds[OperatorKind.EXAMPLE_GEN] == 2
    assert kinds[OperatorKind.TRAINER] == 1
    assert kinds[OperatorKind.STATISTICS_GEN] == 1
    assert kinds[OperatorKind.EVALUATOR] == 1
    assert kinds[OperatorKind.PUSHER] == 1
    assert OperatorKind.TRANSFORM not in kinds
    # the verbatim degree counts: ExampleGen averages one output, the trainer
    # reads two inputs and writes one, the pusher reads one input
    eg_out = [len(children[n]) for n in ("eg1", "eg2")]
    assert sum(eg_out) / len(eg_out) == 1.0
    assert len(parents["t2"]) == 2
    assert len(children["t2"]) == 1
    assert len(parents["p1"]) == 1


def test_warmstart_artifact_included_but_not_producer(warm_pair_graphlets):
    consumer = warm_pair_graphlets[1]
    assert "model_1" in consumer.nodes
    assert "t1" not in consumer.nodes
    assert "tg_1" not in consumer.nodes


def test_first_graphlet_keeps_its_transform(warm_pair_graphlets):
    first = warm_pair_graphlets[0]
    assert "tf1" in first.nodes
    assert "tg_1" in first.nodes
    assert "t2" not in first.nodes
    assert "model_2" not in first.nodes


def test_shared_data_analysis_lands_in_both(warm_pair_graphlets):
    # data-validation executions over input spans belong to every graphlet
    # that holds the span
    first, consumer = warm_pair_graphlets
    assert "sg1" in first.nodes and "sg1" in consumer.nodes
    assert "stats_1" in first.nodes and "stats_1" in consumer.nodes


def test_fixture_push_labels(warm_pair_graphlets):
    first, consumer = warm_pair_graphlets
    assert first.pushed is False
    assert consumer.pushed is True


def test_consumer_graphlet_costs(warm_pair_trace, warm_pair_graphlets):
    consumer = warm_pair_graphlets[1]
    assert consumer.costs == {
        OperatorGroup.DATA_INGESTION: 2.0,
        OperatorGroup.DATA_ANALYSIS_VALIDATION: 1.0,
        OperatorGroup.TRAINING: 1.0,
        OperatorGroup.MODEL_ANALYSIS_VALIDATION: 1.0,
        OperatorGroup.DEPLOYMENT: 1.0,
    }


def test_input_spans_are_direct_trainer_inputs(warm_pair_graphlets):
    first, consumer = warm_pair_graphlets
    assert first.input_spans == ("span_a",)
    assert consumer.input_spans == ("span_b",)


def test_shared_execution_charged_to_both(warm_pair_trace, warm_pair_graphlets):
    first, consumer = warm_pair_graphlets
    # both graphlets contain both ExampleGen runs, full cost each
    assert first.costs[OperatorGroup.DATA_INGESTION] == 2.0
    assert consumer.costs[OperatorGroup.DATA_INGESTION] == 2.0
    merged = overlap_adjusted_costs([first, consumer], warm_pair_trace)
    assert merged[OperatorGroup.DATA_INGESTION] == 2.0


def test_single_trainer_chain_keeps_everything():
    lines = [
        '{"kind": "execution", "id": "eg", "operator": "example_gen", "pipeline_id": "p", "start_at": 1, "end_at": 2, "state": "complete", "cpu_cost": 1.0, "properties": {}}',
        '{"kind": "artifact", "id": "s", "type": "data_span", "created_at": 2, "pipeline_id": "p", "properties": {"span_stats": {"features": [{"name": "x", "type": "numerical", "hist": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}]}}}',
        '{"kind": "execution", "id": "tr", "operator": "trainer", "pipeline_id": "p", "start_at": 3, "end_at": 4, "state": "complete", "cpu_cost": 1.0, "properties": {"model_type": "linear"}}',
        '{"kind": "artifact", "id": "m", "type": "model", "created_at": 4, "pipeline_id": "p", "properties": {}}',
        '{"kind": "execution", "id": "pu", "operator": "pusher", "pipeline_id": "p", "start_at": 5, "end_at": 6, "state": "complete", "cpu_cost": 1.0, "properties": {}}',
        '{"kind": "artifact", "id": "pr", "type": "push_result", "created_at": 6, "pipeline_id": "p", "properties": {}}',
        '{"kind": "edge", "from": "eg", "to": "s", "role": "output"}',
        '{"kind": "edge", "from": "s", "to": "tr", "role": "input"}',
        '{"kind": "edge", "from": "tr", "to": "m", "role": "output"}',
        '{"kind": "edge", "from": "m", "to": "pu", "role": "input"}',
        '{"kind": "edge", "from": "pu", "to": "pr", "role": "output"}',
    ]
    trace = parse_trace(lines)
    (g,) = extract_graphlets(trace)
    assert g.nodes == {"eg", "s", "tr", "m", "pu", "pr"}
    assert g.pushed is True


def test_dangling_edge_is_reported_and_left_out_of_segmentation():
    # The parser rejects an edge to a missing node, and so does a trace built
    # by hand: trainer t reads span s and a node "ghost" that does not exist.
    executions = {
        "eg": Execution("eg", OperatorKind.EXAMPLE_GEN, "p", 1, 2, ExecutionState.COMPLETE, 1.0),
        "t": Execution("t", OperatorKind.TRAINER, "p", 3, 4, ExecutionState.COMPLETE, 1.0,
                       model_type=ModelType.LINEAR),
    }
    artifacts = {
        "m": Artifact("m", ArtifactType.MODEL, 4, "p"),
        "s": Artifact("s", ArtifactType.DATA_SPAN, 2, "p", SpanStats(())),
    }
    linked = (Edge("eg", "s", EdgeRole.OUTPUT), Edge("s", "t", EdgeRole.INPUT),
              Edge("t", "m", EdgeRole.OUTPUT))
    with pytest.raises(ValueError, match=re.escape("edge ghost->t: dangling endpoint")):
        Trace("p", artifacts, executions,
              tuple(sorted(linked + (Edge("ghost", "t", EdgeRole.INPUT),))))
    trace = Trace("p", artifacts, executions, linked)
    assert validate_trace(trace) == []
    (g,) = extract_graphlets(trace)
    assert g.nodes == {"eg", "s", "t", "m"}
    assert g.input_spans == ("s",)
    assert g.shape[OperatorKind.TRAINER] == (1, 1, 1)
    assert trace.parents["t"] == ("s",)


def test_failed_pusher_does_not_push():
    lines = [
        '{"kind": "execution", "id": "tr", "operator": "trainer", "pipeline_id": "p", "start_at": 3, "end_at": 4, "state": "complete", "cpu_cost": 1.0, "properties": {"model_type": "linear"}}',
        '{"kind": "artifact", "id": "m", "type": "model", "created_at": 4, "pipeline_id": "p", "properties": {}}',
        '{"kind": "execution", "id": "pu", "operator": "pusher", "pipeline_id": "p", "start_at": 5, "end_at": 6, "state": "failed", "cpu_cost": 1.0, "properties": {}}',
        '{"kind": "edge", "from": "tr", "to": "m", "role": "output"}',
        '{"kind": "edge", "from": "m", "to": "pu", "role": "input"}',
    ]
    trace = parse_trace(lines)
    (g,) = extract_graphlets(trace)
    assert "pu" in g.nodes
    assert g.pushed is False


def test_consecutive_pairs_orders_by_trainer_end(warm_pair_graphlets):
    pairs = consecutive_pairs(warm_pair_graphlets)
    assert len(pairs) == 1
    assert pairs[0][0].anchor == "t1"
    assert pairs[0][1].anchor == "t2"
    assert consecutive_pairs(warm_pair_graphlets[:1]) == []
    three = [warm_pair_graphlets[0], warm_pair_graphlets[1], warm_pair_graphlets[0]]
    assert len(consecutive_pairs(three)) == 2


def test_filter_warmstart_drops_the_fixture_pipeline(warm_pair_trace, warm_pair_graphlets):
    assert is_warmstart(warm_pair_graphlets)


def test_filter_warmstart_keeps_clean_pipeline():
    lines = [
        '{"kind": "execution", "id": "tr", "operator": "trainer", "pipeline_id": "p", "start_at": 3, "end_at": 4, "state": "complete", "cpu_cost": 1.0, "properties": {"model_type": "linear"}}',
        '{"kind": "artifact", "id": "m", "type": "model", "created_at": 4, "pipeline_id": "p", "properties": {}}',
        '{"kind": "edge", "from": "tr", "to": "m", "role": "output"}',
    ]
    trace = parse_trace(lines)
    gs = extract_graphlets(trace)
    assert not is_warmstart(gs)


def test_every_trainer_anchors_exactly_one_graphlet(small_corpus):
    _, _, traces, corpus = small_corpus
    for trace, graphlets in corpus:
        trainers = [
            e.id for e in trace.executions.values() if e.operator is OperatorKind.TRAINER
        ]
        assert sorted(g.anchor for g in graphlets) == sorted(trainers)
        assert all(g.anchor in g.nodes for g in graphlets)


def test_no_foreign_stop_execution_reachable_forward(small_corpus):
    _, _, traces, corpus = small_corpus
    stop = StopSet()
    for trace, graphlets in corpus[:4]:
        for g in graphlets[:10]:
            seen = {g.anchor}
            frontier = [g.anchor]
            while frontier:
                x = frontier.pop()
                for child in trace.children[x]:
                    if child in g.nodes and child not in seen:
                        ex = trace.executions.get(child)
                        if ex is not None and ex.operator in stop.kinds:
                            assert child == g.anchor
                        seen.add(child)
                        frontier.append(child)


def test_matches_naive_fixpoint_on_random_traces():
    rng = np.random.default_rng(2024)
    stop = StopSet()
    for _ in range(200):
        trace = random_trace(rng, max_execs=40)
        assert validate_trace(trace) == []
        for g in extract_graphlets(trace, stop):
            assert g.nodes == naive_graphlet_nodes(trace, g.anchor, stop)


def _walk_fields(g):
    return {
        "costs": {group: cost.hex() for group, cost in g.costs.items()},
        "shape": g.shape,
        "pushed": g.pushed,
        "input_spans": g.input_spans,
        "warmstart": g.warmstart,
    }


def _assert_one_walk_matches_separate_walks(trace, graphlets):
    for g in graphlets:
        want = loop_graphlet_walks(trace, g.nodes, g.anchor)
        want["costs"] = {group: cost.hex() for group, cost in want["costs"].items()}
        assert _walk_fields(g) == want, g.anchor


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_one_walk_matches_separate_walks_on_random_traces(pyrandom):
    trace = random_trace(np.random.default_rng(pyrandom.randrange(2**32)), max_execs=40)
    for stop in (StopSet(), StopSet(frozenset({OperatorKind.TRAINER}))):
        _assert_one_walk_matches_separate_walks(trace, extract_graphlets(trace, stop))


def test_one_walk_matches_separate_walks_on_corpus(small_corpus, warm_pair_trace,
                                                   warm_pair_graphlets):
    _assert_one_walk_matches_separate_walks(warm_pair_trace, warm_pair_graphlets)
    for trace, graphlets in small_corpus[3]:
        _assert_one_walk_matches_separate_walks(trace, graphlets)


def test_segmentation_independent_of_record_order(warm_pair_dir):
    import random

    lines = (warm_pair_dir / "warmstart_pair.ndjson").read_text().strip().splitlines()
    shuffled = lines[:]
    random.Random(11).shuffle(shuffled)
    a = extract_graphlets(parse_trace(lines))
    b = extract_graphlets(parse_trace(shuffled))
    assert [g.nodes for g in a] == [g.nodes for g in b]
    assert [g.input_spans for g in a] == [g.input_spans for g in b]


def test_custom_stop_set_changes_cuts(warm_pair_trace):
    # stopping only at trainers lets the transform leak into the consumer
    # graphlet through the shared span
    trainer_only = StopSet(kinds=frozenset({OperatorKind.TRAINER}))
    consumer = extract_graphlets(warm_pair_trace, trainer_only)[1]
    assert "tf1" in consumer.nodes


def test_stop_set_must_be_non_empty():
    with pytest.raises(ValueError):
        StopSet(kinds=frozenset())


def _with_architectures(trace, rng):
    """``trace`` with each trainer's architecture drawn from None, "a" and "b"."""
    names = (None, "a", "b")
    executions = {
        k: ex._replace(architecture=names[int(rng.integers(0, 3))])
        if ex.operator is OperatorKind.TRAINER else ex
        for k, ex in trace.executions.items()
    }
    return dataclasses.replace(trace, executions=executions)


def _check_carried_facts(trace):
    graphlets = extract_graphlets(trace)
    trainers = sorted(
        (ex for ex in trace.executions.values() if ex.operator is OperatorKind.TRAINER),
        key=lambda ex: (ex.end_at, ex.id),
    )
    assert [g.anchor for g in graphlets] == [ex.id for ex in trainers]
    assert graphlets == sorted(graphlets, key=lambda g: (g.trainer_end_at, g.anchor))
    featurizer = Featurizer()
    every_kind = tuple(OperatorKind)
    for g in graphlets:
        assert g.architecture == trace.executions[g.anchor].architecture
        assert featurizer.shape_features(g, every_kind) == loop_shape_features(g, trace, every_kind)
        assert all(count > 0 for count, _, _ in g.shape.values())
        reads_model = any(
            e.dst == g.anchor
            and e.src in trace.artifacts
            and trace.artifacts[e.src].artifact_type is ArtifactType.MODEL
            for e in trace.edges
        )
        assert g.warmstart == reads_model
    warm = has_warmstart(trace)
    assert any(g.warmstart for g in graphlets) == warm
    assert is_warmstart(graphlets) == warm


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graphlets_carry_shape_architecture_warmstart_and_order(seed):
    rng = np.random.default_rng(seed)
    _check_carried_facts(_with_architectures(random_trace(rng, max_execs=40), rng))


def test_fixture_graphlets_carry_shape_architecture_warmstart(warm_pair_trace):
    _check_carried_facts(warm_pair_trace)
    first, consumer = extract_graphlets(warm_pair_trace)
    assert (first.warmstart, consumer.warmstart) == (False, True)
    assert consumer.architecture == "feedforward"
    assert consumer.shape[OperatorKind.TRAINER] == (1, 2, 1)
