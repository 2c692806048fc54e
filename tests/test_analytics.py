from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from graphlets.analytics import (
    CadenceStats,
    add_costs,
    bucketize,
    cost_fractions,
    drift_code_table,
    pair_similarities,
    pipeline_stats,
    similarity_table,
)
from graphlets.segmentation import stream_corpus
from graphlets.similarity import LshParams, SimWeights
from graphlets.synth import GenConfig, generate, iid_config
from graphlets.trace import MS_PER_DAY, OperatorGroup, parse_trace


def cost_breakdown(traces):
    totals = {}
    for trace in traces:
        add_costs(totals, trace)
    return cost_fractions(totals)


def cadence_stats(corpus):
    stats = CadenceStats()
    for trace, graphlets in corpus:
        stats.add(trace, graphlets)
    return stats


def corpus_pairs(corpus):
    return [
        pair
        for trace, graphlets in corpus
        for pair in pair_similarities(trace, graphlets, LshParams(), SimWeights())
    ]


def _exec_line(node_id, operator, start, end, cost=1.0, **props):
    return json.dumps(
        {
            "kind": "execution",
            "id": node_id,
            "operator": operator,
            "pipeline_id": "p",
            "start_at": start,
            "end_at": end,
            "state": "complete",
            "cpu_cost": cost,
            "properties": props,
        }
    )


def test_pipeline_stats_lifespan_and_rate():
    lines = [
        _exec_line(f"t{i}", "trainer", 1, 1 + 10 * MS_PER_DAY, model_type="dnn")
        for i in range(20)
    ]
    stats = pipeline_stats(parse_trace(lines))
    assert stats.lifespan_days == pytest.approx(10.0)
    assert stats.models_per_day == pytest.approx(2.0)


def test_pipeline_stats_zero_lifespan_clamps():
    lines = [_exec_line(f"t{i}", "trainer", 5, 5, model_type="dnn") for i in range(7)]
    stats = pipeline_stats(parse_trace(lines))
    assert stats.lifespan_days == 0.0
    assert stats.models_per_day == pytest.approx(7.0)


def test_pipeline_stats_feature_shape(warm_pair_trace):
    stats = pipeline_stats(warm_pair_trace)
    assert stats.feature_count == 2
    assert stats.categorical_fraction == pytest.approx(0.5)
    assert stats.mean_categorical_domain == pytest.approx((12 + 15) / 2)
    assert sum(stats.analyzer_usage.values()) == 2


def test_cost_breakdown_single_group():
    lines = [_exec_line("t", "trainer", 1, 2, cost=whole) for whole in (3.0,)]
    breakdown = cost_breakdown([parse_trace(lines)])
    assert breakdown == {OperatorGroup.TRAINING: 1.0}


def test_cost_breakdown_errors_on_zero_cost():
    lines = [_exec_line("t", "trainer", 1, 2, cost=0.0)]
    with pytest.raises(ValueError):
        cost_breakdown([parse_trace(lines)])


def test_cost_breakdown_errors_on_total_beyond_float_range():
    # Each trace's total is finite; the corpus total is not.
    traces = [parse_trace([_exec_line(node, "trainer", 1, 2, cost=1.7e308)])
              for node in ("a", "b")]
    with pytest.raises(ValueError, match="corpus compute cost total is out of float range"):
        cost_breakdown(traces)
    with pytest.raises(ValueError, match="out of float range"):
        cost_fractions({OperatorGroup.TRAINING: float("inf")})


def test_cost_breakdown_fractions_sum_to_one(small_corpus):
    _, _, traces, _ = small_corpus
    breakdown = cost_breakdown(traces)
    assert sum(breakdown.values()) == pytest.approx(1.0, abs=1e-9)


def test_cost_breakdown_recovers_planted_mix(small_corpus):
    cfg, _, traces, _ = small_corpus
    breakdown = cost_breakdown(traces)
    for group, target in cfg.cost_mix.items():
        assert breakdown[group] == pytest.approx(target, abs=1e-9)


def test_cadence_gap_counting(warm_pair_graphlets, warm_pair_trace):
    stats = cadence_stats([(warm_pair_trace, warm_pair_graphlets)])
    assert stats.hours_between_all == [pytest.approx((15000 - 9000) / 3_600_000)]
    assert stats.graphlets_between_pushes == []  # single push, no pair
    assert stats.trainer_cpu_by_label["pushed"] == [1.0]
    assert stats.trainer_cpu_by_label["unpushed"] == [1.0]


def test_cadence_pushes_at_1_and_5():
    # five graphlets, pushes at positions 1 and 5: three unpushed in between
    from graphlets.segmentation import Graphlet
    from graphlets.trace import ModelType, OperatorKind

    def g(i, pushed):
        return Graphlet(
            anchor=f"t{i}",
            pipeline_id="p",
            nodes=frozenset({f"t{i}"}),
            input_spans=(),
            pushed=pushed,
            costs={},
            trainer_end_at=i * 1000,
            trainer_code_version="v0",
            model_type=ModelType.DNN,
            architecture=None,
            shape={OperatorKind.TRAINER: (1, 0, 0)},
            warmstart=False,
        )

    lines = [_exec_line(f"t{i}", "trainer", 1, i * 1000, model_type="dnn") for i in range(1, 6)]
    trace = parse_trace(lines)
    graphlets = [g(1, True), g(2, False), g(3, False), g(4, False), g(5, True)]
    stats = cadence_stats([(trace, graphlets)])
    assert stats.graphlets_between_pushes == [3]

    all_pushed = [g(i, True) for i in range(1, 6)]
    stats = cadence_stats([(trace, all_pushed)])
    assert stats.graphlets_between_pushes == [0, 0, 0, 0]


def test_geometric_corpus_mean_gap(tmp_path):
    cfg = dataclasses.replace(
        iid_config(0.25, seed=11), n_pipelines=30, graphlets_per_pipeline=(300, 400)
    )
    generate(cfg, tmp_path)
    stats = cadence_stats(stream_corpus(tmp_path))
    assert len(stats.graphlets_between_pushes) >= 2000
    mean_gap = float(np.mean(stats.graphlets_between_pushes))
    assert mean_gap == pytest.approx(3.0, abs=0.3)


def test_drift_code_table_all_code_equal(warm_pair_trace, warm_pair_graphlets):
    table = drift_code_table(
        pair_similarities(warm_pair_trace, warm_pair_graphlets, LshParams(), SimWeights())
    )
    assert table.code_match_all == 1.0
    assert table.pair_count == 1
    assert 0.0 <= table.similarity_all <= 1.0


def test_drift_code_table_alternating_versions():
    from graphlets.segmentation import Graphlet
    from graphlets.trace import ModelType, OperatorKind

    lines = []
    graphlets = []
    for i in range(1, 5):
        lines.append(
            _exec_line(f"t{i}", "trainer", 1, i * 1000, model_type="dnn")
        )
        graphlets.append(
            Graphlet(
                anchor=f"t{i}",
                pipeline_id="p",
                nodes=frozenset({f"t{i}"}),
                input_spans=(),
                pushed=bool(i % 2),
                costs={},
                trainer_end_at=i * 1000,
                trainer_code_version=f"v{i % 2}",
                model_type=ModelType.DNN,
                architecture=None,
                shape={OperatorKind.TRAINER: (1, 0, 0)},
                warmstart=False,
            )
        )
    trace = parse_trace(lines)
    table = drift_code_table(pair_similarities(trace, graphlets, LshParams(), SimWeights()))
    assert table.code_match_all == 0.0


def test_drift_code_table_planted_code_stability(tmp_path):
    # enough consecutive pairs for the planted stability to show within 0.02
    cfg = dataclasses.replace(
        GenConfig(seed=19), n_pipelines=30, graphlets_per_pipeline=(50, 90),
        warmstart_fraction=0.0,
    )
    generate(cfg, tmp_path)
    table = drift_code_table(corpus_pairs(stream_corpus(tmp_path)))
    assert table.code_match_all == pytest.approx(cfg.code_stability, abs=0.02)


def test_stats_permutation_invariant(warm_pair_dir):
    import random

    from graphlets.segmentation import extract_graphlets

    lines = (warm_pair_dir / "warmstart_pair.ndjson").read_text().strip().splitlines()
    shuffled = lines[:]
    random.Random(5).shuffle(shuffled)
    a = parse_trace(lines)
    b = parse_trace(shuffled)
    assert pipeline_stats(a) == pipeline_stats(b)
    ca = cadence_stats([(a, extract_graphlets(a))])
    cb = cadence_stats([(b, extract_graphlets(b))])
    assert ca == cb


def test_gap_count_matches_push_count(small_corpus):
    _, _, _, corpus = small_corpus
    stats = cadence_stats(corpus)
    assert all(gap >= 0 for gap in stats.graphlets_between_pushes)
    expected = sum(
        max(0, sum(g.pushed for g in gs) - 1) for _, gs in corpus
    )
    assert len(stats.graphlets_between_pushes) == expected


def test_bucketize_edges():
    assert bucketize([0.0, 0.25, 0.26, 0.5, 0.51, 0.75, 0.76, 1.0]) == (
        0.25,
        0.25,
        0.25,
        0.25,
    )
    assert bucketize([]) == (0.0, 0.0, 0.0, 0.0)


def test_similarity_table_shares_sum_to_one(small_corpus):
    _, _, _, corpus = small_corpus
    table = similarity_table(corpus_pairs(corpus))
    for row in table.values():
        assert sum(row["buckets"]) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= row["mean"] <= 1.0


def test_pair_similarities_one_record_per_consecutive_pair(small_corpus):
    _, _, _, corpus = small_corpus
    pairs = corpus_pairs(corpus[:3])
    assert len(pairs) == sum(len(gs) - 1 for _, gs in corpus[:3] if gs)
    for pair in pairs:
        assert 0.0 <= pair.jaccard <= 1.0
        assert 0.0 <= pair.dataset_sim <= 1.0
        assert pair.code_match in (0.0, 1.0)
    trace, graphlets = corpus[0]
    ordered = sorted(graphlets, key=lambda g: (g.trainer_end_at, g.anchor))
    first = pairs[0]
    assert (first.pipeline_id, first.anchor_a, first.anchor_b) == (
        trace.pipeline_id, ordered[0].anchor, ordered[1].anchor
    )
    assert first.pushed == ordered[1].pushed
    table = drift_code_table(pairs)
    assert table.pair_count == len(pairs)
    assert table.code_match_all == pytest.approx(sum(p.code_match for p in pairs) / len(pairs))
