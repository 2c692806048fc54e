from __future__ import annotations

import pytest

from graphlets.config import STAGES, FeatureStage, WindowConfig
from graphlets.features import MISSING, Featurizer, build_arch_vocab
from graphlets.segmentation import extract_graphlets
from graphlets.similarity import graphlet_similarities
from graphlets.trace import parse_trace


def featurizer_for(trace, graphlets, **kw):
    f = Featurizer(**kw)
    return f.with_vocab([f.pipeline_rows(trace, graphlets)])


def featurize(corpus):
    """The corpus's features, its vocabulary taken from the whole corpus."""
    f = Featurizer()
    rows = [f.pipeline_rows(trace, graphlets) for trace, graphlets in corpus]
    return f.with_vocab(rows).assemble(rows)


def sims_for(f, trace, g, predecessors):
    """``graphlet_similarities`` of ``g`` against each of its predecessors."""
    return graphlet_similarities(trace, [(g, p) for p in predecessors], f.lsh, f.weights)


def full_row(f, g, sims):
    """The validation-stage row, built by the production row path."""
    return f.model_features(g.model_type, g.architecture) + f.history_and_shape(g, sims)


def stage_row(f, g, predecessors, stage, trace):
    """Feature name -> value at ``stage``, built by the production row path."""
    sl = f.stage_slice(stage)
    values = full_row(f, g, sims_for(f, trace, g, predecessors))[sl]
    return dict(zip(f.full_names()[sl], values))


def test_stage_vectors_nest_and_grow(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    g = warm_pair_graphlets[1]
    full = full_row(f, g, sims_for(f, warm_pair_trace, g, [warm_pair_graphlets[0]]))
    assert len(full) == len(f.full_names())
    lengths = []
    prev_values = None
    for stage in STAGES:
        sl = f.stage_slice(stage)
        names, values = f.full_names()[sl], full[sl]
        lengths.append(len(values))
        assert len(values) == len(names)
        if prev_values is not None:
            assert values[: len(prev_values)] == prev_values
        prev_values = values
    assert lengths[-1] == len(full)
    assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)


def test_shape_features_of_consumer_graphlet(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    row = stage_row(
        f, warm_pair_graphlets[1], [warm_pair_graphlets[0]], FeatureStage.VALIDATION,
        warm_pair_trace,
    )
    assert row["shape_example_gen_count"] == 2.0
    assert row["shape_example_gen_avg_out"] == 1.0
    assert row["shape_trainer_count"] == 1.0
    assert row["shape_trainer_avg_in"] == 2.0
    assert row["shape_trainer_avg_out"] == 1.0
    assert row["shape_evaluator_count"] == 1.0
    assert row["shape_transform_count"] == 0.0
    assert not any(name.startswith("shape_pusher") for name in row)


def test_post_trainer_features_zero_when_absent(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    row = stage_row(f, warm_pair_graphlets[0], [], FeatureStage.VALIDATION, warm_pair_trace)
    assert row["shape_evaluator_count"] == 0.0
    assert row["shape_model_validator_count"] == 0.0
    assert row["shape_model_validator_avg_in"] == 0.0


def test_evaluator_with_three_inputs():
    lines = [
        '{"kind": "execution", "id": "tr", "operator": "trainer", "pipeline_id": "p", "start_at": 1, "end_at": 2, "state": "complete", "cpu_cost": 1.0, "properties": {"model_type": "dnn"}}',
        '{"kind": "artifact", "id": "m", "type": "model", "created_at": 2, "pipeline_id": "p", "properties": {}}',
        '{"kind": "artifact", "id": "x1", "type": "other", "created_at": 2, "pipeline_id": "p", "properties": {}}',
        '{"kind": "artifact", "id": "x2", "type": "other", "created_at": 2, "pipeline_id": "p", "properties": {}}',
        '{"kind": "execution", "id": "ev", "operator": "evaluator", "pipeline_id": "p", "start_at": 3, "end_at": 4, "state": "complete", "cpu_cost": 1.0, "properties": {}}',
        '{"kind": "artifact", "id": "r", "type": "eval_result", "created_at": 4, "pipeline_id": "p", "properties": {}}',
        '{"kind": "edge", "from": "tr", "to": "m", "role": "output"}',
        '{"kind": "edge", "from": "tr", "to": "x1", "role": "output"}',
        '{"kind": "edge", "from": "tr", "to": "x2", "role": "output"}',
        '{"kind": "edge", "from": "m", "to": "ev", "role": "input"}',
        '{"kind": "edge", "from": "x1", "to": "ev", "role": "input"}',
        '{"kind": "edge", "from": "x2", "to": "ev", "role": "input"}',
        '{"kind": "edge", "from": "ev", "to": "r", "role": "output"}',
    ]
    trace = parse_trace(lines)
    (g,) = extract_graphlets(trace)
    f = Featurizer()
    row = stage_row(f, g, [], FeatureStage.VALIDATION, trace)
    assert row["shape_evaluator_avg_in"] == 3.0


def test_model_features_one_hot(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    row = stage_row(f, warm_pair_graphlets[1], [], FeatureStage.INPUT, warm_pair_trace)
    assert row["model_type_dnn"] == 1.0
    assert row["model_type_linear"] == 0.0
    assert row["arch_feedforward"] == 1.0
    assert row["arch_other"] == 0.0


def test_unseen_architecture_maps_to_other(warm_pair_trace, warm_pair_graphlets):
    f = Featurizer(arch_vocab=("some_other_arch",))
    row = stage_row(f, warm_pair_graphlets[1], [], FeatureStage.INPUT, warm_pair_trace)
    assert row["arch_some_other_arch"] == 0.0
    assert row["arch_other"] == 1.0


def test_history_sentinels_for_first_graphlet(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    row = stage_row(f, warm_pair_graphlets[0], [], FeatureStage.INPUT, warm_pair_trace)
    for i in (1, 2, 3):
        assert row[f"jaccard_{i}"] == MISSING
        assert row[f"dataset_sim_{i}"] == MISSING
        assert row[f"code_match_{i}"] == MISSING


def test_history_identical_predecessor(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    g = warm_pair_graphlets[1]
    row = stage_row(f, g, [g], FeatureStage.INPUT, warm_pair_trace)
    assert row["jaccard_1"] == 1.0
    assert row["dataset_sim_1"] == pytest.approx(1.0, abs=1e-9)
    assert row["code_match_1"] == 1.0
    assert row["jaccard_2"] == MISSING


def test_history_disjoint_and_changed(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    import dataclasses

    prev = dataclasses.replace(warm_pair_graphlets[0], trainer_code_version="v999")
    row = stage_row(f, warm_pair_graphlets[1], [prev], FeatureStage.INPUT, warm_pair_trace)
    assert row["jaccard_1"] == 0.0  # span_b vs span_a
    assert row["code_match_1"] == 0.0


def test_cost_to_acquire_monotone(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    for g in warm_pair_graphlets:
        costs = [f.stage_cost(g, stage) for stage in STAGES]
        assert costs == sorted(costs)


def test_validation_cost_equals_trainer_stage_when_no_validators(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    g = warm_pair_graphlets[0]  # no evaluator/model_validator
    assert f.stage_cost(g, FeatureStage.INPUT_PRE_TRAINER) == f.stage_cost(g, FeatureStage.VALIDATION)


def test_unknown_stage_rejected(warm_pair_trace, warm_pair_graphlets):
    f = featurizer_for(warm_pair_trace, warm_pair_graphlets)
    with pytest.raises(ValueError, match="unknown feature stage"):
        f.stage_slice("not_a_stage")
    feats = f.assemble([f.pipeline_rows(warm_pair_trace, warm_pair_graphlets)])
    with pytest.raises(ValueError, match="unknown feature stage"):
        feats.stage_view("not_a_stage")


def test_schema_is_pure_function_of_vocab_and_window():
    a = Featurizer(window=WindowConfig(3), arch_vocab=("x", "y"))
    b = Featurizer(window=WindowConfig(3), arch_vocab=("x", "y"))
    assert a.full_names() == b.full_names()
    c = Featurizer(window=WindowConfig(2), arch_vocab=("x", "y"))
    assert c.full_names() != a.full_names()


def test_arch_vocab_caps_and_sorts(warm_pair_trace, warm_pair_graphlets):
    vocab = build_arch_vocab([Featurizer().pipeline_rows(warm_pair_trace, warm_pair_graphlets)])
    assert vocab == ("feedforward",)


def test_featurize_corpus_matches_full_row(small_corpus):
    _, _, traces, corpus = small_corpus
    feats = featurize(corpus[:3])
    assert feats.X.shape[0] == sum(len(gs) for _, gs in corpus[:3])
    assert feats.X.shape[1] == len(feats.names)
    f = feats.featurizer
    trace, graphlets = corpus[0]
    ordered = sorted(graphlets, key=lambda g: (g.trainer_end_at, g.anchor))
    windows = [ordered[max(0, pos - f.window.w): pos][::-1] for pos in range(len(ordered))]
    for pos, (g, predecessors) in enumerate(zip(ordered, windows)):
        # One call per row gives what the pipeline's one call gave.
        assert feats.X[pos].tolist() == full_row(f, g, sims_for(f, trace, g, predecessors))
        assert feats.anchors[pos] == g.anchor
        for stage in STAGES:
            assert feats.stage_costs[stage][pos] == f.stage_cost(g, stage)
    # sentinel only in history columns, and only near pipeline starts
    history_cols = [i for i, n in enumerate(feats.names) if n.startswith(("jaccard", "dataset", "code"))]
    non_history = [i for i in range(len(feats.names)) if i not in history_cols]
    assert not (feats.X[:, non_history] == MISSING).any()
    for stage in STAGES:
        names, X, costs = feats.stage_view(stage)
        assert X.shape == (feats.X.shape[0], len(names))
        assert (costs >= 0).all()


def test_sentinels_only_in_first_w_rows_of_each_pipeline(small_corpus):
    _, _, traces, corpus = small_corpus
    feats = featurize(corpus)
    w = feats.featurizer.window.w
    history_cols = [
        i for i, n in enumerate(feats.names) if n.startswith(("jaccard", "dataset", "code"))
    ]
    position: dict[str, int] = {}
    for row, pid in enumerate(feats.pipeline_ids):
        pos = position.get(pid, 0)
        position[pid] = pos + 1
        has_sentinel = (feats.X[row, history_cols] == MISSING).any()
        if pos >= w:
            assert not has_sentinel
        else:
            assert has_sentinel  # fewer than w predecessors exist yet


def test_stage_cost_ratios_increase_to_one(small_corpus):
    _, _, traces, corpus = small_corpus
    feats = featurize(corpus)
    means = [float(feats.stage_costs[stage].mean()) for stage in STAGES]
    ratios = [m / means[-1] for m in means]
    assert ratios == sorted(ratios)
    assert ratios[-1] == 1.0
    assert ratios[0] < 1.0
