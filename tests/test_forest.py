from __future__ import annotations

import dataclasses
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import loop_best_split, loop_scores, reference_fit

from graphlets import forest, workflow
from graphlets.config import STAGES, ForestConfig
from graphlets.features import Featurizer
from graphlets.forest import (
    _Splitter,
    balanced_accuracy,
    fit,
    fit_prefixes,
    forest_from_dict,
    forest_to_dict,
    scores,
    split_corpus,
    splitmix64,
)
from graphlets.segmentation import is_warmstart
from graphlets.workflow import split_pipelines


def test_forced_split_on_two_points():
    # seed 2's bootstrap keeps both rows, so the only viable split is forced
    forest = fit(
        np.array([[0.0], [1.0]]),
        [False, True],
        ForestConfig(n_trees=1, max_depth=1, min_leaf=1, seed=2),
    )
    tree = forest.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(0.5)
    left, right = tree.left[0], tree.right[0]
    assert {tree.fraction[left], tree.fraction[right]} == {0.0, 1.0}


def test_all_negative_labels_score_zero():
    X = np.arange(20, dtype=float).reshape(-1, 1)
    forest = fit(X, [False] * 20, ForestConfig(n_trees=5))
    assert (scores(forest, X) == 0.0).all()


def test_separable_data_reaches_perfect_training_accuracy():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 4))
    y = X[:, 1] > 0.2
    forest = fit(X, y, ForestConfig(n_trees=30, seed=3))
    preds = scores(forest, X) >= 0.5
    assert balanced_accuracy(y, preds) == 1.0
    for x, label in zip(X[:5], y[:5]):
        assert (scores(forest, x[None, :])[0] >= 0.5) == label


def test_determinism_same_config_same_forest():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(150, 6))
    y = (X[:, 0] + rng.normal(scale=0.5, size=150)) > 0
    a = fit(X, y, ForestConfig(n_trees=10, seed=7))
    b = fit(X, y, ForestConfig(n_trees=10, seed=7))
    assert (scores(a, X) == scores(b, X)).all()
    for ta, tb in zip(a.trees, b.trees):
        assert (ta.feature == tb.feature).all()
        assert (ta.threshold == tb.threshold).all()
    c = fit(X, y, ForestConfig(n_trees=10, seed=8))
    assert not (scores(a, X) == scores(c, X)).all()


def test_monotone_feature_transform_preserves_predictions():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(120, 5))
    y = (X[:, 2] - X[:, 4]) > 0
    cfg = ForestConfig(n_trees=12, seed=5)
    base = fit(X, y, cfg)
    X2 = X.copy()
    X2[:, 2] = 2.0 * X2[:, 2] + 1.0  # strictly monotone remap of one feature
    remapped = fit(X2, y, cfg)
    assert (scores(base, X) == scores(remapped, X2)).all()


def test_min_leaf_respected():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(64, 3))
    y = rng.random(64) < 0.5
    forest = fit(X, y, ForestConfig(n_trees=8, min_leaf=7, seed=1))
    for tree in forest.trees:
        leaves = tree.feature == -1
        assert (tree.count[leaves] >= 7).all()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_midpoint_of_huge_values_stays_finite(sign):
    # 1.75e308 + 1.7e308 overflows; the threshold must still fall between them.
    X = sign * np.repeat([1.75e308, 1.7e308], 30)[:, None]
    y = np.repeat([True, False], 30)
    cfg = ForestConfig(n_trees=4, min_leaf=5, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = fit(X, y, cfg)
        assert (scores(model, X) == y).all()
    for tree in model.trees:
        split = tree.feature >= 0
        assert split.any()
        assert np.isfinite(tree.threshold).all()
        assert (tree.count[tree.left[split]] > 0).all()
        assert (tree.count[tree.right[split]] > 0).all()
    json.dumps(forest_to_dict(model), allow_nan=False)
    assert _forest_json(model) == _forest_json(reference_fit(X, y, cfg))


def test_score_schema_mismatch_errors():
    X = np.zeros((4, 2))
    forest = fit(X + [[0, 1], [1, 0], [0, 0], [1, 1]], [True, False, True, False],
                 ForestConfig(n_trees=2), feature_names=["a", "b"])
    with pytest.raises(ValueError):
        scores(forest, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        scores(forest, np.zeros((2, 2)), feature_names=["a", "c"])


def test_balanced_accuracy_formula():
    assert balanced_accuracy([True, False], [True, False]) == 1.0
    # TPR 1.0 with TNR 0.35: 20 negatives, 7 correctly rejected
    y_true = [True] * 5 + [False] * 20
    y_pred = [True] * 5 + [False] * 7 + [True] * 13
    assert balanced_accuracy(y_true, y_pred) == pytest.approx((1.0 + 0.35) / 2)
    # constant majority prediction on imbalanced labels
    y_true = [False] * 80 + [True] * 20
    assert balanced_accuracy(y_true, [False] * 100) == 0.5


def test_balanced_accuracy_rejects_single_class():
    with pytest.raises(ValueError):
        balanced_accuracy([True, True], [True, False])
    with pytest.raises(ValueError):
        balanced_accuracy([], [])


def test_splitmix64_is_stable():
    assert splitmix64(42) == splitmix64(42)
    assert splitmix64(42) != splitmix64(43)
    assert 0 <= splitmix64(2**64 - 1) < 2**64


def test_forest_round_trips_through_dict():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    y = X[:, 0] > 0
    forest = fit(X, y, ForestConfig(n_trees=4, seed=2), feature_names=["a", "b", "c"])
    payload = json.loads(json.dumps(forest_to_dict(forest)))
    again = forest_from_dict(payload)
    assert (scores(again, X, feature_names=["a", "b", "c"]) == scores(forest, X)).all()


def test_split_corpus_even_pipelines():
    pipelines = [(f"p{i}", [True, False] * 5) for i in range(10)]
    spec = split_corpus(pipelines, seed=1)
    assert len(spec.train_pipeline_ids) == 8
    assert len(spec.test_pipeline_ids) == 2
    assert spec.train_fraction == pytest.approx(0.8)
    assert abs(spec.train_rate - spec.test_rate) <= 0.02


def test_split_corpus_single_giant_pipeline_fails():
    pipelines = [("big", [True] * 95 + [False] * 95), ("small", [True, False] * 5)]
    with pytest.raises(ValueError):
        with pytest.warns(UserWarning):
            split_corpus(pipelines, seed=1)


def test_split_corpus_masks_negative_seeds_to_64_bits():
    pipelines = [(f"p{i}", [True, False] * 5) for i in range(10)]
    assert split_corpus(pipelines, seed=-1) == split_corpus(pipelines, seed=2**64 - 1)


def test_split_corpus_deterministic():
    rng = np.random.default_rng(5)
    pipelines = [
        (f"p{i}", (rng.random(int(rng.integers(5, 40))) < 0.2).tolist()) for i in range(40)
    ]
    a = split_corpus(pipelines, seed=9)
    b = split_corpus(pipelines, seed=9)
    assert a == b
    assert set(a.train_pipeline_ids) | set(a.test_pipeline_ids) == {p for p, _ in pipelines}
    assert not (set(a.train_pipeline_ids) & set(a.test_pipeline_ids))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    X = np.array([[0.0], [1.0], [bad], [2.0], [3.0], [bad]] * 5)
    y = [False, True] * 15
    with pytest.raises(ValueError, match="NaN or infinite"):
        fit(X, y, ForestConfig(n_trees=2))
    forest = fit(np.where(np.isfinite(X), X, 0.0), y, ForestConfig(n_trees=2))
    with pytest.raises(ValueError, match="NaN or infinite"):
        scores(forest, X)


# Few distinct values per column, so split search meets many ties.
_values = st.one_of(st.integers(-2, 2).map(float), st.integers(-400, 400).map(lambda k: k / 8))


@st.composite
def _split_problems(draw, values=_values, trees=st.integers(1, 3)):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 9))
    X = draw(arrays(np.float64, (n, d), elements=values))
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, constant] = X[0, constant]
    y = draw(arrays(np.bool_, n))
    cfg = ForestConfig(
        n_trees=draw(trees),
        max_depth=draw(st.integers(1, 6)),
        min_leaf=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**32)),
    )
    return X, y, cfg


def _forest_json(forest) -> str:
    return json.dumps(forest_to_dict(forest))


# Without the shrink phase a failing split search is reported in seconds;
# shrinking refits two forests per step and takes minutes.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)
_TIES = np.array([[0.0, 5.0], [1.0, 5.0], [1.0, 5.0], [2.0, 5.0]] * 3)
_MIXED = np.array([False, True, True, False] * 3)


@settings(max_examples=150, deadline=None, phases=_NO_SHRINK)
@given(_split_problems())
@example((_TIES, np.zeros(12, dtype=bool), ForestConfig(n_trees=2, min_leaf=1)))
@example((_TIES, _MIXED, ForestConfig(n_trees=2, max_depth=1, min_leaf=1)))
@example((_TIES, _MIXED, ForestConfig(n_trees=2, min_leaf=7)))
def test_fit_matches_loop_split_oracle(problem):
    X, y, cfg = problem
    assert _forest_json(fit(X, y, cfg)) == _forest_json(reference_fit(X, y, cfg))


# Adjacent floats whose midpoint rounds up to the larger: a split between
# them sends every row left, which a partition at the sorted cut would not.
_A = np.nextafter(1.0, 2.0)
_B = np.nextafter(_A, 2.0)
assert (_A + _B) / 2 == _B
_ADJACENT = np.array([[_A]] * 60 + [[_B]] * 50)
_ADJACENT_Y = np.arange(110) >= 60
# -0.0 and 0.0 are one value: they share a rank, and no cut falls between them.
_SIGNED_ZEROS = np.array([[-0.0, 1.0], [0.0, -0.0], [1.0, 0.0], [-1.0, -0.0], [0.0, 2.0]] * 4)
_SIGNED_ZEROS_Y = np.array([True, False, False, True, True] * 4)
_EDGE_VALUES = st.one_of(_values, st.sampled_from([_A, _B, -0.0]))


def _check_splits(X, y, idxs, feats, min_leaf):
    # Node k is a segment of one row buffer, holding rows idxs[k], and is
    # searched over feats[k]; every split and partition matches the oracle.
    n1 = np.array([int(y[idx].sum()) for idx in idxs])
    size = np.array([len(idx) for idx in idxs])
    at = size.cumsum() - size
    buf = np.concatenate(idxs).astype(np.min_scalar_type(len(X) - 1))
    out = _Splitter(X, y, 0.75, 1.5, min_leaf).split(buf, at, size, n1, feats)
    splits = {k: split for k, *split in zip(*(a.tolist() for a in out))}
    XT = np.ascontiguousarray(X.T)
    for k, (idx, cand) in enumerate(zip(idxs, feats)):
        expected = loop_best_split(XT, y, idx, n1[k], cand, min_leaf, 0.75, 1.5)
        split = splits.get(k)
        assert (None if split is None else tuple(split[:2])) == expected
        segment = buf[at[k] : at[k] + size[k]].tolist()
        if split is None:
            assert segment == idx.tolist()
            continue
        f, thr, n_left, left_n1 = split
        go_left = X[idx, f] <= thr
        assert segment == idx[go_left].tolist() + idx[~go_left].tolist()
        assert n_left == go_left.sum()
        assert left_n1 == int(y[idx[go_left]].sum())


@settings(max_examples=150, deadline=None, phases=_NO_SHRINK)
@given(st.one_of(_split_problems(), _split_problems(values=_EDGE_VALUES)),
       st.integers(1, 12), st.integers(1, 4))
@example((_ADJACENT, _ADJACENT_Y, ForestConfig(n_trees=1, min_leaf=5)), 1, 3)
@example((_SIGNED_ZEROS, _SIGNED_ZEROS_Y, ForestConfig(n_trees=1, min_leaf=1)), 2, 4)
def test_best_split_matches_loop_for_any_mtry(problem, mtry, nodes):
    # One block holds several nodes of unequal size, some too small to cut,
    # each with its own candidates: mtry of them, capped at the column
    # count.  Adjacent floats and signed zeros meet the rank partition where
    # a midpoint rounds up and where two values share a rank.
    X, y, cfg = problem
    n, d = X.shape
    rng = np.random.default_rng(cfg.seed)
    idxs = [rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))) for _ in range(nodes)]
    feats = np.array([np.sort(rng.choice(d, size=min(mtry, d), replace=False)) for _ in idxs])
    _check_splits(X, y, idxs, feats, cfg.min_leaf)


@pytest.mark.parametrize("n, dtype", [(16383, np.int16), (16384, np.int32)])
def test_positive_count_fits_the_key_dtype(n, dtype):
    # The running count of positives is kept in the key dtype; on a node of
    # every row, all positive but one, it reaches n - 1 without wrapping.
    X = np.arange(n, dtype=float)[:, None]
    y = np.arange(n) != n // 3
    assert _Splitter(X, y, 1.0, 1.0, 1).key.dtype == dtype
    _check_splits(X, y, [np.arange(n)], np.zeros((1, 1), dtype=np.intp), 5)


def test_stage_forests_match_loop_split_oracle(small_corpus):
    _, _, _, corpus = small_corpus
    f = Featurizer()
    rows = [f.pipeline_rows(t, gs) for t, gs in corpus if not is_warmstart(gs)]
    _, train, _ = split_pipelines(rows, seed=3)
    feats = f.with_vocab(train).assemble(train)
    cfg = ForestConfig(n_trees=10, seed=2)
    expected = []
    for stage in STAGES:
        names, X, _ = feats.stage_view(stage)
        fast = fit(X, feats.y, cfg, feature_names=names)
        slow = reference_fit(X, feats.y, cfg, feature_names=names)
        assert _forest_json(fast) == _forest_json(slow), stage
        expected.append(_forest_json(slow))
    # policy_report fits every stage in one call, over the full matrix.
    calls = []

    def spy(*args):
        calls.append(args[4])
        return fit_prefixes(*args)

    with mock.patch.object(workflow, "fit_prefixes", spy):
        report = workflow.policy_report(rows, f, cfg, seed=3)
    assert calls == [[feats.featurizer.stage_slice(stage).stop for stage in STAGES]]
    assert [_forest_json(s.model) for s in report.stages] == expected


@settings(max_examples=150, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(values=_EDGE_VALUES))
@example((_ADJACENT, _ADJACENT_Y, ForestConfig(n_trees=2, min_leaf=5)))
@example((_TIES, _MIXED, ForestConfig(n_trees=2, min_leaf=1)))
@example((_SIGNED_ZEROS, _SIGNED_ZEROS_Y, ForestConfig(n_trees=3, min_leaf=1)))
def test_fit_matches_recursive_reference_fit(problem):
    X, y, cfg = problem
    assert _forest_json(fit(X, y, cfg)) == _forest_json(reference_fit(X, y, cfg))


_CELLS = st.sampled_from([1, 64, 2**40])


@settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(values=_EDGE_VALUES, trees=st.integers(1, 4)),
       st.lists(st.integers(1, 9), min_size=1, max_size=5), _CELLS)
@example((_ADJACENT, _ADJACENT_Y, ForestConfig(n_trees=2, min_leaf=5)), [1, 1], 1)
@example((_ADJACENT, _ADJACENT_Y, ForestConfig(n_trees=2, min_leaf=5)), [1], 2**40)
@example((_SIGNED_ZEROS, _SIGNED_ZEROS_Y, ForestConfig(n_trees=3, min_leaf=1)), [2, 1, 2], 1)
@example((_SIGNED_ZEROS, _SIGNED_ZEROS_Y, ForestConfig(n_trees=3, min_leaf=1)), [1, 2], 2**40)
@example((_TIES, np.zeros(12, dtype=bool), ForestConfig(n_trees=2, min_leaf=1)), [2, 1], 64)
@example((_TIES, np.ones(12, dtype=bool), ForestConfig(n_trees=2, min_leaf=1)), [1, 2], 1)
def test_prefix_forests_match_separate_fits(problem, raw_widths, cells):
    # Each prefix forest is the forest of its columns alone, however the
    # round's nodes of all the forests are cut into search blocks.
    X, y, cfg = problem
    d = X.shape[1]
    widths = [1 + (w - 1) % d for w in raw_widths]
    names = [f"c{j}" for j in range(d)]
    with mock.patch.object(forest, "_CHUNK_CELLS", cells):
        got = fit_prefixes(X, y, cfg, names, widths)
    assert len(got) == len(widths)
    for w, model in zip(widths, got):
        alone = fit(X[:, :w], y, cfg, names[:w])
        slow = reference_fit(X[:, :w], y, cfg, names[:w])
        assert _forest_json(model) == _forest_json(alone) == _forest_json(slow), w


@pytest.mark.parametrize("widths", [[], [0], [2, 0], [4], [1, 3, 4], [-1]])
def test_prefix_widths_outside_the_matrix_are_rejected(widths):
    X = np.arange(12.0).reshape(4, 3)
    with pytest.raises(ValueError, match=r"^prefix widths .* must be one or more in \[1, 3\]$"):
        fit_prefixes(X, [True, False] * 2, ForestConfig(n_trees=1), None, widths)


@settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(values=st.one_of(_values, st.sampled_from([_A, _B])), trees=st.integers(2, 4)))
@example((_ADJACENT, _ADJACENT_Y, ForestConfig(n_trees=3, min_leaf=5)))
@example((_TIES, _MIXED, ForestConfig(n_trees=3, min_leaf=1)))
def test_fit_does_not_depend_on_search_chunk_size(problem):
    # One node per block, and every node of a round in one padded block.
    X, y, cfg = problem
    forests = []
    for cells in (1, 2**40):
        with mock.patch.object(forest, "_CHUNK_CELLS", cells):
            forests.append(_forest_json(fit(X, y, cfg)))
    assert forests[0] == forests[1]


@settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(values=_EDGE_VALUES, trees=st.integers(2, 4)))
@example((_TIES, _MIXED, ForestConfig(n_trees=3, min_leaf=1)))
def test_fit_does_not_depend_on_draw_batch(problem):
    # A refill before every node, and one draw for every node of a tree.
    X, y, cfg = problem
    forests = []
    for first in (1, 2**12):
        with mock.patch.object(forest, "_FIRST_DRAWS", first):
            forests.append(_forest_json(fit(X, y, cfg)))
    assert forests[0] == forests[1] == _forest_json(reference_fit(X, y, cfg))


@settings(max_examples=50, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(values=_EDGE_VALUES))
@example((_SIGNED_ZEROS, _SIGNED_ZEROS_Y, ForestConfig(n_trees=3, min_leaf=1)))
def test_fit_does_not_depend_on_key_dtype(problem):
    # These matrices get int16 keys; force the wider ones with their pads.
    X, y, cfg = problem
    assert _Splitter(X, y, 1.0, 1.0, 1).key.dtype == np.int16
    forests = [_forest_json(fit(X, y, cfg))]
    for wide in (np.int32, np.int64):
        with mock.patch.object(forest, "_key_dtype", lambda n: wide):
            assert _Splitter(X, y, 1.0, 1.0, 1).key.dtype == wide
            forests.append(_forest_json(fit(X, y, cfg)))
    assert forests[0] == forests[1] == forests[2]


def test_key_dtype_leaves_room_for_the_pad():
    # Keys of n rows lie below 2n; the pad is the dtype's largest value.
    assert forest._key_dtype(16383) == np.int16
    assert forest._key_dtype(16384) == np.int32
    assert forest._key_dtype(2**30 - 1) == np.int32
    assert forest._key_dtype(2**30) == np.int64


@pytest.mark.parametrize("d", [*range(1, 65), 2500, 10001])
def test_bulk_draws_replay_choice_call_by_call(d):
    # Each node's candidates are the sorted picks of one choice call on its
    # tree's generator after the bootstrap draw, wherever the batches end.
    m = math.isqrt(d - 1) + 1
    plan = np.random.default_rng(d)
    for seed in range(0, 60, 3):
        rngs, expected = [], []
        for s in range(seed, seed + 3):
            rng, twin = np.random.default_rng(s), np.random.default_rng(s)
            n = int(plan.integers(1, 50))
            rng.integers(0, n, size=n)
            twin.integers(0, n, size=n)
            rngs.append(rng)
            expected.append([np.sort(twin.choice(d, m, replace=False)) for _ in range(24)])
        got = np.empty((3, 0, m), dtype=np.intp)
        while got.shape[1] < 24:
            batch = forest._draw(rngs, int(plan.integers(1, 8)), d, m)
            got = np.concatenate((got, batch), axis=1)
        assert np.array_equal(got[:, :24], expected)


@settings(max_examples=50, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(trees=st.integers(2, 5)))
def test_each_tree_replays_its_own_stream(problem):
    # Tree t of a forest is the only tree of a forest seeded seed + t.
    X, y, cfg = problem
    trees = forest_to_dict(fit(X, y, cfg))["trees"]
    for t, tree in enumerate(trees):
        alone = fit(X, y, dataclasses.replace(cfg, n_trees=1, seed=cfg.seed + t))
        assert forest_to_dict(alone)["trees"] == [tree]


@settings(max_examples=100, deadline=None, phases=_NO_SHRINK)
@given(_split_problems(), st.data())
def test_scores_match_per_tree_oracle_bitwise(problem, data):
    X, y, cfg = problem
    model = fit(X, y, cfg)
    rows = data.draw(st.integers(0, 12))
    other = data.draw(arrays(np.float64, (rows, X.shape[1]), elements=_values))
    for M in (X, other):
        assert scores(model, M).tobytes() == loop_scores(model, M).tobytes()


@pytest.mark.parametrize("pairs", [1, 7, 40, 1 << 17])
def test_scores_in_row_blocks_match_the_oracle_bitwise(pairs, monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 4))
    y = X[:, 0] + 0.5 * rng.normal(size=60) > 0
    model = fit(X, y, ForestConfig(n_trees=8, max_depth=6, min_leaf=2, seed=4))
    monkeypatch.setattr(forest, "_SCORE_PAIRS", pairs)  # 1, 1, 5 and all 60 rows a block
    assert scores(model, X).tobytes() == loop_scores(model, X).tobytes()


def _leaf(fraction):
    return {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "fraction": fraction, "count": 1}


def _split(threshold, left, right):
    return {"feature": 0, "threshold": threshold, "left": left, "right": right,
            "fraction": 0.5, "count": 2}


def _tree_payload(nodes):
    return {key: [node[key] for node in nodes] for key in nodes[0]}


def test_scores_walk_loaded_trees_deeper_than_max_depth():
    # A chain of three splits and a stump, in a forest whose config says depth 1.
    chain = [_split(3.0, 1, 6), _split(2.0, 2, 5), _split(1.0, 3, 4),
             _leaf(0.125), _leaf(0.25), _leaf(0.375), _leaf(0.5)]
    stump = [_split(0.0, 1, 2), _leaf(0.0), _leaf(1.0)]
    model = forest_from_dict({
        "config": {"n_trees": 2, "max_depth": 1, "min_leaf": 1, "seed": 0},
        "n_features": 1,
        "class_weights": [1.0, 1.0],
        "feature_names": None,
        "trees": [_tree_payload(chain), _tree_payload(stump)],
    })
    X = np.array([[0.5], [1.5], [2.5], [10.0], [-1.0]])
    got = scores(model, X)
    assert got.tolist() == [(0.125 + 1.0) / 2, (0.25 + 1.0) / 2, (0.375 + 1.0) / 2,
                            (0.5 + 1.0) / 2, 0.125 / 2]
    assert got.tobytes() == loop_scores(model, X).tobytes()
    empty = scores(model, np.zeros((0, 1)))
    assert empty.shape == (0,)
    assert empty.tobytes() == loop_scores(model, np.zeros((0, 1))).tobytes()
