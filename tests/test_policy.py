from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from oracles import brute_confusion

from graphlets.config import FeatureStage
from graphlets.policy import (
    EvalRecord,
    HeuristicRow,
    eq1_loss,
    heuristic_baselines,
    sweep,
)


def rec(label, score, cost=1.0, anchor="g"):
    return EvalRecord(
        anchor=anchor,
        label=label,
        score=score,
        unpushed_cost=0.0 if label else cost,
    )


def random_records(rng, n=100):
    out = []
    for i in range(n):
        label = bool(rng.random() < 0.3)
        out.append(rec(label, float(rng.random()), cost=float(rng.random() * 5), anchor=f"g{i}"))
    return out


def test_record_validation():
    with pytest.raises(ValueError):
        rec(True, 1.5)
    with pytest.raises(ValueError):
        EvalRecord(anchor="g", label=True, score=0.5, unpushed_cost=2.0)


def test_sweep_endpoints():
    records = [rec(True, 0.9), rec(False, 0.2)]
    curve = sweep(records)
    first, last = curve.points[0], curve.points[-1]
    assert (first.wasted_fraction, first.freshness) == (1.0, 1.0)
    assert (last.wasted_fraction, last.freshness) == (0.0, 0.0)
    thresholds = [p.threshold for p in curve.points]
    assert thresholds == sorted(thresholds)
    assert len(set(thresholds)) == len(thresholds)


def test_sweep_rejects_single_label():
    with pytest.raises(ValueError):
        sweep([rec(True, 0.5)])


def test_sweep_worked_mapping_point():
    # a decision function that keeps every pushed graphlet and mis-runs the
    # 65% of unpushed graphlets holding 70% of the unpushed cost
    records = [rec(True, 0.9, anchor=f"p{i}") for i in range(10)]
    heavy = 0.7 * 100 / 65
    light = 0.3 * 100 / 35
    records += [rec(False, 0.8, cost=heavy, anchor=f"h{i}") for i in range(65)]
    records += [rec(False, 0.1, cost=light, anchor=f"l{i}") for i in range(35)]
    curve = sweep(records)
    match = [
        p
        for p in curve.points
        if p.freshness == 1.0 and abs(p.fpr - 0.65) < 1e-12
    ]
    assert match
    assert match[0].wasted_fraction == pytest.approx(0.70, abs=1e-12)


def test_sweep_matches_brute_force():
    rng = np.random.default_rng(8)
    records = random_records(rng, 100)
    curve = sweep(records)
    total_unpushed = sum(r.unpushed_cost for r in records if not r.label)
    n_pos = sum(1 for r in records if r.label)
    n_neg = len(records) - n_pos
    for p in curve.points:
        tp, fp, fn, tn, fp_cost = brute_confusion(records, p.threshold)
        assert p.tpr == pytest.approx(tp / n_pos, abs=1e-12)
        assert p.fpr == pytest.approx(fp / n_neg, abs=1e-12)
        assert p.wasted_fraction == pytest.approx(fp_cost / total_unpushed, abs=1e-12)


def test_sweep_monotone():
    rng = np.random.default_rng(13)
    for _ in range(10):
        curve = sweep(random_records(rng, 80))
        fresh = [p.freshness for p in curve.points]
        waste = [p.wasted_fraction for p in curve.points]
        assert all(a >= b for a, b in zip(fresh, fresh[1:]))
        assert all(a >= b for a, b in zip(waste, waste[1:]))


def test_sweep_invariant_under_monotone_score_transform():
    rng = np.random.default_rng(21)
    records = random_records(rng, 60)
    transformed = [
        EvalRecord(
            anchor=r.anchor,
            label=r.label,
            score=r.score**3,  # strictly monotone on [0, 1]
            unpushed_cost=r.unpushed_cost,
        )
        for r in records
    ]
    a = sweep(records)
    b = sweep(transformed)
    assert [(p.wasted_fraction, p.freshness) for p in a.points] == [
        (p.wasted_fraction, p.freshness) for p in b.points
    ]


def test_elimination_with_oracle_scores():
    records = [rec(bool(i % 2), 1.0 if i % 2 else 0.0, anchor=f"g{i}") for i in range(20)]
    curve = sweep(records)
    assert curve.elimination_at_full_freshness() == pytest.approx(1.0)
    anti = [
        rec(bool(i % 2), 0.0 if i % 2 else 1.0, anchor=f"g{i}") for i in range(20)
    ]
    assert sweep(anti).elimination_at_full_freshness() == pytest.approx(0.0)


def test_eq1_loss_identity_counts_errors():
    records = [rec(True, 0.9), rec(True, 0.1), rec(False, 0.8), rec(False, 0.2)]
    # at 0.5: one FN (pushed scored 0.1) and one FP (unpushed scored 0.8)
    assert eq1_loss(records, 0.5) == 2.0
    perfect = [rec(True, 1.0), rec(False, 0.0)]
    assert eq1_loss(perfect, 0.5) == 0.0


def test_eq1_loss_all_run_policy():
    records = [rec(i < 20, 1.0 if i < 20 else 0.999, anchor=f"g{i}") for i in range(100)]
    assert eq1_loss(records, 0.0) == 80.0


def test_eq1_loss_cost_weighted_matches_exhaustive_minimum():
    rng = np.random.default_rng(34)
    records = random_records(rng, 60)

    def waste(x, r):
        return x * r.unpushed_cost

    thresholds = sorted({r.score for r in records}) + [2.0]
    losses = [eq1_loss(records, t, loss_waste=waste) for t in thresholds]
    brute_best = min(losses)
    fine = [eq1_loss(records, t, loss_waste=waste) for t in np.linspace(0, 1.001, 400)]
    assert min(fine) >= brute_best - 1e-12


def test_heuristic_model_type_rule_perfect_when_types_separate():
    train = [HeuristicRow("dnn", 0.5, 1.0, True) for _ in range(20)]
    train += [HeuristicRow("tree", 0.5, 1.0, False) for _ in range(20)]
    test = [HeuristicRow("dnn", 0.1, 0.0, True), HeuristicRow("tree", 0.9, 1.0, False)]
    result = heuristic_baselines(train, test * 5)
    assert result["model_type"] == 1.0


def test_heuristic_code_match_near_half_when_independent():
    rng = np.random.default_rng(55)
    rows = [
        HeuristicRow("dnn", float(rng.random()), float(rng.random() < 0.8), bool(rng.random() < 0.5))
        for _ in range(10_000)
    ]
    result = heuristic_baselines(rows[:8000], rows[8000:])
    assert result["code_match"] == pytest.approx(0.5, abs=0.03)


def test_policy_decides_by_threshold():
    # a pushed record loses freshness exactly when the policy skips it
    assert eq1_loss([rec(True, 0.39)], threshold=0.4) == 1.0
    assert eq1_loss([rec(True, 0.4)], threshold=0.4) == 0.0
    assert eq1_loss([rec(True, 0.9)], threshold=0.4) == 0.0


def test_forest_beats_heuristics_on_planted_corpus(small_corpus):
    from graphlets.features import Featurizer
    from graphlets.config import ForestConfig
    from graphlets.segmentation import is_warmstart
    from graphlets.workflow import policy_report

    _, _, _, corpus = small_corpus
    f = Featurizer()
    report = policy_report(
        [f.pipeline_rows(t, gs) for t, gs in corpus if not is_warmstart(gs)],
        forest_cfg=ForestConfig(n_trees=20, max_depth=12, min_leaf=4, seed=2),
        seed=3,
        stages=(FeatureStage.VALIDATION,),
    )
    best_heuristic = max(report.heuristics.values())
    assert report.stages[0].balanced_accuracy >= best_heuristic + 0.1


def test_heuristic_overlap_picks_informative_threshold():
    rng = np.random.default_rng(56)
    rows = []
    for _ in range(2000):
        label = bool(rng.random() < 0.5)
        j = rng.normal(0.8 if label else 0.3, 0.1)
        rows.append(HeuristicRow("dnn", float(np.clip(j, 0, 1)), 1.0, label))
    result = heuristic_baselines(rows[:1500], rows[1500:])
    assert result["input_overlap"] > 0.9


def test_sweep_and_baselines_leave_numpy_ma_unimported():
    # np.unique imports all of numpy.ma on first use, which a report never
    # needs; scores and overlaps with ties take the distinct-value path.
    code = """
import sys
from graphlets.policy import EvalRecord, HeuristicRow, heuristic_baselines, sweep
assert "numpy.ma" not in sys.modules
records = [EvalRecord(str(i), i % 3 == 0, (i % 5) / 4, 0.0 if i % 3 == 0 else 1.0)
           for i in range(30)]
assert len(sweep(records).points) == 6
rows = [HeuristicRow("m", (i % 4) / 4, 1.0, i % 2 == 0) for i in range(20)]
heuristic_baselines(rows, rows)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
