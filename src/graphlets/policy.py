"""Execution policies from classifier scores.

A policy thresholds the push-likelihood score: graphlets scoring below the
threshold are skipped (predicted unpushed).  Skipping a would-be-pushed
graphlet costs model freshness (a false negative); running a never-pushed
graphlet wastes its compute (a false positive).  The threshold sweep maps
each threshold to (wasted-computation, freshness) where freshness is the
true-positive rate and wasted computation is the cost share of unpushed
graphlets the policy failed to skip.

Feature-acquisition cost is tracked apart from the sweep, as a stage
report's ``feature_cost_ratio`` (``workflow.StageReport``): even a skipped
graphlet must run far enough to produce its stage's features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .forest import balanced_accuracy

__all__ = [
    "EvalRecord",
    "CurvePoint",
    "TradeoffCurve",
    "HeuristicRow",
    "sweep",
    "eq1_loss",
    "heuristic_baselines",
]

_ENDPOINT_EPS = 1e-9
_FULL_FRESHNESS = 0.999


@dataclass(frozen=True)
class EvalRecord:
    """One scored graphlet: label, score, and the cost the policy can save."""

    anchor: str
    label: bool
    score: float
    unpushed_cost: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError("score must lie in [0, 1]")
        if self.unpushed_cost < 0:
            raise ValueError("costs must be non-negative")
        if self.label and self.unpushed_cost != 0.0:
            raise ValueError("pushed graphlets carry no unpushed cost")


@dataclass(frozen=True)
class CurvePoint:
    threshold: float
    wasted_fraction: float
    freshness: float
    fpr: float
    tpr: float


@dataclass(frozen=True)
class TradeoffCurve:
    points: tuple[CurvePoint, ...]

    def elimination_at_full_freshness(self) -> float:
        """Largest waste cut achievable while keeping freshness at the floor."""
        eligible = [p.wasted_fraction for p in self.points if p.freshness >= _FULL_FRESHNESS - 1e-12]
        if not eligible:
            return 0.0
        return 1.0 - min(eligible)


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, as ``np.unique`` gives without importing numpy.ma."""
    ordered = np.sort(values)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def sweep(records: Sequence[EvalRecord]) -> TradeoffCurve:
    """Evaluate every distinct decision threshold over the scored records.

    Thresholds are the midpoints between consecutive distinct scores plus one
    endpoint below all scores (everything runs: point (1, 1)) and one above
    (everything skipped: point (0, 0)).  A record runs when score >= threshold.
    """
    labels = np.array([r.label for r in records], dtype=bool)
    if len(records) == 0 or labels.all() or not labels.any():
        raise ValueError("sweep needs records with both labels")
    scores = np.array([r.score for r in records], dtype=float)
    unpushed_cost = np.array([r.unpushed_cost for r in records], dtype=float)

    n_pos = int(labels.sum())
    n_neg = len(records) - n_pos
    with np.errstate(over="ignore"):
        total_unpushed = float(unpushed_cost[~labels].sum())
    # Shared executions count in every graphlet that holds them, so this
    # total can overflow although each record's cost is finite.
    if not math.isfinite(total_unpushed):
        raise ValueError("total unpushed graphlet cost is out of float range")

    distinct = _distinct(scores)
    thresholds = [0.0 - _ENDPOINT_EPS]
    thresholds.extend(((distinct[:-1] + distinct[1:]) / 2.0).tolist())
    thresholds.append(1.0 + _ENDPOINT_EPS)

    points = []
    for t in thresholds:
        run = scores >= t
        tp = int((run & labels).sum())
        fp_mask = run & ~labels
        fp = int(fp_mask.sum())
        tpr = tp / n_pos
        fpr = fp / n_neg
        wasted = float(unpushed_cost[fp_mask].sum()) / total_unpushed if total_unpushed > 0 else 0.0
        points.append(
            CurvePoint(threshold=t, wasted_fraction=wasted, freshness=tpr, fpr=fpr, tpr=tpr)
        )
    return TradeoffCurve(points=tuple(points))


LossFn = Callable[[float, EvalRecord], float]


def _identity(x: float, record: EvalRecord) -> float:
    return x


def eq1_loss(
    records: Sequence[EvalRecord],
    threshold: float,
    loss_fn: LossFn = _identity,
    loss_waste: LossFn | None = None,
) -> float:
    """Sum of freshness loss over false negatives and waste loss over false
    positives, with the score binarized at ``threshold``.

    ``loss_fn`` applies to both terms unless ``loss_waste`` overrides the
    waste side (e.g. to weight false positives by their compute cost).  With
    the identity loss this is simply FN + FP.
    """
    freshness_loss = loss_fn
    waste_loss = loss_waste if loss_waste is not None else loss_fn
    total = 0.0
    for r in records:
        decided_run = 1.0 if r.score >= threshold else 0.0
        y = 1.0 if r.label else 0.0
        total += freshness_loss(y * (1.0 - decided_run), r)
        total += waste_loss(decided_run * (1.0 - y), r)
    return total


@dataclass(frozen=True)
class HeuristicRow:
    """The signals the handcrafted baselines look at, for one graphlet."""

    model_type: str
    jaccard_1: float
    code_match_1: float
    label: bool


def _majority(labels: Sequence[bool]) -> bool:
    pushed = sum(labels)
    return pushed * 2 > len(labels)


def heuristic_baselines(
    train: Sequence[HeuristicRow], test: Sequence[HeuristicRow]
) -> Mapping[str, float]:
    """Test balanced accuracy of three single-signal baselines.

    model_type: per-type majority vote fitted on train.  input_overlap: the
    jaccard-against-predecessor threshold (and direction) that maximizes
    train balanced accuracy.  code_match: predict pushed iff the trainer code
    matches the immediate predecessor's.
    """
    if not train or not test:
        raise ValueError("need train and test rows")
    test_labels = [r.label for r in test]

    global_majority = _majority([r.label for r in train])
    by_type: dict[str, list[bool]] = {}
    for r in train:
        by_type.setdefault(r.model_type, []).append(r.label)
    type_rule = {mt: _majority(labels) for mt, labels in by_type.items()}
    model_pred = [type_rule.get(r.model_type, global_majority) for r in test]

    train_j = np.array([r.jaccard_1 for r in train])
    train_y = np.array([r.label for r in train], dtype=bool)
    candidates = _distinct(train_j)
    mids = (candidates[:-1] + candidates[1:]) / 2.0
    thresholds = np.concatenate(([candidates[0] - 1.0], mids, [candidates[-1] + 1.0]))
    best: tuple[float, float, bool] | None = None  # (acc, threshold, predict_pushed_when_ge)
    for thr in thresholds:
        for ge_means_pushed in (True, False):
            pred = (train_j >= thr) == ge_means_pushed
            if pred.all() or not pred.any():
                acc = 0.5
            else:
                acc = balanced_accuracy(train_y, pred)
            if best is None or acc > best[0] + 1e-12:
                best = (acc, float(thr), ge_means_pushed)
    assert best is not None
    _, thr, ge_means_pushed = best
    overlap_pred = [(r.jaccard_1 >= thr) == ge_means_pushed for r in test]

    code_pred = [r.code_match_1 == 1.0 for r in test]

    return {
        "model_type": balanced_accuracy(test_labels, model_pred),
        "input_overlap": balanced_accuracy(test_labels, overlap_pred),
        "code_match": balanced_accuracy(test_labels, code_pred),
    }
