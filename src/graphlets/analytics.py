"""Corpus statistics: lifespans, cadence, feature shapes, costs, drift.

Each statistic reads one pipeline at a time, so a command folds every
pipeline into its accumulators while that pipeline's trace is alive and
then drops the trace.  The folds run in corpus (file name) order, one
accumulator carried across all pipelines.  Float addition is not
associative: summing per-shard partials and merging them afterwards could
change the last bits of a result, so shards are not merged.  Per-pipeline
graphlet lists are taken in ``extract_graphlets`` order, by
``(trainer_end_at, anchor)``, and never re-sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Sequence

from .segmentation import Graphlet, consecutive_pairs
from .similarity import LshParams, SimWeights, graphlet_similarities
from .trace import (
    Analyzer,
    ArtifactType,
    FeatureKind,
    ModelType,
    MS_PER_DAY,
    MS_PER_HOUR,
    OperatorGroup,
    OperatorKind,
    Trace,
)

__all__ = [
    "PipelineStats",
    "CadenceStats",
    "DriftCodeTable",
    "PairSimilarity",
    "pipeline_stats",
    "add_costs",
    "cost_fractions",
    "pair_similarities",
    "drift_code_table",
    "similarity_table",
]


@dataclass(frozen=True)
class PipelineStats:
    pipeline_id: str
    lifespan_days: float
    models_per_day: float
    feature_count: int | None
    categorical_fraction: float | None
    mean_categorical_domain: float | None
    analyzer_usage: dict[Analyzer, int]


def pipeline_stats(trace: Trace) -> PipelineStats:
    """Lifespan, training rate, input shape and analyzer usage of one trace.

    Lifespan spans the newest and oldest node timestamps (artifact creation
    plus execution start/end).  The models-per-day denominator is clamped to
    one day so short-lived pipelines do not blow up the rate.  ``trace``
    must pass ``validate_trace``, so every data span carries statistics.
    """
    times: list[int] = [a.created_at for a in trace.artifacts.values()]
    for ex in trace.executions.values():
        times.append(ex.start_at)
        times.append(ex.end_at)
    lifespan_days = (max(times) - min(times)) / MS_PER_DAY if times else 0.0

    trainer_count = sum(
        1 for ex in trace.executions.values() if ex.operator is OperatorKind.TRAINER
    )
    models_per_day = trainer_count / max(lifespan_days, 1.0)

    spans = [a.span_stats for a in trace.artifacts.values()
             if a.artifact_type is ArtifactType.DATA_SPAN]
    feature_count = None
    categorical_fraction = None
    mean_categorical_domain = None
    if spans:
        counts = [len(s.features) for s in spans]
        feature_count = int(round(sum(counts) / len(counts)))
        cat_fracs = []
        domains = []
        for s in spans:
            if not s.features:
                continue
            cats = [f for f in s.features if f.kind is FeatureKind.CATEGORICAL]
            cat_fracs.append(len(cats) / len(s.features))
            domains.extend(f.cat_unique for f in cats)
        if cat_fracs:
            categorical_fraction = sum(cat_fracs) / len(cat_fracs)
        if domains:
            mean_categorical_domain = sum(domains) / len(domains)

    analyzer_usage: dict[Analyzer, int] = {}
    for ex in trace.executions.values():
        if ex.operator is OperatorKind.TRANSFORM and ex.analyzers:
            for a in ex.analyzers:
                analyzer_usage[a] = analyzer_usage.get(a, 0) + 1

    return PipelineStats(
        pipeline_id=trace.pipeline_id,
        lifespan_days=lifespan_days,
        models_per_day=models_per_day,
        feature_count=feature_count,
        categorical_fraction=categorical_fraction,
        mean_categorical_domain=mean_categorical_domain,
        analyzer_usage=analyzer_usage,
    )


def add_costs(totals: dict[OperatorGroup, float], trace: Trace) -> None:
    """Add one trace's execution costs to running per-group totals.

    Graphlet overlaps never double-count here because the fold walks trace
    executions directly.  Fold every trace, in corpus order, into the same
    dict: that order fixes the bits of the sums.
    """
    for ex in trace.executions.values():
        totals[ex.group] = totals.get(ex.group, 0.0) + ex.cpu_cost


def cost_fractions(totals: dict[OperatorGroup, float]) -> dict[OperatorGroup, float]:
    """Fraction of total compute per operator group, from ``add_costs`` totals."""
    grand = sum(totals.values())
    if not math.isfinite(grand):  # each trace's total is finite; their sum need not be
        raise ValueError("corpus compute cost total is out of float range")
    if grand <= 0.0:
        raise ValueError("corpus has no compute cost to break down")
    return {group: cost / grand for group, cost in totals.items()}


@dataclass
class CadenceStats:
    """Training/push cadence measurements, folded one pipeline at a time."""

    hours_between_all: list[float] = field(default_factory=list)
    hours_between_pushed: list[float] = field(default_factory=list)
    graphlets_between_pushes: list[int] = field(default_factory=list)
    duration_hours: list[float] = field(default_factory=list)
    trainer_cpu_by_label: dict[str, list[float]] = field(
        default_factory=lambda: {"pushed": [], "unpushed": []}
    )
    # model type -> [graphlets, pushed graphlets]
    type_counts: dict[ModelType, list[int]] = field(default_factory=dict)

    def add(self, trace: Trace, graphlets: Sequence[Graphlet]) -> None:
        """Fold in one trace's graphlets, in ``extract_graphlets`` order."""
        for a, b in zip(graphlets, graphlets[1:]):
            self.hours_between_all.append((b.trainer_end_at - a.trainer_end_at) / MS_PER_HOUR)
        pushed = [g for g in graphlets if g.pushed]
        for a, b in zip(pushed, pushed[1:]):
            self.hours_between_pushed.append((b.trainer_end_at - a.trainer_end_at) / MS_PER_HOUR)
        pushed_positions = [i for i, g in enumerate(graphlets) if g.pushed]
        for p, q in zip(pushed_positions, pushed_positions[1:]):
            self.graphlets_between_pushes.append(q - p - 1)
        for g in graphlets:
            starts = [
                trace.executions[n].start_at for n in g.nodes if n in trace.executions
            ]
            if starts:
                self.duration_hours.append((g.trainer_end_at - min(starts)) / MS_PER_HOUR)
            trainer = trace.executions[g.anchor]
            label = "pushed" if g.pushed else "unpushed"
            self.trainer_cpu_by_label[label].append(trainer.cpu_cost)
            seen = self.type_counts.setdefault(g.model_type, [0, 0])
            seen[0] += 1
            seen[1] += int(g.pushed)

    @property
    def push_rate_by_model_type(self) -> dict[ModelType, float]:
        return {
            mt: pushed / total for mt, (total, pushed) in sorted(self.type_counts.items()) if total
        }


@dataclass(frozen=True)
class PairSimilarity:
    """Reuse, drift and code match between two consecutive graphlets."""

    pipeline_id: str
    anchor_a: str  # the earlier graphlet
    anchor_b: str  # its successor
    jaccard: float
    dataset_sim: float
    code_match: float
    pushed: bool  # the successor's label


def pair_similarities(
    trace: Trace, graphlets: Sequence[Graphlet], params: LshParams, weights: SimWeights
) -> list[PairSimilarity]:
    """Every consecutive graphlet pair of one pipeline, oldest first."""
    pairs = consecutive_pairs(graphlets)
    sims = graphlet_similarities(trace, [(cur, prev) for prev, cur in pairs], params, weights)
    return [
        PairSimilarity(trace.pipeline_id, prev.anchor, cur.anchor, *sim, pushed=cur.pushed)
        for (prev, cur), sim in zip(pairs, sims)
    ]


@dataclass(frozen=True)
class DriftCodeTable:
    """Mean input-sequence similarity and code match, split by push label.

    Rows are keyed by the *successor* graphlet's label; ``mu_all`` covers all
    consecutive pairs.
    """

    similarity_pushed: float | None
    similarity_unpushed: float | None
    similarity_all: float | None
    code_match_pushed: float | None
    code_match_unpushed: float | None
    code_match_all: float | None
    pair_count: int


def drift_code_table(pairs: Sequence[PairSimilarity]) -> DriftCodeTable:
    sims: dict[str, list[float]] = {"pushed": [], "unpushed": []}
    codes: dict[str, list[float]] = {"pushed": [], "unpushed": []}
    for pair in pairs:
        label = "pushed" if pair.pushed else "unpushed"
        sims[label].append(pair.dataset_sim)
        codes[label].append(pair.code_match)

    def mean(values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    all_sims = sims["pushed"] + sims["unpushed"]
    all_codes = codes["pushed"] + codes["unpushed"]
    return DriftCodeTable(
        similarity_pushed=mean(sims["pushed"]),
        similarity_unpushed=mean(sims["unpushed"]),
        similarity_all=mean(all_sims),
        code_match_pushed=mean(codes["pushed"]),
        code_match_unpushed=mean(codes["unpushed"]),
        code_match_all=mean(all_codes),
        pair_count=len(all_sims),
    )


def bucketize(values: Sequence[float]) -> tuple[float, float, float, float]:
    """Shares of values in [0, .25], (.25, .5], (.5, .75], (.75, 1]."""
    counts = [0, 0, 0, 0]
    for v in values:
        if v <= 0.25:
            counts[0] += 1
        elif v <= 0.5:
            counts[1] += 1
        elif v <= 0.75:
            counts[2] += 1
        else:
            counts[3] += 1
    n = len(values)
    if n == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return tuple(c / n for c in counts)  # type: ignore[return-value]


def similarity_table(pairs: Sequence[PairSimilarity]) -> dict[str, dict]:
    """Jaccard / dataset / per-pipeline-average dataset similarity histograms;
    pipelines are told apart by id, which a validated corpus never repeats."""
    jac = [pair.jaccard for pair in pairs]
    dat = [pair.dataset_sim for pair in pairs]
    per_pipeline_means = []
    for _, group in groupby(pairs, key=lambda pair: pair.pipeline_id):
        sims = [pair.dataset_sim for pair in group]
        per_pipeline_means.append(sum(sims) / len(sims))

    def row(values: list[float]) -> dict:
        shares = bucketize(values)
        return {
            "buckets": shares,
            "mean": (sum(values) / len(values)) if values else None,
            "count": len(values),
        }

    return {"jaccard": row(jac), "dataset": row(dat), "dataset_pipeline_avg": row(per_pipeline_means)}
