"""Classifier features for push prediction.

Four feature groups per graphlet: graphlet shape (execution counts and mean
input/output degrees per operator kind, split into pre-trainer, trainer, and
post-trainer partitions), model information (one-hot model type and
architecture), input-data history (reuse and distribution similarity against
each of the ``w`` preceding graphlets), and code-change history.  The pusher
is deliberately absent from shape features because it defines the label.

Feature *stages* model where a scheduler could intervene: after ingestion
(model + history features only), before training (plus pre-trainer shape),
after training (plus trainer shape), and after validation (plus post-trainer
shape).  Stage vectors are nested prefixes of one fixed schema, and each
stage carries the compute cost a policy would pay to obtain its features.

History slots without an i-th predecessor hold the sentinel -1, which lies
outside every legal metric range so trees can isolate it.

A row reads only its graphlet, the graphlet's predecessors and the trace's
``SpanSimilarity``: shape, architecture and costs travel on the graphlet.
Per-pipeline graphlet lists are taken in ``extract_graphlets`` order, by
``(trainer_end_at, anchor)``, and never re-sorted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .segmentation import Graphlet
from .similarity import LshParams, SimWeights, SpanSimilarity
from .trace import ModelType, OperatorGroup, OperatorKind, Trace

__all__ = [
    "FeatureStage",
    "WindowConfig",
    "Featurizer",
    "CorpusFeatures",
    "MISSING",
    "build_arch_vocab",
    "featurize_corpus",
]

MISSING = -1.0
ARCH_VOCAB_CAP = 32


class FeatureStage(str, Enum):
    """Scheduler intervention points, declared in pipeline order."""

    INPUT = "input"
    INPUT_PRE = "input_pre"
    INPUT_PRE_TRAINER = "input_pre_trainer"
    VALIDATION = "validation"


STAGES = tuple(FeatureStage)

PRE_TRAINER_KINDS = (
    OperatorKind.EXAMPLE_GEN,
    OperatorKind.STATISTICS_GEN,
    OperatorKind.SCHEMA_GEN,
    OperatorKind.EXAMPLE_VALIDATOR,
    OperatorKind.TRANSFORM,
    OperatorKind.TUNER,
    OperatorKind.CUSTOM,
)
TRAINER_KINDS = (OperatorKind.TRAINER,)
POST_TRAINER_KINDS = (OperatorKind.EVALUATOR, OperatorKind.MODEL_VALIDATOR)

# Compute a policy must have spent before each stage's features exist: the
# first two to five operator groups, which are declared in pipeline order.
STAGE_COST_GROUPS: dict[FeatureStage, tuple[OperatorGroup, ...]] = {
    stage: tuple(OperatorGroup)[:n] for stage, n in zip(STAGES, (2, 3, 4, 5))
}


@dataclass(frozen=True)
class WindowConfig:
    """History window: how many preceding graphlets to compare against."""

    w: int = 3

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("window must be at least 1")


def build_arch_vocab(graphlets_by_trace: Iterable[tuple[Trace, Sequence[Graphlet]]]) -> tuple[str, ...]:
    """Architecture vocabulary: the most frequent names, capped and sorted.

    Architectures beyond the cap, or unseen at featurization time, fall into
    the shared "other" slot.
    """
    counts: dict[str, int] = {}
    for _, graphlets in graphlets_by_trace:
        for g in graphlets:
            if g.architecture:
                counts[g.architecture] = counts.get(g.architecture, 0) + 1
    keep = sorted(counts, key=lambda a: (-counts[a], a))[:ARCH_VOCAB_CAP]
    return tuple(sorted(keep))


def _shape_block(kinds: tuple[OperatorKind, ...]) -> list[str]:
    names = []
    for kind in kinds:
        names.append(f"shape_{kind.value}_count")
        names.append(f"shape_{kind.value}_avg_in")
        names.append(f"shape_{kind.value}_avg_out")
    return names


@dataclass(frozen=True)
class Featurizer:
    """Frozen feature schema plus the metric parameters used to fill it.

    The schema (name order) is a pure function of the window size and the
    architecture vocabulary, so a model trained on one corpus can score
    another as long as the vocabulary travels with it.
    """

    window: WindowConfig = WindowConfig()
    lsh: LshParams = LshParams()
    weights: SimWeights = SimWeights()
    arch_vocab: tuple[str, ...] = ()

    def model_names(self) -> list[str]:
        names = [f"model_type_{mt.value}" for mt in ModelType]
        names.extend(f"arch_{a}" for a in self.arch_vocab)
        names.append("arch_other")
        return names

    def history_names(self) -> list[str]:
        names = []
        for i in range(1, self.window.w + 1):
            names.extend((f"jaccard_{i}", f"dataset_sim_{i}", f"code_match_{i}"))
        return names

    def full_names(self) -> tuple[str, ...]:
        names = self.model_names() + self.history_names()
        names += _shape_block(PRE_TRAINER_KINDS)
        names += _shape_block(TRAINER_KINDS)
        names += _shape_block(POST_TRAINER_KINDS)
        return tuple(names)

    def stage_slice(self, stage: FeatureStage) -> slice:
        """Columns of ``full_names`` that exist at ``stage``: a prefix."""
        if not isinstance(stage, FeatureStage):
            raise ValueError(f"unknown feature stage: {stage!r}")
        shape = (PRE_TRAINER_KINDS, TRAINER_KINDS, POST_TRAINER_KINDS)[: STAGES.index(stage)]
        end = len(self.model_names()) + len(self.history_names())
        return slice(0, end + sum(len(_shape_block(kinds)) for kinds in shape))

    # -- feature groups -------------------------------------------------

    def shape_features(self, g: Graphlet, kinds: tuple[OperatorKind, ...]) -> list[float]:
        """Execution count and mean in/out degree per operator kind; zeros
        when a kind is absent from the graphlet."""
        values: list[float] = []
        for kind in kinds:
            count, fan_in, fan_out = g.shape.get(kind, (0, 0, 0))
            values.append(float(count))
            values.append(fan_in / count if count else 0.0)
            values.append(fan_out / count if count else 0.0)
        return values

    def model_features(self, g: Graphlet) -> list[float]:
        values = [1.0 if g.model_type is mt else 0.0 for mt in ModelType]
        hot = [0.0] * (len(self.arch_vocab) + 1)
        if g.architecture:
            if g.architecture in self.arch_vocab:
                hot[self.arch_vocab.index(g.architecture)] = 1.0
            else:
                hot[-1] = 1.0
        return values + hot

    def history_features(
        self, g: Graphlet, predecessors: Sequence[Graphlet], sims: SpanSimilarity
    ) -> list[float]:
        """Per ordinal position back in time: jaccard, dataset similarity,
        code match.  ``predecessors`` is most recent first; ``sims`` is the
        trace's ``SpanSimilarity`` under this featurizer's LSH and weights."""
        values: list[float] = []
        for i in range(self.window.w):
            if i < len(predecessors):
                values.extend(sims.compare(g, predecessors[i]))
            else:
                values.extend((MISSING, MISSING, MISSING))
        return values

    # -- assembly --------------------------------------------------------

    def full_row(
        self, g: Graphlet, predecessors: Sequence[Graphlet], sims: SpanSimilarity
    ) -> list[float]:
        """The validation-stage row: reads only ``g``, its predecessors and
        the trace's ``SpanSimilarity``."""
        row = self.model_features(g)
        row += self.history_features(g, predecessors, sims)
        row += self.shape_features(g, PRE_TRAINER_KINDS)
        row += self.shape_features(g, TRAINER_KINDS)
        row += self.shape_features(g, POST_TRAINER_KINDS)
        return row

    def stage_cost(self, g: Graphlet, stage: FeatureStage) -> float:
        return sum(g.costs.get(group, 0.0) for group in STAGE_COST_GROUPS[stage])


@dataclass
class CorpusFeatures:
    """Validation-stage feature matrix for a corpus; lower stages are views."""

    featurizer: Featurizer
    names: tuple[str, ...]
    X: np.ndarray
    y: np.ndarray
    stage_costs: dict[FeatureStage, np.ndarray]
    pipeline_ids: list[str]
    anchors: list[str]
    model_types: list[str]
    total_costs: list[float]  # each row's graphlet cost over all operator groups

    def stage_view(self, stage: FeatureStage) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        sl = self.featurizer.stage_slice(stage)
        return self.names[sl], self.X[:, sl], self.stage_costs[stage]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.names.index(name)]


def featurize_corpus(
    corpus: Sequence[tuple[Trace, Sequence[Graphlet]]], featurizer: Featurizer
) -> CorpusFeatures:
    """Featurize every graphlet of a corpus against its own pipeline history.

    Each graphlet list must be in ``extract_graphlets`` order, oldest
    trainer first; rows follow that order.  Pass the training featurizer when
    scoring held-out pipelines, so that unseen architectures map to "other".
    """
    rows: list[list[float]] = []
    labels: list[bool] = []
    costs: dict[FeatureStage, list[float]] = {stage: [] for stage in STAGES}
    pipeline_ids: list[str] = []
    anchors: list[str] = []
    model_types: list[str] = []
    total_costs: list[float] = []
    for trace, graphlets in corpus:
        sims = SpanSimilarity(trace, graphlets, featurizer.lsh, featurizer.weights)
        for pos, g in enumerate(graphlets):
            predecessors = graphlets[max(0, pos - featurizer.window.w): pos][::-1]
            rows.append(featurizer.full_row(g, predecessors, sims))
            labels.append(g.pushed)
            for stage in STAGES:
                costs[stage].append(featurizer.stage_cost(g, stage))
            pipeline_ids.append(g.pipeline_id)
            anchors.append(g.anchor)
            model_types.append(g.model_type.value)
            total_costs.append(g.total_cost)
    X = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(featurizer.full_names())))
    return CorpusFeatures(
        featurizer=featurizer,
        names=featurizer.full_names(),
        X=X,
        y=np.asarray(labels, dtype=bool),
        stage_costs={stage: np.asarray(v, dtype=float) for stage, v in costs.items()},
        pipeline_ids=pipeline_ids,
        anchors=anchors,
        model_types=model_types,
        total_costs=total_costs,
    )
