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

A row reads only its graphlet and the graphlet's similarities to its
predecessors, which ``graphlet_similarities`` computes for a whole trace in
one call: shape, architecture and costs travel on the graphlet.
Per-pipeline graphlet lists are taken in ``extract_graphlets`` order, by
``(trainer_end_at, anchor)``, and never re-sorted.

Rows are made in two steps, so that no trace has to outlive its pipeline.
``Featurizer.pipeline_rows`` computes, while the trace is alive, every
column that does not depend on the architecture vocabulary (history and
shape), the stage costs and the label, and keeps each graphlet's model type
and architecture name.  ``Featurizer.assemble`` later fills the one-hot
model columns from its vocabulary, which ``build_arch_vocab`` takes from
the training pipelines' rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .config import STAGES, FeatureStage, WindowConfig
from .segmentation import Graphlet
from .similarity import LshParams, SimWeights, graphlet_similarities
from .trace import ModelType, OperatorGroup, OperatorKind, Trace

__all__ = [
    "Featurizer",
    "PipelineRows",
    "CorpusFeatures",
    "MISSING",
    "build_arch_vocab",
]

MISSING = -1.0
ARCH_VOCAB_CAP = 32


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


@dataclass
class PipelineRows:
    """One pipeline's feature rows without the model columns.

    ``X`` holds the history and shape columns of each graphlet, in
    ``extract_graphlets`` order; ``stage_costs`` has one column per stage, in
    ``STAGES`` order.  The model type and architecture name of each row wait
    for a vocabulary.  Nothing here refers back to the trace.
    """

    pipeline_id: str
    X: np.ndarray
    labels: list[bool]
    stage_costs: np.ndarray
    total_costs: list[float]  # each graphlet's cost over all operator groups
    anchors: list[str]
    model_types: list[ModelType]
    architectures: list[str | None]


def build_arch_vocab(pipelines: Iterable[PipelineRows]) -> tuple[str, ...]:
    """Architecture vocabulary: the most frequent names, capped and sorted.

    Architectures beyond the cap, or unseen at featurization time, fall into
    the shared "other" slot.
    """
    counts: dict[str, int] = {}
    for rows in pipelines:
        for architecture in rows.architectures:
            if architecture:
                counts[architecture] = counts.get(architecture, 0) + 1
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

    def with_vocab(self, pipelines: Iterable[PipelineRows]) -> Featurizer:
        """This featurizer with the architecture vocabulary of ``pipelines``."""
        return replace(self, arch_vocab=build_arch_vocab(pipelines))

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

    def model_features(self, model_type: ModelType, architecture: str | None) -> list[float]:
        values = [1.0 if model_type is mt else 0.0 for mt in ModelType]
        hot = [0.0] * (len(self.arch_vocab) + 1)
        if architecture:
            if architecture in self.arch_vocab:
                hot[self.arch_vocab.index(architecture)] = 1.0
            else:
                hot[-1] = 1.0
        return values + hot

    def history_features(self, sims: Sequence[tuple[float, float, float]]) -> list[float]:
        """Per ordinal position back in time: jaccard, dataset similarity,
        code match.  ``sims`` holds ``graphlet_similarities`` of the graphlet
        against its predecessors, most recent first, under this featurizer's
        LSH and weights; positions past them hold ``MISSING``."""
        values = [value for sim in sims[: self.window.w] for value in sim]
        values += [MISSING] * (3 * self.window.w - len(values))
        return values

    # -- assembly --------------------------------------------------------

    def history_and_shape(
        self, g: Graphlet, sims: Sequence[tuple[float, float, float]]
    ) -> list[float]:
        """The columns after the model block, those the vocabulary does not
        touch: reads only ``g`` and its ``history_features`` similarities."""
        row = self.history_features(sims)
        row += self.shape_features(g, PRE_TRAINER_KINDS)
        row += self.shape_features(g, TRAINER_KINDS)
        row += self.shape_features(g, POST_TRAINER_KINDS)
        return row

    def stage_cost(self, g: Graphlet, stage: FeatureStage) -> float:
        return sum(g.costs.get(group, 0.0) for group in STAGE_COST_GROUPS[stage])

    def pipeline_rows(self, trace: Trace, graphlets: Sequence[Graphlet]) -> PipelineRows:
        """Every graphlet of one trace against its own pipeline history.

        ``graphlets`` must be the trace's list in ``extract_graphlets``
        order, oldest trainer first.  Only the window, LSH and weights are
        read here; the vocabulary is not.
        """
        w = self.window.w
        windows = [graphlets[max(0, pos - w): pos][::-1] for pos in range(len(graphlets))]
        sims = iter(graphlet_similarities(
            trace, [(g, p) for g, window in zip(graphlets, windows) for p in window],
            self.lsh, self.weights,
        ))
        # Each graphlet's results are the next len(window) of them.
        rows = [self.history_and_shape(g, list(islice(sims, len(window))))
                for g, window in zip(graphlets, windows)]
        width = len(self.full_names()) - len(self.model_names())
        costs = [[self.stage_cost(g, stage) for stage in STAGES] for g in graphlets]
        return PipelineRows(
            pipeline_id=trace.pipeline_id,
            X=np.asarray(rows, dtype=float).reshape(len(rows), width),
            labels=[g.pushed for g in graphlets],
            stage_costs=np.asarray(costs, dtype=float).reshape(len(costs), len(STAGES)),
            total_costs=[g.total_cost for g in graphlets],
            anchors=[g.anchor for g in graphlets],
            model_types=[g.model_type for g in graphlets],
            architectures=[g.architecture for g in graphlets],
        )

    def assemble(self, pipelines: Sequence[PipelineRows]) -> CorpusFeatures:
        """The validation-stage matrix of ``pipelines``, rows in their order:
        the model columns, filled from this featurizer's vocabulary, ahead of
        each row's history and shape columns.

        Pass the training featurizer when scoring held-out pipelines, so
        that unseen architectures map to "other".
        """
        n_model = len(self.model_names())
        model = [
            self.model_features(model_type, architecture)
            for rows in pipelines
            for model_type, architecture in zip(rows.model_types, rows.architectures)
        ]
        if pipelines:
            rest = np.concatenate([rows.X for rows in pipelines])
            costs = np.concatenate([rows.stage_costs for rows in pipelines]).T.copy()
        else:
            rest = np.zeros((0, len(self.full_names()) - n_model))
            costs = np.zeros((len(STAGES), 0))
        return CorpusFeatures(
            featurizer=self,
            names=self.full_names(),
            X=np.concatenate([np.asarray(model, dtype=float).reshape(len(model), n_model), rest],
                             axis=1),
            y=np.asarray([label for rows in pipelines for label in rows.labels], dtype=bool),
            stage_costs=dict(zip(STAGES, costs)),
            pipeline_ids=[rows.pipeline_id for rows in pipelines for _ in rows.labels],
            anchors=[anchor for rows in pipelines for anchor in rows.anchors],
            model_types=[mt.value for rows in pipelines for mt in rows.model_types],
            total_costs=[cost for rows in pipelines for cost in rows.total_costs],
        )


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
