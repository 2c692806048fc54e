"""Model runs: corpus -> feature rows -> models -> policies.

Glue between the model modules, shared by the CLI and the test suite.  From
each pipeline of the corpus pass (``segmentation.stream_corpus``) the model
commands keep only its vocabulary-free feature rows
(``Featurizer.pipeline_rows``).  Once the pass is over, pipelines are split
whole, the architecture vocabulary comes from the training side only, and
the staged models are column prefixes of one featurization pass, fit in one
call.  A model file carries one trained stage with the featurizer and split
it needs to score the held-out pipelines; ``save_model`` and ``load_model``
are its only codec.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Sequence

import numpy as np

from . import __version__
from .config import STAGES, FeatureStage, ForestConfig, WindowConfig, check_numbers
from .features import CorpusFeatures, Featurizer, PipelineRows
from .forest import (
    Forest,
    SplitSpec,
    balanced_accuracy,
    fit_prefixes,
    forest_from_dict,
    forest_to_dict,
    scores,
    split_corpus,
)
from .policy import EvalRecord, HeuristicRow, TradeoffCurve, heuristic_baselines, sweep
from .segmentation import DEFAULT_STOP_SET, StopSet, is_warmstart, stream_corpus
from .similarity import LshParams, SimWeights

__all__ = [
    "StageReport",
    "PolicyReport",
    "corpus_rows",
    "split_pipelines",
    "eval_records",
    "push_balanced_accuracy",
    "heuristic_rows",
    "policy_report",
    "save_model",
    "load_model",
    "held_out_records",
]

MODEL_FORMAT = "graphlets-model-v1"


def corpus_rows(
    directory: str | Path,
    featurizer: Featurizer,
    stop: StopSet = DEFAULT_STOP_SET,
    keep: Container[str] | None = None,
) -> list[PipelineRows]:
    """The vocabulary-free feature rows of every pipeline that does not
    warmstart, in file name order; ``keep``, if given, further limits them
    to the pipeline ids it holds.  Only ``featurizer``'s window, LSH and
    weights are used."""
    rows = []
    for trace, graphlets in stream_corpus(directory, stop):
        if is_warmstart(graphlets) or (keep is not None and trace.pipeline_id not in keep):
            continue
        rows.append(featurizer.pipeline_rows(trace, graphlets))
    return rows


def split_pipelines(
    pipelines: Sequence[PipelineRows], seed: int
) -> tuple[SplitSpec, list[PipelineRows], list[PipelineRows]]:
    """Split whole pipelines into train and test, each side in input order."""
    spec = split_corpus([(rows.pipeline_id, rows.labels) for rows in pipelines], seed=seed)
    train_ids = set(spec.train_pipeline_ids)
    train = [rows for rows in pipelines if rows.pipeline_id in train_ids]
    test = [rows for rows in pipelines if rows.pipeline_id not in train_ids]
    return spec, train, test


def heuristic_rows(feats: CorpusFeatures) -> list[HeuristicRow]:
    jac = feats.column("jaccard_1")
    code = feats.column("code_match_1")
    return [
        HeuristicRow(
            model_type=feats.model_types[i],
            jaccard_1=float(jac[i]),
            code_match_1=float(code[i]),
            label=bool(feats.y[i]),
        )
        for i in range(len(feats.y))
    ]


def eval_records(feats: CorpusFeatures, stage: FeatureStage, model: Forest) -> list[EvalRecord]:
    names, X, _ = feats.stage_view(stage)
    s = scores(model, X, feature_names=names)
    records = []
    for i, anchor in enumerate(feats.anchors):
        label = bool(feats.y[i])
        records.append(
            EvalRecord(
                anchor=anchor,
                label=label,
                score=float(s[i]),
                unpushed_cost=0.0 if label else feats.total_costs[i],
            )
        )
    return records


def push_balanced_accuracy(records: Sequence[EvalRecord]) -> float:
    """Balanced accuracy of pushing exactly the records scored at least 0.5."""
    return balanced_accuracy([r.label for r in records], [r.score >= 0.5 for r in records])


@dataclass
class StageReport:
    stage: FeatureStage
    balanced_accuracy: float
    feature_cost_ratio: float
    elimination_at_full_freshness: float
    curve: TradeoffCurve
    model: Forest


@dataclass
class PolicyReport:
    stages: list[StageReport]
    heuristics: dict[str, float]


def policy_report(
    pipelines: Sequence[PipelineRows],
    featurizer: Featurizer = Featurizer(),
    forest_cfg: ForestConfig = ForestConfig(),
    seed: int = 42,
    stages: tuple[FeatureStage, ...] = STAGES,
) -> PolicyReport:
    """Train and evaluate one model per feature stage on a shared split.

    ``pipelines`` are the rows ``featurizer`` made; the vocabulary is taken
    from the training side.  Reports test balanced accuracy (score threshold
    0.5), the stage's mean feature-acquisition cost relative to the
    validation stage, the full freshness-vs-waste curve, and the waste
    eliminated at full freshness.
    """
    _, train, test = split_pipelines(pipelines, seed=seed)
    featurizer = featurizer.with_vocab(train)
    train_feats = featurizer.assemble(train)
    test_feats = featurizer.assemble(test)

    # Shared executions count in full in every graphlet that holds them, so
    # these means can overflow although every trace's cost total is finite.
    with np.errstate(over="ignore"):
        means = {
            stage: float(np.concatenate(
                [train_feats.stage_costs[stage], test_feats.stage_costs[stage]]).mean())
            for stage in STAGES
        }
    if not all(map(math.isfinite, means.values())):
        raise ValueError("mean graphlet stage cost is out of float range")
    validation_mean = means[FeatureStage.VALIDATION]

    widths = [featurizer.stage_slice(stage).stop for stage in stages]
    models = fit_prefixes(train_feats.X, train_feats.y, forest_cfg, train_feats.names, widths)
    reports = []
    for stage, model in zip(stages, models):
        records = eval_records(test_feats, stage, model)
        curve = sweep(records)
        ratio = means[stage] / validation_mean if validation_mean > 0 else 0.0
        reports.append(
            StageReport(
                stage=stage,
                balanced_accuracy=push_balanced_accuracy(records),
                feature_cost_ratio=ratio,
                elimination_at_full_freshness=curve.elimination_at_full_freshness(),
                curve=curve,
                model=model,
            )
        )

    heuristics = heuristic_baselines(heuristic_rows(train_feats), heuristic_rows(test_feats))
    return PolicyReport(stages=reports, heuristics=dict(heuristics))


def save_model(
    path: str | Path, stage: FeatureStage, featurizer: Featurizer, split: SplitSpec, model: Forest
) -> None:
    """Write one trained stage as a model file."""
    payload = {
        "format": MODEL_FORMAT,
        "version": __version__,
        "stage": stage.value,
        "featurizer": {
            "window": featurizer.window.w,
            "lsh": {"k": featurizer.lsh.k, "w": featurizer.lsh.w, "seed": featurizer.lsh.seed},
            "weights": {"alpha": featurizer.weights.alpha, "beta": featurizer.weights.beta},
            "arch_vocab": list(featurizer.arch_vocab),
        },
        "split": {
            "train_pipeline_ids": list(split.train_pipeline_ids),
            "test_pipeline_ids": list(split.test_pipeline_ids),
            "train_fraction": split.train_fraction,
            "train_rate": split.train_rate,
            "test_rate": split.test_rate,
        },
        "forest": forest_to_dict(model),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ValueError(f"expected a list of strings, got {value!r}")
    return tuple(value)


def load_model(path: str | Path) -> tuple[FeatureStage, Featurizer, SplitSpec, Forest]:
    """A model file's stage, featurizer, split and forest; a file that is not
    one raises ``ValueError`` naming the path and the first broken rule."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
        if payload.get("format") != MODEL_FORMAT:
            raise ValueError(f"format is {payload.get('format')!r}")
        if not isinstance(payload["version"], str):
            raise ValueError("version is not a string")
        stage = FeatureStage(payload["stage"])
        feat = check_numbers("featurizer", payload["featurizer"], window=int)
        featurizer = Featurizer(
            window=WindowConfig(w=feat["window"]),
            lsh=LshParams(**check_numbers("lsh", feat["lsh"], k=int, w=float, seed=int)),
            weights=SimWeights(**check_numbers("weights", feat["weights"],
                                               alpha=float, beta=float)),
            arch_vocab=_strings(feat["arch_vocab"]),
        )
        split = check_numbers("split", payload["split"],
                              train_fraction=float, train_rate=float, test_rate=float)
        fractions = {key: float(split[key]) for key in ("train_fraction", "train_rate", "test_rate")}
        for key, value in fractions.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"split {key!r} must be within [0, 1], got {value!r}")
        spec = SplitSpec(
            train_pipeline_ids=_strings(split["train_pipeline_ids"]),
            test_pipeline_ids=_strings(split["test_pipeline_ids"]),
            **fractions,
        )
        model = forest_from_dict(payload["forest"])
        names = featurizer.full_names()[featurizer.stage_slice(stage)]
        if model.n_features != len(names) or model.feature_names not in (None, names):
            raise ValueError(f"forest does not fit the {len(names)} columns of stage {stage.value}")
        return stage, featurizer, spec, model
    except KeyError as exc:
        raise ValueError(f"{path}: not a valid {MODEL_FORMAT} file: missing key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{path}: not a valid {MODEL_FORMAT} file: {exc}") from None


def held_out_records(
    directory: str | Path, model_file: str | Path, stop: StopSet = DEFAULT_STOP_SET
) -> tuple[FeatureStage, list[EvalRecord]]:
    """The model file's stage and its scored records for the corpus's
    pipelines from the model's test split.  The model file is read before
    the corpus, whose pass featurizes only those pipelines."""
    stage, featurizer, split, model = load_model(model_file)
    test = corpus_rows(directory, featurizer, stop, keep=set(split.test_pipeline_ids))
    if not test:
        raise ValueError("corpus contains no pipelines from the model's test split")
    return stage, eval_records(featurizer.assemble(test), stage, model)
