"""End-to-end runs: corpus -> graphlets -> features -> models -> policies.

Glue between the pure modules, shared by the CLI and the test suite.  The
train/test discipline lives here: pipelines are split whole, the
architecture vocabulary comes from the training side only, and the staged
models are column views over one featurization pass.  A model file carries
one trained stage with the featurizer and split it needs to score the
held-out pipelines; ``save_model`` and ``load_model`` are its only codec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .features import (
    STAGES,
    CorpusFeatures,
    FeatureStage,
    Featurizer,
    WindowConfig,
    build_arch_vocab,
    featurize_corpus,
)
from .forest import (
    Forest,
    ForestConfig,
    SplitSpec,
    balanced_accuracy,
    fit,
    forest_from_dict,
    forest_to_dict,
    scores,
    split_corpus,
)
from .policy import EvalRecord, HeuristicRow, TradeoffCurve, heuristic_baselines, sweep
from .segmentation import DEFAULT_STOP_SET, Graphlet, StopSet, filter_warmstart, segment_corpus
from .similarity import LshParams, SimWeights
from .trace import Trace, validate_trace

__all__ = [
    "CorpusValidationError",
    "StageReport",
    "PolicyReport",
    "validate_corpus",
    "require_valid",
    "prepare_ml_corpus",
    "split_pipelines",
    "corpus_featurizer",
    "eval_records",
    "push_balanced_accuracy",
    "heuristic_rows",
    "policy_report",
    "save_model",
    "load_model",
    "held_out_records",
]

Corpus = list[tuple[Trace, list[Graphlet]]]
MODEL_FORMAT = "graphlets-model-v1"


class CorpusValidationError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__(f"{len(violations)} trace violations")


def validate_corpus(traces: list[Trace]) -> list[str]:
    """Every trace's violations, plus one per pipeline id that a trace repeats."""
    violations = []
    seen: set[str] = set()
    for trace in traces:
        if trace.pipeline_id in seen:
            violations.append(f"{trace.pipeline_id}: pipeline id used by more than one trace")
        seen.add(trace.pipeline_id)
        violations.extend(f"{trace.pipeline_id}: {v}" for v in validate_trace(trace))
    return violations


def require_valid(traces: list[Trace]) -> None:
    """Raise ``CorpusValidationError`` carrying every violation, if any."""
    violations = validate_corpus(traces)
    if violations:
        raise CorpusValidationError(violations)


def prepare_ml_corpus(traces: list[Trace], stop: StopSet = DEFAULT_STOP_SET) -> Corpus:
    """Validate, segment, and drop warmstart pipelines."""
    require_valid(traces)
    return filter_warmstart(segment_corpus(traces, stop=stop))


def split_pipelines(corpus: Corpus, seed: int) -> tuple[SplitSpec, Corpus, Corpus]:
    labels = [(trace.pipeline_id, [g.pushed for g in gs]) for trace, gs in corpus]
    spec = split_corpus(labels, seed=seed)
    train_ids = set(spec.train_pipeline_ids)
    train = [(t, gs) for t, gs in corpus if t.pipeline_id in train_ids]
    test = [(t, gs) for t, gs in corpus if t.pipeline_id not in train_ids]
    return spec, train, test


def corpus_featurizer(
    corpus: Corpus, window: WindowConfig, lsh: LshParams, weights: SimWeights
) -> Featurizer:
    """The featurizer whose architecture vocabulary is taken from ``corpus``."""
    return Featurizer(window=window, lsh=lsh, weights=weights, arch_vocab=build_arch_vocab(corpus))


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
    names, X, stage_costs = feats.stage_view(stage)
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
                stage_feature_cost=float(stage_costs[i]),
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
    split: SplitSpec
    stages: list[StageReport]
    heuristics: dict[str, float]
    test_push_rate: float


def policy_report(
    corpus: Corpus,
    window: WindowConfig = WindowConfig(),
    lsh: LshParams = LshParams(),
    weights: SimWeights = SimWeights(),
    forest_cfg: ForestConfig = ForestConfig(),
    seed: int = 42,
    stages: tuple[FeatureStage, ...] = STAGES,
) -> PolicyReport:
    """Train and evaluate one model per feature stage on a shared split.

    Reports test balanced accuracy (score threshold 0.5), the stage's mean
    feature-acquisition cost relative to the validation stage, the full
    freshness-vs-waste curve, and the waste eliminated at full freshness.
    """
    spec, train, test = split_pipelines(corpus, seed=seed)
    featurizer = corpus_featurizer(train, window, lsh, weights)
    train_feats = featurize_corpus(train, featurizer=featurizer)
    test_feats = featurize_corpus(test, featurizer=featurizer)

    all_costs = {
        stage: np.concatenate([train_feats.stage_costs[stage], test_feats.stage_costs[stage]])
        for stage in STAGES
    }
    validation_mean = float(all_costs[FeatureStage.VALIDATION].mean())

    reports = []
    for stage in stages:
        names, X_train, _ = train_feats.stage_view(stage)
        model = fit(X_train, train_feats.y, forest_cfg, feature_names=names)
        records = eval_records(test_feats, stage, model)
        curve = sweep(records)
        ratio = float(all_costs[stage].mean()) / validation_mean if validation_mean > 0 else 0.0
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
    return PolicyReport(
        split=spec,
        stages=reports,
        heuristics=dict(heuristics),
        test_push_rate=float(test_feats.y.mean()),
    )


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
        feat = payload["featurizer"]
        featurizer = Featurizer(
            window=WindowConfig(w=int(feat["window"])),
            lsh=LshParams(**feat["lsh"]),
            weights=SimWeights(**feat["weights"]),
            arch_vocab=_strings(feat["arch_vocab"]),
        )
        split = payload["split"]
        spec = SplitSpec(
            train_pipeline_ids=_strings(split["train_pipeline_ids"]),
            test_pipeline_ids=_strings(split["test_pipeline_ids"]),
            train_fraction=float(split["train_fraction"]),
            train_rate=float(split["train_rate"]),
            test_rate=float(split["test_rate"]),
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


def held_out_records(corpus: Corpus, path: str | Path) -> tuple[FeatureStage, list[EvalRecord]]:
    """The model file's stage and its scored records for the corpus's
    pipelines from the model's test split."""
    stage, featurizer, split, model = load_model(path)
    test_ids = set(split.test_pipeline_ids)
    test = [(t, gs) for t, gs in corpus if t.pipeline_id in test_ids]
    if not test:
        raise ValueError("corpus contains no pipelines from the model's test split")
    return stage, eval_records(featurize_corpus(test, featurizer=featurizer), stage, model)
