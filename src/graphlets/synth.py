"""Synthetic trace corpora with planted ground truth.

The generator builds realistic-looking pipeline traces (rolling-window span
ingestion, per-span statistics and optional deep analysis, a transform step,
training, validation, and pushes) while planting a known push process so
that every downstream result is checkable against the truth:

* each graphlet's push probability is a logistic function of latent signals
  that the featurization layer can recover: span drift (dataset similarity),
  analysis richness and window size (graphlet shape), and code change;
* graphlets without validation executions never push when the validator gate
  is hard, giving policies a cleanly skippable subpopulation;
* per-execution compute costs are calibrated so the corpus-level cost mix
  matches ``cost_mix`` exactly;
* the truth file records every graphlet's latent probability, realized
  label, and exact segmented cost, from which the Bayes-optimal balanced
  accuracy and the oracle waste-elimination ceiling are derived.

Generation is deterministic: the same config yields byte-identical corpora.
Pipelines draw independent RNG streams keyed by (seed, pipeline index), and
the corpus is generated in two passes so cost calibration never perturbs the
structural draws.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .trace import MS_PER_HOUR, OPERATOR_GROUPS, OperatorGroup, OperatorKind
from .transport import MAX_SIDE

__all__ = [
    "PushModel",
    "GenConfig",
    "TruthEntry",
    "PlantedTruth",
    "BayesReference",
    "generate",
    "preset",
    "bayes_reference",
    "bayes_balanced_accuracy",
]

_MS_MIN = 60_000

MODEL_MIX: dict[str, float] = {
    "dnn": 0.55,
    "linear": 0.18,
    "dnn_linear": 0.05,
    "tree": 0.08,
    "ensemble": 0.05,
    "custom": 0.05,
    "other": 0.04,
}

BASE_LOGIT: dict[str, float] = {
    "dnn": -0.9,
    "linear": 2.0,
    "dnn_linear": -0.1,
    "tree": -1.9,
    "ensemble": -1.3,
    "custom": -2.3,
    "other": -1.5,
}

COST_MIX: dict[OperatorGroup, float] = {
    OperatorGroup.DATA_INGESTION: 0.22,
    OperatorGroup.DATA_ANALYSIS_VALIDATION: 0.20,
    OperatorGroup.DATA_PREPROCESSING: 0.10,
    OperatorGroup.TRAINING: 0.30,
    OperatorGroup.MODEL_ANALYSIS_VALIDATION: 0.15,
    OperatorGroup.DEPLOYMENT: 0.03,
}

ARCHITECTURES = ("feedforward", "wide_deep", "recurrent", "attention")


@dataclass(frozen=True, eq=True)
class PushModel:
    """Logistic push process over the planted latent signals."""

    base_logit: dict[str, float] = field(default_factory=lambda: dict(BASE_LOGIT))
    drift_weight: float = -3.2
    rich_weight: float = 2.2
    size_weight: float = 0.9
    code_weight: float = 0.0
    validator_rate: float = 0.6
    hard_validator_gate: bool = True
    no_validator_shift: float = -2.5
    signal: float = 1.0

    def probability(
        self,
        model_type: str,
        drift_exposure: float,
        rich_exposure: float,
        size: float,
        code_changed: float,
        has_validators: bool,
    ) -> float:
        logit = self.base_logit[model_type]
        logit += self.signal * (
            self.drift_weight * drift_exposure
            + self.rich_weight * rich_exposure
            + self.size_weight * size
        )
        logit += self.code_weight * code_changed
        if not has_validators:
            if self.hard_validator_gate:
                return 0.0
            logit += self.no_validator_shift
        return 1.0 / (1.0 + math.exp(-logit))


@dataclass(frozen=True, eq=True)
class GenConfig:
    seed: int = 42
    n_pipelines: int = 150
    graphlets_per_pipeline: tuple[int, int] = (80, 220)
    window: int = 3
    features_per_span: tuple[int, int] = (6, 12)
    categorical_fraction: float = 0.5
    drift_rate: float = 0.3
    walk_scale: float = 0.04
    code_stability: float = 0.85
    warmstart_fraction: float = 0.1
    rich_rate: float = 0.45
    failed_pusher_rate: float = 0.06
    cost_mix: dict[OperatorGroup, float] = field(default_factory=lambda: dict(COST_MIX))
    model_mix: dict[str, float] = field(default_factory=lambda: dict(MODEL_MIX))
    push: PushModel = field(default_factory=PushModel)

    def __post_init__(self) -> None:
        if self.n_pipelines < 1:
            raise ValueError(f"n_pipelines must be at least 1, got {self.n_pipelines}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        for name, p in (
            ("categorical_fraction", self.categorical_fraction),
            ("drift_rate", self.drift_rate),
            ("code_stability", self.code_stability),
            ("warmstart_fraction", self.warmstart_fraction),
            ("rich_rate", self.rich_rate),
            ("failed_pusher_rate", self.failed_pusher_rate),
            ("validator_rate", self.push.validator_rate),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        for key in self.cost_mix:
            if key not in set(OperatorGroup):
                raise ValueError(f"cost_mix key {key!r} is not an operator group")
        for key in self.model_mix:
            if key not in self.push.base_logit:
                raise ValueError(f"model_mix key {key!r} has no base logit in the push model")
        for name, mix in (("cost_mix", self.cost_mix), ("model_mix", self.model_mix)):
            if not all(math.isfinite(p) and p >= 0 for p in mix.values()):
                raise ValueError(f"{name} fractions must be finite and non-negative")
            if abs(sum(mix.values()) - 1.0) > 1e-9:
                raise ValueError(f"{name} fractions must sum to 1")
        lo, hi = self.graphlets_per_pipeline
        if lo < 1 or hi < lo:
            raise ValueError("graphlets_per_pipeline range must be non-empty")
        lo, hi = self.features_per_span
        if not 0 <= lo <= hi <= MAX_SIDE:
            raise ValueError(f"features_per_span must be a non-empty range within "
                             f"[0, {MAX_SIDE}], got [{lo}, {hi}]")
        if not (math.isfinite(self.walk_scale) and self.walk_scale >= 0):
            raise ValueError(f"walk_scale must be finite and non-negative, got {self.walk_scale}")


def preset(name: str, seed: int = 42) -> GenConfig:
    """Named corpus flavors used across tests and the CLI.

    weak/medium/strong scale the planted signal; geometric plants i.i.d.
    pushes at rate 0.25 with no feature dependence at all.
    """
    if name in ("default", "medium"):
        return GenConfig(seed=seed)
    if name == "weak":
        return GenConfig(
            seed=seed,
            push=PushModel(signal=0.35, hard_validator_gate=False),
        )
    if name == "strong":
        return GenConfig(
            seed=seed,
            failed_pusher_rate=0.0,
            push=PushModel(signal=1.8, validator_rate=0.45),
        )
    if name == "geometric":
        return iid_config(0.25, seed=seed)
    raise ValueError(f"unknown preset: {name!r}")


def iid_config(push_rate: float, seed: int = 42) -> GenConfig:
    """Labels independent of all features: every graphlet pushes at ``push_rate``."""
    logit = math.log(push_rate / (1.0 - push_rate))
    return GenConfig(
        seed=seed,
        n_pipelines=80,
        graphlets_per_pipeline=(90, 170),
        warmstart_fraction=0.0,
        push=PushModel(
            base_logit={mt: logit for mt in MODEL_MIX},
            drift_weight=0.0,
            rich_weight=0.0,
            size_weight=0.0,
            code_weight=0.0,
            validator_rate=1.0,
        ),
    )


@dataclass(frozen=True)
class TruthEntry:
    pipeline_id: str
    anchor: str
    p: float
    label: bool
    cost: float
    warmstart: bool


@dataclass
class PlantedTruth:
    entries: list[TruthEntry]
    bayes_balanced_accuracy: float = 0.0
    oracle_elimination: float = 0.0
    push_rate: float = 0.0

    def ml_entries(self) -> list[TruthEntry]:
        """Entries of pipelines that survive the warmstart filter."""
        return [e for e in self.entries if not e.warmstart]


@dataclass(frozen=True)
class BayesReference:
    balanced_accuracy: float
    elimination_at_full_freshness: float
    push_rate: float


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max())
    return z / z.sum()


class _PipelineState:
    """Mutable per-pipeline feature distributions under a drift process."""

    def __init__(self, rng: np.random.Generator, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        lo, hi = cfg.features_per_span
        n_features = int(rng.integers(lo, hi + 1))
        n_cat = int(round(n_features * cfg.categorical_fraction))
        self.kinds = ["categorical"] * n_cat + ["numerical"] * (n_features - n_cat)
        self.names = [f"f{i:02d}" for i in range(n_features)]
        self.logits = rng.standard_normal((n_features, 10))
        self.decays = rng.uniform(1.1, 1.8, size=n_features)
        totals = (10 ** rng.uniform(4.0, 6.0, size=n_features)).astype(np.int64)
        self.totals = np.maximum(totals, 1000)
        uniques = np.exp(rng.normal(np.log(300.0), 1.0, size=n_features)).astype(np.int64)
        self.uniques = np.clip(uniques, 12, self.totals // 2)

    def step(self, drifted: bool) -> None:
        rng = self.rng
        if drifted:
            self.logits = rng.standard_normal(self.logits.shape)
            self.decays = rng.uniform(1.1, 1.8, size=len(self.decays))
        else:
            self.logits = self.logits + rng.normal(0.0, self.cfg.walk_scale, self.logits.shape)
            self.decays = np.clip(
                self.decays + rng.normal(0.0, 0.01, size=len(self.decays)), 1.05, 2.2
            )

    def span_features(self) -> list[dict[str, Any]]:
        feats = []
        for i, name in enumerate(self.names):
            if self.kinds[i] == "numerical":
                hist = _softmax(self.logits[i])
                feats.append({"name": name, "type": "numerical", "hist": hist.tolist()})
            else:
                shares = np.power(float(self.decays[i]), -np.arange(10, dtype=float))
                shares = 0.6 * shares / shares.sum()
                total = int(self.totals[i])
                counts = np.maximum(1, np.round(shares * total).astype(np.int64))
                counts = np.sort(counts)[::-1]
                feats.append(
                    {
                        "name": name,
                        "type": "categorical",
                        "top10": counts.tolist(),
                        "unique": int(self.uniques[i]),
                        "total": total,
                    }
                )
        return feats


class _PipelineBuild:
    """All records of one generated pipeline plus its planted truth rows."""

    def __init__(self, pipeline_id: str):
        self.pipeline_id = pipeline_id
        self.records: list[dict[str, Any]] = []
        # execution id -> (group, raw cost); costs get calibrated corpus-wide.
        self.exec_costs: dict[str, tuple[OperatorGroup, float]] = {}
        # anchor -> (p, label, member execution ids)
        self.graphlets: list[tuple[str, float, bool, list[str]]] = []
        self.warmstart: bool = False

    def artifact(self, node_id: str, a_type: str, created_at: int, stats=None) -> str:
        props: dict[str, Any] = {}
        if stats is not None:
            props["span_stats"] = {"features": stats}
        self.records.append(
            {
                "kind": "artifact",
                "id": node_id,
                "type": a_type,
                "created_at": created_at,
                "pipeline_id": self.pipeline_id,
                "properties": props,
            }
        )
        return node_id

    def execution(
        self,
        node_id: str,
        operator: str,
        start_at: int,
        end_at: int,
        raw_cost: float,
        state: str = "complete",
        **props: Any,
    ) -> str:
        self.records.append(
            {
                "kind": "execution",
                "id": node_id,
                "operator": operator,
                "pipeline_id": self.pipeline_id,
                "start_at": start_at,
                "end_at": end_at,
                "state": state,
                "cpu_cost": raw_cost,
                "properties": {k: v for k, v in props.items() if v is not None},
            }
        )
        self.exec_costs[node_id] = (OPERATOR_GROUPS[OperatorKind(operator)], raw_cost)
        return node_id

    def edge(self, src: str, dst: str, role: str) -> None:
        self.records.append({"kind": "edge", "from": src, "to": dst, "role": role})


def _gen_pipeline(cfg: GenConfig, idx: int) -> _PipelineBuild:
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0x5EED, idx])
    pid = f"pipe{idx:04d}"
    build = _PipelineBuild(pid)

    mix_names = sorted(cfg.model_mix)
    mix_probs = np.array([cfg.model_mix[k] for k in mix_names])
    model_type = str(rng.choice(mix_names, p=mix_probs / mix_probs.sum()))
    architecture = (
        str(rng.choice(ARCHITECTURES)) if model_type in ("dnn", "dnn_linear") else None
    )
    build.warmstart = bool(rng.random() < cfg.warmstart_fraction)
    lo, hi = cfg.graphlets_per_pipeline
    n_graphlets = int(rng.integers(lo, hi + 1))
    state = _PipelineState(rng, cfg)

    cursor = 1_600_000_000_000 + idx * MS_PER_HOUR
    code_version = 0
    prev_code = 0
    spans: list[str] = []
    drift_flags: list[bool] = []
    rich_flags: list[bool] = []
    # per-span analysis executions, for graphlet cost accounting
    span_exec_ids: list[list[str]] = []
    prev_model: str | None = None
    prev_post_execs: list[str] = []

    def cost(kind: str, mult: float = 1.0) -> float:
        return float(rng.gamma(6.0) / 6.0) * mult

    for t in range(n_graphlets):
        tag = f"{t:04d}"
        drifted = bool(rng.random() < cfg.drift_rate)
        rich = bool(rng.random() < cfg.rich_rate)
        state.step(drifted)

        eg_start = cursor
        eg_end = eg_start + int(rng.integers(5, 30)) * _MS_MIN
        eg = build.execution(f"{pid}-eg-{tag}", "example_gen", eg_start, eg_end, cost("example_gen"))
        span = build.artifact(f"{pid}-span-{tag}", "data_span", eg_end, stats=state.span_features())
        build.edge(eg, span, "output")

        sg_end = eg_end + int(rng.integers(2, 12)) * _MS_MIN
        sg = build.execution(f"{pid}-sg-{tag}", "statistics_gen", eg_end, sg_end, cost("statistics_gen"))
        stats_art = build.artifact(f"{pid}-stats-{tag}", "statistics", sg_end)
        build.edge(span, sg, "input")
        build.edge(sg, stats_art, "output")

        span_execs = [eg, sg]
        if rich:
            sc_end = sg_end + int(rng.integers(1, 6)) * _MS_MIN
            sc = build.execution(f"{pid}-scg-{tag}", "schema_gen", sg_end, sc_end, cost("schema_gen"))
            schema_art = build.artifact(f"{pid}-schema-{tag}", "schema", sc_end)
            build.edge(stats_art, sc, "input")
            build.edge(sc, schema_art, "output")
            xv_end = sc_end + int(rng.integers(1, 6)) * _MS_MIN
            xv = build.execution(
                f"{pid}-exv-{tag}", "example_validator", sc_end, xv_end, cost("example_validator")
            )
            anomalies = build.artifact(f"{pid}-anom-{tag}", "other", xv_end)
            build.edge(stats_art, xv, "input")
            build.edge(schema_art, xv, "input")
            build.edge(xv, anomalies, "output")
            span_execs += [sc, xv]

        spans.append(span)
        drift_flags.append(drifted)
        rich_flags.append(rich)
        span_exec_ids.append(span_execs)

        window_draw = int(rng.choice([cfg.window - 1, cfg.window, cfg.window + 1], p=[0.2, 0.6, 0.2]))
        length = max(1, min(window_draw, t + 1))
        window_idx = range(t - length + 1, t + 1)
        window_spans = spans[t - length + 1 : t + 1]

        tf_start = sg_end
        tf_end = tf_start + int(rng.integers(10, 60)) * _MS_MIN
        analyzer_pool = ["vocabulary", "min", "max", "mean", "variance", "custom"]
        n_analyzers = int(rng.integers(1, 5))
        analyzers = sorted(rng.choice(analyzer_pool, size=n_analyzers, replace=False).tolist())
        tf = build.execution(
            f"{pid}-tf-{tag}", "transform", tf_start, tf_end, cost("transform"), analyzers=analyzers
        )
        tg = build.artifact(f"{pid}-tg-{tag}", "transform_graph", tf_end)
        for s in window_spans:
            build.edge(s, tf, "input")
        build.edge(tf, tg, "output")

        if rng.random() > cfg.code_stability:
            code_version += 1
        code_changed = 1.0 if (t > 0 and code_version != prev_code) else 0.0
        prev_code = code_version

        has_validators = bool(rng.random() < cfg.push.validator_rate)
        exposure = float(np.mean([drift_flags[i] for i in window_idx]))
        rich_exposure = float(np.mean([rich_flags[i] for i in window_idx]))
        p = cfg.push.probability(
            model_type=model_type,
            drift_exposure=exposure,
            rich_exposure=rich_exposure,
            size=float(length - cfg.window),
            code_changed=code_changed,
            has_validators=has_validators,
        )
        label = bool(rng.random() < p)

        tr_start = tf_end
        tr_end = tr_start + int(rng.lognormal(np.log(4.0), 0.5) * MS_PER_HOUR)
        trainer = build.execution(
            f"{pid}-tr-{tag}",
            "trainer",
            tr_start,
            tr_end,
            cost("trainer", 1.0 if label else 1.15),
            model_type=model_type,
            architecture=architecture,
            code_version=f"v{code_version}",
        )
        model_art = build.artifact(f"{pid}-model-{tag}", "model", tr_end)
        for s in window_spans:
            build.edge(s, trainer, "input")
        build.edge(tg, trainer, "input")
        if build.warmstart and prev_model is not None:
            build.edge(prev_model, trainer, "input")
        build.edge(trainer, model_art, "output")

        members = [tf, trainer]
        for i in window_idx:
            members += span_exec_ids[i]
        if build.warmstart and prev_model is not None:
            # Consuming the previous model drags its post-trainer executions in.
            members += prev_post_execs

        post_execs: list[str] = []
        end_of_graphlet = tr_end
        if has_validators:
            ev_end = tr_end + int(rng.integers(5, 25)) * _MS_MIN
            ev = build.execution(f"{pid}-ev-{tag}", "evaluator", tr_end, ev_end, cost("evaluator"))
            eval_art = build.artifact(f"{pid}-eval-{tag}", "eval_result", ev_end)
            build.edge(model_art, ev, "input")
            build.edge(ev, eval_art, "output")
            mv_end = ev_end + int(rng.integers(1, 10)) * _MS_MIN
            mv = build.execution(
                f"{pid}-mv-{tag}", "model_validator", ev_end, mv_end, cost("model_validator")
            )
            blessing = build.artifact(f"{pid}-bless-{tag}", "other", mv_end)
            build.edge(eval_art, mv, "input")
            build.edge(mv, blessing, "output")
            post_execs += [ev, mv]
            end_of_graphlet = mv_end

        if label:
            push_end = end_of_graphlet + int(rng.integers(1, 6)) * _MS_MIN
            push = build.execution(
                f"{pid}-push-{tag}", "pusher", end_of_graphlet, push_end, cost("pusher")
            )
            push_art = build.artifact(f"{pid}-pushres-{tag}", "push_result", push_end)
            build.edge(model_art, push, "input")
            build.edge(push, push_art, "output")
            post_execs.append(push)
            end_of_graphlet = push_end
        elif has_validators and rng.random() < cfg.failed_pusher_rate:
            push_end = end_of_graphlet + int(rng.integers(1, 6)) * _MS_MIN
            push = build.execution(
                f"{pid}-push-{tag}", "pusher", end_of_graphlet, push_end, cost("pusher"),
                state="failed",
            )
            build.edge(model_art, push, "input")
            post_execs.append(push)
            end_of_graphlet = push_end

        members += post_execs
        build.graphlets.append((trainer, p, label, members))

        prev_model = model_art
        prev_post_execs = post_execs
        gap = int(rng.lognormal(np.log(14.0), 0.6) * MS_PER_HOUR)
        cursor = end_of_graphlet + gap

    return build


def _group_sums(cfg: GenConfig) -> dict[OperatorGroup, float]:
    sums = {group: 0.0 for group in OperatorGroup}
    for idx in range(cfg.n_pipelines):
        build = _gen_pipeline(cfg, idx)
        for group, raw in build.exec_costs.values():
            sums[group] += raw
    return sums


def generate(cfg: GenConfig, out_dir: str | Path) -> PlantedTruth:
    """Write a corpus directory (one trace file per pipeline plus truth.json).

    Deterministic given ``cfg``; regenerating with the same config produces
    byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    raw_sums = _group_sums(cfg)
    scale = {
        group: (cfg.cost_mix.get(group, 0.0) / raw) if raw > 0 else 0.0
        for group, raw in raw_sums.items()
    }

    entries: list[TruthEntry] = []
    for idx in range(cfg.n_pipelines):
        build = _gen_pipeline(cfg, idx)
        path = out / f"{build.pipeline_id}.ndjson"
        with path.open("w", encoding="utf-8") as fh:
            for record in build.records:
                if record["kind"] == "execution":
                    group = OPERATOR_GROUPS[OperatorKind(record["operator"])]
                    record = dict(record)
                    record["cpu_cost"] = record["cpu_cost"] * scale[group]
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        for anchor, p, label, members in build.graphlets:
            total = 0.0
            for ex_id in members:
                group, raw = build.exec_costs[ex_id]
                total += raw * scale[group]
            entries.append(
                TruthEntry(
                    pipeline_id=build.pipeline_id,
                    anchor=anchor,
                    p=p,
                    label=label,
                    cost=total,
                    warmstart=build.warmstart,
                )
            )

    truth = PlantedTruth(entries=entries)
    ref = bayes_reference(truth)
    truth.bayes_balanced_accuracy = ref.balanced_accuracy
    truth.oracle_elimination = ref.elimination_at_full_freshness
    truth.push_rate = ref.push_rate
    _write_truth(truth, out / "truth.json")
    return truth


def _write_truth(truth: PlantedTruth, path: Path) -> None:
    payload = {
        "format": "graphlets-truth-v1",
        "bayes_balanced_accuracy": truth.bayes_balanced_accuracy,
        "oracle_elimination": truth.oracle_elimination,
        "push_rate": truth.push_rate,
        "entries": [
            {
                "pipeline_id": e.pipeline_id,
                "anchor": e.anchor,
                "p": e.p,
                "label": e.label,
                "cost": e.cost,
                "warmstart": e.warmstart,
            }
            for e in truth.entries
        ],
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=None) + "\n", encoding="utf-8")


def bayes_balanced_accuracy(ps: np.ndarray) -> float:
    """Best achievable expected balanced accuracy when the true push
    probabilities are known: maximize (TPR + TNR)/2 over thresholds on p."""
    ps = np.sort(np.asarray(ps, dtype=float))
    total_p = ps.sum()
    total_q = (1.0 - ps).sum()
    if total_p <= 0.0 or total_q <= 0.0:
        return 1.0
    suffix_p = np.concatenate([np.cumsum(ps[::-1])[::-1], [0.0]])
    prefix_q = np.concatenate([[0.0], np.cumsum(1.0 - ps)])
    return float(np.max((suffix_p / total_p + prefix_q / total_q) / 2.0))


def bayes_reference(truth: PlantedTruth) -> BayesReference:
    """Ceilings implied by the planted probabilities, over the ML-eligible
    (non-warmstart) part of the corpus."""
    entries = truth.ml_entries()
    if not entries:
        raise ValueError("truth has no ML-eligible entries")
    ps = np.array([e.p for e in entries])
    labels = np.array([e.label for e in entries], dtype=bool)
    costs = np.array([e.cost for e in entries])
    acc = bayes_balanced_accuracy(ps)
    unpushed_total = costs[~labels].sum()
    if labels.any() and unpushed_total > 0:
        floor = ps[labels].min()
        eliminated = costs[(~labels) & (ps < floor)].sum() / unpushed_total
    else:
        eliminated = 0.0
    return BayesReference(
        balanced_accuracy=acc,
        elimination_at_full_freshness=float(eliminated),
        push_rate=float(labels.mean()),
    )
