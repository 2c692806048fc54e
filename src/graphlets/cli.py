"""Command-line interface.

Exit codes: 0 on success, 1 when trace validation fails (violations are
printed one per line), 2 on usage errors, on a malformed trace file (the
message reads ``<path>: line N: <message>``), on a corpus directory
without trace files, on a bad config file (the message names the section
and key), on a model file that is not valid and on a path that cannot be
read or written (the message names the path).  All outputs are
deterministic given the inputs, the seed, and the config file; tabular
outputs start with a format-version comment line followed by a header row.

Every corpus command reads the corpus one pipeline at a time, through
``segmentation.stream_corpus``: each trace is reduced to what the command
writes (records, statistics, pair similarities, feature rows) and dropped
before the next file is parsed, so memory grows with those reductions, not
with the traces.  Outputs are written only after the whole corpus has been
read and found valid; ``evaluate`` and ``sweep`` read the model file first.

Each command imports the layers it runs in its body; at module level this
file imports only what every command uses, so ``stats`` loads no model layer.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import STAGES, FeatureStage, RunConfig, load_config
from .segmentation import dump_graphlets, stream_corpus
from .trace import CorpusValidationError, valid_traces

TABLE_VERSION = "# graphlets-table v1"


def _fmt(x) -> str:
    if x is None:
        return "na"
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_table(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(TABLE_VERSION + "\n")
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")


def _write_curve(path: Path, curve) -> None:
    _write_table(
        path,
        ["threshold", "wasted_fraction", "freshness", "fpr", "tpr"],
        [[p.threshold, p.wasted_fraction, p.freshness, p.fpr, p.tpr] for p in curve.points],
    )


def _write_similarity_table(path: Path, table: dict) -> None:
    _write_table(
        path,
        ["metric", "b_0_25", "b_25_50", "b_50_75", "b_75_100", "mean", "count"],
        [[name, *row["buckets"], row["mean"], row["count"]] for name, row in table.items()],
    )


def _featurizer(cfg: RunConfig):
    """The configured ``Featurizer``, before any vocabulary."""
    from .features import Featurizer

    return Featurizer(window=cfg.window, lsh=cfg.lsh, weights=cfg.weights)


def cmd_synth(args, cfg: RunConfig) -> int:
    from .synth import generate

    if args.preset:  # the preset under the file's other gen keys
        cfg = replace(cfg, gen_section={**cfg.gen_section, "preset": args.preset})
    gen = cfg.gen
    if args.pipelines is not None:
        gen = replace(gen, n_pipelines=args.pipelines)
    if args.graphlets is not None:
        lo, _, hi = args.graphlets.partition(":")
        try:
            gen = replace(gen, graphlets_per_pipeline=(int(lo), int(hi or lo)))
        except ValueError:
            raise ValueError(
                f"--graphlets must be N or LO:HI with 1 <= LO <= HI, got {args.graphlets!r}"
            ) from None
    truth = generate(gen, args.out)
    print(
        f"wrote {gen.n_pipelines} pipelines, {len(truth.entries)} graphlets, "
        f"push rate {truth.push_rate:.3f} -> {args.out}"
    )
    return 0


def cmd_validate(args, cfg: RunConfig) -> int:
    count = sum(1 for _ in valid_traces(args.corpus))
    print(f"{count} traces valid")
    return 0


def cmd_segment(args, cfg: RunConfig) -> int:
    lines = [
        line
        for _, graphlets in stream_corpus(args.corpus, cfg.stop)
        for line in dump_graphlets(graphlets)
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    print(f"wrote {len(lines)} graphlet records -> {out}")
    return 0


def cmd_stats(args, cfg: RunConfig) -> int:
    from .analytics import (CadenceStats, add_costs, cost_fractions, drift_code_table,
                            pair_similarities, pipeline_stats, similarity_table)

    stats = []
    cost_totals: dict = {}
    cad = CadenceStats()
    pairs = []
    for trace, graphlets in stream_corpus(args.corpus, cfg.stop):
        stats.append(pipeline_stats(trace))
        add_costs(cost_totals, trace)
        cad.add(trace, graphlets)
        pairs += pair_similarities(trace, graphlets, cfg.lsh, cfg.weights)
    breakdown = cost_fractions(cost_totals)  # raises before any table is written
    out = Path(args.out)

    _write_table(
        out / "pipelines.tsv",
        ["pipeline_id", "lifespan_days", "models_per_day", "feature_count",
         "categorical_fraction", "mean_categorical_domain"],
        [
            [
                ps.pipeline_id,
                ps.lifespan_days,
                ps.models_per_day,
                ps.feature_count,
                ps.categorical_fraction,
                ps.mean_categorical_domain,
            ]
            for ps in stats
        ],
    )

    analyzers: dict = {}
    for ps in stats:
        for a, c in ps.analyzer_usage.items():
            analyzers[a] = analyzers.get(a, 0) + c
    _write_table(
        out / "analyzer_usage.tsv",
        ["analyzer", "total_uses"],
        [[a.value, c] for a, c in sorted(analyzers.items())],
    )

    _write_table(
        out / "cost_breakdown.tsv",
        ["operator_group", "cost_fraction"],
        [[g.value, f] for g, f in sorted(breakdown.items())],
    )

    def summary(name: str, values) -> list:
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return [name, 0, None, None, None, None, None]
        return [
            name,
            int(arr.size),
            float(arr.mean()),
            float(np.percentile(arr, 25)),
            float(np.percentile(arr, 50)),
            float(np.percentile(arr, 75)),
            float(arr.max()),
        ]

    _write_table(
        out / "cadence.tsv",
        ["measure", "count", "mean", "p25", "p50", "p75", "max"],
        [
            summary("hours_between_graphlets", cad.hours_between_all),
            summary("hours_between_pushed", cad.hours_between_pushed),
            summary("graphlets_between_pushes", cad.graphlets_between_pushes),
            summary("graphlet_duration_hours", cad.duration_hours),
            summary("trainer_cpu_pushed", cad.trainer_cpu_by_label["pushed"]),
            summary("trainer_cpu_unpushed", cad.trainer_cpu_by_label["unpushed"]),
        ],
    )
    _write_table(
        out / "push_rate_by_model_type.tsv",
        ["model_type", "push_rate"],
        [[mt.value, r] for mt, r in cad.push_rate_by_model_type.items()],
    )

    _write_similarity_table(out / "similarity_table.tsv", similarity_table(pairs))

    drift = drift_code_table(pairs)
    _write_table(
        out / "drift_code.tsv",
        ["measure", "mu_pushed", "mu_unpushed", "mu_all"],
        [
            ["input_data_similarity", drift.similarity_pushed, drift.similarity_unpushed,
             drift.similarity_all],
            ["code_match", drift.code_match_pushed, drift.code_match_unpushed,
             drift.code_match_all],
        ],
    )
    print(f"wrote stats tables -> {out}")
    return 0


def cmd_similarity(args, cfg: RunConfig) -> int:
    from .analytics import pair_similarities, similarity_table

    pairs = []
    for trace, graphlets in stream_corpus(args.corpus, cfg.stop):
        pairs += pair_similarities(trace, graphlets, cfg.lsh, cfg.weights)
    out = Path(args.out)

    _write_table(
        out / "pairs.tsv",
        ["pipeline_id", "anchor_a", "anchor_b", "jaccard", "dataset_sim"],
        [[p.pipeline_id, p.anchor_a, p.anchor_b, p.jaccard, p.dataset_sim] for p in pairs],
    )

    _write_similarity_table(out / "histogram.tsv", similarity_table(pairs))
    print(f"wrote {len(pairs)} pair records -> {out}")
    return 0


def cmd_featurize(args, cfg: RunConfig) -> int:
    from .workflow import corpus_rows

    featurizer = _featurizer(cfg)
    pipelines = corpus_rows(args.corpus, featurizer, cfg.stop)
    feats = featurizer.with_vocab(pipelines).assemble(pipelines)
    stage = FeatureStage(args.stage)
    names, X, costs = feats.stage_view(stage)
    rows = []
    for i in range(len(feats.y)):
        rows.append(
            [*X[i].tolist(), bool(feats.y[i]), float(costs[i]),
             feats.pipeline_ids[i], feats.anchors[i]]
        )
    _write_table(
        Path(args.out),
        [*names, "label", "cost_to_acquire", "pipeline_id", "anchor"],
        rows,
    )
    print(f"wrote {len(rows)} x {len(names)} feature matrix -> {args.out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    from .forest import fit
    from .workflow import corpus_rows, save_model, split_pipelines

    featurizer = _featurizer(cfg)
    spec, train, _ = split_pipelines(
        corpus_rows(args.corpus, featurizer, cfg.stop), seed=cfg.split_seed
    )
    featurizer = featurizer.with_vocab(train)
    feats = featurizer.assemble(train)
    stage = FeatureStage(args.stage)
    names, X, _ = feats.stage_view(stage)
    model = fit(X, feats.y, cfg.forest, feature_names=names)
    save_model(args.out, stage, featurizer, spec, model)
    print(
        f"trained {stage.value} model on {len(feats.y)} graphlets "
        f"({len(spec.train_pipeline_ids)} pipelines) -> {Path(args.out)}"
    )
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    from .workflow import held_out_records, push_balanced_accuracy

    stage, records = held_out_records(args.corpus, args.model, cfg.stop)
    labels = [r.label for r in records]
    acc = push_balanced_accuracy(records)
    _write_table(
        Path(args.out),
        ["stage", "n_test", "test_push_rate", "balanced_accuracy"],
        [[stage.value, len(records), sum(labels) / len(labels), acc]],
    )
    print(f"balanced accuracy {acc:.3f} on {len(records)} test graphlets -> {args.out}")
    return 0


def cmd_sweep(args, cfg: RunConfig) -> int:
    from .policy import sweep
    from .workflow import held_out_records

    stage, records = held_out_records(args.corpus, args.model, cfg.stop)
    curve = sweep(records)
    _write_curve(Path(args.out), curve)
    print(
        f"{stage.value}: {len(curve.points)} thresholds, "
        f"waste elimination at full freshness {curve.elimination_at_full_freshness():.3f} "
        f"-> {args.out}"
    )
    return 0


def cmd_report(args, cfg: RunConfig) -> int:
    from .workflow import corpus_rows, policy_report

    featurizer = _featurizer(cfg)
    report = policy_report(
        corpus_rows(args.corpus, featurizer, cfg.stop),
        featurizer,
        forest_cfg=cfg.forest,
        seed=cfg.split_seed,
    )
    out = Path(args.out)
    _write_table(
        out / "stages.tsv",
        ["stage", "balanced_accuracy", "feature_cost_ratio", "elimination_at_full_freshness"],
        [
            [s.stage.value, s.balanced_accuracy, s.feature_cost_ratio,
             s.elimination_at_full_freshness]
            for s in report.stages
        ],
    )
    _write_table(
        out / "heuristics.tsv",
        ["heuristic", "balanced_accuracy"],
        [[name, acc] for name, acc in sorted(report.heuristics.items())],
    )
    for s in report.stages:
        _write_curve(out / f"curve_{s.stage.value}.tsv", s.curve)
    print(f"wrote staged report ({len(report.stages)} stages) -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphlets",
        description="Analyze ML pipeline provenance traces: segment per-model graphlets, "
        "measure data reuse and drift, predict pushes, and evaluate waste policies.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=True):
        if corpus:
            p.add_argument("--corpus", required=True, help="corpus directory of trace files")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--config", default=None, help="JSON config file")

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted truth")
    common(p, corpus=False)
    p.add_argument("--out", required=True)
    p.add_argument("--preset", choices=["default", "weak", "medium", "strong", "geometric"])
    p.add_argument("--pipelines", type=int, default=None)
    p.add_argument("--graphlets", default=None, metavar="LO:HI")

    p = sub.add_parser("validate", help="check every trace invariant")
    common(p)

    p = sub.add_parser("segment", help="extract graphlets to a record file")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("stats", help="corpus analytics tables")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("similarity", help="consecutive-pair similarity records and histogram")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("featurize", help="emit the classifier feature matrix")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--stage", default=FeatureStage.VALIDATION.value,
                   choices=[s.value for s in STAGES])

    p = sub.add_parser("train", help="split, featurize, and fit a push classifier")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--stage", default=FeatureStage.VALIDATION.value,
                   choices=[s.value for s in STAGES])

    p = sub.add_parser("evaluate", help="score a model on its held-out pipelines")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="freshness-vs-waste curve for a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="staged models, heuristics, and curves in one run")
    common(p)
    p.add_argument("--out", required=True)

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "validate": cmd_validate,
    "segment": cmd_segment,
    "stats": cmd_stats,
    "similarity": cmd_similarity,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        return COMMANDS[args.command](args, cfg)
    except CorpusValidationError as exc:
        for v in exc.violations:
            print(v)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # A path that cannot be read or written, such as a directory given
        # for a file or an output under an existing file.
        reason = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"error: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
