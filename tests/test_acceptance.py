"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Quantitative checks use
synthetic corpora with planted truth; nothing here depends on external data.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import (
    brute_confusion,
    brute_transport_cost,
    jensen_shannon,
    naive_graphlet_nodes,
    random_trace,
)
from test_similarity import random_span

from graphlets.config import STAGES, FeatureStage, ForestConfig
from graphlets.features import Featurizer
from graphlets.forest import balanced_accuracy, split_corpus
from graphlets.policy import EvalRecord, sweep
from graphlets.segmentation import StopSet, extract_graphlets, stream_corpus
from graphlets.similarity import (
    BINS,
    LshParams,
    SimWeights,
    canonicalize,
    hash_distributions,
    span_sim,
    sequence_sim,
)
from graphlets.synth import GenConfig, generate, iid_config, preset
from graphlets.analytics import CadenceStats, add_costs, cost_fractions
from graphlets.trace import valid_traces
from graphlets.workflow import corpus_rows, policy_report

PARAMS = LshParams()
WEIGHTS = SimWeights()
ACCEPT_FOREST = ForestConfig(n_trees=40, max_depth=14, min_leaf=8, seed=42)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_default")
    truth = generate(GenConfig(), out)
    started = time.time()
    rows = corpus_rows(out, Featurizer())
    return truth, out, rows, time.time() - started


@pytest.fixture(scope="module")
def default_report(default_corpus):
    truth, _, rows, rows_elapsed = default_corpus
    started = time.time()
    result = policy_report(rows, forest_cfg=ACCEPT_FOREST, seed=42)
    return result, rows_elapsed + time.time() - started


def test_criterion_1_segmentation_oracle(warm_pair_trace, warm_pair_graphlets):
    started = time.time()
    rng = np.random.default_rng(424242)
    stop = StopSet()
    checked = 0
    for _ in range(1000):
        trace = random_trace(rng, max_execs=40)
        for g in extract_graphlets(trace, stop):
            assert g.nodes == naive_graphlet_nodes(trace, g.anchor, stop)
            checked += 1

    consumer = warm_pair_graphlets[1]
    parents, children = warm_pair_trace.parents, warm_pair_trace.children
    kinds = {}
    for n in consumer.nodes:
        ex = warm_pair_trace.executions.get(n)
        if ex is not None:
            kinds[ex.operator.value] = kinds.get(ex.operator.value, 0) + 1
    eg_nodes = [n for n in consumer.nodes if warm_pair_trace.executions.get(n)
                and warm_pair_trace.executions[n].operator.value == "example_gen"]
    eg_avg_out = sum(len(children[n]) for n in eg_nodes) / len(eg_nodes)
    fixture_ok = (
        kinds.get("example_gen") == 2
        and eg_avg_out == 1.0
        and kinds.get("trainer") == 1
        and len(parents[consumer.anchor]) == 2
        and len(children[consumer.anchor]) == 1
        and kinds.get("statistics_gen") == 1
        and kinds.get("evaluator") == 1
        and kinds.get("pusher") == 1
        and "transform" not in kinds
    )
    elapsed = time.time() - started
    report(
        1,
        fixture_ok and elapsed < 10.0,
        f"{checked} graphlets across 1000 random traces match the naive fixpoint; "
        f"reference fixture counts verbatim; {elapsed:.1f}s",
    )


def test_criterion_2_metric_axioms():
    started = time.time()
    rng = np.random.default_rng(31337)

    worst_mass = 0.0
    for _ in range(2500):
        span = random_span(rng, max_features=4)
        for f in span.features:
            worst_mass = max(worst_mass, abs(sum(canonicalize(f).bins) - 1.0))
    assert worst_mass <= 1e-9

    n_pairs = 10_000
    asym = 0
    out_of_range = 0
    for _ in range(n_pairs):
        a = random_span(rng, max_features=4)
        b = random_span(rng, max_features=4)
        ab = span_sim(a, b, PARAMS, WEIGHTS)
        ba = span_sim(b, a, PARAMS, WEIGHTS)
        if ab != ba:
            asym += 1
        if not (0.0 <= ab <= 1.0):
            out_of_range += 1
    assert asym == 0 and out_of_range == 0

    ident_err = 0.0
    for _ in range(300):
        d = random_span(rng)
        ident_err = max(ident_err, abs(span_sim(d, d, PARAMS, WEIGHTS) - 1.0))
        seq = [random_span(rng) for _ in range(3)]
        ident_err = max(ident_err, abs(sequence_sim(seq, seq, PARAMS, WEIGHTS) - 1.0))
    assert ident_err <= 1e-9
    from graphlets.trace import SpanStats

    empty = SpanStats(features=())
    assert span_sim(empty, random_span(rng), PARAMS, WEIGHTS) == 0.0

    from graphlets.transport import transport_cost

    worst_gap = 0.0
    for n in range(1, 5):
        for m in range(1, 5):
            for _ in range(8):
                cost = rng.random((n, m))
                worst_gap = max(
                    worst_gap, abs(transport_cost(cost) - brute_transport_cost(cost))
                )
    assert worst_gap <= 1e-9

    elapsed = time.time() - started
    report(
        2,
        elapsed < 30.0,
        f"symmetry exact, range ok, identity within 1e-9, mass error {worst_mass:.1e}, "
        f"transport vs brute force gap {worst_gap:.1e}; {elapsed:.1f}s",
    )


def test_criterion_3_lsh_sanity():
    started = time.time()
    rng = np.random.default_rng(99)
    n_pairs = 10_000
    base = rng.dirichlet(np.ones(BINS), size=n_pairs)
    fresh = rng.dirichlet(np.ones(BINS), size=n_pairs)
    mix = rng.uniform(0.0, 0.6, size=n_pairs)[:, None]
    other = (1 - mix) * base + mix * fresh
    other = other / other.sum(axis=1, keepdims=True)
    jsd = np.array([jensen_shannon(p, q) for p, q in zip(base, other)])
    ha = hash_distributions(base, PARAMS)
    hb = hash_distributions(other, PARAMS)
    collide = (ha == hb).all(axis=1)
    deciles = np.quantile(jsd, np.linspace(0, 1, 11))
    rates = []
    for lo, hi in zip(deciles[:-1], deciles[1:]):
        mask = (jsd >= lo) & (jsd <= hi)
        rates.append(float(collide[mask].mean()))
    strictly_decreasing = all(a > b for a, b in zip(rates, rates[1:]))

    self_collide = (hash_distributions(base[:500], PARAMS) == ha[:500]).all()
    elapsed = time.time() - started
    report(
        3,
        strictly_decreasing and bool(self_collide) and elapsed < 10.0,
        f"collision rate per JSD decile strictly decreasing "
        f"({rates[0]:.2f} .. {rates[-1]:.3f}), identical inputs always collide; "
        f"{elapsed:.1f}s",
    )


def test_criterion_4_classifier_protocol(default_corpus):
    _, _, rows, _ = default_corpus
    labels = [(r.pipeline_id, r.labels) for r in rows]
    spec = split_corpus(labels, seed=42)
    frac_ok = 0.78 <= spec.train_fraction <= 0.82
    gap = abs(spec.train_rate - spec.test_rate)

    rng = np.random.default_rng(7)
    exact = True
    for _ in range(20):
        n = int(rng.integers(4, 60))
        y_true = rng.random(n) < 0.5
        if y_true.all() or not y_true.any():
            y_true[0] = True
            y_true[1] = False
        y_pred = rng.random(n) < 0.5
        tp = fp = fn = tn = 0
        for a, b in zip(y_true, y_pred):
            if a and b:
                tp += 1
            elif a:
                fn += 1
            elif b:
                fp += 1
            else:
                tn += 1
        by_hand = (tp / (tp + fn) + tn / (tn + fp)) / 2
        if balanced_accuracy(y_true, y_pred) != by_hand:
            exact = False
    report(
        4,
        frac_ok and gap <= 0.02 and exact,
        f"train fraction {spec.train_fraction:.3f}, label-rate gap {gap:.4f}, "
        f"balanced accuracy exact on 20 fixtures",
    )


def test_criterion_5_staged_model_ordering(default_corpus, default_report):
    truth, _, rows, _ = default_corpus
    result, elapsed = default_report
    n_graphlets = sum(len(r.labels) for r in rows)
    assert n_graphlets >= 20_000

    accs = [s.balanced_accuracy for s in result.stages]
    stages = [s.stage for s in result.stages]
    assert stages == list(STAGES)
    non_decreasing = all(b >= a - 0.02 for a, b in zip(accs, accs[1:]))
    best_heuristic = max(result.heuristics.values())
    above_heuristics = all(acc >= best_heuristic for acc in accs)
    ceiling = truth.bayes_balanced_accuracy + 0.02
    below_bayes = all(acc <= ceiling for acc in accs)
    report(
        5,
        non_decreasing and above_heuristics and below_bayes and elapsed < 120.0,
        f"accuracies {['%.3f' % a for a in accs]} non-decreasing, all above best "
        f"heuristic {best_heuristic:.3f}, all below Bayes {truth.bayes_balanced_accuracy:.3f}+0.02; "
        f"{elapsed:.0f}s on {n_graphlets} graphlets",
    )


def test_criterion_6_curve_correctness():
    rng = np.random.default_rng(606)
    records = []
    for i in range(100):
        label = bool(rng.random() < 0.3)
        records.append(
            EvalRecord(
                anchor=f"g{i}",
                label=label,
                score=float(rng.integers(0, 20)) / 19.0,
                unpushed_cost=0.0 if label else float(rng.random() * 3),
            )
        )
    curve = sweep(records)
    total_unpushed = sum(r.unpushed_cost for r in records if not r.label)
    n_pos = sum(1 for r in records if r.label)
    n_neg = len(records) - n_pos
    brute_ok = True
    for p in curve.points:
        tp, fp, fn, tn, fp_cost = brute_confusion(records, p.threshold)
        if (
            abs(p.tpr - tp / n_pos) > 1e-12
            or abs(p.fpr - fp / n_neg) > 1e-12
            or abs(p.wasted_fraction - fp_cost / total_unpushed) > 1e-12
        ):
            brute_ok = False

    endpoints_ok = (
        curve.points[0].wasted_fraction == 1.0
        and curve.points[0].freshness == 1.0
        and curve.points[-1].wasted_fraction == 0.0
        and curve.points[-1].freshness == 0.0
    )
    fresh = [p.freshness for p in curve.points]
    waste = [p.wasted_fraction for p in curve.points]
    monotone_ok = all(a >= b for a, b in zip(fresh, fresh[1:])) and all(
        a >= b for a, b in zip(waste, waste[1:])
    )

    # worked mapping: TPR 1 with 65% of unpushed graphlets mis-run carrying
    # 70% of the unpushed cost maps to the point (0.70, 1.0)
    fixture = [
        EvalRecord(anchor=f"p{i}", label=True, score=0.9, unpushed_cost=0.0)
        for i in range(10)
    ]
    fixture += [
        EvalRecord(anchor=f"h{i}", label=False, score=0.8, unpushed_cost=0.7 * 100 / 65)
        for i in range(65)
    ]
    fixture += [
        EvalRecord(anchor=f"l{i}", label=False, score=0.1, unpushed_cost=0.3 * 100 / 35)
        for i in range(35)
    ]
    fcurve = sweep(fixture)
    mapped = [
        p
        for p in fcurve.points
        if p.freshness == 1.0 and abs(p.fpr - 0.65) <= 1e-12
    ]
    mapping_ok = bool(mapped) and abs(mapped[0].wasted_fraction - 0.70) <= 1e-12

    report(
        6,
        brute_ok and endpoints_ok and monotone_ok and mapping_ok,
        "sweep equals brute-force confusion at every threshold, endpoints (1,1)/(0,0), "
        "monotone, worked mapping reproduces (0.70, 1.0)",
    )


def test_criterion_7_waste_elimination(tmp_path):
    cfg = dataclasses.replace(
        preset("strong"), n_pipelines=60, graphlets_per_pipeline=(80, 200)
    )
    truth = generate(cfg, tmp_path)
    oracle = truth.oracle_elimination
    result = policy_report(
        corpus_rows(tmp_path, Featurizer()),
        forest_cfg=ACCEPT_FOREST,
        seed=42,
        stages=(FeatureStage.VALIDATION,),
    )
    achieved = result.stages[0].elimination_at_full_freshness
    report(
        7,
        oracle >= 0.6 and achieved >= 0.4,
        f"oracle elimination {oracle:.3f} >= 0.6; validation-stage model eliminates "
        f"{achieved:.3f} of wasted compute at full freshness (>= 0.4)",
    )


def test_criterion_8_analytics_sanity(default_corpus, tmp_path):
    _, out, _, _ = default_corpus
    cfg = GenConfig()
    totals = {}
    for trace in valid_traces(out):
        add_costs(totals, trace)
    breakdown = cost_fractions(totals)
    mix_err = max(
        abs(breakdown.get(group, 0.0) - target) for group, target in cfg.cost_mix.items()
    )

    geo = dataclasses.replace(
        iid_config(0.25, seed=8), n_pipelines=70, graphlets_per_pipeline=(140, 180)
    )
    generate(geo, tmp_path)
    cadence = CadenceStats()
    n_graphlets = 0
    for trace, graphlets in stream_corpus(tmp_path):
        cadence.add(trace, graphlets)
        n_graphlets += len(graphlets)
    assert n_graphlets >= 10_000
    gaps = cadence.graphlets_between_pushes
    mean_gap = float(np.mean(gaps))
    report(
        8,
        mix_err <= 0.02 and abs(mean_gap - 3.0) <= 0.3,
        f"cost mix recovered within {mix_err:.4f} (<= 0.02); geometric corpus mean "
        f"graphlets-between-pushes {mean_gap:.2f} (3.0 +/- 0.3) over {len(gaps)} gaps",
    )


def test_criterion_9_cli_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        '{"forest": {"n_trees": 10}, '
        '"gen": {"n_pipelines": 16, "graphlets_per_pipeline": [15, 30]}}'
    )

    def run_chain(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        corpus = base / "corpus"

        def cli(*args: str) -> None:
            proc = subprocess.run(
                [sys.executable, "-m", "graphlets.cli", *args],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr + proc.stdout

        cli("synth", "--out", str(corpus), "--seed", "42", "--config", str(config))
        cli("segment", "--corpus", str(corpus), "--out", str(base / "graphlets.ndjson"),
            "--seed", "42")
        cli("featurize", "--corpus", str(corpus), "--out", str(base / "features.tsv"),
            "--seed", "42")
        cli("train", "--corpus", str(corpus), "--out", str(base / "model.json"),
            "--seed", "42", "--config", str(config))
        cli("sweep", "--corpus", str(corpus), "--model", str(base / "model.json"),
            "--out", str(base / "curve.tsv"), "--seed", "42", "--config", str(config))
        return {
            p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    first = run_chain("run_a")
    second = run_chain("run_b")
    identical = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    report(
        9,
        identical,
        f"synth/segment/featurize/train/sweep chain byte-identical across runs "
        f"({len(first)} files)",
    )
