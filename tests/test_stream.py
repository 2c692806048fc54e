"""The per-pipeline pass against the list-held corpus oracles.

Every command reads its corpus one pipeline at a time and folds it into
accumulators.  These tests check, bit for bit, that the streamed feature
rows and the streamed statistics equal the oracles that hold the whole
corpus as one list, on the fixture pipeline, on a small generated corpus,
on its churned copy (one feature renamed in 30% of data spans, as in the
bench's churn workload) and on a one-pipeline corpus.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from oracles import (
    load_traces,
    reference_arch_vocab,
    reference_cadence_stats,
    reference_cost_breakdown,
    reference_featurize,
)

from graphlets.analytics import CadenceStats, add_costs, cost_fractions, pipeline_stats
from graphlets.config import STAGES, WindowConfig
from graphlets.features import Featurizer
from graphlets.segmentation import extract_graphlets, is_warmstart, stream_corpus
from graphlets.synth import GenConfig, generate
from graphlets.workflow import corpus_rows

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _churn_corpus():
    """``churn_corpus`` of bench/run.py, which is a script, not a package."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.churn_corpus


@pytest.fixture(scope="module")
def corpora(tmp_path_factory, warm_pair_dir) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("stream")
    small = root / "small"
    generate(dataclasses.replace(GenConfig(seed=7), n_pipelines=8,
                                 graphlets_per_pipeline=(10, 20), warmstart_fraction=0.25), small)
    churned = root / "churned"
    shutil.copytree(small, churned)
    assert _churn_corpus()(churned, 0.3, 0) > 0
    single = root / "single"
    generate(dataclasses.replace(GenConfig(seed=3), n_pipelines=1,
                                 graphlets_per_pipeline=(12, 12), warmstart_fraction=0.0), single)
    return {"fixture": warm_pair_dir, "small": small, "churned": churned, "single": single}


NAMES = ["fixture", "small", "churned", "single"]


def _listed(directory: Path):
    return [(trace, extract_graphlets(trace)) for trace in load_traces(directory)]


def _assert_same_features(streamed, reference) -> None:
    assert streamed.names == reference.names
    assert streamed.X.shape == reference.X.shape
    assert streamed.X.tobytes() == reference.X.tobytes()
    assert streamed.y.tobytes() == reference.y.tobytes()
    for stage in STAGES:
        assert streamed.stage_costs[stage].tobytes() == reference.stage_costs[stage].tobytes()
    assert streamed.total_costs == reference.total_costs
    assert streamed.anchors == reference.anchors
    assert streamed.pipeline_ids == reference.pipeline_ids
    assert streamed.model_types == reference.model_types


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("window", [1, 3])
def test_streamed_features_equal_the_list_oracle(name, window, corpora):
    featurizer = Featurizer(window=WindowConfig(window))
    rows = corpus_rows(corpora[name], featurizer)
    streamed = featurizer.with_vocab(rows).assemble(rows)

    kept = [(t, gs) for t, gs in _listed(corpora[name]) if not is_warmstart(gs)]
    vocab = reference_arch_vocab(kept)
    assert streamed.featurizer.arch_vocab == vocab
    reference = reference_featurize(kept, dataclasses.replace(featurizer, arch_vocab=vocab))
    _assert_same_features(streamed, reference)
    # The held-out path: another vocabulary, a subset of the pipelines.
    held_out = featurizer.with_vocab(rows[:1]).assemble(rows[1:])
    _assert_same_features(held_out, reference_featurize(kept[1:], held_out.featurizer))


@pytest.mark.parametrize("name", NAMES)
def test_streamed_stats_equal_the_list_oracles(name, corpora):
    stats, totals, cadence = [], {}, CadenceStats()
    for trace, graphlets in stream_corpus(corpora[name]):
        stats.append(pipeline_stats(trace))
        add_costs(totals, trace)
        cadence.add(trace, graphlets)

    listed = _listed(corpora[name])
    assert stats == [pipeline_stats(trace) for trace, _ in listed]
    # Same groups in the same order, and the same bits in each fraction.
    reference = reference_cost_breakdown(trace for trace, _ in listed)
    assert [(group, f.hex()) for group, f in cost_fractions(totals).items()] == [
        (group, f.hex()) for group, f in reference.items()
    ]
    expected = reference_cadence_stats(listed)
    assert {key: getattr(cadence, key) for key in expected} == expected
