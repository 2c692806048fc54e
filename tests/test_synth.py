from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from oracles import (
    load_truth,
    reference_gen_pipeline,
    reference_generate,
    sample_latent_probabilities,
)

from graphlets import synth
from graphlets.segmentation import is_warmstart, stream_corpus
from graphlets.synth import (
    GenConfig,
    TruthEntry,
    _gen_pipeline,
    bayes_balanced_accuracy,
    bayes_reference,
    generate,
    iid_config,
    preset,
)
from graphlets.trace import OperatorGroup, validate_trace


def test_generated_corpora_validate(small_corpus):
    _, _, traces, _ = small_corpus
    assert [v for trace in traces for v in validate_trace(trace)] == []
    assert len({trace.pipeline_id for trace in traces}) == len(traces)


def test_same_seed_byte_identical(tmp_path):
    cfg = dataclasses.replace(GenConfig(), n_pipelines=4, graphlets_per_pipeline=(8, 15))
    a, b = tmp_path / "a", tmp_path / "b"
    generate(cfg, a)
    generate(cfg, b)
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


_SMALL = {"graphlets_per_pipeline": (5, 30)}

# Each preset, and configs that reach every branch of the generator.
REFERENCE_CASES = {
    **{name: dataclasses.replace(preset(name, seed=5), **_SMALL)
       for name in ("default", "weak", "strong", "geometric")},
    "no rich spans": GenConfig(seed=11, rich_rate=0.0, **_SMALL),
    "only rich spans": GenConfig(seed=12, rich_rate=1.0, **_SMALL),
    "only warmstart": GenConfig(seed=13, warmstart_fraction=1.0, **_SMALL),
    "failed pushers": GenConfig(seed=14, failed_pusher_rate=1.0, **_SMALL),
    "one graphlet": GenConfig(seed=15, graphlets_per_pipeline=(1, 1)),
    "window 1": GenConfig(seed=16, window=1, **_SMALL),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_generator_matches_reference_bitwise(case):
    """Every operator run written by ``_PipelineBuild.run`` gives the records,
    costs, graphlets and warmstart flag of the hand-written generator."""
    cfg = REFERENCE_CASES[case]
    for idx in range(4):
        got, want = _gen_pipeline(cfg, idx), reference_gen_pipeline(cfg, idx)
        assert got.records == want.records
        assert list(got.exec_costs.items()) == list(want.exec_costs.items())
        assert got.graphlets == want.graphlets
        assert got.warmstart == want.warmstart


def _truth_or_error(write, cfg, out):
    try:
        return write(cfg, out)
    except ValueError as exc:  # an all-warmstart corpus has no truth to score
        return str(exc)


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_generate_matches_two_pass_reference_bitwise(case, tmp_path):
    """Writing raw costs and rescaling only the execution lines gives every
    byte of the writer that generated each pipeline twice; three pipelines
    make the cost calibration span pipelines."""
    cfg = dataclasses.replace(REFERENCE_CASES[case], n_pipelines=3)
    got, want = tmp_path / "got", tmp_path / "want"
    assert _truth_or_error(generate, cfg, got) == _truth_or_error(reference_generate, cfg, want)
    names = sorted(path.name for path in want.iterdir())
    assert sorted(path.name for path in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_generate_runs_each_pipeline_once(tmp_path, monkeypatch):
    calls = []

    def counted(cfg, idx):
        calls.append(idx)
        return _gen_pipeline(cfg, idx)

    monkeypatch.setattr(synth, "_gen_pipeline", counted)
    cfg = GenConfig(seed=7, n_pipelines=3, graphlets_per_pipeline=(5, 10))
    generate(cfg, tmp_path)
    assert calls == [0, 1, 2]


@pytest.mark.parametrize("fails_in", ["generating pipe0003", "rescaling pipe0003"])
def test_interrupted_regeneration_leaves_no_stale_truth(fails_in, tmp_path, monkeypatch):
    """A regeneration that fails midway leaves no truth.json, only traces
    calibrated by one of the two corpora, and no temporary directory."""
    old_cfg = GenConfig(seed=21, n_pipelines=6, graphlets_per_pipeline=(5, 15))
    new_cfg = dataclasses.replace(old_cfg, seed=22)
    out, clean = tmp_path / "out", tmp_path / "clean"
    generate(old_cfg, out)
    old = {path.name: path.read_bytes() for path in out.glob("*.ndjson")}
    generate(new_cfg, clean)

    if fails_in == "generating pipe0003":
        def failing_gen(cfg, idx):
            if idx == 3:
                raise RuntimeError("injected")
            return _gen_pipeline(cfg, idx)
        monkeypatch.setattr(synth, "_gen_pipeline", failing_gen)
    else:
        def failing_entry(*args, **kwargs):
            entry = TruthEntry(*args, **kwargs)
            if entry.pipeline_id == "pipe0003":
                raise RuntimeError("injected")
            return entry
        monkeypatch.setattr(synth, "TruthEntry", failing_entry)
    with pytest.raises(RuntimeError, match="injected"):
        generate(new_cfg, out)

    assert not (out / "truth.json").exists()
    assert all(path.is_file() for path in out.iterdir())
    assert sorted(path.name for path in out.iterdir()) == sorted(old)
    for name, old_bytes in old.items():
        assert (out / name).read_bytes() in (old_bytes, (clean / name).read_bytes()), name


def test_different_seed_differs(tmp_path):
    base = dataclasses.replace(GenConfig(), n_pipelines=2, graphlets_per_pipeline=(8, 12))
    other = dataclasses.replace(base, seed=43)
    generate(base, tmp_path / "a")
    generate(other, tmp_path / "b")
    a_file = sorted((tmp_path / "a").glob("*.ndjson"))[0]
    b_file = sorted((tmp_path / "b").glob("*.ndjson"))[0]
    assert a_file.read_bytes() != b_file.read_bytes()


def test_iid_push_rate_concentrates(tmp_path):
    cfg = dataclasses.replace(
        iid_config(0.2, seed=3), n_pipelines=60, graphlets_per_pipeline=(150, 190)
    )
    truth = generate(cfg, tmp_path)
    assert len(truth.entries) >= 10_000
    rate = np.mean([e.label for e in truth.entries])
    assert rate == pytest.approx(0.2, abs=0.01)


def test_filter_drops_exactly_the_planted_warmstart_pipelines(small_corpus):
    _, truth, traces, corpus = small_corpus
    flagged = {e.pipeline_id for e in truth.entries if e.warmstart}
    kept = [(t, gs) for t, gs in corpus if not is_warmstart(gs)]
    assert len(kept) == len(corpus) - len(flagged)
    assert {t.pipeline_id for t, _ in kept} == {
        t.pipeline_id for t, _ in corpus
    } - flagged


def test_warmstart_fraction(tmp_path):
    cfg = dataclasses.replace(
        GenConfig(seed=5), n_pipelines=100, graphlets_per_pipeline=(2, 4), warmstart_fraction=0.3
    )
    generate(cfg, tmp_path)
    removed = sum(is_warmstart(gs) for _, gs in stream_corpus(tmp_path))
    assert abs(removed - 30) <= 8


def test_truth_matches_extracted_graphlets(small_corpus):
    _, truth, traces, corpus = small_corpus
    by_anchor = {e.anchor: e for e in truth.entries}
    assert len(by_anchor) == sum(len(gs) for _, gs in corpus)
    for trace, graphlets in corpus:
        for g in graphlets:
            entry = by_anchor[g.anchor]
            assert entry.cost == pytest.approx(g.total_cost, abs=1e-9)
            assert entry.pipeline_id == g.pipeline_id
            if not entry.warmstart:
                # in warmstart pipelines the previous model's pusher is a
                # descendant of the consumed model artifact, so the extracted
                # push label can differ from the planted one; those pipelines
                # are filtered out of every label-dependent analysis
                assert entry.label == g.pushed


def test_truth_round_trips(tmp_path, small_corpus):
    cfg, _, _, _ = small_corpus
    out = tmp_path / "corpus"
    truth = generate(dataclasses.replace(cfg, n_pipelines=3), out)
    reloaded = load_truth(out / "truth.json")
    assert reloaded.push_rate == pytest.approx(truth.push_rate)
    assert len(reloaded.entries) == len(truth.entries)
    assert reloaded.entries[0] == truth.entries[0]


def test_bayes_deterministic_labels():
    assert bayes_balanced_accuracy(np.array([0.0, 0.0, 1.0, 1.0])) == 1.0


def test_bayes_uninformative_labels():
    assert bayes_balanced_accuracy(np.full(1000, 0.37)) == pytest.approx(0.5)


def test_bayes_reference_fields(small_corpus):
    _, truth, _, _ = small_corpus
    ref = bayes_reference(truth)
    assert 0.5 <= ref.balanced_accuracy <= 1.0
    assert 0.0 <= ref.elimination_at_full_freshness <= 1.0
    assert ref.push_rate == pytest.approx(
        np.mean([e.label for e in truth.ml_entries()])
    )


def test_monte_carlo_matches_corpus_bayes(tmp_path):
    cfg = dataclasses.replace(GenConfig(seed=13), n_pipelines=40, graphlets_per_pipeline=(60, 120))
    truth = generate(cfg, tmp_path)
    mc = bayes_balanced_accuracy(sample_latent_probabilities(cfg, 1_000_000, seed=1))
    assert truth.bayes_balanced_accuracy == pytest.approx(mc, abs=0.02)


def test_stronger_signal_never_hurts_the_classifier(tmp_path):
    from graphlets.config import FeatureStage, ForestConfig
    from graphlets.features import Featurizer
    from graphlets.workflow import corpus_rows, policy_report

    accs = []
    for name in ("weak", "medium", "strong"):
        cfg = dataclasses.replace(
            preset(name, seed=31), n_pipelines=25, graphlets_per_pipeline=(50, 90)
        )
        out = tmp_path / name
        generate(cfg, out)
        report = policy_report(
            corpus_rows(out, Featurizer()),
            forest_cfg=ForestConfig(n_trees=20, max_depth=12, min_leaf=4, seed=5),
            seed=5,
            stages=(FeatureStage.VALIDATION,),
        )
        accs.append(report.stages[0].balanced_accuracy)
    assert accs == sorted(accs), accs


def test_presets():
    weak, strong = preset("weak"), preset("strong")
    assert weak.push.signal < strong.push.signal
    assert not weak.push.hard_validator_gate
    geo = preset("geometric")
    assert geo.push.drift_weight == 0.0
    with pytest.raises(ValueError):
        preset("nope")


def test_invalid_config_rejected():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n_pipelines must be at least 1"):
            GenConfig(n_pipelines=n)
    with pytest.raises(ValueError):
        GenConfig(drift_rate=1.4)
    with pytest.raises(ValueError):
        GenConfig(cost_mix={g: 0.4 for g in list(GenConfig().cost_mix)[:2]})
    with pytest.raises(ValueError):
        GenConfig(graphlets_per_pipeline=(5, 2))
    with pytest.raises(ValueError, match="cost_mix key 'bogus' is not an operator group"):
        GenConfig(cost_mix={"bogus": 1.0})
    with pytest.raises(ValueError, match="model_mix key 'bogus' has no base logit"):
        GenConfig(model_mix={"bogus": 1.0})
    # A NaN passes the sum check, and a negative share can keep the sum at 1.
    with pytest.raises(ValueError, match="cost_mix fractions must be finite and non-negative"):
        GenConfig(cost_mix={OperatorGroup.TRAINING: float("nan")})
    with pytest.raises(ValueError, match="model_mix fractions must be finite and non-negative"):
        GenConfig(model_mix={"dnn": 2.0, "tree": -1.0})
    # Feature counts must fit a span (at most 256 features) and form a range.
    for span in ((5, 3), (-3, -1), (-1, 4), (300, 300), (6, 257)):
        with pytest.raises(ValueError, match="features_per_span must be a non-empty range"):
            GenConfig(features_per_span=span)
    for span in ((0, 0), (256, 256)):
        GenConfig(features_per_span=span)
    for scale in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="walk_scale must be finite and non-negative"):
            GenConfig(walk_scale=scale)
    for fraction in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="categorical_fraction must be a probability"):
            GenConfig(categorical_fraction=fraction)
    for window in (0, -5):
        with pytest.raises(ValueError, match=f"window must be at least 1, got {window}"):
            GenConfig(window=window)
    GenConfig(window=1)


def test_strong_preset_oracle_elimination(tmp_path):
    cfg = dataclasses.replace(
        preset("strong", seed=21), n_pipelines=30, graphlets_per_pipeline=(50, 90)
    )
    truth = generate(cfg, tmp_path)
    assert truth.oracle_elimination >= 0.6
