from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import warnings
import weakref
from collections import Counter

import pytest

from graphlets import trace as trace_module
from graphlets.cli import main
from graphlets.workflow import load_model, save_model

CONFIG_SMALL = {
    "forest": {"n_trees": 12, "max_depth": 10, "min_leaf": 3},
    "gen": {"n_pipelines": 14, "graphlets_per_pipeline": [12, 24]},
}


@pytest.fixture(scope="module")
def small_cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG_SMALL))
    assert main(["synth", "--out", str(corpus), "--seed", "9", "--config", str(cfg_path)]) == 0
    return corpus, cfg_path


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["segment"])
    assert err.value.code == 2


def test_validate_ok(small_cli_corpus, capsys):
    corpus, _ = small_cli_corpus
    assert main(["validate", "--corpus", str(corpus)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_broken_corpus_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    lines = [
        '{"kind": "execution", "id": "t", "operator": "trainer", "pipeline_id": "p", "start_at": 1, "end_at": 2, "state": "complete", "cpu_cost": 1.0, "properties": {}}',
    ]
    (bad / "p.ndjson").write_text("\n".join(lines) + "\n")
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "missing model_type" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["report", "train"])
def test_invalid_trace_exits_1_for_model_commands(command, warm_pair_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    good = warm_pair_dir / "warmstart_pair.ndjson"
    (corpus / good.name).write_text(good.read_text())
    (corpus / "q.ndjson").write_text(
        '{"kind": "execution", "id": "t", "operator": "trainer", "pipeline_id": "q", '
        '"start_at": 1, "end_at": 2, "state": "complete", "cpu_cost": 1.0, "properties": {}}\n'
    )
    out = tmp_path / "out"
    assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == ["q: trainer t missing model_type"]
    assert not out.exists()


def test_repeated_pipeline_id_exits_1(warm_pair_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    text = (warm_pair_dir / "warmstart_pair.ndjson").read_text()
    (corpus / "a.ndjson").write_text(text)
    (corpus / "b.ndjson").write_text(text)
    assert main(["validate", "--corpus", str(corpus)]) == 1
    assert "pipeline id used by more than one trace" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "stats"])
def test_empty_corpus_exits_2(command, tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = [command, "--corpus", str(empty)]
    if command == "stats":
        argv += ["--out", str(tmp_path / "stats")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: no trace files in {empty}\n"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"lsh": {"bogus": 1}}, "config section 'lsh': unknown key 'bogus'"),
        ({"gen": {"n_pipeline": 3}}, "config section 'gen': unknown key 'n_pipeline'"),
        ({"stop_set": 5}, "config section 'stop_set' must be a list"),
        ({"forest": {"n_trees": "x"}}, "config section 'forest': 'n_trees' must be int, got 'x'"),
        ({"lsh": {"seed": 1.5}}, "config section 'lsh': 'seed' must be int"),
        ({"window": {"w": True}}, "config section 'window': 'w' must be int"),
        ({"weights": {"alpha": 0.9}}, "config section 'weights': alpha + beta must equal 1"),
        ({"gen": {"graphlets_per_pipeline": [3]}},
         "config section 'gen': 'graphlets_per_pipeline' must be tuple"),
        ({"gen": {"push": {}}}, "config section 'gen': 'push' must be PushModel"),
        ({"lsh": []}, "config section 'lsh' must be an object"),
        ({"forrest": {"n_trees": 3}}, "config file: unknown section 'forrest'"),
        ({"split_seed": "x"}, "config key 'split_seed' must be int"),
        ({"lsh": {"w": float("nan")}}, "config section 'lsh': 'w' must be finite"),
        ({"lsh": {"w": float("inf")}}, "config section 'lsh': 'w' must be finite"),
        ({"gen": {"drift_rate": float("-inf")}}, "config section 'gen': 'drift_rate' must be finite"),
        ({"gen": {"n_pipelines": 0}}, "config section 'gen': n_pipelines must be at least 1"),
        ({"gen": {"cost_mix": {"bogus": 1.0}}},
         "config section 'gen': cost_mix key 'bogus' is not an operator group"),
        ({"gen": {"model_mix": {"bogus": 1.0}}},
         "config section 'gen': model_mix key 'bogus' has no base logit in the push model"),
        ({"gen": {"preset": "bogus"}}, "config section 'gen': unknown preset: 'bogus'"),
        ({"stop_set": ["bogus"]}, "config section 'stop_set': 'bogus' is not a valid OperatorKind"),
        ({"stop_set": []}, "config section 'stop_set': stop set must not be empty"),
        # Several bad sections: the first one checked is named.
        ({"gen": {"preset": "bogus"}, "lsh": {"bogus": 1}},
         "config section 'gen': unknown preset: 'bogus'"),
        ({"gen": {"n_pipeline": 3}, "forest": {"n_trees": 0}},
         "config section 'forest': forest hyperparameters must be positive"),
        # A NaN share passes the sum check, and a negative one can keep the sum at 1.
        ({"gen": {"cost_mix": {"training": float("nan")}}},
         "config section 'gen': cost_mix fractions must be finite and non-negative"),
        ({"gen": {"model_mix": {"dnn": 2.0, "tree": -1.0}}},
         "config section 'gen': model_mix fractions must be finite and non-negative"),
        # Generator ranges that crashed synth or made it write an invalid corpus.
        ({"gen": {"features_per_span": [5, 3]}},
         "config section 'gen': features_per_span must be a non-empty range within [0, 256], "
         "got [5, 3]"),
        ({"gen": {"features_per_span": [-3, -1]}},
         "config section 'gen': features_per_span must be a non-empty range within [0, 256]"),
        ({"gen": {"features_per_span": [300, 300]}},
         "config section 'gen': features_per_span must be a non-empty range within [0, 256]"),
        ({"gen": {"walk_scale": -1.0}},
         "config section 'gen': walk_scale must be finite and non-negative, got -1.0"),
        ({"gen": {"categorical_fraction": 1.5}},
         "config section 'gen': categorical_fraction must be a probability, got 1.5"),
        # A width this small sends every hash past int64.
        ({"lsh": {"w": 1e-300}}, "config section 'lsh': w is too small for 64-bit hashes"),
        # A window below 1 planted a size effect that was never configured.
        ({"gen": {"window": -5}}, "config section 'gen': window must be at least 1, got -5"),
    ],
)
def test_bad_config_exits_2_naming_section_and_key(config, message, warm_pair_dir, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["validate", "--corpus", str(warm_pair_dir), "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


def _assert_planted_cost_mix(tmp_path, *flags):
    """``stats`` reads back the 0.75/0.25 training/ingestion cost mix that a
    config file plants through ``synth``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gen": {
        "n_pipelines": 3, "graphlets_per_pipeline": [4, 4],
        "cost_mix": {"training": 0.75, "data_ingestion": 0.25},
    }}))
    corpus, stats = tmp_path / "corpus", tmp_path / "stats"
    assert main(["synth", "--out", str(corpus), "--config", str(config), *flags]) == 0
    assert main(["stats", "--corpus", str(corpus), "--out", str(stats)]) == 0
    rows = (stats / "cost_breakdown.tsv").read_text().splitlines()[2:]
    fractions = {group: float(f) for group, f in (row.split("\t") for row in rows)}
    assert fractions.pop("training") == pytest.approx(0.75)
    assert fractions.pop("data_ingestion") == pytest.approx(0.25)
    assert set(fractions.values()) == {0.0}


def test_synth_plants_a_configured_cost_mix(tmp_path):
    _assert_planted_cost_mix(tmp_path)


def test_synth_preset_keeps_the_files_other_gen_keys(tmp_path):
    # --preset replaces only the file's preset: the file's cost mix still applies.
    _assert_planted_cost_mix(tmp_path, "--preset", "default")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--pipelines", "0"], "n_pipelines must be at least 1, got 0"),
        (["--pipelines", "-2"], "n_pipelines must be at least 1, got -2"),
        (["--graphlets", "x:4"], "--graphlets must be N or LO:HI with 1 <= LO <= HI, got 'x:4'"),
        (["--graphlets", "5:2"], "--graphlets must be N or LO:HI with 1 <= LO <= HI, got '5:2'"),
    ],
)
def test_bad_synth_flags_exit_2(flags, message, tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, unusable",
    [
        ("segment", "--config", "directory"),
        ("evaluate", "--model", "directory"),
        ("segment", "--out", "under a file"),
    ],
)
def test_unusable_path_exits_2_naming_it(command, flag, unusable, small_cli_corpus, tmp_path,
                                         capsys):
    corpus, cfg = small_cli_corpus
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = [command, "--corpus", str(corpus), "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--model", str(tmp_path / "model.json")]
    path, named = (tmp_path, tmp_path) if unusable == "directory" else (blocker / "x", blocker)
    argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, err


def test_malformed_record_names_file_and_line(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "p.ndjson").write_text('{"kind": "artifact", "id": "a"}\n{broken\n')
    assert main(["validate", "--corpus", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus / 'p.ndjson'}: line 1: ")


def test_every_malformed_file_is_named_once(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.ndjson").write_text('{"kind": "artifact", "id": "a"}\n')
    (corpus / "b.ndjson").write_text(
        '{"kind": "edge", "from": "x", "to": "y", "role": "input"}\n{broken\n'
    )
    (corpus / "c.ndjson").write_bytes(b"\xff\xfe")
    assert main(["validate", "--corpus", str(corpus)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith(f"error: {corpus / 'a.ndjson'}: line 1: ")
    assert lines[1].startswith(f"{corpus / 'b.ndjson'}: line 2: invalid JSON")
    assert lines[2].startswith(f"{corpus / 'c.ndjson'}: not UTF-8 text")


def test_validate_cyclic_trace_exits_1(tmp_path, capsys):
    bad = tmp_path / "cyclic"
    bad.mkdir()
    lines = [
        '{"kind": "execution", "id": "tr", "operator": "trainer", "pipeline_id": "p", "start_at": 1, "end_at": 2, "state": "complete", "cpu_cost": 1.0, "properties": {"model_type": "dnn"}}',
        '{"kind": "execution", "id": "ev", "operator": "evaluator", "pipeline_id": "p", "start_at": 3, "end_at": 4, "state": "complete", "cpu_cost": 1.0, "properties": {}}',
        '{"kind": "artifact", "id": "m", "type": "model", "created_at": 2, "pipeline_id": "p", "properties": {}}',
        '{"kind": "artifact", "id": "r", "type": "eval_result", "created_at": 4, "pipeline_id": "p", "properties": {}}',
        '{"kind": "edge", "from": "tr", "to": "m", "role": "output"}',
        '{"kind": "edge", "from": "m", "to": "ev", "role": "input"}',
        '{"kind": "edge", "from": "ev", "to": "r", "role": "output"}',
        '{"kind": "edge", "from": "r", "to": "tr", "role": "input"}',
    ]
    (bad / "p.ndjson").write_text("\n".join(lines) + "\n")
    assert main(["validate", "--corpus", str(bad)]) == 1
    assert "cycle through" in capsys.readouterr().out


def test_segment_fixture_pipeline(warm_pair_dir, tmp_path, capsys):
    out = tmp_path / "g.out"
    assert main(["segment", "--corpus", str(warm_pair_dir), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().strip().splitlines()]
    assert len(records) == 2
    anchors = {r["anchor"] for r in records}
    assert anchors == {"t1", "t2"}
    pushed = {r["anchor"]: r["pushed"] for r in records}
    assert pushed == {"t1": False, "t2": True}


def test_stats_outputs(small_cli_corpus, tmp_path):
    corpus, cfg = small_cli_corpus
    out = tmp_path / "stats"
    assert main(["stats", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg)]) == 0
    expected = {
        "pipelines.tsv",
        "analyzer_usage.tsv",
        "cost_breakdown.tsv",
        "cadence.tsv",
        "push_rate_by_model_type.tsv",
        "similarity_table.tsv",
        "drift_code.tsv",
    }
    assert {p.name for p in out.iterdir()} == expected
    head = (out / "cost_breakdown.tsv").read_text().splitlines()
    assert head[0] == "# graphlets-table v1"
    assert head[1] == "operator_group\tcost_fraction"


def test_similarity_outputs(small_cli_corpus, tmp_path):
    corpus, cfg = small_cli_corpus
    out = tmp_path / "sim"
    assert main(["similarity", "--corpus", str(corpus), "--out", str(out)]) == 0
    pairs = (out / "pairs.tsv").read_text().splitlines()
    assert pairs[1] == "pipeline_id\tanchor_a\tanchor_b\tjaccard\tdataset_sim"
    assert len(pairs) > 10
    hist = (out / "histogram.tsv").read_text().splitlines()
    assert len(hist) == 5  # version, header, three metric rows


def test_featurize_matrix_shape(small_cli_corpus, tmp_path):
    corpus, cfg = small_cli_corpus
    out = tmp_path / "features.tsv"
    assert main(
        ["featurize", "--corpus", str(corpus), "--out", str(out), "--stage", "input_pre"]
    ) == 0
    lines = out.read_text().splitlines()
    header = lines[1].split("\t")
    assert header[-4:] == ["label", "cost_to_acquire", "pipeline_id", "anchor"]
    assert any(c.startswith("shape_transform") for c in header)
    assert not any(c.startswith("shape_trainer") for c in header)
    body = [l.split("\t") for l in lines[2:]]
    assert all(len(row) == len(header) for row in body)


def test_train_evaluate_sweep_chain(small_cli_corpus, tmp_path, capsys):
    corpus, cfg = small_cli_corpus
    model = tmp_path / "model.json"
    assert main(
        ["train", "--corpus", str(corpus), "--out", str(model), "--config", str(cfg),
         "--stage", "validation", "--seed", "9"]
    ) == 0
    payload = json.loads(model.read_text())
    assert payload["format"] == "graphlets-model-v1"
    assert payload["stage"] == "validation"
    assert payload["split"]["train_pipeline_ids"]

    eval_out = tmp_path / "eval.tsv"
    assert main(
        ["evaluate", "--corpus", str(corpus), "--model", str(model), "--out", str(eval_out),
         "--config", str(cfg), "--seed", "9"]
    ) == 0
    rows = eval_out.read_text().splitlines()
    stage, n_test, rate, acc = rows[2].split("\t")
    assert stage == "validation"
    assert 0.0 <= float(acc) <= 1.0

    sweep_out = tmp_path / "curve.tsv"
    assert main(
        ["sweep", "--corpus", str(corpus), "--model", str(model), "--out", str(sweep_out),
         "--config", str(cfg), "--seed", "9"]
    ) == 0
    lines = sweep_out.read_text().splitlines()
    assert lines[1] == "threshold\twasted_fraction\tfreshness\tfpr\ttpr"
    first = lines[2].split("\t")
    last = lines[-1].split("\t")
    assert (float(first[1]), float(first[2])) == (1.0, 1.0)
    assert (float(last[1]), float(last[2])) == (0.0, 0.0)


@pytest.fixture(scope="module")
def trained_model(small_cli_corpus, tmp_path_factory):
    corpus, cfg = small_cli_corpus
    model = tmp_path_factory.mktemp("model") / "model.json"
    assert main(["train", "--corpus", str(corpus), "--out", str(model), "--config", str(cfg),
                 "--seed", "9"]) == 0
    return json.loads(model.read_text())


@pytest.mark.parametrize(
    "drop", ["format", "version", "stage", "featurizer", "split", "forest", None]
)
def test_bad_model_file_exits_2(drop, trained_model, small_cli_corpus, tmp_path, capsys):
    corpus, cfg = small_cli_corpus
    payload = dict(trained_model)
    if drop is None:
        payload = [payload]  # not an object
    else:
        del payload[drop]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    for command in ("evaluate", "sweep"):
        assert main([command, "--corpus", str(corpus), "--model", str(model),
                     "--out", str(tmp_path / "out.tsv"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: not a valid graphlets-model-v1 file: "), err


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "stage", "bogus"),
        (None, "version", 1),
        ("split", "test_pipeline_ids", "p1"),
        ("split", "train_rate", [0.5]),
        ("featurizer", "arch_vocab", 3),
        ("featurizer", "lsh", {"bogus": 1}),
        ("forest", "trees", 7),
        ("featurizer", "lsh", {"k": 4, "w": 1e-300, "seed": 42}),
    ],
)
def test_ill_typed_model_file_exits_2(section, key, value, trained_model, small_cli_corpus,
                                      tmp_path, capsys):
    corpus, cfg = small_cli_corpus
    payload = json.loads(json.dumps(trained_model))
    (payload if section is None else payload[section])[key] = value
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    assert main(["evaluate", "--corpus", str(corpus), "--model", str(model),
                 "--out", str(tmp_path / "out.tsv"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: not a valid graphlets-model-v1 file: "), err


def _set(tree, key, index, value):
    tree[key][index] = value


BROKEN_FORESTS = {
    "child beyond the tree": lambda f: _set(f["trees"][0], "left", 0, 10**6),
    "child index overflows": lambda f: _set(f["trees"][0], "right", 0, 10**20),
    "self-loop": lambda f: (_set(f["trees"][0], "left", 0, 0), _set(f["trees"][0], "right", 0, 0)),
    "feature out of range": lambda f: _set(f["trees"][0], "feature", 0, 999),
    "leaf feature below -1": lambda f: _set(f["trees"][0], "feature", -1, -2),
    "truncated fraction": lambda f: f["trees"][0]["fraction"].pop(),
    "empty tree": lambda f: f["trees"][0].update({k: [] for k in f["trees"][0]}),
    "fraction above 1": lambda f: _set(f["trees"][0], "fraction", -1, 1.5),
    "no trees": lambda f: f.update(trees=[]),
    "wider than the stage": lambda f: f.update(n_features=f["n_features"] + 1),
    "renamed column": lambda f: _set(f, "feature_names", 0, "bogus"),
}


# The rule each case must name, where it is not the case's own wording.
BROKEN_RULES = {"child index overflows": "tree array 'right' does not fit int32: "}


@pytest.mark.parametrize("case", sorted(BROKEN_FORESTS))
def test_structurally_broken_forest_is_not_a_model(case, trained_model, tmp_path):
    payload = json.loads(json.dumps(trained_model))
    assert payload["forest"]["trees"][0]["feature"][0] >= 0  # the root splits
    BROKEN_FORESTS[case](payload["forest"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    prefix = f"{model}: not a valid graphlets-model-v1 file: " + BROKEN_RULES.get(case, "")
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)}"):
        load_model(model)


def test_model_with_a_stray_child_exits_2(trained_model, small_cli_corpus, tmp_path, capsys):
    corpus, cfg = small_cli_corpus
    payload = json.loads(json.dumps(trained_model))
    payload["forest"]["trees"][0]["left"][0] = 10**6
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    assert main(["evaluate", "--corpus", str(corpus), "--model", str(model),
                 "--out", str(tmp_path / "out.tsv"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {model}: not a valid graphlets-model-v1 file: "
                   "tree child index does not follow its node\n")


# Values fit never writes: it writes finite midpoints and positive weights.
THRESHOLD_RULE = "tree thresholds must be finite"
WEIGHTS_RULE = "class_weights must be two finite positive numbers, got "
BROKEN_VALUES = {
    "NaN threshold": (lambda f: _set(f["trees"][0], "threshold", 0, math.nan), THRESHOLD_RULE),
    "infinite threshold": (lambda f: _set(f["trees"][0], "threshold", 0, math.inf), THRESHOLD_RULE),
    "negative infinite threshold": (lambda f: _set(f["trees"][0], "threshold", 0, -math.inf),
                                    THRESHOLD_RULE),
    "ill-typed class weights": (lambda f: f.update(class_weights=["a", None]),
                                WEIGHTS_RULE + "['a', None]"),
    "one class weight": (lambda f: f.update(class_weights=[1.0]), WEIGHTS_RULE + "[1.0]"),
    "zero class weight": (lambda f: f.update(class_weights=[0.0, 1.0]),
                          WEIGHTS_RULE + "[0.0, 1.0]"),
    "infinite class weight": (lambda f: f.update(class_weights=[1.0, math.inf]),
                              WEIGHTS_RULE + "[1.0, inf]"),
    "boolean class weight": (lambda f: f.update(class_weights=[True, 1.0]),
                             WEIGHTS_RULE + "[True, 1.0]"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_VALUES))
def test_model_with_a_value_fit_never_writes_exits_2(case, trained_model, small_cli_corpus,
                                                      tmp_path, capsys):
    corpus, cfg = small_cli_corpus
    payload = json.loads(json.dumps(trained_model))
    assert payload["forest"]["trees"][0]["feature"][0] >= 0  # the root splits
    breaks, rule = BROKEN_VALUES[case]
    breaks(payload["forest"])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "out.tsv"
    assert main(["evaluate", "--corpus", str(corpus), "--model", str(model),
                 "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {model}: not a valid graphlets-model-v1 file: {rule}\n"
    assert not out.exists()


def test_saved_model_loads_back(trained_model, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(trained_model, sort_keys=True) + "\n")
    stage, featurizer, split, forest = load_model(model)
    assert stage.value == trained_model["stage"]
    assert list(split.test_pipeline_ids) == trained_model["split"]["test_pipeline_ids"]
    assert forest.n_features == len(forest.feature_names)
    save_model(model, stage, featurizer, split, forest)
    assert json.loads(model.read_text()) == trained_model


def test_each_segmenting_command_indexes_every_trace_once(
    small_cli_corpus, tmp_path, monkeypatch
):
    corpus, cfg = small_cli_corpus
    indexed: list[str] = []
    original = trace_module.Trace.__post_init__

    def counting(trace, edges):
        indexed.append(trace.pipeline_id)
        return original(trace, edges)

    # A trace builds its adjacency when it is made, so this counts every
    # trace the package makes, copies included.
    monkeypatch.setattr(trace_module.Trace, "__post_init__", counting)

    files = len(list(corpus.glob("*.ndjson")))
    model = tmp_path / "model.json"
    common = ["--corpus", str(corpus), "--config", str(cfg), "--seed", "9"]
    commands = {
        "segment": ["--out", str(tmp_path / "g.ndjson")],
        "stats": ["--out", str(tmp_path / "stats")],
        "similarity": ["--out", str(tmp_path / "sim")],
        "featurize": ["--out", str(tmp_path / "f.tsv")],
        "train": ["--out", str(model)],
        "evaluate": ["--model", str(model), "--out", str(tmp_path / "eval.tsv")],
        "sweep": ["--model", str(model), "--out", str(tmp_path / "curve.tsv")],
        "report": ["--out", str(tmp_path / "report")],
    }
    for command, flags in commands.items():
        indexed.clear()
        assert main([command, *common, *flags]) == 0
        counts = Counter(indexed)
        assert len(counts) == files, command
        assert set(counts.values()) == {1}, command


def test_report_outputs(small_cli_corpus, tmp_path):
    corpus, cfg = small_cli_corpus
    out = tmp_path / "report"
    assert main(
        ["report", "--corpus", str(corpus), "--out", str(out), "--config", str(cfg),
         "--seed", "9"]
    ) == 0
    names = {p.name for p in out.iterdir()}
    assert "stages.tsv" in names
    assert "heuristics.tsv" in names
    assert "curve_validation.tsv" in names
    stage_rows = (out / "stages.tsv").read_text().splitlines()[2:]
    assert len(stage_rows) == 4
    heuristic_rows = (out / "heuristics.tsv").read_text().splitlines()[2:]
    assert len(heuristic_rows) == 3


@pytest.mark.parametrize("command, flags, config", [
    ("report", ["--seed", "-1"], {}),
    ("train", [], {"split_seed": -5}),
])
def test_negative_split_seed_runs_deterministically(command, flags, config, small_cli_corpus,
                                                     tmp_path):
    corpus, small = small_cli_corpus
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**json.loads(small.read_text()), **config}))
    outputs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        base.mkdir()
        assert main([command, "--corpus", str(corpus), "--out", str(base / "out"),
                     "--config", str(cfg), *flags]) == 0
        outputs.append({p.relative_to(base): p.read_bytes() for p in base.rglob("*") if p.is_file()})
    assert outputs[0] == outputs[1]


def test_cli_chain_deterministic(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"forest": {"n_trees": 6}, "gen": {"n_pipelines": 6, "graphlets_per_pipeline": [8, 14]}})
    )

    def run(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        corpus = base / "corpus"
        assert main(["synth", "--out", str(corpus), "--seed", "4", "--config", str(cfg_path)]) == 0
        assert main(["segment", "--corpus", str(corpus), "--out", str(base / "g.ndjson"),
                     "--seed", "4"]) == 0
        assert main(["featurize", "--corpus", str(corpus), "--out", str(base / "f.tsv"),
                     "--seed", "4"]) == 0
        assert main(["train", "--corpus", str(corpus), "--out", str(base / "m.json"),
                     "--config", str(cfg_path), "--seed", "4"]) == 0
        assert main(["sweep", "--corpus", str(corpus), "--model", str(base / "m.json"),
                     "--out", str(base / "curve.tsv"), "--config", str(cfg_path), "--seed", "4"]) == 0
        return {
            p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }

    a = run("a")
    b = run("b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"output differs between runs: {name}"


@pytest.mark.parametrize("command", ["segment", "stats", "similarity", "featurize", "report"])
def test_command_holds_at_most_one_trace_while_parsing(command, small_cli_corpus, tmp_path,
                                                       monkeypatch):
    corpus, cfg = small_cli_corpus
    # A Trace holds dicts, so it is not hashable: key the weak references by file.
    alive = weakref.WeakValueDictionary()
    alive_at_parse: list[int] = []
    original = trace_module.parse_trace_file

    def tracking(path):
        alive_at_parse.append(len(alive))
        alive[path] = parsed = original(path)
        return parsed

    monkeypatch.setattr(trace_module, "parse_trace_file", tracking)
    assert main([command, "--corpus", str(corpus), "--config", str(cfg), "--seed", "9",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(alive_at_parse) == len(list(corpus.glob("*.ndjson")))
    assert max(alive_at_parse) <= 1, alive_at_parse


TRAINER_WITHOUT_MODEL_TYPE = (
    '{"kind": "execution", "id": "t", "operator": "trainer", "pipeline_id": "%s", '
    '"start_at": 1, "end_at": 2, "state": "complete", "cpu_cost": 1.0, "properties": {}}\n'
)


def _corpus_between(small_cli_corpus, tmp_path, first: str, last: str) -> Path:
    """The small corpus with a file before its first and one after its last."""
    source, _ = small_cli_corpus
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in source.glob("*.ndjson"):
        (corpus / path.name).write_text(path.read_text())
    (corpus / "0_first.ndjson").write_text(first)
    (corpus / "z_last.ndjson").write_text(last)
    return corpus


@pytest.mark.parametrize("command", ["segment", "stats", "similarity", "report"])
def test_malformed_file_outranks_earlier_violation(command, small_cli_corpus, tmp_path, capsys):
    corpus = _corpus_between(small_cli_corpus, tmp_path,
                             TRAINER_WITHOUT_MODEL_TYPE % "first", "{broken\n")
    out = tmp_path / "parent" / "out"
    _, cfg = small_cli_corpus
    assert main([command, "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {corpus / 'z_last.ndjson'}: line 1: invalid JSON")
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["segment", "stats", "similarity", "report"])
def test_violations_of_first_and_last_file_are_listed_in_order(command, small_cli_corpus,
                                                               tmp_path, capsys):
    corpus = _corpus_between(small_cli_corpus, tmp_path, TRAINER_WITHOUT_MODEL_TYPE % "first",
                             TRAINER_WITHOUT_MODEL_TYPE % "last")
    out = tmp_path / "parent" / "out"
    _, cfg = small_cli_corpus
    assert main([command, "--corpus", str(corpus), "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "first: trainer t missing model_type",
        "last: trainer t missing model_type",
    ]
    assert not out.parent.exists()


def _edited_fixture(warm_pair_dir, directory, edits, name="warmstart_pair"):
    """The fixture trace with ``edits`` ({line number: {key: value}}) applied
    and its pipeline id set to ``name``; returns the file written."""
    lines = (warm_pair_dir / "warmstart_pair.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for number, fields in edits.items():
        records[number - 1].update(fields)
    for record in records:
        if "pipeline_id" in record:
            record["pipeline_id"] = name
    directory.mkdir(exist_ok=True)
    path = directory / f"{name}.ndjson"
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


# Line 3 is data span span_a, line 11 trainer t2.
@pytest.mark.parametrize("line, key", [(11, "end_at"), (3, "created_at")])
def test_timestamp_beyond_64_bits_exits_2_naming_line(line, key, warm_pair_dir, tmp_path,
                                                     capsys):
    path = _edited_fixture(warm_pair_dir, tmp_path / "corpus", {line: {key: 10**400}})
    out = tmp_path / "out"
    for command in ("validate", "stats"):
        argv = [command, "--corpus", str(path.parent)]
        assert main(argv + (["--out", str(out)] if command == "stats" else [])) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line {line}: timestamp {key!r} is out of signed 64-bit range\n")
    assert not out.exists()


def test_cost_total_beyond_float_range_is_a_violation(warm_pair_dir, tmp_path, capsys):
    # Lines 1 and 2 are the example_gen runs eg1 and eg2.
    huge = {"cpu_cost": 1.7e308}
    path = _edited_fixture(warm_pair_dir, tmp_path / "corpus", {1: huge, 2: huge})
    out = tmp_path / "g.ndjson"
    assert main(["segment", "--corpus", str(path.parent), "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "warmstart_pair: execution cpu_cost total is out of float range"]
    assert not out.exists()


def test_corpus_cost_total_beyond_float_range_exits_2(warm_pair_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    for name in ("a", "b"):
        _edited_fixture(warm_pair_dir, corpus, {1: {"cpu_cost": 1.7e308}}, name)
    out = tmp_path / "stats"
    assert main(["stats", "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: corpus compute cost total is out of float range\n")
    assert not out.exists()


def _with_huge_shared_cost(small_cli_corpus, directory):
    """The small corpus with example_gen run ``pipe0000-eg-0000``, whose span
    feeds several graphlets, costing 1.5e308: each trace's cost total stays
    finite, but sums over graphlets do not."""
    corpus, _ = small_cli_corpus
    shutil.copytree(corpus, directory)
    path = directory / "pipe0000.ndjson"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        if record.get("id") == "pipe0000-eg-0000":
            record["cpu_cost"] = 1.5e308
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return directory


def test_report_exits_2_when_graphlet_costs_overflow(small_cli_corpus, tmp_path, capsys):
    corpus = _with_huge_shared_cost(small_cli_corpus, tmp_path / "corpus")
    _, cfg = small_cli_corpus
    out = tmp_path / "report"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert main(["report", "--corpus", str(corpus), "--config", str(cfg), "--seed", "9",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: mean graphlet stage cost is out of float range\n")
    assert not out.exists()


def test_sweep_exits_2_when_unpushed_costs_overflow(small_cli_corpus, trained_model, tmp_path,
                                                    capsys):
    assert "pipe0000" in trained_model["split"]["test_pipeline_ids"]
    corpus = _with_huge_shared_cost(small_cli_corpus, tmp_path / "corpus")
    _, cfg = small_cli_corpus
    model = tmp_path / "model.json"
    model.write_text(json.dumps(trained_model))
    out = tmp_path / "curve.tsv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--corpus", str(corpus), "--model", str(model),
                     "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: total unpushed graphlet cost is out of float range\n")
    assert not out.exists()


# Line 3 of the fixture is data span span_a.
WIDE_SPAN = {"span_stats": {"features": [
    {"name": f"f{i}", "type": "numerical", "hist": [0.1] * 10} for i in range(300)]}}


@pytest.mark.parametrize("command", ["validate", "segment", "stats", "report"])
def test_span_over_256_features_is_a_violation(command, warm_pair_dir, tmp_path, capsys):
    path = _edited_fixture(warm_pair_dir, tmp_path / "corpus", {3: {"properties": WIDE_SPAN}})
    out = tmp_path / "out"
    argv = [command, "--corpus", str(path.parent)]
    assert main(argv + ([] if command == "validate" else ["--out", str(out)])) == 1
    assert capsys.readouterr().out == (
        "warmstart_pair: artifact span_a: span has 300 features, more than 256\n")
    assert not out.exists()


def test_spans_without_features_score_no_dataset_similarity(small_cli_corpus, tmp_path,
                                                             capsys):
    # A data span may carry an empty feature list; it is similar to nothing.
    source, cfg = small_cli_corpus
    corpus = tmp_path / "corpus"
    shutil.copytree(source, corpus)
    bare = sorted(corpus.glob("*.ndjson"))[0]
    records = [json.loads(line) for line in bare.read_text().splitlines()]
    for record in records:
        if record.get("type") == "data_span":
            record["properties"]["span_stats"]["features"] = []
    bare.write_text("".join(json.dumps(r) + "\n" for r in records))
    pipeline = records[0]["pipeline_id"]
    assert main(["validate", "--corpus", str(corpus)]) == 0
    sim, report = tmp_path / "sim", tmp_path / "report"
    assert main(["similarity", "--corpus", str(corpus), "--out", str(sim)]) == 0
    rows = [row.split("\t") for row in (sim / "pairs.tsv").read_text().splitlines()[2:]]
    bare_rows = [row for row in rows if row[0] == pipeline]
    assert bare_rows and {float(row[4]) for row in bare_rows} == {0.0}
    assert any(float(row[4]) > 0 for row in rows)
    assert main(["report", "--corpus", str(corpus), "--config", str(cfg), "--seed", "9",
                 "--out", str(report)]) == 0


@pytest.mark.parametrize("command", ["train", "report"])
def test_one_pipeline_corpus_cannot_be_split(command, tmp_path, capsys):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["synth", "--out", str(corpus), "--pipelines", "1", "--graphlets", "12",
                 "--seed", "3"]) == 0
    capsys.readouterr()
    assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need at least two pipelines to split\n"
    assert not out.exists()


def test_model_commands_on_a_corpus_without_a_push(tmp_path, capsys):
    # 32 pipelines of 10 graphlets in which every pusher run failed, so that
    # no graphlet has a positive label.
    corpus, config = tmp_path / "corpus", tmp_path / "config.json"
    assert main(["synth", "--out", str(corpus), "--pipelines", "32", "--graphlets", "10",
                 "--seed", "3"]) == 0
    for path in corpus.glob("*.ndjson"):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            if record.get("operator") == "pusher":
                record["state"] = "failed"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
    config.write_text(json.dumps({"forest": CONFIG_SMALL["forest"]}))
    common = ["--corpus", str(corpus), "--config", str(config)]
    capsys.readouterr()

    report = tmp_path / "report"
    assert main(["report", *common, "--out", str(report)]) == 2
    assert capsys.readouterr().err == "error: sweep needs records with both labels\n"
    assert not report.exists()

    model = tmp_path / "model.json"
    assert main(["train", *common, "--out", str(model)]) == 0
    capsys.readouterr()
    for command, message in [
        ("evaluate", "balanced accuracy needs both classes in y_true"),
        ("sweep", "sweep needs records with both labels"),
    ]:
        out = tmp_path / f"{command}.tsv"
        assert main([command, *common, "--model", str(model), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


CORPUS_COMMANDS = ["stats", "similarity", "validate", "segment"]
MODEL_COMMANDS = ["report", "train", "evaluate", "sweep", "featurize"]


@pytest.mark.parametrize("command", CORPUS_COMMANDS + MODEL_COMMANDS)
def test_each_command_loads_only_the_layers_it_runs(command, small_cli_corpus, trained_model,
                                                    tmp_path):
    if command in CORPUS_COMMANDS:
        unloaded = {"features", "forest", "policy", "workflow", "synth"}
    else:
        unloaded = {"synth", "analytics"}
    corpus, _ = small_cli_corpus
    config = tmp_path / "config.json"  # no gen section, so synth is not needed to check it
    config.write_text(json.dumps({"forest": CONFIG_SMALL["forest"]}))
    argv = [command, "--corpus", str(corpus), "--config", str(config), "--seed", "9"]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    if command in ("evaluate", "sweep"):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(trained_model))
        argv += ["--model", str(model)]
    code = (
        "import sys\n"
        "from graphlets.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('graphlets.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.removeprefix("graphlets.") for name in proc.stdout.splitlines()[-1].split()}
    assert "cli" in loaded
    assert loaded & unloaded == set()
