from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# The same examples on every run: no random seed and no example database.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

sys.path.insert(0, str(Path(__file__).parent))

from oracles import load_traces

from graphlets.segmentation import extract_graphlets
from graphlets.synth import GenConfig, generate
from graphlets.trace import parse_trace_file

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def warm_pair_dir() -> Path:
    return FIXTURES / "warmstart_pair"


@pytest.fixture(scope="session")
def warm_pair_trace():
    return parse_trace_file(FIXTURES / "warmstart_pair" / "warmstart_pair.ndjson")


@pytest.fixture(scope="session")
def warm_pair_graphlets(warm_pair_trace):
    return extract_graphlets(warm_pair_trace)


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A small planted corpus shared by module tests (not acceptance scale)."""
    out = tmp_path_factory.mktemp("small_corpus")
    cfg = dataclasses.replace(
        GenConfig(), n_pipelines=12, graphlets_per_pipeline=(15, 35), seed=7
    )
    truth = generate(cfg, out)
    traces = load_traces(out)
    return cfg, truth, traces, [(t, extract_graphlets(t)) for t in traces]
