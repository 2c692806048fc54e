from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_assignment_cost,
    brute_span_sim_square,
    brute_transport_cost,
    jensen_shannon,
    load_traces,
    loop_graphlet_similarities,
    loop_span_sim,
    scalar_canonicalize,
    scalar_lsh_hash,
)

import graphlets.similarity as similarity
from graphlets import analytics, transport
from graphlets.analytics import pair_similarities
from graphlets.cli import main
from graphlets.features import Featurizer
from graphlets.segmentation import consecutive_pairs, extract_graphlets
from graphlets.similarity import (
    BINS,
    LshParams,
    SimWeights,
    _canonical_bins,
    _hash_blocks,
    _pair_sims,
    canonicalize,
    feature_sim,
    graphlet_similarities,
    hash_distributions,
    jaccard,
    sequence_sim,
    span_sim,
)
from graphlets.synth import GenConfig, generate
from graphlets.trace import FeatureKind, FeatureStats, SpanStats

PARAMS = LshParams()
W = SimWeights()


def num_feature(name, hist):
    return FeatureStats(name=name, kind=FeatureKind.NUMERICAL, numerical_hist=tuple(hist))


def cat_feature(name, top10, unique, total):
    return FeatureStats(
        name=name,
        kind=FeatureKind.CATEGORICAL,
        cat_top10=tuple(top10),
        cat_unique=unique,
        cat_total=total,
    )


def random_span(rng, max_features=6, name_pool=("a", "b", "c", "d", "e", "f")):
    n = int(rng.integers(1, max_features + 1))
    names = rng.choice(name_pool, size=n, replace=False)
    feats = []
    for name in names:
        if rng.random() < 0.5:
            hist = rng.random(BINS) + 1e-9
            hist = hist / hist.sum()
            feats.append(num_feature(str(name), hist))
        else:
            total = int(rng.integers(1000, 100000))
            counts = np.sort(rng.integers(1, total // 20, size=10))[::-1]
            unique = int(rng.integers(12, total // 2))
            feats.append(cat_feature(str(name), counts, unique, total))
    return SpanStats(features=tuple(feats))


class FakeGraphlet:
    def __init__(self, spans):
        self.input_spans = tuple(spans)


# -- jaccard ---------------------------------------------------------------


def test_jaccard_basic():
    a = FakeGraphlet(["s1", "s2"])
    b = FakeGraphlet(["s2", "s3"])
    assert jaccard(a, b) == pytest.approx(1 / 3)


def test_jaccard_identical_and_empty():
    a = FakeGraphlet(["s1", "s2"])
    assert jaccard(a, a) == 1.0
    assert jaccard(FakeGraphlet([]), FakeGraphlet([])) == 1.0
    assert jaccard(a, FakeGraphlet([])) == 0.0


# -- canonicalize ----------------------------------------------------------


def test_canonicalize_numerical_is_identity():
    f = num_feature("x", [0.1] * 10)
    assert canonicalize(f).bins == tuple([0.1] * 10)


def test_canonicalize_categorical_worked_example():
    # 12 unique terms: ten observed frequencies and two leftover bins of
    # 0.025, laid over bins of width 1/12, then re-cut into ten cells
    f = cat_feature("x", [20, 15, 10, 10, 10, 10, 5, 5, 5, 5], unique=12, total=100)
    dist = canonicalize(f)
    assert sum(dist.bins) == pytest.approx(1.0, abs=1e-12)
    # cell 0 covers bin 0 entirely plus the first (1/10 - 1/12) of bin 1
    expected_first = 0.20 + 0.15 * ((0.1 - 1 / 12) / (1 / 12))
    assert dist.bins[0] == pytest.approx(expected_first, abs=1e-12)
    # cell 9 lies inside the uniform remainder block
    assert dist.bins[9] == pytest.approx(0.05 / (2 / 12) * 0.1, abs=1e-12)


def test_canonicalize_categorical_no_remainder():
    f = cat_feature("x", [30, 20, 10, 10, 10, 5, 5, 4, 3, 3], unique=10, total=100)
    dist = canonicalize(f)
    assert sum(dist.bins) == pytest.approx(1.0, abs=1e-12)
    assert dist.bins == tuple(c / 100 for c in (30, 20, 10, 10, 10, 5, 5, 4, 3, 3))


def test_canonicalize_sorts_descending():
    a = cat_feature("x", [5, 30, 10, 20, 10, 10, 5, 4, 3, 3], unique=10, total=100)
    b = cat_feature("x", [30, 20, 10, 10, 10, 5, 5, 4, 3, 3], unique=10, total=100)
    assert canonicalize(a).bins == canonicalize(b).bins


def test_canonicalize_rejects_bad_mass():
    with pytest.raises(ValueError):
        canonicalize(num_feature("x", [0.2] * 10))
    with pytest.raises(ValueError, match="cover the total"):
        canonicalize(cat_feature("x", [10] * 10, unique=10, total=200))
    with pytest.raises(ValueError):
        canonicalize(
            FeatureStats(
                name="x",
                kind=FeatureKind.CATEGORICAL,
                cat_top10=(1,),
                cat_unique=0,
                cat_total=10,
            )
        )


def test_canonicalize_huge_domain_is_fast_and_conserves_mass():
    f = cat_feature("x", [10**6] * 10, unique=10_600_000, total=10**9)
    dist = canonicalize(f)
    assert sum(dist.bins) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
# Top counts that sum to the total in exact arithmetic, yet leave a float
# remainder just below zero.
@example(counts=[1, 12, 186, 521], unique_extra=0, total_extra=0)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=10),
    unique_extra=st.integers(min_value=0, max_value=10**7),
    total_extra=st.integers(min_value=0, max_value=10**9),
)
def test_canonicalize_conserves_mass(counts, unique_extra, total_extra):
    unique = max(len(counts), 10) + unique_extra
    total = sum(counts) + total_extra
    if unique > total:
        total = unique + total_extra
    f = cat_feature("x", sorted(counts, reverse=True), unique=unique, total=total)
    if unique == len(counts) and total != sum(counts):
        # Every term is a top term, yet the counts miss part of the total: the
        # feature contradicts itself, and both validation and canonicalize say so.
        assert any("do not cover the total" in m for m in f.check())
        with pytest.raises(ValueError, match="do not cover the total"):
            canonicalize(f)
        return
    dist = canonicalize(f)
    assert abs(sum(dist.bins) - 1.0) <= 1e-9


_FLAWS = ["none"] * 24 + [
    "short", "unscaled", "negative",  # numerical
    "missing", "no_unique", "no_total", "over_total", "uncovered", "few_unique",
    "bad_count", "eleven_tops",  # categorical
]


@st.composite
def _numerical_row(draw, flaw):
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=BINS, max_size=BINS))
    total = sum(weights)
    hist = [w / total for w in weights] if total > 0 else [0.1] * BINS
    if flaw == "short":
        hist = hist[1:]
    elif flaw == "unscaled":
        hist = [2 * h for h in hist]
    elif flaw == "negative":
        hist = [-hist[0] - 0.1, *hist[1:]]
    return num_feature("f", hist)


@st.composite
def _categorical_row(draw, flaw):
    counts = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=BINS))
    unique = draw(st.one_of(
        st.integers(max(len(counts), 11), 1000), st.just(len(counts)),
        st.just(BINS), st.integers(len(counts), BINS),
    ))
    extra = 0 if unique == len(counts) else draw(st.one_of(st.just(0), st.integers(0, 10**9)))
    total = sum(counts) + extra
    if flaw == "missing":
        return FeatureStats(name="f", kind=FeatureKind.CATEGORICAL, cat_top10=tuple(counts))
    if flaw == "no_unique":
        unique = draw(st.integers(-1, 0))
    elif flaw == "no_total":
        total = draw(st.integers(-1, 0))
    elif flaw == "over_total":
        total = max(1, sum(counts) - draw(st.integers(1, 1000)))
    elif flaw == "uncovered":
        unique, total = len(counts), sum(counts) + draw(st.integers(1, 10**6))
    elif flaw == "few_unique":
        unique = draw(st.integers(1, len(counts)))
    elif flaw == "bad_count":
        counts[draw(st.integers(0, len(counts) - 1))] = draw(st.integers(-2, 0))
    elif flaw == "eleven_tops":
        counts, unique, total = counts + [1] * (BINS + 1 - len(counts)), BINS, total + BINS
    return cat_feature("f", counts, unique=unique, total=total)


@st.composite
def _batches(draw):
    """1-8 features, mostly valid; about one in three carries a flaw."""
    features = []
    for i in range(draw(st.integers(1, 8))):
        flaw = draw(st.sampled_from(_FLAWS))
        numerical = flaw in ("short", "unscaled", "negative") or (
            flaw == "none" and draw(st.booleans()))
        f = draw(_numerical_row(flaw) if numerical else _categorical_row(flaw))
        features.append(f._replace(name=f"f{i}"))
    return features


@settings(max_examples=400, deadline=None)
# The aligned layout with a remainder a hair below zero.
@example(features=[cat_feature("f0", [1, 12, 186, 521], unique=10, total=720)])
@given(features=_batches())
def test_canonical_bins_matches_scalar_oracle_bitwise(features):
    # One rule set: canonicalize rejects each feature that validation
    # rejects, with validation's first message, and the batch lays out the
    # others bit for bit as the scalar oracle does, which raises for none.
    valid = []
    for f in features:
        bad = f.check()
        if bad:
            with pytest.raises(ValueError) as err:
                canonicalize(f)
            assert str(err.value) == bad[0]
        else:
            valid.append(f)
    expected = np.array([scalar_canonicalize(f).bins for f in valid]).reshape(-1, BINS)
    got = _canonical_bins(valid)
    assert got.shape == (len(valid), BINS)
    assert got.tobytes() == expected.tobytes()


# Features that validation rejects and that canonicalize once accepted.
_DIVERGENT = {
    "zero_top_count": cat_feature("f", [5, 0], unique=12, total=100),
    "unique_over_total": cat_feature("f", [3, 2], unique=12, total=5),
    "eleven_tops": cat_feature("f", [1] * 11, unique=20, total=100),
    "numerical_with_counts": num_feature("f", [0.1] * 10)._replace(cat_unique=5),
    "empty_name": num_feature("", [0.1] * 10),
}


@pytest.mark.parametrize("case", sorted(_DIVERGENT))
def test_canonicalize_rejects_what_validation_rejects(case):
    f = _DIVERGENT[case]
    with pytest.raises(ValueError) as err:
        canonicalize(f)
    assert str(err.value) == f.check()[0]


def test_feature_and_span_sim_reject_what_validation_rejects():
    ok, bad = num_feature("g", [0.1] * 10), _DIVERGENT["zero_top_count"]
    message = bad.check()[0]
    # Of different kinds, the pair would score 0 without reading a count.
    with pytest.raises(ValueError) as err:
        feature_sim(ok, bad, PARAMS, W)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        span_sim(SpanStats(features=(ok,)), SpanStats(features=(ok, bad)), PARAMS, W)
    assert str(err.value) == message


# -- lsh ---------------------------------------------------------------------


def test_lsh_deterministic():
    dist = np.full((1, BINS), 0.1)
    assert (hash_distributions(dist, PARAMS) == hash_distributions(dist, PARAMS)).all()
    assert hash_distributions(dist, PARAMS).shape == (1, PARAMS.k)


def test_lsh_projection_table_is_drawn_once_per_instance_and_read_only():
    params = LshParams()
    directions, offsets = params.projections
    assert params.projections[0] is directions
    assert directions.shape == (PARAMS.k, BINS) and offsets.shape == (PARAMS.k,)
    with pytest.raises(ValueError):
        directions[0, 0] = 0.0
    with pytest.raises(ValueError):
        offsets[0] = 0.0
    # Equal parameters draw equal tables, and the table is not part of equality.
    twin = LshParams()
    assert twin == params and hash(twin) == hash(params)
    assert twin.projections[0].tobytes() == directions.tobytes()
    assert twin.projections[1].tobytes() == offsets.tobytes()


def test_lsh_seed_changes_projections():
    dist = np.full((1, BINS), 0.1)
    other = LshParams(seed=43)
    # no equality assertion between seeds; only that both are valid hashes
    assert hash_distributions(dist, other).shape == (1, other.k)


def test_lsh_batch_matches_scalar():
    rng = np.random.default_rng(0)
    mats = rng.random((50, BINS))
    mats = mats / mats.sum(axis=1, keepdims=True)
    batch = hash_distributions(mats, PARAMS)
    for row, hashed in zip(mats, batch):
        assert tuple(hashed.tolist()) == scalar_lsh_hash(row, PARAMS)


def test_span_hashes_match_scalar(small_corpus):
    # The production path: a trace's spans canonicalized in one batch, each
    # span projected on its own, the rest of the hash taken over all rows.
    _, _, traces, _ = small_corpus
    checked = 0
    for trace in traces[:4]:
        spans = [a.span_stats for a in trace.artifacts.values()
                 if a.span_stats is not None and a.span_stats.features]
        features = [f for d in spans for f in d.features]
        sizes = [len(d.features) for d in spans]
        hashed = _hash_blocks(_canonical_bins(features), sizes, PARAMS).tolist()
        start = 0
        for size in sizes:
            # Each block hashes exactly as that span's rows alone.
            alone = hash_distributions(_canonical_bins(features[start:start + size]), PARAMS)
            assert hashed[start:start + size] == alone.tolist()
            start += size
        for f, h in zip(features, hashed):
            assert tuple(h) == scalar_lsh_hash(scalar_canonicalize(f).bins, PARAMS)
            checked += 1
    assert checked > 100


def test_lsh_collision_rate_decreases_with_jsd():
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
        rates.append(collide[mask].mean())
    assert all(a > b for a, b in zip(rates, rates[1:])), rates


def test_identical_inputs_always_collide():
    rng = np.random.default_rng(7)
    mats = rng.dirichlet(np.ones(BINS), size=200)
    assert (hash_distributions(mats, PARAMS) == hash_distributions(mats, PARAMS)).all()


# -- feature_sim -------------------------------------------------------------


def test_feature_sim_cross_type_is_zero():
    f1 = num_feature("x", [0.1] * 10)
    f2 = cat_feature("x", [10] * 10, unique=10, total=100)
    assert feature_sim(f1, f2, PARAMS, W) == 0.0


def test_feature_sim_self_is_one():
    f = num_feature("x", [0.1] * 10)
    assert feature_sim(f, f, PARAMS, W) == pytest.approx(1.0)


def test_feature_sim_same_distribution_different_name():
    f1 = num_feature("x", [0.1] * 10)
    f2 = num_feature("y", [0.1] * 10)
    assert feature_sim(f1, f2, PARAMS, W) == pytest.approx(W.alpha)


def test_sim_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        SimWeights(alpha=0.9, beta=0.9)
    with pytest.raises(ValueError):
        SimWeights(alpha=-0.1, beta=1.1)


# -- span_sim ----------------------------------------------------------------


def test_span_sim_empty_is_zero():
    d = SpanStats(features=(num_feature("x", [0.1] * 10),))
    empty = SpanStats(features=())
    assert span_sim(empty, d, PARAMS, W) == 0.0
    assert span_sim(d, empty, PARAMS, W) == 0.0
    assert span_sim(empty, empty, PARAMS, W) == 0.0


def test_span_sim_self_is_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = random_span(rng)
        assert span_sim(d, d, PARAMS, W) == pytest.approx(1.0, abs=1e-9)


def test_span_sim_one_vs_two_averages():
    f = num_feature("x", [0.1] * 10)
    g1 = num_feature("x", [0.1] * 10)
    hist = [0.55, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05]
    g2 = num_feature("z", hist)
    s1 = feature_sim(f, g1, PARAMS, W)
    s2 = feature_sim(f, g2, PARAMS, W)
    d1 = SpanStats(features=(f,))
    d2 = SpanStats(features=(g1, g2))
    assert span_sim(d1, d2, PARAMS, W) == pytest.approx((s1 + s2) / 2, abs=1e-9)


def test_span_sim_matches_permutation_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        d1 = random_span(rng, max_features=n)
        d2 = random_span(rng, max_features=n)
        while len(d2.features) != len(d1.features):
            d2 = random_span(rng, max_features=len(d1.features))
        cost = np.array(
            [
                [1.0 - feature_sim(f1, f2, PARAMS, W) for f2 in d2.features]
                for f1 in d1.features
            ]
        )
        assert span_sim(d1, d2, PARAMS, W) == pytest.approx(
            brute_span_sim_square(cost), abs=1e-9
        )


def test_span_sim_symmetric_exactly():
    # Off the default weights costs are not multiples of 1/2, so float sums
    # depend on the argument order unless the pair is put in canonical order.
    for weights in (W, SimWeights(alpha=0.3, beta=0.7)):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d1, d2 = random_span(rng), random_span(rng)
            assert span_sim(d1, d2, PARAMS, weights) == span_sim(d2, d1, PARAMS, weights)


def test_span_sim_range():
    rng = np.random.default_rng(29)
    for _ in range(100):
        v = span_sim(random_span(rng), random_span(rng), PARAMS, W)
        assert 0.0 <= v <= 1.0


def test_span_sim_rejects_oversized():
    feats = tuple(num_feature(f"f{i}", [0.1] * 10) for i in range(257))
    big = SpanStats(features=feats)
    with pytest.raises(ValueError, match="^span has 257 features, more than 256$"):
        span_sim(big, big, PARAMS, W)


# -- sequence_sim -------------------------------------------------------------


def test_sequence_sim_self_is_one():
    rng = np.random.default_rng(31)
    seq = [random_span(rng) for _ in range(4)]
    assert sequence_sim(seq, seq, PARAMS, W) == pytest.approx(1.0, abs=1e-9)


def test_sequence_sim_normalizes_by_longer():
    rng = np.random.default_rng(37)
    a = [random_span(rng) for _ in range(2)]
    b = a + [random_span(rng) for _ in range(2)]
    per_pair = [span_sim(a[i], b[i], PARAMS, W) for i in range(2)]
    assert sequence_sim(a, b, PARAMS, W) == pytest.approx(sum(per_pair) / 4, abs=1e-9)
    # two aligned identical spans against a window twice as long: 2/4
    assert sequence_sim(a, a + a, PARAMS, W) == pytest.approx(0.5, abs=1e-9)


def test_sequence_sim_empty_side_is_zero():
    rng = np.random.default_rng(41)
    a = [random_span(rng)]
    assert sequence_sim(a, [], PARAMS, W) == 0.0
    assert sequence_sim([], [], PARAMS, W) == 0.0


def test_sequence_sim_shifted_window():
    # identical spans shifted by one: aligned pairs compare span k with
    # span k+1, so the hand-computed sum is the pairwise metric over offsets
    rng = np.random.default_rng(43)
    spans = [random_span(rng) for _ in range(4)]
    a = spans[1:]
    b = spans[:-1]
    expected = sum(span_sim(a[i], b[i], PARAMS, W) for i in range(3)) / 3
    assert sequence_sim(a, b, PARAMS, W) == pytest.approx(expected, abs=1e-9)


def test_sequence_sim_symmetric():
    rng = np.random.default_rng(47)
    for _ in range(20):
        a = [random_span(rng) for _ in range(int(rng.integers(1, 4)))]
        b = [random_span(rng) for _ in range(int(rng.integers(1, 4)))]
        assert sequence_sim(a, b, PARAMS, W) == sequence_sim(b, a, PARAMS, W)


# -- graphlet_similarities ---------------------------------------------------


def span_stats_of(g, trace):
    stats = (trace.artifacts[s].span_stats for s in g.input_spans)
    return [st for st in stats if st is not None]


@pytest.mark.parametrize("weights", [W, SimWeights(alpha=0.3, beta=0.7)])
def test_span_similarity_matches_module_functions(small_corpus, weights):
    _, _, _, corpus = small_corpus
    checked = 0
    rng = np.random.default_rng(5)
    for trace, graphlets in corpus[:3]:
        # Each graphlet against up to two predecessors, in shuffled order:
        # the results come back in the order of the pairs.
        pairs = [(cur, prev) for pos, cur in enumerate(graphlets)
                 for prev in graphlets[max(0, pos - 2): pos]]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        sims = graphlet_similarities(trace, pairs, PARAMS, weights)
        assert len(sims) == len(pairs)
        for (cur, prev), sim in zip(pairs, sims):
            expected = sequence_sim(
                span_stats_of(cur, trace), span_stats_of(prev, trace), PARAMS, weights
            )
            code = 1.0 if cur.trainer_code_version == prev.trainer_code_version else 0.0
            assert sim == (jaccard(cur, prev), expected, code)
            checked += 1
    assert checked > 60


def test_span_similarity_hashes_each_span_and_compares_each_pair_once(
    small_corpus, monkeypatch
):
    # One call signs every span that an aligned pair reads in one batch
    # (one canonicalization, one hash pass with a product per span) and
    # puts each distinct span pair into exactly one cost block, though
    # every graphlet pair is passed in both orders.
    _, _, _, corpus = small_corpus
    trace, graphlets = corpus[0]
    counts = {"batches": 0, "rows": 0, "hash_passes": 0, "blocks": 0, "pairs": 0}

    def counted(name, fn, extra=None):
        def wrapper(*args):
            counts[name] += 1
            if extra:
                counts[extra] += len(args[0])
            return fn(*args)
        return wrapper

    monkeypatch.setattr(similarity, "_canonical_bins",
                        counted("batches", _canonical_bins, extra="rows"))
    monkeypatch.setattr(similarity, "_hash_blocks", counted("hash_passes", _hash_blocks))
    monkeypatch.setattr(similarity, "transport_costs",
                        counted("blocks", similarity.transport_costs, extra="pairs"))
    pairs = [(cur, prev) for prev, cur in consecutive_pairs(graphlets)]
    sims = graphlet_similarities(trace, pairs + [(b, a) for a, b in pairs], PARAMS, W)
    built = dict(counts)
    # Every metric is symmetric, bit for bit.
    assert sims[: len(pairs)] == sims[len(pairs):]

    def spans(g):
        return [s for s in g.input_spans if trace.artifacts[s].span_stats is not None]

    aligned = {tuple(sorted(xy)) for cur, prev in pairs for xy in zip(spans(cur), spans(prev))}
    read = {s for xy in aligned for s in xy}
    assert len(aligned) > 10
    assert built["batches"] == built["hash_passes"] == 1
    assert built["rows"] == sum(len(trace.artifacts[s].span_stats.features) for s in read)
    # A pipeline's spans share one schema, so every pair is square; at this
    # size each shape is one block, and each distinct pair sits in one.
    shapes = {(len(trace.artifacts[x].span_stats.features),
               len(trace.artifacts[y].span_stats.features)) for x, y in aligned}
    assert all(n == m for n, m in shapes)
    assert built["blocks"] == len(shapes)
    assert built["pairs"] == len(aligned)


def _pool_span(rng, max_features=5):
    """A span whose features repeat from small pools of names and
    distributions, so that names and hashes collide across spans."""
    hists = ([0.1] * 10, [0.55] + [0.05] * 9, [0.0] * 9 + [1.0])
    n = int(rng.integers(0, max_features + 1))
    feats = []
    for name in rng.choice(list("abcdef"), size=n, replace=False):
        if rng.random() < 0.7:
            feats.append(num_feature(str(name), hists[int(rng.integers(len(hists)))]))
        else:
            feats.append(cat_feature(str(name), [50, 30, 20], unique=3, total=100))
    return SpanStats(features=tuple(feats))


@st.composite
def pooled_spans(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 8))
    rng = np.random.default_rng(seed)
    return [_pool_span(rng) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(pooled_spans(), st.sampled_from([W, SimWeights(alpha=0.3, beta=0.7),
                                        SimWeights(alpha=0.1, beta=0.9)]))
def test_batched_span_sims_match_per_pair_oracle_bitwise(spans, weights):
    pairs = [(i, j) for i in range(len(spans)) for j in range(len(spans))]
    got = _pair_sims(spans, pairs, PARAMS, weights)
    expected = [loop_span_sim(spans[i], spans[j], PARAMS, weights) for i, j in pairs]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    for (i, j), value in zip(pairs, got):
        # The batch orients each pair itself: exactly symmetric.
        assert value == got[pairs.index((j, i))]
        n, m = len(spans[i].features), len(spans[j].features)
        if n and m and (n * m <= 9 or n == m):
            cost = np.array([[1.0 - feature_sim(f, g, PARAMS, weights)
                              for g in spans[j].features] for f in spans[i].features])
            brute = brute_transport_cost(cost) if n * m <= 9 else brute_assignment_cost(cost)
            assert value == pytest.approx(min(1.0, max(0.0, 1.0 - brute)), abs=1e-9)


def test_batched_span_sims_reach_every_certificate(monkeypatch):
    # Spans over shared pools give every kind of pair: empty sides, one row
    # or one column, distinct row argmins, row- and column-minimum matchings
    # after a collision, and unequal sides for the simplex.
    rng = np.random.default_rng(2024)
    spans = [_pool_span(rng, max_features=6) for _ in range(60)]
    pairs = [(i, j) for i in range(60) for j in range(i, 60)]
    matchings, solves = [], []

    def count(calls, fn):
        def wrapper(*args):
            result = fn(*args)
            calls.append(result is not None)
            return result
        return wrapper

    monkeypatch.setattr(transport, "_perfect_matching",
                        count(matchings, transport._perfect_matching))
    monkeypatch.setattr(transport, "_solve", count(solves, transport._solve))
    got = _pair_sims(spans, pairs, PARAMS, W)
    sizes = [(len(spans[i].features), len(spans[j].features)) for i, j in pairs]
    assert any(0 in s for s in sizes)
    assert any(1 in s and 0 not in s for s in sizes)
    assert any(n != m and min(n, m) > 1 for n, m in sizes)
    # Each collided pair tries its row-minimum cells, then its column-minimum ones.
    found, tries = [], iter(matchings)
    for row in tries:
        found.append("row" if row else "column" if next(tries) else "none")
    assert {"row", "column"} <= set(found)
    assert len(solves) > found.count("none")
    expected = [loop_span_sim(spans[i], spans[j], PARAMS, W) for i, j in pairs]
    assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_batched_span_sims_reject_oversized():
    big = SpanStats(features=tuple(num_feature(f"f{i}", [0.1] * 10) for i in range(257)))
    small = SpanStats(features=(num_feature("f0", [0.1] * 10),))
    empty = SpanStats(features=())
    for pair in ((big, small), (small, big), (big, big)):
        with pytest.raises(ValueError):
            _pair_sims(pair, [(0, 1)], PARAMS, W)
        with pytest.raises(ValueError):
            loop_span_sim(*pair, PARAMS, W)
    # An empty side scores 0 before any size is read, in both paths.
    assert _pair_sims((big, empty), [(0, 1)], PARAMS, W) == [0.0]
    assert loop_span_sim(big, empty, PARAMS, W) == 0.0


def test_no_span_pair_means_no_batch_work(small_corpus, monkeypatch):
    _, _, _, corpus = small_corpus
    trace, graphlets = corpus[0]
    calls = []
    for name in ("_canonical_bins", "_hash_blocks", "transport_costs"):
        monkeypatch.setattr(similarity, name, lambda *a, name=name: calls.append(name))
    # A one-graphlet pipeline has no pair.
    assert graphlet_similarities(trace, [], PARAMS, W) == []
    assert Featurizer().pipeline_rows(trace, graphlets[:1]).X.shape[0] == 1
    assert pair_similarities(trace, graphlets[:1], PARAMS, W) == []
    # Graphlets without input spans align no span pair.
    bare = [dataclasses.replace(g, input_spans=()) for g in graphlets[:2]]
    (sim,) = graphlet_similarities(trace, [(bare[1], bare[0])], PARAMS, W)
    assert sim[:2] == (1.0, 0.0)
    assert calls == []


def _reshape_spans(corpus, seed):
    """Drop one feature from some data spans and add one to others, so that
    consecutive spans differ in size; every span still validates."""
    rng = np.random.default_rng(seed)
    changed = 0
    for path in sorted(corpus.glob("*.ndjson")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            stats = record.get("properties", {}).get("span_stats")
            if not stats or rng.random() < 0.6:
                continue
            features = stats["features"]
            if rng.random() < 0.5 and len(features) > 1:
                features.pop(int(rng.integers(len(features))))
            else:
                extra = dict(features[int(rng.integers(len(features)))])
                extra["name"] += "_extra"
                features.append(extra)
            lines[i] = json.dumps(record, sort_keys=True)
            changed += 1
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return changed


def test_unequal_spans_write_the_oracle_bytes(tmp_path, monkeypatch):
    # No bench corpus has spans of unequal size, so the simplex is covered
    # here: ``stats`` and ``similarity`` must write through the batch what
    # they write through the per-pair oracle.
    corpus = tmp_path / "corpus"
    cfg = dataclasses.replace(GenConfig(), n_pipelines=3, graphlets_per_pipeline=(6, 8), seed=4)
    generate(cfg, corpus)
    assert _reshape_spans(corpus, seed=4) > 10
    assert main(["validate", "--corpus", str(corpus)]) == 0
    solves = []
    solve = transport._solve
    monkeypatch.setattr(transport, "_solve", lambda cost: solves.append(cost.shape) or solve(cost))
    outputs = {}
    for path in ("batch", "oracle"):
        if path == "oracle":
            monkeypatch.setattr(analytics, "graphlet_similarities", loop_graphlet_similarities)
            batch_solves = len(solves)
        for command in ("stats", "similarity"):
            out = tmp_path / path / command
            assert main([command, "--corpus", str(corpus), "--out", str(out)]) == 0
            outputs[path, command] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert batch_solves > 0 and any(n != m for n, m in solves[:batch_solves])
    for command in ("stats", "similarity"):
        assert outputs["batch", command] == outputs["oracle", command]


def _featurize_and_compare(out):
    """Run both consumers of ``graphlet_similarities`` on a corpus; return
    weak references to its span statistics, the corpus itself dropped."""
    traces = load_traces(out)
    corpus = [(trace, extract_graphlets(trace)) for trace in traces]
    featurizer = Featurizer()
    for trace, graphlets in corpus:
        featurizer.pipeline_rows(trace, graphlets)
        pair_similarities(trace, graphlets, PARAMS, W)
    return [
        weakref.ref(art.span_stats)
        for trace in traces
        for art in trace.artifacts.values()
        if art.span_stats is not None
    ]


def test_span_statistics_freed_with_the_corpus(tmp_path):
    cfg = dataclasses.replace(GenConfig(), n_pipelines=3, graphlets_per_pipeline=(6, 8), seed=3)
    generate(cfg, tmp_path)
    refs = _featurize_and_compare(tmp_path)
    assert len(refs) > 10
    gc.collect()
    assert [r for r in refs if r() is not None] == []
