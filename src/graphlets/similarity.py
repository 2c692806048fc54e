"""Data-reuse and dataset-similarity metrics between graphlets.

Two complementary views of "did the data change":

* ``jaccard`` measures reuse of the *same* span artifacts between the input
  sets of two graphlets.
* ``sequence_sim`` measures distribution-level similarity of span contents.
  Every feature's summary statistics are first canonicalized into a 10-cell
  discrete distribution over [0, 1]; distributions are hashed with a
  quantized random projection of their element-wise square roots, so nearby
  distributions collide; feature-to-feature similarity combines hash equality
  and name equality; span-to-span similarity solves an exact optimal
  transport problem over the feature sets; and span sequences are compared
  by ordinal position, normalized by the longer sequence.

With ``alpha + beta = 1`` the span metric satisfies S(D, D) = 1, S(empty, D)
= 0, symmetry, and range [0, 1].  Symmetry is exact for any weights: every
span pair is compared in one canonical order, that of its signatures.

The rules for valid statistics live only in ``FeatureStats.check`` and
``SpanStats.check``, which ``validate_trace`` runs.  ``canonicalize``,
``feature_sim`` and ``span_sim`` (so ``sequence_sim``) run them on their
inputs; ``graphlet_similarities`` takes a validated trace and checks nothing.

Span pairs are compared in batches.  ``graphlet_similarities`` takes every
graphlet pair of one trace in one call, and computes every distinct span
pair they align once, in three steps:

1. Sign the spans together.  Their features are canonicalized in one
   vectorized pass, which repeats the one-feature float operations in the
   same order, so each row is bit-for-bit ``canonicalize``'s.  Each span is
   projected by its own product with the hash table, since BLAS may round
   one large product differently; the offset, division and floor run once
   over all rows.  Each feature's (kind, name) and (kind, hash) become int
   codes, and each span gets the rank of its (names, kinds, hashes) key.
2. Orient each pair by those ranks, rows from the lower key, so that both
   argument orders build the same cost matrix.
3. Group the pairs by shape.  Each shape's cost matrices are built as one
   block by two broadcast compares and solved by ``transport_costs``, which
   settles most of them at once by a certificate and hands the rest, one at
   a time, to matching and then to the simplex (see ``transport``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .segmentation import Graphlet
from .trace import FeatureKind, FeatureStats, SpanStats, Trace
from .transport import MAX_SIDE, transport_costs

__all__ = [
    "BINS",
    "CanonicalDistribution",
    "LshParams",
    "SimWeights",
    "jaccard",
    "canonicalize",
    "hash_distributions",
    "feature_sim",
    "span_sim",
    "sequence_sim",
    "graphlet_similarities",
]

BINS = 10
_MASS_TOL = 1e-9


@dataclass(frozen=True)
class CanonicalDistribution:
    """Discrete distribution over ``BINS`` equi-width cells of [0, 1]."""

    bins: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.bins) != BINS:
            raise ValueError(f"expected {BINS} cells, got {len(self.bins)}")
        if any(b < 0 for b in self.bins):
            raise ValueError("cell mass must be non-negative")
        if abs(sum(self.bins) - 1.0) > _MASS_TOL:
            raise ValueError("cell mass must sum to 1")


@dataclass(frozen=True)
class LshParams:
    """Quantized-projection hash family over probability distributions.

    ``k`` projections are concatenated into one hash; ``w`` is the
    quantization width.  Projection directions and offsets are derived
    deterministically from ``(seed, projection index)``, at construction:
    ``w`` must keep every hash component an exact integer inside int64.
    """

    k: int = 4
    w: float = 0.5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not (self.w > 0 and math.isfinite(self.w)):
            raise ValueError(f"w must be positive and finite, got {self.w!r}")
        # sqrt(d) is a unit vector, so a component is at most (max_j ||a_j|| + w) / w.
        reach = float(np.linalg.norm(self.projections[0], axis=1).max())
        if not (reach + self.w) / self.w < 2.0**53:
            raise ValueError(f"w is too small for 64-bit hashes, got {self.w!r}")

    @cached_property
    def projections(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only (directions, offsets) table, drawn once per instance."""
        directions = np.empty((self.k, BINS))
        offsets = np.empty(self.k)
        for j in range(self.k):
            rng = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, j])
            directions[j] = rng.standard_normal(BINS)
            offsets[j] = rng.uniform(0.0, self.w)
        directions.setflags(write=False)
        offsets.setflags(write=False)
        return directions, offsets


@dataclass(frozen=True)
class SimWeights:
    """Weights for hash equality (alpha) and name equality (beta).

    They must sum to 1, otherwise identical spans would not score 1.
    """

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.beta <= 1.0):
            raise ValueError("alpha and beta must lie in [0, 1]")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ValueError("alpha + beta must equal 1")


def jaccard(a: Graphlet, b: Graphlet) -> float:
    """Intersection-over-union of the two graphlets' input span sets.

    Two graphlets with no input spans at all are trivially identical: 1.
    """
    sa, sb = set(a.input_spans), set(b.input_spans)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def canonicalize(f: FeatureStats) -> CanonicalDistribution:
    """Re-express a feature's summary statistics as a 10-cell distribution.

    Numerical features already carry the histogram and pass through verbatim.
    Categorical features are first laid out over N bins of width 1/N: the
    top-term frequencies sorted descending, then the leftover mass spread
    evenly over the remaining bins.  The N-bin layout is aggregated onto the
    10 equi-width cells by mass, splitting bins that straddle a cell boundary
    proportionally, which makes the result independent of N's scale while
    conserving mass exactly.  A feature failing ``FeatureStats.check``
    raises ``ValueError`` with the first rule it breaks.
    """
    _require_valid(f)
    return CanonicalDistribution(bins=tuple(_canonical_bins((f,))[0].tolist()))


def _require_valid(*stats: FeatureStats | SpanStats) -> None:
    """Raise ``ValueError`` with the first rule that any of ``stats`` breaks."""
    for bad in (x.check() for x in stats):
        if bad:
            raise ValueError(bad[0])


def _canonical_bins(features: Sequence[FeatureStats]) -> np.ndarray:
    """``canonicalize`` for many features at once: a (len(features), BINS) matrix.

    The features must pass ``FeatureStats.check``; none is checked again.
    Each feature's top-term frequencies ``c / total`` are taken in Python
    exactly as for one feature.  Sorting and the layout are vectorized
    across features with the same float operations in the same order, and
    every sum is Python's ``sum`` over the same values, so each row is
    bit-for-bit the one-feature result.
    """
    out = np.zeros((len(features), BINS))
    hist_at: list[int] = []  # numerical rows, laid out verbatim
    hists: list = []
    cat_at: list[int] = []  # categorical rows
    fractions: list[float] = []  # their top-term frequencies, end to end
    n_top: list[int] = []
    n_unique: list[int] = []
    for i, f in enumerate(features):
        if f.kind is FeatureKind.NUMERICAL:
            hist_at.append(i)
            hists.append(f.numerical_hist)
        else:
            total = f.cat_total
            cat_at.append(i)
            fractions.extend([c / total for c in f.cat_top10])
            n_top.append(len(f.cat_top10))
            n_unique.append(f.cat_unique)
    if hist_at:
        out[hist_at] = hists
    if not cat_at:
        return out
    # Frequencies sorted descending, one row per feature, padded with 0.
    top = np.full((len(cat_at), max(max(n_top), 1)), -np.inf)
    counts = np.array(n_top)
    top[np.repeat(np.arange(len(cat_at)), counts),
        np.arange(len(fractions)) - np.repeat(counts.cumsum() - counts, counts)] = fractions
    top = np.sort(top, axis=1)[:, ::-1]
    top[top == -np.inf] = 0.0
    aligned: list[int] = []  # rows with N == BINS, laid out here
    aligned_rows: list[list[float]] = []
    spread: list[int] = []  # rows of ``top`` that need the N-bin to 10-cell split
    widths: list[float] = []
    tail_mass: list[float] = []
    for r, (i, row, k, unique) in enumerate(zip(cat_at, top.tolist(), n_top, n_unique)):
        rest_bins = unique - k
        rest_mass = 1.0 - sum(row)
        if unique != BINS:
            spread.append(r)
            widths.append(1.0 / unique)
            # The tail bins all hold the same mass, so they form one block.
            tail_mass.append(rest_mass if rest_bins > 0 else 0.0)
        else:
            # Source bins align exactly with the cells; skip the float
            # splitting.  A remainder rounded a hair below zero is empty,
            # as in the split.
            aligned.append(i)
            aligned_rows.append(
                row[:k] + ([max(rest_mass, 0.0) / rest_bins] * rest_bins if rest_bins else []))
    if aligned:
        out[aligned] = aligned_rows
    if spread:
        cells = _spread_cells(top[spread], counts[spread], np.array(widths), np.array(tail_mass))
        out[[cat_at[r] for r in spread]] = cells / cells.sum(axis=1)[:, None]
    return out


def _spread_cells(
    top: np.ndarray, n_top: np.ndarray, width: np.ndarray, tail: np.ndarray
) -> np.ndarray:
    """Cell masses of categorical layouts, one row per feature.

    Feature r has intervals [k w, (k + 1) w) holding ``top[r, k]`` for k
    below ``n_top[r]``, then the tail block [n_top[r] w, 1) holding
    ``tail[r]``; columns of ``top`` past ``n_top[r]`` hold 0.  Each interval
    with positive mass and length puts density * overlap into the cells from
    int(lo * BINS) to int(nextafter(hi, 0) * BINS) that it overlaps, and
    every cell sums its contributions in interval order, tops then tail.
    """
    k = top.shape[1]
    mass = np.concatenate([top, tail[:, None]], axis=1)
    lo = np.arange(k + 1) * width[:, None]
    lo[:, k] = n_top * width
    hi = np.arange(1, k + 2) * width[:, None]
    hi[:, k] = 1.0
    active = ~((mass <= 0.0) | (hi <= lo))
    first = np.minimum((lo * BINS).astype(np.int64), BINS - 1)
    last = np.minimum((np.nextafter(hi, 0.0) * BINS).astype(np.int64), BINS - 1)
    cell = np.arange(BINS)
    overlap = np.minimum(hi[..., None], (cell + 1) / BINS) - np.maximum(lo[..., None], cell / BINS)
    take = (
        active[..., None]
        & (cell >= first[..., None])
        & (cell <= last[..., None])
        & (overlap > 0)
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        density = mass / (hi - lo)
        part = np.where(take, density[..., None] * overlap, 0.0)
    # A running sum over the intervals adds them in order, tops then tail.
    return np.cumsum(part, axis=1)[:, -1]


def hash_distributions(bins_matrix: np.ndarray, params: LshParams) -> np.ndarray:
    """Integer hashes of the rows of a (n, BINS) distribution matrix.

    Row i, component j is floor((a_j . sqrt(d_i) + b_j) / w) with a_j
    standard normal and b_j uniform in [0, w), both a pure function of
    (seed, j).  Nearby distributions tend to collide.
    """
    bins_matrix = np.asarray(bins_matrix, dtype=float)
    if bins_matrix.ndim != 2:
        raise ValueError(f"expected a (n, {BINS}) matrix, got shape {bins_matrix.shape}")
    return _hash_blocks(bins_matrix, [len(bins_matrix)], params)


def _hash_blocks(bins: np.ndarray, sizes: Sequence[int], params: LshParams) -> np.ndarray:
    """``hash_distributions`` of each block of consecutive rows, in one pass.

    Block k holds the next ``sizes[k]`` rows and is projected by its own
    product with the table, so it hashes exactly as it would alone: BLAS may
    round a product differently with its shape.  The square root, offset,
    division and floor are elementwise and run once over all rows.
    """
    directions, offsets = params.projections
    root = np.sqrt(bins)
    projected = np.empty((len(bins), params.k))
    start = 0
    for size in sizes:
        projected[start : start + size] = root[start : start + size] @ directions.T
        start += size
    return np.floor((projected + offsets) / params.w).astype(np.int64)


def feature_sim(
    f1: FeatureStats, f2: FeatureStats, params: LshParams, weights: SimWeights
) -> float:
    """Similarity between two features; features of different kinds score 0.
    Either feature failing ``FeatureStats.check`` raises ``ValueError``."""
    _require_valid(f1, f2)
    if f1.kind is not f2.kind:
        return 0.0
    score = 0.0
    h1, h2 = hash_distributions(_canonical_bins((f1, f2)), params).tolist()
    if h1 == h2:
        score += weights.alpha
    if f1.name == f2.name:
        score += weights.beta
    return score


@dataclass(frozen=True)
class _Signed:
    """Spans signed in one batch.  Per span: where its features start, how
    many it has and the rank of its (names, kinds, hashes) key.  Per
    feature: int codes of its (kind, name) and of its (kind, hash)."""

    start: np.ndarray
    size: np.ndarray
    rank: np.ndarray
    name: np.ndarray
    sig: np.ndarray


def _codes(keys: Iterable) -> np.ndarray:
    """Int codes that are equal exactly where ``keys`` are."""
    seen: dict = {}
    return np.array([seen.setdefault(k, len(seen)) for k in keys], dtype=np.int64)


def _sign_spans(spans: Sequence[SpanStats], params: LshParams) -> _Signed:
    """Everything of ``spans`` that their similarity reads, in one batch."""
    features = [f for d in spans for f in d.features]
    size = np.array([len(d.features) for d in spans], dtype=np.int64)
    start = np.cumsum(size) - size
    hashed = _hash_blocks(_canonical_bins(features), size.tolist(), params)
    hashes = list(map(tuple, hashed.tolist()))
    names = [f.name for f in features]
    kinds = [f.kind.value for f in features]
    keys = [
        (tuple(names[i : i + n]), tuple(kinds[i : i + n]), tuple(hashes[i : i + n]))
        for i, n in zip(start.tolist(), size.tolist())
    ]
    rank = np.empty(len(spans), dtype=np.int64)
    rank[sorted(range(len(spans)), key=keys.__getitem__)] = np.arange(len(spans))
    return _Signed(start, size, rank, _codes(zip(kinds, names)), _codes(zip(kinds, hashes)))


# Cells per cost block: a larger shape group is solved in several blocks.
_BLOCK_CELLS = 1 << 16


def _pair_sims(
    spans: Sequence[SpanStats],
    pairs: Sequence[tuple[int, int]],
    params: LshParams,
    weights: SimWeights,
) -> list[float]:
    """``span_sim`` of each pair of indices into ``spans``, in batches.

    The spans must pass ``SpanStats.check``, so none has more than
    ``MAX_SIDE`` features.  A pair with an empty span scores 0 and takes no
    work.  The spans of the other pairs are signed together; each pair is
    oriented so that the span with the lower key gives the rows, and the
    pairs are solved in blocks of one shape.
    """
    sims = [0.0] * len(pairs)
    live = [k for k, (x, y) in enumerate(pairs) if spans[x].features and spans[y].features]
    if not live:
        return sims
    index = {x: i for i, x in enumerate(dict.fromkeys(x for k in live for x in pairs[k]))}
    signed = _sign_spans([spans[x] for x in index], params)
    a = np.array([index[pairs[k][0]] for k in live])
    b = np.array([index[pairs[k][1]] for k in live])
    a, b = np.where(signed.rank[a] <= signed.rank[b], (a, b), (b, a))
    n, m = signed.size[a], signed.size[b]
    # A feature pair costs 1 - (alpha * same hash + beta * same name) if its
    # kinds agree and 1 if not.  Both codes carry the kind, so a cell is
    # 2 * same sig + same name into this table, whose first entry is 1.
    table = np.array([1.0 - (weights.alpha * h + weights.beta * e)
                      for h in (0.0, 1.0) for e in (0.0, 1.0)])
    cost = np.empty(len(live))
    shape = n * (MAX_SIDE + 1) + m
    order = np.argsort(shape, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(shape[order])) + 1):
        rows, cols = int(n[group[0]]), int(m[group[0]])
        step = max(1, _BLOCK_CELLS // (rows * cols))
        for chunk in (group[i : i + step] for i in range(0, len(group), step)):
            r = signed.start[a[chunk], None] + np.arange(rows)
            c = signed.start[b[chunk], None] + np.arange(cols)
            same_sig = signed.sig[r][:, :, None] == signed.sig[c][:, None, :]
            same_name = signed.name[r][:, :, None] == signed.name[c][:, None, :]
            cost[chunk] = transport_costs(table[2 * same_sig + same_name])
    for k, sim in zip(live, np.minimum(1.0, np.maximum(0.0, 1.0 - cost)).tolist()):
        sims[k] = sim
    return sims


def span_sim(d1: SpanStats, d2: SpanStats, params: LshParams, weights: SimWeights) -> float:
    """Transport-based similarity between two spans' feature sets.

    Features act as equally weighted clusters; moving mass between features
    costs one minus their similarity, and the span score is one minus the
    optimal transport cost.  An empty span is never similar to anything,
    including another empty span.  The pair is compared in the order of its
    signatures, so the result is bit-for-bit symmetric for any weights.
    Either span failing ``SpanStats.check`` raises ``ValueError``.
    """
    _require_valid(d1, d2)
    return _pair_sims((d1, d2), [(0, 1)], params, weights)[0]


def _aligned_mean(a: Sequence, b: Sequence, sim: Callable) -> float:
    if not a or not b:
        return 0.0
    n, m = len(a), len(b)
    total = sum(sim(a[i], b[i]) for i in range(min(n, m)))
    return total / max(n, m)


def sequence_sim(
    a: list[SpanStats] | tuple[SpanStats, ...],
    b: list[SpanStats] | tuple[SpanStats, ...],
    params: LshParams,
    weights: SimWeights,
) -> float:
    """Span sequences compared by ordinal position, normalized by the longer.

    Sequences must be ordered by span creation time ascending.  Matching by
    position rather than identity keeps rolling windows comparable.
    """
    return _aligned_mean(a, b, lambda d1, d2: span_sim(d1, d2, params, weights))


def graphlet_similarities(
    trace: Trace,
    pairs: Sequence[tuple[Graphlet, Graphlet]],
    params: LshParams,
    weights: SimWeights,
) -> list[tuple[float, float, float]]:
    """``(jaccard, dataset_sim, code_match)`` of each ``(graphlet,
    predecessor)`` pair of one trace, in input order.

    ``trace`` must pass ``validate_trace``, so that every input span carries
    statistics of at most ``MAX_SIDE`` features; they are not checked again.
    Each pair's input spans are aligned, oldest first.
    Every span those alignments read is signed in one batch, and each
    distinct span pair is settled once, by the first of these that applies:

    1. a pair with an empty span scores 0 and takes no work;
    2. one-row and one-column cost matrices take their mean, a block at a
       time;
    3. square matrices, a block at a time, take the mean of their row
       minima where one greedy pass matches every row to a distinct
       row-minimum column (always so when the row argmins are distinct);
    4. each other square pair, alone, takes the same mean if Kuhn's
       matching finds a perfect matching on its row-minimum cells, else the
       mean of a perfect matching on its column-minimum cells;
    5. what is left, and every pair of unequal sides, runs the simplex.

    Pass all of a trace's pairs in one call: a second call signs and
    settles again.
    """
    aligned = [(g.input_spans, prev.input_spans) for g, prev in pairs]
    distinct = dict.fromkeys(
        (x, y) if x <= y else (y, x) for a, b in aligned for x, y in zip(a, b)
    )
    index = {x: i for i, x in enumerate(dict.fromkeys(x for pair in distinct for x in pair))}
    sims = _pair_sims(
        [trace.artifacts[x].span_stats for x in index],
        [(index[x], index[y]) for x, y in distinct],
        params,
        weights,
    )
    memo = dict(zip(distinct, sims))

    def span_pair_sim(x: str, y: str) -> float:
        return memo[(x, y) if x <= y else (y, x)]

    return [
        (
            jaccard(g, prev),
            _aligned_mean(a, b, span_pair_sim),
            1.0 if g.trainer_code_version == prev.trainer_code_version else 0.0,
        )
        for (g, prev), (a, b) in zip(pairs, aligned)
    ]
