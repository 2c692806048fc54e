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

Per-trace work is done in bulk.  ``SpanSimilarity`` canonicalizes the
features of every span its graphlets read in one vectorized pass, which
repeats the one-feature float operations in the same order, so each row is
bit-for-bit ``canonicalize``'s.  Each span is then hashed on its own, and
feature names and (kind, hash) pairs become int codes once per trace, so a
pair's cost matrix is three broadcast compares.  Square cost matrices are
mostly settled by ``transport_cost``'s certificate: a permutation on row- or
column-minimum cells meets the row- or column-minimum lower bound on any
plan, so it is optimal without the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .segmentation import Graphlet
from .trace import FeatureKind, FeatureStats, SpanStats, Trace
from .transport import MAX_SIDE, transport_cost

__all__ = [
    "BINS",
    "CanonicalDistribution",
    "LshParams",
    "SimWeights",
    "SpanSimilarity",
    "jaccard",
    "canonicalize",
    "hash_distributions",
    "feature_sim",
    "span_sim",
    "sequence_sim",
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
    deterministically from ``(seed, projection index)``.
    """

    k: int = 4
    w: float = 0.5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.w <= 0:
            raise ValueError("w must be positive")


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
    conserving mass exactly.
    """
    return CanonicalDistribution(bins=tuple(_canonical_bins((f,))[0].tolist()))


def _canonical_bins(features: Sequence[FeatureStats]) -> np.ndarray:
    """``canonicalize`` for many features at once: a (len(features), BINS) matrix.

    Per-feature bookkeeping (the sorted top-term frequencies, their sum, the
    range checks) runs in Python exactly as for one feature; the categorical
    layout is vectorized across features with the same float operations in
    the same order, so every row is bit-for-bit the one-feature result.  The
    first invalid feature raises the ``ValueError`` that ``canonicalize``
    raises for it.
    """
    out = np.zeros((len(features), BINS))
    errors: dict[int, str] = {}
    direct: list[int] = []  # rows laid out here: numerical and N == BINS
    direct_rows: list[list[float]] = []
    spread: list[int] = []  # rows that need the N-bin to 10-cell split
    tops: list[list[float]] = []
    widths: list[float] = []
    tail_mass: list[float] = []
    for i, f in enumerate(features):
        if f.kind is FeatureKind.NUMERICAL:
            if f.numerical_hist is None or len(f.numerical_hist) != BINS:
                errors[i] = f"feature {f.name!r}: histogram must have {BINS} bins"
                continue
            row = [float(x) for x in f.numerical_hist]
        else:
            if f.cat_unique is None or f.cat_top10 is None or f.cat_total is None:
                errors[i] = f"feature {f.name!r}: missing categorical counts"
                continue
            n_unique, total = f.cat_unique, f.cat_total
            if n_unique <= 0:
                errors[i] = f"feature {f.name!r}: unique term count must be positive"
                continue
            if total <= 0:
                errors[i] = f"feature {f.name!r}: total count must be positive"
                continue
            top = sorted((c / total for c in f.cat_top10), reverse=True)
            rest_bins = n_unique - len(top)
            rest_mass = 1.0 - sum(top)
            if rest_bins == 0 and abs(rest_mass) > _MASS_TOL:
                errors[i] = f"feature {f.name!r}: top-term counts do not cover the total"
                continue
            if rest_mass < -_MASS_TOL:
                errors[i] = f"feature {f.name!r}: top-term mass exceeds 1"
                continue
            if n_unique != BINS:
                spread.append(i)
                tops.append(top)
                widths.append(1.0 / n_unique)
                # The tail bins all hold the same mass, so they form one block.
                tail_mass.append(rest_mass if rest_bins > 0 else 0.0)
                continue
            # Source bins align exactly with the cells; skip the float splitting.
            # A remainder rounded a hair below zero is empty, as in the split.
            row = top + ([max(rest_mass, 0.0) / rest_bins] * rest_bins if rest_bins else [])
            if len(row) != BINS:
                errors[i] = f"expected {BINS} cells, got {len(row)}"
                continue
        if any(b < 0 for b in row):
            errors[i] = "cell mass must be non-negative"
        elif abs(sum(row) - 1.0) > _MASS_TOL:
            errors[i] = "cell mass must sum to 1"
        else:
            direct.append(i)
            direct_rows.append(row)
    if direct:
        out[direct] = direct_rows
    if spread:
        cells = _spread_cells(tops, np.array(widths), np.array(tail_mass))
        mass = cells.sum(axis=1)
        for j in np.flatnonzero(np.abs(mass - 1.0) > _MASS_TOL).tolist():
            errors[spread[j]] = (
                f"feature {features[spread[j]].name!r}: mass not conserved ({mass[j]})"
            )
        out[spread] = cells / mass[:, None]
    if errors:
        raise ValueError(errors[min(errors)])
    return out


def _spread_cells(tops: list[list[float]], width: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """Cell masses of categorical layouts, one row per feature.

    Feature r has intervals [k w, (k + 1) w) holding ``tops[r][k]``, then the
    tail block [len(tops[r]) w, 1) holding ``tail[r]``.  Each interval with
    positive mass and length puts density * overlap into the cells from
    int(lo * BINS) to int(nextafter(hi, 0) * BINS) that it overlaps, and
    every cell sums its contributions in interval order, tops then tail.
    """
    n_top = np.array([len(t) for t in tops])
    k = max(n_top.max(), 1)
    mass = np.zeros((len(tops), k + 1))
    for r, t in enumerate(tops):
        mass[r, : len(t)] = t
    mass[:, k] = tail
    steps = np.arange(k)
    lo = np.concatenate([steps * width[:, None], (n_top * width)[:, None]], axis=1)
    hi = np.concatenate([(steps + 1) * width[:, None], np.ones((len(tops), 1))], axis=1)
    active = ~((mass <= 0.0) | (hi <= lo))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        density = mass / (hi - lo)
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
    with np.errstate(invalid="ignore", over="ignore"):
        part = np.where(take, density[..., None] * overlap, 0.0)
    cells = np.zeros((len(tops), BINS))
    for interval in range(k + 1):
        cells += part[:, interval]
    return cells


@lru_cache(maxsize=None)
def _projections(k: int, w: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Projection table for a parameter set, built once and shared read-only."""
    directions = np.empty((k, BINS))
    offsets = np.empty(k)
    for j in range(k):
        rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, j])
        directions[j] = rng.standard_normal(BINS)
        offsets[j] = rng.uniform(0.0, w)
    directions.setflags(write=False)
    offsets.setflags(write=False)
    return directions, offsets


def hash_distributions(bins_matrix: np.ndarray, params: LshParams) -> np.ndarray:
    """Integer hashes of the rows of a (n, BINS) distribution matrix.

    Row i, component j is floor((a_j . sqrt(d_i) + b_j) / w) with a_j
    standard normal and b_j uniform in [0, w), both a pure function of
    (seed, j).  Nearby distributions tend to collide.
    """
    directions, offsets = _projections(params.k, params.w, params.seed)
    root = np.sqrt(np.asarray(bins_matrix, dtype=float))
    return np.floor((root @ directions.T + offsets) / params.w).astype(np.int64)


def feature_sim(
    f1: FeatureStats, f2: FeatureStats, params: LshParams, weights: SimWeights
) -> float:
    """Similarity between two features; features of different kinds score 0."""
    if f1.kind is not f2.kind:
        return 0.0
    score = 0.0
    h1, h2 = hash_distributions(_canonical_bins((f1, f2)), params).tolist()
    if h1 == h2:
        score += weights.alpha
    if f1.name == f2.name:
        score += weights.beta
    return score


def _sign_spans(spans: Sequence[SpanStats], params: LshParams) -> list[tuple]:
    """All of each span that its similarity reads: ``(key, names, kinds, sigs)``.

    ``key`` is the tuple (feature names, kinds, hashes), which fixes the
    order in which a pair is compared.  ``names``, ``kinds`` and ``sigs``
    are int codes of each feature's name, kind and (kind, hash), interned
    over all of ``spans``.  The features of every span are canonicalized in
    one batch; each span is hashed on its own, as a matrix of its own rows.
    """
    bins = _canonical_bins([f for d in spans for f in d.features])
    codes: dict = {}

    def intern(keys) -> np.ndarray:
        return np.array([codes.setdefault(k, len(codes)) for k in keys], dtype=np.int64)

    signed = []
    start = 0
    for d in spans:
        stop = start + len(d.features)
        hashes = tuple(map(tuple, hash_distributions(bins[start:stop], params).tolist()))
        names = tuple(f.name for f in d.features)
        kinds = tuple(f.kind.value for f in d.features)
        signed.append((
            (names, kinds, hashes),
            intern(("name", x) for x in names),
            intern(("kind", x) for x in kinds),
            intern(zip(kinds, hashes)),
        ))
        start = stop
    return signed


def _signed_sim(a: tuple, b: tuple, weights: SimWeights) -> float:
    """Span similarity of two signed spans, taken in key order so that both
    argument orders of a pair build the same cost matrix."""
    if a[0] > b[0]:
        a, b = b, a
    _, name1, kind1, sig1 = a
    _, name2, kind2, sig2 = b
    if not len(name1) or not len(name2):
        return 0.0
    if len(name1) > MAX_SIDE or len(name2) > MAX_SIDE:
        raise ValueError(f"span feature count exceeds {MAX_SIDE}")
    kind_eq = kind1[:, None] == kind2[None, :]
    hash_eq = sig1[:, None] == sig2[None, :]
    name_eq = name1[:, None] == name2[None, :]
    sim = np.where(kind_eq, weights.alpha * hash_eq + weights.beta * name_eq, 0.0)
    return min(1.0, max(0.0, 1.0 - transport_cost(1.0 - sim)))


def span_sim(d1: SpanStats, d2: SpanStats, params: LshParams, weights: SimWeights) -> float:
    """Transport-based similarity between two spans' feature sets.

    Features act as equally weighted clusters; moving mass between features
    costs one minus their similarity, and the span score is one minus the
    optimal transport cost.  An empty span is never similar to anything,
    including another empty span.  The pair is compared in the order of its
    signatures, so the result is bit-for-bit symmetric for any weights.
    """
    return _signed_sim(*_sign_spans((d1, d2), params), weights)


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


class SpanSimilarity:
    """Graphlet-to-predecessor comparison over one trace, memoized by span id.

    Every input span of ``graphlets`` is signed up front, in one batch; each
    unordered pair of span ids is compared once.  ``compare`` takes only
    graphlets from that list.  The memo lives as long as the object; create
    one per trace and drop it with the trace.
    """

    def __init__(
        self, trace: Trace, graphlets: Sequence[Graphlet], params: LshParams, weights: SimWeights
    ) -> None:
        self.trace = trace
        self.weights = weights
        spans = list(dict.fromkeys(s for g in graphlets for s in self._spans(g)))
        stats = [trace.artifacts[s].span_stats for s in spans]
        self._signed = dict(zip(spans, _sign_spans(stats, params)))
        self._pairs: dict[tuple[str, str], float] = {}

    def _spans(self, g: Graphlet) -> list[str]:
        # Input spans oldest first; spans without statistics are skipped.
        return [s for s in g.input_spans if self.trace.artifacts[s].span_stats is not None]

    def _span_sim(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in self._pairs:
            self._pairs[key] = _signed_sim(self._signed[a], self._signed[b], self.weights)
        return self._pairs[key]

    def compare(self, g: Graphlet, prev: Graphlet) -> tuple[float, float, float]:
        """``(jaccard, dataset_sim, code_match)`` of ``g`` against a predecessor."""
        dataset_sim = _aligned_mean(self._spans(g), self._spans(prev), self._span_sim)
        code_match = 1.0 if g.trainer_code_version == prev.trainer_code_version else 0.0
        return jaccard(g, prev), dataset_sim, code_match
