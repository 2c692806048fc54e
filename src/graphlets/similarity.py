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
    if f.kind is FeatureKind.NUMERICAL:
        if f.numerical_hist is None or len(f.numerical_hist) != BINS:
            raise ValueError(f"feature {f.name!r}: histogram must have {BINS} bins")
        return CanonicalDistribution(bins=tuple(float(x) for x in f.numerical_hist))

    if f.cat_unique is None or f.cat_top10 is None or f.cat_total is None:
        raise ValueError(f"feature {f.name!r}: missing categorical counts")
    n_unique, total = f.cat_unique, f.cat_total
    if n_unique <= 0:
        raise ValueError(f"feature {f.name!r}: unique term count must be positive")
    if total <= 0:
        raise ValueError(f"feature {f.name!r}: total count must be positive")

    top = sorted((c / total for c in f.cat_top10), reverse=True)
    top_mass = sum(top)
    rest_bins = n_unique - len(top)
    rest_mass = 1.0 - top_mass
    if rest_bins == 0 and abs(rest_mass) > _MASS_TOL:
        raise ValueError(f"feature {f.name!r}: top-term counts do not cover the total")
    if rest_mass < -_MASS_TOL:
        raise ValueError(f"feature {f.name!r}: top-term mass exceeds 1")

    if n_unique == BINS:
        # Source bins align exactly with the cells; skip the float splitting.
        # A remainder rounded a hair below zero is empty, as in ``spread``.
        tail = [max(rest_mass, 0.0) / rest_bins] * rest_bins if rest_bins else []
        return CanonicalDistribution(bins=tuple(top + tail))

    cells = np.zeros(BINS)
    width = 1.0 / n_unique

    def spread(lo: float, hi: float, mass: float) -> None:
        # Split [lo, hi) mass proportionally over the cells it overlaps.
        if mass <= 0.0 or hi <= lo:
            return
        density = mass / (hi - lo)
        first = min(int(lo * BINS), BINS - 1)
        last = min(int(np.nextafter(hi, 0.0) * BINS), BINS - 1)
        for c in range(first, last + 1):
            overlap = min(hi, (c + 1) / BINS) - max(lo, c / BINS)
            if overlap > 0:
                cells[c] += density * overlap

    for i, mass in enumerate(top):
        spread(i * width, (i + 1) * width, mass)
    if rest_bins > 0:
        # The tail bins all hold the same mass, so they form one uniform block.
        spread(len(top) * width, 1.0, rest_mass)

    out = cells.sum()
    if abs(out - 1.0) > _MASS_TOL:
        raise ValueError(f"feature {f.name!r}: mass not conserved ({out})")
    cells /= out
    return CanonicalDistribution(bins=tuple(float(x) for x in cells))


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


def _feature_hashes(features, params: LshParams) -> list[tuple[int, ...]]:
    """Canonicalize features and hash them in one batch, one tuple per feature."""
    bins = np.array([canonicalize(f).bins for f in features], dtype=float).reshape(-1, BINS)
    return [tuple(row) for row in hash_distributions(bins, params).tolist()]


def feature_sim(
    f1: FeatureStats, f2: FeatureStats, params: LshParams, weights: SimWeights
) -> float:
    """Similarity between two features; features of different kinds score 0."""
    if f1.kind is not f2.kind:
        return 0.0
    score = 0.0
    h1, h2 = _feature_hashes((f1, f2), params)
    if h1 == h2:
        score += weights.alpha
    if f1.name == f2.name:
        score += weights.beta
    return score


def _span_signature(d: SpanStats, params: LshParams):
    """Feature names, kinds and hashes: all of a span that its similarity reads."""
    names = tuple(f.name for f in d.features)
    kinds = tuple(f.kind.value for f in d.features)
    return names, kinds, tuple(_feature_hashes(d.features, params))


def _cost_matrix(a, b, weights: SimWeights) -> np.ndarray:
    names1, kinds1, h1 = a
    names2, kinds2, h2 = b
    interned: dict = {}

    def intern(key) -> int:
        return interned.setdefault(key, len(interned))

    name1 = np.array([intern(("name", x)) for x in names1])
    name2 = np.array([intern(("name", x)) for x in names2])
    kind1 = np.array([intern(("kind", x)) for x in kinds1])
    kind2 = np.array([intern(("kind", x)) for x in kinds2])
    sig1 = np.array([intern((k, h)) for k, h in zip(kinds1, h1)])
    sig2 = np.array([intern((k, h)) for k, h in zip(kinds2, h2)])
    kind_eq = kind1[:, None] == kind2[None, :]
    hash_eq = sig1[:, None] == sig2[None, :]
    name_eq = name1[:, None] == name2[None, :]
    sim = np.where(kind_eq, weights.alpha * hash_eq + weights.beta * name_eq, 0.0)
    return 1.0 - sim


def _signature_sim(sig1, sig2, weights: SimWeights) -> float:
    """Span similarity from two signatures, taken in sorted order so that both
    argument orders of a pair build the same cost matrix."""
    if sig1 > sig2:
        sig1, sig2 = sig2, sig1
    names1, names2 = sig1[0], sig2[0]
    if not names1 or not names2:
        return 0.0
    if len(names1) > MAX_SIDE or len(names2) > MAX_SIDE:
        raise ValueError(f"span feature count exceeds {MAX_SIDE}")
    cost = _cost_matrix(sig1, sig2, weights)
    n, m = cost.shape
    # Any feasible plan whose cost reaches the row/column-min lower bound is
    # optimal; the name-aligned plan almost always does, so the simplex only
    # runs on genuinely scrambled pairs.
    lower = max(float(cost.min(axis=1).mean()), float(cost.min(axis=0).mean()))
    if n == m and len(set(names1)) == n and set(names1) == set(names2):
        pos = {name: j for j, name in enumerate(names2)}
        aligned = float(np.mean([cost[i, pos[name]] for i, name in enumerate(names1)]))
        if aligned - lower <= 1e-12:
            return min(1.0, max(0.0, 1.0 - aligned))
    value = 1.0 - transport_cost(cost)
    return min(1.0, max(0.0, value))


def span_sim(d1: SpanStats, d2: SpanStats, params: LshParams, weights: SimWeights) -> float:
    """Transport-based similarity between two spans' feature sets.

    Features act as equally weighted clusters; moving mass between features
    costs one minus their similarity, and the span score is one minus the
    optimal transport cost.  An empty span is never similar to anything,
    including another empty span.  The pair is compared in the order of its
    signatures, so the result is bit-for-bit symmetric for any weights.
    """
    return _signature_sim(_span_signature(d1, params), _span_signature(d2, params), weights)


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

    Each input span is hashed once and each unordered pair of span ids is
    compared once.  The memo lives as long as the object; create one per
    trace and drop it with the trace.
    """

    def __init__(self, trace: Trace, params: LshParams, weights: SimWeights) -> None:
        self.trace = trace
        self.params = params
        self.weights = weights
        self._signatures: dict[str, tuple] = {}
        self._pairs: dict[tuple[str, str], float] = {}

    def _spans(self, g: Graphlet) -> list[str]:
        # Input spans oldest first; spans without statistics are skipped.
        return [s for s in g.input_spans if self.trace.artifacts[s].span_stats is not None]

    def _signature(self, span_id: str):
        if span_id not in self._signatures:
            stats = self.trace.artifacts[span_id].span_stats
            self._signatures[span_id] = _span_signature(stats, self.params)
        return self._signatures[span_id]

    def _span_sim(self, a: str, b: str) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in self._pairs:
            self._pairs[key] = _signature_sim(self._signature(a), self._signature(b), self.weights)
        return self._pairs[key]

    def compare(self, g: Graphlet, prev: Graphlet) -> tuple[float, float, float]:
        """``(jaccard, dataset_sim, code_match)`` of ``g`` against a predecessor."""
        dataset_sim = _aligned_mean(self._spans(g), self._spans(prev), self._span_sim)
        code_match = 1.0 if g.trainer_code_version == prev.trainer_code_version else 0.0
        return jaccard(g, prev), dataset_sim, code_match
