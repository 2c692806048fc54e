"""Deterministic random-forest classifier with probability scores.

CART-style trees on bootstrap samples, class-weighted Gini splits with
midpoint thresholds, and leaf scores equal to the class-weighted positive
fraction.  Everything is reproducible from the config seed:

* tree t draws its RNG seed as ``splitmix64(seed + t)``;
* each node draws its candidate features from its tree's RNG in depth-first
  preorder (node, left subtree, right subtree), so identical inputs replay
  the identical stream, and tree t of a forest seeded s is the only tree of
  a forest seeded s + t;
* Gini ties break toward the lower feature index, then the lower threshold.

``fit_prefixes`` fits one forest per column prefix of a matrix (``fit`` is
the one-prefix case) over one key matrix, since a prefix's column f is the
matrix's.  All the trees grow in lockstep, as arrays: a tree's bootstrap
rows fill one row of a row buffer, a node is a segment of it, and a split
partitions its segment in place, left rows then right rows.  Every round
pops the next node off each growing tree's preorder stack and searches
them in chunks of one candidate count and at most ``_CHUNK_CELLS`` padded
cells, smallest first.  A chunk gathers one (node x candidate) x width
block of keys ``rank << 1 | label``, where a value's rank is its place among
its column's distinct values (so -0.0 and 0.0 share one), reading the key
dtype's largest value past a node's end.  One integer sort per block row
orders rows by value, and a running count of the low bits, in the key
dtype, gives the positives left of every cut.  Each cut between distinct
ranks that ``min_leaf`` allows, from one flat index list, is scored, its
threshold the midpoint of the two values; a node's first minimum, in
(feature, position) order, is the tie-break above.  Rows are partitioned
by rank, which is ``value <= threshold`` (see ``_Splitter.split``).

A node's candidates are the sorted result of one ``Generator.choice(d, m,
replace=False)`` on its tree's generator.  With m = ceil(sqrt(d)), numpy
2 runs Floyd's algorithm there at every width (its tail shuffle needs
d > 10000 and m > d / 50): bounded draws on [0, j] for j = d - m ... d - 1,
where a repeated value takes j, then a shuffle of the picks with draws on
[0, i] for i = m - 1 ... 1.  The fit replays those draws for many
nodes of a tree in one ``integers`` call, which takes the same bounded
draws from the stream, and discards the shuffle draws, since sorting undoes
the shuffle.  The growing trees draw together, each for a batch of its
next nodes that doubles from one draw to the next; drawing past a tree's
last node only advances a generator that is then dropped.

``scores`` walks all (tree, row) pairs down one node array whose leaves loop
to themselves, summing trees in order.  ``fit`` and ``scores`` reject NaN and
infinite feature values.

Balanced class weights (n / (2 * n_class), computed on the full training
labels) keep leaf fractions meaningful under the heavy label imbalance of
push prediction.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .config import ForestConfig, check_numbers, numbers_fit

__all__ = [
    "Tree",
    "Forest",
    "SplitSpec",
    "fit",
    "fit_prefixes",
    "scores",
    "balanced_accuracy",
    "split_corpus",
    "splitmix64",
]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; used to derive per-tree seeds from (seed, index)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass
class Tree:
    """Flat node arrays; ``feature`` is -1 at leaves."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fraction: np.ndarray
    count: np.ndarray


_TREE_DTYPES = {"feature": np.int32, "threshold": float, "left": np.int32,
                "right": np.int32, "fraction": float, "count": np.int64}


@dataclass
class Forest:
    config: ForestConfig
    trees: list[Tree]
    n_features: int
    class_weights: tuple[float, float]
    feature_names: tuple[str, ...] | None = None


# A search block holds at most this many (node x candidate x row) cells,
# unless one node alone needs more.
_CHUNK_CELLS = 1 << 15

# A tree's first candidate draw covers this many of its nodes; each later
# draw covers twice as many as the one before.
_FIRST_DRAWS = 16

# Scoring walks at most about this many (tree, row) pairs at once, so its
# index arrays stay near 1 MB each however many rows are scored.
_SCORE_PAIRS = 1 << 17


def _key_dtype(n: int) -> type:
    """The narrowest dtype for the keys of ``n`` rows: ranks lie below n, so
    every key lies below 2n, under the dtype's largest value, which pads."""
    return next(t for t in (np.int16, np.int32, np.int64) if 2 * n <= np.iinfo(t).max)


class _Splitter:
    """Best splits of many nodes at once, over one padded key block.

    ``key[f, i]`` holds row i's value in column f as ``rank << 1 | label``,
    with ranks dense per column, and ``values[offset[f] + rank]`` is the
    value of that rank in column f.  The key matrix lives as long as the fit,
    so it is built one column at a time, in the narrowest dtype that fits,
    without n x d temporaries.  Its column n holds the dtype's largest
    value, the pad: cells past a node's end read it, and since it sorts
    after every real key, no cut that ``min_leaf`` allows reaches one and
    the partition sends it right.  Counts of at most n rows fit the dtype.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, w0: float, w1: float, min_leaf: int):
        self.y = y
        n, d = X.shape
        dtype = _key_dtype(n)
        self.pad = np.iinfo(dtype).max
        self.key = np.empty((d, n + 1), dtype=dtype)
        values = []
        for f in range(d):
            distinct, self.key[f, :n] = np.unique(X[:, f], return_inverse=True)
            values.append(distinct)
        self.key[:, :n] <<= 1
        self.key[:, :n] |= y
        self.key[:, n] = self.pad
        self.values = np.concatenate(values)
        self.offset = np.cumsum([0] + [len(v) for v in values[:-1]])
        self.w0 = w0
        self.w1 = w1
        self.min_leaf = min_leaf

    def split(self, buf: np.ndarray, at: np.ndarray, size: np.ndarray, n1: np.ndarray,
              feats: np.ndarray) -> tuple[np.ndarray, ...]:
        """Node k holds row ids ``buf[at[k] : at[k] + size[k]]``, ``n1[k]`` of them
        positive, and is searched over the sorted candidates ``feats[k]``.  Each
        node with an allowed cut is partitioned in place (see the module notes);
        returns their indices, features, thresholds, left rows and positives."""
        k, m = feats.shape
        n = len(self.y)
        width = int(size.max())
        real = np.arange(width) < size[:, None]
        # Cells past a node's end hold other rows of the buffer, which are
        # never moved; the search reads the pad column for them instead.
        cells = np.where(real, buf.take(at[:, None] + np.arange(width), mode="clip"), np.intp(n))
        # Row k * m + j of the block holds node k's keys of feature feats[k, j].
        key = self.key.take(feats[:, :, None].astype(np.intp) * (n + 1) + cells[:, None, :])
        key = key.reshape(k * m, width)
        # Equal keys are equal (value, label) pairs, so the order of tied rows
        # cannot change any count.
        key.sort(axis=1)
        cum1 = (key & 1).cumsum(axis=1, dtype=key.dtype)
        key >>= 1
        # Cut p puts sorted rows 0..p on the left; min_leaf bounds p to
        # [lo, size - min_leaf - 1].
        lo = self.min_leaf - 1
        allowed = key[:, lo + 1 :] != key[:, lo : width - 1]
        allowed &= np.arange(lo, width - 1) < (size - self.min_leaf).repeat(m)[:, None]
        # Flat indices list the cuts in (row, position) order, as nonzero does.
        flat = np.flatnonzero(allowed)
        r = flat // (width - self.min_leaf)
        cut = flat - r * (width - self.min_leaf) + lo
        node = r // m
        nl1 = cum1[r, cut]
        n1c = n1[node]
        nl0 = cut + 1 - nl1
        # a and b weigh the positives and negatives on each side of each cut:
        # row 0 holds the left side, row 1 the right.
        a = self.w1 * np.stack((nl1, n1c - nl1))
        b = self.w0 * np.stack((nl0, size[node] - n1c - nl0))
        w = a + b
        # Weighted Gini numerator per side; the shared denominator is constant.
        side = w - (a**2 + b**2) / w
        score = side[0] + side[1]
        # The cuts are listed node by node, in (feature, position) order, so
        # a node's first minimum is at the lowest feature index, then the
        # lowest threshold.
        per_node = np.bincount(node, minlength=k)
        hit = per_node.nonzero()[0]
        starts = (per_node.cumsum() - per_node)[hit]
        lowest = np.minimum.reduceat(score, starts).repeat(per_node[hit])
        first = np.minimum.reduceat(np.where(score == lowest, np.arange(len(score)), len(score)), starts)
        r, cut = r[first], cut[first]
        feature = feats.ravel()[r]
        base = self.offset[feature]
        below, above = self.values[base + key[r, cut]], self.values[base + key[r, cut + 1]]
        with np.errstate(over="ignore"):
            threshold = (below + above) / 2.0
        # Two finite values whose sum overflows still have a finite midpoint.
        wide = ~np.isfinite(threshold)
        threshold[wide] = below[wide] / 2.0 + above[wide] / 2.0
        # Partition by rank, as value <= threshold: the midpoint of two
        # adjacent floats can round up to the upper one, whose rows go left too.
        top = key[r, cut + (threshold == above)]
        cells, real = cells[hit], real[hit]
        chosen = self.key.take(feature[:, None].astype(np.intp) * (n + 1) + cells)
        go_left = chosen <= (top << 1 | 1)[:, None]
        left = go_left.cumsum(axis=1)
        n_left = left[:, -1].copy()
        # The left rows are the first n_left of the chosen block row's sort.
        left_n1 = cum1[r, n_left - 1]
        # Left row j moves to place left[j] - 1, right row j to n_left + j - left[j].
        place = np.where(go_left, left - 1, n_left[:, None] + np.arange(width) - left)
        buf[(at[hit][:, None] + place)[real]] = cells[real]
        return hit, feature, threshold, n_left, left_n1


def _draw(rngs: list[np.random.Generator], batch: int, d: int, m: int) -> np.ndarray:
    """Row t holds the sorted candidates of the next ``batch`` nodes drawn from
    ``rngs[t]``, as one ``choice(d, m, replace=False)`` call per node returns
    them."""
    # One node's bounded draws: Floyd's picks, then the shuffle of the picks.
    highs = np.tile(np.concatenate((np.arange(d - m, d), np.arange(m - 1, 0, -1))), batch)
    picks = np.empty((len(rngs), batch, m), dtype=np.intp)
    for rng, row in zip(rngs, picks):
        row[:] = rng.integers(0, highs, endpoint=True).reshape(batch, -1)[:, :m]
    flat = picks.reshape(-1, m)
    for j in range(1, m):
        # Floyd's rule: a value picked before is replaced by its bound d - m + j.
        repeat = (flat[:, :j] == flat[:, j : j + 1]).any(axis=1)
        flat[repeat, j] = d - m + j
    flat.sort(axis=1)
    return picks


def _check_finite(X: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise ValueError("feature matrix contains NaN or infinite values")


def fit(X: np.ndarray, y: Sequence[bool] | np.ndarray, cfg: ForestConfig = ForestConfig(),
        feature_names: Sequence[str] | None = None) -> Forest:
    """Train a forest; deterministic given (X, y, cfg)."""
    X = np.asarray(X, dtype=float)
    return fit_prefixes(X, y, cfg, feature_names, X.shape[1:2])[0]


def fit_prefixes(X: np.ndarray, y: Sequence[bool] | np.ndarray, cfg: ForestConfig,
                 feature_names: Sequence[str] | None, widths: Sequence[int]) -> list[Forest]:
    """One forest per width w, each equal to ``fit(X[:, :w], y, cfg,
    feature_names[:w])``; all of them grow together over one key matrix."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("feature matrix must be non-empty")
    if X.shape[0] != len(y):
        raise ValueError("feature matrix and labels disagree on row count")
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise ValueError("feature names do not match matrix width")
    widths = [operator.index(w) for w in widths]
    if not widths or not all(0 < w <= X.shape[1] for w in widths):
        raise ValueError(f"prefix widths {widths} must be one or more in [1, {X.shape[1]}]")
    X = X[:, : max(widths)]
    _check_finite(X)
    n = len(y)
    n1 = int(y.sum())
    n0 = n - n1
    w1 = n / (2.0 * n1) if n1 else 1.0
    w0 = n / (2.0 * n0) if n0 else 1.0
    made, root_n1, splits = _grow(_Splitter(X, y, w0, w1, cfg.min_leaf), widths, cfg)
    # Lay the recorded nodes out tree after tree, a round at a time, so each
    # parent's counts are set before its children's.
    first = made.cumsum() - made
    count = np.empty(made.sum(), dtype=np.int64)
    positives = np.empty_like(count)
    count[first], positives[first] = n, root_n1
    feature, left = np.full((2, len(count)), -1, dtype=np.int32)
    threshold = np.zeros(len(count))
    for ints, thr in splits:
        g, node, f, kid, n_left, left_n1 = ints
        parent, at = first[g] + node, first[g] + kid
        feature[parent], threshold[parent], left[parent] = f, thr, kid
        count[at], positives[at] = n_left, left_n1
        count[at + 1], positives[at + 1] = count[parent] - n_left, positives[parent] - left_n1
    fraction = w0 * (count - positives)
    pos = w1 * positives
    fraction += pos
    np.divide(pos, fraction, out=fraction, where=fraction > 0)
    right = left + (left >= 0)
    trees = [Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], fraction[a:b], count[a:b])
             for a, b in zip(first.tolist(), (first + made).tolist())]
    return [Forest(cfg, trees[s * cfg.n_trees : (s + 1) * cfg.n_trees], w, (w0, w1),
                   None if feature_names is None else tuple(feature_names[:w]))
            for s, w in enumerate(widths)]


def _grow(splitter: _Splitter, widths: list[int], cfg: ForestConfig) -> tuple:
    """Grow the trees of ``fit_prefixes``, tree g = s * n_trees + t being tree t
    of forest s.  Returns each tree's node count and root positives, and each
    round's splits: (tree, node, feature, left child, left rows and positives)."""
    n = len(splitter.y)
    per = cfg.n_trees
    rngs = [np.random.default_rng(splitmix64((cfg.seed & _MASK64) + t))
            for _ in widths for t in range(per)]
    trees = len(rngs)
    buf = np.empty((trees, n), dtype=np.min_scalar_type(n - 1))
    for row, rng in zip(buf, rngs):
        row[:] = rng.integers(0, n, size=n)
    root_n1 = np.tile(splitter.y.take(buf[:per]).sum(axis=1), len(widths))
    buf = buf.reshape(-1)
    mtry = np.array([math.isqrt(w - 1) + 1 for w in widths]).repeat(per)
    # Per tree, a preorder stack of (node, start, rows, positives, depth): at
    # most max_depth nodes that may still split, disjoint, of 2 * min_leaf rows.
    stack = np.empty((5, trees, min(cfg.max_depth, n // (2 * cfg.min_leaf))), dtype=np.int64)
    height = np.zeros(trees, dtype=np.intp)
    made = np.ones(trees, dtype=np.int64)  # nodes per tree so far

    def push(g, *fields):
        _, _, size, n1, depth = fields
        ok = (depth < cfg.max_depth) & (n1 > 0) & (n1 < size) & (size >= 2 * cfg.min_leaf)
        g = g[ok]
        stack[:, g, height[g]] = np.array(fields)[:, ok]
        height[g] += 1

    g = np.arange(trees)
    zeros = np.zeros(trees, dtype=np.int64)
    push(g, zeros, g * n, np.full(trees, n), root_n1, zeros)
    # The narrowest type that holds every tree, node and feature id and count.
    ids = np.min_scalar_type(max(trees, 2 * n, len(splitter.key)))
    splits = []
    # Each growing tree pops one node a round with the next candidates from its
    # own generator, so it sees the stream it would alone; all use up their
    # draws together and draw again, for twice as many nodes.
    batch = _FIRST_DRAWS
    drawn = np.empty((0, 0, mtry.max()), dtype=np.min_scalar_type(max(widths) - 1))
    used = 0
    while len(growing := height.nonzero()[0]):
        if used == drawn.shape[1]:
            drawn = np.zeros((trees, batch, drawn.shape[2]), dtype=drawn.dtype)  # row g: tree g
            bounds = np.searchsorted(growing, np.arange(len(widths) + 1) * per)
            for w, m, a, b in zip(widths, mtry[::per], bounds, bounds[1:]):
                drawn[growing[a:b], :, :m] = _draw([rngs[g] for g in growing[a:b]], batch, w, m)
            batch *= 2
            used = 0
        height[growing] -= 1
        node, at, size, n1, depth = stack[:, growing, height[growing]]
        cands = drawn[growing, used]
        # Chunks of one candidate count, smallest first; cells = nodes * m * widest.
        order = np.lexsort((size, mtry[growing]))
        m, wide = mtry[growing[order]], size[order]
        found = []
        start = 0
        while start < len(order):
            cells = np.arange(1, len(order) - start + 1) * m[start:] * wide[start:]
            stop = start + max(1, int(((cells <= _CHUNK_CELLS) & (m[start:] == m[start])).sum()))
            chunk = order[start:stop]
            hit, *split = splitter.split(
                buf, at[chunk], size[chunk], n1[chunk], cands[chunk, : m[start]])
            found.append((chunk[hit], *split))
            start = stop
        used += 1
        k, f, thr, n_left, left_n1 = map(np.concatenate, zip(*found))
        g = growing[k]
        left = made[g]
        made[g] += 2
        splits.append((np.array((g, node[k], f, left, n_left, left_n1), dtype=ids), thr))
        # Right before left, so the next pop is the left child: preorder.
        push(g, left + 1, at[k] + n_left, size[k] - n_left, n1[k] - left_n1, depth[k] + 1)
        push(g, left, at[k], n_left, left_n1, depth[k] + 1)
    return made, root_n1, splits


def scores(forest: Forest, X: np.ndarray, feature_names: Sequence[str] | None = None) -> np.ndarray:
    """Mean leaf positive-fraction across trees, for each row of X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(
            f"feature matrix width {X.shape[1] if X.ndim == 2 else '?'} does not match "
            f"the model's {forest.n_features}"
        )
    if (
        feature_names is not None
        and forest.feature_names is not None
        and tuple(feature_names) != forest.feature_names
    ):
        raise ValueError("feature schema does not match the model")
    _check_finite(X)
    # All trees as one node array; each leaf points to itself on both sides.
    trees = forest.trees
    start = np.cumsum([0] + [len(t.feature) for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    own = np.flatnonzero(feature < 0)
    left = np.concatenate([t.left + s for t, s in zip(trees, start)])
    right = np.concatenate([t.right + s for t, s in zip(trees, start)])
    left[own] = own
    right[own] = own
    feature[own] = 0
    threshold = np.concatenate([t.threshold for t in trees])
    fractions = np.concatenate([t.fraction for t in trees])
    total = np.zeros(len(X))
    # Walk every (tree, row) pair of a block of rows down together, however
    # deep the trees are; blocks keep the walk's arrays near _SCORE_PAIRS.
    step = max(1, _SCORE_PAIRS // len(trees))
    for lo in range(0, len(X), step):
        block = X[lo: lo + step]
        node = np.repeat(start, len(block))
        row = np.tile(np.arange(len(block)), len(trees))
        while (left[node] != node).any():
            node = np.where(block[row, feature[node]] <= threshold[node], left[node], right[node])
        # Sum tree by tree, in index order, so the float total never changes.
        for tree_fraction in fractions[node].reshape(len(trees), len(block)):
            total[lo: lo + step] += tree_fraction
    return total / len(trees)


def balanced_accuracy(y_true: Sequence[bool], y_pred: Sequence[bool]) -> float:
    """(TPR + TNR) / 2; requires both classes present in ``y_true``."""
    yt = np.asarray(y_true, dtype=bool)
    yp = np.asarray(y_pred, dtype=bool)
    if yt.shape != yp.shape or yt.size == 0:
        raise ValueError("label arrays must be non-empty and of equal length")
    pos = int(yt.sum())
    neg = yt.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("balanced accuracy needs both classes in y_true")
    tpr = int((yt & yp).sum()) / pos
    tnr = int((~yt & ~yp).sum()) / neg
    return (tpr + tnr) / 2.0


@dataclass(frozen=True)
class SplitSpec:
    """Pipeline-level train/test split with matched label rates."""

    train_pipeline_ids: tuple[str, ...]
    test_pipeline_ids: tuple[str, ...]
    train_fraction: float
    train_rate: float
    test_rate: float


FRACTION_BAND = (0.78, 0.82)
LABEL_TOLERANCE = 0.02
RELAXED_TOLERANCE = 0.05
_ATTEMPTS = 1000


def split_corpus(
    pipelines: Sequence[tuple[str, Sequence[bool]]], seed: int = 42
) -> SplitSpec:
    """Randomly assign whole pipelines to train/test.

    Shuffles until the train side holds 78-82% of graphlets and the pushed
    rates of the two sides agree within 0.02; after 1000 failed shuffles the
    label tolerance relaxes to 0.05 with a warning, and if that fails too the
    corpus is too lopsided to split.  The seed is taken modulo 2**64, so any
    integer seeds the shuffles.
    """
    if len(pipelines) < 2:
        raise ValueError("need at least two pipelines to split")
    sizes = np.array([len(labels) for _, labels in pipelines], dtype=float)
    pos = np.array([sum(map(bool, labels)) for _, labels in pipelines], dtype=float)
    total = sizes.sum()
    if total == 0:
        raise ValueError("corpus has no graphlets")
    rng = np.random.default_rng(seed & _MASK64)

    def attempt(tolerance: float) -> SplitSpec | None:
        order = rng.permutation(len(pipelines))
        train_ids: list[int] = []
        got = 0.0
        for k in order:
            if got / total >= FRACTION_BAND[0]:
                break
            train_ids.append(int(k))
            got += sizes[k]
        frac = got / total
        if not (FRACTION_BAND[0] <= frac <= FRACTION_BAND[1]):
            return None
        if len(train_ids) == len(pipelines):
            return None
        chosen = set(train_ids)
        test_ids = [k for k in range(len(pipelines)) if k not in chosen]
        train_size = sizes[train_ids].sum()
        test_size = sizes[test_ids].sum()
        train_rate = pos[train_ids].sum() / train_size
        test_rate = pos[test_ids].sum() / test_size
        if abs(train_rate - test_rate) > tolerance:
            return None
        return SplitSpec(
            train_pipeline_ids=tuple(pipelines[k][0] for k in sorted(train_ids)),
            test_pipeline_ids=tuple(pipelines[k][0] for k in sorted(test_ids)),
            train_fraction=float(frac),
            train_rate=float(train_rate),
            test_rate=float(test_rate),
        )

    for _ in range(_ATTEMPTS):
        spec = attempt(LABEL_TOLERANCE)
        if spec is not None:
            return spec
    warnings.warn(
        f"no split met label tolerance {LABEL_TOLERANCE}; relaxing to {RELAXED_TOLERANCE}",
        stacklevel=2,
    )
    for _ in range(_ATTEMPTS):
        spec = attempt(RELAXED_TOLERANCE)
        if spec is not None:
            return spec
    raise ValueError("corpus cannot be split into the target train/test shape")


def forest_to_dict(forest: Forest) -> dict[str, Any]:
    return {
        "config": {
            "n_trees": forest.config.n_trees,
            "max_depth": forest.config.max_depth,
            "min_leaf": forest.config.min_leaf,
            "seed": forest.config.seed,
        },
        "n_features": forest.n_features,
        "class_weights": list(forest.class_weights),
        "feature_names": None if forest.feature_names is None else list(forest.feature_names),
        "trees": [{name: getattr(t, name).tolist() for name in _TREE_DTYPES} for t in forest.trees],
    }


def _checked_tree(arrays: dict[str, Any], n_features: int) -> Tree:
    """A ``Tree`` from its payload, rejected unless every walk ends at a leaf.

    Trees are built in preorder, so each child id exceeds its parent's; with
    that checked, every walk in ``scores`` reaches a leaf.
    """
    n = len(arrays["feature"])
    if n == 0 or any(len(arrays[name]) != n for name in _TREE_DTYPES):
        raise ValueError("tree arrays must share one non-zero length")
    fields = {}
    for name, dt in _TREE_DTYPES.items():
        kind = float if dt is float else int
        if not numbers_fit(arrays[name], kind):
            raise ValueError(f"tree array {name!r} must hold only {kind.__name__}s")
        try:
            fields[name] = np.asarray(arrays[name], dtype=dt)
        except OverflowError as exc:
            raise ValueError(f"tree array {name!r} does not fit {np.dtype(dt)}: {exc}") from None
    tree = Tree(**fields)
    ids = np.arange(n)
    internal = tree.feature >= 0
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        raise ValueError(f"tree feature index outside [-1, {n_features})")
    for child in (tree.left, tree.right):
        if ((child[internal] <= ids[internal]) | (child[internal] >= n)).any():
            raise ValueError("tree child index does not follow its node")
    if not ((tree.fraction >= 0.0) & (tree.fraction <= 1.0)).all():
        raise ValueError("tree leaf fractions must lie in [0, 1]")
    if not np.isfinite(tree.threshold).all():
        raise ValueError("tree thresholds must be finite")
    return tree


def forest_from_dict(payload: dict[str, Any]) -> Forest:
    """The inverse of ``forest_to_dict``; a structurally broken forest raises ``ValueError``."""
    cfg = ForestConfig(**check_numbers("forest config", payload["config"],
                                       n_trees=int, max_depth=int, min_leaf=int, seed=int))
    n_features = check_numbers("forest", payload, n_features=int)["n_features"]
    trees = [_checked_tree(t, n_features) for t in payload["trees"]]
    if not trees:
        raise ValueError("forest has no trees")
    weights = payload["class_weights"]
    if not (isinstance(weights, (list, tuple)) and len(weights) == 2 and numbers_fit(weights, float)
            and all(math.isfinite(w) and w > 0 for w in weights)):
        raise ValueError(f"class_weights must be two finite positive numbers, got {weights!r}")
    names = payload.get("feature_names")
    return Forest(
        config=cfg,
        trees=trees,
        n_features=n_features,
        class_weights=(float(weights[0]), float(weights[1])),
        feature_names=None if names is None else tuple(names),
    )
