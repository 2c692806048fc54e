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

Trees grow in lockstep.  Each keeps a preorder stack of its nodes that may
still split; every round pops the next node of each growing tree and
searches the round's nodes together.  Sorted by row count and cut into
chunks of bounded size, each chunk gathers one (node x candidate) x width
block of integer keys ``rank << 1 | label`` for only its nodes' rows, where
a value's rank is its place among its column's distinct values (so -0.0
and 0.0 share one).  Shorter nodes are padded with the key dtype's largest
value; one integer sort per block row orders rows by value, and a running
count of the low bits gives the positives left of every cut.  Every cut
between distinct ranks that ``min_leaf`` allows is scored, and its
threshold is the midpoint of the two distinct values, read from a table of
each column's sorted values.  A node's cuts are listed in (feature,
position) order, so its first minimum score is the tie-break above; rows
are partitioned by ``value <= threshold``.

A node's candidates are the sorted result of one ``Generator.choice(d, m,
replace=False)`` on its tree's generator.  With m = ceil(sqrt(d)), numpy
2 runs Floyd's algorithm there at every width (its tail shuffle needs
d > 10000 and m > d / 50): bounded draws on [0, j] for j = d - m ... d - 1,
where a repeated value takes j, then a shuffle of the picks with draws on
[0, i] for i = m - 1 ... 1.  ``fit`` replays those draws for many
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
import warnings
from array import array
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

__all__ = [
    "ForestConfig",
    "Tree",
    "Forest",
    "SplitSpec",
    "fit",
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


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 16
    min_leaf: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("forest hyperparameters must be positive")


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


def _tree(arrays) -> Tree:
    """A ``Tree`` from per-node sequences, keyed by field name."""
    fields = {}
    for name, dt in _TREE_DTYPES.items():
        try:
            fields[name] = np.asarray(arrays[name], dtype=dt)
        except OverflowError as exc:
            raise ValueError(f"tree array {name!r} does not fit {np.dtype(dt)}: {exc}") from None
    return Tree(**fields)


@dataclass
class Forest:
    config: ForestConfig
    trees: list[Tree]
    n_features: int
    class_weights: tuple[float, float]
    feature_names: tuple[str, ...] | None = None


# A search block holds at most this many (node x candidate x row) cells,
# unless one node alone needs more.
_CHUNK_CELLS = 1 << 14

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
    without n x d temporaries.  Each node is padded to the block's
    width with the dtype's largest value, which sorts after every real key,
    so no cut that ``min_leaf`` allows reaches a pad.  Row ids are stored as
    ``index`` integers: 32 bits unless the matrix has more rows, since every
    growing tree holds about one bootstrap sample of them at a time.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, w0: float, w1: float, min_leaf: int):
        self.X = X
        self.y = y
        n, d = X.shape
        self.index = np.int32 if n <= np.iinfo(np.int32).max else np.intp
        dtype = _key_dtype(n)
        self.pad = np.iinfo(dtype).max
        self.key = np.empty((d, n), dtype=dtype)
        values = []
        for f in range(d):
            distinct, self.key[f] = np.unique(X[:, f], return_inverse=True)
            values.append(distinct)
        self.key <<= 1
        self.key |= y
        self.values = np.concatenate(values)
        self.offset = np.cumsum([0] + [len(v) for v in values[:-1]])
        self.w0 = w0
        self.w1 = w1
        self.min_leaf = min_leaf

    def split(self, idxs: list[np.ndarray], n1: np.ndarray, feats: np.ndarray) -> list:
        """Node k holds rows ``idxs[k]``, ``n1[k]`` of them positive, and is
        searched over the sorted candidate features ``feats[k]``.  Returns, per
        node, None if no cut is allowed, else (feature, threshold, left rows,
        left positives, right rows)."""
        k, m = feats.shape
        n = np.array([len(i) for i in idxs])
        width = int(n.max())
        real = np.arange(width) < n[:, None]
        rows = np.zeros((k, width), dtype=self.index)
        rows[real] = np.concatenate(idxs)
        # Row k * m + j of the block holds node k's keys of feature feats[k, j].
        key = self.key.take(feats[:, :, None] * len(self.y) + rows[:, None, :])
        np.copyto(key, self.pad, where=~real[:, None, :])
        key = key.reshape(k * m, width)
        # Equal keys are equal (value, label) pairs, so the order of tied rows
        # cannot change any count.
        key.sort(axis=1)
        cum1 = (key & 1).cumsum(axis=1)
        key >>= 1
        # Cut p puts sorted rows 0..p on the left; min_leaf bounds p to
        # [lo, n - min_leaf - 1].
        lo = self.min_leaf - 1
        allowed = key[:, lo + 1 :] != key[:, lo : width - 1]
        allowed &= np.arange(lo, width - 1) < (n - self.min_leaf).repeat(m)[:, None]
        r, cut = allowed.nonzero()
        out: list = [None] * k
        if len(cut) == 0:
            return out
        cut += lo
        node = r // m
        nl1 = cum1[r, cut]
        n1c = n1[node]
        nl0 = cut + 1 - nl1
        # a and b weigh the positives and negatives on each side of each cut:
        # row 0 holds the left side, row 1 the right.
        a = self.w1 * np.stack((nl1, n1c - nl1))
        b = self.w0 * np.stack((nl0, n[node] - n1c - nl0))
        w = a + b
        # Weighted Gini numerator per side; the shared denominator is constant.
        side = w - (a**2 + b**2) / w
        score = side[0] + side[1]
        # nonzero lists each node's cuts together, in (feature, position)
        # order, so its first minimum is at the lowest feature index, then
        # the lowest threshold.
        per_node = np.bincount(node, minlength=k)
        node = per_node.nonzero()[0]
        starts = (per_node.cumsum() - per_node)[node]
        lowest = np.minimum.reduceat(score, starts).repeat(per_node[node])
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
        # Partition by value, not by sorted position: the midpoint of two
        # adjacent floats can round up to the larger one.
        rows, real = rows[node], real[node]
        go_left = self.X[rows, feature[:, None]] <= threshold[:, None]
        go_left &= real
        go_right = real & ~go_left
        lefts = _rows_where(rows, go_left)
        rights = _rows_where(rows, go_right)
        left_n1 = (self.y.take(rows) & go_left).sum(axis=1)
        for j, at in enumerate(node.tolist()):
            out[at] = (int(feature[j]), float(threshold[j]), lefts[j], int(left_n1[j]), rights[j])
        return out


def _rows_where(rows: np.ndarray, mask: np.ndarray) -> list[np.ndarray]:
    """For each row of the block, its entries where ``mask`` holds."""
    flat = rows[mask]
    ends = mask.sum(axis=1).cumsum().tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


class _Growth:
    """One tree while it grows: its generator, its node arrays, and the
    preorder stack of its nodes that may still split."""

    def __init__(self, rng: np.random.Generator, cfg: ForestConfig, idx: np.ndarray, n1: int):
        self.rng = rng
        self.cfg = cfg
        self.stack: list[tuple[int, np.ndarray, int, int]] = []
        self.slot = 0  # its row in the forest's block of drawn candidates
        # Typed arrays: a forest's trees all grow at once, and Python lists
        # would hold every node's numbers as objects until the last finishes.
        self.feature = array("i", (-1,))
        self.threshold = array("d", (0.0,))
        self.left = array("i", (-1,))
        self.right = array("i", (-1,))
        self.count = array("q", (len(idx),))
        self.positives = array("q", (n1,))
        self._queue(0, idx, n1, 0)

    def _queue(self, node: int, idx: np.ndarray, n1: int, depth: int) -> None:
        cfg = self.cfg
        if depth < cfg.max_depth and 0 < n1 < len(idx) and len(idx) >= 2 * cfg.min_leaf:
            self.stack.append((node, idx, n1, depth))

    def grow(self, popped: tuple[int, np.ndarray, int, int], split) -> None:
        """Apply ``split`` (from ``_Splitter.split``) to the node just popped;
        both children get their ids before either is searched."""
        if split is None:
            return
        node, _, n1, depth = popped
        f, thr, left_idx, left_n1, right_idx = split
        left = len(self.feature)
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = left
        self.right[node] = left + 1
        self.feature.extend((-1, -1))
        self.threshold.extend((0.0, 0.0))
        self.left.extend((-1, -1))
        self.right.extend((-1, -1))
        self.count.extend((len(left_idx), len(right_idx)))
        self.positives.extend((left_n1, n1 - left_n1))
        # Right before left, so the next pop is the left child: preorder.
        self._queue(left + 1, right_idx, n1 - left_n1, depth + 1)
        self._queue(left, left_idx, left_n1, depth + 1)

    def freeze(self, w0: float, w1: float) -> Tree:
        """The grown tree; each node's fraction is its class-weighted positive share."""
        count = np.asarray(self.count)
        positives = np.asarray(self.positives)
        pos = w1 * positives
        total = pos + w0 * (count - positives)
        fraction = np.divide(pos, total, out=np.zeros_like(pos), where=total > 0)
        return _tree({**vars(self), "fraction": fraction})


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


def fit(
    X: np.ndarray,
    y: Sequence[bool] | np.ndarray,
    cfg: ForestConfig = ForestConfig(),
    feature_names: Sequence[str] | None = None,
) -> Forest:
    """Train a forest; deterministic given (X, y, cfg)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError("feature matrix must be non-empty")
    if X.shape[0] != len(y):
        raise ValueError("feature matrix and labels disagree on row count")
    if feature_names is not None and len(feature_names) != X.shape[1]:
        raise ValueError("feature names do not match matrix width")
    _check_finite(X)
    n = len(y)
    n1 = int(y.sum())
    n0 = n - n1
    w1 = n / (2.0 * n1) if n1 else 1.0
    w0 = n / (2.0 * n0) if n0 else 1.0
    mtry = max(1, math.isqrt(X.shape[1]) + (0 if math.isqrt(X.shape[1]) ** 2 == X.shape[1] else 1))
    splitter = _Splitter(X, y, w0, w1, cfg.min_leaf)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(splitmix64((cfg.seed & _MASK64) + t))
        sample = rng.integers(0, n, size=n).astype(splitter.index)
        trees.append(_Growth(rng, cfg, sample, int(np.count_nonzero(y.take(sample)))))
    # Lockstep rounds: each growing tree pops its next node in preorder with
    # the next candidates drawn from its own generator, so every tree sees
    # the stream it would alone.  Every growing tree pops one node a round,
    # so all of them use up their drawn candidates in the same round and
    # draw again together, for twice as many nodes.  A round's nodes are
    # searched together, smallest first, in chunks of at most _CHUNK_CELLS
    # padded cells.
    growing = trees
    batch = _FIRST_DRAWS
    drawn = np.empty((0, 0, mtry), dtype=np.intp)
    used = 0
    while growing := [t for t in growing if t.stack]:
        if used == drawn.shape[1]:
            drawn = _draw([t.rng for t in growing], batch, X.shape[1], mtry)
            for slot, t in enumerate(growing):
                t.slot = slot
            batch *= 2
            used = 0
        sizes = sorted((len(t.stack[-1][1]), i) for i, t in enumerate(growing))
        start = 0
        while start < len(sizes):
            stop = start + 1
            while stop < len(sizes) and (stop + 1 - start) * mtry * sizes[stop][0] <= _CHUNK_CELLS:
                stop += 1
            chunk = [growing[i] for _, i in sizes[start:stop]]
            popped = [t.stack.pop() for t in chunk]
            feats = drawn[[t.slot for t in chunk], used]
            splits = splitter.split([p[1] for p in popped], np.array([p[2] for p in popped]), feats)
            for t, node, split in zip(chunk, popped, splits):
                t.grow(node, split)
            start = stop
        used += 1
    trees = [t.freeze(w0, w1) for t in trees]
    return Forest(
        config=cfg,
        trees=trees,
        n_features=X.shape[1],
        class_weights=(w0, w1),
        feature_names=None if feature_names is None else tuple(feature_names),
    )


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
    tree = _tree(arrays)
    ids = np.arange(n)
    internal = tree.feature >= 0
    if ((tree.feature < -1) | (tree.feature >= n_features)).any():
        raise ValueError(f"tree feature index outside [-1, {n_features})")
    for child in (tree.left, tree.right):
        if ((child[internal] <= ids[internal]) | (child[internal] >= n)).any():
            raise ValueError("tree child index does not follow its node")
    if not ((tree.fraction >= 0.0) & (tree.fraction <= 1.0)).all():
        raise ValueError("tree leaf fractions must lie in [0, 1]")
    return tree


def forest_from_dict(payload: dict[str, Any]) -> Forest:
    """The inverse of ``forest_to_dict``; a structurally broken forest raises ``ValueError``."""
    cfg = ForestConfig(**payload["config"])
    n_features = int(payload["n_features"])
    trees = [_checked_tree(t, n_features) for t in payload["trees"]]
    if not trees:
        raise ValueError("forest has no trees")
    names = payload.get("feature_names")
    return Forest(
        config=cfg,
        trees=trees,
        n_features=n_features,
        class_weights=tuple(payload["class_weights"]),  # type: ignore[arg-type]
        feature_names=None if names is None else tuple(names),
    )
