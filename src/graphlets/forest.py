"""Deterministic random-forest classifier with probability scores.

CART-style trees on bootstrap samples, class-weighted Gini splits with
midpoint thresholds, and leaf scores equal to the class-weighted positive
fraction.  Everything is reproducible from the config seed:

* tree t draws its RNG seed as ``splitmix64(seed + t)``;
* each node draws its candidate features from the tree RNG in depth-first
  preorder (node, left subtree, right subtree), so identical inputs replay
  the identical stream;
* Gini ties break toward the lower feature index, then the lower threshold.

Split search scores all of a node's candidate features in one pass: it
gathers their values for the node's rows from a feature-major copy of the
matrix, sorts each row, and scores every cut between distinct adjacent
values that ``min_leaf`` allows.  The cuts are listed in row-major (feature,
position) order, so the first minimum score is the tie-break above; rows are
partitioned by ``value <= threshold``.  ``scores`` walks all (tree, row) pairs
down one node array whose leaves loop to themselves, summing trees in order.
``fit`` and ``scores`` reject NaN and infinite feature values.

Balanced class weights (n / (2 * n_class), computed on the full training
labels) keep leaf fractions meaningful under the heavy label imbalance of
push prediction.
"""

from __future__ import annotations

import math
import warnings
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
_SIDES = np.array(((1,), (-1,)))  # a cut's left count, then total minus it


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


class _TreeBuilder:
    def __init__(self, XT, y, w0, w1, cfg, rng, mtry):
        self.XT = XT
        self.y = y
        self.w0 = w0
        self.w1 = w1
        self.cfg = cfg
        self.rng = rng
        self.mtry = mtry
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.fraction: list[float] = []
        self.count: list[int] = []

    def _new_node(self, n: int, n1: int) -> int:
        """Append a leaf for ``n`` rows, ``n1`` of them positive; return its id."""
        node = len(self.feature)
        pos = self.w1 * n1
        neg = self.w0 * (n - n1)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.fraction.append(pos / (pos + neg) if pos + neg > 0 else 0.0)
        self.count.append(n)
        return node

    def _best_split(self, idx: np.ndarray, n1: int) -> tuple[int, float] | None:
        XT, w0, w1 = self.XT, self.w0, self.w1
        n = len(idx)
        d = XT.shape[0]
        feats = self.rng.choice(d, size=min(self.mtry, d), replace=False)
        feats.sort()
        # Cut p puts sorted rows 0..p on the left; min_leaf bounds p to [lo, hi].
        lo = self.cfg.min_leaf - 1
        hi = n - self.cfg.min_leaf - 1
        if hi < lo:
            return None
        sv = XT.take(feats, axis=0).take(idx, axis=1)
        # Cuts fall only between distinct values, so the order of tied rows
        # (which an unstable argsort leaves open) never changes a count at a cut.
        cum1 = self.y.take(idx).take(sv.argsort(axis=1)).cumsum(axis=1)
        sv.sort(axis=1)
        rows, cut = (sv[:, lo + 1 : hi + 2] != sv[:, lo : hi + 1]).nonzero()
        if len(cut) == 0:
            return None
        cut += lo
        # a and b weigh the positives and negatives on each side of each cut:
        # row 0 holds the left side, row 1 the right.
        nl1 = cum1[rows, cut]
        a = w1 * (_SIDES * nl1 + np.array(((0,), (n1,))))
        b = w0 * (_SIDES * (cut + 1 - nl1) + np.array(((0,), (n - n1,))))
        w = a + b
        # Weighted Gini numerator per side; the shared denominator is constant.
        side = w - (a**2 + b**2) / w
        score = side[0] + side[1]
        # nonzero lists cuts in row-major order, so the first minimum is at
        # the lowest feature index, then the lowest threshold.
        k = int(score.argmin())
        row, at = rows[k], cut[k]
        return int(feats[row]), (float(sv[row, at]) + float(sv[row, at + 1])) / 2.0

    def build(self, idx: np.ndarray) -> None:
        # Explicit preorder stack; pushing right before left keeps the RNG
        # stream aligned with recursive construction order.
        n1 = int(np.count_nonzero(self.y.take(idx)))
        stack: list[tuple[int, np.ndarray, int, int]] = [(self._new_node(len(idx), n1), idx, n1, 0)]
        while stack:
            node, node_idx, n1, depth = stack.pop()
            n = len(node_idx)
            if depth >= self.cfg.max_depth or n1 == 0 or n1 == n or n < 2 * self.cfg.min_leaf:
                continue
            split = self._best_split(node_idx, n1)
            if split is None:
                continue
            f, thr = split
            # Partition by value, not by sorted position: the midpoint of two
            # adjacent floats can round up to the larger one.
            go_left = self.XT[f].take(node_idx) <= thr
            left_idx = node_idx[go_left]
            right_idx = node_idx[~go_left]
            left_n1 = int(np.count_nonzero(self.y.take(left_idx)))
            self.feature[node] = f
            self.threshold[node] = thr
            left_node = self._new_node(len(left_idx), left_n1)
            right_node = self._new_node(len(right_idx), n1 - left_n1)
            self.left[node] = left_node
            self.right[node] = right_node
            stack.append((right_node, right_idx, n1 - left_n1, depth + 1))
            stack.append((left_node, left_idx, left_n1, depth + 1))

    def freeze(self) -> Tree:
        return _tree(vars(self))


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
    XT = np.ascontiguousarray(X.T)
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(splitmix64((cfg.seed & _MASK64) + t))
        sample = rng.integers(0, n, size=n)
        builder = _TreeBuilder(XT, y, w0, w1, cfg, rng, mtry)
        builder.build(np.asarray(sample))
        trees.append(builder.freeze())
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
    # Walk every (tree, row) pair down together, however deep the trees are.
    node = np.repeat(start, len(X))
    row = np.tile(np.arange(len(X)), len(trees))
    while (left[node] != node).any():
        node = np.where(X[row, feature[node]] <= threshold[node], left[node], right[node])
    fraction = np.concatenate([t.fraction for t in trees])[node].reshape(len(trees), len(X))
    # Sum tree by tree, in index order, so the float total never changes.
    total = np.zeros(len(X))
    for tree_fraction in fraction:
        total += tree_fraction
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
    corpus is too lopsided to split.
    """
    if len(pipelines) < 2:
        raise ValueError("need at least two pipelines to split")
    sizes = np.array([len(labels) for _, labels in pipelines], dtype=float)
    pos = np.array([sum(map(bool, labels)) for _, labels in pipelines], dtype=float)
    total = sizes.sum()
    if total == 0:
        raise ValueError("corpus has no graphlets")
    rng = np.random.default_rng(seed)

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
