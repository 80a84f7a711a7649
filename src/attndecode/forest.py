"""Random forest of axis-aligned decision trees on bootstrap samples.

Class 1 is face, class 0 is scene. Each node searches a random feature
subset exhaustively; candidate thresholds are midpoints between consecutive
distinct sorted values and the chosen split strictly minimizes the weighted
child impurity, ties resolved by the first candidate in feature-then-
threshold order so training is reproducible per seed. Per-tree RNG streams
are derived from the master seed by counter, never by execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

INT_RANGES = {  # inclusive bounds of the integer hyperparameters
    "n_estimators": (2, 10),
    "max_depth": (5, 20),
    "min_samples_split": (2, 20),
    "min_samples_leaf": (2, 5),
}
MAX_FEATURES_CHOICES = ("auto", "sqrt", "log2")
CRITERION_CHOICES = ("gini", "entropy")


class ForestError(ValueError):
    """Invalid random-forest input."""


@dataclass(frozen=True)
class RfHyperParams:
    n_estimators: int
    max_depth: int
    min_samples_split: int
    min_samples_leaf: int
    max_features: str = "auto"
    criterion: str = "gini"

    def __post_init__(self):
        for name, (lo, hi) in INT_RANGES.items():
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and lo <= v <= hi):
                raise ForestError(f"{name}={v} outside [{lo}, {hi}]")
        if self.max_features not in MAX_FEATURES_CHOICES:
            raise ForestError(f"max_features={self.max_features!r}")
        if self.criterion not in CRITERION_CHOICES:
            raise ForestError(f"criterion={self.criterion!r}")


def n_split_features(max_features: str, n_features: int) -> int:
    """Feature-subset size: auto keeps everything, sqrt/log2 take ceilings."""
    if max_features == "auto":
        return n_features
    if max_features == "sqrt":
        return min(n_features, int(np.ceil(np.sqrt(n_features))))
    return min(n_features, int(np.ceil(np.log2(n_features))))


def gini_impurity(counts) -> float:
    counts = np.asarray(counts, float)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def entropy_impurity(counts) -> float:
    counts = np.asarray(counts, float)
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _child_impurity_curve(n1_left, n_left, n1_total, n_total, criterion):
    """Weighted child impurity for every prefix split, vectorized."""
    n_right = n_total - n_left
    n1_right = n1_total - n1_left
    if criterion == "gini":

        def imp(ones, size):
            p = ones / size
            return 1.0 - p * p - (1.0 - p) ** 2

    else:

        def imp(ones, size):
            p = ones / size
            with np.errstate(divide="ignore", invalid="ignore"):
                h = -(np.where(p > 0, p * np.log2(p), 0.0)) - np.where(
                    p < 1, (1 - p) * np.log2(np.maximum(1 - p, 1e-300)), 0.0
                )
            return h

    return (n_left * imp(n1_left, n_left) + n_right * imp(n1_right, n_right)) / n_total


def best_split(
    x: np.ndarray,
    y01: np.ndarray,
    feature_subset: np.ndarray,
    min_samples_leaf: int,
    criterion: str,
):
    """Exhaustive best (feature, threshold) over the subset, or None.

    Matches a brute-force search exactly, including the first-encountered
    tie rule over features in ascending index order and thresholds ascending
    (feature_subset must be sorted). All candidate columns are scored in one
    vectorized pass.
    """
    n = len(y01)
    total1 = int(y01.sum())
    sub = x[:, feature_subset]
    order = np.argsort(sub, axis=0, kind="stable")
    sv = np.take_along_axis(sub, order, axis=0)
    cum1 = np.cumsum(y01[order], axis=0)[:-1]
    sizes = np.arange(1, n)[:, None]
    valid = (sv[1:] > sv[:-1]) & (sizes >= min_samples_leaf)
    valid &= (n - sizes) >= min_samples_leaf
    if not valid.any():
        return None
    with np.errstate(invalid="ignore"):
        score = _child_impurity_curve(cum1, sizes, total1, n, criterion)
    score = np.where(valid, score, np.inf)
    # Flattening feature-major keeps argmin's first-hit rule aligned with
    # the feature-then-threshold tie-break order.
    j = int(np.argmin(score.T.ravel()))
    f_idx, row = divmod(j, n - 1)
    return int(feature_subset[f_idx]), float(0.5 * (sv[row, f_idx] + sv[row + 1, f_idx]))


@dataclass(frozen=True, eq=False)
class Tree:
    """Flat node arrays; feature == -1 marks a leaf.

    Nodes are numbered in preorder, so both children of an internal node
    come after it; arrays that break this (and could send a descent round
    in a loop) are refused.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray  # [n_nodes, 2] training class counts (scene, face)

    def __post_init__(self):
        n = self.n_nodes
        if n < 1:
            raise ForestError("tree has no nodes")
        for name in ("feature", "threshold", "left", "right", "counts"):
            shape = getattr(self, name).shape
            if shape != ((n, 2) if name == "counts" else (n,)):
                raise ForestError(f"tree {name} has shape {shape} for {n} nodes")
        for name in ("feature", "left", "right", "counts"):
            if not np.issubdtype(getattr(self, name).dtype, np.integer):
                raise ForestError(f"tree {name} must hold integers")
        if np.any(self.counts < 0):
            raise ForestError("tree counts must not be negative")
        # a leaf's score is its face fraction, undefined for an empty leaf
        if np.any(self.counts[self.feature < 0].sum(axis=1) == 0):
            raise ForestError("tree counts: a leaf must hold at least one training row")
        inner = np.flatnonzero(self.feature >= 0)
        for name in ("left", "right"):
            child = getattr(self, name)[inner]
            if np.any((child <= inner) | (child >= n)):
                raise ForestError(f"tree {name}: a child must come after its node and below {n}")

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def depth(self) -> int:
        def walk(i, d):
            if self.feature[i] < 0:
                return d
            return max(walk(self.left[i], d + 1), walk(self.right[i], d + 1))

        return walk(0, 0)


@dataclass(frozen=True, eq=False)
class RfModel:
    trees: tuple[Tree, ...]
    hyperparams: RfHyperParams
    seed: tuple[int, ...]
    n_features: int

    def __post_init__(self):
        for tree in self.trees:
            if tree.feature.max() >= self.n_features:
                raise ForestError(f"tree feature {tree.feature.max()} >= {self.n_features}")


def _grow_tree(
    x: np.ndarray, y01: np.ndarray, hp: RfHyperParams, rng: np.random.Generator
) -> Tree:
    n, d = x.shape
    m = n_split_features(hp.max_features, d)
    feature, threshold, left, right, counts = [], [], [], [], []

    def add_node(idx) -> int:
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        counts.append(np.bincount(y01[idx], minlength=2))
        return node

    def grow(idx: np.ndarray, depth: int) -> int:
        node = add_node(idx)
        c = counts[node]
        if (
            depth >= hp.max_depth
            or len(idx) < hp.min_samples_split
            or c[0] == 0
            or c[1] == 0
        ):
            return node
        subset = np.sort(rng.choice(d, size=m, replace=False))
        split = best_split(x[idx], y01[idx], subset, hp.min_samples_leaf, hp.criterion)
        if split is None:
            return node
        f, thr = split
        go_left = x[idx, f] <= thr
        feature[node] = f
        threshold[node] = thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(n), 0)
    return Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
    )


def seed_key(seed, *counters: int) -> tuple[int, ...]:
    """An int seed or a sequence of ints as one tuple, counters appended."""
    base = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    return tuple(int(s) for s in base + counters)


def rf_train(x: np.ndarray, y01: np.ndarray, hp: RfHyperParams, seed=0) -> RfModel:
    """Fit hp.n_estimators trees on seeded bootstrap samples of (x, y01)."""
    x = np.asarray(x, float)
    y01 = np.asarray(y01, np.int64)
    n = len(y01)
    if x.ndim != 2 or x.shape[0] != n:
        raise ForestError(f"x shape {x.shape} does not match {n} labels")
    if n < max(hp.min_samples_split, hp.min_samples_leaf):
        raise ForestError(f"need at least {max(hp.min_samples_split, hp.min_samples_leaf)} samples")
    if len(np.unique(y01)) != 2:
        raise ForestError("both classes must be present")

    base = seed_key(seed)
    trees = []
    for t in range(hp.n_estimators):
        rng = np.random.default_rng(base + (t,))
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(x[boot], y01[boot], hp, rng))
    return RfModel(trees=tuple(trees), hyperparams=hp, seed=base, n_features=x.shape[1])


def rf_predict_proba(model: RfModel, x: np.ndarray) -> np.ndarray:
    """Mean over trees of the leaf face-class fraction, one value per row."""
    x = np.asarray(x, float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ForestError(f"x shape {x.shape} does not match {model.n_features} features")
    out = np.zeros(len(x))
    for tree in model.trees:
        # Descend all rows together, one level per step, until each is at a leaf.
        node = np.zeros(len(x), dtype=np.int64)
        live = np.flatnonzero(tree.feature[node] >= 0)
        while live.size:
            at = node[live]
            go_left = x[live, tree.feature[at]] <= tree.threshold[at]
            node[live] = np.where(go_left, tree.left[at], tree.right[at])
            live = live[tree.feature[node[live]] >= 0]
        c = tree.counts[node]
        out += c[:, 1] / (c[:, 0] + c[:, 1])
    return out / len(model.trees)
