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


_IMPURITY_TABLES: dict[str, np.ndarray] = {}
# best_split scores at most about this many (feature, row) cells at a time,
# so a block's temporaries stay in cache and in memory the allocator reuses
BLOCK_CELLS = 1 << 15


def impurity_table(n: int, criterion: str) -> np.ndarray:
    """W[ones, size] = size * impurity(ones / size) for 0 <= ones, size <= n.

    One table per criterion, rebuilt only when a node larger than any before
    it needs scoring. Each entry depends on its own two counts only, so a
    table of any size holds the same bits. Entries with size 0 or
    ones > size are never read. W.T is C-contiguous.
    """
    w = _IMPURITY_TABLES.get(criterion)
    if w is None or len(w) <= n:
        size = np.arange(n + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = size / size[:, None]  # face share, one row per size
            if criterion == "gini":
                imp = 1.0 - p * p - (1.0 - p) ** 2
            else:
                imp = -(np.where(p > 0, p * np.log2(p), 0.0)) - np.where(
                    p < 1, (1 - p) * np.log2(np.maximum(1 - p, 1e-300)), 0.0
                )
            w = (size[:, None] * imp).T
        _IMPURITY_TABLES[criterion] = w
    return w


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
    (feature_subset must be sorted). A candidate's weighted child impurity
    depends only on integer counts, so every score is two lookups in
    impurity_table.
    """
    n = len(y01)
    total1 = int(y01.sum())
    w = impurity_table(n, criterion)
    # W[ones, size] sits at size * stride + ones, so the right child's
    # W[total1 - ones, n - size] sits at `far` minus the left child's offset
    by_size, stride = w.T.ravel(), len(w)
    far = n * stride + total1
    n_left = np.arange(1, n)
    leaf_ok = (n_left >= min_samples_leaf) & (n - n_left >= min_samples_leaf)
    if not leaf_ok.any():
        return None
    best, best_score = None, np.inf
    step = max(1, BLOCK_CELLS // n)
    for start in range(0, len(feature_subset), step):
        # Feature-major: row f holds block[f], so argmin's first hit follows
        # the feature-then-threshold tie-break order.
        block = feature_subset[start : start + step]
        sub = x.T[block]
        # Two sorts, any tie order: at every boundary sv[r] < sv[r + 1] the
        # rows left of it are exactly those with value <= sv[r].
        order = np.argsort(sub, axis=1)
        sv = np.sort(sub, axis=1)
        offset = np.cumsum(y01[order], axis=1)[:, :-1]
        offset += n_left * stride
        score = by_size[offset]
        score += by_size[np.subtract(far, offset, out=offset)]
        score /= n
        score[~((sv[:, 1:] > sv[:, :-1]) & leaf_ok)] = np.inf
        j = int(np.argmin(score))
        if score.flat[j] < best_score:  # strict, so an earlier block keeps a tie
            best_score = score.flat[j]
            f_idx, row = divmod(j, n - 1)
            best = int(block[f_idx]), float(0.5 * (sv[f_idx, row] + sv[f_idx, row + 1]))
    return best


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
        if not self.trees:
            raise ForestError("forest has no trees")
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
        # called through the module global, positionally: a profiler may
        # rebind forest.best_split and read y01 and the subset by position
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
