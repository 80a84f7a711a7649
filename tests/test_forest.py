import dataclasses

import numpy as np
import pytest

from attndecode import RfHyperParams, forest, rf_predict_proba, rf_train
from attndecode.forest import (
    ForestError,
    RfModel,
    Tree,
    best_split,
    impurity_table,
    n_split_features,
)


def brute_force_split(x, y01, min_samples_leaf, criterion):
    """Exhaustive (feature, threshold) search; first strict improvement wins."""

    def impurity(labels):
        n = len(labels)
        ones = labels.sum()
        p = ones / n
        if criterion == "gini":
            return 1.0 - p * p - (1.0 - p) ** 2
        h = 0.0
        for q in (p, 1.0 - p):
            if q > 0.0:
                h -= q * np.log2(q)
        return h

    n = len(y01)
    best, best_score = None, np.inf
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            left = x[:, f] <= thr
            nl = int(left.sum())
            if nl < min_samples_leaf or n - nl < min_samples_leaf:
                continue
            score = (
                nl * impurity(y01[left]) + (n - nl) * impurity(y01[~left])
            ) / n
            if score < best_score:
                best_score = score
                best = (f, thr)
    return best


def default_hp(**kw):
    base = dict(
        n_estimators=3,
        max_depth=8,
        min_samples_split=2,
        min_samples_leaf=2,
        max_features="auto",
        criterion="gini",
    )
    base.update(kw)
    return RfHyperParams(**base)


def walk_nodes(tree: Tree):
    out = []

    def rec(i, depth):
        out.append((i, depth, int(tree.counts[i].sum()), tree.feature[i] < 0))
        if tree.feature[i] >= 0:
            rec(tree.left[i], depth + 1)
            rec(tree.right[i], depth + 1)

    rec(0, 0)
    return out


def test_threshold_separable_every_tree_perfect():
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(2, 3, 20)])[:, None]
    y = np.repeat([0, 1], 20)
    model = rf_train(x, y, default_hp(n_estimators=10), seed=1)
    for tree in model.trees:
        proba = rf_predict_proba(dataclasses.replace(model, trees=(tree,)), x)
        assert np.array_equal((proba >= 0.5).astype(int), y)
    assert np.array_equal((rf_predict_proba(model, x) >= 0.5).astype(int), y)


def test_impurity_identities():
    # a row of the table divided by its size is the node's impurity
    for criterion in ("gini", "entropy"):
        w = impurity_table(8, criterion)
        assert w[0, 5] == 0.0 and w[7, 7] == 0.0  # pure nodes
    assert impurity_table(6, "gini")[3, 6] / 6 == pytest.approx(0.5)
    assert impurity_table(6, "entropy")[3, 6] / 6 == pytest.approx(1.0)


def curve_before_tables(n1_left, n_left, n1_total, n_total, criterion):
    """Weighted child impurity per prefix split, as computed elementwise
    before scores came from impurity_table."""

    def imp(ones, size):
        p = ones / size
        if criterion == "gini":
            return 1.0 - p * p - (1.0 - p) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            return -(np.where(p > 0, p * np.log2(p), 0.0)) - np.where(
                p < 1, (1 - p) * np.log2(np.maximum(1 - p, 1e-300)), 0.0
            )

    n_right = n_total - n_left
    return (n_left * imp(n1_left, n_left) + n_right * imp(n1_total - n1_left, n_right)) / n_total


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_table_scores_equal_elementwise_curve_bit_for_bit(criterion):
    rng = np.random.default_rng(11)
    # the table grows with n, then serves every prefix length from 700 down
    # to 1 from its largest size, so every SIMD tail length is hit
    for n in [*range(2, 702, 23), *range(701, 1, -1)]:
        y01 = rng.integers(0, 2, n)
        n1_left = np.cumsum(y01)[:-1]
        n_left = np.arange(1, n)
        total1 = int(y01.sum())
        w = impurity_table(n, criterion)
        got = (w[n1_left, n_left] + w[total1 - n1_left, n - n_left]) / n
        want = curve_before_tables(n1_left, n_left, total1, n, criterion)
        assert np.array_equal(got, want), f"n {n}"


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_matches_brute_force_on_random_data(criterion):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((30, 5))
        y01 = rng.integers(0, 2, size=30)
        if y01.sum() in (0, 30):
            y01[0] = 1 - y01[0]
        got = best_split(x, y01, np.arange(5), 2, criterion)
        want = brute_force_split(x, y01, 2, criterion)
        assert got == want, f"seed {seed}"


def tie_heavy_problem(rng):
    """Four distinct values per feature over 30 rows, both classes present."""
    x = rng.integers(0, 4, (30, 5)).astype(float)
    y01 = rng.integers(0, 2, size=30)
    if y01.sum() in (0, 30):
        y01[0] = 1 - y01[0]
    return x, y01


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_matches_brute_force_on_tie_heavy_data(criterion):
    for seed in range(20):
        x, y01 = tie_heavy_problem(np.random.default_rng(seed))
        got = best_split(x, y01, np.arange(5), 2, criterion)
        want = brute_force_split(x, y01, 2, criterion)
        assert got == want, f"seed {seed}"


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_ignores_row_order_on_tie_heavy_data(criterion):
    # the sort that orders each column may order tied values any way
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x, y01 = tie_heavy_problem(rng)
        want = best_split(x, y01, np.arange(5), 2, criterion)
        for _ in range(5):
            p = rng.permutation(len(y01))
            assert best_split(x[p], y01[p], np.arange(5), 2, criterion) == want, f"seed {seed}"


@pytest.mark.parametrize("criterion", ["gini", "entropy"])
def test_split_search_in_blocks_keeps_the_first_tie(monkeypatch, criterion):
    # columns come in equal pairs, shifted by one so that each pair straddles
    # the edge between two-column blocks and its scores tie across blocks
    monkeypatch.setattr(forest, "BLOCK_CELLS", 60)
    for seed in range(10):
        x, y01 = tie_heavy_problem(np.random.default_rng(200 + seed))
        x = np.repeat(x, 2, axis=1)[:, 1:]
        want = brute_force_split(x, y01, 2, criterion)
        assert best_split(x, y01, np.arange(x.shape[1]), 2, criterion) == want, f"seed {seed}"


def test_split_none_when_all_features_constant():
    x = np.ones((10, 3))
    y01 = np.repeat([0, 1], 5)
    assert best_split(x, y01, np.arange(3), 2, "gini") is None


def test_degenerate_constant_features_give_single_leaf_trees():
    x = np.ones((12, 4))
    y01 = np.repeat([0, 1], 6)
    model = rf_train(x, y01, default_hp(), seed=0)
    for tree in model.trees:
        assert tree.n_nodes == 1 and tree.feature[0] == -1
    # probability equals the bootstrap class fraction, not a failure
    assert np.all((rf_predict_proba(model, x) >= 0) & (rf_predict_proba(model, x) <= 1))


def test_proba_hand_traced_two_tree_forest():
    # tree A: x0 <= 0.5 -> counts (4, 0) else (0, 4)
    tree_a = Tree(
        feature=np.array([0, -1, -1]),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        counts=np.array([[4, 4], [4, 0], [0, 4]]),
    )
    # tree B: x1 <= 0.0 -> counts (1, 3) else (3, 1)
    tree_b = Tree(
        feature=np.array([1, -1, -1]),
        threshold=np.array([0.0, 0.0, 0.0]),
        left=np.array([1, -1, -1]),
        right=np.array([2, -1, -1]),
        counts=np.array([[4, 4], [1, 3], [3, 1]]),
    )
    hp = default_hp(n_estimators=2)
    model = RfModel(trees=(tree_a, tree_b), hyperparams=hp, seed=(0,), n_features=2)
    x = np.array([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    want = np.array(
        [(0.0 + 0.75) / 2, (0.0 + 0.25) / 2, (1.0 + 0.75) / 2, (1.0 + 0.25) / 2]
    )
    np.testing.assert_array_equal(rf_predict_proba(model, x), want)


def test_proba_equals_row_by_row_tree_walk():
    # deep trees whose rows reach leaves at different levels
    rng = np.random.default_rng(4)
    x = rng.standard_normal((80, 6))
    y01 = (x[:, 0] + x[:, 1] * x[:, 2] + 0.3 * rng.standard_normal(80) > 0).astype(np.int64)
    model = rf_train(x, y01, default_hp(n_estimators=5, max_depth=20), seed=3)
    q = rng.standard_normal((50, 6))
    want = np.zeros(len(q))
    for tree in model.trees:
        for r, row in enumerate(q):
            i = 0
            while tree.feature[i] >= 0:
                i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
            want[r] += tree.counts[i][1] / tree.counts[i].sum()
    assert max(t.depth() for t in model.trees) >= 4
    np.testing.assert_array_equal(rf_predict_proba(model, q), want / len(model.trees))


def test_two_pure_disagreeing_trees_give_half():
    leaf_face = Tree(
        feature=np.array([-1]), threshold=np.zeros(1), left=np.array([-1]),
        right=np.array([-1]), counts=np.array([[0, 8]]),
    )
    leaf_scene = Tree(
        feature=np.array([-1]), threshold=np.zeros(1), left=np.array([-1]),
        right=np.array([-1]), counts=np.array([[8, 0]]),
    )
    hp = default_hp(n_estimators=2)
    model = RfModel(trees=(leaf_face, leaf_scene), hyperparams=hp, seed=(0,), n_features=1)
    assert rf_predict_proba(model, np.zeros((3, 1)))[0] == 0.5
    model_all_face = RfModel(
        trees=(leaf_face, leaf_face), hyperparams=hp, seed=(0,), n_features=1
    )
    assert rf_predict_proba(model_all_face, np.zeros((1, 1)))[0] == 1.0


def test_structural_invariants():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((120, 12))
    y01 = (x[:, 0] + 0.3 * rng.standard_normal(120) > 0).astype(int)
    hp = default_hp(
        n_estimators=6, max_depth=5, min_samples_split=8, min_samples_leaf=3,
        max_features="sqrt", criterion="entropy",
    )
    model = rf_train(x, y01, hp, seed=3)
    for tree in model.trees:
        assert tree.depth() <= hp.max_depth
        for _, depth, size, is_leaf in walk_nodes(tree):
            if is_leaf:
                assert size >= hp.min_samples_leaf
            else:
                assert size >= hp.min_samples_split
            assert depth <= hp.max_depth


def test_feature_subset_sizes():
    assert n_split_features("auto", 640) == 640
    assert n_split_features("sqrt", 640) == 26
    assert n_split_features("log2", 640) == 10
    assert n_split_features("sqrt", 3) == 2


def test_deterministic_per_seed_and_counter_derived_streams():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 6))
    y01 = rng.integers(0, 2, 60)
    a = rf_train(x, y01, default_hp(), seed=4)
    b = rf_train(x, y01, default_hp(), seed=4)
    for ta, tb in zip(a.trees, b.trees):
        np.testing.assert_array_equal(ta.feature, tb.feature)
        np.testing.assert_array_equal(ta.threshold, tb.threshold)
        np.testing.assert_array_equal(ta.counts, tb.counts)
    # different trees come from different streams
    assert not np.array_equal(a.trees[0].counts, a.trees[1].counts)


def test_proba_permutation_equivariance():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((50, 4))
    y01 = rng.integers(0, 2, 50)
    model = rf_train(x, y01, default_hp(), seed=2)
    perm = rng.permutation(50)
    np.testing.assert_array_equal(
        rf_predict_proba(model, x[perm]), rf_predict_proba(model, x)[perm]
    )


def test_hyperparams_validated():
    with pytest.raises(ForestError):
        default_hp(n_estimators=1)
    with pytest.raises(ForestError):
        default_hp(max_depth=25)
    with pytest.raises(ForestError):
        default_hp(min_samples_split=1)
    with pytest.raises(ForestError):
        default_hp(min_samples_leaf=6)
    with pytest.raises(ForestError):
        default_hp(max_features="half")
    with pytest.raises(ForestError):
        default_hp(criterion="variance")


def test_train_preconditions():
    x = np.zeros((4, 2))
    with pytest.raises(ForestError, match="both classes"):
        rf_train(x, np.zeros(4, dtype=int), default_hp(), seed=0)
    with pytest.raises(ForestError, match="at least"):
        rf_train(
            x[:3], np.array([0, 1, 0]), default_hp(min_samples_split=4), seed=0
        )


def test_every_split_search_goes_through_the_module_binding(monkeypatch):
    # a profiler that rebinds forest.best_split must see every search, with
    # the node's labels at position 1 and its feature subset at position 2
    seen = []
    search = forest.best_split

    def counting(*args):
        seen.append((len(args[1]), int(args[1].sum()), len(args[2])))
        return search(*args)

    monkeypatch.setattr(forest, "best_split", counting)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((90, 16))
    y01 = rng.integers(0, 2, 90)
    hp = default_hp(n_estimators=4, max_depth=6, min_samples_split=6, max_features="sqrt")
    model = rf_train(x, y01, hp, seed=5)
    searched = []
    for tree in model.trees:
        for i, depth, size, _ in walk_nodes(tree):  # preorder, the order nodes grow in
            c = tree.counts[i]
            if depth < hp.max_depth and size >= hp.min_samples_split and c.min() > 0:
                searched.append((size, int(c[1]), n_split_features(hp.max_features, 16)))
    assert any(tree.feature[0] >= 0 for tree in model.trees)
    assert seen == searched
