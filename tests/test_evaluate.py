import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attndecode import (
    EvalError,
    FoldTransform,
    ModelSpec,
    cross_validate,
    load_model,
    model_from_json,
    model_to_json,
    roc_auc,
    save_model,
    stratified_kfold,
    train_full_model,
)
from attndecode.evaluate import TrainedModel, build_cv_plan, evaluate_on_plan
from attndecode.features import ERP_SAMPLES, N_FEATURES, ErpEpochs, FeatureMatrix, column_names
from attndecode.forest import ForestError
from attndecode.recording import CHANNELS
from attndecode.svm import SvmError

SVM_SPEC = ModelSpec("svm", {"C": 10.0, "gamma": 0.001})
RF_SPEC = ModelSpec(
    "rf",
    {
        "n_estimators": 8,
        "max_depth": 10,
        "min_samples_split": 2,
        "min_samples_leaf": 2,
        "max_features": "sqrt",
        "criterion": "gini",
    },
)


def brute_force_auc(scores, y):
    pos = scores[y > 0]
    neg = scores[y < 0]
    wins = ties = 0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1
            elif p == q:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def make_feature_matrix(n_trials, rng, planted_col=None, gap=2.0, erp_gap=0.0):
    """Synthetic FeatureMatrix: a handful of live noise columns (the rest
    constant), an optional planted label rule in one column, and optional
    class signal in the companion ERP epochs.

    With iid noise in all 640 columns an RBF kernel cannot see one planted
    column (pairwise distances concentrate), so the fixture mimics real
    matrices where few directions carry variance.
    """
    labels = np.array(["face", "scene"] * (n_trials // 2), dtype="U5")
    y = np.where(labels == "face", 1.0, -1.0)
    values = np.zeros((n_trials, N_FEATURES))
    values[:, 420:430] = rng.standard_normal((n_trials, 10))
    if planted_col is not None:
        values[:, planted_col] = gap * y + 0.1 * rng.standard_normal(n_trials)
    erp = rng.standard_normal((n_trials, len(CHANNELS), ERP_SAMPLES))
    erp += erp_gap * y[:, None, None]
    block_of = np.repeat(np.arange(max(1, n_trials // 8)), 8)[:n_trials]
    return FeatureMatrix(
        values=values,
        columns=column_names(),
        labels=labels,
        block_of=block_of,
        erp=ErpEpochs(data=erp, labels=labels, block_of=block_of),
    )


# -- stratified folds -------------------------------------------------------------


def test_folds_balanced_for_320_trials():
    labels = np.array(["face"] * 160 + ["scene"] * 160)
    folds = stratified_kfold(labels, seed=0)
    for f in folds:
        assert len(f) == 64
        assert np.sum(labels[f] == "face") == 32
        assert np.sum(labels[f] == "scene") == 32


def test_folds_partition_all_indices():
    rng = np.random.default_rng(1)
    labels = rng.choice(["face", "scene"], size=103, p=[0.3, 0.7])
    folds = stratified_kfold(labels, seed=3)
    allidx = np.concatenate(folds)
    assert len(allidx) == 103
    assert len(np.unique(allidx)) == 103
    # per-fold class counts within one sample of n_c / k
    for cls in ("face", "scene"):
        n_c = int(np.sum(labels == cls))
        for f in folds:
            got = int(np.sum(labels[f] == cls))
            assert abs(got - n_c / 5) < 1.0


def test_folds_deterministic():
    labels = np.array(["face", "scene"] * 30)
    a = stratified_kfold(labels, seed=7)
    b = stratified_kfold(labels, seed=7)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    c = stratified_kfold(labels, seed=8)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))


def test_folds_small_class_rejected():
    labels = np.array(["face"] * 4 + ["scene"] * 30)
    with pytest.raises(EvalError, match="face"):
        stratified_kfold(labels, seed=0)


# -- ROC / AUC -----------------------------------------------------------------------


def test_roc_auc_frozen_example():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    points, auc = roc_auc(scores, y)
    assert auc == 0.75
    assert auc == brute_force_auc(scores, y)
    np.testing.assert_array_equal(points[0], [0.0, 0.0])
    np.testing.assert_array_equal(points[-1], [1.0, 1.0])


def test_roc_auc_perfect_separation():
    scores = np.array([-2.0, -1.0, 1.0, 2.0])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    points, auc = roc_auc(scores, y)
    assert auc == 1.0
    assert [0.0, 1.0] in points.tolist()


def test_roc_auc_all_ties():
    scores = np.zeros(10)
    y = np.array([1.0, -1.0] * 5)
    _, auc = roc_auc(scores, y)
    assert auc == 0.5


def test_roc_single_class_rejected():
    with pytest.raises(EvalError, match="both classes"):
        roc_auc(np.arange(4.0), np.ones(4))


@settings(deadline=None, max_examples=100)
@given(
    n=st.integers(min_value=2, max_value=200),
    seed=st.integers(min_value=0, max_value=10_000),
    quantize=st.booleans(),
)
def test_auc_matches_pair_counting_oracle(n, seed, quantize):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n)
    if quantize:  # force ties
        scores = np.round(scores, 1)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y > 0) or np.all(y < 0):
        y[0] = -y[0]
    _, auc = roc_auc(scores, y)
    assert auc == brute_force_auc(scores, y)


def test_roc_monotone_on_random_scores():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(300)
    y = np.where(rng.random(300) < 0.4, 1.0, -1.0)
    points, _ = roc_auc(scores, y)
    assert np.all(np.diff(points, axis=0) >= 0.0)


# -- cross-validation -------------------------------------------------------------------


def relabel_by_column(fm, column):
    """Planted rule: labels become a deterministic function of one column."""
    import dataclasses

    col = fm.columns.index(column)
    v = fm.values[:, col]
    labels = np.where(v > np.median(v), "face", "scene").astype("U5")
    erp = dataclasses.replace(fm.erp, labels=labels)
    return dataclasses.replace(fm, labels=labels, erp=erp)


def test_planted_rule_svm_and_rf_reach_95_percent():
    rng = np.random.default_rng(10)
    fm = make_feature_matrix(40, rng, planted_col=7, erp_gap=0.5)
    rep_svm = cross_validate(fm, SVM_SPEC, seed=1)
    assert rep_svm.mean_accuracy >= 0.95
    rf_spec = ModelSpec("rf", {**RF_SPEC.params, "max_features": "auto"})
    rep_rf = cross_validate(fm, rf_spec, seed=1)
    assert rep_rf.mean_accuracy >= 0.95


def test_relabeled_real_matrix_recoverable(twoblock_full_fm):
    # labels replaced by a median split of one real feature column: the rule
    # spreads over that column's correlated neighbours and is recovered well
    # above chance by both models
    fm = relabel_by_column(twoblock_full_fm, "hilb:PO7:theta:energy")
    rep_svm = cross_validate(fm, SVM_SPEC, seed=1)
    assert rep_svm.mean_accuracy >= 0.7
    rf_spec = ModelSpec("rf", {**RF_SPEC.params, "max_features": "auto"})
    rep_rf = cross_validate(fm, rf_spec, seed=1)
    assert rep_rf.mean_accuracy >= 0.9


def test_null_features_near_chance_small_n():
    rng = np.random.default_rng(11)
    fm = make_feature_matrix(40, rng)
    rep = cross_validate(fm, SVM_SPEC, seed=2)
    assert abs(rep.mean_accuracy - 0.5) <= 0.25  # loose bound at n = 40


def test_same_seed_identical_report():
    rng = np.random.default_rng(12)
    fm = make_feature_matrix(40, rng, planted_col=3)
    a = cross_validate(fm, SVM_SPEC, seed=5)
    b = cross_validate(fm, SVM_SPEC, seed=5)
    assert a.to_dict() == b.to_dict()


def test_shared_plan_scores_like_cross_validate():
    rng = np.random.default_rng(16)
    fm = make_feature_matrix(40, rng, planted_col=3, erp_gap=0.5)
    plan = build_cv_plan(fm, 4)
    rf = evaluate_on_plan(plan, RF_SPEC, 4)
    # RF never reads the fold kernels' distances, so the plan never builds them
    assert all("d2_train" not in vars(fold) for fold in plan.folds)
    svm = evaluate_on_plan(plan, SVM_SPEC, 4)
    assert rf.to_dict() == cross_validate(fm, RF_SPEC, seed=4).to_dict()
    assert svm.to_dict() == cross_validate(fm, SVM_SPEC, seed=4).to_dict()


def test_scaling_features_by_power_of_two_preserves_predictions():
    rng = np.random.default_rng(13)
    fm = make_feature_matrix(40, rng, planted_col=3)
    import dataclasses

    fm4 = dataclasses.replace(fm, values=4.0 * np.array(fm.values))
    a = cross_validate(fm, SVM_SPEC, seed=6)
    b = cross_validate(fm4, SVM_SPEC, seed=6)
    assert a.fold_accuracies == b.fold_accuracies
    assert a.confusion == b.confusion


def test_lda_columns_filled_at_fold_time():
    # class signal ONLY in the raw ERP epochs: separable through the LDA path
    rng = np.random.default_rng(14)
    fm = make_feature_matrix(60, rng, erp_gap=1.0)
    rep = cross_validate(fm, SVM_SPEC, seed=7)
    assert rep.mean_accuracy >= 0.9


def _transform_arrays(ft):
    return [getattr(ft, f.name) for f in dataclasses.fields(ft)]


def test_fold_transform_fit_never_reads_held_out_rows():
    rng = np.random.default_rng(18)
    fm = make_feature_matrix(40, rng, planted_col=4, erp_gap=1.0)
    train_idx, held = np.arange(30), np.arange(30, 40)
    values = np.array(fm.values)
    values[held] = 100.0 * rng.standard_normal((10, N_FEATURES))
    erp = np.array(fm.erp.data)
    erp[held] = 100.0 * rng.standard_normal((10, len(CHANNELS), ERP_SAMPLES))
    labels = np.array(fm.labels)
    labels[held] = np.where(labels[held] == "face", "scene", "face")
    changed = dataclasses.replace(
        fm,
        values=values,
        labels=labels,
        erp=dataclasses.replace(fm.erp, data=erp, labels=labels),
    )
    a = _transform_arrays(FoldTransform.fit(fm, train_idx))
    b = _transform_arrays(FoldTransform.fit(changed, train_idx))
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("spec", [SVM_SPEC, RF_SPEC], ids=["svm", "rf"])
def test_full_model_transform_is_fit_on_every_row(spec):
    rng = np.random.default_rng(19)
    fm = make_feature_matrix(40, rng, planted_col=2, erp_gap=0.5)
    model = train_full_model(fm, spec, seed=2)
    ref = FoldTransform.fit(fm, np.arange(fm.n_trials))
    for x, y in zip(_transform_arrays(model.transform), _transform_arrays(ref)):
        assert x.tobytes() == y.tobytes()


def test_fold_failure_reports_fold_id(monkeypatch):
    rng = np.random.default_rng(15)
    fm = make_feature_matrix(40, rng)
    import attndecode.evaluate as ev

    real = ev.svm_train
    calls = {"n": 0}

    def boom(*args, **kwargs):
        if calls["n"] == 2:
            raise RuntimeError("synthetic failure")
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ev, "svm_train", boom)
    with pytest.raises(EvalError, match="fold 2"):
        ev.cross_validate(fm, SVM_SPEC, seed=8)


def test_eval_report_validation():
    from attndecode.evaluate import EvalReport

    good = dict(
        model_kind="svm",
        params={"C": 1.0, "gamma": 0.1},
        fold_accuracies=(0.5, 0.6),
        mean_accuracy=0.55,
        roc_points=np.array([[0.0, 0.0], [0.5, 0.7], [1.0, 1.0]]),
        auc=0.6,
        confusion={"tp": 1, "fp": 1, "tn": 1, "fn": 1},
        seed=0,
    )
    EvalReport(**good)
    with pytest.raises(EvalError):
        EvalReport(**{**good, "auc": 1.5})
    with pytest.raises(EvalError):
        EvalReport(
            **{**good, "roc_points": np.array([[0.0, 0.0], [0.6, 0.2], [0.4, 1.0], [1.0, 1.0]])}
        )


# -- trained-model serialization ------------------------------------------------------


@pytest.mark.parametrize("spec", [SVM_SPEC, RF_SPEC], ids=["svm", "rf"])
def test_model_serialization_roundtrip_bit_exact(tmp_path, spec):
    rng = np.random.default_rng(16)
    fm = make_feature_matrix(40, rng, planted_col=5)
    model = train_full_model(fm, spec, seed=9)
    save_model(model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    a = model.decision(fm.values, fm.erp.data)
    b = loaded.decision(fm.values, fm.erp.data)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(
        model.predict(fm.values, fm.erp.data), loaded.predict(fm.values, fm.erp.data)
    )
    text = (tmp_path / "model.json").read_text()
    assert model_to_json(model_from_json(text)) == text


@pytest.fixture(scope="module")
def model_docs():
    fm = make_feature_matrix(40, np.random.default_rng(20), planted_col=5)
    return {
        spec.kind: json.loads(model_to_json(train_full_model(fm, spec, seed=3)))
        for spec in (SVM_SPEC, RF_SPEC)
    }


def _tree(doc):
    return doc["rf"]["trees"][0]


def _leaf_counts(doc, counts):
    leaf = _tree(doc)["feature"].index(-1)
    _tree(doc)["counts"][leaf] = counts


MISSING_FIELDS = [
    ("rf", ("lda_w",)),
    ("svm", ("svm",)),
    ("svm", ("svm", "dual_coef")),
    ("rf", ("rf", "trees")),
    ("rf", ("kind",)),
]


def _pop_field(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _one_node_self_loop(doc):
    # the root splits and sends every row back to itself
    doc["rf"]["trees"][0] = dict(
        feature=[0], threshold=[0.0], left=[0], right=[0], counts=[[1, 1]]
    )


@pytest.mark.parametrize(
    "kind, edit, error, message",
    [
        ("rf", lambda d: _tree(d)["threshold"].pop(), ForestError, "tree threshold has shape"),
        ("rf", lambda d: _tree(d).update(counts=[c[:1] for c in _tree(d)["counts"]]),
         ForestError, "tree counts has shape"),
        ("rf", _one_node_self_loop, ForestError, "tree left: a child must come after its node"),
        ("rf", lambda d: _tree(d)["right"].__setitem__(0, len(_tree(d)["right"])),
         ForestError, "tree right: a child must come after its node"),
        ("rf", lambda d: _tree(d)["left"].__setitem__(0, 1.5), ForestError,
         "tree left must hold integers"),
        ("rf", lambda d: _tree(d)["feature"].__setitem__(0, N_FEATURES), ForestError,
         f"tree feature {N_FEATURES} >= {N_FEATURES}"),
        ("svm", lambda d: d["svm"].update(C=2.0), EvalError, "differs from params"),
        ("svm", lambda d: d["svm"].update(gamma=0.002), EvalError, "differs from params"),
        ("svm", lambda d: [row.pop() for row in d["svm"]["support_vectors"]], EvalError,
         f"model takes {N_FEATURES - 1} features"),
        ("svm", lambda d: d["svm"]["dual_coef"].pop(), SvmError, "dual_coef must hold one value"),
        ("svm", lambda d: d["svm"]["sv_index"].append(0), SvmError, "sv_index must hold one value"),
        ("svm", lambda d: d["col_mean"].pop(), EvalError, "col_mean has shape"),
        ("svm", lambda d: d["col_std"].append(1.0), EvalError, "col_std has shape"),
        ("rf", lambda d: d["lda_w"].pop(), EvalError, "lda_w has shape"),
        ("rf", lambda d: d["lda_b"].pop(), EvalError, "lda_b has shape"),
        ("rf", lambda d: _leaf_counts(d, [0, 0]), ForestError,
         "tree counts: a leaf must hold at least one training row"),
        ("rf", lambda d: _leaf_counts(d, [-1, 3]), ForestError, "tree counts must not be negative"),
        ("rf", lambda d: _leaf_counts(d, [1.5, 3]), ForestError, "tree counts must hold integers"),
        ("rf", lambda d: d["lda_w"][0].pop(), EvalError, "lda_w: .*inhomogeneous"),
        ("svm", lambda d: d["col_std"].__setitem__(0, "wide"), EvalError,
         "^model file field 'col_std' must hold numbers, got str$"),
        *[
            (kind, lambda d, path=path: _pop_field(d, path), EvalError,
             f"model file has no field '{path[-1]}'")
            for kind, path in MISSING_FIELDS
        ],
        ("svm", lambda d: d.update(schema_version=1), EvalError,
         "^model file is schema 1; this version reads 2 — re-run evaluate$"),
        # these edits return the file's text instead of changing the document
        ("svm", lambda d: json.dumps([d]), EvalError,
         "^model file must be a JSON object, got list$"),
        ("svm", lambda d: d.update(params=5), EvalError,
         "^model file field 'params' must be a JSON object, got int$"),
        ("rf", lambda d: json.dumps(d)[:-1], EvalError, "^model file is not JSON: "),
        ("rf", lambda d: d["rf"]["trees"].__setitem__(0, 5), EvalError,
         r"^model file field 'rf.trees\[0\]' must be a JSON object, got int$"),
        ("rf", lambda d: d["rf"]["trees"].__setitem__(0, [1, 2]), EvalError,
         r"^model file field 'rf.trees\[0\]' must be a JSON object, got list$"),
        ("rf", lambda d: d["rf"].update(trees=5), EvalError,
         "^model file field 'rf.trees' must be a list, got int$"),
        ("rf", lambda d: _tree(d).update(feature=[str(f) for f in _tree(d)["feature"]]),
         EvalError, r"^model file field 'rf\.trees\[0\]\.feature' must hold numbers, got str$"),
        ("rf", lambda d: d["rf"].update(seed="abc"), EvalError,
         r"^model file field 'rf\.seed' must be a list, got str$"),
        ("rf", lambda d: d["params"].update(n_estimators="x"), EvalError,
         "^params field 'n_estimators' must be an integer, got str$"),
        ("svm", lambda d: d["svm"].update(bias="x"), EvalError,
         r"^model file field 'svm\.bias' must be a number, got str$"),
        ("svm", lambda d: d["svm"].update(bias=None), EvalError,
         r"^model file field 'svm\.bias' must be a number, got NoneType$"),
        ("svm", lambda d: d["svm"].update(C="x"), EvalError,
         r"^model file field 'svm\.C' must be a number, got str$"),
        ("svm", lambda d: d["svm"].update(support_vectors=5), EvalError,
         r"^model file field 'svm\.support_vectors' must be a list, got int$"),
        ("svm", lambda d: d["svm"].update(n_passes="x"), EvalError,
         r"^model file field 'svm\.n_passes' must be an integer, got str$"),
        ("svm", lambda d: d["svm"].update(dual_objective="x"), EvalError,
         r"^model file field 'svm\.dual_objective' must be a number, got str$"),
        ("svm", lambda d: d["svm"].update(sv_index=[i + 0.5 for i in d["svm"]["sv_index"]]),
         SvmError, "^sv_index must hold integers$"),
        ("rf", lambda d: _tree(d).update(threshold=[str(t) for t in _tree(d)["threshold"]]),
         EvalError, r"^model file field 'rf\.trees\[0\]\.threshold' must hold numbers, got str$"),
        ("rf", lambda d: d["rf"].update(trees=[]), ForestError, "^forest has no trees$"),
        ("rf", lambda d: d["rf"].update(n_features="abc"), EvalError,
         r"^model file field 'rf\.n_features' must be an integer, got str$"),
        ("rf", lambda d: d["rf"].update(n_features=None), EvalError,
         r"^model file field 'rf\.n_features' must be an integer, got NoneType$"),
        ("rf", lambda d: d["params"].update(n_estimators=7.9), EvalError,
         "^params field 'n_estimators' must be an integer, got float$"),
        ("rf", lambda d: d["params"].update(n_estimators="7"), EvalError,
         "^params field 'n_estimators' must be an integer, got str$"),
        # np.array([True, 0.5]) would read the bool as 1.0
        ("rf", lambda d: _tree(d)["threshold"].__setitem__(0, True), EvalError,
         r"^model file field 'rf\.trees\[0\]\.threshold' must hold numbers, got bool$"),
        ("svm", lambda d: d["col_std"].__setitem__(3, False), EvalError,
         "^model file field 'col_std' must hold numbers, got bool$"),
        # json.dumps writes NaN and Infinity, which no JSON parser here accepts
        ("svm", lambda d: d["col_std"].__setitem__(3, float("nan")), EvalError,
         "^model file is not JSON: number NaN is not a finite float$"),
        ("svm", lambda d: d["svm"].update(bias=float("inf")), EvalError,
         "^model file is not JSON: number Infinity is not a finite float$"),
    ],
    ids=[
        "tree_unequal_lengths", "tree_counts_not_n_by_2", "tree_child_loops_back",
        "tree_child_past_end", "tree_child_not_integer", "tree_feature_past_n_features",
        "svm_C_differs", "svm_gamma_differs", "support_vector_width", "dual_coef_length",
        "sv_index_length", "col_mean_length", "col_std_length", "lda_w_shape", "lda_b_shape",
        "tree_leaf_counts_empty", "tree_counts_negative",
        "tree_counts_not_integer", "lda_w_ragged", "col_std_not_numeric",
        *[f"missing_{path[-1]}" for _, path in MISSING_FIELDS], "schema_v1",
        "top_level_array", "params_not_object", "not_json", "tree_entry_int",
        "tree_entry_list", "trees_not_list", "tree_feature_strings", "seed_not_integers",
        "n_estimators_not_integer", "svm_bias_string", "svm_bias_null", "svm_C_string",
        "support_vectors_int", "n_passes_string", "dual_objective_string",
        "sv_index_not_integer", "tree_threshold_strings", "trees_empty", "n_features_string",
        "n_features_null", "n_estimators_fractional", "n_estimators_numeric_string",
        "tree_threshold_bool", "col_std_bool", "col_std_nan", "bias_infinity",
    ],
)
def test_malformed_model_file_is_refused(model_docs, kind, edit, error, message):
    # only loading runs: a model that loaded could hang in prediction
    doc = copy.deepcopy(model_docs[kind])
    text = edit(doc)
    with pytest.raises(error, match=message):
        model_from_json(text if isinstance(text, str) else json.dumps(doc))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4,
)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(kind=st.sampled_from(["svm", "rf"]), data=st.data())
def test_any_one_field_edit_loads_or_is_refused(model_docs, kind, data):
    # replace or delete one field at any depth with any JSON value; only
    # the containers on the way down are copied
    doc = node = dict(model_docs[kind])
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node[key] = node = copy.copy(child)
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(JSON_VALUES)
    try:
        assert isinstance(model_from_json(json.dumps(doc)), TrainedModel)
    except (EvalError, ForestError, SvmError):
        pass


def test_model_json_schema_versioned():
    rng = np.random.default_rng(17)
    fm = make_feature_matrix(40, rng)
    model = train_full_model(fm, SVM_SPEC, seed=1)
    text = model_to_json(model)
    assert '"schema_version":2' in text
    assert "\n" not in text.rstrip("\n")  # compact: one line
    doc = json.loads(text)
    doc["schema_version"] = 99
    with pytest.raises(EvalError, match="schema"):
        model_from_json(json.dumps(doc))


def test_model_spec_validation():
    with pytest.raises(EvalError):
        ModelSpec("boost", {})
    with pytest.raises(Exception):
        ModelSpec("svm", {"C": 1.0})  # missing gamma
