"""Stratified cross-validation, ROC/AUC metrics, and full trained models.

A fold pipeline is: fit the per-channel LDA on the training trials' ERP
epochs and fill the 8 LDA columns for train and test, standardize each
column on training statistics only, train the classifier, then score the
held-out trials. Test scores are pooled across folds for one ROC/AUC.
Since folds, LDA and standardization do not depend on the hyperparameters,
they are computed once per (matrix, seed) in a CvPlan and shared across a
tuning study's trials and across the model kinds that evaluate scores.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .features import (
    ERP_SAMPLES,
    LDA_COL_START,
    FeatureMatrix,
    lda_fit,
    lda_project,
)
from .forest import RfHyperParams, RfModel, Tree, rf_predict_proba, rf_train
from .recording import CHANNELS
from .svm import SvmHyperParams, SvmModel, squared_distances, svm_decision, svm_train

MODEL_KINDS = ("svm", "rf")
N_FOLDS = 5


class EvalError(ValueError):
    """Invalid evaluation input or a failed fold."""


def labels_to_y(labels: np.ndarray) -> np.ndarray:
    """face -> +1, scene -> -1."""
    return np.where(np.asarray(labels) == "face", 1.0, -1.0)


@dataclass(frozen=True)
class ModelSpec:
    """Classifier kind plus its hyperparameter values."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise EvalError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        self.hyperparams()

    def hyperparams(self):
        if self.kind == "svm":
            return SvmHyperParams(C=float(self.params["C"]), gamma=float(self.params["gamma"]))
        return RfHyperParams(
            n_estimators=int(self.params["n_estimators"]),
            max_depth=int(self.params["max_depth"]),
            min_samples_split=int(self.params["min_samples_split"]),
            min_samples_leaf=int(self.params["min_samples_leaf"]),
            max_features=str(self.params["max_features"]),
            criterion=str(self.params["criterion"]),
        )


@dataclass(frozen=True, eq=False)
class EvalReport:
    model_kind: str
    params: dict
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    roc_points: np.ndarray
    auc: float
    confusion: dict
    seed: int

    def __post_init__(self):
        if not all(0.0 <= a <= 1.0 for a in self.fold_accuracies):
            raise EvalError("fold accuracy outside [0, 1]")
        if not 0.0 <= self.auc <= 1.0:
            raise EvalError(f"AUC {self.auc} outside [0, 1]")
        pts = self.roc_points
        if np.any(np.diff(pts, axis=0) < -1e-12):
            raise EvalError("ROC points are not monotone")
        if not (np.allclose(pts[0], (0, 0)) and np.allclose(pts[-1], (1, 1))):
            raise EvalError("ROC must run from (0,0) to (1,1)")

    def to_dict(self) -> dict:
        return {
            "model_kind": self.model_kind,
            "params": dict(self.params),
            "fold_accuracies": [float(a) for a in self.fold_accuracies],
            "mean_accuracy": float(self.mean_accuracy),
            "roc_points": [[float(a), float(b)] for a, b in self.roc_points],
            "auc": float(self.auc),
            "confusion": {k: int(v) for k, v in self.confusion.items()},
            "seed": int(self.seed),
        }


def stratified_kfold(labels, k: int = N_FOLDS, seed=0) -> list[np.ndarray]:
    """k disjoint test-index arrays with per-fold class counts within one
    sample of the global proportions; seeded shuffle, deterministic."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    for cls in sorted(np.unique(labels).tolist()):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise EvalError(f"class {cls!r} has {idx.size} < {k} samples")
        idx = idx[rng.permutation(idx.size)]
        for j, chunk in enumerate(np.array_split(idx, k)):
            folds[j].extend(int(i) for i in chunk)
    return [np.sort(np.array(f, dtype=np.int64)) for f in folds]


def roc_auc(scores, y) -> tuple[np.ndarray, float]:
    """ROC points from a descending threshold sweep, and the AUC.

    The AUC equals the Mann-Whitney pair statistic P(score_pos > score_neg)
    + 0.5 P(tie), computed from tie-averaged ranks.
    """
    scores = np.asarray(scores, float)
    y = np.asarray(y, float)
    n_pos = int(np.sum(y > 0))
    n_neg = int(np.sum(y < 0))
    if n_pos == 0 or n_neg == 0:
        raise EvalError("ROC needs both classes")

    order = np.argsort(-scores, kind="stable")
    ys = y[order]
    ss = scores[order]
    tp = np.cumsum(ys > 0)
    fp = np.cumsum(ys < 0)
    last = np.r_[ss[1:] != ss[:-1], True]  # final point of each tie group
    points = np.concatenate(
        ([[0.0, 0.0]], np.column_stack((fp[last] / n_neg, tp[last] / n_pos)))
    )

    _, group, count = np.unique(scores, return_inverse=True, return_counts=True)
    start = np.cumsum(count) - count  # 0-based first position of each tie group
    ranks = (start + (count - 1) / 2.0 + 1.0)[group]  # average rank, 1-based
    rank_sum_pos = float(np.sum(ranks[y > 0]))
    auc = (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return points, float(auc)


# -- cross-validation ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FoldTransform:
    """The fold-time columns, fitted on training trials only.

    One Fisher LDA projection per channel fills the 8 LDA columns; then each
    column is standardized with the training mean and std (a zero std
    becomes 1). CV folds, the full model and its serialization share it.
    """

    lda_w: np.ndarray  # [n_channels, ERP_SAMPLES]
    lda_b: np.ndarray  # [n_channels]
    col_mean: np.ndarray  # [N_FEATURES]
    col_std: np.ndarray  # [N_FEATURES]

    @classmethod
    def fit(cls, fm: FeatureMatrix, idx: np.ndarray) -> "FoldTransform":
        """Fit on the rows idx of fm; no other row is read."""
        erp = fm.erp.data[idx]
        is_face = fm.is_face[idx]
        lda_w = np.empty((len(CHANNELS), ERP_SAMPLES))
        lda_b = np.empty(len(CHANNELS))
        for c in range(len(CHANNELS)):
            lda_w[c], lda_b[c] = lda_fit(erp[:, c, :], is_face)
        x = _with_lda_columns(fm.values[idx], erp, lda_w, lda_b)
        std = x.std(axis=0)
        return cls(lda_w, lda_b, x.mean(axis=0), np.where(std == 0.0, 1.0, std))

    def transform(self, values: np.ndarray, erp_data: np.ndarray) -> np.ndarray:
        """Scaled [n, 640] rows from raw features plus their [n, 8, 50] ERP epochs."""
        x = _with_lda_columns(values, erp_data, self.lda_w, self.lda_b)
        return (x - self.col_mean) / self.col_std

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "FoldTransform":
        return cls(**{f.name: np.array(doc[f.name], float) for f in fields(cls)})


def _with_lda_columns(values, erp_data, lda_w, lda_b) -> np.ndarray:
    x = np.array(values, float, copy=True)
    for c in range(len(CHANNELS)):
        x[:, LDA_COL_START + c] = lda_project(lda_w[c], float(lda_b[c]), erp_data[:, c, :])
    return x


@dataclass(frozen=True, eq=False)
class _Fold:
    test_idx: np.ndarray
    x_train: np.ndarray
    x_test: np.ndarray
    y_train: np.ndarray
    y_test: np.ndarray

    @cached_property
    def d2_train(self) -> np.ndarray:
        """Squared train-train distances, computed when an SVM first reads them."""
        return squared_distances(self.x_train, self.x_train)


@dataclass(frozen=True, eq=False)
class CvPlan:
    folds: tuple[_Fold, ...]
    y: np.ndarray
    seed: int


def build_cv_plan(fm: FeatureMatrix, seed: int, k: int = N_FOLDS) -> CvPlan:
    y = labels_to_y(fm.labels)
    test_sets = stratified_kfold(fm.labels, k=k, seed=seed)
    all_idx = np.arange(fm.n_trials)
    folds = []
    for test_idx in test_sets:
        train_idx = np.setdiff1d(all_idx, test_idx)
        ft = FoldTransform.fit(fm, train_idx)
        folds.append(
            _Fold(
                test_idx=test_idx,
                x_train=ft.transform(fm.values[train_idx], fm.erp.data[train_idx]),
                x_test=ft.transform(fm.values[test_idx], fm.erp.data[test_idx]),
                y_train=y[train_idx],
                y_test=y[test_idx],
            )
        )
    return CvPlan(folds=tuple(folds), y=y, seed=seed)


def evaluate_on_plan(plan: CvPlan, spec: ModelSpec, seed: int) -> EvalReport:
    hp = spec.hyperparams()
    n = len(plan.y)
    scores = np.empty(n)
    preds = np.empty(n)
    fold_acc = []
    for fold_id, fold in enumerate(plan.folds):
        try:
            if spec.kind == "svm":
                gram = np.exp(-hp.gamma * fold.d2_train)
                model = svm_train(fold.x_train, fold.y_train, hp, gram=gram)
                s = svm_decision(model, fold.x_test)
                p = np.where(s >= 0.0, 1.0, -1.0)
            else:
                y01 = (fold.y_train > 0).astype(np.int64)
                model = rf_train(fold.x_train, y01, hp, seed=(seed, fold_id))
                s = rf_predict_proba(model, fold.x_test)
                p = np.where(s >= 0.5, 1.0, -1.0)
        except Exception as e:
            raise EvalError(f"fold {fold_id}: {e}") from e
        scores[fold.test_idx] = s
        preds[fold.test_idx] = p
        fold_acc.append(float(np.mean(p == fold.y_test)))

    points, auc = roc_auc(scores, plan.y)
    pos = plan.y > 0
    confusion = {
        "tp": int(np.sum((preds > 0) & pos)),
        "fp": int(np.sum((preds > 0) & ~pos)),
        "tn": int(np.sum((preds < 0) & ~pos)),
        "fn": int(np.sum((preds < 0) & pos)),
    }
    return EvalReport(
        model_kind=spec.kind,
        params=dict(spec.params),
        fold_accuracies=tuple(fold_acc),
        mean_accuracy=float(np.mean(fold_acc)),
        roc_points=points,
        auc=auc,
        confusion=confusion,
        seed=int(seed),
    )


def cross_validate(fm: FeatureMatrix, spec: ModelSpec, seed: int = 0) -> EvalReport:
    """Stratified 5-fold CV with fold-time LDA and standardization."""
    return evaluate_on_plan(build_cv_plan(fm, seed), spec, seed)


# -- full trained model (for deployment-style scoring and serialization) -------

SERIAL_VERSION = 1


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Whole scoring pipeline: the fitted fold transform, then the classifier."""

    kind: str
    params: dict
    transform: FoldTransform
    inner: SvmModel | RfModel

    def decision(self, values: np.ndarray, erp_data: np.ndarray) -> np.ndarray:
        """Scores for [n, 640] raw features plus their [n, 8, 50] ERP epochs."""
        x = self.transform.transform(values, erp_data)
        if self.kind == "svm":
            return svm_decision(self.inner, x)
        return rf_predict_proba(self.inner, x)

    def predict(self, values: np.ndarray, erp_data: np.ndarray) -> np.ndarray:
        s = self.decision(values, erp_data)
        threshold = 0.0 if self.kind == "svm" else 0.5
        return np.where(s >= threshold, 1.0, -1.0)


def train_full_model(fm: FeatureMatrix, spec: ModelSpec, seed: int = 0) -> TrainedModel:
    """Fit the whole pipeline on every trial (final reporting model)."""
    hp = spec.hyperparams()
    transform = FoldTransform.fit(fm, np.arange(fm.n_trials))
    x = transform.transform(fm.values, fm.erp.data)
    y = labels_to_y(fm.labels)
    if spec.kind == "svm":
        inner = svm_train(x, y, hp)
    else:
        inner = rf_train(x, (y > 0).astype(np.int64), hp, seed=(seed, 0))
    return TrainedModel(
        kind=spec.kind, params=dict(spec.params), transform=transform, inner=inner
    )


def model_to_json(model: TrainedModel) -> str:
    doc = {
        "schema_version": SERIAL_VERSION,
        "kind": model.kind,
        "params": model.params,
        **model.transform.to_dict(),
    }
    if model.kind == "svm":
        inner: SvmModel = model.inner
        doc["svm"] = {
            "support_vectors": inner.support_vectors.tolist(),
            "dual_coef": inner.dual_coef.tolist(),
            "bias": inner.bias,
            "C": inner.hyperparams.C,
            "gamma": inner.hyperparams.gamma,
            "sv_index": inner.sv_index.tolist(),
            "dual_objective": inner.dual_objective,
            "n_passes": inner.n_passes,
        }
    else:
        rf: RfModel = model.inner
        doc["rf"] = {
            "seed": list(rf.seed),
            "n_features": rf.n_features,
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "counts": t.counts.tolist(),
                }
                for t in rf.trees
            ],
        }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def model_from_json(text: str) -> TrainedModel:
    doc = json.loads(text)
    if doc.get("schema_version") != SERIAL_VERSION:
        raise EvalError(f"unsupported model schema {doc.get('schema_version')!r}")
    if doc["kind"] == "svm":
        s = doc["svm"]
        inner = SvmModel(
            support_vectors=np.array(s["support_vectors"], float),
            dual_coef=np.array(s["dual_coef"], float),
            bias=float(s["bias"]),
            hyperparams=SvmHyperParams(C=s["C"], gamma=s["gamma"]),
            sv_index=np.array(s["sv_index"], np.int64),
            dual_objective=float(s["dual_objective"]),
            n_passes=int(s["n_passes"]),
        )
    else:
        r = doc["rf"]
        trees = tuple(
            Tree(
                feature=np.array(t["feature"], np.int64),
                threshold=np.array(t["threshold"], float),
                left=np.array(t["left"], np.int64),
                right=np.array(t["right"], np.int64),
                counts=np.array(t["counts"], np.int64),
            )
            for t in r["trees"]
        )
        spec = ModelSpec(doc["kind"], doc["params"])
        inner = RfModel(
            trees=trees,
            hyperparams=spec.hyperparams(),
            seed=tuple(r["seed"]),
            n_features=int(r["n_features"]),
        )
    return TrainedModel(
        kind=doc["kind"],
        params=doc["params"],
        transform=FoldTransform.from_dict(doc),
        inner=inner,
    )


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path) -> TrainedModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
