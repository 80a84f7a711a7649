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
from collections.abc import Callable
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .dataset import parse_json, read_json
from .features import (
    ERP_SAMPLES,
    LDA_COL_START,
    N_FEATURES,
    FeatureMatrix,
    lda_fit,
    lda_project,
)
from .forest import RfHyperParams, RfModel, rf_predict_proba, rf_train
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
    """Classifier kind plus its hyperparameter values: the one place that
    knows how each kind is configured, trained and scored."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise EvalError(f"kind must be one of {MODEL_KINDS}, got {self.kind!r}")
        self.hyperparams()

    def hyperparams(self) -> SvmHyperParams | RfHyperParams:
        return read_json(SvmHyperParams if self.kind == "svm" else RfHyperParams, self.params,
                         "params", EvalError)

    def fit(
        self, x: np.ndarray, y: np.ndarray, seed, d2: Callable[[], np.ndarray] | None = None
    ) -> SvmModel | RfModel:
        """Train on scaled rows x with labels y in {-1, +1}.

        seed seeds the forest's bootstrap streams. d2, if given, returns the
        squared distances between the rows of x; the SVM then builds its gram
        matrix as exp(-gamma d2) from them. Only the SVM calls it, so a forest
        never pays for them.
        """
        hp = self.hyperparams()
        if self.kind == "svm":
            return svm_train(x, y, hp, gram=None if d2 is None else np.exp(-hp.gamma * d2()))
        return rf_train(x, (y > 0).astype(np.int64), hp, seed=seed)

    def score(self, model: SvmModel | RfModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scores and +-1 predictions for scaled rows x: the SVM margin is
        thresholded at 0, the forest's face probability at 0.5."""
        if self.kind == "svm":
            s, threshold = svm_decision(model, x), 0.0
        else:
            s, threshold = rf_predict_proba(model, x), 0.5
        return s, np.where(s >= threshold, 1.0, -1.0)


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


def stratified_kfold(labels, seed=0) -> list[np.ndarray]:
    """N_FOLDS disjoint test-index arrays with per-fold class counts within
    one sample of the global proportions; seeded shuffle, deterministic."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(N_FOLDS)]
    for cls in sorted(np.unique(labels).tolist()):
        idx = np.flatnonzero(labels == cls)
        if idx.size < N_FOLDS:
            raise EvalError(f"class {cls!r} has {idx.size} < {N_FOLDS} samples")
        idx = idx[rng.permutation(idx.size)]
        for j, chunk in enumerate(np.array_split(idx, N_FOLDS)):
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

    def __post_init__(self):
        want = {
            "lda_w": (len(CHANNELS), ERP_SAMPLES),
            "lda_b": (len(CHANNELS),),
            "col_mean": (N_FEATURES,),
            "col_std": (N_FEATURES,),
        }
        for name, shape in want.items():
            if getattr(self, name).shape != shape:
                raise EvalError(f"{name} has shape {getattr(self, name).shape}, not {shape}")

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


def build_cv_plan(fm: FeatureMatrix, seed: int) -> CvPlan:
    y = labels_to_y(fm.labels)
    test_sets = stratified_kfold(fm.labels, seed=seed)
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
    n = len(plan.y)
    scores = np.empty(n)
    preds = np.empty(n)
    fold_acc = []
    for fold_id, fold in enumerate(plan.folds):
        try:
            model = spec.fit(fold.x_train, fold.y_train, (seed, fold_id), lambda: fold.d2_train)
            s, p = spec.score(model, fold.x_test)
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

SERIAL_VERSION = 2


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Whole scoring pipeline: the fitted fold transform, then the classifier."""

    spec: ModelSpec
    transform: FoldTransform
    inner: SvmModel | RfModel

    def __post_init__(self):
        if self.inner.hyperparams != self.spec.hyperparams():
            raise EvalError(f"model {self.inner.hyperparams} differs from params {self.spec}")
        if self.inner.n_features != N_FEATURES:
            raise EvalError(f"model takes {self.inner.n_features} features, not {N_FEATURES}")

    def decision(self, values: np.ndarray, erp_data: np.ndarray) -> np.ndarray:
        """Scores for [n, 640] raw features plus their [n, 8, 50] ERP epochs."""
        return self.spec.score(self.inner, self.transform.transform(values, erp_data))[0]

    def predict(self, values: np.ndarray, erp_data: np.ndarray) -> np.ndarray:
        """+-1 predictions for the same inputs as decision."""
        return self.spec.score(self.inner, self.transform.transform(values, erp_data))[1]


def train_full_model(fm: FeatureMatrix, spec: ModelSpec, seed: int = 0) -> TrainedModel:
    """Fit the whole pipeline on every trial (final reporting model)."""
    transform = FoldTransform.fit(fm, np.arange(fm.n_trials))
    x = transform.transform(fm.values, fm.erp.data)
    return TrainedModel(spec, transform, spec.fit(x, labels_to_y(fm.labels), (seed, 0)))


def _plain(value):
    """JSON-ready form of a model value: dataclasses field by field, arrays
    and tuples as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def model_to_json(model: TrainedModel) -> str:
    block = _plain(model.inner)
    hyperparams = block.pop("hyperparams")
    if model.spec.kind == "svm":
        block.update(hyperparams)  # C and gamma sit in the svm block
    doc = {
        "schema_version": SERIAL_VERSION,
        "kind": model.spec.kind,
        "params": model.spec.params,
        **_plain(model.transform),
        model.spec.kind: block,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


_read_model = partial(read_json, owner="model file", error=EvalError)


def model_from_json(text: str) -> TrainedModel:
    """Parse a model file; each field is read as its dataclass annotation
    says, and arrays that do not fit together are refused."""
    doc = _read_model(dict, parse_json(text, "model file is not JSON", EvalError))
    version = doc.get("schema_version")
    if version != SERIAL_VERSION:
        raise EvalError(
            f"model file is schema {version!r}; this version reads {SERIAL_VERSION}"
            " — re-run evaluate"
        )
    spec = _read_model(ModelSpec, doc)
    if spec.kind not in doc:
        raise EvalError(f"model file has no field {spec.kind!r}")
    block = doc[spec.kind]
    if spec.kind == "svm":
        hyperparams = _read_model(SvmHyperParams, block, path="svm")
        inner = _read_model(SvmModel, block, path="svm", hyperparams=hyperparams)
    else:
        inner = _read_model(RfModel, block, path="rf", hyperparams=spec.hyperparams())
    return TrainedModel(spec, _read_model(FoldTransform, doc), inner)


def save_model(model: TrainedModel, path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path) -> TrainedModel:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
