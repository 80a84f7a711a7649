"""Soft-margin RBF-kernel SVM trained with sequential minimal optimization.

Binary labels are +1 (face) / -1 (scene). The solver is SMO over the full
kernel matrix with the second-order working-set rule of Fan, Chen & Lin
(JMLR 6, 2005), as in LIBSVM. With g = K (alpha * y) and v = y - g, each
step takes i = argmax v over the points where y_t alpha_t can grow (I_up)
and, among the points where it can shrink (I_low) with v_t < v_i, the j that
maximizes the objective gain (v_i - v_t)^2 / a_t, a_t = K_ii + K_tt - 2 K_it
(floored at 1e-12, so duplicate rows move straight to a bound). The pair
takes the clipped Newton step. Training stops when the gap
m - M = max_{I_up} v - min_{I_low} v is at most 2 tol, and the bias is the
midpoint (m + M) / 2, so every point's KKT violation is at most tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HP_RANGE = (1e-3, 1e3)
DEFAULT_TOL = 1e-3
MAX_STEPS_PER_ROW = 1000  # step budget: this many SMO steps per training row
CURVATURE_FLOOR = 1e-12  # duplicate rows give a zero-curvature pair


class SvmError(ValueError):
    """Invalid SVM input."""


class SvmConvergenceError(RuntimeError):
    """SMO hit its step budget before closing the optimality gap."""


@dataclass(frozen=True)
class SvmHyperParams:
    """Misclassification cost C and Gaussian kernel width gamma."""

    C: float
    gamma: float

    def __post_init__(self):
        for name, v in (("C", self.C), ("gamma", self.gamma)):
            if not HP_RANGE[0] <= v <= HP_RANGE[1]:
                raise SvmError(f"{name}={v} outside {HP_RANGE}")


@dataclass(frozen=True, eq=False)
class SvmModel:
    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i per support vector
    bias: float
    hyperparams: SvmHyperParams
    sv_index: np.ndarray  # positions of the support vectors in the training set
    dual_objective: float
    n_passes: int  # SMO steps taken; the name is the model-JSON key

    def __post_init__(self):
        if self.support_vectors.ndim != 2:
            raise SvmError(f"support_vectors must be 2-D, got {self.support_vectors.shape}")
        n_sv = len(self.support_vectors)
        for name in ("dual_coef", "sv_index"):
            if getattr(self, name).shape != (n_sv,):
                raise SvmError(f"{name} must hold one value per support vector ({n_sv})")
        if not np.issubdtype(self.sv_index.dtype, np.integer):
            raise SvmError("sv_index must hold integers")

    @property
    def n_features(self) -> int:
        return self.support_vectors.shape[1]


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(a, b))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    from scipy.spatial.distance import cdist

    # cdist accumulates each pair independently, so equal rows produce
    # bit-equal distances regardless of their position (BLAS paths do not).
    return cdist(np.asarray(a, float), np.asarray(b, float), "sqeuclidean")


def kkt_violations(
    alpha: np.ndarray, y: np.ndarray, decision: np.ndarray, c: float
) -> np.ndarray:
    """Per-point violation of the stationarity conditions, in margin units.

    alpha = 0 requires y f >= 1; alpha = C requires y f <= 1; interior alpha
    requires y f = 1.
    """
    r = y * decision - 1.0
    viol = np.zeros_like(r)
    can_grow = alpha < c
    can_shrink = alpha > 0.0
    viol[can_grow] = np.maximum(viol[can_grow], -r[can_grow])
    viol[can_shrink] = np.maximum(viol[can_shrink], r[can_shrink])
    return np.maximum(viol, 0.0)


def svm_train(
    x: np.ndarray,
    y: np.ndarray,
    hp: SvmHyperParams,
    tol: float = DEFAULT_TOL,
    gram: np.ndarray | None = None,
) -> SvmModel:
    """Solve the RBF soft-margin dual on (x, y in {-1, +1}).

    gram optionally supplies the precomputed training kernel (cached per
    cross-validation fold); it must equal rbf_kernel(x, x, hp.gamma).
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(y)
    if x.ndim != 2 or x.shape[0] != n:
        raise SvmError(f"x shape {x.shape} does not match {n} labels")
    if not np.all(np.isfinite(x)):
        raise SvmError("x contains non-finite values")
    if set(np.unique(y)) != {-1.0, 1.0}:
        raise SvmError("labels must contain both classes, coded +1/-1")
    if min(np.sum(y > 0), np.sum(y < 0)) < 2:
        raise SvmError("need at least 2 samples per class")

    k = rbf_kernel(x, x, hp.gamma) if gram is None else gram
    c = hp.C
    k_diag = np.diag(k)
    pos = y > 0
    alpha = np.zeros(n)
    g = np.zeros(n)  # g = K (alpha * y), the decision minus its bias
    steps = 0
    while True:
        v = y - g
        up = np.where(pos, alpha < c, alpha > 0.0)
        low = np.where(pos, alpha > 0.0, alpha < c)
        v_up = np.where(up, v, -np.inf)
        i = int(np.argmax(v_up))
        m_up = v_up[i]
        m_low = np.min(v, where=low, initial=np.inf)
        if m_up - m_low <= 2.0 * tol:
            break
        if steps >= MAX_STEPS_PER_ROW * n:
            raise SvmConvergenceError(
                f"no convergence in {steps} steps; gap {m_up - m_low:.3e} > {2.0 * tol:.3e}"
            )
        gap = m_up - v
        curv = np.maximum(k_diag[i] + k_diag - 2.0 * k[i], CURVATURE_FLOOR)
        j = int(np.argmax(np.where(low & (gap > 0.0), gap * gap / curv, -np.inf)))
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(gap[j] / curv[j], room_i, room_j)
        # A clip that binds puts its alpha exactly on the bound, so rounding
        # cannot leave it one ulp inside and back in the working set.
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else alpha[j] - y[j] * t
        g += t * (k[i] - k[j])
        steps += 1

    ay = alpha * y
    dual_objective = float(alpha.sum() - 0.5 * ay @ k @ ay)
    sv = np.flatnonzero(alpha > 1e-12)
    return SvmModel(
        support_vectors=x[sv].copy(),
        dual_coef=ay[sv],
        bias=float(0.5 * (m_up + m_low)),
        hyperparams=hp,
        sv_index=sv,
        dual_objective=dual_objective,
        n_passes=steps,
    )


def svm_decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Signed margin f(x) = sum_i alpha_i y_i k(x_i, x) + b per row."""
    x = np.asarray(x, float)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise SvmError(f"x shape {x.shape} does not match {model.n_features} features")
    k = rbf_kernel(x, model.support_vectors, model.hyperparams.gamma)
    # einsum keeps each row's reduction order fixed, preserving row-wise
    # determinism under permutation/duplication of x.
    return np.einsum("ij,j->i", k, model.dual_coef) + model.bias
