"""Soft-margin RBF-kernel SVM trained with sequential minimal optimization.

Binary labels are +1 (face) / -1 (scene). The solver is Platt-style SMO
over the full kernel matrix: the first working-set index is any KKT
violator, the second is chosen to maximize |E1 - E2| among non-bound
points, with randomized sweep fallbacks. Training ends when a full pass
finds no violator at the tolerance, so the KKT conditions hold within tol
at convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

HP_RANGE = (1e-3, 1e3)
DEFAULT_TOL = 1e-3
DEFAULT_MAX_PASSES = 10_000


class SvmError(ValueError):
    """Invalid SVM input."""


class SvmConvergenceError(RuntimeError):
    """SMO hit its pass budget before satisfying the KKT conditions."""


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
    n_passes: int


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * squared_distances(a, b))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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
    seed=0,
    tol: float = DEFAULT_TOL,
    max_passes: int = DEFAULT_MAX_PASSES,
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
    rng = np.random.default_rng(seed)

    alpha = np.zeros(n)
    g = np.zeros(n)  # g_i = sum_j alpha_j y_j K_ij (decision minus bias)
    b = 0.0

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, g
        if i1 == i2:
            return False
        a1o, a2o = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1 = g[i1] + b - y1
        e2 = g[i2] + b - y2
        s = y1 * y2
        if s < 0:
            lo, hi = max(0.0, a2o - a1o), min(c, c + a2o - a1o)
        else:
            lo, hi = max(0.0, a1o + a2o - c), min(c, a1o + a2o)
        if lo >= hi:
            return False
        k11, k12, k22 = k[i1, i1], k[i1, i2], k[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0.0:
            a2 = a2o + y2 * (e1 - e2) / eta
            a2 = min(max(a2, lo), hi)
        else:
            # Degenerate curvature (duplicate points): evaluate the dual
            # objective at both clip bounds and move to the better one.
            v1 = g[i1] - y1 * a1o * k11 - y2 * a2o * k12
            v2 = g[i2] - y1 * a1o * k12 - y2 * a2o * k22
            gamma_sum = a1o + s * a2o

            def dual_min_at(t: float) -> float:
                a1t = gamma_sum - s * t
                return (
                    0.5 * k11 * a1t**2
                    + 0.5 * k22 * t**2
                    + s * k12 * a1t * t
                    + y1 * a1t * v1
                    + y2 * t * v2
                    - a1t
                    - t
                )

            lo_obj, hi_obj = dual_min_at(lo), dual_min_at(hi)
            if lo_obj < hi_obj - 1e-12:
                a2 = lo
            elif hi_obj < lo_obj - 1e-12:
                a2 = hi
            else:
                return False
        if abs(a2 - a2o) < 1e-10 * (a2 + a2o + 1e-10):
            return False
        a1 = a1o + s * (a2o - a2)
        a1 = min(max(a1, 0.0), c)

        d1 = y1 * (a1 - a1o)
        d2 = y2 * (a2 - a2o)
        b1 = b - e1 - d1 * k11 - d2 * k12
        b2 = b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < c:
            b_new = b1
        elif 0.0 < a2 < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        g += d1 * k[i1] + d2 * k[i2]
        alpha[i1], alpha[i2] = a1, a2
        b = b_new
        return True

    def examine(i2: int) -> bool:
        y2 = y[i2]
        a2 = alpha[i2]
        e2 = g[i2] + b - y2
        r2 = e2 * y2
        if not ((r2 < -tol and a2 < c) or (r2 > tol and a2 > 0.0)):
            return False
        nonbound = np.flatnonzero((alpha > 0.0) & (alpha < c))
        if nonbound.size > 1:
            e_nb = g[nonbound] + b - y[nonbound]
            i1 = int(nonbound[np.argmax(np.abs(e_nb - e2))])
            if take_step(i1, i2):
                return True
        if nonbound.size:
            start = rng.integers(nonbound.size)
            for j in range(nonbound.size):
                if take_step(int(nonbound[(start + j) % nonbound.size]), i2):
                    return True
        start = rng.integers(n)
        for j in range(n):
            if take_step(int((start + j) % n), i2):
                return True
        return False

    passes = 0
    examine_all = True
    num_changed = 0
    while num_changed > 0 or examine_all:
        passes += 1
        if passes > max_passes:
            viol = kkt_violations(alpha, y, g + b, c)
            raise SvmConvergenceError(
                f"no convergence in {max_passes} passes; "
                f"max KKT violation {viol.max():.3e}"
            )
        num_changed = 0
        if examine_all:
            for i in range(n):
                num_changed += examine(i)
        else:
            for i in np.flatnonzero((alpha > 0.0) & (alpha < c)):
                num_changed += examine(int(i))
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True

    ay = alpha * y
    dual_objective = float(alpha.sum() - 0.5 * ay @ k @ ay)
    sv = np.flatnonzero(alpha > 1e-12)
    return SvmModel(
        support_vectors=x[sv].copy(),
        dual_coef=ay[sv],
        bias=float(b),
        hyperparams=hp,
        sv_index=sv,
        dual_objective=dual_objective,
        n_passes=passes,
    )


def svm_decision(model: SvmModel, x: np.ndarray) -> np.ndarray:
    """Signed margin f(x) = sum_i alpha_i y_i k(x_i, x) + b per row."""
    x = np.asarray(x, float)
    if x.ndim != 2 or x.shape[1] != model.support_vectors.shape[1]:
        raise SvmError(
            f"x shape {x.shape} does not match {model.support_vectors.shape[1]} features"
        )
    k = rbf_kernel(x, model.support_vectors, model.hyperparams.gamma)
    # einsum keeps each row's reduction order fixed, preserving row-wise
    # determinism under permutation/duplication of x.
    return np.einsum("ij,j->i", k, model.dual_coef) + model.bias
