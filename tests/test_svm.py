import numpy as np
import pytest
from scipy.optimize import minimize

from attndecode import SvmHyperParams, svm_decision, svm_train
from attndecode.svm import SvmError, kkt_violations, rbf_kernel


def full_alpha(model, n):
    alpha = np.zeros(n)
    alpha[model.sv_index] = np.abs(model.dual_coef)
    return alpha


def qp_oracle_dual_objective(x, y, c, gamma):
    """Generic QP solver (SLSQP) for the soft-margin dual, as an oracle."""
    n = len(y)
    k = rbf_kernel(x, x, gamma)
    q = (y[:, None] * y[None, :]) * k

    def neg_dual(a):
        return 0.5 * a @ q @ a - a.sum()

    def grad(a):
        return q @ a - np.ones(n)

    res = minimize(
        neg_dual,
        np.full(n, 0.5 * min(c, 1.0)),
        jac=grad,
        bounds=[(0.0, c)] * n,
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        method="SLSQP",
        options={"maxiter": 500, "ftol": 1e-12},
    )
    assert res.success, res.message
    return -res.fun


def separable_problem(seed, n_per_class=50, d=2, gap=3.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per_class, d)) + gap
    b = rng.standard_normal((n_per_class, d)) - gap
    x = np.vstack([a, b])
    y = np.repeat([1.0, -1.0], n_per_class)
    return x, y


def xor_problem(seed=0, reps=10, noise=0.1):
    rng = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([1.0, 1.0, -1.0, -1.0])
    x = np.tile(corners, (reps, 1)) + noise * rng.standard_normal((4 * reps, 2))
    y = np.tile(labels, reps)
    return x, y


def test_separable_clusters_train_perfectly():
    x, y = separable_problem(0)
    model = svm_train(x, y, SvmHyperParams(C=10.0, gamma=0.5))
    assert np.array_equal(np.where(svm_decision(model, x) >= 0.0, 1.0, -1.0), y)


def test_xor_training_accuracy_and_qp_objective():
    x, y = xor_problem()
    hp = SvmHyperParams(C=10.0, gamma=2.0)
    model = svm_train(x, y, hp)
    assert np.array_equal(np.where(svm_decision(model, x) >= 0.0, 1.0, -1.0), y)
    oracle = qp_oracle_dual_objective(x, y, hp.C, hp.gamma)
    assert model.dual_objective == pytest.approx(oracle, rel=1e-3)


def test_single_class_rejected():
    x = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(SvmError, match="both classes"):
        svm_train(x, np.ones(10), SvmHyperParams(C=1.0, gamma=1.0))


def test_minimum_class_size():
    x = np.random.default_rng(0).standard_normal((5, 2))
    y = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    with pytest.raises(SvmError, match="2 samples per class"):
        svm_train(x, y, SvmHyperParams(C=1.0, gamma=1.0))


@pytest.mark.parametrize("seed", range(5))
def test_kkt_conditions_hold_on_separable_problems(seed):
    x, y = separable_problem(seed, n_per_class=50, gap=1.5)
    hp = SvmHyperParams(C=5.0, gamma=0.3)
    model = svm_train(x, y, hp, tol=1e-3)
    alpha = full_alpha(model, len(y))
    f = svm_decision(model, x)
    viol = kkt_violations(alpha, y, f, hp.C)
    assert viol.max() <= 1e-3 + 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_dual_feasibility(seed):
    x, y = separable_problem(seed, n_per_class=40, gap=1.0)
    hp = SvmHyperParams(C=2.0, gamma=0.5)
    model = svm_train(x, y, hp)
    alpha = full_alpha(model, len(y))
    assert abs(np.sum(alpha * y)) < 1e-6
    assert np.all(alpha >= 0.0) and np.all(alpha <= hp.C + 1e-12)


def test_margin_satisfying_points_score_with_their_label():
    x, y = separable_problem(3)
    hp = SvmHyperParams(C=10.0, gamma=0.5)
    model = svm_train(x, y, hp)
    f = svm_decision(model, x)
    satisfying = y * f >= 1.0 - 1e-3
    assert satisfying.any()
    assert np.all(np.sign(f[satisfying]) == y[satisfying])


def test_score_far_from_support_vectors_tends_to_bias():
    x, y = separable_problem(1)
    model = svm_train(x, y, SvmHyperParams(C=1.0, gamma=1.0))
    far = np.array([[1e3, 1e3]])
    assert svm_decision(model, far)[0] == pytest.approx(model.bias, abs=1e-12)


def test_duplicate_rows_get_identical_scores():
    x, y = separable_problem(2)
    model = svm_train(x, y, SvmHyperParams(C=1.0, gamma=0.7))
    q = np.vstack([x[:3], x[:3]])
    s = svm_decision(model, q)
    np.testing.assert_array_equal(s[:3], s[3:])


def test_decision_permutation_equivariance():
    x, y = separable_problem(4)
    model = svm_train(x, y, SvmHyperParams(C=1.0, gamma=0.7))
    perm = np.random.default_rng(0).permutation(len(x))
    np.testing.assert_array_equal(svm_decision(model, x[perm]), svm_decision(model, x)[perm])


def test_training_deterministic():
    x, y = xor_problem(seed=5)
    hp = SvmHyperParams(C=3.0, gamma=1.0)
    a = svm_train(x, y, hp)
    b = svm_train(x, y, hp)
    np.testing.assert_array_equal(a.dual_coef, b.dual_coef)
    assert a.bias == b.bias
    np.testing.assert_array_equal(a.sv_index, b.sv_index)


def test_gram_shortcut_matches_fresh_kernel():
    x, y = separable_problem(6)
    hp = SvmHyperParams(C=2.0, gamma=0.4)
    gram = rbf_kernel(x, x, hp.gamma)
    a = svm_train(x, y, hp)
    b = svm_train(x, y, hp, gram=gram)
    np.testing.assert_array_equal(a.dual_coef, b.dual_coef)
    assert a.bias == b.bias


def test_hyperparameter_bounds():
    with pytest.raises(SvmError):
        SvmHyperParams(C=1e-4, gamma=1.0)
    with pytest.raises(SvmError):
        SvmHyperParams(C=1.0, gamma=1e4)
    SvmHyperParams(C=1e-3, gamma=1e3)  # bounds inclusive


def test_dimension_mismatch_rejected():
    x, y = separable_problem(0)
    model = svm_train(x, y, SvmHyperParams(C=1.0, gamma=1.0))
    with pytest.raises(SvmError, match="features"):
        svm_decision(model, np.zeros((2, 5)))


def test_nonfinite_input_rejected():
    x, y = separable_problem(0)
    x[0, 0] = np.nan
    with pytest.raises(SvmError, match="non-finite"):
        svm_train(x, y, SvmHyperParams(C=1.0, gamma=1.0))


def duplicate_flipped_problem():
    """Rows repeated with the opposite label: those pairs have zero curvature."""
    x, y = separable_problem(7, n_per_class=15, gap=0.5)
    return np.vstack([x, x[::3]]), np.concatenate([y, -y[::3]])


@pytest.mark.parametrize("c", [0.5, 10.0])
def test_zero_curvature_pairs_reach_the_qp_optimum(c):
    x, y = duplicate_flipped_problem()
    hp = SvmHyperParams(C=c, gamma=1.0)
    model = svm_train(x, y, hp, tol=1e-3)
    viol = kkt_violations(full_alpha(model, len(y)), y, svm_decision(model, x), c)
    assert viol.max() <= 1e-3 + 1e-6
    oracle = qp_oracle_dual_objective(x, y, c, hp.gamma)
    assert model.dual_objective == pytest.approx(oracle, rel=1e-3)


def test_all_alphas_at_bound_keep_kkt_within_tol():
    # at tiny C every alpha ends at 0 or C; the bias is then the gap midpoint
    x, y = xor_problem(seed=2)
    hp = SvmHyperParams(C=1e-3, gamma=1.0)
    model = svm_train(x, y, hp, tol=1e-3)
    alpha = full_alpha(model, len(y))
    assert np.all((alpha == 0.0) | (alpha == hp.C))
    f = svm_decision(model, x)
    viol = kkt_violations(alpha, y, f, hp.C)
    assert viol.max() <= 1e-3 + 1e-6
    # the KKT conditions leave b free in [max v over I_up, min v over I_low]
    v = y - (f - model.bias)
    up = np.where(y > 0, alpha < hp.C, alpha > 0.0)
    assert model.bias == pytest.approx(0.5 * (v[up].max() + v[~up].min()), abs=1e-9)
