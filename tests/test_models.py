import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrition.config import RunConfig
from attrition.evaluation import split
from attrition.features import encode_dataset, fit_schema
from attrition.io import load_students, read_json, write_json
from attrition.labeling import balance, label_all
from attrition.models import (
    ForestModel,
    ForestParams,
    KnnModel,
    _CHUNK_ELEMENTS,
    _draw_features,
    _sigmoid,
    _Tree,
    fit_knn,
    forest_predict,
    knn_predict,
    load_model,
    logistic_objective,
    model_from_dict,
    model_to_dict,
    predict_proba,
    save_model,
    train_forest,
    train_logistic,
    train_ridge,
)
from attrition.synthetic import SynthConfig, generate_cohort, write_cohort

# ---------------------------------------------------------------------------
# logistic regression


def test_huge_regularization_shrinks_to_base_rate():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 3))
    y = np.array([0.0, 1.0] * 20)
    model = train_logistic(x, y, 1e9)
    assert np.abs(model.weights).max() < 1e-6
    assert predict_proba(model, x[0]) == pytest.approx(0.5, abs=1e-3)


def test_one_dimensional_gradient_vanishes_at_optimum():
    x = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = train_logistic(x, y, 0.1)
    theta = np.append(model.weights, model.intercept)
    _, grad = logistic_objective(x, y, 0.1, theta)
    assert np.abs(grad).max() < 1e-5


def central_difference(objective, theta, h=1e-5):
    grad = np.empty_like(theta)
    for i in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (objective(up)[0] - objective(down)[0]) / (2 * h)
    return grad


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(20, 5))
    y = (rng.random(20) < 0.5).astype(float)
    lam = 0.3
    for _ in range(10):
        theta = rng.normal(size=6)
        _, analytic = logistic_objective(x, y, lam, theta)
        numeric = central_difference(lambda t: logistic_objective(x, y, lam, t), theta)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        assert rel.max() < 1e-4


def test_logistic_rejects_single_class_and_non_finite():
    x = np.ones((4, 2))
    with pytest.raises(ValueError, match="both classes"):
        train_logistic(x, np.ones(4), 0.1)
    bad = x.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        train_logistic(bad, np.array([0.0, 1.0, 0.0, 1.0]), 0.1)


def test_loss_history_is_non_increasing():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 8))
    y = (rng.random(60) < 0.5).astype(float)
    model = train_logistic(x, y, 0.01)
    hist = np.array(model.loss_history)
    assert (np.diff(hist) <= 1e-12).all()


def gradient_descent_oracle(loss_and_grad, theta0, max_iters=10_000, tol=1e-6):
    """The Barzilai-Borwein gradient descent that logistic regression used to run.

    Batch gradient descent with Armijo backtracking (c = 1e-4, factor 0.5);
    returns (theta, iterations, loss history).
    """
    theta = np.array(theta0, dtype=float)
    loss, grad = loss_and_grad(theta)
    history = [loss]
    prev_theta = prev_grad = None
    iteration = 0
    while iteration < max_iters:
        gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
        if gnorm < tol:
            break
        step = 1.0
        if prev_theta is not None:
            s = theta - prev_theta
            dg = grad - prev_grad
            denom = float(s @ dg)
            if denom > 0:
                step = float(s @ s) / denom
                step = min(max(step, 1e-12), 1e12)
        gsq = float(grad @ grad)
        accepted = False
        for _ in range(80):
            candidate = theta - step * grad
            cand_loss, cand_grad = loss_and_grad(candidate)
            if cand_loss <= loss - 1e-4 * step * gsq:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        prev_theta, prev_grad = theta, grad
        theta, loss, grad = candidate, cand_loss, cand_grad
        history.append(loss)
        iteration += 1
    return theta, iteration, history


@pytest.fixture(scope="module")
def default_train_matrix():
    """The standardized training matrix of `attrition pipeline --seed 201` at default settings."""
    cfg = RunConfig().override_seed(201)
    records, _ = generate_cohort(cfg.synth)
    balanced = balance(label_all(records, cfg.synth.degree_credits), cfg.sampling_seed)
    train, _ = split(balanced, cfg.test_fraction, cfg.split_seed)
    schema = fit_schema(train, cfg.feature_config())
    _, x, y = encode_dataset(train, schema)
    schema.fit_scaling(x)
    x = schema.standardize(x)
    assert x.shape == (387, 90)
    return x, y


def newton_against_oracle(x, y, lam):
    model = train_logistic(x, y, lam)
    newton = np.append(model.weights, model.intercept)
    oracle, _, _ = gradient_descent_oracle(lambda t: logistic_objective(x, y, lam, t), np.zeros(x.shape[1] + 1))
    newton_loss, newton_grad = logistic_objective(x, y, lam, newton)
    oracle_loss, _ = logistic_objective(x, y, lam, oracle)
    assert newton_loss <= oracle_loss + 1e-12
    if lam >= 0.1:
        assert np.abs(newton - oracle).max() < 1e-4
    return np.abs(newton_grad).max()


@pytest.mark.parametrize("seed", range(6))
def test_newton_loss_at_most_gradient_descent_on_random_problems(seed):
    rng = np.random.default_rng(seed)
    n, d = rng.integers(30, 200), rng.integers(1, 12)
    x = rng.normal(size=(n, d)) * rng.uniform(0.2, 5.0, size=d)
    y = (x @ rng.normal(size=d) + rng.logistic(size=n) > 0).astype(float)
    for lam in (1e-3, 1e-2, 0.1, 1.0, 10.0):
        assert newton_against_oracle(x, y, lam) < 1e-9


def test_newton_on_default_train_matrix_beats_gradient_descent(default_train_matrix):
    x, y = default_train_matrix
    for lam in RunConfig().lr_lambda_grid:
        assert newton_against_oracle(x, y, lam) < 1e-9


def test_newton_single_column_edge_cases_give_finite_weights():
    y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    for column in ([0.0] * 6, [2.5] * 6):  # constant: singular Hessian at lambda = 0
        model = train_logistic(np.array(column)[:, None], y, 0.0)
        assert np.isfinite(model.weights).all() and math.isfinite(model.intercept)
        assert predict_proba(model, np.array([column[0]])) == pytest.approx(1 / 3)
    separable = np.array([-3.0, -2.0, 1.0, -1.0, 2.0, 3.0])[:, None]
    model = train_logistic(separable, (separable[:, 0] > 0).astype(float), 0.0)
    assert np.isfinite(model.weights).all() and math.isfinite(model.intercept)
    assert model.weights[0] > 0
    assert (np.diff(model.loss_history) <= 0).all()


def lstsq_newton_reference(x, y, regularization):
    """The Newton loop as it ran before the LU step: `lstsq` solves every Newton system.

    Returns (theta, n_iterations, loss history)."""
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    penalty = np.diag(np.append(np.full(d, float(regularization)), 0.0))
    theta = np.zeros(d + 1)
    loss, grad = logistic_objective(x, y, regularization, theta)
    history = [loss]
    while len(history) <= 50 and np.abs(grad).max() >= 1e-9:
        p = _sigmoid(x1 @ theta)
        hessian = (x1.T * (p * (1.0 - p))) @ x1 / n + penalty
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        decrease = 1e-4 * float(grad @ direction)
        step = 1.0
        for _ in range(60):
            candidate = theta - step * direction
            cand_loss, cand_grad = logistic_objective(x, y, regularization, candidate)
            if cand_loss <= loss - step * decrease:
                break
            step *= 0.5
        else:
            break
        theta, loss, grad = candidate, cand_loss, cand_grad
        history.append(loss)
    return theta, len(history) - 1, history


def newton_oracle_data(kind):
    rng = np.random.default_rng(30)
    x = rng.normal(size=(80, 6))
    y = (x @ rng.normal(size=6) + rng.logistic(size=80) > 0).astype(float)
    if kind == "zero-column":
        x[:, 2] = 0.0
    if kind == "duplicated-columns":
        x[:, 1], x[:, 4] = x[:, 0], x[:, 3]
    if kind == "separable":
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(float)
    return x, y


@pytest.mark.parametrize("kind", ["random", "zero-column", "duplicated-columns", "separable"])
def test_newton_step_equals_the_lstsq_reference(kind):
    x, y = newton_oracle_data(kind)

    def identified(theta):
        # two equal columns fix only the sum of their weights; along w_i - w_j the curvature is lambda,
        # so at lambda = 1e-12 either solver's split of the sum is off by about eps / lambda (2.7e-6)
        if kind != "duplicated-columns":
            return theta
        return np.array([theta[0] + theta[1], theta[2], theta[3] + theta[4], theta[5], theta[6]])

    for lam in (0.0, 1e-300, 1e-12, 1e-4, 1.0, 1e6):
        model = train_logistic(x, y, lam)
        theta = np.append(model.weights, model.intercept)
        ref_theta, ref_iterations, ref_history = lstsq_newton_reference(x, y, lam)
        assert model.n_iterations == ref_iterations, lam
        if lam == 0.0 or (kind == "duplicated-columns" and lam == 1e-300):
            # lstsq at lambda = 0, and where LU finds the Hessian singular: the same bits
            assert theta.tobytes() == ref_theta.tobytes(), lam
            assert model.loss_history == ref_history, lam
        else:
            bound = 1e-9 * max(1.0, np.abs(ref_theta).max())
            assert np.abs(identified(theta) - identified(ref_theta)).max() <= bound, lam
            assert np.abs(np.subtract(model.loss_history, ref_history)).max() <= 1e-12, lam


def test_fitting_both_models_imports_no_numpy_ma():
    # np.unique imports numpy.ma on first use in numpy 2.x (15-17 ms and 0.4 MB per process)
    script = (
        "import sys\n"
        "import numpy as np\n"
        "print('numpy.ma' in sys.modules)\n"
        "from attrition.models import ForestParams, train_forest, train_logistic\n"
        "x, y = np.arange(8.0)[:, None], np.array([0.0, 1.0] * 4)\n"
        "train_logistic(x, y, 0.1)\n"
        "train_forest(x, y, ForestParams(n_trees=2), seed=0)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    at_import, after_fits = done.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after_fits == "False"


def test_weight_norm_decreases_with_regularization():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 4))
    y = (x[:, 0] + 0.3 * rng.normal(size=50) > 0).astype(float)
    lambdas = [1e-4, 1e-2, 1.0, 100.0]
    norms = [np.linalg.norm(train_logistic(x, y, lam).weights) for lam in lambdas]
    for a, b in zip(norms, norms[1:]):
        assert a >= b - 1e-6
    target = x @ np.array([1.0, -2.0, 0.5, 0.0]) + 3.0
    ridge_norms = [np.linalg.norm(train_ridge(x, target, lam).weights) for lam in lambdas]
    for a, b in zip(ridge_norms, ridge_norms[1:]):
        assert a >= b - 1e-6


def test_predict_proba_closed_forms():
    model = train_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 0.5)
    model.weights = np.array([0.0])
    model.intercept = 0.0
    assert predict_proba(model, np.array([3.0])) == pytest.approx(0.5)
    model.intercept = math.log(3.0)
    assert predict_proba(model, np.array([0.0])) == pytest.approx(0.75)


@given(st.floats(min_value=-5, max_value=5), st.floats(min_value=0.01, max_value=5))
def test_predict_proba_monotone_in_positive_weight(x0, bump):
    model = train_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 0.5)
    model.weights = np.array([1.3])
    model.intercept = -0.2
    lo = predict_proba(model, np.array([x0]))
    hi = predict_proba(model, np.array([x0 + bump]))
    assert hi >= lo
    assert 0.0 < lo < 1.0


def test_predict_length_mismatch():
    model = train_logistic(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), 0.5)
    with pytest.raises(ValueError, match="does not match"):
        predict_proba(model, np.zeros(3))
    # every predictor refuses one query (1-D) or a matrix (2-D) of the wrong width, before any work
    x, y = np.arange(8.0).reshape(4, 2), np.array([0.0, 1.0, 0.0, 1.0])
    for predict, fitted in ((predict_proba, train_logistic(x, y, 0.5)), (knn_predict, fit_knn(x, y, 3)),
                            (forest_predict, train_forest(x, y, ForestParams(n_trees=2), seed=0))):
        for queries in (np.zeros(3), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="feature length 3 does not match model dimension 2"):
                predict(fitted, queries)


# ---------------------------------------------------------------------------
# ridge regression


def test_ridge_recovers_exact_linear_fit():
    x = np.linspace(-2, 2, 20).reshape(-1, 1)
    y = 2.0 * x[:, 0] + 1.0
    model = train_ridge(x, y, 0.0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-4)
    assert model.intercept == pytest.approx(1.0, abs=1e-4)


def test_ridge_huge_regularization_predicts_mean():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 3))
    y = rng.normal(loc=4.0, size=30)
    model = train_ridge(x, y, 1e9)
    assert np.abs(model.weights).max() < 1e-6
    assert model.intercept == pytest.approx(y.mean(), abs=1e-5)


def normal_equations_ridge(x, y, lam):
    """Independent dense solve: (X^T X + n*lam*I)^-1 X^T y on centered data."""
    n = x.shape[0]
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    w = np.linalg.solve(xc.T @ xc + n * lam * np.eye(x.shape[1]), xc.T @ yc)
    b = y_mean - x_mean @ w
    return w, b


def test_ridge_matches_normal_equations():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    model = train_ridge(x, y, 0.5)
    w, b = normal_equations_ridge(x, y, 0.5)
    assert np.abs(model.weights - w).max() < 1e-4
    assert abs(model.intercept - b) < 1e-4


def test_ridge_gradient_vanishes_at_returned_weights():
    # gradient of mean squared error + lambda*||w||^2 at theta = [w, b]
    rng = np.random.default_rng(13)
    x = rng.normal(size=(15, 4))
    y = rng.normal(size=15)
    for lam in (0.0, 1e-3, 0.7, 50.0):
        model = train_ridge(x, y, lam)
        r = x @ model.weights + model.intercept - y
        grad_w = 2.0 * (x.T @ r) / len(y) + 2.0 * lam * model.weights
        assert np.abs(grad_w).max() < 1e-10
        assert abs(2.0 * r.mean()) < 1e-10


def test_ridge_unregularized_on_rank_deficient_design():
    # column 1 is constant and column 3 duplicates column 2, so X^T X is
    # singular at lambda = 0: the minimum-norm solution splits the duplicated
    # weight evenly and gives the constant column none
    rng = np.random.default_rng(19)
    base = rng.normal(size=(30, 2))
    x = np.column_stack([base[:, 0], np.full(30, 0.3), base[:, 1], base[:, 1]])
    y = 1.5 * base[:, 0] - 2.0 * base[:, 1] + 4.0
    model = train_ridge(x, y, 0.0)
    assert np.isfinite(model.weights).all()
    assert model.weights[1] == 0.0
    assert model.weights[2] == pytest.approx(model.weights[3], rel=1e-12)
    assert model.weights[[0, 2]] == pytest.approx([1.5, -1.0], rel=1e-9)
    assert model.intercept == pytest.approx(4.0, rel=1e-9)


# ---------------------------------------------------------------------------
# k-nearest neighbors


def test_knn_returns_training_label_at_zero_distance():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    y = np.array([1.0, 0.0, 1.0])
    model = fit_knn(x, y, 1)
    assert knn_predict(model, np.array([1.0, 1.0])) == 0.0


def brute_force_knn(x_train, y_train, query, k):
    d2 = [(((query - row) ** 2).sum(), i) for i, row in enumerate(x_train)]
    d2.sort()
    return float(np.mean([y_train[i] for _, i in d2[:k]]))


def test_knn_matches_hand_placed_enumeration():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.1, 3.0]])
    y = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
    model = fit_knn(x, y, 3)
    for query in ([0.2, 0.1], [2.9, 3.0], [1.0, 1.0]):
        q = np.array(query)
        assert knn_predict(model, q) == brute_force_knn(x, y, q, 3)


def test_knn_unanimous_labels():
    x = np.random.default_rng(7).normal(size=(9, 4))
    model = fit_knn(x, np.ones(9), 3)
    assert knn_predict(model, np.zeros(4)) == 1.0


def test_knn_with_k_equals_n_returns_base_rate():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(11, 3))
    y = (rng.random(11) < 0.4).astype(float)
    model = fit_knn(x, y, 11)
    for _ in range(5):
        assert knn_predict(model, rng.normal(size=3)) == pytest.approx(y.mean())


def test_knn_distance_ties_break_by_row_index():
    x = np.array([[0.0], [1.0], [-1.0]])
    y = np.array([0.0, 1.0, 0.0])
    # query 0.5 is equidistant from rows 0 and 1; the tie goes to row 0
    assert knn_predict(fit_knn(x, y, 1), np.array([0.5])) == 0.0
    # nudged toward row 1, the tie disappears
    assert knn_predict(fit_knn(x, y, 1), np.array([0.6])) == 1.0
    assert knn_predict(fit_knn(x, y, 3), np.array([0.0])) == pytest.approx(1 / 3)


def test_knn_many_queries_equal_one_at_a_time():
    # integer coordinates keep every squared distance exact, so distance ties
    # are common; query 0 sits on rows 2 and 5, a tie that must go to row 2
    rng = np.random.default_rng(16)
    x = rng.integers(-3, 4, size=(40, 5)).astype(float)
    x[5] = x[2]
    y = (rng.random(40) < 0.5).astype(float)
    y[2], y[5] = 1.0, 0.0
    queries = rng.integers(-3, 4, size=(300, 5)).astype(float)
    queries[0] = x[2]
    for k in (1, 7):
        model = fit_knn(x, y, k)
        batch = knn_predict(model, queries)
        assert batch.shape == (300,)
        assert np.array_equal(batch, [knn_predict(model, q) for q in queries])
        assert np.array_equal(batch, [brute_force_knn(x, y, q, k) for q in queries])
    assert knn_predict(fit_knn(x, y, 1), queries[0]) == 1.0


def test_knn_grid_scores_equal_one_fit_per_k():
    # integer coordinates make distance ties common; each k's row of the grid
    # must equal a separate fit at that k and the brute-force enumeration
    rng = np.random.default_rng(17)
    x = rng.integers(-2, 3, size=(60, 4)).astype(float)
    y = (rng.random(60) < 0.5).astype(float)
    queries = rng.integers(-2, 3, size=(40, 4)).astype(float)
    ks = list(range(1, 32, 2))
    grid = knn_predict(fit_knn(x, y, ks[-1]), queries, ks=ks)
    assert grid.shape == (len(ks), 40)
    for row, k in zip(grid, ks):
        assert np.array_equal(row, knn_predict(fit_knn(x, y, k), queries))
        assert np.array_equal(row, [brute_force_knn(x, y, q, k) for q in queries])


def test_knn_grid_validates_every_k():
    model = fit_knn(np.arange(10.0)[:, None], np.arange(10.0) % 2, 5)
    for ks in ([1, 4], [0, 3], [3, 7]):
        with pytest.raises(ValueError, match="positive odd integer at most 5"):
            knn_predict(model, np.zeros((2, 1)), ks=ks)


def test_knn_validates_k():
    x = np.zeros((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="odd"):
        fit_knn(x, y, 2)
    with pytest.raises(ValueError, match="exceeds"):
        fit_knn(x, y, 5)


# ---------------------------------------------------------------------------
# random forest


def test_forest_forced_split_on_separating_feature():
    x = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    model = train_forest(x, y, ForestParams(n_trees=25, max_depth=1), seed=1)
    for tree in model.trees:
        assert tree.feature[0] == 0
    preds = forest_predict(model, x)
    assert ((preds >= 0.5) == (y == 1.0)).all()


def test_forest_deterministic_given_seed():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(80, 6))
    y = (rng.random(80) < 0.5).astype(float)
    a = train_forest(x, y, ForestParams(n_trees=12, max_depth=4), seed=99)
    b = train_forest(x, y, ForestParams(n_trees=12, max_depth=4), seed=99)
    query = rng.normal(size=(10, 6))
    assert np.array_equal(forest_predict(a, query), forest_predict(b, query))


def xor_dataset():
    x = np.array(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 2
    )
    y = np.array([0.0, 1.0, 1.0, 0.0] * 2)
    return x, y


def enumerate_stump_accuracy(x, y):
    """Best training accuracy over every (feature, threshold) stump."""
    best = 0.0
    n = len(y)
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        cuts = (values[1:] + values[:-1]) / 2
        for thr in cuts:
            left = x[:, f] <= thr
            for left_label in (0.0, 1.0):
                pred = np.where(left, left_label, 1.0 - left_label)
                best = max(best, float((pred == y).mean()))
    return best


def test_depth_two_forest_solves_xor_but_stumps_cannot():
    x, y = xor_dataset()
    stump_ceiling = enumerate_stump_accuracy(x, y)
    assert stump_ceiling <= 0.75

    deep = train_forest(x, y, ForestParams(n_trees=200, max_depth=2), seed=11)
    deep_preds = (forest_predict(deep, x) >= 0.5).astype(float)
    assert (deep_preds == y).mean() == 1.0

    shallow = train_forest(x, y, ForestParams(n_trees=200, max_depth=1), seed=11)
    shallow_preds = (forest_predict(shallow, x) >= 0.5).astype(float)
    assert (shallow_preds == y).mean() <= 0.75


def test_forest_probabilities_average_per_tree_leaves():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(60, 5))
    y = (x[:, 0] > 0).astype(float)
    model = train_forest(x, y, ForestParams(n_trees=15, max_depth=3), seed=2)
    queries = rng.normal(size=(20, 5))
    probs = forest_predict(model, queries)
    per_tree = [forest_predict(ForestModel([tree], model.params, model.seed, 5), queries)
                for tree in model.trees]
    assert probs.min() >= 0.0 and probs.max() <= 1.0
    assert np.allclose(probs, np.mean(per_tree, axis=0))


def test_forest_rejects_single_class():
    with pytest.raises(ValueError, match="both classes"):
        train_forest(np.zeros((4, 2)), np.ones(4), ForestParams(n_trees=2), seed=0)


def test_forest_depth_limit_respected():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(200, 4))
    y = (rng.random(200) < 0.5).astype(float)
    model = train_forest(x, y, ForestParams(n_trees=5, max_depth=3), seed=3)

    def depth_of(tree, node=0):
        if tree.feature[node] < 0:
            return 0
        return 1 + max(depth_of(tree, tree.left[node]), depth_of(tree, tree.left[node] + 1))

    for tree in model.trees:
        assert depth_of(tree) <= 3


def walk_to_leaves(model, queries):
    """Oracle: each row walked to its leaf in each tree, trees summed in order."""
    acc = np.zeros(len(queries))
    for tree in model.trees:
        for i, q in enumerate(queries):
            node = 0
            while tree.feature[node] >= 0:
                go_left = q[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] + (not go_left)
            acc[i] += tree.prob[node]
    return acc / len(model.trees)


@pytest.mark.parametrize("min_split,min_leaf", [(2, 1), (6, 1), (2, 4), (12, 5)])
def test_forest_grown_to_depth_equals_deepest_truncated(min_split, min_leaf):
    # few distinct values per feature give tied thresholds and pure nodes at
    # every depth; the deep forest read at depth d must score exactly like
    # the forest grown to d
    rng = np.random.default_rng(18)
    x = rng.integers(0, 6, size=(240, 9)).astype(float)
    y = (rng.random(240) < 0.25 + 0.1 * x[:, 0]).astype(float)
    queries = np.vstack([x, rng.integers(-1, 7, size=(200, 9)) + rng.random((200, 9))])
    params = ForestParams(n_trees=6, max_depth=10, min_samples_split=min_split,
                          min_samples_leaf=min_leaf)
    deepest = train_forest(x, y, params, seed=23)
    read = forest_predict(deepest, queries, depths=range(1, 11))
    assert read.shape == (10, len(queries))
    for depth in range(1, 11):
        grown = train_forest(x, y, replace(params, max_depth=depth), seed=23)
        assert np.array_equal(read[depth - 1], forest_predict(grown, queries))
        assert np.array_equal(read[depth - 1], walk_to_leaves(grown, queries))
    assert np.array_equal(read[-1], forest_predict(deepest, queries))


def test_forest_depths_must_lie_within_the_model():
    x, y = xor_dataset()
    model = train_forest(x, y, ForestParams(n_trees=2, max_depth=2), seed=1)
    for depths in ([0, 2], [1, 3], [-1]):
        with pytest.raises(ValueError, match="every depth must be a positive integer at most 2"):
            forest_predict(model, x, depths=depths)


# The recursive grower the level-wise one replaced, kept as its oracle: one
# node at a time in depth-first preorder, each scored by its own argsort.


def _best_split(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, feats: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Exact best Gini split over candidate features; ties go to the lowest
    feature index, then the lowest threshold."""
    m = rows.shape[0]
    cols = x[np.ix_(rows, feats)]
    order = np.argsort(cols, axis=0, kind="stable")
    svals = np.take_along_axis(cols, order, axis=0)
    sy = y[rows][order]

    pos_total = float(y[rows].sum())
    left_pos = np.cumsum(sy, axis=0)[:-1]
    left_cnt = np.arange(1, m, dtype=float)[:, None]
    right_pos = pos_total - left_pos
    right_cnt = m - left_cnt

    valid = svals[1:] > svals[:-1]
    if min_leaf > 1:
        valid &= (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
    if not valid.any():
        return None

    pl = left_pos / left_cnt
    pr = right_pos / right_cnt
    gini_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    weighted = (left_cnt * gini_left + right_cnt * gini_right) / m
    weighted = np.where(valid, weighted, np.inf)

    best = float(weighted.min())
    if not math.isfinite(best):
        return None
    positions = np.argwhere(weighted == best)
    choice: tuple[int, float] | None = None
    for pos, col in positions:
        feat = int(feats[col])
        lo, hi = float(svals[pos, col]), float(svals[pos + 1, col])
        thr = (lo + hi) / 2.0
        if thr >= hi:  # midpoint rounded up between adjacent floats
            thr = lo
        if choice is None or (feat, thr) < choice:
            choice = (feat, thr)
    return choice


def splitmix(state: int, i: int) -> int:
    """Output i of the splitmix64 stream with state `state`, in Python integers."""
    z = (state + (i + 1) * 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def splitmix_draw(key: int, d: int, nf: int) -> list[int]:
    """The nf features of a node with this key: lowest score splitmix(key, 2 + f) first, a tie to
    the lower feature, returned sorted."""
    return sorted(sorted(range(d), key=lambda f: (splitmix(key, 2 + f), f))[:nf])


def _grow_tree(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, params: ForestParams,
    nf: int, root_key: int,
) -> _Tree:
    """Grow one tree on the bootstrap `rows` node by node, depth first, then number it breadth
    first (`breadth_first`).

    The root has key `root_key`, and a node with key k gives its children
    the keys splitmix(k, 0) and splitmix(k, 1) and draws its features by
    `splitmix_draw`. A key is 64 bits at any depth and depends only on the
    node's path, so no split depends on max_depth: the tree grown to depth d
    is this tree cut off at d (`forest_predict(depths=)`).
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    prob: list[float] = []
    d = x.shape[1]

    def leaf(node_rows: np.ndarray) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(float(y[node_rows].mean()))
        return idx

    def build(node_rows: np.ndarray, depth: int, key: int) -> int:
        m = node_rows.shape[0]
        pos = float(y[node_rows].sum())
        if depth >= params.max_depth or m < params.min_samples_split or pos == 0.0 or pos == m:
            return leaf(node_rows)
        feats = np.array(splitmix_draw(key, d, nf))
        split = _best_split(x, y, node_rows, feats, params.min_samples_leaf)
        if split is None:
            return leaf(node_rows)
        feat, thr = split
        mask = x[node_rows, feat] <= thr
        idx = len(feature)
        feature.append(feat)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        prob.append(float(y[node_rows].mean()))
        left_idx = build(node_rows[mask], depth + 1, splitmix(key, 0))
        right_idx = build(node_rows[~mask], depth + 1, splitmix(key, 1))
        left[idx] = left_idx
        right[idx] = right_idx
        return idx

    build(rows, 0, root_key)
    return breadth_first(feature, threshold, left, right, prob)


def breadth_first(feature, threshold, left, right, prob) -> _Tree:
    """A node table with children at `left` and `right`, renumbered level by level from the root,
    each split node's children in (left, right) order, so that they are left and left + 1."""
    order = [0]
    for node in order:  # the list grows as it is walked: a queue
        if feature[node] >= 0:
            order += [left[node], right[node]]
    place = {node: i for i, node in enumerate(order)}
    return _Tree(
        np.array([feature[i] for i in order], dtype=np.int64),
        np.array([threshold[i] for i in order], dtype=float),
        np.array([place[left[i]] if feature[i] >= 0 else -1 for i in order], dtype=np.int64),
        np.array([prob[i] for i in order], dtype=float),
    )


def reference_forest(x: np.ndarray, y: np.ndarray, params: ForestParams, seed: int) -> ForestModel:
    """`train_forest` by the recursive grower: same seeds, bootstraps and root keys."""
    n, d = x.shape
    nf = math.ceil(math.sqrt(d))
    seeds = np.random.SeedSequence(seed).spawn(params.n_trees)
    trees = []
    for tree_seed in seeds:
        rows = np.random.default_rng(tree_seed).integers(0, n, size=n)
        root_key = int(tree_seed.generate_state(1, np.uint64)[0])
        trees.append(_grow_tree(x, y, rows, params, nf, root_key))
    return ForestModel(trees, params, seed, d)


def assert_same_forest(x, y, params, seed):
    grown = model_to_dict(train_forest(x, y, params, seed))
    assert grown == model_to_dict(reference_forest(x, y, params, seed))
    return grown


@pytest.mark.parametrize("min_split,min_leaf", [(2, 1), (5, 1), (2, 3), (10, 4)])
def test_level_wise_forest_equals_recursive_reference(default_train_matrix, min_split, min_leaf):
    x, y = default_train_matrix
    for depth in (1, 2, 3, 8, 16):
        params = ForestParams(n_trees=8, max_depth=depth, min_samples_split=min_split,
                              min_samples_leaf=min_leaf)
        grown = assert_same_forest(x, y, params, seed=201 + depth)
        if depth > 1:
            assert any(len(t["feature"]) > 3 for t in grown["trees"])


@given(
    st.integers(10, 60).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=n, max_size=n),
        st.lists(st.integers(0, 99), min_size=n, max_size=n),
    )),
    st.integers(5, 50),
    st.integers(2, 10),
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_level_wise_forest_equals_reference_on_tie_heavy_data(
    data, base_rate, min_split, min_leaf, depth, seed
):
    values, draws = data
    x = np.array(values, dtype=float)
    # a duplicated column, a constant one, and one of adjacent floats, whose
    # midpoints round up to the upper value
    x = np.column_stack([x, x[:, 1], np.full(len(x), 1.0), 1.0 + x[:, 2] * np.finfo(float).eps])
    y = (np.array(draws) < base_rate).astype(float)
    y[0], y[1] = 0.0, 1.0  # both classes; the rest skew with base_rate
    params = ForestParams(n_trees=3, max_depth=depth, min_samples_split=min_split,
                          min_samples_leaf=min_leaf)
    assert_same_forest(x, y, params, seed)


def test_level_wise_forest_equals_reference_past_depth_63():
    # alternating labels peel off a few rows per split, so this tree grows
    # 92 levels deep, past where a node numbered 2^depth would need 64 bits;
    # a node key stays one 64-bit splitmix64 output at every depth
    x = np.column_stack([np.arange(1500), np.arange(1500)[::-1]]).astype(float)
    y = (np.arange(1500) % 2).astype(float)
    grown = assert_same_forest(x, y, ForestParams(n_trees=1, max_depth=100), seed=1)
    tree = grown["trees"][0]
    depth = [0] * len(tree["feature"])
    for node, left in enumerate(tree["left"]):
        if left >= 0:
            depth[left] = depth[left + 1] = depth[node] + 1
    assert max(depth) > 63


@pytest.mark.parametrize("min_leaf", [1, 3])
def test_level_wise_forest_equals_reference_when_values_outnumber_rows(min_leaf):
    # a column of 200 distinct values beside two binary ones: below the top
    # levels every node holds fewer rows than that column has value bins
    rng = np.random.default_rng(12)
    x = np.column_stack([rng.permutation(200) / 7.0, rng.integers(0, 2, size=(200, 2))])
    y = ((x[:, 0] > 12.0) ^ (x[:, 1] == 1.0) ^ (rng.random(200) < 0.4)).astype(float)
    grown = assert_same_forest(x, y, ForestParams(n_trees=10, max_depth=12, min_samples_leaf=min_leaf),
                               seed=5)
    depth = []
    for tree in grown["trees"]:
        level = {0: 0}
        for node, left in enumerate(tree["left"]):
            if left >= 0:
                level[left] = level[left + 1] = level[node] + 1
        depth.append(max(level.values()))
    assert max(depth) == 12


def test_splitmix_oracle_matches_published_outputs():
    # splitmix64's reference outputs: the first from state 0, the first five from state 1234567
    assert splitmix(0, 0) == 0xE220A8397B1DCDAF
    assert [splitmix(1234567, i) for i in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 90, 300])
def test_level_draw_equals_the_splitmix_oracle(d):
    nf = math.ceil(math.sqrt(d))
    # two blocks and one node more, so the draw crosses a block boundary
    n_nodes = 2 * max(1, _CHUNK_ELEMENTS // d) + 1
    keys = [0, 2**64 - 1] + np.random.default_rng(d).integers(
        0, 2**64 - 1, size=n_nodes - 2, dtype=np.uint64, endpoint=True).tolist()
    got = _draw_features(np.array(keys, dtype=np.uint64), d, nf)
    assert got.shape == (n_nodes, nf) and got.dtype == np.int64
    assert ((got >= 0) & (got < d)).all() and (np.diff(got, axis=1) > 0).all()
    assert got.tolist() == [splitmix_draw(key, d, nf) for key in keys]


def test_level_draw_picks_every_feature_about_equally_often():
    # 20,000 consecutive keys at d = 90 pick each feature 20,000 * 10 / 90 = 2,222 times in
    # expectation, with a binomial SD of 44; a bound of 10% is five SDs
    d, nf, n_nodes = 90, 10, 20_000
    counts = np.bincount(_draw_features(np.arange(n_nodes, dtype=np.uint64), d, nf).ravel(), minlength=d)
    assert counts.sum() == n_nodes * nf
    assert np.abs(counts - n_nodes * nf / d).max() < 0.1 * n_nodes * nf / d


def test_forest_growth_memory_stays_bounded(default_train_matrix):
    # scoring a level in bounded chunks keeps this near 2-3 MB; scoring
    # every open node of 50 trees at once takes ~30 MB
    x, y = default_train_matrix
    tracemalloc.start()
    try:
        train_forest(x, y, ForestParams(n_trees=50, max_depth=16), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_a_loaded_cohort_keeps_lean_shared_records(tmp_path):
    # slotted records and one shared value per distinct cell text keep about
    # 120 B per transcript row; a __dict__ per record and fresh cell values
    # per row kept 278 B
    paths = write_cohort(*generate_cohort(SynthConfig(n_students=300, seed=11)), tmp_path)
    tracemalloc.start()
    try:
        students = load_students(paths["students"], paths["transcripts"], paths["degrees"])
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = [e for s in students for e in s.transcript]
    assert retained / len(entries) < 160
    department_objects: dict[str, set[int]] = {}
    for e in entries:
        department_objects.setdefault(e.department, set()).add(id(e.department))
    assert len(department_objects) == 8
    assert all(len(objects) == 1 for objects in department_objects.values())
    s = students[0]
    for record in (s, s.demographics, s.entry, s.transcript[0]):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, fields(record)[0].name, None)


def test_forest_labels_must_be_zero_or_one():
    x = np.arange(6.0)[:, None]
    with pytest.raises(ValueError, match=r"labels must be 0 or 1, got \[0.0, 2.0\]"):
        train_forest(x, np.array([0.0, 2.0] * 3), ForestParams(n_trees=2), seed=0)


# ---------------------------------------------------------------------------
# serialization


def test_linear_model_round_trip(tmp_path):
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_logistic(x, y, 0.2)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path, x, y)
    assert np.allclose(loaded.weights, model.weights)
    assert loaded.intercept == model.intercept
    assert loaded.task == "classification"


def test_forest_round_trip_preserves_predictions(tmp_path):
    rng = np.random.default_rng(15)
    x = rng.normal(size=(50, 4))
    y = (x[:, 1] > 0).astype(float)
    model = train_forest(x, y, ForestParams(n_trees=7, max_depth=4), seed=21)
    save_model(model, tmp_path / "forest.json")
    loaded = load_model(tmp_path / "forest.json", x, y)
    queries = rng.normal(size=(12, 4))
    assert np.array_equal(forest_predict(loaded, queries), forest_predict(model, queries))


def test_knn_round_trip(tmp_path):
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    y = np.array([1.0, 0.0, 1.0])
    model = fit_knn(x, y, 1)
    save_model(model, tmp_path / "knn.json")
    assert read_json(tmp_path / "knn.json") == {"kind": "knn", "k": 1}  # the rows are the caller's
    loaded = load_model(tmp_path / "knn.json", x, y)
    assert np.array_equal(loaded.x_train, x) and np.array_equal(loaded.y_train, y)
    assert knn_predict(loaded, np.array([0.1, 0.9])) == knn_predict(model, np.array([0.1, 0.9]))


def test_a_model_file_with_a_schema_hash_still_loads(tmp_path):
    # model files written before the field was dropped carry "schema_hash", and kNN files written
    # before the training rows were dropped carry "x_train" and "y_train": both are ignored
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    knn = fit_knn(x, y, 3)
    parent_knn = {"kind": "knn", "k": 3, "x_train": [[9.0], [8.0], [7.0], [6.0]], "y_train": [1.0, 1.0, 0.0, 0.0]}
    for model, payload in (
        (train_logistic(x, y, 0.1), None),
        (knn, None),
        (knn, parent_knn),
        (train_forest(x, y, ForestParams(n_trees=3, max_depth=2), seed=5), None),
    ):
        path = tmp_path / "model.json"
        write_json(path, {**(payload or model_to_dict(model)), "schema_hash": "abc123"}, indent=None)
        loaded = load_model(path, x, y)
        assert type(loaded) is type(model)
        assert model_to_dict(loaded) == model_to_dict(model)
        if isinstance(loaded, KnnModel):  # refit on the rows given, not on the rows of the file
            assert np.array_equal(loaded.x_train, x) and np.array_equal(loaded.y_train, y)


def test_model_dict_round_trip_all_kinds():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    for model in (
        train_logistic(x, y, 0.1),
        train_ridge(x, y.astype(float), 0.1),
        fit_knn(x, y, 3),
        train_forest(x, y, ForestParams(n_trees=3, max_depth=2), seed=5),
    ):
        payload = model_to_dict(model)
        rebuilt = model_from_dict(payload, x, y)
        assert type(rebuilt) is type(model)
        assert model_to_dict(rebuilt) == payload


UNFIT = "does not fit one tree of 2 features"


@pytest.mark.parametrize("edit, reason", [
    (lambda t: t["left"].__setitem__(0, len(t["left"]) - 1), UNFIT),
    (lambda t: t["left"].__setitem__(0, -1), UNFIT),
    (lambda t: t["left"].__setitem__(0, 0), UNFIT),
    (lambda t: t["feature"].__setitem__(0, 2), UNFIT),
    (lambda t: t["feature"].__setitem__(0, -2), UNFIT),
    (lambda t: t["prob"].pop(), UNFIT),
    (lambda t: t["left"].pop(), UNFIT),
    (lambda t: [t[key].clear() for key in t], UNFIT),
    # a file whose nodes are in depth-first preorder, each right child in a list of its own
    (lambda t: t.update(right=[c + 1 if c >= 0 else -1 for c in t["left"]]), "not feature, left, prob"),
], ids=["child-past-the-end", "leaf-child-of-a-split", "child-at-its-parent", "feature-past-n_features",
        "feature-below-leaf", "short-prob", "short-left", "no-nodes", "a-right-list"])
def test_a_forest_node_table_that_does_not_fit_its_tree_is_refused(edit, reason):
    x = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0], [3.0, 2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    payload = model_to_dict(train_forest(x, y, ForestParams(n_trees=1, max_depth=2), seed=5))
    assert payload["trees"][0]["feature"][0] >= 0  # the root splits
    edit(payload["trees"][0])
    with pytest.raises(ValueError, match=reason):
        model_from_dict(payload, x, y)


def test_a_knn_file_is_held_to_fit_knn_rules():
    x, y = np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 1.0])
    payload = model_to_dict(fit_knn(x, y, 3))
    for k, reason in ((5, "exceeds training size 3"), (2, "positive odd integer")):
        with pytest.raises(ValueError, match=reason):
            model_from_dict({**payload, "k": k}, x, y)
