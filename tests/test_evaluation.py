import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrition.evaluation import (
    accuracy,
    cv_tune,
    kfold_indices,
    roc_and_auc,
    screen_features,
    split,
    timing_experiment,
    trimmed_rmse,
)
from attrition.features import FeatureConfig, encode_dataset, fit_schema
from attrition.labeling import LabeledDataset, OutcomeLabel, label_all
from attrition.models import (
    ForestParams,
    fit_knn,
    forest_predict,
    knn_predict,
    predict_linear,
    predict_proba,
    train_forest,
    train_logistic,
    train_ridge,
)

from conftest import entry, simple_student


def tiny_dataset(n, grad_every=2):
    record = simple_student()
    return LabeledDataset(
        tuple((record, OutcomeLabel(i % grad_every == 0, 4, 24)) for i in range(n))
    )


# ---------------------------------------------------------------------------
# split


def test_split_partitions_disjointly():
    ds = LabeledDataset(
        tuple(
            (simple_student(sid=f"S{i}"), OutcomeLabel(i % 2 == 0, 4, 24))
            for i in range(100)
        )
    )
    train, test = split(ds, 0.30, seed=1)
    assert len(train.records) == 70
    assert len(test.records) == 30
    train_ids = {s.student_id for s, _ in train.records}
    test_ids = {s.student_id for s, _ in test.records}
    assert not (train_ids & test_ids)
    assert len(train_ids | test_ids) == 100


def test_split_deterministic():
    ds = tiny_dataset(50)
    a_train, a_test = split(ds, 0.30, seed=9)
    b_train, b_test = split(ds, 0.30, seed=9)
    assert [lab for _, lab in a_train.records] == [lab for _, lab in b_train.records]
    assert [lab for _, lab in a_test.records] == [lab for _, lab in b_test.records]


def test_split_uses_floor_rule_at_registrar_scale():
    ds = tiny_dataset(32538)
    train, test = split(ds, 0.30, seed=2)
    assert len(test.records) == 9761  # floor(32538 * 0.30)
    assert len(train.records) == 32538 - 9761


def test_split_rejects_bad_fraction():
    ds = tiny_dataset(20)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            split(ds, bad, seed=1)


# ---------------------------------------------------------------------------
# cross-validation


def test_kfold_partition_covers_every_row_once():
    folds = kfold_indices(103, 10, seed=3)
    assert len(folds) == 10
    combined = np.sort(np.concatenate(folds))
    assert np.array_equal(combined, np.arange(103))


def test_cv_tune_singleton_grid_returns_it():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 3))
    y = (x[:, 0] > 0).astype(float)
    value, means = cv_tune(x, y, "logistic_regression", [0.5], folds=5, seed=1)
    assert value == 0.5
    assert set(means) == {0.5}


def test_cv_tune_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid is empty"):
        cv_tune(np.zeros((10, 1)), np.zeros(10), "logistic_regression", [], folds=2)


def test_cv_tune_matches_independent_sweep():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 4))
    logits = 1.8 * x[:, 0] - 1.1 * x[:, 2]
    y = (rng.random(120) < 1 / (1 + np.exp(-logits))).astype(float)
    grid = [1e-3, 1e-1, 10.0]
    chosen, means = cv_tune(x, y, "logistic_regression", grid, folds=5, seed=6)

    # independent re-run of the same protocol, written out longhand
    perm = np.random.default_rng(6).permutation(120)
    blocks = [np.sort(b) for b in np.array_split(perm, 5)]
    sweep = {}
    for lam in grid:
        aucs = []
        for va in blocks:
            tr = np.setdiff1d(np.arange(120), va)
            model = train_logistic(x[tr], y[tr], lam)
            _, auc = roc_and_auc(predict_proba(model, x[va]), y[va])
            aucs.append(auc)
        sweep[lam] = float(np.mean(aucs))
    best = max(sweep.values())
    assert means[chosen] >= best - 0.02


def test_cv_tune_breaks_ties_toward_smaller_values():
    # constant features make every k equivalent; the smallest must win
    x = np.zeros((30, 2))
    y = np.array([0.0, 1.0] * 15)
    value, means = cv_tune(x, y, "knn", [3, 5, 7], folds=3, seed=1)
    assert value == 3
    assert len(set(round(v, 12) for v in means.values())) == 1


def reference_cv_means(x, y, grid, folds, seed, fit_and_score, metric="auc"):
    """One fit per (value, fold), values outer: the protocol cv_tune must reproduce."""
    blocks = kfold_indices(len(y), folds, seed)
    fold_seeds = [int(s.generate_state(1, dtype=np.uint64)[0])
                  for s in np.random.SeedSequence(seed).spawn(folds)]
    means = {}
    for value in sorted(grid):
        scores = []
        for va, fold_seed in zip(blocks, fold_seeds):
            tr = np.setdiff1d(np.arange(len(y)), va)
            pred = fit_and_score(value, x[tr], y[tr], x[va], fold_seed)
            if metric == "auc":
                scores.append(roc_and_auc(pred, y[va])[1])
            else:
                scores.append(float(np.sqrt(np.mean((pred - y[va]) ** 2))))
        means[value] = float(np.mean(scores))
    return means


def test_cv_tune_forest_means_equal_growing_each_depth():
    rng = np.random.default_rng(12)
    x = rng.integers(0, 5, size=(150, 6)).astype(float)
    y = (rng.random(150) < 0.3 + 0.1 * x[:, 1]).astype(float)
    params = ForestParams(n_trees=4, max_depth=99, min_samples_leaf=2)
    grid = [6, 1, 3, 2]

    def grow(depth, x_tr, y_tr, x_va, fold_seed):
        model = train_forest(x_tr, y_tr, ForestParams(4, depth, min_samples_leaf=2), fold_seed)
        return forest_predict(model, x_va)

    chosen, means = cv_tune(x, y, "random_forest", grid, folds=4, seed=13, forest_params=params)
    expected = reference_cv_means(x, y, grid, 4, 13, grow)
    assert means == expected
    assert list(means) == [1, 2, 3, 6]
    assert chosen == max(expected, key=expected.__getitem__)


def test_cv_tune_knn_means_equal_one_fit_per_k():
    # integer coordinates: many neighbours tie on distance
    rng = np.random.default_rng(14)
    x = rng.integers(-2, 3, size=(90, 3)).astype(float)
    y = (rng.random(90) < 0.4 + 0.1 * x[:, 0]).astype(float)
    grid = list(range(1, 40, 2))
    _, means = cv_tune(x, y, "knn", grid, folds=5, seed=15)
    expected = reference_cv_means(
        x, y, grid, 5, 15, lambda k, x_tr, y_tr, x_va, _: knn_predict(fit_knn(x_tr, y_tr, k), x_va)
    )
    assert means == expected


TWO_CPUS = pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                              reason="the folds run in workers only with two CPUs or more")


@TWO_CPUS
@pytest.mark.parametrize("kind", ["random_forest", "knn"])
def test_a_failing_worker_fold_raises_the_in_process_error(kind, monkeypatch):
    # a NaN row in fold 1's validation block: fold 1 scores, every later fold's training rows are refused
    rng = np.random.default_rng(18)
    x = rng.normal(size=(40, 3))
    y = (np.arange(40) % 2).astype(float)
    x[kfold_indices(40, 5, 19)[0][0], 1] = np.nan
    grid = [1, 3] if kind == "knn" else [1, 2]

    with pytest.raises(ValueError) as pooled:
        cv_tune(x, y, kind, grid, folds=5, seed=19, forest_params=ForestParams(n_trees=3))
    assert multiprocessing.active_children() == []
    assert pooled.value.__cause__.__cause__ is not None  # the worker's traceback

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError) as in_process:
        cv_tune(x, y, kind, grid, folds=5, seed=19, forest_params=ForestParams(n_trees=3))
    assert in_process.value.__cause__.__cause__ is None
    assert str(pooled.value) == str(in_process.value) == f"{kind} fold 2/5: training data contains non-finite values"


@TWO_CPUS
@pytest.mark.parametrize("kind, grid", [("logistic_regression", [1e-3, 0.1, 10.0]), ("ridge", [0.0, 0.1, 10.0]),
                                        ("random_forest", [1, 3, 6]), ("knn", [1, 5, 15])])
def test_forked_and_in_process_cv_agree(kind, grid, monkeypatch):
    rng = np.random.default_rng(20)
    x = rng.normal(size=(150, 8))
    signal = x @ rng.normal(size=8)
    y = (signal + rng.normal(size=150) if kind == "ridge"
         else (rng.random(150) < 1 / (1 + np.exp(-signal))).astype(float))
    if kind == "logistic_regression":
        assert train_logistic(x, y, grid[0]).n_iterations >= 4  # several Newton steps, each a BLAS product
    forked = cv_tune(x, y, kind, grid, folds=5, seed=21, forest_params=ForestParams(n_trees=5))
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cv_tune(x, y, kind, grid, folds=5, seed=21, forest_params=ForestParams(n_trees=5)) == forked


@TWO_CPUS
def test_a_failing_logistic_worker_fold_names_kind_and_fold(monkeypatch):
    # the positives are exactly fold 1's validation block, so fold 1 trains on one class
    x = np.random.default_rng(22).normal(size=(40, 3))
    y = np.zeros(40)
    y[kfold_indices(40, 5, 23)[0]] = 1.0

    with pytest.raises(ValueError) as pooled:
        cv_tune(x, y, "logistic_regression", [0.1, 1.0], folds=5, seed=23)
    assert multiprocessing.active_children() == []
    assert pooled.value.__cause__.__cause__ is not None  # the worker's traceback

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(ValueError) as in_process:
        cv_tune(x, y, "logistic_regression", [0.1, 1.0], folds=5, seed=23)
    assert str(pooled.value) == str(in_process.value) == (
        "logistic_regression fold 1/5: logistic regression needs both classes present")


def test_cv_tune_linear_means_equal_one_fit_per_value():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(80, 3))
    y_class = (rng.random(80) < 1 / (1 + np.exp(-2 * x[:, 0]))).astype(float)
    y_reg = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=80)
    grid = [10.0, 1e-3, 0.1]
    _, lr_means = cv_tune(x, y_class, "logistic_regression", grid, folds=5, seed=17)
    assert lr_means == reference_cv_means(
        x, y_class, grid, 5, 17,
        lambda lam, x_tr, y_tr, x_va, _: predict_proba(train_logistic(x_tr, y_tr, lam), x_va),
    )
    _, ridge_means = cv_tune(x, y_reg, "ridge", grid, folds=5, seed=17)
    assert ridge_means == reference_cv_means(
        x, y_reg, grid, 5, 17,
        lambda lam, x_tr, y_tr, x_va, _: predict_linear(train_ridge(x_tr, y_tr, lam), x_va),
        metric="rmse",
    )


# ---------------------------------------------------------------------------
# ROC / AUC / accuracy


def test_auc_perfect_separation():
    points, auc = roc_and_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])
    assert auc == 1.0


def test_auc_with_tied_scores():
    _, auc = roc_and_auc([0.8, 0.5, 0.5, 0.2], [1, 0, 1, 0])
    assert auc == pytest.approx(0.875, abs=1e-12)  # 3 wins + 1 tie out of 4 pairs


def test_auc_constant_scores_is_half():
    _, auc = roc_and_auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
    assert auc == pytest.approx(0.5, abs=1e-12)


def test_roc_requires_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        roc_and_auc([0.1, 0.2], [1, 1])


def test_roc_points_shape():
    points, _ = roc_and_auc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])
    assert points[0][:2] == (0.0, 0.0)
    assert points[-1][:2] == (1.0, 1.0)
    fprs = [p[0] for p in points]
    tprs = [p[1] for p in points]
    assert fprs == sorted(fprs)
    assert tprs == sorted(tprs)
    thresholds = [p[2] for p in points]
    assert thresholds == sorted(thresholds, reverse=True)


def mann_whitney_auc(scores, labels):
    """Brute-force pair statistic: wins + half ties over all pos-neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_trapezoid_auc_equals_mann_whitney(data):
    n = data.draw(st.integers(min_value=2, max_value=50))
    labels = data.draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < len(ls)
        )
    )
    scores = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    _, auc = roc_and_auc(scores, labels)
    assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-12)


def test_accuracy_examples():
    assert accuracy([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0]) == 1.0
    assert accuracy([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5  # >= convention
    assert accuracy([0.6, 0.4, 0.7], [1, 1, 0]) == pytest.approx(1 / 3)


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy([0.5, 0.5], [1])


# ---------------------------------------------------------------------------
# screening


def test_screen_ranks_informative_column_first():
    rng = np.random.default_rng(7)
    n = 400
    informative = rng.normal(size=n)
    noise = rng.normal(size=n)
    constant = np.zeros(n)
    y = (rng.random(n) < 1 / (1 + np.exp(-3 * informative))).astype(float)
    x = np.column_stack([noise, informative, constant])
    names = ["noise", "informative", "constant"]
    rows = screen_features(names, x[:300], y[:300], x[300:], y[300:])
    assert rows[0].feature == "informative"
    by_name = {r.feature: r for r in rows}
    assert by_name["constant"].auc == pytest.approx(0.5, abs=1e-12)
    assert abs(by_name["noise"].auc - 0.5) < 0.12


# ---------------------------------------------------------------------------
# timing


def nc_dataset_with_linear_target(n=60):
    records = []
    labels = []
    for i in range(n):
        sat = 500 + 100 * (i % 11)
        sid = f"S{i}"
        records.append(
            simple_student(
                sid=sid,
                sat=sat,
                act=20,
                entries=[entry(1998, "autumn", "MATH", grade=3.0)],
            )
        )
        labels.append(OutcomeLabel(False, sat // 100 - 3, 24))
    return LabeledDataset(tuple(zip(records, labels)))


def test_timing_exact_linear_target_fits_to_zero_error():
    ds = nc_dataset_with_linear_target()
    report = timing_experiment(ds, [0.0, 1e-3, 1.0], seed=8, folds=5)
    assert report.rmse < 1e-3
    assert report.chosen_lambda == 0.0


def test_timing_rejects_graduates_and_small_samples():
    graduate = (simple_student(), OutcomeLabel(True, 12, 24))
    with pytest.raises(ValueError, match="non-completing"):
        timing_experiment(LabeledDataset((graduate,) * 25), [0.1], seed=1)
    ds = nc_dataset_with_linear_target(15)
    with pytest.raises(ValueError, match="at least 20"):
        timing_experiment(ds, [0.1], seed=1)


def test_trimmed_rmse_drops_largest_errors():
    errors = np.array([1.0, 2.0, 10.0])
    assert trimmed_rmse(errors, 1 / 3) == pytest.approx(np.sqrt((1 + 4) / 2))
    assert trimmed_rmse(errors, 0.0) == pytest.approx(np.sqrt((1 + 4 + 100) / 3))


@given(
    st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=3, max_size=40)
)
@settings(max_examples=60)
def test_trimming_never_increases_rmse(errors):
    e = np.array(errors)
    full = trimmed_rmse(e, 0.0)
    drop5 = trimmed_rmse(e, 0.05)
    drop10 = trimmed_rmse(e, 0.10)
    assert full >= drop5 - 1e-12
    assert drop5 >= drop10 - 1e-12


def test_timing_report_trim_ordering(cohort_small):
    cfg, records, _ = cohort_small
    ds = label_all(records, cfg.degree_credits)
    ncs = LabeledDataset(tuple((s, lab) for s, lab in ds.records if not lab.graduated))
    report = timing_experiment(ncs, [1e-3, 0.1, 1.0], seed=3, folds=5)
    assert report.rmse >= report.rmse_drop5 >= report.rmse_drop10
    assert report.n_test == int(len(ncs.records) * 0.3)
    assert report.mean_target > 0
    assert report.sd_target > 0


# ---------------------------------------------------------------------------
# leakage and determinism


def test_no_information_flow_from_test_rows(cohort_small, tmp_path):
    cfg, records, _ = cohort_small
    from attrition.labeling import balance

    ds = balance(label_all(records, cfg.degree_credits), seed=1)
    train, test = split(ds, 0.30, seed=2)
    schema_a = fit_schema(train, FeatureConfig())
    _, x_a, y_a = encode_dataset(train, schema_a)
    schema_a.fit_scaling(x_a)
    model_a = train_logistic(schema_a.standardize(x_a), y_a, 0.1)

    # drop one test row; nothing fitted may change
    smaller_test = LabeledDataset(test.records[1:])
    schema_b = fit_schema(train, FeatureConfig())
    _, x_b, y_b = encode_dataset(train, schema_b)
    schema_b.fit_scaling(x_b)
    model_b = train_logistic(schema_b.standardize(x_b), y_b, 0.1)
    schema_a.to_json(tmp_path / "a.json")
    schema_b.to_json(tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert np.array_equal(model_a.weights, model_b.weights)
    assert len(smaller_test.records) == len(test.records) - 1


def test_evaluation_deterministic(cohort_small):
    cfg, records, _ = cohort_small
    ds = label_all(records, cfg.degree_credits)
    x = np.random.default_rng(1).normal(size=(len(ds.records), 3))
    y = np.array([0.0 if lab.graduated else 1.0 for _, lab in ds.records])
    a = cv_tune(x, y, "logistic_regression", [0.01, 0.1], folds=5, seed=11)
    b = cv_tune(x, y, "logistic_regression", [0.01, 0.1], folds=5, seed=11)
    assert a == b
