"""Evaluation protocol: splits, cross-validated tuning, ROC/AUC, screening, timing.

The test partition is carved off once (floor rule on the test fraction) and
never touches schema fitting, imputation, or tuning. Cross-validation folds
come from a seeded shuffle followed by contiguous blocks. ROC curves sweep
every distinct score threshold, and the trapezoidal AUC agrees with the
Mann-Whitney pair statistic (ties count one half) to float precision.

`cv_tune` scores the folds of every model kind in forked worker processes
(`workers.ordered_map`), one per CPU the process may use, and reads their
scores back in fold order, so no result depends on the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .features import FeatureConfig, encode_dataset, fit_schema
from .labeling import LabeledDataset
from .models import (
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
from .workers import ordered_map

@dataclass(frozen=True)
class ScreenRow:
    feature: str
    accuracy: float
    auc: float


@dataclass(frozen=True)
class TimingReport:
    rmse: float
    rmse_drop5: float
    rmse_drop10: float
    mean_target: float
    sd_target: float
    chosen_lambda: float
    n_test: int


def split(
    ds: LabeledDataset, test_fraction: float = 0.30, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Uniform random train/test partition; test size = floor(n * fraction)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be inside (0, 1), got {test_fraction}")
    n = len(ds.records)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    n_test = math.floor(n * test_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    test_idx = set(int(i) for i in perm[:n_test])
    train_records = tuple(r for i, r in enumerate(ds.records) if i not in test_idx)
    test_records = tuple(r for i, r in enumerate(ds.records) if i in test_idx)
    return LabeledDataset(train_records), LabeledDataset(test_records)


def kfold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Validation folds: seeded shuffle, then contiguous blocks."""
    if folds < 2 or folds > n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(block) for block in np.array_split(perm, folds)]


def roc_and_auc(
    scores: Sequence[float] | np.ndarray, labels: Sequence[int] | np.ndarray
) -> tuple[list[tuple[float, float, float]], float]:
    """ROC points (fpr, tpr, threshold) over all distinct thresholds, plus AUC.

    Points start at (0, 0) under a sentinel threshold above every score and
    end at (1, 1) at the minimum score. AUC is the trapezoidal area, which
    matches the tie-aware Mann-Whitney statistic exactly.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    n_pos = float(labels.sum())
    n_neg = float(len(labels)) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes present")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    tps = np.cumsum(y)
    fps = np.cumsum(1.0 - y)
    # last position of each distinct score value
    cuts = np.nonzero(np.append(s[1:] != s[:-1], True))[0]

    points: list[tuple[float, float, float]] = [(0.0, 0.0, float(s[0]) + 1.0)]
    for c in cuts:
        points.append((float(fps[c] / n_neg), float(tps[c] / n_pos), float(s[c])))
    auc = 0.0
    for (f0, t0, _), (f1, t1, _) in zip(points, points[1:]):
        auc += (f1 - f0) * (t1 + t0) / 2.0
    return points, auc


def accuracy(
    scores: Sequence[float] | np.ndarray,
    labels: Sequence[int] | np.ndarray,
    threshold: float = 0.5,
) -> float:
    """Fraction of rows where (score >= threshold) agrees with the label."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} scores vs {labels.shape} labels")
    return float(np.mean((scores >= threshold) == (labels > 0.5)))


def _grid_scores(f: int, kind: str, grid: list, x, y, fold_idx, forest_seeds, params: ForestParams) -> list:
    """Validation scores of fold `f` for every value of the ascending grid, fitted on the other
    folds' rows.

    One forest grown to the deepest depth is read at every depth in one
    traversal, and one neighbour sort per query serves every k; the linear
    models fit once per value.
    """
    tr = np.setdiff1d(np.arange(len(y)), fold_idx[f], assume_unique=True)
    x_tr, y_tr, x_va = x[tr], y[tr], x[fold_idx[f]]
    if kind == "logistic_regression":
        return [predict_proba(train_logistic(x_tr, y_tr, lam), x_va) for lam in grid]
    if kind == "knn":
        return list(knn_predict(fit_knn(x_tr, y_tr, grid[-1]), x_va, ks=grid))
    if kind == "random_forest":
        forest = train_forest(x_tr, y_tr, replace(params, max_depth=grid[-1]), forest_seeds[f])
        return list(forest_predict(forest, x_va, depths=grid))
    if kind == "ridge":
        return [predict_linear(train_ridge(x_tr, y_tr, lam), x_va) for lam in grid]
    raise ValueError(f"unknown model kind {kind!r}")


def cv_tune(
    x: np.ndarray,
    y: np.ndarray,
    kind: str,
    grid: Sequence,
    folds: int = 10,
    seed: int = 0,
    forest_params: ForestParams | None = None,
) -> tuple[float | int, dict]:
    """Pick the grid value with the best mean validation score across folds.

    Classifiers maximize AUC and ridge minimizes RMSE; exact ties go to the
    smaller (less complex) grid value because candidates are swept in
    ascending order. Folds are the outer loop, so each fold's training rows
    are fitted once for the whole grid where the learner allows it; the
    forest's `max_depth` comes from the grid, not from `forest_params`.

    The folds run in `workers.ordered_map`'s forked workers, one per usable
    CPU up to `folds`, which inherit x and y: a task carries only its fold
    number. With one CPU or without `fork` they run in-process. This process
    computes every AUC, RMSE and mean from the folds' scores in fold order,
    so the result does not depend on the CPU count and an error names the
    first failing fold.
    """
    if len(grid) == 0:
        raise ValueError("hyperparameter grid is empty")
    metric = "rmse" if kind == "ridge" else "auc"
    params = forest_params or ForestParams()
    values = sorted(set(grid))
    fold_idx = kfold_indices(len(y), folds, seed)
    forest_seeds = [int(s.generate_state(1, dtype=np.uint64)[0]) for s in np.random.SeedSequence(seed).spawn(folds)]
    shared = (kind, values, x, y, fold_idx, forest_seeds, params)

    fold_scores: list[list[float]] = [[] for _ in values]
    with ordered_map(_grid_scores, range(folds), shared) as results:
        for f, va in enumerate(fold_idx):
            try:
                for per_value, scores in zip(fold_scores, next(results)):
                    if metric == "auc":
                        per_value.append(roc_and_auc(scores, y[va])[1])
                    else:
                        per_value.append(_rmse(scores - y[va]))
            except ValueError as exc:
                raise ValueError(f"{kind} fold {f + 1}/{folds}: {exc}") from exc

    means = {value: float(np.mean(scores)) for value, scores in zip(values, fold_scores)}
    pick = max if metric == "auc" else min
    best_value = pick(values, key=means.__getitem__)  # the first (smallest) of equal means
    return best_value, means


def screen_features(
    feature_names: Sequence[str],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_test: np.ndarray,
    y_test: np.ndarray,
) -> list[ScreenRow]:
    """One univariate logistic regression (with intercept) per feature.

    Trains on the standardized training column, reports test accuracy and
    AUC, sorted by AUC descending. A column constant in training scores
    AUC 0.5 by construction.
    """
    rows: list[ScreenRow] = []
    for j, name in enumerate(feature_names):
        col_tr = x_train[:, j : j + 1]
        model = train_logistic(col_tr, y_train, 0.0)
        scores = predict_proba(model, x_test[:, j : j + 1])
        _, auc = roc_and_auc(scores, y_test)
        rows.append(ScreenRow(name, accuracy(scores, y_test), auc))
    rows.sort(key=lambda r: (-r.auc, r.feature))
    return rows


def _rmse(errors: np.ndarray) -> float:
    return float(np.sqrt(np.mean(errors * errors)))


def trimmed_rmse(errors: np.ndarray, drop_fraction: float) -> float:
    """RMSE after discarding the floor(drop_fraction * n) largest |errors|."""
    errors = np.asarray(errors, dtype=float)
    k = math.floor(drop_fraction * len(errors))
    if k == 0:
        return _rmse(errors)
    keep = np.argsort(-np.abs(errors), kind="stable")[k:]
    return _rmse(errors[keep])


def timing_experiment(
    ncs: LabeledDataset,
    grid: Sequence[float],
    seed: int,
    feature_config: FeatureConfig | None = None,
    folds: int = 10,
    test_fraction: float = 0.30,
    cv_seed: int | None = None,
) -> TimingReport:
    """Ridge regression of enrolled-quarter counts for non-completions.

    70/30 split of the NC rows, lambda tuned by k-fold CV minimizing
    validation RMSE, then test RMSE plus trimmed variants that discard the
    5% and 10% of test rows with the largest absolute errors.
    """
    if any(lab.graduated for _, lab in ncs.records):
        raise ValueError("timing experiment expects non-completing students only")
    if len(ncs.records) < 20:
        raise ValueError(f"need at least 20 non-completions, got {len(ncs.records)}")
    train, test = split(ncs, test_fraction, seed)
    schema = fit_schema(train, feature_config)
    _, x_train, _ = encode_dataset(train, schema)
    schema.fit_scaling(x_train)
    x_train = schema.standardize(x_train)
    x_test = schema.standardize(encode_dataset(test, schema)[1])
    y_train = np.array([lab.quarters_enrolled for _, lab in train.records], dtype=float)
    y_test = np.array([lab.quarters_enrolled for _, lab in test.records], dtype=float)

    chosen, _ = cv_tune(
        x_train, y_train, "ridge", grid, folds=folds,
        seed=seed if cv_seed is None else cv_seed,
    )
    model = train_ridge(x_train, y_train, chosen)
    errors = predict_linear(model, x_test) - y_test
    targets = np.array([lab.quarters_enrolled for _, lab in ncs.records], dtype=float)
    return TimingReport(
        rmse=_rmse(errors),
        rmse_drop5=trimmed_rmse(errors, 0.05),
        rmse_drop10=trimmed_rmse(errors, 0.10),
        mean_target=float(targets.mean()),
        sd_target=float(targets.std()),
        chosen_lambda=float(chosen),
        n_test=len(y_test),
    )
