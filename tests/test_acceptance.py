"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy cohorts come from session fixtures in conftest (generation time is
shared setup, not attributed to a single criterion); each test body is
timed against the criterion's runtime budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from attrition.cli import main as cli_main
from attrition.evaluation import (
    cv_tune,
    roc_and_auc,
    screen_features,
    timing_experiment,
)
from attrition.features import FeatureConfig, fit_schema
from attrition.labeling import LabeledDataset, balance, label_all
from attrition.models import (
    ForestParams,
    fit_knn,
    forest_predict,
    knn_predict,
    logistic_objective,
    predict_proba,
    train_forest,
    train_logistic,
    train_ridge,
)
from attrition.synthetic import SynthConfig, generate_cohort

from conftest import simple_student, entry


@contextmanager
def criterion(number, label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE C{number} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    verdict = "PASS" if within else "FAIL"
    print(f"\nACCEPTANCE C{number} {verdict}: {label} ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
    assert within, f"criterion {number} exceeded runtime budget: {elapsed:.1f}s >= {budget_seconds}s"


def mann_whitney_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_c1_trapezoid_auc_equals_mann_whitney_oracle():
    with criterion(1, "trapezoidal AUC == Mann-Whitney pair statistic (100 random sets)", 5):
        rng = np.random.default_rng(1001)
        for trial in range(100):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            while labels.min() == labels.max():
                labels = rng.integers(0, 2, size=n)
            if trial % 3 == 0:
                scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
            else:
                scores = rng.normal(size=n)
            _, auc = roc_and_auc(scores, labels)
            assert abs(auc - mann_whitney_auc(scores, labels)) <= 1e-12


def test_c2_learner_oracles():
    with criterion(2, "ridge/logistic/kNN match independent oracles", 30):
        rng = np.random.default_rng(2002)

        # ridge vs normal equations on 20 random instances
        for _ in range(20):
            n = int(rng.integers(5, 30))
            d = int(rng.integers(1, 6))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            lam = float(rng.choice([0.0, 1e-3, 0.1, 1.0]))
            model = train_ridge(x, y, lam)
            xc = x - x.mean(axis=0)
            yc = y - y.mean()
            w = np.linalg.solve(xc.T @ xc + n * lam * np.eye(d), xc.T @ yc)
            b = y.mean() - x.mean(axis=0) @ w
            assert np.abs(model.weights - w).max() < 1e-4
            assert abs(model.intercept - b) < 1e-4

        # logistic analytic gradient vs central finite differences
        x = rng.normal(size=(25, 6))
        y = (rng.random(25) < 0.5).astype(float)
        lam = 0.2
        h = 1e-5
        for _ in range(10):
            theta = rng.normal(size=7)
            _, analytic = logistic_objective(x, y, lam, theta)
            numeric = np.empty_like(theta)
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (
                    logistic_objective(x, y, lam, up)[0] - logistic_objective(x, y, lam, down)[0]
                ) / (2 * h)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            assert rel.max() < 1e-4

        # kNN vs exhaustive-distance brute force, exact, on 50 random queries
        x_train = rng.normal(size=(120, 8))
        y_train = (rng.random(120) < 0.5).astype(float)
        for _ in range(50):
            k = int(rng.choice([1, 3, 5, 9]))
            model = fit_knn(x_train, y_train, k)
            q = rng.normal(size=8)
            d2 = sorted((((q - row) ** 2).sum(), i) for i, row in enumerate(x_train))
            expected = float(np.mean([y_train[i] for _, i in d2[:k]]))
            assert knn_predict(model, q) == expected


def test_c3_labels_match_ground_truth_on_5k_cohort(cohort_5k):
    with criterion(3, "labeling matches ground truth for 100% of 5,000 students", 10):
        cfg, records, truths = cohort_5k
        ds = label_all(records, cfg.degree_credits)
        by_id = {t.student_id: t for t in truths}
        agree = 0
        for s, lab in ds.records:
            truth = by_id[s.student_id]
            if lab.graduated == (truth.true_label == "grad"):
                agree += 1
            if truth.true_label == "nc":
                assert lab.quarters_enrolled == truth.true_quarters_enrolled
        assert agree == len(records)


def test_c4_signal_recovery_auc_floors(encoded_5k):
    with criterion(4, "held-out AUC floors: LR >= 0.70, LR >= RF - 0.05, all >= 0.60", 300):
        e = encoded_5k
        lam, _ = cv_tune(e["x_train_std"], e["y_train"], "logistic_regression",
                         [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0], folds=10, seed=42)
        lr = train_logistic(e["x_train_std"], e["y_train"], lam)

        k, _ = cv_tune(e["x_train_std"], e["y_train"], "knn",
                       list(range(1, 52, 2)), folds=10, seed=42)
        knn = fit_knn(e["x_train_std"], e["y_train"], k)

        params = ForestParams(n_trees=80, max_depth=8)
        depth, _ = cv_tune(e["x_train_raw"], e["y_train"], "random_forest",
                           [4, 8, 12], folds=10, seed=42, forest_params=params)
        forest = train_forest(e["x_train_raw"], e["y_train"],
                              ForestParams(n_trees=80, max_depth=depth), seed=42)

        _, auc_lr = roc_and_auc(predict_proba(lr, e["x_test_std"]), e["y_test"])
        _, auc_knn = roc_and_auc(knn_predict(knn, e["x_test_std"]), e["y_test"])
        _, auc_rf = roc_and_auc(forest_predict(forest, e["x_test_raw"]), e["y_test"])
        print(f"\n  AUC: logistic={auc_lr:.4f} forest={auc_rf:.4f} knn={auc_knn:.4f}")
        assert auc_lr >= 0.70
        assert auc_lr >= auc_rf - 0.05
        assert min(auc_lr, auc_knn, auc_rf) >= 0.60


def test_c5_screening_ranks_planted_feature(encoded_5k):
    with criterion(5, "planted dept GPA in screening top 5; noise feature near 0.5", 300):
        e = encoded_5k
        rows = screen_features(
            e["schema"].feature_names,
            e["x_train_std"], e["y_train"],
            e["x_test_std"], e["y_test"],
        )
        top5 = [r.feature for r in rows[:5]]
        print(f"\n  top 5 by AUC: {top5}")
        assert "dept=MATH:gpa" in top5
        fig = next(r for r in rows if r.feature == "fig_member")
        assert 0.45 <= fig.auc <= 0.55


def test_c6_timing_rmse_tracks_generator_noise_floor():
    with criterion(6, "timing RMSE in [2.6, 3.4] at noise SD 3.0 with 2,000 NCs", 60):
        cfg = SynthConfig(n_students=5200, dropout_base_rate=0.995,
                          timing_noise_sd=3.0, seed=606)
        records, _ = generate_cohort(cfg)
        ds = label_all(records, cfg.degree_credits)
        nc_rows = [(s, lab) for s, lab in ds.records if not lab.graduated]
        assert len(nc_rows) >= 2000
        ncs = LabeledDataset(tuple(nc_rows[:2000]))
        report = timing_experiment(ncs, [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0], seed=42)
        print(f"\n  rmse={report.rmse:.3f} drop5={report.rmse_drop5:.3f} drop10={report.rmse_drop10:.3f}")
        assert 2.6 <= report.rmse <= 3.4
        assert report.rmse >= report.rmse_drop5 >= report.rmse_drop10


def test_c7_feature_count_formula():
    with criterion(7, "196 departments -> 784-feature block; schema size matches formula", 1):
        records = [
            simple_student(sid=f"S{i}", sat=1000, act=20, majors=(f"M{i % 10}",),
                           entries=[entry(1998, "autumn", f"D{i:03d}")])
            for i in range(196)
        ]
        lab = label_all(records)
        schema = fit_schema(lab, FeatureConfig())
        dept_block = [d for d in schema.descriptors if d.name.startswith("dept=")]
        assert len(dept_block) == 784
        n_majors = len(schema.major_vocab)
        assert len(schema) == 46 + n_majors + 4 * 196


def test_c8_pipeline_determinism(tmp_path):
    with criterion(8, "two identical pipeline runs produce byte-identical reports", 600):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n_students": 600, "seed": 88}}), encoding="utf-8")
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run / "out"
            data = tmp_path / run / "data"
            code = cli_main(["pipeline", "--config", str(config),
                             "--data", str(data), "--out", str(out)])
            assert code == 0
            outputs.append(out)
        for name in ("report.json", "screen.csv", "timing.json"):
            a = (outputs[0] / name).read_bytes()
            b = (outputs[1] / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_c9_balance_mirrors_registrar_structure(cohort_5k):
    with criterion(9, "balanced classes equal the NC count; rebalancing is idempotent", 5):
        cfg, records, _ = cohort_5k
        ds = label_all(records, cfg.degree_credits)
        grads, ncs = ds.class_counts()
        grad_rate = grads / len(ds.records)
        assert 0.68 <= grad_rate <= 0.85  # mirrors the ~76.5% graduation share
        balanced = balance(ds, seed=99)
        assert balanced.class_counts() == (ncs, ncs)
        again = balance(balanced, seed=100)
        assert again.class_counts() == (ncs, ncs)
        ids = sorted(s.student_id for s, _ in balanced.records)
        assert ids == sorted(s.student_id for s, _ in again.records)
        assert len(set(ids)) == len(ids)
