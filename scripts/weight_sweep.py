#!/usr/bin/env python3
"""Sweep the planted math-GPA weight and watch the pipeline recover it.

For each weight the script reports the realized dropout rate, the held-out
logistic AUC, and where the math GPA column lands in single-feature
screening. Stronger planted signal should mean higher AUC and a better
screening rank; the dropout rate stays pinned by the base-rate intercept.
"""

import argparse
import sys

from attrition.evaluation import roc_and_auc, screen_features, split
from attrition.features import FeatureConfig, encode_dataset, fit_schema
from attrition.labeling import balance, label_all
from attrition.models import predict_proba, train_logistic
from attrition.synthetic import SynthConfig, generate_cohort


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--weights", type=float, nargs="+", default=[0.0, -1.0, -2.0, -3.0, -4.0])
    args = parser.parse_args(argv)

    print(f"{'math weight':>11s} {'nc rate':>8s} {'lr auc':>7s} {'gpa rank':>9s}")
    for w in args.weights:
        cfg = SynthConfig(
            n_students=args.students,
            seed=args.seed,
            signal_weights={"gpa:MATH": w},
            dropout_base_rate=0.9,
        )
        records, truths = generate_cohort(cfg)
        nc_rate = sum(1 for t in truths if t.true_label == "nc") / len(truths)
        bal = balance(label_all(records), seed=1)
        train, test = split(bal, 0.30, seed=2)
        schema = fit_schema(train, FeatureConfig())
        _, x_tr, y_tr = encode_dataset(train, schema, standardize=False)
        schema.fit_scaling(x_tr)
        x_tr = schema.standardize(x_tr)
        _, x_te, y_te = encode_dataset(test, schema)
        model = train_logistic(x_tr, y_tr, 0.01)
        _, auc = roc_and_auc(predict_proba(model, x_te), y_te)
        rows = screen_features(schema.feature_names, x_tr, y_tr, x_te, y_te)
        rank = next(i for i, r in enumerate(rows, 1) if r.feature == "dept=MATH:gpa")
        print(f"{w:11.1f} {nc_rate:8.3f} {auc:7.3f} {rank:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
