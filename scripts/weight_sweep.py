#!/usr/bin/env python3
"""Sweep the planted math-GPA weight and watch the pipeline recover it.

For each weight the script runs `attrition pipeline` on a fresh synthetic
cohort and reports the non-completion rate of its labels, the held-out AUC
of the CV-tuned logistic regression, and where the math GPA column lands in
single-feature screening. The dropout rate stays pinned by the base-rate
intercept. The trend needs the default 3,000 students: there a stronger
planted signal should mean a higher AUC and a better screening rank. On a
few hundred students one rank is noise (at 600, `dept=MATH:gpa` ranks 3rd at
both w = 0 and w = -3), so CI's run at that size checks only that the sweep
runs.

Usage: python scripts/weight_sweep.py [--students N] [--seed S] [--weights W ...]
"""

import argparse
import csv
import json
import sys
import tempfile
from pathlib import Path

from attrition.cli import main as cli_main


def run(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--students", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--weights", type=float, nargs="+", default=[0.0, -1.0, -2.0, -3.0, -4.0])
    args = parser.parse_args(argv)

    print(f"{'math weight':>11s} {'nc rate':>8s} {'lr auc':>7s} {'gpa rank':>9s}")
    with tempfile.TemporaryDirectory() as tmp:
        for i, w in enumerate(args.weights):
            out = Path(tmp) / f"weight{i}"
            out.mkdir()
            config = out / "config.json"
            config.write_text(json.dumps({
                "synth": {
                    "n_students": args.students,
                    "seed": args.seed,
                    "signal_weights": {"gpa:MATH": w},
                    "dropout_base_rate": 0.9,
                },
                "forest_n_trees": 20,
            }))
            code = cli_main(["pipeline", "--config", str(config), "--data", str(out / "data"), "--out", str(out)])
            if code != 0:
                return code
            with open(out / "labels.csv", newline="") as fh:
                graduated = [row["graduated"] for row in csv.DictReader(fh)]
            nc_rate = graduated.count("0") / len(graduated)
            auc = json.loads((out / "report.json").read_text())["models"]["logistic_regression"]["auc"]
            with open(out / "screen.csv", newline="") as fh:
                ranked = [row["Feature"] for row in csv.DictReader(fh)]
            rank = ranked.index("dept=MATH:gpa") + 1
            print(f"{w:11.1f} {nc_rate:8.3f} {auc:7.3f} {rank:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
