"""Command-line entry point chaining the full pipeline.

Subcommands: generate, label, featurize, train, evaluate, screen, timing,
pipeline. Each stage reads its inputs from files, writes its artifacts plus
a manifest line (the hashes of exactly the files it read and wrote, seeds,
version, wall time and peak RSS), and fails with a one-line error naming the
prerequisite subcommand when an input is missing, or the stage to rerun when
an input cannot be parsed or is a stale artifact: one whose own bytes, or
whose producer's inputs, by the last manifest line listing it, no longer hash
as they did (the registrar CSVs are source data, never stale). Each artifact
is checked before it is parsed. The resolved configuration is always echoed to
the output directory, and two runs with identical configuration produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .evaluation import (
    accuracy,
    cv_tune,
    kfold_indices,
    roc_and_auc,
    screen_features,
    split,
    timing_experiment,
)
from .features import encode_dataset, fit_schema, standardize
from .io import load_students, read_csv, read_json, write_csv, write_json
from .labeling import LabeledDataset, OutcomeLabel, balance, label_all
from .models import (
    fit_knn,
    load_model,
    predict_scores,
    save_model,
    train_forest,
    train_logistic,
)
from . import synthetic
from .synthetic import cohort_paths
from .workers import ordered_map, usable_cpus

BLOCK_STUDENTS = 1000  # the most students one block of `generate` draws and holds

SUBCOMMANDS = ("generate", "label", "featurize", "train", "evaluate", "screen", "timing", "pipeline")

MODEL_FILES = {
    "logistic_regression": "model_logistic_regression.json",
    "random_forest": "model_random_forest.json",
    "knn": "model_knn.json",
}


class StageError(RuntimeError):
    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Run:
    """One stage run: its name, its config, the input files it reads in reading order, and its start."""

    def __init__(self, stage: str, cfg: RunConfig):
        self.stage = stage
        self.cfg = cfg
        self.inputs: list[Path] = []
        self.started = time.perf_counter()
        self._digests: dict[Path, str] = {}

    def require(self, path: Path, prerequisite: str) -> Path:
        """`path`, recorded as an input; a missing file names the stage that writes it."""
        if not path.exists():
            raise StageError(self.stage, f"missing input {path}; run '{prerequisite}' first")
        self.inputs.append(path)
        return path

    @contextmanager
    def reading(self, name: str, producer: str):
        """Artifact `name` as written by `producer`, checked fresh before the block parses it; a
        parse error in the block stops the stage in one line. Stages open artifacts in pipeline
        order (`labels.csv`, then `featurize`'s files, then the models), so every artifact a file
        was made from is checked before that file, and an edit is blamed on the file edited."""
        path = self.require(Path(self.cfg.out_dir) / name, producer)
        self.check_fresh(path, producer)
        try:
            yield path
        except (LookupError, TypeError, ValueError) as exc:
            raise StageError(self.stage, f"{name} cannot be read ({exc!r}); rerun '{producer}'") from exc

    def digest(self, path: Path) -> str:
        """sha256 of a file, computed once per run."""
        if path not in self._digests:
            self._digests[path] = _sha256(path)
        return self._digests[path]

    def check_fresh(self, path: Path, producer: str) -> None:
        """Stop unless artifact `path` is fresh: the last manifest line listing it among its
        outputs exists, and `path` itself and the files that line read still hash as they did.
        The registrar CSVs are source data and never stale: real cohorts arrive with no
        `generate` line."""
        out = Path(self.cfg.out_dir)
        source = {p.name: p for p in cohort_paths(self.cfg.data_dir).values()}
        manifest = out / "manifest.jsonl"
        made: dict[str, tuple[str, dict]] = {}
        lines = manifest.read_text(encoding="utf-8").splitlines() if manifest.exists() else []
        for n, text in enumerate(lines, 1):
            try:
                line = json.loads(text)
                made.update((name, (digest, dict(line["inputs"]))) for name, digest in line["outputs"].items())
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise StageError(self.stage, f"{manifest}:{n}: damaged manifest line ({exc!r})") from exc
        if path.name not in made:
            raise StageError(self.stage, f"{path.name} has no line in manifest.jsonl; rerun '{producer}'")
        written, read = made[path.name]
        if self.digest(path) != written:
            raise StageError(self.stage, f"{path.name} was changed after '{producer}' wrote it; rerun '{producer}'")
        changed = [name for name, digest in read.items()
                   if not (p := source.get(name, out / name)).exists() or self.digest(p) != digest]
        if changed:
            raise StageError(self.stage, f"{path.name} was made from other {', '.join(changed)}; rerun '{producer}'")

    def manifest(self, outputs: list[Path]) -> None:
        """Append the stage's manifest line: hashes of its inputs and of its outputs, the
        seeds, its wall time so far and the peak RSS so far of the process or of its largest
        waited-for child (the CV workers of `train`)."""
        cfg = self.cfg
        line = {
            "stage": self.stage,
            "version": __version__,
            "inputs": {p.name: self.digest(p) for p in self.inputs},
            "outputs": {p.name: self.digest(p) for p in outputs},
            "seeds": {
                "split": cfg.split_seed,
                "cv": cfg.cv_seed,
                "sampling": cfg.sampling_seed,
                "synth": cfg.synth.seed,
            },
            "wall_s": round(time.perf_counter() - self.started, 3),
            "peak_rss_mb": round(max(resource.getrusage(who).ru_maxrss
                                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024, 1),
        }
        with open(Path(cfg.out_dir) / "manifest.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _cohort(run: _Run) -> list[Path]:
    paths = cohort_paths(run.cfg.data_dir)
    return [run.require(paths[key], "generate") for key in ("students", "transcripts", "degrees")]


def _read_labels(run: _Run) -> dict[str, OutcomeLabel]:
    with run.reading("labels.csv", "label") as path:
        return {
            row["student_id"]: OutcomeLabel(
                graduated=row["graduated"] == "1",
                quarters_enrolled=int(row["quarters_enrolled"]),
                window_allowance=int(row["window_allowance"]),
            )
            for row in read_csv(path)
        }


def _read_features(run: _Run, labels: dict[str, OutcomeLabel]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """features.csv: its student ids, raw matrix and targets from `labels`. Each row is parsed into
    its own float64 array, so no list of Python floats outlives its row."""
    ids: list[str] = []
    rows: list[np.ndarray] = []
    with run.reading("features.csv", "featurize") as path:
        for row in read_csv(path):
            ids.append(row.pop("student_id"))
            rows.append(np.array([float(v) for v in row.values()]))
        return ids, np.array(rows), np.array([0.0 if labels[i].graduated else 1.0 for i in ids])


def _matrices(run: _Run):
    """Shared loading path for train/evaluate/screen: raw + standardized matrices, targets,
    training mask, feature names. A student of features.csv missing from labels.csv or split.csv
    is a KeyError in a `reading` block, so it stops the stage in one line."""
    ids, x_raw, y = _read_features(run, _read_labels(run))
    with run.reading("split.csv", "featurize") as path:
        parts = {row["student_id"]: row["partition"] for row in read_csv(path)}
        is_train = np.array([parts[i] for i in ids]) == "train"
    with run.reading("schema.json", "featurize") as path:
        meta = read_json(path)
        x_std = standardize(x_raw, meta["means"], meta["sds"], meta["standardized"])
        return x_raw, x_std, y, is_train, meta["feature_names"]


# ---------------------------------------------------------------------------
# stages

def _write_block(block: range, synth: synthetic.SynthConfig, parts: Path) -> dict[str, Path]:
    return synthetic.write_cohort(*synthetic.generate_cohort(synth, block), parts / str(block.start))


def stage_generate(cfg: RunConfig) -> list[Path]:
    """Draw and write the cohort in contiguous blocks of students, one forked worker per usable
    CPU, each block into its own directory; then join each CSV's parts in block order under one
    header. The block count is a multiple of the CPU count, so no CPU idles while another draws a
    last block. A block is a slice of the whole cohort, so the bytes do not depend on the CPU count."""
    run = _Run("generate", cfg)
    n = cfg.synth.n_students
    cpus = usable_cpus()
    count = min(n, cpus * -(-n // (cpus * BLOCK_STUDENTS)))
    blocks = [range(k * n // count, (k + 1) * n // count) for k in range(count)]
    paths = cohort_paths(cfg.data_dir)
    Path(cfg.data_dir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".generate-", dir=cfg.data_dir) as parts:
        with ordered_map(_write_block, blocks, (cfg.synth, Path(parts))) as written:
            block_paths = list(written)  # every block, before any output is touched
        for role, path in paths.items():
            with open(path, "wb") as joined:
                for k, block_path in enumerate(block_paths):
                    with open(block_path[role], "rb") as part:
                        if k:
                            part.readline()  # the header, written once
                        shutil.copyfileobj(part, joined)
    outputs = list(paths.values())
    run.manifest(outputs)
    return outputs


def stage_label(cfg: RunConfig) -> list[Path]:
    run = _Run("label", cfg)
    records = load_students(*_cohort(run))
    ds = label_all(records, cfg.synth.degree_credits)
    out = Path(cfg.out_dir) / "labels.csv"
    write_csv(
        out,
        ["student_id", "graduated", "quarters_enrolled", "window_allowance"],
        ([s.student_id, int(lab.graduated), lab.quarters_enrolled, lab.window_allowance]
         for s, lab in ds.records),
    )
    run.manifest([out])
    return [out]


def stage_featurize(cfg: RunConfig) -> list[Path]:
    run = _Run("featurize", cfg)
    cohort = _cohort(run)
    labels = _read_labels(run)  # fresh, so 'label' loaded this very cohort in full, and every row passed every rule
    kept = dict(balance(LabeledDataset(tuple(labels.items())), cfg.sampling_seed).records)
    balanced = LabeledDataset(tuple((r, kept[r.student_id]) for r in load_students(*cohort, only=kept)))
    train, test = split(balanced, cfg.test_fraction, cfg.split_seed)
    schema = fit_schema(train, cfg.feature_config())
    ids, x_raw, _ = encode_dataset(balanced, schema)
    train_ids = {s.student_id for s, _ in train.records}
    is_train = [sid in train_ids for sid in ids]
    schema.fit_scaling(x_raw[is_train])  # split keeps the order of the training rows

    out_dir = Path(cfg.out_dir)
    schema_path = out_dir / "schema.json"
    schema.to_json(schema_path)

    features_path = out_dir / "features.csv"
    write_csv(
        features_path,
        ["student_id"] + schema.feature_names,
        ([sid, *row.tolist()] for sid, row in zip(ids, x_raw)),
    )

    split_path = out_dir / "split.csv"
    write_csv(
        split_path,
        ["student_id", "partition"],
        ([sid, "train" if train else "test"] for sid, train in zip(ids, is_train)),
    )

    outputs = [features_path, schema_path, split_path]
    run.manifest(outputs)
    return outputs


def stage_train(cfg: RunConfig) -> list[Path]:
    run = _Run("train", cfg)
    x_raw, x_std, y, is_train, _ = _matrices(run)
    x_tr_std, x_tr_raw, y_tr = x_std[is_train], x_raw[is_train], y[is_train]
    out_dir = Path(cfg.out_dir)

    fold_fit_size = len(y_tr) - max(map(len, kfold_indices(len(y_tr), cfg.cv_folds, cfg.cv_seed)))
    learners = (  # name, training matrix, grid, fit at the chosen value
        ("logistic_regression", x_tr_std, cfg.lr_lambda_grid, lambda lam: train_logistic(x_tr_std, y_tr, lam)),
        ("knn", x_tr_std, [k for k in cfg.knn_k_grid if k <= fold_fit_size] or [1],
         lambda k: fit_knn(x_tr_std, y_tr, k)),
        ("random_forest", x_tr_raw, cfg.forest_depth_grid,
         lambda depth: train_forest(x_tr_raw, y_tr, cfg.forest_params(depth), cfg.cv_seed)),
    )
    outputs = []
    for name, x_tr, grid, fit in learners:
        chosen, means = cv_tune(x_tr, y_tr, name, grid, folds=cfg.cv_folds, seed=cfg.cv_seed,
                                forest_params=cfg.forest_params(max(cfg.forest_depth_grid)))
        model_path, cv_path = out_dir / MODEL_FILES[name], out_dir / f"cv_{name}.csv"
        save_model(fit(chosen), model_path)
        write_csv(cv_path, ["value", "mean_score", "chosen"],
                  ([value, score, int(value == chosen)] for value, score in means.items()))
        outputs += [model_path, cv_path]
    run.manifest(outputs)
    return outputs


def stage_evaluate(cfg: RunConfig) -> list[Path]:
    run = _Run("evaluate", cfg)
    x_raw, x_std, y, is_train, _ = _matrices(run)
    out_dir = Path(cfg.out_dir)
    x_tr_std, y_tr = x_std[is_train], y[is_train]
    x_te_std, x_te_raw, y_te = x_std[~is_train], x_raw[~is_train], y[~is_train]

    models = {}
    for name, filename in MODEL_FILES.items():
        with run.reading(filename, "train") as path:  # kNN is refit on the rows 'train' fitted it on
            models[name] = load_model(path, x_tr_std, y_tr)

    report_models = {}
    outputs = []
    for name, model in models.items():
        x_te = x_te_raw if name == "random_forest" else x_te_std
        scores = np.asarray(predict_scores(model, x_te))
        points, auc = roc_and_auc(scores, y_te)
        if name == "logistic_regression":
            hyper = {"lambda": model.regularization}
        elif name == "knn":
            hyper = {"k": model.k}
        else:
            hyper = {"max_depth": model.params.max_depth, "n_trees": model.params.n_trees}
        report_models[name] = {"accuracy": accuracy(scores, y_te), "auc": auc, "hyperparameters": hyper}
        roc_path = out_dir / f"roc_{name}.csv"
        write_csv(roc_path, ["fpr", "tpr", "threshold"], points)
        outputs.append(roc_path)

    report_path = out_dir / "report.json"
    write_json(report_path, {"models": report_models, "split_seed": cfg.split_seed})
    outputs.insert(0, report_path)
    run.manifest(outputs)
    return outputs


def stage_screen(cfg: RunConfig) -> list[Path]:
    run = _Run("screen", cfg)
    x_raw, x_std, y, is_train, names = _matrices(run)
    rows = screen_features(
        names,
        x_std[is_train], y[is_train],
        x_std[~is_train], y[~is_train],
    )
    out = Path(cfg.out_dir) / "screen.csv"
    write_csv(out, ["Feature", "Accuracy", "AUC"], ([r.feature, r.accuracy, r.auc] for r in rows))
    run.manifest([out])
    return [out]


def stage_timing(cfg: RunConfig) -> list[Path]:
    run = _Run("timing", cfg)
    cohort = _cohort(run)
    labels = _read_labels(run)  # fresh, as in featurize
    nc_labels = {sid: label for sid, label in labels.items() if not label.graduated}
    ncs = LabeledDataset(tuple((r, nc_labels[r.student_id]) for r in load_students(*cohort, only=nc_labels)))
    report = timing_experiment(
        ncs, cfg.timing_lambda_grid, cfg.split_seed,
        feature_config=cfg.feature_config(), folds=cfg.cv_folds,
        test_fraction=cfg.test_fraction, cv_seed=cfg.cv_seed,
    )
    out = Path(cfg.out_dir) / "timing.json"
    write_json(out, asdict(report))
    run.manifest([out])
    return [out]


def stage_pipeline(cfg: RunConfig) -> list[Path]:
    written: list[Path] = []
    for name in SUBCOMMANDS[:-1]:
        try:
            written.extend(STAGES[name](cfg))
        except (ValueError, OSError) as exc:  # name the stage, as a StageError does
            raise StageError(name, str(exc)) from exc
    return written


STAGES = {
    "generate": stage_generate,
    "label": stage_label,
    "featurize": stage_featurize,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "screen": stage_screen,
    "timing": stage_timing,
    "pipeline": stage_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrition",
        description="Student non-completion prediction pipeline on registrar-style data.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", type=str, default=None, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
        p.add_argument("--data", type=str, default=None, help="data directory")
        p.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.override_seed(args.seed)
    if args.data is not None:
        cfg.data_dir = args.data
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        write_json(Path(cfg.out_dir) / "run_config.json", asdict(cfg))
        STAGES[args.subcommand](cfg)
    except StageError as exc:
        print(f"error: {exc.stage}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {args.subcommand}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
