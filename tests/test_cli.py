import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from attrition import cli, synthetic
from attrition.cli import main
from attrition.config import RunConfig
from attrition.evaluation import roc_and_auc
from attrition.io import write_csv
from attrition.models import fit_knn, knn_predict
from attrition.synthetic import SynthConfig, generate_cohort, write_cohort

FAST_CONFIG = {
    "lr_lambda_grid": [0.001, 0.1],
    "knn_k_grid": [3, 9, 15],
    "forest_depth_grid": [2, 4],
    "forest_n_trees": 30,
    "cv_folds": 5,
    "synth": {"n_students": 300, "seed": 77},
}


def write_config(tmp_path, **overrides):
    raw = dict(FAST_CONFIG)
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def run(args):
    return main([str(a) for a in args])


def run_python(args, cwd, preexec_fn=None, **env):
    """`python <args>` in a fresh interpreter in `cwd`, on this checkout's src, with `env` added."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=dict(os.environ, PYTHONPATH=path, **env),
                          preexec_fn=preexec_fn, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipeline")
    config = write_config(tmp)
    out = tmp / "out"
    data = tmp / "data"
    code = run(["pipeline", "--config", config, "--data", data, "--out", out])
    assert code == 0
    return out, data


def test_pipeline_writes_report_with_three_models(pipeline_run):
    out, _ = pipeline_run
    report = json.loads((out / "report.json").read_text())
    assert set(report["models"]) == {"logistic_regression", "random_forest", "knn"}
    for name, model in report["models"].items():
        assert 0.0 <= model["accuracy"] <= 1.0
        assert 0.0 <= model["auc"] <= 1.0
        assert model["hyperparameters"]
        assert set(model) == {"accuracy", "auc", "hyperparameters"}  # the ROC points are in roc_<model>.csv


def test_pipeline_writes_all_stage_artifacts(pipeline_run):
    out, data = pipeline_run
    for name in (
        "labels.csv",
        "features.csv",
        "schema.json",
        "split.csv",
        "model_logistic_regression.json",
        "model_random_forest.json",
        "model_knn.json",
        "report.json",
        "roc_logistic_regression.csv",
        "roc_random_forest.csv",
        "roc_knn.csv",
        "screen.csv",
        "timing.json",
        "run_config.json",
        "manifest.jsonl",
    ):
        assert (out / name).exists(), name
    for name in ("students.csv", "transcripts.csv", "degrees.csv", "ground_truth.csv"):
        assert (data / name).exists(), name


def test_cv_curves_are_written_and_listed(pipeline_run):
    out, _ = pipeline_run
    report = json.loads((out / "report.json").read_text())["models"]
    chosen = {
        "logistic_regression": report["logistic_regression"]["hyperparameters"]["lambda"],
        "knn": report["knn"]["hyperparameters"]["k"],
        "random_forest": report["random_forest"]["hyperparameters"]["max_depth"],
    }
    grids = {"logistic_regression": [0.001, 0.1], "knn": [3, 9, 15], "random_forest": [2, 4]}
    train_line = json.loads((out / "manifest.jsonl").read_text().splitlines()[3])
    for name, grid in grids.items():
        lines = (out / f"cv_{name}.csv").read_text().splitlines()
        assert lines[0] == "value,mean_score,chosen"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == grid
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)
        assert [float(r[0]) for r in rows if r[2] == "1"] == [chosen[name]]
        assert f"cv_{name}.csv" in train_line["outputs"]


def test_screen_csv_has_table_shaped_header(pipeline_run):
    out, _ = pipeline_run
    header = (out / "screen.csv").read_text().splitlines()[0]
    assert header == "Feature,Accuracy,AUC"


def test_labels_csv_columns(pipeline_run):
    out, _ = pipeline_run
    lines = (out / "labels.csv").read_text().splitlines()
    assert lines[0] == "student_id,graduated,quarters_enrolled,window_allowance"
    assert len(lines) - 1 == 300


def test_roc_files_have_expected_columns(pipeline_run):
    out, _ = pipeline_run
    for name in ("logistic_regression", "random_forest", "knn"):
        lines = (out / f"roc_{name}.csv").read_text().splitlines()
        assert lines[0] == "fpr,tpr,threshold"
        assert len(lines) > 2
        assert [float(v) for v in lines[1].split(",")[:2]] == [0.0, 0.0]
        assert [float(v) for v in lines[-1].split(",")[:2]] == [1.0, 1.0]


def test_knn_file_holds_k_and_evaluate_refits_on_the_standardized_training_rows(pipeline_run, tmp_path):
    out, data = pipeline_run
    chosen = [line.split(",")[0] for line in (out / "cv_knn.csv").read_text().splitlines()[1:]
              if line.endswith(",1")]
    assert json.loads((out / "model_knn.json").read_text()) == {"k": int(chosen[0]), "kind": "knn"}
    cfg = RunConfig.from_json(write_config(tmp_path))
    cfg.data_dir, cfg.out_dir = str(data), str(out)
    _, x_std, y, is_train, _ = cli._matrices(cli._Run("evaluate", cfg))
    model = fit_knn(x_std[is_train], y[is_train], int(chosen[0]))
    points, _ = roc_and_auc(knn_predict(model, x_std[~is_train]), y[~is_train])
    write_csv(tmp_path / "roc_knn.csv", ["fpr", "tpr", "threshold"], points)
    assert (tmp_path / "roc_knn.csv").read_bytes() == (out / "roc_knn.csv").read_bytes()


def test_timing_report_fields(pipeline_run):
    out, _ = pipeline_run
    timing = json.loads((out / "timing.json").read_text())
    assert timing["rmse"] >= timing["rmse_drop5"] >= timing["rmse_drop10"]
    assert timing["n_test"] >= 1


def test_resolved_config_echoes_all_seeds(pipeline_run):
    out, _ = pipeline_run
    resolved = json.loads((out / "run_config.json").read_text())
    for key in ("split_seed", "cv_seed", "sampling_seed"):
        assert key in resolved
    assert resolved["synth"]["seed"] == 77
    assert resolved["forest_n_trees"] == 30


def test_manifest_lines_cover_stages(pipeline_run):
    out, _ = pipeline_run
    stages = [json.loads(line)["stage"] for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert stages == ["generate", "label", "featurize", "train", "evaluate", "screen", "timing"]
    for line in (out / "manifest.jsonl").read_text().splitlines():
        fields = json.loads(line)
        for key in ("wall_s", "peak_rss_mb"):
            assert isinstance(fields[key], float) and fields[key] >= 0.0


def test_manifest_inputs_are_the_files_each_stage_reads(pipeline_run):
    out, _ = pipeline_run
    lines = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    cohort = ["degrees.csv", "students.csv", "transcripts.csv"]
    matrices = ["features.csv", "labels.csv", "schema.json", "split.csv"]
    models = ["model_knn.json", "model_logistic_regression.json", "model_random_forest.json"]
    assert {line["stage"]: sorted(line["inputs"]) for line in lines} == {
        "generate": [],
        "label": cohort,
        "featurize": sorted(cohort + ["labels.csv"]),
        "train": matrices,
        "evaluate": sorted(matrices + models),
        "screen": matrices,
        "timing": sorted(cohort + ["labels.csv"]),
    }


def test_manifest_outputs_are_the_hashes_of_the_files_each_stage_wrote(pipeline_run):
    out, data = pipeline_run
    lines = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    models = ["model_knn.json", "model_logistic_regression.json", "model_random_forest.json"]
    assert {line["stage"]: sorted(line["outputs"]) for line in lines} == {
        "generate": ["degrees.csv", "ground_truth.csv", "students.csv", "transcripts.csv"],
        "label": ["labels.csv"],
        "featurize": ["features.csv", "schema.json", "split.csv"],
        "train": ["cv_knn.csv", "cv_logistic_regression.csv", "cv_random_forest.csv", *models],
        "evaluate": ["report.json", "roc_knn.csv", "roc_logistic_regression.csv", "roc_random_forest.csv"],
        "screen": ["screen.csv"],
        "timing": ["timing.json"],
    }
    for line in lines:
        where = data if line["stage"] == "generate" else out
        assert line["outputs"] == {
            name: hashlib.sha256((where / name).read_bytes()).hexdigest() for name in line["outputs"]
        }


def test_evaluate_before_train_names_prerequisite(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    data = tmp_path / "data"
    assert run(["generate", "--config", config, "--data", data, "--out", out]) == 0
    assert run(["label", "--config", config, "--data", data, "--out", out]) == 0
    assert run(["featurize", "--config", config, "--data", data, "--out", out]) == 0
    code = run(["evaluate", "--config", config, "--data", data, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: evaluate:")
    assert "train" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_featurize_before_label_names_prerequisite(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    data = tmp_path / "data"
    assert run(["generate", "--config", config, "--data", data, "--out", out]) == 0
    code = run(["featurize", "--config", config, "--data", data, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert "label" in captured.err


def test_label_before_generate_names_prerequisite(tmp_path, capsys):
    config = write_config(tmp_path)
    code = run(["label", "--config", config, "--data", tmp_path / "nothing", "--out", tmp_path / "out"])
    captured = capsys.readouterr()
    assert code == 1
    assert "generate" in captured.err


def test_models_of_refeaturized_features_are_refused(tmp_path, capsys):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    data = tmp_path / "data"
    for sub in ("generate", "label", "featurize", "train"):
        assert run([sub, "--config", config, "--data", data, "--out", out]) == 0
    # refit features under a different sampling seed: schema stats change
    config2 = write_config(tmp_path, sampling_seed=999)
    assert run(["featurize", "--config", config2, "--data", data, "--out", out]) == 0
    capsys.readouterr()
    code = run(["evaluate", "--config", config2, "--data", data, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: evaluate: model_logistic_regression.json was made from other features.csv, schema.json, "
        "split.csv; rerun 'train'\n"
    )
    assert run(["train", "--config", config2, "--data", data, "--out", out]) == 0
    assert run(["evaluate", "--config", config2, "--data", data, "--out", out]) == 0


def test_a_model_from_another_run_is_refused(tmp_path, capsys):
    # two runs of one cohort at different sampling seeds fit different schemas
    runs = {}
    for name, sampling_seed in (("a", 1), ("b", 2)):
        (tmp_path / name).mkdir()
        config = write_config(tmp_path / name, sampling_seed=sampling_seed)
        runs[name] = ["--config", config, "--data", tmp_path / "data", "--out", tmp_path / name / "out"]
    assert run(["generate", *runs["a"]]) == 0
    for args in runs.values():
        for sub in ("label", "featurize", "train"):
            assert run([sub, *args]) == 0
    filename = "model_logistic_regression.json"
    shutil.copyfile(tmp_path / "b" / "out" / filename, tmp_path / "a" / "out" / filename)
    capsys.readouterr()
    assert run(["evaluate", *runs["a"]]) == 1
    assert capsys.readouterr().err == f"error: evaluate: {filename} was changed after 'train' wrote it; rerun 'train'\n"


def test_seed_flag_overrides_all_seeds(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert run(["generate", "--config", config, "--data", tmp_path / "d", "--out", out, "--seed", "5"]) == 0
    resolved = json.loads((out / "run_config.json").read_text())
    assert resolved["split_seed"] == 5
    assert resolved["cv_seed"] == 6
    assert resolved["sampling_seed"] == 7
    assert resolved["synth"]["seed"] == 8


def test_unknown_config_field_is_an_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lr_lambda_gird": [0.1]}), encoding="utf-8")
    code = run(["generate", "--config", path, "--out", tmp_path / "out"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown config fields" in captured.err


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_the_cpu_count_changes_no_output_byte(tmp_path, monkeypatch):
    # 400 students make one block of `generate` per CPU, and `train` scores the folds of every
    # model in one worker per CPU. With no BLAS variable set, the package itself holds OpenBLAS
    # at one thread, whose sums would otherwise add in an order set by the CPU count
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)  # this process's package import set it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_students": 400}, "forest_n_trees": 10}), encoding="utf-8")
    cpu = min(os.sched_getaffinity(0))
    digests = {}
    for name, pin in (("one_cpu", lambda: os.sched_setaffinity(0, {cpu})), ("all_cpus", None)):
        run_dir = tmp_path / name
        run_dir.mkdir()
        done = run_python(["-m", "attrition.cli", "pipeline", "--seed", 201, "--config", config,
                           "--data", "data", "--out", "out"], run_dir, preexec_fn=pin)
        assert done.returncode == 0, done.stderr
        digests[name] = {str(path.relative_to(run_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in run_dir.rglob("*") if path.is_file() and path.name != "manifest.jsonl"}
    assert "out/cv_random_forest.csv" in digests["one_cpu"]
    assert digests["one_cpu"] == digests["all_cpus"]


def test_label_imports_no_process_pool(tmp_path):
    # generate starts its block workers and timing its ridge CV workers by design; the loading
    # stages must not even import a pool
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_students": 200}}), encoding="utf-8")
    done = run_python(["-m", "attrition.cli", "generate", "--config", config, "--data", "data", "--out", "out"],
                      tmp_path)
    assert done.returncode == 0, done.stderr
    script = (
        "import sys\n"
        "from attrition.cli import main\n"
        "for stage in ('label', 'featurize'):\n"
        f"    assert main([stage, '--config', {str(config)!r}, '--data', 'data', '--out', 'out']) == 0\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    done = run_python(["-c", script], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_package_runs_one_blas_thread(tmp_path, monkeypatch):
    # importing numpy starts OpenBLAS's thread pool, one thread per CPU unless the count is set first
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    done = run_python(["-c", "import os, attrition.cli; print(len(os.listdir('/proc/self/task')))"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


def test_the_package_root_sets_the_blas_threads_and_loads_no_numpy(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    done = run_python(["-c", "import os, sys, attrition; print(os.environ['OPENBLAS_NUM_THREADS'], 'numpy' in sys.modules)"],
                      tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1 False\n"


def _set_cpus(monkeypatch, pooled):
    if pooled:
        if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("the blocks run in workers only with two CPUs or more")
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.mark.parametrize("pooled", [False, True], ids=["in_process", "forked"])
def test_generate_in_blocks_writes_the_whole_cohort(pooled, tmp_path, monkeypatch):
    _set_cpus(monkeypatch, pooled)
    monkeypatch.setattr(cli, "BLOCK_STUDENTS", 7)  # 30 students: 5 blocks of 6 on one CPU, 6 of 5 on two
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_students": 30, "seed": 11}}), encoding="utf-8")
    assert run(["generate", "--config", config, "--data", tmp_path / "data", "--out", tmp_path / "out"]) == 0
    expected = write_cohort(*generate_cohort(SynthConfig(n_students=30, seed=11)), tmp_path / "expected")
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == sorted(p.name for p in expected.values())
    for path in expected.values():
        assert (tmp_path / "data" / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("pooled", [False, True], ids=["in_process", "forked"])
def test_a_failing_block_leaves_no_part_and_no_cohort(pooled, tmp_path, monkeypatch, capsys):
    _set_cpus(monkeypatch, pooled)
    monkeypatch.setattr(cli, "BLOCK_STUDENTS", 7)
    whole = synthetic.generate_cohort

    def failing(cfg, students=None):
        if students is not None and 12 in students:
            raise ValueError("the block of student 12 failed")
        return whole(cfg, students)

    monkeypatch.setattr(synthetic, "generate_cohort", failing)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"synth": {"n_students": 30}}), encoding="utf-8")
    data = tmp_path / "data"
    assert run(["generate", "--config", config, "--data", data, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err == "error: generate: the block of student 12 failed\n"
    assert list(data.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_cv_failure_names_model_and_fold(tmp_path, capsys):
    # 150 students leave some 10-fold validation blocks with one class only
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synth": {"n_students": 150}}), encoding="utf-8")
    out = tmp_path / "out"
    data = tmp_path / "data"
    for sub in ("generate", "label", "featurize"):
        assert run([sub, "--config", path, "--data", data, "--out", out]) == 0
    code = run(["train", "--config", path, "--data", data, "--out", out])
    captured = capsys.readouterr()
    assert code == 1
    assert re.fullmatch(
        r"error: train: (logistic_regression|knn|random_forest) fold \d+/10: ROC needs both classes present\n",
        captured.err,
    )


def edit_payload(change):
    """An edit of a JSON file's text: `change` edits the parsed payload in place."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def keep_cells(keep):
    """An edit of a CSV file's text that keeps the cells `keep` (a slice) of every line."""
    return lambda text: "".join(",".join(line.split(",")[keep]) + "\n" for line in text.splitlines())


def child_out_of_range(forest):
    tree = forest["trees"][0]
    node = next(i for i, feature in enumerate(tree["feature"]) if feature >= 0)
    tree["left"][node] = len(tree["left"])


def child_at_its_parent(forest):
    """Point a split node's `left` at the node itself, which level order never does."""
    tree = forest["trees"][0]
    node = next(i for i, feature in enumerate(tree["feature"]) if feature >= 0)
    tree["left"][node] = node


def preorder_right_list(forest):
    """Give every tree the `right` list that a forest file with its nodes in depth-first preorder has."""
    for tree in forest["trees"]:
        tree["right"] = [left + 1 if left >= 0 else -1 for left in tree["left"]]


@pytest.mark.parametrize(
    "filename, producer, edit",
    [
        # a forest written before `features_per_split` was dropped from ForestParams
        ("model_random_forest.json", "train", edit_payload(lambda m: m["params"].update(features_per_split=None))),
        ("model_logistic_regression.json", "train", edit_payload(lambda m: m.pop("weights"))),
        ("labels.csv", "label", keep_cells(slice(0, 3))),
        # the first row's window_allowance reads n/a
        ("labels.csv", "label", lambda text: re.sub(r"\d+\n", "n/a\n", text, count=1)),
        ("features.csv", "featurize", keep_cells(slice(1, None))),
        # the first row is one cell short
        ("features.csv", "featurize", lambda text: re.sub(r"(\n[^\n]*),[^,\n]*\n", r"\1\n", text, count=1)),
        ("split.csv", "featurize", keep_cells(slice(1, None))),
        ("schema.json", "featurize", edit_payload(lambda m: m.pop("means"))),
        ("schema.json", "featurize", edit_payload(lambda m: m["sds"].pop())),
        ("model_knn.json", "train", edit_payload(lambda m: m.update(k=999))),
        ("model_random_forest.json", "train", edit_payload(child_out_of_range)),
        ("model_random_forest.json", "train", edit_payload(child_at_its_parent)),
        ("model_random_forest.json", "train", edit_payload(lambda m: m["trees"][0]["left"].pop())),
        ("model_random_forest.json", "train", edit_payload(preorder_right_list)),
        ("model_random_forest.json", "train", edit_payload(lambda m: m.update(trees=[]))),
    ],
    ids=["forest-old-params", "logistic-no-weights", "labels-no-window_allowance", "labels-non-numeric",
         "features-no-student_id", "features-short-row", "split-no-student_id", "schema-no-means",
         "schema-short-sds", "knn-k-beyond-rows", "forest-child-out-of-range", "forest-left-backwards",
         "forest-short-left", "forest-preorder-right-list", "forest-no-trees"],
)
def test_unreadable_model_file_names_file_and_train(tmp_path, capsys, filename, producer, edit):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    data = tmp_path / "data"
    for sub in ("generate", "label", "featurize", "train"):
        assert run([sub, "--config", config, "--data", data, "--out", out]) == 0
    written = hashlib.sha256((out / filename).read_bytes()).hexdigest()
    (out / filename).write_text(edit((out / filename).read_text()), encoding="utf-8")
    # every stage that reads labels.csv opens it first, so it, not a file made from it, is named
    stages = ["train", "evaluate", "screen"] if filename == "labels.csv" else ["evaluate"]

    def stages_stop_in_one_line():
        for stage in stages:
            capsys.readouterr()
            code = run([stage, "--config", config, "--data", data, "--out", out])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith(f"error: {stage}: ")
            assert filename in captured.err and f"rerun '{producer}'" in captured.err
            assert len(captured.err.strip().splitlines()) == 1

    stages_stop_in_one_line()
    # as if `producer` had written the edited file: fresh, and still unreadable
    edited = hashlib.sha256((out / filename).read_bytes()).hexdigest()
    manifest = out / "manifest.jsonl"
    manifest.write_text(manifest.read_text().replace(written, edited), encoding="utf-8")
    stages_stop_in_one_line()


@pytest.mark.parametrize("filename, parsed", [
    ("labels.csv", []),
    ("features.csv", ["labels.csv"]),
    ("schema.json", ["labels.csv", "features.csv", "split.csv"]),
], ids=["labels", "features", "schema"])
def test_no_artifact_is_parsed_before_it_is_checked(tmp_path, capsys, monkeypatch, filename, parsed):
    # the edit keeps the file parseable, so only the freshness rule can stop the stage
    args = cohort_args(tmp_path, 77)
    for sub in ("generate", "label", "featurize"):
        assert run([sub, *args]) == 0
    edited = tmp_path / "out" / filename
    edited.write_bytes(edited.read_bytes() + b"\n")
    opened = []
    for name in ("read_csv", "read_json", "load_model"):
        def spy(path, parse=getattr(cli, name)):
            opened.append(Path(path).name)
            return parse(path)
        monkeypatch.setattr(cli, name, spy)
    capsys.readouterr()
    assert run(["train", *args]) == 1
    producer = "label" if filename == "labels.csv" else "featurize"
    assert capsys.readouterr().err == (
        f"error: train: {filename} was changed after '{producer}' wrote it; rerun '{producer}'\n"
    )
    assert opened == parsed  # only the artifacts opened, and checked, before it


def test_timing_runs_on_a_150_student_cohort(tmp_path):
    # so few students that regression imputation sees fewer than 2 rows of a score
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"synth": {"n_students": 150}}), encoding="utf-8")
    out = tmp_path / "out"
    data = tmp_path / "data"
    for sub in ("generate", "label", "timing"):
        assert run([sub, "--config", path, "--data", data, "--out", out]) == 0
    timing = json.loads((out / "timing.json").read_text())
    assert math.isfinite(timing["rmse"]) and timing["rmse"] > 0


def run_stages(tmp_path, *steps):
    """Run each (cohort size, stages) step in turn into one data and one out dir."""
    out, data = tmp_path / "out", tmp_path / "data"
    for n_students, stages in steps:
        config = write_config(tmp_path, synth={"n_students": n_students, "seed": 77})
        for sub in stages:
            assert run([sub, "--config", config, "--data", data, "--out", out]) == 0
    return ["--config", config, "--data", data, "--out", out]


def cohort_args(tmp_path, seed, out="out"):
    config = write_config(tmp_path, synth={"n_students": 200, "seed": seed})
    return ["--config", config, "--data", tmp_path / "data", "--out", tmp_path / out]


@pytest.mark.parametrize("stage", ["featurize", "timing"])
def test_labels_of_a_smaller_cohort_are_refused_before_the_load(tmp_path, capsys, monkeypatch, stage):
    args = run_stages(tmp_path, (200, ["generate", "label"]), (250, ["generate"]))
    monkeypatch.setattr("attrition.cli.load_students", None)  # a load would raise TypeError
    capsys.readouterr()
    assert run([stage, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: {stage}: labels.csv was made from other degrees.csv, students.csv, transcripts.csv; rerun 'label'\n"
    )


@pytest.mark.parametrize("stage", ["featurize", "timing"])
def test_labels_of_another_cohort_of_the_same_size_are_refused(tmp_path, capsys, stage):
    # the same student ids, so only the manifest's cohort hashes tell the cohorts apart
    for seed, stages in ((77, ["generate", "label"]), (78, ["generate"])):
        args = cohort_args(tmp_path, seed)
        for sub in stages:
            assert run([sub, *args]) == 0
    capsys.readouterr()
    assert run([stage, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: {stage}: labels.csv was made from other degrees.csv, students.csv, transcripts.csv; rerun 'label'\n"
    )
    assert run(["label", *args]) == 0
    assert run([stage, *args]) == 0


@pytest.mark.parametrize("grade", ["9.9", "3.1"], ids=["malformed", "valid"])
@pytest.mark.parametrize("stage", ["featurize", "timing"])
def test_a_transcript_edited_after_label_is_refused_before_the_load(tmp_path, capsys, stage, grade):
    # the edited row belongs to a student that both stages skip: a graduate that balancing drops
    args = cohort_args(tmp_path, 77)
    for sub in ("generate", "label", "featurize"):
        assert run([sub, *args]) == 0
    out, transcripts = tmp_path / "out", tmp_path / "data" / "transcripts.csv"
    featurized = {line.split(",")[0] for line in (out / "features.csv").read_text().splitlines()[1:]}
    labels = [line.split(",") for line in (out / "labels.csv").read_text().splitlines()[1:]]
    skipped = {sid for sid, graduated, *_ in labels if graduated == "1" and sid not in featurized}
    rows = [line.split(",") for line in transcripts.read_text().splitlines()]
    next(row for row in rows if row[0] in skipped and row[6] == "3.0")[6] = grade  # the grade column
    transcripts.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")
    capsys.readouterr()
    assert run([stage, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: {stage}: labels.csv was made from other transcripts.csv; rerun 'label'\n"
    )


def test_features_of_other_labels_and_a_split_without_a_row_are_stale(tmp_path, capsys):
    args = run_stages(tmp_path, (250, ["generate", "label", "featurize"]), (200, ["generate", "label"]))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["train", *args]) == 1
    assert capsys.readouterr().err == (
        "error: train: features.csv was made from other degrees.csv, labels.csv, students.csv, "
        "transcripts.csv; rerun 'featurize'\n"
    )

    assert run(["featurize", *args]) == 0
    header, _, *rest = (out / "split.csv").read_text().splitlines()
    (out / "split.csv").write_text("\n".join([header, *rest]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["train", *args]) == 1
    assert capsys.readouterr().err == (
        "error: train: split.csv was changed after 'featurize' wrote it; rerun 'featurize'\n"
    )


def test_features_of_other_labels_under_a_forged_manifest_stop_in_one_line(tmp_path, capsys):
    args = run_stages(tmp_path, (250, ["generate", "label", "featurize"]), (200, ["generate", "label"]))
    out = tmp_path / "out"
    # featurize's line made to list the hashes of today's cohort and labels, so features.csv reads as fresh
    manifest = out / "manifest.jsonl"
    lines = [json.loads(line) for line in manifest.read_text().splitlines()]
    featurized, labeled = lines[2], lines[-1]
    assert (featurized["stage"], labeled["stage"]) == ("featurize", "label")
    featurized["inputs"] = {**labeled["inputs"], **labeled["outputs"]}
    manifest.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines), encoding="utf-8")
    labels = {line.split(",")[0] for line in (out / "labels.csv").read_text().splitlines()[1:]}
    ids = [line.split(",")[0] for line in (out / "features.csv").read_text().splitlines()[1:]]
    missing = next(sid for sid in ids if sid not in labels)
    capsys.readouterr()
    assert run(["train", *args]) == 1
    assert capsys.readouterr().err == (
        f"error: train: features.csv cannot be read (KeyError({missing!r})); rerun 'featurize'\n"
    )


def test_label_reads_the_generator_degree_credits(tmp_path):
    from attrition.io import load_students
    from attrition.labeling import window_allowance
    from attrition.synthetic import cohort_paths

    config = write_config(tmp_path, synth={"n_students": 200, "seed": 77, "degree_credits": 90})
    data, out = tmp_path / "data", tmp_path / "out"
    for sub in ("generate", "label"):
        assert run([sub, "--config", config, "--data", data, "--out", out]) == 0
    paths = cohort_paths(data)
    records = {r.student_id: r for r in load_students(paths["students"], paths["transcripts"])}
    rows = [line.split(",") for line in (out / "labels.csv").read_text().splitlines()[1:]]
    transfer = [records[sid].entry.transfer_credits for sid, *_ in rows]
    assert [int(row[3]) for row in rows] == [window_allowance(t, 90) for t in transfer]
    assert [window_allowance(t, 90) for t in transfer] != [window_allowance(t) for t in transfer]


def test_features_of_another_cohort_of_the_same_size_are_refused(tmp_path, capsys):
    # cohort 78 has cohort 77's student ids, so every id join passes
    for seed, stages in ((77, ["generate", "label", "featurize", "train"]), (78, ["generate", "label"])):
        args = cohort_args(tmp_path, seed)
        for sub in stages:
            assert run([sub, *args]) == 0
    capsys.readouterr()
    for stage in ("train", "evaluate", "screen"):
        assert run([stage, *args]) == 1
        assert capsys.readouterr().err == (
            f"error: {stage}: features.csv was made from other degrees.csv, labels.csv, students.csv, "
            "transcripts.csv; rerun 'featurize'\n"
        )


@pytest.mark.parametrize("stage, before", [
    ("train", ["generate", "label", "featurize"]),
    ("evaluate", ["generate", "label", "featurize", "train"]),
])
def test_an_edited_artifact_is_refused(tmp_path, capsys, stage, before):
    args = cohort_args(tmp_path, 77)
    for sub in before:
        assert run([sub, *args]) == 0
    split_csv = tmp_path / "out" / "split.csv"
    split_csv.write_bytes(split_csv.read_bytes().replace(b",train\n", b",test\n", 1))
    capsys.readouterr()
    assert run([stage, *args]) == 1
    assert capsys.readouterr().err == (
        f"error: {stage}: split.csv was changed after 'featurize' wrote it; rerun 'featurize'\n"
    )
    # featurize writes the same split again, so the models trained on it are fresh again
    assert run(["featurize", *args]) == 0
    assert run([stage, *args]) == 0


def test_an_artifact_with_no_manifest_line_is_refused(tmp_path, capsys):
    args = cohort_args(tmp_path, 77)
    for sub in ("generate", "label", "featurize"):
        assert run([sub, *args]) == 0
    (tmp_path / "out" / "manifest.jsonl").unlink()
    capsys.readouterr()
    assert run(["train", *args]) == 1
    assert capsys.readouterr().err == "error: train: labels.csv has no line in manifest.jsonl; rerun 'label'\n"


def test_a_cohort_with_no_generate_line_is_source_data(tmp_path):
    # a registrar cohort arrives with no generate line in the output manifest
    assert run(["generate", *cohort_args(tmp_path, 77, out="elsewhere")]) == 0
    args = cohort_args(tmp_path, 77)
    for sub in ("label", "featurize", "train"):
        assert run([sub, *args]) == 0
    stages = [json.loads(line)["stage"] for line in (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()]
    assert stages == ["label", "featurize", "train"]


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "inputs"}), "KeyError"),
        (lambda line: line[: len(line) // 2], "JSONDecodeError"),
        # the format before outputs were hashed: a list of names
        (lambda line: json.dumps({**json.loads(line), "outputs": sorted(json.loads(line)["outputs"])}),
         "AttributeError"),
    ],
    ids=["no-inputs", "truncated", "outputs-list"],
)
def test_a_damaged_manifest_line_names_the_manifest_and_line(tmp_path, capsys, damage, reason):
    args = cohort_args(tmp_path, 77)
    for sub in ("generate", "label"):
        assert run([sub, *args]) == 0
    manifest = tmp_path / "out" / "manifest.jsonl"
    generated, labeled = manifest.read_text().splitlines()
    manifest.write_text(f"{generated}\n{damage(labeled)}\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["featurize", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: featurize: {manifest}:2: damaged manifest line ({reason}(")
    assert len(err.splitlines()) == 1


def test_pipeline_errors_name_the_failing_stage(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr("attrition.cli.screen_features", boom)
    config = write_config(tmp_path)
    code = run(["pipeline", "--config", config, "--data", tmp_path / "data", "--out", tmp_path / "out"])
    assert code == 1
    assert capsys.readouterr().err == "error: screen: boom\n"


@pytest.mark.parametrize("stage", ["featurize", "timing"])
def test_a_stage_encodes_each_student_once(tmp_path, monkeypatch, stage):
    import attrition.features as features

    encoded = []

    def counted(student, schema):
        encoded.append(student.student_id)
        return encode(student, schema)

    encode = features.encode
    args = run_stages(tmp_path, (200, ["generate", "label"]))
    monkeypatch.setattr(features, "encode", counted)
    assert run([stage, *args]) == 0
    assert encoded and len(encoded) == len(set(encoded))
    if stage == "featurize":
        lines = (tmp_path / "out" / "features.csv").read_text().splitlines()[1:]
        assert encoded == [line.split(",", 1)[0] for line in lines]
