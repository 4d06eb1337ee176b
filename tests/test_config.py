import json

import pytest

from attrition.cli import main
from attrition.config import RunConfig


def test_top_level_degree_credits_is_refused(tmp_path, capsys):
    # degree_credits is set once, under synth, for the generator and labeling alike
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"degree_credits": 120, "synth": {"n_students": 300}}), encoding="utf-8")
    code = main(["generate", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: generate: unknown config fields: ['degree_credits']\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("seed", [None, 5])
def test_resolved_config_reads_back_equal(tmp_path, seed):
    data, out = tmp_path / "no-data", tmp_path / "out"
    args = ["label", "--data", str(data), "--out", str(out)]
    expected = RunConfig(data_dir=str(data), out_dir=str(out))
    if seed is not None:
        args += ["--seed", str(seed)]
        expected = expected.override_seed(seed)
    # there is no cohort, so the stage fails, but only after the config is echoed
    assert main(args) == 1
    assert RunConfig.from_json(out / "run_config.json") == expected



@pytest.mark.parametrize("raw,message", [
    ({"forest_depth_grid": []}, "forest_depth_grid must not be empty"),
    ({"knn_k_grid": []}, "knn_k_grid must not be empty"),
    ({"lr_lambda_grid": []}, "lr_lambda_grid must not be empty"),
    ({"timing_lambda_grid": []}, "timing_lambda_grid must not be empty"),
    ({"forest_depth_grid": [4, 0]}, r"forest_depth_grid values must be at least 1, got \[4, 0\]"),
    ({"knn_k_grid": [4]}, r"knn_k_grid values must be positive odd integers, got \[4\]"),
    ({"knn_k_grid": [-1, 3]}, r"knn_k_grid values must be positive odd integers, got \[-1, 3\]"),
    ({"knn_k_grid": ["3"]}, r"knn_k_grid values must be positive odd integers, got \['3'\]"),
    ({"lr_lambda_grid": [0.1, -1.0]}, r"lr_lambda_grid values must be non-negative, got \[0.1, -1.0\]"),
    ({"timing_lambda_grid": [-0.5]}, r"timing_lambda_grid values must be non-negative, got \[-0.5\]"),
])
def test_bad_hyperparameter_grid_is_rejected(raw, message):
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(raw)


def test_bad_grid_stops_the_first_stage(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"forest_depth_grid": []}), encoding="utf-8")
    code = main(["train", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: train: forest_depth_grid must not be empty\n"


@pytest.mark.parametrize("raw,message", [
    ({"cv_folds": 1}, "cv_folds must be an integer >= 2, got 1"),
    ({"cv_folds": 0}, "cv_folds must be an integer >= 2, got 0"),
    ({"cv_folds": 2.5}, "cv_folds must be an integer >= 2, got 2.5"),
    ({"test_fraction": 0.0}, r"test_fraction must be inside \(0, 1\), got 0.0"),
    ({"test_fraction": 1}, r"test_fraction must be inside \(0, 1\), got 1"),
    ({"test_fraction": -0.3}, r"test_fraction must be inside \(0, 1\), got -0.3"),
    ({"test_fraction": "0.3"}, r"test_fraction must be inside \(0, 1\), got '0.3'"),
])
def test_bad_fold_count_or_test_fraction_is_rejected(raw, message):
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(raw)


def test_single_fold_stops_generate_before_any_work(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"cv_folds": 1}), encoding="utf-8")
    code = main(["generate", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: generate: cv_folds must be an integer >= 2, got 1\n"
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("raw,message", [
    ([], r"config must be a JSON object, got \[\]"),
    ({"synth": None}, "synth config must be a JSON object, got None"),
    ({"gatekeeper_range": 5}, "gatekeeper_range must be a list, got 5"),
    ({"synth": {"entry_year_range": 5}}, "entry_year_range must be a list, got 5"),
])
def test_config_of_the_wrong_json_shape_is_rejected(raw, message):
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(raw)


def test_wrong_json_shape_stops_the_stage_in_one_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"synth": null}', encoding="utf-8")
    code = main(["generate", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: generate: synth config must be a JSON object, got None\n"


@pytest.mark.parametrize("raw,message", [
    ({"gatekeeper_range": [100]}, r"gatekeeper_range must be two integers lo <= hi, got \[100\]"),
    ({"gatekeeper_range": [150, 100]}, r"gatekeeper_range must be two integers lo <= hi, got \[150, 100\]"),
    ({"gatekeeper_range": [100, 199.5]}, r"gatekeeper_range must be two integers lo <= hi, got \[100, 199.5\]"),
    ({"imputation_mode": "median"}, "imputation_mode must be 'regression' or 'mean', got 'median'"),
    ({"major_vocab_size": -1}, "major_vocab_size must be an integer >= 0, got -1"),
])
def test_bad_feature_field_is_rejected(raw, message):
    with pytest.raises(ValueError, match=message):
        RunConfig.from_dict(raw)


def test_feature_fields_at_their_limits_are_accepted():
    cfg = RunConfig.from_dict({"gatekeeper_range": [150, 150], "major_vocab_size": 0, "imputation_mode": "mean"})
    assert cfg.feature_config().gatekeeper_range == (150, 150)


@pytest.mark.parametrize("raw,message", [
    ({"gatekeeper_range": [100]}, "gatekeeper_range must be two integers lo <= hi, got [100]"),
    ({"imputation_mode": "median"}, "imputation_mode must be 'regression' or 'mean', got 'median'"),
    ({"synth": {"n_students": "5"}}, "n_students must be an integer, got '5'"),
    ({"synth": {"seed": True}}, "seed must be an integer, got True"),
    ({"synth": {"n_majors": 12.0}}, "n_majors must be an integer, got 12.0"),
    ({"synth": {"grade_noise_sd": "0.5"}}, "grade_noise_sd must be a number, got '0.5'"),
    ({"forest_n_trees": "5"}, "forest_n_trees must be an integer, got '5'"),
    ({"synth": {"degree_credits": False}}, "degree_credits must be a number, got False"),
    ({"data_dir": 5}, "data_dir must be a string, got 5"),
    ({"forest_n_trees": 0}, "n_trees must be >= 1, got 0"),
    ({"forest_min_samples_leaf": 0}, "min_samples_leaf must be >= 1, got 0"),
    ({"synth": {"signal_weights": {"bogus": 1}}}, "unknown signal weight key 'bogus'"),
])
@pytest.mark.parametrize("stage", ["generate", "train"])
def test_bad_config_value_stops_every_stage_in_one_line(tmp_path, capsys, raw, message, stage):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code = main([stage, "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {stage}: {message}\n"
    assert not (tmp_path / "data").exists()


def test_float_field_accepts_an_integer():
    cfg = RunConfig.from_dict({"synth": {"degree_credits": 120, "grade_noise_sd": 1}})
    assert cfg.synth.degree_credits == 120
    assert cfg.synth.grade_noise_sd == 1
