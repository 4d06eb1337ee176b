import json

import pytest

from attrition.cli import main
from attrition.config import RunConfig


def test_degree_credits_must_match_the_generator(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"degree_credits": 120, "synth": {"n_students": 300}}), encoding="utf-8")
    code = main(["generate", "--config", str(path), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: generate: degree_credits (120) must equal synth.degree_credits (180.0)\n"
    )
    assert not (tmp_path / "data").exists()


def test_degree_credits_set_in_both_places_is_accepted():
    cfg = RunConfig.from_dict({"degree_credits": 120.0, "synth": {"degree_credits": 120.0}})
    assert cfg.degree_credits == cfg.synth.degree_credits == 120.0


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

