"""The scripts in scripts/ run end to end on a small cohort."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_weight_sweep_prints_one_row_per_weight(capsys):
    assert load_script("weight_sweep").run(["--students", "300", "--weights", "0", "-3"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["math", "weight", "nc", "rate", "lr", "auc", "gpa", "rank"]
    assert [float(row.split()[0]) for row in rows] == [0.0, -3.0]


def test_run_pipeline_writes_the_report_and_prints_its_tables(tmp_path, capsys):
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"synth": {"n_students": 300}, "forest_n_trees": 5}))
    out = tmp_path / "demo"
    assert load_script("run_pipeline").run(["--config", str(config), "--out", str(out)]) == 0
    for name in ("report.json", "screen.csv", "timing.json"):
        assert (out / name).is_file()
    printed = capsys.readouterr().out
    assert "model performance (held-out)" in printed
    assert f"artifacts in {out}/" in printed
