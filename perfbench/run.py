#!/usr/bin/env python3
"""Benchmark of the attrition pipeline, driven through its command line.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_1k --seed 1 --seconds 30 --trace 0

A workload (perfbench/workloads.json) runs all seven `attrition` stages, one
process per stage and one process at a time: a single client in a closed
loop. Its "setup" stages make the inputs (`setup_s`). Each iteration then runs
its "timed" stages (`wall_s`) and its "untimed" ones, which only complete the
outputs, in a fresh copy of the set-up outputs; iterations repeat until the
next one would overrun --seconds. Every stage run and every output check is
an operation counted in `attempted`; a non-zero exit or a check that does not
hold counts in `failed`.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported: the
medians of `wall_s` and `setup_s` over the run's samples; peak RSS, the
highest among the stage processes; and the models' quality, read from
report.json and timing.json. Each stage's wall time, interpreter start
included, is printed too. With --trace 1 one iteration runs untraced, then
the whole chain runs twice with every stage under perfbench/tracing.py, and
the per-layer metrics are reported. The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
STAGES = ("generate", "label", "featurize", "train", "evaluate", "screen", "timing")
COMPARED_OUTPUTS = ("report.json", "screen.csv", "timing.json")
MODELS = ("logistic_regression", "random_forest", "knn")


class Ledger:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.notes: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.notes)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.notes.append(what)
        return ok


@dataclass
class StageRun:
    stage: str
    wall: float
    rss_mb: float
    code: int
    trace: dict | None = None


@dataclass
class Chain:
    stages: list[StageRun]
    wall: float
    digests: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)


class Bench:
    def __init__(self, name: str, workload: dict, seed: int, base: Path, ledger: Ledger):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.base = base
        self.ledger = ledger
        self.iteration = workload["timed"] + workload["untimed"]
        src = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + src if src else ""))

    def spawn(self, cmd: list[str], log: Path) -> tuple[float, float, int]:
        """Run one process to its end: (wall seconds, its own peak RSS in MB, exit code)."""
        with open(log, "ab") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def run_stage(self, stage: str, run_dir: Path, traced: bool) -> StageRun:
        argv = [stage, "--config", str(run_dir / "config.json"),
                "--data", str(run_dir / "data"), "--out", str(run_dir / "out")]
        if stage != "generate":  # the cohort is fixed by the workload's synth.seed
            argv += ["--seed", str(self.seed)]
        spans = run_dir / f"spans_{stage}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans)] + argv
        else:
            cmd = [sys.executable, "-m", "attrition.cli"] + argv
        wall, rss, code = self.spawn(cmd, run_dir / "stages.log")
        if code != 0:
            log = (run_dir / "stages.log").read_text(encoding="utf-8", errors="replace")
            print(f"perfbench: {stage} exited {code}:\n{log[-2000:]}", file=sys.stderr)
        trace = None
        if traced and spans.exists():
            trace = json.loads(spans.read_text(encoding="utf-8"))
        return StageRun(stage, wall, rss, code, trace)

    def blank(self, run_dir: Path) -> None:
        if run_dir.exists():
            shutil.rmtree(run_dir)
        (run_dir / "out").mkdir(parents=True)
        (run_dir / "config.json").write_text(json.dumps(self.workload["config"]), encoding="utf-8")

    def set_up(self) -> tuple[float, list[StageRun]]:
        """Make the workload's inputs in base/setup; (seconds, set-up stage runs)."""
        run_dir = self.base / "setup"
        start = time.perf_counter()
        self.blank(run_dir)
        _, _, code = self.spawn([sys.executable, "-c", "import attrition.cli"], run_dir / "stages.log")
        self.ledger.check(code == 0, f"attrition.cli failed to import (exit {code})")
        runs = []
        for stage in self.workload["setup"]:
            runs.append(self.run_stage(stage, run_dir, traced=False))
            self.ledger.check(runs[-1].code == 0, f"set-up stage {stage} exited {runs[-1].code}")
        return time.perf_counter() - start, runs

    def run_chain(self, stages: list[str], template: Path, run_dir: Path,
                  traced: bool = False, n_timed: int | None = None) -> Chain:
        """Run `stages` in a fresh copy of `template`, then check the outputs.

        The chain's wall time spans its first `n_timed` stages, by default all.
        """
        if run_dir.exists():
            shutil.rmtree(run_dir)
        shutil.copytree(template, run_dir)
        manifest = run_dir / "out" / "manifest.jsonl"
        expected_lines = _line_count(manifest) + len(stages)
        n_timed = len(stages) if n_timed is None else n_timed
        runs: list[StageRun] = []
        wall = None
        start = time.perf_counter()
        for stage in stages:
            runs.append(self.run_stage(stage, run_dir, traced))
            if len(runs) == n_timed:
                wall = time.perf_counter() - start
            if not self.ledger.check(runs[-1].code == 0, f"{stage} exited {runs[-1].code}"):
                for skipped in stages[len(runs):]:
                    self.ledger.check(False, f"{skipped} not run")
                break
        chain = Chain(runs, time.perf_counter() - start if wall is None else wall)
        out = run_dir / "out"
        self.ledger.check(_labels_match_truth(run_dir / "data" / "ground_truth.csv", out / "labels.csv"),
                          "labels.csv disagrees with ground_truth.csv")
        self.ledger.check(_line_count(manifest) == expected_lines,
                          f"manifest.jsonl has {_line_count(manifest)} lines, expected {expected_lines}")
        chain.quality = _read_quality(out)
        self.ledger.check(len(chain.quality) == len(MODELS) + 1, "report.json or timing.json unreadable")
        chain.digests = {n: _sha256(out / n) for n in COMPARED_OUTPUTS if (out / n).exists()}
        self.ledger.check(len(chain.digests) == len(COMPARED_OUTPUTS), "a compared output is missing")
        shutil.rmtree(run_dir)
        return chain

    def same_outputs(self, chains: list[Chain]) -> None:
        """Outputs of one seed are byte-identical across this run and earlier runs of this code."""
        for chain in chains[1:]:
            self.ledger.check(chain.digests == chains[0].digests, "outputs differ between iterations")
        config = hashlib.sha256(json.dumps(self.workload, sort_keys=True).encode()).hexdigest()[:16]
        store = WORK / "digests" / f"{_src_digest()}-{config}-{self.name}-{self.seed}.json"
        if store.exists():
            earlier = json.loads(store.read_text(encoding="utf-8"))
            self.ledger.check(earlier == chains[0].digests, "outputs differ from an earlier run")
        elif self.ledger.failed == 0:
            store.parent.mkdir(parents=True, exist_ok=True)
            tmp = store.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(chains[0].digests, sort_keys=True), encoding="utf-8")
            os.replace(tmp, store)

    def timed(self, seconds: float) -> dict[str, list[float]]:
        """Untraced run; the samples of every end-to-end metric."""
        setups = [self.set_up() for _ in range(self.workload["setup_repeats"])]
        chains: list[Chain] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            chains.append(self.run_chain(self.iteration, self.base / "setup", self.base / "run",
                                         n_timed=len(self.workload["timed"])))
            now = time.perf_counter()
            if (now - start) + (now - began) > seconds:
                break
        self.same_outputs(chains)

        samples: dict[str, list[float]] = {
            "wall_s": [c.wall for c in chains],
            "setup_s": [s for s, _ in setups],
        }
        runs = [r for _, rs in setups for r in rs] + [r for c in chains for r in c.stages]
        for stage in STAGES:
            samples[f"stage.{stage}_s"] = [r.wall for r in runs if r.stage == stage]
        samples["peak_rss_mb"] = [max(r.rss_mb for r in runs)]
        for key, value in chains[-1].quality.items():
            samples[key] = [value]
        return samples

    def traced(self, counts: set[str]) -> tuple[dict[str, float], list[str]]:
        """One untraced and two traced chains; (per-layer metrics, absent patch points).

        The metrics named in `counts` must repeat exactly between the traced chains.
        """
        _, setup_runs = self.set_up()
        plain = self.run_chain(self.iteration, self.base / "setup", self.base / "run")
        self.blank(self.base / "blank")
        stages = self.workload["setup"] + self.iteration
        chains = [self.run_chain(stages, self.base / "blank", self.base / f"traced{i}", traced=True)
                  for i in range(2)]
        self.same_outputs([plain] + chains)

        traces = [[r.trace for r in c.stages if r.trace is not None] for c in chains]
        for stage_traces in traces:
            for trace in stage_traces:
                self.ledger.check(tracing.spans_nested(trace["spans"]),
                                  f"a child span exceeds its parent in {trace['stage']}")
        per_chain = [tracing.layer_metrics(t) for t in traces]
        for name in sorted(counts & (per_chain[0].keys() | per_chain[1].keys())):
            self.ledger.check(per_chain[0].get(name) == per_chain[1].get(name),
                              f"count {name} differs between traced runs")
        metrics = {}
        for name in per_chain[0]:
            values = [m[name] for m in per_chain if name in m]
            metrics[name] = values[0] if name in counts else statistics.median(values)
        for run in setup_runs + plain.stages:
            metrics[f"stage.{run.stage}_s"] = run.wall
        untraced = sum(r.wall for r in setup_runs) + sum(r.wall for r in plain.stages)
        metrics["trace.overhead_s"] = statistics.median(
            sum(r.wall for r in c.stages) for c in chains) - untraced
        missing = sorted({m for t in traces[0] for m in t["missing"]})
        return metrics, missing


# ---------------------------------------------------------------------------
# output checks

def _line_count(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _labels_match_truth(truth_csv: Path, labels_csv: Path) -> bool:
    """The C3 rule: every label, and every non-completer's quarters enrolled, match the generator."""
    try:
        with open(truth_csv, newline="", encoding="utf-8") as fh:
            truth = {row["student_id"]: row for row in csv.DictReader(fh)}
        with open(labels_csv, newline="", encoding="utf-8") as fh:
            labels = list(csv.DictReader(fh))
        if len(labels) != len(truth):
            return False
        for row in labels:
            expected = truth[row["student_id"]]
            graduated = row["graduated"] == "1"
            if graduated != (expected["true_label"] == "grad"):
                return False
            if not graduated and row["quarters_enrolled"] != expected["true_quarters_enrolled"]:
                return False
    except (OSError, KeyError):
        return False
    return True


def _read_quality(out: Path) -> dict[str, float]:
    quality: dict[str, float] = {}
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for model in MODELS:
            quality[f"auc.{model}"] = float(report["models"][model]["auc"])
        quality["timing_rmse"] = float(json.loads((out / "timing.json").read_text(encoding="utf-8"))["rmse"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    return quality


# ---------------------------------------------------------------------------

def _environment(name: str, workload: dict, why: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "workload": name, "why": why, "config": workload["config"],
        "setup": workload["setup"], "timed": workload["timed"], "untimed": workload["untimed"],
        "git_sha": sha, "src_digest": _src_digest(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
    }


def _row(name: str, value: float, unit: str, samples: list[float] | None) -> str:
    row = f"{name:<44} {value:>14.6g} {unit:<8}"
    if samples:
        row += f"  max {max(samples):<10.6g} n {len(samples)}"
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "attrition" / "cli.py").is_file():
        print("perfbench: src/attrition/cli.py not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    print(json.dumps({"environment": _environment(args.workload, workload, whys.get(args.workload, ""))}))

    ledger = Ledger()
    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, workload, args.seed, base, ledger)
    samples: dict[str, list[float]] = {}
    try:
        if args.trace:
            values, missing = bench.traced({m["name"] for m in spec["per_layer"] if m["unit"] == "count"})
            wanted = spec["per_layer"]
        else:
            samples = bench.timed(args.seconds)
            values = {k: statistics.median(v) for k, v in samples.items() if v}
            missing = []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
            print(_row(name, values[name], m["unit"], samples.get(name)) + f"  {m['better']} is better")
        else:
            print(f"{name:<44} {'absent':>14}")
    for name in [n for n in samples if n not in metrics]:  # per-stage wall times: shown, not gated
        print(_row(name, values[name], "s", samples[name]) + "  per stage, not gated")
    if missing:
        print("patch points missing: " + ", ".join(missing))
    for note in ledger.notes:
        print("failed: " + note)
    print(f"attempted {ledger.attempted}  failed {ledger.failed}  "
          f"failed_share {ledger.failed / max(ledger.attempted, 1):.6g}")
    print(json.dumps({
        "correct": ledger.failed == 0 and (args.trace == 1 or len(metrics) == len(wanted)),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
