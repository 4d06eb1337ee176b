"""Run one `attrition` stage in-process with spans around each module's public calls.

    python3 perfbench/tracing.py SPANS_JSON STAGE [CLI OPTIONS...]

Before `attrition.cli.main` runs, every patch point below is replaced by a
wrapper that records a span (name, start, end, parent, counts). Each wrapper
sits on the module attribute its caller looks up, e.g. `attrition.cli.cv_tune`
for the stages and `attrition.evaluation.train_forest` for cross-validation,
so the program itself is not changed. Spans stay in memory and are written to
SPANS_JSON, with the stage's peak RSS, when the stage ends.

A patch point whose module or attribute no longer exists is listed under
"missing" and skipped; the metrics that depend on it are then reported absent.
`layer_metrics` turns the spans of one traced chain into per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time


def _transcript_rows(args, kwargs, result):
    return {"transcript_rows": sum(len(r.transcript) for r in result)}


def _forest_nodes(args, kwargs, result):
    return {"forest_nodes": sum(len(t.feature) for t in result.trees)}


def _gd_iters(args, kwargs, result):
    return {"gd_iters": int(result.n_iterations)}


def _knn_pairs(args, kwargs, result):
    model, x = args[0], args[1]
    queries = 1 if x.ndim == 1 else x.shape[0]
    return {"knn_pairs": queries * model.x_train.shape[0]}


def _n_features(args, kwargs, result):
    return {"n_features": len(result.feature_names)}


def _cv_kind(args, kwargs):
    return "evaluation.cv_tune." + str(kwargs.get("kind", args[2] if len(args) > 2 else "unknown"))


# (module, attribute, span name, counter). A span name may be a function of
# the call's arguments; its static prefix is what "installed" lists.
PATCH_POINTS = (
    ("attrition.cli", "load_students", "io.load_students", _transcript_rows),
    ("attrition.io", "make_student", "records.make_student", None),
    ("attrition.synthetic", "write_students", "io.write", None),
    ("attrition.synthetic", "write_transcripts", "io.write", None),
    ("attrition.synthetic", "write_degrees", "io.write", None),
    ("attrition.synthetic", "generate_cohort", "synthetic.generate_cohort", None),
    ("attrition.synthetic", "write_cohort", "synthetic.write_cohort", None),
    ("attrition.cli", "label_all", "labeling.label_all", None),
    ("attrition.cli", "balance", "labeling.balance", None),
    ("attrition.cli", "fit_schema", "features.fit_schema", _n_features),
    ("attrition.evaluation", "fit_schema", "features.fit_schema", _n_features),
    ("attrition.cli", "encode_dataset", "features.encode_dataset", None),
    ("attrition.evaluation", "encode_dataset", "features.encode_dataset", None),
    ("attrition.cli", "train_forest", "models.train_forest", _forest_nodes),
    ("attrition.evaluation", "train_forest", "models.train_forest", _forest_nodes),
    ("attrition.evaluation", "forest_predict", "models.forest_predict", None),
    ("attrition.models", "forest_predict", "models.forest_predict", None),
    ("attrition.evaluation", "knn_predict", "models.knn_predict", _knn_pairs),
    ("attrition.models", "knn_predict", "models.knn_predict", _knn_pairs),
    ("attrition.cli", "train_logistic", "models.train_logistic", _gd_iters),
    ("attrition.evaluation", "train_logistic", "models.train_logistic", _gd_iters),
    ("attrition.evaluation", "train_ridge", "models.train_ridge", _gd_iters),
    ("attrition.cli", "cv_tune", ("evaluation.cv_tune", _cv_kind), None),
    ("attrition.evaluation", "cv_tune", ("evaluation.cv_tune", _cv_kind), None),
    ("attrition.cli", "screen_features", "evaluation.screen_features", None),
    ("attrition.cli", "timing_experiment", "evaluation.timing_experiment", None),
    ("attrition.cli", "roc_and_auc", "evaluation.roc_and_auc", None),
    ("attrition.evaluation", "roc_and_auc", "evaluation.roc_and_auc", None),
)


class Tracer:
    """Spans of one process, kept in memory as [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            try:
                span[4] = counter(args, kwargs, result)
            except (AttributeError, TypeError, IndexError):
                span[4] = None  # the result changed shape: the count is absent
        return result

    def wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name[1](args, kwargs)
            return self.call(label, fn, args, kwargs, counter)

        return traced

    def install(self) -> tuple[list[str], list[str]]:
        """Patch every point that exists; return (complete span names, missing points).

        A span name counts as installed only when all of its patch points
        are, so no metric is computed from a partial view of the calls.
        """
        names, incomplete, missing = set(), set(), []
        for module_name, attr, name, counter in PATCH_POINTS:
            base = name if isinstance(name, str) else name[0]
            names.add(base)
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                incomplete.add(base)
                continue
            setattr(module, attr, self.wrap(fn, name, counter))
        return sorted(names - incomplete), missing


# the span whose calls are the fits counted by evaluation.cv_fits.<kind>
FIT_SPANS = {
    "logistic_regression": "models.train_logistic",
    "knn": "models.knn_predict",
    "random_forest": "models.train_forest",
    "ridge": "models.train_ridge",
}
# per-layer count metric -> (span, counter key it sums)
COUNTERS = {
    "io.transcript_rows": ("io.load_students", "transcript_rows"),
    "features.n_features": ("features.fit_schema", "n_features"),
    "models.forest_nodes": ("models.train_forest", "forest_nodes"),
    "models.knn_pairs": ("models.knn_predict", "knn_pairs"),
    "models.gd_iters.logistic": ("models.train_logistic", "gd_iters"),
    "models.gd_iters.ridge": ("models.train_ridge", "gd_iters"),
}


def _duration(span: list) -> float:
    return span[2] - span[1]


def spans_nested(spans: list[list]) -> bool:
    """Every child lies inside its parent, and the children's total fits in it."""
    children_total = [0.0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            if span[1] < spans[parent][1] or span[2] > spans[parent][2]:
                return False
            children_total[parent] += _duration(span)
    return all(total <= _duration(s) + 1e-9 for total, s in zip(children_total, spans))


def layer_metrics(stage_traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced chain; a metric whose patch point is gone is left out."""
    installed = {name for t in stage_traces for name in t["installed"]}
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list] = {}
    fits = {kind: 0 for kind in FIT_SPANS}
    out: dict[str, float] = {}
    for trace in stage_traces:
        spans, stage = trace["spans"], trace["stage"]
        out[f"cli.{stage}.peak_rss_mb"] = trace["peak_rss_mb"]
        children = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                children[span[3]] += _duration(span)
        for i, (name, _, _, parent, span_counts) in enumerate(spans):
            if parent < 0:
                out[f"cli.{stage}.self_s"] = _duration(spans[i]) - children[i]
                continue
            busy[name] = busy.get(name, 0.0) + _duration(spans[i])
            calls[name] = calls.get(name, 0) + 1
            counts.setdefault(name, []).append(span_counts)
            while parent >= 0:  # a fit counts for the nearest enclosing cv_tune
                tuner = spans[parent][0]
                if tuner.startswith("evaluation.cv_tune."):
                    kind = tuner.rsplit(".", 1)[1]
                    fits[kind] = fits.get(kind, 0) + (FIT_SPANS.get(kind) == name)
                    break
                parent = spans[parent][3]
    for name in installed:
        if name == "evaluation.cv_tune":
            for kind, fit_span in FIT_SPANS.items():
                out[f"evaluation.cv_tune_s.{kind}"] = busy.get(f"{name}.{kind}", 0.0)
                if fit_span in installed:
                    out[f"evaluation.cv_fits.{kind}"] = fits[kind]
        else:
            out[f"{name}_s"] = busy.get(name, 0.0)
            out[f"{name}_calls"] = calls.get(name, 0)
    for metric, (name, key) in COUNTERS.items():
        values = [c.get(key) if c else None for c in counts.get(name, [])]
        if name in installed and None not in values:
            out[metric] = max(values, default=0) if metric == "features.n_features" else sum(values)
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    installed, missing = tracer.install()
    from attrition.cli import main as cli_main

    code = 1
    try:
        code = tracer.call("cli." + cli_args[0], cli_main, (cli_args,))
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({
                "stage": cli_args[0],
                "exit": code,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "installed": installed,
                "missing": missing,
                "spans": tracer.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
