"""From-scratch learners: regularized logistic/ridge regression, kNN, random forest.

Logistic regression runs damped Newton steps (IRLS) from zero: each step
solves the (d+1)^2 Hessian against the gradient by least squares, so a
singular Hessian (a constant column at lambda = 0) still gives finite
weights, and halves the step until the Armijo rule holds, so the loss is
non-increasing at every accepted iterate. It stops at gradient max-norm
< 1e-9, after 50 steps (a separable column) or when no halved step lowers
the loss; 2-6 steps are typical. Ridge regression has a closed form and is
solved exactly by least squares. All trainers are deterministic functions of
(data, hyperparameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .io import read_json, write_json

_TOL = 1e-9
_MAX_NEWTON_STEPS = 50
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5


class SchemaMismatchError(ValueError):
    """A model was asked to predict against features from a different schema."""


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_design(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"row mismatch: {x.shape[0]} feature rows vs {y.shape[0]} targets")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise ValueError("training data contains non-finite values")
    return x, y


# ---------------------------------------------------------------------------
# linear models

@dataclass
class LinearModel:
    weights: np.ndarray
    intercept: float
    regularization: float
    task: str  # "classification" | "regression"
    n_iterations: int = 0
    loss_history: list[float] = field(default_factory=list, repr=False)
    schema_hash: str | None = None


def logistic_objective(
    x: np.ndarray, y: np.ndarray, regularization: float, theta: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean log-loss + (lambda/2)*||w||^2 and its gradient at theta = [w, b]."""
    n, d = x.shape
    w, b = theta[:d], theta[d]
    z = x @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * regularization * (w @ w))
    residual = _sigmoid(z) - y
    grad = np.empty(d + 1)
    grad[:d] = x.T @ residual / n + regularization * w
    grad[d] = residual.mean()
    return loss, grad


def train_logistic(x: np.ndarray, y: np.ndarray, regularization: float) -> LinearModel:
    """L2-regularized logistic regression by damped Newton steps from zero.

    Minimizes `logistic_objective` (mean log-loss + (lambda/2) * ||w||^2 with
    an unpenalized intercept). Each step solves the Hessian
    X1^T diag(p(1-p)) X1 / n + lambda * diag(1, ..., 1, 0), with X1 = [X, 1],
    against the gradient; the module docstring gives the stopping rules.
    """
    x, y = _check_design(x, y)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("logistic regression needs both classes present")
    if regularization < 0:
        raise ValueError("regularization strength must be non-negative")
    n, d = x.shape
    x1 = np.hstack([x, np.ones((n, 1))])
    penalty = np.diag(np.append(np.full(d, float(regularization)), 0.0))
    theta = np.zeros(d + 1)
    loss, grad = logistic_objective(x, y, regularization, theta)
    history = [loss]
    while len(history) <= _MAX_NEWTON_STEPS and np.abs(grad).max() >= _TOL:
        p = _sigmoid(x1 @ theta)
        hessian = (x1.T * (p * (1.0 - p))) @ x1 / n + penalty
        direction = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        decrease = _ARMIJO_C * float(grad @ direction)
        step = 1.0
        for _ in range(60):
            candidate = theta - step * direction
            cand_loss, cand_grad = logistic_objective(x, y, regularization, candidate)
            if cand_loss <= loss - step * decrease:
                break
            step *= _BACKTRACK
        else:
            break  # no float-representable descent step left
        theta, loss, grad = candidate, cand_loss, cand_grad
        history.append(loss)
    return LinearModel(theta[:d], float(theta[d]), regularization, "classification",
                       len(history) - 1, history)


def train_ridge(x: np.ndarray, y: np.ndarray, regularization: float) -> LinearModel:
    """Ridge regression, solved exactly.

    Minimizes mean squared error + lambda * ||w||^2 with an unpenalized
    intercept. On centered data that is least squares of [Xc; sqrt(n*lambda) I]
    against [yc; 0], whose solution is (Xc^T Xc + n*lambda*I)^-1 Xc^T yc;
    `lstsq` also gives the minimum-norm weights at lambda = 0 when Xc is
    rank-deficient (a constant or duplicated column). The intercept is
    b = mean(y - Xw).
    """
    x, y = _check_design(x, y)
    if regularization < 0:
        raise ValueError("regularization strength must be non-negative")
    n, d = x.shape
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    design = np.vstack([x - x_mean, math.sqrt(n * regularization) * np.eye(d)])
    target = np.concatenate([y - y_mean, np.zeros(d)])
    w = np.linalg.lstsq(design, target, rcond=None)[0]
    b = y_mean - float(x_mean @ w)
    return LinearModel(w, b, regularization, "regression")


def predict_linear(model: LinearModel, x: np.ndarray) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    mat = np.atleast_2d(x)
    if mat.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature length {mat.shape[1]} does not match model dimension {model.weights.shape[0]}"
        )
    z = mat @ model.weights + model.intercept
    return float(z[0]) if single else z


def predict_proba(model: LinearModel, x: np.ndarray) -> np.ndarray | float:
    """Sigmoid of the linear score; strictly inside (0, 1)."""
    if model.task != "classification":
        raise ValueError("predict_proba requires a classification model")
    z = predict_linear(model, x)
    if isinstance(z, float):
        return float(_sigmoid(np.array([z]))[0])
    return _sigmoid(z)


# ---------------------------------------------------------------------------
# k-nearest neighbors

@dataclass
class KnnModel:
    x_train: np.ndarray
    y_train: np.ndarray
    k: int
    schema_hash: str | None = None


def fit_knn(x: np.ndarray, y: np.ndarray, k: int) -> KnnModel:
    x, y = _check_design(x, y)
    if k < 1 or k % 2 == 0:
        raise ValueError(f"k must be a positive odd integer, got {k}")
    if k > x.shape[0]:
        raise ValueError(f"k={k} exceeds training size {x.shape[0]}")
    return KnnModel(x, y, k)


def knn_predict(
    model: KnnModel, x: np.ndarray, ks: Sequence[int] | None = None
) -> np.ndarray | float:
    """Fraction of positive labels among the k nearest training rows.

    Euclidean distance; exact distance ties resolve to the lowest training
    row index (stable sort over squared distances). Queries are scored one
    at a time, so memory stays at one n_train x d block however many there are.

    With `ks` (odd values up to `model.k`), one neighbour sort per query
    scores every k in it and the result has shape (len(ks), n_queries). The
    labels are 0/1, so the prefix sum over the first k neighbours is exact
    and each score equals the mean of those k labels.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    queries = np.atleast_2d(x)
    if queries.shape[1] != model.x_train.shape[1]:
        raise ValueError(
            f"query length {queries.shape[1]} does not match training dimension {model.x_train.shape[1]}"
        )
    k_arr = np.array([model.k] if ks is None else ks, dtype=np.int64)
    if ((k_arr < 1) | (k_arr % 2 == 0) | (k_arr > model.k)).any():
        raise ValueError(f"every k must be a positive odd integer at most {model.k}, got {k_arr.tolist()}")
    out = np.empty((len(k_arr), queries.shape[0]))
    for i, q in enumerate(queries):
        diff = model.x_train - q
        d2 = np.einsum("tf,tf->t", diff, diff)
        order = np.argsort(d2, kind="stable")[: model.k]
        out[:, i] = np.cumsum(model.y_train[order])[k_arr - 1] / k_arr
    if ks is not None:
        return out
    return float(out[0, 0]) if single else out[0]


# ---------------------------------------------------------------------------
# random forest

@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 200
    max_depth: int = 8
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1:
            raise ValueError("n_trees and max_depth must be positive")
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise ValueError("bad minimum node sizes")


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray


@dataclass
class ForestModel:
    trees: list[_Tree]
    params: ForestParams
    seed: int
    n_features: int
    schema_hash: str | None = None


def _best_split(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, feats: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Exact best Gini split over candidate features; ties go to the lowest
    feature index, then the lowest threshold."""
    m = rows.shape[0]
    cols = x[np.ix_(rows, feats)]
    order = np.argsort(cols, axis=0, kind="stable")
    svals = np.take_along_axis(cols, order, axis=0)
    sy = y[rows][order]

    pos_total = float(y[rows].sum())
    left_pos = np.cumsum(sy, axis=0)[:-1]
    left_cnt = np.arange(1, m, dtype=float)[:, None]
    right_pos = pos_total - left_pos
    right_cnt = m - left_cnt

    valid = svals[1:] > svals[:-1]
    if min_leaf > 1:
        valid &= (left_cnt >= min_leaf) & (right_cnt >= min_leaf)
    if not valid.any():
        return None

    pl = left_pos / left_cnt
    pr = right_pos / right_cnt
    gini_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    weighted = (left_cnt * gini_left + right_cnt * gini_right) / m
    weighted = np.where(valid, weighted, np.inf)

    best = float(weighted.min())
    if not math.isfinite(best):
        return None
    positions = np.argwhere(weighted == best)
    choice: tuple[int, float] | None = None
    for pos, col in positions:
        feat = int(feats[col])
        lo, hi = float(svals[pos, col]), float(svals[pos + 1, col])
        thr = (lo + hi) / 2.0
        if thr >= hi:  # midpoint rounded up between adjacent floats
            thr = lo
        if choice is None or (feat, thr) < choice:
            choice = (feat, thr)
    return choice


def _grow_tree(
    x: np.ndarray, y: np.ndarray, rows: np.ndarray, params: ForestParams,
    nf: int, node_key: list[int],
) -> _Tree:
    """Grow one tree on the bootstrap `rows`, nodes in depth-first preorder.

    Node h (root 1, children 2h and 2h + 1) draws its features from a
    generator keyed by (node_key, h), so no split depends on max_depth: the
    tree grown to depth d is this tree cut off at d (`forest_predict(depths=)`).
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    prob: list[float] = []
    d = x.shape[1]

    def leaf(node_rows: np.ndarray) -> int:
        idx = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(float(y[node_rows].mean()))
        return idx

    def build(node_rows: np.ndarray, depth: int, heap_id: int) -> int:
        m = node_rows.shape[0]
        pos = float(y[node_rows].sum())
        if depth >= params.max_depth or m < params.min_samples_split or pos == 0.0 or pos == m:
            return leaf(node_rows)
        node_rng = np.random.default_rng([*node_key, heap_id])
        feats = np.sort(node_rng.choice(d, size=nf, replace=False))
        split = _best_split(x, y, node_rows, feats, params.min_samples_leaf)
        if split is None:
            return leaf(node_rows)
        feat, thr = split
        mask = x[node_rows, feat] <= thr
        idx = len(feature)
        feature.append(feat)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        prob.append(float(y[node_rows].mean()))
        left_idx = build(node_rows[mask], depth + 1, 2 * heap_id)
        right_idx = build(node_rows[~mask], depth + 1, 2 * heap_id + 1)
        left[idx] = left_idx
        right[idx] = right_idx
        return idx

    build(rows, 0, 1)
    return _Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold, dtype=float),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(prob, dtype=float),
    )


def train_forest(
    x: np.ndarray, y: np.ndarray, params: ForestParams, seed: int
) -> ForestModel:
    """Random forest of Gini trees on bootstrap resamples, deterministic in seed.

    Each tree runs off its own spawned seed (bootstrap rows from its stream,
    node features from generators keyed by it), so trees could be built in
    parallel and still reproduce the sequential result bit for bit.
    """
    x, y = _check_design(x, y)
    if len(np.unique(y)) < 2:
        raise ValueError("random forest needs both classes present")
    n, d = x.shape
    nf = math.ceil(math.sqrt(d))
    seeds = np.random.SeedSequence(seed).spawn(params.n_trees)
    trees = []
    for tree_seed in seeds:
        rows = np.random.default_rng(tree_seed).integers(0, n, size=n)
        node_key = [int(v) for v in tree_seed.generate_state(2)]
        trees.append(_grow_tree(x, y, rows, params, nf, node_key))
    return ForestModel(trees, params, seed, d)


def _tree_predict(tree: _Tree, x: np.ndarray, depths: np.ndarray) -> np.ndarray:
    """Class frequency of each row's node at each of `depths`, shape (len(depths), n).

    The tree is walked one level at a time; a row that reaches a leaf above
    a depth keeps that leaf's value there.
    """
    out = np.empty((len(depths), x.shape[0]))
    node = np.zeros(x.shape[0], dtype=np.int64)
    live = np.arange(x.shape[0])  # rows not yet at a leaf
    top = int(depths.max(initial=0))
    for level in range(top + 1):
        out[depths == level] = tree.prob[node]
        live = live[tree.feature[node[live]] >= 0]
        if level == top or not live.size:
            out[depths > level] = tree.prob[node]
            break
        at = node[live]
        goes_left = x[live, tree.feature[at]] <= tree.threshold[at]
        node[live] = np.where(goes_left, tree.left[at], tree.right[at])
    return out


def forest_predict(
    model: ForestModel, x: np.ndarray, depths: Sequence[int] | None = None
) -> np.ndarray | float:
    """Mean of per-tree leaf class frequencies.

    With `depths` (values from 1 to `model.params.max_depth`), one walk per
    tree scores every depth in it and the result has shape
    (len(depths), n_queries). Every node stores its class frequency and
    draws its features by its place in the tree, so row i equals, bit for
    bit, the forest grown to depths[i] from the same data and seed.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    mat = np.atleast_2d(x)
    if mat.shape[1] != model.n_features:
        raise ValueError(
            f"feature length {mat.shape[1]} does not match model dimension {model.n_features}"
        )
    max_depth = model.params.max_depth
    d_arr = np.array([max_depth] if depths is None else depths, dtype=np.int64)
    if ((d_arr < 1) | (d_arr > max_depth)).any():
        raise ValueError(f"every depth must be a positive integer at most {max_depth}, got {d_arr.tolist()}")
    acc = np.zeros((len(d_arr), mat.shape[0]))
    for tree in model.trees:
        acc += _tree_predict(tree, mat, d_arr)
    acc /= len(model.trees)
    if depths is not None:
        return acc
    return float(acc[0, 0]) if single else acc[0]


# ---------------------------------------------------------------------------
# prediction dispatch + JSON serialization

Model = LinearModel | KnnModel | ForestModel


def predict_scores(model: Model, x: np.ndarray) -> np.ndarray:
    """Positive-class scores for any model kind (2-D input)."""
    if isinstance(model, LinearModel):
        return predict_proba(model, x) if model.task == "classification" else predict_linear(model, x)
    if isinstance(model, KnnModel):
        return knn_predict(model, x)
    return forest_predict(model, x)


def check_schema(model: Model, schema_hash: str) -> None:
    if model.schema_hash is not None and model.schema_hash != schema_hash:
        raise SchemaMismatchError(
            f"model was trained against schema {model.schema_hash[:12]}..., "
            f"got features from schema {schema_hash[:12]}...; rerun 'train'"
        )


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "kind": "logistic" if model.task == "classification" else "ridge",
            "weights": [float(v) for v in model.weights],
            "intercept": float(model.intercept),
            "regularization": float(model.regularization),
            "schema_hash": model.schema_hash,
        }
    if isinstance(model, KnnModel):
        return {
            "kind": "knn",
            "k": int(model.k),
            "x_train": [[float(v) for v in row] for row in model.x_train],
            "y_train": [float(v) for v in model.y_train],
            "schema_hash": model.schema_hash,
        }
    return {
        "kind": "forest",
        "seed": int(model.seed),
        "n_features": int(model.n_features),
        "params": asdict(model.params),
        "trees": [
            {
                "feature": [int(v) for v in t.feature],
                "threshold": [float(v) for v in t.threshold],
                "left": [int(v) for v in t.left],
                "right": [int(v) for v in t.right],
                "prob": [float(v) for v in t.prob],
            }
            for t in model.trees
        ],
        "schema_hash": model.schema_hash,
    }


def model_from_dict(payload: dict) -> Model:
    kind = payload["kind"]
    if kind in ("logistic", "ridge"):
        return LinearModel(
            weights=np.array(payload["weights"], dtype=float),
            intercept=float(payload["intercept"]),
            regularization=float(payload["regularization"]),
            task="classification" if kind == "logistic" else "regression",
            schema_hash=payload.get("schema_hash"),
        )
    if kind == "knn":
        return KnnModel(
            x_train=np.array(payload["x_train"], dtype=float),
            y_train=np.array(payload["y_train"], dtype=float),
            k=int(payload["k"]),
            schema_hash=payload.get("schema_hash"),
        )
    if kind == "forest":
        trees = [
            _Tree(
                np.array(t["feature"], dtype=np.int64),
                np.array(t["threshold"], dtype=float),
                np.array(t["left"], dtype=np.int64),
                np.array(t["right"], dtype=np.int64),
                np.array(t["prob"], dtype=float),
            )
            for t in payload["trees"]
        ]
        return ForestModel(
            trees=trees,
            params=ForestParams(**payload["params"]),
            seed=int(payload["seed"]),
            n_features=int(payload["n_features"]),
            schema_hash=payload.get("schema_hash"),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: Model, path: str | Path) -> None:
    write_json(path, model_to_dict(model), indent=None)


def load_model(path: str | Path) -> Model:
    """Read a model file; one that is unreadable or in an older format is a ValueError."""
    try:
        return model_from_dict(read_json(path))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"cannot read model {path} ({type(exc).__name__}: {exc}); rerun 'train'") from exc
