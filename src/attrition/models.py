"""From-scratch learners: regularized logistic/ridge regression, kNN, random forest.

Logistic regression runs damped Newton steps (IRLS) from zero: each step
solves the (d+1)^2 Hessian against the gradient, by LU where lambda > 0 makes
it positive definite and by least squares at lambda = 0, so a singular
Hessian (a constant column) still gives finite weights, and halves the step
until the Armijo rule holds, so the loss is non-increasing at every accepted
iterate. It stops at gradient max-norm < 1e-9, after 50 steps (a separable
column) or when no halved step lowers the loss; 2-6 steps are typical.
Ridge regression has a closed form and is solved exactly by least squares.
All trainers are deterministic functions of (data, hyperparameters, seed).

The random forest grows all of its trees together, one level at a time
(level-synchronous, as in SLIQ and SPRINT). Each column is ranked once per
forest. A level's (node, candidate feature) groups count their rows and
positives per distinct value with two bincounts, as histogram split finding
does (LightGBM), but with one bin per value, so the counts are exact. The
level is scored in chunks of at most _CHUNK_ELEMENTS (node, feature, row)
elements plus (node, feature, value) bins (a node with more is scored
alone), so scratch memory does not grow with the number of open nodes. Each
node has a 64-bit key, and its candidate features are those that score
lowest in the key's splitmix64 stream (a counter-based draw, as in Salmon et
al. 2011), so a level's draws are a few array operations. The splits and
tie-breaks are those of a node-by-node recursive grower. Each tree keeps its
nodes in the order they were grown, level by level, so a split node's
children sit side by side: `left` and `left + 1`.
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


def _newton_direction(hessian: np.ndarray, grad: np.ndarray, regularization: float) -> np.ndarray:
    """The Newton direction hessian^-1 grad. For lambda > 0 the Hessian is positive definite: the
    penalty covers every weight and the intercept's curvature is mean(p(1 - p)) > 0, so LU solves
    it. At lambda = 0, or where LU finds it singular in floating point, least squares does."""
    if regularization > 0:
        try:
            return np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            pass
    return np.linalg.lstsq(hessian, grad, rcond=None)[0]


def train_logistic(x: np.ndarray, y: np.ndarray, regularization: float) -> LinearModel:
    """L2-regularized logistic regression by damped Newton steps from zero.

    Minimizes `logistic_objective` (mean log-loss + (lambda/2) * ||w||^2 with
    an unpenalized intercept). Each step solves the Hessian
    X1^T diag(p(1-p)) X1 / n + lambda * diag(1, ..., 1, 0), with X1 = [X, 1],
    against the gradient (`_newton_direction`); the module docstring gives
    the stopping rules.
    """
    x, y = _check_design(x, y)
    if (y == y[0]).all():  # comparisons, not np.unique, which imports numpy.ma on first use
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
        direction = _newton_direction(hessian, grad, regularization)
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


def _queries(x: np.ndarray, d: int) -> tuple[np.ndarray, bool]:
    """Query rows as a float matrix of width `d`, and whether `x` was one 1-D query."""
    x = np.asarray(x, dtype=float)
    mat = np.atleast_2d(x)
    if mat.shape[1] != d:
        raise ValueError(f"feature length {mat.shape[1]} does not match model dimension {d}")
    return mat, x.ndim == 1


def predict_linear(model: LinearModel, x: np.ndarray) -> np.ndarray | float:
    mat, single = _queries(x, model.weights.shape[0])
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
    queries, single = _queries(x, model.x_train.shape[1])
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
        for name, least in (("n_trees", 1), ("max_depth", 1), ("min_samples_split", 2), ("min_samples_leaf", 1)):
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray  # a split node's children are left and left + 1
    prob: np.ndarray


@dataclass
class ForestModel:
    trees: list[_Tree]
    params: ForestParams
    seed: int
    n_features: int


# (node, candidate feature, row) elements plus (node, candidate feature, value) bins scored at
# once while a level grows
_CHUNK_ELEMENTS = 1 << 14


def _splitmix(state: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    """Output i of the splitmix64 stream with state s (Steele, Lea & Flood 2014), broadcast over
    uint64 states and outputs: the finalizer of s + (i + 1) * 0x9E3779B97F4A7C15, mod 2^64."""
    z = state + (outputs + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _draw_features(keys: np.ndarray, d: int, nf: int) -> np.ndarray:
    """Each node's nf features with the lowest scores, sorted, shape (len(keys), nf). Feature f
    scores output 2 + f of the stream of the node's key; the finalizer is a bijection, so one
    stream's outputs never tie. At most _CHUNK_ELEMENTS scores are held at once."""
    out = np.empty((len(keys), nf), dtype=np.int64)
    block = max(1, _CHUNK_ELEMENTS // d)
    for lo in range(0, len(keys), block):
        scores = _splitmix(keys[lo:lo + block, None], np.arange(2, d + 2, dtype=np.uint64))
        out[lo:lo + block] = np.sort(np.argpartition(scores, nf - 1, axis=1)[:, :nf], axis=1)
    return out


def _dense_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column as dense integer ranks (equal values share a rank), each column's number of
    distinct values, and those values in rank order, column after column."""
    order = np.argsort(x, axis=0, kind="stable")
    svals = np.take_along_axis(x, order, axis=0)
    new = np.ones(x.shape, dtype=bool)
    new[1:] = svals[1:] > svals[:-1]
    dense = np.cumsum(new, axis=0) - 1
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return ranks, new.sum(axis=0), svals.T[new.T]


def _ranges(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment, offset within it) of each element of consecutive segments."""
    seg = np.repeat(np.arange(len(lengths)), lengths)
    return seg, np.arange(len(seg)) - (np.cumsum(lengths) - lengths)[seg]


def _score_nodes(
    labels: np.ndarray, ranks: np.ndarray, n_values: np.ndarray, values: np.ndarray,
    rows: np.ndarray, start: np.ndarray, m: np.ndarray, pos: np.ndarray, feats: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact best Gini split of each node over its candidate features.

    Node i holds rows[start[i]:start[i] + m[i]], pos[i] of them positive, and
    may split on the sorted features feats[i]. Returns (feature, threshold)
    per node, feature -1 where no split is valid. Column f has n_values[f]
    distinct values (`_dense_ranks`), so each (node, feature) group owns that
    many bins, one per value in rank order; one bincount of the rows' bins
    counts the rows and one more, weighted by the 0/1 labels, the positives,
    both exact integers. Cumulative sums over a group's nonempty bins are
    the counts left of each value change, and a group's last nonempty bin is
    no split. The Gini arithmetic is the same float operations on the same
    integer counts as a per-node search. Ties go to the lowest feature, then
    the lowest threshold: thresholds rise with the bins, so that is the first
    minimum in (feature, bin) order.
    """
    k, nf = feats.shape
    feat = feats.ravel()  # group g is node g // nf, feature slot g % nf
    width = n_values[feat]
    base = np.cumsum(width) - width
    grp, within = _ranges(np.repeat(m, nf))
    row = rows[start[grp // nf] + within]
    bins = base[grp] + ranks[row, feat[grp]]
    per_bin = np.bincount(bins, minlength=base[-1] + width[-1])
    at_bin = np.flatnonzero(per_bin)
    count = per_bin[at_bin]
    positives = np.bincount(bins, weights=labels[row], minlength=len(per_bin))[at_bin]
    group = np.searchsorted(base, at_bin, side="right") - 1
    group_start = np.concatenate(([True], group[1:] != group[:-1]))  # every group has a nonempty bin
    left_cnt = np.cumsum(count)
    left_cnt -= (left_cnt - count)[group_start][group]
    left_pos = np.cumsum(positives)
    left_pos -= (left_pos - positives)[group_start][group]

    valid = ~group_start[1:]  # a next nonempty bin in the same group
    if min_leaf > 1:
        right_cnt = m[group[:-1] // nf] - left_cnt[:-1]
        valid &= (left_cnt[:-1] >= min_leaf) & (right_cnt >= min_leaf)
    best_feat = np.full(k, -1, dtype=np.int64)
    best_thr = np.zeros(k)
    at = np.flatnonzero(valid)
    if not at.size:
        return best_feat, best_thr

    nd = group[at] // nf
    n_rows = m[nd].astype(float)
    lc = left_cnt[at].astype(float)
    rc = n_rows - lc
    pl = left_pos[at] / lc
    pr = (pos[nd].astype(float) - left_pos[at]) / rc
    gini_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
    gini_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
    weighted = (lc * gini_left + rc * gini_right) / n_rows

    first = np.flatnonzero(np.concatenate(([True], nd[1:] != nd[:-1])))
    best = np.minimum.reduceat(weighted, first)
    hits = np.flatnonzero(weighted == np.repeat(best, np.diff(np.concatenate((first, [len(at)])))))
    hit_node = nd[hits]
    e = at[hits[np.concatenate(([True], hit_node[1:] != hit_node[:-1]))]]
    best_group = group[e]
    value_at = (np.cumsum(n_values) - n_values)[feat[best_group]] - base[best_group]
    lo, hi = values[value_at + at_bin[e]], values[value_at + at_bin[e + 1]]
    thr = (lo + hi) / 2.0
    thr = np.where(thr >= hi, lo, thr)  # midpoint rounded up between adjacent floats
    best_feat[nd[first]] = feat[best_group]
    best_thr[nd[first]] = thr
    return best_feat, best_thr


def _grow_forest(
    x: np.ndarray, labels: np.ndarray, params: ForestParams,
    bootstraps: list[np.ndarray], root_keys: np.ndarray,
) -> list[_Tree]:
    """Grow every tree one level at a time; each tree's nodes come out level by level.

    The open nodes of all trees keep their rows as consecutive segments of
    one flat array. Tree t's root has the 64-bit key root_keys[t]; outputs 0
    and 1 of a node's splitmix64 stream are its left and right children's
    keys, and the rest score its features (`_draw_features`). A key depends
    only on the node's path, so no split depends on max_depth: the tree grown
    to depth d is this tree cut off at d (`forest_predict(depths=)`). A level
    is scored in chunks of whole nodes, at most _CHUNK_ELEMENTS (node,
    feature, row) elements and (node, feature, value) bins each unless one
    node alone has more, so scratch memory stays bounded however many nodes
    are open; each split node's rows are then partitioned stably into its two
    children. The levels of all trees are then one table, which a stable sort
    by tree splits into the trees, each numbered from its root.
    """
    n, d = x.shape
    nf = math.ceil(math.sqrt(d))
    ranks, n_values, values = _dense_ranks(x)
    rows = np.concatenate(bootstraps)
    tree = np.arange(len(bootstraps))
    key = root_keys
    m = np.full(len(bootstraps), n)
    levels = []  # (tree, feature, threshold, prob) of each level's nodes
    for depth in range(params.max_depth + 1):
        start = np.cumsum(m) - m
        pos = np.add.reduceat(labels[rows], start)
        feature = np.full(len(m), -1, dtype=np.int64)
        threshold = np.zeros(len(m))
        levels.append((tree, feature, threshold, pos / m))
        if depth == params.max_depth:
            break
        cand = np.flatnonzero((m >= params.min_samples_split) & (pos > 0) & (pos < m))
        feats = _draw_features(key[cand], d, nf)
        cost = np.cumsum(m[cand] * nf + n_values[feats].sum(axis=1))
        lo = 0
        while lo < len(cand):
            spent = cost[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cost, spent + _CHUNK_ELEMENTS, side="right")))
            c = cand[lo:hi]
            feature[c], threshold[c] = _score_nodes(labels, ranks, n_values, values, rows, start[c], m[c],
                                                    pos[c], feats[lo:hi], params.min_samples_leaf)
            lo = hi
        split = np.flatnonzero(feature >= 0)
        if not split.size:
            break
        seg, within = _ranges(m[split])
        node_rows = rows[start[split][seg] + within]
        goes_left = x[node_rows, feature[split][seg]] <= threshold[split][seg]
        left, right = np.flatnonzero(goes_left), np.flatnonzero(~goes_left)
        n_left = np.bincount(seg[left], minlength=split.size)
        n_right = m[split] - n_left
        m = np.column_stack([n_left, n_right]).ravel()
        # counting partition, each side in its node's order: the k-th left row of the level lands after
        # the right rows of the nodes before its own, the k-th right row after the left rows up to its own
        rows = np.empty_like(node_rows)
        rows[np.arange(left.size) + (np.cumsum(n_right) - n_right)[seg[left]]] = node_rows[left]
        rows[np.arange(right.size) + np.cumsum(n_left)[seg[right]]] = node_rows[right]
        tree = np.repeat(tree[split], 2)
        key = _splitmix(key[split, None], np.arange(2, dtype=np.uint64)).ravel()
    tree, feature, threshold, prob = (np.concatenate(col) for col in zip(*levels))
    # level k + 1 holds the (left, right) children of level k's split nodes in order, so the i-th
    # split node of the whole table has its children at n_trees + 2i and n_trees + 2i + 1
    split = feature >= 0
    left = np.full(len(tree), -1, dtype=np.int64)
    left[split] = len(bootstraps) + 2 * np.arange(np.count_nonzero(split))
    order = np.argsort(tree, kind="stable")  # each tree's nodes, still level by level
    counts = np.bincount(tree)
    at = np.empty_like(order)
    at[order] = _ranges(counts)[1]  # a node's place in its own tree
    left[split] = at[left[split]]
    ends = np.cumsum(counts)[:-1]
    cols = (np.split(col[order], ends) for col in (feature, threshold, left, prob))
    return [_Tree(*tree_cols) for tree_cols in zip(*cols)]


def train_forest(
    x: np.ndarray, y: np.ndarray, params: ForestParams, seed: int
) -> ForestModel:
    """Random forest of Gini trees on bootstrap resamples, deterministic in seed.

    Each tree runs off its own spawned seed: bootstrap rows from its stream,
    and its root's node key from its state, which keys every node's feature
    draw. All trees are grown together, one level at a time (`_grow_forest`).
    """
    x, y = _check_design(x, y)
    if (y == y[0]).all():
        raise ValueError("random forest needs both classes present")
    if ((y != 0) & (y != 1)).any():
        raise ValueError(f"random forest labels must be 0 or 1, got {sorted(set(y.tolist()))}")
    n, d = x.shape
    seeds = np.random.SeedSequence(seed).spawn(params.n_trees)
    bootstraps = [np.random.default_rng(tree_seed).integers(0, n, size=n) for tree_seed in seeds]
    root_keys = np.array([tree_seed.generate_state(1, np.uint64)[0] for tree_seed in seeds])
    return ForestModel(_grow_forest(x, y.astype(np.int64), params, bootstraps, root_keys),
                       params, seed, d)


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
        node[live] = tree.left[at] + ~goes_left
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
    mat, single = _queries(x, model.n_features)
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


def model_to_dict(model: Model) -> dict:
    if isinstance(model, LinearModel):
        return {
            "kind": "logistic" if model.task == "classification" else "ridge",
            "weights": [float(v) for v in model.weights],
            "intercept": float(model.intercept),
            "regularization": float(model.regularization),
        }
    if isinstance(model, KnnModel):
        return {"kind": "knn", "k": int(model.k)}  # the rows stay in their own files: load_model refits
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
                "prob": [float(v) for v in t.prob],
            }
            for t in model.trees
        ],
    }


def _tree_from_dict(t: dict, n_features: int) -> _Tree:
    """A tree's node table: exactly the lists feature, left, prob and threshold, of one length, a
    feature in [-1, n_features) at every node and each internal node's children left and left + 1
    after it (level order) and inside the tree, or ValueError. A file with a `right` list numbers its
    nodes otherwise, so it is refused too."""
    if sorted(t) != ["feature", "left", "prob", "threshold"]:
        raise ValueError(f"a tree with the lists {sorted(t)}, not feature, left, prob and threshold")
    tree = _Tree(
        np.array(t["feature"], dtype=np.int64),
        np.array(t["threshold"], dtype=float),
        np.array(t["left"], dtype=np.int64),
        np.array(t["prob"], dtype=float),
    )
    n = len(tree.feature)
    if (not n or any(len(a) != n for a in (tree.threshold, tree.left, tree.prob))
            or tree.feature.min() < -1 or tree.feature.max() >= n_features
            or not ((tree.left > np.arange(n)) & (tree.left + 1 < n))[tree.feature >= 0].all()):
        raise ValueError(f"a node table that does not fit one tree of {n_features} features")
    return tree


def model_from_dict(payload: dict, x_train: np.ndarray, y_train: np.ndarray) -> Model:
    """A model from its file payload. A kNN payload holds only `k` (the rows an older file carries are
    ignored), and the model is `fit_knn` on `x_train`, `y_train`, which other kinds ignore."""
    kind = payload["kind"]
    if kind in ("logistic", "ridge"):
        return LinearModel(
            weights=np.array(payload["weights"], dtype=float),
            intercept=float(payload["intercept"]),
            regularization=float(payload["regularization"]),
            task="classification" if kind == "logistic" else "regression",
        )
    if kind == "knn":
        return fit_knn(x_train, y_train, int(payload["k"]))
    if kind == "forest":
        n_features = int(payload["n_features"])
        params = ForestParams(**payload["params"])
        if len(payload["trees"]) != params.n_trees:
            raise ValueError(f"{len(payload['trees'])} trees in a forest of n_trees={params.n_trees}")
        return ForestModel(
            trees=[_tree_from_dict(t, n_features) for t in payload["trees"]],
            params=params,
            seed=int(payload["seed"]),
            n_features=n_features,
        )
    raise ValueError(f"unknown model kind {kind!r}")


def save_model(model: Model, path: str | Path) -> None:
    write_json(path, model_to_dict(model), indent=None)


def load_model(path: str | Path, x_train: np.ndarray, y_train: np.ndarray) -> Model:
    """`model_from_dict` of a model file; a damaged or outdated one raises LookupError, TypeError or ValueError."""
    return model_from_dict(read_json(path), x_train, y_train)
