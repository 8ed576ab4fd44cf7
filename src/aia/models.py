"""Classifier suite, feature selection, and hyperparameter search.

Five algorithms (logistic regression, decision tree, random forest, a
one-hidden-layer MLP, and a stratified dummy baseline), all trained through
one preprocessing recipe: one-hot encoding of categoricals, min-max scaling
of numerics, and an optional univariate feature-selection step, always
fitted on training rows only. Training is two steps: `prepare` (recipe,
encoding, ENN cleaning; no seed, no algorithm, so one prepared fold serves
every candidate) and `fit_prepared` (SMOTE, then the estimator, both
seeded). Logistic regression is fitted by damped Newton on the full
Hessian (at most ~50 x 50 here) and converges in a handful of steps; a
fit that still hits its step cap carries the `not_converged` flag.
Everything is deterministic given (data, hyperparams, seed).

Trees are flat node arrays (scikit-learn's `Tree` layout: feature,
threshold, left, right, value). One grower builds them: a decision tree
is a forest of one tree over all features. A forest's trees grow
together, level by level: one batched split search takes every open node
of every tree at a depth, because a node samples only ~sqrt(d) features
and per-call overhead dominates a lone node's search. Each tree draws its
bootstrap and then, per level, its nodes' feature samples from its own
generator, so a forest does not depend on how its growth is scheduled.
One traversal predicts a whole forest: all (tree, row) pairs walk the
forest's node arrays together.

Every training and scoring function takes the caller's class list: the
attribute's schema order (ordinal for the Big Five, low/medium/high). It
codes the labels and orders the folds, SMOTE draws, ENN vote ties and the
Spearman feature scores, so no function infers an order of its own.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import resampling, stats
from .errors import DegenerateInput, LengthMismatch, SchemaMismatch
from .matrix import FeatureMatrix
from .metrics import macro_f1

ALGORITHMS = ("logistic_regression", "decision_tree", "random_forest",
              "mlp", "dummy_stratified")

DEFAULT_HYPERPARAMS: dict[str, dict] = {
    "logistic_regression": {"l2": 1.0},
    "decision_tree": {"max_depth": None, "min_leaf": 1},
    "random_forest": {"n_trees": 100, "max_depth": None, "min_leaf": 1},
    "mlp": {"hidden": 32, "lr": 1e-2, "epochs": 200},
    "dummy_stratified": {},
}

# Neighbourhood sizes of ENN (Wilson 1972) and SMOTE (Chawla et al. 2002).
ENN_K = 3
SMOTE_K = 5


# ---------------------------------------------------------------------------
# Preprocessing recipe
# ---------------------------------------------------------------------------


@dataclass
class Recipe:
    selected: list[str]
    numeric_ranges: dict[str, tuple[float, float]]
    categories: dict[str, list[str]]
    dropped_constant: list[str]


def fit_recipe(matrix: FeatureMatrix, row_idx: Sequence[int],
               selected: Sequence[str] | None = None) -> Recipe:
    """Fit encoding/scaling state on the given training rows only."""
    names = list(selected) if selected is not None else [c.name for c in matrix.columns]
    numeric_ranges: dict[str, tuple[float, float]] = {}
    categories: dict[str, list[str]] = {}
    kept: list[str] = []
    dropped: list[str] = []
    for name in names:
        idx = matrix.column_index(name)
        col = matrix.columns[idx]
        values = [matrix.rows[i][idx] for i in row_idx]
        if col.kind == "categorical":
            cats = sorted(set(values), key=str)
            if len(cats) < 2:
                dropped.append(name)
                continue
            categories[name] = cats
        else:
            lo = min(float(v) for v in values)
            hi = max(float(v) for v in values)
            if hi <= lo:
                dropped.append(name)
                continue
            numeric_ranges[name] = (lo, hi)
        kept.append(name)
    if dropped:
        warnings.warn(f"dropped constant features: {dropped}", RuntimeWarning,
                      stacklevel=2)
    return Recipe(selected=kept, numeric_ranges=numeric_ranges,
                  categories=categories, dropped_constant=dropped)


def transform(matrix: FeatureMatrix, row_idx: Sequence[int], recipe: Recipe) -> np.ndarray:
    """Encode rows through a fitted recipe; unseen categories encode to zeros."""
    n = len(row_idx)
    blocks: list[np.ndarray] = []
    for name in recipe.selected:
        idx = matrix.column_index(name)
        values = [matrix.rows[i][idx] for i in row_idx]
        if name in recipe.categories:
            cats = recipe.categories[name]
            block = np.zeros((n, len(cats)))
            pos = {c: j for j, c in enumerate(cats)}
            for r, v in enumerate(values):
                j = pos.get(v)
                if j is not None:
                    block[r, j] = 1.0
        else:
            lo, hi = recipe.numeric_ranges[name]
            block = (np.array([float(v) for v in values]) - lo) / (hi - lo)
            block = block.reshape(n, 1)
        blocks.append(block)
    if not blocks:
        return np.zeros((n, 0))
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# Algorithm internals (numpy arrays in, class-probability matrices out)
# ---------------------------------------------------------------------------


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _fit_logistic(X: np.ndarray, y_codes: np.ndarray, K: int, l2: float,
                  tol: float = 1e-6, max_iter: int = 50):
    """Multinomial logistic regression by damped Newton.

    Minimizes mean cross-entropy + 0.5 * l2 * |W[:-1]|^2 / n over the
    (d + 1) x K weights, bias row unpenalized, from W = 0. Each step solves
    the full Hessian system; adding one constant to every class's bias
    leaves the loss unchanged, so the Hessian is singular along that
    direction and the step is the minimum-norm (least-squares) solution,
    which keeps the bias row summing to zero. Armijo backtracking (1e-4,
    halving, at most 60 tries) damps each step. Returns (W, converged),
    converged meaning |grad|_inf < tol within `max_iter` steps.
    """
    n, d = X.shape
    m = (d + 1) * K
    Xb = np.hstack([X, np.ones((n, 1))])
    W = np.zeros((d + 1, K))
    Y = np.zeros((n, K))
    Y[np.arange(n), y_codes] = 1.0
    ridge = np.repeat(np.r_[np.full(d, l2 / n), 0.0], K)

    def loss_grad(W):
        P = _softmax(Xb @ W)
        ll = -np.log(np.clip(P[np.arange(n), y_codes], 1e-300, None)).mean()
        reg = 0.5 * l2 * float((W[:-1] ** 2).sum()) / n
        G = Xb.T @ (P - Y) / n
        G[:-1] += l2 * W[:-1] / n
        return ll + reg, G, P

    def hessian(P):
        # Entry ((j, a), (k, b)) in the row-major order of W.
        H = np.empty((d + 1, K, d + 1, K))
        for a in range(K):
            for b in range(a, K):
                block = Xb.T @ (Xb * (P[:, a] * ((a == b) - P[:, b]) / n)[:, None])
                H[:, a, :, b] = block
                H[:, b, :, a] = block.T
        H = H.reshape(m, m)
        H[np.diag_indices(m)] += ridge
        return H

    value, grad, P = loss_grad(W)
    for _ in range(max_iter):
        if float(np.abs(grad).max()) < tol:
            return W, True
        step = np.linalg.lstsq(hessian(P), -grad.ravel(), rcond=None)[0]
        step = step.reshape(W.shape)
        slope = float((grad * step).sum())
        t = 1.0
        for _ in range(60):
            W_new = W + t * step
            value_new, grad_new, P_new = loss_grad(W_new)
            if value_new <= value + 1e-4 * t * slope:
                break
            t *= 0.5
        W, value, grad, P = W_new, value_new, grad_new, P_new
    return W, float(np.abs(grad).max()) < tol


def _predict_logistic(params: dict, X: np.ndarray) -> np.ndarray:
    W = np.asarray(params["weights"])
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    return _softmax(Xb @ W)


def _gini(counts: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gini impurity of m nodes from their (K x m) class counts, summed
    class by class in order: the bits of `.sum(axis=1)` over (m x K)
    shares for K < 8 (numpy adds fewer than 8 terms in sequence)."""
    square = (counts[0] / total) ** 2
    for row in counts[1:]:
        square = square + (row / total) ** 2
    return 1.0 - square


def _gini_children(left: np.ndarray, right: np.ndarray,
                   nl: np.ndarray, nr: np.ndarray) -> np.ndarray:
    """Size-weighted Gini of m candidate splits from their (K x m) left and
    right class counts and sizes."""
    return (nl * _gini(left, nl) + nr * _gini(right, nr)) / (nl + nr)


def _best_splits(X: np.ndarray, rank: np.ndarray, y_codes: np.ndarray, K: int,
                 min_leaf: int, rows: np.ndarray, weight: np.ndarray,
                 sizes: np.ndarray, features: np.ndarray) -> tuple[np.ndarray, ...]:
    """Best Gini split of each of B nodes: node b holds the next `sizes[b]`
    entries of `rows`, entry i standing for `weight[i]` copies of its row,
    and may split on the features `features[b]` (a B x F array); `rank`
    holds each value's rank within its column of X.

    All B x F (node, feature) pairs are scored at once. Their entries sit
    in one array, one contiguous segment per pair, sorted by one argsort on
    (feature slot, node, value rank); tied values may land in any order,
    but no cut falls between them, so no count or threshold depends on it.
    Class weights left of every cut come from one cumulative sum less each
    segment's start; weights are whole numbers, so every count is exact
    and equals that of the rows repeated. A cut must leave `min_leaf` rows
    on each side and fall between two distinct values; within a pair the
    first minimum wins. Across a node's features, in order, a pair
    replaces the best so far only when it beats the parent's Gini by 1e-12
    and the best by 1e-15, so a near-tie goes to the earlier feature.
    Returns the nodes that split, in order (`chosen`, those where some cut
    lowers the impurity), and for each its feature, threshold and the
    class counts of its left child.
    """
    B, F = features.shape
    N = len(rows)
    node = np.repeat(np.arange(B), sizes)
    y = y_codes[rows]
    counts = np.bincount(y * B + node, weight, minlength=K * B).reshape(K, B)
    total = counts.sum(axis=0)
    parent_gini = _gini(counts, total)

    seg = (np.arange(F)[:, None] * B + node).ravel()
    key = seg * len(X) + rank[rows, features[node].T].ravel()
    order = np.argsort(key)
    key = key[order]
    entry = order % N
    starts = (np.arange(F)[:, None] * N + (np.cumsum(sizes) - sizes)).ravel()
    reach = np.zeros(F * N + 1)
    np.cumsum(weight.take(entry), out=reach[1:])
    prefix = np.zeros((K, F * N + 1))
    for k, class_weight in enumerate(np.where(y == np.arange(K)[:, None], weight, 0.0)):
        np.cumsum(class_weight.take(entry), out=prefix[k, 1:])

    def left_of(q):  # class weights up to and including sorted position q
        return prefix[:, q + 1] - prefix[:, starts[seg[q]]]

    movable = np.flatnonzero(key[:-1] < key[1:])
    nl = reach[movable + 1] - reach[starts[seg[movable]]]
    owner = seg[movable] % B
    n = total[owner]
    fits = (nl >= min_leaf) & (n - nl >= min_leaf)
    cut, nl, n, owner = movable[fits], nl[fits], n[fits], owner[fits]
    left = left_of(cut)
    weighted = np.full(F * N, np.inf)
    weighted[cut] = _gini_children(left, counts[:, owner] - left, nl, n - nl)
    seg_min = np.minimum.reduceat(weighted, starts)
    first = np.minimum.reduceat(
        np.where(weighted == seg_min[seg], np.arange(F * N), F * N), starts)
    seg_min = seg_min.reshape(F, B)
    first = first.reshape(F, B)

    best = np.full(B, np.inf)
    slot = np.full(B, -1)
    for j in range(F):
        take = (seg_min[j] < parent_gini - 1e-12) & (seg_min[j] < best - 1e-15)
        best[take] = seg_min[j][take]
        slot[take] = j
    chosen = np.flatnonzero(slot >= 0)
    p = first[slot[chosen], chosen]
    f = features[chosen, slot[chosen]]
    lo = X[rows[entry[p]], f]
    hi = X[rows[entry[p + 1]], f]
    # Adjacent doubles: the midpoint rounds up to the right value and would
    # leave that child empty under "<=", so the left value is used.
    mid = (lo + hi) / 2.0
    return chosen, f, np.where(mid >= hi, lo, mid), left_of(p).T


def _grow_trees(X: np.ndarray, y_codes: np.ndarray, K: int,
                max_depth: Optional[int], min_leaf: int,
                roots: Sequence[np.ndarray],
                rngs: Optional[Sequence[np.random.Generator]] = None) -> dict:
    """Grow one CART tree per root row set, all together, level by level.

    A root may repeat rows (a bootstrap); each tree keeps its distinct rows
    with their multiplicities as weights, which give the same counts, sizes
    and splits as the rows repeated in fewer entries. Each step takes every
    open node of every tree at the current depth and finds all their
    splits in one `_best_splits` call, so a forest takes as many steps as
    its deepest tree is deep. The level's entries are one array, node after
    node; a split node's rows go left when `X[row, feature] <= threshold`,
    and one stable sort by child lays out the next level. Without `rngs`
    every node may split on every feature (a decision tree). With them,
    tree t draws the candidates of its c open nodes at a level in one call,
    `rngs[t].random((c, d))`, and each node takes the features of its
    m = max(1, int(sqrt(d))) smallest keys, sorted. A tree's nodes keep its
    own level order (parents in order, left child first) and its draws
    come from its own generator only, so a tree does not depend on which
    trees grow beside it.

    Returns the trees as one forest of flat node arrays in the layout of
    scikit-learn's `Tree`: `feature` and `threshold` (-2 at a leaf), `left`
    and `right` (-1 at a leaf) and `value`, the class shares of the node's
    rows. Tree t's nodes are contiguous from `root[t]`, in level order, and
    child indices point into the forest's arrays.
    """
    d = X.shape[1]
    m = max(1, int(np.sqrt(d)))
    rank = np.empty(X.shape, dtype=int)
    for f in range(d):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    distinct = [np.unique(root, return_counts=True) for root in roots]
    tree = np.arange(len(roots))
    sizes = np.array([len(rows) for rows, _ in distinct])
    rows = np.concatenate([rows for rows, _ in distinct])
    weight = np.concatenate([copies for _, copies in distinct]).astype(float)
    counts = np.bincount(np.repeat(tree, sizes) * K + y_codes[rows], weight,
                         minlength=len(roots) * K).reshape(-1, K)
    levels = []
    n_nodes, depth = 0, 0
    while True:
        B = len(tree)
        feature, threshold = np.full(B, -2), np.full(B, -2.0)
        left, right = np.full(B, -1), np.full(B, -1)
        levels.append((tree, feature, threshold, left, right, counts))
        n_nodes += B
        is_open = (np.count_nonzero(counts, axis=1) > 1) & \
            (counts.sum(axis=1) >= 2 * min_leaf)
        if max_depth is not None and depth >= max_depth:
            is_open[:] = False
        nodes = np.flatnonzero(is_open)
        if not len(nodes):
            break
        kept = np.repeat(is_open, sizes)
        rows, weight, sizes = rows[kept], weight[kept], sizes[nodes]
        if rngs is None:
            candidates = np.broadcast_to(np.arange(d), (len(nodes), d))
        else:
            per_tree = np.bincount(tree[nodes], minlength=len(rngs))
            keys = np.concatenate([rngs[t].random((c, d))
                                   for t, c in enumerate(per_tree) if c])
            candidates = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :m], axis=1)
        chosen, f, cut_at, left_counts = _best_splits(
            X, rank, y_codes, K, min_leaf, rows, weight, sizes, candidates)
        split = nodes[chosen]
        feature[split], threshold[split] = f, cut_at
        left[split] = n_nodes + 2 * np.arange(len(split))
        right[split] = left[split] + 1
        slot = np.full(len(nodes), -1)
        slot[chosen] = np.arange(len(chosen))
        slot = np.repeat(slot, sizes)
        kept = slot >= 0
        rows, weight, slot = rows[kept], weight[kept], slot[kept]
        child = 2 * slot + ~(X[rows, f[slot]] <= cut_at[slot])
        order = np.argsort(child, kind="stable")
        rows, weight = rows[order], weight[order]
        sizes = np.bincount(child, minlength=2 * len(split))
        parent_counts, counts = counts[split], np.empty((2 * len(split), K))
        counts[0::2], counts[1::2] = left_counts, parent_counts - left_counts
        tree = np.repeat(tree[split], 2)
        depth += 1
    tree, feature, threshold, left, right, counts = (np.concatenate(column)
                                                     for column in zip(*levels))
    order = np.argsort(tree, kind="stable")  # each tree's nodes together
    new_id = np.empty_like(order)
    new_id[order] = np.arange(len(order))
    left, right = left[order], right[order]
    leaf = left < 0
    left, right = np.where(leaf, -1, new_id[left]), np.where(leaf, -1, new_id[right])
    value = counts[order]
    return {"feature": feature[order], "threshold": threshold[order], "left": left,
            "right": right, "value": value / value.sum(axis=1, keepdims=True),
            "root": np.searchsorted(tree[order], np.arange(len(roots)))}


def _fit_forest(X: np.ndarray, y_codes: np.ndarray, K: int, n_trees: int,
                max_depth: Optional[int], min_leaf: int, seed: int) -> dict:
    """Breiman's forest: tree t bootstraps its rows and then draws its
    candidate features from its own generator, seeded by (seed, t)."""
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, t]))
            for t in range(n_trees)]
    roots = [rng.integers(0, len(y_codes), len(y_codes)) for rng in rngs]
    return _grow_trees(X, y_codes, K, max_depth, min_leaf, roots, rngs)


def _predict_forest(forest: dict, X: np.ndarray) -> np.ndarray:
    """Mean over a forest's trees of the class shares of the leaf each row
    of X reaches. All (tree, row) pairs walk the forest's node arrays
    together, one level per step."""
    feature, threshold, left, right, value, root = (
        forest[key] for key in ("feature", "threshold", "left", "right", "value", "root"))
    n = len(X)
    node = np.repeat(root, n)
    pairs = np.arange(len(node))
    while True:
        pairs = pairs[left[node[pairs]] >= 0]
        if not len(pairs):
            return np.mean(value[node].reshape(len(root), n, -1), axis=0)
        at = node[pairs]
        node[pairs] = np.where(X[pairs % n, feature[at]] <= threshold[at],
                               left[at], right[at])


def _fit_mlp(X: np.ndarray, y_codes: np.ndarray, K: int, hidden: int, lr: float,
             epochs: int, seed: int) -> dict:
    n, d = X.shape
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    W1 = rng.normal(0.0, np.sqrt(2.0 / max(d, 1)), size=(d, hidden))
    b1 = np.zeros(hidden)
    W2 = rng.normal(0.0, np.sqrt(2.0 / hidden), size=(hidden, K))
    b2 = np.zeros(K)
    Y = np.zeros((n, K))
    Y[np.arange(n), y_codes] = 1.0

    m = [np.zeros_like(p) for p in (W1, b1, W2, b2)]
    v = [np.zeros_like(p) for p in (W1, b1, W2, b2)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for step in range(1, epochs + 1):
        H = np.maximum(X @ W1 + b1, 0.0)
        P = _softmax(H @ W2 + b2)
        dZ2 = (P - Y) / n
        gW2 = H.T @ dZ2
        gb2 = dZ2.sum(axis=0)
        dH = dZ2 @ W2.T
        dH[H <= 0.0] = 0.0
        gW1 = X.T @ dH
        gb1 = dH.sum(axis=0)
        grads = (gW1, gb1, gW2, gb2)
        params = [W1, b1, W2, b2]
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1 ** step)
            v_hat = v[i] / (1 - beta2 ** step)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return {"w1": W1, "b1": b1, "w2": W2, "b2": b2}


def _predict_mlp(params: dict, X: np.ndarray) -> np.ndarray:
    H = np.maximum(X @ np.asarray(params["w1"]) + np.asarray(params["b1"]), 0.0)
    return _softmax(H @ np.asarray(params["w2"]) + np.asarray(params["b2"]))


# ---------------------------------------------------------------------------
# Public model API
# ---------------------------------------------------------------------------


@dataclass
class TrainedModel:
    algorithm: str
    class_list: list[str]
    recipe: Recipe
    params: dict
    seed: int
    schema_hash: str
    flags: list[str] = field(default_factory=list)


@dataclass
class PreparedFold:
    """Training rows encoded through a recipe fitted on them; `edited` holds
    the rows ENN kept when the fold resamples, else None."""

    recipe: Recipe
    class_list: list[str]
    schema_hash: str
    X: np.ndarray
    y: np.ndarray
    edited: Optional[tuple[np.ndarray, np.ndarray]] = None


def prepare(matrix: FeatureMatrix, row_idx: Sequence[int], y: Sequence[str],
            classes: Sequence[str],
            selected: Sequence[str] | None = None,
            resample: bool = False) -> PreparedFold:
    """The data step of training: recipe, encoding and, with `resample`, ENN.
    `classes` is the attribute's class list, in the order that codes the
    labels and breaks ENN's vote ties."""
    class_list = list(classes)
    recipe = fit_recipe(matrix, row_idx, selected)
    X = transform(matrix, row_idx, recipe)
    y_arr = np.array(y, dtype=object)
    edited = resampling.enn_undersample(X, y_arr, k=ENN_K, classes=class_list) \
        if resample else None
    if edited is not None and len(set(edited[1])) < 2:
        warnings.warn("ENN would leave fewer than two classes; skipping the "
                      "cleaning step", RuntimeWarning, stacklevel=2)
        edited = (X, y_arr)
    return PreparedFold(recipe=recipe, class_list=class_list,
                        schema_hash=matrix.column_hash(), X=X, y=y_arr,
                        edited=edited)


def fit_prepared(algorithm: str, fold: PreparedFold,
                 hyperparams: dict | None = None, seed: int = 0) -> TrainedModel:
    """The estimator step of training: SMOTE on the ENN-kept rows of a
    resampling fold, then the estimator, both seeded with `seed`. The dummy
    baseline always trains on the fold's rows as they came."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    hp = dict(DEFAULT_HYPERPARAMS[algorithm])
    hp.update(hyperparams or {})
    class_list = fold.class_list
    X, y = fold.X, fold.y
    if fold.edited is not None and algorithm != "dummy_stratified":
        X, y = resampling.smote_oversample(*fold.edited, k=SMOTE_K, seed=seed,
                                           classes=class_list)
    y_codes = np.array([class_list.index(v) for v in y])
    K = len(class_list)
    flags: list[str] = []
    if algorithm == "dummy_stratified":
        priors = np.bincount(y_codes, minlength=K) / len(y_codes)
        params = {"priors": priors.tolist()}
    elif algorithm == "logistic_regression":
        W, converged = _fit_logistic(X, y_codes, K, float(hp["l2"]))
        params = {"weights": W}
        if not converged:
            flags.append("not_converged")
            warnings.warn("logistic regression hit the iteration cap",
                          RuntimeWarning, stacklevel=2)
    elif algorithm == "decision_tree":
        params = _grow_trees(X, y_codes, K, hp["max_depth"], int(hp["min_leaf"]),
                             [np.arange(len(y_codes))])
    elif algorithm == "random_forest":
        params = _fit_forest(X, y_codes, K, int(hp["n_trees"]), hp["max_depth"],
                             int(hp["min_leaf"]), seed)
    else:  # mlp
        params = _fit_mlp(X, y_codes, K, int(hp["hidden"]), float(hp["lr"]),
                          int(hp["epochs"]), seed)
    return TrainedModel(algorithm=algorithm, class_list=class_list,
                        recipe=fold.recipe, params=params, seed=seed,
                        schema_hash=fold.schema_hash, flags=flags)


def predict_proba(model: TrainedModel, matrix: FeatureMatrix,
                  row_idx: Sequence[int] | None = None) -> np.ndarray:
    """Class-probability matrix (rows on the simplex) for the given rows."""
    if matrix.column_hash() != model.schema_hash:
        raise SchemaMismatch("matrix columns differ from the training schema")
    if row_idx is None:
        row_idx = range(matrix.n_rows)
    X = transform(matrix, list(row_idx), model.recipe)
    if model.algorithm == "dummy_stratified":
        priors = np.asarray(model.params["priors"])
        return np.tile(priors, (X.shape[0], 1))
    if model.algorithm == "logistic_regression":
        return _predict_logistic(model.params, X)
    if model.algorithm == "decision_tree":
        return _predict_forest(model.params, X)
    if model.algorithm == "random_forest":
        acc = _predict_forest(model.params, X)
        return acc / acc.sum(axis=1, keepdims=True)
    return _predict_mlp(model.params, X)


def predict(model: TrainedModel, matrix: FeatureMatrix,
            row_idx: Sequence[int] | None = None) -> list[str]:
    """Hard labels; dummy draws stratified labels from its training priors."""
    if row_idx is None:
        row_idx = list(range(matrix.n_rows))
    if model.algorithm == "dummy_stratified":
        rng = np.random.default_rng(np.random.SeedSequence([model.seed, 104729]))
        priors = np.asarray(model.params["priors"])
        draws = rng.choice(len(model.class_list), size=len(list(row_idx)), p=priors)
        return [model.class_list[i] for i in draws]
    probs = predict_proba(model, matrix, row_idx)
    return [model.class_list[i] for i in probs.argmax(axis=1)]


# ---------------------------------------------------------------------------
# Feature selection and grid search
# ---------------------------------------------------------------------------


def select_features(matrix: FeatureMatrix, row_idx: Sequence[int],
                    y: Sequence[str], max_features: int,
                    classes: Sequence[str]) -> list[str]:
    """Univariate association filter, computed on the given rows only.

    Numeric and boolean columns score |Spearman rho| against class codes
    (positions in `classes`, the attribute's ordered class list)
    through the one rank kernel: their training rows form one block
    (`FeatureMatrix.float_columns`), ranked once, and the codes are ranked
    once (`stats.centered_ranks`, `stats.rank_correlations`). Categorical
    columns score Cramer's V. Degenerate (constant) columns are never
    selected; ties keep column order.
    """
    if max_features < 1:
        raise ValueError("max_features must be >= 1")
    rows = list(row_idx)
    if len(rows) != len(y):
        raise LengthMismatch(f"paired vectors differ in length: {len(rows)} vs {len(y)}")
    codes = [classes.index(v) for v in y]
    scored: list[tuple[float, int]] = []
    positions, block = matrix.float_columns
    if positions:
        ranked = stats.centered_ranks(block[:, rows])
        label = stats.centered_ranks(np.array([codes], dtype=float))
        scored += [(abs(rho), order) for order, rho
                   in zip(positions, stats.rank_correlations(ranked, label))
                   if rho is not None]
    for order, col in enumerate(matrix.columns):
        if col.kind == "categorical":
            try:
                score, _ = stats.cramers_v([matrix.rows[i][order] for i in rows],
                                           list(y))
            except DegenerateInput:
                continue
            scored.append((score, order))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [matrix.columns[order].name for _, order in scored[:max_features]]


def _expand_grid(grid: dict[str, list]) -> list[dict]:
    if not grid:
        return [{}]
    keys = list(grid)
    combos = itertools.product(*(grid[k] for k in keys))
    return [dict(zip(keys, combo)) for combo in combos]


def stratified_folds(y: Sequence[str], n_folds: int, rng: np.random.Generator,
                     classes: Sequence[str]) -> list[list[int]]:
    """Positions 0..len(y)-1 dealt round-robin per class, in `classes`
    order, after a shuffle."""
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    cursor = 0
    for cls in classes:
        members = [i for i, v in enumerate(y) if v == cls]
        members = [members[i] for i in rng.permutation(len(members))]
        for member in members:
            folds[cursor % n_folds].append(member)
            cursor += 1
    return [sorted(f) for f in folds]


def _beats(new, old) -> bool:
    """Score `new` beats `old` by more than 1e-12 at the first component
    (of a number or tuple) where they differ."""
    for a, b in zip(np.atleast_1d(new), np.atleast_1d(old)):
        if abs(a - b) > 1e-12:
            return bool(a > b)
    return False


def select_best(candidates: Sequence[tuple[str, dict, int]],
                folds: Sequence[PreparedFold],
                score: Callable[[list[TrainedModel]], Optional[tuple]]
                ) -> Optional[tuple[int, list[TrainedModel], object]]:
    """Fit each `(algorithm, hyperparams, seed)` candidate on every prepared
    fold; keep the earliest best. `score(models)` gives `(key, detail)`, or
    None to pass the candidate over; a later key must beat the best (`_beats`).
    Returns `(index, models, detail)` of the best, or None."""
    best = None
    for index, (algorithm, hyperparams, seed) in enumerate(candidates):
        models = [fit_prepared(algorithm, fold, hyperparams, seed) for fold in folds]
        scored = score(models)
        if scored is None:
            continue
        key, detail = scored
        if best is None or _beats(key, best[0]):
            best = (key, index, models, detail)
    return None if best is None else best[1:]


def grid_search(algorithm: str, grid: dict[str, list],
                matrix: FeatureMatrix, row_idx: Sequence[int], y: Sequence[str],
                classes: Sequence[str], inner_folds: int = 3, seed: int = 0,
                selected: Sequence[str] | None = None,
                resample: bool = True) -> dict:
    """Exhaustive grid evaluation by stratified inner CV, scored by macro F1.

    Each inner training fold is prepared once and serves every grid point.
    Ties break toward the earlier grid point.
    """
    if inner_folds < 2:
        raise ValueError("inner_folds must be >= 2")
    candidates = _expand_grid(grid)
    if len(candidates) == 1:
        return candidates[0]
    row_idx = list(row_idx)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 15485863]))
    n_folds = min(inner_folds, max(2, min(
        sum(1 for v in y if v == c) for c in classes if c in set(y))))
    prepared: list[PreparedFold] = []
    held_out: list[list[int]] = []
    for fold in stratified_folds(y, n_folds, rng, classes):
        val_pos = set(fold)
        train_pos = [i for i in range(len(row_idx)) if i not in val_pos]
        if not fold or not train_pos or len({y[i] for i in train_pos}) < 2:
            continue
        prepared.append(prepare(matrix, [row_idx[i] for i in train_pos],
                                [y[i] for i in train_pos], classes,
                                selected, resample))
        held_out.append(fold)
    if not prepared:
        return candidates[0]

    def score(fold_models: list[TrainedModel]) -> tuple[float, None]:
        return float(np.mean([
            macro_f1([y[i] for i in fold],
                     predict(model, matrix, [row_idx[i] for i in fold]), classes)
            for model, fold in zip(fold_models, held_out)])), None

    best = select_best([(algorithm, c, seed) for c in candidates], prepared, score)
    return candidates[best[0]]
