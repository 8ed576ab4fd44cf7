
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aia import models
from aia.attributes import ATTRIBUTE_SCHEMA
from aia.errors import SchemaMismatch
from aia.matrix import Column, FeatureMatrix
from aia.metrics import macro_f1


def table(values, kinds=None, names=None):
    """FeatureMatrix from a list of row tuples."""
    width = len(values[0])
    names = names or [f"f{i}" for i in range(width)]
    kinds = kinds or ["numeric"] * width
    cols = [Column(n, k) for n, k in zip(names, kinds)]
    return FeatureMatrix(variant="P", columns=cols,
                         rows=[list(r) for r in values],
                         row_owner=list(range(len(values))))


def separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-2, 0.3, n // 2), rng.normal(2, 0.3, n // 2)])
    y = ["a"] * (n // 2) + ["b"] * (n // 2)
    return table([[float(v)] for v in x]), y


def test_logistic_separable_perfect_training_accuracy():
    m, y = separable()
    model = models.fit_prepared("logistic_regression",
                                models.prepare(m, range(40), y, ["a", "b"]), seed=1)
    pred = models.predict(model, m, range(40))
    assert pred == y
    assert "not_converged" not in model.flags


def test_depth_one_tree_on_threshold_data():
    m, y = separable()
    model = models.fit_prepared("decision_tree", models.prepare(m, range(40), y, ["a", "b"]),
                                {"max_depth": 1, "min_leaf": 1})
    assert models.predict(model, m, range(40)) == y


def test_tree_split_survives_adjacent_float_values():
    # Feature values one ulp apart: the naive midpoint equals the upper
    # value and would strand an empty child; every leaf must stay on the
    # simplex regardless.
    lo = 0.5
    hi = np.nextafter(0.5, 1.0)
    rows = [[lo], [lo], [lo], [hi], [hi], [hi]]
    m = table(rows)
    y = ["a", "a", "a", "b", "b", "b"]
    model = models.fit_prepared("decision_tree", models.prepare(m, range(6), y, ["a", "b"]),
                                {"max_depth": 3, "min_leaf": 1})
    probs = models.predict_proba(model, m, range(6))
    assert np.isfinite(probs).all()
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert models.predict(model, m, range(6)) == y


def _forest_inputs(n_trees, n):
    """Bootstrap roots and generators as `_fit_forest` builds them; each call
    returns fresh generators."""
    rngs = [np.random.default_rng(t) for t in range(n_trees)]
    return [rng.integers(0, n, n) for rng in rngs], rngs


def _tree(forest, t):
    """Tree t of a forest as a forest of one tree."""
    root = forest["root"]
    stop = root[t + 1] if t + 1 < len(root) else len(forest["value"])
    tree = {key: forest[key][root[t]:stop] for key in ("feature", "threshold", "value")}
    for key in ("left", "right"):
        child = forest[key][root[t]:stop]
        tree[key] = np.where(child >= 0, child - root[t], -1)
    tree["root"] = np.array([0])
    return tree


def test_lockstep_growth_equals_growing_each_tree_alone():
    rng = np.random.default_rng(5)
    X = np.round(rng.normal(size=(80, 6)), 1)  # many tied values
    y = rng.integers(0, 3, 80)
    forest = models._grow_trees(X, y, 3, None, 2, *_forest_inputs(7, 80))
    roots, rngs = _forest_inputs(7, 80)
    assert len(set(np.diff(forest["root"]))) > 1
    for t in range(7):
        alone = models._grow_trees(X, y, 3, None, 2, [roots[t]], [rngs[t]])
        tree = _tree(forest, t)
        assert tree.keys() == alone.keys()
        for key in tree:
            assert np.array_equal(tree[key], alone[key])


def _preorder_tree(X, y, K, max_depth, min_leaf):
    """Reference grower for one tree over all features, as trees were grown
    before level order: depth-first, left child first, one node per split
    search, nodes in pre-order."""
    rank = np.empty(X.shape, dtype=int)
    for f in range(X.shape[1]):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}
    stack = [(np.arange(len(y)), 0, -1, np.bincount(y, minlength=K).astype(float))]
    while stack:
        idx, depth, parent, counts = stack.pop()
        node = len(tree["value"])
        if parent >= 0:  # a left child is popped before its sibling
            tree["left" if tree["left"][parent] == -1 else "right"][parent] = node
        tree["feature"].append(-2)
        tree["threshold"].append(-2.0)
        tree["left"].append(-1)
        tree["right"].append(-1)
        tree["value"].append(counts)
        pure = np.count_nonzero(counts) <= 1
        depth_stop = max_depth is not None and depth >= max_depth
        if pure or depth_stop or len(idx) < 2 * min_leaf:
            continue
        chosen, f, threshold, left = models._best_splits(
            X, rank, y, K, min_leaf, idx, np.ones(len(idx)), np.array([len(idx)]),
            np.arange(X.shape[1])[None])
        if not len(chosen):
            continue
        tree["feature"][node] = int(f[0])
        tree["threshold"][node] = threshold[0]
        mask = X[idx, f[0]] <= threshold[0]
        stack.append((idx[~mask], depth + 1, node, counts - left[0]))
        stack.append((idx[mask], depth + 1, node, left[0]))
    tree = {key: np.array(column) for key, column in tree.items()}
    tree["value"] /= tree["value"].sum(axis=1, keepdims=True)
    return tree


def _on_thresholds(X, tree, rng, n_rows):
    """Query rows that mix the values of X with the tree's own thresholds,
    so some rows sit exactly on a cut."""
    split = tree["feature"] >= 0
    pool = [np.concatenate([X[:, f], tree["threshold"][split & (tree["feature"] == f)]])
            for f in range(X.shape[1])]
    return np.column_stack([rng.choice(col, n_rows) for col in pool])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.integers(1, 5),
       st.sampled_from([0, 1]), st.integers(2, 4), st.integers(1, 5),
       st.one_of(st.none(), st.integers(1, 4)))
def test_level_order_tree_equals_the_preorder_tree(seed, n, d, decimals, K,
                                                   min_leaf, max_depth):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(scale=2.0, size=(n, d)), decimals)  # tie-heavy
    y = rng.integers(0, K, n)
    tree = models._grow_trees(X, y, K, max_depth, min_leaf, [np.arange(n)])
    reference = _preorder_tree(X, y, K, max_depth, min_leaf)
    assert len(tree["value"]) == len(reference["value"])
    for Q in (X, _on_thresholds(X, reference, rng, 50)):
        walked = np.array([_walk(reference, q) for q in Q])
        assert models._predict_forest(tree, Q).tobytes() == walked.tobytes()


def _best_weighted_gini(values, y, K):
    """Lowest weighted child Gini over the cuts of one feature, by brute force."""
    order = np.argsort(values, kind="stable")
    sv, sy = values[order], y[order]
    counts = np.bincount(y, minlength=K).astype(float)
    best = np.inf
    for cut in range(len(y) - 1):
        if sv[cut] < sv[cut + 1]:
            left = np.bincount(sy[:cut + 1], minlength=K).astype(float)
            nl = np.array([cut + 1.0])
            best = min(best, models._gini_children(left[:, None],
                                                   (counts - left)[:, None],
                                                   nl, len(y) - nl)[0])
    return best


def test_near_tied_features_split_on_the_earlier_one():
    # The best cut of the second column scores a few ulps (5.6e-17) lower
    # than that of the first: within 1e-15, so the earlier feature wins,
    # in either column order.
    y = np.array([0, 0, 0, 1, 0, 1, 0, 0, 1])
    a = np.array([1, 2, 0, 6, 8, 3, 5, 7, 4], dtype=float)
    b = np.array([7, 1, 3, 5, 8, 0, 6, 4, 2], dtype=float)
    assert 0 < _best_weighted_gini(a, y, 2) - _best_weighted_gini(b, y, 2) < 1e-15
    for X in (np.column_stack([a, b]), np.column_stack([b, a])):
        tree = models._grow_trees(X, y, 2, 1, 1, [np.arange(9)])
        assert tree["feature"][0] == 0


# ---------------------------------------------------------------------------
# Weighted-row growth against the unweighted grower it replaced
# ---------------------------------------------------------------------------


def reference_gini_children(left: np.ndarray, right: np.ndarray,
                   nl: np.ndarray, nr: np.ndarray) -> np.ndarray:
    gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
    gr = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
    return (nl * gl + nr * gr) / (nl + nr)


def reference_best_splits(X: np.ndarray, rank: np.ndarray, y_codes: np.ndarray, K: int,
                 min_leaf: int, rows: np.ndarray, sizes: np.ndarray,
                 features: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_best_splits` over repeated rows, one entry per bootstrap draw."""
    B, F = features.shape
    N = len(rows)
    node = np.repeat(np.arange(B), sizes)
    y = y_codes[rows]
    counts = np.bincount(node * K + y, minlength=B * K).reshape(B, K).astype(float)
    parent_gini = 1.0 - ((counts / sizes[:, None]) ** 2).sum(axis=1)

    seg = (np.arange(F)[:, None] * B + node).ravel()
    key = seg * len(X) + rank[rows, features[node].T].ravel()
    order = np.argsort(key)
    key = key[order]
    starts = (np.arange(F)[:, None] * N + (np.cumsum(sizes) - sizes)).ravel()
    prefix = np.cumsum(y[order % N] == np.arange(K)[:, None], axis=1)
    prefix = np.hstack([np.zeros((K, 1), dtype=prefix.dtype), prefix])

    def left_of(q):  # class counts up to and including sorted position q
        return (prefix[:, q + 1] - prefix[:, starts[seg[q]]]).T.astype(float, order="C")

    owner = seg % B
    local = np.arange(F * N) - starts[seg]
    n = sizes[owner]
    movable = np.zeros(F * N, dtype=bool)
    movable[:-1] = key[:-1] < key[1:]
    cut = np.flatnonzero((local >= min_leaf - 1) & (local < n - min_leaf) & movable)
    left = left_of(cut)
    nl = (local[cut] + 1).astype(float)
    weighted = np.full(F * N, np.inf)
    weighted[cut] = reference_gini_children(left, counts[owner[cut]] - left, nl,
                                            n[cut] - nl)
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
    lo = X[rows[order[p] % N], f]
    hi = X[rows[order[p + 1] % N], f]
    # Adjacent doubles: the midpoint rounds up to the right value and would
    # leave that child empty under "<=", so the left value is used.
    mid = (lo + hi) / 2.0
    return chosen, f, np.where(mid >= hi, lo, mid), left_of(p)


def reference_grow_trees(X: np.ndarray, y_codes: np.ndarray, K: int,
                max_depth: Optional[int], min_leaf: int,
                roots: Sequence[np.ndarray],
                rngs: Optional[Sequence[np.random.Generator]] = None) -> dict:
    """`_grow_trees` as it was: a bootstrap's repeated rows each take an
    entry of every level's array."""
    d = X.shape[1]
    m = max(1, int(np.sqrt(d)))
    rank = np.empty(X.shape, dtype=int)
    for f in range(d):
        rank[:, f] = np.unique(X[:, f], return_inverse=True)[1]
    roots = [np.asarray(root) for root in roots]
    tree = np.arange(len(roots))
    sizes = np.array([len(root) for root in roots])
    rows = np.concatenate(roots)
    counts = np.bincount(np.repeat(tree, sizes) * K + y_codes[rows],
                         minlength=len(roots) * K).reshape(-1, K).astype(float)
    levels = []
    n_nodes, depth = 0, 0
    while True:
        B = len(tree)
        feature, threshold = np.full(B, -2), np.full(B, -2.0)
        left, right = np.full(B, -1), np.full(B, -1)
        levels.append((tree, feature, threshold, left, right, counts))
        n_nodes += B
        is_open = (np.count_nonzero(counts, axis=1) > 1) & (sizes >= 2 * min_leaf)
        if max_depth is not None and depth >= max_depth:
            is_open[:] = False
        nodes = np.flatnonzero(is_open)
        if not len(nodes):
            break
        rows, sizes = rows[np.repeat(is_open, sizes)], sizes[nodes]
        if rngs is None:
            candidates = np.broadcast_to(np.arange(d), (len(nodes), d))
        else:
            per_tree = np.bincount(tree[nodes], minlength=len(rngs))
            keys = np.concatenate([rngs[t].random((c, d))
                                   for t, c in enumerate(per_tree) if c])
            candidates = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :m], axis=1)
        chosen, f, cut_at, left_counts = reference_best_splits(
            X, rank, y_codes, K, min_leaf, rows, sizes, candidates)
        split = nodes[chosen]
        feature[split], threshold[split] = f, cut_at
        left[split] = n_nodes + 2 * np.arange(len(split))
        right[split] = left[split] + 1
        slot = np.full(len(nodes), -1)
        slot[chosen] = np.arange(len(chosen))
        slot = np.repeat(slot, sizes)
        rows, slot = rows[slot >= 0], slot[slot >= 0]
        child = 2 * slot + ~(X[rows, f[slot]] <= cut_at[slot])
        rows = rows[np.argsort(child, kind="stable")]
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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 80), st.integers(1, 8),
       st.sampled_from([0, 1, 3]), st.integers(2, 4), st.integers(1, 4),
       st.one_of(st.none(), st.integers(1, 4)), st.integers(1, 6))
def test_weighted_growth_equals_the_unweighted_grower(seed, n, d, decimals, K,
                                                      min_leaf, max_depth, n_trees):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(scale=2.0, size=(n, d)), decimals)
    y = rng.integers(0, K, n)
    pairs = [(models._grow_trees(X, y, K, max_depth, min_leaf, [np.arange(n)]),
              reference_grow_trees(X, y, K, max_depth, min_leaf, [np.arange(n)]))]
    roots, rngs = _forest_inputs(n_trees, n)
    forest = models._grow_trees(X, y, K, max_depth, min_leaf, roots, rngs)
    roots, rngs = _forest_inputs(n_trees, n)
    pairs.append((forest, reference_grow_trees(X, y, K, max_depth, min_leaf,
                                               roots, rngs)))
    for got, want in pairs:
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes()


def _walk(tree, x):
    """Reference traversal: one row, one node at a time."""
    node = 0
    while tree["left"][node] >= 0:
        go_left = x[tree["feature"][node]] <= tree["threshold"][node]
        node = tree["left"][node] if go_left else tree["right"][node]
    return tree["value"][node]


def test_batched_traversal_equals_row_by_row_walk():
    rng = np.random.default_rng(12)
    X = np.round(rng.normal(size=(120, 4)), 1)
    y = rng.integers(0, 3, 120)
    forest = models._fit_forest(X, y, 3, 15, None, 1, seed=4)
    for t in range(15):
        tree = _tree(forest, t)
        Q = _on_thresholds(X, tree, rng, 200)
        assert np.array_equal(models._predict_forest(tree, Q),
                              np.array([_walk(tree, q) for q in Q]))


def test_forest_traversal_equals_the_mean_of_row_by_row_walks():
    rng = np.random.default_rng(13)
    X = np.round(rng.normal(size=(120, 4)), 1)
    y = rng.integers(0, 3, 120)
    forest = models._fit_forest(X, y, 3, 15, None, 1, seed=4)
    Q = np.concatenate([_on_thresholds(X, _tree(forest, t), rng, 20) for t in range(15)])
    walked = np.mean([[_walk(_tree(forest, t), q) for q in Q] for t in range(15)], axis=0)
    assert models._predict_forest(forest, Q).tobytes() == walked.tobytes()


def test_forest_of_identical_trees_equals_single_tree():
    m, y = separable()
    hp = {"max_depth": 1, "min_leaf": 1}
    forest = models.fit_prepared("random_forest", models.prepare(m, range(40), y, ["a", "b"]),
                                 dict(hp, n_trees=25), seed=3)
    tree = models.fit_prepared("decision_tree", models.prepare(m, range(40), y, ["a", "b"]), hp)
    assert np.allclose(models.predict_proba(forest, m, range(40)),
                       models.predict_proba(tree, m, range(40)))


def test_mlp_learns_separable_data():
    m, y = separable()
    model = models.fit_prepared("mlp", models.prepare(m, range(40), y, ["a", "b"]),
                                {"hidden": 32, "lr": 1e-2}, seed=2)
    assert models.predict(model, m, range(40)) == y


def test_dummy_proba_is_exact_prior_vector():
    m, y = separable()
    y = ["a"] * 28 + ["b"] * 12  # 70/30
    model = models.fit_prepared("dummy_stratified", models.prepare(m, range(40), y, ["a", "b"]),
                                seed=0)
    probs = models.predict_proba(model, m, range(40))
    assert np.allclose(probs, np.tile([0.7, 0.3], (40, 1)))


def test_dummy_predictions_follow_priors():
    rng = np.random.default_rng(0)
    n = 10_000
    rows = [[float(v)] for v in rng.normal(size=n)]
    m = table(rows)
    y = ["a"] * 7000 + ["b"] * 3000
    model = models.fit_prepared("dummy_stratified", models.prepare(m, range(n), y, ["a", "b"]),
                                seed=5)
    pred = models.predict(model, m, range(n))
    share_a = sum(1 for p in pred if p == "a") / n
    assert share_a == pytest.approx(0.70, abs=0.03)


def test_all_probability_outputs_live_on_simplex():
    rng = np.random.default_rng(9)
    rows = [[float(a), float(b)] for a, b in rng.normal(size=(60, 2))]
    y = [str(v) for v in rng.integers(0, 3, 60)]
    m = table(rows)
    for algorithm in models.ALGORITHMS:
        model = models.fit_prepared(algorithm, models.prepare(m, range(60), y, ["0", "1", "2"]),
                                    seed=4)
        probs = models.predict_proba(model, m, range(60))
        assert probs.shape == (60, 3)
        assert (probs >= 0).all()
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_binary_logistic_probabilities_complement():
    m, y = separable()
    model = models.fit_prepared("logistic_regression",
                                models.prepare(m, range(40), y, ["a", "b"]), seed=1)
    probs = models.predict_proba(model, m, range(40))
    assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-12)


def _logistic_objective(X, y_codes, K, l2):
    """The objective `_fit_logistic` minimizes, with its gradient, over the
    flattened (d + 1) x K weights."""
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    Y = np.eye(K)[y_codes]

    def objective(w):
        W = w.reshape(d + 1, K)
        P = models._softmax(Xb @ W)
        value = -np.log(P[np.arange(n), y_codes]).mean() \
            + 0.5 * l2 * (W[:-1] ** 2).sum() / n
        G = Xb.T @ (P - Y) / n
        G[:-1] += l2 * W[:-1] / n
        return value, G.ravel()

    return objective


@pytest.mark.parametrize("l2", [0.01, 1.0])
def test_logistic_reaches_the_reference_optimum(l2):
    from scipy.optimize import minimize

    rng = np.random.default_rng(3)
    n, d, K = 90, 5, 3
    y = np.repeat(np.arange(K), n // K)
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None] * rng.normal(size=d)
    objective = _logistic_objective(X, y, K, l2)
    W, converged = models._fit_logistic(X, y, K, l2)
    reference = minimize(objective, np.zeros((d + 1) * K), jac=True,
                         method="BFGS", options={"gtol": 1e-10, "maxiter": 10_000})
    value, grad = objective(W.ravel())
    assert converged
    assert np.abs(grad).max() < 1e-6
    assert abs(value - reference.fun) < 1e-9
    Xb = np.hstack([X, np.ones((n, 1))])
    probs = models._softmax(Xb @ W)
    ref_probs = models._softmax(Xb @ reference.x.reshape(d + 1, K))
    assert np.abs(probs - ref_probs).max() < 1e-5
    # The bias is unpenalized and only its differences matter: steps keep
    # the class-sum of the bias row where W = 0 puts it.
    assert abs(W[-1].sum()) < 1e-9


def test_logistic_reports_hitting_its_cap():
    m, y = separable()
    X = np.array(m.rows)
    codes = np.array([0 if v == "a" else 1 for v in y])
    _, converged = models._fit_logistic(X, codes, 2, 1.0, max_iter=1)
    assert not converged


@pytest.fixture(scope="module")
def fixture_players():
    from aia.features import FeatureContext, build_player_matrix
    from aia.synth import FIXTURE_CONFIG, generate_population

    pop = generate_population(FIXTURE_CONFIG)
    return build_player_matrix(pop.players, pop.matches,
                               FeatureContext.default()), pop.labels


@pytest.mark.parametrize("attribute", ["age_bin", "gender"])
def test_logistic_converges_where_gradient_descent_hit_its_cap(fixture_players,
                                                                attribute):
    # All 50 fixture players, 12 selected features, ENN + SMOTE, l2 = 0.1:
    # ill-conditioned enough that plain gradient descent needs more than
    # 5,000 steps here.
    P, labels = fixture_players
    classes = list(ATTRIBUTE_SCHEMA[attribute])
    y = [getattr(labels[owner], attribute) for owner in P.row_owner]
    rows = list(range(P.n_rows))
    selected = models.select_features(P, rows, y, 12, classes)
    fold = models.prepare(P, rows, y, classes, selected, resample=True)
    model = models.fit_prepared("logistic_regression", fold, {"l2": 0.1}, 0)
    assert "not_converged" not in model.flags


def test_argmax_invariant_under_monotone_rescale():
    m, y = separable()
    model = models.fit_prepared("random_forest", models.prepare(m, range(40), y, ["a", "b"]),
                                {"n_trees": 10, "max_depth": 3, "min_leaf": 1},
                                seed=8)
    probs = models.predict_proba(model, m, range(40))
    rescaled = np.exp(3.0 * probs)  # strictly increasing on all class scores
    rescaled /= rescaled.sum(axis=1, keepdims=True)
    assert (probs.argmax(axis=1) == rescaled.argmax(axis=1)).all()


def test_determinism_same_seed_same_everything():
    rng = np.random.default_rng(2)
    rows = [[float(a), float(b)] for a, b in rng.normal(size=(50, 2))]
    y = [str(v) for v in rng.integers(0, 2, 50)]
    m = table(rows)
    for algorithm in ("random_forest", "mlp", "dummy_stratified"):
        one = models.fit_prepared(algorithm, models.prepare(m, range(50), y, ["0", "1"]), seed=7)
        two = models.fit_prepared(algorithm, models.prepare(m, range(50), y, ["0", "1"]), seed=7)
        assert np.array_equal(models.predict_proba(one, m, range(50)),
                              models.predict_proba(two, m, range(50)))
        assert models.predict(one, m, range(50)) == models.predict(two, m, range(50))


def test_constant_feature_dropped_with_warning():
    rows = [[1.0, float(i)] for i in range(10)]
    m = table(rows)
    y = ["a"] * 5 + ["b"] * 5
    with pytest.warns(RuntimeWarning):
        recipe = models.fit_recipe(m, range(10))
    assert recipe.selected == ["f1"]
    assert recipe.dropped_constant == ["f0"]


def test_unseen_category_encodes_to_zeros():
    rows = [["red"], ["blue"], ["red"], ["blue"]]
    m = table(rows, kinds=["categorical"])
    recipe = models.fit_recipe(m, range(4))
    extended = FeatureMatrix(variant="P", columns=m.columns,
                             rows=[["green"]], row_owner=[99])
    encoded = models.transform(extended, [0], recipe)
    assert np.array_equal(encoded, np.zeros((1, 2)))


def test_predict_rejects_wrong_matrix():
    m, y = separable()
    model = models.fit_prepared("decision_tree", models.prepare(m, range(40), y, ["a", "b"]))
    other = table([[1.0, 2.0]], names=["g0", "g1"])
    with pytest.raises(SchemaMismatch):
        models.predict_proba(model, other, [0])


# ---------------------------------------------------------------------------
# Feature selection
# ---------------------------------------------------------------------------


def planted_table(n=120, seed=1):
    rng = np.random.default_rng(seed)
    y = [str(v) for v in rng.integers(0, 2, n)]
    codes = np.array([int(v) for v in y], dtype=float)
    signal = codes * 2.0 + rng.normal(0, 0.4, n)
    noise1 = rng.normal(size=n)
    noise2 = rng.normal(size=n)
    constant = np.ones(n)
    rows = [[float(a), float(b), float(c), float(d)]
            for a, b, c, d in zip(noise1, signal, noise2, constant)]
    return table(rows, names=["noise1", "signal", "noise2", "constant"]), y


def test_select_features_finds_planted_signal():
    m, y = planted_table()
    selected = models.select_features(m, range(m.n_rows), y, 2, ["0", "1"])
    assert selected[0] == "signal"


def test_select_features_identity_when_budget_large():
    m, y = planted_table()
    selected = models.select_features(m, range(m.n_rows), y, 100, ["0", "1"])
    assert set(selected) == {"noise1", "signal", "noise2"}  # constant excluded


def test_select_features_never_picks_constant():
    m, y = planted_table()
    for budget in (1, 2, 3, 4):
        assert "constant" not in models.select_features(m, range(m.n_rows), y, budget,
                                                     ["0", "1"])


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def test_grid_search_single_point():
    m, y = separable()
    best = models.grid_search("decision_tree", {"max_depth": [2], "min_leaf": [5]},
                              m, range(40), y, ["a", "b"], inner_folds=2)
    assert best == {"max_depth": 2, "min_leaf": 5}


def test_grid_search_recovers_generating_depth():
    # Data generated by a single threshold: depth-1 candidates should win (or
    # tie into first-in-grid order) over depth-8 overfitters in most seeds.
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-1, 1, 80)
        flip = rng.random(80) < 0.05
        y = ["b" if (v > 0) ^ f else "a" for v, f in zip(x, flip)]
        m = table([[float(v)] for v in x])
        best = models.grid_search(
            "decision_tree", {"max_depth": [1, 8], "min_leaf": [1]},
            m, range(80), y, ["a", "b"], inner_folds=3, seed=seed, resample=False)
        if best["max_depth"] == 1:
            hits += 1
    assert hits >= 8


def test_grid_search_cleans_each_inner_fold_once(monkeypatch):
    # ENN depends only on a fold's training rows, so a 4-point grid over 3
    # inner folds cleans 3 folds, not 12 (fold, candidate) pairs.
    from aia import resampling

    calls = []
    enn = resampling.enn_undersample

    def counted(*args, **kwargs):
        calls.append(1)
        return enn(*args, **kwargs)

    monkeypatch.setattr(resampling, "enn_undersample", counted)
    m, y = separable(n=60)
    models.grid_search("decision_tree", {"max_depth": [1, 3], "min_leaf": [1, 5]},
                       m, range(60), y, ["a", "b"], inner_folds=3, seed=0,
                       resample=True)
    assert len(calls) == 3


def test_grid_metric_changes_selection_on_imbalanced_fixture():
    rng = np.random.default_rng(42)
    xa = np.concatenate([rng.uniform(0.0, 0.55, 70), rng.uniform(0.5, 0.75, 12)])
    xb = np.concatenate([rng.uniform(0.55, 0.8, 12), rng.uniform(0.85, 1.0, 6)])
    m = table([[float(v)] for v in np.concatenate([xa, xb])])
    y = ["a"] * len(xa) + ["b"] * len(xb)
    grid = {"l2": [0.01, 1.0]}
    by_f1 = models.grid_search("logistic_regression", grid, m, range(len(y)), y,
                               ["a", "b"], inner_folds=2, seed=0, resample=False)
    assert by_f1 == {"l2": 0.01}


def test_stratified_folds_partition_and_balance():
    y = ["a"] * 30 + ["b"] * 10
    rng = np.random.default_rng(0)
    folds = models.stratified_folds(y, 5, rng, classes=["a", "b"])
    seen = sorted(i for fold in folds for i in fold)
    assert seen == list(range(40))
    for fold in folds:
        labels = [y[i] for i in fold]
        assert labels.count("a") == 6
        assert labels.count("b") == 2


# ---------------------------------------------------------------------------
# Metrics edge cases from the protocol contracts
# ---------------------------------------------------------------------------


def test_perfect_predictions_all_ones():
    y = ["a", "b", "c", "a"]
    assert macro_f1(y, list(y), ["a", "b", "c"]) == 1.0


def test_all_one_class_on_balanced_binary():
    # Hand-computed confusion matrix: predicting all "a" on a 50/50 split
    # gives class-a F1 = 2/3 and class-b F1 = 0, so macro F1 = 1/3.
    y = ["a", "b"] * 10
    pred = ["a"] * 20
    assert macro_f1(y, pred, ["a", "b"]) == pytest.approx(1 / 3)


def test_dummy_accuracy_on_balanced_binary_is_half():
    rng = np.random.default_rng(1)
    n = 10_000
    y = ["a", "b"] * (n // 2)
    pred = [("a", "b")[v] for v in rng.integers(0, 2, n)]
    assert macro_f1(y, pred, ["a", "b"]) == pytest.approx(0.5, abs=0.02)


def reference_select_features(matrix, row_idx, y, max_features, classes):
    """`select_features` one column at a time through the loop-ranked
    reference Spearman."""
    from aia import stats
    from aia.errors import DegenerateInput
    from test_stats import reference_spearman

    codes = [classes.index(v) for v in y]
    scored = []
    for order, col in enumerate(matrix.columns):
        values = [matrix.rows[i][order] for i in row_idx]
        try:
            if col.kind == "categorical":
                score, _ = stats.cramers_v(values, list(y))
            else:
                score = abs(reference_spearman([float(v) for v in values], codes)[0])
        except DegenerateInput:
            continue
        scored.append((score, order, col.name))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [name for _, _, name in scored[:max_features]]


def test_select_features_equals_per_column_reference(fixture_matrices):
    P, M, variants, labels = fixture_matrices
    rng = np.random.default_rng(12)
    for matrix in (P, M, *variants):
        for draw in range(3):
            rows = sorted(rng.choice(matrix.n_rows, size=matrix.n_rows * 3 // 4,
                                     replace=False).tolist())
            for attribute, classes in ATTRIBUTE_SCHEMA.items():
                y = [getattr(labels[matrix.row_owner[i]], attribute) for i in rows]
                every = reference_select_features(matrix, rows, y,
                                                  len(matrix.columns), list(classes))
                assert models.select_features(matrix, rows, y, 12, classes) == every[:12]
                assert models.select_features(matrix, rows, y, len(matrix.columns),
                                              classes) == every


def test_select_features_keeps_the_error_of_a_bad_sample():
    from aia.errors import DomainError, LengthMismatch

    m, y = planted_table()
    with pytest.raises(DomainError):
        models.select_features(m, [0, 1], y[:2], 2, ["0", "1"])
    with pytest.raises(LengthMismatch):
        models.select_features(m, range(10), y[:9], 2, ["0", "1"])
    rows = [list(r) for r in m.rows]
    rows[5][0] = float("nan")
    with pytest.raises(DomainError):
        models.select_features(table(rows, names=[c.name for c in m.columns]),
                               range(len(rows)), y, 2, ["0", "1"])
