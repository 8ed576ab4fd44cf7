from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aia import resampling
from aia.resampling import enn_undersample, smote_oversample


def counts(y):
    out = {}
    for v in y:
        out[v] = out.get(v, 0) + 1
    return out


# ---------------------------------------------------------------------------
# SMOTE
# ---------------------------------------------------------------------------


def test_smote_synthetic_points_stay_on_segment_k1():
    a = np.array([0.0, 0.0])
    b = np.array([1.0, 2.0])
    X = np.vstack([a, b] + [[10.0 + i, 10.0] for i in range(8)])
    y = ["min", "min"] + ["maj"] * 8
    X_out, y_out = smote_oversample(X, y, k=1, seed=3, classes=["maj", "min"])
    synth = X_out[10:]
    assert len(synth) == 6  # minority 2 -> 8
    direction = b - a
    for point in synth:
        # point = a + u * (b - a) for u in [0, 1)
        u = np.dot(point - a, direction) / np.dot(direction, direction)
        assert -1e-12 <= u <= 1.0
        assert np.allclose(point, a + u * direction, atol=1e-12)


def test_smote_balances_90_10():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 3))
    y = ["maj"] * 90 + ["min"] * 10
    X_out, y_out = smote_oversample(X, y, k=5, seed=1, classes=["maj", "min"])
    assert counts(y_out) == {"maj": 90, "min": 90}
    assert X_out.shape == (180, 3)


def test_smote_keeps_originals_as_prefix():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(30, 2))
    y = ["maj"] * 25 + ["min"] * 5
    X_out, y_out = smote_oversample(X, y, seed=9, classes=["maj", "min"])
    assert np.array_equal(X_out[:30], X)
    assert list(y_out[:30]) == y


def test_smote_preserves_minority_mean():
    rng = np.random.default_rng(7)
    minority = rng.normal(loc=2.0, scale=0.5, size=(40, 2))
    majority = rng.normal(loc=-2.0, scale=0.5, size=(400, 2))
    X = np.vstack([majority, minority])
    y = ["maj"] * 400 + ["min"] * 40
    X_out, y_out = smote_oversample(X, y, k=5, seed=2, classes=["maj", "min"])
    new_min = X_out[np.asarray(y_out) == "min"]
    assert np.allclose(new_min.mean(axis=0), minority.mean(axis=0), atol=0.1)


def test_smote_single_member_falls_back_to_duplication():
    X = np.array([[0.0], [5.0], [6.0], [7.0]])
    y = ["min", "maj", "maj", "maj"]
    with pytest.warns(RuntimeWarning):
        X_out, y_out = smote_oversample(X, y, seed=0, classes=["maj", "min"])
    assert counts(y_out) == {"min": 3, "maj": 3}
    assert np.allclose(X_out[np.asarray(y_out) == "min"], 0.0)


def test_smote_multiclass_balances_every_class():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(70, 2))
    y = ["a"] * 40 + ["b"] * 20 + ["c"] * 10
    _, y_out = smote_oversample(X, y, seed=6, classes=["a", "b", "c"])
    assert counts(y_out) == {"a": 40, "b": 40, "c": 40}


def test_smote_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 3))
    y = ["maj"] * 40 + ["min"] * 10
    X1, y1 = smote_oversample(X, y, seed=13, classes=["maj", "min"])
    X2, y2 = smote_oversample(X, y, seed=13, classes=["maj", "min"])
    assert np.array_equal(X1, X2)
    assert list(y1) == list(y2)


# ---------------------------------------------------------------------------
# ENN
# ---------------------------------------------------------------------------


def enn_oracle(X, y, k, classes):
    """Pure-python O(n^2) Wilson editing."""
    n = len(y)
    removed = []
    code = {c: i for i, c in enumerate(classes)}
    for i in range(n):
        dists = sorted(
            (sum((X[i][d] - X[j][d]) ** 2 for d in range(len(X[i]))), j)
            for j in range(n) if j != i
        )
        votes = [0] * len(classes)
        for _, j in dists[:k]:
            votes[code[y[j]]] += 1
        majority = classes[votes.index(max(votes))]
        if majority != y[i]:
            removed.append(i)
    return removed


def test_enn_keeps_separated_clusters():
    rng = np.random.default_rng(1)
    a = rng.normal(loc=0.0, scale=0.2, size=(20, 2))
    b = rng.normal(loc=10.0, scale=0.2, size=(20, 2))
    X = np.vstack([a, b])
    y = ["a"] * 20 + ["b"] * 20
    X_out, y_out = enn_undersample(X, y, k=3, classes=["a", "b"])
    assert len(y_out) == 40


def test_enn_removes_single_mislabeled_point():
    rng = np.random.default_rng(2)
    a = rng.normal(loc=0.0, scale=0.2, size=(20, 2))
    b = rng.normal(loc=10.0, scale=0.2, size=(20, 2))
    X = np.vstack([a, b, [[10.1, 10.1]]])
    y = ["a"] * 20 + ["b"] * 20 + ["a"]  # intruder inside cluster b
    X_out, y_out = enn_undersample(X, y, k=3, classes=["a", "b"])
    assert len(y_out) == 40
    assert counts(y_out) == {"a": 20, "b": 20}


def test_enn_matches_brute_force_oracle_on_noisy_sets():
    for seed in range(10):
        rng = np.random.default_rng(50 + seed)
        X = rng.normal(size=(200, 2))
        if seed >= 5:
            X = np.round(X, 1)  # a grid: many equal distances, tied by index
        y = ["a" if x0 + rng.normal(0, 0.8) > 0 else "b" for x0 in X[:, 0]]
        classes = ["a", "b"]
        X_out, y_out = enn_undersample(X, y, k=3, classes=classes)
        removed = enn_oracle(X.tolist(), y, 3, classes)
        assert len(y_out) == 200 - len(removed)
        kept = [i for i in range(200) if i not in set(removed)]
        assert np.array_equal(X_out, X[kept])


def test_enn_all_decisions_use_original_set():
    # A chain where greedy sequential removal would cascade; simultaneous
    # editing (the contract) removes only points outvoted in the original set.
    X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
    y = ["a", "a", "b", "b", "a", "a"]
    _, y_out = enn_undersample(X, y, k=3, classes=["a", "b"])
    removed = enn_oracle(X.tolist(), y, 3, ["a", "b"])
    assert len(y_out) == 6 - len(removed)


# ---------------------------------------------------------------------------
# Nearest neighbours: the screened kernel against the full sort it replaced
# ---------------------------------------------------------------------------


def reference_nearest(X, k):
    """`_nearest` as it was before screening: every exact distance of a
    256-row block, stable-sorted in full, self left out."""
    n = len(X)
    block = 256
    out = np.empty((n, k), dtype=int)
    for start in range(0, n, block):
        chunk = X[start:start + block]
        d2 = ((chunk[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(d2, axis=1, kind="stable")
        own = np.arange(start, start + len(chunk))[:, None]
        out[start:start + len(chunk)] = \
            order[order != own].reshape(len(chunk), n - 1)[:, :k]
    return out


def _neighbour_input(seed, n, d, kind):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(n, d))
    if kind == "grid":  # many equal distances, tied by index
        return np.round(rng.normal(size=(n, d)), 1)
    if kind == "binary":  # one-hot-like blocks: most rows repeat
        return (rng.random((n, d)) < 0.3).astype(float)
    if kind == "offset":  # large norms, small differences
        return np.round(rng.random((n, d)), 2) + 10.0 ** rng.choice([6, 8])
    return rng.random((n, d)) * 1e-150  # tiny: squares near underflow


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 90), st.integers(0, 12),
       st.sampled_from(["gaussian", "grid", "binary", "offset", "tiny"]),
       st.integers(1, 5), st.sampled_from([8, 1 << 10, 1 << 14, 1 << 25]))
def test_screened_neighbours_equal_the_full_sort(seed, n, d, kind, k, budget):
    X = _neighbour_input(seed, n, d, kind)
    k = min(k, n - 1)
    with mock.patch.object(resampling, "_BLOCK_BYTES", budget):
        got = resampling._nearest(X, k)
    assert np.array_equal(got, reference_nearest(X, k))


def test_screened_neighbours_on_a_fold_sized_block():
    # Several blocks of a fold-sized set with tied distances, as in ENN on
    # an encoded training fold.
    rng = np.random.default_rng(8)
    X = np.round(rng.random((700, 14)), 1)
    with mock.patch.object(resampling, "_BLOCK_BYTES", 1 << 18):
        assert np.array_equal(resampling._nearest(X, 3), reference_nearest(X, 3))
