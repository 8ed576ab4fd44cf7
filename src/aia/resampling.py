"""Imbalance handling: SMOTE oversampling and edited-nearest-neighbor cleaning.

Both operate on already-encoded numeric arrays. The conventional combination
is ENN first (drop rows contradicting their neighborhood) then SMOTE
(balance every class up to the majority count); protocols apply them to
training folds only.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np


# Byte budget of one `_nearest` block: its (rows x n) screen and the
# exact re-rank of its candidates, (rows x n x (d + 1)) float64 at most.
_BLOCK_BYTES = 1 << 25
# Up to this many rows, every other row is a candidate: the screen costs
# more than re-ranking all pairs exactly.
_SCREEN_FROM = 17
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _nearest(X: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest other rows of each row of X, nearest first;
    equal distances keep index order (as a stable sort on distance).

    The distance is `((a - b) ** 2).sum()`, but only candidates get it.
    A block of rows is first screened with |a|^2 + |b|^2 - 2 a.b (one
    matrix product), which stays within `margin` = 4 (d + 4) eps
    (|a|^2 + max |b|^2) + tiny of the exact value (tiny, the smallest
    normal double, covers underflow). Every row screened within
    2 margin of a row's k-th smallest is a candidate: at least k
    candidates are exactly no farther than that bound, and every other row
    is exactly farther. Candidates are ordered by (exact distance, index).
    Below _SCREEN_FROM rows there is no screen: every other row is a
    candidate.
    """
    n, d = X.shape
    screened = n >= _SCREEN_FROM
    if screened:
        norms = (X * X).sum(axis=1)
        top = norms.max()
    block = max(1, _BLOCK_BYTES // (8 * n * (d + 1)))
    out = np.empty((n, k), dtype=int)
    for start in range(0, n, block):
        chunk = X[start:start + block]
        b = len(chunk)
        if screened:
            screen = norms[start:start + b, None] + norms - 2.0 * (chunk @ X.T)
            screen.ravel()[start::n + 1] = np.inf  # each row's own column
            bound = np.partition(screen, k - 1, axis=1)[:, k - 1]
            bound += (norms[start:start + b] + top) * (8 * (d + 4) * _EPS) + 2 * _TINY
            candidate = screen <= bound[:, None]
        else:
            candidate = np.ones((b, n), dtype=bool)
            candidate.ravel()[start::n + 1] = False
        row, col = np.nonzero(candidate)
        exact = ((chunk[row] - X[col]) ** 2).sum(axis=1)
        order = np.lexsort((exact, row))  # stable: ties stay in column order
        per_row = np.bincount(row, minlength=b)
        first = np.cumsum(per_row) - per_row
        out[start:start + b] = col[order[first[:, None] + np.arange(k)]]
    return out


def smote_oversample(X: np.ndarray, y: Sequence, classes: Sequence,
                     k: int = 5, seed: int = 0):
    """Balance all classes up to the majority count with synthetic rows,
    drawn class by class in `classes` order.

    Each synthetic row lies on the segment between a minority row and one of
    its k nearest same-class neighbors (uniform interpolation coefficient).
    The original rows come back unchanged as a prefix. A class with a single
    member cannot interpolate and falls back to duplication with a warning.
    """
    X = np.asarray(X, dtype=float)
    y_arr = np.asarray(list(y), dtype=object)
    if len(y_arr) == 0:
        from .errors import EmptyInput

        raise EmptyInput("smote_oversample needs at least one row")
    counts = {c: int((y_arr == c).sum()) for c in classes}
    observed = [c for c in classes if counts[c] > 0]
    majority = max(counts[c] for c in observed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2654435]))
    new_rows: list[np.ndarray] = []
    new_labels: list = []
    for cls in observed:
        need = majority - counts[cls]
        if need <= 0:
            continue
        members = X[y_arr == cls]
        n_cls = len(members)
        if n_cls < 2:
            warnings.warn(
                f"class {cls!r} has {n_cls} member(s); duplicating instead of "
                "interpolating", RuntimeWarning, stacklevel=2)
            for j in range(need):
                new_rows.append(members[j % n_cls].copy())
                new_labels.append(cls)
            continue
        kk = min(k, n_cls - 1)
        neighbor_ids = _nearest(members, kk)
        for j in range(need):
            base = j % n_cls
            nbr = neighbor_ids[base][rng.integers(0, kk)]
            u = rng.random()
            new_rows.append(members[base] + u * (members[nbr] - members[base]))
            new_labels.append(cls)
    if not new_rows:
        return X.copy(), y_arr.copy()
    X_out = np.vstack([X, np.vstack(new_rows)])
    y_out = np.concatenate([y_arr, np.asarray(new_labels, dtype=object)])
    return X_out, y_out


def enn_undersample(X: np.ndarray, y: Sequence, classes: Sequence, k: int = 3):
    """Wilson editing: drop rows whose k nearest neighbors outvote their label.

    All removal decisions are made against the original set. Neighbor ties
    resolve by index; majority-vote ties resolve toward the earlier class in
    `classes` order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    X = np.asarray(X, dtype=float)
    y_arr = np.asarray(list(y), dtype=object)
    if len(y_arr) <= k:
        return X.copy(), y_arr.copy()
    code = {c: i for i, c in enumerate(classes)}
    y_codes = np.array([code[v] for v in y_arr])
    neighbor_codes = y_codes[_nearest(X, k)]
    votes = (neighbor_codes[:, :, None] == np.arange(len(classes))).sum(axis=1)
    keep = votes.argmax(axis=1) == y_codes  # vote tie -> earliest class
    return X[keep].copy(), y_arr[keep].copy()
