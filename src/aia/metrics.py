"""The score of model selection and the attack reports: macro-averaged F1."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import LengthMismatch


def macro_f1(y_true: Sequence, y_pred: Sequence, classes: Sequence) -> float:
    """Macro-averaged F1 over the schema classes that appear in either the
    true or the predicted labels; classes absent from both are excluded."""
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    true_counts, pred_counts = Counter(y_true), Counter(y_pred)
    hits = Counter(t for t, p in zip(y_true, y_pred) if t == p)
    f1s = []
    for c in classes:
        if c not in true_counts and c not in pred_counts:
            continue
        precision = hits[c] / pred_counts[c] if pred_counts[c] else 0.0
        recall = hits[c] / true_counts[c] if true_counts[c] else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if (precision + recall) > 0 else 0.0)
    return float(np.mean(f1s)) if f1s else 0.0
