"""Classification metrics used by model selection and the attack reports."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import LengthMismatch


def confusion_matrix(y_true: Sequence, y_pred: Sequence,
                     classes: Sequence) -> np.ndarray:
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    index = {c: i for i, c in enumerate(classes)}
    table = np.zeros((len(classes), len(classes)), dtype=int)
    for t, p in zip(y_true, y_pred):
        table[index[t], index[p]] += 1
    return table


def metrics(y_true: Sequence, y_pred: Sequence,
            classes: Sequence) -> dict[str, float]:
    """Accuracy plus macro-averaged F1, precision, and recall.

    The macro average runs over schema classes that appear in either the
    true or the predicted labels; classes absent from both are excluded.
    """
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true vs {len(y_pred)} predicted")
    present = [c for c in classes if c in set(y_true) | set(y_pred)]
    table = confusion_matrix(y_true, y_pred, present)
    correct = int(np.trace(table))
    n = len(y_true)
    precisions, recalls, f1s = [], [], []
    for i in range(len(present)):
        tp = table[i, i]
        fp = table[:, i].sum() - tp
        fn = table[i, :].sum() - tp
        precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if (precision + recall) > 0 else 0.0)
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    return {
        "accuracy": correct / n if n else 0.0,
        "macro_f1": float(np.mean(f1s)) if f1s else 0.0,
        "macro_precision": float(np.mean(precisions)) if precisions else 0.0,
        "macro_recall": float(np.mean(recalls)) if recalls else 0.0,
    }

