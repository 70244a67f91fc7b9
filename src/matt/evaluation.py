"""Evaluation: accuracy, micro-averaged Top@K on long-tail subsets, and
micro-averaged one-vs-rest precision-recall curves.

Bag mode scores one prediction per test bag against the bag's label; segment
mode scores every test segment as its own bag against the segment's own genre
(no album/artist metadata consumed). Either way the whole split is one packed
model call. Tail subsets keep the units whose genre has fewer than the
threshold training segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BagSet, segment_bags
from .errors import EmptyEval, InvalidConfig, InvalidK
# bag_feature_matrix stays bound here: perfbench/test_perfbench.py requires the
# benchmark's tracer to find it in this module
from .training import bag_feature_matrix, pack_bags  # noqa: F401

EVAL_MODES = ("bag", "segment")


@dataclass(frozen=True)
class EvalReport:
    mode: str
    overall_accuracy: float
    top_k: dict  # (subset_max_train_count, K) -> accuracy; empty subsets omitted
    pr_points: np.ndarray  # (n, 3) rows of threshold, precision, recall; threshold falls
    average_precision: float
    n_units: int
    subset_sizes: dict  # subset_max_train_count -> unit count

    def write_topk_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("subset,K,accuracy\n")
            for (subset, k), acc in sorted(self.top_k.items()):
                fh.write(f"{subset},{k},{acc:.9g}\n")

    def write_pr_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("threshold,precision,recall\n")
            # one % per block of points: as fast as one % over the whole body,
            # without holding all of its text and a flat copy at once
            for i in range(0, len(self.pr_points), 4096):
                block = np.ravel(self.pr_points[i : i + 4096]).tolist()
                fh.write("%.9g,%.9g,%.9g\n" * (len(block) // 3) % tuple(block))

    def write_text(self, path):
        lines = [
            f"mode: {self.mode}",
            f"units: {self.n_units}",
            f"overall_accuracy: {self.overall_accuracy:.9g}",
            f"average_precision: {self.average_precision:.9g}",
        ]
        for (subset, k), acc in sorted(self.top_k.items()):
            lines.append(f"top@{k} (<{subset} train segments): {acc:.9g}")
        for subset, size in sorted(self.subset_sizes.items()):
            lines.append(f"subset <{subset}: {size} units")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def accuracy(probabilities, golds) -> float:
    """Fraction of rows whose argmax (lowest id on ties) is the gold genre."""
    if len(probabilities) != len(golds):
        raise EmptyEval(f"{len(probabilities)} predictions vs {len(golds)} golds")
    if not len(golds):
        raise EmptyEval("nothing to evaluate")
    winners = np.argmax(np.asarray(probabilities, dtype=np.float64), axis=1)
    return np.count_nonzero(winners == np.asarray(golds)) / len(golds)


def top_k_accuracy(probabilities, golds, k: int) -> float:
    """Fraction of rows whose gold genre is among the K most probable
    (lowest id first on ties)."""
    if not len(golds):
        raise EmptyEval("nothing to evaluate")
    P = np.asarray(probabilities, dtype=np.float64)
    n_genres = P.shape[1]
    if not 1 <= k <= n_genres:
        raise InvalidK(f"K={k} outside [1, {n_genres}]")
    top = np.argsort(-P, axis=1, kind="stable")[:, :k]
    hits = (top == np.asarray(golds)[:, np.newaxis]).any(axis=1)
    return np.count_nonzero(hits) / len(golds)


def pr_curve(probabilities, golds):
    """Micro-averaged one-vs-rest PR curve over all (unit, genre) pairs.

    Each pair contributes its predicted probability as score and
    (genre == gold) as label; thresholds sweep every distinct score from high
    to low. Returns (points, average_precision) with points an (n, 3) float64
    array of (threshold, precision, recall) rows and AP = sum (R_i - R_{i-1}) * P_i.
    """
    if not len(golds):
        raise EmptyEval("nothing to evaluate")
    P = np.asarray(probabilities, dtype=np.float64)
    golds = np.asarray(golds)
    onehot = np.arange(P.shape[1]) == golds[:, np.newaxis]
    order = np.argsort(-P.ravel(), kind="stable")
    scores = P.ravel()[order]
    labels = onehot.ravel()[order].astype(np.int64)
    total_positive = int(labels.sum())
    if total_positive == 0:
        raise EmptyEval("no positive pairs")

    # one point per distinct score: the last index of each tie group
    last = np.flatnonzero(np.diff(scores, append=-np.inf))
    tp_cum = np.cumsum(labels)[last]
    precision = tp_cum / (last + 1)
    recall = tp_cum / total_positive
    # cumsum adds left to right, so AP rounds exactly as the sequential sum
    average_precision = np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1]
    points = np.column_stack([scores[last], precision, recall])
    return points, float(average_precision)


def collect_predictions(model, units: BagSet, features):
    """Score every bag of units in one packed model call.

    Returns ((units, G) probabilities, (units,) gold genre ids).
    """
    if not len(units.starts):
        raise EmptyEval("no test units to evaluate")
    return model.forward_packed(*pack_bags(units, features)), units.genre_ids


def evaluate(
    model, bags: BagSet, features, mode: str = "bag", subsets=(100, 200), ks=(2, 3, 5)
) -> EvalReport:
    """Full report: overall accuracy, PR curve, and Top@K per tail subset.

    Bag mode scores the test bags of bags; segment mode scores the test
    segments of bags.table, each as its own bag.
    """
    if mode not in EVAL_MODES:
        raise InvalidConfig(f"unknown evaluation mode {mode!r}")
    units = segment_bags(bags.table) if mode == "segment" else bags
    probabilities, golds = collect_predictions(model, units.split("test"), features)
    overall = accuracy(probabilities, golds)
    points, average_precision = pr_curve(probabilities, golds)

    top_k = {}
    subset_sizes = {}
    for subset in subsets:
        tail = bags.table.vocabulary.tail_mask(subset)[golds]
        subset_sizes[subset] = int(np.count_nonzero(tail))
        if not subset_sizes[subset]:
            continue
        for k in ks:
            top_k[(subset, k)] = top_k_accuracy(probabilities[tail], golds[tail], k)
    return EvalReport(
        mode=mode,
        overall_accuracy=overall,
        top_k=top_k,
        pr_points=points,
        average_precision=average_precision,
        n_units=len(golds),
        subset_sizes=subset_sizes,
    )
