"""Evaluation: accuracy, micro-averaged Top@K on long-tail subsets, and
micro-averaged one-vs-rest precision-recall curves.

evaluate scores the test bags of the view it is given: album bags in bag mode,
each against the bag's label; the segment_bags view in segment mode, every
test segment as its own bag against its own genre (no album/artist metadata
consumed). Either way the whole split is one packed model call. Tail subsets
keep the units whose genre has fewer than the threshold training segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import BagSet
from .errors import EmptyEval, InvalidConfig, InvalidK
from .textfmt import BLOCK, float_cells, join_rows
# bag_feature_matrix stays bound here: perfbench/test_perfbench.py requires the
# benchmark's tracer to find it in this module
from .training import bag_feature_matrix, pack_bags  # noqa: F401

EVAL_MODES = ("bag", "segment")
TAIL_SUBSETS = (100, 200)  # default tail thresholds, in training segments
TOP_KS = (2, 3, 5)  # default Ks of Top@K


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
        """One `threshold,precision,recall` line per point, each value as
        %.9g of its exact double, written BLOCK values at a time."""
        points = np.asarray(self.pr_points, dtype=np.float64).reshape(-1, 3)
        with open(path, "wb") as fh:
            fh.write(b"threshold,precision,recall\n")
            for i in range(0, len(points), BLOCK // 3):
                fh.write(join_rows(float_cells(points[i : i + BLOCK // 3], b",,\n")))

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


def gold_ranks(probabilities: np.ndarray, golds: np.ndarray) -> np.ndarray:
    """Each row's gold position in its genres sorted most probable first,
    lowest id first on ties (0 = top): the count of genres more probable
    than the gold plus the tied ones with a lower id."""
    gold_p = np.take_along_axis(probabilities, golds[:, np.newaxis], axis=1)
    above = np.count_nonzero(probabilities > gold_p, axis=1)
    tied_before = np.arange(probabilities.shape[1]) < golds[:, np.newaxis]
    return above + np.count_nonzero((probabilities == gold_p) & tied_before, axis=1)


def top_k_accuracy(probabilities, golds, k: int) -> float:
    """Fraction of rows whose gold genre is among the K most probable
    (lowest id first on ties)."""
    if not len(golds):
        raise EmptyEval("nothing to evaluate")
    P = np.asarray(probabilities, dtype=np.float64)
    _check_k(k, P.shape[1])
    return np.count_nonzero(gold_ranks(P, np.asarray(golds)) < k) / len(golds)


def _check_k(k: int, n_genres: int):
    if not 1 <= k <= n_genres:
        raise InvalidK(f"K={k} outside [1, {n_genres}]")


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
    # tie order never reaches the curve: each tie group emits only its last
    # index, whose cumulative positive count is the same in any order
    order = np.argsort(-P.ravel())
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


def collect_predictions(model, units: BagSet, X: np.ndarray):
    """Score every bag of units in one packed model call.

    Returns ((units, G) probabilities, (units,) gold genre ids).
    """
    if not len(units.starts):
        raise EmptyEval("no test units to evaluate")
    return model.forward_packed(*pack_bags(units, X)), units.genre_ids


def evaluate(
    model, units: BagSet, X: np.ndarray, mode: str = "bag", subsets=TAIL_SUBSETS, ks=TOP_KS
) -> EvalReport:
    """Full report: overall accuracy, PR curve, and Top@K per tail subset.

    Scores the test bags of units, the view the caller chose: album bags for
    bag mode, segment_bags(table) for segment mode. mode only labels the
    report. X is aligned to units.table.
    """
    if mode not in EVAL_MODES:
        raise InvalidConfig(f"unknown evaluation mode {mode!r}")
    probabilities, golds = collect_predictions(model, units.split("test"), X)
    overall = accuracy(probabilities, golds)
    points, average_precision = pr_curve(probabilities, golds)

    for k in ks:
        _check_k(k, probabilities.shape[1])
    ranks = gold_ranks(probabilities, golds)  # Top@K of every subset counts ranks below K
    top_k = {}
    subset_sizes = {}
    for subset in subsets:
        tail_ranks = ranks[units.table.vocabulary.tail_mask(subset)[golds]]
        subset_sizes[subset] = len(tail_ranks)
        if not len(tail_ranks):
            continue
        for k in ks:
            top_k[(subset, k)] = np.count_nonzero(tail_ranks < k) / len(tail_ranks)
    return EvalReport(
        mode=mode,
        overall_accuracy=overall,
        top_k=top_k,
        pr_points=points,
        average_precision=average_precision,
        n_units=len(golds),
        subset_sizes=subset_sizes,
    )
