"""Bag-level supervised training with negative log-likelihood loss.

Bags are shuffled each epoch by a seeded PRNG, each batch averages per-bag
gradients from one packed pass, and the checkpoint with the best validation
accuracy is retained (early stopping on patience). Given the same data,
config, and seed the returned parameters are bit-identical run to run.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import BagSet
from .errors import DivergedError, InvalidConfig, MissingFeature
from .model import EncoderConfig, MattModel
from .numeric import OptimizerState, optimizer_step

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class TrainConfig:
    """Conventional defaults; tune per dataset (see benchmark for an example)."""

    epochs: int = 50
    bags_per_batch: int = 32
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    seed: int = 0
    early_stop_patience: int = 10
    aggregator: str = "matt"
    hidden_dims: tuple[int, ...] = ()
    embedding_dim: int = 16
    # off by default: the benchmark measures what bagging and attention do on
    # their own, without rebalancing confounds
    class_weighting: bool = False

    def __post_init__(self):
        if self.epochs < 0 or self.bags_per_batch < 1:
            raise InvalidConfig("epochs must be >= 0 and bags_per_batch >= 1")


@dataclass
class TrainLog:
    epochs: list = field(default_factory=list)  # (epoch, mean_loss, val_accuracy, seconds)

    def append(self, epoch, loss, val_accuracy, seconds):
        self.epochs.append((epoch, loss, val_accuracy, seconds))

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss,val_accuracy,seconds\n")
            for epoch, loss, acc, seconds in self.epochs:
                fh.write(f"{epoch},{loss:.9g},{acc:.9g},{seconds:.3f}\n")


def nll_losses(probabilities: np.ndarray, golds: np.ndarray, genre_weights=None):
    """Per-row -log p[gold] and dLoss/dScores for (B, G) probabilities.

    With genre_weights, row b is scaled by genre_weights[golds[b]]. A gold id
    outside [0, G) raises InvalidConfig.
    """
    ids = golds.tolist()  # min and max of a short list are cheaper in Python
    if ids and not 0 <= min(ids) <= max(ids) < probabilities.shape[1]:
        bad = min(ids) if min(ids) < 0 else max(ids)
        raise InvalidConfig(f"gold genre {bad} out of range for {probabilities.shape[1]} genres")
    rows = np.arange(len(golds))
    losses = -np.log(np.maximum(probabilities[rows, golds], PROB_FLOOR))
    d_scores = probabilities.copy()
    d_scores[rows, golds] -= 1.0
    if genre_weights is not None:
        scale = genre_weights[golds]
        losses = losses * scale
        d_scores *= scale[:, np.newaxis]
    return losses, d_scores


def pack_bags(bags: BagSet, features: dict[str, np.ndarray]):
    """Members of bags as one packed float64 matrix, bag after bag.

    Returns ((n_rows, D) features, (B,) first row of each bag). All member
    rows are gathered in one pass; a missing feature row raises
    MissingFeature naming the first such track.
    """
    try:
        rows = [features[track_id]
                for track_id in map(bags.table.track_ids.__getitem__, bags.rows.tolist())]
    except KeyError as exc:
        raise MissingFeature(f"no features for segment {exc.args[0]!r}") from None
    return np.array(rows, dtype=np.float64), bags.starts


def new_model(cfg: TrainConfig, input_dim: int, n_genres: int) -> MattModel:
    """The configured encoder and aggregator, initialized from cfg.seed."""
    encoder = EncoderConfig(
        input_dim=input_dim, hidden_dims=tuple(cfg.hidden_dims), output_dim=cfg.embedding_dim
    )
    return MattModel(encoder, n_genres=n_genres, aggregator=cfg.aggregator, seed=cfg.seed)


def _bag_accuracy(model: MattModel, packed, golds: np.ndarray) -> float:
    if not len(golds):
        return 0.0
    winners = model.forward_packed(*packed).argmax(axis=1)
    return np.count_nonzero(winners == golds) / len(golds)


def train(bags: BagSet, features: dict[str, np.ndarray], cfg: TrainConfig):
    """Train on split=train bags, early-stopping on split=validation accuracy.

    Both splits are packed once, before the first epoch. Each epoch gathers
    the train rows once in shuffled order; a batch is then a contiguous slice
    of that gather and one packed forward/backward pass. Returns (model,
    train_log); the model carries the best-validation parameters (or the
    final ones when there is no validation split).
    """
    train_bags = bags.split("train")
    val_bags = bags.split("validation")
    n_train = len(train_bags.starts)
    if not n_train:
        raise InvalidConfig("no training bags")
    train_X, train_starts = pack_bags(train_bags, features)
    train_sizes = np.diff(train_starts, append=len(train_X))
    train_golds = train_bags.genre_ids
    val_packed = pack_bags(val_bags, features) if len(val_bags.starts) else None
    val_golds = val_bags.genre_ids
    n_genres = len(bags.table.vocabulary)
    if cfg.class_weighting:
        counts = np.bincount(train_golds, minlength=n_genres).astype(np.float64)
        weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0), 0.0)
        genre_weights = weights * (counts > 0).sum() / weights.sum()
    else:
        genre_weights = None
    model = new_model(cfg, train_X.shape[1], n_genres)
    optimizer = OptimizerState(algorithm=cfg.optimizer, learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    train_log = TrainLog()

    best_values = model.params.flat.copy()
    best_accuracy = -1.0
    stale_epochs = 0

    epoch_X = np.empty_like(train_X)
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(n_train)
        # gather the epoch's rows once, bag after bag in shuffled order, so
        # each batch is a contiguous slice of epoch_X
        sizes = train_sizes[order]
        ends = np.cumsum(sizes)
        bag_starts = ends - sizes
        rows = (train_starts[order] - bag_starts).repeat(sizes) + np.arange(len(train_X))
        # rows are in range; the default mode="raise" would gather through a copy
        np.take(train_X, rows, axis=0, out=epoch_X, mode="clip")
        golds = train_golds[order]
        total_loss = 0.0
        for start in range(0, len(order), cfg.bags_per_batch):
            stop = min(start + cfg.bags_per_batch, len(order))
            first = bag_starts[start]
            probabilities, cache = model.forward_packed(
                epoch_X[first : ends[stop - 1]], bag_starts[start:stop] - first, keep_cache=True
            )
            losses, d_scores = nll_losses(probabilities, golds[start:stop], genre_weights)
            total_loss += float(losses.sum())
            model.backward_packed(cache, d_scores)
            model.params.scale_grads(1.0 / (stop - start))
            optimizer_step(optimizer, model.params)
        mean_loss = total_loss / n_train
        if not np.isfinite(mean_loss):
            raise DivergedError(f"training loss diverged at epoch {epoch}")
        val_accuracy = _bag_accuracy(model, val_packed, val_golds)
        train_log.append(epoch, mean_loss, val_accuracy, time.perf_counter() - started)

        if val_packed is not None:
            if val_accuracy > best_accuracy:
                best_accuracy = val_accuracy
                best_values = model.params.flat.copy()
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= cfg.early_stop_patience:
                    log.info("early stop at epoch %d (best val %.4f)", epoch, best_accuracy)
                    break
        else:
            best_values = model.params.flat.copy()

    model.params.flat[...] = best_values
    return model, train_log


# -- per-bag wrappers: nothing in matt calls them; they exist only because
# perfbench/layers.PROBES wraps each of them by name -- #

def nll_loss(prediction, gold: int):
    """Returns (loss, dLoss/dScores) for -log p[gold] of one bag."""
    losses, d_scores = nll_losses(prediction.probabilities[np.newaxis, :], np.array([gold]))
    return float(losses[0]), d_scores[0]


def bag_feature_matrix(bags: BagSet, features: dict[str, np.ndarray]) -> np.ndarray:
    """The (n_rows, D) member rows of bags, bag after bag."""
    return pack_bags(bags, features)[0]
