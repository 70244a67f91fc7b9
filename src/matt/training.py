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

from .dataset import Bag, BagSet, SegmentTable
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

    With genre_weights, row b is scaled by genre_weights[golds[b]].
    """
    rows = np.arange(len(golds))
    losses = -np.log(np.maximum(probabilities[rows, golds], PROB_FLOOR))
    d_scores = probabilities.copy()
    d_scores[rows, golds] -= 1.0
    if genre_weights is not None:
        scale = genre_weights[golds]
        losses = losses * scale
        d_scores *= scale[:, np.newaxis]
    return losses, d_scores


def pack_bags(bags, features: dict[str, np.ndarray]):
    """Members of bags as one packed float64 matrix, bag after bag.

    Returns ((n_rows, D) features, (B,) first row of each bag). All member
    rows are gathered in one pass; a missing feature row raises
    MissingFeature naming the first such track.
    """
    sizes = np.array([len(b) for b in bags], dtype=np.intp)
    try:
        rows = [features[track_id] for bag in bags for track_id in bag.segment_ids]
    except KeyError as exc:
        raise MissingFeature(f"no features for segment {exc.args[0]!r}") from None
    return np.array(rows, dtype=np.float64), np.cumsum(sizes) - sizes


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

    Both splits are packed once, before the first epoch; each batch is then
    one row gather and one packed forward/backward pass. Returns (model,
    train_log); the model carries the best-validation parameters (or the
    final ones when there is no validation split).
    """
    train_bags = bags.split_bags("train")
    val_bags = bags.split_bags("validation")
    if not train_bags:
        raise InvalidConfig("no training bags")
    train_X, train_starts = pack_bags(train_bags, features)
    train_sizes = np.diff(train_starts, append=len(train_X))
    train_golds = np.array([b.genre_id for b in train_bags])
    val_packed = pack_bags(val_bags, features) if val_bags else None
    val_golds = np.array([b.genre_id for b in val_bags])
    if cfg.class_weighting:
        counts = np.bincount(train_golds, minlength=len(bags.vocabulary)).astype(np.float64)
        weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0), 0.0)
        genre_weights = weights * (counts > 0).sum() / weights.sum()
    else:
        genre_weights = None
    model = new_model(cfg, train_X.shape[1], len(bags.vocabulary))
    optimizer = OptimizerState(algorithm=cfg.optimizer, learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    train_log = TrainLog()

    best_values = model.params.flat.copy()
    best_accuracy = -1.0
    stale_epochs = 0

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(train_bags))
        total_loss = 0.0
        for start in range(0, len(order), cfg.bags_per_batch):
            batch = order[start : start + cfg.bags_per_batch]
            sizes = train_sizes[batch]
            starts = np.cumsum(sizes) - sizes
            # row j of the batch is row j - starts[b] of bag b in train_X
            rows = np.repeat(train_starts[batch] - starts, sizes) + np.arange(sizes.sum())
            probabilities, cache = model.forward_packed(
                train_X[rows], starts, keep_cache=True
            )
            losses, d_scores = nll_losses(probabilities, train_golds[batch], genre_weights)
            total_loss += float(losses.sum())
            model.backward_packed(cache, d_scores)
            model.params.scale_grads(1.0 / len(batch))
            optimizer_step(optimizer, model.params)
        mean_loss = total_loss / len(train_bags)
        if not np.isfinite(mean_loss):
            raise DivergedError(f"training loss diverged at epoch {epoch}")
        val_accuracy = _bag_accuracy(model, val_packed, val_golds)
        train_log.append(epoch, mean_loss, val_accuracy, time.perf_counter() - started)

        if val_bags:
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


def singleton_bagset(table: SegmentTable) -> BagSet:
    """Every segment as its own bag: the segment-level (no-bagging) view."""
    bags = tuple(
        Bag(key=(rec.artist_id, rec.album_id, rec.split), segment_ids=(rec.track_id,),
            genre_id=rec.genre_id)
        for rec in sorted(table.records, key=lambda r: r.track_id)
    )
    return BagSet(bags=bags, vocabulary=table.vocabulary)


def train_segment_baseline(table: SegmentTable, features, cfg: TrainConfig):
    """Plain per-segment training: train() over singleton bags."""
    return train(singleton_bagset(table), features, cfg)


# -- per-bag wrappers: nothing in matt calls them; they exist only because
# perfbench/layers.PROBES wraps each of them by name -- #

def nll_loss(prediction, gold: int):
    """Returns (loss, dLoss/dScores) for -log p[gold] of one bag."""
    p = prediction.probabilities
    if not 0 <= gold < p.shape[0]:
        raise InvalidConfig(f"gold genre {gold} out of range for {p.shape[0]} genres")
    losses, d_scores = nll_losses(p[np.newaxis, :], np.array([gold]))
    return float(losses[0]), d_scores[0]


def bag_feature_matrix(bag: Bag, features: dict[str, np.ndarray]) -> np.ndarray:
    """One bag's (m, D) member rows."""
    return pack_bags([bag], features)[0]
