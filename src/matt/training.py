"""Bag-level supervised training with negative log-likelihood loss.

Bags are shuffled each epoch by a seeded PRNG, batches average per-bag
gradients, and the checkpoint with the best validation accuracy is retained
(early stopping on patience). Given the same data, config, and seed the
returned parameters are bit-identical run to run.
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


def nll_loss(prediction, gold: int):
    """Returns (loss, dLoss/dScores) for -log p[gold]."""
    p = prediction.probabilities
    if not 0 <= gold < p.shape[0]:
        raise InvalidConfig(f"gold genre {gold} out of range for {p.shape[0]} genres")
    loss = -np.log(max(p[gold], PROB_FLOOR))
    d_scores = p.copy()
    d_scores[gold] -= 1.0
    return float(loss), d_scores


def bag_feature_matrix(bag: Bag, features: dict[str, np.ndarray]) -> np.ndarray:
    rows = []
    for track_id in bag.segment_ids:
        if track_id not in features:
            raise MissingFeature(f"no features for segment {track_id!r}")
        rows.append(np.asarray(features[track_id], dtype=np.float64))
    return np.stack(rows)


def _bag_accuracy(model: MattModel, bags, features) -> float:
    if not bags:
        return 0.0
    singles = [b for b in bags if len(b) == 1]
    larger = [b for b in bags if len(b) > 1]
    correct = 0
    if singles:
        X = np.stack([features[b.segment_ids[0]] for b in singles]).astype(np.float64)
        _, _, probs = model.forward_singletons(X)
        winners = probs.argmax(axis=1)
        correct += int(sum(winners[i] == b.genre_id for i, b in enumerate(singles)))
    for bag in larger:
        pred = model.forward_bag(bag_feature_matrix(bag, features))
        if int(np.argmax(pred.probabilities)) == bag.genre_id:
            correct += 1
    return correct / len(bags)


def train(bags: BagSet, features: dict[str, np.ndarray], cfg: TrainConfig):
    """Train on split=train bags, early-stopping on split=validation accuracy.

    Returns (model, train_log); the model carries the best-validation
    parameters (or the final ones when there is no validation split).
    """
    train_bags = bags.split_bags("train")
    val_bags = bags.split_bags("validation")
    if not train_bags:
        raise InvalidConfig("no training bags")
    if cfg.class_weighting:
        counts = np.bincount(
            [b.genre_id for b in train_bags], minlength=len(bags.vocabulary)
        ).astype(np.float64)
        weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0), 0.0)
        genre_weights = weights * (counts > 0).sum() / weights.sum()
    else:
        genre_weights = None
    input_dim = bag_feature_matrix(train_bags[0], features).shape[1]
    encoder = EncoderConfig(
        input_dim=input_dim,
        hidden_dims=tuple(cfg.hidden_dims),
        output_dim=cfg.embedding_dim,
    )
    model = MattModel(
        encoder, n_genres=len(bags.vocabulary), aggregator=cfg.aggregator, seed=cfg.seed
    )
    optimizer = OptimizerState(algorithm=cfg.optimizer, learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    train_log = TrainLog()

    best_values = {k: v.copy() for k, v in model.params.values.items()}
    best_accuracy = -1.0
    stale_epochs = 0

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        order = rng.permutation(len(train_bags))
        total_loss = 0.0
        for start in range(0, len(order), cfg.bags_per_batch):
            batch = order[start : start + cfg.bags_per_batch]
            single_idx = [i for i in batch if len(train_bags[i]) == 1]
            multi_idx = [i for i in batch if len(train_bags[i]) > 1]
            if single_idx:
                X = np.stack(
                    [
                        bag_feature_matrix(train_bags[i], features)[0]
                        for i in single_idx
                    ]
                )
                activations, embeddings, probs = model.forward_singletons(X)
                golds = np.array([train_bags[i].genre_id for i in single_idx])
                picked = np.maximum(probs[np.arange(len(golds)), golds], PROB_FLOOR)
                losses = -np.log(picked)
                d_scores = probs.copy()
                d_scores[np.arange(len(golds)), golds] -= 1.0
                if genre_weights is not None:
                    scale = genre_weights[golds]
                    losses = losses * scale
                    d_scores *= scale[:, np.newaxis]
                total_loss += float(losses.sum())
                model.backward_singletons(activations, embeddings, d_scores)
            for bag_index in multi_idx:
                bag = train_bags[bag_index]
                prediction, cache = model.forward_bag(
                    bag_feature_matrix(bag, features), keep_cache=True
                )
                loss, d_scores = nll_loss(prediction, bag.genre_id)
                if genre_weights is not None:
                    loss *= genre_weights[bag.genre_id]
                    d_scores *= genre_weights[bag.genre_id]
                total_loss += loss
                model.backward_bag(cache, d_scores)
            model.params.scale_grads(1.0 / len(batch))
            optimizer_step(optimizer, model.params)
        mean_loss = total_loss / len(train_bags)
        if not np.isfinite(mean_loss):
            raise DivergedError(f"training loss diverged at epoch {epoch}")
        val_accuracy = _bag_accuracy(model, val_bags, features)
        train_log.append(epoch, mean_loss, val_accuracy, time.perf_counter() - started)

        if val_bags:
            if val_accuracy > best_accuracy:
                best_accuracy = val_accuracy
                best_values = {k: v.copy() for k, v in model.params.values.items()}
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= cfg.early_stop_patience:
                    log.info("early stop at epoch %d (best val %.4f)", epoch, best_accuracy)
                    break
        else:
            best_values = {k: v.copy() for k, v in model.params.values.items()}

    model.params.load_values(best_values)
    return model, train_log


def singleton_bagset(table: SegmentTable) -> BagSet:
    """Every segment as its own bag: the segment-level (no-bagging) view."""
    bags = tuple(
        Bag(key=(rec.artist_id, rec.album_id, rec.split), segment_ids=(rec.track_id,),
            genre_id=rec.genre_id)
        for rec in sorted(table.records, key=lambda r: r.track_id)
    )
    return BagSet(bags=bags, vocabulary=table.vocabulary, provenance="singletons")


def train_segment_baseline(table: SegmentTable, features, cfg: TrainConfig):
    """Plain per-segment training: train() over singleton bags."""
    return train(singleton_bagset(table), features, cfg)
