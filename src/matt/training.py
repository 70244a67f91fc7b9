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
from .errors import DivergedError, EmptyBag, InvalidConfig
from .model import AGGREGATORS, MattModel
from .numeric import OPTIMIZERS, OptimizerState, optimizer_step

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class TrainConfig:
    """Conventional defaults; tune per dataset (see benchmark for an example).
    Every value is checked here, when the config is made."""

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
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.early_stop_patience < 1:
            raise InvalidConfig(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise InvalidConfig(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")
        if self.aggregator not in AGGREGATORS:
            raise InvalidConfig(f"unknown aggregator {self.aggregator!r}")
        dims = (*self.hidden_dims, self.embedding_dim)
        if any(d <= 0 for d in dims):
            raise InvalidConfig(f"encoder dims must be positive, got {dims}")


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

    With genre_weights, row b is scaled by genre_weights[golds[b]]. Golds are
    ids in [0, G), which BagSet checks where the labels enter.
    """
    picks = np.arange(len(golds)) * probabilities.shape[1] + golds
    scale = None if genre_weights is None else genre_weights[golds]
    return nll_in_place(probabilities.copy(), picks, scale)


def nll_in_place(probabilities: np.ndarray, picks: np.ndarray, scale=None):
    """nll_losses with each row's gold as a flat index into the contiguous
    (B, G) probabilities, picks[b] = b * G + gold, and each row's weight in
    scale (or None). dLoss/dScores is written over probabilities and returned.
    """
    flat = probabilities.reshape(-1)
    picked = flat[picks]
    losses = -np.log(np.maximum(picked, PROB_FLOOR))
    flat[picks] = picked - 1.0
    if scale is not None:
        losses = losses * scale
        probabilities *= scale[:, np.newaxis]
    return losses, probabilities


def pack_bags(bags: BagSet, X: np.ndarray):
    """Members of bags as one packed float64 matrix, bag after bag.

    X holds one feature row per row of bags.table (dataset.align_features).
    Returns ((n_rows, D) features, (B,) first row of each bag).
    """
    return X[bags.rows].astype(np.float64), bags.starts


def new_model(cfg: TrainConfig, input_dim: int, n_genres: int) -> MattModel:
    """The configured encoder and aggregator, initialized from cfg.seed."""
    return MattModel(input_dim, n_genres, hidden_dims=tuple(cfg.hidden_dims),
                     embedding_dim=cfg.embedding_dim, aggregator=cfg.aggregator,
                     seed=cfg.seed)


def _bag_accuracy(model: MattModel, packed, golds: np.ndarray) -> float:
    if not len(golds):
        return 0.0
    winners = model.forward_packed(*packed).argmax(axis=1)
    return np.count_nonzero(winners == golds) / len(golds)


def step_plan(starts: np.ndarray, n_rows: int, golds: np.ndarray, bags_per_batch: int,
              n_genres: int, genre_weights=None):
    """One epoch's batches of packed bags, worked out in one vectorized pass.

    starts, golds: each bag's first row and label in the epoch's pack of
    n_rows rows. Batch k holds bags [k * bags_per_batch, (k + 1) * bags_per_batch).
    Returns one (first row, end row, local starts, sizes, picks, scale) tuple
    per batch: picks are the flat gold indices nll_in_place reads, and scale
    the rows' genre weights (None without genre_weights). Raises EmptyBag if
    any bag is empty, so the batches run forward_sized unchecked.
    """
    n_bags = len(starts)
    sizes = np.diff(starts, append=n_rows)
    if n_bags and sizes.min() <= 0:
        raise EmptyBag(f"epoch bag {int(np.argmin(sizes))} has no rows")
    first_bags = np.arange(0, n_bags, bags_per_batch)
    local_starts = starts - starts[first_bags].repeat(np.diff(first_bags, append=n_bags))
    picks = np.arange(n_bags) % bags_per_batch * n_genres + golds
    scales = None if genre_weights is None else genre_weights[golds]
    # slices, not np.split: one slice is a fraction of a microsecond
    bounds = [*first_bags.tolist(), n_bags]
    rows = [*starts[first_bags].tolist(), n_rows]
    return [
        (rows[k], rows[k + 1], local_starts[a:b], sizes[a:b], picks[a:b],
         None if scales is None else scales[a:b])
        for k, (a, b) in enumerate(zip(bounds, bounds[1:]))
    ]


def train(bags: BagSet, X: np.ndarray, cfg: TrainConfig):
    """Train on split=train bags, early-stopping on split=validation accuracy.

    X is aligned to bags.table. The validation split is packed once, before
    the first epoch. Each epoch packs the train bags once, in shuffled order
    (train_bags.take) and works out its step_plan; a batch is then a
    contiguous slice of that pack and one packed forward/backward pass.
    Returns (model, train_log); the model carries the best-validation
    parameters (or the final ones when there is no validation split).
    """
    train_bags = bags.split("train")
    val_bags = bags.split("validation")
    n_train = len(train_bags.starts)
    if not n_train:
        raise InvalidConfig("no training bags")
    val_packed = pack_bags(val_bags, X) if len(val_bags.starts) else None
    val_golds = val_bags.genre_ids
    n_genres = len(bags.table.vocabulary)
    if cfg.class_weighting:
        counts = np.bincount(train_bags.genre_ids, minlength=n_genres).astype(np.float64)
        weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0), 0.0)
        genre_weights = weights * (counts > 0).sum() / weights.sum()
    else:
        genre_weights = None
    model = new_model(cfg, X.shape[1], n_genres)
    optimizer = OptimizerState(algorithm=cfg.optimizer, learning_rate=cfg.learning_rate)
    rng = np.random.default_rng(cfg.seed)
    train_log = TrainLog()

    best_values = model.params.flat.copy()
    best_accuracy = -1.0
    stale_epochs = 0

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        epoch_bags = train_bags.take(rng.permutation(n_train))
        epoch_X, starts = pack_bags(epoch_bags, X)
        plan = step_plan(starts, len(epoch_X), epoch_bags.genre_ids, cfg.bags_per_batch,
                         n_genres, genre_weights)
        total_loss = 0.0
        for first, end, batch_starts, sizes, picks, scale in plan:
            probabilities, cache = model.forward_sized(
                epoch_X[first:end], batch_starts, sizes, keep_cache=True
            )
            losses, d_scores = nll_in_place(probabilities, picks, scale)
            total_loss += float(losses.sum())
            model.backward_packed(cache, d_scores)
            model.params.scale_grads(1.0 / len(sizes))
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


def bag_feature_matrix(bags: BagSet, X: np.ndarray) -> np.ndarray:
    """The (n_rows, D) member rows of bags, bag after bag."""
    return pack_bags(bags, X)[0]
