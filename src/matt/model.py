"""Bag classifier: pluggable MLP encoder, selective attention over bag
members, and genre scoring.

Per bag member k with embedding s_k, the attention logit is
e_k = tanh(w . [s_k; q]) + b with a single learned query q, so logits live in
[b - 1, b + 1] and the softmax weights can never differ by more than a factor
of e^2. The bag representation is the weighted sum of member embeddings and
is scored by a genre matrix. All gradients are written by hand and verified
against finite differences; forward passes on a fixed parameter snapshot are
safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBag, InvalidConfig, ShapeError
from .numeric import ParamStore, softmax, xavier_uniform

AGGREGATORS = ("matt", "mean")


@dataclass(frozen=True)
class BagPrediction:
    probabilities: np.ndarray  # (G,), strictly positive, sums to 1
    attention_weights: np.ndarray  # (m,), strictly positive, sums to 1
    bag_representation: np.ndarray  # (d,)


class MattModel:
    """Encoder + attention head + genre scorer over a shared ParamStore.

    The encoder is an MLP from input_dim through hidden_dims to
    embedding_dim: tanh hidden layers and an affine (no activation) final
    layer, so hidden_dims=() gives a single affine map, the
    logistic-regression-shaped baseline encoder. Aggregator "matt" uses
    learned attention weights; "mean" averages members uniformly (the
    attention-free bagging baseline). Parameter names are fixed so
    checkpoints identify the architecture unambiguously.

    Every pass runs on a packed batch: the members of B bags stacked as
    consecutive rows of one (n_rows, input_dim) matrix, plus each bag's first
    row in `starts`. Per-bag softmax and pooling are segment reductions
    (np.maximum.reduceat / np.add.reduceat), so a batch costs one matmul per
    layer whatever its bag sizes.
    """

    def __init__(self, input_dim: int, n_genres: int, hidden_dims: tuple[int, ...] = (),
                 embedding_dim: int = 16, aggregator: str = "matt", seed: int = 0):
        if aggregator not in AGGREGATORS:
            raise InvalidConfig(f"unknown aggregator {aggregator!r}")
        if n_genres < 2:
            raise InvalidConfig(f"need at least 2 genres, got {n_genres}")
        if seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {seed}")
        self.input_dim = input_dim
        self.embedding_dim = d = embedding_dim
        self.n_genres = n_genres
        self.aggregator = aggregator
        dims = (input_dim, *hidden_dims, embedding_dim)
        self.n_layers = len(dims) - 1
        # (weight, bias) parameter names per encoder layer, named once here
        self.layer_names = tuple((f"enc_w{i}", f"enc_b{i}") for i in range(self.n_layers))
        self.params = ParamStore()
        for i, (w_name, b_name) in enumerate(self.layer_names):
            self.params.add(w_name, xavier_uniform(dims[i + 1], dims[i], seed * 1000 + 2 * i))
            self.params.add(b_name, np.zeros(dims[i + 1]))
        self.params.add("att_w", xavier_uniform(1, 2 * d, seed * 1000 + 101))
        self.params.add("att_b", np.zeros(1))
        self.params.add("att_q", xavier_uniform(d, 1, seed * 1000 + 103))
        self.params.add("out_m", xavier_uniform(n_genres, d, seed * 1000 + 105))

    # -- forward -- #

    def encode(self, features: np.ndarray):
        """Embed (m, input_dim) rows; returns (activations, (m, d) embeddings)."""
        if features.ndim != 2 or features.shape[1] != self.input_dim:
            raise ShapeError(f"features shape {features.shape} != (m, {self.input_dim})")
        values = self.params.values
        h = features
        activations = [h]
        last = self.n_layers - 1
        for i, (w_name, b_name) in enumerate(self.layer_names):
            z = h @ values[w_name].T + values[b_name]
            h = z if i == last else np.tanh(z)
            activations.append(h)
        return activations, h

    def attention_weights(self, embeddings: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        """Per-bag softmax attention over packed members; sizes[b] is the row
        count of the bag starting at starts[b].

        Returns (tanh, weights): the squashed logit of each row (None for the
        mean aggregator) and its (n_rows,) weight; weights sum to 1 per bag.
        """
        if self.aggregator == "mean":
            return None, (1.0 / sizes).repeat(sizes)
        w = self.params.values["att_w"][0]
        d = self.embedding_dim
        q = self.params.values["att_q"][:, 0]
        squashed = np.tanh(embeddings @ w[:d] + w[d:] @ q)
        logits = squashed + self.params.values["att_b"][0]
        e = np.exp(logits - np.maximum.reduceat(logits, starts).repeat(sizes))
        return squashed, e / np.add.reduceat(e, starts).repeat(sizes)

    def genre_scores(self, representations: np.ndarray) -> np.ndarray:
        """(B, d) bag representations -> (B, G) genre probabilities."""
        return softmax(representations @ self.params.values["out_m"].T)

    def forward_packed(self, features: np.ndarray, starts, keep_cache: bool = False):
        """Score B packed bags; returns (B, G) probabilities (+cache).

        starts must rise strictly from 0 and stay below n_rows, so no bag is
        empty; otherwise EmptyBag is raised. The cache holds what
        backward_packed needs, among it the (n_rows,) attention weights and
        the (B, d) bag representations.
        """
        features = np.asarray(features, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.intp)
        ok = features.ndim == 2 and starts.ndim == 1 and starts.size and starts[0] == 0
        if ok:
            sizes = np.empty_like(starts)
            np.subtract(starts[1:], starts[:-1], out=sizes[:-1])
            sizes[-1] = len(features) - starts[-1]
        if not ok or sizes.min() <= 0:
            raise EmptyBag(
                f"{features.shape} features with bag starts {starts[:8]} hold an empty bag"
            )
        return self.forward_sized(features, starts, sizes, keep_cache)

    def forward_sized(self, features: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                      keep_cache: bool = False):
        """forward_packed on bags already checked: float64 features, intp
        starts from 0 and each bag's row count sizes[b] >= 1, summing to
        n_rows. Nothing is checked here; train checks a whole epoch at once.

        A batch with one bag per row holds only one-member bags, whose
        weight is exactly 1 under either aggregator: it skips attention and
        pooling, and its representations are its embeddings.
        """
        activations, embeddings = self.encode(features)
        if len(starts) == len(embeddings):
            squashed, weights, representations = None, np.ones(len(starts)), embeddings
        else:
            squashed, weights = self.attention_weights(embeddings, starts, sizes)
            representations = np.add.reduceat(weights[:, np.newaxis] * embeddings, starts)
        probabilities = self.genre_scores(representations)
        if not keep_cache:
            return probabilities
        cache = {
            "starts": starts,
            "sizes": sizes,
            "activations": activations,
            "squashed": squashed,
            "weights": weights,
            "representations": representations,
        }
        return probabilities, cache

    # -- backward -- #

    def backward_packed(self, cache: dict, d_scores: np.ndarray):
        """Accumulate parameter gradients given (B, G) dLoss/dScores, one row per bag.

        Over one-member bags (one bag per row) pooling is the identity and
        the attention gradients are exactly 0, so only the encoder and out_m
        receive gradients.
        """
        values = self.params.values
        grads = self.params.grads
        starts = cache["starts"]
        sizes = cache["sizes"]
        weights = cache["weights"]
        activations = cache["activations"]
        embeddings = activations[-1]
        grads["out_m"] += d_scores.T @ cache["representations"]
        d_repr = d_scores @ values["out_m"]
        singletons = len(starts) == len(embeddings)
        if singletons:
            d_embeddings = d_repr
        else:
            # each member row receives its bag's dLoss/dRepresentation
            d_repr = d_repr.repeat(sizes, axis=0)
            d_embeddings = weights[:, np.newaxis] * d_repr
        if self.aggregator == "matt" and not singletons:
            d_weights = np.einsum("ij,ij->i", embeddings, d_repr)
            # softmax backward within each bag
            bag_dot = np.add.reduceat(weights * d_weights, starts)
            d_logits = weights * (d_weights - bag_dot.repeat(sizes))
            grads["att_b"] += d_logits.sum()
            d_pre = d_logits * (1.0 - cache["squashed"] ** 2)
            d_pre_sum = d_pre.sum()
            d = self.embedding_dim
            w = values["att_w"][0]
            d_w = grads["att_w"][0]
            d_w[:d] += embeddings.T @ d_pre
            d_w[d:] += d_pre_sum * values["att_q"][:, 0]
            grads["att_q"][:, 0] += d_pre_sum * w[d:]
            d_embeddings += d_pre[:, np.newaxis] * w[:d]

        # encoder backward, last affine layer first
        d_h = d_embeddings
        for i in range(self.n_layers - 1, -1, -1):
            w_name, b_name = self.layer_names[i]
            if i != self.n_layers - 1:
                d_h *= 1.0 - activations[i + 1] ** 2
            grads[w_name] += d_h.T @ activations[i]
            grads[b_name] += d_h.sum(axis=0)
            if i:
                d_h = d_h @ values[w_name]

    # -- per-bag wrappers: nothing in matt calls them; they exist only because
    # perfbench/layers.PROBES wraps each of them by name -- #

    def forward_bag(self, features: np.ndarray, keep_cache: bool = False):
        """Full pass over a (m, input_dim) bag, a packed batch of one; returns
        BagPrediction (+cache for backward_bag)."""
        probabilities, cache = self.forward_packed(features, [0], keep_cache=True)
        prediction = BagPrediction(
            probabilities=probabilities[0],
            attention_weights=cache["weights"],
            bag_representation=cache["representations"][0],
        )
        return (prediction, cache) if keep_cache else prediction

    def predict_segment(self, features: np.ndarray) -> BagPrediction:
        """Score one segment with no bag metadata: a singleton bag."""
        features = np.asarray(features, dtype=np.float64)
        return self.forward_bag(features[np.newaxis, :])

    def backward_bag(self, cache: dict, d_scores: np.ndarray):
        """Accumulate parameter gradients given dLoss/dScores (G,) for one bag."""
        self.backward_packed(cache, d_scores[np.newaxis, :])

    def forward_singletons(self, features: np.ndarray):
        """(B, input_dim) -> (activations, embeddings, per-row probabilities)."""
        probs, cache = self.forward_packed(features, np.arange(len(features)), keep_cache=True)
        return cache["activations"], cache["activations"][-1], probs

    def backward_singletons(self, activations, embeddings, d_scores: np.ndarray):
        """Accumulate gradients for a batch of singleton bags (attention weight 1)."""
        n = len(d_scores)
        cache = {"starts": np.arange(n), "sizes": np.ones(n, dtype=np.intp),
                 "activations": activations, "squashed": np.zeros(n),
                 "weights": np.ones(n), "representations": embeddings}
        self.backward_packed(cache, d_scores)

    # -- persistence -- #

    def load_params(self, raw: dict[str, np.ndarray]):
        self.params.load_values(raw)
