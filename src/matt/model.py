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
from .numeric import ParamStore, softmax, softmax_backward, weighted_sum, xavier_uniform


@dataclass(frozen=True)
class EncoderConfig:
    """MLP encoder: tanh hidden layers, affine (no activation) final layer.

    hidden_dims=() gives a single affine map, the logistic-regression-shaped
    baseline encoder.
    """

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    output_dim: int = 16

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d <= 0 for d in dims):
            raise InvalidConfig(f"encoder dims must be positive, got {dims}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


@dataclass(frozen=True)
class BagPrediction:
    probabilities: np.ndarray  # (G,), strictly positive, sums to 1
    attention_weights: np.ndarray  # (m,), strictly positive, sums to 1
    bag_representation: np.ndarray  # (d,)


@dataclass
class ForwardCache:
    """Intermediates needed by the backward pass for one bag."""

    features: np.ndarray
    activations: list
    embeddings: np.ndarray
    att_pre: np.ndarray | None
    att_tanh: np.ndarray | None
    weights: np.ndarray
    representation: np.ndarray
    probabilities: np.ndarray


class MattModel:
    """Encoder + attention head + genre scorer over a shared ParamStore.

    aggregator "matt" uses learned attention weights; "mean" averages members
    uniformly (the attention-free bagging baseline). Parameter names are
    fixed so checkpoints identify the architecture unambiguously.
    """

    def __init__(
        self,
        encoder: EncoderConfig,
        n_genres: int,
        aggregator: str = "matt",
        seed: int = 0,
    ):
        if aggregator not in ("matt", "mean"):
            raise InvalidConfig(f"unknown aggregator {aggregator!r}")
        if n_genres < 2:
            raise InvalidConfig(f"need at least 2 genres, got {n_genres}")
        self.encoder = encoder
        self.n_genres = n_genres
        self.aggregator = aggregator
        self.params = ParamStore()
        d = encoder.output_dim
        for i, (rows, cols) in enumerate(encoder.layer_dims):
            self.params.add(f"enc_w{i}", xavier_uniform(rows, cols, seed * 1000 + 2 * i))
            self.params.add(f"enc_b{i}", np.zeros(rows))
        self.params.add("att_w", xavier_uniform(1, 2 * d, seed * 1000 + 101))
        self.params.add("att_b", np.zeros(1))
        self.params.add("att_q", xavier_uniform(d, 1, seed * 1000 + 103))
        self.params.add("out_m", xavier_uniform(n_genres, d, seed * 1000 + 105))

    @property
    def n_layers(self) -> int:
        return len(self.encoder.layer_dims)

    # -- forward -- #

    def encode(self, features: np.ndarray):
        """Embed (m, input_dim) rows; returns (activations, (m, d) embeddings)."""
        if features.ndim != 2 or features.shape[1] != self.encoder.input_dim:
            raise ShapeError(
                f"features shape {features.shape} != (m, {self.encoder.input_dim})"
            )
        h = features
        activations = [h]
        last = self.n_layers - 1
        for i in range(self.n_layers):
            w = self.params.values[f"enc_w{i}"]
            b = self.params.values[f"enc_b{i}"]
            z = h @ w.T + b
            h = z if i == last else np.tanh(z)
            activations.append(h)
        return activations, h

    def attention_weights(self, embeddings: np.ndarray):
        """Softmax attention over members; returns (pre_tanh, tanh, weights)."""
        m = embeddings.shape[0]
        if m == 0:
            raise EmptyBag("attention over an empty bag")
        w = self.params.values["att_w"][0]
        d = self.encoder.output_dim
        q = self.params.values["att_q"][:, 0]
        pre = embeddings @ w[:d] + w[d:] @ q
        squashed = np.tanh(pre)
        logits = squashed + self.params.values["att_b"][0]
        return pre, squashed, softmax(logits)

    def genre_scores(self, representation: np.ndarray):
        scores = self.params.values["out_m"] @ representation
        return scores, softmax(scores)

    def forward_bag(self, features: np.ndarray, keep_cache: bool = False):
        """Full pass over a (m, input_dim) bag; returns BagPrediction (+cache)."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise EmptyBag(f"bag features must be (m, input_dim), got {features.shape}")
        activations, embeddings = self.encode(features)
        m = features.shape[0]
        if self.aggregator == "matt":
            pre, squashed, weights = self.attention_weights(embeddings)
        else:
            pre, squashed, weights = None, None, np.full(m, 1.0 / m)
        representation = weighted_sum(weights, embeddings)
        _, probabilities = self.genre_scores(representation)
        prediction = BagPrediction(
            probabilities=probabilities,
            attention_weights=weights,
            bag_representation=representation,
        )
        if not keep_cache:
            return prediction
        cache = ForwardCache(
            features=features,
            activations=activations,
            embeddings=embeddings,
            att_pre=pre,
            att_tanh=squashed,
            weights=weights,
            representation=representation,
            probabilities=probabilities,
        )
        return prediction, cache

    def predict_segment(self, features: np.ndarray) -> BagPrediction:
        """Score one segment with no bag metadata: a singleton bag."""
        features = np.asarray(features, dtype=np.float64)
        return self.forward_bag(features[np.newaxis, :])

    # -- backward -- #

    def backward_bag(self, cache: ForwardCache, d_scores: np.ndarray):
        """Accumulate parameter gradients given dLoss/dScores for one bag."""
        p = self.params
        d_repr = p.values["out_m"].T @ d_scores
        p.add_grad("out_m", np.outer(d_scores, cache.representation))

        embeddings = cache.embeddings
        weights = cache.weights
        d_embeddings = np.outer(weights, d_repr)
        if self.aggregator == "matt":
            d_weights = embeddings @ d_repr
            d_logits = softmax_backward(d_weights, weights)
            p.add_grad("att_b", np.array([d_logits.sum()]))
            d_pre = d_logits * (1.0 - cache.att_tanh**2)
            d = self.encoder.output_dim
            w = p.values["att_w"][0]
            q = p.values["att_q"][:, 0]
            d_w = np.concatenate([embeddings.T @ d_pre, d_pre.sum() * q])
            p.add_grad("att_w", d_w[np.newaxis, :])
            p.add_grad("att_q", (d_pre.sum() * w[d:])[:, np.newaxis])
            d_embeddings = d_embeddings + np.outer(d_pre, w[:d])

        # encoder backward, last affine layer first
        d_h = d_embeddings
        for i in range(self.n_layers - 1, -1, -1):
            if i != self.n_layers - 1:
                d_h = d_h * (1.0 - cache.activations[i + 1] ** 2)
            p.add_grad(f"enc_w{i}", d_h.T @ cache.activations[i])
            p.add_grad(f"enc_b{i}", d_h.sum(axis=0))
            d_h = d_h @ self.params.values[f"enc_w{i}"]
        return d_h  # gradient wrt input features, useful for diagnostics

    # -- batched singleton path -- #
    #
    # A bag of one member has attention weight exactly 1, so its attention
    # parameters receive zero gradient and the bag representation is the
    # embedding itself. That lets many singleton bags share one batched
    # forward/backward, which is what makes segment-level training cheap.

    def forward_singletons(self, features: np.ndarray):
        """(B, input_dim) -> (activations, embeddings, per-row probabilities)."""
        activations, embeddings = self.encode(np.asarray(features, dtype=np.float64))
        scores = embeddings @ self.params.values["out_m"].T
        shifted = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probabilities = e / e.sum(axis=1, keepdims=True)
        return activations, embeddings, probabilities

    def backward_singletons(self, activations, embeddings, d_scores: np.ndarray):
        """Accumulate gradients for a batch of singleton bags.

        d_scores is (B, G), one row of dLoss/dScores per bag; each bag
        contributes its gradient exactly as the per-bag path would.
        """
        p = self.params
        p.add_grad("out_m", d_scores.T @ embeddings)
        d_h = d_scores @ p.values["out_m"]
        for i in range(self.n_layers - 1, -1, -1):
            if i != self.n_layers - 1:
                d_h = d_h * (1.0 - activations[i + 1] ** 2)
            p.add_grad(f"enc_w{i}", d_h.T @ activations[i])
            p.add_grad(f"enc_b{i}", d_h.sum(axis=0))
            d_h = d_h @ p.values[f"enc_w{i}"]
        return d_h

    # -- persistence -- #

    def load_params(self, raw: dict[str, np.ndarray]):
        self.params.load_values(raw)
