"""Property tests for the packed ragged-bag engine (MattModel.forward_packed /
backward_packed) against a per-bag reference written out below in plain
numpy, independent of matt.model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.model import EncoderConfig, MattModel
from matt.training import nll_in_place, nll_losses

RTOL = 1e-12


def reference_bag(params, X, aggregator, gold, scale=1.0):
    """One bag: (probabilities, loss, gradients, magnitudes) of scale * -log p[gold].

    magnitudes is the same backward pass run on absolute values: each entry
    is the sum of the magnitudes of the terms its gradient adds up, the scale
    that the gradient's rounding error grows with.
    """
    n_layers = sum(1 for k in params if k.startswith("enc_w"))
    activations = [X]
    h = X
    for i in range(n_layers):
        h = h @ params[f"enc_w{i}"].T + params[f"enc_b{i}"]
        if i < n_layers - 1:
            h = np.tanh(h)
        activations.append(h)
    m, d = h.shape
    w = params["att_w"][0]
    q = params["att_q"][:, 0]
    squashed = None
    if aggregator == "matt":
        squashed = np.tanh(h @ w[:d] + w[d:] @ q)
        logits = squashed + params["att_b"][0]
        a = np.exp(logits - logits.max())
        a /= a.sum()
    else:
        a = np.full(m, 1.0 / m)
    scores = params["out_m"] @ (h.T @ a)
    p = np.exp(scores - scores.max())
    p /= p.sum()
    loss = -scale * np.log(p[gold])

    d_scores = scale * (p - np.eye(len(p))[gold])
    grads = reference_backward(params, activations, a, squashed, d_scores)
    magnitudes = reference_backward(
        {k: np.abs(v) for k, v in params.items()},
        [np.abs(act) for act in activations],
        a,
        squashed,
        np.abs(d_scores),
        sign=-1.0,
    )
    return p, loss, grads, magnitudes


def reference_backward(params, activations, a, squashed, d_scores, sign=1.0):
    """Gradients of one bag from its dLoss/dScores; squashed is None for the
    mean aggregator. With sign=-1 the one difference of terms becomes a sum."""
    n_layers = len(activations) - 1
    h = activations[-1]
    d = h.shape[1]
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["out_m"] = np.outer(d_scores, h.T @ a)
    d_repr = params["out_m"].T @ d_scores
    d_h = np.outer(a, d_repr)
    if squashed is not None:
        w = params["att_w"][0]
        q = params["att_q"][:, 0]
        d_a = h @ d_repr
        d_logits = a * (d_a - sign * (a @ d_a))
        grads["att_b"] = np.array([d_logits.sum()])
        d_pre = d_logits * (1.0 - squashed**2)
        grads["att_w"] = np.concatenate([h.T @ d_pre, d_pre.sum() * q])[np.newaxis, :]
        grads["att_q"] = (d_pre.sum() * w[d:])[:, np.newaxis]
        d_h = d_h + np.outer(d_pre, w[:d])
    for i in range(n_layers - 1, -1, -1):
        if i < n_layers - 1:
            d_h = d_h * (1.0 - activations[i + 1] ** 2)
        grads[f"enc_w{i}"] = d_h.T @ activations[i]
        grads[f"enc_b{i}"] = d_h.sum(axis=0)
        d_h = d_h @ params[f"enc_w{i}"]
    return grads


@st.composite
def batches(draw, max_size=12):
    """A model and a packed batch of ragged bags."""
    sizes = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=6))
    hidden = draw(st.sampled_from([(), (draw(st.integers(1, 6)),)]))
    aggregator = draw(st.sampled_from(["matt", "mean"]))
    input_dim = draw(st.integers(1, 5))
    n_genres = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    model = MattModel(
        EncoderConfig(input_dim=input_dim, hidden_dims=hidden,
                      output_dim=draw(st.integers(1, 4))),
        n_genres=n_genres,
        aggregator=aggregator,
        seed=seed % 97,
    )
    X = rng.standard_normal((sum(sizes), input_dim)) * rng.uniform(0.1, 5.0)
    starts = np.cumsum(sizes) - sizes
    golds = rng.integers(0, n_genres, size=len(sizes))
    genre_weights = draw(st.sampled_from([None, rng.uniform(0.2, 3.0, size=n_genres)]))
    return model, X, starts, golds, genre_weights


def bag_slices(starts, n_rows):
    bounds = np.append(starts, n_rows)
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def assert_close(actual, expected, what, scale=None):
    """Largest gap within RTOL of the largest entry of scale (default expected)."""
    gap = np.max(np.abs(actual - expected))
    bound = RTOL * np.max(np.abs(expected if scale is None else scale))
    assert gap <= bound, f"{what}: gap {gap:.3e}"


@settings(max_examples=60, deadline=None)
@given(batches())
def test_packed_pass_equals_the_per_bag_reference(batch):
    model, X, starts, golds, genre_weights = batch
    model.params.zero_grads()
    probabilities, cache = model.forward_packed(X, starts, keep_cache=True)
    losses, d_scores = nll_losses(probabilities, golds, genre_weights)
    model.backward_packed(cache, d_scores)

    params = model.params.values
    expected_grads = {k: np.zeros_like(v) for k, v in params.items()}
    magnitudes = {k: np.zeros_like(v) for k, v in params.items()}
    expected_loss = 0.0
    for b, rows in enumerate(bag_slices(starts, len(X))):
        scale = 1.0 if genre_weights is None else genre_weights[golds[b]]
        p, loss, grads, bag_magnitudes = reference_bag(
            params, X[rows], model.aggregator, golds[b], scale
        )
        assert np.all(np.abs(probabilities[b] - p) <= RTOL * p), f"bag {b} probabilities"
        expected_loss += loss
        for name, g in grads.items():
            expected_grads[name] += g
            magnitudes[name] += bag_magnitudes[name]
    assert abs(losses.sum() - expected_loss) <= RTOL * expected_loss
    # the attention gradients sum terms that cancel (a bag's d_logits sum to
    # 0; att_b's exact gradient is 0), so rounding error scales with the
    # magnitudes of the terms, not with the expected entries
    for name, expected in expected_grads.items():
        assert_close(model.params.grads[name], expected, name, scale=magnitudes[name])


@settings(max_examples=40, deadline=None)
@given(batches(), st.randoms(use_true_random=False))
def test_member_and_bag_order_do_not_matter(batch, random):
    model, X, starts, _, _ = batch
    base = model.forward_packed(X, starts)
    slices = bag_slices(starts, len(X))
    bag_order = list(range(len(slices)))
    random.shuffle(bag_order)
    rows = []
    for b in bag_order:
        members = list(range(slices[b].start, slices[b].stop))
        random.shuffle(members)
        rows.extend(members)
    sizes = np.diff(starts, append=len(X))[bag_order]
    shuffled = model.forward_packed(X[rows], np.cumsum(sizes) - sizes)
    assert_close(shuffled, base[bag_order], "probabilities")


@settings(max_examples=40, deadline=None)
@given(batches(max_size=6))
def test_duplicating_every_member_of_a_bag_changes_nothing(batch):
    model, X, starts, _, _ = batch
    base = model.forward_packed(X, starts)
    slices = bag_slices(starts, len(X))
    doubled = np.vstack([np.vstack([X[s], X[s]]) for s in slices])
    sizes = 2 * np.diff(starts, append=len(X))
    assert_close(model.forward_packed(doubled, np.cumsum(sizes) - sizes), base,
                 "probabilities")


@settings(max_examples=30, deadline=None)
@given(batches())
def test_singleton_batch_weights_are_exactly_one(batch):
    model, X, _, _, _ = batch
    _, cache = model.forward_packed(X, np.arange(len(X)), keep_cache=True)
    assert np.all(cache["weights"] == 1.0)


def pooled_reference(model, X, starts, golds, scale):
    """The pooled pass every batch ran before batches of one-member bags
    skipped it: attention_weights, a weighted np.add.reduceat and, in
    backward, each bag's gradient repeated over its rows.

    Returns (probabilities, losses, d_scores, weights, grads) of one batch.
    """
    sizes = np.diff(starts, append=len(X))
    activations, embeddings = model.encode(X)
    squashed, weights = model.attention_weights(embeddings, starts, sizes)
    representations = np.add.reduceat(weights[:, np.newaxis] * embeddings, starts)
    probabilities = model.genre_scores(representations)
    picks = np.arange(len(golds)) * model.n_genres + golds
    losses, d_scores = nll_in_place(probabilities.copy(), picks, scale)

    values = model.params.values
    grads = {k: np.zeros_like(v) for k, v in values.items()}
    grads["out_m"] += d_scores.T @ representations
    d_repr = (d_scores @ values["out_m"]).repeat(sizes, axis=0)
    d_h = weights[:, np.newaxis] * d_repr
    if model.aggregator == "matt":
        d_weights = np.einsum("ij,ij->i", embeddings, d_repr)
        bag_dot = np.add.reduceat(weights * d_weights, starts)
        d_logits = weights * (d_weights - bag_dot.repeat(sizes))
        grads["att_b"] += d_logits.sum()
        d_pre = d_logits * (1.0 - squashed**2)
        d = model.encoder.output_dim
        w = values["att_w"][0]
        grads["att_w"][0, :d] += embeddings.T @ d_pre
        grads["att_w"][0, d:] += d_pre.sum() * values["att_q"][:, 0]
        grads["att_q"][:, 0] += d_pre.sum() * w[d:]
        d_h += d_pre[:, np.newaxis] * w[:d]
    for i in range(model.n_layers - 1, -1, -1):
        if i != model.n_layers - 1:
            d_h *= 1.0 - activations[i + 1] ** 2
        grads[f"enc_w{i}"] += d_h.T @ activations[i]
        grads[f"enc_b{i}"] += d_h.sum(axis=0)
        d_h = d_h @ values[f"enc_w{i}"]
    return probabilities, losses, d_scores, weights, grads


@st.composite
def singleton_batches(draw, pair=False):
    """A model, a packed batch of one-member bags (with pair, one bag of two
    rows among them), its golds and its rows' genre weights or None."""
    n_bags = draw(st.integers(1, 9))
    hidden = tuple(draw(st.lists(st.integers(1, 6), max_size=2)))
    input_dim = draw(st.integers(1, 5))
    n_genres = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    model = MattModel(
        EncoderConfig(input_dim=input_dim, hidden_dims=hidden,
                      output_dim=draw(st.integers(1, 4))),
        n_genres=n_genres,
        aggregator=draw(st.sampled_from(["matt", "mean"])),
        seed=seed % 97,
    )
    # a trained model's attention parameters, not the zero att_b of init
    model.params.flat[...] = rng.standard_normal(model.params.flat.size)
    starts = np.arange(n_bags)
    if pair:
        starts[draw(st.integers(0, n_bags - 1)) + 1:] += 1
    X = rng.standard_normal((n_bags + pair, input_dim)) * rng.uniform(0.1, 5.0)
    golds = rng.integers(0, n_genres, size=n_bags)
    scale = rng.uniform(0.2, 3.0, size=n_genres)[golds] if draw(st.booleans()) else None
    return model, X, starts, golds, scale


def run_engine(model, X, starts, golds, scale):
    """One training step's pass through the engine, as train runs it."""
    sizes = np.diff(starts, append=len(X))
    model.params.zero_grads()
    probabilities, cache = model.forward_sized(X, starts, sizes, keep_cache=True)
    picks = np.arange(len(golds)) * model.n_genres + golds
    scored = probabilities.copy()
    losses, d_scores = nll_in_place(probabilities, picks, scale)
    model.backward_packed(cache, d_scores)
    return scored, losses, d_scores, cache["weights"], model.params.grads


def assert_same_bytes(actual, expected, what):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


@settings(max_examples=100, deadline=None)
@given(singleton_batches())
def test_one_member_bags_skip_pooling_bitwise_equal(batch):
    model, X, starts, golds, scale = batch
    expected = pooled_reference(model, X, starts, golds, scale)
    actual = run_engine(model, X, starts, golds, scale)
    for name, a, e in zip(("probabilities", "losses", "d_scores"), actual, expected):
        assert_same_bytes(a, e, name)
    assert_same_bytes(actual[3], np.ones(len(X)), "weights")
    for name, g in expected[4].items():
        assert_same_bytes(actual[4][name], g, name)


@settings(max_examples=40, deadline=None)
@given(singleton_batches(pair=True))
def test_a_two_row_bag_among_singletons_is_pooled(batch):
    model, X, starts, golds, scale = batch
    weights = run_engine(model, X, starts, golds, scale)[3]
    pair = int(np.flatnonzero(np.diff(starts, append=len(X)) == 2)[0])
    pair_weights = weights[starts[pair]:starts[pair] + 2]
    assert not np.all(pair_weights == 1.0)
    assert abs(pair_weights.sum() - 1.0) <= 1e-15
    expected = pooled_reference(model, X, starts, golds, scale)
    np.testing.assert_array_equal(weights, expected[3])
