import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bag_list, split_codes
from matt import training
from matt.dataset import (
    BagSet,
    GenreVocabulary,
    SegmentTable,
    align_features,
    build_bags,
    parse_metadata_lines,
    segment_bags,
)
from matt.errors import EmptyBag, InvalidConfig, MissingFeature
from matt.model import BagPrediction, MattModel
from matt.numeric import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, softmax
from matt.synthetic import SynthConfig, generate_synthetic
from matt.training import TrainConfig, nll_loss, nll_losses, train

HEADER = "track_id,album_id,artist_id,genre,split"


def prediction_with(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return BagPrediction(
        probabilities=probs,
        attention_weights=np.ones(1),
        bag_representation=np.zeros(2),
    )


def test_certain_prediction_has_zero_loss():
    loss, _ = nll_loss(prediction_with([1.0, 0.0]), 0)
    assert loss == 0.0


def test_uniform_sixteen_way_loss_is_log_sixteen():
    loss, _ = nll_loss(prediction_with(np.full(16, 1.0 / 16.0)), 3)
    assert loss == pytest.approx(np.log(16.0), abs=1e-12)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(5)
    gold = 2
    probs = softmax(scores)
    _, d_scores = nll_loss(prediction_with(probs), gold)
    h = 1e-6
    for i in range(5):
        bumped = scores.copy()
        bumped[i] += h
        dipped = scores.copy()
        dipped[i] -= h
        numeric = (
            -np.log(softmax(bumped)[gold]) + np.log(softmax(dipped)[gold])
        ) / (2 * h)
        assert abs(numeric - d_scores[i]) <= 1e-6


def two_genre_data(seed=0):
    """Linearly separable synthetic bags, two genres."""
    return generate_synthetic(
        SynthConfig(
            n_genres=2,
            zipf_exponent=0.0,
            head_count=10,
            bag_size_range=(2, 4),
            feature_dim=6,
            centroid_separation=1.8,
            noise_rate=0.0,
            seed=seed,
        )
    )


def test_zero_epochs_returns_initialization():
    data = two_genre_data()
    cfg = TrainConfig(epochs=0, seed=4, embedding_dim=4)
    model, log = train(data.bags, data.features, cfg)
    from matt.model import MattModel

    fresh = MattModel(
        input_dim=6, hidden_dims=(), embedding_dim=4,
        n_genres=2,
        aggregator="matt",
        seed=4,
    )
    assert log.epochs == []
    for name in model.params.values:
        assert np.array_equal(model.params.values[name], fresh.params.values[name])


def test_training_is_bit_reproducible():
    data = two_genre_data()
    cfg = TrainConfig(epochs=6, seed=9, embedding_dim=4, learning_rate=1e-2)
    m1, log1 = train(data.bags, data.features, cfg)
    m2, log2 = train(data.bags, data.features, cfg)
    for name in m1.params.values:
        assert np.array_equal(m1.params.values[name], m2.params.values[name])
    assert [e[:3] for e in log1.epochs] == [e[:3] for e in log2.epochs]


def test_separable_bags_converge():
    data = two_genre_data()
    cfg = TrainConfig(
        epochs=200, seed=1, embedding_dim=4, learning_rate=1e-2,
        early_stop_patience=200, bags_per_batch=8,
    )
    model, log = train(data.bags, data.features, cfg)
    losses = [e[1] for e in log.epochs]
    assert min(losses) < 0.1


def test_initial_loss_near_log_g():
    # near-zero logits at init: shrink the features so the first epoch's mean
    # loss sits at the balanced-chance level
    data = two_genre_data()
    tiny = 0.01 * data.features
    cfg = TrainConfig(epochs=1, seed=2, embedding_dim=4, learning_rate=1e-5)
    _, log = train(data.bags, tiny, cfg)
    assert log.epochs[0][1] == pytest.approx(np.log(2.0), rel=0.10)


def without(track_ids, values, dropped):
    """A feature file's (ids, values) with the rows of dropped left out."""
    kept = [i for i, t in enumerate(track_ids) if t not in dropped]
    return [track_ids[i] for i in kept], values[kept]


def test_missing_feature_raises():
    data = two_genre_data()
    ids = data.bags.table.track_ids
    dropped = {bag_list(data.bags.split("train"))[0][1][0]}
    with pytest.raises(MissingFeature):
        align_features(ids, *without(ids, data.features, dropped))


def test_missing_feature_names_the_track():
    data = two_genre_data()
    ids = data.bags.table.track_ids
    missing = bag_list(data.bags.split("validation"))[-1][1][-1]
    later = ids[-1]  # a test row: the generator writes them after validation rows
    assert ids.index(missing) < ids.index(later)
    with pytest.raises(MissingFeature, match=f"^no features for segment {missing!r}$"):
        align_features(ids, *without(ids, data.features, {later, missing}))


@pytest.mark.parametrize("epochs", [1, 4])
def test_train_gathers_each_bag_once_and_runs_one_pass_per_batch(monkeypatch, epochs):
    data = two_genre_data()
    events = []  # ("pack", bag keys) per pack_bags call, ("pass", bags) per forward
    pack = training.pack_bags
    forward = MattModel.forward_sized  # every pass, checked (forward_packed) or planned

    def counting_pack(bags, X):
        events.append(("pack", bag_list(bags)))
        return pack(bags, X)

    def counting_forward(self, X, starts, sizes, keep_cache=False):
        events.append(("pass", len(starts)))
        return forward(self, X, starts, sizes, keep_cache)

    monkeypatch.setattr(training, "pack_bags", counting_pack)
    monkeypatch.setattr(MattModel, "forward_sized", counting_forward)
    cfg = TrainConfig(epochs=epochs, seed=2, embedding_dim=4, bags_per_batch=8)
    _, log = train(data.bags, data.features, cfg)

    train_keys = bag_list(data.bags.split("train"))
    val_keys = bag_list(data.bags.split("validation"))
    n_train = len(train_keys)
    assert val_keys and n_train > 8
    assert len(log.epochs) == epochs
    # validation is packed once, before the first epoch; each epoch packs every
    # train bag exactly once, in that epoch's shuffled order, then runs its
    # batches and one validation pass
    rng = np.random.default_rng(cfg.seed)
    batches = [("pass", min(8, n_train - start)) for start in range(0, n_train, 8)]
    expected = [("pack", val_keys)]
    for _ in range(epochs):
        order = rng.permutation(n_train).tolist()
        expected += [("pack", [train_keys[i] for i in order]), *batches,
                     ("pass", len(val_keys))]
    assert events == expected


def test_no_training_bags_rejected():
    table = parse_metadata_lines([HEADER, "t1,a,p,rock,test", "t2,b,q,jazz,test"])
    bags = build_bags(table)
    with pytest.raises(InvalidConfig):
        train(bags, np.zeros((2, 3), dtype=np.float32), TrainConfig(epochs=1))


@pytest.mark.parametrize("patience", [0, -3])
def test_an_early_stop_patience_below_one_is_rejected(patience):
    message = f"early_stop_patience must be >= 1, got {patience}"
    with pytest.raises(InvalidConfig, match=f"^{message}$"):
        TrainConfig(early_stop_patience=patience)


@pytest.mark.parametrize("fields, message", [
    ({"learning_rate": 0.0}, "learning_rate must be positive"),
    ({"learning_rate": -1e-3}, "learning_rate must be positive"),
    ({"aggregator": "max"}, "unknown aggregator 'max'"),
    ({"embedding_dim": 0}, "encoder dims must be positive, got (0,)"),
    ({"hidden_dims": (8, 0)}, "encoder dims must be positive, got (8, 0, 16)"),
    ({"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'"),
])
def test_every_training_value_is_checked_when_the_config_is_made(fields, message):
    with pytest.raises(InvalidConfig, match=f"^{re.escape(message)}$"):
        TrainConfig(**fields)


def test_an_empty_training_bag_is_rejected_once_per_epoch():
    """step_plan checks an epoch's bag sizes before its batches run the
    unchecked engine; an empty bag would otherwise pool another bag's row."""
    table = parse_metadata_lines(
        [HEADER, "t1,a,p,rock,train", "t2,b,q,jazz,train", "t3,b,q,jazz,train"])
    bags = BagSet(table, np.arange(3), np.array([0, 1, 1]), np.array([0, 1, 1]))
    with pytest.raises(EmptyBag, match="has no rows"):
        train(bags, np.zeros((3, 2), dtype=np.float32), TrainConfig(epochs=1, embedding_dim=2))


def test_early_stopping_stops(caplog):
    data = two_genre_data()
    cfg = TrainConfig(
        epochs=100, seed=5, embedding_dim=4, learning_rate=1e-2, early_stop_patience=3
    )
    _, log = train(data.bags, data.features, cfg)
    assert len(log.epochs) < 100


def test_trainlog_csv_format(tmp_path):
    data = two_genre_data()
    cfg = TrainConfig(epochs=2, seed=6, embedding_dim=4)
    _, log = train(data.bags, data.features, cfg)
    out = tmp_path / "log.csv"
    log.write_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "epoch,loss,val_accuracy,seconds"
    assert len(lines) == 3


# -- the lean training step equals the step it replaced -- #
#
# train() gathers each epoch's rows once and slices batches from that
# gather, forward_packed subtracts starts into a preallocated sizes array,
# backward_packed adds straight into the gradient views, and Adam runs in
# place. The references below are the step those replaced: a row gather per
# batch, np.diff sizes, np.repeat/np.max/np.sum, a shape-checked add per
# gradient and the textbook Adam expression. Every bit must agree.


def reference_forward(model, features, starts):
    """(B, G) probabilities and the backward cache of a packed batch."""
    values = model.params.values
    sizes = np.diff(starts, append=len(features))
    activations, embeddings = model.encode(features)
    squashed = None
    if model.aggregator == "mean":
        weights = np.repeat(1.0 / sizes, sizes)
    else:
        d = model.embedding_dim
        w = values["att_w"][0]
        squashed = np.tanh(embeddings @ w[:d] + w[d:] @ values["att_q"][:, 0])
        logits = squashed + values["att_b"][0]
        e = np.exp(logits - np.repeat(np.maximum.reduceat(logits, starts), sizes))
        weights = e / np.repeat(np.add.reduceat(e, starts), sizes)
    representations = np.add.reduceat(weights[:, np.newaxis] * embeddings, starts)
    scores = representations @ values["out_m"].T
    e = scores - np.max(scores, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e, (starts, sizes, activations, squashed, weights, representations)


def reference_add_grad(store, name, grad):
    assert store.grads[name].shape == np.shape(grad), name
    store.grads[name] += grad


def reference_backward(model, cache, d_scores):
    starts, sizes, activations, squashed, weights, representations = cache
    p = model.params
    embeddings = activations[-1]
    reference_add_grad(p, "out_m", d_scores.T @ representations)
    d_repr = np.repeat(d_scores @ p.values["out_m"], sizes, axis=0)
    d_embeddings = weights[:, np.newaxis] * d_repr
    if model.aggregator == "matt":
        d_weights = np.einsum("ij,ij->i", embeddings, d_repr)
        bag_dot = np.add.reduceat(weights * d_weights, starts)
        d_logits = weights * (d_weights - np.repeat(bag_dot, sizes))
        reference_add_grad(p, "att_b", np.array([d_logits.sum()]))
        d_pre = d_logits * (1.0 - squashed**2)
        d = model.embedding_dim
        w = p.values["att_w"][0]
        q = p.values["att_q"][:, 0]
        d_w = np.concatenate([embeddings.T @ d_pre, d_pre.sum() * q])
        reference_add_grad(p, "att_w", d_w[np.newaxis, :])
        reference_add_grad(p, "att_q", (d_pre.sum() * w[d:])[:, np.newaxis])
        d_embeddings = d_embeddings + np.outer(d_pre, w[:d])
    d_h = d_embeddings
    for i in range(model.n_layers - 1, -1, -1):
        if i != model.n_layers - 1:
            d_h = d_h * (1.0 - activations[i + 1] ** 2)
        reference_add_grad(p, f"enc_w{i}", d_h.T @ activations[i])
        reference_add_grad(p, f"enc_b{i}", d_h.sum(axis=0))
        if i:
            d_h = d_h @ p.values[f"enc_w{i}"]


def reference_optimizer_step(cfg, state, store):
    grad = store.flat_grad
    assert np.isfinite(grad).all()
    state["t"] += 1
    lr = cfg.learning_rate
    if cfg.optimizer == "sgd":
        store.flat -= lr * grad
    else:
        t = state["t"]
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m1 = state.setdefault("m1", np.zeros_like(store.flat))
        m2 = state.setdefault("m2", np.zeros_like(store.flat))
        m1 *= b1
        m1 += (1.0 - b1) * grad
        m2 *= b2
        m2 += (1.0 - b2) * grad * grad
        m1_hat = m1 / (1.0 - b1**t)
        m2_hat = m2 / (1.0 - b2**t)
        store.flat -= lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPSILON)
    store.flat_grad[...] = 0.0


def reference_train(bags, X, cfg):
    """train() with one row gather and one reference step per batch; returns
    (flat parameters, [(epoch, loss, val_accuracy)])."""
    train_bags = bags.split("train")
    val_bags = bags.split("validation")
    train_X, train_starts = training.pack_bags(train_bags, X)
    train_sizes = np.diff(train_starts, append=len(train_X))
    train_golds = train_bags.genre_ids
    val_X, val_starts = training.pack_bags(val_bags, X)
    val_golds = val_bags.genre_ids
    n_genres = len(bags.table.vocabulary)
    genre_weights = None
    if cfg.class_weighting:
        counts = np.bincount(train_golds, minlength=n_genres).astype(np.float64)
        weights = np.where(counts > 0, counts.sum() / np.maximum(counts, 1.0), 0.0)
        genre_weights = weights * (counts > 0).sum() / weights.sum()
    model = training.new_model(cfg, train_X.shape[1], n_genres)
    state = {"t": 0}
    rng = np.random.default_rng(cfg.seed)
    epochs = []
    best_values, best_accuracy = model.params.flat.copy(), -1.0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_golds))
        total_loss = 0.0
        for start in range(0, len(order), cfg.bags_per_batch):
            batch = order[start : start + cfg.bags_per_batch]
            sizes = train_sizes[batch]
            starts = np.cumsum(sizes) - sizes
            rows = np.repeat(train_starts[batch] - starts, sizes) + np.arange(sizes.sum())
            probabilities, cache = reference_forward(model, train_X[rows], starts)
            losses, d_scores = nll_losses(probabilities, train_golds[batch], genre_weights)
            total_loss += float(losses.sum())
            reference_backward(model, cache, d_scores)
            model.params.flat_grad *= 1.0 / len(batch)
            reference_optimizer_step(cfg, state, model.params)
        winners = reference_forward(model, val_X, val_starts)[0].argmax(axis=1)
        val_accuracy = np.count_nonzero(winners == val_golds) / len(val_golds)
        epochs.append((epoch, total_loss / len(train_golds), val_accuracy))
        if val_accuracy > best_accuracy:
            best_values, best_accuracy = model.params.flat.copy(), val_accuracy
    return best_values, epochs


def ragged_data(seed=0, dim=6, n_genres=3):
    """Bags of 2 to 7 members mixed with singletons, in shuffled order, about
    one in five of them in the validation split: rows and starts over a table
    whose rows are in a shuffled order of their own."""
    rng = np.random.default_rng(seed)
    sizes = rng.permutation([1] * 14 + rng.integers(2, 8, size=30).tolist())
    records, genre_ids, vectors = [], [], []
    for b, size in enumerate(sizes):
        split = "validation" if b % 5 == 0 else "train"
        genre_id = int(rng.integers(n_genres))
        key = ("", "") if size == 1 else (f"artist{b}", f"album{b}")
        for k in range(size):
            track_id = f"s{b}m{k}"
            vectors.append((rng.standard_normal(dim) + genre_id).astype(np.float32))
            records.append((track_id, key[1], key[0], genre_id, split))
        genre_ids.append(genre_id)
    # the table lists the records in a shuffled order; rows maps bag order onto it
    order = rng.permutation(len(records))
    vocabulary = GenreVocabulary(tuple(f"g{g}" for g in range(n_genres)), (1,) * n_genres)
    columns = list(map(tuple, zip(*(records[i] for i in order))))
    table = SegmentTable(*columns, vocabulary, split_codes(columns[4]))
    starts = np.cumsum(sizes) - sizes
    X = np.array(vectors)[order]  # one feature row per table row
    return BagSet(table, np.argsort(order), starts, np.array(genre_ids)), X


@pytest.mark.parametrize(
    "aggregator, optimizer, hidden_dims, class_weighting",
    [
        ("matt", "adam", (5,), False),
        ("matt", "sgd", (5,), False),
        ("mean", "adam", (5,), False),
        ("mean", "sgd", (5,), False),
        ("matt", "adam", (), True),
    ],
)
def test_train_equals_the_per_batch_gather_reference_bitwise(
    aggregator, optimizer, hidden_dims, class_weighting
):
    bags, X = ragged_data()
    cfg = TrainConfig(
        epochs=3, bags_per_batch=8, optimizer=optimizer, learning_rate=3e-2, seed=11,
        aggregator=aggregator, hidden_dims=hidden_dims, embedding_dim=4,
        class_weighting=class_weighting,
    )
    model, log = train(bags, X, cfg)
    expected_flat, expected_epochs = reference_train(bags, X, cfg)
    assert [e[:3] for e in log.epochs] == expected_epochs
    assert model.params.flat.tobytes() == expected_flat.tobytes()


# -- the segment baseline: on one-member bags the aggregator makes no difference -- #

@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_segments=st.integers(1, 40),
    n_genres=st.integers(2, 4),
    optimizer=st.sampled_from(["adam", "sgd"]),
    hidden_dims=st.sampled_from([(), (3,)]),
    class_weighting=st.booleans(),
    bags_per_batch=st.integers(1, 9),
)
def test_singleton_bags_train_bitwise_equal_under_matt_and_mean(
    seed, n_segments, n_genres, optimizer, hidden_dims, class_weighting, bags_per_batch
):
    """A one-member bag's attention weight is exactly 1 and its attention
    gradients exactly 0, so the baseline may train with mean pooling."""
    rng = np.random.default_rng(seed)
    splits = ["train", *rng.choice(["train", "validation"], size=n_segments - 1).tolist()]
    genre_ids = rng.integers(0, n_genres, size=n_segments)
    counts = np.bincount(genre_ids[np.array(splits) == "train"], minlength=n_genres)
    table = SegmentTable(
        tuple(f"s{i:02d}" for i in range(n_segments)), ("",) * n_segments, ("",) * n_segments,
        tuple(genre_ids.tolist()), tuple(splits),
        GenreVocabulary(tuple(f"g{g}" for g in range(n_genres)), tuple(counts.tolist())),
        split_codes(splits),
    )
    X = rng.standard_normal((n_segments, 4)).astype(np.float32)
    trained = {}
    for aggregator in ("matt", "mean"):
        cfg = TrainConfig(
            epochs=3, bags_per_batch=bags_per_batch, optimizer=optimizer, learning_rate=0.05,
            seed=seed % 1000, aggregator=aggregator, hidden_dims=hidden_dims, embedding_dim=3,
            class_weighting=class_weighting,
        )
        model, log = train(segment_bags(table), X, cfg)
        trained[aggregator] = (model.params.flat.tobytes(), [e[:3] for e in log.epochs])
    assert trained["matt"] == trained["mean"]
