import numpy as np
import pytest

from matt import training
from matt.dataset import parse_metadata_lines, build_bags
from matt.errors import InvalidConfig, MissingFeature
from matt.model import BagPrediction, MattModel
from matt.numeric import softmax
from matt.synthetic import SynthConfig, generate_synthetic
from matt.training import (
    TrainConfig,
    nll_loss,
    nll_losses,
    singleton_bagset,
    train,
    train_segment_baseline,
)

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


def test_invalid_gold_rejected():
    with pytest.raises(InvalidConfig):
        nll_loss(prediction_with([0.5, 0.5]), 7)


@pytest.mark.parametrize("golds, bad", [([0, -1], -1), ([1, 2], 2), ([2, -3, 1], -3)])
def test_nll_losses_rejects_a_gold_id_outside_the_genres(golds, bad):
    probabilities = np.full((len(golds), 2), 0.5)
    with pytest.raises(InvalidConfig, match=rf"^gold genre {bad} out of range for 2 genres$"):
        nll_losses(probabilities, np.array(golds))


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
    from matt.model import MattModel, EncoderConfig

    fresh = MattModel(
        EncoderConfig(input_dim=6, hidden_dims=(), output_dim=4),
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
    tiny = {k: 0.01 * v for k, v in data.features.items()}
    cfg = TrainConfig(epochs=1, seed=2, embedding_dim=4, learning_rate=1e-5)
    _, log = train(data.bags, tiny, cfg)
    assert log.epochs[0][1] == pytest.approx(np.log(2.0), rel=0.10)


def test_segment_baseline_equals_singleton_train():
    data = two_genre_data()
    cfg = TrainConfig(epochs=5, seed=3, embedding_dim=4, learning_rate=1e-2)
    m1, _ = train_segment_baseline(data.table, data.features, cfg)
    m2, _ = train(singleton_bagset(data.table), data.features, cfg)
    for name in m1.params.values:
        assert np.array_equal(m1.params.values[name], m2.params.values[name])


def test_missing_feature_raises():
    data = two_genre_data()
    features = dict(data.features)
    train_bag = data.bags.split_bags("train")[0]
    features.pop(train_bag.segment_ids[0])
    with pytest.raises(MissingFeature):
        train(data.bags, features, TrainConfig(epochs=1, embedding_dim=4))


def test_missing_feature_names_the_track():
    data = two_genre_data()
    features = dict(data.features)
    missing = data.bags.split_bags("validation")[-1].segment_ids[-1]
    features.pop(missing)
    with pytest.raises(MissingFeature, match=f"^no features for segment {missing!r}$"):
        training.pack_bags(data.bags.split_bags("validation"), features)
    with pytest.raises(MissingFeature, match=f"^no features for segment {missing!r}$"):
        train(data.bags, features, TrainConfig(epochs=1, embedding_dim=4))


@pytest.mark.parametrize("epochs", [1, 4])
def test_train_gathers_each_bag_once_and_runs_one_pass_per_batch(monkeypatch, epochs):
    data = two_genre_data()
    events = []  # ("pack", bag keys) per pack_bags call, ("pass", bags) per forward
    pack = training.pack_bags
    forward = MattModel.forward_packed

    def counting_pack(bags, features):
        events.append(("pack", [b.key for b in bags]))
        return pack(bags, features)

    def counting_forward(self, X, starts, keep_cache=False):
        events.append(("pass", len(starts)))
        return forward(self, X, starts, keep_cache)

    monkeypatch.setattr(training, "pack_bags", counting_pack)
    monkeypatch.setattr(MattModel, "forward_packed", counting_forward)
    cfg = TrainConfig(epochs=epochs, seed=2, embedding_dim=4, bags_per_batch=8)
    _, log = train(data.bags, data.features, cfg)

    train_keys = [b.key for b in data.bags.split_bags("train")]
    val_keys = [b.key for b in data.bags.split_bags("validation")]
    n_train = len(train_keys)
    assert val_keys and n_train > 8
    assert len(log.epochs) == epochs
    # one gather per split, every bag exactly once, before the first epoch
    assert events[:2] == [("pack", train_keys), ("pack", val_keys)]
    passes = events[2:]
    assert all(kind == "pass" for kind, _ in passes)
    batches = [min(8, n_train - start) for start in range(0, n_train, 8)]
    assert [bags for _, bags in passes] == (batches + [len(val_keys)]) * epochs


def test_no_training_bags_rejected():
    table = parse_metadata_lines([HEADER, "t1,a,p,rock,test", "t2,b,q,jazz,test"])
    bags = build_bags(table)
    with pytest.raises(InvalidConfig):
        train(bags, {}, TrainConfig(epochs=1))


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
