import numpy as np
import pytest

from matt.errors import EmptyBag, InvalidConfig, ShapeError
from matt.model import EncoderConfig, MattModel
from matt.numeric import finite_difference_check
from matt.training import nll_loss, nll_losses

E_SQUARED = np.exp(2.0)


def make_model(input_dim=6, hidden=(), d=5, n_genres=4, aggregator="matt", seed=3):
    return MattModel(
        EncoderConfig(input_dim=input_dim, hidden_dims=hidden, output_dim=d),
        n_genres=n_genres,
        aggregator=aggregator,
        seed=seed,
    )


def test_singleton_bag_weight_is_exactly_one():
    model = make_model()
    pred = model.forward_bag(np.random.default_rng(0).standard_normal((1, 6)))
    assert pred.attention_weights.shape == (1,)
    assert pred.attention_weights[0] == 1.0


def test_identical_members_share_weight_equally():
    model = make_model()
    x = np.random.default_rng(1).standard_normal(6)
    pred = model.forward_bag(np.stack([x, x, x]))
    assert np.allclose(pred.attention_weights, 1.0 / 3.0, atol=1e-15)


def test_attention_ratio_bounded_by_e_squared():
    rng = np.random.default_rng(2)
    model = make_model()
    for _ in range(200):
        m = int(rng.integers(2, 9))
        pred = model.forward_bag(rng.standard_normal((m, 6)) * rng.uniform(0.1, 30.0))
        w = pred.attention_weights
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert w.max() / w.min() <= E_SQUARED + 1e-9


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    model = make_model()
    X = rng.standard_normal((5, 6))
    base = model.forward_bag(X).probabilities
    for _ in range(5):
        perm = rng.permutation(5)
        shuffled = model.forward_bag(X[perm]).probabilities
        assert np.all(np.abs(shuffled - base) <= 1e-9)
    # identical members in identical order are bit-identical
    assert np.array_equal(model.forward_bag(X).probabilities, base)


def test_duplication_invariance():
    rng = np.random.default_rng(4)
    model = make_model()
    X = rng.standard_normal((4, 6))
    base = model.forward_bag(X).probabilities
    doubled = model.forward_bag(np.vstack([X, X])).probabilities
    assert np.all(np.abs(doubled - base) <= 1e-9)


def test_predict_segment_equals_singleton_forward():
    rng = np.random.default_rng(5)
    model = make_model()
    x = rng.standard_normal(6)
    a = model.predict_segment(x)
    b = model.forward_bag(x[np.newaxis, :])
    assert np.array_equal(a.probabilities, b.probabilities)
    assert a.attention_weights[0] == 1.0


def test_bag_representation_is_convex_combination():
    rng = np.random.default_rng(6)
    model = make_model()
    X = rng.standard_normal((7, 6))
    pred = model.forward_bag(X)
    emb = model.encode(X)[1]
    assert np.all(pred.bag_representation >= emb.min(axis=0) - 1e-12)
    assert np.all(pred.bag_representation <= emb.max(axis=0) + 1e-12)


def test_zero_scorer_gives_uniform_probabilities():
    model = make_model(n_genres=5)
    model.params.values["out_m"][...] = 0.0
    pred = model.forward_bag(np.ones((2, 6)))
    assert np.allclose(pred.probabilities, 0.2, atol=1e-15)


def test_two_genre_closed_form_softmax():
    model = make_model(n_genres=2)
    scores = np.array([np.log(3.0), 0.0])
    from matt.numeric import softmax

    probs = softmax(scores)
    assert np.all(np.abs(probs - [0.75, 0.25]) <= 1e-12)


def test_linear_encoder_with_identity_weights_is_identity():
    model = make_model(input_dim=5, hidden=(), d=5)
    model.params.values["enc_w0"][...] = np.eye(5)
    model.params.values["enc_b0"][...] = 0.0
    x = np.arange(5.0)[np.newaxis, :]
    assert np.array_equal(model.encode(x)[1], x)


def test_zero_input_zero_bias_gives_zero_embedding():
    model = make_model(input_dim=5, hidden=(4,), d=3)
    for name in model.params.values:
        if name.startswith("enc_b"):
            model.params.values[name][...] = 0.0
    assert np.all(model.encode(np.zeros((1, 5)))[1] == 0.0)


def test_empty_bag_rejected():
    model = make_model()
    with pytest.raises(EmptyBag):
        model.forward_bag(np.empty((0, 6)))


@pytest.mark.parametrize(
    "n_rows, starts",
    [
        (5, []),  # no bag at all
        (5, [1, 3]),  # rows before the first bag
        (5, [0, 2, 2]),  # a repeated start: an empty bag between
        (5, [0, 3, 1]),  # decreasing
        (5, [0, 5]),  # the last bag starts at n_rows
        (5, [0, 7]),  # a start past n_rows
        (5, [[0], [2]]),  # 2-D
        (0, [0]),  # no feature rows
    ],
)
def test_forward_packed_rejects_malformed_starts(n_rows, starts):
    model = make_model()
    features = np.random.default_rng(0).standard_normal((n_rows, 6))
    with pytest.raises(EmptyBag):
        model.forward_packed(features, starts)
    with pytest.raises(EmptyBag):
        model.forward_packed(features, starts, keep_cache=True)


def test_wrong_feature_width_rejected():
    model = make_model()
    with pytest.raises(ShapeError):
        model.forward_bag(np.zeros((2, 7)))


def test_unknown_aggregator_rejected():
    with pytest.raises(InvalidConfig):
        make_model(aggregator="max")


def test_negative_seed_rejected_with_its_name():
    with pytest.raises(InvalidConfig, match="seed"):
        make_model(seed=-1)


def test_mean_aggregator_uses_uniform_weights():
    rng = np.random.default_rng(7)
    model = make_model(aggregator="mean")
    pred = model.forward_bag(rng.standard_normal((4, 6)))
    assert np.allclose(pred.attention_weights, 0.25, atol=1e-15)


@pytest.mark.parametrize("hidden", [(), (8,), (8, 5)])
@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("n_genres", [2, 16])
def test_full_model_gradients(hidden, m, n_genres):
    model = make_model(hidden=hidden, n_genres=n_genres, seed=11)
    rng = np.random.default_rng(100 * m + n_genres)
    X = rng.standard_normal((m, 6))
    gold = int(rng.integers(0, n_genres))

    def loss_fn():
        return nll_loss(model.forward_bag(X), gold)[0]

    model.params.zero_grads()
    pred, cache = model.forward_bag(X, keep_cache=True)
    _, d_scores = nll_loss(pred, gold)
    model.backward_bag(cache, d_scores)
    report = finite_difference_check(loss_fn, model.params, h=1e-5, tolerance=1e-4)
    for result in report.values():
        assert result.passed, f"{result.name}: {result.max_rel_error:.2e}"


def test_batched_singleton_path_matches_per_bag_path():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 6))
    golds = rng.integers(0, 4, size=6)

    slow = make_model(seed=13)
    slow.params.zero_grads()
    for i in range(6):
        pred, cache = slow.forward_bag(X[i : i + 1], keep_cache=True)
        _, d_scores = nll_loss(pred, int(golds[i]))
        slow.backward_bag(cache, d_scores)

    fast = make_model(seed=13)
    fast.params.zero_grads()
    activations, embeddings, probs = fast.forward_singletons(X)
    d_scores = probs.copy()
    d_scores[np.arange(6), golds] -= 1.0
    fast.backward_singletons(activations, embeddings, d_scores)

    for name in slow.params.values:
        assert np.allclose(
            slow.params.grads[name], fast.params.grads[name], rtol=1e-12, atol=1e-12
        ), name


@pytest.mark.parametrize("hidden", [(), (8,)])
@pytest.mark.parametrize("aggregator", ["matt", "mean"])
@pytest.mark.parametrize("weighted", [False, True])
def test_packed_batch_gradients(hidden, aggregator, weighted):
    # one mixed batch of bags of 1, 2 and 7 members, scored and differentiated
    # the way train() does it
    n_genres = 4
    model = make_model(hidden=hidden, n_genres=n_genres, aggregator=aggregator, seed=19)
    rng = np.random.default_rng(len(hidden) + 2 * weighted)
    X = rng.standard_normal((10, 6))
    starts = np.array([0, 1, 3])
    golds = rng.integers(0, n_genres, size=3)
    genre_weights = rng.uniform(0.5, 2.0, size=n_genres) if weighted else None

    def loss_fn():
        return nll_losses(model.forward_packed(X, starts), golds, genre_weights)[0].sum()

    model.params.zero_grads()
    probabilities, cache = model.forward_packed(X, starts, keep_cache=True)
    model.backward_packed(cache, nll_losses(probabilities, golds, genre_weights)[1])
    report = finite_difference_check(loss_fn, model.params, h=1e-5, tolerance=1e-4)
    for result in report.values():
        assert result.passed, f"{result.name}: {result.max_rel_error:.2e}"
