import numpy as np

from matt.synthetic import SynthConfig, generate_synthetic
from matt.training import TrainConfig, train


def imbalanced_data():
    return generate_synthetic(
        SynthConfig(
            n_genres=3,
            zipf_exponent=1.5,
            head_count=20,
            bag_size_range=(2, 4),
            feature_dim=6,
            centroid_separation=1.2,
            noise_rate=0.1,
            seed=4,
        )
    )


def test_weighting_off_by_default_and_changes_training():
    data = imbalanced_data()
    base_cfg = TrainConfig(epochs=4, seed=1, embedding_dim=4, learning_rate=1e-2)
    assert base_cfg.class_weighting is False
    plain, _ = train(data.bags, data.features, base_cfg)
    weighted, _ = train(
        data.bags,
        data.features,
        TrainConfig(
            epochs=4, seed=1, embedding_dim=4, learning_rate=1e-2, class_weighting=True
        ),
    )
    assert any(
        not np.array_equal(plain.params.values[n], weighted.params.values[n])
        for n in plain.params.values
    )


def test_mean_aggregator_leaves_attention_params_at_init():
    # parameters with zero gradient all run long must never move, even
    # through adam moment updates
    data = imbalanced_data()
    cfg = TrainConfig(epochs=6, seed=2, embedding_dim=4, aggregator="mean",
                      learning_rate=1e-2)
    model, _ = train(data.bags, data.features, cfg)
    from matt.model import EncoderConfig, MattModel

    fresh = MattModel(
        EncoderConfig(input_dim=6, hidden_dims=(), output_dim=4),
        n_genres=3,
        aggregator="mean",
        seed=2,
    )
    for name in ("att_w", "att_b", "att_q"):
        assert np.array_equal(model.params.values[name], fresh.params.values[name]), name
    assert not np.array_equal(model.params.values["out_m"], fresh.params.values["out_m"])
