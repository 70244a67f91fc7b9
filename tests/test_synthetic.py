import numpy as np
import pytest

from conftest import bag_list
from matt.errors import InfeasibleConfig, InvalidConfig
from matt.synthetic import (
    BayesOracle,
    SynthConfig,
    generate_synthetic,
    make_centroids,
    train_bag_counts,
)
from matt.training import pack_bags


def small_cfg(**overrides):
    base = dict(
        n_genres=4,
        zipf_exponent=1.2,
        head_count=12,
        bag_size_range=(2, 5),
        feature_dim=8,
        centroid_separation=1.0,
        noise_rate=0.2,
        seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_flat_exponent_gives_equal_counts():
    counts = train_bag_counts(small_cfg(zipf_exponent=0.0))
    assert counts == [12, 12, 12, 12]


def test_power_law_counts_decrease():
    counts = train_bag_counts(SynthConfig())
    assert counts[0] == 400
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] >= 1


def test_same_seed_is_bit_identical():
    a = generate_synthetic(small_cfg(seed=9))
    b = generate_synthetic(small_cfg(seed=9))
    assert bag_list(a.bags) == bag_list(b.bags)
    assert sorted(a.features) == sorted(b.features)
    for track_id in a.features:
        assert np.array_equal(a.features[track_id], b.features[track_id])
    assert np.array_equal(a.oracle.centroids, b.oracle.centroids)


def test_different_seeds_differ():
    a = generate_synthetic(small_cfg(seed=1))
    b = generate_synthetic(small_cfg(seed=2))
    assert not np.array_equal(a.oracle.centroids, b.oracle.centroids)


def test_centroids_unit_norm_and_separated():
    cfg = small_cfg(centroid_separation=1.3)
    rng = np.random.default_rng(0)
    centroids = make_centroids(cfg, rng)
    norms = np.linalg.norm(centroids, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            assert np.linalg.norm(centroids[i] - centroids[j]) >= cfg.centroid_separation


def test_infeasible_separation_rejected():
    with pytest.raises(InfeasibleConfig):
        rng = np.random.default_rng(0)
        make_centroids(small_cfg(n_genres=4, feature_dim=8, centroid_separation=1.99), rng)


def test_bad_noise_rate_rejected():
    with pytest.raises(InvalidConfig):
        small_cfg(noise_rate=1.0)
    with pytest.raises(InvalidConfig):
        small_cfg(noise_rate=-0.1)


def test_bag_sizes_respect_range():
    data = generate_synthetic(small_cfg())
    lo, hi = 2, 5
    sizes = np.diff(data.bags.starts, append=len(data.bags.rows))
    assert lo <= sizes.min() and sizes.max() <= hi


def test_partition_and_split_purity():
    data = generate_synthetic(small_cfg())
    # bag_list also checks that every member of a bag shares its split
    seen = [tid for _, members, _ in bag_list(data.bags) for tid in members]
    assert len(seen) == len(set(seen)) == len(data.bags.table)


def test_oracle_is_near_perfect_on_easy_config():
    # antipodal centroids, no distractors, large bags: Monte-Carlo accuracy
    cfg = SynthConfig(
        n_genres=2,
        zipf_exponent=0.0,
        head_count=20,
        bag_size_range=(8, 12),
        feature_dim=8,
        centroid_separation=1.95,
        noise_rate=0.0,
        seed=5,
    )
    rng = np.random.default_rng(123)
    centroids = make_centroids(cfg, rng)
    oracle = BayesOracle(centroids, 0.0, cfg.genre_log_prior())
    hits = 0
    n_bags = 1000
    for i in range(n_bags):
        genre = int(rng.integers(0, 2))
        m = int(rng.integers(8, 13))
        X = centroids[genre] + rng.standard_normal((m, 8))
        hits += int(np.argmax(oracle.forward_packed(X, [0])[0]) == genre)
    assert hits / n_bags >= 0.99


def test_oracle_posterior_is_probability_vector():
    data = generate_synthetic(small_cfg())
    X, starts = pack_bags(data.bags, data.features)
    post = data.oracle.forward_packed(X[: starts[1]], [0])[0]
    assert post.shape == (4,)
    assert np.all(post > 0.0)
    assert abs(post.sum() - 1.0) <= 1e-12


def test_packed_oracle_equals_one_call_per_bag():
    # ragged bags of 2-5 members, with background segments (noise_rate 0.2)
    data = generate_synthetic(small_cfg())
    X, starts = pack_bags(data.bags.split("test"), data.features)
    packed = data.oracle.forward_packed(X, starts)
    bounds = np.append(starts, len(X))
    assert len(set(np.diff(bounds))) > 1
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        alone = data.oracle.forward_packed(X[lo:hi], [0])[0]
        assert np.max(np.abs(packed[b] - alone)) <= 1e-12, f"bag {b}"
