import numpy as np
import pytest

from matt.errors import DivergedError, InvalidConfig, ShapeError
from matt.numeric import (
    OptimizerState,
    ParamStore,
    finite_difference_check,
    optimizer_step,
    softmax,
    softmax_backward,
    weighted_sum,
    xavier_uniform,
)


# -- initialization -- #

def test_xavier_single_element_bound():
    for seed in range(20):
        value = xavier_uniform(1, 1, seed)[0, 0]
        assert abs(value) <= np.sqrt(3.0)


def test_xavier_large_draw_centered():
    sample = xavier_uniform(1000, 1000, 42)
    assert abs(sample.mean()) <= 0.01
    bound = np.sqrt(6.0 / 2000.0)
    assert np.all(np.abs(sample) <= bound)


def test_xavier_deterministic_per_seed():
    assert np.array_equal(xavier_uniform(5, 7, 3), xavier_uniform(5, 7, 3))
    assert not np.array_equal(xavier_uniform(5, 7, 3), xavier_uniform(5, 7, 4))


def test_xavier_rejects_bad_dims():
    with pytest.raises(InvalidConfig):
        xavier_uniform(0, 3, 1)


# -- primitives -- #

def test_softmax_of_zeros_is_uniform():
    assert np.allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)


def test_softmax_shift_invariance():
    x = np.array([0.3, -1.2, 2.0, 0.0])
    assert np.all(np.abs(softmax(x + 100.0) - softmax(x)) <= 1e-12)


def test_softmax_strictly_positive_and_normalized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = softmax(rng.standard_normal(8) * 50)
        assert np.all(y > 0.0)
        assert abs(y.sum() - 1.0) <= 1e-12


def test_weighted_sum_of_opposite_vectors_cancels():
    s = np.array([1.0, -2.0, 3.0])
    combo = weighted_sum(np.array([0.5, 0.5]), np.stack([s, -s]))
    assert np.array_equal(combo, np.zeros(3))


def test_weighted_sum_stays_in_convex_hull():
    rng = np.random.default_rng(1)
    for _ in range(30):
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        vectors = rng.standard_normal((m, d))
        weights = softmax(rng.standard_normal(m))
        combo = weighted_sum(weights, vectors)
        assert np.all(combo >= vectors.min(axis=0) - 1e-12)
        assert np.all(combo <= vectors.max(axis=0) + 1e-12)


def _fd_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        g.flat[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def test_primitive_backward_rules_match_finite_differences():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(4)
    s = softmax(x)
    target = rng.standard_normal(4)
    ds = softmax_backward(target, s)
    assert np.allclose(
        ds, _fd_grad(lambda v: float(softmax(v) @ target), x), atol=1e-6
    )


# -- param store and optimizers -- #

def test_param_store_tracks_shapes():
    store = ParamStore()
    store.add("w", np.zeros((2, 3)))
    with pytest.raises(InvalidConfig):
        store.add("w", np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        store.add_grad("w", np.zeros((3, 2)))
    store.add_grad("w", np.ones((2, 3)))
    store.zero_grads()
    assert np.all(store.grads["w"] == 0.0)


def test_sgd_arithmetic():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    store.add_grad("p", np.array([2.0]))
    optimizer_step(OptimizerState(algorithm="sgd", learning_rate=0.1), store)
    assert np.allclose(store.values["p"], [0.8])
    assert np.all(store.grads["p"] == 0.0)


@pytest.mark.parametrize("algorithm", ["sgd", "adam"])
def test_zero_gradient_changes_nothing(algorithm):
    store = ParamStore()
    store.add("p", np.array([1.5, -2.5]))
    before = store.values["p"].copy()
    optimizer_step(OptimizerState(algorithm=algorithm, learning_rate=0.1), store)
    assert np.array_equal(store.values["p"], before)


def test_adam_first_step_magnitude():
    store = ParamStore()
    store.add("p", np.zeros((3, 3)))
    store.add_grad("p", np.ones((3, 3)))
    lr = 0.05
    optimizer_step(OptimizerState(algorithm="adam", learning_rate=lr), store)
    magnitude = np.abs(store.values["p"])
    assert np.all(np.abs(magnitude - lr) / lr <= 1e-6)


def test_non_finite_gradient_diverges():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    store.add_grad("p", np.array([np.nan]))
    with pytest.raises(DivergedError):
        optimizer_step(OptimizerState(algorithm="sgd"), store)


def test_unknown_optimizer_rejected():
    with pytest.raises(InvalidConfig):
        OptimizerState(algorithm="rmsprop")


# -- gradient checker -- #

def test_quadratic_loss_checks_clean():
    store = ParamStore()
    rng = np.random.default_rng(3)
    store.add("p", rng.standard_normal((4, 3)))

    def loss_fn():
        return 0.5 * float((store.values["p"] ** 2).sum())

    store.zero_grads()
    store.add_grad("p", store.values["p"])
    report = finite_difference_check(loss_fn, store, h=1e-5, tolerance=1e-9)
    assert report["p"].passed
    assert report["p"].max_rel_error <= 1e-9


def test_corrupted_gradient_is_detected():
    store = ParamStore()
    rng = np.random.default_rng(4)
    store.add("p", rng.standard_normal(6) + 1.0)

    def loss_fn():
        return 0.5 * float((store.values["p"] ** 2).sum())

    store.zero_grads()
    store.add_grad("p", -store.values["p"])  # wrong sign
    report = finite_difference_check(loss_fn, store)
    assert not report["p"].passed
    assert report["p"].max_rel_error > 1e-2


def test_subsampling_large_tensors():
    store = ParamStore()
    rng = np.random.default_rng(5)
    store.add("p", rng.standard_normal((30, 30)))

    def loss_fn():
        return 0.5 * float((store.values["p"] ** 2).sum())

    store.add_grad("p", store.values["p"])
    report = finite_difference_check(loss_fn, store, max_elements=100)
    assert report["p"].n_checked == 100
    assert report["p"].passed
