import numpy as np
import pytest

from matt.errors import DivergedError, InvalidConfig, ShapeError
from matt.numeric import (
    OptimizerState,
    ParamStore,
    finite_difference_check,
    optimizer_step,
    softmax,
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


def test_softmax_rows_equal_one_row_at_a_time():
    # the packed engine scores a batch with one call; each row must be exactly
    # what a one-row call gives
    rng = np.random.default_rng(1)
    x = rng.standard_normal((9, 16)) * 10.0
    rows = softmax(x)
    for i in range(9):
        assert np.array_equal(rows[i], softmax(x[i]))


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
