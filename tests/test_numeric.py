import struct

import numpy as np
import pytest

from matt.errors import DivergedError, InvalidConfig
from matt.numeric import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
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
    store.grads["w"] += np.ones((2, 3))
    store.zero_grads()
    assert np.all(store.grads["w"] == 0.0)


def test_sgd_arithmetic():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    store.grads["p"] += np.array([2.0])
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
    store.grads["p"] += np.ones((3, 3))
    lr = 0.05
    optimizer_step(OptimizerState(algorithm="adam", learning_rate=lr), store)
    magnitude = np.abs(store.values["p"])
    assert np.all(np.abs(magnitude - lr) / lr <= 1e-6)


def test_non_finite_gradient_diverges():
    store = ParamStore()
    store.add("p", np.array([1.0]))
    store.grads["p"] += np.array([np.nan])
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
    store.grads["p"] += store.values["p"]
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
    store.grads["p"] += -store.values["p"]  # wrong sign
    report = finite_difference_check(loss_fn, store)
    assert not report["p"].passed
    assert report["p"].max_rel_error > 1e-2


def test_subsampling_large_tensors():
    store = ParamStore()
    rng = np.random.default_rng(5)
    store.add("p", rng.standard_normal((30, 30)))

    def loss_fn():
        return 0.5 * float((store.values["p"] ** 2).sum())

    store.grads["p"] += store.values["p"]
    report = finite_difference_check(loss_fn, store, max_elements=100)
    assert report["p"].n_checked == 100
    assert report["p"].passed


# -- flat parameter buffer -- #

SHAPES = {"w0": (3, 4), "b0": (3,), "scalar": (1,), "q": (4, 1)}


def filled_store(seed=0):
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for name, shape in SHAPES.items():
        store.add(name, rng.standard_normal(shape))
    return store


def test_every_view_aliases_the_flat_buffers_after_each_add():
    store = ParamStore()
    rng = np.random.default_rng(0)
    for n_added, (name, shape) in enumerate(SHAPES.items(), start=1):
        value = rng.standard_normal(shape)
        returned = store.add(name, value)
        assert returned is store.values[name]
        assert np.array_equal(returned, value) and not np.shares_memory(returned, value)
        assert len(store.values) == len(store.grads) == n_added
        assert store.flat.size == store.flat_grad.size == sum(
            v.size for v in store.values.values()
        )
        for n in store.values:
            assert store.values[n].shape == store.grads[n].shape == SHAPES[n]
            assert np.shares_memory(store.values[n], store.flat)
            assert np.shares_memory(store.grads[n], store.flat_grad)
    # views lie in insertion order, back to back
    assert np.array_equal(
        store.flat, np.concatenate([v.reshape(-1) for v in store.values.values()])
    )


def test_add_keeps_accumulated_gradients():
    store = ParamStore()
    store.add("a", np.zeros(2))
    store.grads["a"] += np.array([1.5, -2.0])
    store.add("b", np.zeros((2, 2)))
    assert np.array_equal(store.grads["a"], [1.5, -2.0])
    assert np.all(store.grads["b"] == 0.0)


def reference_step(state, values, grads, moments1, moments2):
    """The per-parameter update loop the flat optimizer step replaced."""
    lr = state.learning_rate
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, value in values.items():
        grad = grads[name]
        if state.algorithm == "sgd":
            value -= lr * grad
            continue
        m1 = moments1.setdefault(name, np.zeros_like(value))
        m2 = moments2.setdefault(name, np.zeros_like(value))
        m1 *= b1
        m1 += (1.0 - b1) * grad
        m2 *= b2
        m2 += (1.0 - b2) * grad * grad
        m1_hat = m1 / (1.0 - b1**t)
        m2_hat = m2 / (1.0 - b2**t)
        value -= lr * m1_hat / (np.sqrt(m2_hat) + ADAM_EPSILON)


@pytest.mark.parametrize("algorithm", ["sgd", "adam"])
def test_flat_step_equals_the_per_parameter_loop_bitwise(algorithm):
    store = filled_store(1)
    state = OptimizerState(algorithm=algorithm, learning_rate=0.03)
    values = {k: v.copy() for k, v in store.values.items()}
    moments1, moments2 = {}, {}
    rng = np.random.default_rng(2)
    for _ in range(7):
        grads = {k: rng.standard_normal(v.shape) * 10.0 ** rng.integers(-6, 3)
                 for k, v in values.items()}
        for name, grad in grads.items():
            store.grads[name] += grad
        store.scale_grads(1.0 / 3.0)
        scaled = {k: g * (1.0 / 3.0) for k, g in grads.items()}
        optimizer_step(state, store)
        reference_step(state, values, scaled, moments1, moments2)
        for name, value in values.items():
            assert store.values[name].tobytes() == value.tobytes(), name
        assert np.all(store.flat_grad == 0.0)


def test_divergence_names_the_parameter_with_the_bad_gradient():
    store = filled_store()
    before = store.flat.copy()
    store.grads["b0"] += np.array([0.0, np.nan, 1.0])
    with pytest.raises(DivergedError, match="^non-finite gradient in 'b0'$"):
        optimizer_step(OptimizerState(algorithm="adam"), store)
    assert np.array_equal(store.flat, before)


def test_store_built_by_add_saves_the_same_checkpoint_bytes(tmp_path):
    from matt.checkpoint import save_checkpoint

    store = filled_store(3)
    save_checkpoint(tmp_path / "flat.ckpt", store)
    # the checkpoint layout written out by hand from the original arrays
    rng = np.random.default_rng(3)
    blob = b"MATT" + struct.pack("<II", 1, len(SHAPES))
    for name, shape in SHAPES.items():
        value = rng.standard_normal(shape)
        rows, cols = (shape[0], 1) if len(shape) == 1 else shape
        blob += struct.pack("<H", len(name)) + name.encode() + struct.pack("<II", rows, cols)
        blob += value.astype("<f8").tobytes()
    assert (tmp_path / "flat.ckpt").read_bytes() == blob
