"""Dense numeric core: initialization, softmax, parameters, optimizers.

Everything here works on float64 numpy arrays. The model writes its forward
and backward passes by hand in numpy, calling softmax, softmax_backward and
weighted_sum from here, and accumulates parameter gradients additively into
a ParamStore. A central finite-difference checker verifies those gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, InvalidConfig, ShapeError


def xavier_uniform(rows: int, cols: int, seed: int) -> np.ndarray:
    """Draw a (rows, cols) matrix i.i.d. uniform on [-a, a], a = sqrt(6/(rows+cols))."""
    if rows <= 0 or cols <= 0:
        raise InvalidConfig(f"matrix dims must be positive, got {rows}x{cols}")
    bound = np.sqrt(6.0 / (rows + cols))
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(rows, cols))


# -- differentiable primitives -- #

def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax with max subtraction; output strictly positive, sums to 1."""
    shifted = x - np.max(x)
    e = np.exp(shifted)
    return e / np.sum(e)


def softmax_backward(dout, y):
    """Backward through softmax given forward output y."""
    return y * (dout - np.dot(dout, y))


def weighted_sum(weights: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Convex combination sum_k weights[k] * vectors[k] for vectors of shape (m, d)."""
    if weights.shape[0] != vectors.shape[0]:
        raise ShapeError(
            f"weighted_sum: {weights.shape[0]} weights for {vectors.shape[0]} vectors"
        )
    return vectors.T @ weights


# -- parameter storage -- #

class ParamStore:
    """Named parameters with paired gradient accumulators.

    Insertion order is the canonical parameter order used by checkpoints,
    the optimizer, and the gradient checker, so creation order must be
    deterministic. Single-writer: one training loop mutates values.
    """

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self.values:
            raise InvalidConfig(f"duplicate parameter {name!r}")
        arr = np.asarray(value, dtype=np.float64)
        self.values[name] = arr
        self.grads[name] = np.zeros_like(arr)
        return arr

    def zero_grads(self):
        for g in self.grads.values():
            g[...] = 0.0

    def add_grad(self, name: str, grad: np.ndarray):
        g = self.grads[name]
        if g.shape != np.shape(grad):
            raise ShapeError(
                f"gradient for {name!r} has shape {np.shape(grad)}, expected {g.shape}"
            )
        g += grad

    def scale_grads(self, factor: float):
        for g in self.grads.values():
            g *= factor

    def load_values(self, values: dict[str, np.ndarray]):
        """Overwrite parameter values in place, validating names and sizes."""
        if set(values) != set(self.values):
            missing = set(self.values) - set(values)
            extra = set(values) - set(self.values)
            raise ShapeError(f"parameter name mismatch: missing={missing} extra={extra}")
        for name, value in values.items():
            arr = np.asarray(value, dtype=np.float64)
            if arr.size != self.values[name].size:
                raise ShapeError(
                    f"parameter {name!r} has {arr.size} elements, expected "
                    f"{self.values[name].size}"
                )
            self.values[name][...] = arr.reshape(self.values[name].shape)


# -- optimizers -- #

@dataclass
class OptimizerState:
    """SGD or Adam state over a ParamStore."""

    algorithm: str = "adam"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    moments1: dict = field(default_factory=dict)
    moments2: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ("sgd", "adam"):
            raise InvalidConfig(f"unknown optimizer {self.algorithm!r}")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")


def optimizer_step(state: OptimizerState, store: ParamStore):
    """Apply one update from the accumulated gradients, then zero them."""
    for name, grad in store.grads.items():
        if not np.all(np.isfinite(grad)):
            raise DivergedError(f"non-finite gradient in {name!r}")
    state.step_count += 1
    lr = state.learning_rate
    if state.algorithm == "sgd":
        for name, value in store.values.items():
            value -= lr * store.grads[name]
    else:
        t = state.step_count
        b1, b2 = state.beta1, state.beta2
        for name, value in store.values.items():
            grad = store.grads[name]
            if name not in state.moments1:
                state.moments1[name] = np.zeros_like(value)
                state.moments2[name] = np.zeros_like(value)
            m1 = state.moments1[name]
            m2 = state.moments2[name]
            m1 *= b1
            m1 += (1.0 - b1) * grad
            m2 *= b2
            m2 += (1.0 - b2) * grad * grad
            m1_hat = m1 / (1.0 - b1**t)
            m2_hat = m2 / (1.0 - b2**t)
            value -= lr * m1_hat / (np.sqrt(m2_hat) + state.epsilon)
    store.zero_grads()


# -- gradient checking -- #

@dataclass
class GradCheckResult:
    name: str
    max_rel_error: float
    n_checked: int
    passed: bool


def finite_difference_check(
    loss_fn,
    store: ParamStore,
    h: float = 1e-5,
    tolerance: float = 1e-4,
    max_elements: int = 0,
    seed: int = 0,
    absolute_guard: float = 1e-10,
) -> dict[str, GradCheckResult]:
    """Compare store.grads against central differences of loss_fn.

    loss_fn takes no arguments, reads the store's current values, and must be
    deterministic. The caller populates store.grads with the analytic
    gradient before calling. Parameters larger than max_elements are checked
    on a seeded random subsample of at least 100 elements (max_elements == 0
    checks everything). Values are restored exactly after perturbation.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8), except
    that an absolute gap below absolute_guard counts as exact agreement: a
    structurally-zero gradient (e.g. a parameter that only shifts softmax
    logits uniformly) still leaves central differences with O(eps*|loss|/h)
    rounding noise, which the 1e-8 denominator floor would misreport.
    """
    rng = np.random.default_rng(seed)
    report = {}
    for name, value in store.values.items():
        analytic = store.grads[name]
        flat = value.reshape(-1)
        n = flat.size
        if max_elements and n > max(max_elements, 100):
            idx = rng.choice(n, size=max(max_elements, 100), replace=False)
            idx.sort()
        else:
            idx = np.arange(n)
        a_flat = analytic.reshape(-1)
        max_rel = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_fn()
            flat[i] = orig - h
            f_minus = loss_fn()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            gap = abs(a_flat[i] - numeric)
            if gap <= absolute_guard:
                continue
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            max_rel = max(max_rel, gap / denom)
        report[name] = GradCheckResult(
            name=name,
            max_rel_error=max_rel,
            n_checked=len(idx),
            passed=max_rel <= tolerance,
        )
    return report
