"""Dense numeric core: initialization, softmax, parameters, optimizers.

Everything here works on float64 numpy arrays. The model writes its forward
and backward passes by hand in numpy, calling softmax from here, and adds
parameter gradients straight into a ParamStore's gradient views. The store
keeps every parameter in one flat value vector and one flat gradient vector,
with a named, shaped view per parameter, so an optimizer step, gradient
scaling and zeroing are each one array operation over the whole model. A
central finite-difference checker verifies the gradients.
"""

from __future__ import annotations

import math
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


# -- softmax -- #

def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis with max subtraction; every row is
    strictly positive and sums to 1."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)  # in place: a batch's (B, G) temporaries add up
    e /= e.sum(axis=-1, keepdims=True)
    return e


# -- parameter storage -- #

class ParamStore:
    """Named parameters with paired gradient accumulators, in one flat buffer.

    All values live in one contiguous float64 vector `flat`, and all
    gradients in `flat_grad`, parameter after parameter. `values[name]` and
    `grads[name]` are reshaped views into them, so per-name code (the model,
    checkpoints, the gradient checker) and whole-store code (the optimizer)
    read and write the same memory. Insertion order is the canonical
    parameter order used by checkpoints, the optimizer, and the gradient
    checker, so creation order must be deterministic. Single-writer: one
    training loop mutates values.
    """

    def __init__(self):
        self.flat = np.zeros(0)
        self.flat_grad = np.zeros(0)
        self.values: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        """Append a parameter (copied) with a zero gradient; returns its view.

        Both buffers are reallocated, so views taken before the call go stale.
        """
        if name in self.values:
            raise InvalidConfig(f"duplicate parameter {name!r}")
        arr = np.asarray(value, dtype=np.float64)
        shapes = {n: v.shape for n, v in self.values.items()}
        shapes[name] = arr.shape
        self.flat = np.concatenate([self.flat, arr.reshape(-1)])
        self.flat_grad = np.concatenate([self.flat_grad, np.zeros(arr.size)])
        self.values, self.grads = {}, {}
        offset = 0
        for n, shape in shapes.items():
            end = offset + int(np.prod(shape, dtype=np.intp))
            self.values[n] = self.flat[offset:end].reshape(shape)
            self.grads[n] = self.flat_grad[offset:end].reshape(shape)
            offset = end
        return self.values[name]

    def zero_grads(self):
        self.flat_grad[...] = 0.0

    def scale_grads(self, factor: float):
        self.flat_grad *= factor

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

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class OptimizerState:
    """SGD or Adam state over a ParamStore; Adam's moments and the step's
    two scratch vectors are flat vectors aligned with the store's `flat`,
    created on the first step."""

    algorithm: str = "adam"
    learning_rate: float = 1e-3
    step_count: int = 0
    moments1: np.ndarray | None = None
    moments2: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.algorithm not in ("sgd", "adam"):
            raise InvalidConfig(f"unknown optimizer {self.algorithm!r}")
        if self.learning_rate <= 0:
            raise InvalidConfig("learning_rate must be positive")


def optimizer_step(state: OptimizerState, store: ParamStore):
    """Apply one update from the accumulated gradients, then zero them.

    Every operation is elementwise over the whole flat buffer, so each entry
    is updated exactly as a per-parameter loop would update it. Adam writes
    its intermediates into two scratch vectors kept with its moments, in the
    textbook order: m2 += ((1 - b2) * g) * g, step = lr * m1_hat / (sqrt(m2_hat) + eps).
    """
    grad = store.flat_grad
    # a finite sum proves every entry finite; only a non-finite one needs the scan
    if not math.isfinite(grad.sum()) and not np.isfinite(grad).all():
        name = next(n for n, g in store.grads.items() if not np.isfinite(g).all())
        raise DivergedError(f"non-finite gradient in {name!r}")
    state.step_count += 1
    lr = state.learning_rate
    if state.scratch is None:
        state.scratch = (np.empty_like(store.flat), np.empty_like(store.flat))
    step, denom = state.scratch
    if state.algorithm == "sgd":
        np.multiply(lr, grad, out=step)
    else:
        t = state.step_count
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        if state.moments1 is None:
            state.moments1 = np.zeros_like(store.flat)
            state.moments2 = np.zeros_like(store.flat)
        m1 = state.moments1
        m2 = state.moments2
        m1 *= b1
        m1 += np.multiply(1.0 - b1, grad, out=step)
        m2 *= b2
        np.multiply(1.0 - b2, grad, out=step)
        step *= grad
        m2 += step
        np.divide(m1, 1.0 - b1**t, out=step)  # m1_hat
        step *= lr
        np.divide(m2, 1.0 - b2**t, out=denom)  # m2_hat
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        step /= denom
    store.flat -= step
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
) -> dict[str, GradCheckResult]:
    """Compare store.grads against central differences of loss_fn.

    loss_fn takes no arguments, reads the store's current values, and must be
    deterministic. The caller populates store.grads with the analytic
    gradient before calling. Parameters larger than max_elements are checked
    on a seeded random subsample of at least 100 elements (max_elements == 0
    checks everything). Values are restored exactly after perturbation.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8), except
    that an absolute gap of at most 1e-10 counts as exact agreement: a
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
            if gap <= 1e-10:
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
