"""Reference implementations that the tests compare the package against.

``finite_diff_grad`` is the central-difference gradient of a scalar function of
one tensor; the autodiff tests check each backward rule against it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from hypermoe.tensor import Tensor

Array = np.ndarray


def finite_diff_grad(f: Callable[[Tensor], float | Tensor], x: Tensor, step: float = 1e-5) -> Array:
    """Central-difference gradient estimate of a scalar-valued f at x."""
    if step <= 0:
        raise ValueError("step must be positive")

    def evaluate(arr: Array) -> float:
        r = f(Tensor(arr))
        return r.item() if isinstance(r, Tensor) else float(r)

    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        hi = evaluate(bumped.reshape(x.shape))
        bumped[i] -= 2.0 * step
        lo = evaluate(bumped.reshape(x.shape))
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(x.shape)
