"""The central-difference gradient oracle the closed-form backward rules are checked against."""

from typing import Callable, Iterable, List

import numpy as np

from casdis.numerics import Parameter


def finite_difference_gradient(
    f: Callable[[], float],
    params: Iterable[Parameter],
    h: float = 1e-5,
) -> List[np.ndarray]:
    """Central-difference gradient of a deterministic scalar ``f`` w.r.t. every
    entry of every parameter: (f(p + h e) - f(p - h e)) / 2h.

    Perturbation happens in place; original values are restored afterwards.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    estimates = []
    for p in params:
        grad = np.zeros_like(p.data)
        flat_value = p.data.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat_value.size):
            original = flat_value[i]
            flat_value[i] = original + h
            f_plus = float(f())
            flat_value[i] = original - h
            f_minus = float(f())
            flat_value[i] = original
            flat_grad[i] = (f_plus - f_minus) / (2.0 * h)
        estimates.append(grad)
    return estimates
