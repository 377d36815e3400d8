"""Double-precision building blocks shared by the model and its tests.

``RngState`` is numpy's PCG64 ``Generator`` with its integer seed kept, and
the named child streams derived from one root seed.  ``Parameter`` holds a
trainable array and the gradient accumulated into it.  ``Tensor`` is a value
paired with the closed-form rule that adds its gradient into the parameters
it depends on; it records no graph.  The array kernels the model's stages
call are row gather, sigmoid, softmax (a logit of -inf masks its position),
row dot products, unit rows and layer norm; as the stages do, the last three
return their output and its backward, a closure.  All float64: gradient
checks fail at single precision.
"""

from __future__ import annotations

import hashlib
import numbers
from typing import Callable

import numpy as np

# Lower clamp for cosine-similarity denominators: keeps the division defined
# (and differentiable almost everywhere) for near-zero vectors.
NORM_FLOOR = 1e-12

# RngState.clipped_gumbel clips its uniforms to [GUMBEL_EPS, 1 - GUMBEL_EPS], so every
# Gumbel sample lies within -log(GUMBEL_EPS) of 0.
GUMBEL_EPS = 1e-12

# layer_norm_rows adds this to each row's variance before the square root.
LN_EPS = 1e-8

_U64 = 0xFFFFFFFFFFFFFFFF


def _integer(name: str, value, least=None) -> int:
    """``value`` as an int if it is a ``numbers.Integral`` other than a bool (a numpy integer
    passes; a float, string or 0-d array does not) and, when ``least`` is given, at least
    ``least``; else ValueError naming it ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


class RngState(np.random.Generator):
    """numpy's PCG64 ``Generator``, seeded at ``seed`` mod 2**64, that
    remembers its seed; a seed that is not an integer is a ValueError.

    Identical seed + identical call sequence reproduces the identical sample
    stream, which is what makes seeded runs repeatable bit for bit.
    """

    def __init__(self, seed: int):
        self.seed = _integer("seed", seed) & _U64
        super().__init__(np.random.PCG64(self.seed))

    def clipped_gumbel(self, shape) -> np.ndarray:
        """Standard Gumbel samples g = -log(-log(u)), u = ``random(shape)`` clipped away from {0, 1}."""
        u = np.clip(self.random(shape), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
        return -np.log(-np.log(u))

    @staticmethod
    def derive(root_seed: int, name: str) -> "RngState":
        """Child stream for a named purpose (split, init, gumbel, ...)."""
        digest = hashlib.blake2b(
            f"{_integer('seed', root_seed)}:{name}".encode(), digest_size=8
        ).digest()
        return RngState(int.from_bytes(digest, "little"))


class Parameter:
    """Trainable float64 array with a persistent gradient buffer."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, value, name: str = ""):
        self.data = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def reset_gradient(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name or 'unnamed'}, shape={self.data.shape})"


class Tensor:
    """A float64 value and the rule that adds d(value)/d(param), weighted by
    a seed gradient, into every ``Parameter.grad`` it depends on."""

    __slots__ = ("data", "_backward")

    def __init__(self, data, backward: Callable[[float], None]):
        self.data = np.asarray(data, dtype=np.float64)
        self._backward = backward

    def backward(self, grad=1.0) -> None:
        """Add the gradient, seeded with the scalar ``grad``, into the parameters.  Repeated
        calls keep adding (gradient accumulation); ``Parameter.reset_gradient`` clears."""
        if np.ndim(grad):
            raise ValueError(f"the seed gradient must be a scalar, got shape {np.shape(grad)}")
        self._backward(float(grad))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


# ---------------------------------------------------------------------------
# the forward's kernels, named by the stage that calls them.  Plain float64
# arrays in and out; a kernel with a derivative returns its backward beside it.


def gather_rows(table: np.ndarray, idx) -> np.ndarray:
    """Rows ``idx`` of ``table``, copied; an index may repeat."""
    return table[idx]


def sigmoid(x: np.ndarray, out=None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no
    exp overflows; both branches share e = exp(-|x|).  Written into ``out``
    when given, which may be ``x`` itself."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def softmax_rows(logits):
    """Normalized exponentials ``p`` along the last axis, max-subtracted, and their
    backward: it maps g to the gradient w.r.t. the logits of sum(g * p).  A logit of -inf
    masks its position, whose p is exactly 0; empty input or a row of -inf only is a ValueError."""
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty input")
    top = x.max(axis=-1, keepdims=True)
    if np.isneginf(top).any():
        raise ValueError("softmax row is all -inf")
    e = np.exp(x - top)
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> np.ndarray:
        return p * (g - (g * p).sum(axis=-1, keepdims=True))

    return p, backward


def dot_rows(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Dot product of every last-axis vector of ``x`` with every row of the
    2-D ``rows``: shape ``x.shape[:-1] + (len(rows),)``.  A stack of row
    blocks pairs with a stack of ``x``, block by block.  One matrix product
    per block, so it runs as a BLAS GEMM."""
    return x @ np.swapaxes(rows, -1, -2)


def unit_rows(x: np.ndarray):
    """L2-normalize the last axis, clamping the norm below at NORM_FLOOR.  Returns the unit
    rows y and their backward, which maps g to the gradient w.r.t. x of sum(g * y); where
    the clamp froze the denominator only the direct term remains."""
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    y = x / np.maximum(norms, NORM_FLOOR)

    def backward(g: np.ndarray) -> np.ndarray:
        free = norms >= NORM_FLOOR
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (g - free * inner * y) / np.maximum(norms, NORM_FLOOR)

    return y, backward


def layer_norm_rows(x: np.ndarray, gain, bias):
    """Normalize the last axis to zero mean and unit population variance,
    then apply the length-D ``gain`` and ``bias``; a constant row maps to
    ``bias``.  Returns the output and its backward, which maps g to the gradients
    (d_x, d_gain, d_bias) of sum(g * output), the last two summed over the leading axes."""
    mean = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    xhat = (x - mean) * inv

    def backward(g: np.ndarray):
        rows = tuple(range(g.ndim - 1))
        d_gain, d_bias = (g * xhat).sum(axis=rows), g.sum(axis=rows)
        dxhat = g * gain
        d_x = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * d_x, d_gain, d_bias

    return xhat * gain + bias, backward
