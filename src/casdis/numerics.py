"""Double-precision array math with hand-written gradients.

The cascade model is differentiated by recording its forward pass as a small
graph of ``Tensor`` nodes.  Every primitive carries its own analytic backward
rule, and ``finite_difference_gradient`` is the independent oracle the test
suite uses to keep those rules honest.  All arithmetic is float64; gradient
checks are meaningless at single precision.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

# Lower clamp for cosine-similarity denominators: keeps the division defined
# (and differentiable almost everywhere) for near-zero vectors.
NORM_FLOOR = 1e-12

_U64 = 0xFFFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# deterministic randomness


class RngState:
    """Seeded PCG64 stream that remembers its seed.

    Identical seed + identical call sequence reproduces the identical sample
    stream, which is what makes seeded runs repeatable bit for bit.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _U64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, size=None):
        """Uniform float64 samples in [0, 1)."""
        return self._gen.random(size)

    def uniform_between(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    @staticmethod
    def derive(root_seed: int, name: str) -> "RngState":
        """Child stream for a named purpose (split, init, gumbel, ...)."""
        digest = hashlib.blake2b(
            f"{int(root_seed)}:{name}".encode(), digest_size=8
        ).digest()
        return RngState(int.from_bytes(digest, "little"))


def gumbel_noise(shape, rng: RngState) -> np.ndarray:
    """Standard Gumbel samples g = -log(-log(u)), u clipped away from {0, 1}."""
    u = np.clip(rng.uniform(shape), 1e-12, 1.0 - 1e-12)
    return -np.log(-np.log(u))


# ---------------------------------------------------------------------------
# plain forward kernel (shared by the recording ops below)


def softmax(logits, mask=None) -> np.ndarray:
    """Normalized exponentials along the last axis, max-subtracted.

    ``mask`` (same shape, True = keep) forces masked positions to exactly 0.
    Raises ValueError on empty input or a fully masked row.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of empty input")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != x.shape:
            raise ValueError(f"mask shape {m.shape} != logits shape {x.shape}")
        if not m.any(axis=-1).all():
            raise ValueError("softmax row is fully masked")
        shifted = np.where(m, x, -np.inf)
        e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
        e = np.where(m, e, 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# recorded tensors


class Tensor:
    """One node of the recorded computation: a float64 array plus the rule
    that routes the output gradient back to the node's inputs."""

    __slots__ = ("data", "_parents", "_backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self._parents = parents
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self, grad=1.0) -> None:
        """Accumulate d(self)/d(param) into every reachable Parameter.grad.

        Repeated calls keep adding (gradient accumulation); call
        ``Parameter.reset_gradient`` to clear.
        """
        if np.isscalar(grad):
            g0 = np.full(self.data.shape, float(grad))
        else:
            g0 = np.asarray(grad, dtype=np.float64)
            if g0.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {g0.shape} != {self.data.shape}")
        grads = {id(self): g0}
        for node in reversed(_topo_order(self)):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if isinstance(node, Parameter):
                node.grad += g
            elif node._backward is not None:
                node._backward(g, grads)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class Parameter(Tensor):
    """Trainable leaf tensor with a persistent gradient buffer."""

    __slots__ = ("grad", "name")

    def __init__(self, value, name: str = ""):
        super().__init__(value)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def reset_gradient(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name or 'unnamed'}, shape={self.data.shape})"


def _topo_order(root: Tensor):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _data(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _accumulate(grads, tensor, g):
    key = id(tensor)
    if key in grads:
        grads[key] = grads[key] + g
    else:
        grads[key] = g


def _op(out_data, rules) -> Tensor:
    """Build a node from (input, grad_fn) pairs; non-Tensor inputs are constants."""
    parents = tuple(t for t, _ in rules if isinstance(t, Tensor))
    if not parents:
        return Tensor(out_data)

    def run(g, grads):
        for t, fn in rules:
            if isinstance(t, Tensor):
                _accumulate(grads, t, fn(g))

    return Tensor(out_data, parents, run)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# recorded primitives


def add(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _op(ad + bd, [
        (a, lambda g: _unbroadcast(g, ad.shape)),
        (b, lambda g: _unbroadcast(g, bd.shape)),
    ])


def sub(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _op(ad - bd, [
        (a, lambda g: _unbroadcast(g, ad.shape)),
        (b, lambda g: _unbroadcast(-g, bd.shape)),
    ])


def mul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    return _op(ad * bd, [
        (a, lambda g: _unbroadcast(g * bd, ad.shape)),
        (b, lambda g: _unbroadcast(g * ad, bd.shape)),
    ])


def matmul(a, b) -> Tensor:
    ad, bd = _data(a), _data(b)
    if ad.ndim != 2 or bd.ndim != 2:
        raise ValueError(f"matmul on shapes {ad.shape} and {bd.shape} not supported")
    return _op(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def sigmoid(x) -> Tensor:
    xd = _data(x)
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _op(out, [(x, lambda g: g * out * (1.0 - out))])


def tanh(x) -> Tensor:
    out = np.tanh(_data(x))
    return _op(out, [(x, lambda g: g * (1.0 - out * out))])


def gather_rows(x, indices) -> Tensor:
    """Row lookup x[indices]; duplicate indices accumulate gradient."""
    xd = _data(x)
    idx = np.asarray(indices, dtype=np.intp)

    def back(g):
        full = np.zeros_like(xd)
        np.add.at(full, idx, g)
        return full

    return _op(xd[idx], [(x, back)])


def stack_rows(items: Sequence) -> Tensor:
    out = np.stack([_data(t) for t in items])
    rules = [(t, (lambda g, i=i: g[i])) for i, t in enumerate(items)]
    return _op(out, rules)


def sum_all(x) -> Tensor:
    xd = _data(x)
    return _op(xd.sum(), [(x, lambda g: np.full(xd.shape, float(g)))])


def softmax_rows(x, mask=None, scale: float = 1.0) -> Tensor:
    """softmax(scale * x) along the last axis, optionally masked."""
    xd = _data(x)
    s = softmax(scale * xd, mask)

    def back(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return scale * s * (g - inner)

    return _op(s, [(x, back)])


def layer_norm_rows(x, gain, bias, epsilon: float = 1e-8) -> Tensor:
    """Normalize the last axis to zero mean and unit population variance,
    then apply the length-D ``gain`` and ``bias``; a constant row maps to
    ``bias``."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + epsilon)
    xhat = (xd - mean) * inv
    out = xhat * gd + bd
    lead = tuple(range(xd.ndim - 1))

    def back_x(g):
        dxhat = g * gd
        return inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )

    return _op(out, [
        (x, back_x),
        (gain, lambda g: (g * xhat).sum(axis=lead)),
        (bias, lambda g: g.sum(axis=lead)),
    ])


def unit_rows(x) -> Tensor:
    """L2-normalize the last axis, clamping the norm below at NORM_FLOOR."""
    xd = _data(x)
    norms = np.linalg.norm(xd, axis=-1, keepdims=True)
    clamped = np.maximum(norms, NORM_FLOOR)
    y = xd / clamped
    free = (norms >= NORM_FLOOR).astype(np.float64)  # 0 where the clamp froze the denominator

    def back(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (g - free * inner * y) / clamped

    return _op(y, [(x, back)])


def dot_rows(y, m) -> Tensor:
    """out[..., r] = y[..., :] . m[r, :] for every row r of the 2-D matrix m."""
    yd, md = _data(y), _data(m)
    out = np.einsum("...d,rd->...r", yd, md)
    rows, d = md.shape
    return _op(out, [
        (y, lambda g: np.einsum("...r,rd->...d", g, md)),
        (m, lambda g: g.reshape(-1, rows).T @ yd.reshape(-1, d)),
    ])


def weighted_mix(alpha, beta, states) -> Tensor:
    """out[t, k, :] = sum_i alpha[t, i] * beta[i, k] * states[i, :]."""
    ad, bd, hd = _data(alpha), _data(beta), _data(states)
    out = np.einsum("ti,ik,id->tkd", ad, bd, hd)
    return _op(out, [
        (alpha, lambda g: np.einsum("tkd,ik,id->ti", g, bd, hd)),
        (beta, lambda g: np.einsum("tkd,ti,id->ik", g, ad, hd)),
        (states, lambda g: np.einsum("tkd,ti,ik->id", g, ad, bd)),
    ])


def max_over_axis(x, axis: int) -> Tensor:
    """Maximum along ``axis``; the gradient flows to the first argmax only."""
    xd = _data(x)
    idx = np.argmax(xd, axis=axis)
    out = np.take_along_axis(xd, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def back(g):
        full = np.zeros_like(xd)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        return full

    return _op(out, [(x, back)])


def logsumexp(x) -> Tensor:
    """log(sum(exp(x))) along the last axis, max-subtracted."""
    xd = _data(x)
    mx = xd.max(axis=-1, keepdims=True)
    out = np.log(np.exp(xd - mx).sum(axis=-1, keepdims=True)) + mx
    soft = np.exp(xd - out)
    out = out.squeeze(-1)
    return _op(out, [(x, lambda g: soft * np.expand_dims(g, -1))])


def take_per_row(x, indices) -> Tensor:
    """out[t] = x[t, indices[t]] for a 2-D x."""
    xd = _data(x)
    idx = np.asarray(indices, dtype=np.intp)
    rows = np.arange(xd.shape[0])

    def back(g):
        full = np.zeros_like(xd)
        full[rows, idx] = g
        return full

    return _op(xd[rows, idx], [(x, back)])


# Fused recurrence ops: one node instead of four keeps the per-step graph
# small, which dominates the training wall time at desk scale.


def gate_preact(a, t: int, h, u) -> Tensor:
    """a[t] + h @ u — the pre-activation of one recurrent gate."""
    ad, hd, ud = _data(a), _data(h), _data(u)
    row = int(t)

    def back_a(g):
        full = np.zeros_like(ad)
        full[row] = g
        return full

    return _op(ad[row] + hd @ ud, [
        (a, back_a),
        (h, lambda g: ud @ g),
        (u, lambda g: np.outer(hd, g)),
    ])


def gru_blend(z, h, cand) -> Tensor:
    """(1 - z) * h + z * cand — the gated state update."""
    zd, hd, cd = _data(z), _data(h), _data(cand)
    return _op((1.0 - zd) * hd + zd * cd, [
        (z, lambda g: g * (cd - hd)),
        (h, lambda g: g * (1.0 - zd)),
        (cand, lambda g: g * zd),
    ])


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_gradient(
    f: Callable[[], float],
    params: Iterable[Parameter],
    h: float = 1e-5,
) -> "list[np.ndarray]":
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

