"""Cascade next-node model.

A GRU encodes the sequence of infected nodes; scaled dot-product attention
weights the history against the current state; a bank of prototype vectors
splits each position softly across K latent factors (cosine similarity,
optionally sharpened with Gumbel noise during training); the doubly-weighted,
layer-normalized sums give K candidate states per step, and candidates are
scored against the shared node-embedding table with a max-over-factors
softmax loss.

The model is defined once, on float64 arrays and the kernels of ``casdis.numerics``: ``_recurrence``
(embedding, dropout, GRU) and ``_head`` (attention, factors, mix, layer norm) on a padded block of
cascades, then per cascade scoring (``_score_rows``) and the step loss on its (t, N) score block
(``_step_losses``).  Each stage, and each kernel with a derivative, returns its output and its
closed-form backward, a closure over the forward's intermediates; the callers compose the
closures.  A batch is a list of cascades.  ``_chunks`` runs the recurrence per group of consecutive
cascades and the O(L^2) head per chunk of a group, each cut from its own cascades' lengths, and
hands the cascades to ``batch_loss`` (training) and ``batch_scores`` (validation, evaluation) one at
a time; it is the one place that pads, once per group.  The B=1 calls run ``_recurrence`` and
``_head`` on one row themselves.  Dropout runs iff ``dropout_rate > 0`` and Gumbel noise iff a
``GumbelConfig`` is given; only the public ``forward_cascade`` has a ``training`` switch, which
turns both off.  Tests pin the model to a numpy oracle and finite differences.

Scoring (``_score_rows``) takes each candidate's best factor on the unscaled product
and scales the (t, N) maximum once.  Only a call that wants a gradient (training,
``forward_cascade``) builds the index of that factor, held by its backward; evaluation,
``prefix_scores``/``predict_topn`` and validation build none.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import (
    GUMBEL_EPS, Parameter, RngState, Tensor, _integer, dot_rows, gather_rows, layer_norm_rows, sigmoid,
    softmax_rows, unit_rows,
)


@dataclass
class GumbelConfig:
    """Factor-assignment noise for training; pass ``None`` to train without it."""

    tau: float = 1.0
    rng: Optional[RngState] = None

    def __post_init__(self):
        if not 0 < self.tau < math.inf:  # also refuses NaN
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        # a noisy factor logit cos/sqrt(D) + g lies within 1 + |g| <= 1 - log(GUMBEL_EPS) of 0;
        # the softmax takes 1/tau times it and subtracts the row's maximum, so twice that
        # bound over tau must be finite
        bound = 1.0 - math.log(GUMBEL_EPS)
        if not math.isfinite(1.0 / self.tau * 2.0 * bound):
            raise ValueError(f"tau {self.tau} is too small: the Gumbel-noised factor logits lie within "
                             f"{bound:.4g} of 0, and their spread over tau leaves the float64 range")


_PARAM_NAMES = (
    "embeddings", "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h",
    "prototypes", "ln_gain", "ln_bias",
)


def _param_shapes(num_nodes: int, dim: int, factors: int):
    """Shape of every parameter, in ``_PARAM_NAMES`` order."""
    gru = [(dim, dim), (dim, dim), (dim,)] * 3
    return [(num_nodes + 1, dim), *gru, (factors, dim), (dim,), (dim,)]


@dataclass
class ModelParams:
    """All trainable state plus the shape hyperparameters.

    ``embeddings`` has ``num_nodes + 1`` rows: the extra final row is the
    padding slot, which never appears in candidate scoring.
    """

    num_nodes: int
    dim: int
    factors: int
    embeddings: Parameter
    w_z: Parameter
    u_z: Parameter
    b_z: Parameter
    w_r: Parameter
    u_r: Parameter
    b_r: Parameter
    w_h: Parameter
    u_h: Parameter
    b_h: Parameter
    prototypes: Parameter
    ln_gain: Parameter
    ln_bias: Parameter

    @property
    def pad_index(self) -> int:
        return self.num_nodes

    def named_parameters(self):
        return [(name, getattr(self, name)) for name in _PARAM_NAMES]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def reset_gradients(self) -> None:
        for p in self.parameters():
            p.reset_gradient()

    def clone(self) -> "ModelParams":
        return ModelParams.from_arrays({name: p.data.copy() for name, p in self.named_parameters()})

    @staticmethod
    def from_arrays(arrays) -> "ModelParams":
        """The model whose parameter ``name`` holds ``arrays[name]``, for each name in ``_PARAM_NAMES``;
        N and D come from the (N + 1, D) ``embeddings``, K from the (K, D) ``prototypes``."""
        (rows, dim), factors = arrays["embeddings"].shape, len(arrays["prototypes"])
        return ModelParams(rows - 1, dim, factors, **{name: Parameter(arrays[name], name) for name in _PARAM_NAMES})


def _check_sizes(num_nodes, dim, factors) -> None:
    """The size rule of a model, built or loaded: integers N >= 1, D >= 2 and K >= 1, else ValueError."""
    for name, value, least in (("num_nodes", num_nodes, 1), ("dim", dim, 2), ("factors", factors, 1)):
        _integer(name, value, least)


def init_params(num_nodes: int, dim: int, factors: int, rng: RngState) -> ModelParams:
    """Uniform(-1/sqrt(D), 1/sqrt(D)) init; prototypes are resampled until
    pairwise |cos| <= 0.99 so factor assignments start informative."""
    _check_sizes(num_nodes, dim, factors)
    bound = 1.0 / math.sqrt(dim)

    def uni(*shape):
        return rng.uniform(-bound, bound, shape)

    # prototypes are drawn last so that models differing only in K share
    # bit-identical embedding/GRU/layer-norm initializations per seed
    arrays = {"embeddings": uni(num_nodes + 1, dim)}
    arrays.update((name, uni(dim, dim)) for name in ("w_z", "u_z", "w_r", "u_r", "w_h", "u_h"))
    arrays.update((name, uni(dim)) for name in ("b_z", "b_r", "b_h"))

    protos = uni(factors, dim)
    for _ in range(100):
        unit = unit_rows(protos)[0]
        cos = unit @ unit.T
        np.fill_diagonal(cos, 0.0)
        bad = np.argwhere(np.abs(cos) > 0.99)
        if bad.size == 0:
            break
        protos[bad[0][0]] = uni(dim)
    arrays.update(prototypes=protos, ln_gain=np.ones(dim), ln_bias=np.zeros(dim))
    return ModelParams.from_arrays(arrays)


# ---------------------------------------------------------------------------
# the batch pipeline

# A batch runs its recurrence over groups of rows of at most this many elements of
# rows x L x D, and its head over chunks of a group of at most _CHUNK_ELEMENTS of
# rows x L x (L + K*D), L the longest of the run's own rows (see _runs).
_GROUP_ELEMENTS = 2 ** 17
_CHUNK_ELEMENTS = 2 ** 16


@dataclass
class CascadeForward:
    """Result of one cascade pass.

    ``loss`` is the sum of the step losses.  ``loss.backward(g)`` adds g
    times the loss gradient into every ``Parameter.grad``; repeated calls
    keep adding.
    """

    loss: Tensor                 # scalar
    step_losses: np.ndarray      # (t,)


def _check_dropout_rate(rate) -> None:
    """ValueError unless the dropout ``rate`` is in [0, 1); NaN is refused too."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0,1), got {rate}")


def _check_noise(gumbel: Optional[GumbelConfig], dropout_rate: float, dropout_rng: Optional[RngState]) -> None:
    """ValueError for a dropout rate outside [0, 1) or a noise without its rng; checked before any cascade runs,
    so the refusal does not depend on the data."""
    _check_dropout_rate(dropout_rate)
    if dropout_rate > 0.0 and dropout_rng is None:
        raise ValueError("dropout requested but no rng given")
    if gumbel is not None and gumbel.rng is None:
        raise ValueError("gumbel noise requested but no rng given")


def _recurrence(params: ModelParams, positions: np.ndarray, lengths: np.ndarray, dropout_rate: float,
                dropout_rng: Optional[RngState]):
    """Embedding gather, dropout and GRU states ``hidden`` (B, L, D) of B cascades, and
    their backward.  Row b of the (B, L) ``positions`` holds a cascade in its first
    ``lengths[b]`` entries, then padding, so a padded step never feeds a real one.
    Dropout runs iff ``dropout_rate > 0``, its mask drawn in one call for the real positions
    in row-major order (cascade by cascade); the caller checks the rate and rng (``_check_noise``).
    The update and reset gates live in one (B, L, 2D) block."""
    (b, width), d = positions.shape, params.dim
    real = np.arange(width) < lengths[:, None]
    xe = gather_rows(params.embeddings.data, positions)
    keep = None
    if dropout_rate > 0.0:
        keep = np.zeros((b, width, d), dtype=bool)
        keep[real] = dropout_rng.random((lengths.sum(), d)) >= dropout_rate
        xe *= np.where(keep, 1.0 / (1.0 - dropout_rate), 0.0)

    # input transforms for every step at once: the update and reset gates as
    # one (B, L, 2D) block zr = [z | r], the candidate apart.  Each step runs one
    # recurrent GEMM and one sigmoid on its zr slice, then the candidate's tanh,
    # all in place, as the recurrence walks the L steps with a (B, D) state
    zr = xe @ np.hstack([params.w_z.data, params.w_r.data]) + np.hstack([params.b_z.data, params.b_r.data])
    cand = xe @ params.w_h.data + params.b_h.data
    u_zr, u_h = np.hstack([params.u_z.data, params.u_r.data]), params.u_h.data
    hidden, h = np.empty((b, width, d)), np.zeros((b, d))
    for t in range(width):
        gates, c = zr[:, t], cand[:, t]
        sigmoid(np.add(gates, h @ u_zr, out=gates), out=gates)
        z, r = gates[:, :d], gates[:, d:]
        np.tanh(np.add(c, (r * h) @ u_h, out=c), out=c)
        h = hidden[:, t] = (1.0 - z) * h + z * c

    def backward(d_hidden: np.ndarray) -> None:
        """Add the gradient of sum(d_hidden * hidden), dropout held fixed, into the grads;
        ``d_hidden`` is overwritten.  A padded step whose d_hidden is zero gets exactly zero
        gradient, so only the table scatter skips padding."""
        # GRU backprop through time: h_t = (1 - z) h_{t-1} + z cand
        u_z, u_r = params.u_z.data, params.u_r.data
        d_az, d_ar, d_ah = d_hidden, np.empty((b, width, d)), np.empty((b, width, d))
        carry = zeros = np.zeros((b, d))
        for t in range(width - 1, -1, -1):
            z, r, c = zr[:, t, :d], zr[:, t, d:], cand[:, t]
            h_prev = hidden[:, t - 1] if t else zeros
            dh = d_hidden[:, t] + carry
            d_ah[:, t] = dh * z * (1.0 - c * c)
            d_rh = d_ah[:, t] @ u_h.T
            d_ar[:, t] = d_rh * h_prev * r * (1.0 - r)
            d_az[:, t] = dh * (c - h_prev) * z * (1.0 - z)
            carry = dh * (1.0 - z) + d_rh * r + d_ar[:, t] @ u_r.T + d_az[:, t] @ u_z.T

        h_prev = np.concatenate([np.zeros((b, 1, d)), hidden[:, :-1]], axis=1).reshape(-1, d)
        d_xe = np.zeros((b * width, d))
        for gate, d_a in zip("zrh", (d_az, d_ar, d_ah)):
            w, u, bias = (getattr(params, f"{kind}_{gate}") for kind in "wub")
            d_a = d_a.reshape(-1, d)
            u.grad += (zr[..., d:].reshape(-1, d) * h_prev if gate == "h" else h_prev).T @ d_a
            w.grad += xe.reshape(-1, d).T @ d_a
            bias.grad += d_a.sum(axis=0)
            d_xe += d_a @ w.data.T
        d_xe = d_xe.reshape(b, width, d)
        if keep is not None:
            d_xe *= np.where(keep, 1.0 / (1.0 - dropout_rate), 0.0)
        # rows repeat when a node recurs in a cascade: add.at accumulates them
        np.add.at(params.embeddings.grad, positions[real], d_xe[real])

    return hidden, backward


def _head(params: ModelParams, hidden: np.ndarray, lengths: np.ndarray, gumbel: Optional[GumbelConfig],
          rows=slice(None)):
    """Attention, factors, weighted mix and layer norm on the GRU states of B
    cascades, and their backward: ``ys[b, t]`` (B, L, K, D) is for the prefix of
    length t+1.  Gumbel noise runs iff ``gumbel`` is given, drawn in one call for the real
    rows in row-major order (cascade by cascade); attention sees the real keys i <= t.
    ``rows`` (a slice or index array over the L positions) limits attention, mix and layer
    norm to those prefixes, and then the backward must not be called."""
    width, d = hidden.shape[1], params.dim
    scale = 1.0 / math.sqrt(d)
    real = np.arange(width) < lengths[:, None]
    mask = np.tri(width, dtype=bool)[rows] & real[:, None, :]
    attn, attn_backward = softmax_rows(np.where(mask, scale * dot_rows(hidden[:, rows], hidden), -np.inf))

    unit_h, unit_h_backward = unit_rows(hidden)
    unit_p, unit_p_backward = unit_rows(params.prototypes.data)
    logits, tau = dot_rows(unit_h, unit_p) * scale, 1.0
    if gumbel is not None:
        # the noise is drawn here, onto the real rows, and held fixed in the backward
        logits[real] += gumbel.rng.clipped_gumbel((lengths.sum(), params.factors))
        tau = gumbel.tau
    factors, factors_backward = softmax_rows(1.0 / tau * logits)

    # the weighted mix out[t, k] = sum_i attn[t, i] factors[i, k] hidden[i]: one GEMM
    # of attn against the (L, K*D) block fh[i, k] = factors[i, k] hidden[i] of each cascade
    fh = (factors[..., None] * hidden[:, :, None, :]).reshape(factors.shape[:2] + (-1,))
    mixed = (attn @ fh).reshape(attn.shape[:2] + (params.factors, d))
    ys, ln_backward = layer_norm_rows(mixed, params.ln_gain.data, params.ln_bias.data)

    def backward(d_ys: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. ``hidden`` of sum(d_ys * ys), Gumbel noise held fixed; the
        prototypes' and layer norm's shares go to their grads."""
        # layer norm, then the weighted mix out = attn @ fh
        d_mixed, d_gain, d_bias = ln_backward(d_ys)
        params.ln_gain.grad += d_gain
        params.ln_bias.grad += d_bias
        d_mixed = d_mixed.reshape(fh.shape)
        d_attn = d_mixed @ fh.transpose(0, 2, 1)
        d_fh = (attn.transpose(0, 2, 1) @ d_mixed).reshape(d_ys.shape)
        del d_mixed  # each stage frees its (B, L, K*D) intermediates when done
        d_factors = np.einsum("bikd,bid->bik", d_fh, hidden)
        d_hidden = np.einsum("bikd,bik->bid", d_fh, factors)
        del d_fh

        # factor softmax over scaled cosines, then the cosine through the norm clamp
        d_cos = scale / tau * factors_backward(d_factors)
        d_hidden += unit_h_backward(d_cos @ unit_p)
        params.prototypes.grad += unit_p_backward(d_cos.reshape(-1, params.factors).T @ unit_h.reshape(-1, d))

        # causal attention over hidden @ hidden.T; masked entries have p = 0
        d_logits = scale * attn_backward(d_attn)
        d_hidden += d_logits @ hidden + d_logits.transpose(0, 2, 1) @ hidden
        return d_hidden

    return ys, backward


def _score_rows(params: ModelParams, ys: np.ndarray, grad: bool):
    """Scores (t, N) of one cascade's candidate states ``ys`` (t, K, D), each
    candidate by its best factor, and, if ``grad``, their backward (else None):
    it maps d_scores (t, N) to the gradient w.r.t. ``ys`` of sum(d_scores * scores),
    and adds the embedding table's share into its grad.

    The max over K runs on the unscaled product, and only the (t, N) maximum is
    scaled by 1/sqrt(D).  Rounding c*x for c > 0 is monotone, so the scores are
    max_k fl(c x_k) bit for bit, NaN included, without a (t, K, N) scale pass.
    The backward routes each score's gradient to the first factor of the unscaled
    maximum, zero to the others; only a call with ``grad`` builds that factor's index."""
    n, d = params.num_nodes, params.dim
    table = params.embeddings.data[:n]
    # one GEMM, not dot_rows: the benchmark's tracer sizes a scoring-stage
    # dot_rows call from its arguments' .data.  The fresh maximum is scaled in place.
    per_factor = (ys.reshape(-1, d) @ table.T).reshape(ys.shape[:2] + (-1,))  # (t, K, N)
    # a running maximum over the K (t, N) slices, each pass reading one whole slice.  The
    # index has the smallest unsigned dtype that holds K - 1; a factor takes it only where
    # it is strictly greater and it only grows, so ties go to the first factor
    top = per_factor[:, 0].copy()
    best = np.zeros(top.shape, dtype=np.min_scalar_type(params.factors - 1)) if grad else None
    for k in range(1, params.factors):
        if grad:
            np.maximum(best, np.multiply(per_factor[:, k] > top, k, dtype=best.dtype), out=best)
        np.maximum(top, per_factor[:, k], out=top)
    top *= 1.0 / math.sqrt(d)
    if not grad:
        return top, None

    def backward(d_scores: np.ndarray) -> np.ndarray:
        routed = best[:, None] == np.arange(params.factors, dtype=best.dtype)[:, None]
        d_pf = routed * (d_scores * (1.0 / math.sqrt(d)))[:, None, :]
        params.embeddings.grad[:n] += (ys.reshape(-1, d).T @ d_pf.reshape(-1, n)).T
        return (d_pf.reshape(-1, n) @ table).reshape(ys.shape)

    return top, backward


def _step_losses(scores: np.ndarray, targets):
    """Softmax step losses of one cascade's (t, N) ``scores`` against its ``targets``,
    and the function of a weight g that gives g d(sum)/d(scores)."""
    steps = np.arange(len(targets))
    mx = scores.max(axis=-1, keepdims=True)
    shifted = scores - mx  # each exp runs in place on its (t, N) temporary
    lse = np.log(np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True)) + mx
    losses = lse[:, 0] - scores[steps, targets]

    def backward(g):
        d_scores = scores - lse
        np.multiply(np.exp(d_scores, out=d_scores), g, out=d_scores)
        d_scores[steps, targets] -= g
        return d_scores

    return losses, backward


def _node_indices(params: ModelParams, cascade) -> np.ndarray:
    """The one check of what a cascade is: ``cascade`` as a 1-D integer array; ValueError for another
    shape or dtype, or a node index outside [0, N) (an empty cascade passes)."""
    idx = np.asarray(cascade)
    if idx.ndim != 1 or idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"a cascade must be a flat sequence of integer node indices, got {idx.dtype} {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= params.num_nodes):
        raise ValueError(f"cascade contains node index outside [0, {params.num_nodes})")
    return idx


def _runs(lengths: np.ndarray, budget: int, row_elements):
    """Cut ``lengths`` into consecutive runs, yielding each as a slice: from its first row, a run takes
    the most rows (at least one) whose count times ``row_elements`` of their longest fits ``budget``."""
    start = 0
    while start < len(lengths):
        longest = np.maximum.accumulate(lengths[start:])
        # a run's elements only grow as it takes more rows, so the row counts that fit are 1..n
        stop = start + max(1, np.count_nonzero(np.arange(1, len(longest) + 1) * row_elements(longest) <= budget))
        yield slice(start, stop)
        start = stop


def _chunks(params: ModelParams, batch, grad: bool, gumbel: Optional[GumbelConfig] = None, dropout_rate: float = 0.0,
            dropout_rng: Optional[RngState] = None):
    """Run each cascade of ``batch``, a sequence of cascades, with t >= 1 prediction points on its first t nodes:
    the recurrence per group of rows (``_GROUP_ELEMENTS``), padded once with the table's padding row, the head per
    chunk of a group (``_CHUNK_ELEMENTS``), both cut by ``_runs``.  Yields each live cascade in row order: its row,
    its candidate states ``ys`` (t, K, D) and, if ``grad``, a zero ``d_ys`` view for the caller to fill (else
    None); a chunk's head backward runs after its last cascade, a group's recurrence backward after its last."""
    _check_noise(gumbel, dropout_rate, dropout_rng)
    cascades = [_node_indices(params, cascade) for cascade in batch]
    points = np.array([len(c) - 1 for c in cascades], dtype=np.intp)
    live = np.flatnonzero(points >= 1)
    for group in _runs(points[live], _GROUP_ELEMENTS, lambda w: w * params.dim):
        rows = live[group]
        lengths = points[rows]
        positions = np.full((len(rows), int(lengths.max())), params.pad_index)
        for i, (row, t) in enumerate(zip(rows, lengths)):
            positions[i, :t] = cascades[row][:t]
        hidden, gru_backward = _recurrence(params, positions, lengths, dropout_rate, dropout_rng)
        d_hidden = np.zeros(hidden.shape) if grad else None
        for chunk in _runs(lengths, _CHUNK_ELEMENTS, lambda w: w * (w + params.factors * params.dim)):
            reach = int(lengths[chunk].max())
            ys, head_backward = _head(params, hidden[chunk, :reach], lengths[chunk], gumbel)
            if not grad:
                head_backward = None  # evaluation keeps none of the head's intermediates
            d_ys = np.zeros(ys.shape) if grad else None
            for j, (row, t) in enumerate(zip(rows[chunk], lengths[chunk])):
                yield int(row), ys[j, :t], d_ys[j, :t] if grad else None
            if grad:
                d_hidden[chunk, :reach] = head_backward(d_ys)
            del ys, d_ys, head_backward  # the next chunk runs without this one's intermediates
        if grad:
            gru_backward(d_hidden)
        del hidden, gru_backward, d_hidden


def batch_loss(params: ModelParams, batch, weight: float, gumbel: Optional[GumbelConfig] = None,
               dropout_rate: float = 0.0, dropout_rng: Optional[RngState] = None) -> "list[np.ndarray]":
    """Step losses of every cascade of ``batch``, a list of cascades, one array per cascade (empty
    for fewer than 2 nodes), adding ``weight`` times the gradient of their sum into every
    ``Parameter.grad``.  Gumbel noise runs iff ``gumbel`` is given, dropout iff ``dropout_rate > 0``.

    ``_chunks`` hands out the cascades one at a time, its groups and chunks bounding the memory;
    each is scored, and its loss backward written into its ``d_ys``, before the next, so one
    (t, K, N) block is live.
    """
    out = [np.empty(0)] * len(batch)
    for row, ys, d_ys in _chunks(params, batch, True, gumbel, dropout_rate, dropout_rng):
        scores, score_backward = _score_rows(params, ys, True)
        out[row], loss_backward = _step_losses(scores, batch[row][1:len(ys) + 1])
        d_ys[...] = score_backward(loss_backward(weight))
    return out


def batch_scores(params: ModelParams, batch):
    """Evaluation-mode scores (no noise, dropout or gradient) of the cascades of ``batch``,
    a list of cascades, with >= 2 nodes: yields ``(row, scores)`` in row order, one cascade
    (and one (t, N) block) at a time as ``_chunks`` hands it out, whose row i scores the next
    node after the first i+1 nodes of ``batch[row]``.  Validation losses and evaluation ranks
    are both read off these blocks.  Scoring builds no factor index (see ``_score_rows``)."""
    for row, ys, _ in _chunks(params, batch, grad=False):
        yield row, _score_rows(params, ys, grad=False)[0]


def forward_cascade(
    params: ModelParams,
    cascade: Sequence[int],
    gumbel: Optional[GumbelConfig] = None,
    training: bool = False,
    dropout_rate: float = 0.0,
    dropout_rng: Optional[RngState] = None,
) -> CascadeForward:
    """Loss over every prediction point of one cascade: the B=1 case of the
    batch pipeline, with the backward deferred to ``loss.backward``.

    For each prefix length t = 1..len-1 the model is asked for node t+1; the
    returned loss is the sum of the per-step losses.  Without ``training``,
    ``gumbel`` and ``dropout_rate`` are ignored.  Raises ValueError
    for a cascade with no prediction point.
    """
    if not training:
        gumbel, dropout_rate = None, 0.0
    _check_noise(gumbel, dropout_rate, dropout_rng)
    idx = _node_indices(params, cascade)
    if len(idx) < 2:
        raise ValueError(f"cascade of length {len(idx)} has no prediction point")

    lengths = np.array([len(idx) - 1])
    hidden, gru_backward = _recurrence(params, idx[None, :-1], lengths, dropout_rate, dropout_rng)
    ys, head_backward = _head(params, hidden, lengths, gumbel)
    scores, score_backward = _score_rows(params, ys[0], True)
    steps, loss_backward = _step_losses(scores, idx[1:])
    loss = Tensor(steps.sum(), lambda g: gru_backward(head_backward(score_backward(loss_backward(g))[None])))
    return CascadeForward(loss=loss, step_losses=steps)


def _eval_scores(params: ModelParams, prefix: Sequence[int], rows=slice(None)) -> np.ndarray:
    """Check ``prefix``, then give the evaluation-mode scores of its prefixes ``rows``,
    with no factor index (see ``_score_rows``)."""
    idx = _node_indices(params, prefix)
    if len(idx) < 1:
        raise ValueError("prefix must contain at least one node")
    lengths = np.array([len(idx)])
    hidden, _ = _recurrence(params, idx[None], lengths, 0.0, None)
    ys, _ = _head(params, hidden, lengths, None, rows)
    return _score_rows(params, ys[0], grad=False)[0]


def prefix_scores(params: ModelParams, prefix: Sequence[int]) -> np.ndarray:
    """Evaluation-mode candidate scores for every prefix of ``prefix``.

    Row t scores the next node after the first t+1 entries.
    """
    return _eval_scores(params, prefix)


def predict_topn(params: ModelParams, prefix: Sequence[int], n: int) -> np.ndarray:
    """Top-n candidate nodes after ``prefix``, ties broken by ascending index.

    Only the whole prefix is scored (the last row of ``prefix_scores``), with
    no factor index (see ``_score_rows``), and only the nodes that tie with or
    beat the n-th best score are sorted.
    """
    if _integer("n", n, 0) > params.num_nodes:
        raise ValueError(f"n must be in [0, {params.num_nodes}], got {n}")
    neg = -_eval_scores(params, prefix, slice(-1, None))[0]
    kth = np.partition(neg, n - 1)[n - 1]
    cand = np.flatnonzero(neg <= kth)   # ascending node index
    return cand[np.argsort(neg[cand], kind="stable")][:n]


# ---------------------------------------------------------------------------
# checkpoint format
#
# Single self-describing binary file: magic, uint64 header length, a JSON
# header (shapes + hyperparameters + rng seed + vocabulary digest), then raw
# little-endian float64 blobs in header order.  Writing the same model twice
# produces byte-identical files; a read-back round-trips bit-exactly.
# Format 1 (magic CASDIS1) had no vocabulary digest and is no longer read.

_CKPT_MAGIC = b"CASDIS2\n"
_CKPT_MAGIC_V1 = b"CASDIS1\n"


def _vocabulary_digest(vocabulary) -> Optional[str]:
    """SHA-256 of a ``Vocabulary``'s ids in index order, or None for None.
    Ids hold no control characters, so newline-joining is unambiguous."""
    if vocabulary is None:
        return None
    return hashlib.sha256("\n".join(vocabulary.ids).encode("utf-8")).hexdigest()


def save_checkpoint(path, params: ModelParams, seed: int, vocabulary=None) -> None:
    """Write ``params`` and ``seed``, plus the digest of ``vocabulary`` (the
    ``Vocabulary`` the node indices come from) when one is given.  A seed that
    is not an integer, or a NaN or infinite parameter, is a ValueError, and nothing is written."""
    tensors = []
    for name, p in params.named_parameters():
        if not np.isfinite(p.data).all():  # load_checkpoint would refuse it
            raise ValueError(f"{path}: parameter {name} holds a NaN or infinite value")
        tensors.append({"name": name, "shape": list(p.data.shape)})
    header = json.dumps(
        {
            "num_nodes": params.num_nodes,
            "dim": params.dim,
            "factors": params.factors,
            "seed": _integer("seed", seed),
            "tensors": tensors,
            "vocabulary_sha256": _vocabulary_digest(vocabulary),
        },
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, p in params.named_parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path, vocabulary=None):
    """Read a checkpoint back; returns (ModelParams, seed).

    Anything but an intact checkpoint raises ValueError: a wrong magic (format 1 included),
    truncation, a malformed header (a seed that is not a JSON integer, or sizes ``init_params``
    refuses, included), tensors renamed or shaped other than ``num_nodes``/``dim``/``factors``
    imply, trailing bytes, or a NaN or infinite parameter.  It alone decides whether the checkpoint fits a given
    ``vocabulary``: a digest other than a stored one, then a size other than ``num_nodes``, is a ValueError too.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(_CKPT_MAGIC) + 8
    if blob.startswith(_CKPT_MAGIC_V1):
        raise ValueError(f"{path}: checkpoint format 1 stores no vocabulary and is no longer read; retrain")
    if not blob.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a casdis checkpoint")
    if len(blob) < start:
        raise ValueError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack_from("<Q", blob, len(_CKPT_MAGIC))
    try:
        header = json.loads(blob[start:start + hlen].decode())
        num_nodes, dim, factors, seed = (header[key] for key in ("num_nodes", "dim", "factors", "seed"))
        _check_sizes(num_nodes, dim, factors)
        _integer("seed", seed)
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
        digest = header["vocabulary_sha256"]
        if digest is not None and not isinstance(digest, str):
            raise TypeError(f"vocabulary_sha256 is {digest!r}")
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint header: {err!r}") from None
    given = _vocabulary_digest(vocabulary)
    if digest is not None and given is not None and digest != given:
        raise ValueError(f"{path}: the checkpoint was trained on a different node vocabulary")
    if vocabulary is not None and vocabulary.size != num_nodes:
        raise ValueError(f"{path}: checkpoint expects N={num_nodes} nodes but data has N={vocabulary.size}")
    expected = list(zip(_PARAM_NAMES, _param_shapes(num_nodes, dim, factors)))
    if specs != expected:
        raise ValueError(
            f"{path}: tensors {specs} do not match N={num_nodes}, D={dim}, K={factors}"
        )
    offset = start + hlen
    size = offset + 8 * sum(math.prod(shape) for _, shape in expected)
    if len(blob) != size:
        raise ValueError(f"{path}: expected {size} bytes, found {len(blob)}")
    arrays = {}
    for name, shape in expected:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).astype(np.float64).reshape(shape)
        offset += 8 * count
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"{path}: parameter {name} holds a NaN or infinite value")
    return ModelParams.from_arrays(arrays), seed
