"""Cascade next-node model.

A GRU encodes the sequence of infected nodes; scaled dot-product attention
weights the history against the current state; a bank of prototype vectors
splits each position softly across K latent factors (cosine similarity,
optionally sharpened with Gumbel noise during training); the doubly-weighted,
layer-normalized sums give K candidate states per step, and candidates are
scored against the shared node-embedding table with a max-over-factors
softmax loss.

``_forward_positions`` is the single definition of the model: training,
validation, evaluation and prediction all run it, over every prefix of a
cascade at once.  The test suite pins it to a straight-line numpy oracle.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Parameter, RngState, Tensor


class DegenerateCascadeError(Exception):
    """Cascade too short to yield a prediction point (length < 2)."""


@dataclass
class GumbelConfig:
    """Factor-assignment noise for training; pass ``None`` to train without it."""

    tau: float = 1.0
    rng: Optional[RngState] = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


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
        kwargs = dict(num_nodes=self.num_nodes, dim=self.dim, factors=self.factors)
        for name, p in self.named_parameters():
            kwargs[name] = Parameter(p.data.copy(), name=name)
        return ModelParams(**kwargs)


def init_params(num_nodes: int, dim: int, factors: int, rng: RngState) -> ModelParams:
    """Uniform(-1/sqrt(D), 1/sqrt(D)) init; prototypes are resampled until
    pairwise |cos| <= 0.99 so factor assignments start informative."""
    if num_nodes < 1:
        raise ValueError(f"need at least one node, got {num_nodes}")
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    if factors < 1:
        raise ValueError(f"factors must be >= 1, got {factors}")
    bound = 1.0 / math.sqrt(dim)

    def uni(*shape):
        return rng.uniform_between(-bound, bound, shape)

    # prototypes are drawn last so that models differing only in K share
    # bit-identical embedding/GRU/layer-norm initializations per seed
    embeddings = uni(num_nodes + 1, dim)
    gru = {name: uni(dim, dim) for name in ("w_z", "u_z", "w_r", "u_r", "w_h", "u_h")}
    biases = {name: uni(dim) for name in ("b_z", "b_r", "b_h")}

    protos = uni(factors, dim)
    for _ in range(100):
        unit = protos / np.maximum(np.linalg.norm(protos, axis=1, keepdims=True), nm.NORM_FLOOR)
        cos = unit @ unit.T
        np.fill_diagonal(cos, 0.0)
        bad = np.argwhere(np.abs(cos) > 0.99)
        if bad.size == 0:
            break
        protos[bad[0][0]] = uni(dim)

    return ModelParams(
        num_nodes=num_nodes,
        dim=dim,
        factors=factors,
        embeddings=Parameter(embeddings, "embeddings"),
        w_z=Parameter(gru["w_z"], "w_z"),
        u_z=Parameter(gru["u_z"], "u_z"),
        b_z=Parameter(biases["b_z"], "b_z"),
        w_r=Parameter(gru["w_r"], "w_r"),
        u_r=Parameter(gru["u_r"], "u_r"),
        b_r=Parameter(biases["b_r"], "b_r"),
        w_h=Parameter(gru["w_h"], "w_h"),
        u_h=Parameter(gru["u_h"], "u_h"),
        b_h=Parameter(biases["b_h"], "b_h"),
        prototypes=Parameter(protos, "prototypes"),
        ln_gain=Parameter(np.ones(dim), "ln_gain"),
        ln_bias=Parameter(np.zeros(dim), "ln_bias"),
    )


# ---------------------------------------------------------------------------
# fused whole-cascade forward


@dataclass
class CascadeForward:
    """Result of one cascade pass: loss graph root plus detached step losses."""

    loss: Tensor                 # scalar, sum of per-step losses
    step_losses: np.ndarray      # (t,)


def _forward_positions(
    params: ModelParams,
    positions: np.ndarray,
    gumbel: Optional[GumbelConfig],
    training: bool,
    dropout_rate: float,
    dropout_rng: Optional[RngState],
):
    """Candidate scores for all prefixes of ``positions`` in one pass.

    Row t of the returned (t, N) score tensor belongs to the prefix of length t+1.
    Factor weights are computed once per position (they do not depend on the
    prefix length), and attention rows are masked to i <= t.
    """
    t_total = len(positions)
    d = params.dim
    scale = 1.0 / math.sqrt(d)

    xe = nm.gather_rows(params.embeddings, positions)
    if training and dropout_rate > 0.0:
        if dropout_rng is None:
            raise ValueError("dropout requested but no rng given")
        keep = (dropout_rng.uniform((t_total, d)) >= dropout_rate) / (1.0 - dropout_rate)
        xe = nm.mul(xe, keep)

    # input transforms for every step at once; the recurrence stays sequential
    a_z = nm.add(nm.matmul(xe, params.w_z), params.b_z)
    a_r = nm.add(nm.matmul(xe, params.w_r), params.b_r)
    a_h = nm.add(nm.matmul(xe, params.w_h), params.b_h)

    h = np.zeros(d)
    states = []
    for t in range(t_total):
        z = nm.sigmoid(nm.gate_preact(a_z, t, h, params.u_z))
        r = nm.sigmoid(nm.gate_preact(a_r, t, h, params.u_r))
        cand = nm.tanh(nm.gate_preact(a_h, t, nm.mul(r, h), params.u_h))
        h = nm.gru_blend(z, h, cand)
        states.append(h)
    hidden = nm.stack_rows(states)

    causal = np.tri(t_total, dtype=bool)
    attn = nm.softmax_rows(nm.dot_rows(hidden, hidden), mask=causal, scale=scale)

    cos = nm.dot_rows(nm.unit_rows(hidden), nm.unit_rows(params.prototypes))
    if training and gumbel is not None:
        if gumbel.rng is None:
            raise ValueError("gumbel noise requested but no rng given")
        noisy = nm.add(nm.mul(cos, scale), nm.gumbel_noise(cos.shape, gumbel.rng))
        factors = nm.softmax_rows(noisy, scale=1.0 / gumbel.tau)
    else:
        factors = nm.softmax_rows(cos, scale=scale)

    mixed = nm.weighted_mix(attn, factors, hidden)
    ys = nm.layer_norm_rows(mixed, params.ln_gain, params.ln_bias)

    real = nm.gather_rows(params.embeddings, np.arange(params.num_nodes))
    per_factor = nm.mul(nm.dot_rows(ys, real), scale)   # (t, K, N)
    scores = nm.max_over_axis(per_factor, axis=1)       # (t, N)
    return scores


def _check_indices(params: ModelParams, indices: np.ndarray) -> None:
    if indices.size and (indices.min() < 0 or indices.max() >= params.num_nodes):
        raise ValueError(
            f"cascade contains node index outside [0, {params.num_nodes})"
        )


def forward_cascade(
    params: ModelParams,
    cascade: Sequence[int],
    gumbel: Optional[GumbelConfig] = None,
    training: bool = False,
    dropout_rate: float = 0.0,
    dropout_rng: Optional[RngState] = None,
) -> CascadeForward:
    """Loss over every prediction point of one cascade.

    For each prefix length t = 1..len-1 the model is asked for node t+1; the
    returned loss is the sum of the per-step losses.  Raises
    DegenerateCascadeError for cascades with no prediction point.
    """
    idx = np.asarray(cascade, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("cascade must be a flat sequence of node indices")
    if len(idx) < 2:
        raise DegenerateCascadeError(f"cascade of length {len(idx)} has no prediction point")
    _check_indices(params, idx)

    scores = _forward_positions(
        params, idx[:-1], gumbel, training, dropout_rate, dropout_rng
    )
    targets = idx[1:]
    steps = nm.sub(nm.logsumexp(scores), nm.take_per_row(scores, targets))
    loss = nm.sum_all(steps)
    return CascadeForward(loss=loss, step_losses=steps.data.copy())


def prefix_scores(params: ModelParams, prefix: Sequence[int]) -> np.ndarray:
    """Evaluation-mode candidate scores for every prefix of ``prefix``.

    Row t scores the next node after the first t+1 entries.
    """
    idx = np.asarray(prefix, dtype=np.intp)
    if len(idx) < 1:
        raise ValueError("prefix must contain at least one node")
    _check_indices(params, idx)
    scores = _forward_positions(params, idx, None, False, 0.0, None)
    return scores.data.copy()


def predict_topn(params: ModelParams, prefix: Sequence[int], n: int) -> np.ndarray:
    """Top-n candidate nodes after ``prefix``, ties broken by ascending index."""
    if n < 0 or n > params.num_nodes:
        raise ValueError(f"n must be in [0, {params.num_nodes}], got {n}")
    scores = prefix_scores(params, prefix)[-1]
    order = np.argsort(-scores, kind="stable")
    return order[:n]


# ---------------------------------------------------------------------------
# checkpoint format
#
# Single self-describing binary file: magic, uint64 header length, a JSON
# header (shapes + hyperparameters + rng seed), then raw little-endian
# float64 blobs in header order.  Writing the same model twice produces
# byte-identical files; a read-back round-trips bit-exactly.

_CKPT_MAGIC = b"CASDIS1\n"


def save_checkpoint(path, params: ModelParams, seed: int) -> None:
    tensors = [
        {"name": name, "shape": list(p.data.shape)}
        for name, p in params.named_parameters()
    ]
    header = json.dumps(
        {
            "num_nodes": params.num_nodes,
            "dim": params.dim,
            "factors": params.factors,
            "seed": int(seed),
            "tensors": tensors,
        },
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for _, p in params.named_parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint back; returns (ModelParams, seed).

    Anything but an intact checkpoint raises ValueError: a wrong magic,
    truncation, a malformed header, tensors renamed or shaped other than
    ``num_nodes``/``dim``/``factors`` imply, or trailing bytes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    start = len(_CKPT_MAGIC) + 8
    if not blob.startswith(_CKPT_MAGIC):
        raise ValueError(f"{path}: not a casdis checkpoint")
    if len(blob) < start:
        raise ValueError(f"{path}: truncated checkpoint header")
    (hlen,) = struct.unpack_from("<Q", blob, len(_CKPT_MAGIC))
    try:
        header = json.loads(blob[start:start + hlen].decode())
        num_nodes, dim, factors, seed = (
            int(header[key]) for key in ("num_nodes", "dim", "factors", "seed")
        )
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["tensors"]]
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: malformed checkpoint header: {err!r}") from None
    if num_nodes < 1 or dim < 2 or factors < 1:
        raise ValueError(f"{path}: bad sizes N={num_nodes}, D={dim}, K={factors}")
    expected = list(zip(_PARAM_NAMES, _param_shapes(num_nodes, dim, factors)))
    if specs != expected:
        raise ValueError(
            f"{path}: tensors {specs} do not match N={num_nodes}, D={dim}, K={factors}"
        )
    offset = start + hlen
    size = offset + 8 * sum(math.prod(shape) for _, shape in expected)
    if len(blob) != size:
        raise ValueError(f"{path}: expected {size} bytes, found {len(blob)}")
    kwargs = dict(num_nodes=num_nodes, dim=dim, factors=factors)
    for name, shape in expected:
        count = math.prod(shape)
        value = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        kwargs[name] = Parameter(value.astype(np.float64).reshape(shape), name=name)
        offset += 8 * count
    return ModelParams(**kwargs), seed
