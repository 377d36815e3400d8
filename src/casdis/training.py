"""Mini-batch Adam training with plateau learning-rate decay and early stop.

The batch objective is the mean step loss over every prediction step of the
batch: one ``batch_loss`` call per batch adds 1/steps times the gradient of
the summed step losses.  Validation's ``mean_step_loss`` is the nats per step of
``evaluation.point_table``, the table ``evaluate`` reduces.  ``train`` checks each
cascade and cuts it to ``max_len`` nodes once, before the first epoch;
``make_batches`` and ``mean_step_loss`` take cascades as they are.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .data import DatasetSplit, make_batches
from .evaluation import point_table
from .model import (
    GumbelConfig, ModelParams, _check_dropout_rate, _node_indices, batch_loss, batch_scores, init_params,
)
from .numerics import RngState, _integer

log = logging.getLogger(__name__)

# Adam's moment decay rates and the floor added to its step's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr_init: float = 0.005
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 5
    lr_decay_factor: float = 0.5
    lr_patience: int = 2
    dropout_rate: float = 1e-4
    tau: float = GumbelConfig.tau
    gumbel_enabled: bool = True
    seed: int = 1
    k: int = 4
    d: int = 64
    max_len: int = 200  # cut per cascade; typical cascades are far shorter
    clip_norm: float = 5.0

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("max_epochs", 0), ("patience", 1), ("lr_patience", 1), ("k", 1),
                            ("d", 2), ("max_len", 2), ("seed", None)):
            _integer(name, getattr(self, name), least)
        if not 0 < self.lr_init < math.inf:  # also refuses NaN
            raise ValueError(f"lr_init must be finite and positive, got {self.lr_init}")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ValueError(f"lr_decay_factor must be in (0,1), got {self.lr_decay_factor}")
        _check_dropout_rate(self.dropout_rate)
        GumbelConfig(tau=self.tau)  # the factor softmax's checks on tau
        if not isinstance(self.gumbel_enabled, (bool, np.bool_)):  # a truthy "off" would train with noise
            raise ValueError(f"gumbel_enabled must be a bool, got {self.gumbel_enabled!r}")
        if not self.clip_norm >= 0:  # also refuses NaN
            raise ValueError(f"clip_norm must be >= 0 (0 turns clipping off), got {self.clip_norm}")


class NonFiniteGradientError(RuntimeError):
    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient in parameter '{param_name}'")
        self.param_name = param_name


@dataclass
class OptimizerState:
    """Adam accumulators (``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``) plus the
    current learning rate."""

    lr: float
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def for_params(params: ModelParams, lr: float) -> "OptimizerState":
        state = OptimizerState(lr=lr)
        for name, p in params.named_parameters():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(opt: OptimizerState, params: ModelParams) -> None:
    """One bias-corrected Adam update at ``opt.lr`` from the accumulated gradients;
    gradients are reset afterwards."""
    for name, p in params.named_parameters():
        if not np.isfinite(p.grad).all():
            raise NonFiniteGradientError(name)
    opt.step += 1
    c1 = 1.0 - ADAM_BETA1 ** opt.step
    c2 = 1.0 - ADAM_BETA2 ** opt.step
    for name, p in params.named_parameters():
        g = p.grad
        opt.m[name] = ADAM_BETA1 * opt.m[name] + (1.0 - ADAM_BETA1) * g
        opt.v[name] = ADAM_BETA2 * opt.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = opt.m[name] / c1
        v_hat = opt.v[name] / c2
        p.data -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    params.reset_gradients()


def clip_gradients(params: ModelParams, max_norm: float) -> float:
    """Scale all gradients to a global L2 norm of at most ``max_norm``, unless that is 0 or the norm is not finite."""
    total = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params.parameters()))
    if 0 < max_norm < total < math.inf:
        factor = max_norm / total
        for p in params.parameters():
            p.grad *= factor
    return total


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_loss: float
    lr: float
    seconds: float


@dataclass
class TrainResult:
    params: ModelParams          # best-validation checkpoint
    log: List[EpochStats]
    best_valid_loss: Optional[float]
    stopped: str                 # "max_epochs" | "early_stop" | "diverged" | "nan_gradient:<name>"


def mean_step_loss(params: ModelParams, cascades) -> float:
    """Evaluation-mode loss per step (no noise, no dropout) of the cascades as they are, uncut:
    the nats per step of their ``evaluation.point_table`` over one ``batch_scores`` batch, whose
    ``_chunks`` cuts its groups and chunks from the cascades' own lengths to bound the memory."""
    return point_table(batch_scores(params, cascades), cascades).nats_per_step()


def train(config: TrainConfig, split: DatasetSplit, num_nodes: int) -> TrainResult:
    """Train on ``split.train``, tracking validation loss per epoch.

    The learning rate is multiplied by ``lr_decay_factor`` after every
    ``lr_patience`` consecutive epochs without validation improvement;
    training stops after ``patience`` such epochs, or on divergence, always
    returning the best-validation checkpoint seen.  Before the first epoch,
    each train and valid cascade is checked whole (``model._node_indices``),
    then cut to its first ``max_len`` nodes: a bad node anywhere, or a part with
    no cascade of 2 or more nodes (no prediction point), raises ValueError.
    """
    init_rng = RngState.derive(config.seed, "init")
    gumbel_rng = RngState.derive(config.seed, "gumbel")
    dropout_rng = RngState.derive(config.seed, "dropout")
    shuffle_rng = RngState.derive(config.seed, "shuffle")

    params = init_params(num_nodes, config.d, config.k, init_rng)
    train_part, valid_part = ([_node_indices(params, c)[:config.max_len] for c in part]
                              for part in (split.train, split.valid))
    for name, part in (("train", train_part), ("valid", valid_part)):
        if not any(len(c) >= 2 for c in part):
            raise ValueError(f"the {name} part holds no cascade of 2 or more nodes, so no prediction point")
    gumbel = GumbelConfig(tau=config.tau, rng=gumbel_rng) if config.gumbel_enabled else None
    opt = OptimizerState.for_params(params, lr=config.lr_init)

    best = params.clone()
    best_valid = math.inf
    stall = 0
    stats: List[EpochStats] = []
    stopped = "max_epochs"

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = shuffle_rng.permutation(len(train_part))
        batches = make_batches([train_part[i] for i in order], config.batch_size)

        loss_sum, step_count = 0.0, 0
        try:
            for batch in batches:
                batch_steps = sum(max(len(c) - 1, 0) for c in batch)
                if batch_steps == 0:
                    continue
                for losses in batch_loss(params, batch, 1.0 / batch_steps, gumbel, config.dropout_rate, dropout_rng):
                    loss_sum += float(losses.sum())
                step_count += batch_steps
                clip_gradients(params, config.clip_norm)
                adam_step(opt, params)
        except NonFiniteGradientError as err:
            log.error("epoch %d aborted: non-finite gradient in '%s'", epoch, err.param_name)
            stopped = f"nan_gradient:{err.param_name}"
            break

        train_loss = loss_sum / step_count
        valid_loss = mean_step_loss(params, valid_part)
        stats.append(EpochStats(epoch, train_loss, valid_loss, opt.lr, time.perf_counter() - t0))
        log.info(
            "epoch %d  train %.4f  valid %.4f  lr %.2e  (%.1fs)",
            epoch, train_loss, valid_loss, opt.lr, stats[-1].seconds,
        )

        if not math.isfinite(valid_loss):
            log.error("epoch %d aborted: validation loss diverged", epoch)
            stopped = "diverged"
            break

        if valid_loss < best_valid:
            best_valid = valid_loss
            best = params.clone()
            stall = 0
        else:
            stall += 1
            if stall % config.lr_patience == 0:
                opt.lr *= config.lr_decay_factor
                log.info("epoch %d: validation plateau, lr -> %.2e", epoch, opt.lr)
            if stall >= config.patience:
                stopped = "early_stop"
                break

    return TrainResult(
        params=best,
        log=stats,
        best_valid_loss=None if math.isinf(best_valid) else best_valid,
        stopped=stopped,
    )


def write_train_log(path, stats: List[EpochStats]) -> None:
    """Line-oriented CSV: epoch, train loss, valid loss, lr, wall seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,valid_loss,lr,seconds\n")
        for s in stats:
            fh.write(f"{s.epoch},{s.train_loss:.10f},{s.valid_loss:.10f},{s.lr:.10g},{s.seconds:.3f}\n")
