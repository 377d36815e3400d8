"""Spans around the calls into each casdis layer, recorded from outside the package.

``install`` swaps the public functions of ``casdis.data``, ``model``,
``numerics``, ``training`` and ``evaluation`` for timing wrappers, plus
``Tensor.backward`` and ``Tensor.__init__`` while the tape exists.  A function
is rebound wherever its object is bound by name: the defining module, the
package namespace and every casdis module that imported it (``training`` calls
``forward_cascade`` and ``make_batches`` through its own globals).  Spans stay
in memory; ``layer_metrics`` turns one batch of them into the per-layer
numbers.  A function that no longer exists is simply not wrapped, and the
metrics built from it are left out.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

LAYERS = ("data", "model", "numerics", "training", "evaluation")

# ROADMAP stages in the order one forward pass reaches them.
STAGES = ("embed", "gru", "attention", "factor", "mix_ln", "scoring", "loss")

# Model functions that run one whole forward pass; each restarts the stage walk.
MODEL_ENTRIES = ("forward_cascade", "prefix_scores")

# Kernels that belong to one stage wherever they are called.  A kernel not
# listed here takes the stage the enclosing forward pass has reached.
_KERNEL_STAGE = {
    "matmul": "gru", "gate_preact": "gru", "sigmoid": "gru", "tanh": "gru",
    "gru_blend": "gru", "stack_rows": "gru",
    "unit_rows": "factor", "gumbel_noise": "factor",
    "weighted_mix": "mix_ln", "layer_norm_rows": "mix_ln",
    "max_over_axis": "scoring",
    "logsumexp": "loss", "take_per_row": "loss", "sum_all": "loss",
}

# Span fields.
NAME, PARENT, START, END, ROLE, TENSORS, WORK = range(7)


def next_stage(kernel: str, stage: str) -> str:
    """Stage of a ``numerics.<kernel>`` call made once the enclosing forward
    pass has reached ``stage``.  Stages never move backwards within a pass."""
    if kernel == "gather_rows":  # the input lookup, or the candidate table
        target = "embed" if stage == "embed" else "scoring"
    elif kernel == "dot_rows":  # h.h attention, cos to prototypes, candidate scores
        target = {"embed": "attention", "gru": "attention", "mix_ln": "scoring"}.get(stage, stage)
    else:
        target = _KERNEL_STAGE.get(kernel, stage)
    return max(stage, target, key=STAGES.index)


class Tracer:
    """In-memory span log.  Each span is a list indexed by the field
    constants above; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.tensors = 0      # Tensor objects built so far
        self.wrapped = set()  # span names of the functions install() found
        self._open: List[int] = []
        self._stages: List[str] = []  # stage walk of each enclosing forward pass

    def open(self, name: str, role: str = "") -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, self.clock(), 0.0, role, self.tensors, 0.0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = self.clock()
        span[TENSORS] = self.tensors - span[TENSORS]
        self._open.pop()

    def take(self) -> List[list]:
        """Hand over the recorded spans and start an empty log."""
        if self._open:
            raise RuntimeError("spans still open")
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# ---------------------------------------------------------------------------
# wrappers


def _plain(tracer: Tracer, span_name: str, fn):
    def wrapper(*args, **kwargs):
        index = tracer.open(span_name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _entry(tracer: Tracer, span_name: str, fn):
    def wrapper(*args, **kwargs):
        index = tracer.open(span_name)
        tracer._stages.append(STAGES[0])
        try:
            return fn(*args, **kwargs)
        finally:
            tracer._stages.pop()
            tracer.close(index)
    return wrapper


def _array(x):
    return getattr(x, "data", x)


def _scoring_work(kernel: str, args) -> float:
    """Flops of a candidate-scoring product, or bytes of a table gather."""
    if kernel == "dot_rows" and len(args) >= 2:
        y, m = _array(args[0]), _array(args[1])
        rows, d = m.shape
        return 2.0 * (y.size // y.shape[-1]) * rows * d
    if kernel == "gather_rows" and len(args) >= 2:
        x, idx = _array(args[0]), args[1]
        return float(len(idx) * x.shape[-1] * x.itemsize)
    return 0.0


def _timed_backward(tracer: Tracer, out, span_name: str, role: str) -> None:
    backward = getattr(out, "_backward", None)
    if backward is None:
        return

    def timed(*args):
        index = tracer.open(span_name, role)
        try:
            backward(*args)
        finally:
            tracer.close(index)

    out._backward = timed


def _kernel(tracer: Tracer, name: str, fn):
    span_name = "numerics." + name
    backward_name = span_name + ".backward"

    def wrapper(*args, **kwargs):
        stages = tracer._stages
        role = ""
        if stages:
            role = stages[-1] = next_stage(name, stages[-1])
        index = tracer.open(span_name, role)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if role:
            if role == "scoring":
                tracer.spans[index][WORK] = _scoring_work(name, args)
            _timed_backward(tracer, out, backward_name, role)
        return out
    return wrapper


def _public_functions(module):
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def install(tracer: Tracer) -> Callable[[], None]:
    """Route every public casdis layer function through ``tracer``.

    Returns a function that puts the originals back.
    """
    replacement: Dict[int, tuple] = {}
    numerics = None
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"casdis.{layer}")
        except ImportError:
            continue
        if layer == "numerics":
            numerics = module
        for name, fn in _public_functions(module):
            span_name = f"{layer}.{name}"
            if layer == "numerics":
                wrapper = _kernel(tracer, name, fn)
            elif layer == "model" and name in MODEL_ENTRIES:
                wrapper = _entry(tracer, span_name, fn)
            else:
                wrapper = _plain(tracer, span_name, fn)
            replacement[id(fn)] = (fn, wrapper)
            tracer.wrapped.add(span_name)

    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "casdis" or mod_name.startswith("casdis.")):
            continue
        bound = [(attr, obj) for attr, obj in vars(module).items() if id(obj) in replacement]
        for attr, obj in bound:
            original, wrapper = replacement[id(obj)]
            if obj is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))

    tensor = getattr(numerics, "Tensor", None)
    if tensor is not None:
        init = tensor.__init__

        def counting_init(self, *args, **kwargs):
            tracer.tensors += 1
            init(self, *args, **kwargs)

        undo.append((tensor, "__init__", init))
        tensor.__init__ = counting_init
        tracer.wrapped.add("numerics.Tensor")
        if hasattr(tensor, "backward"):
            undo.append((tensor, "backward", tensor.backward))
            tensor.backward = _plain(tracer, "numerics.backward", tensor.backward)
            tracer.wrapped.add("numerics.backward")

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# metrics

# Functions reported as total time inside them (span duration, children included).
TIMED = (
    "data.generate_synthetic", "data.parse_cascades", "data.split_dataset", "data.make_batches",
    "model.init_params", "model.forward_cascade", "model.prefix_scores",
    "model.save_checkpoint", "model.load_checkpoint",
    "numerics.backward",
    "training.adam_step", "training.clip_gradients", "training.mean_step_loss",
    "evaluation.evaluate", "evaluation.rank_of_target",
)
COUNTED = (
    "model.forward_cascade", "model.prefix_scores",
    "training.adam_step", "evaluation.rank_of_target",
)
# The callers that decide whether a forward pass trains or validates.
_PHASE_OF = {"training.mean_step_loss": "valid", "training.train": "train"}


def _phase(spans: List[list], index: int) -> str:
    parent = spans[index][PARENT]
    while parent >= 0:
        phase = _PHASE_OF.get(spans[parent][NAME])
        if phase:
            return phase
        parent = spans[parent][PARENT]
    return "other"


def layer_metrics(spans: List[list], wrapped, train_steps: int) -> Dict[str, float]:
    """Per-layer metrics of one batch of spans.

    ``train_steps`` is the number of training prediction steps the spans
    cover; it turns the tape-node count into a per-step figure.
    """
    own = self_times(spans)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    stage = {(s, kind): 0.0 for s in STAGES for kind in ("", "_backward")}
    work: Dict[str, float] = defaultdict(float)
    split = defaultdict(float)
    train_tensors = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] += duration
        calls[name] += 1
        if span[ROLE]:
            kind = "_backward" if name.endswith(".backward") else ""
            stage[(span[ROLE], kind)] += own[i]
            work[name] += span[WORK]
        if name == "model.forward_cascade":
            phase = _phase(spans, i)
            split[phase + "_s"] += duration
            split[phase + "_calls"] += 1
        elif name == "training.train":
            train_tensors += span[TENSORS]
        elif name == "training.mean_step_loss" and _phase(spans, i) == "train":
            train_tensors -= span[TENSORS]

    out: Dict[str, float] = {}
    for name in TIMED:
        if name in wrapped:
            out[name + "_s"] = total[name]
    for name in COUNTED:
        if name in wrapped:
            out[name + "_calls"] = calls[name]
    if "model.forward_cascade" in wrapped:
        for phase in ("train", "valid"):
            out[f"model.forward_cascade_{phase}_s"] = split[phase + "_s"]
            out[f"model.forward_cascade_{phase}_calls"] = split[phase + "_calls"]
    if "numerics.dot_rows" in wrapped:
        for (s, kind), seconds in stage.items():
            out[f"stage.{s}{kind}_s"] = seconds
        out["stage.scoring_gflop"] = work["numerics.dot_rows"] / 1e9
    if "numerics.gather_rows" in wrapped:
        out["stage.table_copy_mb"] = work["numerics.gather_rows"] / 2**20
    if "numerics.Tensor" in wrapped and train_steps:
        out["numerics.tape_nodes_per_step"] = train_tensors / train_steps
    return out


def _per_layer_units() -> Dict[str, str]:
    units = {name + "_s": "s" for name in TIMED}
    units.update({name + "_calls": "count" for name in COUNTED})
    for phase in ("train", "valid"):
        units[f"model.forward_cascade_{phase}_s"] = "s"
        units[f"model.forward_cascade_{phase}_calls"] = "count"
    for s in STAGES:
        units[f"stage.{s}_s"] = "s"
        units[f"stage.{s}_backward_s"] = "s"
    units.update({
        "stage.scoring_gflop": "GFLOP",
        "stage.table_copy_mb": "MiB",
        "numerics.tape_nodes_per_step": "nodes/step",
        "model.checkpoint_bytes": "B",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()
