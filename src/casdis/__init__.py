"""Sequential cascade modeling with factor-disentangled attention."""

from .data import (
    DatasetSplit,
    ParsedCascades,
    SyntheticSpec,
    Vocabulary,
    generate_synthetic,
    make_batches,
    parse_cascades,
    split_dataset,
)
from .evaluation import EvalReport, evaluate, hits_at_n, map_at_n, rank_of_target
from .model import (
    CascadeForward,
    GumbelConfig,
    ModelParams,
    forward_cascade,
    init_params,
    load_checkpoint,
    predict_topn,
    save_checkpoint,
)
from .numerics import (
    Parameter,
    RngState,
    Tensor,
)
from .training import TrainConfig, TrainResult, adam_step, train

__version__ = "0.1.0"
