"""Write bench/reference.json, the stored outputs the benchmark checks against.

    python3 bench/make_reference.py

Run it from the repository root.  For each workload shape it records the
eval-mode ``prefix_scores`` of a seeded ``init_params`` on fixed prefixes:
every row, a fixed set of columns, and each row's logsumexp over all N
columns.  Regenerate it only when a change is meant to move these outputs.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import casdis  # noqa: E402
from casbench.workloads import reference_outputs  # noqa: E402

INIT_SEED = 2012
PREFIX_SEED = 808
MAX_COLUMNS = 8
# workload: (num_nodes, dim, factors, prefix lengths)
SHAPES = {
    "desk_train": (40, 32, 2, (1, 7, 24)),
    "long_train": (400, 32, 2, (1, 50, 200)),
    "paper_scale": (12000, 64, 4, (1, 7, 24)),
}


def entry(num_nodes, dim, factors, lengths):
    rng = casdis.RngState(PREFIX_SEED)
    columns = range(num_nodes) if num_nodes <= 64 else np.linspace(0, num_nodes - 1, MAX_COLUMNS).astype(int)
    spec = {
        "num_nodes": num_nodes, "dim": dim, "factors": factors, "init_seed": INIT_SEED,
        "prefixes": [rng.integers(0, num_nodes, size=n).tolist() for n in lengths],
        "columns": [int(c) for c in columns],
    }
    spec.update(reference_outputs(spec))
    return spec


if __name__ == "__main__":
    reference = {name: entry(*shape) for name, shape in SHAPES.items()}
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
        fh.write("\n")
