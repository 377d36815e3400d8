"""Command-line entry point: train / eval / ablate / synth.

Configuration is resolved as defaults < config file (flat key=value lines)
< explicit flags, and the resolved form is echoed to the output directory
before any work starts.  All randomness flows from one root seed split into
named streams (split, init, gumbel, dropout, shuffle, synth).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .data import (
    SyntheticSpec,
    generate_synthetic,
    parse_cascades,
    split_dataset,
    write_synthetic,
)
from .evaluation import evaluate, format_report, report_csv_lines
from .model import load_checkpoint, save_checkpoint
from .numerics import RngState
from .training import TrainConfig, train, write_train_log

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3          # missing/unreadable input file
EXIT_OUTPUT = 4         # output directory not writable
EXIT_MISMATCH = 5       # checkpoint / data disagreement
EXIT_TRAINING = 6       # run aborted (divergence, nan gradients)

log = logging.getLogger(__name__)

DEFAULTS = {
    "seed": 1,
    "k": 4,
    "d": 64,
    "lr": 0.005,
    "batch_size": 32,
    "epochs": 50,
    "tau": 1.0,
    "gumbel": "on",
    "dropout": 1e-4,
    "n_list": "10,50,100",
    "max_len": 200,
    "patience": 5,
    "lr_patience": 2,
    "lr_decay": 0.5,
    "clip_norm": 5.0,
    # synth-only
    "communities": 2,
    "nodes_per_community": 20,
    "cross_prob": 0.1,
    "cascades": 500,
    "length_min": 8,
    "length_max": 24,
}

_TYPES = {
    "seed": int, "k": int, "d": int, "lr": float, "batch_size": int,
    "epochs": int, "tau": float, "gumbel": str, "dropout": float,
    "n_list": str, "max_len": int, "patience": int, "lr_patience": int,
    "lr_decay": float, "clip_norm": float, "communities": int,
    "nodes_per_community": int, "cross_prob": float, "cascades": int,
    "length_min": int, "length_max": int, "data": str, "out": str,
    "checkpoint": str, "k_list": str, "d_list": str,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise CliError(EXIT_INPUT, f"cannot read config file {path}: {err}")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(EXIT_USAGE, f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _TYPES:
            raise CliError(EXIT_USAGE, f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _TYPES[key](raw.strip())
    return values


def given_config(args: argparse.Namespace) -> dict:
    """The values set explicitly: config file < flags that were actually given."""
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    return given


def write_resolved_config(out_dir: Path, config: dict) -> None:
    lines = [f"{k}={config[k]}" for k in sorted(config)]
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _ensure_out_dir(config: dict) -> Path:
    out = config.get("out")
    if not out:
        raise CliError(EXIT_USAGE, "--out is required")
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as err:
        raise CliError(EXIT_OUTPUT, f"output directory {out} is not writable: {err}")
    return out_dir


def _read_data(config: dict):
    path = config.get("data")
    if not path:
        raise CliError(EXIT_USAGE, "--data is required")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parsed = parse_cascades(fh)
    except OSError as err:
        raise CliError(EXIT_INPUT, f"cannot read cascade file {path}: {err}")
    except ValueError as err:
        raise CliError(EXIT_INPUT, f"{path}: {err}")
    if len(parsed.cascades) < 10:
        raise CliError(EXIT_INPUT, f"{path}: need at least 10 cascades, found {len(parsed.cascades)}")
    return parsed


def _train_config(config: dict) -> TrainConfig:
    return TrainConfig(
        lr_init=config["lr"],
        batch_size=config["batch_size"],
        max_epochs=config["epochs"],
        patience=config["patience"],
        lr_decay_factor=config["lr_decay"],
        lr_patience=config["lr_patience"],
        dropout_rate=config["dropout"],
        tau=config["tau"],
        gumbel_enabled=config["gumbel"] == "on",
        seed=config["seed"],
        k=config["k"],
        d=config["d"],
        max_len=config["max_len"],
        clip_norm=config["clip_norm"],
    )


def _split(config: dict, cascades):
    split_seed = RngState.derive(config["seed"], "split").seed
    return split_dataset(cascades, split_seed)


def _n_values(config: dict):
    try:
        values = tuple(int(x) for x in str(config["n_list"]).split(",") if x.strip())
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad --n-list value {config['n_list']!r}")
    if not values:
        raise CliError(EXIT_USAGE, "--n-list must name at least one cutoff")
    return values


def cmd_train(config: dict) -> int:
    parsed = _read_data(config)          # validate inputs before creating outputs
    out_dir = _ensure_out_dir(config)
    write_resolved_config(out_dir, config)

    split = _split(config, parsed.cascades)
    result = train(_train_config(config), split, parsed.vocabulary.size)
    save_checkpoint(out_dir / "model.ckpt", result.params, config["seed"])
    write_train_log(out_dir / "train_log.csv", result.log)

    if result.stopped.startswith("nan_gradient") or result.stopped == "diverged":
        print(f"training aborted ({result.stopped}); best checkpoint written", file=sys.stderr)
        return EXIT_TRAINING
    best = f"{result.best_valid_loss:.4f}" if result.best_valid_loss is not None else "n/a"
    print(f"trained {len(result.log)} epoch(s); best valid loss {best}; checkpoint {out_dir / 'model.ckpt'}")
    return EXIT_OK


def cmd_eval(config: dict, given: dict) -> int:
    """Rank the test part of the split the checkpoint was trained on.

    Seed, K and D come from the checkpoint; a value given explicitly (flag
    or config file) that disagrees with it is a mismatch.
    """
    ckpt_path = config.get("checkpoint")
    if not ckpt_path:
        raise CliError(EXIT_USAGE, "--checkpoint is required")
    parsed = _read_data(config)
    try:
        params, seed = load_checkpoint(ckpt_path)
    except OSError as err:
        raise CliError(EXIT_INPUT, f"cannot read checkpoint {ckpt_path}: {err}")
    except ValueError as err:
        raise CliError(EXIT_MISMATCH, str(err))
    if params.num_nodes != parsed.vocabulary.size:
        raise CliError(
            EXIT_MISMATCH,
            f"checkpoint expects N={params.num_nodes} nodes but data has N={parsed.vocabulary.size}",
        )
    stored = {"seed": seed, "k": params.factors, "d": params.dim}
    for key, have in stored.items():
        if given.get(key, have) != have:
            raise CliError(
                EXIT_MISMATCH,
                f"checkpoint has {key}={have} but {key}={given[key]} was requested",
            )
    config = dict(config, **stored)

    out_dir = _ensure_out_dir(config)
    write_resolved_config(out_dir, config)
    split = _split(config, parsed.cascades)
    report = evaluate(params, split.test, _n_values(config))

    table = format_report(report)
    print(table)
    (out_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    (out_dir / "report.csv").write_text("\n".join(report_csv_lines(report)) + "\n", encoding="utf-8")
    return EXIT_OK


def _int_list(raw: str, flag: str):
    try:
        values = [int(x) for x in str(raw).split(",") if x.strip()]
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad {flag} value {raw!r}")
    if not values:
        raise CliError(EXIT_USAGE, f"{flag} must name at least one value")
    return values


def cmd_ablate(config: dict) -> int:
    k_list = _int_list(config.get("k_list") or str(config["k"]), "--k-list")
    d_list = _int_list(config.get("d_list") or str(config["d"]), "--d-list")
    parsed = _read_data(config)
    out_dir = _ensure_out_dir(config)
    write_resolved_config(out_dir, config)

    split = _split(config, parsed.cascades)     # shared across all cells
    n_values = _n_values(config)
    header = ["k", "d"] + [f"hits@{n}" for n in n_values] + [f"map@{n}" for n in n_values]
    rows = [",".join(header)]
    for k in k_list:
        for d in d_list:
            cell = dict(config, k=k, d=d)
            result = train(_train_config(cell), split, parsed.vocabulary.size)
            report = evaluate(result.params, split.test, n_values)
            row = [str(k), str(d)]
            row += [f"{report.hits[n]:.6f}" for n in n_values]
            row += [f"{report.maps[n]:.6f}" for n in n_values]
            rows.append(",".join(row))
            print(rows[-1])
    (out_dir / "ablation.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_synth(config: dict) -> int:
    try:
        spec = SyntheticSpec(
            communities=config["communities"],
            nodes_per_community=config["nodes_per_community"],
            cross_community_prob=config["cross_prob"],
            cascades=config["cascades"],
            length_range=(config["length_min"], config["length_max"]),
            seed=RngState.derive(config["seed"], "synth").seed,
        )
    except ValueError as err:
        raise CliError(EXIT_USAGE, str(err))
    out_dir = _ensure_out_dir(config)
    write_resolved_config(out_dir, config)

    cascades, labels = generate_synthetic(spec)
    write_synthetic(out_dir / "cascades.txt", out_dir / "communities.tsv", cascades, labels)

    lengths = [len(c) for c in cascades]
    seen = {node for c in cascades for node in c}
    avg = float(np.mean(lengths)) if lengths else 0.0
    print(f"cascades: {len(cascades)}")
    print(f"nodes: {len(seen)}")
    print(f"average length: {avg:.2f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="casdis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)

    def train_flags(p):
        p.add_argument("--data", help="cascade file")
        p.add_argument("--k", type=int)
        p.add_argument("--d", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--tau", type=float)
        p.add_argument("--gumbel", choices=("on", "off"))
        p.add_argument("--dropout", type=float)
        p.add_argument("--max-len", dest="max_len", type=int)
        p.add_argument("--patience", type=int)
        p.add_argument("--lr-patience", dest="lr_patience", type=int)
        p.add_argument("--lr-decay", dest="lr_decay", type=float)
        p.add_argument("--clip-norm", dest="clip_norm", type=float)

    p_train = sub.add_parser("train", help="fit a model and write a checkpoint")
    common(p_train)
    train_flags(p_train)

    p_eval = sub.add_parser("eval", help="rank test cascades with a checkpoint")
    common(p_eval)
    p_eval.add_argument("--data")
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--d", type=int)
    p_eval.add_argument("--n-list", dest="n_list")

    p_ablate = sub.add_parser("ablate", help="sweep factor count and dimension")
    common(p_ablate)
    train_flags(p_ablate)
    p_ablate.add_argument("--k-list", dest="k_list")
    p_ablate.add_argument("--d-list", dest="d_list")
    p_ablate.add_argument("--n-list", dest="n_list")

    p_synth = sub.add_parser("synth", help="generate community-diffusion cascades")
    common(p_synth)
    p_synth.add_argument("--communities", type=int)
    p_synth.add_argument("--nodes-per-community", dest="nodes_per_community", type=int)
    p_synth.add_argument("--cross-prob", dest="cross_prob", type=float)
    p_synth.add_argument("--cascades", type=int)
    p_synth.add_argument("--length-min", dest="length_min", type=int)
    p_synth.add_argument("--length-max", dest="length_max", type=int)
    return parser


_COMMANDS = {"train": cmd_train, "ablate": cmd_ablate, "synth": cmd_synth}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        given = given_config(args)
        config = dict(DEFAULTS, **given, command=args.command)
        if args.command == "eval":
            return cmd_eval(config, given)
        return _COMMANDS[args.command](config)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
