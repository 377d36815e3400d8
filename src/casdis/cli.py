"""Command-line entry point: train / eval / ablate / synth.

Configuration is resolved as defaults < config file (flat key=value lines)
< explicit flags, and the command's own keys are echoed, resolved, to the
output directory before any work starts; a config-file key of another command
is accepted and ignored.  All randomness flows from one root seed split into
named streams (split, init, gumbel, dropout, shuffle, synth).
"""

from __future__ import annotations

import argparse
import itertools
import logging
import sys
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .data import (
    SyntheticSpec,
    generate_synthetic,
    parse_cascades,
    split_dataset,
    write_synthetic,
)
from .evaluation import DEFAULT_N_VALUES, _report_rows, evaluate, format_report, report_csv_lines
from .model import load_checkpoint, save_checkpoint
from .numerics import RngState
from .training import TrainConfig, train, write_train_log

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3          # missing/unreadable input file
EXIT_OUTPUT = 4         # output directory not writable
EXIT_MISMATCH = 5       # checkpoint / data disagreement
EXIT_TRAINING = 6       # run aborted (divergence, nan gradients)

_ALL = ("train", "eval", "ablate", "synth")
_FIT = ("train", "ablate")
_MODEL = ("train", "eval", "ablate")
_ON_OFF = ("on", "off")  # a bool field as keys spell it


class Option(NamedTuple):
    """One key, settable as ``--name`` (underscores as dashes) by the listed
    subcommands and as ``name=value`` in any config file.  A key with a
    ``field`` sets that ``TrainConfig`` field."""

    name: str
    type: type
    default: object = None      # None: unset unless given
    commands: Tuple[str, ...] = _ALL
    choices: Optional[Tuple[str, ...]] = None
    help: Optional[str] = None
    field: Optional[str] = None


def _train_option(name: str, field: str, commands: Tuple[str, ...] = _FIT) -> Option:
    """The key ``name`` for the ``TrainConfig`` field ``field``, with that
    field's type and default; a bool field is spelled on/off."""
    default = getattr(TrainConfig, field)
    if isinstance(default, bool):
        return Option(name, str, _ON_OFF[not default], commands, _ON_OFF, field=field)
    return Option(name, type(default), default, commands, field=field)


OPTIONS = (
    Option("out", str, help="output directory"),
    _train_option("seed", "seed", _ALL),
    Option("data", str, commands=_MODEL, help="cascade file"),
    Option("checkpoint", str, commands=("eval",)),
    _train_option("k", "k", _MODEL),
    _train_option("d", "d", _MODEL),
    _train_option("lr", "lr_init"),
    _train_option("batch_size", "batch_size"),
    _train_option("epochs", "max_epochs"),
    _train_option("tau", "tau"),
    _train_option("gumbel", "gumbel_enabled"),
    _train_option("dropout", "dropout_rate"),
    _train_option("max_len", "max_len"),
    _train_option("patience", "patience"),
    _train_option("lr_patience", "lr_patience"),
    _train_option("lr_decay", "lr_decay_factor"),
    _train_option("clip_norm", "clip_norm"),
    Option("n_list", str, ",".join(map(str, DEFAULT_N_VALUES)), ("eval", "ablate")),
    Option("grid", str, commands=("ablate",), help="keys to sweep, as 'k=1,2;d=8' (default k=<k>;d=<d>)"),
    Option("communities", int, 2, ("synth",)),
    Option("nodes_per_community", int, 20, ("synth",)),
    Option("cross_prob", float, 0.1, ("synth",)),
    Option("cascades", int, 500, ("synth",)),
    Option("length_min", int, 8, ("synth",)),
    Option("length_max", int, 24, ("synth",)),
)
_BY_NAME = {o.name: o for o in OPTIONS}
# each command's keys that have a default, and those defaults
DEFAULTS = {command: {o.name: o.default for o in OPTIONS if command in o.commands and o.default is not None}
            for command in _ALL}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def read_config_file(path: str) -> dict:
    values, line_of = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(EXIT_INPUT, f"cannot read config file {path}: {err}")
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(EXIT_USAGE, f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip().replace("-", "_"), raw.strip()
        option = _BY_NAME.get(key)
        if option is None:
            raise CliError(EXIT_USAGE, f"{path}:{line_no}: unknown config key {key!r}")
        if key in line_of:
            raise CliError(EXIT_USAGE, f"{path}:{line_no}: {key} is set again, first on line {line_of[key]}")
        line_of[key] = line_no
        values[key] = _typed(option, raw, f"{path}:{line_no}: ")
    return values


def _typed(option: Option, raw: str, where: str):
    """``raw`` as a value of ``option``; a bad one is a usage error prefixed by ``where``."""
    try:
        value = option.type(raw)
    except ValueError:
        raise CliError(EXIT_USAGE, f"{where}{option.name} needs a {option.type.__name__}, got {raw!r}")
    if option.choices and value not in option.choices:
        raise CliError(EXIT_USAGE, f"{where}{option.name} must be one of {option.choices}, got {raw!r}")
    return value


def given_config(args: argparse.Namespace) -> dict:
    """The values of ``args.command``'s keys set explicitly: config file < flags that were
    actually given.  A config-file key of another command is accepted and left out, so one
    file can serve several commands."""
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _BY_NAME:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = flag
    return {key: value for key, value in given.items() if args.command in _BY_NAME[key].commands}


def _ensure_out_dir(config: dict) -> Path:
    """Create the output directory of ``config`` and write its ``config.resolved``."""
    out = config.get("out")
    if not out:
        raise CliError(EXIT_USAGE, "--out is required")
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        lines = [f"{k}={config[k]}" for k in sorted(config)]
        (out_dir / "config.resolved").write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as err:
        raise CliError(EXIT_OUTPUT, f"output directory {out} is not writable: {err}")
    return out_dir


def _read_data(config: dict):
    path = config.get("data")
    if not path:
        raise CliError(EXIT_USAGE, "--data is required")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parsed = parse_cascades(fh)
    except OSError as err:
        raise CliError(EXIT_INPUT, f"cannot read cascade file {path}: {err}")
    except ValueError as err:
        raise CliError(EXIT_INPUT, f"{path}: {err}")
    if len(parsed.cascades) < 10:
        raise CliError(EXIT_INPUT, f"{path}: need at least 10 cascades, found {len(parsed.cascades)}")
    return parsed


def _train_config(config: dict) -> TrainConfig:
    """The training hyperparameters of ``config``; a value out of range is a
    usage error."""
    fields = {o.field: config[o.name] == "on" if o.choices == _ON_OFF else config[o.name]
              for o in OPTIONS if o.field}
    try:
        return TrainConfig(**fields)
    except ValueError as err:
        raise CliError(EXIT_USAGE, f"invalid hyperparameters: {err}")


_SPLIT_SEED = "seed"  # the key that seeds the split; a swept one varies only training


def _split(config: dict, cascades):
    split_seed = RngState.derive(config[_SPLIT_SEED], "split").seed
    return split_dataset(cascades, split_seed)


def _aborted(result) -> bool:
    return result.stopped.startswith("nan_gradient") or result.stopped == "diverged"


def cmd_train(config: dict) -> int:
    train_config = _train_config(config)  # validate inputs before creating outputs
    parsed = _read_data(config)
    out_dir = _ensure_out_dir(config)

    split = _split(config, parsed.cascades)
    result = train(train_config, split, parsed.vocabulary.size)
    save_checkpoint(out_dir / "model.ckpt", result.params, config["seed"], parsed.vocabulary)
    write_train_log(out_dir / "train_log.csv", result.log)

    if _aborted(result):
        print(f"training aborted ({result.stopped}); best checkpoint written", file=sys.stderr)
        return EXIT_TRAINING
    best = f"{result.best_valid_loss:.4f}" if result.best_valid_loss is not None else "n/a"
    print(f"trained {len(result.log)} epoch(s); best valid loss {best}; checkpoint {out_dir / 'model.ckpt'}")
    return EXIT_OK


def cmd_eval(config: dict, given: dict) -> int:
    """Rank the test part of the split the checkpoint was trained on.

    Seed, K and D come from the checkpoint; a value given explicitly (flag
    or config file) that disagrees with it is a mismatch.  Whether the data
    fits the checkpoint (N and vocabulary) is ``load_checkpoint``'s to decide.
    """
    ckpt_path = config.get("checkpoint")
    if not ckpt_path:
        raise CliError(EXIT_USAGE, "--checkpoint is required")
    n_values = _int_list(config["n_list"], "--n-list")
    parsed = _read_data(config)
    try:
        params, seed = load_checkpoint(ckpt_path, parsed.vocabulary)
    except OSError as err:
        raise CliError(EXIT_INPUT, f"cannot read checkpoint {ckpt_path}: {err}")
    except ValueError as err:
        raise CliError(EXIT_MISMATCH, str(err))
    stored = {"seed": seed, "k": params.factors, "d": params.dim}
    for key, have in stored.items():
        if given.get(key, have) != have:
            raise CliError(
                EXIT_MISMATCH,
                f"checkpoint has {key}={have} but {key}={given[key]} was requested",
            )
    config = dict(config, **stored)

    out_dir = _ensure_out_dir(config)
    split = _split(config, parsed.cascades)
    report = evaluate(params, split.test, n_values)

    table = format_report(report)
    print(table)
    (out_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    (out_dir / "report.csv").write_text("\n".join(report_csv_lines(report)) + "\n", encoding="utf-8")
    return EXIT_OK


def _int_list(raw: str, flag: str):
    """The comma-separated integers of ``raw``; each must be at least 1."""
    try:
        values = tuple(int(x) for x in str(raw).split(",") if x.strip())
    except ValueError:
        raise CliError(EXIT_USAGE, f"bad {flag} value {raw!r}")
    if not values:
        raise CliError(EXIT_USAGE, f"{flag} must name at least one value")
    if min(values) < 1:
        raise CliError(EXIT_USAGE, f"every {flag} value must be >= 1, got {raw!r}")
    return values


def _grid(raw: str) -> dict:
    """The axes of ``raw`` (``key=v,v;key=v``), in the order given: each training key of
    ``ablate`` to the tuple of its values."""
    axes = {}
    for axis in raw.split(";"):
        key, _, values = axis.partition("=")
        option = _BY_NAME.get(key.strip().replace("-", "_"))
        if option is None or not option.field or "ablate" not in option.commands:
            raise CliError(EXIT_USAGE, f"grid: {key.strip()!r} is not a training key of ablate")
        if option.name in axes:
            raise CliError(EXIT_USAGE, f"grid: {option.name} is swept twice")
        axes[option.name] = tuple(_typed(option, value.strip(), "grid: ") for value in values.split(","))
        if len(set(axes[option.name])) < len(axes[option.name]):
            raise CliError(EXIT_USAGE, f"grid: {option.name} repeats a value in {values.strip()!r}")
    return axes


def cmd_ablate(config: dict) -> int:
    raw = config.get("grid", f"k={config['k']};d={config['d']}")
    axes = _grid(raw)
    n_values = _int_list(config["n_list"], "--n-list")
    # the cells of the axes' product, the last axis varying fastest
    cells = [(values, _train_config(dict(config, **dict(zip(axes, values)))))
             for values in itertools.product(*axes.values())]
    parsed = _read_data(config)
    # the echo holds the grid in place of the swept keys' single values, but the split's seed
    kept = [key for key in config if key not in axes or key == _SPLIT_SEED]
    out_dir = _ensure_out_dir(dict({key: config[key] for key in kept}, grid=raw))

    split = _split(config, parsed.cascades)     # the run's own, shared across all cells
    rows, aborted = [], []
    for values, train_config in cells:
        result = train(train_config, split, parsed.vocabulary.size)
        if _aborted(result):
            cell = ",".join(f"{key}={value}" for key, value in zip(axes, values))
            aborted.append(f"{cell}: {result.stopped}")
        report = _report_rows(evaluate(result.params, split.test, n_values))
        rows.append(",".join([str(value) for value in values] + [f"{value:.6f}" for _, _, value in report]))
        print(rows[-1])
    # a column per swept key, then one per row of report.csv, named from the last cell's
    header = list(axes) + [f"{metric}@{n}" if n else metric for metric, n, _ in report]
    (out_dir / "ablation.csv").write_text("\n".join([",".join(header)] + rows) + "\n", encoding="utf-8")
    for cell in aborted:
        print(f"training aborted in cell {cell}; its row is written", file=sys.stderr)
    return EXIT_TRAINING if aborted else EXIT_OK


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
    helps = {
        "train": "fit a model and write a checkpoint",
        "eval": "rank test cascades with a checkpoint",
        "ablate": "train and evaluate one model per cell of a grid of training keys",
        "synth": "generate community-diffusion cascades",
    }
    for command, text in helps.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key=value config file")
        for o in OPTIONS:
            if command in o.commands:
                p.add_argument(
                    "--" + o.name.replace("_", "-"), dest=o.name, type=o.type,
                    choices=o.choices, help=o.help,
                )
    return parser


_COMMANDS = {"train": cmd_train, "ablate": cmd_ablate, "synth": cmd_synth}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        given = given_config(args)
        config = dict(DEFAULTS[args.command], **given, command=args.command)
        if args.command == "eval":
            return cmd_eval(config, given)
        return _COMMANDS[args.command](config)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
