import hashlib
import json
import math
import struct

import pytest

from casdis import cli
from casdis import data as dt
from casdis import model as md
from casdis.evaluation import DEFAULT_N_VALUES, evaluate
from casdis.numerics import RngState
from casdis.training import TrainConfig, train

NUM_NODES = 12


def write_cascades(path, prefix):
    """Write 20 cascades of distinct lengths over the 12 ids ``<prefix>0..11``
    to ``path``; return the vocabulary parsing it gives."""
    cascades = [[f"{prefix}{(i + j) % NUM_NODES}" for j in range(i + 2)] for i in range(20)]
    path.write_text("\n".join(" ".join(c) for c in cascades) + "\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        return dt.parse_cascades(fh).vocabulary


@pytest.fixture
def workspace(tmp_path):
    """20 cascades of distinct lengths over 12 nodes, and a K=2, D=4
    checkpoint trained (nominally) with root seed 5."""
    data = tmp_path / "cascades.txt"
    write_cascades(data, "n")
    ckpt = tmp_path / "model.ckpt"
    md.save_checkpoint(ckpt, md.init_params(NUM_NODES, 4, 2, RngState(0)), seed=5)
    return tmp_path, data, ckpt


def run_eval(workspace, *extra):
    tmp_path, data, ckpt = workspace
    out = tmp_path / "eval"
    code = cli.main(["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(out), *extra])
    return code, out


def split_test_points(root_seed, data):
    with open(data, encoding="utf-8") as fh:
        cascades = dt.parse_cascades(fh).cascades
    split = dt.split_dataset(cascades, RngState.derive(root_seed, "split").seed)
    return sum(len(c) - 1 for c in split.test)


def test_eval_splits_with_the_checkpoint_seed(workspace):
    _, data, _ = workspace
    assert split_test_points(5, data) != split_test_points(1, data)  # the two splits are told apart
    code, out = run_eval(workspace)
    assert code == cli.EXIT_OK
    points = int((out / "report.csv").read_text().splitlines()[1].split(",")[3])
    assert points == split_test_points(5, data)
    assert "seed=5" in (out / "config.resolved").read_text().splitlines()


def test_eval_rejects_an_explicit_seed_other_than_the_checkpoint(workspace):
    tmp_path = workspace[0]
    assert run_eval(workspace, "--seed", "1")[0] == cli.EXIT_MISMATCH
    conf = tmp_path / "eval.conf"
    conf.write_text("seed=1\n", encoding="utf-8")
    assert run_eval(workspace, "--config", str(conf))[0] == cli.EXIT_MISMATCH
    assert run_eval(workspace, "--seed", "5")[0] == cli.EXIT_OK


@pytest.mark.parametrize("flags, code", [
    (["--k", "4"], cli.EXIT_MISMATCH),   # 4 is the default K
    (["--k", "3"], cli.EXIT_MISMATCH),
    (["--d", "64"], cli.EXIT_MISMATCH),  # 64 is the default D
    (["--k", "2", "--d", "4"], cli.EXIT_OK),
])
def test_eval_compares_only_explicit_k_and_d(workspace, flags, code):
    assert run_eval(workspace, *flags)[0] == code


def _rewrite_header(blob, edit):
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    edit(header)
    raw = json.dumps(header, sort_keys=True).encode()
    return blob[:8] + struct.pack("<Q", len(raw)) + raw + blob[16 + hlen:]


def _section_ends(blob):
    """0, then the offsets where the magic, the header length, the header and
    each tensor but the last end."""
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    ends = [0, 8, 16, 16 + hlen]
    for spec in json.loads(blob[16:16 + hlen])["tensors"][:-1]:
        ends.append(ends[-1] + 8 * math.prod(spec["shape"]))
    return ends


def _rename(header):
    header["tensors"][1]["name"] = "w_q"


def _reshape(header):
    header["tensors"][10]["shape"] = header["tensors"][10]["shape"][::-1]


def _resize(header):
    header["num_nodes"] += 1


def _no_vocabulary_key(header):
    del header["vocabulary_sha256"]


def _numeric_digest(header):
    header["vocabulary_sha256"] = 7


def _set(key, value):
    """The corruption that stores ``value`` under the header's ``key``."""
    return lambda blob: _rewrite_header(blob, lambda header: header.update({key: value}))


CORRUPTIONS = {
    "bad_magic": lambda blob: b"NOTCKPT\n" + blob[8:],
    "renamed_tensor": lambda blob: _rewrite_header(blob, _rename),
    "reshaped_tensor": lambda blob: _rewrite_header(blob, _reshape),
    "header_sizes_disagree": lambda blob: _rewrite_header(blob, _resize),
    "no_vocabulary_key": lambda blob: _rewrite_header(blob, _no_vocabulary_key),
    "numeric_vocabulary_digest": lambda blob: _rewrite_header(blob, _numeric_digest),
    # a seed or size that is not a JSON integer was cut to one, so eval split with another seed
    "float_seed": _set("seed", 5.9),
    "string_seed": _set("seed", "5"),
    "bool_seed": _set("seed", True),
    "whole_float_dim": _set("dim", 4.0),
    "trailing_bytes": lambda blob: blob + b"\0" * 8,
    "cut_inside_a_tensor": lambda blob: blob[:-4],
    # the last float of the last tensor, ln_bias
    "nan_parameter": lambda blob: blob[:-8] + struct.pack("<d", math.nan),
    "inf_parameter": lambda blob: blob[:-8] + struct.pack("<d", -math.inf),
}
# a checkpoint with 13 tensors has 16 such cuts
CORRUPTIONS.update(
    {f"cut_after_section_{i}": (lambda blob, i=i: blob[:_section_ends(blob)[i]]) for i in range(16)}
)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_is_rejected(workspace, name):
    _, _, ckpt = workspace
    blob = ckpt.read_bytes()
    assert len(_section_ends(blob)) == 16
    ckpt.write_bytes(CORRUPTIONS[name](blob))
    with pytest.raises(ValueError):
        md.load_checkpoint(ckpt)
    assert run_eval(workspace)[0] == cli.EXIT_MISMATCH


def vocabulary_workspace(tmp_path, prefix):
    """The workspace's cascades under the ids ``<prefix>0..11``, and a
    checkpoint that stores the vocabulary of the ids ``n0..n11``."""
    data = tmp_path / "cascades.txt"
    write_cascades(data, prefix)
    ckpt = tmp_path / "model.ckpt"
    trained = write_cascades(tmp_path / "trained.txt", "n")
    md.save_checkpoint(ckpt, md.init_params(NUM_NODES, 4, 2, RngState(0)), seed=5, vocabulary=trained)
    return tmp_path, data, ckpt


def test_eval_refuses_a_checkpoint_trained_on_other_ids(tmp_path):
    workspace = vocabulary_workspace(tmp_path, "m")   # same N, none of the ids
    assert run_eval(workspace)[0] == cli.EXIT_MISMATCH
    other = write_cascades(tmp_path / "other.txt", "m")
    with pytest.raises(ValueError, match="vocabulary"):
        md.load_checkpoint(workspace[2], other)
    md.load_checkpoint(workspace[2])                   # nothing to compare against


def test_eval_accepts_the_vocabulary_the_checkpoint_was_trained_on(tmp_path):
    assert run_eval(vocabulary_workspace(tmp_path, "n"))[0] == cli.EXIT_OK


def test_train_stores_the_vocabulary_that_eval_checks(workspace):
    tmp_path, data, _ = workspace
    run = tmp_path / "run"
    argv = ["train", "--k", "2", "--d", "4", "--epochs", "1", "--data", str(data), "--out", str(run)]
    assert cli.main(argv) == cli.EXIT_OK
    blob = (run / "model.ckpt").read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    with open(data, encoding="utf-8") as fh:
        ids = dt.parse_cascades(fh).vocabulary.ids
    expect = hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()
    assert json.loads(blob[16:16 + hlen])["vocabulary_sha256"] == expect
    renamed = tmp_path / "renamed.txt"
    write_cascades(renamed, "m")
    argv = ["eval", "--data", str(renamed), "--checkpoint", str(run / "model.ckpt"), "--out", str(tmp_path / "e")]
    assert cli.main(argv) == cli.EXIT_MISMATCH


def test_checkpoint_of_the_first_format_is_refused(workspace):
    _, _, ckpt = workspace
    blob = ckpt.read_bytes()
    old = _rewrite_header(blob, _no_vocabulary_key)
    ckpt.write_bytes(b"CASDIS1\n" + old[8:])
    with pytest.raises(ValueError, match="format 1"):
        md.load_checkpoint(ckpt)
    assert run_eval(workspace)[0] == cli.EXIT_MISMATCH


def test_unreadable_config_file_exits_with_the_input_code(tmp_path):
    missing = tmp_path / "missing.conf"
    assert cli.main(["synth", "--config", str(missing), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT


def test_config_file_that_is_not_utf8_exits_with_the_input_code(tmp_path, capsys):
    conf = tmp_path / "synth.conf"
    conf.write_bytes(b"seed=1\n# \xff\n")
    assert cli.main(["synth", "--config", str(conf), "--out", str(tmp_path / "o")]) == cli.EXIT_INPUT
    assert f"cannot read config file {conf}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["seed=abc", "epochs=1.5", "gumbel=On", "lr=fast"])
def test_bad_config_file_value_is_a_usage_error(workspace, capsys, line):
    tmp_path, data, _ = workspace
    conf = tmp_path / "train.conf"
    conf.write_text(f"# comment\n{line}\n", encoding="utf-8")
    out = tmp_path / "run"
    code = cli.main(["train", "--config", str(conf), "--data", str(data), "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert f"{conf}:2:" in capsys.readouterr().err
    assert not out.exists()


def test_flags_refuse_what_config_files_refuse(workspace):
    tmp_path, data, _ = workspace
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--gumbel", "On", "--data", str(data), "--out", str(tmp_path / "run")])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize("command, flag, value", [
    ("train", "lr", "0"),
    ("train", "batch-size", "0"),
    ("train", "d", "1"),
    ("train", "tau", "0"),
    ("train", "dropout", "1.5"),
    ("train", "max-len", "1"),
    ("ablate", "k-list", "0"),
    ("train", "patience", "-1"),
    ("train", "lr-patience", "0"),
    ("train", "clip-norm", "-1"),
    ("ablate", "n-list", "10,0"),
    ("train", "lr", "nan"),
    ("train", "lr", "inf"),
    ("train", "tau", "nan"),
    ("train", "tau", "inf"),
    ("train", "tau", "1e-308"),
], ids=lambda v: v)
def test_invalid_hyperparameters_exit_before_any_output(workspace, command, flag, value):
    tmp_path, data, _ = workspace
    out = tmp_path / "run"
    argv = [command, f"--{flag}", value, "--data", str(data), "--out", str(out), "--epochs", "1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n-list=0", "--n-list=-5", "--n-list=10,-1"])
def test_eval_refuses_cutoffs_below_one(workspace, flag):
    code, out = run_eval(workspace, flag)
    assert code == cli.EXIT_USAGE
    assert not out.exists()


def test_clip_norm_zero_still_means_no_clipping(workspace):
    tmp_path, data, _ = workspace
    out = tmp_path / "run"
    argv = ["train", "--clip-norm", "0", "--k", "2", "--d", "4", "--epochs", "1",
            "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert "clip_norm=0.0" in (out / "config.resolved").read_text().splitlines()


def test_option_defaults_are_the_library_defaults():
    # every training key takes its default from TrainConfig, and --n-list from evaluate
    for command in cli._FIT:
        assert cli._train_config(cli.DEFAULTS[command]) == TrainConfig()
    for command in ("eval", "ablate"):
        assert cli._int_list(cli.DEFAULTS[command]["n_list"], "--n-list") == DEFAULT_N_VALUES


def test_config_resolved_holds_only_the_keys_of_its_command(workspace):
    # a shared config file may hold another command's keys; they are accepted, not echoed
    tmp_path, data, _ = workspace
    conf = tmp_path / "shared.conf"
    conf.write_text("lr=0.01\ncascades=7\nn_list=5\ncheckpoint=elsewhere\n", encoding="utf-8")
    ckpt = tmp_path / "train" / "model.ckpt"
    runs = {"train": ["--k", "2", "--d", "4", "--epochs", "1"], "eval": ["--checkpoint", str(ckpt)]}
    for command, flags in runs.items():  # train first: eval reads its checkpoint
        out = tmp_path / command
        assert cli.main([command, "--config", str(conf), *flags, "--data", str(data), "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "config.resolved").read_text().splitlines()
        own = {o.name for o in cli.OPTIONS if command in o.commands}
        assert {line.partition("=")[0] for line in lines} == own | {"command"}
        assert f"command={command}" in lines
    assert "lr=0.01" in (tmp_path / "train" / "config.resolved").read_text().splitlines()
    assert "n_list=5" in (tmp_path / "eval" / "config.resolved").read_text().splitlines()


def test_ablate_rows_are_the_evaluations_of_their_trained_cells(tmp_path):
    synth = tmp_path / "synth"
    argv = ["synth", "--cascades", "60", "--nodes-per-community", "6", "--out", str(synth)]
    assert cli.main(argv) == cli.EXIT_OK
    data = synth / "cascades.txt"
    out = tmp_path / "ablate"
    argv = ["ablate", "--k-list", "1,2", "--d", "8", "--epochs", "1", "--lr", "0.05", "--n-list", "1,3,10",
            "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    rows = (out / "ablation.csv").read_text().splitlines()
    assert rows[0] == "k,d,hits@1,hits@3,hits@10,map@1,map@3,map@10,nats"
    with open(data, encoding="utf-8") as fh:
        parsed = dt.parse_cascades(fh)
    split = dt.split_dataset(parsed.cascades, RngState.derive(TrainConfig.seed, "split").seed)
    expect = []
    for k in (1, 2):
        result = train(TrainConfig(k=k, d=8, max_epochs=1, lr_init=0.05), split, parsed.vocabulary.size)
        report = evaluate(result.params, split.test, (1, 3, 10))
        values = [report.hits[n] for n in (1, 3, 10)] + [report.maps[n] for n in (1, 3, 10)] + [report.nats_per_step]
        expect.append(",".join([str(k), "8"] + [f"{v:.6f}" for v in values]))
    assert rows[1:] == expect and expect[0][1:] != expect[1][1:]  # the two cells are told apart
    # the echo holds the lists swept, not the single k and d they default to
    lines = (out / "config.resolved").read_text().splitlines()
    assert "k_list=1,2" in lines and "d_list=8" in lines
    assert not [line for line in lines if line.partition("=")[0] in ("k", "d")]


def test_ablate_takes_its_default_lists_from_k_and_d(workspace):
    # with no --k-list or --d-list, a config-file k= and a --d flag each sweep one value
    tmp_path, data, _ = workspace
    conf = tmp_path / "ablate.conf"
    conf.write_text("k=3\n", encoding="utf-8")
    out = tmp_path / "ablate"
    argv = ["ablate", "--config", str(conf), "--d", "4", "--epochs", "1", "--n-list", "5",
            "--data", str(data), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert [row.split(",")[:2] for row in (out / "ablation.csv").read_text().splitlines()] == [["k", "d"], ["3", "4"]]
    lines = (out / "config.resolved").read_text().splitlines()
    assert "k_list=3" in lines and "d_list=4" in lines
