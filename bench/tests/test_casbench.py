"""Tests of the benchmark's own helpers: percentiles, host-speed scaling,
span self time, the stage walk that attributes numerics kernels, and the
tracer's patching."""

import inspect
import json
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import casdis  # noqa: E402
from casdis import model  # noqa: E402

from casbench import hostspeed, stats  # noqa: E402
from casbench import tracer as tr  # noqa: E402
from casbench import workloads as wl  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    assert stats.tail_percentile(samples, 50) == 50
    assert stats.tail_percentile(samples, 90) == 90
    with pytest.raises(ValueError):
        stats.tail_percentile(samples[:99], 90)  # 9 above p90
    with pytest.raises(ValueError):
        stats.tail_percentile(samples, 99)  # 1 above p99


def test_timed_calls_are_scaled_by_host_slowness():
    class HalfSpeed:
        def slowness(self):
            return 2.0

    [(raw, scaled, result)] = hostspeed.timed(HalfSpeed(), 0.0, lambda: "done")
    assert result == "done" and scaled == raw / 2.0


def test_self_time_subtracts_direct_children():
    # root [0,10] holds a [1,3] and b [4,9]; b holds c [5,7]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 7.0, 9.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    root = t.open("root")
    a = t.open("a")
    t.close(a)
    b = t.open("b")
    c = t.open("c")
    t.close(c)
    t.close(b)
    t.close(root)
    spans = t.take()
    assert [s[tr.PARENT] for s in spans] == [-1, root, root, b]
    assert tr.self_times(spans) == [3.0, 2.0, 3.0, 2.0]


# Kernel calls of one training forward of a 3-position prefix, in the order the
# fused forward makes them, with the stage each belongs to.
KNOWN_FORWARD = (
    [("gather_rows", "embed"), ("mul", "embed")]
    + [("matmul", "gru"), ("add", "gru")] * 3
    + [(k, "gru") for k in ("gate_preact", "sigmoid", "gate_preact", "sigmoid",
                            "mul", "gate_preact", "tanh", "gru_blend")] * 3
    + [("stack_rows", "gru"), ("dot_rows", "attention"), ("softmax_rows", "attention")]
    + [(k, "factor") for k in ("unit_rows", "unit_rows", "dot_rows", "mul", "gumbel_noise", "add", "softmax_rows")]
    + [("weighted_mix", "mix_ln"), ("layer_norm_rows", "mix_ln")]
    + [(k, "scoring") for k in ("gather_rows", "dot_rows", "mul", "max_over_axis")]
    + [(k, "loss") for k in ("logsumexp", "take_per_row", "sub", "sum_all")]
)


def test_stage_walk_of_a_known_forward():
    stage = tr.STAGES[0]
    got = []
    for kernel, _ in KNOWN_FORWARD:
        stage = tr.next_stage(kernel, stage)
        got.append((kernel, stage))
    assert got == KNOWN_FORWARD


def _traced_forward():
    params = model.init_params(6, 4, 2, casdis.RngState(3))
    t = tr.Tracer()
    restore = tr.install(t)
    try:
        out = model.forward_cascade(
            params, [0, 3, 1, 5], gumbel=model.GumbelConfig(rng=casdis.RngState(1)),
            training=True, dropout_rate=0.1, dropout_rng=casdis.RngState(2),
        )
        out.loss.backward()
    finally:
        restore()
    return t, t.take()


def test_live_forward_kernels_follow_the_stages():
    t, spans = _traced_forward()
    entry = next(i for i, s in enumerate(spans) if s[tr.NAME] == "model.forward_cascade")
    kernels = [s for s in spans if s[tr.PARENT] == entry and s[tr.NAME].startswith("numerics.")]
    if not kernels:
        pytest.skip("the forward pass no longer calls numerics kernels")
    order = [tr.STAGES.index(s[tr.ROLE]) for s in kernels]
    assert order == sorted(order)
    metrics = tr.layer_metrics(spans, t.wrapped, train_steps=3)
    stage_total = sum(v for k, v in metrics.items() if k.startswith("stage.") and k.endswith("_s"))
    assert 0 < stage_total <= sum(s[tr.END] - s[tr.START] for s in spans if s[tr.PARENT] == -1)


def test_install_rebinds_imported_names_and_restores_them():
    bound = {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if name == "casdis" or name.startswith("casdis.")
        for attr, obj in vars(mod).items()
        if inspect.isfunction(obj) and not attr.startswith("_")
        and obj.__module__ in {f"casdis.{layer}" for layer in tr.LAYERS}
    }
    t = tr.Tracer()
    restore = tr.install(t)
    try:
        for (name, attr), obj in bound.items():
            assert getattr(sys.modules[name], attr) is not obj, f"{name}.{attr} not wrapped"
    finally:
        restore()
    for (name, attr), obj in bound.items():
        assert getattr(sys.modules[name], attr) is obj


def test_metrics_of_missing_functions_are_left_out():
    assert tr.layer_metrics([], set(), train_steps=10) == {}
    metrics = tr.layer_metrics([], {"numerics.dot_rows"}, train_steps=10)
    assert metrics["stage.scoring_s"] == 0.0 and "stage.table_copy_mb" not in metrics


def test_benchmark_json_matches_the_metric_tables():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wl.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.PER_LAYER_UNITS
