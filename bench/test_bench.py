"""Self-tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

import run
import workload
from tracer import OpClock, Patcher, SetupReached, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# split sizes small enough for a test: a few ops per workload
TINY = 0.2


def fake_clock(times):
    readings = iter(times)
    return lambda: next(readings)


def test_percentile_needs_ten_samples_above_it():
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(100, 0, -1)), 50) == 50
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_self_time_of_nested_spans():
    # root [0, 10] holds b [2, 5], which holds c [3, 4], and d [6, 9]
    tracer = Tracer(clock=fake_clock([0, 2, 3, 4, 5, 6, 9, 10]))
    c = tracer.timed("c", lambda: None)
    b = tracer.timed("b", lambda: c())
    d = tracer.timed("d", lambda: None)

    def root():
        b()
        d()

    tracer.call("root", root)
    assert dict(tracer.self_s) == {"root": 4, "b": 2, "c": 1, "d": 3}
    assert dict(tracer.total_s) == {"root": 10, "b": 3, "c": 1, "d": 3}
    assert sum(tracer.self_s.values()) == tracer.wall_s == 10


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4]))

    def fail():
        raise KeyError

    inner = tracer.timed("inner", fail)
    with pytest.raises(KeyError):
        tracer.call("outer", inner)
    assert dict(tracer.self_s) == {"outer": 2, "inner": 2}
    assert tracer.wall_s == 4


def test_op_clock_latency_is_the_gap_to_the_previous_op():
    clock = OpClock(clock=fake_clock([10, 11, 13, 20, 24, 25]))
    op = clock.op_end(lambda: None)
    phase = clock.phase_before(lambda: [op() for _ in range(2)])
    phase()
    phase()
    assert clock.durations() == [1, 2, 4, 1]
    assert [first for first, _, _ in clock.phases] == [0, 2]


def test_probing_clock_stops_at_the_first_phase():
    clock = OpClock(clock=fake_clock([5]), probe=True)
    ran = []
    with pytest.raises(SetupReached):
        clock.phase_before(lambda: ran.append(1))()
    assert not ran and clock.phases[0][1] == 5


def test_patcher_restores_in_reverse_order():
    class Owner:
        def f(self):
            return 1

    original = vars(Owner)["f"]
    patcher = Patcher()
    patcher.patch(Owner, "f", lambda fn: lambda self: 2)
    patcher.patch(Owner, "f", lambda fn: lambda self: fn(self) + 1)
    assert Owner().f() == 3
    patcher.restore()
    assert vars(Owner)["f"] is original
    with pytest.raises(KeyError):
        patcher.patch(Owner, "missing", lambda fn: fn)


def patch_targets():
    """Every (owner, attribute) any benchmark mode may replace."""
    targets = [(workload.resolve(owner), attr) for owner, attr, _ in workload.SPANS]
    for (op_owner, op_attr), (phase_owner, phase_attr), _ in workload.OP_HOOKS.values():
        targets += [(workload.resolve(op_owner), op_attr), (workload.resolve(phase_owner), phase_attr)]
    targets += [(workload.resolve("layerbridge.nn"), "attention"), (workload.resolve("layerbridge.decoder"), "attention")]
    targets += [(workload.resolve("layerbridge.autodiff"), op) for op in workload.AUTODIFF_OPS]
    return targets


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_traced_run_removes_every_wrapper(name, tmp_path):
    targets = patch_targets()
    before = [vars(owner)[attr] for owner, attr in targets]
    result = workload.run(name, 3, TINY, "trace", tmp_path)
    assert [vars(owner)[attr] for owner, attr in targets] == before
    decoder, nn = importlib.import_module("layerbridge.decoder"), importlib.import_module("layerbridge.nn")
    assert decoder.attention is nn.attention
    assert result["exit_codes"] and all(code == 0 for code in result["exit_codes"])
    layers = result["layers"]
    assert layers["trace.self_sum_ms"][0] == pytest.approx(layers["trace.wall_ms"][0], rel=1e-9)


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_untraced_run_installs_one_timestamp_per_op(name, tmp_path):
    op_hook, phase_hook, _ = workload.OP_HOOKS[name]
    result = workload.run(name, 3, TINY, "run", tmp_path)
    assert result["hooks"] == [f"{workload.resolve(owner).__name__}.{attr}" for owner, attr in (op_hook, phase_hook)]
    assert result["ops_completed"] == result["ops_attempted"] == len(result["op_ms"])
    assert "layers" not in result


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    def counts():
        layers = workload.run(name, 5, TINY, "trace", tmp_path / str(len(list(tmp_path.iterdir()))))["layers"]
        return {k: v for k, (v, unit) in layers.items() if unit in ("count", "bytes", "GFLOP", "pos/token")}

    first = counts()
    assert first == counts()
    if name == "train":
        assert first["autodiff.tape_entries_per_step"] > 0 and first["autodiff.matmul.gflop"] > 0
    if name == "eval":
        assert first["decoder.positions_per_token"] > 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    expected = {name: unit for name, (unit, _, _) in workload.LAYER_METRICS.items()}
    expected.update(workload.OVERHEAD_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)


def test_checks_count_a_wrong_answer_and_a_rejected_step():
    base = {"exit_codes": [0], "ops_completed": 4, "ops_attempted": 4}
    eval_result = dict(base, workload="eval", answers=["a", "b", "x", "d"])
    (name, ok, detail), = [c for c in run.checks(eval_result, {"answers": "a b c d"})
                           if c[0].startswith("answer")]
    assert not ok and "0.7500" in detail
    train_result = dict(base, workload="train", rejected_steps=1, final_losses=[3.0, 2.0],
                        last_epoch_losses=[3.5, 2.5])
    reference = {"last_epoch_losses": [3.5, 2.6]}
    verdicts = {name: ok for name, ok, _ in run.checks(train_result, reference)}
    assert verdicts == {"cli exit codes": True, "ops completed": True, "adam steps accepted": False,
                        "final losses finite": True, "last-epoch losses vs reference": True}
    stalled = dict(train_result, last_epoch_losses=[3.5, 3.9])
    assert not dict((n, ok) for n, ok, _ in run.checks(stalled, reference))["last-epoch losses vs reference"]
    bad_loss = dict(train_result, final_losses=[3.0, float("nan")])
    assert not dict((n, ok) for n, ok, _ in run.checks(bad_loss, None))["final losses finite"]
