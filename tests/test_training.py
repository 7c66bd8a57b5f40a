"""Two-stage trainer: stage config validation, reference defaults, optimization on a
memorizable example, trace bookkeeping, exact-match evaluation, and the
benchmark arm wiring.

The frozen random decoder head bounds how confident logits can get, so the
loss floors sit well above zero even on a fully memorized example; tests
assert exact-match reproduction and large loss drops instead of near-zero
loss values.
"""

import csv
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from layerbridge.data import ParallelExample, Vocabulary, generate_synthetic_corpus
from layerbridge.decoder import DecoderConfig
from layerbridge.encoder import EncoderConfig
from layerbridge.errors import ConfigError, IngestionError
from layerbridge.model import BridgedModel
from layerbridge.training import (
    ARMS,
    DEFAULT_BATCH,
    DEFAULT_EPOCHS,
    DEFAULT_WARMUP_RATIO,
    STAGE1_DEFAULT_LR,
    STAGE2_DEFAULT_LR,
    SYNTHETIC_STAGES,
    StageConfig,
    TraceRow,
    evaluate,
    train_arms,
    train_stage1,
    train_stage2,
    write_trace,
)
from conftest import TINY_SPEC

EC = EncoderConfig(vocab_size=64, d_enc=16, n_layers=3, n_heads=2, d_ff=24, max_positions=16)
DC = DecoderConfig(vocab_size=64, d_dec=16, n_layers=2, n_heads=2, d_ff=24, max_positions=24)

VOCAB = Vocabulary(64)
W = VOCAB.words[29:33]


def translation_example():
    return ParallelExample(
        source_text=f"{W[0]} {W[1]} {W[2]}",
        source_lang="x",
        target_text=f"{W[2]} {W[1]} {W[0]}",
        stage="translation",
    )


# ---------------------------------------------------------------------------
# stage configs and defaults
# ---------------------------------------------------------------------------


def test_reference_defaults():
    p1 = StageConfig()
    p2 = StageConfig(learning_rate=STAGE2_DEFAULT_LR)
    assert (p1.learning_rate, p2.learning_rate) == (4e-5, 3e-5)
    for plan in (p1, p2):
        assert plan.batch_size == 128
        assert plan.epochs == 3
        assert plan.warmup_ratio == 0.05
    assert (STAGE1_DEFAULT_LR, STAGE2_DEFAULT_LR) == (4e-5, 3e-5)
    assert (DEFAULT_BATCH, DEFAULT_EPOCHS, DEFAULT_WARMUP_RATIO) == (128, 3, 0.05)


def test_default_plan_overrides():
    plan = replace(StageConfig(learning_rate=STAGE2_DEFAULT_LR), epochs=7)
    assert plan.epochs == 7
    assert plan.learning_rate == STAGE2_DEFAULT_LR
    with pytest.raises(FrozenInstanceError):
        plan.epochs = 3


@pytest.mark.parametrize(
    "kwargs",
    [
        {"trace_every": 0},
        {"epochs": 0},
        {"batch_size": 0},
        {"warmup_ratio": 1.0},
        {"warmup_ratio": -0.1},
        {"learning_rate": 0.0},
    ],
)
def test_plan_validation(kwargs):
    base = dict(learning_rate=1e-3)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        StageConfig(**base)


def test_synthetic_stages_hold_calibrated_values():
    s1, s2 = SYNTHETIC_STAGES
    assert (s1.learning_rate, s1.epochs, s1.batch_size) == (2e-2, 3, 32)
    assert (s2.learning_rate, s2.epochs, s2.batch_size) == (1e-2, 6, 32)
    assert s1.warmup_ratio == s2.warmup_ratio == DEFAULT_WARMUP_RATIO
    assert s1.trace_every == s2.trace_every == 10


def test_seed_drives_the_batch_order():
    examples = [
        ParallelExample(f"{a} {b}", "x", f"{b} {a}", "translation")
        for a, b in zip(W, W[1:] + W[:1])
    ]
    plan = StageConfig(learning_rate=1e-2, epochs=1, batch_size=1)

    def trained(seed):
        model = BridgedModel(EC, DC, seed=0)
        train_stage1(model, plan, examples, VOCAB, seed=seed)
        return model.trainable_params()

    first, again, other = trained(0), trained(0), trained(1)
    assert all(np.array_equal(first[k].data, again[k].data) for k in first)
    assert any(not np.array_equal(first[k].data, other[k].data) for k in first)


def test_corpus_stage_tags_checked():
    model = BridgedModel(EC, DC, seed=0)
    plan = StageConfig(learning_rate=1e-3)
    with pytest.raises(IngestionError, match="tagged 'translation'"):
        train_stage2(model, plan, [translation_example()], VOCAB)


def test_epoch_callback_sees_steps_so_far():
    model = BridgedModel(EC, DC, seed=0)
    plan = StageConfig(learning_rate=1e-3, epochs=3, batch_size=2)
    seen = []
    result = train_stage1(
        model, plan, [translation_example()] * 5, VOCAB,
        on_epoch_end=lambda epoch, loss, steps: seen.append((epoch, steps)),
    )
    steps_per_epoch = 3  # ceil(5 / 2)
    assert seen == [(k, (k + 1) * steps_per_epoch) for k in range(3)]
    assert result.steps == seen[-1][1]


def test_empty_corpus_rejected():
    model = BridgedModel(EC, DC, seed=0)
    plan = StageConfig(learning_rate=1e-3)
    with pytest.raises(IngestionError, match="empty"):
        train_stage1(model, plan, [], VOCAB)


# ---------------------------------------------------------------------------
# optimization behavior
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def memorized_run():
    ex = translation_example()
    model = BridgedModel(EC, DC, seed=0)
    plan = StageConfig(learning_rate=2e-2, epochs=300, batch_size=1, warmup_ratio=0.05)
    result = train_stage1(model, plan, [ex], VOCAB, seed=0)
    return model, result, ex


def test_single_example_is_memorized(memorized_run):
    model, result, ex = memorized_run
    out = model.generate_answer("translation", VOCAB.encode(ex.source_text), max_new_tokens=6)
    assert VOCAB.decode(out) == ex.target_text
    assert result.final_loss < 1.0
    assert result.final_loss < 0.25 * result.epoch_losses[0]
    assert result.steps == 300
    assert result.rejected_steps == 0


def test_training_never_touches_frozen_backbones(memorized_run):
    model, _, _ = memorized_run
    assert model.frozen_digest() == BridgedModel(EC, DC, seed=0).frozen_digest()


def test_training_moves_bridge_params_and_gates(memorized_run):
    model, _, _ = memorized_run
    fresh = BridgedModel(EC, DC, seed=0)
    trained = model.trainable_params()
    initial = fresh.trainable_params()
    assert any(
        not np.array_equal(trained[name].data, initial[name].data) for name in trained
    )
    assert any(abs(g) > 0 for g in model.gates.snapshot())


def test_epoch_losses_decline(memorized_run):
    _, result, _ = memorized_run
    assert len(result.epoch_losses) == 300
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_trace_rows_snapshot_before_update(memorized_run):
    _, result, _ = memorized_run
    first = result.trace[0]
    # the step-0 row is captured before any update: gates still at init
    assert first.step == 0
    assert first.gates == [0.0, 0.0]
    assert result.trace[-1].step == result.steps
    steps = [row.step for row in result.trace[:-1]]
    assert steps == list(range(0, 300, 10))


def test_warmup_shows_in_trace_lr(memorized_run):
    _, result, _ = memorized_run
    # warmup covers the first 15 steps, so the step-0 lr is base/15
    assert result.trace[0].lr == pytest.approx(2e-2 / 15)
    assert result.trace[-1].lr == pytest.approx(2e-2)


def read_trace(path):
    """A written trace parsed with the csv module, one TraceRow per data row."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header[:4] == ["step", "stage", "loss", "lr"]
    assert all(len(cells) == len(header) for cells in rows)
    return [
        TraceRow(step=int(c[0]), stage=c[1], loss=float(c[2]), lr=float(c[3]), gates=[float(g) for g in c[4:]])
        for c in rows
    ]


def test_trace_round_trip(tmp_path, memorized_run):
    _, result, _ = memorized_run
    path = tmp_path / "trace.csv"
    write_trace(path, result.trace)
    back = read_trace(path)
    assert back == result.trace  # repr() floats survive the round trip exactly


def test_write_trace_handles_empty(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(path, [])
    assert path.read_text() == "step,stage,loss,lr\n"
    assert read_trace(path) == []


def test_trace_row_gate_columns(tmp_path):
    rows = [TraceRow(step=0, stage="task", loss=1.5, lr=1e-3, gates=[0.0, -0.25])]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "step,stage,loss,lr,gate_1,gate_2"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class StubModel:
    """generate_answer keyed on the exact source ids; everything else missing."""

    def __init__(self, answers):
        self.answers = answers

    def generate_answer(self, stage, src, max_new_tokens=8):
        return list(self.answers.get(tuple(int(t) for t in src), []))


def _task_row(src, lang, tgt):
    return ParallelExample(source_text=src, source_lang=lang, target_text=tgt, stage="task")


def test_evaluate_scores_exact_match_per_language():
    rows = [
        _task_row(W[0], "A", W[1]),
        _task_row(W[1], "A", W[1]),
        _task_row(W[2], "B", W[0]),
        _task_row(f"{W[0]} {W[1]}", "C", W[2]),
    ]
    stub = StubModel(
        {
            (int(VOCAB.encode(W[0])[0]),): VOCAB.encode(W[1]),  # A: hit
            (int(VOCAB.encode(W[1])[0]),): VOCAB.encode(W[2]),  # A: miss
            tuple(int(t) for t in VOCAB.encode(f"{W[0]} {W[1]}")): VOCAB.encode(W[2]),  # C: hit
        }
    )
    report = evaluate(stub, rows, VOCAB, tiers={"A": "hrl", "B": "lrl"})
    assert report.per_lang == {"A": 50.0, "B": 0.0, "C": 100.0}
    assert report.aggregates["Avg"] == 50.0
    assert report.aggregates["Hrl"] == 50.0
    assert report.aggregates["Lrl"] == 0.0


def test_evaluate_without_lrl_tier_yields_nan():
    rows = [_task_row(W[0], "A", W[1])]
    report = evaluate(StubModel({}), rows, VOCAB, tiers={"A": "hrl"})
    assert np.isnan(report.aggregates["Lrl"])
    assert report.aggregates["Hrl"] == 0.0


def test_evaluate_rejects_empty_split():
    with pytest.raises(ConfigError, match="nonempty"):
        evaluate(StubModel({}), [], VOCAB, tiers={})


def test_evaluate_counts_undecodable_prediction_as_miss():
    rows = [_task_row(W[0], "A", W[1])]
    stub = StubModel({(int(VOCAB.encode(W[0])[0]),): [4999]})
    report = evaluate(stub, rows, VOCAB, tiers={"A": "hrl"})
    assert report.per_lang == {"A": 0.0}


# ---------------------------------------------------------------------------
# benchmark arms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_benchmark():
    corpus = generate_synthetic_corpus(TINY_SPEC, seed=1)
    stage = StageConfig(learning_rate=1e-2, epochs=1, batch_size=8)
    return train_arms(corpus, 1, list(ARMS), (stage, stage), enc_config=EC, dec_config=DC)


def test_benchmark_runs_expected_stages(tiny_benchmark):
    assert list(tiny_benchmark) == list(ARMS)
    assert [r.stage for r in tiny_benchmark["full"].results] == ["translation", "task"]
    assert [r.stage for r in tiny_benchmark["skip_stage1"].results] == ["task"]
    assert [r.stage for r in tiny_benchmark["no_aligner"].results] == ["translation", "task"]
    assert tiny_benchmark["untrained"].results == []


def test_benchmark_untrained_arm_is_pristine(tiny_benchmark):
    arm = tiny_benchmark["untrained"]
    assert arm.digest_before == arm.digest_after
    assert arm.gates_after == [0.0, 0.0]


def test_benchmark_frozen_digests_survive_training(tiny_benchmark):
    for arm in tiny_benchmark.values():
        assert arm.digest_before == arm.digest_after


def test_benchmark_full_arm_opens_gates(tiny_benchmark):
    assert any(abs(g) > 0 for g in tiny_benchmark["full"].gates_after)
