"""Two-stage trainer: stage config validation, calibrated and reference
stage values, optimization on a memorizable example, trace bookkeeping,
exact-match evaluation, and the benchmark arm wiring.

The frozen random decoder head bounds how confident logits can get, so the
loss floors sit well above zero even on a fully memorized example; tests
assert exact-match reproduction and large loss drops instead of near-zero
loss values.
"""

import csv
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from layerbridge.config import DataConfig, RunConfig
from layerbridge.data import (
    EOS, STAGE_TASK, STAGE_TRANSLATION, ParallelExample, Vocabulary, generate_synthetic_corpus,
)
from layerbridge.decoder import PREFILL_ROWS, Decoder, DecoderConfig
from layerbridge.encoder import EncoderConfig
from layerbridge.errors import ConfigError, IngestionError
from layerbridge.model import INFERENCE_CHUNK, AblationFlags, BridgedModel
from layerbridge.training import (
    ARMS,
    REFERENCE_STAGES,
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
    p1, p2 = REFERENCE_STAGES
    assert (p1.learning_rate, p2.learning_rate) == (4e-5, 3e-5)
    for plan in (p1, p2):
        assert plan.batch_size == 128
        assert plan.epochs == 3
        assert plan.warmup_ratio == 0.05
    assert StageConfig() not in REFERENCE_STAGES


def test_default_plan_overrides():
    plan = replace(RunConfig().stage2, epochs=7)
    assert plan.epochs == 7
    assert plan.learning_rate == RunConfig().stage2.learning_rate
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


def test_default_stages_hold_calibrated_values():
    s1, s2 = RunConfig().stage1, RunConfig().stage2
    assert s1 == StageConfig()
    assert (s1.learning_rate, s1.epochs, s1.batch_size) == (2e-2, 3, 32)
    assert (s2.learning_rate, s2.epochs, s2.batch_size) == (1e-2, 6, 32)
    assert s1.warmup_ratio == s2.warmup_ratio == 0.05
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
    """generate_answer keyed on the exact source ids; each source's bridge
    pass is a placeholder that generate_answer checks it is handed."""

    def __init__(self, answers):
        self.answers = answers

    def bridged_rows(self, srcs, stages):
        assert len(stages) == len(srcs)
        for src in srcs:
            yield ("bridged", tuple(int(t) for t in src))

    def generate_answer(self, stage, src, max_new_tokens=8, bridged=None):
        key = tuple(int(t) for t in src)
        assert bridged == ("bridged", key)
        return list(self.answers.get(key, []))


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


def test_evaluate_matches_per_example_decoding(monkeypatch):
    corpus = generate_synthetic_corpus(replace(TINY_SPEC, eval_per_lang=12), seed=1)
    rows = corpus.eval_task
    assert len(rows) % 32 and len(rows) > 32
    model = BridgedModel(EC, DC, seed=2)
    for g in model.gates.values:
        g.data[...] = 0.5
    want = [
        model.generate_answer(ex.stage, corpus.vocab.encode(ex.source_text), max_new_tokens=8)
        for ex in rows
    ]
    got = []
    generate_answer = model.generate_answer

    def recorded(*args, **kwargs):
        assert kwargs["bridged"] is not None
        got.append(generate_answer(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(model, "generate_answer", recorded)
    report = evaluate(model, rows, corpus.vocab, corpus.tiers())
    assert got == want
    monkeypatch.setattr(model, "generate_answer", generate_answer)
    bridged_rows = model.bridged_rows
    monkeypatch.setattr(
        model,
        "bridged_rows",
        lambda srcs, stages: (next(bridged_rows([src], [stage])) for src, stage in zip(srcs, stages)),
    )
    per_example = evaluate(model, rows, corpus.vocab, corpus.tiers())
    assert report.per_lang == per_example.per_lang
    assert report.aggregates == per_example.aggregates


def _mixed_split() -> list[ParallelExample]:
    """44 rows, one full chunk and a partial one, both stages mixed. Sources
    run 1 to 11 words: a 1-word source, a length that occurs once in the
    first chunk (7 words), task prompts that leave fewer positions than the
    budget before ``max_positions`` (9 words: 20 positions of 24), and, with
    an adapter, a task prompt that fills them all (11 words)."""
    rng = np.random.default_rng(3)
    lengths = rng.choice([1, 2, 3, 9, 11], size=44)
    lengths[[0, 5]] = 1
    lengths[[6, 40]] = 9
    lengths[[7, 41]] = 11
    lengths[12] = 7
    stages = rng.choice([STAGE_TRANSLATION, STAGE_TASK], size=44)
    stages[[6, 7, 40, 41]] = STAGE_TASK
    words = VOCAB.words[4:]
    return [
        ParallelExample(
            source_text=" ".join(rng.choice(words, size=n)), source_lang="x", target_text=W[0], stage=str(stage)
        )
        for n, stage in zip(lengths, stages)
    ]


ARM_FLAGS = {
    "full": AblationFlags(),
    "no_adapter": AblationFlags(no_adapter=True),
    "no_aligner": AblationFlags(no_aligner=True),
    "last_hidden": AblationFlags(layer_subset="last_hidden"),
    "average": AblationFlags(layer_subset="average"),
}


@pytest.mark.parametrize("arm", list(ARM_FLAGS))
def test_evaluate_answers_equal_batch_one_decoding_bitwise(monkeypatch, arm):
    """Every answer ``evaluate`` decodes from its chunk's prefill equals,
    token for token, ``generate_answer`` with no given bridge pass, which
    encodes, bridges and prefills the row alone. The head's ``<eos>`` column
    is the column of the token most answers start with, so those rows end
    at once (a tie goes to the lower id, ``<eos>``)."""
    rows = _mixed_split()
    model = BridgedModel(EC, DC, ARM_FLAGS[arm], seed=2)
    rng = np.random.default_rng(4)
    for g in model.gates.values:
        g.data[...] = rng.uniform(0.25, 0.75)
    if model.aligner.mixing_logits is not None:
        model.aligner.mixing_logits.data[...] = rng.normal(size=model.aligner.mixing_logits.shape)
    srcs = [VOCAB.encode(ex.source_text) for ex in rows]

    def per_example():
        return [model.generate_answer(ex.stage, src, max_new_tokens=8) for ex, src in zip(rows, srcs)]

    firsts = [a[0] for a in per_example() if a]
    head = model.decoder.head.data
    head[:, EOS] = head[:, max(set(firsts), key=firsts.count)]
    want = per_example()
    assert any(a == [] for a in want) and any(len(a) >= 2 for a in want)
    if not ARM_FLAGS[arm].no_adapter:
        # a 9-word task prompt leaves 4 positions, an 11-word one none
        assert [len(want[i]) for i in (6, 40)] == [4, 4]
        assert want[7] == want[41] == []
    got = []
    generate_answer = model.generate_answer

    def recorded(*args, **kwargs):
        assert kwargs["bridged"] is not None
        got.append(generate_answer(*args, **kwargs))
        return got[-1]

    monkeypatch.setattr(model, "generate_answer", recorded)
    evaluate(model, rows, VOCAB, tiers={})
    assert got == want


def test_evaluate_feeds_each_chunk_groups_prompts_in_its_first_answer(monkeypatch):
    """The decoder's prompt pass runs once per piece of at most
    ``PREFILL_ROWS`` rows of each (chunk, stage, source length) group whose
    prompt leaves a position to decode, all of a chunk's inside the chunk's
    first answer; every other decoder call is one row's step."""
    rows = _mixed_split()
    model = BridgedModel(EC, DC, seed=2)
    events = []
    forward, generate_answer = Decoder.forward, model.generate_answer

    def counted(self, t0, fused, gates, cache=None, rows=None):
        assert cache is not None
        events.append(("prompt" if cache.offset == 0 else "step", t0.shape[0]))
        return forward(self, t0, fused, gates, cache, rows)

    def answered(*args, **kwargs):
        events.append(("answer", 1))
        return generate_answer(*args, **kwargs)

    monkeypatch.setattr(Decoder, "forward", counted)
    monkeypatch.setattr(model, "generate_answer", answered)
    evaluate(model, rows, VOCAB, tiers={})
    assert {batch for kind, batch in events if kind != "prompt"} == {1}
    answers = [j for j, (kind, _) in enumerate(events) if kind == "answer"] + [len(events)]
    assert len(answers) == len(rows) + 1
    pieces = 0
    for c0 in range(0, len(rows), INFERENCE_CHUNK):
        groups = {}
        for ex in rows[c0 : c0 + INFERENCE_CHUNK]:
            groups.setdefault((ex.stage, len(ex.source_text.split())), []).append(ex)
        # a prompt is <bos>, the soft prompt, <sep> and, at the task stage,
        # the source tokens
        want = sorted(
            len(piece)
            for (stage, n), members in groups.items()
            if 2 + n * (1 + (stage == STAGE_TASK)) < DC.max_positions
            for piece in np.array_split(members, -(-len(members) // PREFILL_ROWS))
        )
        assert sorted(batch for kind, batch in events[answers[c0] : answers[c0 + 1]] if kind == "prompt") == want
        pieces += len(want)
    assert sum(kind == "prompt" for kind, _ in events) == pieces


# ---------------------------------------------------------------------------
# benchmark arms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_benchmark():
    stage = StageConfig(learning_rate=1e-2, epochs=1, batch_size=8)
    config = RunConfig(seed=1, encoder=EC, decoder=DC, stage1=stage, stage2=stage,
                       data=DataConfig(synth=TINY_SPEC))
    return train_arms(config, generate_synthetic_corpus(config.data.synth, config.seed), list(ARMS))


def test_benchmark_runs_expected_stages(tiny_benchmark):
    assert list(tiny_benchmark) == list(ARMS)
    assert [r.stage for r in tiny_benchmark["full"].results] == ["translation", "task"]
    assert [r.stage for r in tiny_benchmark["skip_stage1"].results] == ["task"]
    assert [r.stage for r in tiny_benchmark["no_aligner"].results] == ["translation", "task"]
    assert tiny_benchmark["untrained"].results == []


def test_benchmark_untrained_arm_is_pristine(tiny_benchmark):
    arm = tiny_benchmark["untrained"]
    assert arm.digest_before == arm.model.frozen_digest()
    assert arm.model.gates.snapshot() == [0.0, 0.0]


def test_benchmark_frozen_digests_survive_training(tiny_benchmark):
    for arm in tiny_benchmark.values():
        assert arm.digest_before == arm.model.frozen_digest()


def test_benchmark_full_arm_opens_gates(tiny_benchmark):
    assert any(abs(g) > 0 for g in tiny_benchmark["full"].model.gates.snapshot())
