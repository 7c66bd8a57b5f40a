"""Two-stage trainer and exact-match evaluation.

Stage one aligns representations on translation pairs (ciphered sentence in,
base sentence out); stage two tunes on task prompts. Both stages update only
the bridge parameters the ablation flags leave trainable. ``StageConfig``'s
defaults are the reference hyperparameters and are what run metadata reports;
synthetic desk-scale runs use the calibrated ``SYNTHETIC_STAGES`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import STAGE_TASK, STAGE_TRANSLATION, STAGES, ParallelExample, SynthCorpus, SynthSpec, Vocabulary
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .errors import ConfigError, IngestionError, InputError
from .files import write_atomic
from .model import AblationFlags, BridgedModel
from .optim import AdamState, adam_step

STAGE1_DEFAULT_LR = 4e-5
STAGE2_DEFAULT_LR = 3e-5
DEFAULT_BATCH = 128
DEFAULT_EPOCHS = 3
DEFAULT_WARMUP_RATIO = 0.05


@dataclass(frozen=True)
class StageConfig:
    """Hyperparameters for one training stage.

    Defaults are the reference recipe for stage 1; the stage-2 reference
    differs only in its learning rate, ``STAGE2_DEFAULT_LR``.
    """

    learning_rate: float = STAGE1_DEFAULT_LR
    epochs: int = DEFAULT_EPOCHS
    batch_size: int = DEFAULT_BATCH
    warmup_ratio: float = DEFAULT_WARMUP_RATIO
    trace_every: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.trace_every < 1:
            raise ConfigError(f"trace_every must be >= 1, got {self.trace_every}")
        if not 0 <= self.warmup_ratio < 1:
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")


@dataclass
class TraceRow:
    step: int
    stage: str
    loss: float
    lr: float
    gates: list[float]


@dataclass
class TrainResult:
    stage: str
    steps: int
    final_loss: float
    epoch_losses: list[float]
    trace: list[TraceRow]
    rejected_steps: int


def write_trace(path: str | Path, rows: list[TraceRow]) -> None:
    n_gates = len(rows[0].gates) if rows else 0
    lines = [",".join(["step", "stage", "loss", "lr"] + [f"gate_{i + 1}" for i in range(n_gates)])]
    for row in rows:
        cells = [str(row.step), row.stage, repr(row.loss), repr(row.lr)] + [repr(g) for g in row.gates]
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")


def tokenize_examples(
    examples: list[ParallelExample], vocab: Vocabulary
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    srcs = [vocab.encode(ex.source_text) for ex in examples]
    tgts = [vocab.encode(ex.target_text) for ex in examples]
    return srcs, tgts


def _run_stage(
    model: BridgedModel,
    plan: StageConfig,
    expected_tag: str,
    examples: list[ParallelExample],
    vocab: Vocabulary,
    seed: int,
    on_epoch_end,
) -> TrainResult:
    for i, ex in enumerate(examples):
        if ex.stage != expected_tag:
            raise IngestionError(
                f"example {i} tagged {ex.stage!r} in a {expected_tag!r}-stage corpus "
                f"(source: {ex.source_text[:40]!r})"
            )
    if not examples:
        raise IngestionError(f"empty {expected_tag}-stage corpus")
    srcs, tgts = tokenize_examples(examples, vocab)
    n = len(examples)
    steps_per_epoch = math.ceil(n / plan.batch_size)
    total_steps = steps_per_epoch * plan.epochs
    opt = AdamState(
        base_lr=plan.learning_rate,
        warmup_steps=int(round(plan.warmup_ratio * total_steps)),
    )
    params = model.trainable_params()
    # stage one shuffles with stream 1 and stage two with stream 2
    rng = np.random.default_rng(np.random.SeedSequence([seed, STAGES.index(expected_tag) + 1]))
    trace: list[TraceRow] = []
    epoch_losses: list[float] = []
    step = 0
    final_loss = float("nan")
    for epoch in range(plan.epochs):
        order = rng.permutation(n)
        losses = []
        for b0 in range(0, n, plan.batch_size):
            idx = order[b0 : b0 + plan.batch_size]
            batch_src = [srcs[i] for i in idx]
            batch_tgt = [tgts[i] for i in idx]
            with ad.Tape() as tape:
                loss = model.loss_on_batch(expected_tag, batch_src, batch_tgt)
            ad.backward(tape, loss)
            loss_val = loss.item()
            if step % plan.trace_every == 0:
                trace.append(
                    TraceRow(
                        step=step,
                        stage=expected_tag,
                        loss=loss_val,
                        lr=opt.lr_at(opt.step_count),
                        gates=model.gates.snapshot(),
                    )
                )
            adam_step(opt, params)
            losses.append(loss_val)
            final_loss = loss_val
            step += 1
        epoch_losses.append(float(np.mean(losses)))
        if on_epoch_end is not None:
            on_epoch_end(epoch, epoch_losses[-1], step)
    trace.append(
        TraceRow(
            step=step,
            stage=expected_tag,
            loss=final_loss,
            lr=opt.lr_at(max(opt.step_count - 1, 0)),
            gates=model.gates.snapshot(),
        )
    )
    return TrainResult(
        stage=expected_tag,
        steps=step,
        final_loss=final_loss,
        epoch_losses=epoch_losses,
        trace=trace,
        rejected_steps=opt.rejected_steps,
    )


def train_stage1(
    model: BridgedModel,
    plan: StageConfig,
    corpus: list[ParallelExample],
    vocab: Vocabulary,
    seed: int = 0,
    on_epoch_end=None,
) -> TrainResult:
    return _run_stage(model, plan, STAGE_TRANSLATION, corpus, vocab, seed, on_epoch_end)


def train_stage2(
    model: BridgedModel,
    plan: StageConfig,
    corpus: list[ParallelExample],
    vocab: Vocabulary,
    seed: int = 0,
    on_epoch_end=None,
) -> TrainResult:
    return _run_stage(model, plan, STAGE_TASK, corpus, vocab, seed, on_epoch_end)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def normalize_answer(text: str) -> str:
    return " ".join(text.split())


@dataclass
class EvalReport:
    per_lang: dict[str, float]
    aggregates: dict[str, float]


def evaluate(
    model: BridgedModel,
    examples: list[ParallelExample],
    vocab: Vocabulary,
    tiers: dict[str, str],
    max_new_tokens: int = 8,
) -> EvalReport:
    """Greedy-decode every example and score exact match per language.

    Aggregates are unweighted means over languages: Avg over all languages
    present, Lrl/Hrl over languages mapped to that tier. A language missing
    from ``tiers`` counts toward Avg only.
    """
    if not examples:
        raise ConfigError("evaluate needs a nonempty split")
    hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for ex in examples:
        src = vocab.encode(ex.source_text)
        out_ids = model.generate_answer(ex.stage, src, max_new_tokens=max_new_tokens)
        try:
            pred = normalize_answer(vocab.decode(out_ids))
        except InputError:
            # the decoder's vocabulary may be wider than the data vocabulary;
            # an id with no word form is simply a wrong answer, not a crash
            pred = None
        gold = normalize_answer(ex.target_text)
        lang = ex.source_lang
        totals[lang] = totals.get(lang, 0) + 1
        hits[lang] = hits.get(lang, 0) + int(pred == gold)
    per_lang = {lang: 100.0 * hits[lang] / totals[lang] for lang in sorted(totals)}
    lrl = [acc for lang, acc in per_lang.items() if tiers.get(lang) == "lrl"]
    hrl = [acc for lang, acc in per_lang.items() if tiers.get(lang) == "hrl"]
    aggregates = {
        "Avg": float(np.mean(list(per_lang.values()))),
        "Lrl": float(np.mean(lrl)) if lrl else float("nan"),
        "Hrl": float(np.mean(hrl)) if hrl else float("nan"),
    }
    return EvalReport(per_lang=per_lang, aggregates=aggregates)


# ---------------------------------------------------------------------------
# the desk-scale benchmark: train arms on one synthetic corpus and compare
# ---------------------------------------------------------------------------


# Calibrated (stage 1, stage 2) hyperparameters for synthetic-corpus runs.
# Smaller batches and far larger learning rates than the reference defaults:
# the trainable bridge is tiny and randomly initialized, not a pretrained 7B
# model.
#
# Stage 2 runs at half the stage-1 rate. A bridge that already speaks the
# ciphers only needs to adapt to the task format, and the halved rate is
# enough for that; a bridge trained from scratch on task rows alone has to
# escape a much worse starting point, which the same rate is too slow to do
# in the epoch budget. That asymmetry is what the stage-comparison experiment
# measures, so these numbers are calibrated together with benchmark_spec and
# should change only with a fresh three-seed check.
SYNTHETIC_STAGES = (StageConfig(2e-2, 3, 32), StageConfig(1e-2, 6, 32))

# The benchmark arms: name -> (ablations, whether the arm trains at all).
ARMS: dict[str, tuple[AblationFlags, bool]] = {
    "full": (AblationFlags(), True),
    "skip_stage1": (AblationFlags(skip_stage1=True), True),
    "no_aligner": (AblationFlags(no_aligner=True), True),
    "untrained": (AblationFlags(), False),
}

# How many points of low-resource exact match full must score above each
# other arm for the benchmark to pass.
MARGINS = {"skip_stage1": 5.0, "no_aligner": 5.0, "untrained": 30.0}


def benchmark_spec(**overrides) -> SynthSpec:
    """The calibrated three-language benchmark corpus.

    Two high-resource cipher languages and one low-resource one. Tiering
    applies to the translation stage only: the low-resource language gets
    30% of the stage-1 sentence pairs but the same task split as everyone
    else, so the arms differ only in what stage 1 taught them about it.
    """
    fields = dict(
        stage1_per_hrl=16000,
        lrl_fraction=0.30,
        stage2_per_lang=1500,
        eval_per_lang=100,
        parallel_sentences=24,
        tasks=("copy",),
        active_words=80,
        copy_max_words=3,
    )
    fields.update(overrides)
    return SynthSpec(**fields)


@dataclass
class ArmOutcome:
    model: BridgedModel
    report: EvalReport
    results: list[TrainResult]
    digest_before: str
    digest_after: str
    gates_after: list[float]


def train_arms(
    corpus: SynthCorpus,
    seed: int,
    arms: list[str],
    stages: tuple[StageConfig, StageConfig],
    enc_config=None,
    dec_config=None,
) -> dict[str, ArmOutcome]:
    """Train each named arm on one corpus and evaluate it on the task split."""
    out: dict[str, ArmOutcome] = {}
    for arm in arms:
        ablations, do_train = ARMS[arm]
        model = BridgedModel(
            enc_config or EncoderConfig(),
            dec_config or DecoderConfig(),
            ablations=ablations,
            seed=seed,
        )
        digest_before = model.frozen_digest()
        results: list[TrainResult] = []
        if do_train:
            if not ablations.skip_stage1:
                results.append(train_stage1(model, stages[0], corpus.stage1, corpus.vocab, seed))
            results.append(train_stage2(model, stages[1], corpus.stage2, corpus.vocab, seed))
        out[arm] = ArmOutcome(
            model=model,
            report=evaluate(model, corpus.eval_task, corpus.vocab, corpus.tiers()),
            results=results,
            digest_before=digest_before,
            digest_after=model.frozen_digest(),
            gates_after=model.gates.snapshot(),
        )
    return out
