"""Command-line entry point: gen-synth, train, eval, analyze.

Every command is deterministic given (config, seed, corpus bytes): outputs
carry no timestamps, floats are written with repr, and every file but the
optional PNG plots goes through ``files.write_atomic``. Exit codes: 0 success, 2 configuration or
contract problem, 3 numeric failure, 4 I/O problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import build_report, write_report
from .checkpoint import checkpoint_from_params, load_checkpoint, restore_params, save_checkpoint
from .config import RunConfig, build_model, config_digest, load_run_config
from .data import generate_synthetic_corpus, load_corpus_dir, write_corpus_dir
from .errors import (
    ConfigError,
    ContractError,
    EmptyLossError,
    IngestionError,
    InputError,
    NumericError,
    PairingError,
)
from .files import write_atomic
from .model import AblationFlags
from .training import (
    EvalReport,
    evaluate,
    train_stage1,
    train_stage2,
    write_trace,
)

STAGE_NAMES = {"1": "translation", "2": "task"}


def _apply_cli_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "out", None) is not None:
        config.out_dir = args.out
    updates: dict = {}
    if getattr(args, "ablate", None):
        valid = {f.name for f in dataclasses.fields(AblationFlags) if f.name != "layer_subset"}
        for name in args.ablate.split(","):
            name = name.strip()
            if not name:
                continue
            if name not in valid:
                raise ConfigError(f"unknown ablation flag {name!r}; valid: {sorted(valid)}")
            updates[name] = True
    if getattr(args, "layers", None) is not None:
        updates["layer_subset"] = args.layers
    if updates:
        config.ablations = dataclasses.replace(config.ablations, **updates)
    return config


def _load_corpus(config: RunConfig):
    if config.data.corpus_dir is not None:
        return load_corpus_dir(config.data.corpus_dir)
    return generate_synthetic_corpus(config.data.synth, config.seed)


def cmd_gen_synth(args) -> int:
    config = _apply_cli_overrides(load_run_config(args.config), args)
    corpus = generate_synthetic_corpus(config.data.synth, config.seed)
    out_dir = Path(config.out_dir) / "corpus"
    paths = write_corpus_dir(out_dir, corpus, config.seed)
    counts = {
        "stage1": len(corpus.stage1),
        "stage2": len(corpus.stage2),
        "eval_task": len(corpus.eval_task),
        "eval_parallel": len(corpus.eval_parallel),
    }
    print(f"wrote {len(paths)} files under {out_dir}")
    for name, count in counts.items():
        print(f"  {name}: {count} rows")
    return 0


def _reference_defaults() -> dict:
    reference = RunConfig()
    return {
        "stage1": dataclasses.asdict(reference.stage1),
        "stage2": dataclasses.asdict(reference.stage2),
    }


def cmd_train(args) -> int:
    config = _apply_cli_overrides(load_run_config(args.config), args)
    stage = STAGE_NAMES[args.stage]
    digest = config_digest(config)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if stage == "task" and args.resume is None:
        config.ablations = dataclasses.replace(config.ablations, skip_stage1=True)

    corpus = _load_corpus(config)
    model = build_model(config)
    if args.resume is not None:
        ckpt = load_checkpoint(args.resume, expected_digest=digest, force=args.force)
        restore_params(model.trainable_params(), ckpt)

    if stage == "translation":
        plan, examples, train = config.stage1, corpus.stage1, train_stage1
    else:
        plan, examples, train = config.stage2, corpus.stage2, train_stage2
    ckpt_path = out_dir / "checkpoint.bin"
    trace_path = out_dir / f"trace_stage{args.stage}.csv"

    def on_epoch_end(epoch: int, epoch_loss: float, steps: int) -> None:
        save_checkpoint(
            ckpt_path,
            checkpoint_from_params(model.trainable_params(), digest, stage, steps),
        )

    result = train(model, plan, examples, corpus.vocab, config.seed, on_epoch_end)

    save_checkpoint(
        ckpt_path,
        checkpoint_from_params(model.trainable_params(), digest, stage, result.steps),
    )
    write_trace(trace_path, result.trace)
    metadata = {
        "stage": stage,
        "seed": config.seed,
        "config_digest": digest,
        "ablations": config.ablations.active(),
        "plan": {
            "learning_rate": plan.learning_rate,
            "epochs": plan.epochs,
            "batch_size": plan.batch_size,
            "warmup_ratio": plan.warmup_ratio,
            "clip_norm": plan.clip_norm,
        },
        "reference_defaults": _reference_defaults(),
        "steps": result.steps,
        "rejected_steps": result.rejected_steps,
        "final_loss": result.final_loss,
        "epoch_losses": result.epoch_losses,
        "gates": model.gates.snapshot(),
        "corpus_rows": len(examples),
    }
    write_atomic(out_dir / "metadata.json", json.dumps(metadata, sort_keys=True, indent=2) + "\n")
    print(f"stage {args.stage} done: {result.steps} steps, final loss {result.final_loss:.4f}")
    print(f"checkpoint: {ckpt_path}")
    if not np.isfinite(result.final_loss):
        print("final loss is not finite", file=sys.stderr)
        return 3
    return 0


def _restore_for_inference(config: RunConfig, checkpoint_path: str, force: bool):
    model = build_model(config)
    ckpt = load_checkpoint(checkpoint_path, expected_digest=config_digest(config), force=force)
    restore_params(model.trainable_params(), ckpt)
    return model


def write_eval_csv(path: Path, report: EvalReport) -> None:
    lines = ["name,kind,accuracy"]
    for lang, acc in sorted(report.per_lang.items()):
        lines.append(f"{lang},language,{acc!r}")
    for key in ("Avg", "Lrl", "Hrl"):
        lines.append(f"{key},aggregate,{report.aggregates[key]!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def cmd_eval(args) -> int:
    config = _apply_cli_overrides(load_run_config(args.config), args)
    corpus = _load_corpus(config)
    model = _restore_for_inference(config, args.checkpoint, args.force)
    split = corpus.eval_task if args.split == "task" else corpus.stage2
    report = evaluate(model, split, corpus.vocab, corpus.tiers())
    write_eval_csv(Path(config.out_dir) / "eval.csv", report)
    for lang, acc in sorted(report.per_lang.items()):
        print(f"{lang:12s} {acc:6.1f}")
    for key in ("Avg", "Lrl", "Hrl"):
        print(f"{key:12s} {report.aggregates[key]:6.1f}")
    return 0


def cmd_analyze(args) -> int:
    config = _apply_cli_overrides(load_run_config(args.config), args)
    corpus = _load_corpus(config)
    model = _restore_for_inference(config, args.checkpoint, args.force)
    report = build_report(
        model,
        corpus.eval_parallel,
        corpus.vocab,
        include_prompt=config.diagnostics.include_prompt,
    )
    out_dir = Path(config.out_dir) / "report"
    paths = write_report(out_dir, report, plots=config.diagnostics.plots)
    print(f"wrote {len(paths)} report files under {out_dir}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON run config")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override config output directory")
    parser.add_argument("--ablate", help="comma-separated ablation flags to enable")
    parser.add_argument("--layers", help="encoder layer subset spec, e.g. first:4 or last_hidden")
    parser.add_argument("--force", action="store_true", help="skip config digest checks on load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layerbridge",
        description="Train and probe a frozen encoder-decoder bridge with layer-wise fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="write a synthetic cipher corpus")
    _add_common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="run one training stage")
    _add_common(p)
    p.add_argument("--stage", choices=("1", "2"), required=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the task split")
    _add_common(p)
    p.add_argument("checkpoint")
    p.add_argument("--split", choices=("task", "train"), default="task")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="write the diagnostics report directory")
    _add_common(p)
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError, InputError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (NumericError, EmptyLossError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3
    except (IngestionError, PairingError, OSError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
